"""Each benchmark check passes on the simulator's output and fails on a wrong input."""

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT / "src", ROOT / "tests"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import bench_checks as checks  # noqa: E402
from eonjam import ControlMode, JammerConfig, TrafficModel, nsfnet, run_replication  # noqa: E402
from eonjam.sim import generate_request  # noqa: E402

NSFNET = ROOT / "src" / "eonjam" / "data" / "nsfnet.topo"
METRO = ROOT / "benchmarks" / "workloads" / "metro.topo"
TRAFFIC = {
    "load_erlangs": 200,
    "mean_holding_s": 600,
    "bandwidth_choices_gbps": [40, 200, 400],
    "requests_per_replication": 300,
}


def blocking_row(mode="aware", eps="1", rep=0, prob="0.5", no_spectrum=0, qot=150, jammed=0):
    return {
        "mode": mode,
        "target": "na" if mode == "no_jamming" else "8-9",
        "epsilon_db": eps,
        "replication": str(rep),
        "blocking_probability": prob,
        "blocked_no_spectrum": str(no_spectrum),
        "blocked_qot": str(qot),
        "blocked_jammed": str(jammed),
    }


def slot_rows(mode, eps, values):
    return [
        {"mode": mode, "target": "8-9", "epsilon_db": eps, "slot_index": str(i), "mean_utilization": v}
        for i, v in enumerate(values)
    ]


def test_blocking_row_sum_and_range():
    assert checks.check_blocking_rows([blocking_row()], 300) == {}
    wrong_sum = blocking_row(prob="0.5", qot=149)
    assert ("aware", "1", 0) in checks.check_blocking_rows([wrong_sum], 300)
    nothing_blocked = blocking_row(prob="0", qot=0)
    assert checks.check_blocking_rows([nothing_blocked], 300)
    all_blocked = blocking_row(prob="1", qot=300)
    assert checks.check_blocking_rows([all_blocked], 300)


def test_slot_values_in_unit_interval():
    assert checks.check_slot_rows(slot_rows("aware", "1", ["0", "0.25", "1"])) == {}
    assert checks.check_slot_rows(slot_rows("aware", "1", ["0.2", "1.0000001"])) == {
        ("aware", "1"): "slot 1 utilization 1.0000001 outside [0, 1]"
    }
    assert checks.check_slot_rows(slot_rows("aware", "1", ["-0.1"]))


def test_zero_db_rows_equal_no_jamming():
    base = [blocking_row("no_jamming", "na"), blocking_row("unaware", "0"), blocking_row("aware", "0")]
    slots = slot_rows("no_jamming", "na", ["0.1", "0.2"]) + slot_rows("unaware", "0", ["0.1", "0.2"])
    slots += slot_rows("aware", "0", ["0.1", "0.2"])
    assert checks.check_zero_db(base, slots) == {}

    shifted = base[:2] + [blocking_row("aware", "0", prob="0.5033333333", qot=151)]
    assert list(checks.check_zero_db(shifted, slots)) == [("aware", "0", 0)]
    moved = slots[:4] + slot_rows("aware", "0", ["0.1", "0.2000000001"])
    assert list(checks.check_zero_db(base, moved)) == [("aware", "0", 0)]


def test_static_bound():
    row = blocking_row(prob="0.5", qot=150)
    assert checks.check_static_bound([row], 300, {0: 150}) == {}
    assert checks.check_static_bound([row], 300, {0: 151})


def test_static_reach_matches_the_measured_nsfnet_counts():
    # 400 G is servable for 42 of the 182 ordered NSFNet pairs and 200 G
    # for 102; every 40 G pair is servable.  Nothing is unservable in metro.
    nodes, lengths = checks.read_topology(NSFNET)
    unservable = checks.statically_unservable(nodes, lengths, [40.0, 200.0, 400.0])
    assert sum(1 for *_, g in unservable if g == 400.0) == 182 - 42
    assert sum(1 for *_, g in unservable if g == 200.0) == 182 - 102
    assert not any(g == 40.0 for *_, g in unservable)
    nodes, lengths = checks.read_topology(METRO)
    assert checks.statically_unservable(nodes, lengths, [40.0, 200.0, 400.0]) == set()


def test_request_mix_redraws_the_simulator_stream():
    import numpy as np

    topology = nsfnet()
    traffic = TrafficModel(requests_per_replication=300, replications=1)
    rng = np.random.Generator(np.random.Philox(5))
    mix, previous = {}, 0.0
    for _ in range(300):
        request, previous = generate_request(rng, topology, traffic, previous)
        key = (request.source, request.destination, request.bandwidth_gbps)
        mix[key] = mix.get(key, 0) + 1
    assert checks.request_mix(5, list(topology.nodes), TRAFFIC) == mix
    assert checks.request_mix(6, list(topology.nodes), TRAFFIC) != mix


def test_same_hashes():
    assert checks.check_same_hashes([{"a": "1"}, {"a": "1"}]) is None
    assert checks.check_same_hashes([{"a": "1"}, {"a": "2"}])


def test_ranking_rows():
    rows = [{"mean_utilization": v} for v in ("0.3", "0.2", "0.1")]
    assert checks.check_ranking_rows(rows, 3) is None
    assert checks.check_ranking_rows(rows[::-1], 3)
    assert checks.check_ranking_rows(rows, 4)


def audited_replication(perturb=None, eps=2.0):
    """A short aware NSFNet replication audited every 40 events."""
    traffic = TrafficModel(requests_per_replication=300, replications=1)
    jam = JammerConfig(target="8-9", epsilon_db=eps)
    epsilon_w = checks.ref.TX_POWER_W * (10.0 ** (eps / 10.0) - 1.0)
    audited = []

    def hook(state, kind, now):
        if perturb is not None and state.actives:
            perturb(state)
        audited.append(checks.audit_state(state, "8-9", jam.jammed_ranges, epsilon_w))

    result = run_replication(
        3, nsfnet(), traffic, ControlMode.AWARE, jam, audit_hook=hook, audit_every=40
    )
    return result, audited


def test_audit_passes_on_the_simulator():
    result, audited = audited_replication()
    assert len(audited) >= 10 and sum(audited) > 100
    assert checks.check_conservation(result) is None


def test_audit_fails_on_a_perturbed_snr():
    def perturb(state):
        lightpath = next(iter(state.actives.values()))
        lightpath.xci_psd += 1e-6 * lightpath.noise_psd

    with pytest.raises(checks.AuditError, match="SNR"):
        audited_replication(perturb)


def test_audit_fails_on_a_wrong_jamming_power():
    # Auditing the 2 dB run as if it were 3 dB must disagree somewhere.
    traffic = TrafficModel(requests_per_replication=300, replications=1)
    jam = JammerConfig(target="8-9", epsilon_db=2.0)
    wrong_w = checks.ref.TX_POWER_W * (10.0 ** 0.3 - 1.0)

    def hook(state, kind, now):
        checks.audit_state(state, "8-9", jam.jammed_ranges, wrong_w)

    with pytest.raises(checks.AuditError, match="SNR"):
        run_replication(3, nsfnet(), traffic, ControlMode.AWARE, jam, audit_hook=hook, audit_every=40)


def fake_circuit(circuit_id, start, width=3):
    block = SimpleNamespace(start=start, width=width)
    route = SimpleNamespace(links=(), directed_hops=(("1", "2"),))
    return SimpleNamespace(id=circuit_id, block=block, route=route)


def test_audit_fails_inside_the_guardband():
    state = SimpleNamespace(actives={1: fake_circuit(1, 10), 2: fake_circuit(2, 14)})
    with pytest.raises(checks.AuditError, match="guardband"):
        checks.audit_state(state, "8-9", (), None)
    state = SimpleNamespace(actives={1: fake_circuit(1, 10), 2: fake_circuit(2, 318)})
    with pytest.raises(checks.AuditError, match="outside"):
        checks.audit_state(state, "8-9", (), None)


def test_audit_fails_on_a_wrong_format_or_width():
    from eonjam.phy import MODULATIONS

    def upgrade(state):
        weakest = min(state.actives.values(), key=lambda lp: lp.snr)
        weakest.modulation = MODULATIONS[-1]

    with pytest.raises(checks.AuditError, match="threshold"):
        audited_replication(upgrade)

    def widen(state):
        next(iter(state.actives.values())).bandwidth_gbps *= 2

    with pytest.raises(checks.AuditError, match="slots"):
        audited_replication(widen)


def test_conservation_and_blocked_match():
    result = SimpleNamespace(
        requests=10, established=7, blocked_by_reason={"qot-fail": 2, "no-spectrum": 1}
    )
    assert checks.check_conservation(result) is None
    row = blocking_row(prob="0.3", no_spectrum=1, qot=2)
    assert checks.check_blocked_match(result, row) is None
    assert checks.check_blocked_match(result, blocking_row(prob="0.3", no_spectrum=0, qot=3))
    result.established = 8
    assert checks.check_conservation(result)
