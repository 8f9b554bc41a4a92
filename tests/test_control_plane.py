import heapq
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eonjam import control_plane, phy, sim
from eonjam.control_plane import (
    Blocked,
    ControlMode,
    NetworkState,
    Verdict,
    _build_candidate,
    _refused_by_last_refuser,
    detect_jamming,
    evaluate_candidate,
    handle_request,
    required_slots,
    static_reach,
    verify_state_invariants,
)
from eonjam.jammer import JammerConfig, ground_truth_channels
from eonjam.phy import MODULATIONS, SLOT_COUNT, channel_for_block, db_to_linear, linear_to_db
from eonjam.metrics import results_equal
from eonjam.sim import Request, TrafficModel, generate_request, run_replication
from eonjam.spectrum import SlotBlock, SpectrumError, allocate, first_fit, fit_mask
from eonjam.topology import load_topology, nsfnet

import reference_model as ref

MOD = {m.name: m for m in MODULATIONS}


def topo_single(length_km=100):
    return load_topology(f"nodes: A B\nlink: A B {length_km}\n")


def request(rid, src, dst, gbps, at=0.0, hold=600.0):
    return Request(rid, src, dst, gbps, at, hold)


def candidate_on(rid, route, block, modulation, gbps, state, ground_truth):
    channel = channel_for_block(block)
    ase, sci = phy.ase_psd(route), phy.sci_psd(channel, route.total_spans)
    path = state.route_record(route)
    return _build_candidate(
        rid, path, block, channel, modulation, gbps, 0.0, 600.0, state, ground_truth, ase, sci
    )


def test_required_slots_examples():
    assert required_slots(40, MOD["BPSK"]) == 4
    assert required_slots(400, MOD["64QAM"]) == 6
    assert required_slots(200, MOD["QPSK"]) == 8
    with pytest.raises(ValueError):
        required_slots(0, MOD["BPSK"])


def test_empty_network_establishes_highest_passing_modulation():
    # On one 100 km span the reference model puts a one-slot channel at
    # ~26.5 dB, so the top format must be granted at the lowest index.
    topo = topo_single(100)
    state = NetworkState(topo)
    outcome = handle_request(request(1, "A", "B", 40.0), state, ControlMode.NO_JAMMING, None)
    assert outcome.modulation.name == "64QAM"
    assert outcome.block == SlotBlock(0, 1)
    g = outcome.channel.psd_w_per_hz
    expected = ref.ref_snr(
        (outcome.channel.center_frequency_hz, outcome.channel.bandwidth_hz, g, False),
        [(1, [])],
        None,
    )
    assert outcome.snr == pytest.approx(expected, rel=1e-9)
    assert linear_to_db(outcome.snr) >= 21.0


def test_modulation_falls_back_with_distance():
    # 4000 km: only QPSK closes the budget for 40 Gbps.
    topo = topo_single(4000)
    state = NetworkState(topo)
    outcome = handle_request(request(1, "A", "B", 40.0), state, ControlMode.NO_JAMMING, None)
    assert outcome.modulation.name == "QPSK"
    assert outcome.block.width == 2


@pytest.fixture
def calls(monkeypatch):
    """Count the control plane's First Fit and candidate evaluations."""
    counts = {"first_fit": 0, "evaluate_candidate": 0}
    for name in counts:
        original = getattr(control_plane, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(control_plane, name, counting)
    return counts


def fill_except(state, free_block):
    """Hold every slot of every grid outside ``free_block``."""
    grids = list(state.grids.values())
    allocate(grids, SlotBlock(0, free_block.start))
    allocate(grids, SlotBlock(free_block.end, 320 - free_block.end))


def test_unreachable_route_probes_first_fit_once(calls):
    # No format closes 5000 km at 40 Gbps, so no candidate is built; the
    # one First Fit probe still tells an empty grid from a full one.
    topo = topo_single(5000)
    assert static_reach(topo.shortest_path("A", "B"), 40.0).formats == ()
    state = NetworkState(topo)
    outcome = handle_request(request(1, "A", "B", 40.0), state, ControlMode.NO_JAMMING, None)
    assert outcome == Blocked("qot-fail")
    assert calls == {"first_fit": 1, "evaluate_candidate": 0}

    allocate(list(state.grids.values()), SlotBlock(0, 320))
    outcome = handle_request(request(2, "A", "B", 40.0), state, ControlMode.NO_JAMMING, None)
    assert outcome == Blocked("no-spectrum")
    assert calls == {"first_fit": 2, "evaluate_candidate": 0}


def test_pruned_formats_are_skipped_but_keep_their_block_reason(calls):
    # At 4000 km only QPSK (2 slots) reaches 40 Gbps; the one-slot formats
    # above it are pruned.  With room it establishes at QPSK after one
    # evaluation.  A gap that fits one slot plus guardbands but not two
    # would have failed 64QAM's QoT, so the block reason is qot-fail.
    topo = topo_single(4000)
    reach = static_reach(topo.shortest_path("A", "B"), 40.0)
    assert [(m.name, w) for m, w in reach.formats] == [("QPSK", 2)]
    assert reach.narrowest_pruned_width == 1

    state = NetworkState(topo)
    outcome = handle_request(request(1, "A", "B", 40.0), state, ControlMode.NO_JAMMING, None)
    assert outcome.modulation is reach.formats[0][0]
    assert outcome.block == SlotBlock(0, 2)
    assert calls == {"first_fit": 1, "evaluate_candidate": 1}

    state = NetworkState(topo)
    fill_except(state, SlotBlock(100, 5))
    outcome = handle_request(request(2, "A", "B", 40.0), state, ControlMode.NO_JAMMING, None)
    assert outcome == Blocked("qot-fail")
    assert calls == {"first_fit": 3, "evaluate_candidate": 1}

    state = NetworkState(topo)
    fill_except(state, SlotBlock(100, 4))
    outcome = handle_request(request(3, "A", "B", 40.0), state, ControlMode.NO_JAMMING, None)
    assert outcome == Blocked("no-spectrum")


def test_a_demand_wider_than_the_grid_tries_no_format_and_blocks_as_no_spectrum(calls):
    # 30,000 Gbps needs 400 slots even at 64QAM, more than the grid has:
    # no format is priced, no channel is built and no pruned width is
    # probed, so the log-ratio tables keep their length.  At 24,000 Gbps
    # 64QAM fills the grid exactly and still counts.
    topo = topo_single(100)
    route = topo.shortest_path("A", "B")
    lengths = {width: len(table) for width, table in phy._LOG_RATIOS.items()}
    reach = static_reach(route, 30000.0)
    assert (reach.formats, reach.narrowest_pruned_width, reach.sci_psds) == ((), None, ())
    assert {width: len(table) for width, table in phy._LOG_RATIOS.items()} == lengths
    assert static_reach(route, 24000.0).narrowest_pruned_width == SLOT_COUNT

    state = NetworkState(topo)
    outcome = handle_request(request(1, "A", "B", 30000.0), state, ControlMode.NO_JAMMING, None)
    assert outcome == Blocked("no-spectrum")
    assert calls == {"first_fit": 0, "evaluate_candidate": 0}


def test_full_grid_blocks_no_spectrum():
    topo = topo_single(100)
    state = NetworkState(topo)
    allocate(list(state.grids.values()), SlotBlock(0, 320))
    state.grid_actives[("A", "B")][999] = None  # never inspected: no first fit succeeds
    outcome = handle_request(request(1, "A", "B", 40.0), state, ControlMode.NO_JAMMING, None)
    assert isinstance(outcome, Blocked)
    assert outcome.reason == "no-spectrum"


def test_admission_protects_existing_circuit():
    # A 4300 km circuit holds a ~0.35 dB margin at QPSK.  A short-route
    # candidate that passes its own QoT at 16QAM would still push the
    # active circuit below threshold on the shared link and must be
    # rejected; the fallback width at 8QAM interferes less and fits.
    topo = load_topology(
        "nodes: A B C D\nlink: A B 1800\nlink: B C 600\nlink: C D 1900\n"
    )
    state = NetworkState(topo)
    active = handle_request(request(1, "A", "D", 40.0), state, ControlMode.NO_JAMMING, None)
    assert active.modulation.name == "QPSK"
    margin_db = linear_to_db(active.snr) - active.modulation.snr_threshold_db
    assert 0.0 < margin_db < 0.5

    route = topo.shortest_path("B", "C")
    candidate = candidate_on(2, route, SlotBlock(4, 1), MOD["16QAM"], 40.0, state, None)
    assert candidate.meets_threshold()
    verdict = evaluate_candidate(candidate, state, ControlMode.NO_JAMMING, None)
    assert verdict is Verdict.REJECT_QOT

    outcome = handle_request(request(2, "B", "C", 40.0), state, ControlMode.NO_JAMMING, None)
    assert outcome.modulation.name == "8QAM"
    verify_state_invariants(state, ControlMode.NO_JAMMING, None)


def test_unaware_mode_suffers_inband_jamming():
    # Jammed range right at the bottom of the grid: the unaware plane
    # keeps proposing the in-band block and loses modulation levels.
    topo = topo_single(100)
    state = NetworkState(topo)
    config = JammerConfig(target="A-B", jammed_ranges=(SlotBlock(0, 10),), epsilon_db=5.0)
    gt = ground_truth_channels(config)
    outcome = handle_request(request(1, "A", "B", 40.0), state, ControlMode.UNAWARE, gt)
    assert isinstance(outcome, Blocked)
    assert outcome.reason == "qot-fail"
    assert not state.forbidden_ranges


def test_aware_mode_avoids_jammed_range_and_retries():
    topo = topo_single(100)
    state = NetworkState(topo)
    config = JammerConfig(target="A-B", jammed_ranges=(SlotBlock(0, 10),), epsilon_db=2.0)
    gt = ground_truth_channels(config)
    outcome = handle_request(request(1, "A", "B", 40.0), state, ControlMode.AWARE, gt)
    assert not isinstance(outcome, Blocked)
    assert outcome.block.start == 12  # range forbidden, guard respected
    assert state.forbidden_ranges == {"A-B": [SlotBlock(0, 10)]}
    for direction in (("A", "B"), ("B", "A")):
        assert state.grids[direction].forbidden_count() == 10
    verify_state_invariants(state, ControlMode.AWARE, gt)


def test_aware_accepts_out_of_band_despite_detection():
    # A candidate outside every jammed range can show a measurable SNR
    # mismatch from out-of-band interference; the plane tolerates it
    # (only overlapping spectrum is refused and forbidden).
    topo = topo_single(100)
    state = NetworkState(topo)
    config = JammerConfig(target="A-B", jammed_ranges=(SlotBlock(0, 10),), epsilon_db=2.0)
    gt = ground_truth_channels(config)
    route = topo.shortest_path("A", "B")
    candidate = candidate_on(1, route, SlotBlock(12, 2), MOD["QPSK"], 40.0, state, gt)
    assert detect_jamming(candidate, gt) is True
    assert evaluate_candidate(candidate, state, ControlMode.AWARE, gt) is Verdict.ACCEPT


def test_detect_jamming_cases():
    topo = load_topology("nodes: A B C\nlink: A B 100\nlink: B C 100\n")
    state = NetworkState(topo)
    gt5 = ground_truth_channels(JammerConfig(target="A-B", epsilon_db=5.0))

    route_ab = topo.shortest_path("A", "B")
    adjacent = candidate_on(1, route_ab, SlotBlock(46, 2), MOD["QPSK"], 40.0, state, gt5)
    assert detect_jamming(adjacent, gt5) is True

    gt0 = ground_truth_channels(JammerConfig(target="A-B", epsilon_db=0.0))
    inert = candidate_on(2, route_ab, SlotBlock(46, 2), MOD["QPSK"], 40.0, state, gt0)
    assert detect_jamming(inert, gt0) is False

    route_bc = topo.shortest_path("B", "C")
    off_route = candidate_on(3, route_bc, SlotBlock(46, 2), MOD["QPSK"], 40.0, state, gt5)
    assert detect_jamming(off_route, gt5) is False


def test_detection_tolerance_gates_rejection():
    topo = topo_single(100)
    state = NetworkState(topo)
    config = JammerConfig(target="A-B", jammed_ranges=(SlotBlock(0, 10),), epsilon_db=2.0)
    gt = ground_truth_channels(config)
    route = topo.shortest_path("A", "B")
    candidate = candidate_on(1, route, SlotBlock(2, 2), MOD["QPSK"], 40.0, state, gt)
    assert evaluate_candidate(
        candidate, state, ControlMode.AWARE, gt, tolerance_db=0.1
    ) is Verdict.REJECT_JAMMED
    # An absurdly large tolerance swallows the mismatch.
    assert evaluate_candidate(
        candidate, state, ControlMode.AWARE, gt, tolerance_db=50.0
    ) is Verdict.ACCEPT


def test_forbidden_registry_persists_and_grows_only():
    # The retry after forbidding the first range lands overlapping the
    # second one, so a single request walks both detections.
    topo = topo_single(100)
    state = NetworkState(topo)
    config = JammerConfig(
        target="A-B",
        jammed_ranges=(SlotBlock(0, 10), SlotBlock(13, 10)),
        epsilon_db=2.0,
    )
    gt = ground_truth_channels(config)
    first = handle_request(request(1, "A", "B", 40.0), state, ControlMode.AWARE, gt)
    assert not isinstance(first, Blocked)
    assert state.forbidden_ranges["A-B"] == [SlotBlock(0, 10), SlotBlock(13, 10)]
    assert first.block.start == 25

    snapshot = [b for b in state.forbidden_ranges["A-B"]]
    second = handle_request(request(2, "A", "B", 40.0), state, ControlMode.AWARE, gt)
    assert not isinstance(second, Blocked)
    assert state.forbidden_ranges["A-B"] == snapshot


def test_release_repaints_forbidden_marks():
    # A circuit established before the range was detected keeps its
    # slots; once it departs they are painted forbidden, not freed.
    topo = topo_single(100)
    state = NetworkState(topo)
    config = JammerConfig(target="A-B", jammed_ranges=(SlotBlock(0, 10),), epsilon_db=0.002)
    gt = ground_truth_channels(config)
    inside = handle_request(request(1, "A", "B", 40.0), state, ControlMode.AWARE, gt)
    assert inside.block.start == 0  # weak attack: mismatch below tolerance
    state.forbid_range("A-B", SlotBlock(0, 10))
    state.depart(inside.id, 100.0)
    assert state.grids[("A", "B")].forbidden_count() == 10
    verify_state_invariants(state, ControlMode.AWARE, gt)


def _circuit_near_an_edge(modulation, width, edge, relative, shares, jammed):
    """A lone circuit whose noise before ``delta`` puts its SNR ``relative`` off ``edge``.

    ``shares`` split that noise among ASE, self-channel NLI, jamming
    (zero unless ``jammed``), XCI and the ``delta`` returned with it.
    """
    channel = channel_for_block(SlotBlock(0, width))
    noise = channel.psd_w_per_hz / (edge * (1.0 + relative))
    ase, sci, jam, xci, _ = (noise * share / sum(shares) for share in shares)
    if not jammed:
        jam = 0.0
    circuit = control_plane.Lightpath(
        id=1, route=topo_single(100).shortest_path("A", "B"), block=channel.block,
        modulation=modulation, bandwidth_gbps=40.0, departs_at=0.0, channel=channel,
        ase_psd=ase, sci_psd=sci, jam_psd=jam, xci_psd=xci,
    )
    return circuit, max(0.0, noise - (ase + sci + jam + xci))


@given(
    st.sampled_from(MODULATIONS),
    st.integers(1, 16),
    st.sampled_from([0, 1, 2]),
    st.floats(1e-15, 1e-9),
    st.sampled_from([-1.0, 1.0]),
    st.lists(st.floats(1e-6, 1.0), min_size=5, max_size=5),
    st.booleans(),
)
@settings(max_examples=500, deadline=None)
def test_the_survival_cap_never_passes_a_delta_that_survives_refuses(
    modulation, width, edge, relative, sign, shares, jammed
):
    # SNRs within 1e-15 to 1e-9 relative of the threshold or of either
    # edge of its QoT band, where rounding could flip a verdict.
    low, high = modulation.qot_band
    edge = (low, db_to_linear(modulation.snr_threshold_db), high)[edge]
    circuit, delta = _circuit_near_an_edge(modulation, width, edge, sign * relative, shares, jammed)
    if circuit.xci_psd + delta <= circuit.survival_cap():
        assert circuit.survives(delta)


def test_the_survival_cap_passes_clear_of_the_band_edge_and_defers_near_it():
    modulation = MODULATIONS[3]
    high = modulation.qot_band[1]
    shares = [1.0, 1.0, 1.0, 1.0, 1.0]
    clear, delta = _circuit_near_an_edge(modulation, 4, high, 1e-11, shares, True)
    assert clear.xci_psd + delta <= clear.survival_cap()
    near, delta = _circuit_near_an_edge(modulation, 4, high, 1e-13, shares, True)
    assert near.xci_psd + delta > near.survival_cap()
    assert near.survives(delta)
    # A circuit that was never established has no cap to pass.
    assert near.cap == -math.inf


def test_handle_request_termination_bound():
    # Worst case is bounded by modulation count x slot count; an aware
    # run against many narrow jammed ranges must still terminate.
    topo = topo_single(100)
    ranges = tuple(SlotBlock(start, 4) for start in range(0, 320, 8))
    config = JammerConfig(target="A-B", jammed_ranges=ranges, epsilon_db=2.0)
    gt = ground_truth_channels(config)
    state = NetworkState(topo)
    calls = 0
    original = phy.qot_verdict

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    phy.qot_verdict = counting
    try:
        handle_request(request(1, "A", "B", 400.0), state, ControlMode.AWARE, gt)
    finally:
        phy.qot_verdict = original
    assert calls <= len(MODULATIONS) * 320


AB = ("A", "B")
BA = ("B", "A")


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda state: setattr(state.grids[AB], "used", state.grids[AB].used | 1 << 300),
        lambda state: state.grid_actives[AB].clear(),
        lambda state: setattr(state.grids[AB], "used", 0),
        lambda state: state.actives.clear(),
        lambda state: setattr(
            state.grids[AB], "forbidden_mask", state.grids[AB].forbidden_mask | 1 << 300
        ),
    ],
    ids=["stray-used-slot", "lost-holder", "lost-used-slots", "inactive-holder", "stray-forbidden-slot"],
)
def test_invariants_catch_slot_bookkeeping_drift(corrupt):
    state = NetworkState(topo_single(100))
    handle_request(request(1, "A", "B", 40.0), state, ControlMode.NO_JAMMING, None)
    verify_state_invariants(state, ControlMode.NO_JAMMING, None)
    corrupt(state)
    with pytest.raises(AssertionError):
        verify_state_invariants(state, ControlMode.NO_JAMMING, None)


def test_forbid_range_records_a_range_once_and_marks_both_directions():
    state = NetworkState(topo_single(100))
    block, later = SlotBlock(40, 4), SlotBlock(60, 2)
    assert state.forbid_range("A-B", block) is True
    assert state.forbid_range("A-B", block) is False  # a repeat records nothing
    assert state.forbidden_ranges == {"A-B": [block]}
    for hop in (AB, BA):
        assert state.grids[hop].forbidden_mask == block.mask
    with pytest.raises(SpectrumError):
        state.forbid_range("A-B", SlotBlock(318, 4))
    assert state.forbidden_ranges == {"A-B": [block]}

    twin = state.copy()
    assert twin.forbid_range("A-B", later) is True
    assert twin.forbidden_ranges == {"A-B": [block, later]}
    assert state.forbidden_ranges == {"A-B": [block]}
    for hop in (AB, BA):
        assert twin.grids[hop].forbidden_mask == block.mask | later.mask
        assert state.grids[hop].forbidden_mask == block.mask
    verify_state_invariants(state, ControlMode.AWARE, None)
    verify_state_invariants(twin, ControlMode.AWARE, None)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda state: setattr(state.grids[AB], "forbidden_mask", 0), r"ranges on \('A', 'B'\)"),
        (lambda state: setattr(state.grids[BA], "forbidden_mask", 0), r"ranges on \('B', 'A'\)"),
        (lambda state: state.forbidden_ranges["A-B"].append(SlotBlock(200, 10)), "disagree with the ranges"),
        (lambda state: state.forbid_range("B-C", SlotBlock(100, 10)), "off the attacked link"),
        (lambda state: state.forbid_range("A-B", SlotBlock(200, 10)), "outside jammed ranges"),
        (lambda state: state.forbid_range("A-B", SlotBlock(0, 10)), "occupies a detected range"),
    ],
    ids=[
        "forward-mask",
        "backward-mask",
        "unmarked-range",
        "off-the-attacked-link",
        "outside-the-jammed-ranges",
        "aware-circuit-on-a-forbidden-slot",
    ],
)
def test_invariants_catch_detection_bookkeeping_faults(corrupt, message):
    # A weak attack lets the first circuit sit on slot 0 of the jammed
    # range 0-9; the range at 100-109 is then recorded as a detection would.
    topo = load_topology("nodes: A B C\nlink: A B 100\nlink: B C 100\n")
    state = NetworkState(topo)
    config = JammerConfig(
        target="A-B", jammed_ranges=(SlotBlock(0, 10), SlotBlock(100, 10)), epsilon_db=0.002
    )
    gt = ground_truth_channels(config)
    assert handle_request(request(1, "A", "B", 40.0), state, ControlMode.AWARE, gt).block.start == 0
    assert state.forbid_range("A-B", SlotBlock(100, 10))
    verify_state_invariants(state, ControlMode.AWARE, gt)
    corrupt(state)
    with pytest.raises(AssertionError, match=message):
        verify_state_invariants(state, ControlMode.AWARE, gt)


def test_establish_applies_the_evaluated_deltas_once():
    # establish folds in the neighbour XCI that evaluate_candidate priced,
    # then drops it from the circuit.
    topo = load_topology("nodes: A B C\nlink: A B 300\nlink: B C 300\n")
    state = NetworkState(topo)
    first = handle_request(request(1, "A", "C", 200.0), state, ControlMode.NO_JAMMING, None)
    assert first.priced is None and first.xci_psd == 0.0
    route = topo.shortest_path("A", "B")
    candidate = candidate_on(2, route, SlotBlock(40, 4), MOD["16QAM"], 200.0, state, None)
    assert evaluate_candidate(candidate, state, ControlMode.NO_JAMMING, None) is Verdict.ACCEPT
    deltas = candidate.priced[2]
    assert set(deltas) == {1} and deltas[1] > 0.0
    state.establish(candidate, 0.0)
    assert candidate.priced is None
    assert first.xci_psd == deltas[1]
    verify_state_invariants(state, ControlMode.NO_JAMMING, None)


def test_establish_refuses_a_candidate_that_was_never_evaluated():
    topo = topo_single(100)
    state = NetworkState(topo)
    route = topo.shortest_path("A", "B")
    candidate = candidate_on(1, route, SlotBlock(0, 1), MOD["64QAM"], 40.0, state, None)
    with pytest.raises(ValueError, match="not evaluated"):
        state.establish(candidate, 0.0)
    assert not state.actives
    assert all(grid.used == 0 for grid in state.grids.values())


def test_establish_refuses_deltas_priced_on_other_circuits():
    # A neighbour that arrived or left after the evaluation would get
    # stale XCI, and so would the circuits of another state.
    topo = topo_single(100)
    route = topo.shortest_path("A", "B")
    state = NetworkState(topo)

    def evaluated(rid, start, on):
        candidate = candidate_on(rid, route, SlotBlock(start, 1), MOD["64QAM"], 40.0, on, None)
        assert evaluate_candidate(candidate, on, ControlMode.NO_JAMMING, None) is Verdict.ACCEPT
        return candidate

    early = evaluated(1, 10, state)
    state.establish(evaluated(2, 20, state), 0.0)
    with pytest.raises(ValueError, match="not evaluated"):
        state.establish(early, 1.0)

    leaving = evaluated(3, 30, state)
    state.establish(leaving, 1.0)
    late = evaluated(4, 40, state)
    state.depart(leaving.id, 2.0)
    with pytest.raises(ValueError, match="not evaluated"):
        state.establish(late, 2.0)

    elsewhere = evaluated(5, 50, NetworkState(topo))
    with pytest.raises(ValueError, match="not evaluated"):
        state.establish(elsewhere, 2.0)
    assert set(state.actives) == {2}
    verify_state_invariants(state, ControlMode.NO_JAMMING, None)


def test_admission_table_equals_a_fresh_lookup(nsf):
    state = NetworkState(nsf)
    for rid, (src, dst) in enumerate([("1", "14"), ("8", "9"), ("3", "12"), ("5", "2")], start=1):
        handle_request(request(rid, src, dst, 200.0), state, ControlMode.NO_JAMMING, None)
    for src in nsf.nodes:
        for dst in nsf.nodes:
            if src == dst:
                continue
            for gbps in (40.0, 200.0, 400.0):
                path, reach = state.admission(src, dst, gbps)
                route = nsf.shortest_path(src, dst)
                assert (path.route, reach) == (route, static_reach(route, gbps))
                assert path is state.route_record(route)
                hops = route.directed_hops
                assert path.grids == tuple(state.grids[hop] for hop in hops)
                assert [span for span, _ in path.hops] == [link.span_count for link in route.links]
                assert all(on_hop is state.grid_actives[hop] for hop, (_, on_hop) in zip(hops, path.hops))
                assert path.link_spans == {link.id: link.span_count for link in route.links}
                again = state.admission(src, dst, gbps)
                assert again[0] is path and again[1] is reach


def test_states_of_one_topology_share_routes_and_reach(nsf):
    # A second state adds only its own route record to the shared route and reach.
    first, second = NetworkState(nsf), NetworkState(nsf)
    path, reach = first.admission("1", "14", 400.0)
    other_path, other_reach = second.admission("1", "14", 400.0)
    assert other_path.route is path.route and other_reach is reach
    assert other_path is second.route_record(path.route)
    assert not set(map(id, other_path.grids)) & set(map(id, path.grids))
    assert not {id(on_hop) for _, on_hop in other_path.hops} & {id(on_hop) for _, on_hop in path.hops}


def test_route_records_share_the_route_span_counts(nsf):
    # Each state builds its own grids and hop lists for a route, but the
    # span counts are the route's own objects, equal to a fresh derivation.
    route = nsf.shortest_path("1", "14")
    first = NetworkState(nsf).route_record(route)
    second = NetworkState(nsf).route_record(route)
    assert first.link_spans is second.link_spans is route.link_spans
    assert route.link_spans == {link.id: link.span_count for link in route.links}
    assert route.span_counts is route.span_counts
    assert route.span_counts == tuple(link.span_count for link in route.links)
    for record in (first, second):
        assert tuple(span for span, _ in record.hops) == route.span_counts
    assert not {id(on_hop) for _, on_hop in first.hops} & {id(on_hop) for _, on_hop in second.hops}


def _memo(topology):
    return control_plane._demand_tables[topology].channels


def test_memoised_channels_equal_fresh_builds_and_hold_no_jammer():
    topo = nsfnet()
    config = JammerConfig(target="8-9", epsilon_db=2.5)
    traffic = TrafficModel(load_erlangs=400.0, requests_per_replication=400)
    run_replication(3, topo, traffic, ControlMode.AWARE, config)
    sim._request_stream.cache_clear()
    memo = _memo(topo)
    assert len(memo) > 20
    for block, channel in memo.items():
        fresh = channel_for_block(block)
        for name in ("block", "center_frequency_hz", "bandwidth_hz", "psd_w_per_hz", "is_jammer"):
            assert getattr(channel, name) == getattr(fresh, name), name
        assert channel.record == fresh.record
        assert not channel.is_jammer
    jammers = ground_truth_channels(config).channels
    assert not {id(channel) for channel in jammers} & {id(channel) for channel in memo.values()}


def test_first_fit_answers_are_one_shared_block(nsf):
    empty = [NetworkState(nsf).grids[("1", "2")]]
    busy = NetworkState(nsf).grids[("1", "2")]
    allocate([busy], SlotBlock(20, 4))
    assert first_fit(fit_mask(empty), 6) is first_fit(fit_mask([busy]), 6)
    assert first_fit(fit_mask(empty), 6) == SlotBlock(0, 6)


def _loaded_state(seed, load, mode, epsilon_db, count):
    """An NSFNet state after ``count`` seeded requests, and a draw of further requests."""
    topo = nsfnet()
    ground_truth = None
    if mode is not ControlMode.NO_JAMMING:
        config = JammerConfig(target="8-9", epsilon_db=epsilon_db)
        ground_truth = ground_truth_channels(config)
    traffic = TrafficModel(load_erlangs=load)
    rng = np.random.Generator(np.random.Philox(seed))
    state = NetworkState(topo)
    departures = []
    now = 0.0
    for rid in range(1, count + 1):
        req, now = generate_request(rng, topo, traffic, now, rid)
        while departures and departures[0][0] <= now:
            state.depart(heapq.heappop(departures)[1], now)
        outcome = handle_request(req, state, mode, ground_truth)
        if not isinstance(outcome, Blocked):
            heapq.heappush(departures, (outcome.departs_at, outcome.id))
    return state, ground_truth, lambda: generate_request(rng, topo, traffic, now)[0]


def _probe_refusals(seed, load, mode, epsilon_db):
    """Refusals by every active circuit as last refuser, each checked in full."""
    state, ground_truth, draw = _loaded_state(seed, load, mode, epsilon_db, 600)
    refused = 0
    for _ in range(30):
        req = draw()
        path, reach = state.admission(req.source, req.destination, req.bandwidth_gbps)
        mask = fit_mask(path.grids)
        for modulation, width in reach.formats:
            block = first_fit(mask, width)
            if block is None:
                continue
            channel = channel_for_block(block)
            for circuit_id in list(state.actives):
                state.last_refuser = circuit_id
                if not _refused_by_last_refuser(state, path, channel.record):
                    continue
                refused += 1
                candidate = candidate_on(
                    req.id, path.route, block, modulation, req.bandwidth_gbps, state, ground_truth
                )
                verdict = evaluate_candidate(candidate, state, mode, ground_truth)
                assert verdict is Verdict.REJECT_QOT, (circuit_id, block, modulation.name)
    return refused


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([200.0, 400.0, 800.0]),
    st.sampled_from(list(ControlMode)),
    st.sampled_from([0.5, 3.0]),
)
@settings(max_examples=12, deadline=None)
def test_a_block_the_probe_refuses_fails_the_full_check(seed, load, mode, epsilon_db):
    _probe_refusals(seed, load, mode, epsilon_db)


def test_the_probe_property_is_exercised():
    assert _probe_refusals(1, 400.0, ControlMode.AWARE, 3.0) > 0


def test_the_probe_changes_no_outcome(nsf):
    # With the probe never refusing, every block is built and checked in
    # full; the replications must agree to the bit.
    traffic = TrafficModel(load_erlangs=600.0, requests_per_replication=1500, replications=1)
    jammer = JammerConfig(target="8-9", epsilon_db=1.0)
    probe = control_plane._refused_by_last_refuser
    refusals = []

    def counted(*args):
        refusals.append(probe(*args))
        return refusals[-1]

    for mode in (ControlMode.UNAWARE, ControlMode.AWARE):
        refusals.clear()
        with mock.patch.object(control_plane, "_refused_by_last_refuser", counted):
            probed = run_replication(7, nsf, traffic, mode, jammer)
        assert any(refusals)
        with mock.patch.object(control_plane, "_refused_by_last_refuser", return_value=False):
            unprobed = run_replication(7, nsf, traffic, mode, jammer)
        assert results_equal(probed, unprobed)


def _serve(state, requests, mode, ground_truth):
    """Serve ``requests`` in order on ``state``, releasing circuits as they fall due."""
    departures = [(lightpath.departs_at, lightpath.id) for lightpath in state.actives.values()]
    heapq.heapify(departures)
    outcomes = []
    for req in requests:
        while departures and departures[0][0] <= req.arrival_time:
            state.depart(heapq.heappop(departures)[1], req.arrival_time)
        outcome = handle_request(req, state, mode, ground_truth)
        if not isinstance(outcome, Blocked):
            heapq.heappush(departures, (outcome.departs_at, outcome.id))
            outcome = outcome.block
        outcomes.append(outcome)
    return outcomes


def _stream_state(nsf, mode, epsilon_db, served, total):
    """A state after the first ``served`` of ``total`` seeded requests, and the rest."""
    requests = sim._request_stream(
        7, nsf.nodes, TrafficModel(load_erlangs=600.0, requests_per_replication=total)
    )
    sim._request_stream.cache_clear()
    ground_truth = ground_truth_channels(JammerConfig(target="8-9", epsilon_db=epsilon_db))
    state = NetworkState(nsf)
    _serve(state, requests[:served], mode, ground_truth)
    return state, ground_truth, requests[served:]


@pytest.mark.parametrize("mode", [ControlMode.UNAWARE, ControlMode.AWARE])
def test_a_copied_state_serves_a_stream_exactly_like_the_original(nsf, mode):
    state, ground_truth, rest = _stream_state(nsf, mode, 1.0, 500, 1200)
    twin = state.copy()
    assert len(state.actives) > 100
    assert _serve(state, rest, mode, ground_truth) == _serve(twin, rest, mode, ground_truth)
    horizon = rest[-1].arrival_time
    for grid in [*state.grids.values(), *twin.grids.values()]:
        grid.advance_time(horizon)

    assert twin.actives.keys() == state.actives.keys()
    for key, lightpath in state.actives.items():
        assert twin.actives[key] is not lightpath
        assert twin.actives[key].xci_psd == lightpath.xci_psd
    for hop, grid in state.grids.items():
        assert (twin.grids[hop].used_seconds == grid.used_seconds).all()
        assert (twin.grids[hop].reserved_seconds == grid.reserved_seconds).all()
        assert twin.grid_actives[hop] == state.grid_actives[hop]
    assert twin.forbidden_ranges == state.forbidden_ranges
    if mode is ControlMode.AWARE:
        assert state.forbidden_ranges  # the stream meets a detection
    verify_state_invariants(state, mode, ground_truth)
    verify_state_invariants(twin, mode, ground_truth)


def _snapshot(state):
    grids = {
        hop: (
            grid.used,
            grid.forbidden_mask,
            grid.used_seconds.tolist(),
            grid.reserved_seconds.tolist(),
        )
        for hop, grid in state.grids.items()
    }
    xci = {key: lightpath.xci_psd for key, lightpath in state.actives.items()}
    hops = {hop: dict(on_hop) for hop, on_hop in state.grid_actives.items()}
    ranges = {link_id: list(blocks) for link_id, blocks in state.forbidden_ranges.items()}
    return grids, xci, hops, ranges, state.changes, state.last_refuser


def test_departing_or_forbidding_on_a_copy_leaves_the_original_untouched(nsf):
    state, ground_truth, rest = _stream_state(nsf, ControlMode.UNAWARE, 1.0, 500, 600)
    before = _snapshot(state)
    assert state._records
    twin = state.copy()
    # The twin reads and writes only its own grids and hop lists, through
    # its own route records, and its circuits carry those records.
    for lightpath in twin.actives.values():
        assert lightpath.path is twin.route_record(lightpath.route)
    for record in state._records.values():
        twin.route_record(nsf.shortest_path(record.route.source, record.route.destination))
    outcomes = [handle_request(req, twin, ControlMode.UNAWARE, ground_truth) for req in rest]
    assert any(isinstance(outcome, control_plane.Lightpath) for outcome in outcomes)
    assert twin._records.keys() >= state._records.keys()
    for route_id, record in twin._records.items():
        hops = record.route.directed_hops
        assert all(grid is twin.grids[hop] for hop, grid in zip(hops, record.grids, strict=True))
        assert all(
            on_hop is twin.grid_actives[hop] for hop, (_, on_hop) in zip(hops, record.hops, strict=True)
        )
        assert record is not state._records.get(route_id)
    assert _snapshot(state) == before
    now = max(lightpath.departs_at for lightpath in twin.actives.values())
    for lightpath_id in list(twin.actives)[::3]:
        twin.depart(lightpath_id, now)
    for jammed_range in ground_truth.jammed_ranges:
        assert twin.forbid_range(ground_truth.link_id, jammed_range)
    assert _snapshot(state) == before
    assert not state.forbidden_ranges
    assert len(twin.actives) < len(state.actives)
    verify_state_invariants(state, ControlMode.UNAWARE, ground_truth)
    # The forbidden ranges may still hold circuits from before the marks.
    verify_state_invariants(twin, ControlMode.UNAWARE, ground_truth)
