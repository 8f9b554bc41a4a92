import numpy as np
import pytest

from eonjam.control_plane import ControlMode, verify_state_invariants
from eonjam.jammer import JammerConfig
from eonjam.metrics import blocking_probability, results_equal
from eonjam.sim import (
    ARRIVAL,
    DEPARTURE,
    Event,
    TrafficModel,
    epsilon_sweep_values,
    generate_request,
    run_replication,
)
from eonjam.spectrum import SlotBlock
from eonjam.topology import load_topology


def small_traffic(requests=800, replications=1):
    return TrafficModel(requests_per_replication=requests, replications=replications)


def test_arrival_rate_identity():
    assert TrafficModel().arrival_rate == pytest.approx(1.0 / 3.0)


def test_traffic_validation():
    with pytest.raises(ValueError):
        TrafficModel(load_erlangs=0)
    with pytest.raises(ValueError):
        TrafficModel(bandwidth_choices_gbps=())
    with pytest.raises(ValueError):
        TrafficModel(replications=0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("load_erlangs", float("nan")),
        ("load_erlangs", float("inf")),
        ("mean_holding_s", float("inf")),
        ("mean_holding_s", float("nan")),
        ("bandwidth_choices_gbps", (40.0, float("inf"))),
        ("bandwidth_choices_gbps", (float("nan"),)),
    ],
)
def test_traffic_rejects_non_finite_values(field, value):
    with pytest.raises(ValueError, match="finite"):
        TrafficModel(**{field: value})


def test_defaults_match_reference_workload():
    traffic = TrafficModel()
    assert traffic.load_erlangs == 200.0
    assert traffic.mean_holding_s == 600.0
    assert traffic.bandwidth_choices_gbps == (40.0, 200.0, 400.0)
    assert traffic.requests_per_replication == 100_000
    assert traffic.replications == 10


def test_interarrival_mean(nsf):
    rng = np.random.Generator(np.random.Philox(11))
    traffic = TrafficModel()
    previous = 0.0
    gaps = []
    for i in range(100_000):
        request, arrival = generate_request(rng, nsf, traffic, previous, i + 1)
        gaps.append(arrival - previous)
        previous = arrival
    assert np.mean(gaps) == pytest.approx(3.0, rel=0.03)


def test_node_pair_uniformity(nsf):
    rng = np.random.Generator(np.random.Philox(12))
    traffic = TrafficModel()
    counts = {}
    previous = 0.0
    draws = 100_000
    for i in range(draws):
        request, previous = generate_request(rng, nsf, traffic, previous, i + 1)
        assert request.source != request.destination
        counts[(request.source, request.destination)] = (
            counts.get((request.source, request.destination), 0) + 1
        )
    assert len(counts) == 182
    expected = draws / 182
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    # chi-square with 181 dof: mean 181, sd ~19; 260 is a ~4 sigma bound
    assert chi2 < 260


def test_bandwidth_choices_uniform(nsf):
    rng = np.random.Generator(np.random.Philox(13))
    traffic = TrafficModel()
    counts = {40.0: 0, 200.0: 0, 400.0: 0}
    previous = 0.0
    for i in range(30_000):
        request, previous = generate_request(rng, nsf, traffic, previous, i + 1)
        counts[request.bandwidth_gbps] += 1
    for value in counts.values():
        assert value == pytest.approx(10_000, rel=0.05)


def test_event_ordering_departure_before_arrival():
    events = sorted(
        [Event(5.0, ARRIVAL, 2, "a"), Event(5.0, DEPARTURE, 3, "d"), Event(4.0, ARRIVAL, 1, "b")]
    )
    assert [e.payload for e in events] == ["b", "d", "a"]


def test_same_seed_bitwise_identical(nsf):
    traffic = small_traffic()
    a = run_replication(21, nsf, traffic, ControlMode.NO_JAMMING)
    b = run_replication(21, nsf, traffic, ControlMode.NO_JAMMING)
    assert results_equal(a, b)


def test_different_seed_differs(nsf):
    traffic = small_traffic()
    a = run_replication(21, nsf, traffic, ControlMode.NO_JAMMING)
    b = run_replication(22, nsf, traffic, ControlMode.NO_JAMMING)
    assert not results_equal(a, b)


def test_zero_requests_degenerate(nsf):
    result = run_replication(5, nsf, small_traffic(requests=0), ControlMode.NO_JAMMING)
    assert result.requests == 0
    assert result.horizon_s == 0.0
    with pytest.raises(ValueError, match="no data"):
        blocking_probability(result)


def test_mode_jammer_consistency_checked(nsf):
    traffic = small_traffic(requests=10)
    with pytest.raises(ValueError):
        run_replication(1, nsf, traffic, ControlMode.UNAWARE, None)
    with pytest.raises(ValueError):
        run_replication(
            1, nsf, traffic, ControlMode.NO_JAMMING, JammerConfig(target="8-9")
        )
    with pytest.raises(Exception):
        run_replication(
            1, nsf, traffic, ControlMode.UNAWARE, JammerConfig(target="no-such-link")
        )


def test_selector_requires_ranking(nsf):
    with pytest.raises(ValueError):
        run_replication(
            1, nsf, small_traffic(requests=10), ControlMode.UNAWARE,
            JammerConfig(target="most_used"),
        )


def test_epsilon_sweep_values():
    assert epsilon_sweep_values(0.0, 5.0, 0.5) == [
        0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0
    ]
    assert len(epsilon_sweep_values(0.0, 3.5, 0.25)) == 15
    assert epsilon_sweep_values(2.0, 2.0, 0.5) == [2.0]
    with pytest.raises(ValueError):
        epsilon_sweep_values(0.0, 5.0, 0.0)
    with pytest.raises(ValueError):
        epsilon_sweep_values(5.0, 0.0, 0.5)


def test_blocking_in_unit_interval(nsf):
    result = run_replication(3, nsf, small_traffic(), ControlMode.NO_JAMMING)
    assert 0.0 <= blocking_probability(result) <= 1.0
    assert result.established + result.total_blocked == result.requests


def test_audited_replication_with_attack(nsf):
    # Runs the full invariant audit every few events under an active
    # attack in aware mode: incremental noise vs fresh recompute, slot
    # conservation, forbidden-slot discipline.
    traffic = small_traffic(requests=600)
    jam = JammerConfig(target="8-9", epsilon_db=2.5)
    gt_holder = {}

    def audit(state, kind, now):
        verify_state_invariants(state, ControlMode.AWARE, audit.ground_truth)

    from eonjam.jammer import ground_truth_channels
    from eonjam.phy import PhyParams

    audit.ground_truth = ground_truth_channels(jam, PhyParams())
    result = run_replication(
        9, nsf, traffic, ControlMode.AWARE, jam, audit_hook=audit, audit_every=37
    )
    assert result.requests == 600


def test_unaware_audit(nsf):
    traffic = small_traffic(requests=600)
    jam = JammerConfig(target="8-9", epsilon_db=5.0)
    from eonjam.jammer import ground_truth_channels
    from eonjam.phy import PhyParams

    gt = ground_truth_channels(jam, PhyParams())

    def audit(state, kind, now):
        verify_state_invariants(state, ControlMode.UNAWARE, gt)

    run_replication(
        9, nsf, traffic, ControlMode.UNAWARE, jam, audit_hook=audit, audit_every=41
    )


def test_grids_drain_clean(nsf):
    # After the drain the spectrum must be empty; utilization integrates
    # only up to the last arrival.
    traffic = small_traffic(requests=300)
    result = run_replication(17, nsf, traffic, ControlMode.NO_JAMMING)
    assert result.horizon_s > 0
    assert np.all(result.slot_utilization >= 0.0)
    assert np.all(result.slot_utilization <= 1.0)


def test_custom_jammed_ranges_flow(nsf):
    traffic = small_traffic(requests=400)
    jam = JammerConfig(
        target="8-9",
        jammed_ranges=(SlotBlock(0, 10), SlotBlock(20, 10)),
        epsilon_db=3.0,
    )
    result = run_replication(5, nsf, traffic, ControlMode.AWARE, jam)
    assert result.requests == 400
