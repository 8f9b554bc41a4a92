import concurrent.futures
import functools
import math
import operator
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eonjam import control_plane, sim
from eonjam.cli import ScenarioConfig
from eonjam.control_plane import ControlMode, verify_state_invariants
from eonjam.jammer import JammerConfig, ground_truth_channels
from eonjam.metrics import blocking_probability, results_equal
from eonjam.phy import channel_for_block, jamming_psd
from eonjam.sim import (
    ARRIVAL,
    DEPARTURE,
    Request,
    TrafficModel,
    compute_utilization_ranking,
    epsilon_sweep_length,
    epsilon_sweep_values,
    generate_request,
    run_replication,
    run_scenario,
)
from eonjam.spectrum import GUARDBAND_SLOTS, SLOT_COUNT, SlotBlock, SlotGrid
from eonjam.topology import load_topology, nsfnet


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


def test_traffic_refuses_a_horizon_the_arrival_clock_cannot_hold(nsf):
    # 20 requests a mean 6e307 s apart: the last arrival time overflows.
    with pytest.raises(ValueError, match=r"mean arrival horizon inf s is above the 1e\+300 s allowed"):
        TrafficModel(load_erlangs=1e-305, requests_per_replication=20)
    with pytest.raises(ValueError, match=r"mean arrival horizon 1.2e\+303 s"):
        TrafficModel(load_erlangs=1e-299, requests_per_replication=20)
    # At the bound, every statistic stays finite.
    at_bound = TrafficModel(load_erlangs=1.2e-296, requests_per_replication=20, replications=1)
    result = run_replication(1, nsf, at_bound, ControlMode.NO_JAMMING)
    assert 0 < result.horizon_s < math.inf
    assert np.isfinite(result.slot_utilization).all()
    for by_link in (result.slot_utilization_by_link, result.slot_used_by_link):
        assert all(np.isfinite(values).all() for values in by_link.values())


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


def _record_events(*args, **kwargs):
    """Run a replication; after every event, list its kind, time and the actives."""
    events = []

    def hook(state, kind, now):
        events.append((kind, now, sorted(state.actives), dict(state.actives)))

    result = run_replication(*args, audit_hook=hook, audit_every=1, **kwargs)
    return result, events


def test_departures_go_before_arrivals_and_drain_at_the_horizon():
    # One 40 G circuit takes one slot plus a two-slot guardband, so a
    # grid of three circuits is full: request 4 fits only because
    # request 2 leaves at the instant it arrives (1.0 + 1.0 == 2.0).
    # Requests 3 and 4 leave together at 5.0; 1 and 5 outlive the last
    # arrival at 6.0 and are drained there.
    topology = load_topology("nodes: A B\nlink: A B 100\n")
    timing = [(0.5, 10.0), (1.0, 1.0), (1.5, 3.5), (2.0, 3.0), (6.0, 1.0)]
    requests = tuple(
        Request(k, "A", "B", 40.0, arrival, holding)
        for k, (arrival, holding) in enumerate(timing, start=1)
    )
    traffic = TrafficModel(requests_per_replication=len(requests), replications=1)
    three_circuits = functools.partial(SlotGrid, slot_count=3 + 2 * GUARDBAND_SLOTS)
    with mock.patch.object(sim, "_request_stream", return_value=requests), \
            mock.patch.object(control_plane, "SlotGrid", three_circuits):
        result, events = _record_events(0, topology, traffic, ControlMode.NO_JAMMING)

    assert [event[:3] for event in events] == [
        (ARRIVAL, 0.5, [1]),
        (ARRIVAL, 1.0, [1, 2]),
        (ARRIVAL, 1.5, [1, 2, 3]),
        (DEPARTURE, 2.0, [1, 3]),
        (ARRIVAL, 2.0, [1, 3, 4]),
        (DEPARTURE, 5.0, [1, 4]),
        (DEPARTURE, 5.0, [1]),
        (ARRIVAL, 6.0, [1, 5]),
        (DEPARTURE, 6.0, [1]),
        (DEPARTURE, 6.0, []),
    ]
    # Request 4 took the slots request 2 freed.
    assert events[4][3][4].block == events[2][3][2].block
    assert result.horizon_s == 6.0
    assert result.established == 5
    assert len(events) == result.requests + result.established


@given(seed=st.integers(0, 2**32 - 1), load=st.floats(200.0, 800.0))
@settings(max_examples=8, deadline=None)
def test_events_follow_time_order_on_real_traffic(nsf, seed, load):
    traffic = TrafficModel(load_erlangs=load, requests_per_replication=150, replications=1)
    result, events = _record_events(seed, nsf, traffic, ControlMode.NO_JAMMING)
    sim._request_stream.cache_clear()
    times = [now for _, now, _, _ in events]
    assert times == sorted(times)
    assert times[-1] == result.horizon_s
    for kind, now, _, actives in events:
        if kind == ARRIVAL:
            # Every circuit due at or before this arrival has left.
            assert all(lightpath.departs_at > now for lightpath in actives.values())
    assert len(events) == result.requests + result.established


@pytest.mark.parametrize(
    "mode, epsilon_db, slot_count",
    [(ControlMode.UNAWARE, 3.0, SLOT_COUNT), (ControlMode.NO_JAMMING, None, 40)],
    ids=["unaware-3dB", "no-jamming-40-slots"],
)
def test_link_busy_time_is_the_holding_time_of_its_circuits(monkeypatch, mode, epsilon_db, slot_count):
    # Seed 7, 400 requests at 800 E on NSFNet.  Every established
    # circuit is logged and its holding time, to its departure clipped
    # to the horizon, is spread over its block (used) and its block and
    # guardband shadow (reserved) on each hop.  On 40 slots the grids
    # fill to the top, so some shadows are clipped to the grid.
    circuits = []
    establish = control_plane.NetworkState.establish

    def logged(state, lightpath, now):
        circuits.append((lightpath.route.directed_hops, lightpath.block, now, lightpath.departs_at))
        establish(state, lightpath, now)

    monkeypatch.setattr(control_plane.NetworkState, "establish", logged)
    monkeypatch.setattr(control_plane, "SlotGrid", functools.partial(SlotGrid, slot_count=slot_count))
    topology = nsfnet()
    traffic = TrafficModel(load_erlangs=800.0, requests_per_replication=400)
    jammer = None if epsilon_db is None else JammerConfig(target="8-9", epsilon_db=epsilon_db)
    result = run_replication(7, topology, traffic, mode, jammer)
    horizon = sim._request_stream(7, topology.nodes, traffic)[-1].arrival_time
    sim._request_stream.cache_clear()

    assert len(circuits) == result.established > 100
    clipped = any(block.end + GUARDBAND_SLOTS > slot_count for _, block, _, _ in circuits)
    assert clipped == (slot_count == 40)
    busy = {}
    for hops, block, arrival, departs_at in circuits:
        held = min(departs_at, horizon) - arrival
        for hop in hops:
            used, reserved = busy.setdefault(hop, (np.zeros(slot_count), np.zeros(slot_count)))
            used[block.start:block.end] += held
            reserved[block.start:min(block.end + GUARDBAND_SLOTS, slot_count)] += held
    idle = (np.zeros(slot_count), np.zeros(slot_count))
    grids = []
    for link in topology.links:
        there = busy.get((link.source, link.destination), idle)
        back = busy.get((link.destination, link.source), idle)
        grids += [there[1] / horizon, back[1] / horizon]
        used = (there[0] + back[0]) / 2.0 / horizon
        reserved = (there[1] + back[1]) / 2.0 / horizon
        np.testing.assert_allclose(result.slot_used_by_link[link.id], used, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(result.slot_utilization_by_link[link.id], reserved, rtol=1e-12, atol=0.0)
    assert result.slot_used_by_link.keys() == {link.id for link in topology.links}
    np.testing.assert_allclose(result.slot_utilization, np.mean(grids, axis=0), rtol=1e-12, atol=0.0)


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


def test_results_and_scenarios_compare_with_eq(nsf):
    traffic = small_traffic(requests=200)
    a = run_replication(21, nsf, traffic, ControlMode.NO_JAMMING)
    assert a == run_replication(21, nsf, traffic, ControlMode.NO_JAMMING)
    assert a != run_replication(22, nsf, traffic, ControlMode.NO_JAMMING)
    config = ScenarioConfig(
        topology="nsfnet",
        modes=(ControlMode.NO_JAMMING, ControlMode.UNAWARE),
        jammer=JammerConfig(target="8-9"),
        epsilon_sweep=(1.0, 1.0, 1.0),
        traffic=small_traffic(requests=100),
        base_seed=3,
        output_dir="unused",
    )
    assert run_scenario(config) == run_scenario(config)


def test_zero_requests_degenerate():
    # A replication without requests has no blocking probability, so the
    # traffic model refuses one before anything runs.
    with pytest.raises(ValueError, match="^requests_per_replication: must be >= 1$"):
        small_traffic(requests=0)


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


def _listed_sweep(start, stop, step):
    """The sweep grid built in full and then cut at ``stop``."""
    count = int(round((stop - start) / step))
    values = [round(start + i * step, 10) for i in range(count + 1)]
    return [v for v in values if v <= stop + 1e-9]


@given(st.floats(0.0, 10.0), st.floats(0.0, 10.0), st.floats(1e-3, 5.0))
@example(0.0, 10.0, 1e-3)  # 10,001 powers: one above the limit
@settings(max_examples=200, deadline=None)
def test_sweep_length_counts_the_listed_grid(start, span, step):
    stop = start + span
    listed = _listed_sweep(start, stop, step)
    if len(listed) > sim.MAX_SWEEP_POINTS:
        with pytest.raises(ValueError, match="more than the 10000 allowed"):
            epsilon_sweep_length(start, stop, step)
        return
    assert epsilon_sweep_values(start, stop, step) == listed
    assert epsilon_sweep_length(start, stop, step) == len(listed)


def test_sweep_length_refuses_a_step_too_small_to_count():
    with pytest.raises(ValueError, match="too small"):
        epsilon_sweep_length(0.0, 5.0, 1e-320)


def test_request_stream_is_the_generated_sequence(nsf):
    traffic = small_traffic(requests=200)
    rng = np.random.Generator(np.random.Philox(13))
    previous = 0.0
    expected = []
    for i in range(traffic.requests_per_replication):
        request, previous = generate_request(rng, nsf, traffic, previous, i + 1)
        expected.append(request)
    stream = sim._request_stream(13, nsf.nodes, traffic)
    assert stream == tuple(expected)


def test_replication_is_equal_with_a_cold_and_a_warm_stream_cache(nsf):
    # The job function keeps the stream for the next job of its seed.
    traffic = small_traffic(requests=600)
    jam = JammerConfig(target="8-9", epsilon_db=1.0)
    job = (17, nsf, traffic, (ControlMode.AWARE,), jam, 0.1)
    sim._request_stream.cache_clear()
    [cold] = sim._replicate(*job)
    assert sim._request_stream.cache_info().currsize == 1
    hits = sim._request_stream.cache_info().hits
    [warm] = sim._replicate(*job)
    assert sim._request_stream.cache_info().hits == hits + 1
    sim._request_stream.cache_clear()
    assert results_equal(cold, warm)
    assert results_equal(cold, run_replication(17, nsf, traffic, ControlMode.AWARE, jam))


def test_the_public_entries_leave_no_stream_cached(nsf):
    traffic = small_traffic(requests=60)
    sim._request_stream.cache_clear()
    run_replication(5, nsf, traffic, ControlMode.NO_JAMMING)
    assert sim._request_stream.cache_info().currsize == 0
    compute_utilization_ranking(nsf, traffic, 5)
    assert sim._request_stream.cache_info().currsize == 0
    # Also when the run raises after drawing its stream.
    with mock.patch.object(sim, "_replay", side_effect=RuntimeError("stop")):
        with pytest.raises(RuntimeError):
            run_replication(5, nsf, traffic, ControlMode.NO_JAMMING)
        assert sim._request_stream.cache_info().currsize == 0
        with pytest.raises(RuntimeError):
            compute_utilization_ranking(nsf, traffic, 5)
        assert sim._request_stream.cache_info().currsize == 0


def test_request_stream_changes_with_the_seed_and_the_holding_time(nsf):
    traffic = small_traffic(requests=50)
    base = sim._request_stream(3, nsf.nodes, traffic)
    other_seed = sim._request_stream(4, nsf.nodes, traffic)
    slower = TrafficModel(mean_holding_s=300.0, requests_per_replication=50, replications=1)
    other_holding = sim._request_stream(3, nsf.nodes, slower)
    sim._request_stream.cache_clear()
    assert base == sim._request_stream(3, nsf.nodes, traffic)
    assert base != other_seed
    assert base != other_holding
    sim._request_stream.cache_clear()


def test_run_scenario_draws_each_seed_once_and_empties_the_cache():
    traffic = TrafficModel(requests_per_replication=60, replications=2)
    config = ScenarioConfig(
        topology="nsfnet",
        modes=(ControlMode.NO_JAMMING, ControlMode.UNAWARE, ControlMode.AWARE),
        jammer=JammerConfig(target="8-9"),
        epsilon_sweep=(0.5, 1.0, 0.5),
        traffic=traffic,
        base_seed=31,
        output_dir="unused",
    )
    sim._request_stream.cache_clear()
    with mock.patch.object(sim, "generate_request", wraps=sim.generate_request) as draws:
        result = run_scenario(config)
    assert draws.call_count == 2 * 60
    assert sim._request_stream.cache_info().currsize == 0

    # Jobs ran seed by seed; each point still lists its seeds in order.
    assert _separate_runs_equal(result, config)


@pytest.mark.parametrize(
    "workers, jobs, cpus, started",
    [(10**6, 2, 64, 2), (10**6, 6, 4, 4), (3, 6, 4, 3), (10**6, 6, None, None), (2, 1, 4, None)],
)
def test_pool_starts_no_more_processes_than_jobs_or_cpus(nsf, workers, jobs, cpus, started):
    traffic = small_traffic(requests=40)
    batch = [
        (seed, nsf, traffic, (ControlMode.NO_JAMMING,), None, 0.1)
        for seed in range(1, jobs + 1)
    ]
    # A fake pool records its size and maps in order; no process starts.
    with mock.patch.object(concurrent.futures, "ProcessPoolExecutor") as pool, \
            mock.patch.object(sim.os, "cpu_count", return_value=cpus):
        pool.return_value.__enter__.return_value.map.side_effect = map
        results = sim._run_jobs(batch, workers)
    assert pool.call_args_list == ([] if started is None else [mock.call(max_workers=started)])
    serial = [run_replication(seed, nsf, traffic, ControlMode.NO_JAMMING) for seed in range(1, jobs + 1)]
    assert all(results_equal(a, b) for (a,), b in zip(results, serial, strict=True))


def test_selector_without_a_no_jamming_mode_ranks_like_the_pre_run():
    traffic = TrafficModel(requests_per_replication=120, replications=2)
    config = ScenarioConfig(
        topology="nsfnet",
        modes=(ControlMode.UNAWARE,),
        jammer=JammerConfig(target="most_used"),
        epsilon_sweep=(1.0, 1.0, 1.0),
        traffic=traffic,
        base_seed=5,
        output_dir="unused",
    )
    result = run_scenario(config)
    expected = compute_utilization_ranking(config.load_topology(), traffic, 5)
    sim._request_stream.cache_clear()
    assert result.ranking == tuple(expected)
    [point] = result.points
    assert point.mode is ControlMode.UNAWARE
    assert point.target_link_id == expected[0][0]


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

    audit.ground_truth = ground_truth_channels(jam)
    result = run_replication(
        9, nsf, traffic, ControlMode.AWARE, jam, audit_hook=audit, audit_every=37
    )
    assert result.requests == 600


def test_unaware_audit(nsf):
    traffic = small_traffic(requests=600)
    jam = JammerConfig(target="8-9", epsilon_db=5.0)
    from eonjam.jammer import ground_truth_channels

    gt = ground_truth_channels(jam)

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


def _separate_runs_equal(result, config):
    """Whether every point of ``result`` equals its own ``run_replication`` calls."""
    topology = config.load_topology()
    target = result.points[-1].target_link_id
    for point in result.points:
        jam = None
        if point.mode is not ControlMode.NO_JAMMING:
            jam = JammerConfig(
                target=target,
                jammed_ranges=config.jammer.jammed_ranges,
                epsilon_db=point.epsilon_db,
            )
        for r, got in enumerate(point.results):
            alone = run_replication(config.base_seed + r, topology, config.traffic, point.mode, jam)
            if not results_equal(got, alone):
                return False
    sim._request_stream.cache_clear()
    return True


def _spied_scenario(config):
    """``run_scenario`` counting its pair jobs and the state copies of their splits."""
    copy = control_plane.NetworkState.copy
    with mock.patch.object(sim, "_replicate", wraps=sim._replicate) as jobs, \
            mock.patch.object(
                control_plane.NetworkState, "copy", autospec=True, side_effect=copy
            ) as splits:
        result = run_scenario(config)
    pairs = sum(call.args[3] == sim._PAIR for call in jobs.call_args_list)
    return result, pairs, splits.call_count


def _planned_jobs(config, ranking=None):
    """``run_scenario``'s result, a count of its jobs by modes and power, and
    the jammer-free results it got, in seed order."""
    replicate, jammer_free = sim._replicate, []

    def spy(*args):
        results = replicate(*args)
        if args[3] == (ControlMode.NO_JAMMING,):
            jammer_free.extend(results)
        return results

    with mock.patch.object(sim, "_replicate", side_effect=spy) as jobs:
        result = run_scenario(config, ranking)
    planned = Counter(
        (call.args[3], None if call.args[4] is None else call.args[4].epsilon_db)
        for call in jobs.call_args_list
    )
    return result, planned, jammer_free


_NO_JAMMING = (ControlMode.NO_JAMMING,)
_ALL_MODES = (ControlMode.NO_JAMMING, ControlMode.UNAWARE, ControlMode.AWARE)
_RANKING = [("8-9", 1.0), ("1-8", 0.5), ("11-14", 0.0)]


@pytest.mark.parametrize(
    "modes, target, ranking, sweep, plan",
    [
        (_ALL_MODES, "most_used", None, (0.0, 1.0, 1.0), {(_NO_JAMMING, None): 2, (sim._PAIR, 1.0): 2}),
        (_ALL_MODES, "most_used", _RANKING, (0.0, 1.0, 1.0), {(_NO_JAMMING, None): 2, (sim._PAIR, 1.0): 2}),
        (_ALL_MODES, "8-9", None, (0.0, 1.0, 1.0), {(_NO_JAMMING, None): 2, (sim._PAIR, 1.0): 2}),
        (_ALL_MODES[1:], "8-9", None, (0.0, 1.0, 1.0), {(_NO_JAMMING, None): 2, (sim._PAIR, 1.0): 2}),
        (_ALL_MODES[1:], "8-9", None, (1.0, 2.0, 1.0), {(sim._PAIR, 1.0): 2, (sim._PAIR, 2.0): 2}),
        (
            (ControlMode.UNAWARE,), "most_used", _RANKING, (0.0, 1.0, 1.0),
            {(_NO_JAMMING, None): 2, ((ControlMode.UNAWARE,), 1.0): 2},
        ),
    ],
    ids=[
        "cold selector", "warm ranking", "explicit target", "no baseline",
        "explicit target without 0 dB", "unaware only with a ranking",
    ],
)
def test_zero_db_points_reuse_the_planned_no_jamming_runs(modes, target, ranking, sweep, plan):
    # Two seeds.  The no_jamming point and every 0 dB point take the
    # seeds' jammer-free job (the ranking pre-run when there is one), a
    # power with both planes takes a pair job, and each job runs once.
    config = ScenarioConfig(
        topology="nsfnet",
        modes=modes,
        jammer=JammerConfig(target=target),
        epsilon_sweep=sweep,
        traffic=TrafficModel(requests_per_replication=200, replications=2),
        base_seed=5,
        output_dir="unused",
    )
    result, planned, jammer_free = _planned_jobs(config, ranking)
    assert planned == plan
    assert len(jammer_free) == 2 * (0.0 in sweep or ControlMode.NO_JAMMING in modes)
    for point in result.points:
        reused = len(point.results) == len(jammer_free) and all(
            map(operator.is_, point.results, jammer_free)
        )
        assert reused == (point.epsilon_db in (None, 0.0))

    topology = config.load_topology()
    zero_db = [point for point in result.points if point.epsilon_db == 0.0]
    jamming_modes = [mode for mode in modes if mode is not ControlMode.NO_JAMMING]
    assert [point.mode for point in zero_db] == (jamming_modes if 0.0 in sweep else [])
    for point in zero_db:
        jam = JammerConfig(target=point.target_link_id, epsilon_db=0.0)
        for seed, got in enumerate(point.results, start=config.base_seed):
            assert results_equal(got, run_replication(seed, topology, config.traffic, point.mode, jam))
    sim._request_stream.cache_clear()


@pytest.mark.parametrize("link_id", ["8-9", "1-8"])
def test_a_zero_db_attack_is_the_no_jamming_run(nsf, link_id):
    # At 0 dB the jammer adds no power: every jamming term is exactly 0.0,
    # so both planes serve every request as the jammer-free network does.
    jam = JammerConfig(target=link_id, epsilon_db=0.0)
    ground_truth = ground_truth_channels(jam)
    assert ground_truth.epsilon_w == 0.0
    span_count = nsf.link_by_id(link_id).span_count
    for block in (SlotBlock(52, 2), SlotBlock(48, 4), SlotBlock(30, 2), SlotBlock(0, 16)):
        channel = channel_for_block(block)
        psd = jamming_psd(channel, span_count, ground_truth.channels, ground_truth.epsilon_w)
        assert psd == 0.0 and math.copysign(1.0, psd) == 1.0

    traffic = small_traffic(requests=300)
    for seed in (1, 2):
        baseline = run_replication(seed, nsf, traffic, ControlMode.NO_JAMMING)
        for mode in (ControlMode.UNAWARE, ControlMode.AWARE):
            assert results_equal(run_replication(seed, nsf, traffic, mode, jam), baseline)


@pytest.mark.parametrize("load", [200.0, 800.0])
def test_paired_planes_equal_separate_replications(load):
    # On NSFNet the aware plane detects the most-used-link attack at some
    # powers and never at others; on the metro network at 2.5 dB and
    # 200 E, seed 9 detects early in the run and seed 7 late.
    nsfnet_sweep = ScenarioConfig(
        topology="nsfnet",
        modes=(ControlMode.NO_JAMMING, ControlMode.UNAWARE, ControlMode.AWARE),
        jammer=JammerConfig(target="most_used"),
        epsilon_sweep=(0.0, 5.0, 1.0),
        traffic=TrafficModel(load_erlangs=load, requests_per_replication=1500, replications=1),
        base_seed=7,
        output_dir="unused",
    )
    metro = ScenarioConfig(
        topology=str(Path(__file__).parents[1] / "benchmarks" / "workloads" / "metro.topo"),
        modes=(ControlMode.UNAWARE, ControlMode.AWARE),
        jammer=JammerConfig(target="8-9"),
        epsilon_sweep=(2.5, 2.5, 1.0),
        traffic=TrafficModel(load_erlangs=load, requests_per_replication=3000, replications=3),
        base_seed=7,
        output_dir="unused",
    )
    pairs = splits = 0
    for config in (nsfnet_sweep, metro):
        result, config_pairs, config_splits = _spied_scenario(config)
        powers = epsilon_sweep_values(*config.epsilon_sweep)
        # The NSFNet sweep's 0 dB point reuses its ranking pre-run.
        assert config_pairs == config.traffic.replications * (len(powers) - (0.0 in powers))
        assert _separate_runs_equal(result, config)
        pairs += config_pairs
        splits += config_splits
    # Some pairs split at a detection and some ran as one to the end.
    assert 0 < splits < pairs


def test_a_lone_plane_or_an_idle_worker_gets_no_pair_job(nsf):
    aware_only = ScenarioConfig(
        topology="nsfnet",
        modes=(ControlMode.AWARE,),
        jammer=JammerConfig(target="8-9"),
        epsilon_sweep=(0.0, 1.0, 1.0),
        traffic=TrafficModel(requests_per_replication=400, replications=2),
        base_seed=3,
        output_dir="unused",
    )
    result, pairs, _ = _spied_scenario(aware_only)
    assert pairs == 0
    assert _separate_runs_equal(result, aware_only)

    # One seed and one power on two workers: a pair job would leave one
    # worker idle.  A fake pool maps in order; no process starts.
    two_workers = ScenarioConfig(
        topology="nsfnet",
        modes=(ControlMode.UNAWARE, ControlMode.AWARE),
        jammer=JammerConfig(target="8-9"),
        epsilon_sweep=(1.0, 1.0, 1.0),
        traffic=TrafficModel(requests_per_replication=400, replications=1),
        base_seed=3,
        output_dir="unused",
        workers=2,
    )
    with mock.patch.object(concurrent.futures, "ProcessPoolExecutor") as pool, \
            mock.patch.object(sim.os, "cpu_count", return_value=4):
        pool.return_value.__enter__.return_value.map.side_effect = map
        result, pairs, _ = _spied_scenario(two_workers)
    assert pairs == 0
    assert pool.call_args_list == [mock.call(max_workers=2)]
    assert _separate_runs_equal(result, two_workers)


@pytest.mark.parametrize(
    "workers, cpus, powers, seeds, paired",
    [(1, 4, 1, 1, True), (2, 4, 1, 1, False), (2, 4, 2, 1, True), (2, 1, 1, 1, True),
     (4, 4, 1, 3, False), (4, 4, 2, 2, True), (8, 2, 1, 2, True)],
)
def test_pairs_are_formed_only_with_a_job_for_every_worker(workers, cpus, powers, seeds, paired):
    config = ScenarioConfig(
        topology="nsfnet",
        modes=(ControlMode.UNAWARE, ControlMode.AWARE),
        jammer=JammerConfig(target="8-9"),
        epsilon_sweep=(1.0, float(powers), 1.0),
        traffic=TrafficModel(requests_per_replication=20, replications=seeds),
        base_seed=3,
        output_dir="unused",
        workers=workers,
    )
    with mock.patch.object(concurrent.futures, "ProcessPoolExecutor") as pool, \
            mock.patch.object(sim.os, "cpu_count", return_value=cpus):
        pool.return_value.__enter__.return_value.map.side_effect = map
        _, pairs, _ = _spied_scenario(config)
    assert pairs == (powers * seeds if paired else 0)
