"""Discrete-event engine: Poisson arrivals, exponential holding, sweeps.

One replication processes a fixed number of connection requests plus
their departures in time order.  Arrivals follow a Poisson process whose
rate is ``load_erlangs / mean_holding_s``; endpoints are uniform over
ordered distinct node pairs; the bandwidth is uniform over the
configured choices; holding times are exponential.

Randomness comes from a counter-based Philox generator seeded with
``base_seed + replication_index``, so every replication result is a pure
function of (seed, configuration) and is bit-identical across reruns.

The requests do not depend on the control plane or the jamming power,
so a replication's whole stream is drawn once per seed, by
:func:`generate_request` in the same order, and kept as a tuple of
:class:`Request` (see :func:`_request_stream`).  The last stream is
cached, so the replications of one seed share it; :func:`run_scenario`
runs its jobs seed by seed.  Every public entry that runs replications
(:func:`run_scenario`, :func:`run_replication` and
:func:`compute_utilization_ranking`) empties the cache when it returns.

The unaware and the aware plane decide alike on every request until
the aware plane first forbids a jammed range.  So :func:`run_scenario`
runs a seed's two planes at one power as one pair job: a single state
serves both, in aware mode, and at that first detection it is copied,
so that each plane goes on with a state of its own (:func:`_replay`).
A pair that never detects gives one result for both planes.  A lone
plane and a pair run through the same job function, :func:`_replicate`.

A 0 dB attack adds no power (``epsilon_w = P * (10**0 - 1) = 0.0``), so
every jamming term is exactly 0.0, nothing is detected, and both planes
give the no-jamming result of their seed.  So :func:`run_scenario`
serves every 0 dB point, like the no-jamming point, from the seed's
jammer-free job, and never runs a jamming job at 0 dB.

The arrivals are already in time order, so the engine walks them in
order and keeps only departures on a heap of ``(departs_at,
lightpath_id)`` pairs.  Before each arrival it releases every circuit
due at or before that arrival's time: a departure goes before an
arrival at the same time, and tied departures leave in request order.
After the last arrival the circuits still active are drained without
generating new traffic, their clock clipped to that arrival;
utilization statistics sum each circuit's exact holding time from t=0
up to the last arrival, so the drain tail does not dilute them.

numpy and the process pool are imported by the functions that use them,
so importing the package and loading a config loads neither.  With more
than one worker, :func:`_run_jobs` imports numpy before the pool forks
its workers, which inherit it instead of each importing it again.
"""

from __future__ import annotations

import functools
import heapq
import math
import os
from typing import TYPE_CHECKING, NamedTuple

from . import metrics
from ._value import Value
from .control_plane import (
    DEFAULT_DETECTION_TOLERANCE_DB,
    Blocked,
    ControlMode,
    NetworkState,
    handle_request,
)
from .jammer import MAX_EPSILON_DB, GroundTruth, JammerConfig, ground_truth_channels, resolve_target
from .topology import Topology

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "MAX_REQUESTS_PER_REPLICATION",
    "MAX_SWEEP_POINTS",
    "TrafficModel",
    "Request",
    "DEPARTURE",
    "ARRIVAL",
    "generate_request",
    "run_replication",
    "compute_utilization_ranking",
    "epsilon_sweep_length",
    "epsilon_sweep_values",
    "ScenarioPoint",
    "ScenarioResult",
    "run_scenario",
]

DEPARTURE = 0
ARRIVAL = 1

#: Bound on a replication's mean arrival horizon (s), far below float overflow.
MAX_MEAN_HORIZON_S = 1e300

#: Most requests one replication may draw.  A replication holds its whole
#: request stream in memory before serving it, about 170 B a request (a
#: slotted ``Request`` with its own float and int objects, plus its slot
#: in the tuple), and each worker process holds its own.  At this bound
#: a stream takes about 170 MB, 100 times the shipped configs; a larger
#: count is refused rather than a run that exhausts memory.
MAX_REQUESTS_PER_REPLICATION = 1_000_000

#: Most jamming powers one sweep may hold.  :func:`epsilon_sweep_length`
#: counts a sweep's powers without building them and refuses a longer one.
MAX_SWEEP_POINTS = 10_000


class TrafficModel(Value):
    """Offered-load description; defaults match the reference workload."""

    _fields = (
        "load_erlangs",
        "mean_holding_s",
        "bandwidth_choices_gbps",
        "requests_per_replication",
        "replications",
    )

    def __init__(
        self,
        load_erlangs: float = 200.0,
        mean_holding_s: float = 600.0,
        bandwidth_choices_gbps: tuple[float, ...] = (40.0, 200.0, 400.0),
        requests_per_replication: int = 100_000,
        replications: int = 10,
    ) -> None:
        if not (0 < load_erlangs < math.inf and 0 < mean_holding_s < math.inf):
            raise ValueError("load and holding time must be positive and finite")
        if not bandwidth_choices_gbps or not all(0 < b < math.inf for b in bandwidth_choices_gbps):
            raise ValueError("bandwidth choices must be positive and finite")
        if requests_per_replication < 1:
            # A replication without requests has no blocking probability.
            raise ValueError("requests_per_replication: must be >= 1")
        if requests_per_replication > MAX_REQUESTS_PER_REPLICATION:
            raise ValueError(
                f"requests_per_replication: {requests_per_replication} requests, "
                f"more than the {MAX_REQUESTS_PER_REPLICATION} allowed"
            )
        if replications < 1:
            raise ValueError("replications: must be >= 1")
        horizon = requests_per_replication * mean_holding_s / load_erlangs
        if horizon > MAX_MEAN_HORIZON_S:
            raise ValueError(f"mean arrival horizon {horizon:.3g} s is above the {MAX_MEAN_HORIZON_S:g} s allowed")
        self._store(
            load_erlangs=load_erlangs,
            mean_holding_s=mean_holding_s,
            bandwidth_choices_gbps=bandwidth_choices_gbps,
            requests_per_replication=requests_per_replication,
            replications=replications,
        )

    @property
    def arrival_rate(self) -> float:
        """Requests per second: offered load over mean holding time."""
        return self.load_erlangs / self.mean_holding_s


class Request(Value):
    """One connection request: endpoints, bandwidth, arrival and holding time."""

    __slots__ = ("id", "source", "destination", "bandwidth_gbps", "arrival_time", "holding_s")
    _fields = __slots__

    def __init__(
        self,
        id: int,
        source: str,
        destination: str,
        bandwidth_gbps: float,
        arrival_time: float,
        holding_s: float,
    ) -> None:
        self._store(
            id=id,
            source=source,
            destination=destination,
            bandwidth_gbps=bandwidth_gbps,
            arrival_time=arrival_time,
            holding_s=holding_s,
        )


def generate_request(
    rng: np.random.Generator,
    topology: Topology,
    traffic: TrafficModel,
    previous_arrival_time: float,
    request_id: int = 0,
) -> tuple[Request, float]:
    """Draw the next request after ``previous_arrival_time``.

    Draw order is fixed (inter-arrival, source, destination, bandwidth,
    holding) so that a seed pins the whole request sequence.
    """
    arrival = previous_arrival_time + rng.exponential(1.0 / traffic.arrival_rate)
    n = len(topology.nodes)
    i = int(rng.integers(n))
    j = int(rng.integers(n - 1))
    if j >= i:
        j += 1
    bandwidth = traffic.bandwidth_choices_gbps[int(rng.integers(len(traffic.bandwidth_choices_gbps)))]
    holding = float(rng.exponential(traffic.mean_holding_s))
    request = Request(
        id=request_id,
        source=topology.nodes[i],
        destination=topology.nodes[j],
        bandwidth_gbps=bandwidth,
        arrival_time=float(arrival),
        holding_s=holding,
    )
    return request, float(arrival)


class _Nodes(NamedTuple):
    """The only part of a topology :func:`generate_request` reads."""

    nodes: tuple[str, ...]


@functools.lru_cache(maxsize=1)
def _request_stream(seed: int, nodes: tuple[str, ...], traffic: TrafficModel) -> tuple[Request, ...]:
    """Every request of a replication, drawn by :func:`generate_request`.

    Keyed by what the draws depend on, so the replications of one seed
    under different planes and powers share one stream, also in a worker
    process that received its own copy of the topology.  Each
    :func:`_replicate` call looks it up once, so the two planes of a
    pair job read one stream.  One stream is kept; each public entry
    that runs replications clears it when it returns.
    """
    import numpy as np

    rng = np.random.Generator(np.random.Philox(seed))
    where = _Nodes(nodes)
    requests = []
    previous = 0.0
    for request_id in range(1, traffic.requests_per_replication + 1):
        request, previous = generate_request(rng, where, traffic, previous, request_id)
        requests.append(request)
    return tuple(requests)


class _Split(Exception):
    """Raised at the shared state's first detection: the planes part there."""


class _SharedState(NetworkState):
    """One state for the unaware and the aware plane of a seed and power.

    It is served in aware mode.  Its first :meth:`forbid_range` call
    raises :class:`_Split` instead of forbidding; from there on it is
    the unaware plane's state, which never forbids, and a copy is the
    aware plane's (see :func:`_replay`).
    """

    def forbid_range(self, link_id, block):
        raise _Split


class _Branch:
    """One plane's run: its state, its departure heap and its counts."""

    __slots__ = ("mode", "state", "departures", "blocked_by_reason", "established", "events")

    def __init__(self, mode: ControlMode, state: NetworkState):
        self.mode = mode
        self.state = state
        self.departures: list[tuple[float, int]] = []
        self.blocked_by_reason: dict[str, int] = {}
        self.established = 0
        self.events = 0

    def fork(self, mode: ControlMode) -> "_Branch":
        """An independent branch in ``mode`` that starts where this one stands."""
        twin = _Branch(mode, self.state.copy())
        twin.departures = list(self.departures)
        twin.blocked_by_reason = dict(self.blocked_by_reason)
        twin.established = self.established
        twin.events = self.events
        return twin


def _replay(
    requests: tuple[Request, ...],
    branches: list[_Branch],
    ground_truth: GroundTruth | None,
    tolerance_db: float,
    audit_hook=None,
    audit_every: int = 0,
) -> list[_Branch]:
    """Serve ``requests`` on every branch, in arrival order; return the branches.

    Every result of :func:`_replicate`, a lone plane's or a pair's, is
    aggregated by :func:`_result` from a branch this returns.  Before
    each request, each branch releases the circuits due at or before
    its arrival, earliest first and in request order at equal times.
    The circuits left after the last arrival depart at that arrival's
    time.  ``audit_hook(state, kind, time)`` is called on every
    ``audit_every``-th event of a branch.

    A lone branch on a :class:`_SharedState` splits in two.  This relies
    on the planes deciding alike until the aware plane's first
    ``forbid_range``: before it, the aware plane differs only by
    detections on blocks that overlap no jammed range, which reject
    nothing.  When the shared state raises :class:`_Split`, the request
    has changed nothing of it but ``last_refuser`` (no circuit was
    established and no range forbidden), so that is restored, the
    branch is forked, and the request is served again on the unaware
    branch and on the aware fork.  Running detection before the own-QoT
    check (ROADMAP item 1) must re-check this: it moves the split
    earlier, and its probe skip for detectable blocks changes
    ``last_refuser`` but no outcome.
    """
    horizon = requests[-1].arrival_time

    def event(branch: _Branch, kind: int, now: float) -> None:
        branch.events += 1
        if audit_hook is not None and audit_every and branch.events % audit_every == 0:
            audit_hook(branch.state, kind, now)

    def depart_through(branch: _Branch, limit: float) -> None:
        departures = branch.departures
        while departures and departures[0][0] <= limit:
            departs_at, lightpath_id = heapq.heappop(departures)
            now = min(departs_at, horizon)
            branch.state.depart(lightpath_id, now)
            event(branch, DEPARTURE, now)

    def serve(branch: _Branch, request: Request) -> None:
        outcome = handle_request(
            request, branch.state, branch.mode, ground_truth, tolerance_db=tolerance_db
        )
        if isinstance(outcome, Blocked):
            reasons = branch.blocked_by_reason
            reasons[outcome.reason] = reasons.get(outcome.reason, 0) + 1
        else:
            branch.established += 1
            heapq.heappush(branch.departures, (outcome.departs_at, outcome.id))
        event(branch, ARRIVAL, request.arrival_time)

    for request in requests:
        for branch in branches:
            depart_through(branch, request.arrival_time)
        refuser = branches[0].state.last_refuser
        try:
            for branch in branches:
                serve(branch, request)
        except _Split:
            [shared] = branches  # only a lone shared branch splits
            shared.state.last_refuser = refuser
            branches = [shared, shared.fork(ControlMode.AWARE)]
            shared.mode = ControlMode.UNAWARE
            for branch in branches:
                serve(branch, request)
    for branch in branches:
        depart_through(branch, math.inf)
    return branches


def _ground_truth(mode, jammer_config, topology) -> GroundTruth | None:
    """The attack a replication in ``mode`` runs under (None without jamming)."""
    if mode is ControlMode.NO_JAMMING:
        if jammer_config is not None:
            raise ValueError("no_jamming runs must not carry a jammer")
        return None
    if jammer_config is None:
        raise ValueError(f"mode {mode.value} requires a jammer config")
    ground_truth = ground_truth_channels(jammer_config)
    topology.link_by_id(ground_truth.link_id)
    return ground_truth


def _result(branch: _Branch, requests: tuple[Request, ...]) -> metrics.ReplicationResult:
    """Aggregate a drained branch's statistics up to the last arrival."""
    import numpy as np

    state = branch.state
    if state.actives:
        raise RuntimeError("drain left active circuits behind")
    # The drain departs every circuit at the horizon at the latest, so
    # each grid's busy time is its circuits' holding time up to it.
    horizon = requests[-1].arrival_time

    slot_count = next(iter(state.grids.values())).slot_count if state.grids else 0
    by_link: dict[str, np.ndarray] = {}
    used_by_link: dict[str, np.ndarray] = {}
    all_grids = []
    for grid in state.grids.values():
        if horizon > 0:
            fractions = grid.reserved_seconds / horizon
            used_vec = grid.used_seconds / horizon
        else:
            fractions = np.zeros(slot_count)
            used_vec = np.zeros(slot_count)
        all_grids.append(fractions)
        if grid.link_id in by_link:
            by_link[grid.link_id] = (by_link[grid.link_id] + fractions) / 2.0
            used_by_link[grid.link_id] = (used_by_link[grid.link_id] + used_vec) / 2.0
        else:
            by_link[grid.link_id] = fractions
            used_by_link[grid.link_id] = used_vec
    slot_utilization = (
        np.mean(np.stack(all_grids), axis=0) if all_grids else np.zeros(slot_count)
    )

    return metrics.ReplicationResult(
        requests=len(requests),
        blocked_by_reason=dict(sorted(branch.blocked_by_reason.items())),
        slot_utilization=slot_utilization,
        slot_utilization_by_link=by_link,
        slot_used_by_link=used_by_link,
        established=branch.established,
        horizon_s=horizon,
    )


#: The modes of a pair job, in the order of its results.
_PAIR = (ControlMode.UNAWARE, ControlMode.AWARE)

#: The modes and power of the job behind every no-jamming and 0 dB point.
_JAMMER_FREE = ((ControlMode.NO_JAMMING,), None)


def _replicate(
    seed, topology, traffic, modes, jammer_config, tolerance_db,
    audit_hook=None, audit_every=0,
) -> tuple[metrics.ReplicationResult, ...]:
    """The replication of one seed in each of ``modes``, one result per mode.

    ``modes`` is ``(mode,)``, served on a plain :class:`NetworkState`,
    or :data:`_PAIR`, whose planes are served on one
    :class:`_SharedState` until the aware plane's first detection; each
    result equals the one the mode gives alone.  A pair that never
    splits returns its one result twice.  The jammer must name its link.
    """
    ground_truth = _ground_truth(modes[0], jammer_config, topology)
    requests = _request_stream(seed, topology.nodes, traffic)
    if modes == _PAIR:
        start = _Branch(ControlMode.AWARE, _SharedState(topology))
    else:
        [mode] = modes
        start = _Branch(mode, NetworkState(topology))
    branches = _replay(requests, [start], ground_truth, tolerance_db, audit_hook, audit_every)
    results = tuple(_result(branch, requests) for branch in branches)
    return results * len(modes) if len(results) == 1 else results


def run_replication(
    seed: int,
    topology: Topology,
    traffic: TrafficModel,
    mode: ControlMode,
    jammer_config: JammerConfig | None = None,
    detection_tolerance_db: float = DEFAULT_DETECTION_TOLERANCE_DB,
    audit_hook=None,
    audit_every: int = 0,
) -> metrics.ReplicationResult:
    """Simulate one seeded replication and aggregate its statistics.

    The seed's requests are served in arrival order; before each one,
    the circuits due at or before its arrival depart, earliest first and
    in request order at equal times.  The circuits left after the last
    arrival depart at that arrival's time.

    The jammer must target a link id: a most- or least-used selector is
    resolved by :func:`run_scenario`, and here it raises ``ValueError``.
    ``audit_hook(state, kind, time)`` is invoked every ``audit_every``
    processed events (arrivals and departures, in the order above) when
    set (testing aid); ``kind`` is :data:`ARRIVAL` or :data:`DEPARTURE`.
    The cached request stream is emptied on return.
    """
    try:
        return _replicate(
            seed, topology, traffic, (mode,), jammer_config, detection_tolerance_db,
            audit_hook, audit_every,
        )[0]
    finally:
        _request_stream.cache_clear()


def epsilon_sweep_length(start: float, stop: float, step: float) -> int:
    """How many powers :func:`epsilon_sweep_values` returns, without building them.

    Every bound on a sweep is checked here, including its point count
    and its last power, and a violation raises ``ValueError``.
    """
    if not start >= 0:
        raise ValueError("start: must be >= 0")
    if not step > 0:
        raise ValueError("step: must be positive")
    if not stop >= start:
        raise ValueError("stop: must be >= start")
    steps = (stop - start) / step
    if not math.isfinite(steps):
        raise ValueError(f"step {step} is too small for a sweep from {start} to {stop}")
    # The rounded values never decrease, so the bound keeps a prefix of
    # them: only values at the end can exceed it (in practice the last).
    kept = int(round(steps)) + 1
    while kept > 1 and round(start + (kept - 1) * step, 10) > stop + 1e-9:
        kept -= 1
    if kept > MAX_SWEEP_POINTS:
        raise ValueError(f"{kept} powers, more than the {MAX_SWEEP_POINTS} allowed")
    if round(start + (kept - 1) * step, 10) > MAX_EPSILON_DB:
        raise ValueError(f"a power above the {MAX_EPSILON_DB} dB limit")
    return kept


def epsilon_sweep_values(start: float, stop: float, step: float) -> list[float]:
    """Inclusive sweep grid, robust to floating-point step accumulation."""
    return [round(start + i * step, 10) for i in range(epsilon_sweep_length(start, stop, step))]


def _run_jobs(jobs, workers: int) -> list[tuple[metrics.ReplicationResult, ...]]:
    """The results of :func:`_replicate` for each job's arguments, in job order."""
    # The pool starts all its processes at once, so never ask it for
    # more than there are jobs or CPUs; ``map`` keeps the job order.
    workers = min(workers, len(jobs), os.cpu_count() or 1)
    if workers <= 1:
        return [_replicate(*job) for job in jobs]
    from concurrent.futures import ProcessPoolExecutor

    # Forked workers inherit the parent's modules: import numpy once here
    # rather than once in each worker.
    import numpy  # noqa: F401

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_replicate, *zip(*jobs)))


def _no_jamming_runs(seeds, topology, traffic, workers) -> list[metrics.ReplicationResult]:
    """The jammer-free replication of each seed, in seed order."""
    modes, tolerance = (ControlMode.NO_JAMMING,), DEFAULT_DETECTION_TOLERANCE_DB
    jobs = [(seed, topology, traffic, modes, None, tolerance) for seed in seeds]
    return [result for (result,) in _run_jobs(jobs, workers)]


def compute_utilization_ranking(
    topology: Topology,
    traffic: TrafficModel,
    base_seed: int,
    workers: int = 1,
) -> list[tuple[str, float]]:
    """Rank links by mean utilization from a jammer-free pre-run.

    Uses the same seed set as the main runs so the most/least-used
    selection is reproducible.  The cached request stream is emptied on
    return.
    """
    seeds = range(base_seed, base_seed + traffic.replications)
    try:
        return metrics.utilization_ranking(_no_jamming_runs(seeds, topology, traffic, workers))
    finally:
        _request_stream.cache_clear()


class ScenarioPoint(Value):
    """All replications of one (mode, epsilon) sweep point."""

    _fields = ("mode", "target_link_id", "epsilon_db", "results")

    @property
    def mean_blocking(self) -> float:
        import numpy as np

        return float(np.mean([metrics.blocking_probability(r) for r in self.results]))

    @property
    def mean_slot_utilization(self) -> np.ndarray:
        return metrics.slot_histogram(self.results)


class ScenarioResult(Value):
    """Every point of a scenario, and the link ranking that named its jammer's target, if one did."""

    _fields = ("points", "ranking")
    _defaults = {"ranking": None}


def run_scenario(config, ranking=None) -> ScenarioResult:
    """Run every (mode, epsilon, replication) combination of a scenario.

    ``config`` is a :class:`eonjam.cli.ScenarioConfig`, which refuses
    when built what ``eonjam validate`` refuses.  The no-jamming mode
    ignores the sweep: its blocking is constant in epsilon, so it
    contributes a single point.
    A link-utilization ranking is computed when the jammer uses a
    most/least-used selector and none is given: the no-jamming
    replications of the scenario's seeds run first and are ranked (the
    same ranking as :func:`compute_utilization_ranking`).

    Every job is one :func:`_replicate` call, which gives a result per
    mode, and one rule names the job behind each point.  The no-jamming
    point and every point at exactly 0 dB take the seed's jammer-free
    job, the ranking pre-run when there is one: at 0 dB both planes give
    its results bit for bit.  Where a power has both an unaware and an
    aware point, both take one pair job (modes :data:`_PAIR`), split at
    the aware plane's first detection; its results equal two
    :func:`run_replication` calls.  Pairs are formed only when the pool
    still gets a job per worker, that is when the jobs left after
    pairing are at least ``min(workers, os.cpu_count())``; one worker
    always pairs.  Every other point takes a job of its own.  Each job
    runs once per seed, seed by seed, so consecutive jobs share the
    cached request stream.  A selector is resolved to a link id once,
    before any job is built.  The cache is emptied on return, so every
    call draws its streams afresh.
    """
    try:
        return _run_scenario(config, ranking)
    finally:
        _request_stream.cache_clear()


def _run_scenario(config, ranking) -> ScenarioResult:
    topology = config.load_topology()
    traffic = config.traffic
    seeds = [config.base_seed + r for r in range(traffic.replications)]
    sweep = [] if config.epsilon_sweep is None else epsilon_sweep_values(*config.epsilon_sweep)
    order = [
        (mode, eps)
        for mode in config.modes
        for eps in ([None] if mode is ControlMode.NO_JAMMING else sweep)
    ]

    done: dict[tuple, list] = {}  # job -> its results, a tuple per seed
    target_link_id = None
    if config.jammer is not None:
        if config.jammer.uses_selector and ranking is None:
            jammer_free = _no_jamming_runs(seeds, topology, traffic, config.workers)
            ranking = metrics.utilization_ranking(jammer_free)
            done[_JAMMER_FREE] = [(result,) for result in jammer_free]
        target_link_id = resolve_target(config.jammer, ranking)
        topology.link_by_id(target_link_id)

    # At 0 dB the jammer adds no power, so every jamming term is 0.0 and
    # nothing is detected: both planes give the jammer-free results.
    def job_of(mode, eps):
        """The modes and power of the job behind the (mode, eps) point."""
        if mode is ControlMode.NO_JAMMING or eps == 0.0:
            return _JAMMER_FREE
        return (_PAIR if eps in paired else (mode,)), eps

    def planned():
        return [job for job in dict.fromkeys(job_of(*point) for point in order) if job not in done]

    # A pair job serves a power's unaware and aware points together; pair
    # only when the pool still gets at least one job per worker.
    paired = {eps for mode, eps in order if mode is ControlMode.UNAWARE} & {
        eps for mode, eps in order if mode is ControlMode.AWARE
    }
    if len(seeds) * len(planned()) < min(config.workers, os.cpu_count() or 1):
        paired = set()
    jobs = planned()

    def arguments(seed, modes, eps):
        jam = None if eps is None else JammerConfig(
            target=target_link_id, jammed_ranges=config.jammer.jammed_ranges, epsilon_db=eps
        )
        return (seed, topology, traffic, modes, jam, config.detection_tolerance_db)

    work = [(seed, job) for seed in seeds for job in jobs]
    results = _run_jobs([arguments(seed, *job) for seed, job in work], config.workers)
    for (_, job), job_results in zip(work, results, strict=True):
        done.setdefault(job, []).append(job_results)

    def point_results(mode, eps):
        modes, _ = job = job_of(mode, eps)
        at = modes.index(mode) if mode in modes else 0
        return tuple(job_results[at] for job_results in done[job])

    points = tuple(
        ScenarioPoint(
            mode=mode,
            target_link_id=None if mode is ControlMode.NO_JAMMING else target_link_id,
            epsilon_db=eps,
            results=point_results(mode, eps),
        )
        for mode, eps in order
    )
    return ScenarioResult(
        points=points,
        ranking=None if ranking is None else tuple(ranking),
    )
