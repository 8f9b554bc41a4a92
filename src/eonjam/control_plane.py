"""Admission control: RSA loop, QoT evaluation, jamming detection.

A request is served by the flowchart loop in :func:`handle_request`:
the cached shortest route is fixed, then modulation formats are tried
from the most to the least spectrally efficient.  For each format the
First Fit block is evaluated against the true physical model (the
jamming noise is physically present whether or not the control plane
knows about it):

* the candidate itself must meet its modulation SNR threshold;
* no already-active circuit sharing a link may be pushed below its own
  threshold by the candidate's added interference;
* in aware mode, the measured SNR (which includes jamming) is compared
  with the estimate from the interference model; a mismatch beyond the
  tolerance on a candidate whose spectrum overlaps a jammed range gets
  the range marked forbidden for the rest of the run, and First Fit is
  asked for a different block at the same modulation.

A mismatch on a candidate that does not overlap any jammed range (pure
out-of-band interference from an empty jammed channel) is observable via
:func:`detect_jamming` but does not reject the candidate: the leaked
interference is already priced into the QoT checks, and refusing all
spectrum within measurement reach of the attack would shut down the
whole attacked link at high jamming powers.

QoT rejection falls through to the next lower modulation; when all
formats are exhausted the request is blocked with the dominant reason.

Formats the physics rules out in advance are never tried.  The XCI and
jamming terms only add noise, so a lone circuit in an empty network has
the best SNR a format can reach on its route; :func:`static_reach`
keeps the formats that meet their threshold there, once per process.
A pruned format could only have set the ``qot-fail`` reason, which a
single First Fit probe recovers after the loop.

The engine tracks each active circuit's noise incrementally: the ASE,
self-channel and jamming terms are constants of its route and block, and
the cross-channel term is updated by the exact pair contribution when a
neighbour arrives or departs.  This keeps admission checks O(shared
neighbours) instead of rescanning the whole network.  Every term comes
from the :mod:`eonjam.phy` kernels that the audit's ``phy.snr`` uses:
``phy.xci_onto`` sums a candidate's own XCI hop by hop, and
``phy.xci_from`` prices what a circuit adds to its neighbours, one call
per hop of its route.  ``NetworkState.grid_actives`` maps each directed
hop to the spectral records (``phy.Channel.record``: centre and
half-width in half-slots, PSD and its square) of the circuits on it,
which is all both kernels read.

A neighbour that refuses one candidate tends to refuse the next: it is
the circuit with the least margin near the free spectrum.  So
:func:`evaluate_candidate` records the last neighbour that refused a
candidate, and :func:`handle_request` first prices each First Fit block
against that one circuit alone (:func:`_refused_by_last_refuser`).  A
block it refuses is never built; the verdict is the one the full check
would give.

What a request's endpoints and bandwidth fix is computed once:
:meth:`NetworkState.admission` keeps the route and its
:func:`static_reach` under ``(source, destination, bandwidth_gbps)``.
They depend only on the topology and the physics, so every state of one
topology and physics shares them (``_demand_tables``), together with
the launch-power ``phy.Channel`` of each block First Fit has answered.
Each state keeps one tuple of slot grids per route, built on the first
request that reads it.  The reach also keeps the route's ASE and each
kept format's self-channel NLI, which depend only on the route and the
block width, and every candidate reuses them.
"""

from __future__ import annotations

import copy
import functools
import math
import weakref
from dataclasses import dataclass, field
from enum import Enum

from . import phy
from .jammer import GroundTruth
from .spectrum import SlotBlock, SlotGrid, allocate, first_fit, release
from .topology import Route, Topology

__all__ = [
    "ControlMode",
    "Verdict",
    "Lightpath",
    "Blocked",
    "NetworkState",
    "REASON_NO_SPECTRUM",
    "REASON_QOT",
    "REASON_JAMMED",
    "required_slots",
    "StaticReach",
    "static_reach",
    "handle_request",
    "evaluate_candidate",
    "detect_jamming",
    "verify_state_invariants",
]

DEFAULT_DETECTION_TOLERANCE_DB = 0.1

REASON_NO_SPECTRUM = "no-spectrum"
REASON_QOT = "qot-fail"
REASON_JAMMED = "jammed-no-alternative"


class ControlMode(str, Enum):
    NO_JAMMING = "no_jamming"
    UNAWARE = "unaware"
    AWARE = "aware"


class Verdict(Enum):
    ACCEPT = "accept"
    REJECT_QOT = "reject_qot"
    REJECT_JAMMED = "reject_jammed"


@dataclass
class Lightpath:
    """A circuit (candidate or established) plus its live noise state.

    ``ase_psd``, ``sci_psd`` and ``jam_psd`` are constants of the route,
    block and static attack; ``xci_psd`` is the accumulated cross-channel
    interference from currently co-propagating circuits.  ``priced``
    holds what :func:`evaluate_candidate` computed for
    :meth:`NetworkState.establish`: the state and its change count, and
    the XCI the candidate adds to each neighbour.
    """

    id: int
    route: Route
    block: SlotBlock
    modulation: phy.Modulation
    bandwidth_gbps: float
    departs_at: float
    channel: phy.Channel
    ase_psd: float
    sci_psd: float
    jam_psd: float
    xci_psd: float = 0.0
    priced: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def noise_psd(self) -> float:
        return self.ase_psd + self.sci_psd + self.xci_psd + self.jam_psd

    @property
    def snr(self) -> float:
        """True (measured) SNR, jamming included."""
        return self.channel.psd_w_per_hz / self.noise_psd

    @property
    def snr_estimated(self) -> float:
        """SNR predicted by the jamming-blind interference model."""
        return self.channel.psd_w_per_hz / (self.ase_psd + self.sci_psd + self.xci_psd)

    def meets_threshold(self) -> bool:
        return phy.qot_verdict(self.snr, self.modulation)

    def survives(self, delta: float) -> bool:
        """Whether the circuit still meets its threshold with ``delta`` more XCI.

        The noise is :attr:`noise_psd` plus ``delta``, added in that
        order; spelled out, it saves a property call per neighbour.
        """
        noise = self.ase_psd + self.sci_psd + self.xci_psd + self.jam_psd + delta
        return phy.qot_verdict(self.channel.psd_w_per_hz / noise, self.modulation)


@dataclass(frozen=True)
class Blocked:
    """A denied request and the dominant reason."""

    reason: str


class NetworkState:
    """Slot grids, active circuits and the ranges detected as jammed.

    ``forbidden_ranges[link_id]`` lists a link's detected ranges in
    detection order and is the only record of them; only
    :meth:`forbid_range` writes it.  ``grid_actives[hop]`` maps the id
    of each circuit on a directed hop to its spectral record,
    ``phy.Channel.record``, and is the only record of which circuits
    hold a hop's slots.  ``changes`` counts establishments and
    departures, so a candidate's neighbour XCI can be checked to be
    priced on the current circuits.  ``last_refuser`` is the id of the
    last circuit that the neighbour check of :func:`evaluate_candidate`
    found pushed below its threshold (None before the first); it may
    have departed since.  The routes, reaches and channels that depend
    only on the topology and the physics are read from their
    :class:`_SharedTables`; the grid tuple of each route
    (:meth:`grids_for_route`) is this state's own.
    """

    def __init__(self, topology: Topology, params: phy.PhyParams):
        self.topology = topology
        self.params = params
        self.grids: dict[tuple[str, str], SlotGrid] = {}
        self._route_grids: dict[tuple[tuple[str, str], ...], tuple[SlotGrid, ...]] = {}
        self.grid_actives: dict[tuple[str, str], dict[int, tuple]] = {}
        for link in topology.links:
            for direction in ((link.source, link.destination), (link.destination, link.source)):
                self.grids[direction] = SlotGrid(link.id, direction)
                self.grid_actives[direction] = {}
        self.actives: dict[int, Lightpath] = {}
        self.forbidden_ranges: dict[str, list[SlotBlock]] = {}
        self.changes = 0
        self.last_refuser: int | None = None
        self._shared = _demand_tables.setdefault(topology, {}).setdefault(params, _SharedTables())

    def copy(self) -> "NetworkState":
        """An exact, independent :class:`NetworkState` of the same network.

        The grids, the hop lists, the detected ranges and every active
        :class:`Lightpath` are copied (a circuit's ``xci_psd`` changes as
        neighbours come and go); the topology, the physics, the shared
        tables and the immutable channels and records are shared.  The
        copy starts with no route grid tuples: it builds its own, of its
        own grids.
        """
        twin = NetworkState.__new__(NetworkState)
        twin.topology = self.topology
        twin.params = self.params
        twin.grids = {hop: grid.copy() for hop, grid in self.grids.items()}
        twin._route_grids = {}
        twin.grid_actives = {hop: dict(on_hop) for hop, on_hop in self.grid_actives.items()}
        twin.actives = {key: copy.copy(lightpath) for key, lightpath in self.actives.items()}
        twin.forbidden_ranges = {key: list(value) for key, value in self.forbidden_ranges.items()}
        twin.changes = self.changes
        twin.last_refuser = self.last_refuser
        twin._shared = self._shared
        return twin

    def grids_for_route(self, route: Route) -> tuple[SlotGrid, ...]:
        """This state's slot grids of ``route``'s directed hops, in route order.

        The tuple is built on the first call for the route's hops and
        returned by every later one.
        """
        hops = route.directed_hops
        grids = self._route_grids.get(hops)
        if grids is None:
            grids = self._route_grids[hops] = tuple(self.grids[hop] for hop in hops)
        return grids

    def admission(
        self, source: str, destination: str, bandwidth_gbps: float
    ) -> tuple[Route, tuple[SlotGrid, ...], StaticReach]:
        """The route, its slot grids and its static reach for one demand.

        The route and the reach are computed on the first request with
        these endpoints and bandwidth, then looked up in the table shared
        by the states of this topology and physics, which never change.
        """
        key = (source, destination, bandwidth_gbps)
        demands = self._shared.demands
        demand = demands.get(key)
        if demand is None:
            route = self.topology.shortest_path(source, destination)
            demand = demands[key] = (route, static_reach(route, bandwidth_gbps, self.params))
        route, reach = demand
        return route, self.grids_for_route(route), reach

    def forbid_range(self, link_id: str, block: SlotBlock) -> bool:
        """Record ``block`` as detected on a link and forbid it both ways.

        Returns False when the range was already recorded.  Slots still
        held by an active circuit are marked when that circuit releases
        them.
        """
        link = self.topology.link_by_id(link_id)
        if block in self.forbidden_ranges.get(link_id, ()):
            return False
        self.grids[(link.source, link.destination)].forbid(block)
        self.grids[(link.destination, link.source)].forbid(block)
        self.forbidden_ranges.setdefault(link_id, []).append(block)
        return True

    def establish(self, lightpath: Lightpath, now: float) -> None:
        """Allocate spectrum and fold the circuit's NLI onto its neighbours.

        The neighbour XCI comes from the :func:`evaluate_candidate` call
        that accepted ``lightpath``; a candidate not evaluated against
        the current circuits is refused.
        """
        priced, lightpath.priced = lightpath.priced, None
        state, changes, deltas = priced or (None, None, None)
        if state is not self or changes != self.changes:
            raise ValueError(f"lightpath {lightpath.id} was not evaluated on the current state")
        grids = self.grids_for_route(lightpath.route)
        for grid in grids:
            grid.advance_time(now)
        allocate(grids, lightpath.block)
        self.changes += 1
        for neighbour_id, delta in deltas.items():
            self.actives[neighbour_id].xci_psd += delta
        record = lightpath.channel.record
        for hop in lightpath.route.directed_hops:
            self.grid_actives[hop][lightpath.id] = record
        self.actives[lightpath.id] = lightpath

    def depart(self, lightpath_id: int, now: float) -> None:
        """Release spectrum and remove the circuit's NLI from neighbours."""
        lightpath = self.actives.pop(lightpath_id)
        self.changes += 1
        for hop in lightpath.route.directed_hops:
            del self.grid_actives[hop][lightpath_id]
        grids = self.grids_for_route(lightpath.route)
        for grid in grids:
            grid.advance_time(now)
        release(grids, lightpath.block)
        for neighbour_id, delta in _neighbour_deltas(self, lightpath).items():
            self.actives[neighbour_id].xci_psd -= delta


class _SharedTables:
    """What the states of one topology and physics compute once.

    ``demands`` maps ``(source, destination, bandwidth_gbps)`` to the
    route and its :func:`static_reach`, filled by
    :meth:`NetworkState.admission`.  ``channels`` maps a slot block to
    its ``phy.channel_for_block`` at the launch power, filled by
    :func:`handle_request`; jammer channels are not in it.
    """

    __slots__ = ("demands", "channels")

    def __init__(self) -> None:
        self.demands: dict[tuple[str, str, float], tuple[Route, StaticReach]] = {}
        self.channels: dict[SlotBlock, phy.Channel] = {}


#: One :class:`_SharedTables` per topology (by identity) and physics,
#: shared by every state built on them.  A topology never reroutes and
#: ``PhyParams`` is frozen, so an entry never goes stale; the tables of
#: a topology go with it.
_demand_tables: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def required_slots(bandwidth_gbps: float, modulation: phy.Modulation, params: phy.PhyParams) -> int:
    """Contiguous slots needed to carry ``bandwidth_gbps`` at this format."""
    if bandwidth_gbps <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth_gbps}")
    slot_gbps = params.slot_width_hz / 1e9
    return math.ceil(bandwidth_gbps / (slot_gbps * modulation.bits_per_symbol))


@dataclass(frozen=True)
class StaticReach:
    """Formats a route can carry a demand at, before any other traffic.

    ``formats`` holds ``(modulation, width)`` pairs in trial order, most
    spectrally efficient first; ``narrowest_pruned_width`` is the
    smallest width among the formats left out (None when none is).
    ``ase_psd`` is the route's ASE and ``sci_psds`` the self-channel NLI
    of each kept format, aligned with ``formats``: constants of the route
    and the block width that every candidate on the route reuses.
    """

    formats: tuple[tuple[phy.Modulation, int], ...]
    narrowest_pruned_width: int | None
    ase_psd: float
    sci_psds: tuple[float, ...]


@functools.cache
def static_reach(route: Route, bandwidth_gbps: float, params: phy.PhyParams) -> StaticReach:
    """Keep each format whose lone circuit on an empty network meets its threshold.

    The verdict comes from a :class:`Lightpath` with no XCI or jamming
    noise, built through the same kernels as :func:`_build_candidate`.
    A live candidate's noise adds non-negative terms to the same sum,
    and rounding never lowers a sum, so a format left out here fails
    its own QoT check wherever First Fit places it.  The SNR does not
    depend on the block's position, only on its width, and neither do
    the ASE and self-channel terms kept for the candidates.  ``Route``
    and ``PhyParams`` are frozen, so a cached entry never goes stale.
    """
    formats = []
    sci_psds = []
    pruned_widths = []
    ase = phy.ase_psd(route, params)
    for modulation in reversed(phy.MODULATIONS):
        width = required_slots(bandwidth_gbps, modulation, params)
        block = SlotBlock(0, width)
        channel = phy.channel_for_block(block, params)
        lone = Lightpath(
            id=0,
            route=route,
            block=block,
            modulation=modulation,
            bandwidth_gbps=bandwidth_gbps,
            departs_at=0.0,
            channel=channel,
            ase_psd=ase,
            sci_psd=phy.sci_psd(channel, route.total_spans, params),
            jam_psd=0.0,
        )
        if lone.meets_threshold():
            formats.append((modulation, width))
            sci_psds.append(lone.sci_psd)
        else:
            pruned_widths.append(width)
    return StaticReach(tuple(formats), min(pruned_widths, default=None), ase, tuple(sci_psds))


def _neighbour_deltas(state: NetworkState, lightpath: Lightpath) -> dict[int, float]:
    """Per-neighbour XCI this circuit contributes, summed over shared links.

    The circuit itself is not in ``state.grid_actives`` here: it is a
    candidate not yet established, or a departing one already removed.
    """
    deltas: dict[int, float] = {}
    params = state.params
    record = lightpath.channel.record
    actives = state.grid_actives
    for link, hop in zip(lightpath.route.links, lightpath.route.directed_hops):
        phy.xci_from(record, actives[hop].items(), link.span_count, params, deltas)
    return deltas


def _refused_by_last_refuser(state: NetworkState, route: Route, record: tuple) -> bool:
    """Whether ``state.last_refuser`` refuses a candidate on ``route``.

    ``record`` is the spectral record of the candidate's channel.  Its
    XCI onto that circuit is summed over the hops they share, in
    route-hop order, by the same :func:`phy.xci_from` accumulation as
    :func:`_neighbour_deltas`, so it equals the delta the full check
    would compute to the bit, and :meth:`Lightpath.survives` gives the
    same verdict on it.  True therefore means :func:`evaluate_candidate`
    would return ``REJECT_QOT``: any failing neighbour does, whatever
    the candidate's own QoT, because the neighbour check runs before
    detection.  Running detection first (an open item of ``ROADMAP.md``)
    must move this probe after detection, or it would refuse as
    ``qot-fail`` a candidate that detection rejects as jammed.  False
    when the circuit has departed or shares no hop with ``route``.
    """
    refuser = state.actives.get(state.last_refuser)
    if refuser is None:
        return False
    key = refuser.id
    params = state.params
    actives = state.grid_actives
    delta: dict[int, float] = {}
    for link, hop in zip(route.links, route.directed_hops):
        on_hop = actives[hop]
        if key in on_hop:
            phy.xci_from(record, ((key, on_hop[key]),), link.span_count, params, delta)
    return bool(delta) and not refuser.survives(delta[key])


def _build_candidate(
    request_id: int,
    route: Route,
    block: SlotBlock,
    channel: phy.Channel,
    modulation: phy.Modulation,
    bandwidth_gbps: float,
    arrival_time: float,
    holding_s: float,
    state: NetworkState,
    ground_truth: GroundTruth | None,
    ase_psd: float,
    sci_psd: float,
) -> Lightpath:
    """Assemble a candidate circuit on ``block`` with its noise terms evaluated.

    ``channel`` is ``phy.channel_for_block(block, state.params)``, and
    ``ase_psd`` and ``sci_psd`` are its route's and width's constant
    terms (:class:`StaticReach` keeps them).  The XCI is one running
    total over the route's hops, in order.
    """
    params = state.params
    record = channel.record
    actives = state.grid_actives
    xci = 0.0
    jam = 0.0
    for link, hop in zip(route.links, route.directed_hops):
        xci = phy.xci_onto(record, actives[hop].values(), link.span_count, params, xci)
        if ground_truth is not None and link.id == ground_truth.link_id:
            jam = phy.jamming_psd(
                channel, link.span_count, ground_truth.channels, ground_truth.epsilon_w, params
            )
    return Lightpath(
        id=request_id,
        route=route,
        block=block,
        modulation=modulation,
        bandwidth_gbps=bandwidth_gbps,
        departs_at=arrival_time + holding_s,
        channel=channel,
        ase_psd=ase_psd,
        sci_psd=sci_psd,
        jam_psd=jam,
        xci_psd=xci,
    )


def detect_jamming(
    candidate: Lightpath,
    ground_truth: GroundTruth | None,
    tolerance_db: float = DEFAULT_DETECTION_TOLERANCE_DB,
) -> bool:
    """Compare measured and estimated SNR of a candidate circuit.

    The measured value comes from the emulated physical feed (jamming
    included); the estimate is what the interference model predicts
    without an attacker.  True when they disagree by more than the
    tolerance.
    """
    if ground_truth is None or candidate.jam_psd == 0.0:
        return False
    gap_db = phy.linear_to_db(candidate.snr_estimated) - phy.linear_to_db(candidate.snr)
    return abs(gap_db) > tolerance_db


def evaluate_candidate(
    candidate: Lightpath,
    state: NetworkState,
    mode: ControlMode,
    ground_truth: GroundTruth | None,
    tolerance_db: float = DEFAULT_DETECTION_TOLERANCE_DB,
) -> Verdict:
    """Admission decision for one candidate circuit.

    Checks, in order: the candidate's own QoT under true physics, the
    survival of every active circuit sharing a link, and (aware mode)
    the jamming-detection comparison for candidates overlapping a
    jammed range.  The neighbour XCI is kept on the candidate for
    :meth:`NetworkState.establish`; a neighbour that would drop below
    its threshold is recorded as ``state.last_refuser``.
    """
    if not candidate.meets_threshold():
        return Verdict.REJECT_QOT
    deltas = _neighbour_deltas(state, candidate)
    candidate.priced = (state, state.changes, deltas)
    actives = state.actives
    for neighbour_id, delta in deltas.items():
        if not actives[neighbour_id].survives(delta):
            state.last_refuser = neighbour_id
            return Verdict.REJECT_QOT
    if mode is ControlMode.AWARE and ground_truth is not None:
        if detect_jamming(candidate, ground_truth, tolerance_db):
            if ground_truth.ranges_overlapping(candidate.block):
                return Verdict.REJECT_JAMMED
    return Verdict.ACCEPT


def handle_request(
    request,
    state: NetworkState,
    mode: ControlMode,
    ground_truth: GroundTruth | None,
    tolerance_db: float = DEFAULT_DETECTION_TOLERANCE_DB,
) -> Lightpath | Blocked:
    """Serve one connection request through the admission flowchart.

    Returns the established :class:`Lightpath` or a :class:`Blocked`
    record; an established circuit starts at the request arrival time.
    Only the formats in the route's :func:`static_reach` are tried; the
    route, grids and reach come from :meth:`NetworkState.admission`,
    and a block's channel is built once per topology and physics.
    A block that :func:`_refused_by_last_refuser` refuses counts as a
    ``REJECT_QOT`` verdict without building the candidate.
    """
    route, grids, reach = state.admission(
        request.source, request.destination, request.bandwidth_gbps
    )
    channels = state._shared.channels
    saw_qot = False
    saw_jammed = False

    for (modulation, width), sci in zip(reach.formats, reach.sci_psds):
        while True:
            block = first_fit(grids, width)
            if block is None:
                break
            channel = channels.get(block)
            if channel is None:
                channel = channels[block] = phy.channel_for_block(block, state.params)
            if _refused_by_last_refuser(state, route, channel.record):
                saw_qot = True
                break
            candidate = _build_candidate(
                request.id,
                route,
                block,
                channel,
                modulation,
                request.bandwidth_gbps,
                request.arrival_time,
                request.holding_s,
                state,
                ground_truth,
                reach.ase_psd,
                sci,
            )
            verdict = evaluate_candidate(candidate, state, mode, ground_truth, tolerance_db)
            if verdict is Verdict.ACCEPT:
                state.establish(candidate, request.arrival_time)
                return candidate
            if verdict is Verdict.REJECT_QOT:
                saw_qot = True
                break
            saw_jammed = True
            for jammed_range in ground_truth.ranges_overlapping(candidate.block):
                state.forbid_range(ground_truth.link_id, jammed_range)

    if not (saw_jammed or saw_qot) and reach.narrowest_pruned_width is not None:
        # A pruned format would have failed QoT on any block First Fit
        # found it.  The grids are unchanged without a detection, and a
        # window that fits a wider format also fits the narrowest one.
        saw_qot = first_fit(grids, reach.narrowest_pruned_width) is not None

    if saw_jammed:
        reason = REASON_JAMMED
    elif saw_qot:
        reason = REASON_QOT
    else:
        reason = REASON_NO_SPECTRUM
    return Blocked(reason=reason)


def verify_state_invariants(
    state: NetworkState,
    mode: ControlMode,
    ground_truth: GroundTruth | None,
    rel_tol: float = 1e-9,
) -> None:
    """Audit the live engine state against the declarative model.

    Recomputes every active circuit's SNR from scratch through the
    physical-layer module, and checks that each grid's used slots are
    the union of the disjoint blocks of the circuits listed on its hop
    and its forbidden slots the union of its link's detected ranges.
    Raises ``AssertionError`` on any violation; used by the test suite.
    """
    params = state.params
    actives = state.actives
    for hop, grid in state.grids.items():
        held = 0
        for lightpath_id in state.grid_actives[hop]:
            assert lightpath_id in actives, f"inactive lightpath {lightpath_id} listed on {hop}"
            mask = actives[lightpath_id].block.mask
            assert not held & mask, f"overlapping allocations on {hop}"
            held |= mask
        assert held == grid.used, f"used slots disagree with the held blocks on {hop}"
        barred = 0
        for block in state.forbidden_ranges.get(grid.link_id, ()):
            barred |= block.mask
        assert barred == grid.forbidden_mask, f"forbidden slots disagree with the ranges on {hop}"

    for link_id, ranges in state.forbidden_ranges.items():
        if ground_truth is not None:
            assert link_id == ground_truth.link_id, "forbidden marks off the attacked link"
            for block in ranges:
                assert block in ground_truth.jammed_ranges, "forbidden mark outside jammed ranges"

    eps = None if ground_truth is None else ground_truth.epsilon_w
    for lightpath in actives.values():
        per_link_state = []
        for link, hop in zip(lightpath.route.links, lightpath.route.directed_hops):
            on_hop = state.grid_actives[hop]
            assert on_hop.get(lightpath.id) is lightpath.channel.record, (
                f"lightpath {lightpath.id} is listed on {hop} with another record"
            )
            channels = [
                actives[other_id].channel for other_id in on_hop if other_id != lightpath.id
            ]
            if ground_truth is not None and link.id == ground_truth.link_id:
                channels.extend(ground_truth.channels)
            per_link_state.append(channels)
        reference = phy.snr(lightpath.channel, lightpath.route, per_link_state, eps, params)
        assert math.isclose(lightpath.snr, reference, rel_tol=rel_tol), (
            f"incremental SNR drifted for lightpath {lightpath.id}: "
            f"{lightpath.snr} vs {reference}"
        )
        threshold = lightpath.modulation.snr_threshold_db
        assert phy.linear_to_db(lightpath.snr) >= threshold - 1e-9, (
            f"active lightpath {lightpath.id} below threshold"
        )
        if mode is ControlMode.AWARE:
            for hop in lightpath.route.directed_hops:
                assert not state.grids[hop].forbidden_mask & lightpath.block.mask, (
                    "aware-mode circuit occupies a detected range"
                )
