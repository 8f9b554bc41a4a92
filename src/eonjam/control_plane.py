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
``phy.xci_onto`` sums a candidate's own XCI and ``phy.xci_from`` prices
what a circuit adds to its neighbours, each in one call that walks the
whole route.  ``NetworkState.grid_actives`` maps each directed hop to
the spectral records (``phy.Channel.record``: centre and half-width in
half-slots, PSD and its square) of the circuits on it, which is all
both kernels read.

What is fixed is computed once and read on every check:

* Each state keeps one :class:`RouteRecord` per route, built on first
  use: the route's grids and each hop's span count paired with its live
  ``grid_actives`` entry (the shape the kernels walk).  The span counts
  are the route's own (``Route.span_counts`` and ``Route.link_spans``),
  shared by every state.  Candidates and circuits carry the record, so
  admission, :meth:`NetworkState.establish` and
  :meth:`NetworkState.depart` never look a hop up.
* Each request folds its route's grids into one First Fit mask
  (``spectrum.fit_mask``); every format and the pruned-width probe ask
  it, and only a detection, which forbids slots, recomputes it.
* Each attack prices the jamming noise of a block once per span count
  (``GroundTruth.jamming_psd``).
* Each established circuit keeps a survival cap
  (:meth:`Lightpath.survival_cap`): the XCI up to which it surely meets
  its threshold.  A neighbour whose XCI plus a candidate's stays within
  it passes without an SNR or a verdict; only one above it is judged by
  :meth:`Lightpath.survives`.

A neighbour that refuses one candidate tends to refuse the next: it is
the circuit with the least margin near the free spectrum.  So
:func:`evaluate_candidate` records the last neighbour that refused a
candidate, and :func:`handle_request` first prices each First Fit block
against that one circuit alone (:func:`_refused_by_last_refuser`).  A
block it refuses is never built; the verdict is the one the full check
would give.

What a request's endpoints and bandwidth fix is computed once:
:meth:`NetworkState.admission` keeps the route, its
:func:`static_reach` and a route id under ``(source, destination,
bandwidth_gbps)``.  They depend only on the topology (the physics is
the one of :mod:`eonjam.phy`), so every state of one topology shares
them (``_demand_tables``), together with the launch-power
``phy.Channel`` of each block First Fit has answered; each state keeps
its route records under the route ids.
The reach also keeps the route's ASE and each kept format's
self-channel NLI, which depend only on the route and the block width,
and every candidate reuses them.
"""

from __future__ import annotations

import copy
import functools
import math
import operator
import weakref
from enum import Enum

from . import phy
from ._value import Value
from .jammer import GroundTruth
from .spectrum import SLOT_COUNT, SlotBlock, SlotGrid, allocate, first_fit, fit_mask, release
from .topology import Route, Topology

__all__ = [
    "ControlMode",
    "Verdict",
    "Lightpath",
    "Blocked",
    "RouteRecord",
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


#: Relative margin under the upper QoT band edge that a survival cap keeps.
CAP_MARGIN = 1e-12


class Lightpath:
    """A circuit (candidate or established) plus its live noise state.

    ``ase_psd``, ``sci_psd`` and ``jam_psd`` are constants of the route,
    block and static attack; ``xci_psd`` is the accumulated cross-channel
    interference from currently co-propagating circuits.  ``path`` is
    the :class:`RouteRecord` of the route in the state that built the
    candidate.  ``priced`` holds what :func:`evaluate_candidate` computed
    for :meth:`NetworkState.establish`: the state and its change count,
    and the XCI the candidate adds to each neighbour.  ``cap`` is the
    :meth:`survival_cap` that :meth:`NetworkState.establish` sets; a
    circuit that was never established has ``-inf``, which passes no
    neighbour check on its own.  Lightpaths are not hashable.
    """

    __slots__ = (
        "id",
        "route",
        "block",
        "modulation",
        "bandwidth_gbps",
        "departs_at",
        "channel",
        "ase_psd",
        "sci_psd",
        "jam_psd",
        "xci_psd",
        "path",
        "priced",
        "cap",
    )
    #: The fields ``==`` compares and ``repr`` prints: all but ``path``, ``priced`` and ``cap``.
    _fields = __slots__[:11]
    _compared = operator.attrgetter(*_fields)

    def __init__(
        self,
        id: int,
        route: Route,
        block: SlotBlock,
        modulation: phy.Modulation,
        bandwidth_gbps: float,
        departs_at: float,
        channel: phy.Channel,
        ase_psd: float,
        sci_psd: float,
        jam_psd: float,
        xci_psd: float = 0.0,
        path: RouteRecord | None = None,
        priced: tuple | None = None,
        cap: float = -math.inf,
    ) -> None:
        self.id = id
        self.route = route
        self.block = block
        self.modulation = modulation
        self.bandwidth_gbps = bandwidth_gbps
        self.departs_at = departs_at
        self.channel = channel
        self.ase_psd = ase_psd
        self.sci_psd = sci_psd
        self.jam_psd = jam_psd
        self.xci_psd = xci_psd
        self.path = path
        self.priced = priced
        self.cap = cap

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Lightpath:
            return NotImplemented
        return Lightpath._compared(self) == Lightpath._compared(other)

    __hash__ = None
    __repr__ = Value.__repr__

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

    def survival_cap(self) -> float:
        """The XCI up to which the circuit surely meets its threshold.

        It is ``psd / high * (1 - CAP_MARGIN) - (ase + sci + jam)``, with
        ``high`` the upper edge of the format's ``qot_band``; all but the
        XCI is fixed for the circuit's life.  When ``xci_psd + delta <=
        cap``, :meth:`survives` holds for ``delta``.  In exact arithmetic
        the noise ``ase + sci + xci + jam + delta`` is then at most
        ``psd / high * (1 - 1e-12)``.  Rounding moves the noise (a sum of
        five non-negative terms) and the cap (a division, a product and
        two sums) by a few units in the last place of values no larger
        than ``psd / high``, about 1e-15 of it, far inside the 1e-12
        margin.  So the rounded noise stays below ``psd / high``, the SNR
        at or above ``high``, and :func:`phy.qot_verdict` passes it.
        Above the cap only :meth:`survives` can tell.
        """
        margin = self.channel.psd_w_per_hz / self.modulation.qot_band[1] * (1.0 - CAP_MARGIN)
        return margin - (self.ase_psd + self.sci_psd + self.jam_psd)


class Blocked(Value):
    """A denied request and the dominant reason."""

    __slots__ = ("reason",)
    _fields = __slots__


class RouteRecord:
    """What admission reads of one route in one state, gathered once.

    ``grids`` are the state's slot grids of the route's directed hops,
    in route order.  ``hops`` pairs each hop's span count with the
    state's live ``grid_actives`` entry for it, the ``(span_count,
    channels)`` shape the :mod:`phy` XCI kernels walk.  ``link_spans``
    is the route's own :attr:`Route.link_spans`.
    """

    __slots__ = ("route", "grids", "hops", "link_spans")

    def __init__(self, state: "NetworkState", route: Route):
        self.route = route
        hops = route.directed_hops
        grids = state.grids
        actives = state.grid_actives
        self.grids = tuple([grids[hop] for hop in hops])
        self.hops = tuple(zip(route.span_counts, [actives[hop] for hop in hops]))
        self.link_spans = route.link_spans


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
    only on the topology are read from its :class:`_SharedTables`; the
    :class:`RouteRecord` of each route (:meth:`route_record`) is this
    state's own.
    """

    def __init__(self, topology: Topology):
        self.topology = topology
        self.grids: dict[tuple[str, str], SlotGrid] = {}
        self.grid_actives: dict[tuple[str, str], dict[int, tuple]] = {}
        for link in topology.links:
            for direction in ((link.source, link.destination), (link.destination, link.source)):
                self.grids[direction] = SlotGrid(link.id, direction)
                self.grid_actives[direction] = {}
        self.actives: dict[int, Lightpath] = {}
        self.forbidden_ranges: dict[str, list[SlotBlock]] = {}
        self.changes = 0
        self.last_refuser: int | None = None
        self._records: dict[int, RouteRecord] = {}
        self._shared = _demand_tables.setdefault(topology, _SharedTables())

    def copy(self) -> "NetworkState":
        """An exact, independent :class:`NetworkState` of the same network.

        The grids, the hop lists, the detected ranges and every active
        :class:`Lightpath` are copied (a circuit's ``xci_psd`` changes as
        neighbours come and go); the topology, the shared tables and the
        immutable channels and records are shared.  The
        copy builds its own route records, of its own grids and hop
        lists, and each copied circuit's ``path`` is the copy's record.
        """
        twin = NetworkState.__new__(NetworkState)
        twin.topology = self.topology
        twin._shared = self._shared
        twin.grids = {hop: grid.copy() for hop, grid in self.grids.items()}
        twin.grid_actives = {hop: dict(on_hop) for hop, on_hop in self.grid_actives.items()}
        twin._records = {}
        twin.actives = {}
        for key, lightpath in self.actives.items():
            lightpath = twin.actives[key] = copy.copy(lightpath)
            lightpath.path = twin.route_record(lightpath.route)
        twin.forbidden_ranges = {key: list(value) for key, value in self.forbidden_ranges.items()}
        twin.changes = self.changes
        twin.last_refuser = self.last_refuser
        return twin

    def route_record(self, route: Route) -> RouteRecord:
        """This state's :class:`RouteRecord` of ``route``, built on the first call."""
        return self._record(route, self._shared.route_id(route))

    def _record(self, route: Route, route_id: int) -> RouteRecord:
        record = self._records.get(route_id)
        if record is None:
            record = self._records[route_id] = RouteRecord(self, route)
        return record

    def admission(
        self, source: str, destination: str, bandwidth_gbps: float
    ) -> tuple[RouteRecord, StaticReach]:
        """The route record and the static reach of one demand.

        The route, its id and the reach are computed on the first
        request with these endpoints and bandwidth in any state of this
        topology, then looked up in its shared table,
        which never changes; the record is this state's, kept under the
        route id.
        """
        key = (source, destination, bandwidth_gbps)
        shared = self._shared
        demand = shared.demands.get(key)
        if demand is None:
            route = self.topology.shortest_path(source, destination)
            reach = static_reach(route, bandwidth_gbps)
            demand = shared.demands[key] = (route, reach, shared.route_id(route))
        route, reach, route_id = demand
        record = self._records.get(route_id)
        if record is None:
            record = self._record(route, route_id)
        return record, reach

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
        """Allocate spectrum, fold the circuit's NLI onto its neighbours, set its cap.

        The neighbour XCI comes from the :func:`evaluate_candidate` call
        that accepted ``lightpath``; a candidate not evaluated against
        the current circuits is refused.
        """
        priced, lightpath.priced = lightpath.priced, None
        state, changes, deltas = priced or (None, None, None)
        if state is not self or changes != self.changes:
            raise ValueError(f"lightpath {lightpath.id} was not evaluated on the current state")
        path = lightpath.path
        grids = path.grids
        for grid in grids:
            grid.advance_time(now)
        allocate(grids, lightpath.block)
        self.changes += 1
        actives = self.actives
        for neighbour_id, delta in deltas.items():
            actives[neighbour_id].xci_psd += delta
        key = lightpath.id
        record = lightpath.channel.record
        for _, on_hop in path.hops:
            on_hop[key] = record
        lightpath.cap = lightpath.survival_cap()
        actives[key] = lightpath

    def depart(self, lightpath_id: int, now: float) -> None:
        """Release spectrum and remove the circuit's NLI from neighbours."""
        lightpath = self.actives.pop(lightpath_id)
        self.changes += 1
        path = lightpath.path
        for _, on_hop in path.hops:
            del on_hop[lightpath_id]
        grids = path.grids
        for grid in grids:
            grid.advance_time(now)
        release(grids, lightpath.block)
        deltas: dict[int, float] = {}
        phy.xci_from(lightpath.channel.record, path.hops, deltas)
        actives = self.actives
        for neighbour_id, delta in deltas.items():
            actives[neighbour_id].xci_psd -= delta


class _SharedTables:
    """What the states of one topology compute once.

    ``demands`` maps ``(source, destination, bandwidth_gbps)`` to the
    route, its :func:`static_reach` and its id, filled by
    :meth:`NetworkState.admission`.  ``route_ids`` numbers the routes by
    their directed hops, in order of first use; a state keeps its
    route records under these ids.  ``channels`` maps a slot block to
    its ``phy.channel_for_block`` at the launch power, filled by
    :func:`handle_request`; jammer channels are not in it.
    """

    __slots__ = ("demands", "route_ids", "channels")

    def __init__(self) -> None:
        self.demands: dict[tuple[str, str, float], tuple[Route, StaticReach, int]] = {}
        self.route_ids: dict[tuple[tuple[str, str], ...], int] = {}
        self.channels: dict[SlotBlock, phy.Channel] = {}

    def route_id(self, route: Route) -> int:
        ids = self.route_ids
        return ids.setdefault(route.directed_hops, len(ids))


#: One :class:`_SharedTables` per topology (by identity), shared by every
#: state built on it.  A topology never reroutes and the physics is fixed,
#: so an entry never goes stale; the tables of a topology go with it.
_demand_tables: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def required_slots(bandwidth_gbps: float, modulation: phy.Modulation) -> int:
    """Contiguous slots needed to carry ``bandwidth_gbps`` at this format."""
    if bandwidth_gbps <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth_gbps}")
    slot_gbps = phy.SLOT_WIDTH_HZ / 1e9
    return math.ceil(bandwidth_gbps / (slot_gbps * modulation.bits_per_symbol))


class StaticReach(Value):
    """Formats a route can carry a demand at, before any other traffic.

    ``formats`` holds ``(modulation, width)`` pairs in trial order, most
    spectrally efficient first; ``narrowest_pruned_width`` is the
    smallest width among the formats left out (None when none is).
    ``ase_psd`` is the route's ASE and ``sci_psds`` the self-channel NLI
    of each kept format, aligned with ``formats``: constants of the route
    and the block width that every candidate on the route reuses.
    """

    _fields = ("formats", "narrowest_pruned_width", "ase_psd", "sci_psds")


@functools.cache
def static_reach(route: Route, bandwidth_gbps: float) -> StaticReach:
    """Keep each format whose lone circuit on an empty network meets its threshold.

    The verdict comes from a :class:`Lightpath` with no XCI or jamming
    noise, built through the same kernels as :func:`_build_candidate`.
    A live candidate's noise adds non-negative terms to the same sum,
    and rounding never lowers a sum, so a format left out here fails
    its own QoT check wherever First Fit places it.  The SNR does not
    depend on the block's position, only on its width, and neither do
    the ASE and self-channel terms kept for the candidates.  ``Route``
    is frozen and the physics fixed, so a cached entry never goes stale.

    A format wider than the grid is left out with neither a verdict nor
    a pruned width: First Fit can never place it, so it could set no
    block reason, and its channel would lie outside the grid.
    """
    formats = []
    sci_psds = []
    pruned_widths = []
    ase = phy.ase_psd(route)
    for modulation in reversed(phy.MODULATIONS):
        width = required_slots(bandwidth_gbps, modulation)
        if width > SLOT_COUNT:
            continue
        block = SlotBlock(0, width)
        channel = phy.channel_for_block(block)
        lone = Lightpath(
            id=0,
            route=route,
            block=block,
            modulation=modulation,
            bandwidth_gbps=bandwidth_gbps,
            departs_at=0.0,
            channel=channel,
            ase_psd=ase,
            sci_psd=phy.sci_psd(channel, route.total_spans),
            jam_psd=0.0,
        )
        if lone.meets_threshold():
            formats.append((modulation, width))
            sci_psds.append(lone.sci_psd)
        else:
            pruned_widths.append(width)
    return StaticReach(tuple(formats), min(pruned_widths, default=None), ase, tuple(sci_psds))


def _refused_by_last_refuser(state: NetworkState, path: RouteRecord, record: tuple) -> bool:
    """Whether ``state.last_refuser`` refuses a candidate on the route of ``path``.

    ``record`` is the spectral record of the candidate's channel.  Its
    XCI onto that circuit is summed over the hops they share, in
    route-hop order, by the same :func:`phy.xci_from` accumulation that
    :func:`evaluate_candidate` runs over all of the route's hops, so it
    equals the delta the full check would compute to the bit, and the
    cap and :meth:`Lightpath.survives` give the same verdict on it.
    True therefore means :func:`evaluate_candidate` would return
    ``REJECT_QOT``: any failing neighbour does, whatever the candidate's
    own QoT, because the neighbour check runs before detection.  Running
    detection first (an open item of ``ROADMAP.md``) must move this
    probe after detection, or it would refuse as ``qot-fail`` a
    candidate that detection rejects as jammed.  False when the circuit
    has departed or shares no hop with the route.
    """
    refuser = state.actives.get(state.last_refuser)
    if refuser is None:
        return False
    key = refuser.id
    alone = {key: refuser.channel.record}
    shared = []
    for span_count, on_hop in path.hops:
        if key in on_hop:
            shared.append((span_count, alone))
    if not shared:
        return False
    deltas: dict[int, float] = {}
    phy.xci_from(record, shared, deltas)
    delta = deltas[key]
    return refuser.xci_psd + delta > refuser.cap and not refuser.survives(delta)


def _build_candidate(
    request_id: int,
    path: RouteRecord,
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

    ``path`` is ``state``'s record of the route, ``channel`` is
    ``phy.channel_for_block(block)``, and ``ase_psd`` and
    ``sci_psd`` are its route's and width's constant terms
    (:class:`StaticReach` keeps them).  The XCI is one running total
    over the route's hops, in order; the jamming noise is the attack's
    table entry for the block on the attacked link, if the route
    crosses it.
    """
    xci = phy.xci_onto(channel.record, path.hops, 0.0)
    jam = 0.0
    if ground_truth is not None:
        span_count = path.link_spans.get(ground_truth.link_id)
        if span_count is not None:
            jam = ground_truth.jamming_psd(channel, span_count)
    return Lightpath(
        id=request_id,
        route=path.route,
        block=block,
        modulation=modulation,
        bandwidth_gbps=bandwidth_gbps,
        departs_at=arrival_time + holding_s,
        channel=channel,
        ase_psd=ase_psd,
        sci_psd=sci_psd,
        jam_psd=jam,
        xci_psd=xci,
        path=path,
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
    jammed range.  ``candidate.path`` must be ``state``'s record of its
    route.  A neighbour whose XCI plus the candidate's stays within its
    survival cap passes without an SNR; one above it is judged by
    :meth:`Lightpath.survives`.  The neighbour XCI is kept on the
    candidate for :meth:`NetworkState.establish`; a neighbour that would
    drop below its threshold is recorded as ``state.last_refuser``.
    """
    if not candidate.meets_threshold():
        return Verdict.REJECT_QOT
    deltas: dict[int, float] = {}
    phy.xci_from(candidate.channel.record, candidate.path.hops, deltas)
    candidate.priced = (state, state.changes, deltas)
    actives = state.actives
    for neighbour_id, delta in deltas.items():
        neighbour = actives[neighbour_id]
        if neighbour.xci_psd + delta > neighbour.cap and not neighbour.survives(delta):
            state.last_refuser = neighbour_id
            return Verdict.REJECT_QOT
    if mode is ControlMode.AWARE and ground_truth is not None:
        if detect_jamming(candidate, ground_truth, tolerance_db):
            if ground_truth.ranges_overlapping(candidate.block):
                return Verdict.REJECT_JAMMED
    return Verdict.ACCEPT


#: The one :class:`Blocked` per reason that :func:`handle_request` returns.
_BLOCKED = {reason: Blocked(reason) for reason in (REASON_NO_SPECTRUM, REASON_QOT, REASON_JAMMED)}


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
    route record and the reach come from :meth:`NetworkState.admission`,
    and a block's channel is built once per topology.  One
    :func:`fit_mask` of the route's grids answers every First Fit call
    of the request; a detection, which forbids slots, recomputes it.
    A block that :func:`_refused_by_last_refuser` refuses counts as a
    ``REJECT_QOT`` verdict without building the candidate.
    """
    path, reach = state.admission(request.source, request.destination, request.bandwidth_gbps)
    channels = state._shared.channels
    mask = fit_mask(path.grids)
    saw_qot = False
    saw_jammed = False

    for (modulation, width), sci in zip(reach.formats, reach.sci_psds):
        while True:
            block = first_fit(mask, width)
            if block is None:
                break
            channel = channels.get(block)
            if channel is None:
                channel = channels[block] = phy.channel_for_block(block)
            if _refused_by_last_refuser(state, path, channel.record):
                saw_qot = True
                break
            candidate = _build_candidate(
                request.id,
                path,
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
            mask = fit_mask(path.grids)

    if not (saw_jammed or saw_qot) and reach.narrowest_pruned_width is not None:
        # A pruned format would have failed QoT on any block First Fit
        # found it.  The grids are unchanged without a detection, and a
        # window that fits a wider format also fits the narrowest one.
        saw_qot = first_fit(mask, reach.narrowest_pruned_width) is not None

    if saw_jammed:
        return _BLOCKED[REASON_JAMMED]
    if saw_qot:
        return _BLOCKED[REASON_QOT]
    return _BLOCKED[REASON_NO_SPECTRUM]


def verify_state_invariants(
    state: NetworkState,
    mode: ControlMode,
    ground_truth: GroundTruth | None,
    rel_tol: float = 1e-9,
) -> None:
    """Audit the live engine state against the declarative model.

    Recomputes every active circuit's SNR and survival cap from scratch
    through the physical-layer module, and checks that each grid's used
    slots are the union of the disjoint blocks of the circuits listed on
    its hop and its forbidden slots the union of its link's detected
    ranges.  Every route record must read this state's own grids and
    hop lists, and every circuit must carry its route's record.  Raises
    ``AssertionError`` on any violation; used by the test suite.
    """
    actives = state.actives
    route_ids = state._shared.route_ids
    for route_id, record in state._records.items():
        hops = record.route.directed_hops
        assert route_ids.get(hops) == route_id, f"route record of {hops} is kept under another id"
        for hop, grid, (_, on_hop) in zip(hops, record.grids, record.hops, strict=True):
            assert grid is state.grids[hop], f"route record of {hops} reads another grid of {hop}"
            assert on_hop is state.grid_actives[hop], (
                f"route record of {hops} reads another circuit list of {hop}"
            )
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
        assert lightpath.path is state._records.get(route_ids.get(lightpath.route.directed_hops)), (
            f"lightpath {lightpath.id} carries another route record"
        )
        assert lightpath.cap == lightpath.survival_cap(), (
            f"survival cap drifted for lightpath {lightpath.id}"
        )
        reference = phy.snr(lightpath.channel, lightpath.route, per_link_state, eps)
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
