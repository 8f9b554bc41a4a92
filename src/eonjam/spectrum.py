"""Per-link slot-grid bookkeeping: occupancy, First Fit, guardbands.

Each directed link owns a :class:`SlotGrid` of 320 slots.  A slot is
free, used by exactly one lightpath, or forbidden (reserved by the
jamming-aware control plane).  Only this module touches that encoding;
each grid owns its forbidden blocks, and :func:`release` restores them.
First Fit scans for the lowest start index where a block fits on every
grid of a route with a 2-slot guardband separating it from used
spectrum; forbidden marks count exactly like used slots, guardband
included.

Grids also integrate per-slot busy time so that utilization statistics
come from exact event-time integration instead of sampling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SLOT_COUNT",
    "GUARDBAND_SLOTS",
    "FREE",
    "FORBIDDEN",
    "SpectrumError",
    "AllocationCollisionError",
    "UnknownLightpathError",
    "SlotBlock",
    "SlotGrid",
    "first_fit",
    "allocate",
    "release",
    "utilization",
]

SLOT_COUNT = 320
GUARDBAND_SLOTS = 2

FREE = 0
FORBIDDEN = -1


class SpectrumError(ValueError):
    pass


class AllocationCollisionError(SpectrumError):
    """Allocation hit a used or forbidden slot: an RSA bookkeeping bug."""


class UnknownLightpathError(SpectrumError):
    """Release was asked for a lightpath that holds no slots here."""


@dataclass(frozen=True)
class SlotBlock:
    """A contiguous run of ``width`` slots starting at ``start``."""

    start: int
    width: int

    def __post_init__(self) -> None:
        if self.start < 0:
            raise SpectrumError(f"block start must be >= 0, got {self.start}")
        if self.width < 1:
            raise SpectrumError(f"block width must be >= 1, got {self.width}")

    @property
    def end(self) -> int:
        """One past the last slot."""
        return self.start + self.width

    def slots(self) -> range:
        return range(self.start, self.end)

    def overlaps(self, other: "SlotBlock") -> bool:
        return self.start < other.end and other.start < self.end


class SlotGrid:
    """Occupancy of one direction of one fibre link.

    ``occupancy[i]`` is 0 (free), -1 (forbidden) or a positive lightpath
    id.  ``forbidden`` lists the blocks taken out of use; a slot in one
    is forbidden unless an older circuit still holds it, and
    :func:`release` marks it when freed.  Two busy-time integrals are
    advanced by the simulation clock through :meth:`advance_time`:
    ``used_seconds`` counts slots actually carrying a circuit, while
    ``reserved_seconds`` additionally counts each circuit's guardband
    shadow, the ``GUARDBAND_SLOTS`` slots above its block.  A shadow
    slot cannot be allocated while the circuit lives, so it is reserved
    spectrum rather than available capacity; attributing the shared
    inter-circuit gap to the lower circuit keeps the count one-sided.
    """

    __slots__ = (
        "link_id",
        "direction",
        "slot_count",
        "occupancy",
        "forbidden",
        "used_seconds",
        "reserved_seconds",
        "_clock",
    )

    def __init__(self, link_id: str, direction: tuple[str, str], slot_count: int = SLOT_COUNT):
        if slot_count < 1:
            raise SpectrumError(f"slot_count must be positive, got {slot_count}")
        self.link_id = link_id
        self.direction = direction
        self.slot_count = slot_count
        self.occupancy = np.zeros(slot_count, dtype=np.int64)
        self.forbidden: list[SlotBlock] = []
        self.used_seconds = np.zeros(slot_count, dtype=np.float64)
        self.reserved_seconds = np.zeros(slot_count, dtype=np.float64)
        self._clock = 0.0

    def advance_time(self, now: float) -> None:
        """Integrate busy time up to ``now`` (monotone, clamped below)."""
        dt = now - self._clock
        if dt <= 0.0:
            return
        used = self.occupancy > 0
        self.used_seconds[used] += dt
        covered = used.copy()
        for k in range(1, GUARDBAND_SLOTS + 1):
            covered[k:] |= used[:-k]
        self.reserved_seconds[covered] += dt
        self._clock = now

    def used_count(self) -> int:
        return int(np.count_nonzero(self.occupancy > 0))

    def forbidden_count(self) -> int:
        return int(np.count_nonzero(self.occupancy == FORBIDDEN))

    def free_count(self) -> int:
        return int(np.count_nonzero(self.occupancy == FREE))

    def forbid(self, block: SlotBlock) -> bool:
        """Record ``block`` and mark its free slots; False if already recorded."""
        if block.end > self.slot_count:
            raise SpectrumError(f"block {block} exceeds grid of {self.slot_count} slots")
        if block in self.forbidden:
            return False
        self.forbidden.append(block)
        self._mark_forbidden(block)
        return True

    def _mark_forbidden(self, block: SlotBlock) -> None:
        segment = self.occupancy[block.start:block.end]
        segment[segment == FREE] = FORBIDDEN

    def lightpath_slots(self, lightpath_id: int) -> np.ndarray:
        return np.flatnonzero(self.occupancy == lightpath_id)


def first_fit(grids, width: int) -> SlotBlock | None:
    """Lowest-index block of ``width`` slots feasible on every grid.

    A candidate ``[s, s+width)`` is feasible when none of its slots and
    none of the ``GUARDBAND_SLOTS`` slots on either side is used or
    forbidden on any grid.  Forbidden marks only exist once the
    jamming-aware plane has detected an attack, so the other planes
    never meet one.  Returns ``None`` when nothing fits.
    """
    if width < 1:
        raise SpectrumError(f"width must be >= 1, got {width}")
    if not grids:
        raise SpectrumError("first_fit needs at least one grid")
    counts = {g.slot_count for g in grids}
    if len(counts) != 1:
        raise SpectrumError(f"grids disagree on slot_count: {sorted(counts)}")
    slot_count = counts.pop()
    if width > slot_count:
        return None

    blocked = grids[0].occupancy != FREE
    for grid in grids[1:]:
        blocked = blocked | (grid.occupancy != FREE)

    # Prefix sums let every candidate window be tested in O(1).
    csum = np.zeros(slot_count + 1, dtype=np.int64)
    np.cumsum(blocked, out=csum[1:])
    starts = np.arange(0, slot_count - width + 1)
    lo = np.maximum(starts - GUARDBAND_SLOTS, 0)
    hi = np.minimum(starts + width + GUARDBAND_SLOTS, slot_count)
    feasible = (csum[hi] - csum[lo]) == 0
    idx = int(np.argmax(feasible))
    if not feasible[idx]:
        return None
    return SlotBlock(start=idx, width=width)


def allocate(grids, block: SlotBlock, lightpath_id: int) -> None:
    """Mark ``block`` used by ``lightpath_id`` on every grid."""
    if lightpath_id <= 0:
        raise SpectrumError(f"lightpath id must be positive, got {lightpath_id}")
    for grid in grids:
        if block.end > grid.slot_count:
            raise SpectrumError(f"block {block} exceeds grid of {grid.slot_count} slots")
        if np.any(grid.occupancy[block.start:block.end] != FREE):
            raise AllocationCollisionError(
                f"block {block} not free on {grid.link_id}{grid.direction}"
            )
    for grid in grids:
        grid.occupancy[block.start:block.end] = lightpath_id


def release(grids, lightpath_id: int) -> None:
    """Free every slot held by ``lightpath_id``; forbidden blocks stay forbidden."""
    held_anywhere = False
    for grid in grids:
        held = grid.occupancy == lightpath_id
        if np.any(held):
            held_anywhere = True
            grid.occupancy[held] = FREE
            for block in grid.forbidden:
                grid._mark_forbidden(block)
    if not held_anywhere:
        raise UnknownLightpathError(f"lightpath {lightpath_id} holds no slots on these grids")


def utilization(grid: SlotGrid) -> float:
    """Instantaneous used fraction; forbidden slots count as not used."""
    return grid.used_count() / grid.slot_count
