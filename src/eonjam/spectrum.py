"""Per-link slot-grid bookkeeping: bitmasks, First Fit, guardbands.

Each directed link owns a :class:`SlotGrid` of 320 slots, kept as Python
int bitmasks (bit ``i`` is slot ``i``): ``used`` holds the slots that
circuits hold, ``forbidden_mask`` the slots the jamming-aware control
plane took out of use.  A grid holds slot masks only: which circuit
holds a block and which ranges were detected as jammed are the control
plane's records.  A forbidden slot an older circuit still holds is used
until that circuit leaves; ``used | forbidden_mask`` is the blocked set
either way, so release never has to restore forbidden slots.  First
Fit finds the lowest start index where a block fits on every grid of a
route with a 2-slot guardband separating it from blocked spectrum, used
and forbidden alike.  It works in two steps: :func:`fit_mask` folds the
route's grids into one mask of the slots that are a guardband clear on
all of them, and :func:`first_fit` finds the lowest window of a width
in that mask.  The control plane computes the mask once per request
(again only after a detection forbids a range) and asks it for every
format.

Grids also integrate per-slot busy time so that utilization statistics
come from exact event-time integration instead of sampling.  Each clock
step is buffered as ``(used, dt)`` and integrated in batches of
``BUSY_TIME_BATCH`` with one ``np.add.reduce`` over the step axis, up to
the highest slot the batch held or shadowed.  That makes the same
left-to-right ``+= dt`` additions as integrating every step on its own,
so the totals are equal to the bit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "SLOT_COUNT",
    "GUARDBAND_SLOTS",
    "BUSY_TIME_BATCH",
    "SpectrumError",
    "AllocationCollisionError",
    "UnheldBlockError",
    "SlotBlock",
    "SlotGrid",
    "fit_mask",
    "first_fit",
    "allocate",
    "release",
    "utilization",
]

SLOT_COUNT = 320
GUARDBAND_SLOTS = 2
# Clock steps a grid buffers before integrating them in one pass.
BUSY_TIME_BATCH = 64


class SpectrumError(ValueError):
    pass


class AllocationCollisionError(SpectrumError):
    """Allocation hit a used or forbidden slot: an RSA bookkeeping bug."""


class UnheldBlockError(SpectrumError):
    """Release hit a slot of the block that is not held: a double release or a wrong block."""


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

    @property
    def mask(self) -> int:
        """The block's slots as a bitmask."""
        return ((1 << self.width) - 1) << self.start

    def slots(self) -> range:
        return range(self.start, self.end)

    def overlaps(self, other: "SlotBlock") -> bool:
        return self.start < other.end and other.start < self.end


@functools.cache
def _workspace(slot_count: int) -> np.ndarray:
    """Scratch steps for :meth:`SlotGrid._integrate`, shared by all grids of a size.

    Flat, so that a batch of ``count`` steps over the lowest ``top``
    slots views its first ``(count + 1) * 2 * top`` values as one
    C-contiguous ``(count + 1, 2, top)`` array.  Nothing in it outlives
    one call.  A fresh array per batch would be mapped and page-faulted
    anew each time, which costs more than the additions themselves.
    """
    import numpy as np

    return np.empty((BUSY_TIME_BATCH + 1) * 2 * slot_count, dtype=np.float64)


class SlotGrid:
    """Spectrum of one direction of one fibre link.

    ``used`` is the bitmask of slots held by circuits and
    ``forbidden_mask`` that of the slots taken out of use.  Two
    busy-time integrals are advanced by the simulation clock through
    :meth:`advance_time`: ``used_seconds`` counts slots actually
    carrying a circuit, while ``reserved_seconds`` additionally counts
    each circuit's guardband shadow, the ``GUARDBAND_SLOTS`` slots above
    its block.  A shadow slot cannot be allocated while the circuit
    lives, so it is reserved spectrum rather than available capacity;
    attributing the shared inter-circuit gap to the lower circuit keeps
    the count one-sided.

    :meth:`advance_time` only records the step; the buffer is integrated
    when it is full or when either integral is read, with the same
    additions, in the same order, as integrating each step at once.
    Slots above the highest one a batch held or shadowed are left as
    they are: every step would have added 0.0 to them.
    """

    __slots__ = (
        "link_id",
        "direction",
        "slot_count",
        "used",
        "forbidden_mask",
        "_seconds",
        "_clock",
        "_masks",
        "_dts",
        "_pending",
    )

    def __init__(self, link_id: str, direction: tuple[str, str], slot_count: int = SLOT_COUNT):
        if slot_count < 1:
            raise SpectrumError(f"slot_count must be positive, got {slot_count}")
        import numpy as np

        self.link_id = link_id
        self.direction = direction
        self.slot_count = slot_count
        self.used = 0
        self.forbidden_mask = 0
        # Row 0 is the used-slot integral, row 1 the reserved one.
        self._seconds = np.zeros((2, slot_count), dtype=np.float64)
        self._clock = 0.0
        self._masks = [0] * BUSY_TIME_BATCH
        self._dts = [0.0] * BUSY_TIME_BATCH
        self._pending = 0

    def copy(self) -> "SlotGrid":
        """An independent grid with the same slots and busy time.

        The step buffer is copied unintegrated, so the copy adds its
        steps in the same order as this grid would.
        """
        twin = SlotGrid.__new__(SlotGrid)
        twin.link_id = self.link_id
        twin.direction = self.direction
        twin.slot_count = self.slot_count
        twin.used = self.used
        twin.forbidden_mask = self.forbidden_mask
        twin._seconds = self._seconds.copy()
        twin._clock = self._clock
        twin._masks = list(self._masks)
        twin._dts = list(self._dts)
        twin._pending = self._pending
        return twin

    def advance_time(self, now: float) -> None:
        """Integrate busy time up to ``now`` (monotone, clamped below).

        The step is buffered; :meth:`_integrate` adds it to the totals.
        """
        dt = now - self._clock
        if dt <= 0.0:
            return
        if self.used:
            pending = self._pending
            self._masks[pending] = self.used
            self._dts[pending] = dt
            self._pending = pending + 1
            if pending + 1 == BUSY_TIME_BATCH:
                self._integrate()
        self._clock = now

    def _integrate(self) -> None:
        """Add the buffered steps to the busy-time integrals.

        Only slots below ``top``, one past the highest slot any buffered
        step held or shadowed, are touched: the slots above it were idle
        in every step, and adding 0.0 changes nothing.  ``steps[0]``
        holds the running totals and ``steps[e + 1]`` step ``e``'s
        ``dt`` where a slot was busy and 0.0 where it was idle, held
        slots in row 0 and covered slots in row 1.  ``np.add.reduce``
        over the outer, step axis is a left fold per slot, so a total
        takes the same ``+= dt`` additions, in the same order, as
        stepwise integration.  A reduce along the contiguous axis would
        sum pairwise and differ.
        """
        count, self._pending = self._pending, 0
        if not count:
            return
        import numpy as np

        masks = self._masks[:count]
        reach = 0
        for mask in masks:
            reach |= mask
        top = min(self.slot_count, reach.bit_length() + GUARDBAND_SLOTS)
        nbytes = (top + 7) // 8
        packed = b"".join(mask.to_bytes(nbytes, "little") for mask in masks)
        raw = np.frombuffer(packed, dtype=np.uint8).reshape(count, nbytes)
        # held[e, s]: slot s was held during step e; covered adds the
        # guardband shadow above each block.
        held = np.unpackbits(raw, axis=1, count=top, bitorder="little").view(bool)
        covered = held.copy()
        for k in range(1, GUARDBAND_SLOTS + 1):
            covered[:, k:] |= held[:, :-k]
        steps = _workspace(self.slot_count)[: (count + 1) * 2 * top].reshape(count + 1, 2, top)
        totals = self._seconds[:, :top]
        steps[0] = totals
        dts = np.array(self._dts[:count])[:, None]
        np.multiply(held, dts, out=steps[1:, 0])
        np.multiply(covered, dts, out=steps[1:, 1])
        np.add.reduce(steps, axis=0, out=totals)

    @property
    def used_seconds(self) -> np.ndarray:
        """Seconds each slot carried a circuit, up to the last clock step."""
        self._integrate()
        return self._seconds[0]

    @property
    def reserved_seconds(self) -> np.ndarray:
        """Seconds each slot was held or in a guardband shadow."""
        self._integrate()
        return self._seconds[1]

    def used_count(self) -> int:
        return self.used.bit_count()

    def forbidden_count(self) -> int:
        """Forbidden slots no circuit holds."""
        return (self.forbidden_mask & ~self.used).bit_count()

    def free_count(self) -> int:
        return self.slot_count - (self.used | self.forbidden_mask).bit_count()

    def forbid(self, block: SlotBlock) -> None:
        """Take the slots of ``block`` out of use."""
        if block.end > self.slot_count:
            raise SpectrumError(f"block {block} exceeds grid of {self.slot_count} slots")
        self.forbidden_mask |= block.mask


#: The one :class:`SlotBlock` per ``(start, width)`` that :func:`first_fit`
#: returns, built through the constructor on its first answer; at most
#: the slot count times the widths in use.
_first_fit_block = functools.cache(SlotBlock)


def fit_mask(grids) -> int:
    """Slots a guardband clear of blocked spectrum on every grid, as a bitmask.

    Bit ``s`` is set when slot ``s`` and the ``GUARDBAND_SLOTS`` slots
    on either side of it are neither used nor forbidden on any of
    ``grids``; no bit at or above the slot count is set.  Forbidden
    slots only exist once the jamming-aware plane has detected an
    attack, so the other planes never meet one.  The mask changes only
    when a grid does, so one mask answers :func:`first_fit` for every
    width until then.
    """
    if not grids:
        raise SpectrumError("fit_mask needs at least one grid")
    slot_count = grids[0].slot_count
    blocked = 0
    for grid in grids:
        if grid.slot_count != slot_count:
            counts = sorted({g.slot_count for g in grids})
            raise SpectrumError(f"grids disagree on slot_count: {counts}")
        blocked |= grid.used | grid.forbidden_mask
    near = blocked
    for k in range(1, GUARDBAND_SLOTS + 1):
        near |= (blocked << k) | (blocked >> k)
    return ~near & ((1 << slot_count) - 1)


def first_fit(mask: int, width: int) -> SlotBlock | None:
    """Lowest-index block of ``width`` slots whose every slot is set in ``mask``.

    ``mask`` is the :func:`fit_mask` of a route's grids, so the block
    keeps a guardband from blocked spectrum on every one of them.
    Returns ``None`` when nothing fits, a width above the slot count
    included.  Equal answers are one shared block, built on the first
    of them.
    """
    if width < 1:
        raise SpectrumError(f"width must be >= 1, got {width}")
    # Bit s of ``fits`` says slots s..s+span-1 are all clear; double the
    # span (capped at ``width``) until it covers the window.
    fits = mask
    span = 1
    while span < width and fits:
        step = min(span, width - span)
        fits &= fits >> step
        span += step
    if not fits:
        return None
    return _first_fit_block((fits & -fits).bit_length() - 1, width)


def allocate(grids, block: SlotBlock) -> None:
    """Mark ``block`` used on every grid."""
    mask = block.mask
    for grid in grids:
        if block.end > grid.slot_count:
            raise SpectrumError(f"block {block} exceeds grid of {grid.slot_count} slots")
        if (grid.used | grid.forbidden_mask) & mask:
            raise AllocationCollisionError(
                f"block {block} not free on {grid.link_id}{grid.direction}"
            )
    for grid in grids:
        grid.used |= mask


def release(grids, block: SlotBlock) -> None:
    """Free ``block`` on every grid; forbidden blocks stay forbidden.

    Raises :class:`UnheldBlockError`, before changing any grid, when a
    slot of ``block`` is not held on one of the grids.
    """
    mask = block.mask
    for grid in grids:
        if grid.used & mask != mask:
            raise UnheldBlockError(f"block {block} is not held on {grid.link_id}{grid.direction}")
    for grid in grids:
        grid.used &= ~mask


def utilization(grid: SlotGrid) -> float:
    """Instantaneous used fraction; forbidden slots count as not used."""
    return grid.used_count() / grid.slot_count
