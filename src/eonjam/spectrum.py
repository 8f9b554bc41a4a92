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

Grids also keep per-slot busy time, so that utilization statistics
come from exact event times instead of sampling.  Time is kept per
block: :func:`allocate` stamps a block with the grid's clock,
:func:`release` adds the time it was held to that block's total, and
the totals are spread over the slots only when read.  Blocks that First
Fit places keep a guardband apart, so no slot lies in two held blocks
or their shadows at once, and a slot's busy time is the sum of the
holding times of the blocks on it.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING

from ._value import Value

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "SLOT_COUNT",
    "GUARDBAND_SLOTS",
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


class SpectrumError(ValueError):
    pass


class AllocationCollisionError(SpectrumError):
    """Allocation hit a used or forbidden slot: an RSA bookkeeping bug."""


class UnheldBlockError(SpectrumError):
    """Release hit a slot of the block that is not held: a double release or a wrong block."""


class SlotBlock(Value):
    """A contiguous run of ``width`` slots starting at ``start``."""

    _fields = ("start", "width")

    def __init__(self, start: int, width: int) -> None:
        if start < 0:
            raise SpectrumError(f"block start must be >= 0, got {start}")
        if width < 1:
            raise SpectrumError(f"block width must be >= 1, got {width}")
        self._store(start=start, width=width)

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


class SlotGrid:
    """Spectrum of one direction of one fibre link.

    ``used`` is the bitmask of slots held by circuits and
    ``forbidden_mask`` that of the slots taken out of use.  Two
    busy-time integrals run on the grid's clock, which only
    :meth:`advance_time` moves: ``used_seconds`` counts slots actually
    carrying a circuit, while ``reserved_seconds`` additionally counts
    each circuit's guardband shadow, the ``GUARDBAND_SLOTS`` slots above
    its block, clipped to the grid.  A shadow slot cannot be allocated
    while the circuit lives, so it is reserved spectrum rather than
    available capacity; attributing the shared inter-circuit gap to the
    lower circuit keeps the count one-sided.

    The grid keeps time per block, keyed by ``(start, width)``:
    ``_since`` holds the clock at which each held block was allocated,
    and ``_totals`` the summed holding time of each block released so
    far.  Reading an integral spreads every total, and the time each
    held block has been held up to the clock, over that block's slots.
    """

    __slots__ = (
        "link_id",
        "direction",
        "slot_count",
        "used",
        "forbidden_mask",
        "_clock",
        "_since",
        "_totals",
    )

    def __init__(self, link_id: str, direction: tuple[str, str], slot_count: int = SLOT_COUNT):
        if slot_count < 1:
            raise SpectrumError(f"slot_count must be positive, got {slot_count}")
        self.link_id = link_id
        self.direction = direction
        self.slot_count = slot_count
        self.used = 0
        self.forbidden_mask = 0
        self._clock = 0.0
        self._since: dict[tuple[int, int], float] = {}
        self._totals: dict[tuple[int, int], float] = {}

    def copy(self) -> "SlotGrid":
        """An independent grid with the same slots, clock and busy time."""
        twin = SlotGrid.__new__(SlotGrid)
        twin.link_id = self.link_id
        twin.direction = self.direction
        twin.slot_count = self.slot_count
        twin.used = self.used
        twin.forbidden_mask = self.forbidden_mask
        twin._clock = self._clock
        twin._since = dict(self._since)
        twin._totals = dict(self._totals)
        return twin

    def advance_time(self, now: float) -> None:
        """Move the grid's clock forward to ``now``; an earlier ``now`` leaves it.

        :func:`allocate` and :func:`release` read the clock, so callers
        advance it to the event's time first.
        """
        if now > self._clock:
            self._clock = now

    def _spread(self, shadow: int) -> np.ndarray:
        """Busy seconds per slot, each block counted over its slots and ``shadow`` above."""
        import numpy as np

        seconds = np.zeros(self.slot_count)
        for (start, width), total in self._totals.items():
            seconds[start : start + width + shadow] += total
        clock = self._clock
        for (start, width), since in self._since.items():
            seconds[start : start + width + shadow] += clock - since
        return seconds

    @property
    def used_seconds(self) -> np.ndarray:
        """Seconds each slot carried a circuit, up to the clock."""
        return self._spread(0)

    @property
    def reserved_seconds(self) -> np.ndarray:
        """Seconds each slot was held or in a guardband shadow, up to the clock."""
        return self._spread(GUARDBAND_SLOTS)

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
    """Mark ``block`` used on every grid, stamped with that grid's clock."""
    mask = block.mask
    for grid in grids:
        if block.end > grid.slot_count:
            raise SpectrumError(f"block {block} exceeds grid of {grid.slot_count} slots")
        if (grid.used | grid.forbidden_mask) & mask:
            raise AllocationCollisionError(
                f"block {block} not free on {grid.link_id}{grid.direction}"
            )
    key = (block.start, block.width)
    for grid in grids:
        grid.used |= mask
        grid._since[key] = grid._clock


def release(grids, block: SlotBlock) -> None:
    """Free ``block`` on every grid and add the time it was held to the grid's total.

    Forbidden slots stay forbidden.  Raises :class:`UnheldBlockError`,
    before changing any grid, unless every grid holds ``block`` as one
    block that :func:`allocate` placed.
    """
    key = (block.start, block.width)
    for grid in grids:
        if key not in grid._since:
            raise UnheldBlockError(f"block {block} is not held on {grid.link_id}{grid.direction}")
    mask = block.mask
    for grid in grids:
        grid.used &= ~mask
        totals = grid._totals
        totals[key] = totals.get(key, 0.0) + (grid._clock - grid._since.pop(key))


def utilization(grid: SlotGrid) -> float:
    """Instantaneous used fraction; forbidden slots count as not used."""
    return grid.used_count() / grid.slot_count
