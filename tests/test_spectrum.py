import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eonjam.spectrum import (
    GUARDBAND_SLOTS,
    AllocationCollisionError,
    SlotBlock,
    SlotGrid,
    SpectrumError,
    UnheldBlockError,
    allocate,
    first_fit,
    fit_mask,
    release,
    utilization,
)


def make_grids(count=1, slots=320):
    return [SlotGrid("L", ("a", "b"), slots) for _ in range(count)]


def occupy(grid, start, end):
    allocate([grid], SlotBlock(start, end - start))


class GridModel:
    """The test's own record of one grid: who holds each slot, which are forbidden."""

    def __init__(self, slots):
        self.holder = np.zeros(slots, dtype=np.int64)
        self.forbidden = np.zeros(slots, dtype=bool)

    @property
    def blocked(self):
        return (self.holder != 0) | self.forbidden


def _first_fit_oracle(models, width):
    """Linear scan over every start index, checking the definition."""
    blocked = np.logical_or.reduce([model.blocked for model in models])
    slot_count = len(blocked)
    for start in range(slot_count - width + 1):
        lo = max(0, start - GUARDBAND_SLOTS)
        hi = min(slot_count, start + width + GUARDBAND_SLOTS)
        if not blocked[lo:hi].any():
            return SlotBlock(start, width)
    return None


def test_block_validation():
    with pytest.raises(SpectrumError):
        SlotBlock(-1, 4)
    with pytest.raises(SpectrumError):
        SlotBlock(0, 0)


def test_first_fit_empty_grid():
    (grid,) = make_grids()
    assert first_fit(fit_mask([grid]), 5) == SlotBlock(0, 5)


def test_first_fit_respects_guardband():
    (grid,) = make_grids()
    occupy(grid, 0, 10)
    assert first_fit(fit_mask([grid]), 3) == SlotBlock(12, 3)


def test_first_fit_forbidden_with_guard():
    # 0-45 used, 50-59 forbidden: the search must keep a 2-slot
    # separation from the forbidden range as well, landing at 62.
    (grid,) = make_grids()
    occupy(grid, 0, 46)
    grid.forbid(SlotBlock(50, 10))
    assert first_fit(fit_mask([grid]), 12) == SlotBlock(62, 12)


def test_first_fit_skips_forbidden_range():
    (grid,) = make_grids()
    grid.forbid(SlotBlock(50, 10))
    assert first_fit(fit_mask([grid]), 60) == SlotBlock(62, 60)


def test_first_fit_needs_all_grids_free():
    grids = make_grids(3)
    occupy(grids[1], 0, 4)
    assert first_fit(fit_mask(grids), 2) == SlotBlock(6, 2)


def test_first_fit_none_when_full():
    (grid,) = make_grids()
    occupy(grid, 0, 320)
    assert first_fit(fit_mask([grid]), 1) is None


def test_first_fit_grid_mismatch():
    grids = [SlotGrid("L", ("a", "b"), 320), SlotGrid("M", ("b", "c"), 300)]
    with pytest.raises(SpectrumError):
        first_fit(fit_mask(grids), 2)


def test_fit_mask_needs_a_grid_and_stays_inside_the_slot_count():
    with pytest.raises(SpectrumError):
        fit_mask([])
    (grid,) = make_grids(slots=64)
    assert fit_mask([grid]) == (1 << 64) - 1
    assert first_fit(fit_mask([grid]), 64) == SlotBlock(0, 64)
    assert first_fit(fit_mask([grid]), 65) is None
    with pytest.raises(SpectrumError):
        first_fit(fit_mask([grid]), 0)


def test_allocate_and_release_roundtrip():
    grids = make_grids(2)
    grids[0].forbid(SlotBlock(40, 5))
    occupy(grids[1], 100, 104)
    before = [(g.used, g.forbidden_mask) for g in grids]
    allocate(grids, SlotBlock(10, 4))
    for grid, (used, _) in zip(grids, before):
        assert grid.used == used | 0b1111 << 10
    release(grids, SlotBlock(10, 4))
    for grid, snapshot in zip(grids, before):
        assert (grid.used, grid.forbidden_mask) == snapshot


def test_allocate_collision_used():
    grids = make_grids()
    allocate(grids, SlotBlock(5, 3))
    with pytest.raises(AllocationCollisionError):
        allocate(grids, SlotBlock(6, 2))


def test_allocate_collision_forbidden():
    (grid,) = make_grids()
    grid.forbid(SlotBlock(5, 5))
    with pytest.raises(AllocationCollisionError):
        allocate([grid], SlotBlock(7, 2))


@pytest.mark.parametrize(
    "released, block",
    [
        ([], SlotBlock(30, 4)),
        ([SlotBlock(10, 4)], SlotBlock(10, 4)),
        ([], SlotBlock(12, 4)),
        ([], SlotBlock(9, 2)),
        ([], SlotBlock(20, 4)),
        ([], SlotBlock(40, 4)),
    ],
    ids=["free", "double", "partly-free-above", "partly-free-below", "held-on-one-grid", "forbidden"],
)
def test_release_of_an_unheld_block_raises_and_changes_nothing(released, block):
    # Both grids hold 10-13, only the first holds 20-23 and the second
    # forbids 40-43: release must check every grid before freeing any.
    grids = make_grids(2)
    allocate(grids, SlotBlock(10, 4))
    allocate(grids[:1], SlotBlock(20, 4))
    grids[1].forbid(SlotBlock(40, 4))
    for earlier in released:
        release(grids, earlier)
    before = [(g.used, g.forbidden_mask) for g in grids]
    with pytest.raises(UnheldBlockError):
        release(grids, block)
    assert [(g.used, g.forbidden_mask) for g in grids] == before
    assert issubclass(UnheldBlockError, SpectrumError)


def test_release_of_part_of_a_held_block_raises():
    # Busy time is kept per allocated block, so only a whole block is released.
    (grid,) = make_grids()
    allocate([grid], SlotBlock(10, 4))
    with pytest.raises(UnheldBlockError):
        release([grid], SlotBlock(11, 2))
    assert grid.used == SlotBlock(10, 4).mask


def test_release_keeps_forbidden_marks():
    (grid,) = make_grids()
    grid.forbid(SlotBlock(50, 10))
    allocate([grid], SlotBlock(0, 4))
    release([grid], SlotBlock(0, 4))
    assert grid.forbidden_count() == 10
    assert grid.used_count() == 0


def test_forbid_over_held_slots_marks_them_on_release():
    (grid,) = make_grids()
    allocate([grid], SlotBlock(5, 3))
    grid.forbid(SlotBlock(6, 4))
    # Slots 5-7 stay with the circuit; only 8-9 are forbidden so far.
    assert grid.used == 0b111 << 5
    assert grid.forbidden_mask == 0b1111 << 6
    assert grid.used_count() == 3
    assert grid.forbidden_count() == 2
    grid.forbid(SlotBlock(6, 4))  # forbidding again changes nothing
    assert (grid.used, grid.forbidden_mask) == (0b111 << 5, 0b1111 << 6)
    release([grid], SlotBlock(5, 3))
    # Once freed, 6-9 are all forbidden and slot 5 is free again.
    assert grid.forbidden_count() == 4
    assert grid.free_count() == 320 - 4
    with pytest.raises(AllocationCollisionError):
        allocate([grid], SlotBlock(6, 1))
    allocate([grid], SlotBlock(5, 1))


def test_utilization_values():
    (grid,) = make_grids()
    assert utilization(grid) == 0.0
    occupy(grid, 0, 320)
    assert utilization(grid) == 1.0
    release([grid], SlotBlock(0, 320))
    occupy(grid, 0, 80)
    assert utilization(grid) == 0.25


def test_utilization_ignores_forbidden():
    (grid,) = make_grids()
    grid.forbid(SlotBlock(0, 10))
    assert utilization(grid) == 0.0


def test_conservation():
    (grid,) = make_grids()
    grid.forbid(SlotBlock(50, 10))
    allocate([grid], SlotBlock(0, 4))
    assert grid.used_count() + grid.free_count() + grid.forbidden_count() == 320


def test_time_integration_tracks_used_and_shadow():
    (grid,) = make_grids()
    allocate([grid], SlotBlock(0, 2))
    grid.advance_time(10.0)
    release([grid], SlotBlock(0, 2))
    grid.advance_time(25.0)
    assert grid.used_seconds[0] == 10.0
    assert grid.used_seconds[2] == 0.0
    assert grid.reserved_seconds[2] == 10.0  # guardband shadow above the block
    assert grid.reserved_seconds[3] == 10.0
    assert grid.reserved_seconds[4] == 0.0


def build_grids(layouts, slots=320):
    """Fill grids through ``allocate`` and ``forbid``, mirroring each step in a model.

    A layout is ``(circuits, forbidden)``, two lists of ``(start, width)``;
    widths are clipped to the grid and circuits that would collide with
    blocked slots are skipped.
    """
    grids, models = make_grids(len(layouts), slots), []
    next_id = 1
    for grid, (circuits, forbidden) in zip(grids, layouts):
        model = GridModel(slots)
        for start, width in circuits:
            block = SlotBlock(start, min(width, slots - start))
            if model.blocked[block.start:block.end].any():
                continue
            allocate([grid], block)
            model.holder[block.start:block.end] = next_id
            next_id += 1
        for start, width in forbidden:
            block = SlotBlock(start, min(width, slots - start))
            grid.forbid(block)
            model.forbidden[block.start:block.end] = True
        models.append(model)
    return grids, models


blocks_on_320 = st.tuples(st.integers(0, 319), st.integers(1, 80))

grid_layouts = st.lists(
    st.tuples(st.lists(blocks_on_320, max_size=6), st.lists(blocks_on_320, max_size=2)),
    min_size=1,
    max_size=3,
)


@given(grid_layouts, st.one_of(st.integers(1, 12), st.integers(1, 320)))
@example([([], [])], 320)  # the whole grid, from slot 0 to slot 319
@example([([(0, 300)], [])], 18)  # lands on 302-319, touching the top
@example([([(0, 300)], [])], 19)  # one slot too wide for the top gap
@example([([(3, 1)], [])], 1)  # slot 0 needs no guardband below it
@example([([], [(317, 3)])], 315)  # slots 0-314 keep clear of 317
@example([([], [(317, 3)])], 316)
@example([([(319, 1)], []), ([(0, 1)], [])], 314)  # both ends, different grids
@settings(max_examples=300, deadline=None)
def test_first_fit_matches_linear_scan_oracle(layouts, width):
    grids, models = build_grids(layouts)
    assert first_fit(fit_mask(grids), width) == _first_fit_oracle(models, width)


@st.composite
def grid_operations(draw):
    """A random sequence of allocate / forbid / release steps."""
    return draw(
        st.lists(
            st.tuples(
                st.sampled_from(["allocate", "forbid", "release"]),
                st.integers(0, 63),
                st.integers(1, 10),
                st.integers(0, 1),
            ),
            max_size=40,
        )
    )


def _as_bits(flags):
    return sum(1 << int(i) for i in np.flatnonzero(flags))


@given(grid_operations())
@settings(max_examples=200, deadline=None)
def test_forbidden_blocks_survive_allocate_and_release(operations):
    grids = make_grids(2, slots=64)
    models = [GridModel(64) for _ in grids]
    live: dict[int, SlotBlock] = {}
    next_id = 1
    for kind, start, width, which in operations:
        if kind == "allocate":
            block = first_fit(fit_mask(grids), width)
            if block is not None:
                allocate(grids, block)
                for model in models:
                    assert not model.blocked[block.start:block.end].any()
                    model.holder[block.start:block.end] = next_id
                live[next_id] = block
                next_id += 1
        elif kind == "forbid":
            block = SlotBlock(start, min(width, 64 - start))
            grids[which].forbid(block)
            models[which].forbidden[block.start:block.end] = True
        elif live:
            victim = sorted(live)[start % len(live)]
            release(grids, live[victim])
            for model in models:
                model.holder[model.holder == victim] = 0
            del live[victim]

        for grid, model in zip(grids, models):
            # Every forbidden slot stays forbidden or held, every other
            # slot outside the live blocks stays free.
            held = model.holder != 0
            assert grid.used == _as_bits(held)
            assert grid.forbidden_mask == _as_bits(model.forbidden)
            assert grid.used_count() == held.sum()
            assert grid.forbidden_count() == (model.forbidden & ~held).sum()
            assert grid.free_count() == (~model.blocked).sum()
            for lightpath_id, block in live.items():
                assert np.flatnonzero(model.holder == lightpath_id).tolist() == list(block.slots())
                assert grid.used & block.mask == block.mask
        for probe in (1, 3, 7, 64):
            assert first_fit(fit_mask(grids), probe) == _first_fit_oracle(models, probe)


class BusyTimeModel:
    """Eager busy-time integration: ``seconds[mask] += dt`` at every step."""

    def __init__(self, slots):
        self.used_seconds = np.zeros(slots)
        self.reserved_seconds = np.zeros(slots)
        self.clock = 0.0

    def advance(self, now, held):
        dt = now - self.clock
        if dt <= 0.0:
            return
        covered = held.copy()
        for k in range(1, GUARDBAND_SLOTS + 1):
            covered[k:] |= held[:-k]
        self.used_seconds[held] += dt
        self.reserved_seconds[covered] += dt
        self.clock = now


def holding_time_oracle(released, held, clock, slots, shadow):
    """Busy seconds per slot: each block's holding times over its slots.

    ``released`` lists ``(block, allocated_at, released_at)`` in release
    order and ``held`` lists ``(block, allocated_at)`` in allocation
    order.  A block's total is its ``released_at - allocated_at`` summed
    in release order; the totals, in order of each block's first
    release, and then each held block's ``clock - allocated_at`` are
    added over the block's slots and the ``shadow`` slots above it,
    clipped to the grid.  That is the order the grid adds them in, so
    the result is equal to the bit.
    """
    totals = {}
    for block, allocated_at, released_at in released:
        totals[block] = totals.get(block, 0.0) + (released_at - allocated_at)
    spans = [*totals.items(), *((block, clock - allocated_at) for block, allocated_at in held)]
    seconds = [0.0] * slots
    for block, span in spans:
        for slot in range(block.start, min(block.end + shadow, slots)):
            seconds[slot] += span
    return np.array(seconds)


def assert_busy_time(grid, released, held, clock, model):
    """The grid's integrals equal the oracle's bit for bit and the eager model's within 1e-12."""
    for seconds, shadow, eager in (
        (grid.used_seconds, 0, model.used_seconds),
        (grid.reserved_seconds, GUARDBAND_SLOTS, model.reserved_seconds),
    ):
        oracle = holding_time_oracle(released, held, clock, grid.slot_count, shadow)
        assert seconds.tobytes() == oracle.tobytes()
        np.testing.assert_allclose(seconds, eager, rtol=1e-12, atol=0.0)


busy_time_steps = st.lists(
    st.tuples(
        st.sampled_from(["allocate", "allocate", "release", "forbid", "none"]),
        st.integers(0, 319),
        st.integers(1, 12),
        st.one_of(st.floats(1e-3, 1e3), st.sampled_from([0.0, -1.0])),
        st.integers(0, 15),
    ),
    min_size=1,
    max_size=128,
)


@pytest.mark.parametrize("slots", [45, 320])
@given(steps=busy_time_steps)
@settings(max_examples=40, deadline=None, report_multiple_bugs=False)
def test_busy_time_is_the_holding_time_of_each_block(slots, steps):
    # Random allocate/release/forbid sequences, with reads in between.
    # A clock step may go backwards or stand still; the clock then stays
    # where it is.
    (grid,) = make_grids(slots=slots)
    model = BusyTimeModel(slots)
    held = np.zeros(slots, dtype=bool)
    live: dict[int, tuple[SlotBlock, float]] = {}
    released = []
    now = clock = 0.0
    for lightpath_id, (kind, start, width, step, read) in enumerate(steps, start=1):
        if kind == "allocate":
            block = first_fit(fit_mask([grid]), width)
            if block is not None:
                allocate([grid], block)
                held[block.start:block.end] = True
                live[lightpath_id] = (block, clock)
        elif kind == "release" and live:
            victim = sorted(live)[start % len(live)]
            block, allocated_at = live.pop(victim)
            release([grid], block)
            held[block.slots()] = False
            released.append((block, allocated_at, clock))
        elif kind == "forbid" and start < slots:
            grid.forbid(SlotBlock(start, min(width, slots - start)))
        now += step
        grid.advance_time(now)
        model.advance(now, held)
        clock = max(clock, now)
        if read == 0:
            assert_busy_time(grid, released, list(live.values()), clock, model)
    assert_busy_time(grid, released, list(live.values()), clock, model)


@pytest.mark.parametrize("count", [1, 64, 65])
@pytest.mark.parametrize(
    "blocks",
    [
        [(0, 1)],
        [(300, 20)],
        [(300, 19)],
        [(0, 3), (6, 1), (20, 40), (97, 1), (150, 64), (260, 57)],
    ],
    ids=["slot-0-alone", "ends-at-last-slot", "ends-one-before", "full-width-mix"],
)
def test_busy_time_kernel_is_bitwise_on_edge_layouts(blocks, count):
    # The first block is held through every step; the others come and
    # go, so each step holds its own mask.  A block at the top of the
    # grid clips its guardband shadow.
    (grid,) = make_grids()
    model = BusyTimeModel(320)
    held = np.zeros(320, dtype=bool)
    blocks = [SlotBlock(start, width) for start, width in blocks]
    live = {}
    released = []
    dts = 10.0 ** np.random.default_rng(count).uniform(-3.0, 3.0, count)
    now = 0.0
    for step, dt in enumerate(dts):
        for index, block in enumerate(blocks):
            wanted = index == 0 or (step + index) % 3 != 0
            if wanted and block not in live:
                allocate([grid], block)
                live[block] = now
            elif not wanted and block in live:
                release([grid], block)
                released.append((block, live.pop(block), now))
            held[block.start:block.end] = wanted
        now += float(dt)
        grid.advance_time(now)
        model.advance(now, held)
    assert_busy_time(grid, released, list(live.items()), now, model)
    # The highest shadow slot (or the grid's last) was busy, so a spread
    # that stopped one slot short would show above.
    top = max(block.end for block in blocks) + GUARDBAND_SLOTS
    assert grid.reserved_seconds[min(top, 320) - 1] > 0.0


def test_a_grid_copied_mid_hold_reads_like_the_original():
    (grid,) = make_grids()
    allocate([grid], SlotBlock(0, 4))
    grid.advance_time(2.5)
    allocate([grid], SlotBlock(10, 3))
    grid.advance_time(4.0)
    release([grid], SlotBlock(0, 4))
    allocate([grid], SlotBlock(0, 4))
    grid.advance_time(7.0)
    twin = grid.copy()
    twin.advance_time(11.0)
    release([twin], SlotBlock(0, 4))
    release([twin], SlotBlock(10, 3))
    # The original still holds both blocks, up to its own clock.
    assert grid.used == SlotBlock(0, 4).mask | SlotBlock(10, 3).mask
    assert grid.used_seconds[[0, 10, 13]].tolist() == [7.0, 4.5, 0.0]
    grid.advance_time(11.0)
    release([grid], SlotBlock(0, 4))
    release([grid], SlotBlock(10, 3))
    for side in (grid, twin):
        assert side.used == 0
        assert side.used_seconds[[0, 3, 4, 10, 12, 13]].tolist() == [11.0, 11.0, 0.0, 8.5, 8.5, 0.0]
        assert side.reserved_seconds[[4, 5, 6, 13, 14, 15]].tolist() == [11.0, 11.0, 0.0, 8.5, 8.5, 0.0]
    assert grid.used_seconds.tobytes() == twin.used_seconds.tobytes()
    assert grid.reserved_seconds.tobytes() == twin.reserved_seconds.tobytes()
