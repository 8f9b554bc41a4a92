import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eonjam.spectrum import (
    FORBIDDEN,
    FREE,
    GUARDBAND_SLOTS,
    AllocationCollisionError,
    SlotBlock,
    SlotGrid,
    SpectrumError,
    UnknownLightpathError,
    allocate,
    first_fit,
    release,
    utilization,
)


def make_grids(count=1, slots=320):
    return [SlotGrid("L", ("a", "b"), slots) for _ in range(count)]


def occupy(grid, start, end, lightpath_id):
    grid.occupancy[start:end] = lightpath_id


def test_block_validation():
    with pytest.raises(SpectrumError):
        SlotBlock(-1, 4)
    with pytest.raises(SpectrumError):
        SlotBlock(0, 0)


def test_first_fit_empty_grid():
    (grid,) = make_grids()
    assert first_fit([grid], 5) == SlotBlock(0, 5)


def test_first_fit_respects_guardband():
    (grid,) = make_grids()
    occupy(grid, 0, 10, 1)
    assert first_fit([grid], 3) == SlotBlock(12, 3)


def test_first_fit_forbidden_with_guard():
    # 0-45 used, 50-59 forbidden: the search must keep a 2-slot
    # separation from the forbidden range as well, landing at 62.
    (grid,) = make_grids()
    occupy(grid, 0, 46, 1)
    grid.occupancy[50:60] = FORBIDDEN
    assert first_fit([grid], 12) == SlotBlock(62, 12)


def test_first_fit_skips_forbidden_range():
    (grid,) = make_grids()
    grid.occupancy[50:60] = FORBIDDEN
    assert first_fit([grid], 60) == SlotBlock(62, 60)


def test_first_fit_needs_all_grids_free():
    grids = make_grids(3)
    occupy(grids[1], 0, 4, 7)
    assert first_fit(grids, 2) == SlotBlock(6, 2)


def test_first_fit_none_when_full():
    (grid,) = make_grids()
    occupy(grid, 0, 320, 1)
    assert first_fit([grid], 1) is None


def test_first_fit_grid_mismatch():
    grids = [SlotGrid("L", ("a", "b"), 320), SlotGrid("M", ("b", "c"), 300)]
    with pytest.raises(SpectrumError):
        first_fit(grids, 2)


def test_allocate_and_release_roundtrip():
    grids = make_grids(2)
    before = [g.occupancy.copy() for g in grids]
    allocate(grids, SlotBlock(10, 4), 9)
    for grid in grids:
        assert grid.lightpath_slots(9).tolist() == [10, 11, 12, 13]
    release(grids, 9)
    for grid, snapshot in zip(grids, before):
        assert np.array_equal(grid.occupancy, snapshot)


def test_allocate_collision_used():
    grids = make_grids()
    allocate(grids, SlotBlock(5, 3), 1)
    with pytest.raises(AllocationCollisionError):
        allocate(grids, SlotBlock(6, 2), 2)


def test_allocate_collision_forbidden():
    (grid,) = make_grids()
    grid.forbid(SlotBlock(5, 5))
    with pytest.raises(AllocationCollisionError):
        allocate([grid], SlotBlock(7, 2), 2)


def test_release_unknown_lightpath():
    grids = make_grids()
    with pytest.raises(UnknownLightpathError):
        release(grids, 42)


def test_release_keeps_forbidden_marks():
    (grid,) = make_grids()
    grid.forbid(SlotBlock(50, 10))
    allocate([grid], SlotBlock(0, 4), 3)
    release([grid], 3)
    assert grid.forbidden_count() == 10
    assert grid.used_count() == 0


def test_forbid_over_held_slots_marks_them_on_release():
    (grid,) = make_grids()
    allocate([grid], SlotBlock(5, 3), 1)
    assert grid.forbid(SlotBlock(6, 4)) is True
    assert grid.occupancy[5:8].tolist() == [1, 1, 1]
    assert grid.occupancy[8:10].tolist() == [FORBIDDEN, FORBIDDEN]
    assert grid.forbid(SlotBlock(6, 4)) is False
    assert grid.forbidden == [SlotBlock(6, 4)]
    release([grid], 1)
    assert grid.occupancy[6:10].tolist() == [FORBIDDEN] * 4
    assert grid.occupancy[5] == FREE
    assert grid.free_count() == 320 - 4


def test_utilization_values():
    (grid,) = make_grids()
    assert utilization(grid) == 0.0
    occupy(grid, 0, 320, 1)
    assert utilization(grid) == 1.0
    occupy(grid, 0, 320, 0)
    occupy(grid, 0, 80, 1)
    assert utilization(grid) == 0.25


def test_utilization_ignores_forbidden():
    (grid,) = make_grids()
    grid.forbid(SlotBlock(0, 10))
    assert utilization(grid) == 0.0


def test_conservation():
    (grid,) = make_grids()
    grid.forbid(SlotBlock(50, 10))
    allocate([grid], SlotBlock(0, 4), 1)
    assert grid.used_count() + grid.free_count() + grid.forbidden_count() == 320


def test_time_integration_tracks_used_and_shadow():
    (grid,) = make_grids()
    allocate([grid], SlotBlock(0, 2), 1)
    grid.advance_time(10.0)
    release([grid], 1)
    grid.advance_time(25.0)
    assert grid.used_seconds[0] == 10.0
    assert grid.used_seconds[2] == 0.0
    assert grid.reserved_seconds[2] == 10.0  # guardband shadow above the block
    assert grid.reserved_seconds[3] == 10.0
    assert grid.reserved_seconds[4] == 0.0


def _first_fit_oracle(grids, width):
    """Linear scan over every start index, checking the definition."""
    slot_count = grids[0].slot_count
    for start in range(slot_count - width + 1):
        ok = True
        for grid in grids:
            occ = grid.occupancy
            block = occ[start:start + width]
            if np.any(block != FREE):
                ok = False
                break
            lo = max(0, start - GUARDBAND_SLOTS)
            hi = min(slot_count, start + width + GUARDBAND_SLOTS)
            guard = occ[lo:hi]
            if np.any(guard != FREE):
                ok = False
                break
        if ok:
            return SlotBlock(start, width)
    return None


@st.composite
def random_grids(draw):
    grids = make_grids(draw(st.integers(1, 3)), slots=64)
    for grid in grids:
        for _ in range(draw(st.integers(0, 6))):
            start = draw(st.integers(0, 60))
            width = draw(st.integers(1, 8))
            end = min(64, start + width)
            grid.occupancy[start:end] = draw(st.integers(1, 9))
        for _ in range(draw(st.integers(0, 2))):
            start = draw(st.integers(0, 56))
            segment = grid.occupancy[start:start + 6]
            segment[segment == FREE] = FORBIDDEN
    return grids


@given(random_grids(), st.integers(1, 10))
@settings(max_examples=200, deadline=None)
def test_first_fit_matches_linear_scan_oracle(grids, width):
    assert first_fit(grids, width) == _first_fit_oracle(grids, width)


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


@given(grid_operations())
@settings(max_examples=200, deadline=None)
def test_forbidden_blocks_survive_allocate_and_release(operations):
    grids = make_grids(2, slots=64)
    live: dict[int, SlotBlock] = {}
    next_id = 1
    for kind, start, width, which in operations:
        if kind == "allocate":
            block = first_fit(grids, width)
            if block is not None:
                allocate(grids, block, next_id)
                live[next_id] = block
                next_id += 1
        elif kind == "forbid":
            block = SlotBlock(start, min(width, 64 - start))
            recorded = block in grids[which].forbidden
            assert grids[which].forbid(block) is not recorded
        elif live:
            victim = sorted(live)[start % len(live)]
            release(grids, victim)
            del live[victim]

        for grid in grids:
            # Every slot of a recorded block is forbidden or still held...
            barred = np.zeros(64, dtype=bool)
            for block in grid.forbidden:
                segment = grid.occupancy[block.start:block.end]
                assert np.all((segment == FORBIDDEN) | np.isin(segment, list(live)))
                barred[block.start:block.end] = True
            # ...and every slot outside the live blocks is free or barred.
            held = np.zeros(64, dtype=bool)
            for lightpath_id, block in live.items():
                assert grid.lightpath_slots(lightpath_id).tolist() == list(block.slots())
                held[block.start:block.end] = True
            expected = np.where(barred, FORBIDDEN, FREE)
            assert np.array_equal(grid.occupancy[~held], expected[~held])
        for probe in (1, 3, 7):
            assert first_fit(grids, probe) == _first_fit_oracle(grids, probe)
