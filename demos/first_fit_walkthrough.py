#!/usr/bin/env python3
"""Spectrum bookkeeping in slow motion.

Shows how First Fit packs a route's slot grids: ``fit_mask`` folds the
grids into the slots a guardband clear on all of them, ``first_fit``
finds the lowest window of a width in that mask, guardbands keep blocks
two slots apart, forbidden ranges (aware mode) repel allocations and
their guardbands, and release returns spectrum exactly as it was.
A grid records slots, not circuits, so the demo keeps its own map from
lightpath id to block to label the picture, as the control plane does.

Run:  python demos/first_fit_walkthrough.py
"""

from eonjam.spectrum import SlotBlock, SlotGrid, allocate, first_fit, fit_mask, release, utilization


def show(grid, held, upto=40):
    cells = ["x" if grid.forbidden_mask >> slot & 1 else "." for slot in range(grid.slot_count)]
    for lightpath_id, block in held.items():
        cells[block.start:block.end] = str(lightpath_id % 10) * block.width
    print("".join(cells[:upto]), f"  (used {grid.used_count()}, util {utilization(grid):.3f})")


grid = SlotGrid("demo", ("a", "b"), 320)
held = {}
print("empty grid:")
show(grid, held)

print("\nallocate widths 3, 2, 4 by First Fit (2-slot guardbands):")
for lightpath_id, width in ((1, 3), (2, 2), (3, 4)):
    block = first_fit(fit_mask([grid]), width)
    allocate([grid], block)
    held[lightpath_id] = block
    print(f"  lightpath {lightpath_id} width {width} -> start {block.start}")
    show(grid, held)

print("\nrelease lightpath 2: its hole is reusable only by narrow blocks")
release([grid], held.pop(2))
show(grid, held)
print("width 2 fits back into the hole:", first_fit(fit_mask([grid]), 2))
print("width 3 skips past it         :", first_fit(fit_mask([grid]), 3))

print("\nforbid slots 20-29 (as the jamming-aware plane would):")
grid.forbid(SlotBlock(20, 10))
show(grid, held)
print("width 6 keeps a guardband from the forbidden range:", first_fit(fit_mask([grid]), 6))
