"""Tile pyramids: running a fixed-input encoder on larger images.

An encoder trained at one resolution (say 336 px) cannot see a 1344 px image
at full detail in a single forward pass. The pyramid plan covers the image
with base-sized tiles at several zoom levels instead: one global view, then
progressively finer grids. This script prints a few plans and compares their
cost against what a monolithic high-resolution forward would pay.
"""

from adds.pyramid import build_plan, cost_report


def show(base, target, **kw):
    plan = build_plan(base, target, **kw)
    rep = cost_report(plan)
    print(f"\nbase {base}, target {target} (scale d = {plan.scale:g})")
    for lv in plan.levels:
        note = " (CLS tokens only)" if lv.cls_only else ""
        print(f"  level {lv.index}: resize to {lv.resized_side}, "
              f"{lv.grid}x{lv.grid} tiles, overlap {lv.overlap_px}px{note}")
    print(f"  encoder forwards: {rep.pyramid_units}  "
          f"naive token-pair units: {rep.naive_units}  "
          f"advantage: {rep.ratio:.1f}x")


def main():
    # the flagship configuration: 4x upscale, 21 tile forwards instead of a
    # quadratic blowup in self-attention cost
    show(336, 1344)

    # a non-power-of-two scale: the top level needs a 3x3 grid
    show(224, 672)

    # a fractional scale: tiles must overlap to cover the resized image
    show(100, 346)

    # memory-lean variant: non-bottom levels keep only their CLS token
    show(336, 1344, cls_only_non_bottom=True)


if __name__ == "__main__":
    main()
