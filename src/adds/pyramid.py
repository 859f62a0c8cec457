"""Multi-level tile plans for running a fixed-input-size encoder on larger images.

A plan for scale d = target/base builds ceil(log2 d) + 1 levels. Level i
resizes the image to min(base * 2^i, target) per side and covers it with an
n_i x n_i grid of base-sized tiles, n_i = ceil(min(2^i, d)). When the resized
side is not an exact multiple of the base size, tiles overlap with a uniform
ceil-rounded stride and the last tile is pinned to the far edge. A plan is
the levels it runs: a selection of level indices keeps those levels, and an
empty or absent one keeps every level. Token embeddings of its tiles are
stacked row-wise in level-major, row-major order.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ShapeError


@dataclass(frozen=True)
class TileRect:
    x: int  # column offset in the level's resized image
    y: int  # row offset; every tile is the plan's base_size on a side


@dataclass
class LevelSpec:
    index: int
    resized_side: int
    grid: int  # tiles per axis
    tiles: list[TileRect]
    cls_only: bool
    overlap_px: int  # neighbor overlap along one axis; 0 on exact fit


@dataclass
class PyramidPlan:
    base_size: int
    target_side: int
    scale: float
    levels: list[LevelSpec]  # the levels it runs, in index order

    def tile_count(self) -> int:
        return sum(len(lv.tiles) for lv in self.levels)

    def row_count(self, tokens_per_tile: int) -> int:
        """Stacked token rows of one image (see :func:`encode_and_stack`)."""
        return sum(len(lv.tiles) * (1 if lv.cls_only else tokens_per_tile)
                   for lv in self.levels)


@dataclass
class CostReport:
    per_level_tiles: dict
    pyramid_units: int
    naive_units: int
    ratio: float


def _tile_offsets(resized_side: int, base: int, n: int) -> list[int]:
    if n == 1:
        return [0]
    if resized_side == n * base:
        return [i * base for i in range(n)]
    # ceil keeps the stride uniform while guaranteeing the pinned last tile
    # starts no more than one tile width after its neighbor (full coverage)
    stride = -((base - resized_side) // (n - 1))
    offsets = [i * stride for i in range(n - 1)]
    offsets.append(resized_side - base)  # pin the last tile to the edge
    return offsets


def build_plan(
    base_size: int,
    target_side: int,
    selected_levels: list[int] | None = None,
    cls_only_non_bottom: bool = False,
) -> PyramidPlan:
    if base_size < 1:
        raise ConfigurationError(f"base size must be >= 1, got {base_size}")
    if target_side < base_size:
        raise ConfigurationError(
            f"target side {target_side} smaller than base size {base_size}"
        )
    d = target_side / base_size
    n_levels = math.ceil(math.log2(d)) + 1 if d > 1 else 1
    bottom = n_levels - 1
    levels = []
    for i in range(n_levels):
        n_i = math.ceil(min(2.0**i, d))
        resized = min(base_size * 2**i, target_side)
        xs = _tile_offsets(resized, base_size, n_i)
        tiles = [TileRect(x=x, y=y) for y in xs for x in xs]
        if n_i > 1 and resized < n_i * base_size:
            overlap = base_size - (xs[1] - xs[0])
        else:
            overlap = 0
        levels.append(
            LevelSpec(
                index=i,
                resized_side=resized,
                grid=n_i,
                tiles=tiles,
                cls_only=cls_only_non_bottom and i != bottom,
                overlap_px=overlap,
            )
        )
    for i in selected_levels or ():
        if not 0 <= i < n_levels:
            raise ConfigurationError(
                f"selected level {i} out of range for {n_levels} levels"
            )
    selected = sorted(set(selected_levels or range(n_levels)))  # empty: every level
    return PyramidPlan(
        base_size=base_size,
        target_side=target_side,
        scale=d,
        levels=[levels[i] for i in selected],
    )


def resize_bilinear(image: np.ndarray, new_side: int) -> np.ndarray:
    """Separable bilinear resize with half-pixel center alignment.

    Identity (bit-exact copy) when the size is unchanged. Works on a square
    [H, W] image or a [B, H, W] stack of them; the interpolation tables are
    built once per call, and each image's pixels depend on that image alone.
    """
    if new_side < 1:
        raise ConfigurationError(f"new side must be >= 1, got {new_side}")
    old_side = image.shape[-1]
    if image.shape[-2] != old_side:
        raise ShapeError(f"expected square images, got {image.shape}")
    if new_side == old_side:
        return image.copy()
    src = (np.arange(new_side) + 0.5) * (old_side / new_side) - 0.5
    lo = np.clip(np.floor(src).astype(int), 0, old_side - 1)
    hi = np.clip(lo + 1, 0, old_side - 1)
    frac = np.clip(src - lo, 0.0, 1.0)
    w = frac[:, None]
    x = image.astype(np.float64, copy=False)
    rows = x[..., lo, :] * (1.0 - w) + x[..., hi, :] * w
    cols = rows[..., lo] * (1.0 - frac) + rows[..., hi] * frac
    return cols.astype(image.dtype) if np.issubdtype(image.dtype, np.floating) else cols


def extract_tiles(images: np.ndarray, plan: PyramidPlan) -> np.ndarray:
    """Resize per level and crop every tile: (T, base, base) for one
    image, (B, T, base, base) for a (B, side, side) stack; level-major,
    row-major order. Each level is resized once for the whole stack."""
    side = plan.target_side
    if images.shape[-2:] != (side, side):
        raise ShapeError(f"image side {images.shape[-2:]} != plan target {side}")
    b = plan.base_size
    floating = np.issubdtype(images.dtype, np.floating)
    out = np.empty((*images.shape[:-2], plan.tile_count(), b, b),
                   images.dtype if floating else np.float64)
    # crops go straight into one array: an array per level and their
    # concatenation took longer than the copies
    start = 0
    for lv in plan.levels:
        resized = images if lv.resized_side == side else resize_bilinear(images, lv.resized_side)
        np.stack([resized[..., t.y : t.y + b, t.x : t.x + b] for t in lv.tiles], axis=-3,
                 out=out[..., start : start + len(lv.tiles), :, :])
        start += len(lv.tiles)
    return out


def encode_and_stack(tiles: np.ndarray, plan: PyramidPlan, encoder) -> np.ndarray:
    """Encode every tile in one call and stack kept token rows: (R, e) for one
    image's (T, base, base) tiles, (B, R, e) for a (B, T, base, base) stack.

    Tiles must follow :func:`extract_tiles` order. Levels flagged cls_only
    contribute one row (the CLS token) per tile; others contribute all tokens.
    """
    cls_only = np.repeat([lv.cls_only for lv in plan.levels],
                         [len(lv.tiles) for lv in plan.levels])
    if tiles.ndim < 3 or tiles.shape[-3] != len(cls_only):
        raise ShapeError(f"tiles of shape {tiles.shape} given but plan has "
                         f"{len(cls_only)} per image")
    tokens = encoder.encode_tiles(tiles.reshape(-1, *tiles.shape[-2:]))
    tokens = tokens.reshape(*tiles.shape[:-2], *tokens.shape[1:])
    keep = np.ones(tokens.shape[-3:-1], dtype=bool)
    keep[cls_only, 1:] = False
    return tokens[..., keep, :]


def cost_report(plan: PyramidPlan) -> CostReport:
    """Encoder-forward units of the plan vs. token-pair units of one monolithic
    forward at target resolution (one base-size forward = 1 unit)."""
    per_level = {lv.index: lv.grid**2 for lv in plan.levels}
    pyramid_units = sum(per_level.values())
    naive_units = math.ceil(plan.scale) ** 4
    return CostReport(
        per_level_tiles=per_level,
        pyramid_units=pyramid_units,
        naive_units=naive_units,
        ratio=naive_units / pyramid_units,
    )
