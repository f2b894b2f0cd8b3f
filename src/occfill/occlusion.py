"""Occlusion analysis from feature-map correlation.

A proposal's features are compared cell by cell against a reference map,
usually its matched prototype. Agreeing cells produce a large product
that the difference term barely damps; cells whose content diverges are
pushed toward zero. Averaging the per-channel correlations gives one
grid whose low-valued cells mark where the proposal stopped looking like
the reference.

Two thresholds act on that grid. A cell counts as occluded when its
value falls strictly below the grid's own mean, which adapts to however
strong the overall response is. A proposal counts as occluded when the
flagged fraction exceeds ``alpha``. The same below-mean rule doubles as
the default completion mask; a fixed cutoff is kept for ablations.
"""

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, ShapeMismatchError
from .ndnum import Rng, check_finite
from .synth import SCALE_NORM, OcclusionMask, gen_occluded, gen_pedestrian

AGGREGATES = ("mean", "max")
BETA_MODES = ("dynamic-mean", "fixed")


def _freeze(arr):
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    arr.setflags(write=False)
    return arr


@dataclass
class CorrelationMap:
    """Per-cell correlation grid of two feature maps."""

    grid: np.ndarray

    def __post_init__(self):
        self.grid = _freeze(self.grid)
        if self.grid.ndim != 2:
            raise PreconditionError("correlation grid must be 2-d")
        check_finite(self.grid, "correlation grid")

    @property
    def mean(self):
        return float(self.grid.mean())


@dataclass(frozen=True)
class OcclusionConfig:
    alpha: float = 0.30
    beta_mode: str = "dynamic-mean"
    beta: float = 0.0

    def validate(self):
        if not (0.0 < self.alpha < 1.0):
            raise PreconditionError("alpha must lie strictly inside (0, 1)")
        if self.beta_mode not in BETA_MODES:
            raise PreconditionError(f"unknown beta_mode {self.beta_mode!r}")
        if not np.isfinite(self.beta):
            raise PreconditionError("beta must be finite")
        return self


def _pair(f_a, f_b):
    a = np.asarray(f_a, dtype=np.float64)
    b = np.asarray(f_b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeMismatchError("feature maps", b, a.shape)
    if a.ndim != 3:
        raise PreconditionError("feature maps must be (channels, x, y)")
    return a, b


def _correlate(a, b):
    return (a * b) / (1.0 + np.abs(a - b))


def channel_correlation(f_a, f_b, channel):
    """Correlate one channel of two feature maps cell by cell."""
    a, b = _pair(f_a, f_b)
    if not (0 <= channel < a.shape[0]):
        raise PreconditionError(
            f"channel {channel} out of range for {a.shape[0]} channels")
    return CorrelationMap(_correlate(a[channel], b[channel]))


def correlation_map(f_a, f_b, aggregate="mean"):
    """Correlate two feature maps and aggregate across channels per cell."""
    a, b = _pair(f_a, f_b)
    per_channel = _correlate(a, b)
    if aggregate == "mean":
        grid = per_channel.mean(axis=0)
    elif aggregate == "max":
        grid = per_channel.max(axis=0)
    else:
        raise PreconditionError(f"unknown aggregate {aggregate!r}")
    return CorrelationMap(grid)


def occluded_cells(cmap):
    """Flag every cell strictly below the map's own mean."""
    return OcclusionMask(cmap.grid < cmap.grid.mean())


def is_occluded(mask, config=OcclusionConfig()):
    """A proposal is occluded when flagged cells exceed the alpha fraction."""
    config.validate()
    return mask.fraction() > config.alpha


def completion_mask(cmap, config=OcclusionConfig()):
    """Cells to overwrite during completion.

    Dynamic-mean mode reuses the below-mean rule; fixed mode compares
    against the configured beta cutoff.
    """
    config.validate()
    if config.beta_mode == "dynamic-mean":
        return occluded_cells(cmap)
    return OcclusionMask(cmap.grid < config.beta)


def xor_toy_check(seed=0, trials=20):
    """Sanity-check the correlation rule on a noise-free world.

    With identity noise switched off, a pedestrian's cells carry the pure
    part signature scaled by its normalized height, so correlating an
    occluded copy against the original yields exactly that height squared
    wherever the cell survived and strictly less wherever the occluder
    overwrote it. The check verifies the detected visible set equals the
    mask complement for the empty mask, the full mask, and ``trials``
    random masks.
    """
    from .synth import WorldConfig, gen_world

    world = gen_world(WorldConfig(sigma_id=0.0, seed=seed))
    rng = Rng(seed).split("xor-toy")
    gx, gy = world.config.grid_x, world.config.grid_y
    scale = world.config.scale_means[1]
    base = gen_pedestrian(world, scale, rng.split("base"))
    target = (scale / SCALE_NORM) ** 2

    def visible_cells(mask, tag):
        sample = gen_occluded(world, base, mask, "object", rng.split(tag))
        cmap = correlation_map(base.features, sample.features)
        return np.abs(cmap.grid - target) <= 1e-9 * target

    empty = OcclusionMask(np.zeros((gx, gy), dtype=bool))
    if not visible_cells(empty, "empty").all():
        return False
    full = OcclusionMask(np.ones((gx, gy), dtype=bool))
    if visible_cells(full, "full").any():
        return False
    for t in range(trials):
        r = rng.split(f"mask-{t}")
        count = int(r.integers(1, gx * gy))
        cells = r.choice(gx * gy, size=count, replace=False)
        grid = np.zeros(gx * gy, dtype=bool)
        grid[cells] = True
        mask = OcclusionMask(grid.reshape(gx, gy))
        if not np.array_equal(visible_cells(mask, f"fill-{t}"), ~mask.grid):
            return False
    return True
