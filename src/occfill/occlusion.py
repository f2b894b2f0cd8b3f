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
flagged fraction exceeds ``alpha``. The flagged cells are also the
completion mask: the cells that completion overwrites.

`analyze` runs the whole step for one proposal, against the prototype
nearest in scale, and gives the one verdict every caller acts on.
"""

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, ShapeMismatchError
from .ndnum import check_finite
from .prototypes import nearest_prototype
from .synth import OcclusionMask, _freeze

@dataclass
class CorrelationMap:
    """Per-cell correlation grid of two feature maps."""

    grid: np.ndarray

    def __post_init__(self):
        self.grid = _freeze(self.grid)
        if self.grid.ndim != 2:
            raise PreconditionError("correlation grid must be 2-d")
        check_finite(self.grid, "correlation grid")


@dataclass(frozen=True)
class OcclusionConfig:
    alpha: float = 0.30

    def validate(self):
        if not (0.0 < self.alpha < 1.0):
            raise PreconditionError("occ.alpha must lie strictly inside (0, 1)")
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
    with np.errstate(over="ignore", invalid="ignore"):
        return CorrelationMap(_correlate(a[channel], b[channel]))


def correlation_map(f_a, f_b):
    """Correlate two feature maps and average across channels per cell."""
    a, b = _pair(f_a, f_b)
    # CorrelationMap refuses an overflow's inf or nan with its own message,
    # so numpy's warnings would only print source lines before it.
    with np.errstate(over="ignore", invalid="ignore"):
        return CorrelationMap(_correlate(a, b).mean(axis=0))


def occluded_cells(cmap):
    """Flag every cell strictly below the map's own mean."""
    return OcclusionMask(cmap.grid < cmap.grid.mean())


def is_occluded(mask, config=OcclusionConfig()):
    """A proposal is occluded when flagged cells exceed the alpha fraction."""
    config.validate()
    return mask.fraction() > config.alpha


def completion_mask(cmap):
    """Cells to overwrite during completion: the below-mean cells.

    A name of its own, so the benchmark's tracer can time the mask step.
    """
    return occluded_cells(cmap)


@dataclass
class Analysis:
    """What the occlusion step finds for one proposal."""

    prototype: object
    cmap: CorrelationMap
    mask: OcclusionMask
    occluded: bool


def analyze(features, scale, bank, config):
    """Match, correlate and mask one proposal, and give its verdict.

    The reference is the prototype nearest in scale. Since ``alpha`` is
    positive, an occluded verdict always comes with a non-empty mask.
    """
    proto = nearest_prototype(bank, float(scale))
    cmap = correlation_map(features, proto.center)
    mask = completion_mask(cmap)
    return Analysis(proto, cmap, mask, is_occluded(mask, config))
