"""Synthetic pedestrian feature world.

A proposal is a C-channel feature map on an X by Y grid of pooled cells.
Every cell belongs to one body part (head, torso, arms, legs) and carries
that part's template vector, scaled by the pedestrian's size and perturbed
by identity noise. Part templates are orthogonal rows of norm sqrt(C), so
the product of two features at an aligned cell is large and positive while
misaligned or occluded cells average out to a visibly lower value. That
separation is what the downstream correlation test relies on, and it is
exact when noise is switched off.

Occluded samples are built by stamping a mask over a fully visible sample
and replacing the masked cells with occluder content, either a distinct
orthogonal row (an object) or cells borrowed from a second, shifted
pedestrian. Background proposals scatter the same part templates across
randomly permuted cells with inflated noise and bimodal cell magnitudes:
part-like content, aligned only by accident at a handful of cells.
"""

from __future__ import annotations

import functools
import math
import struct
from bisect import bisect_right
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .errors import FormatError, PreconditionError, ShapeMismatchError
from .ndnum import Rng, check_finite

PEDESTRIAN = "pedestrian"
BACKGROUND = "background"

# Feature magnitudes are expressed relative to this reference height so the
# third mixture component sits near 1.0.
SCALE_NORM = 181.0

MIN_SCALE = 8.0
# Pedestrian heights in pixels: a four-component mixture of crowds.
SCALE_MEANS = (64.0, 105.0, 181.0, 340.0)
SCALE_STDS = (9.44, 19.33, 36.62, 131.33)
SCALE_WEIGHTS = (0.40, 0.35, 0.20, 0.05)
# A scale draw is rejected above this many stated stds over its component's
# mean.
SCALE_CEILING_STDS = 1.5
# Redraw budget of the scale rejection loop, past which a draw fails instead
# of spinning; the mixture above rejects about one draw in fifteen.
MAX_SCALE_DRAWS = 100_000
# Redraw budget of the background cell permutation, past which it fails. On
# the grids from 2x3 up, seeds 0-999 needed at most 21 draws (3x2).
MAX_BG_DRAWS = 100
# Swap attempts of one background draw before it counts as stalled.
BG_SWAPS = 10_000

PART_NAMES = ("head", "torso", "left_arm", "right_arm", "left_leg", "right_leg")

MASK_PATTERNS = ("left-half", "right-half", "bottom", "rect", "person-shape")
# Every drawn mask covers between these fractions of the grid.
MASK_MIN_FRACTION = 0.2
MASK_MAX_FRACTION = 0.8

# Per-cell attenuation: every pedestrian sample has at least one cell, plus a
# Binomial(cells-1, CELL_DROPOUT) extra, multiplied by DROPOUT_SCALE, standing
# in for weak pooling at part boundaries. Active only when sigma_id > 0, so a
# zero-noise world is fully deterministic.
CELL_DROPOUT = 0.015
DROPOUT_SCALE = 0.25

# Background clutter cells carry no coherent object scale. A minority of
# cells respond strongly (hard edges), the rest weakly, and the few
# accidentally part-aligned cells sit in between; each range is (lo, hi).
BG_AMP_WEAK = (0.45, 0.7)
BG_AMP_STRONG = (1.05, 1.35)
BG_AMP_ALIGNED = (0.8, 1.0)
BG_STRONG_FRAC = 0.3

# Baseline detector score model: a noisy logistic response that degrades
# with occlusion for pedestrians and stays low, with an overlapping upper
# tail, for background clutter.
SCORE_VIS_GAIN = 3.8
SCORE_VIS_BIAS = -1.6
SCORE_PED_NOISE = 0.4
SCORE_BG_BIAS = -1.0
SCORE_BG_NOISE = 0.8


@dataclass(frozen=True)
class WorldConfig:
    """Generative parameters of the synthetic world."""

    channels: int = 16
    grid_x: int = 7
    grid_y: int = 7
    sigma_id: float = 0.05

    def validate(self):
        # One channel per part template plus at least one occluder template.
        if self.channels < len(PART_NAMES) + 1:
            raise PreconditionError(
                f"world.channels: need at least {len(PART_NAMES) + 1} channels, "
                f"got {self.channels}")
        if self.grid_x < 2 or self.grid_y < 2:
            raise PreconditionError("world.grid_x and world.grid_y must be >= 2")
        # Background clutter keeps 3 or 4 cells on their own part and moves
        # every other cell off it; with 3 kept, the last cell of a 2x2 grid
        # has no source outside its own part.
        if self.grid_x * self.grid_y < 5:
            raise PreconditionError(
                "world.grid_x x world.grid_y must hold at least 5 cells: a 2x2 "
                "grid cannot place background clutter off its parts")
        # NaN fails every comparison: the `sigma_id > 0` tests downstream
        # would silently draw a noise-free world.
        if not (self.sigma_id >= 0 and math.isfinite(self.sigma_id)):
            raise PreconditionError(
                f"world.sigma_id must be finite and non-negative, got {self.sigma_id}")
        return self


def default_part_grid(grid_x, grid_y):
    """Part id per cell; axis 0 runs left to right, axis 1 top to bottom."""
    grid = np.empty((grid_x, grid_y), dtype=np.int64)
    head_rows = max(1, grid_y // 7)
    leg_rows = max(1, (grid_y - head_rows) // 2)
    torso_top = head_rows
    leg_top = grid_y - leg_rows
    arm_w = max(1, grid_x // 4)
    for x in range(grid_x):
        for y in range(grid_y):
            if y < torso_top:
                part = 0  # head
            elif y < leg_top:
                if x < arm_w:
                    part = 2  # left arm
                elif x >= grid_x - arm_w:
                    part = 3  # right arm
                else:
                    part = 1  # torso
            else:
                part = 4 if x < (grid_x + 1) // 2 else 5  # legs
            grid[x, y] = part
    return grid


@dataclass
class World:
    config: WorldConfig
    part_grid: np.ndarray       # (X, Y) int, part id per cell
    templates: np.ndarray       # (n_parts, C), orthogonal rows of norm sqrt(C)
    spare_templates: np.ndarray  # (C - n_parts, C), occluder pool, orthogonal to parts

    @property
    def dims(self):
        c = self.config
        return (c.channels, c.grid_x, c.grid_y)

    @functools.cached_property
    def field(self):
        """(C, X, Y) read-only: every cell's part template, the noise-free
        pedestrian at SCALE_NORM."""
        return _freeze(np.moveaxis(self.templates[self.part_grid], -1, 0))

    @functools.cached_property
    def cell_parts(self):
        """Part id of every cell of the flattened grid, as a tuple of ints."""
        return tuple(self.part_grid.reshape(-1).tolist())

    @functools.cached_property
    def part_cells(self):
        """Per part id, the flat indices of its cells in ascending order."""
        return tuple(tuple(k for k, p in enumerate(self.cell_parts) if p == part)
                     for part in range(len(PART_NAMES)))


@dataclass
class OcclusionMask:
    """Binary cell mask; True marks occluded cells.

    `shift` records the displacement the mask was cut out with, when it came
    from a person-shaped cutout, so pedestrian occluders can reuse it.
    """

    grid: np.ndarray
    shift: tuple | None = None

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=bool)
        if self.grid.ndim != 2:
            raise PreconditionError("mask grid must be 2-d")

    @property
    def count(self):
        return int(np.count_nonzero(self.grid))

    def fraction(self):
        return self.count / self.grid.size


@dataclass
class Proposal:
    id: int
    label: str
    scale: float
    features: np.ndarray        # (C, X, Y) float64, read-only
    score: float
    visibility: float = 1.0
    true_mask: OcclusionMask | None = None

    def validate(self):
        if self.label not in (PEDESTRIAN, BACKGROUND):
            raise PreconditionError(f"unknown label {self.label!r}")
        if not 0 < self.scale < math.inf:
            raise PreconditionError("scale must be positive and finite")
        if not (0.0 <= self.score <= 1.0):
            raise PreconditionError("score must lie in [0, 1]")
        if not (0.0 <= self.visibility <= 1.0):
            raise PreconditionError("visibility must lie in [0, 1]")
        if self.features.ndim != 3:
            raise PreconditionError("features must be (channels, x, y)")
        check_finite(self.features, "proposal features")
        if self.label == BACKGROUND and self.true_mask is not None:
            raise PreconditionError("background proposals carry no true mask")
        if self.true_mask is not None:
            expect = 1.0 - self.true_mask.fraction()
            if abs(expect - self.visibility) > 1e-9:
                raise PreconditionError(
                    f"visibility {self.visibility} inconsistent with mask ({expect})")
        return self


def _freeze(arr):
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    arr.flags.writeable = False
    return arr


def _hadamard(n):
    h = np.array([[1.0]])
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    return h


def _draw_templates(config, rng):
    """Orthogonal templates for the parts plus a spare pool for occluders.

    The basis is c orthogonal rows of norm sqrt(c): the Hadamard matrix, all
    of whose entries are +-1, when the channel count c is a power of two, and
    otherwise sqrt(c) times the Q of a QR of a Gaussian matrix drawn from a
    child stream. Its columns are sign-flipped and permuted and its rows
    permuted; the first len(PART_NAMES) rows are the part templates, the
    other c - len(PART_NAMES) the spares.
    """
    c = config.channels
    if c & (c - 1) == 0:
        basis = _hadamard(c)
    else:
        q, _ = np.linalg.qr(rng.split("basis").gen.normal(size=(c, c)))
        basis = np.sqrt(c) * q
    signs = np.where(rng.gen.random(c) < 0.5, -1.0, 1.0)
    cols = rng.gen.permutation(c)
    rows = rng.gen.permutation(c)
    basis = (basis * signs)[:, cols][rows]
    n_parts = len(PART_NAMES)
    return _freeze(basis[:n_parts]), _freeze(basis[n_parts:])


def gen_world(config, seed):
    """Materialize templates and the part layout for a config and seed."""
    config.validate()
    rng = Rng(seed).split("world")
    part_grid = default_part_grid(config.grid_x, config.grid_y)
    templates, spare = _draw_templates(config, rng)
    return World(config, part_grid, templates, spare)


@functools.lru_cache(maxsize=None)
def _scale_mixture(means, stds, weights):
    """(cdf, components) of a SCALE_* mixture, worked out once.

    ``cdf`` is the running sum of the weights over its last value, the
    table `Generator.choice(p=weights)` searches. Each component is
    (floor, location, spread, ceiling): the first draws location +
    spread * z, and floor is None; a later one draws floor + exp(location
    + spread * z), the shifted lognormal of `sample_scale`.
    """
    means, stds = np.array(means), np.array(stds)
    cdf = np.array(weights, dtype=np.float64).cumsum()
    cdf /= cdf[-1]
    components = [(None, float(means[0]), float(stds[0]),
                   float(means[0] + SCALE_CEILING_STDS * stds[0]))]
    for comp in range(1, len(means)):
        floor = 0.5 * (means[comp - 1] + means[comp]) + 0.01 * means[comp]
        body = means[comp] - floor
        var_log = np.log1p((stds[comp] / body) ** 2)
        mu_log = np.log(body) - 0.5 * var_log
        components.append((float(floor), float(mu_log), float(np.sqrt(var_log)),
                           float(means[comp] + SCALE_CEILING_STDS * stds[comp])))
    return tuple(cdf.tolist()), tuple(components)


def sample_scale(gen):
    """Draw a pedestrian height in pixels from the SCALE_* mixture.

    The first component is normal; later components are right-skewed
    (shifted lognormal) with support floored just above the midpoint to
    the previous component's mean. Draws more than 1.5 stated stds
    above a component's mean are rejected, so neighbouring crowds never
    overlap and no single giant dominates a squared-distance clustering.
    After MAX_SCALE_DRAWS rejections in a row the draw fails.

    Each attempt draws one uniform, which picks the component as
    ``gen.choice(len(weights), p=weights)`` would from the same draw, then
    one standard normal. The cached table and `bisect_right` pay for
    themselves: a whole draw takes 2.2 µs, `choice(p=...)`'s pick alone
    8.5 µs (2-vCPU x86 host, numpy 2.4.6), about 0.07 s of the
    benchmark's bulk `synth-data`.
    """
    cdf, components = _scale_mixture(SCALE_MEANS, SCALE_STDS, SCALE_WEIGHTS)
    for _ in range(MAX_SCALE_DRAWS):
        floor, loc, spread, ceiling = components[bisect_right(cdf, gen.random())]
        if floor is None:
            s = loc + spread * gen.normal()
        else:
            s = floor + float(np.exp(loc + spread * gen.normal()))
        if MIN_SCALE <= s <= ceiling:
            return float(s)
    raise PreconditionError(f"no pedestrian height accepted in {MAX_SCALE_DRAWS} draws")


def _identity_field(world, gen):
    """Template content plus identity noise for every cell, noise unscaled.

    Without noise it is the world's read-only `World.field`; with noise a
    new (C, X, Y) array. `standard_normal` draws the values
    `normal(0, 1)` would, without its loc + scale * z.
    """
    field = world.field
    sigma = world.config.sigma_id
    if sigma > 0:
        c, x, y = world.dims
        field = gen.standard_normal((c, x, y))
        field *= sigma
        field += world.field
        # At least one attenuated cell per sample; the rest Binomial.
        n = x * y
        extra = int(np.count_nonzero(gen.random(n - 1) < CELL_DROPOUT))
        cells = gen.choice(n, size=1 + extra, replace=False)
        field.reshape(c, n)[:, cells] *= DROPOUT_SCALE
    return field


def detector_score(label, visibility, gen):
    """Baseline detector confidence before any completion runs.

    The logistic is `ndnum.sigmoid`'s stable form on one float: with
    e = exp(-|z|), 1 / (1 + e) for z >= 0 and e / (1 + e) below. Written
    out, a score takes 1.1 µs, through `ndnum.sigmoid` 5.2 µs (2-vCPU x86
    host, numpy 2.4.6), about 0.04 s of the benchmark's bulk `synth-data`.
    """
    if label == PEDESTRIAN:
        logit = SCORE_VIS_GAIN * visibility + SCORE_VIS_BIAS + SCORE_PED_NOISE * gen.normal()
    else:
        logit = SCORE_BG_BIAS + SCORE_BG_NOISE * gen.normal()
    e = float(np.exp(-abs(logit)))
    return 1.0 / (1.0 + e) if logit >= 0 else e / (1.0 + e)


def gen_pedestrian(world, scale, gen, pid=0):
    """Fully visible pedestrian at the given pixel height."""
    if not 0 < scale < math.inf:
        raise PreconditionError(f"scale must be positive and finite, got {scale}")
    feats = (scale / SCALE_NORM) * _identity_field(world, gen)
    score = detector_score(PEDESTRIAN, 1.0, gen)
    return Proposal(pid, PEDESTRIAN, float(scale), _freeze(feats), score)


def sample_mask(world, pattern, gen):
    """Draw an occlusion mask of the requested pattern.

    All patterns are rejection-sampled until the masked fraction lies within
    [MASK_MIN_FRACTION, MASK_MAX_FRACTION].
    """
    if pattern not in MASK_PATTERNS:
        raise PreconditionError(f"unknown mask pattern {pattern!r}")
    gx, gy = world.config.grid_x, world.config.grid_y
    for _ in range(1000):
        grid = np.zeros((gx, gy), dtype=bool)
        shift = None
        if pattern == "left-half":
            cols = gx // 2 + int(gen.integers(0, 2)) if gx % 2 else gx // 2
            grid[:cols, :] = True
        elif pattern == "right-half":
            cols = gx // 2 + int(gen.integers(0, 2)) if gx % 2 else gx // 2
            grid[gx - cols:, :] = True
        elif pattern == "bottom":
            lo = max(1, int(np.ceil(MASK_MIN_FRACTION * gy)))
            hi = max(lo, int(np.floor(MASK_MAX_FRACTION * gy)))
            rows = int(gen.integers(lo, hi + 1))
            grid[:, gy - rows:] = True
        elif pattern == "rect":
            x0 = int(gen.integers(0, gx))
            y0 = int(gen.integers(0, gy))
            w = int(gen.integers(1, gx - x0 + 1))
            h = int(gen.integers(1, gy - y0 + 1))
            grid[x0:x0 + w, y0:y0 + h] = True
        else:  # person-shape: another body's part regions, shifted onto the grid
            n_parts = int(gen.integers(2, 5))
            parts = gen.choice(len(PART_NAMES), size=n_parts, replace=False)
            dx = int(gen.integers(-(gx // 2), gx // 2 + 1))
            dy = int(gen.integers(-(gy // 2), gy // 2 + 1))
            shift = (dx, dy)
            for part in parts:
                for k in world.part_cells[part]:
                    x, y = k // gy + dx, k % gy + dy
                    if 0 <= x < gx and 0 <= y < gy:
                        grid[x, y] = True
        if MASK_MIN_FRACTION <= np.count_nonzero(grid) / grid.size <= MASK_MAX_FRACTION:
            return OcclusionMask(grid, shift)
    raise PreconditionError(f"could not draw a {pattern} mask within "
                            f"[{MASK_MIN_FRACTION}, {MASK_MAX_FRACTION}]")


def draw_occluder_template(world, gen):
    """A template distinct from (and orthogonal to) every part template."""
    idx = int(gen.integers(0, world.spare_templates.shape[0]))
    sign = -1.0 if gen.random() < 0.5 else 1.0
    return sign * world.spare_templates[idx]


def gen_occluded(world, base, mask, occluder, gen):
    """Occlude a fully visible pedestrian under `mask`.

    occluder "object" stamps one distinct template over the masked cells;
    "pedestrian" borrows cells from a second generated pedestrian displaced
    by the mask's shift (or a drawn shift when the mask has none).
    """
    if occluder not in ("object", "pedestrian"):
        raise PreconditionError(f"unknown occluder kind {occluder!r}")
    if base.label != PEDESTRIAN:
        raise PreconditionError("only pedestrians can be occluded")
    if base.true_mask is not None or base.visibility < 1.0:
        raise PreconditionError("base proposal is already occluded")
    c, gx, gy = world.dims
    if mask.grid.shape != (gx, gy):
        raise ShapeMismatchError("mask grid", mask.grid, (gx, gy))

    feats = np.array(base.features, dtype=np.float64)
    m = mask.grid
    covered = int(np.count_nonzero(m))
    if covered:
        if occluder == "object":
            template = draw_occluder_template(world, gen)[:, None]
            if world.config.sigma_id > 0:
                block = gen.standard_normal((c, covered))
                block *= world.config.sigma_id
                block += template
                drop = gen.random(covered) < CELL_DROPOUT
                block[:, drop] *= DROPOUT_SCALE
            else:
                block = np.repeat(template, covered, axis=1)
            block *= base.scale / SCALE_NORM
            feats[:, m] = block
        else:
            other_scale = base.scale * float(gen.uniform(0.8, 1.25))
            other = gen_pedestrian(world, other_scale, gen)
            if mask.shift is not None:
                dx, dy = mask.shift
            else:
                dx = int(gen.integers(-(gx // 2), gx // 2 + 1))
                dy = int(gen.integers(-(gy // 2), gy // 2 + 1))
            xs, ys = np.nonzero(m)
            feats[:, xs, ys] = other.features[:, (xs - dx) % gx, (ys - dy) % gy]

    visibility = 1.0 - mask.fraction()
    score = detector_score(PEDESTRIAN, visibility, gen)
    return Proposal(base.id, PEDESTRIAN, base.scale, _freeze(feats), score,
                    visibility=visibility, true_mask=mask)


def _bg_cell_permutation(world, gen, n_aligned):
    """Random cell permutation with exactly n_aligned within-part fixtures.

    Returns src, a list such that cell i shows the template of cell
    src[i]; exactly n_aligned cells draw their source from their own part,
    every other cell from a different part. A draw whose swap search stalls
    is thrown away and redrawn from the same stream, at most MAX_BG_DRAWS
    times in all.
    """
    for _ in range(MAX_BG_DRAWS):
        src = _bg_cell_draw(world, gen, n_aligned)
        if src is not None:
            return src
    raise PreconditionError(
        f"could not derange background cells in {MAX_BG_DRAWS} draws")


def _bg_cell_draw(world, gen, n_aligned):
    """One attempt of `_bg_cell_permutation`; None when its swap search stalls.

    It runs on Python lists of the cells. The draws are one permutation of
    the cells, one pick among its own part's free cells for each aligned
    cell, a permutation of the free cells onto the rest, and one index
    into the rest per swap attempt, BG_SWAPS of them when it stalls.
    """
    parts = world.cell_parts
    n = len(parts)
    order = gen.permutation(n).tolist()
    aligned, rest = order[:n_aligned], order[n_aligned:]
    src = [-1] * n
    used = [False] * n
    # free[p] counts the cells of part p among the rest, which is also the
    # count among the free sources: each aligned cell takes one of its own.
    free = [len(cells) for cells in world.part_cells]
    for a in aligned:
        cand = [k for k in world.part_cells[parts[a]] if not used[k]]
        pick = cand[int(gen.integers(0, len(cand)))]
        src[a] = pick
        used[pick] = True
        free[parts[a]] -= 1
    pool = [k for k in range(n) if not used[k]]
    for cell, k in zip(rest, gen.permutation(len(pool)).tolist()):
        src[cell] = pool[k]
    # Swap away accidental within-part matches among the rest, always the
    # first one in the order of `rest`. `bad` flags the matches and
    # `matched` counts them per part.
    bad = [parts[src[cell]] == parts[cell] for cell in rest]
    matched = [0] * len(free)
    for cell in compress(rest, bad):
        matched[parts[cell]] += 1
    left = sum(bad)
    for t in range(BG_SWAPS):
        if left == 0:
            return src
        ki = bad.index(True)
        i = rest[ki]
        kj = int(gen.integers(0, len(rest)))
        j = rest[kj]
        p = parts[i]
        if parts[src[j]] != p and p != parts[j]:
            # Both cells now show another part: i gets j's source, of a
            # part other than p, and j gets i's, of part p.
            src[i], src[j] = src[j], src[i]
            bad[ki] = False
            matched[p] -= 1
            left -= 1
            if bad[kj]:
                bad[kj] = False
                matched[parts[j]] -= 1
                left -= 1
        elif len(rest) - 2 * free[p] + matched[p] == 0:
            # Every cell of the rest is of part p or shows it (a swap moves
            # sources only among the rest, so free[p] of them show it), so
            # none can ever trade with i, and src stays as it is. Give up
            # now, with the stream moved on as if every remaining attempt
            # had run: k such attempts draw what `size=k` does.
            gen.integers(0, len(rest), size=BG_SWAPS - t - 1)
            return None
    return None


def gen_background(world, gen, pid=0):
    """Background clutter: part templates at randomly permuted cells.

    Every cell carries the template of a permuted source cell; a handful
    (3 or 4) land on their own part, the rest are forced off it. Noise runs
    at three times the identity level. Cell magnitudes are bimodal: a
    minority of cells respond strongly (hard edges), the rest weakly, the
    accidental alignments in between; clutter has no coherent object scale.
    """
    sigma_id = world.config.sigma_id
    c, gx, gy = world.dims
    n = gx * gy
    n_aligned = int(gen.integers(3, 5))
    src = _bg_cell_permutation(world, gen, n_aligned)
    field = world.field.reshape(c, n)[:, src]
    if sigma_id > 0:
        noise = gen.standard_normal((c, n))
        noise *= 3.0 * sigma_id
        field += noise
    amp = np.where(gen.random(n) < BG_STRONG_FRAC,
                   gen.uniform(*BG_AMP_STRONG, size=n),
                   gen.uniform(*BG_AMP_WEAK, size=n))
    parts = world.cell_parts
    aligned = [k for k in range(n) if parts[src[k]] == parts[k]]
    amp[aligned] = gen.uniform(*BG_AMP_ALIGNED, size=len(aligned))
    field *= amp
    scale = sample_scale(gen)
    field *= scale / SCALE_NORM
    score = detector_score(BACKGROUND, None, gen)
    return Proposal(pid, BACKGROUND, scale, _freeze(field.reshape(c, gx, gy)),
                    score)


# ---------------------------------------------------------------------------
# Dataset serialization. Little-endian throughout. Layout:
#   magic "FCDS" | version u32 | count u32 | C u32 | X u32 | Y u32
# then per proposal:
#   id u64 | label u8 | scale f64 | score f64 | visibility f64 |
#   mask-present u8 | [X*Y mask bytes] | C*X*Y feature f64
# ---------------------------------------------------------------------------

DATASET_MAGIC = b"FCDS"
DATASET_VERSION = 1

_LABEL_CODE = {BACKGROUND: 0, PEDESTRIAN: 1}
_LABEL_NAME = {v: k for k, v in _LABEL_CODE.items()}


_RECORD = struct.Struct("<QBdddB")


def write_dataset(proposals, path, dims=None):
    """Serialize proposals with features of shape `dims` (C, X, Y).

    Without `dims` the first proposal's shape is used, so `dims` is
    required when the list is empty. Every proposal is validated, and its
    features must have that shape, before the file is opened. Each record
    writes the mask's and the features' own bytes, with no copy.
    """
    if dims is None:
        if not proposals:
            raise PreconditionError("dims (C, X, Y) are required for an empty dataset")
        dims = proposals[0].features.shape
    c, x, y = (int(v) for v in dims)
    if min(c, x, y) < 1:
        raise PreconditionError(f"dataset dims must be positive, got {(c, x, y)}")
    for p in proposals:
        p.validate()
        if p.features.shape != (c, x, y):
            raise ShapeMismatchError("dataset features", p.features, (c, x, y))
    # A 1 MiB buffer writes a record of a few KiB in one copy, not one
    # system call per record.
    with open(path, "wb", buffering=1 << 20) as fh:
        fh.write(DATASET_MAGIC)
        fh.write(struct.pack("<IIIII", DATASET_VERSION, len(proposals), c, x, y))
        for p in proposals:
            mask = p.true_mask
            fh.write(_RECORD.pack(p.id, _LABEL_CODE[p.label], p.scale, p.score,
                                  p.visibility, 0 if mask is None else 1))
            if mask is not None:
                # A bool array's bytes are 0 and 1, the file's mask bytes.
                fh.write(np.ascontiguousarray(mask.grid))
            fh.write(np.ascontiguousarray(p.features, dtype="<f8"))


class BinaryReader:
    """Little-endian cursor over the bytes of a .fcds, .fcpb or .fcgd file.

    Every FormatError it raises carries the offset of the field at fault; a
    short read is reported where the missing field starts.
    """

    def __init__(self, path, magic):
        """Read the whole file and check that it starts with `magic`."""
        with open(path, "rb") as fh:
            self.data = fh.read()
        self.pos = 0
        self.need(len(magic), "magic")
        found = self.data[:len(magic)]
        if found != magic:
            raise FormatError(0, f"bad magic {found!r}")
        self.pos = len(magic)

    def need(self, count, what):
        """Fail at the current offset unless `count` more bytes remain."""
        if self.pos + count > len(self.data):
            raise FormatError(self.pos, f"truncated {what}")

    def unpack(self, fmt, what):
        """The fields of struct format `fmt`, unpacked at the cursor."""
        size = struct.calcsize(fmt)
        self.need(size, what)
        values = struct.unpack_from(fmt, self.data, self.pos)
        self.pos += size
        return values

    def array(self, dtype, shape, what):
        """A read-only array of `dtype` and `shape` at the cursor.

        It is a view of the file's bytes, so a parsed file is held once."""
        dtype = np.dtype(dtype)
        count = math.prod(shape)
        self.need(dtype.itemsize * count, what)
        arr = np.frombuffer(self.data, dtype, count, self.pos).reshape(shape)
        self.pos += dtype.itemsize * count
        return arr

    def floats(self, shape, what):
        """A read-only float64 view of `shape`; every value must be finite."""
        start = self.pos
        arr = self.array("<f8", shape, what)
        if not np.isfinite(arr).all():
            raise FormatError(start, f"non-finite value in {what}")
        return arr

    def finish(self):
        """Fail unless every byte has been read."""
        if self.pos != len(self.data):
            raise FormatError(self.pos, f"{len(self.data) - self.pos} trailing bytes")


def read_dataset(path):
    """Parse a dataset file back into proposals; malformed input raises
    FormatError carrying the byte offset of the problem."""
    r = BinaryReader(path, DATASET_MAGIC)
    version, count, c, x, y = r.unpack("<IIIII", "header")
    if version != DATASET_VERSION:
        raise FormatError(4, f"unsupported version {version}")
    for offset, name, dim in ((12, "C", c), (16, "X", x), (20, "Y", y)):
        if dim == 0:
            raise FormatError(offset, f"feature dim {name} is zero")
    proposals = []
    for i in range(count):
        at = r.pos
        pid, label_code, scale, score, visibility, has_mask = r.unpack(
            _RECORD.format, f"proposal {i} header")
        if label_code not in _LABEL_NAME:
            raise FormatError(at + 8, f"bad label byte {label_code}")
        if not 0 < scale < math.inf:
            raise FormatError(at + 9, f"scale {scale} is not positive and finite")
        if has_mask not in (0, 1):
            raise FormatError(at + 33, f"bad mask flag {has_mask}")
        mask = None
        if has_mask:
            raw = r.array(np.uint8, (x, y), f"proposal {i} mask")
            if raw.max() > 1:
                bad = int(np.argmax(raw.reshape(-1) > 1))
                raise FormatError(at + 34 + bad, f"bad mask byte {raw.reshape(-1)[bad]}")
            mask = OcclusionMask(raw.astype(bool))
        feats = r.floats((c, x, y), f"proposal {i} features")
        try:
            proposals.append(Proposal(pid, _LABEL_NAME[label_code], scale,
                                      feats, score,
                                      visibility=visibility, true_mask=mask).validate())
        except PreconditionError as exc:
            raise FormatError(at, f"invalid proposal {i}: {exc}") from exc
    r.finish()
    return proposals
