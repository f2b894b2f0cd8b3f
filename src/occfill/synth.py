"""Synthetic pedestrian feature world.

A proposal is a C-channel feature map on an X by Y grid of pooled cells.
Every cell belongs to one body part (head, torso, arms, legs) and carries
that part's template vector, scaled by the pedestrian's size and perturbed
by identity noise. Part templates are mutually orthogonal sign vectors, so
the product of two features at an aligned cell is large and positive while
misaligned or occluded cells average out to a visibly lower value. That
separation is what the downstream correlation test relies on, and it is
exact when noise is switched off.

Occluded samples are built by stamping a mask over a fully visible sample
and replacing the masked cells with occluder content, either a distinct
orthogonal template (an object) or cells borrowed from a second, shifted
pedestrian. Background proposals scatter the same part templates across
randomly permuted cells with inflated noise and bimodal cell magnitudes:
part-like content, aligned only by accident at a handful of cells.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import FormatError, PreconditionError, ShapeMismatchError
from .ndnum import Rng, check_finite, sigmoid

PEDESTRIAN = "pedestrian"
BACKGROUND = "background"

# Feature magnitudes are expressed relative to this reference height so the
# third mixture component sits near 1.0.
SCALE_NORM = 181.0

MIN_SCALE = 8.0
# A scale draw is rejected above this many stated stds over its component's
# mean.
SCALE_CEILING_STDS = 1.5
# Redraw budgets of the rejection loops, past which a draw fails instead of
# spinning. At 9 channels, seeds 0-39 need at most 259,163 draws for one
# template; the default scale mixture rejects about one draw in fifteen.
MAX_TEMPLATE_DRAWS = 1_000_000
MAX_SCALE_DRAWS = 100_000

PART_NAMES = ("head", "torso", "left_arm", "right_arm", "left_leg", "right_leg")

MASK_PATTERNS = ("left-half", "right-half", "bottom", "rect", "person-shape")

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
    # Per-cell attenuation: every pedestrian sample has at least one cell,
    # plus a Binomial(cells-1, cell_dropout) extra, multiplied by
    # dropout_scale, standing in for weak pooling at part boundaries.
    # Active only when sigma_id > 0, so a zero-noise world is fully
    # deterministic.
    cell_dropout: float = 0.015
    dropout_scale: float = 0.25
    # Background clutter cells carry no coherent object scale. A minority of
    # cells respond strongly (hard edges), the rest weakly, and the few
    # accidentally part-aligned cells sit in between.
    bg_amp_weak: tuple = (0.45, 0.7)
    bg_amp_strong: tuple = (1.05, 1.35)
    bg_amp_aligned: tuple = (0.8, 1.0)
    bg_strong_frac: float = 0.3
    scale_means: tuple = (64.0, 105.0, 181.0, 340.0)
    scale_stds: tuple = (9.44, 19.33, 36.62, 131.33)
    scale_weights: tuple = (0.40, 0.35, 0.20, 0.05)
    seed: int = 0

    def validate(self):
        # Seven channels would fit the parts, but the redraw loop in
        # _draw_templates never finds ten templates that far apart in R^7.
        if self.channels < len(PART_NAMES) + 2:
            raise PreconditionError(
                f"need at least {len(PART_NAMES) + 2} channels, got {self.channels}")
        if self.grid_x < 2 or self.grid_y < 2:
            raise PreconditionError("grid must be at least 2x2")
        if self.sigma_id < 0:
            raise PreconditionError("sigma_id must be non-negative")
        if not (0.0 <= self.cell_dropout < 1.0):
            raise PreconditionError("cell_dropout must lie in [0, 1)")
        for name in ("bg_amp_weak", "bg_amp_strong", "bg_amp_aligned"):
            lo, hi = getattr(self, name)
            if not (0.0 < lo <= hi):
                raise PreconditionError(f"{name} must satisfy 0 < lo <= hi")
        if not (0.0 <= self.bg_strong_frac <= 1.0):
            raise PreconditionError("bg_strong_frac must lie in [0, 1]")
        k = len(self.scale_means)
        if len(self.scale_stds) != k or len(self.scale_weights) != k:
            raise PreconditionError("scale mixture fields must have equal length")
        if any(m <= 0 for m in self.scale_means) or any(s < 0 for s in self.scale_stds):
            raise PreconditionError("scale means must be positive, stds non-negative")
        w = np.array(self.scale_weights, dtype=np.float64)
        if (w < 0).any() or abs(w.sum() - 1.0) > 1e-9:
            raise PreconditionError("scale weights must be non-negative and sum to 1")
        for k, (m, s, wk) in enumerate(zip(self.scale_means, self.scale_stds, w)):
            ceiling = m + SCALE_CEILING_STDS * s
            if wk > 0 and ceiling < MIN_SCALE:
                raise PreconditionError(
                    f"scale component {k} accepts no height: its ceiling "
                    f"{ceiling} lies below the minimum {MIN_SCALE}")
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
    templates: np.ndarray       # (n_parts, C), mutually orthogonal sign rows
    spare_templates: np.ndarray  # (n_spare, C), occluder pool, orthogonal to parts

    @property
    def n_parts(self):
        return self.templates.shape[0]

    @property
    def dims(self):
        c = self.config
        return (c.channels, c.grid_x, c.grid_y)


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
        return int(self.grid.sum())

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
        if self.scale <= 0:
            raise PreconditionError("scale must be positive")
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
    """Orthogonal sign templates for parts plus a spare pool for occluders.

    When the channel count is a power of two the rows of a sign-flipped,
    permuted Hadamard matrix give exactly orthogonal unit-magnitude rows.
    Otherwise unit-norm Gaussian rows are drawn with a redraw loop, which
    gives up after MAX_TEMPLATE_DRAWS draws for one row. Either way any
    template pair ends up with cosine similarity well under 0.9.
    """
    c = config.channels
    n_parts = len(PART_NAMES)
    if c & (c - 1) == 0:
        h = _hadamard(c)
        signs = np.where(rng.random(c) < 0.5, -1.0, 1.0)
        cols = rng.permutation(c)
        rows = rng.permutation(c)
        h = (h * signs)[:, cols][rows]
        parts = h[:n_parts]
        spare = h[n_parts:]
    else:
        def draw(existing):
            for _ in range(MAX_TEMPLATE_DRAWS):
                v = rng.normal(c)
                v = v / np.linalg.norm(v) * np.sqrt(c)
                if all(abs(v @ e) / c <= 0.3 for e in existing):
                    return v
            raise PreconditionError(
                f"no template {len(existing)} within |cos| <= 0.3 of the others "
                f"after {MAX_TEMPLATE_DRAWS} draws in {c} channels")
        pool = []
        for _ in range(n_parts + max(4, c - n_parts)):
            pool.append(draw(pool))
        parts = np.array(pool[:n_parts])
        spare = np.array(pool[n_parts:])
    _assert_non_collinear(parts)
    return _freeze(parts), _freeze(spare)


def _assert_non_collinear(templates, limit=0.9):
    t = np.asarray(templates)
    norms = np.linalg.norm(t, axis=1)
    cos = (t @ t.T) / np.outer(norms, norms)
    np.fill_diagonal(cos, 0.0)
    if np.abs(cos).max() > limit:
        raise PreconditionError("template pair too collinear")


def gen_world(config):
    """Materialize templates and the part layout for a config."""
    config.validate()
    rng = Rng(config.seed).split("world")
    part_grid = default_part_grid(config.grid_x, config.grid_y)
    templates, spare = _draw_templates(config, rng)
    return World(config, part_grid, templates, spare)


def sample_scale(world, rng):
    """Draw a pedestrian height in pixels from the world's mixture.

    The first component is normal; later components are right-skewed
    (shifted lognormal) with support floored just above the midpoint to
    the previous component's mean. Draws more than 1.5 stated stds
    above a component's mean are rejected, so neighbouring crowds never
    overlap and no single giant dominates a squared-distance clustering.
    After MAX_SCALE_DRAWS rejections in a row the draw fails.
    """
    cfg = world.config
    means = np.array(cfg.scale_means)
    stds = np.array(cfg.scale_stds)
    weights = np.array(cfg.scale_weights)
    for _ in range(MAX_SCALE_DRAWS):
        comp = int(rng.choice(len(means), p=weights))
        if comp == 0:
            s = means[0] + stds[0] * rng.normal()
        else:
            floor = 0.5 * (means[comp - 1] + means[comp]) + 0.01 * means[comp]
            body = means[comp] - floor
            if body <= 0 or stds[comp] == 0:
                s = means[comp] + stds[comp] * rng.normal()
            else:
                var_log = np.log1p((stds[comp] / body) ** 2)
                mu_log = np.log(body) - 0.5 * var_log
                s = floor + np.exp(mu_log + np.sqrt(var_log) * rng.normal())
        if MIN_SCALE <= s <= means[comp] + SCALE_CEILING_STDS * stds[comp]:
            return float(s)
    raise PreconditionError(f"no pedestrian height accepted in {MAX_SCALE_DRAWS} draws")


def _identity_field(world, rng, noise_mult=1.0):
    """Template content plus identity noise for every cell, noise unscaled."""
    c, x, y = world.dims
    field = world.templates[world.part_grid]          # (X, Y, C)
    field = np.moveaxis(field, -1, 0).astype(np.float64)  # (C, X, Y)
    sigma = world.config.sigma_id * noise_mult
    if world.config.sigma_id > 0:
        field = field + rng.normal((c, x, y)) * sigma
        # At least one attenuated cell per sample; the rest Binomial.
        n = x * y
        extra = int(np.sum(rng.random(n - 1) < world.config.cell_dropout))
        cells = rng.choice(n, size=1 + extra, replace=False)
        w = np.ones(n)
        w[cells] = world.config.dropout_scale
        field = field * w.reshape(x, y)[None, :, :]
    return field


def detector_score(label, visibility, rng):
    """Baseline detector confidence before any completion runs."""
    if label == PEDESTRIAN:
        logit = SCORE_VIS_GAIN * visibility + SCORE_VIS_BIAS + SCORE_PED_NOISE * rng.normal()
    else:
        logit = SCORE_BG_BIAS + SCORE_BG_NOISE * rng.normal()
    return float(sigmoid(np.array(logit)))


def gen_pedestrian(world, scale, rng, pid=0):
    """Fully visible pedestrian at the given pixel height."""
    if scale <= 0:
        raise PreconditionError(f"scale must be positive, got {scale}")
    s = scale / SCALE_NORM
    feats = s * _identity_field(world, rng)
    score = detector_score(PEDESTRIAN, 1.0, rng)
    return Proposal(pid, PEDESTRIAN, float(scale), _freeze(feats), score).validate()


def sample_mask(world, pattern, rng, min_fraction=0.2, max_fraction=0.8):
    """Draw an occlusion mask of the requested pattern.

    All patterns are rejection-sampled until the masked fraction lies within
    [min_fraction, max_fraction].
    """
    if pattern not in MASK_PATTERNS:
        raise PreconditionError(f"unknown mask pattern {pattern!r}")
    if not (0.0 < min_fraction <= max_fraction < 1.0):
        raise PreconditionError("mask fraction bounds must satisfy 0 < lo <= hi < 1")
    gx, gy = world.config.grid_x, world.config.grid_y
    for _ in range(1000):
        grid = np.zeros((gx, gy), dtype=bool)
        shift = None
        if pattern == "left-half":
            cols = gx // 2 + int(rng.integers(0, 2)) if gx % 2 else gx // 2
            grid[:cols, :] = True
        elif pattern == "right-half":
            cols = gx // 2 + int(rng.integers(0, 2)) if gx % 2 else gx // 2
            grid[gx - cols:, :] = True
        elif pattern == "bottom":
            lo = max(1, int(np.ceil(min_fraction * gy)))
            hi = max(lo, int(np.floor(max_fraction * gy)))
            rows = int(rng.integers(lo, hi + 1))
            grid[:, gy - rows:] = True
        elif pattern == "rect":
            x0 = int(rng.integers(0, gx))
            y0 = int(rng.integers(0, gy))
            w = int(rng.integers(1, gx - x0 + 1))
            h = int(rng.integers(1, gy - y0 + 1))
            grid[x0:x0 + w, y0:y0 + h] = True
        else:  # person-shape: another body's part regions, shifted onto the grid
            n_parts = int(rng.integers(2, 5))
            parts = rng.choice(len(PART_NAMES), size=n_parts, replace=False)
            dx = int(rng.integers(-(gx // 2), gx // 2 + 1))
            dy = int(rng.integers(-(gy // 2), gy // 2 + 1))
            shift = (dx, dy)
            member = np.isin(world.part_grid, parts)
            xs, ys = np.nonzero(member)
            xs, ys = xs + dx, ys + dy
            keep = (xs >= 0) & (xs < gx) & (ys >= 0) & (ys < gy)
            grid[xs[keep], ys[keep]] = True
        frac = grid.sum() / grid.size
        if min_fraction <= frac <= max_fraction:
            return OcclusionMask(grid, shift)
    raise PreconditionError(
        f"could not draw a {pattern} mask within [{min_fraction}, {max_fraction}]")


def draw_occluder_template(world, rng):
    """A template distinct from (and orthogonal to) every part template."""
    idx = int(rng.integers(0, world.spare_templates.shape[0]))
    sign = -1.0 if rng.random() < 0.5 else 1.0
    return sign * world.spare_templates[idx]


def gen_occluded(world, base, mask, occluder, rng):
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
    if m.any():
        if occluder == "object":
            template = draw_occluder_template(world, rng)
            s = base.scale / SCALE_NORM
            block = np.repeat(template[:, None], m.sum(), axis=1)
            if world.config.sigma_id > 0:
                block = block + rng.normal(block.shape) * world.config.sigma_id
                drop = rng.random(m.sum()) < world.config.cell_dropout
                block = block * np.where(drop, world.config.dropout_scale, 1.0)[None, :]
            feats[:, m] = s * block
        else:
            other_scale = base.scale * float(rng.uniform(0.8, 1.25))
            other = gen_pedestrian(world, other_scale, rng)
            if mask.shift is not None:
                dx, dy = mask.shift
            else:
                dx = int(rng.integers(-(gx // 2), gx // 2 + 1))
                dy = int(rng.integers(-(gy // 2), gy // 2 + 1))
            xs, ys = np.nonzero(m)
            feats[:, xs, ys] = other.features[:, (xs - dx) % gx, (ys - dy) % gy]

    visibility = 1.0 - mask.fraction()
    score = detector_score(PEDESTRIAN, visibility, rng)
    return Proposal(base.id, PEDESTRIAN, base.scale, _freeze(feats), score,
                    visibility=visibility, true_mask=mask).validate()


def _bg_cell_permutation(world, rng, n_aligned):
    """Random cell permutation with exactly n_aligned within-part fixtures.

    Returns src such that cell i shows the template of cell src[i]; exactly
    n_aligned cells draw their source from their own part, every other cell
    from a different part.
    """
    parts = world.part_grid.reshape(-1)
    n = parts.size
    for _ in range(1000):
        order = rng.permutation(n)
        aligned, rest = order[:n_aligned], order[n_aligned:]
        counts = np.bincount(parts[aligned], minlength=parts.max() + 1)
        if (counts <= np.bincount(parts, minlength=parts.max() + 1)).all():
            break
    else:  # pragma: no cover - astronomically unlikely with small n_aligned
        raise PreconditionError("could not place aligned cells")
    src = np.full(n, -1, dtype=np.int64)
    used = np.zeros(n, dtype=bool)
    for a in aligned:
        cand = np.flatnonzero((parts == parts[a]) & ~used)
        pick = cand[int(rng.integers(0, len(cand)))]
        src[a] = pick
        used[pick] = True
    pool = np.flatnonzero(~used)
    src[rest] = pool[rng.permutation(pool.size)]
    # Swap away accidental within-part matches among the rest.
    for _ in range(10000):
        bad = rest[parts[src[rest]] == parts[rest]]
        if bad.size == 0:
            return src
        i = bad[0]
        j = rest[int(rng.integers(0, rest.size))]
        if parts[src[j]] != parts[i] and parts[src[i]] != parts[j]:
            src[i], src[j] = src[j], src[i]
    raise PreconditionError("could not derange background cells")  # pragma: no cover


def gen_background(world, rng, pid=0):
    """Background clutter: part templates at randomly permuted cells.

    Every cell carries the template of a permuted source cell; a handful
    (3 or 4) land on their own part, the rest are forced off it. Noise runs
    at three times the identity level. Cell magnitudes are bimodal: a
    minority of cells respond strongly (hard edges), the rest weakly, the
    accidental alignments in between; clutter has no coherent object scale.
    """
    cfg = world.config
    c, gx, gy = world.dims
    n = gx * gy
    n_aligned = int(rng.integers(3, 5))
    src = _bg_cell_permutation(world, rng, n_aligned)
    parts = world.part_grid.reshape(-1)
    src_parts = parts[src]
    field = world.templates[src_parts].T.reshape(c, gx, gy).astype(np.float64)
    if cfg.sigma_id > 0:
        field = field + rng.normal((c, gx, gy)) * (3.0 * cfg.sigma_id)
    amp = np.where(rng.random(n) < cfg.bg_strong_frac,
                   rng.uniform(*cfg.bg_amp_strong, shape=n),
                   rng.uniform(*cfg.bg_amp_weak, shape=n))
    aligned = src_parts == parts
    amp[aligned] = rng.uniform(*cfg.bg_amp_aligned, shape=int(aligned.sum()))
    field = field * amp.reshape(gx, gy)[None, :, :]
    scale = sample_scale(world, rng)
    feats = (scale / SCALE_NORM) * field
    score = detector_score(BACKGROUND, None, rng)
    return Proposal(pid, BACKGROUND, scale, _freeze(feats), score).validate()


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


def write_dataset(proposals, path, dims=None):
    """Serialize proposals; `dims` (C, X, Y) is required when the list is empty."""
    if proposals:
        dims = proposals[0].features.shape
        for p in proposals:
            p.validate()
            if p.features.shape != dims:
                raise ShapeMismatchError("dataset features", p.features, dims)
    elif dims is None:
        raise PreconditionError("dims (C, X, Y) are required for an empty dataset")
    c, x, y = (int(v) for v in dims)
    if min(c, x, y) < 1:
        raise PreconditionError(f"dataset dims must be positive, got {(c, x, y)}")
    with open(path, "wb") as fh:
        fh.write(DATASET_MAGIC)
        fh.write(struct.pack("<IIIII", DATASET_VERSION, len(proposals), c, x, y))
        for p in proposals:
            fh.write(struct.pack("<QBdddB", p.id, _LABEL_CODE[p.label],
                                 p.scale, p.score, p.visibility,
                                 0 if p.true_mask is None else 1))
            if p.true_mask is not None:
                fh.write(p.true_mask.grid.astype(np.uint8).tobytes())
            fh.write(p.features.astype("<f8").tobytes())


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
        found = self.take(len(magic), "magic")
        if found != magic:
            raise FormatError(0, f"bad magic {found!r}")

    def need(self, count, what):
        """Fail at the current offset unless `count` more bytes remain."""
        if self.pos + count > len(self.data):
            raise FormatError(self.pos, f"truncated {what}")

    def take(self, count, what):
        self.need(count, what)
        chunk = self.data[self.pos:self.pos + count]
        self.pos += count
        return chunk

    def unpack(self, fmt, what):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def floats(self, shape, what):
        """A read-only float64 array of `shape`; every value must be finite."""
        start = self.pos
        arr = np.frombuffer(self.take(8 * math.prod(shape), what),
                            dtype="<f8").reshape(shape)
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
            "<QBdddB", f"proposal {i} header")
        if label_code not in _LABEL_NAME:
            raise FormatError(at + 8, f"bad label byte {label_code}")
        if has_mask not in (0, 1):
            raise FormatError(at + 33, f"bad mask flag {has_mask}")
        mask = None
        if has_mask:
            raw = np.frombuffer(r.take(x * y, f"proposal {i} mask"), dtype=np.uint8)
            bad = np.nonzero((raw != 0) & (raw != 1))[0]
            if bad.size:
                raise FormatError(at + 34 + int(bad[0]), f"bad mask byte {raw[bad[0]]}")
            mask = OcclusionMask(raw.reshape(x, y).astype(bool))
        feats = r.floats((c, x, y), f"proposal {i} features")
        try:
            proposals.append(Proposal(pid, _LABEL_NAME[label_code], scale,
                                      feats, score,
                                      visibility=visibility, true_mask=mask).validate())
        except PreconditionError as exc:
            raise FormatError(at, f"invalid proposal {i}: {exc}") from exc
    r.finish()
    return proposals
