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

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, PreconditionError, ShapeMismatchError
from .ndnum import Rng, check_finite, sigmoid

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


def sample_scale(rng):
    """Draw a pedestrian height in pixels from the SCALE_* mixture.

    The first component is normal; later components are right-skewed
    (shifted lognormal) with support floored just above the midpoint to
    the previous component's mean. Draws more than 1.5 stated stds
    above a component's mean are rejected, so neighbouring crowds never
    overlap and no single giant dominates a squared-distance clustering.
    After MAX_SCALE_DRAWS rejections in a row the draw fails.
    """
    means = np.array(SCALE_MEANS)
    stds = np.array(SCALE_STDS)
    weights = np.array(SCALE_WEIGHTS)
    for _ in range(MAX_SCALE_DRAWS):
        comp = int(rng.gen.choice(len(means), p=weights))
        if comp == 0:
            s = means[0] + stds[0] * rng.gen.normal()
        else:
            floor = 0.5 * (means[comp - 1] + means[comp]) + 0.01 * means[comp]
            body = means[comp] - floor
            var_log = np.log1p((stds[comp] / body) ** 2)
            mu_log = np.log(body) - 0.5 * var_log
            s = floor + np.exp(mu_log + np.sqrt(var_log) * rng.gen.normal())
        if MIN_SCALE <= s <= means[comp] + SCALE_CEILING_STDS * stds[comp]:
            return float(s)
    raise PreconditionError(f"no pedestrian height accepted in {MAX_SCALE_DRAWS} draws")


def _identity_field(world, rng):
    """Template content plus identity noise for every cell, noise unscaled."""
    c, x, y = world.dims
    field = world.templates[world.part_grid]          # (X, Y, C)
    field = np.moveaxis(field, -1, 0).astype(np.float64)  # (C, X, Y)
    sigma = world.config.sigma_id
    if sigma > 0:
        field = field + rng.gen.normal(size=(c, x, y)) * sigma
        # At least one attenuated cell per sample; the rest Binomial.
        n = x * y
        extra = int(np.sum(rng.gen.random(n - 1) < CELL_DROPOUT))
        cells = rng.gen.choice(n, size=1 + extra, replace=False)
        w = np.ones(n)
        w[cells] = DROPOUT_SCALE
        field = field * w.reshape(x, y)[None, :, :]
    return field


def detector_score(label, visibility, rng):
    """Baseline detector confidence before any completion runs."""
    if label == PEDESTRIAN:
        logit = SCORE_VIS_GAIN * visibility + SCORE_VIS_BIAS + SCORE_PED_NOISE * rng.gen.normal()
    else:
        logit = SCORE_BG_BIAS + SCORE_BG_NOISE * rng.gen.normal()
    return float(sigmoid(np.array(logit)))


def gen_pedestrian(world, scale, rng, pid=0):
    """Fully visible pedestrian at the given pixel height."""
    if scale <= 0:
        raise PreconditionError(f"scale must be positive, got {scale}")
    s = scale / SCALE_NORM
    feats = s * _identity_field(world, rng)
    score = detector_score(PEDESTRIAN, 1.0, rng)
    return Proposal(pid, PEDESTRIAN, float(scale), _freeze(feats), score).validate()


def sample_mask(world, pattern, rng):
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
            cols = gx // 2 + int(rng.gen.integers(0, 2)) if gx % 2 else gx // 2
            grid[:cols, :] = True
        elif pattern == "right-half":
            cols = gx // 2 + int(rng.gen.integers(0, 2)) if gx % 2 else gx // 2
            grid[gx - cols:, :] = True
        elif pattern == "bottom":
            lo = max(1, int(np.ceil(MASK_MIN_FRACTION * gy)))
            hi = max(lo, int(np.floor(MASK_MAX_FRACTION * gy)))
            rows = int(rng.gen.integers(lo, hi + 1))
            grid[:, gy - rows:] = True
        elif pattern == "rect":
            x0 = int(rng.gen.integers(0, gx))
            y0 = int(rng.gen.integers(0, gy))
            w = int(rng.gen.integers(1, gx - x0 + 1))
            h = int(rng.gen.integers(1, gy - y0 + 1))
            grid[x0:x0 + w, y0:y0 + h] = True
        else:  # person-shape: another body's part regions, shifted onto the grid
            n_parts = int(rng.gen.integers(2, 5))
            parts = rng.gen.choice(len(PART_NAMES), size=n_parts, replace=False)
            dx = int(rng.gen.integers(-(gx // 2), gx // 2 + 1))
            dy = int(rng.gen.integers(-(gy // 2), gy // 2 + 1))
            shift = (dx, dy)
            member = np.isin(world.part_grid, parts)
            xs, ys = np.nonzero(member)
            xs, ys = xs + dx, ys + dy
            keep = (xs >= 0) & (xs < gx) & (ys >= 0) & (ys < gy)
            grid[xs[keep], ys[keep]] = True
        frac = grid.sum() / grid.size
        if MASK_MIN_FRACTION <= frac <= MASK_MAX_FRACTION:
            return OcclusionMask(grid, shift)
    raise PreconditionError(f"could not draw a {pattern} mask within "
                            f"[{MASK_MIN_FRACTION}, {MASK_MAX_FRACTION}]")


def draw_occluder_template(world, rng):
    """A template distinct from (and orthogonal to) every part template."""
    idx = int(rng.gen.integers(0, world.spare_templates.shape[0]))
    sign = -1.0 if rng.gen.random() < 0.5 else 1.0
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
                block = block + rng.gen.normal(size=block.shape) * world.config.sigma_id
                drop = rng.gen.random(m.sum()) < CELL_DROPOUT
                block = block * np.where(drop, DROPOUT_SCALE, 1.0)[None, :]
            feats[:, m] = s * block
        else:
            other_scale = base.scale * float(rng.gen.uniform(0.8, 1.25))
            other = gen_pedestrian(world, other_scale, rng)
            if mask.shift is not None:
                dx, dy = mask.shift
            else:
                dx = int(rng.gen.integers(-(gx // 2), gx // 2 + 1))
                dy = int(rng.gen.integers(-(gy // 2), gy // 2 + 1))
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
    from a different part. A draw whose swap search stalls is thrown away
    and redrawn from the same stream, at most MAX_BG_DRAWS times in all.
    """
    parts = world.part_grid.reshape(-1)
    for _ in range(MAX_BG_DRAWS):
        src = _bg_cell_draw(parts, rng, n_aligned)
        if src is not None:
            return src
    raise PreconditionError(
        f"could not derange background cells in {MAX_BG_DRAWS} draws")


def _bg_cell_draw(parts, rng, n_aligned):
    """One attempt of `_bg_cell_permutation`; None when its swap search stalls."""
    n = parts.size
    order = rng.gen.permutation(n)
    aligned, rest = order[:n_aligned], order[n_aligned:]
    src = np.full(n, -1, dtype=np.int64)
    used = np.zeros(n, dtype=bool)
    for a in aligned:
        cand = np.flatnonzero((parts == parts[a]) & ~used)
        pick = cand[int(rng.gen.integers(0, len(cand)))]
        src[a] = pick
        used[pick] = True
    pool = np.flatnonzero(~used)
    src[rest] = pool[rng.gen.permutation(pool.size)]
    # Swap away accidental within-part matches among the rest.
    for t in range(BG_SWAPS):
        bad = rest[parts[src[rest]] == parts[rest]]
        if bad.size == 0:
            return src
        i = bad[0]
        j = rest[int(rng.gen.integers(0, rest.size))]
        if parts[src[j]] != parts[i] and parts[src[i]] != parts[j]:
            src[i], src[j] = src[j], src[i]
        elif not ((parts[src[rest]] != parts[i])
                  & (parts[rest] != parts[src[i]])).any():
            # No cell of the rest can ever trade with i, so src stays as it
            # is. Make the draws the remaining swaps would, so the stream
            # moves on exactly as if they had run, and give up now.
            rng.gen.integers(0, rest.size, size=BG_SWAPS - 1 - t)
            return None
    return None


def gen_background(world, rng, pid=0):
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
    n_aligned = int(rng.gen.integers(3, 5))
    src = _bg_cell_permutation(world, rng, n_aligned)
    parts = world.part_grid.reshape(-1)
    src_parts = parts[src]
    field = world.templates[src_parts].T.reshape(c, gx, gy).astype(np.float64)
    if sigma_id > 0:
        field = field + rng.gen.normal(size=(c, gx, gy)) * (3.0 * sigma_id)
    amp = np.where(rng.gen.random(n) < BG_STRONG_FRAC,
                   rng.gen.uniform(*BG_AMP_STRONG, size=n),
                   rng.gen.uniform(*BG_AMP_WEAK, size=n))
    aligned = src_parts == parts
    amp[aligned] = rng.gen.uniform(*BG_AMP_ALIGNED, size=int(aligned.sum()))
    field = field * amp.reshape(gx, gy)[None, :, :]
    scale = sample_scale(rng)
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
        """A read-only float64 array of `shape`; every value must be finite.

        It is a view of the file's bytes, so a parsed file is held once."""
        start, count = self.pos, math.prod(shape)
        self.need(8 * count, what)
        arr = np.frombuffer(self.data, "<f8", count, start).reshape(shape)
        if not np.isfinite(arr).all():
            raise FormatError(start, f"non-finite value in {what}")
        self.pos += 8 * count
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
        if not 0 < scale < math.inf:
            raise FormatError(at + 9, f"scale {scale} is not positive and finite")
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
