"""Reference synthesis: the proposal generators and the dataset writer as
they were written first, one numpy call per step and one Philox generator
per proposal stream.

`occfill.synth` draws the same values from the same streams more cheaply.
These bodies are the oracle it is compared with byte for byte
(`test_synth.py`); they take an `Rng` stream and draw through `rng.gen`.
"""

import json
import struct

import numpy as np

from occfill import synth
from occfill.eval import SUBSETS, in_subset
from occfill.ndnum import Rng, sigmoid
from occfill.synth import (BACKGROUND, BG_AMP_ALIGNED, BG_AMP_STRONG,
                           BG_AMP_WEAK, BG_STRONG_FRAC, CELL_DROPOUT,
                           DATASET_MAGIC, DATASET_VERSION, DROPOUT_SCALE,
                           MASK_MAX_FRACTION, MASK_MIN_FRACTION, MASK_PATTERNS,
                           MIN_SCALE, PART_NAMES, PEDESTRIAN, SCALE_NORM,
                           OcclusionMask, PreconditionError, Proposal,
                           ShapeMismatchError, gen_world)

_LABEL_CODE = {BACKGROUND: 0, PEDESTRIAN: 1}


def _freeze(arr):
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    arr.flags.writeable = False
    return arr


def sample_scale(rng):
    means = np.array(synth.SCALE_MEANS)
    stds = np.array(synth.SCALE_STDS)
    weights = np.array(synth.SCALE_WEIGHTS)
    for _ in range(synth.MAX_SCALE_DRAWS):
        comp = int(rng.gen.choice(len(means), p=weights))
        if comp == 0:
            s = means[0] + stds[0] * rng.gen.normal()
        else:
            floor = 0.5 * (means[comp - 1] + means[comp]) + 0.01 * means[comp]
            body = means[comp] - floor
            var_log = np.log1p((stds[comp] / body) ** 2)
            mu_log = np.log(body) - 0.5 * var_log
            s = floor + np.exp(mu_log + np.sqrt(var_log) * rng.gen.normal())
        if MIN_SCALE <= s <= means[comp] + synth.SCALE_CEILING_STDS * stds[comp]:
            return float(s)
    raise PreconditionError("no pedestrian height accepted")


def _identity_field(world, rng):
    c, x, y = world.dims
    field = world.templates[world.part_grid]
    field = np.moveaxis(field, -1, 0).astype(np.float64)
    sigma = world.config.sigma_id
    if sigma > 0:
        field = field + rng.gen.normal(size=(c, x, y)) * sigma
        n = x * y
        extra = int(np.sum(rng.gen.random(n - 1) < CELL_DROPOUT))
        cells = rng.gen.choice(n, size=1 + extra, replace=False)
        w = np.ones(n)
        w[cells] = DROPOUT_SCALE
        field = field * w.reshape(x, y)[None, :, :]
    return field


def detector_score(label, visibility, rng):
    if label == PEDESTRIAN:
        logit = (synth.SCORE_VIS_GAIN * visibility + synth.SCORE_VIS_BIAS
                 + synth.SCORE_PED_NOISE * rng.gen.normal())
    else:
        logit = synth.SCORE_BG_BIAS + synth.SCORE_BG_NOISE * rng.gen.normal()
    return float(sigmoid(np.array(logit)))


def gen_pedestrian(world, scale, rng, pid=0):
    s = scale / SCALE_NORM
    feats = s * _identity_field(world, rng)
    score = detector_score(PEDESTRIAN, 1.0, rng)
    return Proposal(pid, PEDESTRIAN, float(scale), _freeze(feats), score).validate()


def sample_mask(world, pattern, rng):
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
        else:
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
    raise PreconditionError(f"could not draw a {pattern} mask")


def draw_occluder_template(world, rng):
    idx = int(rng.gen.integers(0, world.spare_templates.shape[0]))
    sign = -1.0 if rng.gen.random() < 0.5 else 1.0
    return sign * world.spare_templates[idx]


def gen_occluded(world, base, mask, occluder, rng):
    c, gx, gy = world.dims
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


def bg_cell_draw(parts, rng, n_aligned):
    """One background permutation attempt, its swap-away set recomputed on
    every iteration; None when the swap search stalls."""
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
    for t in range(synth.BG_SWAPS):
        bad = rest[parts[src[rest]] == parts[rest]]
        if bad.size == 0:
            return src
        i = bad[0]
        j = rest[int(rng.gen.integers(0, rest.size))]
        if parts[src[j]] != parts[i] and parts[src[i]] != parts[j]:
            src[i], src[j] = src[j], src[i]
        elif not ((parts[src[rest]] != parts[i])
                  & (parts[rest] != parts[src[i]])).any():
            rng.gen.integers(0, rest.size, size=synth.BG_SWAPS - 1 - t)
            return None
    return None


def gen_background(world, rng, pid=0):
    sigma_id = world.config.sigma_id
    c, gx, gy = world.dims
    n = gx * gy
    n_aligned = int(rng.gen.integers(3, 5))
    parts = world.part_grid.reshape(-1)
    for _ in range(synth.MAX_BG_DRAWS):
        src = bg_cell_draw(parts, rng, n_aligned)
        if src is not None:
            break
    else:
        raise PreconditionError("could not derange background cells")
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


def write_dataset(proposals, path, dims):
    c, x, y = dims
    with open(path, "wb") as fh:
        fh.write(DATASET_MAGIC)
        fh.write(struct.pack("<IIIII", DATASET_VERSION, len(proposals), c, x, y))
        for p in proposals:
            if p.features.shape != tuple(dims):
                raise ShapeMismatchError("dataset features", p.features, dims)
            fh.write(struct.pack("<QBdddB", p.id, _LABEL_CODE[p.label],
                                 p.scale, p.score, p.visibility,
                                 0 if p.true_mask is None else 1))
            if p.true_mask is not None:
                fh.write(p.true_mask.grid.astype(np.uint8).tobytes())
            fh.write(p.features.astype("<f8").tobytes())


def synthesize(config, out):
    """`cli.synthesize` drawn through the reference generators: the same
    labelled streams, one Philox generator set up per proposal."""
    world = gen_world(config.world, config.seed)
    root = Rng(config.seed)
    data = config.data

    def pedestrians(rng, n, start_id, occlude):
        drawn = []
        for i in range(n):
            pr = rng.split(f"p{i}")
            base = gen_pedestrian(world, sample_scale(pr), pr, pid=start_id + i)
            if occlude == "always" or (occlude == "half" and i % 2 == 1):
                pattern = MASK_PATTERNS[int(pr.gen.integers(0, len(MASK_PATTERNS)))]
                mask = sample_mask(world, pattern, pr)
                kind = "object" if pr.gen.random() < 0.5 else "pedestrian"
                base = gen_occluded(world, base, mask, kind, pr)
            drawn.append(base)
        return drawn

    def backgrounds(rng, n, start_id):
        return [gen_background(world, rng.split(f"p{i}"), pid=start_id + i)
                for i in range(n)]

    train = pedestrians(root.split("train-visible"), data.train_visible, 0, "never")
    train += pedestrians(root.split("train-occluded"), data.train_occluded,
                         len(train), "always")
    train += backgrounds(root.split("train-background"), data.train_background,
                         len(train))
    eval_set = pedestrians(root.split("eval-pedestrians"), data.eval_pedestrians,
                           0, "half")
    eval_set += backgrounds(root.split("eval-background"), data.eval_background,
                            len(eval_set))

    def counts(proposals):
        visibility = np.array([p.visibility for p in proposals
                               if p.label == PEDESTRIAN])
        tally = {name: int(in_subset(visibility, name).sum()) for name in SUBSETS}
        tally["pedestrian"] = len(visibility)
        tally["background"] = len(proposals) - len(visibility)
        tally["total"] = len(proposals)
        tally["images"] = -(-len(proposals) // data.proposals_per_image)
        return tally

    manifest = {"seed": config.seed, "dims": list(world.dims),
                "proposals_per_image": data.proposals_per_image}
    for split, proposals in (("train", train), ("eval", eval_set)):
        write_dataset(proposals, out / f"{split}.fcds", world.dims)
        manifest[split] = counts(proposals)
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest
