"""Feature completion for occluded proposals.

Completion runs in two moves. Copy-paste overwrites the cells flagged by
the occlusion mask with the matched prototype's values, which restores
plausible content but leaves a seam between borrowed and original cells.
A small residual generator then refines the whole map: two channel-mixing
dense layers applied identically at every grid cell, added back onto the
input. Zero-initialized second-layer weights make the untrained generator
an exact identity, so training starts from plain copy-paste and learns
only the correction.

The generator trains against a discriminator that scores flattened maps
as visible-looking or not, under the usual two-player objective: the
discriminator ascends log D(visible) + log(1 - D(G(pasted))), the
generator descends log(1 - D(G(pasted))). Training is staged: first on
synthetic occlusions (masks applied to visible samples, compared against
the same sample's original), then on genuinely occluded samples compared
against randomly paired visible ones.

A logistic scoring head rescores flagged proposals from their completed
features. It is fit after adversarial training, on completed features: the
flagged occluded pedestrians against the flagged backgrounds, each completed
by the trained generator.
"""

import logging
import struct
import time
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, PreconditionError, ShapeMismatchError
from .ndnum import (DenseLayer, RekeyedGenerator, check_finite, clamp_prob, relu,
                    sgd_step, sigmoid)
from .occlusion import OcclusionConfig, analyze
# Only analyze calls correlation_map. The name stays bound here because
# bench/test_tracer.py counts its calls by patching it in this module.
from .occlusion import correlation_map  # noqa: F401
from .prototypes import nearest_prototype
from .synth import MASK_PATTERNS, BinaryReader, sample_mask

MODEL_MAGIC = b"FCGD"
MODEL_VERSION = 3
DISC_HIDDEN = 64
# Samples per side of every minibatch, or the smaller pool when one holds fewer.
BATCH_SIZE = 32
MIN_MASK_LIBRARY = 50
# Steps whose minibatch indices are drawn in one go; bounds the index
# memory of a training loop or probe, whatever its iteration count.
PLAN_CHUNK = 256
# Columns per block when the head fit takes the rms of its feature matrix.
HEAD_RMS_BLOCK = 64
# Iterations between two progress lines of adversarial training.
PROGRESS_EVERY = 100

LOG = logging.getLogger(__name__)


class Generator:
    """Residual per-cell refiner; identical channel mixing at every cell."""

    def __init__(self, mix, out):
        if mix.in_dim != mix.out_dim or out.in_dim != out.out_dim:
            raise PreconditionError("generator layers must be square")
        if mix.out_dim != out.in_dim:
            raise ShapeMismatchError("generator chain", (out.in_dim,), (mix.out_dim,))
        if mix.activation != "relu" or out.activation != "identity":
            raise PreconditionError("generator needs relu then identity layers")
        self.mix = mix
        self.out = out

    @classmethod
    def init(cls, channels, rng):
        """Start as an exact identity: zero second-layer weights and bias."""
        mix = DenseLayer.init(channels, channels, rng.split("mix"), "relu")
        out = DenseLayer(np.zeros((channels, channels)), np.zeros(channels), "identity")
        return cls(mix, out)

    @property
    def channels(self):
        return self.mix.in_dim

    def _columns(self, features):
        feats = np.asarray(features, dtype=np.float64)
        if feats.ndim != 4:
            raise PreconditionError("generator input must be a batch (n, c, x, y)")
        c = feats.shape[1]
        if c != self.channels:
            raise ShapeMismatchError("generator input channels", (c,), (self.channels,))
        return feats.swapaxes(0, 1).reshape(c, -1), feats.shape

    def _restore(self, cols, shape):
        return cols.reshape((shape[1], shape[0]) + shape[2:]).swapaxes(0, 1)

    def forward(self, features):
        """Refine a batch (n, c, x, y); one map is a batch of one."""
        cols, shape = self._columns(features)
        residual = self.out.forward(self.mix.forward(cols))
        return self._restore(cols + residual, shape)

    def backward(self, upstream):
        """Parameter gradients for the latest forward; no input gradient is formed."""
        up_cols, _ = self._columns(upstream)
        g_out, d_mid = self.out.backward(up_cols)
        return [*self.mix.param_grads(d_mid), *g_out]

    def params(self):
        return self.mix.params() + self.out.params()


class Discriminator:
    """Flattened feature map -> hidden relu layer -> sigmoid probability."""

    def __init__(self, hidden, readout):
        if hidden.activation != "relu" or readout.activation != "sigmoid":
            raise PreconditionError("discriminator needs relu then sigmoid layers")
        if readout.in_dim != hidden.out_dim or readout.out_dim != 1:
            raise ShapeMismatchError("discriminator chain", (readout.in_dim,), (hidden.out_dim,))
        self.hidden = hidden
        self.readout = readout

    @classmethod
    def init(cls, in_dim, rng, width=DISC_HIDDEN):
        # Zero readout keeps initial probabilities at exactly 0.5, so equal
        # real/fake batches produce cancelling gradients and the generator
        # receives no push until the pools genuinely differ.
        hidden = DenseLayer.init(in_dim, width, rng.split("hidden"), "relu")
        readout = DenseLayer(np.zeros((1, width)), np.zeros(1), "sigmoid")
        return cls(hidden, readout)

    @property
    def in_dim(self):
        return self.hidden.in_dim

    def forward(self, flat):
        """(1, n) probabilities for a (d, n) batch of flattened maps."""
        return self.readout.forward(self.hidden.forward(flat))

    def backward(self, upstream):
        g_read, d_mid = self.readout.backward(upstream)
        g_hidden, d_in = self.hidden.backward(d_mid)
        return [g_hidden[0], g_hidden[1], g_read[0], g_read[1]], d_in

    def input_grad(self, upstream):
        """Gradient wrt the input only; no parameter gradient is formed."""
        return self.hidden.input_grad(self.readout.input_grad(upstream))

    def params(self):
        return self.hidden.params() + self.readout.params()


@dataclass(frozen=True)
class TrainConfig:
    iterations: int = 2000
    learn_rate: float = 2e-3

    def validate(self, section="train"):
        if self.iterations < 0:
            raise PreconditionError(f"{section}.iterations must be non-negative")
        if not (self.learn_rate > 0 and np.isfinite(self.learn_rate)):
            raise PreconditionError(f"{section}.learn_rate must be positive "
                                    f"and finite, got {self.learn_rate}")
        return self


@dataclass
class FeaturePools:
    """Occluded-side and visible-side training features."""

    occluded: np.ndarray
    visible: np.ndarray

    def __post_init__(self):
        self.occluded = np.asarray(self.occluded, dtype=np.float64)
        self.visible = np.asarray(self.visible, dtype=np.float64)

    def validate(self):
        for name, pool in (("occluded", self.occluded), ("visible", self.visible)):
            if pool.ndim != 4:
                raise PreconditionError(f"{name} pool must be (n, c, x, y)")
            if pool.shape[0] == 0:
                raise PreconditionError(f"{name} pool is empty")
            check_finite(pool, f"{name} pool")
        if self.occluded.shape[1:] != self.visible.shape[1:]:
            raise ShapeMismatchError("pool features", self.visible.shape[1:],
                                     self.occluded.shape[1:])
        return self


def copy_paste(f_occ, prototype, mask):
    """Overwrite masked cells (all channels) with the prototype's values."""
    occ = np.asarray(f_occ, dtype=np.float64)
    proto = np.asarray(prototype, dtype=np.float64)
    if occ.shape != proto.shape:
        raise ShapeMismatchError("prototype features", proto, occ.shape)
    if occ.ndim != 3:
        raise PreconditionError("features must be (channels, x, y)")
    if mask.grid.shape != occ.shape[1:]:
        raise ShapeMismatchError("completion mask", mask.grid, occ.shape[1:])
    return np.where(mask.grid[None, :, :], proto, occ)


def adversarial_losses(d_vis, d_gen):
    """Mean two-player objectives from raw probabilities.

    Returns (disc_objective, gen_objective): the discriminator ascends
    log d_vis + log(1 - d_gen); the generator descends log(1 - d_gen).
    Probabilities are clamped away from 0 and 1 before the logs.
    """
    p_vis = clamp_prob(np.asarray(d_vis, dtype=np.float64))
    p_gen = clamp_prob(np.asarray(d_gen, dtype=np.float64))
    gen_term = np.log(1.0 - p_gen)
    disc_obj = float(np.mean(np.log(p_vis) + gen_term))
    gen_obj = float(np.mean(gen_term))
    return disc_obj, gen_obj


def _flatten_batch(batch):
    return batch.reshape(batch.shape[0], -1).T


def _ascent_pass(disc, rows, m):
    """Gradient of mean log D(rows[:m]) + mean log(1 - D(rows[m:])).

    ``rows`` is a (2m, d) matrix of flattened maps, positives first. It goes
    through the discriminator as one batch: one forward and one
    parameter-only backward, with the products and layouts of the
    `DenseLayer` chain (W·rowsᵀ, W_read·h, dz·rows and dz_read·hᵀ), so the
    bits are the chain's. The hidden output and the probabilities are
    checked finite. Returns the (1, 2m) probabilities and the gradients of
    the parameters in `Discriminator.params` order.
    """
    w, b = disc.hidden.weights, disc.hidden.bias
    w_read, b_read = disc.readout.weights, disc.readout.bias
    z = w @ rows.T
    z += b[:, None]
    h = check_finite(relu(z), "discriminator hidden output")
    s = w_read @ h
    s += b_read[:, None]
    p = check_finite(sigmoid(s), "discriminator output")
    dz_read = _ascent_upstream(p, m) * p * (1.0 - p)
    dz = (w_read.T @ dz_read) * (z > 0)
    return p, [dz @ rows, dz.sum(axis=1), dz_read @ h.T, dz_read.sum(axis=1)]


def _ascent_upstream(p, m):
    """Gradient of mean log p[:m] + mean log(1 - p[m:]) wrt p, along the
    last axis, with p clamped away from 0 and 1 as in the losses.

    With c the clamped p: 1 / (m·c) on the first m entries and
    -1 / (m·(1 - c)) on the rest.
    """
    c = clamp_prob(p)
    return np.concatenate([1.0 / (m * c[..., :m]), -1.0 / (m * (1.0 - c[..., m:]))],
                          axis=-1)


def two_way_accuracy(p_pos, p_neg):
    """Share of right calls: p_pos above 0.5 and p_neg below it.

    A tie at p = 0.5 says neither side, so it counts half right: a
    discriminator whose zero readout gives exactly 0.5 reads chance.
    """
    right = (np.sum(p_pos > 0.5) + np.sum(p_neg < 0.5)
             + 0.5 * (np.sum(p_pos == 0.5) + np.sum(p_neg == 0.5)))
    return float(right) / (p_pos.size + p_neg.size)


def minibatch(gen, n, m):
    """m distinct indices below n, drawn uniformly from the numpy generator
    ``gen`` and sorted."""
    return np.sort(gen.choice(n, size=m, replace=False))


def planned(plan, count):
    """Rows of ``plan(first, n)`` for ``count`` steps, PLAN_CHUNK at a time.

    ``plan`` returns arrays whose first axis runs over the steps
    first .. first + n - 1. Each chunk is drawn in one tight loop before
    any of its steps run, and memory stays bounded for any ``count``.
    Drawing ahead is the measured faster layout: drawing each step's
    indices as it runs gives the same bytes but slows the probe from 0.344
    to 0.387 s on the Gram path (350 rows) and from 1.00 to 1.15 s in full
    space (1400 rows), 2-vCPU x86 host, one BLAS thread, median of 7.
    """
    for first in range(0, count, PLAN_CHUNK):
        yield from zip(*plan(first, min(PLAN_CHUNK, count - first)))


def plan_minibatches(rng, first, count, n_occ, n_vis, m, paired):
    """Minibatch indices of training iterations first .. first + count - 1.

    Returns (disc_occ, disc_vis, gen), each (count, m): the discriminator
    step's occluded and visible indices and the generator step's. Iteration
    t draws from stream ``iter-{t}``: the discriminator step takes its
    occluded and then, unless ``paired``, its visible indices from
    ``disc-0``, and the generator step takes its indices from ``gen``. One
    generator is re-keyed to each stream in turn (`RekeyedGenerator`), so
    the draws are those of the streams' own generators.
    """
    disc_occ = np.empty((count, m), dtype=np.int64)
    disc_vis = disc_occ if paired else np.empty_like(disc_occ)
    gen = np.empty((count, m), dtype=np.int64)
    draws = RekeyedGenerator()
    for i in range(count):
        it_rng = rng.split(f"iter-{first + i}")
        step = draws.start(it_rng.split("disc-0"))
        disc_occ[i] = minibatch(step, n_occ, m)
        if not paired:
            disc_vis[i] = minibatch(step, n_vis, m)
        gen[i] = minibatch(draws.start(it_rng.split("gen")), n_occ, m)
    return disc_occ, disc_vis, gen


def _disc_step(pools, gen, disc, idx_occ, idx_vis):
    """One discriminator ascent step; returns (objective, accuracy, gradients),
    the first two measured before the update."""
    m = len(idx_occ)
    fake = gen.forward(pools.occluded[idx_occ])
    rows = np.concatenate([pools.visible[idx_vis], fake]).reshape(2 * m, -1)
    p, grads = _ascent_pass(disc, rows, m)
    p_vis, p_fake = p[:, :m], p[:, m:]
    objective, _ = adversarial_losses(p_vis, p_fake)
    return objective, two_way_accuracy(p_vis, p_fake), grads


def _gen_step(pools, gen, disc, idx):
    """One generator descent step; returns the pre-update objective."""
    m = len(idx)
    fake = gen.forward(pools.occluded[idx])
    p_fake = disc.forward(_flatten_batch(fake))
    _, objective = adversarial_losses(1.0, p_fake)

    up_prob = -1.0 / (m * (1.0 - clamp_prob(p_fake)))
    d_fake = disc.input_grad(up_prob).T.reshape(fake.shape)
    return objective, gen.backward(d_fake)


def train_adversarial(pools, gen, disc, config, rng, paired=False, start_iteration=0):
    """Alternate discriminator ascent and generator descent steps.

    Every iteration runs one discriminator update on a fresh minibatch drawn
    uniformly without replacement from each pool, followed by one generator
    update on its own fresh minibatch. A minibatch holds BATCH_SIZE samples
    per side, or the size of the smaller pool when that is less. With
    ``paired`` the two pools must align index-to-index and each minibatch
    uses the same indices on both sides. The minibatches are drawn ahead
    of their iterations (see `plan_minibatches`). History rows carry
    (iteration, disc_objective, gen_objective, disc_accuracy), with the
    objectives and the discriminator's minibatch accuracy measured just
    before the corresponding update. Every PROGRESS_EVERY iterations the
    latest row is logged at info level. Both networks are updated in place
    and returned.
    """
    pools.validate()
    config.validate()
    n_occ, n_vis = pools.occluded.shape[0], pools.visible.shape[0]
    m = min(BATCH_SIZE, n_occ, n_vis)
    if paired and n_occ != n_vis:
        raise PreconditionError("paired training needs pools of equal length")

    def plan(first, count):
        return plan_minibatches(rng, start_iteration + first, count,
                                n_occ, n_vis, m, paired)

    history = []
    steps = planned(plan, config.iterations)
    for t, (idx_occ, idx_vis, gen_idx) in enumerate(steps, start_iteration + 1):
        disc_obj, accuracy, grads = _disc_step(pools, gen, disc, idx_occ, idx_vis)
        sgd_step(disc.params(), grads, config.learn_rate, "ascend")
        gen_obj, grads = _gen_step(pools, gen, disc, gen_idx)
        sgd_step(gen.params(), grads, config.learn_rate, "descend")
        history.append((t, disc_obj, gen_obj, accuracy))
        if t % PROGRESS_EVERY == 0:
            LOG.info("iteration %d: disc objective %.4f, gen objective %.4f, "
                     "disc accuracy %.3f", t, disc_obj, gen_obj, accuracy)
    return gen, disc, history


def mask_library(occluded, bank):
    """Masks observed on real occluded samples, via their completion masks.

    ``occluded`` is an iterable of (features, scale) pairs, walked once.
    Empty masks are dropped: a sample whose correlation map flags nothing
    contributes no occlusion pattern worth imitating. The mask does not
    depend on the verdict's ``alpha``, so the default config serves.
    """
    masks = []
    for feats, scale in occluded:
        mask = analyze(feats, scale, bank, OcclusionConfig()).mask
        if mask.count > 0:
            masks.append(mask)
    return masks


def _paste_pool(occluded, bank, out):
    """Completion-masked copy-paste of every (features, scale) pair of
    ``occluded``, written into the rows of ``out`` from its first; returns
    the rows written, a view of ``out``."""
    n = 0
    for n, (feats, scale) in enumerate(occluded, 1):
        found = analyze(feats, scale, bank, OcclusionConfig())
        out[n - 1] = copy_paste(feats, found.prototype.center, found.mask)
    return out[:n]


def progressive_train(visible_pool, library, occluded_pool, bank, stage_configs,
                      rng, world):
    """Two-stage adversarial training; returns (generator, discriminator, history).

    ``stage_configs`` holds the synthetic stage's config, then the real
    stage's. Stage one mimics occlusion on known-good data: every visible
    sample gets a mask drawn from ``library``, the masks observed on the
    real occluded samples (`mask_library`), prototype values pasted into
    those cells, and the result is trained against the same sample's
    original features. Stage two trains the real occluded samples,
    copy-pasted the same way, against randomly paired visible samples.
    Generator and discriminator parameters carry over between stages.

    When ``library`` holds fewer than MIN_MASK_LIBRARY masks, stage one
    tops a copy of it up with synthetic mask patterns drawn from ``world``.

    ``visible_pool.features`` is one (N, C, X, Y) array. ``occluded_pool``
    is called with no arguments once stage one is done and its pool
    freed; it returns stage two's pasted pool as one (n, C, X, Y) array,
    so that pool is not held during stage one.
    """
    configs = [c.validate() for c in stage_configs]
    if len(configs) != 2:
        raise PreconditionError("stage_configs must be (synthetic, real)")

    lib = list(library)
    top_rng = rng.split("mask-top-up")
    for i in range(MIN_MASK_LIBRARY - len(lib)):
        pattern = MASK_PATTERNS[i % len(MASK_PATTERNS)]
        lib.append(sample_mask(world, pattern, top_rng.split(f"m{i}").gen))

    channels = visible_pool.features.shape[1]
    gen = Generator.init(channels, rng.split("generator"))
    disc = Discriminator.init(int(np.prod(visible_pool.features.shape[1:])),
                              rng.split("discriminator"))

    start = time.perf_counter()
    pick = rng.split("stage1-masks")
    synthetic = np.empty_like(visible_pool.features)
    for i, (feats, scale) in enumerate(zip(visible_pool.features, visible_pool.scales)):
        mask = lib[int(pick.gen.integers(0, len(lib)))]
        proto = nearest_prototype(bank, float(scale))
        synthetic[i] = copy_paste(feats, proto.center, mask)
    stage1 = FeaturePools(occluded=synthetic, visible=visible_pool.features)
    gen, disc, history = train_adversarial(
        stage1, gen, disc, configs[0], rng.split("stage1"), paired=True)
    # Stage two makes its own pool; the synthetic one goes first.
    del synthetic, stage1
    LOG.info("stage 1: %d iterations in %.2f s", configs[0].iterations,
             time.perf_counter() - start)

    start = time.perf_counter()
    stage2 = FeaturePools(occluded=occluded_pool(), visible=visible_pool.features)
    gen, disc, tail = train_adversarial(
        stage2, gen, disc, configs[1], rng.split("stage2"),
        start_iteration=configs[0].iterations)
    history.extend(tail)
    LOG.info("stage 2: %d iterations in %.2f s", configs[1].iterations,
             time.perf_counter() - start)
    return gen, disc, history


class ScoringHead:
    """Logistic probe scoring how pedestrian-like a feature map is.

    Inputs are normalized to unit root-mean-square before the dense layer,
    so the verdict depends on the cell pattern rather than on how large
    the object was.
    """

    def __init__(self, layer, trained=False):
        if layer.activation != "sigmoid" or layer.out_dim != 1:
            raise PreconditionError("scoring head needs a single sigmoid output")
        self.layer = layer
        self.trained = trained

    @classmethod
    def init(cls, in_dim, rng):
        return cls(DenseLayer.init(in_dim, 1, rng, "sigmoid"))

    @property
    def in_dim(self):
        return self.layer.in_dim

    def probability(self, features):
        """(n,) pedestrian probabilities for a batch (n, c, x, y); one map
        is a batch of one. The rms scaling works on a copy of the maps."""
        feats = np.asarray(features, dtype=np.float64)
        if feats.ndim != 4:
            raise PreconditionError("head input must be a batch (n, c, x, y)")
        flat = np.array(_flatten_batch(feats))
        _unit_rms_columns(flat)
        return self.layer.forward(flat)[0]

    def params(self):
        return self.layer.params()


def _unit_rms_columns(flat):
    """Scale the columns of a (d, n) matrix to unit rms, in place.

    The rms is taken over HEAD_RMS_BLOCK columns at a time, so no full
    `flat ** 2` is made. A column's sum runs down axis 0 just as it would
    over the whole matrix, whichever its memory order, so the blocks do not
    change one bit of the result. A column whose squared sum overflows
    float64 raises PreconditionError: its rms would be inf, and every
    value of it would scale to 0.
    """
    for start in range(0, flat.shape[1], HEAD_RMS_BLOCK):
        cols = flat[:, start:start + HEAD_RMS_BLOCK]
        with np.errstate(over="ignore"):
            rms = np.sqrt(np.mean(cols ** 2, axis=0, keepdims=True))
        if not np.isfinite(rms).all():
            raise PreconditionError(
                "scoring head: the squared sum of a feature map overflows "
                "float64; its features are too large to score")
        np.divide(cols, rms, out=cols, where=rms > 0)


def train_scoring_head(maps, positives, rng, config):
    """Fit the logistic head with cross-entropy: positives against negatives.

    ``maps`` is one writeable, C-contiguous float64 batch (n, c, x, y): the
    first ``positives`` maps are the positives, the rest the negatives.
    For n > 2 the fit normalizes its (d, n) view ``maps.reshape(n, -1).T``
    in place, so it holds no copy of the maps, and on return they hold that
    normalized matrix. That view is the F-order matrix the fit's first form
    built by concatenating the two pools' (d, k) views, also when one pool
    holds a single map, so the bits are that form's.

    For n == 2 the maps are not normalized in place: two single columns
    concatenate to C order instead, so the fit normalizes a C-order copy,
    for the same bits, and leaves ``maps`` as they were.
    """
    config.validate("head")
    if not (isinstance(maps, np.ndarray) and maps.dtype == np.float64
            and maps.ndim == 4 and maps.flags.c_contiguous
            and maps.flags.writeable):
        raise PreconditionError("head training maps must be a writeable "
                                "C-contiguous float64 batch (n, c, x, y)")
    n = maps.shape[0]
    if not 0 < positives < n:
        raise PreconditionError("head training needs positives and negatives, "
                                f"got {positives} of {n} maps")
    head = ScoringHead.init(int(np.prod(maps.shape[1:])), rng.split("head-init"))
    flat = _flatten_batch(maps)
    if n == 2:
        flat = np.ascontiguousarray(flat)
    _unit_rms_columns(flat)
    labels = np.zeros(n)
    labels[:positives] = 1.0
    for _ in range(config.iterations):
        # Cross-entropy gradient taken at the pre-activation, (p - y) / n:
        # bounded even when a logit saturates, unlike routing 1/p upstream
        # through the sigmoid derivative, which silently zeroes out any
        # sample pushed past the probability clamp.
        p = sigmoid(head.layer.weights @ flat + head.layer.bias[:, None])[0]
        err = ((p - labels) / n)[None, :]
        dw = err @ flat.T
        db = err.sum(axis=1)
        sgd_step(head.params(), [dw, db], config.learn_rate, "descend")
    head.trained = True
    return head


def rescore(proposal, completed, head, occluded):
    """Replace an occluded proposal's score with the head's verdict.

    Non-occluded proposals keep their original detector score untouched.
    """
    if not occluded:
        return proposal.score
    if not head.trained:
        raise PreconditionError("scoring head is untrained")
    return float(head.probability(np.asarray(completed)[None])[0])


# ---------------------------------------------------------------------------
# Model container: generator + scoring head + train configs. Eval never
# reads the discriminator, so it is not stored.

def write_model(path, gen, head, configs, grid):
    """Serialize the trained parts; `grid` is the (x, y) cell layout."""
    c = gen.channels
    gx, gy = (int(v) for v in grid)
    if gx < 1 or gy < 1:
        raise PreconditionError("grid dims must be positive")
    if head.in_dim != c * gx * gy:
        raise PreconditionError("model parts disagree on feature dims")
    chunks = [MODEL_MAGIC, struct.pack("<I", MODEL_VERSION),
              struct.pack("<III", c, gx, gy)]
    for arr in gen.params() + head.params():
        chunks.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    chunks.append(struct.pack("<B", 1 if head.trained else 0))
    chunks.append(struct.pack("<I", len(configs)))
    for cfg in configs:
        cfg.validate()
        chunks.append(struct.pack("<Id", cfg.iterations, cfg.learn_rate))
    data = b"".join(chunks)
    with open(path, "wb") as fh:
        fh.write(data)
    return len(data)


def read_model(path):
    """Load (generator, None, head, grid, configs) from a model file; the
    None stands for the discriminator, which the file does not hold."""
    with BinaryReader(path, MODEL_MAGIC) as r:
        version = r.unpack("<I", "version")[0]
        if version != MODEL_VERSION:
            raise FormatError(4, f"unsupported version {version}")
        head_pos = r.pos
        c, gx, gy = r.unpack("<III", "dims")
        if c < 1 or gx < 1 or gy < 1:
            raise FormatError(head_pos, "model dims must be positive")

        gen = Generator(
            DenseLayer(r.floats((c, c), "generator mix weights"),
                       r.floats((c,), "generator mix bias"), "relu"),
            DenseLayer(r.floats((c, c), "generator out weights"),
                       r.floats((c,), "generator out bias"), "identity"))
        head = ScoringHead(
            DenseLayer(r.floats((1, c * gx * gy), "head weights"),
                       r.floats((1,), "head bias"), "sigmoid"))
        flag_pos = r.pos
        flag = r.unpack("<B", "head flag")[0]
        if flag not in (0, 1):
            raise FormatError(flag_pos, f"bad head flag {flag}")
        head.trained = flag == 1

        count_pos = r.pos
        n_cfg = r.unpack("<I", "config count")[0]
        if n_cfg > 16:
            raise FormatError(count_pos, f"implausible config count {n_cfg}")
        configs = []
        for i in range(n_cfg):
            rec_pos = r.pos
            cfg = TrainConfig(*r.unpack("<Id", f"train config {i}"))
            try:
                cfg.validate()
            except PreconditionError as err:
                raise FormatError(rec_pos, f"invalid train config: {err}") from err
            configs.append(cfg)
        r.finish()
    return gen, None, head, (gx, gy), tuple(configs)
