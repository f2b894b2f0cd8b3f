"""Detection metrics and diagnostic scores for completion experiments.

The headline number is the log-average miss rate: sweep the detection
score threshold, record the miss rate at each of `fppi_count` (nine by
default) log-spaced false-positives-per-image budgets, and geometric-mean
them. One proposal is one detection and, if a pedestrian, its own ground
truth; ids play no part. Pedestrians outside the visibility subset under
evaluation act as ignore regions: they count neither way.

Alongside it: a feature-space compactness ratio (how much closer
completion moves occluded features to the visible centroid), a probe
discriminator accuracy (can a freshly trained classifier tell completed
features from visible ones), and plain mask IoU for occlusion
localization.
"""

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, ShapeMismatchError
from .ndnum import DenseLayer, Rng, check_finite, relu, sgd_step, sigmoid
from .completion import (BATCH_SIZE, Discriminator, _ascent_pass, _ascent_upstream,
                         _flatten_batch, minibatch, planned)

# Each subset is the visibility band [low, high).
SUBSETS = {"R": (0.65, np.inf), "HO": (0.20, 0.65), "R+HO": (0.20, np.inf)}
MISS_FLOOR = 1e-4
PROBE_MIN_SAMPLES = 40
PROBE_TRAIN_FRACTION = 0.7
# Samples per block when compactness_ratio sums squared distances.
COMPACTNESS_BLOCK = 64


@dataclass(frozen=True)
class EvalConfig:
    fppi_count: int = 9

    @property
    def fppi_points(self):
        return tuple(float(v) for v in np.logspace(-2.0, 0.0, self.fppi_count))

    def validate(self):
        if self.fppi_count < 2:
            raise PreconditionError("eval.fppi_count must be >= 2")
        return self


def in_subset(visibility, subset):
    """Whether each visibility falls in a subset's band, elementwise.

    The reasonable band R starts at 0.65 (inclusive), heavy occlusion HO
    spans [0.20, 0.65), and R+HO is their union. Below 0.20 a sample
    belongs to no subset and is ignored by every evaluation.
    """
    if subset not in SUBSETS:
        raise PreconditionError(f"unknown subset {subset!r}")
    v = np.asarray(visibility, dtype=np.float64)
    outside = ~((v >= 0.0) & (v <= 1.0))
    if outside.any():
        raise PreconditionError(f"visibility {v[outside].flat[0]} outside [0, 1]")
    low, high = SUBSETS[subset]
    return (v >= low) & (v < high)


def miss_rates_at_fppi(scores, pedestrian, visibility, images,
                       config=EvalConfig(), subset="R+HO"):
    """Lowest achievable miss rate at each false-positive budget.

    Proposal i is one detection scoring ``scores[i]``. A pedestrian is also
    its own ground truth: a hit when its visibility lies in the subset,
    ignored otherwise. A background is a false positive. Thresholds can
    only sit between distinct scores, so the achievable operating points
    are the prefixes of the score-sorted proposals at tie-group ends, plus
    the empty prefix (miss rate 1, no false positives). ``images`` is the
    dataset's image count, the denominator of the false-positive rate.
    """
    config.validate()
    scores = np.asarray(scores, dtype=np.float64)
    pedestrian = np.asarray(pedestrian, dtype=bool)
    if scores.ndim != 1 or not scores.shape == pedestrian.shape == np.shape(visibility):
        raise PreconditionError(
            "scores, pedestrian and visibility must be vectors of one length")
    hits = pedestrian & in_subset(visibility, subset)
    if not np.isfinite(scores).all():
        raise PreconditionError("non-finite detection score")
    n_gt = int(hits.sum())
    if n_gt == 0:
        raise PreconditionError(f"empty subset {subset}")
    if images < 1:
        raise PreconditionError("image count must be positive")

    order = np.argsort(-scores)
    ranked = scores[order]
    ends = np.flatnonzero(np.append(ranked[1:] != ranked[:-1], True))
    fppi = np.append(0.0, np.cumsum(~pedestrian[order])[ends] / images)
    miss = np.append(1.0, 1.0 - np.cumsum(hits[order])[ends] / n_gt)
    return np.array([miss[fppi <= budget].min() for budget in config.fppi_points])


def log_avg_miss_rate(scores, pedestrian, visibility, images,
                      config=EvalConfig(), subset="R+HO"):
    """Geometric mean of the miss rates over the false-positive budgets."""
    rates = miss_rates_at_fppi(scores, pedestrian, visibility, images, config,
                               subset)
    return float(np.exp(np.mean(np.log(np.maximum(rates, MISS_FLOOR)))))


def _sample_set(name, features):
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 4:
        raise PreconditionError(f"{name} features must be (n, c, x, y)")
    if feats.shape[0] == 0:
        raise PreconditionError(f"{name} features are empty")
    check_finite(feats, f"{name} features")
    return feats


def compactness_ratio(raw_occluded, completed_occluded, visible):
    """How much completion tightened the occluded set around the visible centroid.

    Ratio of mean squared distances to the visible-feature centroid,
    completed over raw. Below 1 means completion moved occluded features
    toward where visible ones live.
    """
    raw = _sample_set("raw", raw_occluded)
    completed = _sample_set("completed", completed_occluded)
    vis = _sample_set("visible", visible)
    if raw.shape[1:] != vis.shape[1:] or completed.shape[1:] != vis.shape[1:]:
        raise ShapeMismatchError("feature dims", completed.shape[1:], vis.shape[1:])
    if raw.shape[0] != completed.shape[0]:
        raise PreconditionError("raw and completed sets must pair up")
    centroid = vis.mean(axis=0)
    buf = np.empty((COMPACTNESS_BLOCK,) + centroid.shape)

    def scatter(feats):
        # Each sample's sum is its own, so summing COMPACTNESS_BLOCK samples
        # at a time gives the same bits as one full `feats - centroid`.
        sums = np.empty(feats.shape[0])
        for start in range(0, feats.shape[0], COMPACTNESS_BLOCK):
            rows = feats[start:start + COMPACTNESS_BLOCK]
            diff = np.subtract(rows, centroid, out=buf[:rows.shape[0]])
            np.square(diff, out=diff)
            sums[start:start + rows.shape[0]] = np.sum(diff, axis=(1, 2, 3))
        return float(np.mean(sums))

    denom = scatter(raw)
    if denom == 0.0:
        raise PreconditionError("raw features coincide with the visible centroid")
    return scatter(completed) / denom


def plan_probe(rng, first, count, n_a, n_b, m):
    """Minibatch indices of probe steps first .. first + count - 1.

    Returns (idx_a, idx_b), each (count, m). Step t draws side a's indices
    from stream ``step-{t}/a`` and side b's from ``step-{t}/b``.
    """
    idx_a = np.empty((count, m), dtype=np.int64)
    idx_b = np.empty((count, m), dtype=np.int64)
    for i in range(count):
        step_rng = rng.split(f"step-{first + i}")
        idx_a[i] = minibatch(step_rng.split("a"), n_a, m)
        idx_b[i] = minibatch(step_rng.split("b"), n_b, m)
    return idx_a, idx_b


def _probe_step(side_a, side_b, disc, idx_a, idx_b):
    """One supervised ascent step telling side a (label 1) from side b."""
    return _ascent_pass(disc, side_a[idx_a], side_b[idx_b])[2]


def _split_by_content(a, b, rng):
    """70/30 fold assignment on sample contents, shared across both sides.

    Byte-identical samples land in the same fold no matter which side or
    position they occupy, so a sample can never be trained on under one
    label and then graded under the other.
    """
    fold_of = {}
    for side in (a, b):
        for sample in side:
            fold_of.setdefault(sample.tobytes(), len(fold_of))
    order = rng.permutation(len(fold_of))
    cut = int(len(fold_of) * PROBE_TRAIN_FRACTION)
    in_train = np.zeros(len(fold_of), dtype=bool)
    in_train[order[:cut]] = True

    def split(side):
        picks = np.array([in_train[fold_of[s.tobytes()]] for s in side])
        return side[picks], side[~picks]

    return split(a) + split(b)


def _train_probe(train_a, train_b, rng, iterations, learn_rate):
    """The probe discriminator after SGD on train fold a (label 1) against b.

    Every step adds a combination of training rows to the hidden weights
    W, so W stays W0 plus a sum of rows. With fewer rows n than features d
    (350 against 784 on the default config), the steps therefore run on
    the rows' Gram matrix (`_gram_steps`) and W is formed once at the end:
    the same classifier up to rounding, from one n-row product per step
    instead of two d-wide ones. With n >= d the hidden weights step in full
    space, where the n x n Gram matrix would cost more memory than it
    saves. W0 and every minibatch are drawn as in full space either way.
    """
    n_a, n_b = train_a.shape[0], train_b.shape[0]
    n, d = n_a + n_b, int(np.prod(train_a.shape[1:]))
    disc = Discriminator.init(d, rng.split("disc"))
    m = min(BATCH_SIZE, n_a, n_b)

    def plan(first, count):
        return plan_probe(rng, first, count, n_a, n_b, m)

    steps = planned(plan, iterations)
    if n >= d:
        for idx_a, idx_b in steps:
            grads = _probe_step(train_a, train_b, disc, idx_a, idx_b)
            disc.set_params(sgd_step(disc.params(), grads, learn_rate, "ascend"))
        return disc
    rows = np.concatenate([train_a, train_b]).reshape(n, d)
    moves, head = _gram_steps(rows, n_a, disc, steps, learn_rate)
    width = disc.hidden.out_dim
    return Discriminator(
        DenseLayer(disc.hidden.weights + moves.T @ rows, head[:width], "relu"),
        DenseLayer(head[None, width:-1], head[-1:], "sigmoid"))


def _gram_steps(rows, n_a, disc, steps, learn_rate):
    """Run the probe's steps on the hidden pre-activations of its rows.

    With dz the (2m, width) pre-activation gradient of a step's batch b and
    X_b its rows, a full-space step adds η·dzᵀ·X_b to the hidden weights W.
    So W = W0 + Cᵀ·X for the (n, d) training rows X and an (n, width)
    table C that gains η·dz on the rows b. The steps need W only through
    Z = X·Wᵀ, the pre-activations of every row, and the Gram matrix
    K = X·Xᵀ updates it: Z += K[:, b]·η·dz, one n x 2m x width product
    per step where full space takes two of width x 2m x d. K is symmetric,
    so K[:, b] is read as the rows K[b].

    Starts from the parameters of ``disc``. Returns C and one vector of
    the stepped hidden bias, readout weights and readout bias, which takes
    one `sgd_step` per step. Z and C are row-major, so every gather and
    scatter is a row operation. Activations, probabilities, the stepped
    parameters and Z are checked finite at the step that made them.
    """
    gram = rows @ rows.T
    hidden = rows @ disc.hidden.weights.T
    moves = np.zeros_like(hidden)
    width = hidden.shape[1]
    head = np.concatenate([disc.hidden.bias, disc.readout.weights[0],
                           disc.readout.bias])
    for idx_a, idx_b in steps:
        batch = np.concatenate([idx_a, idx_b + n_a])
        readout = head[width:-1]
        z = hidden[batch]
        z += head[:width]
        h = check_finite(relu(z), "probe hidden output")
        p = check_finite(sigmoid(h @ readout + head[-1]), "probe output")
        dz_read = _ascent_upstream(p, idx_a.shape[0]) * p * (1.0 - p)
        dz = dz_read[:, None] * readout * (z > 0)
        grads = np.concatenate([dz.sum(axis=0), dz_read @ h, [dz_read.sum()]])
        [head] = sgd_step([head], [grads], learn_rate, "ascend")
        dz *= learn_rate
        moves[batch] += dz
        hidden += gram[batch].T @ dz
        check_finite(hidden, "probe hidden pre-activations")
    return moves, head


def probe_accuracy(features_a, features_b, seed, iterations=2000,
                   learn_rate=2e-3):
    """Held-out accuracy of a freshly trained two-way feature classifier.

    Samples are split 70/30 by content; a discriminator of the standard
    architecture trains on the train folds and is scored on the held-out
    ones. Near 0.5 means the two feature sets are statistically
    indistinguishable to this probe. When the train folds hold fewer
    samples than a map has features, the probe steps through the Gram
    matrix of its training rows (see `_gram_steps`): the same classifier
    up to rounding, at one product per step instead of two.
    """
    if iterations < 0:
        raise PreconditionError(f"probe iterations must be >= 0, got {iterations}")
    if not (learn_rate > 0 and np.isfinite(learn_rate)):
        raise PreconditionError(
            f"probe learn rate must be positive and finite, got {learn_rate}")
    a = _sample_set("side a", features_a)
    b = _sample_set("side b", features_b)
    if a.shape[1:] != b.shape[1:]:
        raise ShapeMismatchError("probe features", b.shape[1:], a.shape[1:])
    if a.shape[0] < PROBE_MIN_SAMPLES or b.shape[0] < PROBE_MIN_SAMPLES:
        raise PreconditionError(
            f"probe needs at least {PROBE_MIN_SAMPLES} samples per side")

    rng = Rng(seed)
    train_a, test_a, train_b, test_b = _split_by_content(
        a, b, rng.split("fold"))
    for name, part in (("train", train_a), ("test", test_a),
                       ("train", train_b), ("test", test_b)):
        if part.shape[0] == 0:
            raise PreconditionError(f"degenerate probe split: empty {name} fold")

    disc = _train_probe(train_a, train_b, rng, iterations, learn_rate)
    p_a = disc.forward(_flatten_batch(test_a))
    p_b = disc.forward(_flatten_batch(test_b))
    # A tie at p = 0.5 says neither side: half right, so an untrained probe
    # reads chance.
    correct = (np.sum(p_a > 0.5) + np.sum(p_b < 0.5)
               + 0.5 * (np.sum(p_a == 0.5) + np.sum(p_b == 0.5)))
    return float(correct) / (test_a.shape[0] + test_b.shape[0])


def mask_iou(predicted, truth):
    """Intersection over union of two cell masks; two empty masks agree."""
    if predicted.grid.shape != truth.grid.shape:
        raise ShapeMismatchError("mask grids", truth.grid, predicted.grid.shape)
    union = int(np.sum(predicted.grid | truth.grid))
    if union == 0:
        return 1.0
    return int(np.sum(predicted.grid & truth.grid)) / union
