"""Detection metrics and diagnostic scores for completion experiments.

The headline number is the log-average miss rate: sweep the detection
score threshold, record the miss rate at each of `fppi_count` (nine by
default) log-spaced false-positives-per-image budgets, and geometric-mean
them. Ground truths and detections pair up by proposal id (each synthetic
proposal is its own image), greedily from the highest score down.
Ground truths outside the visibility subset under evaluation act as
ignore regions: detections matched to them count neither way.

Alongside it: a feature-space compactness ratio (how much closer
completion moves occluded features to the visible centroid), a probe
discriminator accuracy (can a freshly trained classifier tell completed
features from visible ones), and plain mask IoU for occlusion
localization.
"""

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, ShapeMismatchError
from .ndnum import DenseLayer, Rng, check_finite, sgd_step
from .completion import (BATCH_SIZE, Discriminator, _ascent_pass, _flatten_batch,
                         minibatch, planned)

SUBSETS = ("R", "HO", "R+HO")
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


@dataclass(frozen=True)
class Detection:
    id: int
    score: float


@dataclass(frozen=True)
class GroundTruth:
    id: int
    visibility: float


@dataclass(frozen=True)
class DetectionRecord:
    """A detection after matching: did it claim a ground truth, and whose."""

    id: int
    score: float
    matched: bool
    subsets: frozenset


def subset_of(visibility):
    """Subset labels covering a visibility value.

    The reasonable band starts at 0.65 (inclusive), heavy occlusion spans
    [0.20, 0.65), and the combined band is their union. Below 0.20 a
    sample belongs to no subset and is ignored by every evaluation.
    """
    v = float(visibility)
    if not (0.0 <= v <= 1.0):
        raise PreconditionError(f"visibility {v} outside [0, 1]")
    labels = set()
    if v >= 0.65:
        labels.add("R")
    elif v >= 0.20:
        labels.add("HO")
    if v >= 0.20:
        labels.add("R+HO")
    return labels


def match_records(detections, ground_truths):
    """Greedy id matching from the highest score down.

    Each ground truth is claimed by at most one detection: the best-scoring
    one carrying its id. Records keep the matched ground truth's subset
    memberships so per-subset sweeps can tell hits from ignores.
    """
    gt_vis = {}
    for gt in ground_truths:
        if gt.id in gt_vis:
            raise PreconditionError(f"duplicate ground truth id {gt.id}")
        gt_vis[gt.id] = gt.visibility
    records = []
    claimed = set()
    for det in sorted(detections, key=lambda d: (-d.score, d.id)):
        if not np.isfinite(det.score):
            raise PreconditionError(f"detection {det.id} has non-finite score")
        hit = det.id in gt_vis and det.id not in claimed
        if hit:
            claimed.add(det.id)
        memberships = frozenset(subset_of(gt_vis[det.id])) if hit else frozenset()
        records.append(DetectionRecord(det.id, det.score, hit, memberships))
    return records


def miss_rates_at_fppi(detections, ground_truths, config=EvalConfig(),
                       subset="R+HO", images=None):
    """Lowest achievable miss rate at each false-positive budget.

    Thresholds can only sit between distinct scores, so the achievable
    operating points are the prefixes of the score-sorted detections at
    tie-group boundaries, plus the empty prefix (miss rate 1, no false
    positives). ``images`` is the dataset's image count, the denominator
    of the false-positive rate; it defaults to one image per ground
    truth and must not depend on what the detector emitted.
    """
    config.validate()
    if subset not in SUBSETS:
        raise PreconditionError(f"unknown subset {subset!r}")
    n_gt = sum(1 for g in ground_truths if subset in subset_of(g.visibility))
    if n_gt == 0:
        raise PreconditionError(f"empty subset {subset}")
    n_images = len(ground_truths) if images is None else int(images)
    if n_images < 1:
        raise PreconditionError("image count must be positive")

    records = match_records(detections, ground_truths)
    points = [(0.0, 1.0)]
    fp = tp = 0
    for i, rec in enumerate(records):
        if rec.matched and subset in rec.subsets:
            tp += 1
        elif not rec.matched:
            fp += 1
        last_of_tie = i + 1 == len(records) or records[i + 1].score != rec.score
        if last_of_tie:
            points.append((fp / n_images, 1.0 - tp / n_gt))
    return np.array([min(miss for reach, miss in points if reach <= budget)
                     for budget in config.fppi_points])


def log_avg_miss_rate(detections, ground_truths, config=EvalConfig(),
                      subset="R+HO", images=None):
    """Geometric mean of the miss rates over the false-positive budgets."""
    rates = miss_rates_at_fppi(detections, ground_truths, config, subset, images)
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

    Each update of the hidden weights adds dz·xᵀ with x a training row, so
    they move only within the span of the training rows. When the folds
    hold fewer rows than features, the probe trains on the rows'
    coordinates in an orthonormal basis Q of that span, from the hidden
    weights W0·Q, and maps back as W0 + (W - W0·Q)·Qᵀ: the same classifier
    up to rounding, from smaller products. W0 and every minibatch are
    drawn as in full space.
    """
    n_a, n_b = train_a.shape[0], train_b.shape[0]
    n, d = n_a + n_b, int(np.prod(train_a.shape[1:]))
    disc = Discriminator.init(d, rng.split("disc"))
    full = disc.hidden
    if n < d:
        basis, tri = np.linalg.qr(np.concatenate([train_a, train_b]).reshape(n, d).T)
        # Rows' coordinates in the basis: X·Q = Rᵀ, since Xᵀ = Q·R. Copied to
        # row order, so that the minibatch gathers read contiguous rows.
        rows = np.ascontiguousarray(tri.T)
        train_a, train_b = rows[:n_a], rows[n_a:]
        disc = Discriminator(DenseLayer(full.weights @ basis, full.bias, "relu"),
                             disc.readout)
        start = disc.hidden.weights
    m = min(BATCH_SIZE, n_a, n_b)

    def plan(first, count):
        return plan_probe(rng, first, count, n_a, n_b, m)

    for idx_a, idx_b in planned(plan, iterations):
        grads = _probe_step(train_a, train_b, disc, idx_a, idx_b)
        disc.set_params(sgd_step(disc.params(), grads, learn_rate, "ascend"))

    if n < d:
        moved = (disc.hidden.weights - start) @ basis.T
        disc = Discriminator(DenseLayer(full.weights + moved, disc.hidden.bias, "relu"),
                             disc.readout)
    return disc


def probe_accuracy(features_a, features_b, seed, iterations=2000,
                   learn_rate=2e-3):
    """Held-out accuracy of a freshly trained two-way feature classifier.

    Samples are split 70/30 by content; a discriminator of the standard
    architecture trains on the train folds and is scored on the held-out
    ones. Near 0.5 means the two feature sets are statistically
    indistinguishable to this probe. When the train folds hold fewer
    samples than a map has features, the probe trains in the span of its
    training rows (see `_train_probe`): the same classifier up to
    rounding, at a fraction of the cost.
    """
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
