import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import occfill.eval as eval_module
from occfill.completion import PLAN_CHUNK, Discriminator, minibatch, planned
from occfill.errors import PreconditionError, ShapeMismatchError
from occfill.eval import (
    plan_probe,
    MAX_FPPI_COUNT,
    EvalConfig,
    compactness_ratio,
    in_subset,
    log_avg_miss_rate,
    mask_iou,
    miss_rates_at_fppi,
    probe_accuracy,
)
from occfill.ndnum import DenseLayer, Rng, sgd_step
from occfill.synth import OcclusionMask
from test_completion import chain_ascent_pass, stable_sigmoid


# ---------------------------------------------------------------------------
# independent oracle: enumerate every score threshold with dumb loops


def oracle_subsets(v):
    if v >= 0.65:
        return {"R", "R+HO"}
    if v >= 0.20:
        return {"HO", "R+HO"}
    return set()


def oracle_miss_rates(scores, pedestrian, visibility, images, fppi_points,
                      subset):
    """Each proposal is its own detection; a pedestrian its own ground truth."""
    proposals = list(zip(scores, pedestrian, visibility))
    relevant = [s for s, ped, v in proposals if ped and subset in oracle_subsets(v)]
    points = []
    for t in sorted(set(scores)) + [float("inf")]:
        fp = sum(1 for s, ped, _ in proposals if s >= t and not ped)
        tp = sum(1 for s in relevant if s >= t)
        points.append((fp / images, 1.0 - tp / len(relevant)))
    return np.array([min(m for f, m in points if f <= budget)
                     for budget in fppi_points])


def random_toy_set(seed):
    """(scores, pedestrian, visibility, images) of a small tied-score set.

    Every pedestrian is detected; the false positives are background
    proposals. There is one image per pedestrian.
    """
    rng = Rng(seed)
    vis_choices = [0.1, 0.25, 0.4, 0.65, 0.8, 0.95]
    visibility = [0.9, 0.4]
    for i in range(int(rng.split("n").gen.integers(0, 5))):
        visibility.append(
            vis_choices[int(rng.split(f"v{i}").gen.integers(0, len(vis_choices)))])
    n_ped = len(visibility)
    n_bg = int(rng.split("fp").gen.integers(0, 5))
    visibility += [1.0] * n_bg
    score_grid = [round(0.1 * k, 1) for k in range(1, 10)]
    scores = [score_grid[int(rng.split(f"s{i}").gen.integers(0, 9))]
              for i in range(n_ped + n_bg)]
    return (np.array(scores), np.arange(n_ped + n_bg) < n_ped,
            np.array(visibility), n_ped)


def proposals(*entries):
    """(scores, pedestrian, visibility) from (score, visibility or None) pairs;
    None marks a background."""
    return (np.array([s for s, _ in entries], dtype=np.float64),
            np.array([v is not None for _, v in entries]),
            np.array([1.0 if v is None else v for _, v in entries]))


# Three R pedestrians at 0.9, 0.7 and 0.5, two backgrounds between them.
INTERLEAVED = proposals((0.9, 0.9), (0.8, None), (0.7, 0.9), (0.6, None),
                        (0.5, 0.9))


class TestSubsetOf:
    def test_reasonable_sample(self):
        assert [bool(in_subset(0.9, s)) for s in ("R", "HO", "R+HO")] == [
            True, False, True]

    def test_heavily_occluded_sample(self):
        assert [bool(in_subset(0.4, s)) for s in ("R", "HO", "R+HO")] == [
            False, True, True]

    def test_boundary_goes_to_reasonable(self):
        assert in_subset(0.65, "R") and not in_subset(0.65, "HO")

    def test_lower_boundary_included(self):
        assert in_subset(0.20, "HO") and in_subset(0.20, "R+HO")

    def test_below_range_belongs_nowhere(self):
        assert not any(in_subset(0.1, s) for s in ("R", "HO", "R+HO"))

    def test_rejects_out_of_range(self):
        for bad in (1.2, -0.05, float("nan")):
            with pytest.raises(PreconditionError):
                in_subset(bad, "R")
            with pytest.raises(PreconditionError):
                in_subset(np.array([0.5, bad, 0.9]), "R+HO")

    def test_rejects_unknown_subset(self):
        with pytest.raises(PreconditionError):
            in_subset(0.5, "ALL")

    def test_r_and_ho_partition_combined(self):
        v = np.linspace(0.2, 1.0, 81)
        r, ho, both = (in_subset(v, s) for s in ("R", "HO", "R+HO"))
        assert r.shape == v.shape and both.all()
        assert np.array_equal(r, ~ho)

    def test_array_is_the_scalar_elementwise(self):
        v = np.array([0.0, 0.1, 0.2, 0.4, 0.65, 0.8, 1.0])
        for subset in ("R", "HO", "R+HO"):
            want = [subset in oracle_subsets(x) for x in v]
            assert in_subset(v, subset).tolist() == want
            assert [bool(in_subset(float(x), subset)) for x in v] == want


class TestLogAvgMissRate:
    def test_perfect_detector_hits_the_floor(self):
        dets = proposals(*[(0.9, 0.9)] * 5, *[(0.1, None)] * 3)
        assert log_avg_miss_rate(*dets, 5, subset="R") == pytest.approx(
            1e-4, rel=1e-12)

    def test_empty_subset_rejected(self):
        with pytest.raises(PreconditionError):
            log_avg_miss_rate(*proposals((0.5, 0.9)), 1, subset="HO")

    def test_unknown_subset_rejected(self):
        with pytest.raises(PreconditionError):
            log_avg_miss_rate(*proposals((0.5, 0.9)), 1, subset="ALL")

    def test_non_finite_score_rejected(self):
        for score in (float("nan"), float("inf")):
            with pytest.raises(PreconditionError):
                log_avg_miss_rate(*proposals((score, 0.9), (0.5, None)), 1)

    def test_mismatched_lengths_rejected(self):
        scores, pedestrian, visibility = INTERLEAVED
        for args in ((scores[:-1], pedestrian, visibility),
                     (scores, pedestrian[:-1], visibility),
                     (scores, pedestrian, visibility[:-1]),
                     (scores, pedestrian, 0.9)):
            with pytest.raises(PreconditionError):
                log_avg_miss_rate(*args, 3)

    def test_interleaved_hand_example(self):
        # Prefix points: (0, 2/3), (1/3, 2/3), (1/3, 1/3), (2/3, 1/3),
        # (2/3, 0); budgets below 1/3 can only reach miss 2/3, 0.562
        # reaches 1/3, and the full budget reaches the floor.
        want = math.exp((7 * math.log(2 / 3) + math.log(1 / 3)
                         + math.log(1e-4)) / 9)
        got = log_avg_miss_rate(*INTERLEAVED, 3, subset="R")
        assert got == pytest.approx(want, rel=1e-12)

    def test_explicit_image_count_scales_budgets(self):
        # With 150 images one false positive fits the tightest budget
        # (1/150 < 0.01 < 2/150) and both fit every later one.
        want = math.exp((math.log(1 / 3) + 8 * math.log(1e-4)) / 9)
        got = log_avg_miss_rate(*INTERLEAVED, 150, subset="R")
        assert got == pytest.approx(want, rel=1e-12)

    def test_rejects_bad_image_count(self):
        with pytest.raises(PreconditionError):
            log_avg_miss_rate(*proposals((0.5, 0.9)), 0, subset="R")

    def test_matches_brute_force_on_20_toy_sets(self):
        cfg = EvalConfig()
        for seed in range(20):
            toy = random_toy_set(seed)
            for subset in ("R", "HO", "R+HO"):
                got = miss_rates_at_fppi(*toy, cfg, subset)
                want = oracle_miss_rates(*toy, cfg.fppi_points, subset)
                assert np.array_equal(got, want), (seed, subset)
                mr = log_avg_miss_rate(*toy, cfg, subset)
                ref = float(np.exp(np.mean(np.log(np.maximum(want, 1e-4)))))
                assert mr == ref, (seed, subset)

    def test_bounded_by_floor_and_one(self):
        for seed in range(10):
            mr = log_avg_miss_rate(*random_toy_set(100 + seed), subset="R+HO")
            assert 1e-4 * (1.0 - 1e-9) <= mr <= 1.0

    def test_removing_a_hit_never_improves(self):
        # Every pedestrian is detected, so a hit is removed by scoring it
        # below every other proposal.
        for seed in range(8):
            scores, pedestrian, visibility, images = random_toy_set(200 + seed)
            base = log_avg_miss_rate(scores, pedestrian, visibility, images)
            for i in np.flatnonzero(pedestrian):
                demoted = scores.copy()
                demoted[i] = 0.0
                assert log_avg_miss_rate(demoted, pedestrian, visibility,
                                         images) >= base

    def test_adding_a_false_positive_never_improves(self):
        for seed in range(8):
            scores, pedestrian, visibility, images = random_toy_set(300 + seed)
            base = log_avg_miss_rate(scores, pedestrian, visibility, images)
            for score in (0.05, 0.45, 0.95):
                more = log_avg_miss_rate(
                    np.append(scores, score), np.append(pedestrian, False),
                    np.append(visibility, 1.0), images)
                assert more >= base

    def test_ignored_ground_truths_do_not_count(self):
        # the second pedestrian is below every subset: neither hit nor miss
        dets = proposals((0.9, 0.9), (0.8, 0.1))
        assert log_avg_miss_rate(*dets, 2, subset="R") == pytest.approx(
            1e-4, rel=1e-12)

    def test_tie_order_does_not_move_the_rates(self):
        # Only tie-group ends are operating points, so permuting the
        # proposals, ties included, gives the same bits.
        cfg = EvalConfig()
        for seed in range(10):
            scores, pedestrian, visibility, images = random_toy_set(400 + seed)
            order = Rng(seed).split("perm").gen.permutation(len(scores))
            for subset in ("R", "HO", "R+HO"):
                if not (pedestrian & in_subset(visibility, subset)).any():
                    continue
                assert np.array_equal(
                    miss_rates_at_fppi(scores, pedestrian, visibility, images,
                                       cfg, subset),
                    miss_rates_at_fppi(scores[order], pedestrian[order],
                                       visibility[order], images, cfg, subset))


class TestEvalConfig:
    def test_default_grid(self):
        pts = np.asarray(EvalConfig().validate().fppi_points)
        assert pts.size == 9
        assert pts[0] == 1e-2 and pts[-1] == 1.0
        assert np.all(np.diff(pts) > 0)
        assert np.allclose(pts, np.logspace(-2, 0, 9))

    def test_rejects_bad_grids(self):
        for count in (1, 0, -1, MAX_FPPI_COUNT + 1, 2**62):
            with pytest.raises(PreconditionError, match="eval.fppi_count"):
                EvalConfig(fppi_count=count).validate()

    def test_points_span_the_range_at_any_count(self):
        for count in (2, 3, 9, 20, MAX_FPPI_COUNT):
            pts = EvalConfig(fppi_count=count).validate().fppi_points
            assert len(pts) == count
            assert pts[0] == 1e-2 and pts[-1] == 1.0


class TestCompactnessRatio:
    def test_identity_is_exactly_one(self):
        rng = Rng(60)
        raw = rng.split("r").gen.normal(size=(10, 2, 3, 3))
        vis = rng.split("v").gen.normal(size=(12, 2, 3, 3))
        assert compactness_ratio(raw, raw, vis) == 1.0

    def test_halved_offsets_quarter_the_ratio(self):
        u = Rng(61).gen.normal(size=(1, 2, 3, 3))
        vis = np.concatenate([u, -u])
        raw = np.concatenate([2.0 * u, -2.0 * u])
        completed = np.concatenate([u, -u])
        assert compactness_ratio(raw, completed, vis) == pytest.approx(
            0.25, abs=1e-12)

    def test_completed_as_visible_shrinks_ratio(self):
        rng = Rng(62)
        vis = rng.split("v").gen.normal(size=(30, 2, 3, 3))
        raw = vis[:15] + 5.0
        assert compactness_ratio(raw, vis[:15], vis) < 1.0

    def test_rejects_empty_sets(self):
        with pytest.raises(PreconditionError):
            compactness_ratio(np.zeros((0, 2, 3, 3)), np.zeros((0, 2, 3, 3)),
                              np.zeros((4, 2, 3, 3)))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            compactness_ratio(np.ones((3, 2, 3, 3)), np.ones((3, 2, 3, 3)),
                              np.ones((4, 2, 3, 4)))

    def test_rejects_unpaired_sets(self):
        with pytest.raises(PreconditionError):
            compactness_ratio(np.ones((3, 2, 3, 3)), np.ones((4, 2, 3, 3)),
                              np.zeros((4, 2, 3, 3)))

    def test_rejects_zero_raw_scatter(self):
        vis = np.zeros((4, 2, 3, 3))
        with pytest.raises(PreconditionError):
            compactness_ratio(vis[:2], vis[:2] + 1.0, vis)

    @pytest.mark.parametrize("side", ["raw", "completed"])
    def test_overflowing_squared_distances_are_refused(self, side):
        # Finite features whose squared distances overflow float64: the
        # ratio read nan (inf over inf) or inf.
        rng = Rng(69)
        sets = {k: rng.split(k).gen.normal(size=(6, 2, 3, 3)) for k in ("raw", "completed", "vis")}
        sets[side] = sets[side] * 1e155
        with pytest.raises(PreconditionError, match="overflow"):
            compactness_ratio(sets["raw"], sets["completed"], sets["vis"])

    def test_blocks_give_the_bits_of_one_full_pass(self):
        rng = Rng(67)
        n = 2 * eval_module.COMPACTNESS_BLOCK + 5
        raw, completed, vis = (rng.split(k).gen.normal(size=(n, 16, 7, 7)) for k in "rcv")
        centroid = vis.mean(axis=0)

        def scatter(feats):
            return float(np.mean(np.sum((feats - centroid) ** 2, axis=(1, 2, 3))))

        assert compactness_ratio(raw, completed, vis) == scatter(completed) / scatter(raw)

    def test_peak_above_the_inputs_is_a_few_blocks(self):
        rng = Rng(68)
        shape = (16, 7, 7)
        n = 8 * eval_module.COMPACTNESS_BLOCK
        raw, completed, vis = (rng.split(k).gen.normal(size=(n,) + shape) for k in "rcv")
        block = eval_module.COMPACTNESS_BLOCK * int(np.prod(shape)) * 8
        tracemalloc.start()
        try:
            compactness_ratio(raw, completed, vis)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * block


class TestProbeAccuracy:
    def test_shuffled_copy_scores_chance(self):
        rng = Rng(63)
        base = rng.gen.normal(size=(120, 2, 3, 3))
        perm = rng.split("p").gen.permutation(120)
        assert 0.35 <= probe_accuracy(base, base[perm], seed=0, iterations=300) <= 0.65

    def test_disjoint_offsets_score_high(self):
        base = Rng(64).gen.normal(size=(100, 2, 3, 3))
        assert probe_accuracy(base + 2.0, base - 2.0, seed=0, iterations=300) > 0.9

    def test_deterministic_given_seed(self):
        rng = Rng(65)
        a = rng.split("a").gen.normal(size=(60, 2, 3, 3))
        b = rng.split("b").gen.normal(size=(60, 2, 3, 3))
        assert (probe_accuracy(a, b, seed=9, iterations=300)
                == probe_accuracy(a, b, seed=9, iterations=300))

    def test_rejects_small_sets(self):
        a = Rng(66).gen.normal(size=(39, 2, 3, 3))
        with pytest.raises(PreconditionError):
            probe_accuracy(a, a, seed=0)

    def test_rejects_empty_sets(self):
        with pytest.raises(PreconditionError):
            probe_accuracy(np.zeros((0, 2, 3, 3)), np.zeros((50, 2, 3, 3)), 0)

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            probe_accuracy(np.zeros((50, 2, 3, 3)), np.zeros((50, 2, 3, 4)), 0)

    # (2, 3, 3) maps train in full space, (16, 7, 7) through the Gram matrix.
    @pytest.mark.parametrize("shape", [(2, 3, 3), (16, 7, 7)])
    def test_rejects_negative_iterations(self, shape):
        a, b = span_sides(66, shape=shape)
        with pytest.raises(PreconditionError, match="iterations"):
            probe_accuracy(a, b, seed=1, iterations=-1)

    @pytest.mark.parametrize("shape", [(2, 3, 3), (16, 7, 7)])
    @pytest.mark.parametrize("learn_rate", [0.0, -2e-3, np.inf, np.nan])
    def test_rejects_bad_learn_rate(self, shape, learn_rate):
        a, b = span_sides(67, shape=shape)
        for iterations in (0, 10):
            with pytest.raises(PreconditionError, match="learn rate"):
                probe_accuracy(a, b, seed=1, iterations=iterations,
                               learn_rate=learn_rate)


def probe_batch(side_a, side_b, m, rng):
    """A probe step's indices into each side, from the step's stream."""
    return (minibatch(rng.split("a").gen, side_a.shape[0], m),
            minibatch(rng.split("b").gen, side_b.shape[0], m))


def two_pass_probe_step(side_a, side_b, disc, idx_a, idx_b):
    """The probe step as one forward and one full backward per side."""
    m = len(idx_a)
    p_a = disc.forward(side_a[idx_a].reshape(m, -1).T)
    g_a, _ = disc.backward(1.0 / (m * np.clip(p_a, 1e-7, 1.0 - 1e-7)))
    p_b = disc.forward(side_b[idx_b].reshape(m, -1).T)
    g_b, _ = disc.backward(-1.0 / (m * (1.0 - np.clip(p_b, 1e-7, 1.0 - 1e-7))))
    return [x + y for x, y in zip(g_a, g_b)]


def probe_setup(seed, n=50, shape=(16, 7, 7)):
    rng = Rng(seed)
    a = rng.split("a").gen.normal(size=(n,) + shape)
    b = rng.split("b").gen.normal(size=(n,) + shape) + 0.3
    disc = Discriminator.init(int(np.prod(shape)), rng.split("disc"))
    disc.readout.weights = rng.split("w").gen.normal(size=disc.readout.weights.shape)
    return a, b, disc


def full_space_run(side_a, side_b, disc, idx_a, idx_b, learn_rate=2e-3):
    """`_full_space_steps` on the one step (idx_a, idx_b)."""
    m = len(idx_a)
    batch = np.concatenate([idx_a, idx_b + side_a.shape[0]])
    return eval_module._full_space_steps(
        side_a.reshape(side_a.shape[0], -1), side_b.reshape(side_b.shape[0], -1),
        disc, [batch], m, learn_rate)


class TestProbeStep:
    @pytest.mark.parametrize("seed,m", [(70, 32), (71, 5), (72, 50)])
    def test_batched_step_matches_two_passes(self, seed, m):
        # At rate 1 a step adds the gradient itself to each parameter.
        a, b, disc = probe_setup(seed)
        start = [p.copy() for p in disc.params()]
        want = two_pass_probe_step(a, b, disc,
                                   *probe_batch(a, b, m, Rng(seed).split("step")))
        stepped = full_space_run(a, b, disc, *probe_batch(a, b, m, Rng(seed).split("step")),
                                 learn_rate=1.0)
        for p, s, w in zip(stepped.params(), start, want):
            assert p.shape == w.shape
            assert np.max(np.abs((p - s) - w)) <= 1e-12 * np.max(np.abs(w))

    @pytest.mark.parametrize("side", [0, 1])
    def test_nan_in_one_side_raises(self, side):
        sides = list(probe_setup(73, n=8, shape=(2, 3, 3)))
        sides[side] = sides[side].copy()
        sides[side][3, 1, 2, 0] = np.nan
        a, b, disc = sides
        with pytest.raises(PreconditionError):
            full_space_run(a, b, disc, *probe_batch(a, b, 8, Rng(0)))

    def test_hidden_overflow_fails_at_the_hidden_output(self):
        # Positive maps under hidden weights of 1e308 give +inf hidden
        # outputs, which the random readout would otherwise meet first.
        a, b, disc = probe_setup(74, n=8, shape=(2, 3, 3))
        a, b = np.abs(a) + 1.0, np.abs(b) + 1.0
        disc.hidden.weights = np.full(disc.hidden.weights.shape, 1e308)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(PreconditionError, match="discriminator hidden output"):
                full_space_run(a, b, disc, *probe_batch(a, b, 8, Rng(0)))


# ---------------------------------------------------------------------------
# The probe as it ran before its plans were re-keyed and its steps ran in
# place: the references every planned draw and trained parameter must equal
# bit for bit.


def reference_probe_draws(rng, iterations, n_a, n_b, m):
    """The probe's draws as it made them before minibatches were planned
    ahead: step by step, between the updates, each stream on its own
    generator."""
    draws = []
    for t in range(iterations):
        step_rng = rng.split(f"step-{t}")
        draws.append((np.sort(step_rng.split("a").gen.choice(n_a, size=m, replace=False)),
                      np.sort(step_rng.split("b").gen.choice(n_b, size=m, replace=False))))
    return draws


def clip_upstream(p, m):
    """Gradient of mean log p[:m] + mean log(1 - p[m:]) wrt p, clipped."""
    c = np.clip(p, 1e-7, 1.0 - 1e-7)
    return np.concatenate([1.0 / (m * c[:m]), -1.0 / (m * (1.0 - c[m:]))])


def reference_probe_step(side_a, side_b, disc, idx_a, idx_b):
    """One full-space step's gradients: one batched pass through the
    `DenseLayer` chain of `disc`."""
    m = len(idx_a)
    rows = np.concatenate([side_a[idx_a], side_b[idx_b]]).reshape(2 * m, -1)
    return chain_ascent_pass(disc, rows, m)[1]


def reference_gram_steps(rows, n_a, disc, draws, learn_rate):
    """The Gram-path loop with per-step arrays and `sgd_step`; returns
    (C, head) as `_gram_steps` does."""
    gram = rows @ rows.T
    hidden = rows @ disc.hidden.weights.T
    moves = np.zeros_like(hidden)
    width = hidden.shape[1]
    head = np.concatenate([disc.hidden.bias, disc.readout.weights[0],
                           disc.readout.bias])
    for idx_a, idx_b in draws:
        batch = np.concatenate([idx_a, idx_b + n_a])
        readout = head[width:-1]
        z = hidden[batch]
        z += head[:width]
        h = np.maximum(z, 0.0)
        p = stable_sigmoid(h @ readout + head[-1])
        dz_read = clip_upstream(p, idx_a.shape[0]) * p * (1.0 - p)
        dz = dz_read[:, None] * readout * (z > 0)
        grads = np.concatenate([dz.sum(axis=0), dz_read @ h, [dz_read.sum()]])
        sgd_step([head], [grads], learn_rate, "ascend")
        dz *= learn_rate
        moves[batch] += dz
        hidden += gram[batch].T @ dz
    return moves, head


def reference_gram_probe(train_a, train_b, seed, iterations, learn_rate=2e-3):
    """The probe trained through the Gram matrix of its train folds."""
    rng = Rng(seed)
    n_a, n = train_a.shape[0], train_a.shape[0] + train_b.shape[0]
    rows = np.concatenate([train_a, train_b]).reshape(n, -1)
    disc = Discriminator.init(rows.shape[1], rng.split("disc"))
    m = min(32, n_a, train_b.shape[0])
    draws = reference_probe_draws(rng, iterations, n_a, train_b.shape[0], m)
    moves, head = reference_gram_steps(rows, n_a, disc, draws, learn_rate)
    width = disc.hidden.out_dim
    return Discriminator(
        DenseLayer(disc.hidden.weights + moves.T @ rows, head[:width], "relu"),
        DenseLayer(head[None, width:-1], head[-1:], "sigmoid"))


def folds(a, b, rng):
    """(train a, test a, train b, test b) of `_split_by_content`'s masks."""
    in_a, in_b = eval_module._split_by_content(a, b, rng)
    return a[in_a], a[~in_a], b[in_b], b[~in_b]


def train_probe(train_a, train_b, rng, iterations, learn_rate):
    """`_train_probe` on the two train folds, stacked a over b."""
    rows = np.concatenate([train_a, train_b])
    return eval_module._train_probe(rows.reshape(rows.shape[0], -1),
                                    train_a.shape[0], rng, iterations, learn_rate)


def full_space_probe(a, b, seed, iterations, learn_rate=2e-3):
    """The probe trained in full space, on every feature of its train folds.

    Returns the trained discriminator and the two held-out folds."""
    rng = Rng(seed)
    train_a, test_a, train_b, test_b = folds(a, b, rng.split("fold"))
    disc = Discriminator.init(int(np.prod(a.shape[1:])), rng.split("disc"))
    m = min(32, train_a.shape[0], train_b.shape[0])
    for ia, ib in reference_probe_draws(rng, iterations, train_a.shape[0],
                                        train_b.shape[0], m):
        grads = reference_probe_step(train_a, train_b, disc, ia, ib)
        sgd_step(disc.params(), grads, learn_rate, "ascend")
    return disc, test_a, test_b


def assert_same_draws(got, want):
    assert len(got) == len(want)
    for (ga, gb), (wa, wb) in zip(got, want):
        assert np.array_equal(ga, wa) and np.array_equal(gb, wb)


def split_batches(batches, n_a, m):
    """(side a, side b) indices of whole-batch plan rows."""
    return [(batch[:m], batch[m:] - n_a) for batch in batches]


class TestProbePlan:
    def test_plan_equals_reference_draws(self):
        batch = plan_probe(Rng(4), 7, 5, 30, 25, 6)
        assert batch.shape == (5, 12)
        want = reference_probe_draws(Rng(4), 12, 30, 25, 6)[7:]
        assert_same_draws(split_batches(batch, 30, 6), want)

    def test_planned_rows_equal_reference_draws_across_a_chunk(self):
        # The default eval's train folds: 175 rows a side, minibatches of 32.
        iterations = PLAN_CHUNK + 44
        rng = Rng(12)

        def plan(first, count):
            return (plan_probe(rng, first, count, 175, 175, 32),)

        rows = [batch for batch, in planned(plan, iterations)]
        assert_same_draws(split_batches(rows, 175, 32),
                          reference_probe_draws(Rng(12), iterations, 175, 175, 32))

    def test_probe_steps_get_the_reference_draws_across_chunks(self, monkeypatch):
        rng = Rng(80)
        a = rng.split("a").gen.normal(size=(50, 2, 2, 2))
        b = rng.split("b").gen.normal(size=(45, 2, 2, 2)) + 0.5
        seen = []
        run = eval_module._full_space_steps

        def spy(side_a, side_b, disc, steps, m, learn_rate):
            def recorded():
                for batch in steps:
                    seen.append(batch.copy())
                    yield batch
            return run(side_a, side_b, disc, recorded(), m, learn_rate)

        monkeypatch.setattr(eval_module, "_full_space_steps", spy)
        iterations = PLAN_CHUNK + 3
        probe_accuracy(a, b, seed=81, iterations=iterations)
        train_a, _, train_b, _ = folds(a, b, Rng(81).split("fold"))
        m = min(32, train_a.shape[0], train_b.shape[0])
        want = reference_probe_draws(Rng(81), iterations, train_a.shape[0],
                                     train_b.shape[0], m)
        assert_same_draws(split_batches(seen, train_a.shape[0], m), want)


def held_out_accuracy(disc, test_a, test_b):
    p_a = disc.forward(test_a.reshape(test_a.shape[0], -1).T)
    p_b = disc.forward(test_b.reshape(test_b.shape[0], -1).T)
    correct = int(np.sum(p_a > 0.5)) + int(np.sum(p_b < 0.5))
    ties = int(np.sum(p_a == 0.5)) + int(np.sum(p_b == 0.5))
    return (correct + ties / 2) / (test_a.shape[0] + test_b.shape[0])


def span_sides(seed, n=60, shared=4, shape=(16, 7, 7)):
    """Two sides with ``shared`` byte-identical samples in both."""
    rng = Rng(seed)
    common = rng.split("common").gen.normal(size=(shared,) + shape)
    a = np.concatenate([rng.split("a").gen.normal(size=(n,) + shape), common])
    b = np.concatenate([rng.split("b").gen.normal(size=(n,) + shape) + 0.3, common])
    return a, b


def gram_calls(monkeypatch):
    """Records each call of the probe's Gram path."""
    calls = []
    run = eval_module._gram_steps

    def spy(*args):
        calls.append(args[0].shape)
        return run(*args)

    monkeypatch.setattr(eval_module, "_gram_steps", spy)
    return calls


def first_failing_step(train, limit=10):
    """The first iteration count at which ``train(iterations)`` raises."""
    for iterations in range(1, limit + 1):
        try:
            train(iterations)
        except PreconditionError:
            return iterations
    return None


def assert_same_params(got, want):
    for g, w in zip(got.params(), want.params()):
        assert g.shape == w.shape and np.array_equal(g, w)


class TestProbeSpan:
    """With fewer training rows than features the probe steps through the
    rows' Gram matrix; it must be the full-space probe up to rounding."""

    def train_folds(self, a, b, seed):
        train_a, _, train_b, _ = folds(a, b, Rng(seed).split("fold"))
        return train_a, train_b

    def test_span_training_is_full_space_training(self, monkeypatch):
        a, b = span_sides(90)
        train_a, train_b = self.train_folds(a, b, 91)
        rows = np.concatenate([train_a, train_b]).reshape(-1, a[0].size)
        assert rows.shape[0] < rows.shape[1]
        assert np.linalg.matrix_rank(rows) < rows.shape[0]
        calls = gram_calls(monkeypatch)
        got = train_probe(train_a, train_b, Rng(91), 300, 2e-3)
        assert calls == [rows.shape]
        want, test_a, test_b = full_space_probe(a, b, 91, 300)
        for g, w in zip(got.params(), want.params()):
            assert g.shape == w.shape
            assert np.max(np.abs(g - w)) <= 1e-9 * np.max(np.abs(w))
        start = Discriminator.init(rows.shape[1], Rng(91).split("disc"))
        assert np.max(np.abs(got.hidden.weights - start.hidden.weights)) > 1e-3
        assert (probe_accuracy(a, b, seed=91, iterations=300)
                == held_out_accuracy(want, test_a, test_b))

    def test_gram_steps_are_the_reference_loop_bit_for_bit(self, monkeypatch):
        a, b = span_sides(90)
        train_a, train_b = self.train_folds(a, b, 91)
        calls = gram_calls(monkeypatch)
        got = train_probe(train_a, train_b, Rng(91), 300, 2e-3)
        assert len(calls) == 1
        assert_same_params(got, reference_gram_probe(train_a, train_b, 91, 300))

    def test_zero_iterations_score_the_untrained_probe(self):
        a, b = span_sides(92)
        want = held_out_accuracy(*full_space_probe(a, b, 93, 0))
        assert probe_accuracy(a, b, seed=93, iterations=0) == want

    def test_untrained_probe_reads_chance(self):
        # The zero readout gives p = 0.5 for every sample: a tie on both
        # sides counts half right, not wrong.
        assert probe_accuracy(*span_sides(92), seed=93, iterations=0) == 0.5

    def test_as_many_rows_as_features_train_in_full_space(self, monkeypatch):
        a, b = span_sides(94, shape=(2, 3, 3))
        train_a, train_b = self.train_folds(a, b, 95)
        assert train_a.shape[0] + train_b.shape[0] >= a[0].size
        calls = gram_calls(monkeypatch)
        got = train_probe(train_a, train_b, Rng(95), 300, 2e-3)
        want, test_a, test_b = full_space_probe(a, b, 95, 300)
        assert_same_params(got, want)
        assert (probe_accuracy(a, b, seed=95, iterations=300)
                == held_out_accuracy(want, test_a, test_b))
        assert calls == []

    def test_full_space_at_the_default_map_size_is_the_reference_loop(self):
        # 16 x 7 x 7 maps, as in the default world, with 840 training rows.
        a, b = span_sides(94, n=600, shared=0)
        train_a, train_b = self.train_folds(a, b, 95)
        assert train_a.shape[0] + train_b.shape[0] >= a[0].size
        got = train_probe(train_a, train_b, Rng(95), 300, 2e-3)
        assert_same_params(got, full_space_probe(a, b, 95, 300)[0])

    def test_overflowing_gram_matrix_trains_in_full_space(self, monkeypatch):
        # Entries of 1e153 square beyond float64, so K = X·Xᵀ is inf, while
        # the full-space steps stay finite.
        a, b = (side * 1e153 for side in span_sides(96))
        train_a, train_b = self.train_folds(a, b, 97)
        assert train_a.shape[0] + train_b.shape[0] < a[0].size
        calls = gram_calls(monkeypatch)
        with np.errstate(over="ignore", invalid="ignore"):
            got = train_probe(train_a, train_b, Rng(97), 50, 2e-3)
        assert calls == []
        want, test_a, test_b = full_space_probe(a, b, 97, 50)
        assert_same_params(got, want)
        # No floating-point warning escapes: pytest turns one into an error.
        assert (probe_accuracy(a, b, seed=97, iterations=50)
                == held_out_accuracy(want, test_a, test_b))

    # At scale 100 the readout's sum overflows into inf - inf; at scale
    # 1e-150 a stepped parameter overflows. Both at step 2.
    @pytest.mark.parametrize("scale,learn_rate", [(1e2, 1e305), (1e-150, 1e250)])
    def test_overflowing_step_fails_where_full_space_fails(self, scale, learn_rate):
        a, b = (side * scale for side in span_sides(96))
        train_a, train_b = self.train_folds(a, b, 97)
        assert train_a.shape[0] + train_b.shape[0] < a[0].size

        def gram(iterations):
            train_probe(train_a, train_b, Rng(97), iterations,
                                     learn_rate)

        with np.errstate(over="ignore", invalid="ignore"):
            step = first_failing_step(
                lambda iterations: full_space_probe(a, b, 97, iterations, learn_rate))
            assert step is not None and step > 1
            gram(step - 1)
            with pytest.raises(PreconditionError):
                gram(step)

    @pytest.mark.parametrize("scale,learn_rate", [(1e2, 1e305), (1e-150, 1e250)])
    def test_overflowing_full_space_step_fails_where_the_reference_fails(
            self, scale, learn_rate):
        a, b = (side * scale for side in span_sides(96, shape=(2, 3, 3)))
        train_a, train_b = self.train_folds(a, b, 97)
        assert train_a.shape[0] + train_b.shape[0] >= a[0].size
        with np.errstate(over="ignore", invalid="ignore"):
            want = first_failing_step(
                lambda iterations: full_space_probe(a, b, 97, iterations, learn_rate))
            got = first_failing_step(
                lambda iterations: train_probe(
                    train_a, train_b, Rng(97), iterations, learn_rate))
        assert want is not None and got == want

    def test_overflowing_head_fails_in_its_sgd_step(self):
        # Rows of 100 give readout gradients beyond 2, which a rate of 1e308
        # steps past float64 in the first step. The zero readout keeps the
        # step's hidden gradients, and so Z, at zero: without the check of the
        # stepped head, nothing else would fail.
        a, b = span_sides(100)
        rows = np.concatenate([a, b]).reshape(a.shape[0] + b.shape[0], -1) * 100.0
        disc = Discriminator.init(rows.shape[1], Rng(101).split("disc"))
        steps = [np.concatenate([np.arange(8), a.shape[0] + np.arange(8)])]
        with np.errstate(over="ignore"):
            with pytest.raises(PreconditionError, match="sgd step"):
                eval_module._gram_steps(rows, rows @ rows.T, disc, steps, 8, 1e308)

    def test_non_finite_pre_activations_fail_at_their_step(self):
        # Rows of 1e160 overflow the Gram matrix, so the first update of Z
        # is inf * 0: every other value of that step stays finite.
        a, b = span_sides(100)
        rows = np.concatenate([a, b]).reshape(a.shape[0] + b.shape[0], -1) * 1e160
        disc = Discriminator.init(rows.shape[1], Rng(101).split("disc"))
        steps = [np.concatenate([np.arange(8), a.shape[0] + np.arange(8)])]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(PreconditionError, match="pre-activations"):
                eval_module._gram_steps(rows, rows @ rows.T, disc, steps, 8, 2e-3)

    def test_peak_above_the_inputs_holds_no_basis(self):
        # A d x n basis of the span next to the n x d rows would exceed it.
        a, b = span_sides(98, n=250, shared=0)
        train_a, train_b = self.train_folds(a, b, 99)
        n, d = train_a.shape[0] + train_b.shape[0], a[0].size
        assert n < d
        tracemalloc.start()
        try:
            # The n x d rows are built inside the trace, so they count.
            rows = np.concatenate([train_a, train_b]).reshape(n, d)
            eval_module._train_probe(rows, train_a.shape[0], Rng(99), 20, 2e-3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * (n * d + n * n) * 8


def byte_keyed_split(a, b, rng):
    """The 70/30 fold split keyed by every sample's full bytes."""
    fold_of = {}
    for side in (a, b):
        for sample in side:
            fold_of.setdefault(sample.tobytes(), len(fold_of))
    order = rng.gen.permutation(len(fold_of))
    in_train = np.zeros(len(fold_of), dtype=bool)
    in_train[order[:int(len(fold_of) * 0.7)]] = True

    def split(side):
        picks = np.array([in_train[fold_of[s.tobytes()]] for s in side])
        return side[picks], side[~picks]

    return split(a) + split(b)


class TestFoldSplit:
    def test_folds_equal_the_byte_keyed_split(self):
        # Samples shared by both sides, and repeated within side a.
        a, b = span_sides(110, n=80, shared=10)
        a = np.concatenate([a, a[5:8], a[-2:]])
        got = folds(a, b, Rng(111).split("fold"))
        want = byte_keyed_split(a, b, Rng(111).split("fold"))
        assert len(got) == len(want) == 4
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_split_holds_no_copy_of_the_sides(self):
        # Keying the folds by each sample's bytes held a second copy of
        # both sides while splitting, and the folds themselves a third.
        a, b = span_sides(114, n=400, shared=50)
        tracemalloc.start()
        try:
            masks = eval_module._split_by_content(a, b, Rng(115).split("fold"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [m.shape for m in masks] == [(a.shape[0],), (b.shape[0],)]
        assert all(m.dtype == bool for m in masks)
        assert peak <= 0.05 * (a.nbytes + b.nbytes)


class TestMaskIoU:
    def grid(self, cells, shape=(7, 7)):
        g = np.zeros(shape, dtype=bool)
        for i, j in cells:
            g[i, j] = True
        return OcclusionMask(g)

    def test_identical_masks(self):
        m = self.grid([(0, 0), (3, 4)])
        assert mask_iou(m, m) == 1.0

    def test_disjoint_masks(self):
        a = self.grid([(0, 0)])
        b = self.grid([(6, 6)])
        assert mask_iou(a, b) == 0.0

    def test_column_overlap_hand_value(self):
        a = OcclusionMask(np.arange(49).reshape(7, 7) % 7 < 3)
        b = OcclusionMask(np.arange(49).reshape(7, 7) % 7 < 4)
        assert mask_iou(a, b) == 0.75

    def test_both_empty_counts_as_agreement(self):
        e = OcclusionMask(np.zeros((7, 7), dtype=bool))
        assert mask_iou(e, e) == 1.0

    def test_rejects_shape_mismatch(self):
        a = OcclusionMask(np.zeros((7, 7), dtype=bool))
        b = OcclusionMask(np.zeros((5, 5), dtype=bool))
        with pytest.raises(ShapeMismatchError):
            mask_iou(a, b)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6))
    def test_symmetric_and_tight(self, seed):
        rng = Rng(seed)
        a = OcclusionMask(rng.split("a").gen.random(size=(5, 5)) < 0.4)
        b = OcclusionMask(rng.split("b").gen.random(size=(5, 5)) < 0.4)
        assert mask_iou(a, b) == mask_iou(b, a)
        if a.count or b.count:
            same = np.array_equal(a.grid, b.grid)
            assert (mask_iou(a, b) == 1.0) == same
