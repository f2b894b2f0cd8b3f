import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import occfill.eval as eval_module
from occfill.completion import PLAN_CHUNK, Discriminator, minibatch
from occfill.errors import PreconditionError, ShapeMismatchError
from occfill.eval import (
    _probe_step,
    plan_probe,
    Detection,
    EvalConfig,
    GroundTruth,
    compactness_ratio,
    log_avg_miss_rate,
    mask_iou,
    match_records,
    miss_rates_at_fppi,
    probe_accuracy,
    subset_of,
)
from occfill.ndnum import Rng, sgd_step
from occfill.synth import OcclusionMask


# ---------------------------------------------------------------------------
# independent oracle: enumerate every score threshold with dumb loops


def oracle_subsets(v):
    if v >= 0.65:
        return {"R", "R+HO"}
    if v >= 0.20:
        return {"HO", "R+HO"}
    return set()


def oracle_miss_rates(detections, ground_truths, fppi_points, subset):
    gt_vis = {g.id: g.visibility for g in ground_truths}
    relevant = {i for i, v in gt_vis.items() if subset in oracle_subsets(v)}
    points = []
    for t in sorted({d.score for d in detections}) + [float("inf")]:
        accepted = [d for d in detections if d.score >= t]
        claimed = set()
        fp = tp = 0
        for d in sorted(accepted, key=lambda d: -d.score):
            if d.id in gt_vis and d.id not in claimed:
                claimed.add(d.id)
                if d.id in relevant:
                    tp += 1
            else:
                fp += 1
        points.append((fp / len(gt_vis), 1.0 - tp / len(relevant)))
    return np.array([min(m for f, m in points if f <= budget)
                     for budget in fppi_points])


def random_toy_set(seed):
    rng = Rng(seed)
    vis_choices = [0.1, 0.25, 0.4, 0.65, 0.8, 0.95]
    gts = [GroundTruth(0, 0.9), GroundTruth(1, 0.4)]
    for i in range(int(rng.split("n").integers(0, 5))):
        v = vis_choices[int(rng.split(f"v{i}").integers(0, len(vis_choices)))]
        gts.append(GroundTruth(2 + i, v))
    score_grid = [round(0.1 * k, 1) for k in range(1, 10)]
    dets = []
    for g in gts:
        if rng.split(f"hit{g.id}").random() < 0.8:
            s = score_grid[int(rng.split(f"s{g.id}").integers(0, 9))]
            dets.append(Detection(g.id, s))
    for j in range(int(rng.split("fp").integers(0, 5))):
        s = score_grid[int(rng.split(f"fs{j}").integers(0, 9))]
        dets.append(Detection(100 + j, s))
    return dets, gts


class TestSubsetOf:
    def test_reasonable_sample(self):
        assert subset_of(0.9) == {"R", "R+HO"}

    def test_heavily_occluded_sample(self):
        assert subset_of(0.4) == {"HO", "R+HO"}

    def test_boundary_goes_to_reasonable(self):
        assert subset_of(0.65) == {"R", "R+HO"}

    def test_lower_boundary_included(self):
        assert subset_of(0.20) == {"HO", "R+HO"}

    def test_below_range_belongs_nowhere(self):
        assert subset_of(0.1) == set()

    def test_rejects_out_of_range(self):
        with pytest.raises(PreconditionError):
            subset_of(1.2)
        with pytest.raises(PreconditionError):
            subset_of(-0.05)

    def test_r_and_ho_partition_combined(self):
        for v in np.linspace(0.2, 1.0, 81):
            labels = subset_of(float(v))
            assert "R+HO" in labels
            assert ("R" in labels) != ("HO" in labels)


class TestMatchRecords:
    def test_higher_score_claims_the_ground_truth(self):
        gts = [GroundTruth(1, 0.9)]
        dets = [Detection(1, 0.3), Detection(1, 0.8)]
        recs = match_records(dets, gts)
        assert [r.score for r in recs] == [0.8, 0.3]
        assert [r.matched for r in recs] == [True, False]

    def test_membership_recorded_from_ground_truth(self):
        recs = match_records([Detection(1, 0.5)], [GroundTruth(1, 0.4)])
        assert recs[0].subsets == frozenset({"HO", "R+HO"})

    def test_background_detection_unmatched(self):
        recs = match_records([Detection(99, 0.5)], [GroundTruth(1, 0.9)])
        assert not recs[0].matched and recs[0].subsets == frozenset()

    def test_duplicate_ground_truth_rejected(self):
        with pytest.raises(PreconditionError):
            match_records([], [GroundTruth(1, 0.9), GroundTruth(1, 0.5)])

    def test_non_finite_score_rejected(self):
        with pytest.raises(PreconditionError):
            match_records([Detection(1, float("nan"))], [GroundTruth(1, 0.9)])


class TestLogAvgMissRate:
    def test_perfect_detector_hits_the_floor(self):
        gts = [GroundTruth(i, 0.9) for i in range(5)]
        dets = [Detection(i, 0.9) for i in range(5)]
        dets += [Detection(100 + i, 0.1) for i in range(3)]
        assert log_avg_miss_rate(dets, gts, subset="R") == pytest.approx(
            1e-4, rel=1e-12)

    def test_zero_detections_miss_everything(self):
        gts = [GroundTruth(i, 0.9) for i in range(4)]
        assert log_avg_miss_rate([], gts, subset="R") == 1.0

    def test_empty_subset_rejected(self):
        gts = [GroundTruth(0, 0.9)]
        with pytest.raises(PreconditionError):
            log_avg_miss_rate([], gts, subset="HO")

    def test_unknown_subset_rejected(self):
        with pytest.raises(PreconditionError):
            log_avg_miss_rate([], [GroundTruth(0, 0.9)], subset="ALL")

    def test_interleaved_hand_example(self):
        # Prefix points: (0, 2/3), (1/3, 2/3), (1/3, 1/3), (2/3, 1/3),
        # (2/3, 0); budgets below 1/3 can only reach miss 2/3, 0.562
        # reaches 1/3, and the full budget reaches the floor.
        gts = [GroundTruth(1, 0.9), GroundTruth(2, 0.9), GroundTruth(3, 0.9)]
        dets = [Detection(1, 0.9), Detection(100, 0.8), Detection(2, 0.7),
                Detection(101, 0.6), Detection(3, 0.5)]
        want = math.exp((7 * math.log(2 / 3) + math.log(1 / 3)
                         + math.log(1e-4)) / 9)
        got = log_avg_miss_rate(dets, gts, subset="R")
        assert got == pytest.approx(want, rel=1e-12)

    def test_explicit_image_count_scales_budgets(self):
        gts = [GroundTruth(1, 0.9), GroundTruth(2, 0.9), GroundTruth(3, 0.9)]
        dets = [Detection(1, 0.9), Detection(100, 0.8), Detection(2, 0.7),
                Detection(101, 0.6), Detection(3, 0.5)]
        # With 150 images one false positive fits the tightest budget
        # (1/150 < 0.01 < 2/150) and both fit every later one.
        want = math.exp((math.log(1 / 3) + 8 * math.log(1e-4)) / 9)
        got = log_avg_miss_rate(dets, gts, subset="R", images=150)
        assert got == pytest.approx(want, rel=1e-12)

    def test_rejects_bad_image_count(self):
        with pytest.raises(PreconditionError):
            log_avg_miss_rate([], [GroundTruth(1, 0.9)], subset="R", images=0)

    def test_matches_brute_force_on_20_toy_sets(self):
        cfg = EvalConfig()
        for seed in range(20):
            dets, gts = random_toy_set(seed)
            for subset in ("R", "HO", "R+HO"):
                got = miss_rates_at_fppi(dets, gts, cfg, subset)
                want = oracle_miss_rates(dets, gts, cfg.fppi_points, subset)
                assert np.array_equal(got, want), (seed, subset)
                mr = log_avg_miss_rate(dets, gts, cfg, subset)
                ref = float(np.exp(np.mean(np.log(np.maximum(want, 1e-4)))))
                assert mr == ref, (seed, subset)

    def test_bounded_by_floor_and_one(self):
        for seed in range(10):
            dets, gts = random_toy_set(100 + seed)
            mr = log_avg_miss_rate(dets, gts, subset="R+HO")
            assert 1e-4 * (1.0 - 1e-9) <= mr <= 1.0

    def test_removing_a_hit_never_improves(self):
        for seed in range(8):
            dets, gts = random_toy_set(200 + seed)
            base = log_avg_miss_rate(dets, gts, subset="R+HO")
            gt_ids = {g.id for g in gts}
            for drop in [d for d in dets if d.id in gt_ids]:
                rest = [d for d in dets if d is not drop]
                assert log_avg_miss_rate(rest, gts, subset="R+HO") >= base

    def test_adding_a_false_positive_never_improves(self):
        for seed in range(8):
            dets, gts = random_toy_set(300 + seed)
            base = log_avg_miss_rate(dets, gts, subset="R+HO")
            for score in (0.05, 0.45, 0.95):
                more = dets + [Detection(999, score)]
                assert log_avg_miss_rate(more, gts, subset="R+HO") >= base

    def test_ignored_ground_truths_do_not_count(self):
        # id 2 is below every subset: its detection is neither hit nor miss
        gts = [GroundTruth(1, 0.9), GroundTruth(2, 0.1)]
        dets = [Detection(1, 0.9), Detection(2, 0.8)]
        assert log_avg_miss_rate(dets, gts, subset="R") == pytest.approx(
            1e-4, rel=1e-12)


class TestEvalConfig:
    def test_default_grid(self):
        pts = np.asarray(EvalConfig().validate().fppi_points)
        assert pts.size == 9
        assert pts[0] == 1e-2 and pts[-1] == 1.0
        assert np.all(np.diff(pts) > 0)
        assert np.allclose(pts, np.logspace(-2, 0, 9))

    def test_rejects_bad_grids(self):
        for count in (1, 0, -1):
            with pytest.raises(PreconditionError, match="eval.fppi_count"):
                EvalConfig(fppi_count=count).validate()

    def test_points_span_the_range_at_any_count(self):
        for count in (2, 3, 9, 20):
            pts = EvalConfig(fppi_count=count).validate().fppi_points
            assert len(pts) == count
            assert pts[0] == 1e-2 and pts[-1] == 1.0


class TestCompactnessRatio:
    def test_identity_is_exactly_one(self):
        rng = Rng(60)
        raw = rng.split("r").normal(shape=(10, 2, 3, 3))
        vis = rng.split("v").normal(shape=(12, 2, 3, 3))
        assert compactness_ratio(raw, raw, vis) == 1.0

    def test_halved_offsets_quarter_the_ratio(self):
        u = Rng(61).normal(shape=(1, 2, 3, 3))
        vis = np.concatenate([u, -u])
        raw = np.concatenate([2.0 * u, -2.0 * u])
        completed = np.concatenate([u, -u])
        assert compactness_ratio(raw, completed, vis) == pytest.approx(
            0.25, abs=1e-12)

    def test_completed_as_visible_shrinks_ratio(self):
        rng = Rng(62)
        vis = rng.split("v").normal(shape=(30, 2, 3, 3))
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

    def test_blocks_give_the_bits_of_one_full_pass(self):
        rng = Rng(67)
        n = 2 * eval_module.COMPACTNESS_BLOCK + 5
        raw, completed, vis = (rng.split(k).normal(shape=(n, 16, 7, 7)) for k in "rcv")
        centroid = vis.mean(axis=0)

        def scatter(feats):
            return float(np.mean(np.sum((feats - centroid) ** 2, axis=(1, 2, 3))))

        assert compactness_ratio(raw, completed, vis) == scatter(completed) / scatter(raw)

    def test_peak_above_the_inputs_is_a_few_blocks(self):
        rng = Rng(68)
        shape = (16, 7, 7)
        n = 8 * eval_module.COMPACTNESS_BLOCK
        raw, completed, vis = (rng.split(k).normal(shape=(n,) + shape) for k in "rcv")
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
        base = rng.normal(shape=(120, 2, 3, 3))
        perm = rng.split("p").permutation(120)
        assert 0.35 <= probe_accuracy(base, base[perm], seed=0, iterations=300) <= 0.65

    def test_disjoint_offsets_score_high(self):
        base = Rng(64).normal(shape=(100, 2, 3, 3))
        assert probe_accuracy(base + 2.0, base - 2.0, seed=0, iterations=300) > 0.9

    def test_deterministic_given_seed(self):
        rng = Rng(65)
        a = rng.split("a").normal(shape=(60, 2, 3, 3))
        b = rng.split("b").normal(shape=(60, 2, 3, 3))
        assert (probe_accuracy(a, b, seed=9, iterations=300)
                == probe_accuracy(a, b, seed=9, iterations=300))

    def test_rejects_small_sets(self):
        a = Rng(66).normal(shape=(39, 2, 3, 3))
        with pytest.raises(PreconditionError):
            probe_accuracy(a, a, seed=0)

    def test_rejects_empty_sets(self):
        with pytest.raises(PreconditionError):
            probe_accuracy(np.zeros((0, 2, 3, 3)), np.zeros((50, 2, 3, 3)), 0)

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            probe_accuracy(np.zeros((50, 2, 3, 3)), np.zeros((50, 2, 3, 4)), 0)


def probe_batch(side_a, side_b, m, rng):
    """A probe step's indices into each side, from the step's stream."""
    return (minibatch(rng.split("a"), side_a.shape[0], m),
            minibatch(rng.split("b"), side_b.shape[0], m))


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
    a = rng.split("a").normal(shape=(n,) + shape)
    b = rng.split("b").normal(shape=(n,) + shape) + 0.3
    disc = Discriminator.init(int(np.prod(shape)), rng.split("disc"))
    disc.readout.weights = rng.split("w").normal(shape=disc.readout.weights.shape)
    return a, b, disc


class TestProbeStep:
    @pytest.mark.parametrize("seed,m", [(70, 32), (71, 5), (72, 50)])
    def test_batched_step_matches_two_passes(self, seed, m):
        a, b, disc = probe_setup(seed)
        got = _probe_step(a, b, disc, *probe_batch(a, b, m, Rng(seed).split("step")))
        want = two_pass_probe_step(a, b, disc,
                                   *probe_batch(a, b, m, Rng(seed).split("step")))
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))

    @pytest.mark.parametrize("side", [0, 1])
    def test_nan_in_one_side_raises(self, side):
        sides = list(probe_setup(73, n=8, shape=(2, 3, 3)))
        sides[side] = sides[side].copy()
        sides[side][3, 1, 2, 0] = np.nan
        a, b, disc = sides
        with pytest.raises(PreconditionError):
            _probe_step(a, b, disc, *probe_batch(a, b, 8, Rng(0)))


def reference_probe_draws(rng, iterations, n_a, n_b, m):
    """The probe's draws as it made them before minibatches were planned
    ahead: step by step, between the updates."""
    draws = []
    for t in range(iterations):
        step_rng = rng.split(f"step-{t}")
        draws.append((np.sort(step_rng.split("a").choice(n_a, size=m, replace=False)),
                      np.sort(step_rng.split("b").choice(n_b, size=m, replace=False))))
    return draws


def assert_same_draws(got, want):
    assert len(got) == len(want)
    for (ga, gb), (wa, wb) in zip(got, want):
        assert np.array_equal(ga, wa) and np.array_equal(gb, wb)


class TestProbePlan:
    def test_plan_equals_reference_draws(self):
        idx_a, idx_b = plan_probe(Rng(4), 7, 5, 30, 25, 6)
        assert idx_a.shape == idx_b.shape == (5, 6)
        want = reference_probe_draws(Rng(4), 12, 30, 25, 6)[7:]
        assert_same_draws(list(zip(idx_a, idx_b)), want)

    def test_probe_steps_get_the_reference_draws_across_chunks(self, monkeypatch):
        rng = Rng(80)
        a = rng.split("a").normal(shape=(50, 2, 2, 2))
        b = rng.split("b").normal(shape=(45, 2, 2, 2)) + 0.5
        seen = []

        def spy(side_a, side_b, disc, idx_a, idx_b):
            seen.append((idx_a.copy(), idx_b.copy()))
            return _probe_step(side_a, side_b, disc, idx_a, idx_b)

        monkeypatch.setattr(eval_module, "_probe_step", spy)
        iterations = PLAN_CHUNK + 3
        probe_accuracy(a, b, seed=81, iterations=iterations)
        train_a, _, train_b, _ = eval_module._split_by_content(
            a, b, Rng(81).split("fold"))
        m = min(32, train_a.shape[0], train_b.shape[0])
        want = reference_probe_draws(Rng(81), iterations, train_a.shape[0],
                                     train_b.shape[0], m)
        assert_same_draws(seen, want)


def full_space_probe(a, b, seed, iterations, learn_rate=2e-3):
    """The probe trained in full space, on every feature of its train folds.

    Returns the trained discriminator and the two held-out folds."""
    rng = Rng(seed)
    train_a, test_a, train_b, test_b = eval_module._split_by_content(
        a, b, rng.split("fold"))
    disc = Discriminator.init(int(np.prod(a.shape[1:])), rng.split("disc"))
    m = min(32, train_a.shape[0], train_b.shape[0])
    idx_a, idx_b = plan_probe(rng, 0, iterations, train_a.shape[0],
                              train_b.shape[0], m)
    for ia, ib in zip(idx_a, idx_b):
        grads = _probe_step(train_a, train_b, disc, ia, ib)
        disc.set_params(sgd_step(disc.params(), grads, learn_rate, "ascend"))
    return disc, test_a, test_b


def held_out_accuracy(disc, test_a, test_b):
    p_a = disc.forward(test_a.reshape(test_a.shape[0], -1).T)
    p_b = disc.forward(test_b.reshape(test_b.shape[0], -1).T)
    correct = int(np.sum(p_a > 0.5)) + int(np.sum(p_b < 0.5))
    ties = int(np.sum(p_a == 0.5)) + int(np.sum(p_b == 0.5))
    return (correct + ties / 2) / (test_a.shape[0] + test_b.shape[0])


def span_sides(seed, n=60, shared=4, shape=(16, 7, 7)):
    """Two sides with ``shared`` byte-identical samples in both."""
    rng = Rng(seed)
    common = rng.split("common").normal(shape=(shared,) + shape)
    a = np.concatenate([rng.split("a").normal(shape=(n,) + shape), common])
    b = np.concatenate([rng.split("b").normal(shape=(n,) + shape) + 0.3, common])
    return a, b


class TestProbeSpan:
    def train_folds(self, a, b, seed):
        train_a, _, train_b, _ = eval_module._split_by_content(
            a, b, Rng(seed).split("fold"))
        return train_a, train_b

    def test_span_training_is_full_space_training(self):
        a, b = span_sides(90)
        train_a, train_b = self.train_folds(a, b, 91)
        rows = np.concatenate([train_a, train_b]).reshape(-1, a[0].size)
        assert rows.shape[0] < rows.shape[1]
        assert np.linalg.matrix_rank(rows) < rows.shape[0]
        got = eval_module._train_probe(train_a, train_b, Rng(91), 300, 2e-3)
        want, test_a, test_b = full_space_probe(a, b, 91, 300)
        for g, w in zip(got.params(), want.params()):
            assert g.shape == w.shape
            assert np.max(np.abs(g - w)) <= 1e-9 * np.max(np.abs(w))
        start = Discriminator.init(rows.shape[1], Rng(91).split("disc"))
        assert np.max(np.abs(got.hidden.weights - start.hidden.weights)) > 1e-3
        assert (probe_accuracy(a, b, seed=91, iterations=300)
                == held_out_accuracy(want, test_a, test_b))

    def test_zero_iterations_score_the_untrained_probe(self):
        a, b = span_sides(92)
        want = held_out_accuracy(*full_space_probe(a, b, 93, 0))
        assert probe_accuracy(a, b, seed=93, iterations=0) == want

    def test_untrained_probe_reads_chance(self):
        # The zero readout gives p = 0.5 for every sample: a tie on both
        # sides counts half right, not wrong.
        assert probe_accuracy(*span_sides(92), seed=93, iterations=0) == 0.5

    def test_as_many_rows_as_features_train_in_full_space(self):
        a, b = span_sides(94, shape=(2, 3, 3))
        train_a, train_b = self.train_folds(a, b, 95)
        assert train_a.shape[0] + train_b.shape[0] >= a[0].size
        got = eval_module._train_probe(train_a, train_b, Rng(95), 300, 2e-3)
        want, test_a, test_b = full_space_probe(a, b, 95, 300)
        assert all(np.array_equal(g, w) for g, w in zip(got.params(), want.params()))
        assert (probe_accuracy(a, b, seed=95, iterations=300)
                == held_out_accuracy(want, test_a, test_b))


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
        a = OcclusionMask(rng.split("a").random(shape=(5, 5)) < 0.4)
        b = OcclusionMask(rng.split("b").random(shape=(5, 5)) < 0.4)
        assert mask_iou(a, b) == mask_iou(b, a)
        if a.count or b.count:
            same = np.array_equal(a.grid, b.grid)
            assert (mask_iou(a, b) == 1.0) == same
