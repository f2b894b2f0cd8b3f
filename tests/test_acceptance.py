"""Acceptance gate: eleven numbered end-to-end checks, one verdict line each.

Run with -s to see every verdict line; each test also fails loudly with the
same line so a plain -v run still reports per-criterion outcomes.
"""
import numpy as np
import pytest

import test_completion as gradcheck
import test_eval as mr_oracle
import test_prototypes as km_oracle
from test_cli import synthesized

from occfill import completion
from occfill.cli import (
    DataConfig,
    RunConfig,
    complete_proposal,
    evaluate,
    main,
    train_model,
    training_pools,
)
from occfill.completion import TrainConfig, progressive_train
from occfill.eval import (
    EvalConfig,
    compactness_ratio,
    log_avg_miss_rate,
    mask_iou,
    miss_rates_at_fppi,
    probe_accuracy,
)
from occfill.ndnum import Rng
from occfill.occlusion import (
    OcclusionConfig,
    channel_correlation,
    completion_mask,
    correlation_map,
    is_occluded,
    occluded_cells,
)
from occfill.prototypes import (FeaturePool, ProtoConfig, build_pool, kmeans,
                                nearest_prototype)
from occfill.synth import (
    MASK_PATTERNS,
    PEDESTRIAN,
    WorldConfig,
    gen_occluded,
    gen_pedestrian,
    gen_world,
    sample_mask,
    sample_scale,
)


def report(number, name, ok, detail):
    line = f"criterion {number:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def eval_compactness(eval_set, bank, gen, occ_config):
    """Scatter ratio of the occluded eval pedestrians after completion."""
    raw, comp, vis = [], [], []
    for p in eval_set:
        if p.label != PEDESTRIAN:
            continue
        if p.true_mask is None:
            vis.append(p.features)
            continue
        rep = complete_proposal(p.features, p.scale, bank, gen, occ_config)
        raw.append(p.features)
        comp.append(rep.completed if rep.occluded else p.features)
    return compactness_ratio(np.stack(raw), np.stack(comp), np.stack(vis))


def identity_generator(train, bank, config):
    visible, occ_pool, _ = training_pools(train)
    world = gen_world(config.world, config.seed)
    zero = (TrainConfig(0), TrainConfig(0))
    gen, _, _ = progressive_train(visible, occ_pool, bank, zero, Rng(0), world)
    return gen


@pytest.fixture(scope="module")
def flagging_bench():
    """Default world at seed 42 with a bank clustered from 800 visible samples."""
    world = gen_world(WorldConfig(), 42)
    rng = Rng(42)
    members = [gen_pedestrian(world, sample_scale(rng.split(f"v{i}").gen),
                              rng.split(f"v{i}").gen, pid=i) for i in range(800)]
    bank = kmeans(build_pool(members), ProtoConfig(k=5, restarts=5), seed=42)
    return world, bank


@pytest.fixture(scope="module")
def default_pipeline(tmp_path_factory):
    """Full default-config run at seed 42, shared by the training criteria."""
    config = RunConfig(seed=42).validate()
    train, eval_set = synthesized(config, tmp_path_factory.mktemp("synth"))
    bank = kmeans(build_pool(train), config.proto, seed=config.seed)
    gen, head, _ = train_model(train, bank, config)
    rows, diag = evaluate(eval_set, bank, gen, head, config)
    return {"config": config, "train": train, "eval": eval_set, "bank": bank,
            "gen": gen, "head": head, "rows": rows, "diag": diag}


def test_criterion_01_correlation_hand_examples():
    vis = np.array([[[1.0, 2.0], [0.0, 0.3]],
                    [[3.0, 0.5], [5.0, 0.7]]])
    ref = np.array([[[1.0, 2.0], [5.0, 0.7]],
                    [[1.0, 0.5], [0.0, 0.3]]])
    # per cell: mean over channels of a*b / (1 + |a-b|)
    want_map = np.array([[1.0, 2.125], [0.0, 0.15]])
    cmap = correlation_map(vis, ref)
    err_map = float(np.abs(cmap.grid - want_map).max())

    want_ch1 = np.array([[1.0, 0.25], [0.0, 0.15]])
    err_ch = float(np.abs(channel_correlation(vis, ref, 1).grid - want_ch1).max())

    pairs = [(0.0, 5.0, 0.0), (5.0, 0.0, 0.0), (1.0, 1.0, 1.0),
             (2.0, 2.0, 4.0), (0.5, 0.5, 0.25), (3.0, 1.0, 1.0),
             (1.0, 2.0, 1.0), (6.0, 2.0, 2.4), (0.3, 0.7, 0.15),
             (1.5, 0.5, 0.375), (1.3, 1.3, 1.69)]
    err_pairs = max(abs(float(channel_correlation(
        np.full((1, 1, 1), a), np.full((1, 1, 1), b), 0).grid[0, 0]) - want)
        for a, b, want in pairs)

    # flagging: strictly below the map mean (0.81875 here)
    flagged = occluded_cells(cmap)
    flags_ok = (np.array_equal(flagged.grid,
                               np.array([[False, False], [True, True]]))
                and flagged.count == 2)
    rule_ok = (is_occluded(flagged, OcclusionConfig(alpha=0.30))
               and is_occluded(flagged, OcclusionConfig(alpha=0.49))
               and not is_occluded(flagged, OcclusionConfig(alpha=0.50)))

    worst = max(err_map, err_ch, err_pairs)
    report(1, "correlation hand examples",
           worst <= 1e-12 and flags_ok and rule_ok,
           f"max_abs_err={worst:.2e} flags_ok={flags_ok} rule_ok={rule_ok}")


def test_criterion_02_kmeans_matches_exhaustive_partitioning():
    rng = Rng(7)
    mismatches = 0
    for trial in range(50):
        n = 3 + trial % 6
        k = 1 + trial % 3
        feats = rng.split(f"f{trial}").gen.normal(size=(n, 1, 1, 2))
        pool = FeaturePool(feats, rng.split(f"s{trial}").gen.uniform(50, 200, size=n))
        bank = kmeans(pool, ProtoConfig(k=k, restarts=20), seed=trial)
        got = km_oracle.wcss(pool, bank)
        want = km_oracle.brute_force_objective(feats.reshape(n, -1), k)
        mismatches += got != want
    report(2, "clustering objective equals exhaustive optimum",
           mismatches == 0, f"mismatches={mismatches}/50 pools")


def test_criterion_03_training_gradients_match_finite_differences():
    checked = 0
    seed = 0
    worst = 0.0
    while checked < 50:
        seed += 1
        assert seed < 400, "too many configs rejected by validity guards"
        setup = gradcheck.build_gradcheck_config(seed)
        if setup is None:
            continue
        gen, disc, pools, m = setup
        _, _, disc_grads = completion._disc_step(
            pools, gen, disc, *gradcheck.disc_batch(pools, m, Rng(seed).split("d")))
        numeric = gradcheck.finite_diff(
            lambda ps: gradcheck.disc_objective_oracle(ps, gen, pools),
            [p.copy() for p in disc.params()])
        worst = max(worst, gradcheck.max_rel_error(disc_grads, numeric))
        _, gen_grads = completion._gen_step(
            pools, gen, disc, gradcheck.gen_batch(pools, m, Rng(seed).split("g")))
        numeric = gradcheck.finite_diff(
            lambda ps: gradcheck.gen_objective_oracle(ps, disc, pools),
            [p.copy() for p in gen.params()])
        worst = max(worst, gradcheck.max_rel_error(gen_grads, numeric))
        checked += 1
    report(3, "training gradients match finite differences",
           worst < 1e-4, f"max_rel_err={worst:.2e} over {checked} configs")


def _localization_ious(sigma, kinds, bank_k, count=500):
    world = gen_world(WorldConfig(sigma_id=sigma), 42)
    rng = Rng(42)
    members = [gen_pedestrian(world, sample_scale(rng.split(f"v{i}").gen),
                              rng.split(f"v{i}").gen, pid=i) for i in range(300)]
    bank = kmeans(build_pool(members), ProtoConfig(k=bank_k, restarts=5), seed=42)
    ious = []
    for i in range(count):
        pr = rng.split(f"o{i}").gen
        base = gen_pedestrian(world, sample_scale(pr), pr, pid=1000 + i)
        pattern = MASK_PATTERNS[int(pr.integers(0, len(MASK_PATTERNS)))]
        mask = sample_mask(world, pattern, pr)
        kind = kinds[int(pr.random() < 0.5)] if len(kinds) == 2 else kinds[0]
        p = gen_occluded(world, base, mask, kind, pr)
        proto = nearest_prototype(bank, p.scale)
        cmap = correlation_map(p.features, proto.center)
        ious.append(mask_iou(completion_mask(cmap), p.true_mask))
    return np.array(ious)


def test_criterion_04_mask_localization():
    noisy = _localization_ious(0.05, ("object", "pedestrian"), bank_k=5)
    clean = _localization_ious(0.0, ("object",), bank_k=5)
    mean_iou = float(noisy.mean())
    exact = bool(np.all(clean == 1.0))
    report(4, "mask localization",
           mean_iou >= 0.6 and exact,
           f"mean_iou={mean_iou:.4f} (>=0.6) noise-free_exact={exact}")


def test_criterion_05_occlusion_classification(flagging_bench):
    world, bank = flagging_bench
    rng = Rng(42)
    occ_cfg = OcclusionConfig()
    samples = []
    for i in range(500):
        pr = rng.split(f"e{i}").gen
        samples.append((gen_pedestrian(world, sample_scale(pr), pr,
                                       pid=5000 + i), False))
    drawn = 0
    while sum(occ for _, occ in samples) < 500:
        pr = rng.split(f"o{drawn}").gen
        drawn += 1
        assert drawn < 5000, "occluded sampling failed to reach 500 samples"
        base = gen_pedestrian(world, sample_scale(pr), pr, pid=6000 + drawn)
        pattern = MASK_PATTERNS[int(pr.integers(0, len(MASK_PATTERNS)))]
        mask = sample_mask(world, pattern, pr)
        kind = "object" if pr.random() < 0.5 else "pedestrian"
        p = gen_occluded(world, base, mask, kind, pr)
        if p.visibility < 0.65:
            samples.append((p, True))
    hits = 0
    for p, want in samples:
        proto = nearest_prototype(bank, p.scale)
        flagged = occluded_cells(correlation_map(p.features, proto.center))
        hits += is_occluded(flagged, occ_cfg) == want
    accuracy = hits / len(samples)
    report(5, "occlusion classification",
           accuracy >= 0.9, f"accuracy={accuracy:.4f} on {len(samples)} proposals")


def test_criterion_06_completion_compacts_the_feature_space(default_pipeline):
    fx = default_pipeline
    trained = fx["diag"]["compactness_ratio"]
    iden = identity_generator(fx["train"], fx["bank"], fx["config"])
    pasted = eval_compactness(fx["eval"], fx["bank"], iden,
                              fx["config"].occ)
    report(6, "completion compacts the feature space",
           trained < 0.5 and pasted < 1.0,
           f"trained={trained:.4f} (<0.5) paste_only={pasted:.4f} (<1.0)")


def test_criterion_07_completed_features_confuse_a_fresh_probe(default_pipeline):
    fx = default_pipeline
    raw, vis = [], []
    for p in fx["eval"]:
        if p.label != PEDESTRIAN:
            continue
        (vis if p.true_mask is None else raw).append(p.features)
    raw_probe = probe_accuracy(np.stack(raw), np.stack(vis),
                               seed=fx["config"].seed)
    completed_probe = fx["diag"]["probe_accuracy"]
    report(7, "completed features confuse a fresh probe",
           raw_probe >= 0.9 and completed_probe <= 0.7,
           f"raw={raw_probe:.4f} (>=0.9) completed={completed_probe:.4f} (<=0.7)")


@pytest.mark.slow
def test_criterion_08_progressive_training_is_better_and_steadier(tmp_path):
    # Fixed dataset and bank; only the training seed varies per run, so the
    # spread measures the stability of each schedule rather than the world.
    config = RunConfig(seed=42, world=WorldConfig(sigma_id=0.25),
                       data=DataConfig(train_visible=400, train_occluded=200,
                                       train_background=50, eval_pedestrians=300,
                                       eval_background=0)).validate()
    train, eval_set = synthesized(config, tmp_path)
    bank = kmeans(build_pool(train), ProtoConfig(k=5, restarts=5), seed=42)
    visible, occ_pool, _ = training_pools(train)
    world = gen_world(config.world, config.seed)
    occ_cfg = config.occ

    def final_ratio(stages, s):
        gen, _, _ = progressive_train(visible, occ_pool, bank, stages,
                                      Rng(s).split("t"), world)
        return eval_compactness(eval_set, bank, gen, occ_cfg)

    # same total budget and base rate; the gentler second stage is the
    # schedule under test, the one-stage run keeps the base rate throughout
    prog_stages = (TrainConfig(2000, 0.02), TrainConfig(2000, 0.002))
    direct_stages = (TrainConfig(0, 0.02), TrainConfig(4000, 0.02))
    prog = np.array([final_ratio(prog_stages, s) for s in range(5)])
    direct = np.array([final_ratio(direct_stages, s) for s in range(5)])
    report(8, "progressive training is better and steadier",
           prog.std() <= direct.std() and prog.mean() <= direct.mean(),
           f"mean {prog.mean():.4f}<={direct.mean():.4f} "
           f"std {prog.std():.4f}<={direct.std():.4f}")


def test_criterion_09_heavy_occlusion_miss_rate_improves(default_pipeline):
    rows = {row["subset"]: row for row in default_pipeline["rows"]}
    ho_gain = rows["HO"]["delta_mr"]
    r_loss = rows["R"]["mr_completed"] - rows["R"]["mr_baseline"]
    report(9, "heavy-occlusion miss rate improves",
           ho_gain >= 0.02 and r_loss <= 0.005,
           f"HO {rows['HO']['mr_baseline']:.4f}->{rows['HO']['mr_completed']:.4f} "
           f"(gain {ho_gain:+.4f}>=0.02) R drift {r_loss:+.4f}<=0.005")


def test_criterion_10_miss_rate_matches_threshold_sweep():
    cfg = EvalConfig()
    mismatches = 0
    for seed in range(20):
        toy = mr_oracle.random_toy_set(seed)
        for subset in ("R", "HO", "R+HO"):
            got = miss_rates_at_fppi(*toy, cfg, subset)
            want = mr_oracle.oracle_miss_rates(*toy, cfg.fppi_points, subset)
            ref = float(np.exp(np.mean(np.log(np.maximum(want, 1e-4)))))
            if not (np.array_equal(got, want)
                    and log_avg_miss_rate(*toy, cfg, subset) == ref):
                mismatches += 1
    report(10, "miss rate matches an exhaustive threshold sweep",
           mismatches == 0, f"mismatches={mismatches}/60 subset evaluations")


@pytest.mark.slow
def test_criterion_11_pipeline_is_bit_identical_across_runs(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("seed = 42\n")
    for tag in ("r1", "r2"):
        d = tmp_path / tag
        steps = (
            ["synth-data", "--config", str(cfg), "--out", str(d / "s")],
            ["build-prototypes", "--config", str(cfg),
             "--data", str(d / "s/train.fcds"), "--out", str(d / "b")],
            ["train", "--config", str(cfg), "--data", str(d / "s/train.fcds"),
             "--bank", str(d / "b/bank.fcpb"), "--out", str(d / "t")],
            ["eval", "--config", str(cfg), "--data", str(d / "s/eval.fcds"),
             "--bank", str(d / "b/bank.fcpb"),
             "--model", str(d / "t/model.fcgd"), "--out", str(d / "e")],
        )
        for step in steps:
            assert main(step) == 0, step[0]
    artifacts = ("s/train.fcds", "s/eval.fcds", "s/manifest.json",
                 "b/bank.fcpb", "t/model.fcgd", "t/history.csv",
                 "e/metrics.csv")
    differing = [rel for rel in artifacts
                 if (tmp_path / "r1" / rel).read_bytes()
                 != (tmp_path / "r2" / rel).read_bytes()]
    report(11, "pipeline is bit-identical across runs",
           not differing, f"differing={differing or 'none'} of {len(artifacts)}")
