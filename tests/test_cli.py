import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from occfill.cli import (
    CONFIG_KEYS,
    RunConfig,
    config_from_mapping,
    config_to_text,
    main,
    parse_config_text,
    synthesize,
)
from occfill.completion import read_model
from occfill.errors import PreconditionError
from occfill.eval import mask_iou
from occfill.ndnum import Rng
from occfill.occlusion import completion_mask, correlation_map
from occfill.prototypes import build_pool, nearest_prototype, read_bank
from occfill.synth import PEDESTRIAN, read_dataset

SMALL = """\
seed = 7
world.channels = 8
world.grid_x = 5
world.grid_y = 5
data.train_visible = 60
data.train_occluded = 30
data.train_background = 20
data.eval_pedestrians = 60
data.eval_background = 40
proto.k = 3
proto.restarts = 2
train1.iterations = 40
train1.batch_size = 16
train2.iterations = 40
train2.batch_size = 16
head.iterations = 60
"""


def run_ok(argv):
    code = main(argv)
    assert code == 0
    return code


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """One tiny end-to-end run shared by the read-only command tests."""
    base = tmp_path_factory.mktemp("small")
    cfg = base / "cfg.txt"
    cfg.write_text(SMALL)
    run_ok(["synth-data", "--config", str(cfg), "--out", str(base / "s")])
    run_ok(["build-prototypes", "--config", str(cfg),
            "--data", str(base / "s/train.fcds"), "--out", str(base / "b")])
    run_ok(["train", "--config", str(cfg),
            "--data", str(base / "s/train.fcds"),
            "--bank", str(base / "b/bank.fcpb"), "--out", str(base / "t")])
    run_ok(["eval", "--config", str(cfg),
            "--data", str(base / "s/eval.fcds"),
            "--bank", str(base / "b/bank.fcpb"),
            "--model", str(base / "t/model.fcgd"), "--out", str(base / "e")])
    return {"base": base, "cfg": cfg, "train": base / "s/train.fcds",
            "eval": base / "s/eval.fcds", "bank": base / "b/bank.fcpb",
            "model": base / "t/model.fcgd"}


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    """Default-sized dataset and bank at seed 42 for the showcase checks."""
    base = tmp_path_factory.mktemp("default")
    cfg = base / "cfg.txt"
    cfg.write_text("seed = 42\n")
    run_ok(["synth-data", "--config", str(cfg), "--out", str(base / "s")])
    run_ok(["build-prototypes", "--config", str(cfg),
            "--data", str(base / "s/train.fcds"), "--out", str(base / "b")])
    return {"base": base, "cfg": cfg, "train": base / "s/train.fcds",
            "eval": base / "s/eval.fcds", "bank": base / "b/bank.fcpb"}


class TestConfigText:
    def test_defaults_from_empty_mapping(self):
        assert config_from_mapping({}) == RunConfig()

    def test_round_trip_preserves_every_field(self):
        config = RunConfig(seed=9, channels=12, grid_x=6, grid_y=8,
                           sigma_id=0.125, train_visible=11, proto_k=2,
                           alpha=0.45, beta_mode="fixed", beta=0.75,
                           stage1_learn_rate=3e-3, stage2_iterations=17,
                           head_learn_rate=0.25, fppi_count=5)
        text = config_to_text(config)
        assert config_from_mapping(parse_config_text(text)) == config

    def test_archive_lists_every_key(self):
        text = config_to_text(RunConfig())
        for key in CONFIG_KEYS:
            assert f"{key}=" in text

    def test_blank_lines_and_comments_skipped(self):
        mapping = parse_config_text("\n# note\n  \nseed = 3\n# seed = 9\n")
        assert mapping == {"seed": "3"}

    def test_duplicate_key_rejected(self):
        with pytest.raises(PreconditionError, match="duplicate"):
            parse_config_text("seed = 1\nseed = 2\n")

    def test_line_without_equals_rejected(self):
        with pytest.raises(PreconditionError, match="key=value"):
            parse_config_text("seed 3\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(PreconditionError, match="unknown config key"):
            config_from_mapping({"world.depth": "4"})

    def test_non_numeric_value_rejected(self):
        with pytest.raises(PreconditionError, match="config key seed"):
            config_from_mapping({"seed": "abc"})

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 64 - 1),
           sigma=st.floats(min_value=1e-6, max_value=10.0,
                           allow_nan=False, allow_infinity=False),
           rate=st.floats(min_value=1e-9, max_value=1.0,
                          allow_nan=False, allow_infinity=False))
    def test_round_trip_is_exact_for_any_values(self, seed, sigma, rate):
        config = RunConfig(seed=seed, sigma_id=sigma, stage1_learn_rate=rate)
        text = config_to_text(config)
        assert config_from_mapping(parse_config_text(text)) == config


class TestRunConfigValidate:
    def test_default_config_valid(self):
        assert RunConfig().validate() == RunConfig()

    @pytest.mark.parametrize("kwargs,match", [
        ({"seed": -1}, "seed"),
        ({"seed": 2 ** 64}, "seed"),
        ({"proto_restarts": 0}, "proto.restarts"),
        ({"train_visible": -1}, "non-negative"),
        ({"proposals_per_image": 0}, "proposals_per_image"),
        ({"proto_k": 0}, "proto.k"),
        ({"head_learn_rate": 0.0}, "head"),
        ({"fppi_count": 1}, "fppi_count"),
        ({"alpha": 1.5}, "alpha"),
        ({"beta_mode": "adaptive"}, "beta_mode"),
    ])
    def test_bad_values_rejected(self, kwargs, match):
        with pytest.raises(PreconditionError, match=match):
            RunConfig(**kwargs).validate()


class TestSynthData:
    def test_manifest_counts_match_config(self, small_run):
        manifest = json.loads(
            (small_run["base"] / "s/manifest.json").read_text())
        assert manifest["seed"] == 7
        assert manifest["dims"] == [8, 5, 5]
        train, ev = manifest["train"], manifest["eval"]
        assert train["pedestrian"] == 90
        assert train["background"] == 20
        assert train["total"] == 110
        assert train["images"] == 11
        assert ev["pedestrian"] == 60
        assert ev["background"] == 40
        assert ev["total"] == 100
        assert ev["images"] == 10
        assert ev["R"] > 0 and ev["HO"] > 0
        assert ev["R+HO"] == ev["pedestrian"]

    def test_datasets_read_back(self, small_run):
        train = read_dataset(small_run["train"])
        ev = read_dataset(small_run["eval"])
        assert len(train) == 110
        assert len(ev) == 100
        assert [p.id for p in ev] == list(range(100))
        assert all(p.features.shape == (8, 5, 5) for p in ev)

    def test_config_archived_in_out_dir(self, small_run):
        text = (small_run["base"] / "s/config.txt").read_text()
        archived = config_from_mapping(parse_config_text(text))
        wanted = config_from_mapping(parse_config_text(SMALL))
        assert archived == wanted

    def test_seed_flag_overrides_config_file(self, small_run, tmp_path):
        run_ok(["synth-data", "--config", str(small_run["cfg"]),
                "--seed", "11", "--out", str(tmp_path)])
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["seed"] == 11
        other = (tmp_path / "train.fcds").read_bytes()
        assert other != small_run["train"].read_bytes()

    def test_zero_counts_give_valid_empty_dataset(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(SMALL.replace("data.eval_pedestrians = 60",
                                     "data.eval_pedestrians = 0")
                            .replace("data.eval_background = 40",
                                     "data.eval_background = 0"))
        run_ok(["synth-data", "--config", str(cfg), "--out", str(tmp_path)])
        assert read_dataset(tmp_path / "eval.fcds") == []
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["eval"]["total"] == 0
        assert manifest["eval"]["images"] == 0

    def test_half_occlusion_leaves_even_indices_visible(self):
        config = config_from_mapping(parse_config_text(SMALL)).validate()
        _, ev, _ = synthesize(config)
        peds = [p for p in ev if p.label == PEDESTRIAN]
        assert all(p.true_mask is None for p in peds[0::2])
        assert all(p.true_mask is not None for p in peds[1::2])


class TestBuildPrototypes:
    def test_cluster_lines_and_member_total(self, small_run, capsys):
        capsys.readouterr()
        run_ok(["build-prototypes", "--config", str(small_run["cfg"]),
                "--data", str(small_run["train"]),
                "--out", str(small_run["base"] / "b2")])
        out = capsys.readouterr().out
        members = [int(line.rsplit("(", 1)[1].split()[0])
                   for line in out.splitlines() if line.startswith("cluster ")]
        assert len(members) == 3
        assert sum(members) == 60

    def test_bank_reads_back_with_requested_k(self, small_run):
        bank = read_bank(small_run["bank"])
        assert bank.k == 3
        assert all(p.center.shape == (8, 5, 5) for p in bank.prototypes)

    def test_k_larger_than_pool_fails_cleanly(self, small_run, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(SMALL + "proto.k = 999\n")
        code = main(["build-prototypes", "--config", str(cfg),
                     "--data", str(small_run["train"]), "--out", str(tmp_path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestTrain:
    def test_history_rows_cover_both_stages(self, small_run):
        rows = (small_run["base"] / "t/history.csv").read_text().splitlines()
        assert rows[0] == "iteration,disc_objective,gen_objective,disc_accuracy"
        assert len(rows) == 1 + 40 + 40

    def test_zero_iterations_keep_generator_at_identity(self, small_run,
                                                        tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(SMALL.replace("train1.iterations = 40",
                                     "train1.iterations = 0")
                            .replace("train2.iterations = 40",
                                     "train2.iterations = 0"))
        run_ok(["train", "--config", str(cfg),
                "--data", str(small_run["train"]),
                "--bank", str(small_run["bank"]), "--out", str(tmp_path)])
        gen, _, head, grid, _ = read_model(tmp_path / "model.fcgd")
        x = Rng(3).normal(shape=(8, 5, 5)) ** 2
        assert np.array_equal(gen.forward(x), x)
        assert head.trained
        assert tuple(grid) == (5, 5)
        history = (tmp_path / "history.csv").read_text().splitlines()
        assert len(history) == 1

    def test_model_round_trips_stage_configs(self, small_run):
        _, _, _, _, configs = read_model(small_run["model"])
        assert [c.iterations for c in configs] == [40, 40]
        assert [c.stage for c in configs] == ["synthetic", "real"]


class TestEval:
    def test_metrics_cover_all_subsets(self, small_run):
        with open(small_run["base"] / "e/metrics.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["subset"] for r in rows] == ["R", "HO", "R+HO"]
        for row in rows:
            base = float(row["mr_baseline"])
            comp = float(row["mr_completed"])
            assert 0.0 <= base <= 1.0 and 0.0 <= comp <= 1.0
            assert float(row["delta_mr"]) == pytest.approx(base - comp)
            assert int(row["gt_count"]) > 0
            assert int(row["images"]) == 10

    def test_empty_subset_reports_nan_and_keeps_the_others(self, small_run,
                                                          tmp_path):
        # one eval pedestrian, fully visible: R and R+HO hold it, HO is empty
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(SMALL.replace("data.eval_pedestrians = 60",
                                     "data.eval_pedestrians = 1"))
        run_ok(["synth-data", "--config", str(cfg), "--out", str(tmp_path / "s")])
        run_ok(["eval", "--config", str(cfg),
                "--data", str(tmp_path / "s/eval.fcds"),
                "--bank", str(small_run["bank"]),
                "--model", str(small_run["model"]), "--out", str(tmp_path / "e")])
        with open(tmp_path / "e/metrics.csv", newline="") as fh:
            rows = {r["subset"]: r for r in csv.DictReader(fh)}
        assert int(rows["HO"]["gt_count"]) == 0
        for key in ("mr_baseline", "mr_completed", "delta_mr"):
            assert np.isnan(float(rows["HO"][key]))
        for subset in ("R", "R+HO"):
            assert int(rows[subset]["gt_count"]) == 1
            assert 0.0 <= float(rows[subset]["mr_baseline"]) <= 1.0
            assert 0.0 <= float(rows[subset]["mr_completed"]) <= 1.0

    def test_unreachable_fixed_beta_is_a_no_op(self, small_run, tmp_path):
        # correlations are non-negative, so beta=0 never flags a cell and
        # every proposal must keep its original detector score
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(SMALL + "occ.beta_mode = fixed\nocc.beta = 0.0\n")
        run_ok(["eval", "--config", str(cfg),
                "--data", str(small_run["eval"]),
                "--bank", str(small_run["bank"]),
                "--model", str(small_run["model"]), "--out", str(tmp_path)])
        with open(tmp_path / "metrics.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        for row in rows:
            assert float(row["delta_mr"]) == 0.0
            assert float(row["mr_baseline"]) == float(row["mr_completed"])


class TestInspect:
    def test_heatmap_files_written(self, small_run, tmp_path, capsys):
        capsys.readouterr()
        run_ok(["inspect", "--config", str(small_run["cfg"]),
                "--data", str(small_run["eval"]),
                "--bank", str(small_run["bank"]),
                "--id", "0", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert "proposal 0:" in out
        pgm = (tmp_path / "corr_map.pgm").read_bytes()
        assert pgm.startswith(b"P5\n5 5\n255\n")
        assert len(pgm) == len(b"P5\n5 5\n255\n") + 25
        mask = (tmp_path / "mask.pgm").read_bytes()
        assert set(mask[len(b"P5\n5 5\n255\n"):]) <= {0, 255}
        with (tmp_path / "corr_map.csv").open() as fh:
            grid = [[float(v) for v in row] for row in csv.reader(fh)]
        assert len(grid) == 5 and all(len(row) == 5 for row in grid)
        channels = sorted(tmp_path.glob("channel_*.csv"))
        assert len(channels) == 8

    def test_unknown_id_fails_cleanly(self, small_run, tmp_path, capsys):
        code = main(["inspect", "--config", str(small_run["cfg"]),
                     "--data", str(small_run["eval"]),
                     "--bank", str(small_run["bank"]),
                     "--id", "999999", "--out", str(tmp_path)])
        assert code == 2
        assert "no proposal with id 999999" in capsys.readouterr().err

    def test_verdict_is_the_pipelines_when_the_mask_is_empty(self, default_run,
                                                             tmp_path, capsys):
        # beta = -1000 empties every completion mask, so the pipeline passes
        # the proposal through even though the alpha rule fires on it
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("seed = 42\nocc.beta_mode = fixed\nocc.beta = -1000.0\n")
        capsys.readouterr()
        run_ok(["inspect", "--config", str(cfg),
                "--data", str(default_run["eval"]),
                "--bank", str(default_run["bank"]),
                "--id", "1", "--out", str(tmp_path / "out")])
        out = capsys.readouterr().out
        flagged, total = out.split("flagged ")[1].split(" ")[0].split("/")
        assert int(flagged) / int(total) > RunConfig().alpha
        assert (tmp_path / "out/mask.pgm").read_bytes().endswith(bytes(49))
        assert "occluded=False" in out


class TestDefaultShowcase:
    def test_four_clusters_recover_scale_mixture(self, default_run, tmp_path,
                                                 capsys):
        capsys.readouterr()
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("seed = 42\nproto.k = 4\n")
        run_ok(["build-prototypes", "--config", str(cfg),
                "--data", str(default_run["train"]), "--out", str(tmp_path)])
        out = capsys.readouterr().out
        means = [float(line.split("scale ")[1].split(" ")[0])
                 for line in out.splitlines() if line.startswith("cluster ")]
        assert len(means) == 4
        for got, wanted in zip(sorted(means), (64.0, 105.0, 181.0, 340.0)):
            assert abs(got - wanted) / wanted < 0.15

    def test_fully_visible_proposal_barely_flagged(self, default_run,
                                                   tmp_path, capsys):
        capsys.readouterr()
        run_ok(["inspect", "--config", str(default_run["cfg"]),
                "--data", str(default_run["eval"]),
                "--bank", str(default_run["bank"]),
                "--id", "0", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        flagged, total = out.split("flagged ")[1].split(" ")[0].split("/")
        assert int(flagged) / int(total) < 0.10
        assert "occluded=False" in out

    def test_occluded_proposal_mask_matches_truth(self, default_run,
                                                  tmp_path, capsys):
        capsys.readouterr()
        run_ok(["inspect", "--config", str(default_run["cfg"]),
                "--data", str(default_run["eval"]),
                "--bank", str(default_run["bank"]),
                "--id", "1", "--out", str(tmp_path)])
        assert "occluded=True" in capsys.readouterr().out
        proposals = read_dataset(default_run["eval"])
        proposal = next(p for p in proposals if p.id == 1)
        bank = read_bank(default_run["bank"])
        proto = nearest_prototype(bank, proposal.scale)
        cmap = correlation_map(proposal.features, proto.center)
        mask = completion_mask(cmap, RunConfig().occ_config())
        assert mask_iou(mask, proposal.true_mask) >= 0.6

    def test_background_proposal_mostly_flagged(self, default_run, tmp_path,
                                                capsys):
        capsys.readouterr()
        run_ok(["inspect", "--config", str(default_run["cfg"]),
                "--data", str(default_run["eval"]),
                "--bank", str(default_run["bank"]),
                "--id", "500", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert "label=background" in out
        flagged, total = out.split("flagged ")[1].split(" ")[0].split("/")
        assert int(flagged) / int(total) > 0.5
        assert "occluded=True" in out


class TestDeterminism:
    def test_same_seed_reproduces_every_artifact_byte_for_byte(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(SMALL)
        for tag in ("r1", "r2"):
            d = tmp_path / tag
            run_ok(["synth-data", "--config", str(cfg), "--out", str(d / "s")])
            run_ok(["build-prototypes", "--config", str(cfg),
                    "--data", str(d / "s/train.fcds"), "--out", str(d / "b")])
            run_ok(["train", "--config", str(cfg),
                    "--data", str(d / "s/train.fcds"),
                    "--bank", str(d / "b/bank.fcpb"), "--out", str(d / "t")])
            run_ok(["eval", "--config", str(cfg),
                    "--data", str(d / "s/eval.fcds"),
                    "--bank", str(d / "b/bank.fcpb"),
                    "--model", str(d / "t/model.fcgd"), "--out", str(d / "e")])
        for rel in ("s/train.fcds", "s/eval.fcds", "s/manifest.json",
                    "b/bank.fcpb", "t/model.fcgd", "t/history.csv",
                    "e/metrics.csv"):
            first = (tmp_path / "r1" / rel).read_bytes()
            second = (tmp_path / "r2" / rel).read_bytes()
            assert first == second, rel


class TestExitCodes:
    def test_missing_model_file_is_io_error(self, small_run, tmp_path, capsys):
        code = main(["eval", "--config", str(small_run["cfg"]),
                     "--data", str(small_run["eval"]),
                     "--bank", str(small_run["bank"]),
                     "--model", str(tmp_path / "missing.fcgd"),
                     "--out", str(tmp_path)])
        assert code == 3
        assert "i/o error:" in capsys.readouterr().err

    def test_bad_config_value_is_precondition_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("occ.alpha = 2.0\n")
        code = main(["synth-data", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_seven_channels_fail_fast(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("world.channels = 7\n")
        code = main(["synth-data", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        assert "at least 8 channels" in capsys.readouterr().err

    def test_missing_required_argument(self, capsys):
        assert main(["eval"]) == 2
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        assert main(["transmogrify"]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "synth-data" in capsys.readouterr().out

    def test_unknown_log_level_warns_and_continues(self, monkeypatch, capsys):
        monkeypatch.setenv("OCCFILL_LOG", "banana")
        assert main(["--help"]) == 0
        assert "unknown OCCFILL_LOG" in capsys.readouterr().err
