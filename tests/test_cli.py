import contextlib
import csv
import dataclasses
import io
import json
import logging
import os
import re
import subprocess
import sys
import tracemalloc
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from occfill import BLAS_THREAD_VARS, cli
from occfill.cli import (
    CONFIG_KEYS,
    DataConfig,
    RunConfig,
    complete_proposal,
    config_from_mapping,
    config_to_text,
    evaluate,
    main,
    parse_config_text,
    synthesize,
    train_model,
)
from occfill.completion import (TrainConfig, copy_paste, read_model, rescore,
                                train_scoring_head)
from occfill.errors import PreconditionError
from occfill.eval import EvalConfig, compactness_ratio, mask_iou
from occfill.ndnum import Rng
from occfill.occlusion import (OcclusionConfig, analyze, completion_mask,
                               correlation_map)
from occfill.prototypes import (FULLY_VISIBLE, PrototypeBank, ProtoConfig,
                                build_pool, kmeans, nearest_prototype,
                                read_bank, write_bank)
from occfill.synth import (IO_BUFFER, PEDESTRIAN, OcclusionMask, Proposal,
                           WorldConfig, read_dataset, write_dataset)

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
train2.iterations = 40
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
        # Every field of every section moves off its default, so a field
        # without a key, or a key the parser drops, fails the round trip.
        def nudged(value):
            if dataclasses.is_dataclass(value):
                return dataclasses.replace(value, **{
                    f.name: nudged(getattr(value, f.name))
                    for f in dataclasses.fields(value)})
            return value + 1 if isinstance(value, int) else value / 3
        config, default = nudged(RunConfig()), RunConfig()
        for key in CONFIG_KEYS:
            assert attrgetter(key)(config) != attrgetter(key)(default), key
        text = config_to_text(config)
        assert config_from_mapping(parse_config_text(text)) == config

    def test_archive_lists_every_key(self):
        text = config_to_text(RunConfig())
        for key in CONFIG_KEYS:
            assert f"{key}=" in text

    def test_readme_table_names_exactly_the_config_keys(self):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = text.split("## Configuration keys", 1)[1].split("\n## ", 1)[0]
        named, default = [], RunConfig()
        for line in section.splitlines():
            if line.startswith("| `"):
                cells = line.split("|")
                keys = re.findall(r"`([^`]+)`", cells[1])
                values = re.findall(r"`([^`]+)`", cells[2])
                assert len(keys) == len(values), line
                for key, value in zip(keys, values):
                    assert key in CONFIG_KEYS, key
                    assert CONFIG_KEYS[key](value) == attrgetter(key)(default), key
                named += keys
        assert sorted(named) == sorted(CONFIG_KEYS)

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
        config = RunConfig(seed=seed, world=WorldConfig(sigma_id=sigma),
                           train1=TrainConfig(learn_rate=rate))
        text = config_to_text(config)
        assert config_from_mapping(parse_config_text(text)) == config


class TestRunConfigValidate:
    def test_default_config_valid(self):
        assert RunConfig().validate() == RunConfig()

    @pytest.mark.parametrize("kwargs,match", [
        ({"seed": -1}, "seed"),
        ({"seed": 2 ** 64}, "seed"),
        ({"proto": ProtoConfig(restarts=0)}, "proto.restarts"),
        ({"data": DataConfig(train_visible=-1)}, "non-negative"),
        ({"data": DataConfig(proposals_per_image=0)}, "proposals_per_image"),
        ({"proto": ProtoConfig(k=0)}, "proto.k"),
        ({"head": TrainConfig(500, 0.0)}, "head"),
        ({"eval": EvalConfig(fppi_count=1)}, "fppi_count"),
        ({"occ": OcclusionConfig(alpha=1.5)}, "alpha"),
        ({"occ": OcclusionConfig(alpha=float("nan"))}, "alpha"),
        ({"head": TrainConfig(500, float("inf"))}, "head.learn_rate"),
        ({"head": TrainConfig(500, float("nan"))}, "head.learn_rate"),
        ({"world": WorldConfig(sigma_id=float("inf"))}, "world.sigma_id"),
        ({"world": WorldConfig(sigma_id=float("nan"))}, "world.sigma_id"),
    ])
    def test_bad_values_rejected(self, kwargs, match):
        with pytest.raises(PreconditionError, match=match):
            RunConfig(**kwargs).validate()

    @pytest.mark.parametrize("key", list(CONFIG_KEYS))
    def test_error_names_its_key(self, key):
        # -1 is out of range for every key
        with pytest.raises(PreconditionError, match=re.escape(key)):
            config_from_mapping({key: "-1"}).validate()


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

    def test_half_occlusion_leaves_even_indices_visible(self, tmp_path):
        config = config_from_mapping(parse_config_text(SMALL)).validate()
        synthesize(config, tmp_path)
        ev = read_dataset(tmp_path / "eval.fcds")
        peds = [p for p in ev if p.label == PEDESTRIAN]
        assert all(p.true_mask is None for p in peds[0::2])
        assert all(p.true_mask is not None for p in peds[1::2])

    def test_each_proposal_is_validated_once(self, tmp_path, monkeypatch):
        # write_dataset validates every proposal as it writes it, and the
        # generators leave that check to it.
        calls = []
        validate = Proposal.validate

        def counted(proposal):
            calls.append(proposal.id)
            return validate(proposal)

        monkeypatch.setattr(Proposal, "validate", counted)
        config = config_from_mapping(parse_config_text(SMALL)).validate()
        manifest = synthesize(config, tmp_path)
        assert len(calls) == manifest["train"]["total"] + manifest["eval"]["total"]


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
        x = Rng(3).gen.normal(size=(8, 5, 5))[None] ** 2
        assert np.array_equal(gen.forward(x), x)
        assert head.trained
        assert tuple(grid) == (5, 5)
        history = (tmp_path / "history.csv").read_text().splitlines()
        assert len(history) == 1

    def test_model_round_trips_stage_configs(self, small_run):
        _, _, _, _, configs = read_model(small_run["model"])
        assert configs == (TrainConfig(40, 2e-3), TrainConfig(40, 2e-4))


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

    def test_one_proposal_is_a_row_of_one_batch(self, small_run):
        # complete_proposal and rescore run one proposal as a batch of one.
        # The completed map is its row of one batched pass, bit for bit. The
        # head's score is not: BLAS sums a one-column product in another
        # order than a many-column one, a few ulp apart.
        occ_config = config_from_mapping(parse_config_text(SMALL)).occ
        bank = read_bank(small_run["bank"])
        gen, _, head, _, _ = read_model(small_run["model"])
        flagged, pasted = [], []
        for p in read_dataset(small_run["eval"]):
            found = analyze(p.features, p.scale, bank, occ_config)
            if found.occluded:
                flagged.append(p)
                pasted.append(copy_paste(p.features, found.prototype.center,
                                         found.mask))
        assert len(flagged) >= 8
        completed = gen.forward(np.stack(pasted))
        scores = head.probability(completed)
        for i, p in enumerate(flagged):
            report = complete_proposal(p.features, p.scale, bank, gen, occ_config)
            assert np.array_equal(report.completed, completed[i])
            score = rescore(p, report.completed, head, occluded=True)
            assert abs(score - scores[i]) <= 1e-12

    def test_visibility_alone_says_fully_visible(self, small_run, tmp_path):
        # An occluded pedestrian loses its mask and a fully visible one gains
        # an empty mask. Eval splits pedestrians by visibility, as training
        # does, and scores mask IoU wherever a true mask exists.
        config = config_from_mapping(parse_config_text(SMALL))
        bank = read_bank(small_run["bank"])
        gen, _, head, _, _ = read_model(small_run["model"])
        proposals = read_dataset(small_run["eval"])
        peds = [i for i, p in enumerate(proposals) if p.label == PEDESTRIAN]
        unmasked = next(i for i in peds if proposals[i].true_mask is not None)
        emptied = next(i for i in peds if proposals[i].true_mask is None)
        proposals[unmasked] = dataclasses.replace(proposals[unmasked], visibility=0.5,
                                                  true_mask=None)
        proposals[emptied] = dataclasses.replace(
            proposals[emptied], true_mask=OcclusionMask(np.zeros((5, 5), dtype=bool)))
        path = tmp_path / "edited.fcds"
        write_dataset(proposals, path)
        proposals = read_dataset(path)

        _, diagnostics = evaluate(proposals, bank, gen, head, config)
        raw, completed, visible, ious = [], [], [], []
        for p in proposals:
            if p.label != PEDESTRIAN:
                continue
            report = complete_proposal(p.features, p.scale, bank, gen, config.occ)
            if p.true_mask is not None:
                ious.append(mask_iou(report.mask, p.true_mask))
            if p.visibility >= FULLY_VISIBLE:
                visible.append(p.features)
            else:
                raw.append(p.features)
                completed.append(report.completed if report.occluded else p.features)
        assert diagnostics["compactness_ratio"] == compactness_ratio(
            np.stack(raw), np.stack(completed), np.stack(visible))
        assert diagnostics["mean_mask_iou"] == float(np.mean(ious))


@pytest.mark.slow
class TestEvalIgnoresIds:
    """A proposal is scored as itself: ids play no part in the miss rates."""

    @pytest.fixture(scope="class")
    def model(self, default_run):
        # A short training run: only eval's handling of ids is under test.
        base = default_run["base"]
        cfg = base / "short.txt"
        cfg.write_text("seed = 42\ntrain1.iterations = 10\n"
                       "train2.iterations = 10\nhead.iterations = 50\n")
        run_ok(["train", "--config", str(cfg), "--data", str(default_run["train"]),
                "--bank", str(default_run["bank"]), "--out", str(base / "short")])
        return base / "short/model.fcgd"

    @pytest.fixture(scope="class")
    def want(self, default_run, model):
        return self.metrics(default_run, model, default_run["eval"],
                            default_run["base"] / "plain")

    def metrics(self, default_run, model, data, out):
        code = main(["eval", "--config", str(default_run["cfg"]),
                     "--data", str(data), "--bank", str(default_run["bank"]),
                     "--model", str(model), "--out", str(out)])
        return code, (out / "metrics.csv").read_bytes() if code == 0 else None

    def relabelled(self, default_run, tmp_path, pick):
        """The eval set where proposal `dst` takes the id of proposal `src`,
        for the indices `(dst, src)` that `pick` returns."""
        proposals = read_dataset(default_run["eval"])
        dst, src = pick(proposals)
        proposals[dst] = dataclasses.replace(proposals[dst], id=proposals[src].id)
        path = tmp_path / "relabelled.fcds"
        write_dataset(proposals, path)
        return path

    def test_background_sharing_a_pedestrian_id_changes_nothing(
            self, default_run, model, want, tmp_path):
        def pick(proposals):
            # The top-scoring background takes the id of the lowest-scoring
            # visible pedestrian, which it outscores.
            backgrounds = [i for i, p in enumerate(proposals)
                           if p.label != PEDESTRIAN]
            visible = [i for i, p in enumerate(proposals)
                       if p.label == PEDESTRIAN and p.true_mask is None]
            top = max(backgrounds, key=lambda i: proposals[i].score)
            low = min(visible, key=lambda i: proposals[i].score)
            assert proposals[top].score > proposals[low].score
            return top, low

        data = self.relabelled(default_run, tmp_path, pick)
        got = self.metrics(default_run, model, data, tmp_path)
        assert got == want and want[0] == 0

    def test_two_pedestrians_sharing_an_id_are_scored(self, default_run, model,
                                                      want, tmp_path):
        def pick(proposals):
            peds = [i for i, p in enumerate(proposals) if p.label == PEDESTRIAN]
            return peds[1], peds[0]

        data = self.relabelled(default_run, tmp_path, pick)
        got = self.metrics(default_run, model, data, tmp_path)
        assert got == want and want[0] == 0


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

    def test_non_square_grid_has_one_image_row_per_y(self, tmp_path, capsys):
        # 4 cells wide, 7 tall; eval proposal 7 is occluded on its right half
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(SMALL.replace("seed = 7", "seed = 3")
                            .replace("world.grid_x = 5", "world.grid_x = 4")
                            .replace("world.grid_y = 5", "world.grid_y = 7"))
        run_ok(["synth-data", "--config", str(cfg), "--out", str(tmp_path / "s")])
        run_ok(["build-prototypes", "--config", str(cfg),
                "--data", str(tmp_path / "s/train.fcds"), "--out", str(tmp_path / "b")])
        run_ok(["inspect", "--config", str(cfg),
                "--data", str(tmp_path / "s/eval.fcds"),
                "--bank", str(tmp_path / "b/bank.fcpb"),
                "--id", "7", "--out", str(tmp_path / "i")])
        capsys.readouterr()
        proposal = next(p for p in read_dataset(tmp_path / "s/eval.fcds")
                        if p.id == 7)
        found = analyze(proposal.features, proposal.scale,
                        read_bank(tmp_path / "b/bank.fcpb"), OcclusionConfig())
        header = b"P5\n4 7\n255\n"
        pgm = (tmp_path / "i/mask.pgm").read_bytes()
        assert pgm.startswith(header)
        rows = np.frombuffer(pgm[len(header):], dtype=np.uint8).reshape(7, 4)
        assert np.array_equal(rows == 255, found.mask.grid.T)
        assert np.array_equal(rows == 255, proposal.true_mask.grid.T)
        assert rows[:, :2].max() == 0 and rows[:, 2:].min() == 255
        with (tmp_path / "i/corr_map.csv").open() as fh:
            grid = [[float(v) for v in row] for row in csv.reader(fh)]
        assert np.array_equal(np.array(grid), found.cmap.grid.T)

    def test_unknown_id_fails_cleanly(self, small_run, tmp_path, capsys):
        code = main(["inspect", "--config", str(small_run["cfg"]),
                     "--data", str(small_run["eval"]),
                     "--bank", str(small_run["bank"]),
                     "--id", "999999", "--out", str(tmp_path)])
        assert code == 2
        assert "no proposal with id 999999" in capsys.readouterr().err

    def test_ambiguous_id_fails_cleanly(self, default_run, tmp_path, capsys):
        # Background 683 takes the id of pedestrian 256: eval scores both
        # (TestEvalIgnoresIds), but inspect cannot tell which one is meant.
        proposals = read_dataset(default_run["eval"])
        ped, background = proposals[256], proposals[683]
        assert ped.label == PEDESTRIAN and background.label != PEDESTRIAN
        proposals[683] = dataclasses.replace(background, id=ped.id)
        data = tmp_path / "relabelled.fcds"
        write_dataset(proposals, data)
        capsys.readouterr()
        code = main(["inspect", "--config", str(default_run["cfg"]),
                     "--data", str(data), "--bank", str(default_run["bank"]),
                     "--id", str(ped.id), "--out", str(tmp_path / "i")])
        out, err = capsys.readouterr()
        assert code == 2
        assert f"id {ped.id} is ambiguous: 2 proposals carry it" in err
        assert out == ""

    def test_flagged_count_is_the_written_mask(self, default_run, tmp_path,
                                               capsys):
        # The printed flagged count and mask.pgm both come from the one
        # completion mask.
        for pid in ("0", "1", "500"):
            out_dir = tmp_path / pid
            capsys.readouterr()
            run_ok(["inspect", "--config", str(default_run["cfg"]),
                    "--data", str(default_run["eval"]),
                    "--bank", str(default_run["bank"]),
                    "--id", pid, "--out", str(out_dir)])
            out = capsys.readouterr().out
            flagged, total = out.split("flagged ")[1].split(" ")[0].split("/")
            pixels = (out_dir / "mask.pgm").read_bytes()[len(b"P5\n7 7\n255\n"):]
            assert len(pixels) == int(total) == 49
            assert pixels.count(255) == int(flagged)


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
        mask = completion_mask(cmap)
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


class TestTimingLog:
    @staticmethod
    def eval_at_each_level(small_run, out, monkeypatch, caplog, capsys):
        """`occfill eval` at OCCFILL_LOG error and info: the `occfill` log
        records and the outputs (stdout, metrics.csv, config.txt) of each."""
        argv = ["eval", "--config", str(small_run["cfg"]),
                "--data", str(small_run["eval"]), "--bank", str(small_run["bank"]),
                "--model", str(small_run["model"]), "--out", str(out)]
        records, outputs = {}, {}
        for level in ("error", "info"):
            monkeypatch.setenv("OCCFILL_LOG", level)
            caplog.clear()
            capsys.readouterr()
            with caplog.at_level(logging.DEBUG, logger="occfill"):
                run_ok(argv)
            records[level] = [r for r in caplog.records if r.name == "occfill"]
            outputs[level] = (capsys.readouterr().out,
                              (out / "metrics.csv").read_bytes(),
                              (out / "config.txt").read_bytes())
        assert outputs["info"] == outputs["error"]
        return records

    def test_wall_time_is_logged_and_outputs_do_not_move(
            self, small_run, tmp_path, monkeypatch, caplog, capsys):
        records = self.eval_at_each_level(small_run, tmp_path, monkeypatch,
                                          caplog, capsys)
        assert records["error"] == []
        [record] = [r for r in records["info"] if " took " in r.getMessage()]
        assert record.levelno == logging.INFO
        assert re.fullmatch(r"eval took \d+\.\d\d s", record.getMessage())

    def test_eval_logs_what_it_scored_and_outputs_do_not_move(
            self, small_run, tmp_path, monkeypatch, caplog, capsys):
        records = self.eval_at_each_level(small_run, tmp_path, monkeypatch,
                                          caplog, capsys)
        assert records["error"] == []
        [record] = [r for r in records["info"] if " scored " in r.getMessage()]
        assert record.levelno == logging.INFO
        occ_config = config_from_mapping(parse_config_text(SMALL)).occ
        bank = read_bank(small_run["bank"])
        proposals = read_dataset(small_run["eval"])
        flagged = sum(analyze(p.features, p.scale, bank, occ_config).occluded
                      for p in proposals)
        assert 0 < flagged < len(proposals)
        assert record.getMessage() == (
            f"eval scored {len(proposals)} proposals: {flagged} flagged and "
            f"completed, {len(proposals) - flagged} kept their detector score")


    PHASES = {
        "synth-data": [r"train split: 110 proposals drawn in \d+\.\d\d s, "
                       r"written in \d+\.\d\d s",
                       r"eval split: 100 proposals drawn in \d+\.\d\d s, "
                       r"written in \d+\.\d\d s"],
        "train": [r"stage 1: 40 iterations in \d+\.\d\d s",
                  r"stage 2: 40 iterations in \d+\.\d\d s",
                  r"head pass: \d+ of 50 candidates completed in \d+\.\d\d s; "
                  r"head fit in \d+\.\d\d s"],
        "eval": [r"eval phases: completion \d+\.\d\d s, compactness \d+\.\d\d s, "
                 r"probe \d+\.\d\d s, miss rates \d+\.\d\d s"],
    }

    @pytest.mark.parametrize("command", sorted(PHASES))
    def test_phase_times_go_to_the_log_only(self, small_run, tmp_path, monkeypatch,
                                            caplog, capsys, command):
        # At info each stage logs its phases' wall times; at error nothing.
        # Its stdout and every file it writes are the same either way.
        inputs = {"synth-data": [],
                  "train": ["--data", str(small_run["train"]),
                            "--bank", str(small_run["bank"])],
                  "eval": ["--data", str(small_run["eval"]),
                           "--bank", str(small_run["bank"]),
                           "--model", str(small_run["model"])]}[command]
        records, outputs = {}, {}
        for level in ("error", "info"):
            out = tmp_path / level
            monkeypatch.setenv("OCCFILL_LOG", level)
            caplog.clear()
            capsys.readouterr()
            with caplog.at_level(logging.DEBUG, logger="occfill"):
                run_ok([command, "--config", str(small_run["cfg"]), *inputs,
                        "--out", str(out)])
            records[level] = [r.getMessage() for r in caplog.records
                              if r.name.startswith("occfill")]
            outputs[level] = (capsys.readouterr().out.replace(str(out), "OUT"),
                              {f.name: f.read_bytes() for f in sorted(out.iterdir())})
        assert outputs["info"] == outputs["error"]
        assert records["error"] == []
        for pattern in self.PHASES[command]:
            assert sum(bool(re.fullmatch(pattern, m)) for m in records["info"]) == 1, \
                (pattern, records["info"])


# Bytes of one map of the default world, 16 channels on a 7 x 7 grid.
MAP_BYTES = 16 * 7 * 7 * 8


def traced_peak(fn):
    """(fn(), the peak of the memory that fn allocated, by tracemalloc)."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def synthesized(config, out):
    """The train and eval sets that `synthesize` writes into `out`."""
    synthesize(config, out)
    return read_dataset(out / "train.fcds"), read_dataset(out / "eval.fcds")


class TwoPasses:
    """A dataset whose first pass yields `first` and every later one `then`."""

    def __init__(self, first, then):
        self.passes = [first, then]

    def __iter__(self):
        return iter(self.passes.pop(0) if len(self.passes) > 1 else self.passes[0])


def changed(proposals, how):
    """`proposals` with one change the first pass cannot see coming, and the
    index of the record the second pass must name."""
    first_background = next(i for i, p in enumerate(proposals)
                            if p.label != PEDESTRIAN)
    first_occluded = next(i for i, p in enumerate(proposals)
                          if p.label == PEDESTRIAN and p.visibility < FULLY_VISIBLE)
    out = list(proposals)
    if how == "shorter":
        return out[:-1], len(out) - 1
    if how == "longer":
        return out + out[:1], len(out)
    if how == "label":
        out[first_background] = proposals[0]
        return out, first_background
    # Subset: an occluded pedestrian turns fully visible.
    out[first_occluded] = dataclasses.replace(
        proposals[first_occluded], visibility=1.0, true_mask=None)
    return out, first_occluded


HOW = ["shorter", "longer", "label", "subset"]


@pytest.mark.parametrize("how", HOW)
def test_train_refuses_a_dataset_that_changes_between_passes(small_run, how):
    config = dataclasses.replace(
        config_from_mapping(parse_config_text(SMALL)),
        train1=TrainConfig(0, 2e-3), train2=TrainConfig(0, 2e-4)).validate()
    train = read_dataset(small_run["train"])
    second, record = changed(train, how)
    with pytest.raises(PreconditionError, match=f"changed between passes.* {record}"):
        train_model(TwoPasses(train, second), read_bank(small_run["bank"]), config)


def test_train_refuses_occluded_maps_that_change_between_passes(small_run):
    # Every record keeps its kind, but from the second pass on the occluded
    # pedestrians carry a visible pedestrian's map: the head pass flags
    # fewer of them than the first pass's masks said it would.
    config = dataclasses.replace(
        config_from_mapping(parse_config_text(SMALL)),
        train1=TrainConfig(0, 2e-3), train2=TrainConfig(0, 2e-4)).validate()
    train = read_dataset(small_run["train"])
    visible = next(p for p in train if cli._kind(p) == cli.VISIBLE_KIND)
    second = [dataclasses.replace(p, features=visible.features)
              if cli._kind(p) == cli.OCCLUDED_KIND else p for p in train]
    with pytest.raises(PreconditionError,
                       match="changed between passes: .* occluded pedestrians"):
        train_model(TwoPasses(train, second), read_bank(small_run["bank"]), config)


def test_head_is_fit_on_flagged_completions_positives_first_in_file_order(tmp_path):
    # The records' kinds interleave, so neither side's rows follow from the
    # records' places in the file.
    data = DataConfig(train_visible=60, train_occluded=40, train_background=40,
                      eval_pedestrians=0, eval_background=0)
    config = RunConfig(seed=8, data=data, train1=TrainConfig(5, 2e-3),
                       train2=TrainConfig(5, 2e-4),
                       head=TrainConfig(20, 0.5)).validate()
    train, _ = synthesized(config, tmp_path)
    shuffled = [train[i] for i in np.random.default_rng(3).permutation(len(train))]
    kinds = [cli._kind(p) for p in shuffled]
    first_background = kinds.index(cli.BACKGROUND_KIND)
    assert cli.OCCLUDED_KIND in kinds[first_background:]
    bank = kmeans(build_pool(train), ProtoConfig(k=3, restarts=1), seed=8)
    gen, head, _ = train_model(shuffled, bank, config)

    flagged = {cli.OCCLUDED_KIND: [], cli.BACKGROUND_KIND: []}
    for p, kind in zip(shuffled, kinds):
        report = complete_proposal(p.features, p.scale, bank, gen, config.occ)
        if kind != cli.VISIBLE_KIND and report.occluded:
            flagged[kind].append(report.completed)
    positives, negatives = flagged[cli.OCCLUDED_KIND], flagged[cli.BACKGROUND_KIND]
    assert positives and negatives
    want = train_scoring_head(np.stack(positives + negatives), len(positives),
                              Rng(config.seed).split("head"), config.head)
    for got, expected in zip(head.params(), want.params()):
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("how", HOW)
def test_eval_refuses_a_dataset_that_changes_between_passes(small_run, how):
    config = config_from_mapping(parse_config_text(SMALL)).validate()
    gen, _, head, _, _ = read_model(small_run["model"])
    eval_set = read_dataset(small_run["eval"])
    second, record = changed(eval_set, how)
    with pytest.raises(PreconditionError, match=f"changed between passes.* {record}"):
        evaluate(TwoPasses(eval_set, second), read_bank(small_run["bank"]), gen,
                 head, config)


@pytest.mark.slow
def test_train_writes_the_same_model_whatever_the_blas_thread_variables(tmp_path):
    """`train` in a fresh process writes the same model and history with the
    BLAS thread variables unset as with each set to 1: importing occfill
    pins one thread unless the environment says otherwise. Without that
    pin, on a host with two or more cores, the unset run's threaded
    products round otherwise and the models differ; on a one-core host the
    test passes without the pin too."""
    data = DataConfig(train_visible=100, train_occluded=40, train_background=40,
                      eval_pedestrians=0, eval_background=0)
    config = RunConfig(seed=4, data=data, proto=ProtoConfig(k=3),
                       train1=TrainConfig(50, 2e-3), train2=TrainConfig(50, 2e-4),
                       head=TrainConfig(50, 0.5)).validate()
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(config_to_text(config))
    common = ["--config", str(cfg)]
    run_ok(["synth-data", *common, "--out", str(tmp_path / "s")])
    run_ok(["build-prototypes", *common, "--data", str(tmp_path / "s/train.fcds"),
            "--out", str(tmp_path / "b")])
    src = str(Path(cli.__file__).resolve().parents[1])
    unset = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    unset["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = {}
    for name, env in (("unset", unset),
                      ("one", dict(unset, **dict.fromkeys(BLAS_THREAD_VARS, "1")))):
        out = tmp_path / name
        subprocess.run([sys.executable, "-m", "occfill.cli", "train", *common,
                        "--data", str(tmp_path / "s/train.fcds"),
                        "--bank", str(tmp_path / "b/bank.fcpb"), "--out", str(out)],
                       env=env, check=True, capture_output=True)
        outputs[name] = [(out / f).read_bytes() for f in ("model.fcgd", "history.csv")]
    assert outputs["unset"] == outputs["one"]


def test_failed_synthesis_leaves_no_stale_split_or_manifest(tmp_path,
                                                             monkeypatch):
    # An earlier run's files, then a run that fails writing the eval split:
    # the train split is the new one, and neither the old eval split nor
    # the old manifest is left beside it.
    data = DataConfig(train_visible=4, train_occluded=4, train_background=4,
                      eval_pedestrians=4, eval_background=4)
    config = RunConfig(seed=5, data=data).validate()
    synthesize(config, tmp_path)
    old_train = (tmp_path / "train.fcds").read_bytes()
    write = cli.write_dataset

    def fail_on_eval(proposals, path, dims):
        if path.name == "eval.fcds":
            raise PreconditionError("eval split refused")
        return write(proposals, path, dims=dims)

    monkeypatch.setattr(cli, "write_dataset", fail_on_eval)
    rerun = dataclasses.replace(config, seed=6).validate()
    with pytest.raises(PreconditionError, match="eval split refused"):
        synthesize(rerun, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["train.fcds"]
    assert (tmp_path / "train.fcds").read_bytes() != old_train


@pytest.fixture(scope="class")
def streamed(tmp_path_factory):
    """Tracemalloc peaks of build-prototypes, train and eval, each run
    through `main` on splits that synth-data wrote, with the sizes of the
    split files they read."""
    base = tmp_path_factory.mktemp("streamed")
    data = DataConfig(train_visible=100, train_occluded=100,
                      train_background=300, eval_pedestrians=200,
                      eval_background=600)
    config = RunConfig(seed=5, data=data, proto=ProtoConfig(k=3, restarts=1),
                       train1=TrainConfig(0, 2e-3), train2=TrainConfig(0, 2e-4),
                       head=TrainConfig(2, 0.5)).validate()
    cfg = base / "cfg.txt"
    cfg.write_text(config_to_text(config))
    common = ["--config", str(cfg)]
    s, b, t = base / "s", base / "b", base / "t"
    run_ok(["synth-data", *common, "--out", str(s)])
    stages = {
        "build-prototypes": ["--data", str(s / "train.fcds"), "--out", str(b)],
        "train": ["--data", str(s / "train.fcds"), "--bank", str(b / "bank.fcpb"),
                  "--out", str(t)],
        "eval": ["--data", str(s / "eval.fcds"), "--bank", str(b / "bank.fcpb"),
                 "--model", str(t / "model.fcgd"), "--out", str(base / "e")],
    }
    peaks = {stage: traced_peak(lambda: run_ok([stage, *common, *args]))[1]
             for stage, args in stages.items()}
    return {"data": data, "peaks": peaks,
            "train": (s / "train.fcds").stat().st_size,
            "eval": (s / "eval.fcds").stat().st_size}


class TestMemory:
    """Each stage holds the arrays it works on and no split whole. The
    bounds are in maps of the default world; the comments give what each
    stage held before it read its split one proposal at a time."""

    def test_synthesis_holds_a_few_maps_whatever_the_split_size(self, tmp_path):
        # Each proposal is written as it is drawn, so synthesis holds the
        # write buffer and a few maps, for 300 proposals as for 1,200.
        # Holding one split at a time it peaked at 333 and 826 maps. The
        # first run only warms up: it imports numpy's random helpers.
        peaks = []
        for scale in (1, 1, 4):
            data = DataConfig(train_visible=50 * scale, train_occluded=50 * scale,
                              train_background=50 * scale,
                              eval_pedestrians=75 * scale,
                              eval_background=75 * scale)
            config = RunConfig(seed=5, data=data).validate()
            manifest, peak = traced_peak(lambda: synthesize(config, tmp_path))
            assert manifest["eval"]["total"] == 150 * scale
            peaks.append(peak)
        assert max(peaks[1:]) <= IO_BUFFER + 16 * MAP_BYTES

    # The stages below, run through `main`, may hold beyond the arrays
    # they must hold less than half the split file they read.

    def test_build_prototypes_holds_the_pool_and_one_temporary(self, streamed):
        # The pool of 100 visible maps, which is counted first and then
        # filled, and the k-means objective's one temporary. With the whole
        # train file held it peaked at 655 maps, against 218 now.
        held = 2 * streamed["data"].train_visible * MAP_BYTES
        assert streamed["peaks"]["build-prototypes"] <= held + streamed["train"] / 2

    def test_train_holds_the_head_array_and_no_split(self, streamed):
        # The head's one array of all 400 candidates, which stage 2 holds
        # beside the visible pool of 100 maps and the discriminator. With
        # the whole train file held it peaked at 1,092 maps, against 599
        # now.
        data = streamed["data"]
        held = (data.train_occluded + data.train_background) * MAP_BYTES
        assert streamed["peaks"]["train"] <= held + streamed["train"] / 2

    def test_eval_holds_its_three_sets_and_no_split(self, streamed):
        # The raw and completed occluded maps and the visible ones, 100
        # each; then the probe's working set, which the raw maps make room
        # for. With the whole eval file held it peaked at 1,437 maps,
        # against 570 now.
        held = 3 * (streamed["data"].eval_pedestrians // 2) * MAP_BYTES
        assert streamed["peaks"]["eval"] <= held + streamed["eval"] / 2

    def test_synthesis_holds_one_split_at_a_time(self, tmp_path):
        # Two splits of 300 proposals. Drawing both before writing either
        # peaked at 2.56 splits' maps; one split with its proposal objects,
        # masks and the world reads 1.49.
        data = DataConfig(train_visible=100, train_occluded=100,
                          train_background=100, eval_pedestrians=150,
                          eval_background=150)
        config = RunConfig(seed=5, data=data).validate()
        manifest, peak = traced_peak(lambda: synthesize(config, tmp_path))
        assert manifest["train"]["total"] == manifest["eval"]["total"] == 300
        assert peak <= 1.8 * 300 * MAP_BYTES

    def test_train_model_holds_one_array_of_flagged_maps(self, tmp_path):
        # 750 candidates for the head: 150 occluded pedestrians and 600
        # backgrounds. A list of completed maps, their two stacks and the
        # fit's concatenated copy peaked at 2.36 candidates' maps; one
        # array of them, normalized in place, reads 1.19.
        data = DataConfig(train_visible=60, train_occluded=150,
                          train_background=600, eval_pedestrians=0,
                          eval_background=0)
        config = RunConfig(seed=5, data=data, train1=TrainConfig(0, 2e-3),
                           train2=TrainConfig(0, 2e-4),
                           head=TrainConfig(2, 0.5)).validate()
        train, _ = synthesized(config, tmp_path)
        bank = kmeans(build_pool(train), ProtoConfig(k=3, restarts=1), seed=5)
        (_, head, _), peak = traced_peak(lambda: train_model(train, bank, config))
        assert head.trained
        assert peak <= 1.5 * 750 * MAP_BYTES

    def test_evaluate_peak_above_its_proposals(self, tmp_path):
        # 100 occluded and 100 visible eval pedestrians, 100 backgrounds.
        # Stacking the completed maps from a list, and the probe's copied
        # folds, peaked at 7.52 occluded sets' maps; the completed array,
        # the visible and raw stacks and the probe's one row buffer read
        # 5.52.
        data = DataConfig(train_visible=100, train_occluded=50,
                          train_background=50, eval_pedestrians=200,
                          eval_background=100)
        config = RunConfig(seed=6, data=data, train1=TrainConfig(0, 2e-3),
                           train2=TrainConfig(0, 2e-4),
                           head=TrainConfig(20, 0.5)).validate()
        train, eval_set = synthesized(config, tmp_path)
        bank = kmeans(build_pool(train), ProtoConfig(k=3, restarts=1), seed=6)
        gen, head, _ = train_model(train, bank, config)
        (_, diagnostics), peak = traced_peak(
            lambda: evaluate(eval_set, bank, gen, head, config))
        assert np.isfinite(diagnostics["probe_accuracy"])
        assert peak <= 6.5 * 100 * MAP_BYTES


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

    def test_six_channels_fail_fast(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("world.channels = 6\n")
        code = main(["synth-data", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        assert "at least 7 channels" in capsys.readouterr().err

    def test_huge_fppi_count_fails_fast(self, tmp_path, capsys):
        # Unbounded, eval died on numpy's "array is too big" for the grid.
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"eval.fppi_count = {2**62}\n")
        code = main(["synth-data", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        assert "error: eval.fppi_count" in capsys.readouterr().err
        assert not (tmp_path / "train.fcds").exists()

    @pytest.mark.parametrize("key", ["channels", "grid_x", "grid_y"])
    def test_oversized_world_fails_fast(self, tmp_path, capsys, key):
        # Unbounded, 2**40 ended with exit 1 and numpy's traceback, or
        # exhausted memory first. The validator refuses it before a stage
        # allocates anything of that size.
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"world.{key} = {2 ** 40}\n")
        code = main(["synth-data", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: world.{key} must be at most ")
        assert err.count("\n") == 1
        assert not (tmp_path / "train.fcds").exists()

    def test_nan_identity_noise_fails_fast(self, tmp_path, capsys):
        # NaN fails every `sigma_id > 0` test, so synthesis would draw a
        # noise-free world and exit 0.
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("world.sigma_id = nan\n")
        code = main(["synth-data", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        assert "world.sigma_id must be finite" in capsys.readouterr().err
        assert not (tmp_path / "train.fcds").exists()

    def test_overflowing_kmeans_distances_fail_fast(self, tmp_path, capsys):
        # Identity noise of 1e160 draws features whose squared distances
        # overflow float64; k-means++ seeding then met NaN probabilities.
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("seed = 3\nworld.sigma_id = 1e160\n"
                       "data.train_visible = 30\ndata.train_occluded = 5\n"
                       "data.train_background = 5\ndata.eval_pedestrians = 5\n"
                       "data.eval_background = 5\nproto.k = 3\n")
        run_ok(["synth-data", "--config", str(cfg), "--out", str(tmp_path / "s")])
        capsys.readouterr()
        code = main(["build-prototypes", "--config", str(cfg),
                     "--data", str(tmp_path / "s/train.fcds"),
                     "--out", str(tmp_path / "b")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: k-means: squared distances") and "overflow" in err
        assert not (tmp_path / "b/bank.fcpb").exists()

    def test_overflowing_squared_sums_in_eval_fail_fast(self, tmp_path, capsys):
        # Eval features scaled by 1e155 are finite, but their squares are
        # not: the head's rms of every flagged map was inf, so each scored
        # sigmoid(bias), and the compactness ratio read nan, with exit 0.
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("seed = 3\ndata.train_visible = 60\n"
                       "data.train_occluded = 40\ndata.train_background = 40\n"
                       "data.eval_pedestrians = 120\ndata.eval_background = 60\n"
                       "proto.k = 3\ntrain1.iterations = 5\n"
                       "train2.iterations = 5\nhead.iterations = 5\n")
        common = ["--config", str(cfg)]
        run_ok(["synth-data", *common, "--out", str(tmp_path / "s")])
        run_ok(["build-prototypes", *common, "--data", str(tmp_path / "s/train.fcds"),
                "--out", str(tmp_path / "b")])
        run_ok(["train", *common, "--data", str(tmp_path / "s/train.fcds"),
                "--bank", str(tmp_path / "b/bank.fcpb"), "--out", str(tmp_path / "t")])
        scaled = [dataclasses.replace(p, features=p.features * 1e155)
                  for p in read_dataset(tmp_path / "s/eval.fcds")]
        write_dataset(scaled, tmp_path / "huge.fcds")
        capsys.readouterr()
        code = main(["eval", *common, "--data", str(tmp_path / "huge.fcds"),
                     "--bank", str(tmp_path / "b/bank.fcpb"),
                     "--model", str(tmp_path / "t/model.fcgd"),
                     "--out", str(tmp_path / "e")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: scoring head:") and "overflows" in err
        assert not (tmp_path / "e/metrics.csv").exists()

    @pytest.fixture
    def overflowing_pair(self, small_run, tmp_path):
        # Each side alone keeps the map finite: against a normal-scale map,
        # (a·b)/(1 + |a − b|) stays near the normal side. Features scaled
        # by 1e155 against a bank scaled by 1e200 overflow a·b.
        bank = read_bank(small_run["bank"])
        write_bank(PrototypeBank(tuple(
            dataclasses.replace(p, center=p.center * 1e200)
            for p in bank.prototypes)), tmp_path / "huge.fcpb")
        write_dataset([dataclasses.replace(p, features=p.features * 1e155)
                       for p in read_dataset(small_run["eval"])],
                      tmp_path / "huge.fcds")
        return ["--config", str(small_run["cfg"]),
                "--data", str(tmp_path / "huge.fcds"),
                "--bank", str(tmp_path / "huge.fcpb")]

    # numpy's overflow warnings are errors here, so a warning printed
    # before the error line fails the test.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["eval", "inspect"])
    def test_overflowing_correlation_fails_with_one_line(
            self, small_run, overflowing_pair, tmp_path, command, capsys):
        extra = {"eval": ["--model", str(small_run["model"])],
                 "inspect": ["--id", "17"]}[command]
        code = main([command, *overflowing_pair, *extra,
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: correlation grid: non-finite value encountered\n")

    def test_two_by_two_grid_fails_fast(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("world.grid_x = 2\nworld.grid_y = 2\n")
        code = main(["synth-data", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        assert "at least 5 cells" in capsys.readouterr().err

    def test_removed_training_keys_are_refused(self, tmp_path, capsys):
        for key in ("train1.disc_steps", "train2.batch_size",
                    "occ.beta_mode", "occ.beta"):
            cfg = tmp_path / "cfg.txt"
            cfg.write_text(f"{key} = 1\n")
            code = main(["synth-data", "--config", str(cfg), "--out", str(tmp_path)])
            assert code == 2
            assert f"unknown config key {key!r}" in capsys.readouterr().err

    @settings(max_examples=30, deadline=None)
    @given(seed=st.sampled_from((0, 2 ** 64 - 1)),
           channels=st.sampled_from((7, 9)),
           grid=st.sampled_from(((2, 3), (3, 2), (3, 3))),
           counts=st.tuples(*[st.sampled_from((0, 1))] * 5),
           iterations=st.tuples(*[st.sampled_from((0, 1))] * 3))
    def test_boundary_configs_finish_or_fail_fast(self, tmp_path_factory, seed,
                                                  channels, grid, counts,
                                                  iterations):
        # Configs at the validator's edge values run the whole pipeline in
        # process: each stage exits 0, or one exits 2 with an error line.
        base = tmp_path_factory.mktemp("edge")
        cfg = base / "cfg.txt"
        keys = ("train_visible", "train_occluded", "train_background",
                "eval_pedestrians", "eval_background")
        cfg.write_text(
            f"seed = {seed}\nworld.channels = {channels}\n"
            f"world.grid_x = {grid[0]}\nworld.grid_y = {grid[1]}\n"
            + "".join(f"data.{k} = {n}\n" for k, n in zip(keys, counts))
            + "data.proposals_per_image = 1\nproto.k = 1\nproto.restarts = 1\n"
            f"train1.iterations = {iterations[0]}\n"
            f"train2.iterations = {iterations[1]}\n"
            f"head.iterations = {iterations[2]}\neval.fppi_count = 2\n")
        common = ["--config", str(cfg)]
        data, bank = str(base / "s/train.fcds"), str(base / "b/bank.fcpb")
        stages = [
            ["synth-data", *common, "--out", str(base / "s")],
            ["build-prototypes", *common, "--data", data, "--out", str(base / "b")],
            ["train", *common, "--data", data, "--bank", bank,
             "--out", str(base / "t")],
            ["eval", *common, "--data", str(base / "s/eval.fcds"), "--bank", bank,
             "--model", str(base / "t/model.fcgd"), "--out", str(base / "e")],
        ]
        for argv in stages:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = main(argv)
            if code != 0:
                assert code == 2, (argv[0], err.getvalue())
                assert err.getvalue().startswith("error: "), err.getvalue()
                return
        assert (base / "e/metrics.csv").is_file()

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
