"""Tests of the benchmark's tracer and checks, on the warm-up pipeline.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q bench/test_tracer.py
"""

import ast
import csv
import hashlib
import importlib
import shutil
import types
from pathlib import Path

import pytest

import checks
import tracer as tracing
from pipeline import run_round
from workloads import WARMUP, WARMUP_SEED, config_text

import occfill.cli

SRC = Path(occfill.cli.__file__).resolve().parent
ARTIFACTS = ("data/train.fcds", "data/eval.fcds", "bank/bank.fcpb",
             "model/model.fcgd", "model/history.csv", "results/metrics.csv")


def imported_names():
    """{(defining module, name): importing modules}, read from the source."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    found.setdefault((node.module, alias.name), set()).add(path.stem)
    return found


def module(name):
    return importlib.import_module(f"occfill.{name}")


def bindings():
    """Every attribute of every occfill module and traced class."""
    out = {}
    for name in tracing.MODULES:
        out.update({(name, k): v for k, v in vars(module(name)).items()})
    for owner, path in tracing.TARGETS:
        if "." in path:
            cls = getattr(module(owner), path.split(".")[0])
            out.update({(cls, k): v for k, v in vars(cls).items()})
    return out


def test_every_binding_of_a_target_is_its_wrapper():
    importers = imported_names()
    before = bindings()
    tracer = tracing.Tracer().install()
    try:
        seen = set()
        for owner, path in tracing.TARGETS:
            wrapper = tracer.wrappers[f"{owner}.{path}"]
            if "." in path:
                class_name, method = path.split(".")
                assert getattr(module(owner), class_name).__dict__[method] is wrapper
                continue
            holders = {owner} | importers.get((owner, path), set())
            seen |= holders
            for holder in holders:
                assert getattr(module(holder), path) is wrapper, (holder, path)
        assert {"cli", "completion", "eval", "occlusion", "prototypes",
                "synth"} <= seen
    finally:
        tracer.uninstall()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_self_times_of_a_hand_built_span_tree():
    # root [0, 16] holds a [1, 5] (which holds [2, 3]), two overlapping
    # children [6, 10] and [8, 12], and [14, 20], which outlives the root.
    starts = [0.0, 1.0, 2.0, 6.0, 8.0, 14.0]
    ends = [16.0, 5.0, 3.0, 10.0, 12.0, 20.0]
    parents = [-1, 0, 1, 0, 0, 0]
    assert tracing.self_times(starts, ends, parents) == [4.0, 3.0, 1.0, 4.0,
                                                         4.0, 6.0]


def run_warmup(root, trace, monkeypatch=None):
    config = root / "warmup.cfg"
    root.mkdir(parents=True, exist_ok=True)
    config.write_text(config_text(WARMUP))
    tracer = None
    calls = []
    if monkeypatch is not None:
        # An independent count of correlation_map calls, bound below the
        # tracer in every module that holds the original.
        original = module("occlusion").correlation_map

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for name in ("occlusion", "completion", "cli"):
            monkeypatch.setattr(module(name), "correlation_map", counted)
    if trace:
        tracer = tracing.Tracer().install()
    try:
        run_round(occfill.cli.main, config, WARMUP_SEED, root / "round",
                  call=tracer.run_stage if tracer else None)
    finally:
        if tracer:
            tracer.uninstall()
    return tracer, len(calls)


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("warmup")
    monkeypatch = pytest.MonkeyPatch()
    try:
        tracer, counted = run_warmup(root / "traced", True, monkeypatch)
    finally:
        monkeypatch.undo()
    run_warmup(root / "plain", False)
    return root, tracer, counted


def test_correlation_calls_match_an_independent_count(two_runs):
    _, tracer, counted = two_runs
    layers = tracing.layer_metrics(tracer)
    # Every occluded training pedestrian is analysed by the mask library,
    # by the stage-two paste and by the scoring-head pass; backgrounds and
    # every eval proposal once.
    occluded = WARMUP["data.train_occluded"]
    expected = (3 * occluded + WARMUP["data.train_background"]
                + WARMUP["data.eval_pedestrians"] + WARMUP["data.eval_background"])
    assert layers["occlusion.correlation_calls"] == counted == expected
    assert layers["occlusion.distinct_proposals"] == expected - 2 * occluded
    for stage, (layer_time, wall) in tracing.stage_budgets(tracer).items():
        assert 0 < layer_time <= wall, stage


def test_traced_and_plain_runs_write_identical_artifacts(two_runs):
    root = two_runs[0]

    def digests(run):
        return [hashlib.sha256((root / run / "round" / a).read_bytes()).hexdigest()
                for a in ARTIFACTS]

    assert digests("traced") == digests("plain")


def test_checks_pass_on_the_run_and_catch_a_wrong_miss_rate(two_runs, tmp_path):
    package = types.SimpleNamespace(cli=occfill.cli, completion=module("completion"),
                                    prototypes=module("prototypes"))
    out = tmp_path / "round"
    shutil.copytree(two_runs[0] / "plain" / "round", out)
    structural = ("manifest_counts", "dataset_contents", "bank_members",
                  "bank_centres", "history_rows", "gt_counts",
                  "mr_baseline_sweep", "mr_completed_sweep",
                  "mask_iou_recomputed", "compactness_recomputed")
    suite = dict(checks.pipeline_checks(out, WARMUP, WARMUP_SEED, package))
    for name in structural:
        suite[name]()

    metrics = out / "results" / "metrics.csv"
    with open(metrics, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[2][1] = repr(float(rows[2][1]) + 1e-9)
    with open(metrics, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    suite = dict(checks.pipeline_checks(out, WARMUP, WARMUP_SEED, package))
    with pytest.raises(checks.CheckFailed):
        suite["mr_baseline_sweep"]()

