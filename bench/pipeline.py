"""One workload's pipeline, timed or traced, then checked.

Runs in a fresh interpreter started by `run.py`, with BLAS pinned to one
thread and `src` on the path. It calls `occfill.cli.main` with the
arguments a user would pass, for `synth-data`, `build-prototypes`, `train`
and `eval` in turn:

1. an untimed warm-up pipeline on a tiny config;
2. timed rounds of the workload's pipeline, until another round would run
   past `--seconds` (always at least one); with `--trace 1` instead one
   round with every occfill layer wrapped by the tracer;
3. the output checks of `checks.py` on the last round's files.

The result goes to `--result` as JSON: stage times per round, peak
resident memory, check outcomes, the per-layer metrics of a traced round
and a record of the environment.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import sys
import time
import types
from pathlib import Path

import numpy as np

import checks
import tracer as tracing
from workloads import WARMUP, WARMUP_SEED, WORKLOADS, config_text

ROOT = Path(__file__).resolve().parent.parent
STAGES = ("synth-data", "build-prototypes", "train", "eval")


def stage_args(stage, config, seed, out):
    """The command line of one subcommand, as a user would type it."""
    common = ["--config", str(config), "--seed", str(seed)]
    data, bank, model = out / "data", out / "bank", out / "model"
    return {
        "synth-data": [stage, *common, "--out", str(data)],
        "build-prototypes": [stage, *common, "--data", str(data / "train.fcds"),
                             "--out", str(bank)],
        "train": [stage, *common, "--data", str(data / "train.fcds"),
                  "--bank", str(bank / "bank.fcpb"), "--out", str(model)],
        "eval": [stage, *common, "--data", str(data / "eval.fcds"),
                 "--bank", str(bank / "bank.fcpb"),
                 "--model", str(model / "model.fcgd"),
                 "--out", str(out / "results")],
    }[stage]


class StageFailed(Exception):
    pass


def run_round(main, config, seed, out, call=None):
    """All four stages into `out`; returns {stage: [wall s, process CPU s]}.

    A collection runs before each stage, outside its time, so garbage left
    by one stage is not collected on the next one's clock.
    """
    if out.exists():
        shutil.rmtree(out)
    times = {}
    for stage in STAGES:
        args = stage_args(stage, config, seed, out)
        gc.collect()
        cpu = time.process_time()
        start = time.perf_counter()
        code = call(stage, main, args) if call else main(args)
        times[stage] = [time.perf_counter() - start, time.process_time() - cpu]
        if code != 0:
            raise StageFailed(f"{stage} exited {code}")
    return times


def environment():
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)

    import occfill
    import occfill.cli
    import occfill.completion
    import occfill.prototypes
    source = Path(occfill.__file__).resolve()
    if ROOT / "src" not in source.parents:
        sys.exit(f"occfill imported from {source}, not from {ROOT / 'src'}")

    spec = WORKLOADS[args.workload]
    args.out.mkdir(parents=True, exist_ok=True)
    config = args.out / f"{args.workload}.cfg"
    config.write_text(config_text(spec))
    warm = args.out / "warmup.cfg"
    warm.write_text(config_text(WARMUP))
    result = {"workload": args.workload, "seed": args.seed,
              "env": environment(), "rounds": [], "checks": []}

    def finish(code):
        result["env"]["loadavg_end"] = os.getloadavg()
        args.result.write_text(json.dumps(result, indent=1) + "\n")
        return code

    try:
        run_round(occfill.cli.main, warm, WARMUP_SEED, args.out / "warmup")
        shutil.rmtree(args.out / "warmup")
        out = args.out / "round"
        if args.trace:
            tracer = tracing.Tracer().install()
            try:
                result["rounds"].append(run_round(
                    occfill.cli.main, config, args.seed, out, call=tracer.run_stage))
            finally:
                tracer.uninstall()
        else:
            begin = time.perf_counter()
            slowest = 0.0
            while True:
                start = time.perf_counter()
                result["rounds"].append(
                    run_round(occfill.cli.main, config, args.seed, out))
                slowest = max(slowest, time.perf_counter() - start)
                if time.perf_counter() - begin + slowest > args.seconds:
                    break
    except StageFailed as exc:
        result["stage_error"] = str(exc)
        return finish(1)
    # Read before the checks, so that their memory does not count.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    package = types.SimpleNamespace(cli=occfill.cli, completion=occfill.completion,
                                    prototypes=occfill.prototypes)
    suite = checks.pipeline_checks(out, spec, args.seed, package)
    if args.trace:
        def stage_self_times():
            budgets = tracing.stage_budgets(tracer)
            for stage, (layers, wall) in budgets.items():
                checks.expect(layers <= wall, f"{stage}: layer self times "
                              f"{layers:.4f} s exceed its {wall:.4f} s")
            return ", ".join(f"{stage} {layers:.3f} of {wall:.3f} s"
                             for stage, (layers, wall) in budgets.items())

        suite.append(("stage_self_times", stage_self_times))
        result["layers"] = tracing.layer_metrics(tracer)
        if args.spans is not None:
            tracer.write(args.spans)
    for name, check in suite:
        try:
            result["checks"].append([name, True, check()])
        except checks.CheckFailed as exc:
            result["checks"].append([name, False, str(exc)])
        except Exception as exc:  # a crashed check is a failed one
            result["checks"].append([name, False, f"{type(exc).__name__}: {exc}"])
    shutil.rmtree(out)
    return finish(0)


if __name__ == "__main__":
    sys.exit(main())
