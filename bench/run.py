"""Benchmark of the occfill pipeline: end-to-end times, or per-layer traces.

Run from the repository root:

    python3 bench/run.py --workload default --seed 42 --seconds 50 --trace 0
    python3 bench/run.py --workload all        # every workload in turn
    python3 bench/run.py --workload bulk --trace 1   # per-layer metrics

Each workload runs in a fresh interpreter (`pipeline.py`) with BLAS and
OpenMP pinned to one thread and `src` as the only package path, so the
program under test is always the checkout's own source. Before it,
`setup_s` is timed as the median of several fresh interpreters importing
`occfill.cli` and validating the workload's config.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the metrics
are the end-to-end ones, with `--trace 1` the per-layer ones. The exit code
is 0 when every stage and every check passed, 1 when one failed and 2 when
the benchmark could not run at all.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, config_text

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
SETUP_LAUNCHES = 8
# A run must end within 180 s; this leaves room for the set-up launches.
CHILD_TIMEOUT = 165

SETUP_SNIPPET = """\
import sys
from occfill.cli import config_from_mapping, parse_config_text
with open(sys.argv[1]) as fh:
    config_from_mapping(parse_config_text(fh.read())).validate()
"""

END_TO_END = (("pipeline_s", "s"), ("train_s", "s"), ("eval_s", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MiB"))
LAYER_UNITS = {"_calls": "count", "_s": "s", "dense_flops": "flop",
               "dataset_bytes": "byte", "adv_iterations": "count",
               "distinct_proposals": "count", "completed_proposals": "count",
               "trace.spans": "count", "analyses_per_proposal": "ratio",
               "completion_yield": "ratio"}


class Unrunnable(Exception):
    """The checkout lacks what the benchmark needs; no result is printed."""


def child_env():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PYTHONHOME", None)
    return env


def setup_seconds(config, env, launches):
    """Wall times of fresh interpreters importing occfill.cli and validating
    `config`."""
    times = []
    for _ in range(launches):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(config)],
                              env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=60)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise Unrunnable(f"set-up launch failed: {proc.stderr.strip()}")
    return times


def layer_unit(name):
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def run_workload(workload, seed, seconds, trace):
    """Run one workload; returns (correct, attempted, failed, metrics)."""
    env = child_env()
    tag = f"{workload}-seed{seed}-{os.getpid()}"
    work = OUT / tag
    work.mkdir(parents=True, exist_ok=True)
    config = work / "setup.cfg"
    config.write_text(config_text(WORKLOADS[workload]))
    # One untimed launch fills the bytecode cache. Half the timed launches
    # run before the pipeline and half after it, so the median does not rest
    # on one moment of the host.
    setup_seconds(config, env, 1)
    setup = setup_seconds(config, env, SETUP_LAUNCHES // 2)

    result_path = work / "result.json"
    command = [sys.executable, str(BENCH / "pipeline.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--out", str(work),
               "--result", str(result_path)]
    if trace:
        command += ["--spans", str(OUT / f"spans-{workload}.json")]
    with open(OUT / f"{workload}.log", "w") as log:
        proc = subprocess.Popen(command, env=env, cwd=ROOT, stdout=log,
                                stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = "timeout"
    if code != 0 and not result_path.exists():
        print(f"{workload}: pipeline process ended with {code}; "
              f"see {OUT / (workload + '.log')}", file=sys.stderr)
        shutil.rmtree(work)
        return False, 1, 1, {}
    result = json.loads(result_path.read_text())
    setup += setup_seconds(config, env, SETUP_LAUNCHES - SETUP_LAUNCHES // 2)
    shutil.rmtree(work)

    print("env " + json.dumps(result["env"], sort_keys=True))
    for name, ok, detail in result["checks"]:
        print(f"check {name}: {'ok' if ok else 'FAILED'} ({detail})")
    rounds = result["rounds"]
    failed = sum(1 for _, ok, _ in result["checks"] if not ok)
    attempted = 4 * len(rounds) + len(result["checks"])
    if "stage_error" in result:
        print(f"stage failed: {result['stage_error']}")
        return False, attempted + 1, failed + 1, {}
    correct = failed == 0 and code == 0
    walls = [{stage: wall for stage, (wall, _) in r.items()} for r in rounds]
    for number, times in enumerate(rounds, 1):
        print(f"round {number}: " + ", ".join(
            f"{stage} {wall:.4f} s (cpu {cpu:.4f} s)"
            for stage, (wall, cpu) in times.items()))

    def median(pick):
        return statistics.median(pick(r) for r in walls)

    if trace:
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in sorted(result["layers"].items())}
    else:
        values = {
            "pipeline_s": median(lambda r: sum(r.values())),
            "train_s": median(lambda r: r["train"]),
            "eval_s": median(lambda r: r["eval"]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    print(f"{workload} seed {seed}: {len(rounds)} round(s), "
          f"attempted {attempted}, failed {failed}")
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:>16.6g} {metric['unit']}")
    return correct, attempted, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "occfill" / "cli.py").is_file():
        print(f"no occfill source under {ROOT / 'src'}; "
              "run from the repository root", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for name in names:
            ok, tried, bad, values = run_workload(name, args.seed, args.seconds,
                                                  args.trace)
            correct &= ok
            attempted += tried
            failed += bad
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in values.items()})
    except Unrunnable as exc:
        print(exc, file=sys.stderr)
        return 2
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
