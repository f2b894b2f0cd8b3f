"""Span tracing of occfill from outside the package.

`Tracer.install` wraps occfill's public functions and the methods the
pipeline's hot loops call. Most modules bind their imports by name
(`from .occlusion import correlation_map`), so a wrapper is bound in place
of the original under every module attribute that holds it, not only in
the defining module. Methods are patched once, on their class.

Every wrapped call records a span: name, start, end, parent span and the
pipeline stage it ran in. Spans stay in memory until `write` saves them.
Some wrappers also add to counters (floating-point operations from layer
shapes, bytes written, distinct proposals analysed).
"""

import functools
import hashlib
import importlib
import json
import os
import time
from collections import Counter

MODULES = ("ndnum", "synth", "prototypes", "occlusion", "completion", "eval",
           "cli")

# (module, attribute path) of every wrapped callable. A dotted path names a
# method, patched on its class.
TARGETS = (
    ("ndnum", "DenseLayer.forward"),
    ("ndnum", "DenseLayer.backward"),
    ("ndnum", "Rng.split"),
    ("ndnum", "check_finite"),
    ("ndnum", "sgd_step"),
    ("synth", "gen_world"),
    ("synth", "gen_pedestrian"),
    ("synth", "gen_occluded"),
    ("synth", "gen_background"),
    ("synth", "write_dataset"),
    ("synth", "read_dataset"),
    ("prototypes", "build_pool"),
    ("prototypes", "kmeans"),
    ("prototypes", "nearest_prototype"),
    ("prototypes", "write_bank"),
    ("prototypes", "read_bank"),
    ("occlusion", "correlation_map"),
    ("occlusion", "occluded_cells"),
    ("occlusion", "completion_mask"),
    ("occlusion", "is_occluded"),
    ("completion", "Generator.forward"),
    ("completion", "Generator.backward"),
    ("completion", "Discriminator.forward"),
    ("completion", "Discriminator.backward"),
    ("completion", "copy_paste"),
    ("completion", "train_adversarial"),
    ("completion", "mask_library"),
    ("completion", "progressive_train"),
    ("completion", "train_scoring_head"),
    ("completion", "rescore"),
    ("completion", "write_model"),
    ("completion", "read_model"),
    ("eval", "log_avg_miss_rate"),
    ("eval", "compactness_ratio"),
    ("eval", "probe_accuracy"),
    ("cli", "synthesize"),
    ("cli", "complete_proposal"),
    ("cli", "train_model"),
    ("cli", "evaluate"),
)


def _batch(arr):
    """Columns of a (rows,) vector or (rows, n) column batch."""
    return 1 if arr.ndim == 1 else arr.shape[1]


def _count_dense_forward(tracer, args, result):
    layer = args[0]
    tracer.counts["dense_flops"] += (
        2 * layer.out_dim * layer.in_dim * _batch(result))


def _count_dense_backward(tracer, args, result):
    # dW = dz @ x.T and dx = W.T @ dz: two products of out x in x batch.
    layer = args[0]
    _, dx = result
    tracer.counts["dense_flops"] += 4 * layer.out_dim * layer.in_dim * _batch(dx)


def _count_write_dataset(tracer, args, result):
    tracer.counts["dataset_bytes"] += os.path.getsize(args[1])


def _count_correlation(tracer, args, result):
    digest = hashlib.blake2b(args[0].tobytes(), digest_size=16).digest()
    tracer.proposals.add(digest)


def _count_adversarial(tracer, args, result):
    tracer.counts["adv_iterations"] += len(result[2])


def _count_complete(tracer, args, result):
    tracer.counts["completed_proposals"] += int(result.occluded)


COUNTERS = {
    "ndnum.DenseLayer.forward": _count_dense_forward,
    "ndnum.DenseLayer.backward": _count_dense_backward,
    "synth.write_dataset": _count_write_dataset,
    "occlusion.correlation_map": _count_correlation,
    "completion.train_adversarial": _count_adversarial,
    "cli.complete_proposal": _count_complete,
}


class Tracer:
    """Records spans and counters for wrapped occfill calls."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.stages = []
        self.counts = Counter()
        self.proposals = set()
        self.stage_cpu = {}
        self._stack = []
        self._stage = ""
        self._undo = []
        self.wrappers = {}

    # -- spans ------------------------------------------------------------

    def _open(self, name):
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.stages.append(self._stage)
        self.ends.append(None)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index):
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def run_stage(self, stage, fn, *args):
        """Call fn(*args) inside a span named `stage:<stage>`."""
        self._stage = stage
        cpu = time.process_time()
        index = self._open(f"stage:{stage}")
        try:
            return fn(*args)
        finally:
            self._close(index)
            self.stage_cpu[stage] = time.process_time() - cpu
            self._stage = ""

    def wrap(self, name, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if count is not None:
                count(self, args, result)
            return result

        return traced

    # -- installing -------------------------------------------------------

    def install(self):
        """Wrap every target, under every module attribute bound to it."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(f"occfill.{m}") for m in MODULES]
        by_name = dict(zip(MODULES, modules))
        for module_name, path in TARGETS:
            owner = by_name[module_name]
            span = f"{module_name}.{path}"
            if "." in path:
                class_name, method = path.split(".")
                cls = getattr(owner, class_name)
                original = cls.__dict__[method]
                wrapper = self.wrap(span, original)
                self._undo.append((cls, method, original))
                setattr(cls, method, wrapper)
            else:
                original = getattr(owner, path)
                wrapper = self.wrap(span, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._undo.append((module, attr, original))
                            setattr(module, attr, wrapper)
            self.wrappers[span] = wrapper
        return self

    def uninstall(self):
        """Put every original back."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def write(self, path):
        """Save the spans as JSON: a name table and one row per span."""
        table = sorted(set(self.names))
        code = {name: i for i, name in enumerate(table)}
        rows = [[code[n], s, e, p, st] for n, s, e, p, st in zip(
            self.names, self.starts, self.ends, self.parents, self.stages)]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "stage"],
                       "names": table, "spans": rows}, fh,
                      separators=(",", ":"))


def self_times(starts, ends, parents):
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent's interval and overlapping
    children are counted once.
    """
    children = [[] for _ in starts]
    for index, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(index)
    out = []
    for index, (start, end) in enumerate(zip(starts, ends)):
        covered = 0.0
        reach = start
        for child in sorted(children[index], key=lambda c: starts[c]):
            lo = max(starts[child], reach)
            hi = min(ends[child], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


# Per-layer metrics: name -> (kind, span names). "calls" counts spans,
# "self" sums their self time, "total" sums their whole duration.
SPAN_METRICS = {
    "ndnum.dense_forward_calls": ("calls", ["ndnum.DenseLayer.forward"]),
    "ndnum.dense_forward_s": ("self", ["ndnum.DenseLayer.forward"]),
    "ndnum.dense_backward_calls": ("calls", ["ndnum.DenseLayer.backward"]),
    "ndnum.dense_backward_s": ("self", ["ndnum.DenseLayer.backward"]),
    "ndnum.check_finite_calls": ("calls", ["ndnum.check_finite"]),
    "ndnum.check_finite_s": ("self", ["ndnum.check_finite"]),
    "ndnum.rng_split_calls": ("calls", ["ndnum.Rng.split"]),
    "ndnum.rng_split_s": ("self", ["ndnum.Rng.split"]),
    "ndnum.sgd_step_calls": ("calls", ["ndnum.sgd_step"]),
    "ndnum.sgd_step_s": ("self", ["ndnum.sgd_step"]),
    "completion.train_adversarial_s": ("self", ["completion.train_adversarial"]),
    "completion.train_adversarial_total_s": (
        "total", ["completion.train_adversarial"]),
    "completion.generator_calls": (
        "calls", ["completion.Generator.forward", "completion.Generator.backward"]),
    "completion.generator_s": (
        "self", ["completion.Generator.forward", "completion.Generator.backward"]),
    "completion.discriminator_calls": (
        "calls", ["completion.Discriminator.forward",
                  "completion.Discriminator.backward"]),
    "completion.discriminator_s": (
        "self", ["completion.Discriminator.forward",
                 "completion.Discriminator.backward"]),
    "completion.mask_library_s": ("self", ["completion.mask_library"]),
    "completion.copy_paste_calls": ("calls", ["completion.copy_paste"]),
    "completion.copy_paste_s": ("self", ["completion.copy_paste"]),
    "completion.head_fit_s": ("self", ["completion.train_scoring_head"]),
    "completion.model_io_s": (
        "self", ["completion.write_model", "completion.read_model"]),
    "occlusion.correlation_calls": ("calls", ["occlusion.correlation_map"]),
    "occlusion.correlation_s": ("self", ["occlusion.correlation_map"]),
    "occlusion.mask_calls": (
        "calls", ["occlusion.occluded_cells", "occlusion.completion_mask",
                  "occlusion.is_occluded"]),
    "occlusion.mask_s": (
        "self", ["occlusion.occluded_cells", "occlusion.completion_mask",
                 "occlusion.is_occluded"]),
    "prototypes.kmeans_s": ("self", ["prototypes.kmeans"]),
    "prototypes.nearest_calls": ("calls", ["prototypes.nearest_prototype"]),
    "prototypes.nearest_s": ("self", ["prototypes.nearest_prototype"]),
    "synth.gen_calls": (
        "calls", ["synth.gen_pedestrian", "synth.gen_occluded",
                  "synth.gen_background"]),
    "synth.gen_s": (
        "self", ["synth.gen_pedestrian", "synth.gen_occluded",
                 "synth.gen_background"]),
    "synth.write_dataset_s": ("self", ["synth.write_dataset"]),
    "synth.read_dataset_s": ("self", ["synth.read_dataset"]),
    "eval.probe_s": ("self", ["eval.probe_accuracy"]),
    "eval.probe_total_s": ("total", ["eval.probe_accuracy"]),
    "eval.miss_rate_calls": ("calls", ["eval.log_avg_miss_rate"]),
    "eval.miss_rate_s": ("self", ["eval.log_avg_miss_rate"]),
    "eval.compactness_s": ("self", ["eval.compactness_ratio"]),
    "cli.complete_proposal_calls": ("calls", ["cli.complete_proposal"]),
    "cli.complete_proposal_s": ("self", ["cli.complete_proposal"]),
}


def layer_metrics(tracer):
    """Every per-layer metric of the traced run, as name -> value."""
    selfs = self_times(tracer.starts, tracer.ends, tracer.parents)
    calls, self_s, total_s = Counter(), Counter(), Counter()
    for name, start, end, own in zip(tracer.names, tracer.starts, tracer.ends,
                                     selfs):
        calls[name] += 1
        self_s[name] += own
        total_s[name] += end - start
    by_kind = {"calls": calls, "self": self_s, "total": total_s}
    out = {}
    for metric, (kind, names) in SPAN_METRICS.items():
        out[metric] = sum(by_kind[kind][n] for n in names)
    counts = tracer.counts
    distinct = len(tracer.proposals)
    analysed = out["cli.complete_proposal_calls"]
    stage_wall = {stage: total_s[f"stage:{stage}"] for stage in tracer.stage_cpu}
    out.update({
        "ndnum.dense_flops": counts["dense_flops"],
        "completion.adv_iterations": counts["adv_iterations"],
        "occlusion.distinct_proposals": distinct,
        "occlusion.analyses_per_proposal": (
            out["occlusion.correlation_calls"] / distinct if distinct else 0.0),
        "synth.dataset_bytes": counts["dataset_bytes"],
        "cli.completed_proposals": counts["completed_proposals"],
        "cli.completion_yield": (
            counts["completed_proposals"] / analysed if analysed else 0.0),
        "cli.wait_s": sum(stage_wall[s] - tracer.stage_cpu[s]
                          for s in stage_wall),
        "trace.pipeline_s": sum(stage_wall.values()),
        "trace.spans": len(tracer.names),
    })
    return out


def stage_budgets(tracer):
    """Per stage: (summed self time of the layer spans in it, stage wall time)."""
    selfs = self_times(tracer.starts, tracer.ends, tracer.parents)
    layer = Counter()
    wall = {}
    for name, start, end, stage, own in zip(tracer.names, tracer.starts,
                                            tracer.ends, tracer.stages, selfs):
        if name.startswith("stage:"):
            wall[stage] = end - start
        else:
            layer[stage] += own
    return {stage: (layer[stage], wall[stage]) for stage in wall}
