"""Command-line pipeline wiring synthesis, prototypes, training and eval.

Every subcommand reads an optional flat key=value config file, applies flag
overrides, archives the exact resolved config next to its outputs, and is
bit-reproducible for a fixed seed.
"""

import argparse
import csv
import json
import logging
import os
import sys
import time
from dataclasses import dataclass, is_dataclass, replace
from operator import attrgetter
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .completion import (TrainConfig, copy_paste, progressive_train, read_model,
                         rescore, train_scoring_head, write_model)
from .errors import OccfillError, PreconditionError
from .eval import (SUBSETS, EvalConfig, PROBE_MIN_SAMPLES, compactness_ratio,
                   in_subset, log_avg_miss_rate, mask_iou, probe_accuracy)
from .ndnum import RekeyedGenerator, Rng
from .occlusion import Analysis, OcclusionConfig, analyze, channel_correlation
# Only analyze calls correlation_map. The name stays bound here because
# bench/test_tracer.py counts its calls by patching it in this module.
from .occlusion import correlation_map  # noqa: F401
from .prototypes import (FULLY_VISIBLE, FeaturePool, ProtoConfig, build_pool,
                         kmeans, read_bank, write_bank)
from .synth import (MASK_PATTERNS, PEDESTRIAN, WorldConfig, gen_background,
                    gen_occluded, gen_pedestrian, gen_world, read_dataset,
                    sample_mask, sample_scale, write_dataset)

LOG = logging.getLogger("occfill")

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_IO = 3


# ---------------------------------------------------------------------------
# Run configuration: the run seed plus one config per pipeline stage. Config
# key `a.b` is field `b` of section `a`; the keys, their types, parsing and
# the archived text all follow from the dataclass fields.

@dataclass(frozen=True)
class DataConfig:
    train_visible: int = 800
    train_occluded: int = 300
    train_background: int = 300
    eval_pedestrians: int = 500
    eval_background: int = 500
    proposals_per_image: int = 10

    def validate(self):
        for name, count in vars(self).items():
            if count < 0:
                raise PreconditionError(f"data.{name} must be non-negative")
        if self.proposals_per_image < 1:
            raise PreconditionError("data.proposals_per_image must be >= 1")
        return self


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    world: WorldConfig = WorldConfig()
    data: DataConfig = DataConfig()
    proto: ProtoConfig = ProtoConfig()
    occ: OcclusionConfig = OcclusionConfig()
    train1: TrainConfig = TrainConfig(2000, 2e-3)
    train2: TrainConfig = TrainConfig(2000, 2e-4)
    head: TrainConfig = TrainConfig(500, 0.5)
    eval: EvalConfig = EvalConfig()

    def occ_config(self):
        # bench/checks.py rebuilds eval completions through this accessor.
        return self.occ

    def validate(self):
        if not (0 <= self.seed < 2 ** 64):
            raise PreconditionError("seed must fit an unsigned 64-bit integer")
        self.world.validate()
        self.data.validate()
        self.proto.validate()
        self.occ.validate()
        for name in ("train1", "train2", "head"):
            getattr(self, name).validate(name)
        self.eval.validate()
        return self


def _leaf_types(cls, prefix=""):
    for name, kind in get_type_hints(cls).items():
        if is_dataclass(kind):
            yield from _leaf_types(kind, f"{prefix}{name}.")
        else:
            yield prefix + name, kind


CONFIG_KEYS = dict(_leaf_types(RunConfig))


def _with(config, key, value):
    """`config` with the field at dotted `key` set to `value`."""
    name, _, rest = key.partition(".")
    if rest:
        value = _with(getattr(config, name), rest, value)
    return replace(config, **{name: value})


def parse_config_text(text):
    """key=value lines into a mapping; blank lines and # comments skipped."""
    mapping = {}
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise PreconditionError(
                f"config line {number}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in mapping:
            raise PreconditionError(f"config line {number}: duplicate key {key!r}")
        mapping[key] = value.strip()
    return mapping


def config_from_mapping(mapping):
    config = RunConfig()
    for key, raw in mapping.items():
        if key not in CONFIG_KEYS:
            raise PreconditionError(f"unknown config key {key!r}")
        try:
            config = _with(config, key, CONFIG_KEYS[key](raw))
        except ValueError as exc:
            raise PreconditionError(f"config key {key}: {exc}") from exc
    return config


def config_to_text(config):
    """Canonical archive form; floats via repr so parsing round-trips exactly."""
    lines = []
    for key in CONFIG_KEYS:
        value = attrgetter(key)(config)
        lines.append(f"{key}={repr(value) if isinstance(value, float) else value}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Pipeline stages, importable without going through the argument parser.

def synthesize(config, out):
    """Draw the train and eval proposal sets into `out`; returns the manifest.

    Each split is drawn, written to `<split>.fcds` and released before the
    next is drawn, so only one split is held at a time. Every split draws
    from its own labelled streams, so the order changes no byte. The
    manifest of per-split counts goes to `manifest.json`, last. The
    manifest and split files of an earlier run in `out` are removed first,
    so a run that fails part way leaves no manifest and no stale split
    beside the splits it wrote.

    Proposal i of a group draws everything it needs, in order, from the
    group's stream `p{i}`: one Philox generator is re-keyed to each such
    stream in turn (`ndnum.RekeyedGenerator`).
    """
    for name in ("manifest.json", "train.fcds", "eval.fcds"):
        (out / name).unlink(missing_ok=True)
    world = gen_world(config.world, config.seed)
    root = Rng(config.seed)
    data = config.data
    streams = RekeyedGenerator()

    def pedestrians(rng, n, start_id, occlude):
        drawn = []
        for i in range(n):
            gen = streams.start(rng.split(f"p{i}"))
            base = gen_pedestrian(world, sample_scale(gen), gen, pid=start_id + i)
            if occlude == "always" or (occlude == "half" and i % 2 == 1):
                pattern = MASK_PATTERNS[int(gen.integers(0, len(MASK_PATTERNS)))]
                mask = sample_mask(world, pattern, gen)
                kind = "object" if gen.random() < 0.5 else "pedestrian"
                base = gen_occluded(world, base, mask, kind, gen)
            drawn.append(base)
        return drawn

    def backgrounds(rng, n, start_id):
        return [gen_background(world, streams.start(rng.split(f"p{i}")),
                               pid=start_id + i)
                for i in range(n)]

    def draw_train():
        train = pedestrians(root.split("train-visible"), data.train_visible,
                            0, "never")
        train += pedestrians(root.split("train-occluded"),
                             data.train_occluded, len(train), "always")
        train += backgrounds(root.split("train-background"),
                             data.train_background, len(train))
        return train

    def draw_eval():
        eval_set = pedestrians(root.split("eval-pedestrians"),
                               data.eval_pedestrians, 0, "half")
        eval_set += backgrounds(root.split("eval-background"),
                                data.eval_background, len(eval_set))
        return eval_set

    def counts(proposals):
        visibility = np.array([p.visibility for p in proposals
                               if p.label == PEDESTRIAN])
        tally = {name: int(in_subset(visibility, name).sum())
                 for name in SUBSETS}
        tally["pedestrian"] = len(visibility)
        tally["background"] = len(proposals) - len(visibility)
        tally["total"] = len(proposals)
        tally["images"] = -(-len(proposals) // data.proposals_per_image)
        return tally

    manifest = {"seed": config.seed, "dims": list(world.dims),
                "proposals_per_image": data.proposals_per_image}
    for split, draw in (("train", draw_train), ("eval", draw_eval)):
        start = time.perf_counter()
        proposals = draw()
        drawn = time.perf_counter()
        write_dataset(proposals, out / f"{split}.fcds", dims=world.dims)
        LOG.info("%s split: %d proposals drawn in %.2f s, written in %.2f s",
                 split, len(proposals), drawn - start, time.perf_counter() - drawn)
        manifest[split] = counts(proposals)
        del proposals
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


@dataclass
class ProposalReport(Analysis):
    """Everything the occlusion and completion stages say about one sample."""

    completed: np.ndarray | None = None


def complete_proposal(features, scale, bank, gen, occ_config):
    """Analyse one proposal and, when it is occluded, complete its features."""
    found = analyze(features, scale, bank, occ_config)
    completed = None
    if found.occluded:
        pasted = copy_paste(features, found.prototype.center, found.mask)
        completed = gen.forward(pasted[None])[0]
    return ProposalReport(**vars(found), completed=completed)


def _ped_pools(proposals):
    visible = build_pool(proposals)
    occluded = [p for p in proposals
                if p.label == PEDESTRIAN and p.visibility < FULLY_VISIBLE]
    if not occluded:
        raise PreconditionError("training dataset holds no occluded pedestrians")
    # The dataset's own feature views: the pool holds no copy of them.
    features = [p.features for p in occluded]
    scales = np.array([p.scale for p in occluded], dtype=np.float64)
    return visible, FeaturePool(features, scales)


def _complete_into(maps, start, proposals, bank, gen, occ_config):
    """Write the completed map of each flagged proposal, in order, into
    ``maps`` from row ``start``; returns the row after the last one."""
    for p in proposals:
        report = complete_proposal(p.features, p.scale, bank, gen, occ_config)
        if report.occluded:
            maps[start] = report.completed
            start += 1
    return start


def train_model(proposals, bank, config):
    """Progressive adversarial training plus the rescoring head.

    The head is fit on completed features, the distribution it scores at
    eval time: completed occluded pedestrians against completed backgrounds.
    Each completed map goes straight into one array, positives then
    negatives, each in proposal order, and the fit normalizes that array in
    place: beyond the dataset, the head holds one array of maps.
    """
    visible, occ_pool = _ped_pools(proposals)
    world = gen_world(config.world, config.seed)
    rng = Rng(config.seed)
    gen, disc, history = progressive_train(visible, occ_pool, bank,
                                           (config.train1, config.train2),
                                           rng.split("train"), world)
    del visible, occ_pool
    LOG.info("adversarial training done (%d iterations)", len(history))

    occluded = [p for p in proposals
                if p.label == PEDESTRIAN and p.visibility < FULLY_VISIBLE]
    backgrounds = [p for p in proposals if p.label != PEDESTRIAN]
    start = time.perf_counter()
    maps = np.empty((len(occluded) + len(backgrounds),)
                    + proposals[0].features.shape)
    positives = _complete_into(maps, 0, occluded, bank, gen, config.occ)
    total = _complete_into(maps, positives, backgrounds, bank, gen, config.occ)
    if positives == 0 or positives == total:
        raise PreconditionError("no completed samples to fit the scoring head on")
    passed = time.perf_counter()
    head = train_scoring_head(maps[:total], positives, rng.split("head"),
                              config.head)
    LOG.info("scoring head fit on %d positives / %d negatives",
             positives, total - positives)
    LOG.info("head pass: %d of %d candidates completed in %.2f s; "
             "head fit in %.2f s", total, len(maps), passed - start,
             time.perf_counter() - passed)
    return gen, disc, head, history


def evaluate(proposals, bank, gen, head, config):
    """Baseline vs completed miss rates per subset, plus diagnostics.

    One proposal is one detection, scored by the detector (baseline) or
    after completion, and, if a pedestrian, its own ground truth; ids play
    no part. Proposals are treated as coming from synthetic frames holding
    `proposals_per_image` candidates each, so FPPI budgets stay meaningful
    even though every background proposal is a potential false positive.
    A subset without ground truths gets NaN miss rates; the others are
    still computed.
    """
    images = -(-len(proposals) // config.data.proposals_per_image)
    pedestrian = np.array([p.label == PEDESTRIAN for p in proposals], dtype=bool)
    visibility = np.array([p.visibility for p in proposals], dtype=np.float64)
    baseline = np.array([p.score for p in proposals], dtype=np.float64)
    completed = np.empty_like(baseline)
    flagged = 0
    # Occluded pedestrians after completion, in one array; the raw and
    # visible maps stay views of the dataset until the diagnostics.
    n_occluded = int(np.sum(pedestrian & (visibility < FULLY_VISIBLE)))
    dims = proposals[0].features.shape if proposals else ()
    comp_occ = np.empty((n_occluded,) + dims)
    raw_occ, vis_feats, ious = [], [], []
    clock = time.perf_counter()
    for i, p in enumerate(proposals):
        report = complete_proposal(p.features, p.scale, bank, gen, config.occ)
        completed[i] = rescore(p, report.completed, head, report.occluded)
        flagged += report.occluded
        if p.label != PEDESTRIAN:
            continue
        if p.true_mask is not None:
            ious.append(mask_iou(report.mask, p.true_mask))
        if p.visibility >= FULLY_VISIBLE:
            vis_feats.append(p.features)
        else:
            comp_occ[len(raw_occ)] = report.completed if report.occluded else p.features
            raw_occ.append(p.features)

    LOG.info("eval scored %d proposals: %d flagged and completed, "
             "%d kept their detector score", len(proposals), flagged,
             len(proposals) - flagged)
    diagnostics = {"images": images,
                   "mean_mask_iou": float(np.mean(ious)) if ious else float("nan"),
                   "compactness_ratio": float("nan"),
                   "probe_accuracy": float("nan")}
    # Wall seconds per phase, for the log only.
    seconds = {"completion": time.perf_counter() - clock, "compactness": 0.0,
               "probe": 0.0}
    if raw_occ and vis_feats:
        clock = time.perf_counter()
        vis_feats = np.stack(vis_feats)
        diagnostics["compactness_ratio"] = compactness_ratio(
            np.stack(raw_occ), comp_occ, vis_feats)
        seconds["compactness"] = time.perf_counter() - clock
        if min(len(comp_occ), len(vis_feats)) >= PROBE_MIN_SAMPLES:
            clock = time.perf_counter()
            diagnostics["probe_accuracy"] = probe_accuracy(
                comp_occ, vis_feats, seed=config.seed)
            seconds["probe"] = time.perf_counter() - clock
    # The miss rates need only the per-proposal vectors.
    del comp_occ, vis_feats
    clock = time.perf_counter()

    rows = []
    for subset in SUBSETS:
        members = int((pedestrian & in_subset(visibility, subset)).sum())
        mr_base = mr_comp = float("nan")
        if members:
            mr_base = log_avg_miss_rate(baseline, pedestrian, visibility,
                                        images, config.eval, subset)
            mr_comp = log_avg_miss_rate(completed, pedestrian, visibility,
                                        images, config.eval, subset)
        rows.append({"subset": subset, "mr_baseline": mr_base,
                     "mr_completed": mr_comp, "delta_mr": mr_base - mr_comp,
                     "gt_count": members})
    LOG.info("eval phases: completion %.2f s, compactness %.2f s, probe %.2f s, "
             "miss rates %.2f s", seconds["completion"], seconds["compactness"],
             seconds["probe"], time.perf_counter() - clock)
    return rows, diagnostics


# ---------------------------------------------------------------------------
# Output helpers. All file bytes are deterministic functions of their inputs.

def _write_history(path, history):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["iteration", "disc_objective", "gen_objective",
                         "disc_accuracy"])
        for iteration, disc_obj, gen_obj, accuracy in history:
            writer.writerow([int(iteration), repr(float(disc_obj)),
                             repr(float(gen_obj)), repr(float(accuracy))])


def _write_metrics(path, rows, diagnostics):
    columns = ["subset", "mr_baseline", "mr_completed", "delta_mr",
               "compactness_ratio", "probe_accuracy", "mean_mask_iou",
               "gt_count", "images"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row["subset"], repr(row["mr_baseline"]),
                             repr(row["mr_completed"]), repr(row["delta_mr"]),
                             repr(float(diagnostics["compactness_ratio"])),
                             repr(float(diagnostics["probe_accuracy"])),
                             repr(float(diagnostics["mean_mask_iou"])),
                             row["gt_count"], diagnostics["images"]])


def _write_pgm(path, grid):
    """8-bit binary PGM of a uint8-compatible grid indexed [x, y].

    Image rows run top to bottom (y), each left to right (x).
    """
    arr = np.ascontiguousarray(np.asarray(grid).T, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (arr.shape[1], arr.shape[0]))
        fh.write(arr.tobytes())


def _gray_scale(grid):
    arr = np.asarray(grid, dtype=np.float64)
    lo, hi = float(arr.min()), float(arr.max())
    if hi == lo:
        return np.full(arr.shape, 128, dtype=np.uint8)
    return np.rint((arr - lo) / (hi - lo) * 255.0).astype(np.uint8)


def _write_grid_csv(path, grid):
    """One CSV row per y of a grid indexed [x, y], as in `_write_pgm`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for row in np.asarray(grid, dtype=np.float64).T:
            writer.writerow([repr(float(v)) for v in row])


# ---------------------------------------------------------------------------
# Subcommands.

def _load_config(args):
    mapping = {}
    if args.config is not None:
        mapping = parse_config_text(Path(args.config).read_text())
    config = config_from_mapping(mapping)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    return config.validate()


def _prepare_out(args, config):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.txt").write_text(config_to_text(config))
    return out


def cmd_synth(args):
    config = _load_config(args)
    out = _prepare_out(args, config)
    manifest = synthesize(config, out)
    ev = manifest["eval"]
    print(f"wrote {manifest['train']['total']} train / {ev['total']} eval "
          f"proposals to {out}")
    print(f"eval subsets: R={ev['R']} HO={ev['HO']} R+HO={ev['R+HO']} "
          f"background={ev['background']}")
    return EXIT_OK


def cmd_build_prototypes(args):
    config = _load_config(args)
    out = _prepare_out(args, config)
    pool = build_pool(read_dataset(args.data))
    bank = kmeans(pool, config.proto, seed=config.seed)
    write_bank(bank, out / "bank.fcpb")
    for i, proto in enumerate(bank.prototypes):
        print(f"cluster {i}: scale {proto.scale_mean:.2f} ± "
              f"{proto.scale_std:.2f} ({proto.member_count} members)")
    print(f"bank with {bank.k} prototypes written to {out / 'bank.fcpb'}")
    return EXIT_OK


def cmd_train(args):
    config = _load_config(args)
    out = _prepare_out(args, config)
    proposals = read_dataset(args.data)
    bank = read_bank(args.bank)
    gen, disc, head, history = train_model(proposals, bank, config)
    grid = bank.prototypes[0].center.shape[1:]
    write_model(out / "model.fcgd", gen, disc, head,
                (config.train1, config.train2), grid)
    _write_history(out / "history.csv", history)
    print(f"model written to {out / 'model.fcgd'} "
          f"({len(history)} iterations logged)")
    return EXIT_OK


def cmd_eval(args):
    config = _load_config(args)
    out = _prepare_out(args, config)
    proposals = read_dataset(args.data)
    bank = read_bank(args.bank)
    gen, _, head, _, _ = read_model(args.model)
    rows, diagnostics = evaluate(proposals, bank, gen, head, config)
    _write_metrics(out / "metrics.csv", rows, diagnostics)
    for row in rows:
        print(f"{row['subset']}: MR {row['mr_baseline']:.4f} -> "
              f"{row['mr_completed']:.4f} (delta {row['delta_mr']:+.4f})")
    print(f"metrics written to {out / 'metrics.csv'}")
    return EXIT_OK


def cmd_inspect(args):
    config = _load_config(args)
    out = _prepare_out(args, config)
    proposals = read_dataset(args.data)
    bank = read_bank(args.bank)
    matches = [p for p in proposals if p.id == args.id]
    if not matches:
        raise PreconditionError(f"no proposal with id {args.id}")
    if len(matches) > 1:
        raise PreconditionError(
            f"id {args.id} is ambiguous: {len(matches)} proposals carry it")
    [proposal] = matches
    found = analyze(proposal.features, proposal.scale, bank, config.occ)
    proto, mask = found.prototype, found.mask
    _write_pgm(out / "corr_map.pgm", _gray_scale(found.cmap.grid))
    _write_pgm(out / "mask.pgm", np.where(mask.grid, 255, 0))
    _write_grid_csv(out / "corr_map.csv", found.cmap.grid)
    for channel in range(proposal.features.shape[0]):
        grid = channel_correlation(proposal.features, proto.center, channel).grid
        _write_grid_csv(out / f"channel_{channel:02d}.csv", grid)
    print(f"proposal {proposal.id}: label={proposal.label} "
          f"scale={proposal.scale:.2f} visibility={proposal.visibility:.2f}")
    print(f"nearest prototype scale {proto.scale_mean:.2f}; "
          f"flagged {mask.count}/{mask.grid.size} cells "
          f"({mask.fraction():.2f}); occluded={found.occluded}")
    print(f"heatmaps written to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point.

def _setup_logging():
    wanted = os.environ.get("OCCFILL_LOG", "error").strip().lower()
    levels = {"error": logging.ERROR, "info": logging.INFO,
              "debug": logging.DEBUG}
    if wanted not in levels:
        sys.stderr.write(f"warning: unknown OCCFILL_LOG value {wanted!r}; "
                         "using error\n")
    logging.basicConfig(stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    LOG.setLevel(levels.get(wanted, logging.ERROR))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="occfill",
        description="Occluded-pedestrian feature completion pipeline.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", type=Path, default=None,
                        help="flat key=value config file")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the run seed (unsigned 64-bit)")
        sp.add_argument("--out", type=Path, default=Path("out"),
                        help="output directory (created if missing)")

    sp = sub.add_parser("synth-data",
                        help="generate train/eval datasets plus a manifest")
    add_common(sp)
    sp.set_defaults(func=cmd_synth)

    sp = sub.add_parser("build-prototypes",
                        help="cluster fully visible pedestrians into a bank")
    add_common(sp)
    sp.add_argument("--data", type=Path, required=True, help="train dataset file")
    sp.set_defaults(func=cmd_build_prototypes)

    sp = sub.add_parser("train",
                        help="progressive adversarial training plus rescoring head")
    add_common(sp)
    sp.add_argument("--data", type=Path, required=True, help="train dataset file")
    sp.add_argument("--bank", type=Path, required=True, help="prototype bank file")
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("eval",
                        help="baseline vs completed miss rates on R/HO/R+HO")
    add_common(sp)
    sp.add_argument("--data", type=Path, required=True, help="eval dataset file")
    sp.add_argument("--bank", type=Path, required=True, help="prototype bank file")
    sp.add_argument("--model", type=Path, required=True, help="trained model file")
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("inspect",
                        help="dump correlation heatmaps for one proposal")
    add_common(sp)
    sp.add_argument("--data", type=Path, required=True, help="dataset file")
    sp.add_argument("--bank", type=Path, required=True, help="prototype bank file")
    sp.add_argument("--id", type=int, required=True, help="proposal id to inspect")
    sp.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None):
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_PRECONDITION
    try:
        start = time.perf_counter()
        code = int(args.func(args))
        # Wall time goes to the log only, so stdout and artifacts stay
        # byte-identical across runs.
        LOG.info("%s took %.2f s", args.command, time.perf_counter() - start)
        return code
    except OccfillError as exc:
        LOG.debug("command failed", exc_info=True)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
