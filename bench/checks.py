"""Output checks of one pipeline run, computed apart from occfill.

The dataset and bank files are parsed here from their documented layouts,
expected counts come from the workload's own config mapping, and miss
rates come from a brute-force threshold sweep of this module's own. Only
the completed detector scores are rebuilt through occfill, with its public
`complete_proposal` and `rescore` on the written model and bank, because
those scores are what the pipeline produced.

`pipeline_checks` returns the checks as (name, function) pairs. Each
function returns a one-line detail and raises `CheckFailed` on a mismatch.
"""

import csv
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from workloads import config_text

MISS_FLOOR = 1e-4
FULLY_VISIBLE = 0.99
PEDESTRIAN_CODE = 1
SUBSETS = ("R", "HO", "R+HO")


class CheckFailed(Exception):
    pass


def expect(condition, message):
    if not condition:
        raise CheckFailed(message)


@dataclass
class Dataset:
    pedestrian: np.ndarray      # bool per proposal
    scales: np.ndarray
    scores: np.ndarray
    visibility: np.ndarray
    masks: list                 # bool (X, Y) grid, or None when not occluded
    features: np.ndarray        # (N, C, X, Y)

    def subset_count(self, subset):
        return int((self.pedestrian & in_subset(self.visibility, subset)).sum())


@dataclass
class Scored:
    """The one proposal field `rescore` reads."""

    score: float


def read_fcds(path):
    """Parse a .fcds dataset.

    Layout: magic "FCDS", then u32 version, count, C, X, Y; per proposal
    u64 id, u8 label, f64 scale, score and visibility, u8 mask flag, X*Y
    mask bytes when the flag is set, and C*X*Y f64 features. Little-endian.
    """
    data = Path(path).read_bytes()
    expect(data[:4] == b"FCDS", f"{path}: bad magic")
    _, count, c, x, y = struct.unpack_from("<5I", data, 4)
    record = struct.Struct("<QBdddB")
    pos = 24
    labels, scales, scores, vis, masks, feats = [], [], [], [], [], []
    for _ in range(count):
        _, label, scale, score, visibility, has_mask = record.unpack_from(data, pos)
        pos += record.size
        mask = None
        if has_mask:
            mask = np.frombuffer(data, np.uint8, x * y, pos).reshape(x, y) == 1
            pos += x * y
        feats.append(np.frombuffer(data, "<f8", c * x * y, pos).reshape(c, x, y))
        pos += c * x * y * 8
        labels.append(label)
        scales.append(scale)
        scores.append(score)
        vis.append(visibility)
        masks.append(mask)
    expect(pos == len(data), f"{path}: {len(data) - pos} bytes after the records")
    return Dataset(np.array(labels) == PEDESTRIAN_CODE, np.array(scales),
                   np.array(scores), np.array(vis), masks, np.stack(feats))


def read_fcpb(path):
    """Parse a .fcpb bank into (member counts (K,), centres (K, C, X, Y)).

    Layout: magic "FCPB", then u32 version, K, C, X, Y; per prototype f64
    scale mean and spread, u32 member count, C*X*Y f64 centre.
    """
    data = Path(path).read_bytes()
    expect(data[:4] == b"FCPB", f"{path}: bad magic")
    _, k, c, x, y = struct.unpack_from("<5I", data, 4)
    pos = 24
    counts, centres = [], []
    for _ in range(k):
        counts.append(struct.unpack_from("<ddI", data, pos)[2])
        centres.append(np.frombuffer(data, "<f8", c * x * y, pos + 20))
        pos += 20 + c * x * y * 8
    expect(pos == len(data), f"{path}: {len(data) - pos} bytes after the bank")
    return np.array(counts), np.stack(centres).reshape(k, c, x, y)


def in_subset(visibility, subset):
    """R is visibility >= 0.65, HO is [0.20, 0.65), R+HO their union."""
    if subset == "R":
        return visibility >= 0.65
    if subset == "HO":
        return (visibility >= 0.20) & (visibility < 0.65)
    return visibility >= 0.20


def sweep_log_avg_miss_rate(scores, pedestrian, visibility, subset, images,
                            fppi_points):
    """Log-average miss rate by trying every distinct score as a threshold.

    Each proposal is its own detection and matches its own ground truth, so
    at threshold t a pedestrian of the subset scoring >= t is a hit, a
    background scoring >= t is a false positive, and any other pedestrian
    is ignored. Detecting nothing (miss rate 1, no false positives) is
    always reachable. Miss rates are floored at 1e-4 before the log.
    """
    members = pedestrian & in_subset(visibility, subset)
    background = ~pedestrian
    n_gt = int(members.sum())
    expect(n_gt > 0, f"subset {subset} is empty")
    budgets = np.asarray(fppi_points)
    best = np.ones(len(budgets))
    for threshold in np.unique(scores):
        kept = scores >= threshold
        fppi = np.count_nonzero(kept & background) / images
        miss = 1.0 - np.count_nonzero(kept & members) / n_gt
        best = np.where(fppi <= budgets, np.minimum(best, miss), best)
    return float(np.exp(np.mean(np.log(np.maximum(best, MISS_FLOOR)))))


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def pipeline_checks(root, spec, seed, occfill):
    """The checks of one finished pipeline run in directory `root`.

    `spec` is the workload's full mapping of occfill config keys, `seed` the
    run seed, and `occfill` a namespace holding the package's `cli`,
    `completion` and `prototypes` modules.
    """
    root = Path(root)
    train = read_fcds(root / "data" / "train.fcds")
    evalset = read_fcds(root / "data" / "eval.fcds")
    manifest = json.loads((root / "data" / "manifest.json").read_text())
    metrics = {row["subset"]: row for row in _read_csv(root / "results" / "metrics.csv")}
    n_eval = spec["data.eval_pedestrians"] + spec["data.eval_background"]
    images = math.ceil(n_eval / spec["data.proposals_per_image"])
    fppi_points = np.logspace(-2.0, 0.0, spec["eval.fppi_count"])
    rebuilt = {}

    def completed():
        """Scores, masks and features of every eval proposal after completion."""
        if not rebuilt:
            cfg = occfill.cli.config_from_mapping(
                occfill.cli.parse_config_text(config_text(spec)))
            occ = cfg.occ_config()
            bank = occfill.prototypes.read_bank(root / "bank" / "bank.fcpb")
            gen, _, head, _, _ = occfill.completion.read_model(
                root / "model" / "model.fcgd")
            scores, masks, feats = [], [], []
            for i in range(len(evalset.scores)):
                report = occfill.cli.complete_proposal(
                    evalset.features[i], evalset.scales[i], bank, gen, occ)
                scores.append(float(occfill.completion.rescore(
                    Scored(float(evalset.scores[i])), report.completed, head,
                    report.occluded)))
                masks.append(np.asarray(report.mask.grid))
                feats.append(report.completed if report.occluded
                             else evalset.features[i])
            rebuilt.update(scores=np.array(scores), masks=masks, features=feats)
        return rebuilt

    def manifest_counts():
        want = {
            "train": {"total": spec["data.train_visible"] + spec["data.train_occluded"]
                      + spec["data.train_background"],
                      "pedestrian": spec["data.train_visible"]
                      + spec["data.train_occluded"],
                      "background": spec["data.train_background"]},
            "eval": {"total": n_eval,
                     "pedestrian": spec["data.eval_pedestrians"],
                     "background": spec["data.eval_background"]},
        }
        for split, counts in want.items():
            counts["images"] = math.ceil(counts["total"]
                                         / spec["data.proposals_per_image"])
            for key, value in counts.items():
                got = manifest[split][key]
                expect(got == value, f"manifest {split}.{key} = {got}, want {value}")
        dims = [spec["world.channels"], spec["world.grid_x"], spec["world.grid_y"]]
        expect(manifest["dims"] == dims, f"manifest dims {manifest['dims']} != {dims}")
        expect(manifest["seed"] == seed, f"manifest seed {manifest['seed']} != {seed}")
        return f"train {want['train']['total']}, eval {n_eval}, images {images}"

    def dataset_contents():
        for name, data in (("train", train), ("eval", evalset)):
            part = manifest[name]
            expect(len(data.scores) == part["total"],
                   f"{name}.fcds holds {len(data.scores)}, manifest {part['total']}")
            expect(int(data.pedestrian.sum()) == part["pedestrian"],
                   f"{name}.fcds pedestrian count differs from the manifest")
            for subset in SUBSETS:
                got = data.subset_count(subset)
                expect(got == part[subset],
                       f"{name}.fcds {subset} = {got}, manifest {part[subset]}")
            expect(list(data.features.shape[1:]) == manifest["dims"],
                   f"{name}.fcds dims {data.features.shape[1:]}")
        occluded = sum(m is not None for m in evalset.masks)
        expect(occluded == spec["data.eval_pedestrians"] // 2,
               f"eval holds {occluded} occluded pedestrians")
        return "subset counts of both datasets match the manifest"

    def visible_pool():
        keep = train.pedestrian & (train.visibility >= FULLY_VISIBLE)
        return train.features[keep].reshape(int(keep.sum()), -1)

    def bank_members():
        counts, _ = read_fcpb(root / "bank" / "bank.fcpb")
        pool = visible_pool().shape[0]
        expect(len(counts) == spec["proto.k"], f"bank holds {len(counts)} prototypes")
        expect(pool == spec["data.train_visible"],
               f"{pool} fully visible training pedestrians")
        expect(int(counts.sum()) == pool,
               f"member counts sum to {int(counts.sum())}, pool holds {pool}")
        return f"{counts.tolist()} sum to {pool}"

    def bank_centres():
        counts, centres = read_fcpb(root / "bank" / "bank.fcpb")
        flat = visible_pool()
        flat_centres = centres.reshape(len(centres), -1)
        d2 = np.stack([((flat - c) ** 2).sum(axis=1) for c in flat_centres],
                      axis=1)
        nearest = d2.argmin(axis=1)
        worst = 0.0
        for j, centre in enumerate(flat_centres):
            members = flat[nearest == j]
            expect(len(members) == counts[j],
                   f"centre {j}: {len(members)} nearest points, bank says {counts[j]}")
            worst = max(worst, float(np.abs(members.mean(axis=0) - centre).max()))
        scale = float(np.abs(flat_centres).max())
        expect(worst <= 1e-12 * scale,
               f"centres differ from their members' mean by {worst:.3e}")
        return f"max |centre - mean of nearest| = {worst:.3e}"

    def history_rows():
        rows = _read_csv(root / "model" / "history.csv")
        want = spec["train1.iterations"] + spec["train2.iterations"]
        expect(len(rows) == want, f"history holds {len(rows)} rows, want {want}")
        iterations = [int(r["iteration"]) for r in rows]
        expect(iterations == list(range(1, want + 1)), "iterations not 1..N")
        values = np.array([[float(r[k]) for k in ("disc_objective", "gen_objective",
                                                  "disc_accuracy")] for r in rows])
        expect(np.isfinite(values).all(), "non-finite history value")
        return f"{want} finite rows"

    def gt_counts():
        for subset in SUBSETS:
            got = int(metrics[subset]["gt_count"])
            expect(got == manifest["eval"][subset],
                   f"{subset} gt_count {got}, manifest {manifest['eval'][subset]}")
            expect(int(metrics[subset]["images"]) == images,
                   f"{subset} images {metrics[subset]['images']}, want {images}")
        return ", ".join(f"{s}={metrics[s]['gt_count']}" for s in SUBSETS)

    def sweep_matches(column, scores):
        worst = 0.0
        for subset in SUBSETS:
            want = sweep_log_avg_miss_rate(scores, evalset.pedestrian,
                                           evalset.visibility, subset, images,
                                           fppi_points)
            got = float(metrics[subset][column])
            expect(abs(got - want) <= 1e-12,
                   f"{subset} {column} {got!r}, sweep gives {want!r}")
            worst = max(worst, abs(got - want))
        return f"3 subsets, max |csv - sweep| = {worst:.1e}"

    def mr_baseline():
        return sweep_matches("mr_baseline", evalset.scores)

    def mr_completed():
        return sweep_matches("mr_completed", completed()["scores"])

    def mask_iou_recomputed():
        ious = []
        for truth, predicted in zip(evalset.masks, completed()["masks"]):
            if truth is not None:
                union = int((truth | predicted).sum())
                ious.append(1.0 if union == 0
                            else int((truth & predicted).sum()) / union)
        want = float(np.mean(ious))
        got = float(metrics["R"]["mean_mask_iou"])
        expect(abs(got - want) <= 1e-12, f"mean_mask_iou {got!r}, recomputed {want!r}")
        return f"{len(ious)} masks, mean IoU {want:.4f}"

    def compactness_recomputed():
        occluded = np.array([m is not None for m in evalset.masks])
        visible = evalset.pedestrian & ~occluded
        centroid = evalset.features[visible].mean(axis=0)
        done = np.stack(completed()["features"])

        def scatter(feats):
            return float(np.mean(((feats - centroid) ** 2).sum(axis=(1, 2, 3))))

        want = scatter(done[occluded]) / scatter(evalset.features[occluded])
        got = float(metrics["R"]["compactness_ratio"])
        expect(abs(got - want) <= 1e-9 * want,
               f"compactness_ratio {got!r}, recomputed {want!r}")
        return f"ratio {want:.4f}"

    def ho_gain_r_drift():
        gain = float(metrics["HO"]["delta_mr"])
        drift = float(metrics["R"]["mr_completed"]) - float(metrics["R"]["mr_baseline"])
        expect(gain >= 0.02 and drift <= 0.005,
               f"HO gain {gain:+.4f} (>= 0.02), R drift {drift:+.4f} (<= 0.005)")
        return f"HO gain {gain:+.4f}, R drift {drift:+.4f}"

    def bound(column, holds, rule):
        value = float(metrics["R"][column])
        expect(holds(value), f"{column} {value:.4f}, want {rule}")
        return f"{column} {value:.4f} ({rule})"

    return [
        ("manifest_counts", manifest_counts),
        ("dataset_contents", dataset_contents),
        ("bank_members", bank_members),
        ("bank_centres", bank_centres),
        ("history_rows", history_rows),
        ("gt_counts", gt_counts),
        ("mr_baseline_sweep", mr_baseline),
        ("mr_completed_sweep", mr_completed),
        ("mask_iou_recomputed", mask_iou_recomputed),
        ("compactness_recomputed", compactness_recomputed),
        ("ho_gain_r_drift", ho_gain_r_drift),
        ("compactness_ratio", lambda: bound(
            "compactness_ratio", lambda v: v < 0.5, "< 0.5")),
        ("probe_accuracy", lambda: bound(
            "probe_accuracy", lambda v: v <= 0.7, "<= 0.7")),
        ("mean_mask_iou", lambda: bound(
            "mean_mask_iou", lambda v: v >= 0.6, ">= 0.6")),
    ]
