"""Fully visible pedestrian prototypes via K-means over pooled features.

The bank is built offline: collect every fully visible pedestrian, run
Lloyd's algorithm with K-means++ seeding and a few restarts on the
flattened feature vectors, and keep each cluster center together with the
scale statistics of its members. Lookup at completion time goes by
proposal scale, which is far cheaper than a feature-space search and is
what the scale statistics are stored for.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, PreconditionError, ShapeMismatchError
from .ndnum import Rng, check_finite
from .synth import PEDESTRIAN, BinaryReader

FULLY_VISIBLE = 0.99
# Pool rows per block of the k-means distance pass.
ASSIGN_BLOCK = 64


@dataclass(frozen=True)
class ProtoConfig:
    k: int = 5
    restarts: int = 5

    def validate(self):
        for name in ("k", "restarts"):
            if getattr(self, name) < 1:
                raise PreconditionError(f"proto.{name} must be >= 1")
        return self


@dataclass(frozen=True)
class Prototype:
    center: np.ndarray          # (C, X, Y) float64, read-only
    scale_mean: float
    scale_std: float
    member_count: int


@dataclass(frozen=True)
class PrototypeBank:
    prototypes: tuple

    @property
    def k(self):
        return len(self.prototypes)

    def validate(self, pool_size=None):
        if not self.prototypes:
            raise PreconditionError("bank must hold at least one prototype")
        counts = [p.member_count for p in self.prototypes]
        if any(c < 1 for c in counts):
            raise PreconditionError("every cluster must keep at least one member")
        if pool_size is not None and sum(counts) != pool_size:
            raise PreconditionError(
                f"member counts sum to {sum(counts)}, pool holds {pool_size}")
        means = [p.scale_mean for p in self.prototypes]
        if any(b < a for a, b in zip(means, means[1:])):
            raise PreconditionError("prototypes must be sorted by scale mean")
        shape = self.prototypes[0].center.shape
        for p in self.prototypes:
            if p.center.shape != shape:
                raise ShapeMismatchError("prototype center", p.center, shape)
        return self


@dataclass(frozen=True)
class FeaturePool:
    features: np.ndarray        # (N, C, X, Y)
    scales: np.ndarray          # (N,)

    @property
    def size(self):
        return self.features.shape[0]


def build_pool(proposals):
    """Collect the fully visible pedestrians of a dataset into a pool."""
    keep = [p for p in proposals
            if p.label == PEDESTRIAN and p.visibility >= FULLY_VISIBLE]
    if not keep:
        raise PreconditionError("no fully visible samples")
    shape = keep[0].features.shape
    for p in keep:
        if p.features.shape != shape:
            raise ShapeMismatchError("pool features", p.features, shape)
    features = np.stack([p.features for p in keep])
    scales = np.array([p.scale for p in keep], dtype=np.float64)
    features.setflags(write=False)
    scales.setflags(write=False)
    return FeaturePool(features, scales)


def _plus_plus_seed(flat, k, rng):
    """K-means++ seeding: spread initial centers by squared distance."""
    n = flat.shape[0]
    chosen = [int(rng.integers(0, n))]
    d2 = ((flat - flat[chosen[0]]) ** 2).sum(axis=1)
    while len(chosen) < k:
        total = d2.sum()
        if total <= 0.0:
            pick = int(rng.integers(0, n))
        else:
            pick = int(rng.choice(n, p=d2 / total))
        chosen.append(pick)
        d2 = np.minimum(d2, ((flat - flat[pick]) ** 2).sum(axis=1))
    return flat[chosen].copy()


def _assign(flat, centers):
    """Nearest center of every row and the (n, k) squared distances.

    Distances are taken ASSIGN_BLOCK rows and one center at a time in a
    reused buffer, so the largest temporary is ASSIGN_BLOCK x d instead of
    n x k x d. Each distance still sums the same d contiguous squares, so
    the result equals the broadcast `((flat[:, None] - centers) ** 2).sum(2)`
    bit for bit.
    """
    n = flat.shape[0]
    d2 = np.empty((n, centers.shape[0]))
    buf = np.empty((min(n, ASSIGN_BLOCK), flat.shape[1]))
    for start in range(0, n, ASSIGN_BLOCK):
        rows = flat[start:start + ASSIGN_BLOCK]
        diff = buf[:rows.shape[0]]
        for j, center in enumerate(centers):
            np.subtract(rows, center, out=diff)
            np.square(diff, out=diff)
            diff.sum(axis=1, out=d2[start:start + rows.shape[0], j])
    return d2.argmin(axis=1), d2


def _lloyd(flat, k, rng, max_iters):
    """One seeded Lloyd run; returns (labels, objective)."""
    centers = _plus_plus_seed(flat, k, rng)
    labels = np.full(flat.shape[0], -1)
    for _ in range(max_iters):
        new_labels, d2 = _assign(flat, centers)
        _fill_empty(new_labels, d2[np.arange(flat.shape[0]), new_labels], k)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(k):
            centers[j] = flat[labels == j].mean(axis=0)
    return labels, _objective(flat, labels, k)


def _fill_empty(labels, own, k):
    """Move into each empty cluster, in place, the point farthest from its
    center, where `own` holds each point's squared distance to it.

    A moved point is never moved again, so each move fills a cluster for
    good. Emptiness is checked again after each move, so a move that
    empties another cluster is repaired too: at most k moves.
    """
    while True:
        empty = np.flatnonzero(np.bincount(labels, minlength=k) == 0)
        if empty.size == 0:
            return
        worst = int(own.argmax())
        labels[worst] = empty[0]
        own[worst] = -np.inf


def _objective(flat, labels, k):
    centers = np.empty((k, flat.shape[1]))
    for j in range(k):
        centers[j] = flat[labels == j].mean(axis=0)
    return float(np.sum((flat - centers[labels]) ** 2))


def kmeans(pool, config=ProtoConfig(), seed=0, max_iters=100):
    """Cluster the pool into `config.k` clusters; the best of
    `config.restarts` seeded runs wins."""
    k = config.validate().k
    if pool.size < k:
        raise PreconditionError(
            f"pool holds {pool.size} entries, fewer than {k} clusters")
    if max_iters < 1:
        raise PreconditionError("max_iters must be >= 1")
    flat = pool.features.reshape(pool.size, -1).astype(np.float64, copy=False)
    check_finite(flat, "pool features")
    root = Rng(seed)
    best_labels, best_obj = None, np.inf
    for r in range(config.restarts):
        labels, obj = _lloyd(flat, k, root.split(f"restart-{r}"), max_iters)
        if obj < best_obj:
            best_labels, best_obj = labels, obj
    shape = pool.features.shape[1:]
    protos = []
    for j in range(k):
        members = best_labels == j
        center = pool.features[members].mean(axis=0).reshape(shape)
        center.setflags(write=False)
        scales = pool.scales[members]
        protos.append(Prototype(center, float(scales.mean()),
                                float(scales.std()), int(members.sum())))
    protos.sort(key=lambda p: p.scale_mean)
    return PrototypeBank(tuple(protos)).validate(pool_size=pool.size)


def nearest_prototype(bank, scale):
    """The prototype whose scale mean is closest; ties go to the smaller."""
    if not bank.prototypes:
        raise PreconditionError("bank is empty")
    if scale <= 0:
        raise PreconditionError(f"scale must be positive, got {scale}")
    best = 0
    for i, p in enumerate(bank.prototypes):
        if abs(scale - p.scale_mean) < abs(scale - bank.prototypes[best].scale_mean):
            best = i
    return bank.prototypes[best]


# ---------------------------------------------------------------------------
# Bank file: magic "FCPB" | version u32 | K u32 | C u32 | X u32 | Y u32
# then per prototype: scale_mean f64 | scale_std f64 | member_count u32 |
# C*X*Y center f64.
# ---------------------------------------------------------------------------

BANK_MAGIC = b"FCPB"
BANK_VERSION = 1


def write_bank(bank, path):
    bank.validate()
    c, x, y = bank.prototypes[0].center.shape
    with open(path, "wb") as fh:
        fh.write(BANK_MAGIC)
        fh.write(struct.pack("<IIIII", BANK_VERSION, bank.k, c, x, y))
        for p in bank.prototypes:
            fh.write(struct.pack("<ddI", p.scale_mean, p.scale_std,
                                 p.member_count))
            fh.write(p.center.astype("<f8").tobytes())


def read_bank(path):
    r = BinaryReader(path, BANK_MAGIC)
    version, k, c, x, y = r.unpack("<IIIII", "header")
    if version != BANK_VERSION:
        raise FormatError(4, f"unsupported version {version}")
    if k < 1:
        raise FormatError(8, "bank must hold at least one prototype")
    for offset, name, dim in ((12, "C", c), (16, "X", x), (20, "Y", y)):
        if dim == 0:
            raise FormatError(offset, f"feature dim {name} is zero")
    protos = []
    for i in range(k):
        at = r.pos
        r.need(20 + c * x * y * 8, f"prototype {i}")
        mean, std, count = r.unpack("<ddI", f"prototype {i}")
        if count < 1:
            raise FormatError(at + 16, f"prototype {i} has no members")
        center = r.floats((c, x, y), f"center of prototype {i}")
        protos.append(Prototype(center, mean, std, count))
    r.finish()
    if any(b.scale_mean < a.scale_mean for a, b in zip(protos, protos[1:])):
        raise FormatError(24, "prototypes out of scale order")
    return PrototypeBank(tuple(protos)).validate()
