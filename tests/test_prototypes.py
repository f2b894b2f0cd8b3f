"""Prototype bank construction, lookup, and serialization."""

import itertools
import struct
import tracemalloc

import numpy as np
import pytest

from occfill import prototypes, synth
from occfill.errors import FormatError, PreconditionError, ShapeMismatchError
from occfill.ndnum import Rng
from occfill.prototypes import ProtoConfig

WORLD = synth.gen_world(synth.WorldConfig(), 0)


def scalar_pool(values, scales=None):
    feats = np.array(values, dtype=np.float64).reshape(-1, 1, 1, 1)
    if scales is None:
        scales = np.full(len(values), 100.0)
    return prototypes.FeaturePool(feats, np.asarray(scales, dtype=np.float64))


def wcss(pool, bank):
    """Within-cluster sum of squares of the pool under the bank's centers."""
    flat = pool.features.reshape(pool.size, -1)
    centers = np.stack([p.center.reshape(-1) for p in bank.prototypes])
    labels = ((flat[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)
    return float(np.sum((flat - centers[labels]) ** 2))


def brute_force_objective(flat, k):
    """Global WCSS optimum by enumerating every labeling."""
    n = flat.shape[0]
    best = np.inf
    for labels in itertools.product(range(k), repeat=n):
        labels = np.array(labels)
        centers = np.zeros((k, flat.shape[1]))
        for j in range(k):
            members = labels == j
            if members.any():
                centers[j] = flat[members].mean(axis=0)
        obj = float(np.sum((flat - centers[labels]) ** 2))
        if obj < best:
            best = obj
    return best


# ---------------------------------------------------------------------------
# pool building


def _mini_dataset():
    rng = Rng(40).gen
    out = []
    for i in range(10):
        out.append(synth.gen_pedestrian(WORLD, 100.0 + i, rng, pid=i))
    for i in range(5):
        base = synth.gen_pedestrian(WORLD, 120.0, rng, pid=100 + i)
        mask = synth.sample_mask(WORLD, "rect", rng)
        out.append(synth.gen_occluded(WORLD, base, mask, "object", rng))
    for i in range(5):
        out.append(synth.gen_background(WORLD, rng, pid=200 + i))
    return out


def test_pool_keeps_only_fully_visible_pedestrians():
    pool = prototypes.build_pool(_mini_dataset())
    assert pool.size == 10
    assert pool.features.shape == (10, 16, 7, 7)


def test_pool_entries_bit_equal_to_source():
    data = _mini_dataset()
    pool = prototypes.build_pool(data)
    assert np.array_equal(pool.features[0], data[0].features)
    assert pool.scales[0] == data[0].scale


def test_pool_without_visible_samples_errors():
    data = [p for p in _mini_dataset() if p.visibility < 0.99]
    with pytest.raises(PreconditionError, match="no fully visible samples"):
        prototypes.build_pool(data)


# ---------------------------------------------------------------------------
# kmeans


def test_two_well_separated_pairs():
    bank = prototypes.kmeans(scalar_pool([0.0, 1.0, 10.0, 11.0]), ProtoConfig(k=2), seed=0)
    centers = sorted(float(p.center.reshape(())) for p in bank.prototypes)
    assert centers == [0.5, 10.5]
    pool = scalar_pool([0.0, 1.0, 10.0, 11.0])
    assert wcss(pool, bank) == 1.0


def test_k_equals_pool_size_gives_zero_objective():
    pool = scalar_pool([3.0, 7.0, 9.0])
    bank = prototypes.kmeans(pool, ProtoConfig(k=3), seed=1)
    centers = sorted(float(p.center.reshape(())) for p in bank.prototypes)
    assert centers == [3.0, 7.0, 9.0]
    assert wcss(pool, bank) == 0.0
    assert all(p.member_count == 1 for p in bank.prototypes)


def test_identical_points_collapse():
    pool = scalar_pool([4.0] * 6)
    bank = prototypes.kmeans(pool, ProtoConfig(k=3), seed=2)
    assert all(float(p.center.reshape(())) == 4.0 for p in bank.prototypes)
    assert sum(p.member_count for p in bank.prototypes) == 6
    assert all(p.member_count >= 1 for p in bank.prototypes)


def test_kmeans_preconditions():
    pool = scalar_pool([1.0, 2.0])
    with pytest.raises(PreconditionError):
        prototypes.kmeans(pool, ProtoConfig(k=3))
    with pytest.raises(PreconditionError):
        prototypes.kmeans(pool, ProtoConfig(k=0))
    with pytest.raises(PreconditionError):
        prototypes.kmeans(pool, ProtoConfig(k=1, restarts=0))


def test_kmeans_determinism():
    pool = prototypes.build_pool(_mini_dataset())
    a = prototypes.kmeans(pool, ProtoConfig(k=3), seed=9)
    b = prototypes.kmeans(pool, ProtoConfig(k=3), seed=9)
    for pa, pb in zip(a.prototypes, b.prototypes):
        assert np.array_equal(pa.center, pb.center)
        assert (pa.scale_mean, pa.scale_std, pa.member_count) == \
            (pb.scale_mean, pb.scale_std, pb.member_count)


def test_converged_assignment_is_a_lloyd_fixed_point():
    rng = Rng(55)
    feats = rng.gen.normal(size=(20, 2, 3, 3))
    pool = prototypes.FeaturePool(feats, rng.gen.uniform(50, 200, size=20))
    bank = prototypes.kmeans(pool, ProtoConfig(k=4), seed=3)
    flat = feats.reshape(20, -1)
    centers = np.stack([p.center.reshape(-1) for p in bank.prototypes])
    labels = ((flat[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)
    for j in range(4):
        members = labels == j
        assert members.any()
        assert np.allclose(flat[members].mean(axis=0), centers[j])


def test_a_repair_that_empties_a_cluster_repairs_it_too():
    # Cluster 2 is empty and cluster 0's only point is the farthest from its
    # center: filling cluster 2 with it empties cluster 0, which then takes
    # the next farthest point. No point moves twice.
    labels = np.array([0, 1, 1, 1])
    own = np.array([9.0, 1.0, 2.0, 3.0])
    prototypes._fill_empty(labels, own, 3)
    assert labels.tolist() == [2, 1, 1, 0]


def test_more_iterations_never_hurt():
    rng = Rng(66)
    feats = rng.gen.normal(size=(30, 1, 2, 2))
    pool = prototypes.FeaturePool(feats, rng.gen.uniform(50, 200, size=30))
    short = prototypes.kmeans(pool, ProtoConfig(k=3, restarts=1), seed=4, max_iters=1)
    long = prototypes.kmeans(pool, ProtoConfig(k=3, restarts=1), seed=4, max_iters=200)
    assert wcss(pool, long) <= wcss(pool, short) + 1e-12


def test_matches_brute_force_on_small_pools():
    rng = Rng(77)
    for trial in range(10):
        n = 4 + trial % 5
        k = 1 + trial % 3
        feats = rng.gen.normal(size=(n, 1, 1, 2))
        pool = prototypes.FeaturePool(feats, rng.gen.uniform(50, 200, size=n))
        bank = prototypes.kmeans(pool, ProtoConfig(k=k, restarts=20), seed=trial)
        got = wcss(pool, bank)
        want = brute_force_objective(feats.reshape(n, -1), k)
        assert got == want


def broadcast_assign(flat, centers):
    """The k-means assignment as first written: one n x k x d broadcast."""
    d2 = ((flat[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return d2.argmin(axis=1), d2


@pytest.mark.parametrize("n, k", [(1, 1), (64, 1), (130, 1), (130, 5),
                                  (800, 5)])
def test_assign_equals_the_broadcast_reference(n, k):
    # pools below, at and across the 64-row block, one center and several
    rng = Rng(81)
    flat = rng.gen.normal(size=(n, 16 * 7 * 7)) * 3.0 + 1.0
    centers = rng.gen.normal(size=(k, 16 * 7 * 7))
    labels, d2 = prototypes._assign(flat, centers)
    want_labels, want_d2 = broadcast_assign(flat, centers)
    assert d2.tobytes() == want_d2.tobytes()
    assert np.array_equal(labels, want_labels)


def test_bank_equals_the_one_the_broadcast_builds(monkeypatch):
    pool = prototypes.build_pool(_mini_dataset())
    got = prototypes.kmeans(pool, ProtoConfig(k=3), seed=9)
    monkeypatch.setattr(prototypes, "_assign", broadcast_assign)
    want = prototypes.kmeans(pool, ProtoConfig(k=3), seed=9)
    for a, b in zip(got.prototypes, want.prototypes):
        assert a.center.tobytes() == b.center.tobytes()
        assert (a.scale_mean, a.scale_std, a.member_count) == \
            (b.scale_mean, b.scale_std, b.member_count)


def test_kmeans_memory_stays_near_the_pool():
    # k-means reads the pool in place and keeps no n x k x d temporary; the
    # broadcast assignment and a float64 copy of the pool peaked near 6x.
    rng = Rng(82)
    feats = rng.gen.normal(size=(800, 16, 7, 7))
    pool = prototypes.FeaturePool(feats, rng.gen.uniform(50, 200, size=800))
    tracemalloc.start()
    try:
        prototypes.kmeans(pool, ProtoConfig(k=5, restarts=2), seed=0, max_iters=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.0 * feats.nbytes


@pytest.mark.parametrize("seed", range(20))
def test_objective_equals_the_two_temporary_sum(seed):
    # The sum picks the winning restart, so it must keep its bits.
    rng = Rng(83).split(f"pool-{seed}").gen
    n, d, k = (int(v) for v in rng.integers(1, [300, 800, 8]))
    flat = rng.normal(size=(n, d)) * rng.uniform(0.1, 100.0) + rng.normal()
    centers = rng.normal(size=(k, d))
    labels = rng.integers(0, k, size=n)
    want = float(np.sum((flat - centers[labels]) ** 2))
    assert prototypes._objective(flat, centers, labels) == want


def test_objective_holds_one_temporary():
    # Two n x d temporaries, `centers[labels]` and the difference, peaked
    # at 2.00x the pool.
    rng = Rng(84).gen
    flat = rng.normal(size=(800, 16 * 7 * 7))
    centers = rng.normal(size=(5, 16 * 7 * 7))
    labels = rng.integers(0, 5, size=800)
    tracemalloc.start()
    try:
        prototypes._objective(flat, centers, labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * flat.nbytes


# ---------------------------------------------------------------------------
# lookup


def _bank_with_means(means):
    protos = tuple(
        prototypes.Prototype(np.full((1, 1, 1), float(i)), m, 1.0, 1)
        for i, m in enumerate(means))
    return prototypes.PrototypeBank(protos).validate()


def test_lookup_picks_closest_scale():
    bank = _bank_with_means([64.0, 105.0, 181.0, 340.0])
    assert prototypes.nearest_prototype(bank, 100.0).scale_mean == 105.0


def test_lookup_exact_match():
    bank = _bank_with_means([64.0, 105.0, 181.0, 340.0])
    assert prototypes.nearest_prototype(bank, 181.0).scale_mean == 181.0


def test_lookup_tie_breaks_to_smaller_mean():
    bank = _bank_with_means([64.0, 105.0, 181.0, 340.0])
    assert prototypes.nearest_prototype(bank, 84.5).scale_mean == 64.0


def test_lookup_is_pure():
    bank = _bank_with_means([64.0, 105.0])
    a = prototypes.nearest_prototype(bank, 90.0)
    b = prototypes.nearest_prototype(bank, 90.0)
    assert a is b


def test_lookup_rejects_bad_scale():
    bank = _bank_with_means([64.0])
    with pytest.raises(PreconditionError):
        prototypes.nearest_prototype(bank, 0.0)


@pytest.mark.parametrize("scale", [np.nan, np.inf])
def test_lookup_rejects_non_finite_scale(scale):
    bank = _bank_with_means([64.0, 105.0])
    with pytest.raises(PreconditionError, match="finite"):
        prototypes.nearest_prototype(bank, scale)


def test_bank_validation():
    with pytest.raises(PreconditionError):
        prototypes.PrototypeBank(()).validate()
    bad_order = (
        prototypes.Prototype(np.zeros((1, 1, 1)), 105.0, 1.0, 1),
        prototypes.Prototype(np.zeros((1, 1, 1)), 64.0, 1.0, 1))
    with pytest.raises(PreconditionError):
        prototypes.PrototypeBank(bad_order).validate()
    no_members = (prototypes.Prototype(np.zeros((1, 1, 1)), 64.0, 1.0, 0),)
    with pytest.raises(PreconditionError):
        prototypes.PrototypeBank(no_members).validate()


# ---------------------------------------------------------------------------
# serialization


def _trained_bank():
    pool = prototypes.build_pool(_mini_dataset())
    return prototypes.kmeans(pool, ProtoConfig(k=3), seed=5)


def test_bank_roundtrip_bit_exact(tmp_path):
    bank = _trained_bank()
    path = tmp_path / "bank.bin"
    prototypes.write_bank(bank, path)
    back = prototypes.read_bank(path)
    assert back.k == bank.k
    for p, q in zip(bank.prototypes, back.prototypes):
        assert np.array_equal(p.center, q.center)
        assert (p.scale_mean, p.scale_std, p.member_count) == \
            (q.scale_mean, q.scale_std, q.member_count)


def test_bank_rewrite_identical_bytes(tmp_path):
    bank = _trained_bank()
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    prototypes.write_bank(bank, p1)
    prototypes.write_bank(prototypes.read_bank(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def _bank_bytes(tmp_path):
    path = tmp_path / "bank.bin"
    prototypes.write_bank(_trained_bank(), path)
    return bytearray(path.read_bytes())


def _expect_bank_error(tmp_path, data, offset, message):
    path = tmp_path / "broken.bin"
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError) as err:
        prototypes.read_bank(path)
    assert err.value.offset == offset
    assert str(err.value) == f"{message} (byte offset {offset})"


def test_bank_bad_magic(tmp_path):
    data = _bank_bytes(tmp_path)
    data[1] = 0
    _expect_bank_error(tmp_path, data, 0, "bad magic b'F\\x00PB'")


def test_bank_bad_version(tmp_path):
    data = _bank_bytes(tmp_path)
    data[4] = 42
    _expect_bank_error(tmp_path, data, 4, "unsupported version 42")


def test_bank_zero_clusters(tmp_path):
    data = _bank_bytes(tmp_path)
    data[8:12] = (0).to_bytes(4, "little")
    _expect_bank_error(tmp_path, data, 8, "bank must hold at least one prototype")


@pytest.mark.parametrize("dims,offset", [((0, 7, 7), 12), ((16, 0, 7), 16),
                                         ((16, 7, 0), 20)])
def test_bank_zero_dim_header(tmp_path, dims, offset):
    # one prototype whose zero-sized centre takes no bytes
    data = (prototypes.BANK_MAGIC + struct.pack("<IIIII", 1, 1, *dims)
            + struct.pack("<ddI", 64.0, 9.0, 3))
    name = "CXY"[(offset - 12) // 4]
    _expect_bank_error(tmp_path, data, offset, f"feature dim {name} is zero")


def test_bank_zero_member_count(tmp_path):
    data = _bank_bytes(tmp_path)
    data[24 + 16:24 + 20] = (0).to_bytes(4, "little")
    _expect_bank_error(tmp_path, data, 24 + 16, "prototype 0 has no members")


def test_bank_truncated_record(tmp_path):
    data = _bank_bytes(tmp_path)
    record = 20 + 16 * 7 * 7 * 8
    _expect_bank_error(tmp_path, data[:-5], 24 + 2 * record,
                       "truncated prototype 2")


def test_bank_trailing_bytes(tmp_path):
    data = _bank_bytes(tmp_path)
    n = len(data)
    data.extend(b"??")
    _expect_bank_error(tmp_path, data, n, "2 trailing bytes")


def test_bank_non_finite_center(tmp_path):
    data = _bank_bytes(tmp_path)
    at = 24 + 20
    data[at:at + 8] = np.array([np.inf]).tobytes()
    _expect_bank_error(tmp_path, data, at,
                       "non-finite value in center of prototype 0")


@pytest.mark.parametrize("field, value", [(0, np.nan), (0, np.inf), (8, np.nan),
                                          (8, -np.inf)])
def test_bank_non_finite_scale(tmp_path, field, value):
    # Field 0 is the scale mean and field 8 the scale std, of the last
    # prototype, where an infinite mean is still in scale order.
    data = _bank_bytes(tmp_path)
    at = 24 + 2 * (20 + 16 * 7 * 7 * 8) + field
    data[at:at + 8] = struct.pack("<d", value)
    what = ("mean", "positive") if field == 0 else ("std", "non-negative")
    _expect_bank_error(tmp_path, data, at, f"prototype 2 has scale {what[0]} "
                                           f"{value}, not {what[1]} and finite")


@pytest.mark.parametrize("field, value", [(0, 0.0), (0, -0.0), (0, -40.0),
                                          (8, -3.0), (8, -5e-324)])
def test_bank_impossible_scale(tmp_path, field, value):
    # A zero or negative scale mean of the first prototype, which keeps the
    # scale order, and a negative scale std.
    data = _bank_bytes(tmp_path)
    at = 24 + field
    data[at:at + 8] = struct.pack("<d", value)
    what = ("mean", "positive") if field == 0 else ("std", "non-negative")
    _expect_bank_error(tmp_path, data, at, f"prototype 0 has scale {what[0]} "
                                           f"{value}, not {what[1]} and finite")


def test_bank_zero_scale_std_is_read(tmp_path):
    # A cluster whose members share one scale has std 0.
    data = _bank_bytes(tmp_path)
    data[32:40] = struct.pack("<d", 0.0)
    path = tmp_path / "zero_std.bin"
    path.write_bytes(bytes(data))
    assert prototypes.read_bank(path).prototypes[0].scale_std == 0.0


def test_bank_out_of_order_means(tmp_path):
    data = _bank_bytes(tmp_path)
    record = 20 + 16 * 7 * 7 * 8
    first = bytes(data[24:24 + record])
    second = bytes(data[24 + record:24 + 2 * record])
    data[24:24 + record] = second
    data[24 + record:24 + 2 * record] = first
    _expect_bank_error(tmp_path, data, 24, "prototypes out of scale order")
