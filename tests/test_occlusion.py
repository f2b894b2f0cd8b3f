import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from occfill.errors import PreconditionError, ShapeMismatchError
from occfill.ndnum import Rng
from occfill.completion import _paste_pool, copy_paste, mask_library
from occfill.occlusion import (
    CorrelationMap,
    OcclusionConfig,
    analyze,
    channel_correlation,
    completion_mask,
    correlation_map,
    is_occluded,
    occluded_cells,
)
from occfill.prototypes import (FeaturePool, ProtoConfig, build_pool, kmeans,
                                nearest_prototype)
from occfill.synth import (
    MASK_PATTERNS,
    SCALE_MEANS,
    SCALE_NORM,
    OcclusionMask,
    WorldConfig,
    gen_background,
    gen_occluded,
    gen_pedestrian,
    gen_world,
    sample_mask,
    sample_scale,
)


def cell(value):
    return np.full((1, 1, 1), float(value))


def grid_map(rows):
    return CorrelationMap(np.array(rows, dtype=np.float64))


def mask_with(count, total=49):
    grid = np.zeros(total, dtype=bool)
    grid[:count] = True
    return OcclusionMask(grid.reshape(1, total))


def xor_toy_check(seed=0, trials=20):
    """Sanity-check the correlation rule on a noise-free world.

    With identity noise switched off, a pedestrian's cells carry the pure
    part signature scaled by its normalized height, so correlating an
    occluded copy against the original yields exactly that height squared
    wherever the cell survived and strictly less wherever the occluder
    overwrote it. The check verifies the detected visible set equals the
    mask complement for the empty mask, the full mask, and ``trials``
    random masks.
    """
    world = gen_world(WorldConfig(sigma_id=0.0), seed)
    rng = Rng(seed).split("xor-toy")
    gx, gy = world.config.grid_x, world.config.grid_y
    scale = SCALE_MEANS[1]
    base = gen_pedestrian(world, scale, rng.split("base").gen)
    target = (scale / SCALE_NORM) ** 2

    def visible_cells(mask, tag):
        sample = gen_occluded(world, base, mask, "object", rng.split(tag).gen)
        cmap = correlation_map(base.features, sample.features)
        return np.abs(cmap.grid - target) <= 1e-9 * target

    empty = OcclusionMask(np.zeros((gx, gy), dtype=bool))
    if not visible_cells(empty, "empty").all():
        return False
    full = OcclusionMask(np.ones((gx, gy), dtype=bool))
    if visible_cells(full, "full").any():
        return False
    for t in range(trials):
        r = rng.split(f"mask-{t}")
        count = int(r.gen.integers(1, gx * gy))
        cells = r.gen.choice(gx * gy, size=count, replace=False)
        grid = np.zeros(gx * gy, dtype=bool)
        grid[cells] = True
        mask = OcclusionMask(grid.reshape(gx, gy))
        if not np.array_equal(visible_cells(mask, f"fill-{t}"), ~mask.grid):
            return False
    return True


class TestChannelCorrelation:
    def test_zero_input_gives_zero(self):
        out = channel_correlation(cell(0.0), cell(5.0), 0)
        assert out.grid[0, 0] == 0.0

    def test_identical_ones_give_one(self):
        a = np.ones((3, 2, 2))
        out = channel_correlation(a, a, 1)
        assert np.array_equal(out.grid, np.ones((2, 2)))

    def test_three_against_one(self):
        out = channel_correlation(cell(3.0), cell(1.0), 0)
        assert abs(out.grid[0, 0] - 1.0) <= 1e-12

    def test_matching_twos_exceed_one(self):
        out = channel_correlation(cell(2.0), cell(2.0), 0)
        assert abs(out.grid[0, 0] - 4.0) <= 1e-12

    def test_channel_out_of_range(self):
        with pytest.raises(PreconditionError):
            channel_correlation(cell(1.0), cell(1.0), 1)
        with pytest.raises(PreconditionError):
            channel_correlation(cell(1.0), cell(1.0), -1)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            channel_correlation(np.ones((2, 2, 2)), np.ones((2, 3, 2)), 0)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=8, max_size=8),
           st.lists(st.floats(-1e6, 1e6), min_size=8, max_size=8))
    @settings(max_examples=40)
    def test_symmetric_in_arguments(self, xs, ys):
        a = np.array(xs).reshape(2, 2, 2)
        b = np.array(ys).reshape(2, 2, 2)
        ab = channel_correlation(a, b, 1).grid
        ba = channel_correlation(b, a, 1).grid
        assert np.array_equal(ab, ba)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=8, max_size=8))
    @settings(max_examples=40)
    def test_self_correlation_is_square(self, xs):
        a = np.array(xs).reshape(2, 2, 2)
        out = channel_correlation(a, a, 0).grid
        assert np.array_equal(out, a[0] ** 2)

    @given(st.lists(st.floats(0, 1e6), min_size=8, max_size=8),
           st.lists(st.floats(0, 1e6), min_size=8, max_size=8))
    @settings(max_examples=40)
    def test_nonnegative_inputs_nonnegative_output(self, xs, ys):
        a = np.array(xs).reshape(2, 2, 2)
        b = np.array(ys).reshape(2, 2, 2)
        assert (channel_correlation(a, b, 0).grid >= 0).all()


class TestCorrelationMap:
    def test_single_channel_matches_channel_correlation(self):
        rng = Rng(3)
        a = rng.gen.normal(size=(1, 4, 4))
        b = rng.gen.normal(size=(1, 4, 4))
        assert np.array_equal(correlation_map(a, b).grid,
                              channel_correlation(a, b, 0).grid)

    def test_all_ones(self):
        a = np.ones((5, 3, 3))
        assert np.array_equal(correlation_map(a, a).grid, np.ones((3, 3)))

    def test_mean_of_two_channel_values(self):
        # per-channel correlations 1.0 and 3.0 average to 2.0
        a = np.stack([cell(3.0)[0], cell(np.sqrt(3.0))[0]])
        b = np.stack([cell(1.0)[0], cell(np.sqrt(3.0))[0]])
        out = correlation_map(a, b)
        assert abs(out.grid[0, 0] - 2.0) <= 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            correlation_map(np.ones((2, 2, 2)), np.ones((1, 2, 2)))

    def test_non_finite_grid_rejected(self):
        with pytest.raises(PreconditionError):
            CorrelationMap(np.array([[np.nan, 1.0], [0.0, 2.0]]))

    def test_one_dimensional_grid_rejected(self):
        with pytest.raises(PreconditionError):
            CorrelationMap(np.ones(4))


class TestOccludedCells:
    def test_uniform_map_empty(self):
        assert occluded_cells(grid_map([[1.0, 1.0], [1.0, 1.0]])).count == 0

    def test_single_low_cell(self):
        mask = occluded_cells(grid_map([[2.0, 2.0], [2.0, 0.0]]))
        assert mask.grid.tolist() == [[False, False], [False, True]]

    def test_two_low_cells(self):
        mask = occluded_cells(grid_map([[4.0, 3.0], [2.0, 1.0]]))
        assert mask.grid.tolist() == [[False, False], [True, True]]

    @given(st.lists(st.floats(-1e6, 1e6), min_size=9, max_size=9))
    @settings(max_examples=50)
    def test_never_flags_everything(self, xs):
        mask = occluded_cells(grid_map(np.array(xs).reshape(3, 3)))
        if len(set(xs)) == 1:
            assert mask.count == 0
        else:
            assert 0 < mask.count < 9


class TestIsOccluded:
    def test_empty_mask_false(self):
        assert not is_occluded(mask_with(0))

    def test_twenty_of_49_true(self):
        assert is_occluded(mask_with(20), OcclusionConfig(alpha=0.30))

    def test_three_of_49_false(self):
        assert not is_occluded(mask_with(3), OcclusionConfig(alpha=0.30))

    def test_threshold_is_strict(self):
        mask = mask_with(3, total=10)
        assert not is_occluded(mask, OcclusionConfig(alpha=0.30))
        assert is_occluded(mask, OcclusionConfig(alpha=0.29))

    def test_config_validation(self):
        for alpha in (0.0, 1.0, -0.2):
            with pytest.raises(PreconditionError):
                is_occluded(mask_with(1), OcclusionConfig(alpha=alpha))


class TestCompletionMask:
    def test_dynamic_mean_on_uniform_map(self):
        assert completion_mask(grid_map([[1.0, 1.0], [1.0, 1.0]])).count == 0

    def test_dynamic_matches_occluded_cells(self):
        m = grid_map([[4.0, 3.0], [2.0, 1.0]])
        assert np.array_equal(completion_mask(m).grid, occluded_cells(m).grid)


class TestSyntheticRecovery:
    def test_xor_toy_check_passes(self):
        assert xor_toy_check()

    def test_zero_noise_object_masks_recovered_exactly(self):
        world = gen_world(WorldConfig(sigma_id=0.0), 5)
        rng = Rng(55)
        pool = build_pool([
            gen_pedestrian(world, sample_scale(rng.split(f"s{i}").gen),
                           rng.split(f"p{i}").gen, pid=i)
            for i in range(60)
        ])
        bank = kmeans(pool, ProtoConfig(k=3), seed=1)
        for i in range(30):
            r = rng.split(f"occ{i}").gen
            base = gen_pedestrian(world, sample_scale(r), r, pid=100 + i)
            pattern = MASK_PATTERNS[i % len(MASK_PATTERNS)]
            mask = sample_mask(world, pattern, r)
            sample = gen_occluded(world, base, mask, "object", r)
            proto = nearest_prototype(bank, sample.scale)
            cmap = correlation_map(sample.features, proto.center)
            got = completion_mask(cmap)
            assert np.array_equal(got.grid, mask.grid)

    def test_pedestrian_maps_beat_background_maps(self):
        world = gen_world(WorldConfig(), 11)
        rng = Rng(77)
        pool = build_pool([
            gen_pedestrian(world, sample_scale(rng.split(f"s{i}").gen),
                           rng.split(f"p{i}").gen, pid=i)
            for i in range(300)
        ])
        bank = kmeans(pool, ProtoConfig(k=4), seed=2)
        wins = 0
        trials = 1000
        for i in range(trials):
            r = rng.split(f"t{i}").gen
            ped = gen_pedestrian(world, sample_scale(r), r, pid=1000 + i)
            bg = gen_background(world, r, pid=5000 + i)
            proto = nearest_prototype(bank, ped.scale)
            ped_mean = correlation_map(ped.features, proto.center).mean
            bg_mean = correlation_map(bg.features, proto.center).mean
            wins += ped_mean > bg_mean
        assert wins >= 0.99 * trials


def reference_chain(features, scale, bank, config):
    """The four-call chain each caller used to spell out, kept as the oracle:
    (prototype, correlation map, below-mean mask, verdict)."""
    proto = nearest_prototype(bank, float(scale))
    cmap = correlation_map(features, proto.center)
    mask = occluded_cells(cmap)
    return proto, cmap, mask, is_occluded(mask, config)


@pytest.fixture(scope="module")
def analysis_set():
    """A seeded bank plus visible, occluded and background proposals."""
    world = gen_world(WorldConfig(), 21)
    rng = Rng(210)
    visible = [gen_pedestrian(world, sample_scale(rng.split(f"s{i}").gen),
                              rng.split(f"v{i}").gen, pid=i) for i in range(80)]
    bank = kmeans(build_pool(visible), ProtoConfig(k=3), seed=4)
    occluded = []
    for i in range(40):
        r = rng.split(f"o{i}").gen
        base = gen_pedestrian(world, sample_scale(r), r, pid=100 + i)
        mask = sample_mask(world, MASK_PATTERNS[i % len(MASK_PATTERNS)], r)
        kind = "object" if i % 2 else "pedestrian"
        occluded.append(gen_occluded(world, base, mask, kind, r))
    background = [gen_background(world, rng.split(f"b{i}").gen, pid=200 + i)
                  for i in range(30)]
    proposals = visible[:20] + occluded + background
    pool = FeaturePool(np.stack([p.features for p in occluded]),
                       np.array([p.scale for p in occluded]))
    return bank, proposals, pool


class TestAnalyze:
    def test_matches_the_reference_chain(self, analysis_set):
        bank, proposals, _ = analysis_set
        config = OcclusionConfig()
        verdicts = []
        for p in proposals:
            proto, cmap, mask, occluded = reference_chain(
                p.features, p.scale, bank, config)
            found = analyze(p.features, p.scale, bank, config)
            assert found.prototype is proto
            assert np.array_equal(found.cmap.grid, cmap.grid)
            assert np.array_equal(found.mask.grid, mask.grid)
            assert found.occluded is occluded
            verdicts.append(occluded)
        assert 0 < sum(verdicts) < len(verdicts)

    def test_mask_library_and_paste_match_the_chain(self, analysis_set):
        bank, _, pool = analysis_set
        config = OcclusionConfig()
        masks, pasted = [], []
        for feats, scale in zip(pool.features, pool.scales):
            proto, _, mask, _ = reference_chain(feats, scale, bank, config)
            if mask.count > 0:
                masks.append(mask.grid)
            pasted.append(copy_paste(feats, proto.center, mask))
        library = mask_library(pool, bank)
        assert len(library) == len(masks)
        assert all(np.array_equal(got.grid, want)
                   for got, want in zip(library, masks))
        assert np.array_equal(_paste_pool(pool, bank), np.stack(pasted))
