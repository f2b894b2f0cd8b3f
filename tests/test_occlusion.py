import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from occfill.errors import PreconditionError, ShapeMismatchError
from occfill.ndnum import Rng
from occfill.occlusion import (
    CorrelationMap,
    OcclusionConfig,
    channel_correlation,
    completion_mask,
    correlation_map,
    is_occluded,
    occluded_cells,
    xor_toy_check,
)
from occfill.prototypes import build_pool, kmeans, nearest_prototype
from occfill.synth import (
    MASK_PATTERNS,
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
        a = rng.normal((1, 4, 4))
        b = rng.normal((1, 4, 4))
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

    def test_max_aggregation(self):
        a = np.stack([cell(1.0)[0], cell(2.0)[0]])
        out = correlation_map(a, a, aggregate="max")
        assert abs(out.grid[0, 0] - 4.0) <= 1e-12

    def test_unknown_aggregate(self):
        with pytest.raises(PreconditionError):
            correlation_map(cell(1.0), cell(1.0), aggregate="median")

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
        with pytest.raises(PreconditionError):
            OcclusionConfig(beta_mode="adaptive").validate()
        with pytest.raises(PreconditionError):
            OcclusionConfig(beta=float("nan")).validate()


class TestCompletionMask:
    def test_dynamic_mean_on_uniform_map(self):
        assert completion_mask(grid_map([[1.0, 1.0], [1.0, 1.0]])).count == 0

    def test_dynamic_matches_occluded_cells(self):
        m = grid_map([[4.0, 3.0], [2.0, 1.0]])
        assert np.array_equal(completion_mask(m).grid, occluded_cells(m).grid)

    def test_unreachable_fixed_beta(self):
        m = grid_map([[4.0, 3.0], [2.0, 1.0]])
        out = completion_mask(m, OcclusionConfig(beta_mode="fixed", beta=-1.0))
        assert out.count == 0

    def test_fixed_beta_hand_value(self):
        m = grid_map([[4.0, 3.0], [2.0, 1.0]])
        out = completion_mask(m, OcclusionConfig(beta_mode="fixed", beta=2.5))
        assert out.grid.tolist() == [[False, False], [True, True]]


class TestSyntheticRecovery:
    def test_xor_toy_check_passes(self):
        assert xor_toy_check()

    def test_zero_noise_object_masks_recovered_exactly(self):
        world = gen_world(WorldConfig(sigma_id=0.0, seed=5))
        rng = Rng(55)
        pool = build_pool([
            gen_pedestrian(world, sample_scale(world, rng.split(f"s{i}")),
                           rng.split(f"p{i}"), pid=i)
            for i in range(60)
        ])
        bank = kmeans(pool, k=3, seed=1)
        for i in range(30):
            r = rng.split(f"occ{i}")
            base = gen_pedestrian(world, sample_scale(world, r), r, pid=100 + i)
            pattern = MASK_PATTERNS[i % len(MASK_PATTERNS)]
            mask = sample_mask(world, pattern, r)
            sample = gen_occluded(world, base, mask, "object", r)
            proto = nearest_prototype(bank, sample.scale)
            cmap = correlation_map(sample.features, proto.center)
            got = completion_mask(cmap)
            assert np.array_equal(got.grid, mask.grid)

    def test_pedestrian_maps_beat_background_maps(self):
        world = gen_world(WorldConfig(seed=11))
        rng = Rng(77)
        pool = build_pool([
            gen_pedestrian(world, sample_scale(world, rng.split(f"s{i}")),
                           rng.split(f"p{i}"), pid=i)
            for i in range(300)
        ])
        bank = kmeans(pool, k=4, seed=2)
        wins = 0
        trials = 1000
        for i in range(trials):
            r = rng.split(f"t{i}")
            ped = gen_pedestrian(world, sample_scale(world, r), r, pid=1000 + i)
            bg = gen_background(world, r, pid=5000 + i)
            proto = nearest_prototype(bank, ped.scale)
            ped_mean = correlation_map(ped.features, proto.center).mean
            bg_mean = correlation_map(bg.features, proto.center).mean
            wins += ped_mean > bg_mean
        assert wins >= 0.99 * trials
