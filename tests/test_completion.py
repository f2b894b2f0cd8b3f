import logging
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import occfill.completion as completion
from occfill.cli import RunConfig
from occfill.completion import (
    Discriminator,
    FeaturePools,
    Generator,
    MIN_MASK_LIBRARY,
    MODEL_MAGIC,
    ScoringHead,
    TrainConfig,
    _paste_pool,
    adversarial_losses,
    copy_paste,
    mask_library,
    progressive_train,
    read_model,
    rescore,
    train_adversarial,
    train_scoring_head,
    write_model,
)
from occfill.errors import FormatError, PreconditionError, ShapeMismatchError
from occfill.ndnum import DenseLayer, Rng, sgd_step, sigmoid
from occfill.prototypes import FeaturePool, ProtoConfig, build_pool, kmeans
from occfill.synth import (
    MASK_PATTERNS,
    OcclusionMask,
    WorldConfig,
    gen_occluded,
    gen_pedestrian,
    gen_world,
    sample_mask,
)

# The pipeline's default head fit: 500 steps of size 0.5.
HEAD_FIT = TrainConfig(500, 0.5)


def fit_head(positives, negatives, rng, config):
    """`train_scoring_head` on one fresh batch, positives first."""
    return train_scoring_head(np.concatenate([positives, negatives]),
                              len(positives), rng, config)


def random_generator(channels, rng):
    """A generator whose second layer is non-zero, for exercising gradients."""
    gen = Generator.init(channels, rng.split("gen"))
    gen.out.weights = rng.split("w").gen.normal(size=(channels, channels)) * 0.5
    gen.out.bias = rng.split("b").gen.normal(size=(channels,)) * 0.1
    return gen


def random_discriminator(in_dim, width, rng):
    disc = Discriminator.init(in_dim, rng.split("disc"), width=width)
    disc.readout.weights = rng.split("w").gen.normal(size=(1, width)) * 0.5
    disc.readout.bias = rng.split("b").gen.normal(size=(1,)) * 0.1
    return disc


def stable_sigmoid(z):
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class TestGenerator:
    def test_zero_init_is_exact_identity(self):
        gen = Generator.init(4, Rng(0))
        x = Rng(1).gen.normal(size=(4, 5, 3))[None]
        assert np.array_equal(gen.forward(x), x)

    def test_zero_init_identity_on_batches(self):
        gen = Generator.init(3, Rng(0))
        x = Rng(2).gen.normal(size=(6, 3, 4, 4))
        assert np.array_equal(gen.forward(x), x)

    def test_forward_matches_per_cell_arithmetic(self):
        rng = Rng(3)
        gen = random_generator(3, rng)
        x = rng.split("x").gen.normal(size=(3, 4, 2))
        got = gen.forward(x[None])[0]
        w1, b1 = gen.mix.weights, gen.mix.bias
        w2, b2 = gen.out.weights, gen.out.bias
        for i in range(4):
            for j in range(2):
                v = x[:, i, j]
                want = v + w2 @ np.maximum(w1 @ v + b1, 0.0) + b2
                assert np.max(np.abs(got[:, i, j] - want)) <= 1e-12

    def test_batch_matches_sample_loop(self):
        rng = Rng(4)
        gen = random_generator(2, rng)
        batch = rng.split("x").gen.normal(size=(5, 2, 3, 3))
        got = gen.forward(batch)
        for i in range(5):
            assert np.max(np.abs(got[i] - gen.forward(batch[i][None])[0])) <= 1e-12

    def test_rejects_flat_input(self):
        gen = Generator.init(2, Rng(0))
        with pytest.raises(PreconditionError):
            gen.forward(np.zeros((2, 9)))

    def test_rejects_channel_mismatch(self):
        gen = Generator.init(2, Rng(0))
        with pytest.raises(ShapeMismatchError):
            gen.forward(np.zeros((1, 3, 2, 2)))

    def test_rejects_nonsquare_layers(self):
        rng = Rng(0)
        wide = DenseLayer.init(2, 3, rng.split("a"), "relu")
        out = DenseLayer.init(3, 3, rng.split("b"), "identity")
        with pytest.raises(PreconditionError):
            Generator(wide, out)

    def test_rejects_wrong_activations(self):
        rng = Rng(0)
        mix = DenseLayer.init(2, 2, rng.split("a"), "relu")
        out = DenseLayer.init(2, 2, rng.split("b"), "sigmoid")
        with pytest.raises(PreconditionError):
            Generator(mix, out)

    def test_backward_requires_forward(self):
        gen = Generator.init(2, Rng(0))
        with pytest.raises(PreconditionError, match="before forward"):
            gen.backward(np.zeros((1, 2, 2, 2)))

    def test_a_step_on_params_moves_the_layers_in_place(self):
        # params() hands out the layers' own arrays, so an in-place
        # `sgd_step` on them is the generator's update.
        rng = Rng(5)
        gen = random_generator(3, rng)
        x = rng.split("x").gen.normal(size=(3, 3, 3))[None]
        grads = [rng.split(f"g{i}").gen.normal(size=p.shape) for i, p in enumerate(gen.params())]
        want = [p - g * 0.1 for p, g in zip(gen.params(), grads)]
        sgd_step(gen.params(), grads, 0.1, "descend")
        assert all(np.array_equal(p, w) for p, w in zip(gen.params(), want))
        mix, out = DenseLayer(*want[:2], "relu"), DenseLayer(*want[2:], "identity")
        assert np.array_equal(gen.forward(x), Generator(mix, out).forward(x))

    def test_rejects_single_map(self):
        # One map is a batch of one, (1, c, x, y); a bare (c, x, y) is refused.
        gen = Generator.init(2, Rng(0))
        with pytest.raises(PreconditionError):
            gen.forward(np.zeros((2, 3, 3)))


class TestDiscriminator:
    def test_fresh_readout_outputs_exactly_half(self):
        disc = Discriminator.init(12, Rng(0), width=6)
        flat = Rng(1).gen.normal(size=(12, 7))
        assert np.array_equal(disc.forward(flat), np.full((1, 7), 0.5))

    def test_forward_matches_straight_line(self):
        rng = Rng(6)
        disc = random_discriminator(8, 5, rng)
        flat = rng.split("x").gen.normal(size=(8, 4))
        got = disc.forward(flat)
        h = np.maximum(disc.hidden.weights @ flat + disc.hidden.bias[:, None], 0.0)
        want = stable_sigmoid(disc.readout.weights @ h + disc.readout.bias[:, None])
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_outputs_stay_in_unit_interval(self):
        rng = Rng(7)
        disc = random_discriminator(6, 4, rng)
        flat = rng.split("x").gen.normal(size=(6, 50)) * 10.0
        p = disc.forward(flat)
        assert np.all(p > 0.0) and np.all(p < 1.0)

    def test_rejects_mismatched_chain(self):
        rng = Rng(0)
        hidden = DenseLayer.init(6, 4, rng.split("a"), "relu")
        readout = DenseLayer.init(5, 1, rng.split("b"), "sigmoid")
        with pytest.raises(ShapeMismatchError):
            Discriminator(hidden, readout)

    def test_rejects_wide_readout(self):
        rng = Rng(0)
        hidden = DenseLayer.init(6, 4, rng.split("a"), "relu")
        readout = DenseLayer.init(4, 2, rng.split("b"), "sigmoid")
        with pytest.raises(ShapeMismatchError):
            Discriminator(hidden, readout)


class TestCopyPaste:
    def test_empty_mask_returns_input_exactly(self):
        rng = Rng(8)
        occ = rng.split("a").gen.normal(size=(2, 3, 3))
        proto = rng.split("b").gen.normal(size=(2, 3, 3))
        mask = OcclusionMask(np.zeros((3, 3), dtype=bool))
        assert np.array_equal(copy_paste(occ, proto, mask), occ)

    def test_full_mask_returns_prototype(self):
        rng = Rng(9)
        occ = rng.split("a").gen.normal(size=(2, 3, 3))
        proto = rng.split("b").gen.normal(size=(2, 3, 3))
        mask = OcclusionMask(np.ones((3, 3), dtype=bool))
        assert np.array_equal(copy_paste(occ, proto, mask), proto)

    def test_mixed_mask_matches_cell_loop(self):
        rng = Rng(10)
        occ = rng.split("a").gen.normal(size=(3, 4, 5))
        proto = rng.split("b").gen.normal(size=(3, 4, 5))
        grid = rng.split("m").gen.random(size=(4, 5)) < 0.5
        got = copy_paste(occ, proto, OcclusionMask(grid))
        for i in range(4):
            for j in range(5):
                want = proto[:, i, j] if grid[i, j] else occ[:, i, j]
                assert np.array_equal(got[:, i, j], want)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_idempotent(self, seed):
        rng = Rng(seed)
        occ = rng.split("a").gen.normal(size=(2, 4, 4))
        proto = rng.split("b").gen.normal(size=(2, 4, 4))
        grid = rng.split("m").gen.random(size=(4, 4)) < 0.4
        mask = OcclusionMask(grid)
        once = copy_paste(occ, proto, mask)
        assert np.array_equal(copy_paste(once, proto, mask), once)

    def test_rejects_prototype_shape_mismatch(self):
        mask = OcclusionMask(np.zeros((3, 3), dtype=bool))
        with pytest.raises(ShapeMismatchError):
            copy_paste(np.zeros((2, 3, 3)), np.zeros((2, 3, 4)), mask)

    def test_rejects_mask_shape_mismatch(self):
        mask = OcclusionMask(np.zeros((2, 2), dtype=bool))
        with pytest.raises(ShapeMismatchError):
            copy_paste(np.zeros((2, 3, 3)), np.zeros((2, 3, 3)), mask)


class TestAdversarialLosses:
    def test_balanced_probabilities(self):
        disc_obj, gen_obj = adversarial_losses(0.5, 0.5)
        assert disc_obj == pytest.approx(2.0 * math.log(0.5), abs=1e-15)
        assert gen_obj == pytest.approx(math.log(0.5), abs=1e-15)

    def test_perfect_discriminator_clamped(self):
        disc_obj, _ = adversarial_losses(1.0, 0.0)
        assert disc_obj == pytest.approx(-2.0000000989472948e-07, abs=1e-13)

    def test_fooled_discriminator_clamped(self):
        _, gen_obj = adversarial_losses(0.5, 1.0)
        assert gen_obj == pytest.approx(-16.118095651484676, abs=1e-9)

    def test_array_inputs_average(self):
        disc_obj, gen_obj = adversarial_losses(
            np.array([0.5, 0.5]), np.array([0.2, 0.8]))
        want_gen = 0.5 * (math.log(0.8) + math.log(0.2))
        assert gen_obj == pytest.approx(want_gen, abs=1e-12)
        assert disc_obj == pytest.approx(math.log(0.5) + want_gen, abs=1e-12)


class TestFeaturePools:
    def test_validates_clean_pools(self):
        pools = FeaturePools(np.zeros((3, 2, 2, 2)), np.zeros((4, 2, 2, 2)))
        assert pools.validate() is pools

    def test_rejects_empty_side(self):
        with pytest.raises(PreconditionError):
            FeaturePools(np.zeros((0, 2, 2, 2)), np.zeros((4, 2, 2, 2))).validate()

    def test_rejects_wrong_rank(self):
        with pytest.raises(PreconditionError):
            FeaturePools(np.zeros((3, 2, 2)), np.zeros((4, 2, 2, 2))).validate()

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            FeaturePools(np.zeros((3, 2, 2, 2)), np.zeros((4, 2, 3, 2))).validate()

    def test_rejects_non_finite(self):
        occ = np.zeros((3, 2, 2, 2))
        occ[1, 0, 1, 1] = np.nan
        with pytest.raises(PreconditionError):
            FeaturePools(occ, np.zeros((4, 2, 2, 2))).validate()


def build_gradcheck_config(seed):
    """A random small setup, or None when gradients would be untrustworthy.

    Finite differences need every relu pre-activation away from its kink
    and every probability away from the clamp bounds, for all three passes
    the training step runs.
    """
    rng = Rng(seed)
    c = int(rng.split("c").gen.integers(1, 4))
    gx = int(rng.split("gx").gen.integers(1, 4))
    gy = int(rng.split("gy").gen.integers(1, 4))
    width = int(rng.split("w").gen.integers(3, 9))
    m = int(rng.split("m").gen.integers(2, 4))
    gen = random_generator(c, rng.split("gen"))
    disc = random_discriminator(c * gx * gy, width, rng.split("disc"))
    pools = FeaturePools(rng.split("occ").gen.normal(size=(m, c, gx, gy)),
                         rng.split("vis").gen.normal(size=(m, c, gx, gy)))

    def margins_ok(batch):
        cols = np.moveaxis(batch, 1, 0).reshape(c, -1)
        z_mix = gen.mix.weights @ cols + gen.mix.bias[:, None]
        fake = gen.forward(batch)
        for side in (batch, fake):
            flat = side.reshape(m, -1).T
            z_hid = disc.hidden.weights @ flat + disc.hidden.bias[:, None]
            p = disc.forward(flat)
            if np.min(np.abs(z_hid)) < 1e-3:
                return False
            if np.min(p) < 1e-5 or np.max(p) > 1.0 - 1e-5:
                return False
        return np.min(np.abs(z_mix)) >= 1e-3

    if not (margins_ok(pools.occluded) and margins_ok(pools.visible)):
        return None
    return gen, disc, pools, m


def disc_objective_oracle(disc_params, gen, pools):
    """Straight-line recomputation of the discriminator objective."""
    wh, bh, wr, br = disc_params
    c = pools.occluded.shape[1]
    cols = np.moveaxis(pools.occluded, 1, 0).reshape(c, -1)
    res = gen.out.weights @ np.maximum(
        gen.mix.weights @ cols + gen.mix.bias[:, None], 0.0)
    res += gen.out.bias[:, None]
    fake_cols = cols + res
    n = pools.occluded.shape[0]
    fake = np.moveaxis(fake_cols.reshape((c, n) + pools.occluded.shape[2:]), 0, 1)

    def prob(batch):
        flat = batch.reshape(batch.shape[0], -1).T
        h = np.maximum(wh @ flat + bh[:, None], 0.0)
        return np.clip(stable_sigmoid(wr @ h + br[:, None])[0], 1e-7, 1.0 - 1e-7)

    return float(np.mean(np.log(prob(pools.visible)) + np.log(1.0 - prob(fake))))


def gen_objective_oracle(gen_params, disc, pools):
    """Straight-line recomputation of the generator objective."""
    w1, b1, w2, b2 = gen_params
    c = pools.occluded.shape[1]
    cols = np.moveaxis(pools.occluded, 1, 0).reshape(c, -1)
    fake_cols = cols + w2 @ np.maximum(w1 @ cols + b1[:, None], 0.0) + b2[:, None]
    n = pools.occluded.shape[0]
    fake = np.moveaxis(fake_cols.reshape((c, n) + pools.occluded.shape[2:]), 0, 1)
    flat = fake.reshape(n, -1).T
    h = np.maximum(disc.hidden.weights @ flat + disc.hidden.bias[:, None], 0.0)
    z = disc.readout.weights @ h + disc.readout.bias[:, None]
    p = np.clip(stable_sigmoid(z)[0], 1e-7, 1.0 - 1e-7)
    return float(np.mean(np.log(1.0 - p)))


def finite_diff(objective, params, epsilon=1e-6):
    grads = []
    for k, arr in enumerate(params):
        grad = np.zeros_like(arr)
        flat = grad.reshape(-1)
        base = arr.reshape(-1)
        for i in range(base.size):
            saved = base[i]
            base[i] = saved + epsilon
            hi = objective(params)
            base[i] = saved - epsilon
            lo = objective(params)
            base[i] = saved
            flat[i] = (hi - lo) / (2.0 * epsilon)
        grads.append(grad)
    return grads


def max_rel_error(analytic, numeric):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


class TestTrainingGradients:
    def test_step_gradients_match_finite_differences(self):
        checked = 0
        seed = 0
        while checked < 50:
            seed += 1
            assert seed < 400, "too many configs rejected by validity guards"
            setup = build_gradcheck_config(seed)
            if setup is None:
                continue
            gen, disc, pools, m = setup

            _, _, disc_grads = completion._disc_step(
                pools, gen, disc, *disc_batch(pools, m, Rng(seed).split("d")))
            disc_params = [p.copy() for p in disc.params()]
            numeric = finite_diff(
                lambda ps: disc_objective_oracle(ps, gen, pools), disc_params)
            assert max_rel_error(disc_grads, numeric) < 1e-4

            _, gen_grads = completion._gen_step(
                pools, gen, disc, gen_batch(pools, m, Rng(seed).split("g")))
            gen_params = [p.copy() for p in gen.params()]
            numeric = finite_diff(
                lambda ps: gen_objective_oracle(ps, disc, pools), gen_params)
            assert max_rel_error(gen_grads, numeric) < 1e-4
            checked += 1


def disc_batch(pools, m, rng, paired=False):
    """A discriminator step's (occluded, visible) indices from one stream,
    in the order the training loop draws them."""
    idx_occ = completion.minibatch(rng.gen, pools.occluded.shape[0], m)
    idx_vis = idx_occ if paired else completion.minibatch(rng.gen, pools.visible.shape[0], m)
    return idx_occ, idx_vis


def gen_batch(pools, m, rng):
    """A generator step's occluded indices from one stream."""
    return completion.minibatch(rng.gen, pools.occluded.shape[0], m)


def chain_ascent_pass(disc, rows, m):
    """`completion._ascent_pass` through the `DenseLayer` chain: one
    `Discriminator.forward` of the (2m, d) rows and one full backward, whose
    input gradient is discarded. Returns (probabilities, gradients)."""
    p = disc.forward(rows.T)
    c = np.clip(p, 1e-7, 1.0 - 1e-7)
    up = np.concatenate([1.0 / (m * c[:, :m]), -1.0 / (m * (1.0 - c[:, m:]))], axis=1)
    grads, _ = disc.backward(up)
    return p, grads


def ascent_rows(pools, gen, idx_occ, idx_vis):
    """A discriminator step's rows: visible maps, then generated ones."""
    fake = gen.forward(pools.occluded[idx_occ])
    return np.concatenate([pools.visible[idx_vis], fake]).reshape(2 * len(idx_occ), -1)


def two_pass_disc_step(pools, gen, disc, idx_occ, idx_vis):
    """The discriminator step as one forward and one full backward per side,
    with the two gradient lists summed afterwards."""
    m = len(idx_occ)
    fake = gen.forward(pools.occluded[idx_occ])
    p_vis = disc.forward(pools.visible[idx_vis].reshape(m, -1).T)
    g_vis, _ = disc.backward(1.0 / (m * np.clip(p_vis, 1e-7, 1.0 - 1e-7)))
    p_fake = disc.forward(fake.reshape(m, -1).T)
    g_fake, _ = disc.backward(-1.0 / (m * (1.0 - np.clip(p_fake, 1e-7, 1.0 - 1e-7))))
    objective, _ = adversarial_losses(p_vis, p_fake)
    # Each sample scores 1 when called right, 0.5 on a tie at p = 0.5.
    right = np.concatenate([np.where(p_vis == 0.5, 0.5, p_vis > 0.5),
                            np.where(p_fake == 0.5, 0.5, p_fake < 0.5)], axis=1)
    return objective, float(np.mean(right)), [a + b for a, b in zip(g_vis, g_fake)]


def full_backward_gen_step(pools, gen, disc, idx):
    """The generator step with every layer's full backward, whose unused
    gradients are discarded."""
    m = len(idx)
    fake = gen.forward(pools.occluded[idx])
    p_fake = disc.forward(fake.reshape(m, -1).T)
    _, objective = adversarial_losses(1.0, p_fake)
    _, d_flat = disc.backward(-1.0 / (m * (1.0 - np.clip(p_fake, 1e-7, 1.0 - 1e-7))))
    up_cols = np.moveaxis(d_flat.T.reshape(fake.shape), 1, 0).reshape(gen.channels, -1)
    g_out, d_mid = gen.out.backward(up_cols)
    g_mix, _ = gen.mix.backward(d_mid)
    return objective, [*g_mix, *g_out]


def assert_grads_close(got, want, rel=1e-12):
    """Each array within `rel` of the other, relative to its largest entry."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        scale = max(float(np.max(np.abs(w))), 1e-300)
        assert float(np.max(np.abs(g - w))) <= rel * scale


def lean_step_setups():
    """Gradient-check shapes, the pipeline's 16x7x7 maps at batch 32, and
    the same maps under a saturated discriminator that puts every
    probability at exactly 1, where only the clamp keeps gradients finite."""
    for seed in range(1, 40):
        setup = build_gradcheck_config(seed)
        if setup is not None:
            yield seed, setup
    for seed, readout_bias in ((77, None), (78, 100.0)):
        rng = Rng(seed)
        gen = random_generator(16, rng.split("gen"))
        disc = random_discriminator(16 * 49, 64, rng.split("disc"))
        if readout_bias is not None:
            disc.readout.bias = np.array([readout_bias])
        pools = FeaturePools(rng.split("occ").gen.normal(size=(90, 16, 7, 7)),
                             rng.split("vis").gen.normal(size=(90, 16, 7, 7)))
        yield seed, (gen, disc, pools, 32)


class TestLeanSteps:
    @pytest.mark.parametrize("paired", [False, True])
    def test_batched_disc_step_matches_two_passes(self, paired):
        for seed, (gen, disc, pools, m) in lean_step_setups():
            obj, acc, grads = completion._disc_step(
                pools, gen, disc, *disc_batch(pools, m, Rng(seed).split("d"), paired))
            want_obj, want_acc, want = two_pass_disc_step(
                pools, gen, disc, *disc_batch(pools, m, Rng(seed).split("d"), paired))
            assert obj == pytest.approx(want_obj, rel=1e-12, abs=0.0)
            assert acc == want_acc
            assert_grads_close(grads, want)

    def test_a_zero_readout_reads_chance(self):
        # Discriminator.init's zero readout puts every probability at exactly
        # 0.5. Each call is then a tie and counts half right, so the first
        # history row reads chance.
        rng = Rng(80)
        pools = FeaturePools(rng.split("occ").gen.normal(size=(40, 2, 3, 3)),
                             rng.split("vis").gen.normal(size=(40, 2, 3, 3)))
        _, _, history = train_adversarial(
            pools, Generator.init(2, rng.split("g")), Discriminator.init(18, rng.split("d")),
            TrainConfig(iterations=1), rng.split("t"))
        assert history[0][3] == 0.5

    def test_gen_step_is_bit_identical_to_full_backward(self):
        for seed, (gen, disc, pools, m) in lean_step_setups():
            obj, grads = completion._gen_step(
                pools, gen, disc, gen_batch(pools, m, Rng(seed).split("g")))
            want_obj, want = full_backward_gen_step(
                pools, gen, disc, gen_batch(pools, m, Rng(seed).split("g")))
            assert obj == want_obj
            assert all(np.array_equal(g, w) for g, w in zip(grads, want))

    def test_split_gradients_equal_full_backward(self):
        rng = Rng(78)
        disc = random_discriminator(20, 6, rng.split("disc"))
        flat = rng.split("x").gen.normal(size=(20, 5))
        up = rng.split("up").gen.normal(size=(1, 5))
        disc.forward(flat)
        _, d_in = disc.backward(up)
        assert np.array_equal(disc.input_grad(up), d_in)

    @pytest.mark.parametrize("paired", [False, True])
    def test_ascent_pass_is_the_dense_layer_chain_bit_for_bit(self, paired):
        for seed, (gen, disc, pools, m) in lean_step_setups():
            rows = ascent_rows(pools, gen, *disc_batch(pools, m, Rng(seed).split("d"), paired))
            p, grads = completion._ascent_pass(disc, rows, m)
            want_p, want = chain_ascent_pass(disc, rows, m)
            assert np.array_equal(p, want_p)
            assert len(grads) == len(want)
            assert all(g.shape == w.shape and np.array_equal(g, w)
                       for g, w in zip(grads, want))

    def test_hidden_overflow_fails_at_the_hidden_output(self):
        # Positive maps under hidden weights of 1e308 give +inf hidden
        # outputs. Without their own check the readout would meet them and
        # fail under another name.
        rng = Rng(82)
        pools = FeaturePools(np.abs(rng.split("occ").gen.normal(size=(8, 2, 3, 3))) + 1.0,
                             np.abs(rng.split("vis").gen.normal(size=(8, 2, 3, 3))) + 1.0)
        disc = random_discriminator(18, 6, rng.split("d"))
        disc.hidden.weights = np.full((6, 18), 1e308)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(PreconditionError, match="discriminator hidden output"):
                completion._disc_step(pools, Generator.init(2, rng.split("g")), disc,
                                      np.arange(8), np.arange(8))

    @pytest.mark.parametrize("side", ["visible", "occluded"])
    def test_nan_in_one_side_raises(self, side):
        gen, disc, pools, m = next(s for _, s in lean_step_setups())
        poisoned = getattr(pools, side).copy()
        poisoned[:] = np.nan
        bad = FeaturePools(**{"occluded": pools.occluded, "visible": pools.visible,
                              side: poisoned})
        with pytest.raises(PreconditionError):
            completion._disc_step(bad, gen, disc, *disc_batch(bad, m, Rng(1)))
        if side == "occluded":
            with pytest.raises(PreconditionError):
                completion._gen_step(bad, gen, disc, gen_batch(bad, m, Rng(2)))

    def test_nan_raises_in_the_iteration_that_meets_it(self, monkeypatch):
        rng = Rng(79)
        pools = FeaturePools(rng.split("occ").gen.normal(size=(12, 2, 3, 3)),
                             rng.split("vis").gen.normal(size=(12, 2, 3, 3)))
        gen = random_generator(2, rng.split("g"))
        disc = random_discriminator(18, 6, rng.split("d"))
        updates = []
        real = completion.sgd_step

        def poison_after_third_update(params, grads, rate, direction):
            updates.append(direction)
            if len(updates) == 3:
                pools.visible[:] = np.nan
            return real(params, grads, rate, direction)

        monkeypatch.setattr(completion, "sgd_step", poison_after_third_update)
        cfg = TrainConfig(iterations=10)
        with pytest.raises(PreconditionError):
            train_adversarial(pools, gen, disc, cfg, rng.split("t"))
        # The NaN lands during iteration 2's discriminator update. Its
        # generator step reads only the occluded pool and still updates;
        # iteration 3's discriminator pass meets the NaN and raises first.
        assert updates == ["ascend", "descend", "ascend", "descend"]


def reference_training_draws(rng, iterations, n_occ, n_vis, m, paired,
                             start_iteration=0):
    """The training loop's draws as it made them before minibatches were
    planned ahead: iteration by iteration, between the updates. Returns
    ([(idx_occ, idx_vis) per discriminator step], [idx per generator step])."""
    disc, gen = [], []
    for t in range(iterations):
        it_rng = rng.split(f"iter-{start_iteration + t}")
        step_rng = it_rng.split("disc-0")
        idx_occ = np.sort(step_rng.gen.choice(n_occ, size=m, replace=False))
        idx_vis = (idx_occ if paired
                   else np.sort(step_rng.gen.choice(n_vis, size=m, replace=False)))
        disc.append((idx_occ, idx_vis))
        gen.append(np.sort(it_rng.split("gen").gen.choice(n_occ, size=m, replace=False)))
    return disc, gen


def assert_same_indices(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


class TestPlannedMinibatches:
    @pytest.mark.parametrize("paired", [False, True])
    def test_plan_equals_reference_draws(self, paired):
        n_vis = 15 if paired else 21
        disc_occ, disc_vis, gen = completion.plan_minibatches(
            Rng(3).split("t"), 9, 6, 15, n_vis, 5, paired)
        assert disc_occ.shape == disc_vis.shape == gen.shape == (6, 5)
        want_disc, want_gen = reference_training_draws(
            Rng(3).split("t"), 6, 15, n_vis, 5, paired, start_iteration=9)
        assert_same_indices(list(disc_occ), [o for o, _ in want_disc])
        assert_same_indices(list(disc_vis), [v for _, v in want_disc])
        assert_same_indices(list(gen), want_gen)

    @pytest.mark.parametrize("paired", [False, True])
    def test_training_steps_get_the_reference_draws_across_chunks(
            self, paired, monkeypatch):
        # More iterations than one chunk holds, from an offset start, so the
        # second chunk must pick up at the right iteration label. The pools
        # exceed BATCH_SIZE, so every minibatch is a proper subset.
        iterations = completion.PLAN_CHUNK + 3
        m = completion.BATCH_SIZE
        rng = Rng(19)
        n_vis = m + 8 if paired else m + 11
        pools = FeaturePools(rng.split("occ").gen.normal(size=(m + 8, 2, 2, 2)),
                             rng.split("vis").gen.normal(size=(n_vis, 2, 2, 2)))
        gen = random_generator(2, rng.split("g"))
        disc = random_discriminator(8, 4, rng.split("d"))
        seen_disc, seen_gen = [], []
        real_disc, real_gen = completion._disc_step, completion._gen_step

        def disc_spy(pools, gen, disc, idx_occ, idx_vis):
            seen_disc.append((idx_occ.copy(), idx_vis.copy()))
            return real_disc(pools, gen, disc, idx_occ, idx_vis)

        def gen_spy(pools, gen, disc, idx):
            seen_gen.append(idx.copy())
            return real_gen(pools, gen, disc, idx)

        monkeypatch.setattr(completion, "_disc_step", disc_spy)
        monkeypatch.setattr(completion, "_gen_step", gen_spy)
        cfg = TrainConfig(iterations=iterations)
        _, _, history = train_adversarial(pools, gen, disc, cfg, rng.split("t"),
                                          paired=paired, start_iteration=40)
        assert [row[0] for row in history] == list(range(41, 41 + iterations))
        want_disc, want_gen = reference_training_draws(
            rng.split("t"), iterations, m + 8, n_vis, m, paired, start_iteration=40)
        assert_same_indices([o for o, _ in seen_disc], [o for o, _ in want_disc])
        assert_same_indices([v for _, v in seen_disc], [v for _, v in want_disc])
        assert_same_indices(seen_gen, want_gen)

    @pytest.mark.parametrize("paired", [False, True])
    def test_planned_rows_equal_reference_draws_across_a_chunk(self, paired):
        # The default training pools: 300 occluded and 800 visible, or 300
        # pairs, in minibatches of 32, from an offset start.
        iterations = completion.PLAN_CHUNK + 44
        n_vis = 300 if paired else 800

        def plan(first, count):
            return completion.plan_minibatches(Rng(5).split("t"), 17 + first, count,
                                               300, n_vis, 32, paired)

        rows = list(completion.planned(plan, iterations))
        want_disc, want_gen = reference_training_draws(
            Rng(5).split("t"), iterations, 300, n_vis, 32, paired, start_iteration=17)
        assert_same_indices([o for o, _, _ in rows], [o for o, _ in want_disc])
        assert_same_indices([v for _, v, _ in rows], [v for _, v in want_disc])
        assert_same_indices([g for _, _, g in rows], want_gen)

    def test_planned_yields_every_row_in_order(self):
        calls = []

        def plan(first, count):
            calls.append((first, count))
            return np.arange(first, first + count), -np.arange(first, first + count)

        count = 2 * completion.PLAN_CHUNK + 1
        rows = list(completion.planned(plan, count))
        assert rows == [(t, -t) for t in range(count)]
        assert calls == [(0, completion.PLAN_CHUNK),
                         (completion.PLAN_CHUNK, completion.PLAN_CHUNK),
                         (2 * completion.PLAN_CHUNK, 1)]
        assert list(completion.planned(plan, 0)) == []


class TestTrainAdversarial:
    def make_pools(self, seed, n=64, offset=0.0):
        base = Rng(seed).gen.normal(size=(n, 2, 3, 3))
        return FeaturePools(base - offset, base + offset)

    def test_zero_iterations_change_nothing(self):
        rng = Rng(11)
        pools = self.make_pools(12)
        gen = random_generator(2, rng.split("g"))
        disc = random_discriminator(18, 6, rng.split("d"))
        g_before = [p.copy() for p in gen.params()]
        d_before = [p.copy() for p in disc.params()]
        cfg = TrainConfig(iterations=0)
        _, _, history = train_adversarial(pools, gen, disc, cfg, rng.split("t"))
        assert history == []
        assert all(np.array_equal(a, b) for a, b in zip(gen.params(), g_before))
        assert all(np.array_equal(a, b) for a, b in zip(disc.params(), d_before))

    def test_separable_pools_reach_high_accuracy(self):
        rng = Rng(4)
        base = rng.gen.normal(size=(200, 2, 3, 3))
        pools = FeaturePools(base + 3.0, base - 3.0)
        gen = Generator.init(2, rng.split("g"))
        disc = Discriminator.init(18, rng.split("d"), width=16)
        cfg = TrainConfig(iterations=200, learn_rate=2e-3)
        _, _, history = train_adversarial(pools, gen, disc, cfg, rng.split("t"))
        acc = np.array([row[3] for row in history])
        assert acc[-20:].mean() > 0.9

    def test_identical_pools_stay_near_chance(self):
        rng = Rng(5)
        base = rng.gen.normal(size=(300, 2, 3, 3))
        pools = FeaturePools(base.copy(), base.copy())
        gen = Generator.init(2, rng.split("g"))
        disc = Discriminator.init(18, rng.split("d"), width=16)
        cfg = TrainConfig(iterations=500, learn_rate=2e-3)
        _, _, history = train_adversarial(pools, gen, disc, cfg, rng.split("t"))
        acc = np.array([row[3] for row in history[-100:]])
        assert 0.4 <= acc.mean() <= 0.6

    def test_training_is_deterministic(self):
        results = []
        for _ in range(2):
            rng = Rng(13)
            pools = self.make_pools(14, offset=0.5)
            gen = random_generator(2, rng.split("g"))
            disc = random_discriminator(18, 6, rng.split("d"))
            cfg = TrainConfig(iterations=40)
            _, _, history = train_adversarial(pools, gen, disc, cfg, rng.split("t"))
            results.append((gen.params() + disc.params(), history))
        for a, b in zip(results[0][0], results[1][0]):
            assert np.array_equal(a, b)
        assert results[0][1] == results[1][1]

    def test_update_order_is_disc_steps_then_gen(self, monkeypatch):
        rng = Rng(15)
        pools = self.make_pools(16, n=12)
        gen = random_generator(2, rng.split("g"))
        disc = random_discriminator(18, 6, rng.split("d"))
        calls = []
        real = completion.sgd_step

        def spy(params, grads, rate, direction):
            calls.append((params[0].shape, direction))
            return real(params, grads, rate, direction)

        monkeypatch.setattr(completion, "sgd_step", spy)
        cfg = TrainConfig(iterations=2)
        train_adversarial(pools, gen, disc, cfg, rng.split("t"))
        per_iter = [((6, 18), "ascend"), ((2, 2), "descend")]
        assert calls == per_iter * 2

    def test_history_numbering_and_offset(self):
        rng = Rng(17)
        pools = self.make_pools(18, n=12)
        gen = random_generator(2, rng.split("g"))
        disc = random_discriminator(18, 6, rng.split("d"))
        cfg = TrainConfig(iterations=5, learn_rate=2e-4)
        _, _, history = train_adversarial(pools, gen, disc, cfg, rng.split("t"),
                                          start_iteration=30)
        assert [row[0] for row in history] == [31, 32, 33, 34, 35]

    def test_progress_is_logged_every_hundred_iterations(self, caplog):
        rng = Rng(23)
        pools = self.make_pools(24, n=12)
        gen = random_generator(2, rng.split("g"))
        disc = random_discriminator(18, 6, rng.split("d"))
        cfg = TrainConfig(iterations=250, learn_rate=2e-4)
        with caplog.at_level(logging.INFO, logger="occfill.completion"):
            _, _, history = train_adversarial(pools, gen, disc, cfg, rng.split("t"),
                                              start_iteration=150)
        got = [r.getMessage() for r in caplog.records if r.name == "occfill.completion"]
        want = [f"iteration {t}: disc objective {d:.4f}, gen objective {g:.4f}, "
                f"disc accuracy {a:.3f}"
                for t, d, g, a in history if t in (200, 300, 400)]
        assert len(got) == 3
        assert got == want

    def test_minibatch_follows_the_smaller_pool(self, monkeypatch):
        sizes = []
        real_disc, real_gen = completion._disc_step, completion._gen_step

        def disc_spy(pools, gen, disc, idx_occ, idx_vis):
            sizes.append((len(idx_occ), len(idx_vis)))
            return real_disc(pools, gen, disc, idx_occ, idx_vis)

        def gen_spy(pools, gen, disc, idx):
            sizes.append((len(idx),))
            return real_gen(pools, gen, disc, idx)

        monkeypatch.setattr(completion, "_disc_step", disc_spy)
        monkeypatch.setattr(completion, "_gen_step", gen_spy)
        for n_occ, n_vis, want in ((8, 50, 8), (50, 9, 9), (40, 40, 32), (32, 33, 32)):
            rng = Rng(19)
            pools = FeaturePools(rng.split("occ").gen.normal(size=(n_occ, 2, 3, 3)),
                                 rng.split("vis").gen.normal(size=(n_vis, 2, 3, 3)))
            gen = Generator.init(2, rng.split("g"))
            disc = Discriminator.init(18, rng.split("d"), width=6)
            sizes.clear()
            train_adversarial(pools, gen, disc, TrainConfig(iterations=2), rng.split("t"))
            assert sizes == [(want, want), (want,)] * 2

    def test_paired_needs_equal_pool_sizes(self):
        rng = Rng(21)
        pools = FeaturePools(Rng(1).gen.normal(size=(8, 2, 3, 3)),
                             Rng(2).gen.normal(size=(9, 2, 3, 3)))
        gen = Generator.init(2, rng.split("g"))
        disc = Discriminator.init(18, rng.split("d"), width=6)
        cfg = TrainConfig(iterations=1)
        with pytest.raises(PreconditionError):
            train_adversarial(pools, gen, disc, cfg, rng.split("t"), paired=True)

    def test_config_validation(self):
        with pytest.raises(PreconditionError):
            TrainConfig(iterations=-1).validate()
        with pytest.raises(PreconditionError):
            TrainConfig(learn_rate=0.0).validate()
        with pytest.raises(PreconditionError):
            TrainConfig(learn_rate=float("nan")).validate()

    def test_default_stage_configs(self):
        config = RunConfig()
        assert config.train1 == TrainConfig(iterations=2000, learn_rate=2e-3)
        assert config.train2 == TrainConfig(iterations=2000, learn_rate=2e-4)
        assert config.head == HEAD_FIT


def build_training_world(sigma, seed, scale=105.0, n_vis=60, n_occ=40):
    world = gen_world(WorldConfig(sigma_id=sigma), seed)
    rng = Rng(seed + 100)
    vis = [gen_pedestrian(world, scale, rng.split(f"v{i}").gen, pid=i)
           for i in range(n_vis)]
    occluded = []
    for i in range(n_occ):
        r = rng.split(f"o{i}").gen
        base = gen_pedestrian(world, scale, r, pid=1000 + i)
        mask = sample_mask(world, MASK_PATTERNS[i % len(MASK_PATTERNS)], r)
        occluded.append(gen_occluded(world, base, mask, "object", r))
    pool_vis = build_pool(vis)
    bank = kmeans(pool_vis, ProtoConfig(k=1), seed=0)
    pool_occ = FeaturePool(np.array([p.features for p in occluded]),
                           np.array([p.scale for p in occluded]))
    return world, pool_vis, pool_occ, bank


def pairs(pool):
    """A pool's (features, scale) pairs, as `mask_library` and `_paste_pool`
    read them."""
    return zip(pool.features, pool.scales)


def progressive(pool_vis, pool_occ, bank, configs, rng, world):
    """`progressive_train` on the mask library of ``pool_occ`` and, in stage
    two, on ``pool_occ`` pasted."""
    def stage_two():
        return _paste_pool(pairs(pool_occ), bank, np.empty(pool_occ.features.shape))

    return progressive_train(pool_vis, mask_library(pairs(pool_occ), bank),
                             stage_two, bank, configs, rng, world)


@pytest.fixture(scope="module")
def noisy_setup():
    return build_training_world(sigma=0.05, seed=31)


@pytest.fixture(scope="module")
def clean_setup():
    return build_training_world(sigma=0.0, seed=3)


class TestProgressiveTrain:
    def small_configs(self, t1=30, t2=20):
        return (TrainConfig(iterations=t1, learn_rate=2e-3),
                TrainConfig(iterations=t2, learn_rate=2e-4))

    def test_zero_iterations_yield_identity_generator(self, noisy_setup):
        world, pool_vis, pool_occ, bank = noisy_setup
        gen, _, history = progressive(
            pool_vis, pool_occ, bank, self.small_configs(0, 0), Rng(1), world)
        assert history == []
        x = Rng(2).gen.normal(size=(16, 7, 7))[None]
        assert np.array_equal(gen.forward(x), x)

    def test_stage_two_skipped_when_zero(self, noisy_setup):
        world, pool_vis, pool_occ, bank = noisy_setup
        gen, _, history = progressive(
            pool_vis, pool_occ, bank, self.small_configs(25, 0), Rng(3), world)
        assert [row[0] for row in history] == list(range(1, 26))
        fresh = Generator.init(16, Rng(3).split("generator"))
        moved = max(np.max(np.abs(a - b))
                    for a, b in zip(gen.params(), fresh.params()))
        assert moved > 0.0

    def test_history_spans_both_stages(self, noisy_setup):
        world, pool_vis, pool_occ, bank = noisy_setup
        _, _, history = progressive(
            pool_vis, pool_occ, bank, self.small_configs(12, 7), Rng(4), world)
        assert [row[0] for row in history] == list(range(1, 20))

    def test_zero_gap_generator_stays_identity(self, clean_setup):
        world, pool_vis, pool_occ, bank = clean_setup
        configs = (TrainConfig(iterations=300, learn_rate=2e-3),
                   TrainConfig(iterations=200, learn_rate=2e-4))
        gen, _, _ = progressive(
            pool_vis, pool_occ, bank, configs, Rng(9), world)
        fresh = Generator.init(16, Rng(9).split("generator"))
        drift = max(np.max(np.abs(a - b))
                    for a, b in zip(gen.params(), fresh.params()))
        assert drift < 1e-3

    def test_deterministic_for_fixed_seed(self, noisy_setup):
        world, pool_vis, pool_occ, bank = noisy_setup
        runs = []
        for _ in range(2):
            gen, disc, history = progressive(
                pool_vis, pool_occ, bank, self.small_configs(), Rng(5), world)
            runs.append((gen.params() + disc.params(), history))
        for a, b in zip(runs[0][0], runs[1][0]):
            assert np.array_equal(a, b)
        assert runs[0][1] == runs[1][1]

    def test_stage_two_pool_is_made_after_stage_one(self, noisy_setup, monkeypatch):
        world, pool_vis, pool_occ, bank = noisy_setup
        events = []
        train = completion.train_adversarial

        def spy(*args, **kwargs):
            events.append("train")
            return train(*args, **kwargs)

        def stage_two():
            events.append("pool")
            return _paste_pool(pairs(pool_occ), bank, np.empty(pool_occ.features.shape))

        monkeypatch.setattr(completion, "train_adversarial", spy)
        progressive_train(pool_vis, mask_library(pairs(pool_occ), bank), stage_two,
                          bank, self.small_configs(2, 2), Rng(6), world)
        assert events == ["train", "pool", "train"]

    def test_rejects_single_stage(self, noisy_setup):
        world, pool_vis, pool_occ, bank = noisy_setup
        with pytest.raises(PreconditionError):
            progressive(pool_vis, pool_occ, bank, (TrainConfig(iterations=1),),
                        Rng(7), world)

    def synthetic_masks_drawn(self, monkeypatch, pool_vis, pool_occ, bank, world):
        """Masks `progressive_train` draws from ``world`` to top up its library."""
        drawn = []
        real = completion.sample_mask

        def spy(world, pattern, rng):
            drawn.append(pattern)
            return real(world, pattern, rng)

        monkeypatch.setattr(completion, "sample_mask", spy)
        _, _, history = progressive(
            pool_vis, pool_occ, bank, self.small_configs(2, 2), Rng(8), world)
        assert len(history) == 4
        return drawn

    def test_unoccluded_pool_gives_empty_library(self, clean_setup, monkeypatch):
        # nothing observed: the library is the synthetic top-up alone
        world, pool_vis, pool_occ, bank = clean_setup
        assert mask_library(pairs(pool_vis), bank) == []
        drawn = self.synthetic_masks_drawn(monkeypatch, pool_vis, pool_vis, bank, world)
        assert drawn == [MASK_PATTERNS[i % len(MASK_PATTERNS)]
                         for i in range(MIN_MASK_LIBRARY)]

    def test_mask_world_tops_up_library(self, noisy_setup, monkeypatch):
        world, pool_vis, pool_occ, bank = noisy_setup
        observed = len(mask_library(pairs(pool_occ), bank))
        assert 0 < observed < MIN_MASK_LIBRARY
        drawn = self.synthetic_masks_drawn(monkeypatch, pool_vis, pool_occ, bank, world)
        assert len(drawn) == MIN_MASK_LIBRARY - observed

    def test_observed_masks_found_on_occluded_pool(self, noisy_setup):
        world, pool_vis, pool_occ, bank = noisy_setup
        lib = mask_library(pairs(pool_occ), bank)
        assert len(lib) > 0
        assert all(m.count > 0 for m in lib)
        assert all(m.grid.shape == (7, 7) for m in lib)


def test_stage_two_starts_without_the_stage_one_pool(monkeypatch):
    # 800 visible maps and 50 occluded ones. Stage two started beside the
    # stage-one synthetic pool, 1084 maps in all; without it, beside its own
    # pasted pool and the networks, 284.
    world, pool_vis, pool_occ, bank = build_training_world(
        sigma=0.05, seed=37, n_vis=800, n_occ=50)
    held = []
    train = completion.train_adversarial

    def spy(*args, **kwargs):
        held.append(tracemalloc.get_traced_memory()[0])
        return train(*args, **kwargs)

    monkeypatch.setattr(completion, "train_adversarial", spy)
    configs = (TrainConfig(2, 2e-3), TrainConfig(2, 2e-4))
    tracemalloc.start()
    try:
        progressive(pool_vis, pool_occ, bank, configs, Rng(1), world)
    finally:
        tracemalloc.stop()
    assert len(held) == 2
    assert held[1] <= 0.5 * pool_vis.features.nbytes


class TestScoringHead:
    def test_zero_weights_score_half(self):
        head = ScoringHead(DenseLayer(np.zeros((1, 18)), np.zeros(1), "sigmoid"))
        x = Rng(1).gen.normal(size=(2, 3, 3))[None]
        assert head.probability(x) == 0.5

    def test_all_zero_features_are_safe(self):
        head = ScoringHead(DenseLayer(np.ones((1, 18)), np.zeros(1), "sigmoid"))
        p = head.probability(np.zeros((1, 2, 3, 3)))
        assert p == 0.5

    def test_rejects_single_map(self):
        # One map is a batch of one, (1, c, x, y); a bare (c, x, y) is refused.
        head = ScoringHead.init(18, Rng(0))
        with pytest.raises(PreconditionError):
            head.probability(np.zeros((2, 3, 3)))

    def test_scale_invariance_from_normalization(self):
        rng = Rng(24)
        head = ScoringHead.init(18, rng.split("h"))
        x = rng.split("x").gen.normal(size=(2, 3, 3))[None]
        assert head.probability(x * 37.0) == pytest.approx(
            head.probability(x), abs=1e-12)

    def test_overflowing_squared_sums_are_refused(self):
        # Finite maps whose squares overflow float64 had an rms of inf, so
        # every value normalized to 0 and the head scored sigmoid(bias).
        head = ScoringHead.init(18, Rng(0))
        x = Rng(27).gen.normal(size=(3, 2, 3, 3)) * 1e155
        with pytest.raises(PreconditionError, match="overflows float64"):
            head.probability(x)
        with pytest.raises(PreconditionError, match="overflows float64"):
            train_scoring_head(x.copy(), 1, Rng(0), HEAD_FIT)

    def test_training_separates_offset_pools(self):
        rng = Rng(25)
        base = rng.gen.normal(size=(80, 2, 3, 3))
        head = fit_head(base + 4.0, base - 4.0, rng.split("t"), HEAD_FIT)
        assert head.trained
        p_pos = head.probability(base[:10] + 4.0)
        p_neg = head.probability(base[:10] - 4.0)
        assert np.all(p_pos > 0.9)
        assert np.all(p_neg < 0.1)

    def test_rejects_maps_it_cannot_normalize_in_place(self):
        maps = np.zeros((8, 2, 3, 3))
        read_only = maps.copy()
        read_only.setflags(write=False)
        for bad in (np.asfortranarray(maps), maps.astype(np.float32), read_only,
                    maps[::2], maps.reshape(8, 2, 9), list(maps)):
            with pytest.raises(PreconditionError, match="C-contiguous float64"):
                train_scoring_head(bad, 4, Rng(0), HEAD_FIT)

    def test_rejects_empty_pools(self):
        for positives in (0, 4, -1, 5):
            with pytest.raises(PreconditionError, match="positives and negatives"):
                train_scoring_head(np.zeros((4, 2, 3, 3)), positives, Rng(0),
                                   HEAD_FIT)

    @pytest.mark.parametrize("config,match", [
        (TrainConfig(-1, 0.5), "head.iterations"),
        (TrainConfig(500, 0.0), "head.learn_rate"),
        (TrainConfig(500, float("nan")), "head.learn_rate"),
    ])
    def test_rejects_bad_config(self, config, match):
        pools = np.ones((4, 2, 3, 3))
        with pytest.raises(PreconditionError, match=match):
            fit_head(pools, -pools, Rng(0), config)

    def test_rejects_wrong_head_shape(self):
        with pytest.raises(PreconditionError):
            ScoringHead(DenseLayer(np.zeros((2, 9)), np.zeros(2), "sigmoid"))
        with pytest.raises(PreconditionError):
            ScoringHead(DenseLayer(np.zeros((1, 9)), np.zeros(1), "relu"))

    def test_input_dim_checked(self):
        head = ScoringHead.init(18, Rng(0))
        with pytest.raises(ShapeMismatchError):
            head.probability(np.zeros((1, 2, 3, 4)))

    @pytest.mark.parametrize("n_pos, n_neg", [(1, 1), (1, 5), (5, 1), (64, 64), (97, 150)])
    def test_fit_equals_the_concatenating_reference(self, n_pos, n_neg):
        # 2, 128 and 247 columns against the 64-column rms block, with an
        # all-zero map among them for the rms = 0 branch
        rng = Rng(31)
        pos = rng.split("p").gen.normal(size=(n_pos, 3, 4, 4)) * 2.0 + 1.0
        neg = rng.split("n").gen.normal(size=(n_neg, 3, 4, 4))
        neg[0] = 0.0
        got = fit_head(pos, neg, rng.split("t"), TrainConfig(40, 0.5))
        want = reference_scoring_head(pos, neg, rng.split("t"), iterations=40)
        for a, b in zip(got.params(), want.params()):
            assert a.tobytes() == b.tobytes()
        assert got.trained

    @pytest.mark.parametrize("shape", [(1, 3, 4, 4), (200, 3, 4, 4), (5, 3, 1, 1)])
    def test_normalize_equals_the_reference_and_copies(self, shape):
        # `probability` normalizes a copy of the maps: a batch of one as
        # `rescore` passes it, a batch across the rms block in both memory
        # orders, and an all-zero map
        x = Rng(34).gen.normal(size=shape) * 3.0
        x[0] = 0.0
        head = ScoringHead.init(int(np.prod(shape[1:])), Rng(35))
        for feats in (x, np.asfortranarray(x)):
            before = feats.copy()
            got = head.probability(feats)
            want = reference_normalize(feats.reshape(shape[0], -1).T)
            assert head.layer._cache[0].tobytes() == want.tobytes()
            assert got.tobytes() == head.layer.forward(want)[0].tobytes()
            assert np.array_equal(feats, before)

    def test_fit_normalizes_its_maps_in_place(self):
        # 130 maps span three rms blocks; one all-zero map keeps its zeros.
        rng = Rng(32)
        maps = rng.gen.normal(size=(130, 2, 3, 3)) + 1.0
        maps[7] = 0.0
        want = reference_normalize(maps.reshape(130, -1).T)
        train_scoring_head(maps, 50, rng.split("t"), TrainConfig(3, 0.5))
        assert maps.reshape(130, -1).T.tobytes() == want.tobytes()

    def test_fit_leaves_a_batch_of_two_as_it_was(self):
        # Two single columns concatenate to C order, so a batch of two is
        # normalized in a C-order copy, not in place.
        maps = Rng(36).gen.normal(size=(2, 2, 3, 3)) + 1.0
        before = maps.copy()
        train_scoring_head(maps, 1, Rng(37), TrainConfig(3, 0.5))
        assert maps.tobytes() == before.tobytes()

    def test_fit_holds_one_feature_matrix(self):
        # The fit's feature matrix is its maps, normalized in place, and
        # beyond them it holds the rms temporaries of one block of columns
        # (0.11x here). The former fit took two pools and held a normalized
        # copy of both (1.0x of them more), and `train_model` held them
        # twice more.
        rng = Rng(33)
        maps = rng.gen.normal(size=(600, 16, 7, 7))
        tracemalloc.start()
        try:
            train_scoring_head(maps, 300, rng.split("t"), TrainConfig(2, 0.5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.15 * maps.nbytes


def reference_normalize(flat):
    """Unit-rms columns as first written: one full `flat ** 2`, then a copy."""
    rms = np.sqrt(np.mean(flat ** 2, axis=0, keepdims=True))
    return np.divide(flat, rms, out=np.array(flat, dtype=np.float64),
                     where=rms > 0)


def reference_scoring_head(positives, negatives, rng, iterations, learn_rate=0.5):
    """The head fit as it was first written: concatenate the two pools, then
    normalize a copy of the whole matrix."""
    pos, neg = np.asarray(positives), np.asarray(negatives)
    head = ScoringHead.init(int(np.prod(pos.shape[1:])), rng.split("head-init"))
    flat = reference_normalize(np.concatenate(
        [pos.reshape(pos.shape[0], -1).T, neg.reshape(neg.shape[0], -1).T],
        axis=1))
    labels = np.concatenate([np.ones(pos.shape[0]), np.zeros(neg.shape[0])])
    for _ in range(iterations):
        p = sigmoid(head.layer.weights @ flat + head.layer.bias[:, None])[0]
        err = ((p - labels) / labels.size)[None, :]
        sgd_step(head.layer.params(), [err @ flat.T, err.sum(axis=1)], learn_rate,
                 "descend")
    head.trained = True
    return head


class FakeProposal:
    def __init__(self, score):
        self.score = score


class TestRescore:
    def test_visible_proposal_keeps_score(self):
        head = ScoringHead.init(18, Rng(0))
        out = rescore(FakeProposal(0.73), np.zeros((2, 3, 3)), head, occluded=False)
        assert out == 0.73

    def test_untrained_head_refused_for_occluded(self):
        head = ScoringHead.init(18, Rng(0))
        with pytest.raises(PreconditionError):
            rescore(FakeProposal(0.73), np.zeros((2, 3, 3)), head, occluded=True)

    def test_occluded_proposal_uses_head(self):
        rng = Rng(26)
        base = rng.gen.normal(size=(40, 2, 3, 3))
        head = fit_head(base + 4.0, base - 4.0, rng.split("t"), HEAD_FIT)
        completed = base[0] + 4.0
        got = rescore(FakeProposal(0.1), completed, head, occluded=True)
        assert got == head.probability(completed[None])


def small_model(seed=27):
    rng = Rng(seed)
    gen = random_generator(2, rng.split("g"))
    head = ScoringHead.init(8, rng.split("h"))
    head.trained = True
    configs = (TrainConfig(iterations=7),
               TrainConfig(iterations=5, learn_rate=2e-4))
    return gen, head, configs


class TestModelFile:
    def test_roundtrip_preserves_everything(self, tmp_path):
        gen, head, configs = small_model()
        path = tmp_path / "model.bin"
        write_model(path, gen, head, configs, grid=(2, 2))
        gen2, disc2, head2, grid, configs2 = read_model(path)
        assert disc2 is None
        assert grid == (2, 2)
        assert configs2 == configs
        assert head2.trained
        for a, b in zip(gen.params() + head.params(),
                        gen2.params() + head2.params()):
            assert np.array_equal(a, b)

    def test_rewrite_is_byte_identical(self, tmp_path):
        gen, head, configs = small_model()
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        write_model(p1, gen, head, configs, grid=(2, 2))
        gen2, _, head2, grid, configs2 = read_model(p1)
        write_model(p2, gen2, head2, configs2, grid=grid)
        assert p1.read_bytes() == p2.read_bytes()

    def test_untrained_flag_roundtrips(self, tmp_path):
        gen, head, configs = small_model()
        head.trained = False
        path = tmp_path / "model.bin"
        write_model(path, gen, head, configs, grid=(2, 2))
        assert not read_model(path)[2].trained

    def test_refuses_disagreeing_dims(self, tmp_path):
        gen, head, configs = small_model()
        with pytest.raises(PreconditionError):
            write_model(tmp_path / "m.bin", gen, head, configs, grid=(3, 2))

    def layout(self, c=2, gx=2, gy=2):
        """Independent byte layout arithmetic for the model format."""
        flat = c * gx * gy
        sizes = [("magic", 4), ("version", 4), ("dims", 12),
                 ("gen_mix_w", c * c * 8), ("gen_mix_b", c * 8),
                 ("gen_out_w", c * c * 8), ("gen_out_b", c * 8),
                 ("head_w", flat * 8), ("head_b", 8),
                 ("flag", 1), ("count", 4), ("cfg0", 12), ("cfg1", 12)]
        offsets = {}
        pos = 0
        for name, size in sizes:
            offsets[name] = pos
            pos += size
        offsets["end"] = pos
        return offsets

    def written(self, tmp_path):
        gen, head, configs = small_model()
        path = tmp_path / "model.bin"
        write_model(path, gen, head, configs, grid=(2, 2))
        return path, bytearray(path.read_bytes())

    @staticmethod
    def refused(path, offset, message):
        """`read_model` refuses the file at `offset` with `message`."""
        with pytest.raises(FormatError) as err:
            read_model(path)
        assert err.value.offset == offset
        assert str(err.value) == f"{message} (byte offset {offset})"

    def test_total_size_matches_layout(self, tmp_path):
        path, data = self.written(tmp_path)
        assert len(data) == self.layout()["end"]

    def test_bad_magic_offset(self, tmp_path):
        path, data = self.written(tmp_path)
        data[:4] = b"JUNK"
        path.write_bytes(data)
        self.refused(path, 0, "bad magic b'JUNK'")

    def test_bad_version_offset(self, tmp_path):
        path, data = self.written(tmp_path)
        data[4:8] = struct.pack("<I", 99)
        path.write_bytes(data)
        self.refused(path, 4, "unsupported version 99")

    def test_zero_dim_offset(self, tmp_path):
        path, data = self.written(tmp_path)
        data[8:12] = struct.pack("<I", 0)
        path.write_bytes(data)
        self.refused(path, 8, "model dims must be positive")

    def test_truncated_weights_offset(self, tmp_path):
        path, data = self.written(tmp_path)
        cut = self.layout()["head_w"] + 10
        path.write_bytes(data[:cut])
        self.refused(path, self.layout()["head_w"], "truncated head weights")

    def test_non_finite_weight_offset(self, tmp_path):
        path, data = self.written(tmp_path)
        off = self.layout()["gen_out_w"]
        data[off:off + 8] = struct.pack("<d", np.inf)
        path.write_bytes(data)
        self.refused(path, off, "non-finite value in generator out weights")

    def test_version_one_model_refused(self, tmp_path):
        # version 1 records carried batch size, discriminator steps and stage
        path, data = self.written(tmp_path)
        data[4:8] = struct.pack("<I", 1)
        path.write_bytes(data)
        self.refused(path, 4, "unsupported version 1")

    def test_version_two_model_refused(self, tmp_path):
        # version 2 also stored the discriminator: a width after the dims,
        # then its hidden and readout layers between generator and head
        gen, head, configs = small_model()
        disc = random_discriminator(8, 4, Rng(28))
        chunks = [MODEL_MAGIC, struct.pack("<IIIII", 2, 2, 2, 2, 4)]
        chunks += [np.ascontiguousarray(a, dtype="<f8").tobytes()
                   for a in gen.params() + disc.params() + head.params()]
        chunks += [b"\x01", struct.pack("<I", 2)]
        chunks += [struct.pack("<Id", cfg.iterations, cfg.learn_rate)
                   for cfg in configs]
        path = tmp_path / "model.bin"
        path.write_bytes(b"".join(chunks))
        self.refused(path, 4, "unsupported version 2")

    def test_invalid_config_values_offset(self, tmp_path):
        path, data = self.written(tmp_path)
        off = self.layout()["cfg1"]
        data[off + 4:off + 12] = struct.pack("<d", 0.0)
        path.write_bytes(data)
        self.refused(path, off, "invalid train config: train.learn_rate must "
                                "be positive and finite, got 0.0")

    def test_implausible_config_count_offset(self, tmp_path):
        path, data = self.written(tmp_path)
        off = self.layout()["count"]
        data[off:off + 4] = struct.pack("<I", 4000)
        path.write_bytes(data)
        self.refused(path, off, "implausible config count 4000")

    def test_trailing_bytes_offset(self, tmp_path):
        path, data = self.written(tmp_path)
        path.write_bytes(bytes(data) + b"x")
        self.refused(path, self.layout()["end"], "1 trailing bytes")

    @pytest.mark.parametrize("flag", [2, 255])
    def test_bad_head_flag_offset(self, tmp_path, flag):
        path, data = self.written(tmp_path)
        off = self.layout()["flag"]
        data[off] = flag
        path.write_bytes(data)
        self.refused(path, off, f"bad head flag {flag}")

    def test_magic_is_first_bytes(self, tmp_path):
        path, data = self.written(tmp_path)
        assert bytes(data[:4]) == MODEL_MAGIC

    def test_minimum_library_constant(self):
        assert MIN_MASK_LIBRARY == 50
