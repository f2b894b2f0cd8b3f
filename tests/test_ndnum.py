import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from occfill import ndnum
from occfill.errors import PreconditionError, ShapeMismatchError
from test_completion import stable_sigmoid


# Gradient-check oracles: a plain layer stack and central differences.

class Network:
    """A plain stack of dense layers, enough for gradient checking."""

    def __init__(self, layers):
        if not layers:
            raise PreconditionError("network needs at least one layer")
        for prev, nxt in zip(layers, layers[1:]):
            if prev.out_dim != nxt.in_dim:
                raise ShapeMismatchError("layer chain", (nxt.in_dim,), (prev.out_dim,))
        self.layers = list(layers)

    def forward(self, x):
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, upstream):
        """Returns (per-layer (dW, db) list, gradient wrt network input)."""
        grads = [None] * len(self.layers)
        for i in range(len(self.layers) - 1, -1, -1):
            grads[i], upstream = self.layers[i].backward(upstream)
        return grads, upstream

    def params(self):
        out = []
        for layer in self.layers:
            out.extend(layer.params())
        return out


def finite_diff_check(network, x, epsilon):
    """Max relative error between analytic and central-difference gradients.

    The scalar loss is the sum of the network outputs. Every parameter entry
    is perturbed by +/- epsilon; the relative error of a pair (a, n) is
    |a - n| / max(|a|, |n|, 1e-12) and the maximum over all entries is
    returned.
    """
    if not (0.0 < epsilon <= 1e-2):
        raise PreconditionError(f"epsilon must lie in (0, 1e-2], got {epsilon}")
    x = np.asarray(x, dtype=np.float64)

    out = network.forward(x)
    layer_grads, _ = network.backward(np.ones_like(out))
    analytic = []
    for dw, db in layer_grads:
        analytic.extend([dw, db])

    worst = 0.0
    params = network.params()
    for arr, grad in zip(params, analytic):
        flat = arr.ravel()
        gflat = grad.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            hi = network.forward(x).sum()
            flat[i] = orig - epsilon
            lo = network.forward(x).sum()
            flat[i] = orig
            numeric = (hi - lo) / (2.0 * epsilon)
            denom = max(abs(gflat[i]), abs(numeric), 1e-12)
            worst = max(worst, abs(gflat[i] - numeric) / denom)
    # restore caches to a consistent state for any later backward call
    network.forward(x)
    return worst


def test_dense_forward_hand_example():
    # weights [[1, 2]], bias [1], identity: 1*3 + 2*4 + 1 = 12
    layer = ndnum.DenseLayer([[1.0, 2.0]], [1.0], "identity")
    out = layer.forward(np.array([3.0, 4.0])[:, None])[:, 0]
    assert out.shape == (1,)
    assert out[0] == pytest.approx(12.0, abs=1e-12)


def test_dense_forward_zero_weights_sigmoid_is_half():
    layer = ndnum.DenseLayer(np.zeros((3, 5)), np.zeros(3), "sigmoid")
    out = layer.forward(np.arange(5.0)[:, None])
    assert np.allclose(out, 0.5, atol=1e-15)


def test_dense_forward_identity_weights_identity_activation():
    layer = ndnum.DenseLayer(np.eye(4), np.zeros(4), "identity")
    x = np.array([0.5, -1.0, 2.0, 0.0])[:, None]
    assert np.array_equal(layer.forward(x), x)


def test_dense_forward_dimension_mismatch_names_both_sides():
    layer = ndnum.DenseLayer(np.ones((2, 3)), np.zeros(2))
    with pytest.raises(ShapeMismatchError) as exc:
        layer.forward(np.ones((4, 1)))
    assert "(4" in str(exc.value) and "3" in str(exc.value)


def test_dense_forward_refuses_a_vector():
    # One sample is a batch of one column; a 1-d input of the right length
    # is refused, not promoted.
    layer = ndnum.DenseLayer(np.ones((2, 3)), np.zeros(2))
    with pytest.raises(ShapeMismatchError):
        layer.forward(np.ones(3))
    layer.forward(np.ones((3, 1)))
    with pytest.raises(ShapeMismatchError):
        layer.backward(np.ones(2))


def test_dense_backward_before_forward_errors():
    layer = ndnum.DenseLayer(np.ones((2, 2)), np.zeros(2))
    with pytest.raises(PreconditionError, match="before forward"):
        layer.backward(np.ones((2, 1)))


def test_dense_backward_zero_upstream_gives_zero_grads():
    rng = ndnum.Rng(7)
    layer = ndnum.DenseLayer.init(4, 3, rng, "relu")
    layer.forward(rng.gen.normal(size=(4, 1)))
    (dw, db), dx = layer.backward(np.zeros((3, 1)))
    assert not dw.any() and not db.any() and not dx.any()


def test_dense_backward_single_weight_linear_grad_is_input():
    # f(w) = w * x, df/dw = x
    layer = ndnum.DenseLayer([[2.0]], [0.0], "identity")
    layer.forward([[3.5]])
    (dw, db), dx = layer.backward([[1.0]])
    assert dw[0, 0] == pytest.approx(3.5, abs=1e-15)
    assert db[0] == pytest.approx(1.0, abs=1e-15)
    assert dx[0] == pytest.approx(2.0, abs=1e-15)


def scaled_layer(in_dim, out_dim, rng, activation, scale):
    """A layer drawn like `DenseLayer.init`, with weights at `scale`."""
    w = rng.gen.normal(size=(out_dim, in_dim)) * scale
    return ndnum.DenseLayer(w, np.zeros(out_dim), activation)


@pytest.mark.parametrize("activation", ndnum.ACTIVATIONS)
@pytest.mark.parametrize("batch", [1, 4])
def test_split_gradients_equal_the_parts_of_backward(activation, batch):
    rng = ndnum.Rng(13)
    layer = scaled_layer(5, 3, rng.split("layer"), activation, scale=0.8)
    layer.forward(rng.split("x").gen.normal(size=(5, batch)))
    up = rng.split("up").gen.normal(size=(3, batch))
    (dw, db), dx = layer.backward(up)
    pw, pb = layer.param_grads(up)
    assert np.array_equal(pw, dw) and np.array_equal(pb, db)
    assert np.array_equal(layer.input_grad(up), dx)


def test_split_gradients_need_a_forward():
    layer = ndnum.DenseLayer(np.ones((2, 2)), np.zeros(2))
    with pytest.raises(PreconditionError, match="before forward"):
        layer.param_grads(np.ones((2, 1)))
    with pytest.raises(PreconditionError, match="before forward"):
        layer.input_grad(np.ones((2, 1)))


def test_dense_backward_matches_central_differences():
    rng = ndnum.Rng(11)
    layer = scaled_layer(5, 4, rng, "sigmoid", scale=0.7)
    net = Network([layer])
    err = finite_diff_check(net, rng.gen.normal(size=(5, 1)), 1e-6)
    assert err < 1e-5


def _fd_oracle_valid(net, x, kink_margin=1e-3, grad_floor=1e-6):
    """Central differences only certify gradients away from relu kinks and
    away from zero; near-cancelled entries drown in float64 rounding noise.
    Configs violating either condition are redrawn rather than measured."""
    out = net.forward(x)
    for layer in net.layers:
        if layer.activation == "relu" and np.abs(layer._cache[1]).min() < kink_margin:
            return False
    grads, _ = net.backward(np.ones_like(out))
    for dw, db in grads:
        for g in (np.abs(dw.ravel()), np.abs(db.ravel())):
            tiny = g[(g > 0.0) & (g < grad_floor)]
            if tiny.size:  # exactly-flat entries are fine, near-cancelled are not
                return False
    return True


def test_network_gradient_check_100_random_configs():
    rng = ndnum.Rng(23)
    checked = 0
    attempt = 0
    while checked < 100:
        r = rng.split(f"cfg{attempt}")
        attempt += 1
        dims = [int(d) for d in r.gen.integers(1, 17, 3)]
        acts = ["relu", "sigmoid", "identity"]
        layers = [
            scaled_layer(dims[0], dims[1], r.split("l1"),
                         acts[int(r.gen.integers(0, 3))], scale=0.6),
            scaled_layer(dims[1], dims[2], r.split("l2"),
                         acts[int(r.gen.integers(0, 3))], scale=0.6),
        ]
        net = Network(layers)
        x = r.gen.normal(size=(dims[0], 1))
        if not _fd_oracle_valid(net, x):
            continue
        err = finite_diff_check(net, x, 1e-5)
        assert err < 1e-4, f"config {attempt - 1}: max rel error {err}"
        checked += 1
    assert attempt < 200  # redraws should be the exception


def test_finite_diff_constant_network_error_zero():
    # all weights zero, identity: loss is constant in the input but linear in
    # bias, and weight grads equal the input exactly; use zero input too so
    # every gradient is exactly reproduced by differences
    layer = ndnum.DenseLayer(np.zeros((2, 3)), np.zeros(2), "identity")
    net = Network([layer])
    err = finite_diff_check(net, np.zeros((3, 1)), 1e-5)
    assert err <= 1e-9


def test_finite_diff_epsilon_validation():
    layer = ndnum.DenseLayer(np.zeros((1, 1)), np.zeros(1))
    net = Network([layer])
    for bad in (0.0, -1e-5, 0.5):
        with pytest.raises(PreconditionError):
            finite_diff_check(net, np.zeros(1), bad)


def test_sgd_step_hand_values():
    p = [np.array([1.0])]
    g = [np.array([2.0])]
    ndnum.sgd_step(p, g, 0.1, "descend")
    assert p[0][0] == pytest.approx(0.8, abs=1e-15)
    ndnum.sgd_step(p, g, 0.1, "ascend")
    assert p[0][0] == pytest.approx(1.0, abs=1e-15)


def test_sgd_step_zero_grads_identity():
    p = [np.array([0.3, -0.7]), np.array([[1.5]])]
    kept = [a.copy() for a in p]
    g = [np.zeros(2), np.zeros((1, 1))]
    ndnum.sgd_step(p, g, 0.5, "descend")
    for a, b in zip(p, kept):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("direction", ["ascend", "descend"])
def test_sgd_step_is_exact_in_place_and_leaves_grads_untouched(direction):
    # Small layers, and parameters of more than SGD_BLOCK values: a long
    # vector and a transposed (non-contiguous) matrix, stepped in blocks.
    rng = ndnum.Rng(5)
    shapes = [(6, 4), (6,), (3 * ndnum.SGD_BLOCK + 5,)]
    params = [rng.split(f"p{i}").gen.normal(size=s) for i, s in enumerate(shapes)]
    params.append(rng.split("wide").gen.normal(size=(300, 50)).T)
    grads = [rng.split(f"g{i}").gen.normal(size=p.shape) for i, p in enumerate(params)]
    assert not params[-1].flags.c_contiguous and params[-1].size > ndnum.SGD_BLOCK
    arrays = list(params)
    start = [p.copy() for p in params]
    kept = [g.copy() for g in grads]
    rate = 2e-3
    assert ndnum.sgd_step(params, grads, rate, direction) is None
    for new, array, p, g in zip(params, arrays, start, grads):
        want = p + g * rate if direction == "ascend" else p - g * rate
        assert new is array and np.array_equal(new, want)
    assert all(np.array_equal(g, k) for g, k in zip(grads, kept))


def test_sgd_step_validates_inputs():
    with pytest.raises(PreconditionError):
        ndnum.sgd_step([np.zeros(2)], [np.zeros(3)], 0.1, "descend")
    with pytest.raises(PreconditionError):
        ndnum.sgd_step([np.zeros(2)], [np.zeros(2)], -0.1, "descend")
    with pytest.raises(PreconditionError):
        ndnum.sgd_step([np.zeros(2)], [np.zeros(2)], 0.1, "sideways")


@pytest.mark.parametrize("param", [np.zeros(2, dtype=np.int64),
                                   np.zeros(2, dtype=np.float32), [0.0, 0.0],
                                   np.array(0.0)])
def test_sgd_step_refuses_params_it_cannot_step_in_place(param):
    with pytest.raises(PreconditionError, match="writable float64"):
        ndnum.sgd_step([param], [np.ones(np.shape(param))], 0.1, "ascend")


def test_sgd_step_refuses_read_only_params():
    p = np.zeros(2)
    p.setflags(write=False)
    with pytest.raises(PreconditionError, match="writable float64"):
        ndnum.sgd_step([p], [np.ones(2)], 0.1, "ascend")


def test_sgd_step_checks_every_shape_before_moving_a_param():
    first = np.zeros(2)
    with pytest.raises(ShapeMismatchError):
        ndnum.sgd_step([first, np.zeros(2)], [np.ones(2), np.ones(3)], 0.1, "ascend")
    assert np.array_equal(first, np.zeros(2))


def test_sgd_step_checks_the_stepped_params_finite():
    p = [np.array([1e308])]
    with np.errstate(over="ignore"):
        with pytest.raises(PreconditionError, match="sgd step"):
            ndnum.sgd_step(p, [np.array([1.0])], 1e308, "ascend")


# Dyadic rationals keep every product and sum exact in float64, which is what
# makes ascend-then-descend an exact identity.
dyadic = st.integers(-2**20, 2**20).map(lambda n: n / 2.0**20)


@settings(max_examples=200, deadline=None)
@given(st.lists(dyadic, min_size=1, max_size=8), st.lists(dyadic, min_size=1, max_size=8),
       st.sampled_from([0.5, 0.25, 0.125, 0.0625]))
def test_sgd_ascend_then_descend_restores_exactly(pvals, gvals, rate):
    n = min(len(pvals), len(gvals))
    p = [np.array(pvals[:n])]
    g = [np.array(gvals[:n])]
    start = p[0].copy()
    ndnum.sgd_step(p, g, rate, "ascend")
    ndnum.sgd_step(p, g, rate, "descend")
    assert np.array_equal(p[0], start)


def test_rng_same_seed_same_sequence():
    a = ndnum.Rng(42).gen.normal(size=16)
    b = ndnum.Rng(42).gen.normal(size=16)
    assert np.array_equal(a, b)


def test_rng_split_streams_are_independent_of_sibling_order():
    root = ndnum.Rng(5)
    first = root.split("synth").gen.normal(size=8)
    root2 = ndnum.Rng(5)
    _ = root2.split("train").gen.normal(size=8)  # unrelated sibling drawn first
    second = root2.split("synth").gen.normal(size=8)
    assert np.array_equal(first, second)


def test_rng_distinct_labels_differ():
    root = ndnum.Rng(9)
    a = root.split("a").gen.normal(size=32)
    b = root.split("b").gen.normal(size=32)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("seed", [-1, 2 ** 128, 2 ** 200])
def test_rng_refuses_seeds_outside_128_bits(seed):
    with pytest.raises(PreconditionError, match=r"below 2\*\*128"):
        ndnum.Rng(seed)


def test_rng_takes_the_largest_128_bit_seed():
    seed = 2 ** 128 - 1
    assert np.array_equal(ndnum.Rng(seed).gen.random(4),
                          oracle_stream(seed).random(4))


def oracle_stream(seed, *labels):
    """Philox generator keyed by the SHA-256 chain of the seed and labels."""
    key = hashlib.sha256(b"occfill:" + seed.to_bytes(16, "little")).digest()
    for label in labels:
        key = hashlib.sha256(key + b"/" + label.encode("utf-8")).digest()
    philox = np.random.Philox(key=np.frombuffer(key[:16], dtype=np.uint64))
    return np.random.Generator(philox)


def test_rng_streams_draw_what_the_key_chain_gives():
    root = ndnum.Rng(42)
    assert np.array_equal(root.gen.normal(size=6), oracle_stream(42).normal(size=6))
    # a parent that is only ever split, as per-iteration streams are
    step = root.split("step-7")
    child = step.split("a")
    assert np.array_equal(child.gen.choice(300, size=32, replace=False),
                          oracle_stream(42, "step-7", "a").choice(
                              300, size=32, replace=False))
    # a parent drawn from before and after a split keeps its own sequence
    parent = root.split("iter-3")
    want = oracle_stream(42, "iter-3")
    assert np.array_equal(parent.gen.random(4), want.random(size=4))
    grandchild = parent.split("disc-0").split("x")
    assert np.array_equal(parent.gen.integers(0, 1000, 5), want.integers(0, 1000, size=5))
    want = oracle_stream(42, "iter-3", "disc-0", "x")
    assert np.array_equal(grandchild.gen.permutation(20), want.permutation(20))
    assert np.array_equal(grandchild.gen.uniform(-1.0, 2.0, 3),
                          want.uniform(-1.0, 2.0, size=3))


def test_clamp_prob_bounds():
    p = ndnum.clamp_prob(np.array([0.0, 0.5, 1.0]))
    assert p[0] == 1e-7 and p[2] == 1.0 - 1e-7 and p[1] == 0.5
    assert np.isfinite(np.log(p)).all()
    assert np.isfinite(np.log(1.0 - p)).all()


def test_sigmoid_extremes_stay_finite():
    z = np.array([-1000.0, -20.0, 0.0, 20.0, 1000.0])
    p = ndnum.sigmoid(z)
    assert np.all((p >= 0.0) & (p <= 1.0))
    assert p[2] == 0.5


EDGES = np.array([0.0, -0.0, 745.0, -745.0, 800.0, -800.0, 1e308, -1e308,
                  np.inf, -np.inf, np.nan, 5e-324, -5e-324, 36.7, -36.7])


def same_bits(got, want):
    """Equal bit for bit, the sign of zero included; NaN matches NaN."""
    nan = np.isnan(want)
    return (np.array_equal(np.isnan(got), nan)
            and np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64)))


def test_sigmoid_is_the_two_mask_form_bit_for_bit():
    # stable_sigmoid is the form ndnum computed with two boolean masks.
    z = np.concatenate([EDGES, ndnum.Rng(3).gen.normal(size=100_000) * 40.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ndnum.sigmoid(z)
        assert float(ndnum.sigmoid(np.array(-0.75))) == float(stable_sigmoid(np.array(-0.75)))
    assert same_bits(got, stable_sigmoid(z))
    assert got[0] == got[1] == 0.5


def test_clamp_prob_is_clip_bit_for_bit():
    p = np.concatenate([EDGES, [1e-7, 1e-7 * (1 - 1e-16), 1.0 - 1e-7, 1.0, 0.5],
                        ndnum.Rng(4).gen.random(1000)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ndnum.clamp_prob(p)
    assert same_bits(got, np.clip(p, 1e-7, 1.0 - 1e-7))


def test_rekeyed_generator_draws_what_each_stream_draws():
    shared = ndnum.RekeyedGenerator()
    root = ndnum.Rng(42)
    x, y = root.split("step-3").split("a"), root.split("step-3").split("b")
    drawn = shared.start(x)
    first = drawn.choice(175, size=32, replace=False)
    drawn.random(1)
    # x's draws leave a part-used buffer and a held 32-bit half behind.
    state = drawn.bit_generator.state
    assert state["buffer_pos"] not in (0, 4) and state["has_uint32"] == 1
    # A bounded draw rejects a zero word, so a stale buffer of zeros would
    # hide behind one; a uniform draw comes first and shows it.
    on_y = shared.start(y)
    want = oracle_stream(42, "step-3", "b")
    assert np.array_equal(on_y.random(3), want.random(size=3))
    assert np.array_equal(on_y.choice(175, size=32, replace=False),
                          want.choice(175, size=32, replace=False))
    assert np.array_equal(on_y.integers(0, 1000, size=5), want.integers(0, 1000, size=5))
    # Re-keyed to x again, the stream starts over.
    assert np.array_equal(shared.start(x).choice(175, size=32, replace=False), first)
    assert np.array_equal(first, oracle_stream(42, "step-3", "a").choice(
        175, size=32, replace=False))
