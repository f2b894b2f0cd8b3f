"""Numeric core: labelled random streams, dense layers with hand-written
reverse-mode gradients, and SGD stepping.

Everything is float64 numpy. Values crossing a public boundary are checked
finite, so NaN or inf surfaces as an error at the operation that produced it
instead of three modules later.

Random streams are split by label, not by call order: a child stream's key is
a hash of the parent key and the label string, so inserting a new consumer in
the pipeline never shifts what existing consumers draw.
"""

from __future__ import annotations

import functools
import hashlib
import math

import numpy as np

from .errors import PreconditionError, ShapeMismatchError

PROB_EPS = 1e-7

ACTIVATIONS = ("identity", "relu", "sigmoid")

# Values per temporary of g·rate in `sgd_step`. Stepping the 64 x 784
# discriminator weights through one full-size (400 KB) temporary cost
# about 164 minor page faults a step and slowed a full-space probe step
# from about 0.75 to 1.2 ms; with blocks of 8192 values (64 KB) it took
# none (2-vCPU x86 host, one BLAS thread, numpy 2.4).
SGD_BLOCK = 8192


def check_finite(arr, context):
    if not np.isfinite(arr).all():
        raise PreconditionError(f"{context}: non-finite value encountered")
    return arr


def relu(z):
    return np.maximum(z, 0.0)


def sigmoid(z):
    """Numerically stable logistic function.

    With e = exp(-|z|), which never overflows, it is 1 / (1 + e) for
    z >= 0 and e / (1 + e) below: the two branches of the textbook stable
    form, each on the values it is meant for, so -0 gives 0.5 and NaN
    stays NaN.
    """
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def clamp_prob(p):
    """Clamp probabilities away from 0 and 1 so logs stay finite."""
    return np.minimum(np.maximum(p, PROB_EPS), 1.0 - PROB_EPS)


def philox_key(key):
    """The two Philox key words of a stream key: its first 16 bytes, read
    as native-endian uint64."""
    return np.frombuffer(key[:16], dtype=np.uint64)


class Rng:
    """Deterministic counter-based random stream with labelled splitting.

    Identical seed and call sequence give bit-identical draws. `split`
    derives an independent child stream from a text label; two children of
    the same parent with different labels never share output. Draws go
    through `gen`, the stream's numpy generator.
    """

    def __init__(self, seed, _key=None):
        if _key is None:
            seed = int(seed)
            if not 0 <= seed < 2 ** 128:
                raise PreconditionError(
                    "seed must be non-negative and below 2**128")
            _key = hashlib.sha256(b"occfill:" + seed.to_bytes(16, "little")).digest()
        self._key = _key

    @functools.cached_property
    def gen(self):
        """The stream's Philox generator, keyed by `philox_key`.

        Built on first use: streams that are only ever split, such as the
        per-iteration parents of a training loop, skip the Philox set-up.
        """
        return np.random.Generator(np.random.Philox(key=philox_key(self._key)))

    def split(self, label):
        """Child stream fully determined by (parent key, label)."""
        if not label:
            raise PreconditionError("split label must be non-empty")
        child = hashlib.sha256(self._key + b"/" + label.encode("utf-8")).digest()
        return Rng(None, _key=child)


class RekeyedGenerator:
    """One Philox generator, re-keyed to the start of stream after stream.

    ``start(rng)`` returns the generator in the state ``rng.gen`` starts
    in: the stream's `philox_key`, with the counter, the buffer and the
    32-bit carry at zero. So the draws that follow are exactly those
    ``rng.gen`` would make, whatever was drawn before on another stream.
    Assigning that state took 1.4 µs where setting up a new Philox
    generator took 18 (2-vCPU x86 host, numpy 2.4), so a loop that draws a
    few values from each of many streams keeps one of these.
    """

    def __init__(self):
        self._generator = np.random.Generator(np.random.Philox(key=0))
        self._key = {"counter": (0, 0, 0, 0), "key": (0, 0)}
        self._state = {"bit_generator": "Philox", "state": self._key,
                       "buffer": (0, 0, 0, 0), "buffer_pos": 4,
                       "has_uint32": 0, "uinteger": 0}

    def start(self, rng):
        self._key["key"] = philox_key(rng._key)
        self._generator.bit_generator.state = self._state
        return self._generator


class DenseLayer:
    """Fully connected layer with a cached forward pass for backprop.

    Weights have shape (out_dim, in_dim). `forward` takes a column batch
    (in_dim, n), one sample per column, and caches input, pre-activation
    and activation; `backward` replays the cache to produce parameter and
    input gradients. Cached and returned arrays are never written to
    afterwards.
    """

    def __init__(self, weights, bias, activation="identity"):
        weights = np.asarray(weights, dtype=np.float64)
        bias = np.asarray(bias, dtype=np.float64)
        if weights.ndim != 2:
            raise PreconditionError(f"weights must be 2-d, got {weights.ndim}-d")
        if bias.ndim != 1 or bias.shape[0] != weights.shape[0]:
            raise ShapeMismatchError("bias", bias, (weights.shape[0],))
        if activation not in ACTIVATIONS:
            raise PreconditionError(f"unknown activation {activation!r}")
        check_finite(weights, "dense weights")
        check_finite(bias, "dense bias")
        self.weights = weights
        self.bias = bias
        self.activation = activation
        self._cache = None

    @classmethod
    def init(cls, in_dim, out_dim, rng, activation="identity"):
        """Random small-weight initialization with scale 1/sqrt(in_dim)."""
        w = rng.gen.normal(size=(out_dim, in_dim)) * (1.0 / np.sqrt(in_dim))
        b = np.zeros(out_dim)
        return cls(w, b, activation)

    @property
    def in_dim(self):
        return self.weights.shape[1]

    @property
    def out_dim(self):
        return self.weights.shape[0]

    def forward(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] != self.in_dim:
            raise ShapeMismatchError("dense input", x, (self.in_dim, -1))
        z = self.weights @ x
        z += self.bias[:, None]
        if self.activation == "relu":
            a = relu(z)
        elif self.activation == "sigmoid":
            a = sigmoid(z)
        else:
            a = z
        self._cache = (x, z, a)
        check_finite(a, "dense output")
        return a

    def _pre_activation_grad(self, upstream):
        """(cached input, gradient at the pre-activation)."""
        if self._cache is None:
            raise PreconditionError("backward called before forward")
        x, z, a = self._cache
        up = np.asarray(upstream, dtype=np.float64)
        if up.shape != (self.out_dim, x.shape[1]):
            raise ShapeMismatchError("upstream gradient", up, (self.out_dim, x.shape[1]))
        if self.activation == "relu":
            dz = up * (z > 0)
        elif self.activation == "sigmoid":
            dz = up * a * (1.0 - a)
        else:
            dz = up
        return x, dz

    def backward(self, upstream):
        """Gradients for the most recent forward; returns ((dW, db), dx)."""
        x, dz = self._pre_activation_grad(upstream)
        return (dz @ x.T, dz.sum(axis=1)), self.weights.T @ dz

    def param_grads(self, upstream):
        """(dW, db) for the most recent forward, without the input gradient."""
        x, dz = self._pre_activation_grad(upstream)
        return dz @ x.T, dz.sum(axis=1)

    def input_grad(self, upstream):
        """dx for the most recent forward, without the parameter gradients."""
        _, dz = self._pre_activation_grad(upstream)
        return self.weights.T @ dz

    def params(self):
        return [self.weights, self.bias]


def sgd_step(params, grads, rate, direction):
    """One SGD update of a parameter list, in place.

    direction "ascend" moves along the gradient, "descend" against it. Each
    parameter p becomes p + t or p - t with the identical product
    t = g * rate, so an ascend followed by a descend with the same inputs
    retraces the same floating-point operations. p is written in place, so
    it must be a writable float64 array of at least one dimension; g is
    left untouched. t is formed for SGD_BLOCK values at a time, as slices
    of p's first axis, which are views whatever p's layout. Every shape is
    checked before any parameter moves, and every stepped parameter is
    checked finite.
    """
    if direction not in ("ascend", "descend"):
        raise PreconditionError(f"direction must be ascend or descend, got {direction!r}")
    if rate <= 0 or not math.isfinite(rate):
        raise PreconditionError(f"rate must be positive and finite, got {rate}")
    if len(params) != len(grads):
        raise PreconditionError(f"{len(params)} params but {len(grads)} grads")
    for p, g in zip(params, grads):
        if not (isinstance(p, np.ndarray) and p.dtype == np.float64
                and p.ndim >= 1 and p.flags.writeable):
            raise PreconditionError("sgd params must be writable float64 arrays "
                                    "of at least one dimension")
        if np.shape(g) != p.shape:
            raise ShapeMismatchError("sgd grad", np.shape(g), p)
    move = np.add if direction == "ascend" else np.subtract
    for p, g in zip(params, grads):
        g = np.asarray(g)
        rows = max(1, SGD_BLOCK * len(p) // max(p.size, 1))
        for start in range(0, len(p), rows):
            block = p[start:start + rows]
            move(block, np.multiply(g[start:start + rows], rate), out=block)
        check_finite(p, "sgd step")
