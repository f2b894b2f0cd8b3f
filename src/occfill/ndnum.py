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

import hashlib

import numpy as np

from .errors import PreconditionError, ShapeMismatchError

PROB_EPS = 1e-7

ACTIVATIONS = ("identity", "relu", "sigmoid")


def check_finite(arr, context):
    if not np.isfinite(arr).all():
        raise PreconditionError(f"{context}: non-finite value encountered")
    return arr


def relu(z):
    return np.maximum(z, 0.0)


def sigmoid(z):
    """Numerically stable logistic function."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def clamp_prob(p):
    """Clamp probabilities away from 0 and 1 so logs stay finite."""
    return np.clip(p, PROB_EPS, 1.0 - PROB_EPS)


class Rng:
    """Deterministic counter-based random stream with labelled splitting.

    Identical seed and call sequence give bit-identical draws. `split`
    derives an independent child stream from a text label; two children of
    the same parent with different labels never share output.
    """

    def __init__(self, seed, _key=None):
        self.seed = int(seed)
        if self.seed < 0:
            raise PreconditionError("seed must be non-negative")
        if _key is None:
            _key = hashlib.sha256(b"occfill:" + self.seed.to_bytes(16, "little")).digest()
        self._key = _key
        self._generator = None

    @property
    def _gen(self):
        # Built on first draw: streams that are only ever split, such as the
        # per-iteration parents of a training loop, skip the Philox set-up.
        if self._generator is None:
            philox_key = np.frombuffer(self._key[:16], dtype=np.uint64)
            self._generator = np.random.Generator(np.random.Philox(key=philox_key))
        return self._generator

    def split(self, label):
        """Child stream fully determined by (parent key, label)."""
        if not label:
            raise PreconditionError("split label must be non-empty")
        child = hashlib.sha256(self._key + b"/" + label.encode("utf-8")).digest()
        return Rng(self.seed, _key=child)

    # Draw helpers delegate to the underlying generator.

    def normal(self, shape=None, loc=0.0, scale=1.0):
        return self._gen.normal(loc=loc, scale=scale, size=shape)

    def uniform(self, low=0.0, high=1.0, shape=None):
        return self._gen.uniform(low, high, size=shape)

    def random(self, shape=None):
        return self._gen.random(size=shape)

    def integers(self, low, high, shape=None):
        return self._gen.integers(low, high, size=shape)

    def choice(self, n, size=None, replace=True, p=None):
        return self._gen.choice(n, size=size, replace=replace, p=p)

    def permutation(self, n):
        return self._gen.permutation(n)


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
        w = rng.normal((out_dim, in_dim)) * (1.0 / np.sqrt(in_dim))
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

    def set_params(self, params):
        w, b = params
        if w.shape != self.weights.shape:
            raise ShapeMismatchError("weights", w, self.weights)
        if b.shape != self.bias.shape:
            raise ShapeMismatchError("bias", b, self.bias)
        self.weights = np.asarray(w, dtype=np.float64)
        self.bias = np.asarray(b, dtype=np.float64)


def sgd_step(params, grads, rate, direction):
    """One SGD update on a parameter list.

    direction "ascend" moves along the gradient, "descend" against it. The
    update is computed as p + t and p - t with the identical product
    t = g * rate, so an ascend followed by a descend with the same inputs
    retraces the same floating-point operations. The sum is written into
    t, so each parameter costs one new array; p and g are left untouched.
    """
    if direction not in ("ascend", "descend"):
        raise PreconditionError(f"direction must be ascend or descend, got {direction!r}")
    if rate <= 0 or not np.isfinite(rate):
        raise PreconditionError(f"rate must be positive and finite, got {rate}")
    if len(params) != len(grads):
        raise PreconditionError(f"{len(params)} params but {len(grads)} grads")
    out = []
    for p, g in zip(params, grads):
        p = np.asarray(p, dtype=np.float64)
        g = np.asarray(g, dtype=np.float64)
        if p.shape != g.shape:
            raise ShapeMismatchError("sgd grad", g, p)
        t = np.multiply(g, rate, out=np.empty_like(p))
        if direction == "ascend":
            np.add(p, t, out=t)
        else:
            np.subtract(p, t, out=t)
        check_finite(t, "sgd step")
        out.append(t)
    return out
