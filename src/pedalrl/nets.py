"""Three-layer actor/critic networks with exact analytic gradients.

Both heads share one architecture: input -> 64 tanh -> 64 tanh -> linear
output (softmax probabilities for the actor, a scalar value for the critic).
Everything is float64 numpy; forward passes cache activations and the
backward pass is hand-written reverse mode, so gradient checks against
central finite differences are meaningful to ~1e-9.

Each network's parameters live in one flat float64 vector, ``w1 b1 w2 b2
w3 b3`` in that order, each array row-major; the named arrays are views of
it. Gradients share the layout, so the PPO update writes them into reused
buffers and steps a network with one vector operation. The layout changes
where the values sit, not the arithmetic: every product and sum keeps its
operands, shapes and order, so an acting row's output has the same bits as
with separately allocated arrays, and so do trained parameters.

Every matrix product, in ``forward_cache`` and in ``backward``, is
``ndarray.dot``: it reaches the same BLAS call as ``@`` and
``np.matmul(out=)``, so the bits are those of the matmul composition
(pinned in tests/test_nets.py at one and two BLAS threads), with less
dispatch per call. ``backward`` takes the cache and ``d_out`` of a
minibatch, 2-D as the PPO update makes them, and writes its weight
gradients with ``dot(out=)`` straight into the views of a gradient buffer
the caller reuses.

Acting normalizes one row of 5 or 2 logits per call. ``softmax_probs``
does that on Python floats (one ``exp`` ufunc, then plain loops) rather
than with nine ufunc calls on a 5- or 2-element array. It adds in the
order numpy uses for rows that short, so a row gets the bits it would get
inside a PPO minibatch.

This module reads and writes no files: ``ppo.save_checkpoint`` and
``ppo.load_checkpoint`` own the checkpoint text that holds the arrays.
"""

import math
from typing import NamedTuple

import numpy as np

HIDDEN = 64
EPS_P = 1e-8  # probability floor; keeps ln p finite at near-one-hot policies
FINAL_LAYER_SCALE = 0.1  # shrinks initial logits so the starting policy is near-uniform
ROW_PATH_MAX = 8  # softmax_probs normalizes 1-D rows narrower than this on Python floats


def layer_shapes(in_dim: int, hidden1: int, hidden2: int, out_dim: int) -> tuple:
    """(name, shape) of each array, in the order they sit in the flat vector."""
    return (
        ("w1", (in_dim, hidden1)), ("b1", (hidden1,)),
        ("w2", (hidden1, hidden2)), ("b2", (hidden2,)),
        ("w3", (hidden2, out_dim)), ("b3", (out_dim,)),
    )


class MLPParams:
    """Weights and biases of one three-layer network (also used for grads).

    ``vector`` holds every value as one float64 array; ``w1 b1 w2 b2 w3 b3``
    are row-major views of consecutive slices of it, made once here. Writing
    through either side changes the other. ``dims`` is
    ``(in_dim, hidden1, hidden2, out_dim)``; without a ``vector`` the
    parameters start at zero. Values are not checked for finiteness here;
    ``first_nonfinite`` names the first array holding a bad one.
    """

    def __init__(self, dims: tuple, vector: np.ndarray = None):
        shapes = layer_shapes(*dims)
        size = sum(math.prod(shape) for _, shape in shapes)
        if vector is None:
            vector = np.zeros(size)
        elif vector.shape != (size,) or vector.dtype != np.float64:
            raise ValueError("parameter vector does not match dims %s" % (dims,))
        self.dims = tuple(dims)
        self.vector = vector
        lo = 0
        for name, shape in shapes:
            hi = lo + math.prod(shape)
            setattr(self, name, vector[lo:hi].reshape(shape))
            lo = hi

    def __reduce__(self):
        # copy.deepcopy (and pickle) copy the vector once and rebuild the views
        return MLPParams, (self.dims, self.vector)

    def first_nonfinite(self):
        """Name of the first array holding a non-finite value, or None."""
        for name, arr in self.arrays():
            if not np.isfinite(arr).all():
                return name
        return None

    def arrays(self):
        return tuple((name, getattr(self, name)) for name, _ in layer_shapes(*self.dims))

    @property
    def in_dim(self):
        return self.dims[0]


def init_params(
    rng: np.random.Generator, in_dim: int, out_dim: int, hidden: int = HIDDEN
) -> MLPParams:
    """Glorot-uniform weights drawn from ``rng``, zero biases, final layer shrunk.

    The output-layer scale keeps the initial actor close to uniform
    (max/min probability ratio stays under 2 on O(1) inputs). The weights
    are bounded uniform draws, so they are finite.
    """
    params = MLPParams((in_dim, hidden, hidden, out_dim))
    for w, scale in ((params.w1, 1.0), (params.w2, 1.0), (params.w3, FINAL_LAYER_SCALE)):
        limit = scale * np.sqrt(6.0 / (w.shape[0] + w.shape[1]))
        w[...] = rng.uniform(-limit, limit, size=w.shape)
    return params


def zeros_like_params(params: MLPParams) -> MLPParams:
    return MLPParams(params.dims)


class ActionDistribution(NamedTuple):
    """Floored, normalized action probabilities and their logs."""

    probabilities: np.ndarray
    log_probabilities: np.ndarray


def _check_obs(params, x):
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != params.in_dim:
        raise ValueError(
            "observation dimension %d does not match network input %d"
            % (x.shape[-1], params.in_dim)
        )
    return x


def forward_cache(params: MLPParams, x: np.ndarray):
    """Raw network output plus the activations the backward pass needs.

    ``x`` is (B, in_dim) or (in_dim,); the output keeps the leading shape.
    """
    x = _check_obs(params, x)
    # Bias adds and tanh run in place on each product: the same arithmetic
    # as ``np.tanh(x @ w + b)`` without its temporaries. ``ndarray.dot``
    # reaches the same BLAS gemv/gemm as ``@`` (same bits, pinned in
    # tests/test_nets.py) with less dispatch, which counts on one-row input.
    h1 = x.dot(params.w1)
    h1 += params.b1
    np.tanh(h1, out=h1)
    h2 = h1.dot(params.w2)
    h2 += params.b2
    np.tanh(h2, out=h2)
    out = h2.dot(params.w3)
    out += params.b3
    return out, (x, h1, h2)


def backward(params: MLPParams, cache, d_out: np.ndarray, out: MLPParams) -> MLPParams:
    """Reverse-mode gradients from d(loss)/d(raw output), written into ``out``.

    ``cache`` is the ``forward_cache`` of a (B, in_dim) minibatch and
    ``d_out`` a float64 array of shape (B, out_dim); ``out`` is an
    MLPParams of ``params.dims``, returned. Raises on a non-finite gradient
    so a diverging update fails loudly instead of poisoning the parameters.

    Every product is ``ndarray.dot``, the weight gradients written with
    ``out=`` into their views: the bits of ``@`` and ``np.matmul(out=)``
    with less dispatch, which counts on 64-row minibatches.
    """
    x, h1, h2 = cache

    # dz = dh * (1 - h * h), built in place on dh and on one h * h temporary
    h2.T.dot(d_out, out=out.w3)
    np.add.reduce(d_out, axis=0, out=out.b3)
    dz2 = d_out.dot(params.w3.T)
    tanh_grad2 = h2 * h2
    dz2 *= np.subtract(1.0, tanh_grad2, out=tanh_grad2)
    h1.T.dot(dz2, out=out.w2)
    np.add.reduce(dz2, axis=0, out=out.b2)
    dz1 = dz2.dot(params.w2.T)
    tanh_grad1 = h1 * h1
    dz1 *= np.subtract(1.0, tanh_grad1, out=tanh_grad1)
    x.T.dot(dz1, out=out.w1)
    np.add.reduce(dz1, axis=0, out=out.b1)

    if not np.isfinite(out.vector).all():
        raise ValueError("non-finite gradient in %s" % out.first_nonfinite())
    return out


def softmax_probs(logits: np.ndarray) -> np.ndarray:
    """Stabilized softmax with the probability floor applied.

    The floor only binds when a raw probability drops below 1e-8 (logit
    spreads past ~18); the backward pass treats it as inactive.

    A 1-D row of fewer than ``ROW_PATH_MAX`` logits (every acting row) is
    normalized on Python floats; anything else (PPO minibatches, wider
    rows) on arrays. Both give the same bits: numpy sums fewer than 8
    values left to right, which the row path's explicit ``+=`` loops repeat
    (``sum()`` may compensate, so it is not used), and ``EPS_P if q <
    EPS_P else q`` keeps a NaN as ``np.maximum`` does. From 8 values on,
    numpy sums in unrolled partial sums, so wider rows stay on arrays.
    """
    if logits.ndim == 1 and len(logits) < ROW_PATH_MAX:
        e = np.exp(logits - max(logits.tolist())).tolist()
        s = 0.0
        for v in e:
            s += v
        p = []
        t = 0.0
        for v in e:
            q = v / s
            q = EPS_P if q < EPS_P else q
            p.append(q)
            t += q
        out = []
        for v in p:
            q = v / t
            out.append(EPS_P if q < EPS_P else q)
        return np.array(out)
    # ``.max``/``.sum`` dispatch to these reductions; calling them directly
    # skips the methods' Python wrappers.
    z = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / np.add.reduce(e, axis=-1, keepdims=True)
    p = np.maximum(p, EPS_P)
    p = p / np.add.reduce(p, axis=-1, keepdims=True)
    return np.maximum(p, EPS_P)


def actor_forward(params: MLPParams, obs) -> ActionDistribution:
    logits, _ = forward_cache(params, obs)
    p = softmax_probs(logits)
    return ActionDistribution(p, np.log(p))


def sample_action(dist: ActionDistribution, rng) -> tuple:
    """Draw one action index; returns (index, log_prob).

    Consumes exactly one uniform from ``rng`` by inverse-CDF walk, so the
    stream position never depends on the probabilities themselves.
    """
    u = rng.random()
    p = dist.probabilities.tolist()
    acc = 0.0
    idx = len(p) - 1
    for j, p_j in enumerate(p):
        acc += p_j
        if u < acc:
            idx = j
            break
    return idx, float(dist.log_probabilities[idx])


def greedy_action(dist: ActionDistribution) -> tuple:
    """The most probable action index; returns (index, log_prob).

    The first of tied maxima, as ``np.argmax`` picks, found on Python
    floats. ``softmax_probs`` gives a row with no NaN or with NaN
    everywhere; the latter yields index 0, as ``np.argmax`` does. Consumes
    no randomness.
    """
    p = dist.probabilities.tolist()
    idx = p.index(max(p))
    return idx, float(dist.log_probabilities[idx])
