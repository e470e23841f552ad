"""Three-layer actor/critic networks with exact analytic gradients.

Both heads share one architecture: input -> 64 tanh -> 64 tanh -> linear
output (softmax probabilities for the actor, a scalar value for the critic).
Everything is float64 numpy; forward passes cache activations and the
backward pass is hand-written reverse mode, so gradient checks against
central finite differences are meaningful to ~1e-9.

Checkpoints are a line-oriented text format (shape header, then one
whitespace-separated row of repr floats per array) so that saved parameters
round-trip bit-for-bit.
"""

from dataclasses import dataclass

import numpy as np

HIDDEN = 64
EPS_P = 1e-8  # probability floor; keeps ln p finite at near-one-hot policies
FINAL_LAYER_SCALE = 0.1  # shrinks initial logits so the starting policy is near-uniform


@dataclass
class MLPParams:
    """Weights and biases of one three-layer network (also used for grads)."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray

    def validate(self):
        if self.w1.shape[1] != self.w2.shape[0] or self.w2.shape[1] != self.w3.shape[0]:
            raise ValueError("layer dimensions do not chain")
        for name, arr in self.arrays():
            if not np.all(np.isfinite(arr)):
                raise ValueError("non-finite parameters in %s" % name)

    def arrays(self):
        return (
            ("w1", self.w1), ("b1", self.b1),
            ("w2", self.w2), ("b2", self.b2),
            ("w3", self.w3), ("b3", self.b3),
        )

    @property
    def in_dim(self):
        return self.w1.shape[0]

    @property
    def out_dim(self):
        return self.w3.shape[1]


def init_params(seed, in_dim: int, out_dim: int, hidden: int = HIDDEN) -> MLPParams:
    """Glorot-uniform weights, zero biases, final layer shrunk.

    ``seed`` may be an int or a numpy Generator. The output-layer scale
    keeps the initial actor close to uniform (max/min probability ratio
    stays under 2 on O(1) inputs).
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)

    def glorot(n_in, n_out, scale=1.0):
        limit = scale * np.sqrt(6.0 / (n_in + n_out))
        return rng.uniform(-limit, limit, size=(n_in, n_out))

    params = MLPParams(
        w1=glorot(in_dim, hidden),
        b1=np.zeros(hidden),
        w2=glorot(hidden, hidden),
        b2=np.zeros(hidden),
        w3=glorot(hidden, out_dim, scale=FINAL_LAYER_SCALE),
        b3=np.zeros(out_dim),
    )
    params.validate()
    return params


def zeros_like_params(params: MLPParams) -> MLPParams:
    return MLPParams(*(np.zeros_like(arr) for _, arr in params.arrays()))


@dataclass(frozen=True)
class ActionDistribution:
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
    h1 = np.tanh(x @ params.w1 + params.b1)
    h2 = np.tanh(h1 @ params.w2 + params.b2)
    out = h2 @ params.w3 + params.b3
    return out, (x, h1, h2)


def backward(params: MLPParams, cache, d_out: np.ndarray) -> MLPParams:
    """Reverse-mode gradients from d(loss)/d(raw output).

    Returns parameter-shaped gradients. Raises on non-finite intermediates
    so a diverging update fails loudly instead of poisoning the parameters.
    """
    x, h1, h2 = cache
    d_out = np.atleast_2d(np.asarray(d_out, dtype=np.float64))
    x2, h1, h2 = np.atleast_2d(x), np.atleast_2d(h1), np.atleast_2d(h2)

    dw3 = h2.T @ d_out
    db3 = d_out.sum(axis=0)
    dh2 = d_out @ params.w3.T
    dz2 = dh2 * (1.0 - h2 * h2)
    dw2 = h1.T @ dz2
    db2 = dz2.sum(axis=0)
    dh1 = dz2 @ params.w2.T
    dz1 = dh1 * (1.0 - h1 * h1)
    dw1 = x2.T @ dz1
    db1 = dz1.sum(axis=0)

    grads = MLPParams(w1=dw1, b1=db1, w2=dw2, b2=db2, w3=dw3, b3=db3)
    for name, arr in grads.arrays():
        if not np.all(np.isfinite(arr)):
            raise ValueError("non-finite gradient in %s" % name)
    return grads


def softmax_probs(logits: np.ndarray) -> np.ndarray:
    """Stabilized softmax with the probability floor applied.

    The floor only binds when a raw probability drops below 1e-8 (logit
    spreads past ~18); the backward pass treats it as inactive.
    """
    # ``.max``/``.sum`` dispatch to these reductions; calling them directly
    # skips the methods' Python wrappers on the one-row acting path.
    z = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / np.add.reduce(e, axis=-1, keepdims=True)
    p = np.maximum(p, EPS_P)
    p = p / np.add.reduce(p, axis=-1, keepdims=True)
    return np.maximum(p, EPS_P)


def actor_forward(params: MLPParams, obs) -> ActionDistribution:
    logits, _ = forward_cache(params, obs)
    p = softmax_probs(logits)
    return ActionDistribution(probabilities=p, log_probabilities=np.log(p))


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


def params_to_text(params: MLPParams) -> str:
    """Serialize to the text checkpoint block (exact float round-trip)."""
    lines = [
        "mlp %d %d %d %d"
        % (params.in_dim, params.w1.shape[1], params.w2.shape[1], params.out_dim)
    ]
    for name, arr in params.arrays():
        flat = arr.reshape(-1)
        lines.append("%s %s" % (name, " ".join(repr(float(v)) for v in flat)))
    return "\n".join(lines) + "\n"


def params_from_text(text: str) -> MLPParams:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty network block")
    head = lines[0].split()
    if head[0] != "mlp" or len(head) != 5:
        raise ValueError("bad checkpoint header: %r" % lines[0])
    in_dim, h1, h2, out_dim = (int(v) for v in head[1:])
    shapes = {
        "w1": (in_dim, h1), "b1": (h1,),
        "w2": (h1, h2), "b2": (h2,),
        "w3": (h2, out_dim), "b3": (out_dim,),
    }
    arrays = {}
    for ln in lines[1:]:
        name, _, rest = ln.partition(" ")
        if name not in shapes:
            raise ValueError("unknown checkpoint array %r" % name)
        vals = np.array([float(v) for v in rest.split()], dtype=np.float64)
        want = int(np.prod(shapes[name]))
        if vals.size != want:
            raise ValueError("%s has %d values, expected %d" % (name, vals.size, want))
        arrays[name] = vals.reshape(shapes[name])
    missing = set(shapes) - set(arrays)
    if missing:
        raise ValueError("checkpoint missing arrays: %s" % sorted(missing))
    params = MLPParams(**arrays)
    params.validate()
    return params
