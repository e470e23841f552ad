import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from pedalrl.nets import (
    EPS_P,
    ActionDistribution,
    MLPParams,
    actor_forward,
    backward,
    forward_cache,
    init_params,
    params_from_text,
    params_to_text,
    sample_action,
    softmax_probs,
    zeros_like_params,
)
from pedalrl.ppo import critic_values, entropy_term, load_checkpoint, make_agent, save_checkpoint


class ScriptedRNG:
    """Stands in for a Generator; returns pre-chosen uniforms and counts draws."""

    def __init__(self, values):
        self.values = list(values)
        self.calls = 0

    def random(self):
        self.calls += 1
        return self.values.pop(0)


def test_init_shapes_and_bias():
    p = init_params(np.random.default_rng(0), 5, 3, hidden=16)
    assert p.w1.shape == (5, 16)
    assert p.w2.shape == (16, 16)
    assert p.w3.shape == (16, 3)
    assert not p.b1.any() and not p.b2.any() and not p.b3.any()
    assert p.in_dim == 5 and p.out_dim == 3


def test_init_policy_near_uniform():
    for seed in range(5):
        p = init_params(np.random.default_rng(seed), 6, 5)
        probs = actor_forward(p, np.random.default_rng(seed).uniform(-1, 1, 6)).probabilities
        assert probs.max() / probs.min() < 2.0


def test_init_seed_reproducible():
    a = init_params(11, 4, 2)
    b = init_params(11, 4, 2)
    for x, y in zip(a.arrays(), b.arrays()):
        assert np.array_equal(x[1], y[1])


def test_softmax_sums_to_one_and_shift_invariant():
    rng = np.random.default_rng(2)
    for _ in range(20):
        logits = rng.normal(0, 5, size=7)
        p = softmax_probs(logits)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        shifted = softmax_probs(logits + 123.456)
        assert np.allclose(p, shifted, atol=1e-12)


def test_softmax_floor_under_extreme_logits():
    p = softmax_probs(np.array([0.0, -1000.0, -1000.0]))
    assert p.min() >= EPS_P / 2
    assert p.sum() == pytest.approx(1.0, abs=1e-9)


def test_forward_rejects_wrong_dimension():
    p = init_params(0, 5, 3)
    with pytest.raises(ValueError):
        forward_cache(p, np.zeros(4))


def test_backward_matches_finite_differences():
    # scalar loss c . f(x): d_out = c
    rng = np.random.default_rng(8)
    p = init_params(rng, 4, 3, hidden=8)
    x = rng.uniform(-1, 1, 4)
    c = rng.normal(size=3)

    def loss():
        out, _ = forward_cache(p, x)
        return float(out @ c)

    out, cache = forward_cache(p, x)
    grads = backward(p, cache, c)
    for (name, g), (_, arr) in zip(grads.arrays(), p.arrays()):
        fd = oracles.central_difference(loss, arr)
        assert np.allclose(g, fd, rtol=1e-6, atol=1e-8), name


def test_critic_values_batch():
    p = init_params(3, 6, 1)
    batch = critic_values(p, np.zeros((4, 6)))
    assert batch.shape == (4,)


def test_sample_action_inverse_cdf():
    dist = ActionDistribution(
        probabilities=np.array([0.2, 0.5, 0.3]),
        log_probabilities=np.log(np.array([0.2, 0.5, 0.3])),
    )
    for u, expected in ((0.05, 0), (0.19, 0), (0.21, 1), (0.69, 1), (0.71, 2), (0.99, 2)):
        rng = ScriptedRNG([u])
        action, logp = sample_action(dist, rng)
        assert action == expected
        assert logp == dist.log_probabilities[expected]
        assert rng.calls == 1


def test_sample_action_frequencies():
    p = np.array([0.1, 0.2, 0.3, 0.25, 0.15])
    dist = ActionDistribution(probabilities=p, log_probabilities=np.log(p))
    rng = np.random.default_rng(123)
    n = 20000
    counts = np.zeros(5)
    for _ in range(n):
        a, _ = sample_action(dist, rng)
        counts[a] += 1
    freq = counts / n
    sigma = np.sqrt(p * (1 - p) / n)
    assert np.all(np.abs(freq - p) < 3.5 * sigma)


def test_entropy_bounds_and_hand_value():
    p = np.array([0.25, 0.75])
    expected = -(0.25 * math.log(0.25) + 0.75 * math.log(0.75))
    assert entropy_term(p) == pytest.approx(expected, rel=1e-14)

    uniform = np.full(4, 0.25)
    assert entropy_term(uniform) == pytest.approx(math.log(4), abs=1e-12)


def test_text_round_trip_exact():
    rng = np.random.default_rng(4)
    p = init_params(rng, 5, 5, hidden=8)
    # poke in awkward values that stress repr round-tripping
    p.w1[0, 0] = 1e-300
    p.w1[0, 1] = -0.0
    p.b3[0] = 1.0 / 3.0
    text = params_to_text(p)
    q = params_from_text(text)
    for (name, a), (_, b) in zip(p.arrays(), q.arrays()):
        assert np.array_equal(a, b), name


def test_text_rejects_corruption(tmp_path):
    p = init_params(0, 3, 2, hidden=4)
    text = params_to_text(p)
    with pytest.raises(ValueError):
        params_from_text(text.replace("mlp 3 4 4 2", "mlp 3 4 4 5"))
    with pytest.raises(ValueError):
        params_from_text("\n".join(text.splitlines()[:3]))
    with pytest.raises(ValueError, match="empty"):
        params_from_text("")

    # a truncated checkpoint names the section and the array
    rng = np.random.default_rng(0)
    path = tmp_path / "agents.ckpt"
    save_checkpoint(path, make_agent(rng, 5, 5, 8), make_agent(rng, 6, 2, 8))
    lines = path.read_text().splitlines()
    at = lines.index("section machine.actor") + 4  # header, w1, b1, then w2
    assert lines[at].startswith("w2 ")
    lines[at] = " ".join(lines[at].split()[:50])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="^machine.actor: w2 has 49 values, expected 4096$"):
        load_checkpoint(path)


def test_zeros_like_params():
    p = init_params(1, 4, 2)
    z = zeros_like_params(p)
    for name, arr in z.arrays():
        assert not arr.any(), name
        assert arr.shape == dict(p.arrays())[name].shape


def assert_flat_views(p):
    """Every array of ``p`` is a view of its vector, in w1 b1 w2 b2 w3 b3 order."""
    base = p.vector.__array_interface__["data"][0]
    offset = 0
    for name, arr in p.arrays():
        assert np.shares_memory(arr, p.vector), name
        assert arr.__array_interface__["data"][0] == base + 8 * offset, name
        offset += arr.size
    assert offset == p.vector.size
    p.vector[-1] += 1.0  # a write through the vector shows in the last view
    assert p.b3[-1] == p.vector[-1]
    p.vector[-1] -= 1.0


def test_params_are_views_of_one_vector(tmp_path):
    rng = np.random.default_rng(9)
    p = init_params(rng, 5, 3, hidden=7)
    assert p.vector.shape == (5 * 7 + 7 + 7 * 7 + 7 + 7 * 3 + 3,)
    assert_flat_views(p)
    assert_flat_views(params_from_text(params_to_text(p)))
    assert_flat_views(zeros_like_params(p))
    path = tmp_path / "agents.ckpt"
    save_checkpoint(path, make_agent(rng, 5, 5, 8), make_agent(rng, 6, 2, 8))
    for name, net in load_checkpoint(path).items():
        if name != "meta":
            assert_flat_views(net)

    q = copy.deepcopy(p)
    assert_flat_views(q)
    assert q.dims == p.dims
    assert not np.shares_memory(q.vector, p.vector)
    assert np.array_equal(q.vector, p.vector)
    q.w2[0, 0] += 1.0
    assert q.vector[5 * 7 + 7] == p.vector[5 * 7 + 7] + 1.0  # the copy alone moved


def test_backward_into_buffer_matches_plain_products():
    # writing into a reused flat buffer gives the bits of the plain products
    rng = np.random.default_rng(13)
    for out_dim in (5, 2, 1):
        p = init_params(rng, 6, out_dim)
        buf = zeros_like_params(p)
        for b in (1, 7, 64):
            x = rng.uniform(-1, 1, (b, 6))
            d_out = rng.normal(size=(b, out_dim))
            _, (x2, h1, h2) = forward_cache(p, x)
            dz2 = (d_out @ p.w3.T) * (1.0 - h2 * h2)
            dz1 = (dz2 @ p.w2.T) * (1.0 - h1 * h1)
            want = {
                "w3": h2.T @ d_out, "b3": d_out.sum(axis=0),
                "w2": h1.T @ dz2, "b2": dz2.sum(axis=0),
                "w1": x2.T @ dz1, "b1": dz1.sum(axis=0),
            }
            grads = backward(p, forward_cache(p, x)[1], d_out, buf)
            assert grads is buf
            for name, arr in grads.arrays():
                assert np.array_equal(arr.view(np.uint64), want[name].view(np.uint64)), name


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_gradient_names_its_array():
    # the message names the first array, in w1 b1 w2 b2 w3 b3 order
    p = init_params(0, 3, 2, hidden=4)
    out, cache = forward_cache(p, np.zeros((2, 3)))
    with pytest.raises(ValueError, match="non-finite gradient in w1"):
        backward(p, cache, np.array([[np.inf, 0.0], [0.0, 0.0]]))
    p.w2[1, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite parameters in w2"):
        p.validate()


def test_vector_must_match_dims():
    with pytest.raises(ValueError, match="does not match"):
        MLPParams((2, 3, 3, 1), np.zeros(5))


# Checkpoint-like text: a header of small or odd tokens, then named rows of
# numeric-looking tokens, or free text.
_tokens = st.one_of(
    st.integers(-2, 4).map(str), st.floats().map(repr), st.text(max_size=4)
)
_rows = st.lists(
    st.tuples(
        st.sampled_from(("w1", "b1", "w2", "b2", "w3", "b3", "w4", "")),
        st.lists(_tokens, max_size=12),
    ),
    max_size=8,
)
_blocks = st.one_of(
    st.text(),
    st.builds(
        lambda head, rows: "\n".join(
            ["mlp " + " ".join(head)] + ["%s %s" % (n, " ".join(t)) for n, t in rows]
        ),
        st.lists(_tokens, min_size=3, max_size=5),
        _rows,
    ),
)


@settings(max_examples=300, deadline=None)
@given(_blocks)
def test_params_from_text_raises_only_value_error(text):
    try:
        p = params_from_text(text)
    except ValueError:
        return
    assert_flat_views(p)


@settings(max_examples=60, deadline=None)
@given(dims=st.tuples(*[st.integers(1, 5)] * 4), data=st.data())
def test_text_round_trip_is_bitwise(dims, data):
    p = MLPParams(dims)
    n = p.vector.size
    values = data.draw(
        st.lists(
            st.one_of(
                st.floats(allow_nan=False, allow_infinity=False),
                st.sampled_from((-0.0, 1e-300, 5e-324, 1.0 / 3.0)),
            ),
            min_size=n,
            max_size=n,
        )
    )
    p.vector[:] = values
    p.vector[0], p.vector[-1] = -0.0, 1e-300
    q = params_from_text(params_to_text(p))
    assert q.dims == dims
    assert np.array_equal(q.vector.view(np.uint64), p.vector.view(np.uint64))
