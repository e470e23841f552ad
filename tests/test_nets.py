import copy
import math
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import run_at_blas_threads
from pedalrl.nets import (
    EPS_P,
    ROW_PATH_MAX,
    ActionDistribution,
    MLPParams,
    actor_forward,
    backward,
    forward_cache,
    greedy_action,
    init_params,
    sample_action,
    softmax_probs,
    zeros_like_params,
)
from pedalrl.ppo import (
    CHECKPOINT_SIZES,
    Agent,
    critic_values,
    entropy_term,
    load_checkpoint,
    make_agent,
    save_checkpoint,
)


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
    assert p.in_dim == 5 and p.dims[3] == 3


def test_init_policy_near_uniform():
    for seed in range(5):
        p = init_params(np.random.default_rng(seed), 6, 5)
        probs = actor_forward(p, np.random.default_rng(seed).uniform(-1, 1, 6)).probabilities
        assert probs.max() / probs.min() < 2.0


def test_init_seed_reproducible():
    a = init_params(np.random.default_rng(11), 4, 2)
    b = init_params(np.random.default_rng(11), 4, 2)
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


def assert_row_matches_batch(row):
    """A 1-D row's probabilities have the bits of the same row in a batch;
    NaN sits exactly where the batch path puts it."""
    row = np.asarray(row, dtype=np.float64)
    with np.errstate(invalid="ignore", over="ignore"):
        got = softmax_probs(row)
        want = softmax_probs(row[None])[0]
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan), (row, got, want)
    assert got[~nan].tobytes() == want[~nan].tobytes(), (row, got, want)


def test_softmax_row_path_is_bitwise_batch_path():
    rng = np.random.default_rng(11)
    for width in range(1, 8):
        for scale in (1e-3, 0.1, 1.0, 5.0, 30.0, 300.0):  # 30 and up bind the floor
            for _ in range(60):
                assert_row_matches_batch(rng.normal(0.0, scale, size=width))
        assert_row_matches_batch(np.full(width, 2.5))  # all tied
        assert_row_matches_batch(np.r_[[-0.0], np.zeros(width - 1)])
        assert_row_matches_batch(np.r_[np.full(width - 1, -np.inf), [0.0]])
    for row in (
        [1.0, 1.0, 0.5, -0.5, 1.0],  # tied maxima
        [0.0, -0.0, -0.0],
        [-0.0, 0.0],
        [0.0, -20.0, -40.0, 3.0, -19.5],  # floor binds on two entries
        [0.0, -np.inf, 1.0],
        [-np.inf, -np.inf],  # NaN everywhere
        [np.inf, 0.0, 1.0],
        [np.inf, np.inf, 0.0],
        [np.nan, 0.0, 1.0],
        [0.0, 1.0, np.nan],
        [np.nan],
    ):
        assert_row_matches_batch(row)
    with np.errstate(invalid="ignore"):
        for row in ([np.inf, 0.0], [0.0, np.nan, 2.0]):
            assert np.isnan(softmax_probs(np.array(row))).all()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=7))
def test_softmax_row_path_matches_batch_on_any_finite_row(row):
    assert_row_matches_batch(row)


def test_numpy_sums_fewer_than_eight_left_to_right():
    """The reason for ROW_PATH_MAX: numpy's reduction adds fewer than 8
    values left to right, as the row path does, and 8 or more in unrolled
    partial sums, so a left-to-right row of 8 would change bits."""
    rng = np.random.default_rng(5)

    def left_to_right(values):
        s = 0.0
        for v in values.tolist():
            s += v
        return s

    assert ROW_PATH_MAX == 8
    for width in range(1, 8):
        for _ in range(500):
            e = rng.uniform(0.0, 1.0, size=width)
            assert left_to_right(e) == np.add.reduce(e)
    rows = rng.uniform(0.0, 1.0, size=(500, 8))
    assert any(left_to_right(e) != np.add.reduce(e) for e in rows)
    # so a row of 8 or more takes the batch path and keeps its bits
    for width in (8, 9, 12):
        for row in rng.normal(0.0, 3.0, size=(200, width)):
            assert_row_matches_batch(row)


def test_forward_rejects_wrong_dimension():
    p = init_params(np.random.default_rng(0), 5, 3)
    with pytest.raises(ValueError):
        forward_cache(p, np.zeros(4))


@pytest.mark.parametrize("rows", [None, 1, 64, 256, 300, 511, 2100])
def test_forward_equals_matmul_composition(rows):
    # forward_cache multiplies with ndarray.dot; a numpy or BLAS whose dot
    # and matmul round differently fails here, for one acting row (None) as
    # for a PPO minibatch or a whole buffer
    rng = np.random.default_rng(29)
    for in_dim, out_dim in ((5, 5), (6, 2), (6, 1)):
        p = init_params(rng, in_dim, out_dim)
        x = rng.uniform(-2, 2, in_dim if rows is None else (rows, in_dim))
        h1 = np.tanh(np.matmul(x, p.w1) + p.b1)
        h2 = np.tanh(np.matmul(h1, p.w2) + p.b2)
        want = np.matmul(h2, p.w3) + p.b3
        out, (_, c1, c2) = forward_cache(p, x)
        for got, ref in ((out, want), (c1, h1), (c2, h2)):
            assert got.shape == ref.shape
            assert got.tobytes() == ref.tobytes(), (in_dim, out_dim)


BACKWARD_SNIPPET = """
import sys
sys.path.insert(0, sys.argv[1])
import numpy as np
import oracles
from pedalrl.nets import backward, forward_cache, init_params, zeros_like_params
rng = np.random.default_rng(31)
for rows in (1, 52, 64, 256, 300, 2100):
    for in_dim, out_dim in ((5, 5), (6, 2), (6, 1)):
        p = init_params(rng, in_dim, out_dim)
        _, cache = forward_cache(p, rng.uniform(-2, 2, (rows, in_dim)))
        d_out = rng.normal(size=(rows, out_dim))
        got = backward(p, cache, d_out, zeros_like_params(p)).vector.tobytes()
        want = oracles.matmul_backward(p, cache, d_out).vector.tobytes()
        print(rows, in_dim, out_dim, got == want)
"""


@pytest.mark.parametrize("threads", [1, 2])
def test_backward_equals_matmul_composition(threads):
    # backward multiplies with ndarray.dot; it must give the gradient bytes of
    # the np.atleast_2d / np.matmul composition at the same BLAS thread count
    # (large minibatches may differ between thread counts, on either side)
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    lines = run_at_blas_threads(threads, BACKWARD_SNIPPET, tests_dir).decode().splitlines()
    assert len(lines) == 6 * 3
    assert [ln for ln in lines if not ln.endswith(" True")] == []


def test_backward_matches_finite_differences():
    # scalar loss c . f(x) on one row: d_out = c
    rng = np.random.default_rng(8)
    p = init_params(rng, 4, 3, hidden=8)
    x = rng.uniform(-1, 1, 4)[None]
    c = rng.normal(size=3)

    def loss():
        out, _ = forward_cache(p, x)
        return float(out[0] @ c)

    out, cache = forward_cache(p, x)
    grads = backward(p, cache, c[None], zeros_like_params(p))
    for (name, g), (_, arr) in zip(grads.arrays(), p.arrays()):
        fd = oracles.central_difference(loss, arr)
        assert np.allclose(g, fd, rtol=1e-6, atol=1e-8), name


def test_critic_values_batch():
    p = init_params(np.random.default_rng(3), 6, 1)
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


def _dist(p):
    p = np.asarray(p, dtype=np.float64)
    return ActionDistribution(probabilities=p, log_probabilities=np.log(p))


@pytest.mark.parametrize("width", [2, 5])
def test_greedy_action_is_numpy_argmax(width):
    rng = np.random.default_rng(width)
    for _ in range(2000):
        logits = rng.normal(size=width) * 10.0 ** rng.integers(-3, 3)
        dist = _dist(softmax_probs(logits))
        idx, logp = greedy_action(dist)
        assert idx == int(np.argmax(dist.probabilities))
        assert logp == float(dist.log_probabilities[idx])
    for _ in range(500):  # unnormalized rows, any scale
        p = rng.random(width) * 10.0 ** rng.integers(-12, 3)
        assert greedy_action(_dist(p))[0] == int(np.argmax(p))


def test_greedy_action_takes_first_of_ties():
    assert greedy_action(_dist([0.2, 0.4, 0.4]))[0] == 1
    assert greedy_action(_dist([0.25] * 4))[0] == 0
    assert greedy_action(_dist([0.5, 0.5]))[0] == 0
    assert greedy_action(_dist([EPS_P, 1.0 - EPS_P, 1.0 - EPS_P]))[0] == 1


def test_greedy_action_on_a_nan_row_is_numpy_argmax():
    # a non-finite logit makes every probability of the row NaN
    for logits in ([0.0, np.inf, 1.0], [np.nan, 0.0], [-np.inf] * 5):
        with np.errstate(invalid="ignore"):
            p = softmax_probs(np.array(logits))
        assert np.isnan(p).all()
        assert greedy_action(_dist(p))[0] == int(np.argmax(p)) == 0


def test_greedy_action_returns_greedy_policy_log_prob():
    # the (index, log-probability) pair GreedyPolicy.act returned as
    # int(np.argmax(p)) and float(log_probabilities[index])
    rng = np.random.default_rng(11)
    for in_dim, n_actions in ((5, 5), (6, 2)):
        params = init_params(rng, in_dim, n_actions)
        params.vector *= 20.0  # sharpen the policy so the argmax varies
        for _ in range(300):
            dist = actor_forward(params, rng.normal(size=in_dim))
            want = int(np.argmax(dist.probabilities))
            idx, logp = greedy_action(dist)
            assert (idx, logp) == (want, float(dist.log_probabilities[want]))
            assert type(idx) is int and type(logp) is float


def test_entropy_bounds_and_hand_value():
    p = np.array([0.25, 0.75])
    expected = -(0.25 * math.log(0.25) + 0.75 * math.log(0.75))
    assert entropy_term(p, np.log(p)) == pytest.approx(expected, rel=1e-14)

    uniform = np.full(4, 0.25)
    assert entropy_term(uniform, np.log(uniform)) == pytest.approx(math.log(4), abs=1e-12)


def save_networks(path, nets):
    """Save a checkpoint of ``nets``, {section name: MLPParams}; returns its lines."""
    human = Agent(nets["human.actor"], nets["human.critic"], None)
    machine = Agent(nets["machine.actor"], nets["machine.critic"], None)
    save_checkpoint(path, human, machine, meta={})
    return path.read_text().splitlines()


def section_lines(lines, name):
    """The mlp line and the six array lines of section ``name``."""
    at = lines.index("section %s" % name) + 1
    return lines[at:at + 7]


def per_element_lines(params):
    """The section lines ``save_checkpoint`` must write, value by value."""
    return ["mlp %d %d %d %d" % params.dims] + [
        "%s %s" % (name, " ".join(repr(float(v)) for v in arr.reshape(-1)))
        for name, arr in params.arrays()
    ]


def assert_bits_equal(p, q):
    assert q.dims == p.dims
    assert np.array_equal(q.vector.view(np.uint64), p.vector.view(np.uint64))


def test_text_round_trip_exact(tmp_path):
    rng = np.random.default_rng(4)
    nets = {name: init_params(rng, *sizes, hidden=8) for name, sizes in CHECKPOINT_SIZES.items()}
    p = nets["human.actor"]
    # poke in awkward values that stress repr round-tripping
    p.w1[0, 0] = 1e-300
    p.w1[0, 1] = -0.0
    p.b3[0] = 1.0 / 3.0
    lines = save_networks(tmp_path / "agents.ckpt", nets)
    assert section_lines(lines, "human.actor") == per_element_lines(p)
    assert_bits_equal(p, load_checkpoint(tmp_path / "agents.ckpt")["human.actor"])


def test_text_equals_per_element_repr(tmp_path):
    rng = np.random.default_rng(8)
    awkward = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308, 1e16])
    hidden = {"human.actor": 64, "human.critic": 7, "machine.actor": 64, "machine.critic": 7}
    nets = {}
    for name, (in_dim, out_dim) in CHECKPOINT_SIZES.items():
        p = nets[name] = init_params(rng, in_dim, out_dim, hidden=hidden[name])
        spots = rng.choice(p.vector.size, size=3 * awkward.size, replace=False)
        p.vector[spots] = np.tile(awkward, 3)
        p.vector[:] *= rng.choice((1.0, 1e-310), size=p.vector.size)  # subnormals
        subnormal = (p.vector != 0.0) & (np.abs(p.vector) < np.finfo(float).tiny)
        assert np.count_nonzero(subnormal) > p.vector.size // 4
    lines = save_networks(tmp_path / "agents.ckpt", nets)
    loaded = load_checkpoint(tmp_path / "agents.ckpt")
    for name, p in nets.items():
        assert section_lines(lines, name) == per_element_lines(p), name
        assert_bits_equal(p, loaded[name])


def test_text_rejects_corruption(tmp_path):
    # a truncated checkpoint names the file, the section, the line and the array
    rng = np.random.default_rng(0)
    path = tmp_path / "agents.ckpt"
    save_checkpoint(path, make_agent(rng, 5, 5, 8), make_agent(rng, 6, 2, 8), meta={})
    lines = path.read_text().splitlines()
    at = lines.index("section machine.actor") + 4  # header, w1, b1, then w2
    assert lines[at].startswith("w2 ")
    lines[at] = " ".join(lines[at].split()[:50])
    path.write_text("\n".join(lines) + "\n")
    want = "%s: machine.actor: line %d: w2 has 49 values, expected 4096" % (path, at + 1)
    with pytest.raises(ValueError, match="^%s$" % re.escape(want)):
        load_checkpoint(path)


def test_zeros_like_params():
    p = init_params(np.random.default_rng(1), 4, 2)
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
    assert_flat_views(zeros_like_params(p))
    path = tmp_path / "agents.ckpt"
    save_checkpoint(path, make_agent(rng, 5, 5, 8), make_agent(rng, 6, 2, 8), meta={})
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
    p = init_params(np.random.default_rng(0), 3, 2, hidden=4)
    out, cache = forward_cache(p, np.zeros((2, 3)))
    with pytest.raises(ValueError, match="non-finite gradient in w1"):
        backward(p, cache, np.array([[np.inf, 0.0], [0.0, 0.0]]), zeros_like_params(p))
    p.w2[1, 1] = np.nan
    assert p.first_nonfinite() == "w2"


def test_vector_must_match_dims():
    with pytest.raises(ValueError, match="does not match"):
        MLPParams((2, 3, 3, 1), np.zeros(5))


# A section's lines: a header of small or odd tokens, then named rows of
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
def test_loading_a_fuzzed_section_raises_only_value_error(text):
    # the human actor's section replaced in an otherwise valid checkpoint
    # (tempfile, since hypothesis cannot take tmp_path)
    rng = np.random.default_rng(0)
    nets = {name: init_params(rng, *sizes, hidden=2) for name, sizes in CHECKPOINT_SIZES.items()}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "agents.ckpt"
        lines = save_networks(path, nets)
        at = lines.index("section human.actor") + 1
        lines[at:at + 7] = [text]
        # surrogates in the text become bytes that are not UTF-8
        path.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogatepass"))
        try:
            loaded = load_checkpoint(path)
        except ValueError:
            return
    assert_flat_views(loaded["human.actor"])


@settings(max_examples=60, deadline=None)
@given(hidden=st.lists(st.tuples(st.integers(1, 5), st.integers(1, 5)), min_size=4, max_size=4),
       data=st.data())
def test_text_round_trip_is_bitwise(hidden, data):
    nets = {}
    for (name, (in_dim, out_dim)), (h1, h2) in zip(CHECKPOINT_SIZES.items(), hidden):
        p = nets[name] = MLPParams((in_dim, h1, h2, out_dim))
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
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "agents.ckpt"
        save_networks(path, nets)
        loaded = load_checkpoint(path)
    for name, p in nets.items():
        assert_bits_equal(p, loaded[name])
