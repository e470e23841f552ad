import contextlib
import math
import socket
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_test_env
from pedalrl import bridge
from pedalrl.bridge import (
    ERR_BAD_AGENT,
    ERR_BAD_PAYLOAD,
    ERR_MALFORMED,
    ERR_UNEXPECTED_KIND,
    MAX_FRAME_BYTES,
    Frame,
    PolicyServer,
    ProtocolError,
    RemotePolicy,
    actors_from_checkpoint,
    decode_frame,
    encode_frame,
    parse_endpoint,
)
from pedalrl.episode import GreedyPolicy, SamplingPolicy, run_episode
from pedalrl.nets import init_params
from pedalrl.ppo import make_agent, save_checkpoint


def test_encode_decode_round_trip():
    frame = Frame("OBS", 12, 1, (0.5, -1.25, 3))
    line = encode_frame(frame)
    assert line == "OBS,12,1,0.5,-1.25,3\n"
    assert decode_frame(line) == frame


def test_extreme_floats_survive_the_wire():
    payload = (1e308, 1e-308, -0.0, 1 / 3, -2.2250738585072014e-308)
    back = decode_frame(encode_frame(Frame("OBS", 0, 0, payload))).payload
    for orig, got in zip(payload, back):
        assert got == orig
        assert math.copysign(1.0, got) == math.copysign(1.0, orig)


# Valid frames: any kind, a non-negative step, agent 0 or 1, and a payload of
# ints and non-NaN floats (NaN never compares equal, so no frame holding it does).
frames = st.builds(
    Frame,
    kind=st.sampled_from(bridge.KINDS),
    step=st.integers(0, 10**18),
    agent=st.sampled_from((0, 1)),
    payload=st.lists(
        st.one_of(st.integers(-(10**18), 10**18), st.floats(allow_nan=False)), max_size=8
    ).map(tuple),
)


@settings(max_examples=300, deadline=None)
@given(frames)
def test_decode_inverts_encode(frame):
    back = decode_frame(encode_frame(frame))
    assert back == frame
    for orig, got in zip(frame.payload, back.payload):
        assert type(got) is type(orig)
        assert math.copysign(1.0, got) == math.copysign(1.0, orig)


# Frame-like lines: comma-separated kinds, numbers and free text, with or
# without the newline, or any text at all.
_fields = st.one_of(
    st.sampled_from(bridge.KINDS),
    st.integers().map(str),
    st.floats().map(repr),
    st.text(max_size=6),
)
_lines = st.one_of(
    st.text(),
    st.builds(
        lambda toks, end: ",".join(toks) + end,
        st.lists(_fields, max_size=8),
        st.sampled_from(("\n", "", "\r\n")),
    ),
)


@settings(max_examples=500, deadline=None)
@given(_lines)
def test_decode_raises_only_protocol_error(line):
    try:
        frame = decode_frame(line)
    except ProtocolError:
        return
    assert frame.kind in bridge.KINDS and frame.step >= 0 and frame.agent in (0, 1)


def _decoded(decode, line):
    """What ``decode`` makes of ``line``: the frame with each payload value's
    type and repr (which tells -0.0 from 0.0 and matches NaN), or the code."""
    try:
        f = decode(line)
    except ProtocolError as exc:
        return ("error", exc.code)
    return (f.kind, f.step, f.agent, tuple((type(v), repr(v)) for v in f.payload))


# Payload tokens built from the characters of numbers, signs and words.
_numeric_lines = st.builds(
    lambda toks: "OBS,1,0," + ",".join(toks) + "\n",
    st.lists(st.text(alphabet="+-0123456789.eEinfatyxIN", max_size=7), min_size=1, max_size=6),
)


@settings(max_examples=800, deadline=None)
@given(st.one_of(frames.map(encode_frame), _lines, _numeric_lines))
def test_decode_matches_reference_decoder(line):
    assert _decoded(decode_frame, line) == _decoded(oracles.reference_decode_frame, line)


@pytest.mark.parametrize(
    "token,want",
    [
        ("+5", (int, "5")),
        ("-0", (int, "0")),
        ("007", (int, "7")),
        ("0x10", None),
        ("1e5", (float, "100000.0")),
        ("-0.0", (float, "-0.0")),
        ("nan", (float, "nan")),
        ("-inf", (float, "-inf")),
        ("+-5", None),
        ("--5", None),
        ("-", None),
        ("", None),
        ("\u00b2", None),  # isdigit() is true, int() rejects it
        ("\u0661", None),
        # under int()'s digit limit, and past it, where float() reads it
        pytest.param("4" * 4000, (int, "4" * 4000), id="4000-digits"),
        pytest.param("9" * 5000, (float, "inf"), id="5000-digits"),
        # float() reads every token first: int only for a sign and digits
        pytest.param("1" + "0" * 400, (int, "1" + "0" * 400), id="401-digits"),
        ("1e400", (float, "inf")),
        ("Infinity", (float, "inf")),
        ("NaN", (float, "nan")),
        ("0e0", (float, "0.0")),
        ("+0", (int, "0")),
    ],
)
def test_decode_payload_tokens(token, want):
    line = "OBS,1,0,0.5,%s\n" % token
    got = _decoded(decode_frame, line)
    assert got == _decoded(oracles.reference_decode_frame, line)
    if want is None:
        assert got == ("error", ERR_MALFORMED)
    else:
        assert got == ("OBS", 1, 0, ((float, "0.5"), want))


def test_thousand_frame_round_trip_identity():
    rng = np.random.default_rng(1)
    for i in range(1000):
        n = int(rng.integers(0, 7))
        payload = []
        for _ in range(n):
            if rng.random() < 0.3:
                payload.append(int(rng.integers(-100, 100)))
            else:
                payload.append(float(rng.normal() * 10.0 ** rng.integers(-12, 12)))
        frame = Frame(
            kind=("OBS", "ACT", "ERR", "BYE")[int(rng.integers(4))],
            step=int(rng.integers(0, 10**9)),
            agent=int(rng.integers(2)),
            payload=tuple(payload),
        )
        back = decode_frame(encode_frame(frame))
        assert back == frame
        assert tuple(type(v) for v in back.payload) == tuple(type(v) for v in frame.payload)


@pytest.mark.parametrize(
    "line,code",
    [
        ("OBS,7\n", ERR_MALFORMED),  # too few fields
        ("XYZ,1,0,0\n", ERR_MALFORMED),  # unknown kind
        ("OBS,1,0", ERR_MALFORMED),  # missing newline
        ("OBS,x,0\n", ERR_MALFORMED),  # non-integer step
        ("OBS,-1,0\n", ERR_MALFORMED),  # negative step
        ("OBS,1,0,abc\n", ERR_MALFORMED),  # non-numeric payload
        ("OBS,1,5\n", ERR_BAD_AGENT),
        ("OBS,1_0,0,0.5,1_0.5\n", ERR_MALFORMED),  # underscores in step and payload
        ("OBS,1,0,1_0.5\n", ERR_MALFORMED),
        ("OBS, 7,+1,0.5\n", ERR_MALFORMED),  # space before the step
        ("OBS,7,+1,0.5\n", ERR_MALFORMED),  # signed agent
        ("OBS,7,-1,0.5\n", ERR_MALFORMED),
        ("OBS,+7,1,0.5\n", ERR_MALFORMED),  # signed step
        ("OBS,7,1,0.5 \n", ERR_MALFORMED),  # trailing space in the payload
        ("OBS,7,1,0.5\r\n", ERR_MALFORMED),
        ("OBS,7,1,0.5,\t1.0\n", ERR_MALFORMED),
        ("OBS,\u0663,0,0.5\n", ERR_MALFORMED),  # a non-ASCII digit
        ("OBS,7,1,\u0661.5\n", ERR_MALFORMED),
        # beyond int()'s digit limit
        pytest.param("OBS,%s,0\n" % ("9" * 5000), ERR_MALFORMED, id="overlong-step"),
    ],
)
def test_decode_rejections(line, code):
    with pytest.raises(ProtocolError) as exc:
        decode_frame(line)
    assert exc.value.code == code


def test_decode_keeps_repr_floats_and_defers_non_finite():
    frame = decode_frame("OBS,0,0,1e-05,1e+16,-0.0,-2.5,3\n")
    assert frame.payload == (1e-05, 1e16, -0.0, -2.5, 3)
    assert math.copysign(1.0, frame.payload[2]) == -1.0
    srv = PolicyServer(("127.0.0.1", 0), make_actors())
    try:
        for bad in ("nan", "inf", "-inf"):
            frame = decode_frame("OBS,0,0,0.5,0.5,0.5,0.5,%s\n" % bad)
            with pytest.raises(ProtocolError) as exc:
                srv.respond(frame)
            assert exc.value.code == ERR_BAD_PAYLOAD
    finally:
        srv.server_close()


def test_payload_beyond_float_range_is_bad_payload(server):
    # an int token too large for a float is answered with ERR, and the
    # connection stays up
    with socket.create_connection(server.server_address, timeout=10) as sock:
        rfile = sock.makefile("r", encoding="ascii", newline="\n")
        try:
            sock.sendall(("OBS,0,0,1,1,1,1,%s\n" % ("9" * 400)).encode())
            assert decode_frame(rfile.readline()) == Frame("ERR", 0, 0, (ERR_BAD_PAYLOAD,))
            sock.sendall(b"OBS,1,0,1,1,1,1,1\n")
            assert decode_frame(rfile.readline()).kind == "ACT"
        finally:
            rfile.close()


def test_parse_endpoint():
    assert parse_endpoint("127.0.0.1:6000") == ("127.0.0.1", 6000)
    assert parse_endpoint("localhost:65535") == ("localhost", 65535)
    for bad in ("9000", "localhost:", "localhost:abc", ":80"):
        with pytest.raises(ValueError):
            parse_endpoint(bad)
    with pytest.raises(ValueError, match="127.0.0.1:99999"):
        parse_endpoint("127.0.0.1:99999")


def make_actors(seed=0):
    rng = np.random.default_rng(seed)
    return {0: init_params(rng, 5, 5), 1: init_params(rng, 6, 2)}


@contextlib.contextmanager
def serving(actors):
    """A PolicyServer for ``actors``, serving on a thread until the block ends."""
    srv = PolicyServer(("127.0.0.1", 0), actors)
    thread = threading.Thread(target=srv.serve_forever, kwargs={"poll_interval": 0.02})
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        thread.join()
        srv.server_close()


@pytest.fixture
def server():
    with serving(make_actors()) as srv:
        yield srv


def test_respond_semantics():
    srv = PolicyServer(("127.0.0.1", 0), make_actors())
    try:
        obs = tuple(np.linspace(-0.5, 0.5, 5))
        reply = srv.respond(Frame("OBS", 3, 0, obs))
        assert reply.kind == "ACT" and reply.step == 3 and reply.agent == 0
        assert len(reply.payload) == 1 and 0 <= reply.payload[0] < 5
        with pytest.raises(ProtocolError) as exc:
            srv.respond(Frame("OBS", 0, 0, obs[:-1]))
        assert exc.value.code == ERR_BAD_PAYLOAD
        with pytest.raises(ProtocolError) as exc:
            srv.respond(Frame("OBS", 0, 0, obs[:-1] + (float("nan"),)))
        assert exc.value.code == ERR_BAD_PAYLOAD
        with pytest.raises(ProtocolError) as exc:
            srv.respond(Frame("ACT", 0, 0, (1,)))
        assert exc.value.code == ERR_UNEXPECTED_KIND
    finally:
        srv.server_close()


def test_error_replies_keep_connection(server):
    host, port = server.server_address
    # close the duplicated file handle even on assertion failure, else the
    # single-threaded server stays blocked in the handler during teardown
    with socket.create_connection((host, port)) as sock:
        rfile = sock.makefile("r", encoding="ascii", newline="\n")
        try:
            sock.sendall(b"garbage line\n")
            reply = decode_frame(rfile.readline())
            assert reply.kind == "ERR" and reply.payload == (ERR_MALFORMED,)
            # connection survives: a valid OBS still gets its ACT
            obs = ",".join(repr(float(v)) for v in np.zeros(5))
            sock.sendall(("OBS,0,0,%s\n" % obs).encode())
            reply = decode_frame(rfile.readline())
            assert reply.kind == "ACT"
            # payload of the wrong arity is an ERR too, not a disconnect
            sock.sendall(b"OBS,1,0,1.0\n")
            reply = decode_frame(rfile.readline())
            assert reply.kind == "ERR" and reply.payload == (ERR_BAD_PAYLOAD,)
            sock.sendall(b"BYE,2,0\n")
            assert decode_frame(rfile.readline()).kind == "BYE"
        finally:
            rfile.close()


def test_overlong_line_gets_one_err_and_close(server):
    # a client that never sends a newline must not grow the server's memory:
    # it gets one ERR and the connection ends
    assert MAX_FRAME_BYTES < 64 * 1024
    with socket.create_connection(server.server_address, timeout=10) as sock:
        rfile = sock.makefile("r", encoding="ascii", newline="\n")
        try:
            sock.sendall(b"O" * (64 * 1024))
            reply = decode_frame(rfile.readline())
            assert reply == Frame("ERR", 0, 0, (ERR_MALFORMED,))
            try:
                rest = rfile.read()
            except ConnectionResetError:  # the server left unread input behind
                rest = ""
            assert rest == ""
        finally:
            rfile.close()
    # the server goes on serving the next client
    with RemotePolicy(*server.server_address, agent_id=0) as remote:
        idx, _ = remote.act(np.zeros(5), None)
    assert 0 <= idx < 5


def test_idle_client_is_dropped(server, monkeypatch, capsys):
    assert bridge._Handler.timeout == bridge.IDLE_TIMEOUT_S
    monkeypatch.setattr(bridge._Handler, "timeout", 0.3)
    with socket.create_connection(server.server_address, timeout=10) as idle:
        # sends nothing; the server closes the connection after the timeout
        assert idle.recv(1) == b""
    # and goes on serving the next client
    with RemotePolicy(*server.server_address, agent_id=1) as remote:
        idx, _ = remote.act(np.zeros(6), None)
    assert 0 <= idx < 2
    assert "Traceback" not in capsys.readouterr().err


def test_remote_policy_gives_up_on_silent_or_absent_server(monkeypatch):
    monkeypatch.setattr(bridge, "REMOTE_TIMEOUT_S", 0.2)
    with socket.create_server(("127.0.0.1", 0)) as listener:
        host, port = listener.getsockname()
        remote = RemotePolicy(host, port, agent_id=0)
        conn, _ = listener.accept()  # accepts, never replies
        with conn:
            with pytest.raises(TimeoutError):
                remote.act(np.zeros(5), None)
            with contextlib.suppress(OSError):
                remote.close()  # its BYE goes unanswered too
    # nothing listens on the port any more
    with pytest.raises(OSError):
        RemotePolicy(host, port, agent_id=0)


def test_remote_policy_timeout_survives_with_block(monkeypatch):
    # leaving the with block must not replace the TimeoutError with an error
    # from closing a socket whose read timed out
    monkeypatch.setattr(bridge, "REMOTE_TIMEOUT_S", 0.2)
    with socket.create_server(("127.0.0.1", 0)) as listener:
        host, port = listener.getsockname()
        with pytest.raises(TimeoutError):
            with RemotePolicy(host, port, agent_id=0) as remote:
                conn, _ = listener.accept()  # accepts, never replies
                with conn:
                    remote.act(np.zeros(5), None)
    assert remote._sock.fileno() == -1  # closed all the same


def test_remote_policy_reports_a_server_that_hangs_up(monkeypatch):
    # a server that reads the OBS frame and closes: act raises ConnectionError
    # naming the step, and close skips the BYE exchange it cannot finish
    monkeypatch.setattr(bridge, "REMOTE_TIMEOUT_S", 5.0)
    with socket.create_server(("127.0.0.1", 0)) as listener:
        host, port = listener.getsockname()

        def hang_up():
            conn, _ = listener.accept()
            with conn, conn.makefile("r") as rfile:
                rfile.readline()

        server = threading.Thread(target=hang_up)
        server.start()
        with pytest.raises(ConnectionError, match="closed the connection at step 0"):
            with RemotePolicy(host, port, agent_id=0) as remote:
                remote.act(np.zeros(5), None)
        server.join()
    assert remote._sock.fileno() == -1


@pytest.mark.parametrize(
    "canned",
    [
        "ACT,0,0,-1\n",  # a negative index would pick DIGITS[-1]
        "ACT,0,0,2.7\n",  # not an int
        "ACT,0,0,9\n",  # past the human agent's actions
        "ACT,0,0\n",  # no action at all
        "ACT,0,0,1,1\n",
    ],
)
def test_remote_policy_rejects_a_bad_action(monkeypatch, canned):
    monkeypatch.setattr(bridge, "REMOTE_TIMEOUT_S", 2.0)
    with socket.create_server(("127.0.0.1", 0)) as listener:
        remote = RemotePolicy(*listener.getsockname(), agent_id=0)
        conn, _ = listener.accept()
        with conn:
            conn.sendall(canned.encode())  # answers the OBS before it arrives
            with pytest.raises(ProtocolError, match="at step 0") as exc:
                remote.act(np.zeros(5), None)
        assert exc.value.code == ERR_BAD_PAYLOAD
        with contextlib.suppress(OSError):
            remote.close()  # its BYE meets a closed connection


@pytest.mark.parametrize(
    "canned",
    [
        "ACT,1,0,1\n",  # another step's reply
        "ACT,0,1,1\n",  # the other agent's reply
        "BYE,0,0\n",  # not an ACT
    ],
)
def test_remote_policy_rejects_a_reply_to_another_request(monkeypatch, canned):
    monkeypatch.setattr(bridge, "REMOTE_TIMEOUT_S", 2.0)
    with socket.create_server(("127.0.0.1", 0)) as listener:
        remote = RemotePolicy(*listener.getsockname(), agent_id=0)
        conn, _ = listener.accept()
        with conn:
            conn.sendall(canned.encode())
            with pytest.raises(ProtocolError, match="reply does not match request") as exc:
                remote.act(np.zeros(5), None)
        assert exc.value.code == ERR_MALFORMED
        with contextlib.suppress(OSError):
            remote.close()


def test_remote_policy_rejects_an_unknown_agent_before_connecting(monkeypatch):
    def no_connect(*args, **kwargs):
        raise AssertionError("connected")

    monkeypatch.setattr(socket, "create_connection", no_connect)
    with pytest.raises(ValueError, match="agent id must be 0 or 1"):
        RemotePolicy("127.0.0.1", 1, agent_id=2)


def test_server_without_an_agents_actor_answers_err_bad_agent():
    with serving({0: make_actors()[0]}) as srv:
        with socket.create_connection(srv.server_address, timeout=10) as sock:
            rfile = sock.makefile("r", encoding="ascii", newline="\n")
            try:
                sock.sendall(encode_frame(Frame("OBS", 4, 1, (0.0,) * 6)).encode())
                assert decode_frame(rfile.readline()) == Frame("ERR", 4, 1, (ERR_BAD_AGENT,))
                # agent 0 is still served on the same connection
                sock.sendall(encode_frame(Frame("OBS", 5, 0, (0.0,) * 5)).encode())
                assert decode_frame(rfile.readline())[:3] == ("ACT", 5, 0)
                sock.sendall(b"BYE,6,0\n")
                assert decode_frame(rfile.readline()).kind == "BYE"
            finally:
                rfile.close()


@pytest.mark.parametrize(
    "canned, code",
    [
        ("ERR,0,0,nan\n", ERR_MALFORMED),  # int() would raise ValueError
        ("ERR,0,0,1e400\n", ERR_MALFORMED),  # int() would raise OverflowError
        ("ERR,0,0,2.5\n", ERR_MALFORMED),  # int() would report code 2
        ("ERR,0,0,3.0\n", ERR_MALFORMED),  # a float, not an int code
        ("ERR,0,0,9\n", ERR_MALFORMED),  # no such code
        ("ERR,0,0,3,1\n", ERR_MALFORMED),
        ("ERR,0,0\n", ERR_MALFORMED),
        ("ERR,0,0,3\n", ERR_BAD_PAYLOAD),
    ],
)
def test_remote_policy_reports_only_known_err_codes(monkeypatch, canned, code):
    monkeypatch.setattr(bridge, "REMOTE_TIMEOUT_S", 2.0)
    with socket.create_server(("127.0.0.1", 0)) as listener:
        remote = RemotePolicy(*listener.getsockname(), agent_id=0)
        conn, _ = listener.accept()
        with conn:
            conn.sendall(canned.encode())
            with pytest.raises(ProtocolError, match="rejected frame at step 0") as exc:
                remote.act(np.zeros(5), None)
        assert exc.value.code == code
        with contextlib.suppress(OSError):
            remote.close()


def test_remote_policy_matches_local_greedy(server):
    host, port = server.server_address
    env = make_test_env(n_decisions=15)
    human = GreedyPolicy(server.actors[0])
    local = run_episode(
        env, human, GreedyPolicy(server.actors[1]), np.random.default_rng(6)
    )
    with RemotePolicy(host, port, agent_id=1) as remote:
        over_wire = run_episode(env, human, remote, np.random.default_rng(6))
    for field in ("time", "position", "omega", "tau_machine", "tau_human", "reward"):
        assert np.array_equal(
            getattr(local.trace, field), getattr(over_wire.trace, field)
        ), field
    assert np.array_equal(local.trace.machine_action, over_wire.trace.machine_action)


def test_remote_policy_needs_no_rng(server):
    host, port = server.server_address
    with RemotePolicy(host, port, agent_id=0) as remote:
        idx, logp = remote.act(np.zeros(5), None)
    assert 0 <= idx < 5 and logp == 0.0


def test_sequential_connections(server):
    host, port = server.server_address
    for _ in range(3):
        with RemotePolicy(host, port, agent_id=1) as remote:
            idx, _ = remote.act(np.zeros(6), None)
            assert 0 <= idx < 2


def test_stochastic_server_varies_actions():
    srv = PolicyServer(("127.0.0.1", 0), make_actors(), stochastic=True)
    try:
        # a near-uniform 5-way head answered 60 times must vary
        obs = tuple(np.zeros(5))
        seen = {srv.respond(Frame("OBS", i, 0, obs)).payload[0] for i in range(60)}
        assert len(seen) >= 2
    finally:
        srv.server_close()


def test_fresh_stochastic_servers_of_one_checkpoint_answer_alike(tmp_path):
    # each server samples from a generator seeded with 0 when it is built, so
    # two servers answer one OBS sequence with the same actions, and those are
    # the in-process samples of a generator seeded with 0
    rng = np.random.default_rng(6)
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, make_agent(rng, 5, 5, 4), make_agent(rng, 6, 2, 4), meta={})
    frames = [Frame("OBS", i, i % 2, tuple(rng.normal(size=5 + i % 2).tolist()))
              for i in range(80)]
    answers = []
    for _ in range(2):
        srv = PolicyServer(("127.0.0.1", 0), actors_from_checkpoint(path), stochastic=True)
        try:
            answers.append([srv.respond(frame).payload[0] for frame in frames])
        finally:
            srv.server_close()
    actors, sampler = actors_from_checkpoint(path), np.random.default_rng(0)
    local = [SamplingPolicy(actors[f.agent]).act(np.array(f.payload), sampler)[0] for f in frames]
    assert answers[0] == answers[1] == local
    assert len(set(answers[0][::2])) >= 2  # the human's 5-way head varies


def test_actors_from_checkpoint(tmp_path):
    rng = np.random.default_rng(4)
    human = make_agent(rng, 5, 5, buffer_size=4)
    machine = make_agent(rng, 6, 2, buffer_size=4)
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, human, machine, meta={})
    actors = actors_from_checkpoint(path)
    assert set(actors) == {0, 1}
    for (_, a), (_, b) in zip(actors[0].arrays(), human.actor.arrays()):
        assert np.array_equal(a, b)
    for (_, a), (_, b) in zip(actors[1].arrays(), machine.actor.arrays()):
        assert np.array_equal(a, b)
    # networks that do not fit the agents are refused, naming file and section
    save_checkpoint(path, machine, human, meta={})
    with pytest.raises(ValueError, match="a.ckpt: section human.actor has 6 inputs"):
        actors_from_checkpoint(path)
