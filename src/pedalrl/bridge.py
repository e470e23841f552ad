"""Line protocol for serving trained policies over a stream socket.

Grammar: ``<KIND>,<step:uint>,<agent:{0,1}>[,<payload:decimal>...]\\n`` with
KIND one of OBS, ACT, ERR, BYE. A client streams OBS frames carrying the
agent's observation fields in their fixed order (5 for the human agent, 6
for the machine agent); the server answers each with exactly one ACT frame
holding the chosen action index. Malformed input is answered with an ERR
frame carrying a numeric code and the connection stays up, except for a
line longer than ``MAX_FRAME_BYTES``, which ends it. BYE ends the session.

Serving is greedy (argmax) by default so that a run over the wire is
reproducible; the loopback tests pin it bit-for-bit against in-process
episodes. Floats are rendered with ``repr`` (shortest round-trip form), so
values survive the wire exactly. A client that sends nothing for
``IDLE_TIMEOUT_S`` is dropped, so one idle client cannot hold the
single-threaded server.

Serving path: a ``Frame`` is a named tuple, so building, unpacking and
comparing one are tuple operations in C. Parsing a valid frame raises
nothing and reads each payload token once with ``float``:
``_parse_number`` calls ``int`` as well only when that value is integral
or not finite and the token is a sign and digits, which no ``repr`` float
is. The observation stays Python floats, checked with ``math.isfinite``,
until the one ``np.array`` handed to ``actor_forward``. The greedy index
comes from ``nets.greedy_action``, the function ``GreedyPolicy`` uses in
process. Each reply is one ``sendall`` on the connection.
"""

import math
import socket
import socketserver
from typing import NamedTuple

import numpy as np

from .episode import OBS_DIM_HUMAN, OBS_DIM_MACHINE
from .nets import actor_forward, greedy_action, sample_action
from .ppo import HUMAN_ACTIONS, MACHINE_ACTIONS, load_checkpoint

KINDS = ("OBS", "ACT", "ERR", "BYE")
OBS_DIMS = {0: OBS_DIM_HUMAN, 1: OBS_DIM_MACHINE}
N_ACTIONS = {0: HUMAN_ACTIONS, 1: MACHINE_ACTIONS}

ERR_MALFORMED = 1  # unparseable frame (field count, numeric syntax, kind)
ERR_BAD_AGENT = 2  # agent id outside {0, 1}
ERR_BAD_PAYLOAD = 3  # wrong field count, non-finite observation or bad action
ERR_UNEXPECTED_KIND = 4  # server accepts only OBS and BYE
ERR_CODES = (ERR_MALFORMED, ERR_BAD_AGENT, ERR_BAD_PAYLOAD, ERR_UNEXPECTED_KIND)

# Longest line the server reads, newline included. A valid frame is under
# 200 bytes (OBS, step, agent and six repr floats); a longer line is
# answered with one ERR and the connection is closed.
MAX_FRAME_BYTES = 4096
# Seconds RemotePolicy waits to connect and for each reply.
REMOTE_TIMEOUT_S = 10.0
# Seconds the server waits for a client's next line before it closes the
# connection and accepts the next one.
IDLE_TIMEOUT_S = 60.0


class ProtocolError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class Frame(NamedTuple):
    kind: str
    step: int
    agent: int
    payload: tuple = ()


def encode_frame(frame: Frame) -> str:
    """One ASCII line; ints bare, floats as shortest round-trip decimals."""
    kind, step, agent, payload = frame
    # a float subclass (np.float64) goes through float() so repr stays bare
    values = [
        repr(v) if type(v) is float else str(v) if isinstance(v, int) else repr(float(v))
        for v in payload
    ]
    return ",".join([kind, str(step), str(agent), *values]) + "\n"


def _parse_number(token: str):
    # An optional sign and digits is an int, anything else a float. float()
    # reads every token the grammar allows, so it runs first; only a value
    # that is integral or not finite can come from such a token. Only ASCII
    # reaches here (decode_frame checks), so isdigit() means 0-9.
    try:
        value = float(token)
    except ValueError:
        raise ProtocolError(ERR_MALFORMED, "non-numeric payload %r" % token) from None
    if value.is_integer() or not math.isfinite(value):
        if token.isdigit() or (token[:1] in ("+", "-") and token[1:].isdigit()):
            try:
                return int(token)
            except ValueError:  # more digits than int() converts
                pass
    return value


def decode_frame(line: str) -> Frame:
    """Inverse of encode_frame; raises ProtocolError echoing the bad line."""
    if not line.endswith("\n"):
        raise ProtocolError(ERR_MALFORMED, "frame not newline-terminated: %r" % line)
    body = line[:-1]
    # int() and float() also accept underscores, surrounding whitespace and
    # non-ASCII digits, none of which the grammar allows
    if "_" in body or not body.isascii() or body.split() != [body]:
        raise ProtocolError(ERR_MALFORMED, "stray characters in %r" % line)
    try:
        kind, step, agent, *payload = body.split(",")
    except ValueError:  # fewer than three fields
        raise ProtocolError(ERR_MALFORMED, "expected KIND,step,agent...: %r" % line) from None
    if kind not in KINDS:
        raise ProtocolError(ERR_MALFORMED, "unknown frame kind in %r" % line)
    # step and agent are bare digits: no sign
    if not step.isdigit():
        raise ProtocolError(ERR_MALFORMED, "bad step index in %r" % line)
    if not agent.isdigit():
        raise ProtocolError(ERR_MALFORMED, "bad agent id in %r" % line)
    try:
        step, agent = int(step), int(agent)
    except ValueError:  # more digits than int() converts
        raise ProtocolError(ERR_MALFORMED, "overlong step or agent in %r" % line)
    if agent not in (0, 1):
        raise ProtocolError(ERR_BAD_AGENT, "agent id out of range in %r" % line)
    return Frame(kind, step, agent, tuple(map(_parse_number, payload)))


class PolicyServer(socketserver.TCPServer):
    """Single-threaded request-reply server answering OBS frames with ACT.

    One connection is handled at a time (further connects wait in the
    listen backlog); within a connection the reply to each frame is written
    before the next is read, so ACT frames strictly alternate with OBS.

    A ``stochastic`` server samples each action from one generator seeded
    with 0 when the server is built, so two fresh servers of one checkpoint
    answer one OBS sequence with the same actions.
    """

    allow_reuse_address = True

    def __init__(self, endpoint, actors: dict, stochastic: bool = False):
        self.actors = actors  # {0: human actor params, 1: machine actor params}
        self.stochastic = stochastic
        self.rng = np.random.default_rng(0)
        super().__init__(endpoint, _Handler)

    def respond(self, frame: Frame) -> Frame:
        if frame.kind != "OBS":
            raise ProtocolError(
                ERR_UNEXPECTED_KIND, "server accepts OBS or BYE, got %s" % frame.kind
            )
        if frame.agent not in self.actors:
            raise ProtocolError(ERR_BAD_AGENT, "no policy for agent %d" % frame.agent)
        want = OBS_DIMS[frame.agent]
        if len(frame.payload) != want:
            raise ProtocolError(
                ERR_BAD_PAYLOAD,
                "agent %d expects %d fields, got %d" % (frame.agent, want, len(frame.payload)),
            )
        try:
            obs = list(map(float, frame.payload))
        except OverflowError:
            raise ProtocolError(ERR_BAD_PAYLOAD, "observation beyond the float range")
        if not all(map(math.isfinite, obs)):
            raise ProtocolError(ERR_BAD_PAYLOAD, "non-finite observation")
        dist = actor_forward(self.actors[frame.agent], np.array(obs))
        if self.stochastic:
            idx, _ = sample_action(dist, self.rng)
        else:
            idx, _ = greedy_action(dist)
        return Frame(kind="ACT", step=frame.step, agent=frame.agent, payload=(idx,))


class _Handler(socketserver.StreamRequestHandler):
    timeout = IDLE_TIMEOUT_S  # applied to the connection by setup()

    def handle(self):
        try:
            self._serve()
        except TimeoutError:  # idle client: close quietly, serve the next
            pass

    def _serve(self):
        while True:
            raw = self.rfile.readline(MAX_FRAME_BYTES + 1)
            if not raw:
                break
            if len(raw) > MAX_FRAME_BYTES:
                self._reply(Frame("ERR", 0, 0, (ERR_MALFORMED,)))
                break
            line = raw.decode("ascii", errors="replace")
            try:
                frame = decode_frame(line)
            except ProtocolError as exc:
                self._reply(Frame("ERR", 0, 0, (exc.code,)))
                continue
            if frame.kind == "BYE":
                self._reply(Frame("BYE", frame.step, frame.agent))
                break
            try:
                reply = self.server.respond(frame)
            except ProtocolError as exc:
                reply = Frame("ERR", frame.step, frame.agent, (exc.code,))
            self._reply(reply)

    def _reply(self, frame: Frame):
        self.connection.sendall(encode_frame(frame).encode("ascii"))


class RemotePolicy:
    """Policy adapter that forwards observations to a PolicyServer.

    Drop-in for the in-process policies: ``act`` sends one OBS frame and
    blocks for the ACT reply. It consumes no local randomness, so swapping
    it for a GreedyPolicy changes nothing about the episode's RNG stream.
    Connecting and each reply wait at most ``REMOTE_TIMEOUT_S``; a server
    that cannot be reached, does not answer or hangs up raises ``OSError`` (a
    silent one ``TimeoutError``, a closed one ``ConnectionError``). After a
    timed-out or missing reply the socket cannot be read again, so ``close``
    then skips the BYE exchange.

    Each instance opens its own connection, and a ``bridge-serve`` answers
    one connection at a time. So an episode can have one remote agent per
    server: a second ``RemotePolicy`` on the same server waits until the
    first connection closes, and its first reply times out.
    """

    def __init__(self, host: str, port: int, agent_id: int):
        if agent_id not in (0, 1):
            raise ValueError("agent id must be 0 or 1")
        self.agent_id = agent_id
        self._sock = socket.create_connection((host, port), timeout=REMOTE_TIMEOUT_S)
        self._rfile = self._sock.makefile("r", encoding="ascii", newline="\n")
        self._step = 0
        self._unreadable = False

    def act(self, obs, rng):
        frame = Frame("OBS", self._step, self.agent_id, tuple(obs.tolist()))
        self._sock.sendall(encode_frame(frame).encode("ascii"))
        try:
            line = self._rfile.readline()
        except TimeoutError:
            self._unreadable = True
            raise
        if not line:
            self._unreadable = True
            raise ConnectionError("server closed the connection at step %d" % self._step)
        reply = decode_frame(line)
        if reply.kind == "ERR":
            # exactly one int: a code this protocol defines
            code = reply.payload[0] if len(reply.payload) == 1 else None
            if type(code) is not int or code not in ERR_CODES:
                code = ERR_MALFORMED
            raise ProtocolError(code, "server rejected frame at step %d" % self._step)
        if reply.kind != "ACT" or reply.step != self._step or reply.agent != self.agent_id:
            raise ProtocolError(
                ERR_MALFORMED, "reply does not match request: %r" % (reply,)
            )
        # exactly one int: an action index this agent has
        action = reply.payload[0] if len(reply.payload) == 1 else None
        if type(action) is not int or not 0 <= action < N_ACTIONS[self.agent_id]:
            raise ProtocolError(
                ERR_BAD_PAYLOAD, "bad action %r at step %d" % (reply.payload, self._step)
            )
        self._step += 1
        return action, 0.0

    def close(self):
        try:
            if not self._unreadable:
                self._sock.sendall(
                    encode_frame(Frame("BYE", self._step, self.agent_id)).encode("ascii")
                )
                self._rfile.readline()
        finally:
            self._rfile.close()
            self._sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def parse_endpoint(text: str) -> tuple:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit() or int(port) > 65535:
        raise ValueError("endpoint must be HOST:PORT with PORT in 0..65535, got %r" % text)
    return host, int(port)


def actors_from_checkpoint(path) -> dict:
    ckpt = load_checkpoint(path)
    return {0: ckpt["human.actor"], 1: ckpt["machine.actor"]}

