"""Independent reference implementations used to cross-check the package.

Everything here is written directly from the printed formulas with plain
loops and no vectorization, so a shared bug with the implementation under
test is unlikely. Imports from pedalrl are limited to its parameter
dataclasses and the digit table, never its arithmetic.

The per-substep models (plant step, PD/PID updates, the human chain) and
their state dataclasses are the readable reference the fused kernel in
``pedalrl.kernels`` is pinned against, step by step and bit for bit.

``reference_decode_frame`` is the bridge's frame decoder in its plain
form, which tries ``int`` on every payload token and falls back to
``float``; ``pedalrl.bridge.decode_frame`` is pinned against it. It takes
only the protocol's types and constants from ``pedalrl.bridge``.

``reference_parse_scalar`` is the config value typing that guessed int,
float or bool from the text alone, before the field's type was known;
``pedalrl.config.coerce`` on text is pinned against ``coerce`` on its guess
for the numeric fields.

``machine_reward`` is the machine reward the package once held, which no
episode used; criterion 1 and tests/test_rewards.py check it against
``machine_value``.

``matmul_backward`` is the network backward pass in its earlier composition:
``np.atleast_2d`` on every operand, then ``@`` and ``np.matmul(out=)``.
``pedalrl.nets.backward`` and the PPO gradients are pinned against it bit
for bit, so it keeps the package's operands and summation order on purpose.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from pedalrl.bridge import ERR_BAD_AGENT, ERR_MALFORMED, KINDS, Frame, ProtocolError
from pedalrl.controllers import PDGains, PIDGains
from pedalrl.human import DIGITS, HumanParams
from pedalrl.nets import MLPParams
from pedalrl.plant import PlantParams


def tracking_sum(actual, reference):
    total = 0.0
    for p, ref in zip(actual, reference):
        total += (p - ref) ** 2
    return total


def comfort_sum(actual):
    total = 0.0
    for i in range(2, len(actual)):
        total += abs(actual[i] + actual[i - 2] - 2.0 * actual[i - 1])
    return total


def effort_value(actions, effort_flag):
    k = len(actions)
    mean = sum(actions) / k
    dev = 0.0
    for i in range(k - 1):
        dev += (actions[i] - mean) ** 2
    return (effort_flag / (k - 2)) * dev


def machine_value(actual, reference, omega_z, sigma, beta):
    return sigma * tracking_sum(actual, reference) + beta * omega_z


def machine_reward(actual, reference, omega_z, sigma, beta):
    """sigma * (sum of squared errors over the whole window) + beta * omega_z.

    The machine reward as the package once had it, which no episode used:
    its window holds one more sample than the human side's (k+1 positions
    for window parameter k), and it squares each error as
    ``pedalrl.rewards.tracking_term`` does. ``machine_value`` checks it.
    """
    total = 0.0
    for p, ref in zip(actual, reference, strict=True):
        d = p - ref
        total += d * d
    return sigma * total + beta * omega_z


def human_value(r_m, r_c, r_e, mu, kappa, rho):
    return -mu * r_m - kappa * r_c + rho * r_e


def advantage_double_loop(rewards, values, next_values, terminals, gamma):
    """O(N^2) evaluation of Q_t = sum_i gamma^(i-t) * delta_i.

    The running product of (1 - terminal) masks stops both the TD
    bootstrap and the accumulation at episode boundaries, matching the
    recursion under test: a terminal at step j blocks contributions from
    steps > j, while delta_j itself still counts.
    """
    n = len(rewards)
    q = [0.0] * n
    for t in range(n):
        acc = 0.0
        alive = 1.0
        for i in range(t, n):
            mask = 0.0 if terminals[i] else 1.0
            delta = rewards[i] + gamma * mask * next_values[i] - values[i]
            acc += (gamma ** (i - t)) * alive * delta
            alive *= mask
            if alive == 0.0:
                break
        q[t] = acc
    return q


def central_difference(f, arr, h=1e-6):
    """Gradient of scalar f with respect to every entry of a numpy array."""
    grad = []
    flat = arr.reshape(-1)
    for j in range(flat.size):
        keep = flat[j]
        flat[j] = keep + h
        up = f()
        flat[j] = keep - h
        down = f()
        flat[j] = keep
        grad.append((up - down) / (2.0 * h))
    out = arr.copy()
    out.reshape(-1)[:] = grad
    return out


def relative_error(a, b, floor=1e-12):
    return abs(a - b) / max(abs(a), abs(b), floor)


def shannon_entropy(probs):
    total = 0.0
    for p in probs:
        if p > 0.0:
            total -= p * math.log(p)
    return total


# -- per-substep models ------------------------------------------------------


@dataclass(frozen=True)
class PedalState:
    """Pedal angle, angular velocity and simulation time."""

    angle: float = 0.0  # rad
    angular_velocity: float = 0.0  # rad/s
    time: float = 0.0  # s


def step_plant(
    state: PedalState,
    tau_machine: float,
    tau_human: float,
    params: PlantParams,
) -> PedalState:
    """One semi-implicit Euler step of the pedal dynamics.

    Both torque inputs saturate at ``params.torque_limit``. The angle is
    clamped to the mechanical range and the angular velocity is zeroed when
    a stop is hit.
    """
    if not (math.isfinite(tau_machine) and math.isfinite(tau_human)):
        raise ValueError(
            "non-finite torque input: tau_machine=%r tau_human=%r"
            % (tau_machine, tau_human)
        )
    lim = params.torque_limit
    tau_m = min(max(tau_machine, -lim), lim)
    tau_h = min(max(tau_human, -lim), lim)

    omega = state.angular_velocity
    omega += params.dt * (tau_m + tau_h - params.damping * omega) / params.inertia
    omega = min(max(omega, -params.omega_max), params.omega_max)
    angle = state.angle + params.dt * omega
    if angle < params.angle_min:
        angle = params.angle_min
        omega = 0.0
    elif angle > params.angle_max:
        angle = params.angle_max
        omega = 0.0
    return PedalState(angle=angle, angular_velocity=omega, time=state.time + params.dt)


@dataclass(frozen=True)
class ControllerState:
    """Mutable part of a PD/PID loop, owned by the caller."""

    integral: float = 0.0
    prev_error: float = 0.0
    initialized: bool = False


def pid_step(
    gains: PIDGains,
    error: float,
    state: ControllerState,
    dt: float,
    integral_limit: float = math.inf,
):
    """One PID update; returns (torque, new state).

    Derivative acts on the error and is forced to zero on the first sample
    after a reset, avoiding a startup kick. The integral accumulates before
    clamping to ``integral_limit``.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if not math.isfinite(error):
        raise ValueError("non-finite controller error: %r" % (error,))
    if state.initialized:
        derivative = (error - state.prev_error) / dt
    else:
        derivative = 0.0
    integral = state.integral + error * dt
    integral = min(max(integral, -integral_limit), integral_limit)
    torque = gains.kp * error + gains.ki * integral + gains.kd * derivative
    return torque, ControllerState(
        integral=integral, prev_error=error, initialized=True
    )


def pd_step(
    gains: PDGains,
    error: float,
    state: ControllerState,
    dt: float,
):
    """One PD update; identical to :func:`pid_step` with ki = 0."""
    return pid_step(PIDGains(gains.kp, 0.0, gains.kd), error, state, dt)


def reset_controller() -> ControllerState:
    """Fresh controller state: zero integral, cleared derivative history."""
    return ControllerState()


def switch_controller(state: ControllerState) -> ControllerState:
    """State carried across a sub-controller switch.

    The previous error is kept so the derivative term sees no artificial
    jump from the switch itself; the integral is dropped because it was
    accumulated under the other gain set and would act as stale windup.
    """
    return replace(state, integral=0.0)


@dataclass(frozen=True)
class HumanState:
    """Delay queue contents, lagged applied torque and PD history."""

    digit_queue: tuple = ()
    applied: float = 0.0
    pd_state: ControllerState = ControllerState()


def initial_human_state(params: HumanParams, resting_digit: int = 0) -> HumanState:
    """Queue pre-filled with the resting digit so startup is well defined."""
    if resting_digit not in DIGITS:
        raise ValueError("resting digit %r not in %r" % (resting_digit, DIGITS))
    return HumanState(digit_queue=(resting_digit,) * params.reaction_delay)


def digit_target(digit: int, unit_torque: float) -> float:
    """Torque setpoint commanded by a digit."""
    if digit not in DIGITS:
        raise ValueError("digit %r not in %r" % (digit, DIGITS))
    return digit * unit_torque


def pd_index_for_digit(digit: int) -> int:
    """Bank index of the PD pair a digit engages (0 = strong pair)."""
    return 0 if abs(digit) == 2 else 1


def advance_delay(queue: tuple, commanded_digit: int):
    """Pop the head as the effective digit, push the command at the tail.

    A zero-length queue means no reaction delay: the command is effective
    immediately. A command issued at substep t becomes effective at substep
    t + len(queue).
    """
    if len(queue) == 0:
        return commanded_digit, queue
    return queue[0], queue[1:] + (commanded_digit,)


def human_step(
    params: HumanParams,
    state: HumanState,
    commanded_digit: int,
    pd_pair: tuple,
    noise: float,
    dt: float,
    torque_limit: float,
):
    """One substep of the human chain; returns (tau_h, new state).

    ``pd_pair`` is the (strong, weak) PD pair of the active setting.
    ``noise`` is the pre-drawn perturbation for this substep, already scaled
    by ``noise_std``; it is added after the lag and clamped with the rest of
    the torque so the emitted value always respects actuator limits.
    """
    if commanded_digit not in DIGITS:
        raise ValueError("digit %r not in %r" % (commanded_digit, DIGITS))
    eff, queue = advance_delay(state.digit_queue, commanded_digit)
    gains: PDGains = pd_pair[pd_index_for_digit(eff)]
    target = eff * params.unit_torque
    error = target - state.applied
    rate, pd_state = pd_step(gains, error, state.pd_state, dt)
    lag_gain = dt / (params.lag_time_constant + dt)
    applied = state.applied + lag_gain * dt * rate
    tau_h = applied + noise
    tau_h = min(max(tau_h, -torque_limit), torque_limit)
    new_state = HumanState(digit_queue=queue, applied=applied, pd_state=pd_state)
    return tau_h, new_state


def _reference_number(token: str):
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        raise ProtocolError(ERR_MALFORMED, "non-numeric payload %r" % token)


def reference_decode_frame(line: str) -> Frame:
    """A frame line decoded by trying ``int`` then ``float`` on each token."""
    if not line.endswith("\n"):
        raise ProtocolError(ERR_MALFORMED, "frame not newline-terminated: %r" % line)
    body = line[:-1]
    if "_" in body or not body.isascii() or body.split() != [body]:
        raise ProtocolError(ERR_MALFORMED, "stray characters in %r" % line)
    parts = body.split(",")
    if len(parts) < 3:
        raise ProtocolError(ERR_MALFORMED, "expected KIND,step,agent...: %r" % line)
    kind, step, agent = parts[:3]
    if kind not in KINDS:
        raise ProtocolError(ERR_MALFORMED, "unknown frame kind in %r" % line)
    if not step.isdigit() or not agent.isdigit():
        raise ProtocolError(ERR_MALFORMED, "bad step or agent in %r" % line)
    try:
        step, agent = int(step), int(agent)
    except ValueError:
        raise ProtocolError(ERR_MALFORMED, "overlong step or agent in %r" % line)
    if agent not in (0, 1):
        raise ProtocolError(ERR_BAD_AGENT, "agent id out of range in %r" % line)
    payload = tuple(_reference_number(tok) for tok in parts[3:])
    return Frame(kind=kind, step=step, agent=agent, payload=payload)


def reference_parse_scalar(text: str):
    """A config value guessed from its text: bool word, int, float, else str."""
    t = text.strip()
    low = t.lower()
    if low in ("true", "yes", "on"):
        return True
    if low in ("false", "no", "off"):
        return False
    try:
        return int(t)
    except ValueError:
        pass
    try:
        return float(t)
    except ValueError:
        pass
    return t


def matmul_backward(params, cache, d_out):
    """Reverse-mode gradients as fresh MLPParams, composed through ``np.matmul``."""
    x, h1, h2 = cache
    d_out = np.atleast_2d(np.asarray(d_out, dtype=np.float64))
    x2, h1, h2 = np.atleast_2d(x), np.atleast_2d(h1), np.atleast_2d(h2)
    grads = MLPParams(params.dims)
    np.matmul(h2.T, d_out, out=grads.w3)
    np.add.reduce(d_out, axis=0, out=grads.b3)
    dz2 = d_out @ params.w3.T
    tanh_grad2 = h2 * h2
    dz2 *= np.subtract(1.0, tanh_grad2, out=tanh_grad2)
    np.matmul(h1.T, dz2, out=grads.w2)
    np.add.reduce(dz2, axis=0, out=grads.b2)
    dz1 = dz2 @ params.w2.T
    tanh_grad1 = h1 * h1
    dz1 *= np.subtract(1.0, tanh_grad1, out=tanh_grad1)
    np.matmul(x2.T, dz1, out=grads.w1)
    np.add.reduce(dz1, axis=0, out=grads.b1)
    return grads
