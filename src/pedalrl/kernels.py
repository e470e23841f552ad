"""Hot simulation kernel with optional numba acceleration.

The inner loop of every episode advances the plant, the machine PID and the
synthetic human chain for ``decision_interval`` substeps between agent
decisions. That loop is scalar and sequential, so it is compiled with
``numba.njit`` when numba is installed. Without numba the same function body
runs uncompiled, which keeps the two backends bit-for-bit identical.
``pedalrl bench`` compares their speed.

The kernel is deliberately self-contained (no calls into other modules) so
that its ``py_func`` really is the whole fallback path. It is the only
implementation of the per-step math in the package. The readable reference
it is pinned against, bit for bit, is the composition of the plant,
controller and human step functions in ``tests/oracles.py``.

The kernel's rule, which keeps the uncompiled body fast and the compiled one
possible:

- constants and gains arrive as tuples of Python floats and are unpacked
  once per call; every state, noise and digit value becomes a Python scalar
  at entry, so the arithmetic runs on Python floats, which round exactly as
  ``np.float64``;
- buffers are touched only by element reads and writes: ``sim``, the
  delay queue and ``noise`` by index, ``digit_queue.shape[0]`` for the
  delay, and the trace through its six 1-D rows ``out[0] .. out[5]``. So
  each buffer may be a numpy array or a ``memoryview`` of one, and ``out``
  a 2-D array or a tuple of its row views;
- the reaction-delay line shifts once per call, by ``n_sub`` places:
  substep ``s`` reads ``digit_queue[s]`` while ``s`` is below the delay,
  and the commanded digit after that;
- the body stays within numba's supported subset (scalars, homogeneous
  tuples, ``math``, loops, and array and memoryview indexing).

Episodes pass memoryviews (see :func:`buffers`): uncompiled, an element
read or write of a memoryview gives a Python float directly, where a numpy
array's read builds a numpy scalar. On a 2-vCPU x86-64 VM under CPython
3.11 and numpy 2.4 that is about 23 ns against 50 ns per access. The
values and their bits are the same either way.

This module also owns the kernel's calling convention: :func:`pack` turns an
episode's parameters into a tuple of 17 constants and a bank of gain tuples,
the packed simulation state has the ``SIM_*`` layout, the kernel writes
the six float fields of ``EpisodeTrace`` as the rows of one ``(TRACE_ROWS,
n)`` block, and :func:`buffers` allocates that block, a fresh state and a
delay line. The sub-controller switch rule lives here too: the state keeps
the previous block's sub-controller, and a block that runs another one
starts from a zero integral while the derivative history carries over. A
fresh state holds t = 0, sub-controller 0 and a zero integral.
"""

import math

import numpy as np

from .controllers import default_integral_limit

try:
    from numba import njit

    NUMBA_ENABLED = True
except ImportError:  # pragma: no cover - exercised only on bare installs
    NUMBA_ENABLED = False


def hot(fn):
    """Compile ``fn`` with njit when the numba backend is active."""
    if NUMBA_ENABLED:
        return njit(cache=True, fastmath=False)(fn)
    return fn


# Indices into the packed simulation state vector (float64[SIM_SIZE]).
SIM_ANGLE = 0
SIM_OMEGA = 1
SIM_T = 2
SIM_M_INTEGRAL = 3
SIM_M_PREV_ERR = 4
SIM_H_APPLIED = 5
SIM_H_PREV_ERR = 6
SIM_M_IDX = 7  # sub-controller of the previous block
SIM_SIZE = 8

# Rows of the trace block: time, reference, position, omega, machine
# torque, human torque (the float fields of ``EpisodeTrace``, in order).
TRACE_ROWS = 6


def pack(env):
    """``(constants, bank)`` for the kernel from an ``EnvParams``, as float tuples.

    ``constants`` holds the 17 plant, reference, human-model and human PD
    values in the order :func:`_run_substeps` unpacks them. ``bank`` has one
    ``(kp, ki, kd, anti-windup limit)`` tuple per machine sub-controller; the
    machine agent's action is an index into it.
    """
    p, r, h = env.plant, env.reference, env.human
    strong, weak = env.setting.human_pd
    constants = tuple(float(v) for v in (
        p.inertia, p.damping, p.torque_limit, p.dt, p.angle_min, p.angle_max, p.omega_max,
        r.amplitude, r.period, r.phase, r.offset,
        h.unit_torque, h.lag_time_constant,
        strong.kp, strong.kd, weak.kp, weak.kd,
    ))
    bank = tuple(
        tuple(float(v) for v in (g.kp, g.ki, g.kd, default_integral_limit(g, p.torque_limit)))
        for g in env.setting.machine_pid
    )
    return constants, bank


def buffers(reaction_delay, n_cols):
    """Fresh kernel buffers for ``n_cols`` substeps: ``(block, sim, queue, rows)``.

    ``block`` is the ``(TRACE_ROWS, n_cols)`` float64 trace; ``rows`` is the
    tuple of memoryviews of its six rows that the kernel takes as ``out``.
    ``sim`` is a memoryview of a zeroed ``SIM_SIZE`` float64 state (t = 0,
    sub-controller 0) and ``queue`` one of a zeroed ``reaction_delay``-long
    int64 delay line.
    """
    block = np.empty((TRACE_ROWS, n_cols))
    sim = memoryview(np.zeros(SIM_SIZE))
    queue = memoryview(np.zeros(reaction_delay, dtype=np.int64))
    return block, sim, queue, tuple(memoryview(row) for row in block)


def _run_substeps(sim, digit_queue, commanded_digit, m_idx, constants, bank, noise, out, start, n_sub):
    """Advance the closed loop by ``n_sub`` plant substeps.

    Runs machine sub-controller ``bank[m_idx]`` (zeroing the integral if the
    previous block ran another one), mutates ``sim`` and ``digit_queue`` in
    place and writes columns ``start .. start+n_sub-1`` of the trace block
    ``out``. ``noise`` holds one pre-drawn, pre-scaled torque perturbation
    per substep (drawn outside so that the RNG stream never depends on the
    backend).

    Each buffer is a numpy array or a memoryview of one, and ``out`` a 2-D
    array or a tuple of its six row views: the body only indexes them,
    reads ``digit_queue.shape[0]`` and unpacks ``out[0] .. out[5]``.
    Episodes pass memoryviews (:func:`buffers`), because uncompiled their
    element reads and writes cost a fraction of a numpy array's.
    """
    (
        inertia, damping, torque_limit, dt, angle_min, angle_max, omega_max,
        amp, period, phase, offset,
        unit_torque, lag_tc,
        h_kp_hi, h_kd_hi, h_kp_lo, h_kd_lo,
    ) = constants
    m_kp, m_ki, m_kd, m_integral_limit = bank[m_idx]
    two_pi = 2.0 * math.pi

    angle = float(sim[SIM_ANGLE])
    omega = float(sim[SIM_OMEGA])
    t = float(sim[SIM_T])
    m_integral = float(sim[SIM_M_INTEGRAL])
    if m_idx != sim[SIM_M_IDX]:
        # stale windup belongs to the other gain set; derivative history carries
        m_integral = 0.0
    m_prev_err = float(sim[SIM_M_PREV_ERR])
    h_applied = float(sim[SIM_H_APPLIED])
    h_prev_err = float(sim[SIM_H_PREV_ERR])
    commanded = int(commanded_digit)

    lag_gain = dt / (lag_tc + dt)
    n_delay = digit_queue.shape[0]
    t_row = out[0]
    ref_row = out[1]
    pos_row = out[2]
    om_row = out[3]
    tm_row = out[4]
    th_row = out[5]

    ref_now = offset + amp * math.sin(two_pi * t / period + phase)
    for s in range(n_sub):
        # -- machine PID on the tracking error at the current time
        e_m = ref_now - angle
        # t is the time before this substep steps: 0 only for a fresh state's
        # first substep (dt > 0), whose derivative terms have no history
        if t == 0.0:
            d_m = 0.0
        else:
            d_m = (e_m - m_prev_err) / dt
        m_integral += e_m * dt
        if m_integral > m_integral_limit:
            m_integral = m_integral_limit
        elif m_integral < -m_integral_limit:
            m_integral = -m_integral_limit
        u_m = m_kp * e_m + m_ki * m_integral + m_kd * d_m
        m_prev_err = e_m
        tau_m = u_m
        if tau_m > torque_limit:
            tau_m = torque_limit
        elif tau_m < -torque_limit:
            tau_m = -torque_limit

        # -- human chain: reaction delay, sub-PD torque tracker, lag, noise.
        # Substep s acts on the digit queued s places ahead, or on the
        # commanded one once the queue is used up; the queue shifts below.
        if s < n_delay:
            eff = int(digit_queue[s])
        else:
            eff = commanded
        if eff == 2 or eff == -2:
            h_kp = h_kp_hi
            h_kd = h_kd_hi
        else:
            h_kp = h_kp_lo
            h_kd = h_kd_lo
        target = eff * unit_torque
        e_h = target - h_applied
        if t == 0.0:
            d_h = 0.0
        else:
            d_h = (e_h - h_prev_err) / dt
        rate = h_kp * e_h + h_kd * d_h
        h_prev_err = e_h
        h_applied += lag_gain * dt * rate
        tau_h = h_applied + float(noise[s])
        if tau_h > torque_limit:
            tau_h = torque_limit
        elif tau_h < -torque_limit:
            tau_h = -torque_limit

        # -- plant: semi-implicit Euler with hard angle stops
        omega += dt * (tau_m + tau_h - damping * omega) / inertia
        if omega > omega_max:
            omega = omega_max
        elif omega < -omega_max:
            omega = -omega_max
        angle += dt * omega
        if angle < angle_min:
            angle = angle_min
            omega = 0.0
        elif angle > angle_max:
            angle = angle_max
            omega = 0.0
        t += dt
        # the next substep's machine error uses this same reference sample
        ref_now = offset + amp * math.sin(two_pi * t / period + phase)

        col = start + s
        t_row[col] = t
        ref_row[col] = ref_now
        pos_row[col] = angle
        om_row[col] = omega
        tm_row[col] = tau_m
        th_row[col] = tau_h

    # The delay line moves n_sub places: what substep s read is gone, and
    # the commanded digit fills the tail.
    for q in range(n_delay):
        if q + n_sub < n_delay:
            digit_queue[q] = digit_queue[q + n_sub]
        else:
            digit_queue[q] = commanded

    sim[SIM_ANGLE] = angle
    sim[SIM_OMEGA] = omega
    sim[SIM_T] = t
    sim[SIM_M_INTEGRAL] = m_integral
    sim[SIM_M_PREV_ERR] = m_prev_err
    sim[SIM_H_APPLIED] = h_applied
    sim[SIM_H_PREV_ERR] = h_prev_err
    sim[SIM_M_IDX] = m_idx


run_substeps = hot(_run_substeps)

# The uncompiled body, regardless of backend; used by the benchmark and the
# backend-equivalence tests.
run_substeps_python = run_substeps.py_func if NUMBA_ENABLED else run_substeps

