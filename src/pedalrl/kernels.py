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
  once per call; every state value becomes a Python scalar at entry, and
  the noise, reference and queued digits are used as their buffers give
  them (Python scalars from a memoryview), so the arithmetic runs on Python
  floats, which round exactly as ``np.float64``;
- buffers are touched only by element reads and writes: ``sim``, the
  delay queue, ``noise`` and the reference ``ref`` by index,
  ``digit_queue.shape[0]`` for the delay, and the trace through its 1-D
  rows ``out[0] .. out[3]``. So each buffer may be a numpy array or a
  ``memoryview`` of one, and ``out`` a 2-D array or a tuple of its row
  views;
- the kernel keeps no clock: the caller hands it the reference row of
  :func:`pedalrl.plant.clock`, the one home of an episode's time and
  reference, from which each substep reads its starting reference;
- the reaction-delay line shifts once per call, by ``n_sub`` places:
  substep ``s`` reads ``digit_queue[s]`` while ``s`` is below the delay,
  and the commanded digit after that;
- the body stays within numba's supported subset (scalars, homogeneous
  tuples, loops, and array and memoryview indexing).

Episodes pass memoryviews (see :func:`buffers`): uncompiled, an element
read or write of a memoryview gives a Python float directly, where a numpy
array's read builds a numpy scalar. On a 2-vCPU x86-64 VM under CPython
3.11 and numpy 2.4 that is about 23 ns against 50 ns per access. The
values and their bits are the same either way.

This module also owns the kernel's calling convention: :func:`pack` turns an
episode's parameters into a tuple of 13 constants and a bank of gain tuples,
the packed simulation state has the ``SIM_*`` layout, the four float fields
of ``EpisodeTrace`` that the kernel writes are the rows of one
``(TRACE_ROWS, n)`` block, and :func:`buffers` allocates that block, a
fresh state and a delay line. The
sub-controller switch rule lives here too: the state keeps the previous
block's sub-controller, and a block that runs another one starts from a
zero integral while the derivative history carries over. A fresh state
holds sub-controller 0 and a zero integral, and its first block starts at
column 0, the substep with no derivative history.
"""

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
SIM_M_INTEGRAL = 2
SIM_M_PREV_ERR = 3
SIM_H_APPLIED = 4
SIM_H_PREV_ERR = 5
SIM_M_IDX = 6  # sub-controller of the previous block
SIM_SIZE = 7

# Rows of the trace block: position, omega, machine torque, human torque
# (the float fields of ``EpisodeTrace`` after the clock's two, in order).
TRACE_ROWS = 4


def pack(env):
    """``(constants, bank)`` for the kernel from an ``EnvParams``, as float tuples.

    ``constants`` holds the 13 plant, human-model and human PD values in the
    order :func:`_run_substeps` unpacks them. ``bank`` has one ``(kp, ki, kd,
    anti-windup limit)`` tuple per machine sub-controller; the machine
    agent's action is an index into it.
    """
    p, h = env.plant, env.human
    strong, weak = env.setting.human_pd
    constants = tuple(float(v) for v in (
        p.inertia, p.damping, p.torque_limit, p.dt, p.angle_min, p.angle_max, p.omega_max,
        h.unit_torque, h.lag_time_constant,
        strong.kp, strong.kd, weak.kp, weak.kd,
    ))
    bank = tuple(
        tuple(float(v) for v in (g.kp, g.ki, g.kd, default_integral_limit(g, p.torque_limit)))
        for g in env.setting.machine_pid
    )
    return constants, bank


def buffers(reaction_delay, n_substeps):
    """Fresh kernel buffers for ``n_substeps`` substeps: ``(block, sim, queue, rows)``.

    ``block`` is the ``(TRACE_ROWS, n_substeps)`` float64 trace the kernel
    writes, and ``rows`` the tuple of memoryviews of its rows that the
    kernel takes as ``out``. ``sim`` is a memoryview of a zeroed
    ``SIM_SIZE`` float64 state (sub-controller 0) and ``queue`` one of a
    zeroed ``reaction_delay``-long int64 delay line.
    """
    block = np.empty((TRACE_ROWS, n_substeps))
    sim = memoryview(np.zeros(SIM_SIZE))
    queue = memoryview(np.zeros(reaction_delay, dtype=np.int64))
    return block, sim, queue, tuple(memoryview(row) for row in block)


def _run_substeps(
    sim, digit_queue, commanded_digit, m_idx, constants, bank, noise, ref, out, start, n_sub
):
    """Advance the closed loop by ``n_sub`` plant substeps.

    Runs machine sub-controller ``bank[m_idx]`` (zeroing the integral if the
    previous block ran another one), mutates ``sim`` and ``digit_queue`` in
    place and writes columns ``start .. start+n_sub-1`` of the position,
    omega and torque rows ``out[0] .. out[3]`` of the trace block. The
    substep in column ``col`` starts from the reference ``ref[col]``, the
    reference row of :func:`pedalrl.plant.clock`, whose column ``col + 1``
    is the reference after it. Column ``start`` follows the ``start``
    substeps that ``sim`` has run: column 0 is a fresh state's first
    substep, whose derivative terms have no history. ``noise`` holds one
    pre-drawn, pre-scaled torque perturbation per substep (drawn outside so
    that the RNG stream never depends on the backend).

    Each buffer is a numpy array or a memoryview of one, and ``out`` a 2-D
    array or a tuple of its four row views: the body only indexes them,
    reads ``digit_queue.shape[0]`` and unpacks ``out[0] .. out[3]``.
    Episodes pass memoryviews (:func:`buffers`), because uncompiled their
    element reads and writes cost a fraction of a numpy array's.
    """
    (
        inertia, damping, torque_limit, dt, angle_min, angle_max, omega_max,
        unit_torque, lag_tc,
        h_kp_hi, h_kd_hi, h_kp_lo, h_kd_lo,
    ) = constants
    m_kp, m_ki, m_kd, m_integral_limit = bank[m_idx]
    m_integral_floor = -m_integral_limit
    torque_floor = -torque_limit
    omega_floor = -omega_max
    # the lag's gain dt / (lag_tc + dt), times dt, as the step multiplies them
    lag_step = dt / (lag_tc + dt) * dt

    angle = float(sim[SIM_ANGLE])
    omega = float(sim[SIM_OMEGA])
    m_integral = float(sim[SIM_M_INTEGRAL])
    if m_idx != sim[SIM_M_IDX]:
        # stale windup belongs to the other gain set; derivative history carries
        m_integral = 0.0
    m_prev_err = float(sim[SIM_M_PREV_ERR])
    h_applied = float(sim[SIM_H_APPLIED])
    h_prev_err = float(sim[SIM_H_PREV_ERR])
    commanded = int(commanded_digit)

    n_delay = digit_queue.shape[0]
    pos_row = out[0]
    om_row = out[1]
    tm_row = out[2]
    th_row = out[3]

    if start == 0:
        # No derivative history: a previous error equal to the first
        # substep's own makes both derivatives (e - e) / dt = 0.0 exactly.
        m_prev_err = ref[0] - angle
        eff = digit_queue[0] if n_delay > 0 else commanded
        h_prev_err = eff * unit_torque - h_applied

    for s in range(n_sub):
        col = start + s
        # -- machine PID on the tracking error at the current time
        e_m = ref[col] - angle
        d_m = (e_m - m_prev_err) / dt
        m_integral += e_m * dt
        if m_integral > m_integral_limit:
            m_integral = m_integral_limit
        elif m_integral < m_integral_floor:
            m_integral = m_integral_floor
        u_m = m_kp * e_m + m_ki * m_integral + m_kd * d_m
        m_prev_err = e_m
        tau_m = u_m
        if tau_m > torque_limit:
            tau_m = torque_limit
        elif tau_m < torque_floor:
            tau_m = torque_floor

        # -- human chain: reaction delay, sub-PD torque tracker, lag, noise.
        # Substep s acts on the digit queued s places ahead, or on the
        # commanded one once the queue is used up; the queue shifts below.
        if s < n_delay:
            eff = digit_queue[s]
        else:
            eff = commanded
        if eff == 2 or eff == -2:
            h_kp = h_kp_hi
            h_kd = h_kd_hi
        else:
            h_kp = h_kp_lo
            h_kd = h_kd_lo
        e_h = eff * unit_torque - h_applied
        d_h = (e_h - h_prev_err) / dt
        rate = h_kp * e_h + h_kd * d_h
        h_prev_err = e_h
        h_applied += lag_step * rate
        tau_h = h_applied + noise[s]
        if tau_h > torque_limit:
            tau_h = torque_limit
        elif tau_h < torque_floor:
            tau_h = torque_floor

        # -- plant: semi-implicit Euler with hard angle stops
        omega += dt * (tau_m + tau_h - damping * omega) / inertia
        if omega > omega_max:
            omega = omega_max
        elif omega < omega_floor:
            omega = omega_floor
        angle += dt * omega
        if angle < angle_min:
            angle = angle_min
            omega = 0.0
        elif angle > angle_max:
            angle = angle_max
            omega = 0.0

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
    sim[SIM_M_INTEGRAL] = m_integral
    sim[SIM_M_PREV_ERR] = m_prev_err
    sim[SIM_H_APPLIED] = h_applied
    sim[SIM_H_PREV_ERR] = h_prev_err
    sim[SIM_M_IDX] = m_idx


run_substeps = hot(_run_substeps)

# The uncompiled body, regardless of backend; used by the benchmark and the
# backend-equivalence tests.
run_substeps_python = run_substeps.py_func if NUMBA_ENABLED else run_substeps

