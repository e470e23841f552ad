"""Hot simulation kernel with optional numba acceleration.

The inner loop of every episode advances the plant, the machine PID and the
synthetic human chain for ``decision_interval`` substeps between agent
decisions. That loop is scalar and sequential, so it is compiled with
``numba.njit`` when available. Setting the environment variable
``PEDALRL_DISABLE_NUMBA=1`` (or running without numba installed) selects the
pure NumPy/Python fallback: the same function body is executed uncompiled,
which keeps the two backends bit-for-bit identical. ``pedalrl bench``
compares their speed.

The kernel is deliberately self-contained (no calls into other modules) so
that its ``py_func`` really is the whole fallback path. It is the only
implementation of the per-step math in the package. The readable reference
it is pinned against, bit for bit, is the composition of the plant,
controller and human step functions in ``tests/oracles.py``.
"""

import math
import os

try:
    from numba import njit

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only on bare installs
    njit = None
    _HAVE_NUMBA = False

_DISABLED = os.environ.get("PEDALRL_DISABLE_NUMBA", "").strip().lower() in (
    "1",
    "true",
    "yes",
)

NUMBA_ENABLED = _HAVE_NUMBA and not _DISABLED


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
SIM_M_INIT = 5
SIM_H_APPLIED = 6
SIM_H_PREV_ERR = 7
SIM_H_INIT = 8
SIM_SIZE = 9

# Indices into the packed plant parameter vector (float64[7]).
PP_INERTIA = 0
PP_DAMPING = 1
PP_TORQUE_LIMIT = 2
PP_DT = 3
PP_ANGLE_MIN = 4
PP_ANGLE_MAX = 5
PP_OMEGA_MAX = 6
PP_SIZE = 7

# Indices into the packed reference parameter vector (float64[4]).
RP_AMPLITUDE = 0
RP_PERIOD = 1
RP_PHASE = 2
RP_OFFSET = 3
RP_SIZE = 4


def _run_substeps(
    sim,
    digit_queue,
    commanded_digit,
    m_kp,
    m_ki,
    m_kd,
    m_integral_limit,
    h_kp_hi,
    h_kd_hi,
    h_kp_lo,
    h_kd_lo,
    unit_torque,
    lag_tc,
    noise,
    plant_p,
    ref_p,
    out_t,
    out_ref,
    out_pos,
    out_omega,
    out_tau_m,
    out_tau_h,
    start,
    n_sub,
):
    """Advance the closed loop by ``n_sub`` plant substeps.

    Mutates ``sim`` and ``digit_queue`` in place and writes trace rows
    ``start .. start+n_sub-1``. ``noise`` holds one pre-drawn, pre-scaled
    torque perturbation per substep (drawn outside so that the RNG stream
    never depends on the backend).
    """
    inertia = plant_p[PP_INERTIA]
    damping = plant_p[PP_DAMPING]
    torque_limit = plant_p[PP_TORQUE_LIMIT]
    dt = plant_p[PP_DT]
    angle_min = plant_p[PP_ANGLE_MIN]
    angle_max = plant_p[PP_ANGLE_MAX]
    omega_max = plant_p[PP_OMEGA_MAX]

    amp = ref_p[RP_AMPLITUDE]
    period = ref_p[RP_PERIOD]
    phase = ref_p[RP_PHASE]
    offset = ref_p[RP_OFFSET]
    two_pi = 2.0 * math.pi

    angle = sim[SIM_ANGLE]
    omega = sim[SIM_OMEGA]
    t = sim[SIM_T]
    m_integral = sim[SIM_M_INTEGRAL]
    m_prev_err = sim[SIM_M_PREV_ERR]
    m_init = sim[SIM_M_INIT]
    h_applied = sim[SIM_H_APPLIED]
    h_prev_err = sim[SIM_H_PREV_ERR]
    h_init = sim[SIM_H_INIT]

    lag_gain = dt / (lag_tc + dt)
    n_delay = digit_queue.shape[0]

    for s in range(n_sub):
        # -- machine PID on the tracking error at the current time
        ref_now = offset + amp * math.sin(two_pi * t / period + phase)
        e_m = ref_now - angle
        if m_init == 0.0:
            d_m = 0.0
            m_init = 1.0
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

        # -- human chain: reaction delay, sub-PD torque tracker, lag, noise
        if n_delay > 0:
            eff = digit_queue[0]
            for q in range(n_delay - 1):
                digit_queue[q] = digit_queue[q + 1]
            digit_queue[n_delay - 1] = commanded_digit
        else:
            eff = commanded_digit
        if eff == 2 or eff == -2:
            h_kp = h_kp_hi
            h_kd = h_kd_hi
        else:
            h_kp = h_kp_lo
            h_kd = h_kd_lo
        target = eff * unit_torque
        e_h = target - h_applied
        if h_init == 0.0:
            d_h = 0.0
            h_init = 1.0
        else:
            d_h = (e_h - h_prev_err) / dt
        rate = h_kp * e_h + h_kd * d_h
        h_prev_err = e_h
        h_applied += lag_gain * dt * rate
        tau_h = h_applied + noise[s]
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

        row = start + s
        out_t[row] = t
        out_ref[row] = offset + amp * math.sin(two_pi * t / period + phase)
        out_pos[row] = angle
        out_omega[row] = omega
        out_tau_m[row] = tau_m
        out_tau_h[row] = tau_h

    sim[SIM_ANGLE] = angle
    sim[SIM_OMEGA] = omega
    sim[SIM_T] = t
    sim[SIM_M_INTEGRAL] = m_integral
    sim[SIM_M_PREV_ERR] = m_prev_err
    sim[SIM_M_INIT] = m_init
    sim[SIM_H_APPLIED] = h_applied
    sim[SIM_H_PREV_ERR] = h_prev_err
    sim[SIM_H_INIT] = h_init


run_substeps = hot(_run_substeps)

# The uncompiled body, regardless of backend; used by the benchmark and the
# backend-equivalence tests.
run_substeps_python = run_substeps.py_func if NUMBA_ENABLED else run_substeps

