"""1-DOF rotational pedal plant parameters and the sinusoidal reference.

The pedal is modeled as an inertia-damper driven by the sum of the machine
torque and the human torque, integrated with semi-implicit Euler and bounded
by hard mechanical stops (angular velocity is zeroed on contact, like a
physical end stop). The step itself lives in the fused kernel
(:mod:`pedalrl.kernels`).

This module is the one home of the reference: :func:`sample_reference` is
its formula, and :func:`clock` its samples over an episode, which depend
only on the env. Traces view the clock's time and reference rows, and the
kernel reads each substep's starting reference there.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PlantParams:
    """Physical parameters of the pedal plant."""

    inertia: float = 0.3  # kg m^2: pedal plus engaged lower limb
    damping: float = 1.0  # N m s/rad
    torque_limit: float = 30.0  # N m, applied to each torque input
    dt: float = 0.01  # s
    angle_min: float = -0.6  # rad
    angle_max: float = 0.6  # rad
    omega_max: float = 10.0  # rad/s


@dataclass(frozen=True)
class ReferenceTrajectory:
    """Sinusoidal dorsiflexion/plantarflexion target for the pedal angle."""

    amplitude: float = 0.3  # rad
    period: float = 4.0  # s
    phase: float = 0.0  # rad
    offset: float = 0.0  # rad


def sample_reference(traj: ReferenceTrajectory, t: float) -> float:
    """Reference pedal angle at time ``t`` (:func:`clock` passes times from 0)."""
    return traj.offset + traj.amplitude * math.sin(
        2.0 * math.pi * t / traj.period + traj.phase
    )


def clock(traj: ReferenceTrajectory, dt: float, n_substeps: int) -> np.ndarray:
    """Time and reference after 0 .. ``n_substeps`` substeps of ``dt``.

    A read-only ``(2, n_substeps + 1)`` float64 array: row 0 is the time, the
    running sum ``t += dt`` from 0, and row 1 is :func:`sample_reference` at
    each time. Column ``i`` is the state after ``i`` substeps, so a trace's
    rows are views of columns 1 onwards. Built once per (reference, ``dt``,
    ``n_substeps``) and shared by every episode that asks for it; the cache
    keeps only the last one built, and an older one lives as long as a trace
    that views it. The key is the values' bits: ``-0.0 == 0.0``, but an
    offset of ``-0.0`` can give a row of another sign.
    """
    values = (traj.amplitude, traj.period, traj.phase, traj.offset, dt)
    return _clock(tuple(float(v).hex() for v in values), n_substeps)


@functools.lru_cache(maxsize=1)
def _clock(key, n_substeps):
    amplitude, period, phase, offset, dt = map(float.fromhex, key)
    traj = ReferenceTrajectory(amplitude, period, phase, offset)
    times = [0.0] * (n_substeps + 1)
    t = 0.0
    for i in range(1, n_substeps + 1):
        t += dt
        times[i] = t
    rows = np.array([times, [sample_reference(traj, t) for t in times]])
    rows.flags.writeable = False
    return rows
