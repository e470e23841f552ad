"""1-DOF rotational pedal plant parameters and the sinusoidal reference.

The pedal is modeled as an inertia-damper driven by the sum of the machine
torque and the human torque, integrated with semi-implicit Euler and bounded
by hard mechanical stops (angular velocity is zeroed on contact, like a
physical end stop). The step itself lives in the fused kernel
(:mod:`pedalrl.kernels`).
"""

import math
from dataclasses import dataclass


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
    """Reference pedal angle at time ``t``."""
    if t < 0.0:
        raise ValueError("t must be non-negative")
    return traj.offset + traj.amplitude * math.sin(
        2.0 * math.pi * t / traj.period + traj.phase
    )

