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

    def __post_init__(self):
        if self.inertia <= 0.0:
            raise ValueError("inertia must be positive")
        if self.damping < 0.0:
            raise ValueError("damping must be non-negative")
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if not self.angle_min < self.angle_max:
            raise ValueError("angle_min must be below angle_max")
        if self.torque_limit <= 0.0 or self.omega_max <= 0.0:
            raise ValueError("torque_limit and omega_max must be positive")


@dataclass(frozen=True)
class ReferenceTrajectory:
    """Sinusoidal dorsiflexion/plantarflexion target for the pedal angle."""

    amplitude: float = 0.3  # rad
    period: float = 4.0  # s
    phase: float = 0.0  # rad
    offset: float = 0.0  # rad

    def __post_init__(self):
        if self.amplitude < 0.0:
            raise ValueError("amplitude must be non-negative")
        if self.period <= 0.0:
            raise ValueError("period must be positive")


def sample_reference(traj: ReferenceTrajectory, t: float) -> float:
    """Reference pedal angle at time ``t``."""
    if t < 0.0:
        raise ValueError("t must be non-negative")
    return traj.offset + traj.amplitude * math.sin(
        2.0 * math.pi * t / traj.period + traj.phase
    )

