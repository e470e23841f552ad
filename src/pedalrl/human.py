"""Synthetic human torque model: reaction delay, sub-PD tracking, lag, noise.

The human agent picks a digit from ``DIGITS``; the model turns that digit
into an applied pedal torque. The commanded digit travels through a FIFO
reaction-delay queue, the effective digit selects one of two PD gain pairs
(the strong pair for |digit| = 2) and a torque setpoint ``digit *
unit_torque``. The PD output is a torque *rate*: the applied torque moves
toward the setpoint through a first-order lag, then zero-mean Gaussian noise
is added before actuator clamping. With the delay and lag shrunk to zero the
applied torque converges monotonically to the setpoint, which pins the model
against drift or overshoot from the discretization.

The chain runs inside the fused kernel in :mod:`pedalrl.kernels`; the
readable per-substep reference it is pinned against lives in the test suite
(``tests/oracles.py``).
"""

from dataclasses import dataclass

# Digit vocabulary in action-index order: index 0 is "rest".
DIGITS = (0, 1, -1, 2, -2)


@dataclass(frozen=True)
class HumanParams:
    unit_torque: float = 5.0  # N*m commanded per digit unit
    reaction_delay: int = 5  # substeps a new digit takes to become effective
    lag_time_constant: float = 0.2  # s, muscle activation lag
    noise_std: float = 0.2  # N*m, std of additive torque noise

