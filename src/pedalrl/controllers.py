"""PD/PID gains and the eight fixed sub-controller banks.

Each experiment setting pairs one shared-reward ``RewardWeights`` with two
human PD gain pairs and two machine PID gain triples. Agents act by switching
between the two entries of their bank; the PD/PID updates themselves run
inside the fused kernel (:mod:`pedalrl.kernels`).
"""

from dataclasses import dataclass

from .rewards import RewardWeights

EPS_GAIN = 1e-12  # floor used when deriving the anti-windup limit from ki


@dataclass(frozen=True)
class PDGains:
    kp: float
    kd: float


@dataclass(frozen=True)
class PIDGains:
    kp: float
    ki: float
    kd: float


@dataclass(frozen=True)
class SettingConfig:
    """One row of the sub-controller bank table."""

    weights: RewardWeights
    human_pd: tuple  # (PDGains, PDGains): high-intensity pair first
    machine_pid: tuple  # (PIDGains, PIDGains)


def _setting(weights, pd1, pd2, pid1, pid2):
    return SettingConfig(
        weights=RewardWeights(*weights),
        human_pd=(PDGains(*pd1), PDGains(*pd2)),
        machine_pid=(PIDGains(*pid1), PIDGains(*pid2)),
    )


SETTINGS = {
    1: _setting((1, 1, 5), (30, 0.2), (15, 0.1), (24, 2.4, 24), (12, 1.2, 12)),
    2: _setting((1, 1, 5), (30, 0.2), (15, 0.1), (12, 1.2, 12), (6, 0.6, 6)),
    3: _setting((1, 1, 5), (5, 0.1), (2.5, 0.05), (24, 2.4, 24), (12, 1.2, 12)),
    4: _setting((1, 1, 5), (5, 0.1), (2.5, 0.05), (12, 1.2, 12), (6, 0.6, 6)),
    5: _setting((1, 8, 1), (30, 0.2), (15, 0.1), (24, 2.4, 24), (12, 1.2, 12)),
    6: _setting((1, 8, 1), (30, 0.2), (15, 0.1), (12, 1.2, 12), (6, 0.6, 6)),
    7: _setting((1, 8, 1), (5, 0.1), (2.5, 0.05), (12, 1.2, 12), (6, 0.6, 6)),
    8: _setting((1, 8, 1), (5, 0.1), (2.5, 0.05), (24, 2.4, 24), (12, 1.2, 12)),
}
SETTING_RANGE = "%d..%d" % (min(SETTINGS), max(SETTINGS))  # the ids, as messages write them


def default_integral_limit(gains: PIDGains, torque_limit: float) -> float:
    """Anti-windup bound: the integral term alone cannot exceed actuator authority."""
    return torque_limit / max(gains.ki, EPS_GAIN)

