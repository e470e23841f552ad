"""Sliding-window reward terms and their weighted combination.

All terms are evaluated at decision cadence: the windows hold the last k
decision-step samples of pedal position, reference position and human digit
actions. Tracking error and motion roughness are penalties, action
variability under engagement is a bonus; the combined scalar is shared by
both agents each decision step, weighted by the setting's RewardWeights.

The variability term has a quirk: the mean is taken over all k actions
while the deviations are summed over the first k-1 and normalized by k-2.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class RewardWeights:
    """(mu, kappa, rho) weighting of the shared reward.

    The weights are magnitudes; the sign convention (tracking and roughness
    penalized, variability rewarded) is fixed inside :func:`human_reward`.
    """

    mu: float
    kappa: float
    rho: float


def tracking_term(actual, reference) -> float:
    """Sum of squared position errors over the window (>= 0).

    ``actual`` and ``reference`` must have equal lengths (ValueError otherwise).
    """
    total = 0.0
    for p, ref in zip(actual, reference, strict=True):
        d = p - ref
        total += d * d
    return total


def comfort_term(positions) -> float:
    """Sum of absolute second differences of a position sequence (>= 0).

    Zero exactly on affine sequences and on fewer than 3 samples: steady
    motion is comfortable, acceleration is not. The shared reward scores the
    window's actual positions; the human observation scores the latest
    (possibly shorter) position history.
    """
    p = positions
    total = 0.0
    for i in range(2, len(p)):
        total += abs(p[i] + p[i - 2] - 2.0 * p[i - 1])
    return total


def effort_term(actions) -> float:
    """Gated action-variability bonus (>= 0) over the last k actions.

    The engagement flag E is 1 exactly when the action changed on the most
    recent decision step (``actions[-1] != actions[-2]``); the bonus is zero
    when E = 0. Otherwise the mean is taken over all k actions but the
    squared deviations are summed over the first k-1 only and divided by
    k-2; this lopsided normalization is intentional.
    """
    if actions[-1] == actions[-2]:
        return 0.0
    k = len(actions)
    mean = sum(actions) / k
    total = 0.0
    for i in range(k - 1):
        d = actions[i] - mean
        total += d * d
    return total / (k - 2)


def human_reward(r_m: float, r_c: float, r_e: float, weights: RewardWeights) -> float:
    """-mu*r_m - kappa*r_c + rho*r_e: penalties negative, engagement positive."""
    return -weights.mu * r_m - weights.kappa * r_c + weights.rho * r_e


def shared_reward(actual, reference, actions, weights: RewardWeights, comfort: float) -> float:
    """The combined scalar delivered identically to both agents.

    ``comfort`` is ``comfort_term(actual)``, which the episode has already
    scored for the next human observation.
    """
    return human_reward(
        tracking_term(actual, reference), comfort, effort_term(actions), weights
    )
