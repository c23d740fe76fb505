"""Pure scoring functions: attack score, mitigation score, min-max
normalization with its degenerate cases, and the weighted adaptation cost."""

from __future__ import annotations

import math

from .model import SecurityVector, TenantConfig

#: Absolute tolerance for the "all values equal" normalization case.
EQUAL_TOL = 1e-12


class ScoringDomainError(ValueError):
    pass


def _require_unit(name, value):
    if not (0.0 <= value <= 1.0):
        raise ScoringDomainError(f"{name} must be in [0,1], got {value!r}")


def impact_factor(requirements: SecurityVector, impact: SecurityVector) -> float:
    """The CIA impact factor of an attack on a task: 1 - prod over CIA of
    (1 - req*impact). It depends on the task and the attack type alone."""
    # the fold from 1.0, whose first product is exact
    return 1.0 - ((1.0 - requirements.c * impact.c) * (1.0 - requirements.i * impact.i)
                  * (1.0 - requirements.a * impact.a))


def scaled_attack_score(factor: float, afr: float, level: float) -> float:
    """The attack score of an `impact_factor`: factor * afr * level, with
    afr and level in [0,1]."""
    if not (0.0 <= afr <= 1.0 and 0.0 <= level <= 1.0):
        _require_unit("afr", afr)
        _require_unit("level", level)
    return factor * afr * level


def attack_score(
    requirements: SecurityVector,
    impact: SecurityVector,
    afr: float,
    level: float,
) -> float:
    """Impact of a detected attack on a task:
    (1 - prod over CIA of (1 - req*impact)) * afr * level."""
    return scaled_attack_score(impact_factor(requirements, impact), afr, level)


def mitigation_score(
    requirements: SecurityVector,
    impact: SecurityVector,
    mitigation_impact: SecurityVector,
) -> float:
    """Mitigation effect of an action: sum over CIA of (1 - req*impact) * mi.
    Bounded by 3 (each term's weight and mi are at most 1)."""
    total = 0.0
    for req, imp, mi in zip(
        requirements.as_tuple(), impact.as_tuple(), mitigation_impact.as_tuple()
    ):
        total += (1.0 - req * imp) * mi
    return total


def normalize_column(keys, values) -> list:
    """Min-max normalize `values`, the candidate values of `keys` in order.

    Three cases: a single candidate keeps its raw value (no normalization
    needed), all-equal values map to 0, otherwise (x - min) / (max - min).
    """
    if not values:
        raise ScoringDomainError("cannot normalize an empty candidate map")
    for k, v in zip(keys, values):
        if not math.isfinite(v):
            raise ScoringDomainError(f"non-finite value for {k!r}: {v!r}")
    if len(values) == 1:
        return list(values)
    lo = min(values)
    hi = max(values)
    if hi - lo <= EQUAL_TOL:
        return [0.0] * len(values)
    return [(v - lo) / (hi - lo) for v in values]


def normalize(values: dict) -> dict:
    """`normalize_column` of a map of candidate-action values."""
    return dict(zip(values, normalize_column(tuple(values), tuple(values.values()))))


def adaptation_cost(
    cfg: TenantConfig,
    price: float,
    time: float,
    mitigation: float,
    value: float,
) -> float:
    """Weighted cost of one candidate: w_p*P + w_t*T - w_s*MS - w_v*V
    (all components already normalized)."""
    return (
        cfg.w_price * price
        + cfg.w_time * time
        - cfg.w_security * mitigation
        - cfg.w_value * value
    )
