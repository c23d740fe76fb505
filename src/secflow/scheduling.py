"""Trust-aware task-to-service assignment and the provider trust repository."""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import (
    AttackType,
    MultiCloud,
    SchedulingPlan,
    TenantConfig,
    Workflow,
)
from .scoring import normalize

EWMA_BETA = 0.1


def _ewma(old: float, detected: bool) -> float:
    new = (1.0 - EWMA_BETA) * old + EWMA_BETA * (1.0 if detected else 0.0)
    return min(1.0, max(0.0, new))


class UnschedulableError(RuntimeError):
    """No service satisfies a task's security requirements."""


@dataclass
class TrustRepository:
    """Live attack-frequency rates per (service, attack type), and the trust
    score computed from them. One writer updates it in run order: trust
    reconciliation between instances, middleware actions during one."""

    afr_history: dict = field(default_factory=dict)  # (service id, AttackType) -> [0,1]

    @classmethod
    def from_cloud(cls, cloud: MultiCloud) -> "TrustRepository":
        """Seed the repository from each service's static AFR vector."""
        repo = cls()
        for s in cloud.services():
            for at in AttackType:
                repo.afr_history[(s.id, at)] = float(s.afr.get(at, 0.0))
        return repo

    def afr(self, service_id: str, attack_type: AttackType) -> float:
        return self.afr_history[(service_id, attack_type)]

    def score(self, service_id: str) -> float:
        """Trust in [0,1]: 1 - the service's mean attack-frequency rate."""
        rates = [self.afr_history[(service_id, at)] for at in AttackType]
        return min(1.0, max(0.0, 1.0 - sum(rates) / len(rates)))

    def update(self, service_id: str, attack_type: AttackType, detected: bool):
        """EWMA update of the per-type rate."""
        key = (service_id, attack_type)
        if key not in self.afr_history:
            raise KeyError(f"unknown service {service_id!r}")
        self.afr_history[key] = _ewma(self.afr_history[key], detected)

    def observe(self, hits):
        """One EWMA update of every rate: whether its (service id, AttackType)
        pair is in `hits`. `_ewma` inline: its expression and clamp, in place,
        in the table's key order."""
        history = self.afr_history
        keep = 1.0 - EWMA_BETA
        for key, old in history.items():
            new = keep * old + EWMA_BETA * (1.0 if key in hits else 0.0)
            history[key] = min(1.0, max(0.0, new))

    def scale_afr(self, service_id: str, attack_type: AttackType, factor: float):
        """Multiplicative AFR adjustment (used by reconfiguration actions)."""
        key = (service_id, attack_type)
        if key not in self.afr_history:
            raise KeyError(f"unknown service {service_id!r}")
        self.afr_history[key] = min(1.0, max(0.0, self.afr_history[key] * factor))


def eligible_services(task, cloud: MultiCloud):
    """Services whose guarantees dominate the task's CIA requirements."""
    return [s for s in cloud.services() if s.guarantees.dominates(task.requirements)]


def schedule(
    workflow: Workflow,
    cloud: MultiCloud,
    trust: TrustRepository,
    cfg: TenantConfig,
) -> SchedulingPlan:
    """Bind each task to the eligible service minimizing
    w_price*price_norm + w_time*time_norm - w_security*trust(s),
    normalized min-max over the task's eligible set. Ties break on the
    lexicographically smallest service id so plans are deterministic.
    """
    bindings = {}
    for task in workflow.tasks:
        pool = eligible_services(task, cloud)
        if not pool:
            raise UnschedulableError(
                f"no eligible service for task {task.id!r} "
                f"(requires {task.requirements.as_tuple()})"
            )
        price_n = normalize({s.id: s.price for s in pool})
        time_n = normalize({s.id: s.response_time for s in pool})

        def score(s):
            return (
                cfg.w_price * price_n[s.id]
                + cfg.w_time * time_n[s.id]
                - cfg.w_security * trust.score(s.id)
            )

        best = min(pool, key=lambda s: (score(s), s.id))
        bindings[task.id] = best.id
    return SchedulingPlan(bindings=bindings)
