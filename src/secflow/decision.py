"""Adaptation decision engine: trigger check, candidate-set intersection,
cost ranking, backup-service resolution, and application of a chosen
candidate (the cheapest, or one a learned policy picked) as a tenant- or
middleware-level action to a running instance."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .datagen import DatasetKind
from .model import (
    ACTION_ORDER,
    SEVERITY_LEVEL,
    ActionKind,
    ActionParams,
    AttackSpec,
    AttackType,
    MultiCloud,
    Service,
    Severity,
    Task,
    TenantConfig,
    builtin_action_properties,
)
from .scheduling import TrustRepository, eligible_services
from .scoring import adaptation_cost, attack_score, mitigation_score, normalize

#: AFR multiplier applied to the attacked service by a reconfiguration action.
RECONFIG_AFR_FACTOR = 0.5


class NoBackupError(RuntimeError):
    """No alternative service is available to price Rework/Redundancy."""


@dataclass(frozen=True)
class AttackEvent:
    """A concrete detected attack occurrence on a bound task."""

    attack_type: AttackType
    level: Severity
    detected_in: DatasetKind
    task_id: str
    service_id: str


@dataclass(frozen=True)
class CostBreakdown:
    """One candidate of a selection: its kind, its nominal price, time and
    value, its mitigation score and its adaptation cost (`total`)."""

    kind: ActionKind
    price: float
    time: float
    mitigation: float
    value: float
    total: float


class SelectionStatus(enum.Enum):
    NOT_TRIGGERED = "not-triggered"
    SELECTED = "selected"
    UNMITIGABLE = "unmitigable"


@dataclass(frozen=True)
class CandidateSet:
    """The candidates of a triggered selection, with their kinds cheapest
    first (`cost_rank`), the backup service that prices Rework/Redundancy and
    the strongest mitigation score. No candidates: the attack is
    unmitigable."""

    breakdowns: tuple  # in declaration order: the audit trail
    backup: Service | None
    ranked: tuple  # candidate kinds, cheapest first
    ms_best: float

    def candidate(self, kind: ActionKind) -> CostBreakdown:
        """The candidate of `kind`; a kind outside the set raises ValueError."""
        for b in self.breakdowns:
            if b.kind == kind:
                return b
        raise ValueError(f"{kind!r} is outside the candidate set")


@dataclass(frozen=True)
class SelectionResult:
    status: SelectionStatus
    trigger_score: float
    candidates: CandidateSet | None = None  # None below the trigger threshold


def cost_rank(b: CostBreakdown):
    """Lowest adaptation cost first; ties: higher mitigation score, then
    declaration order. Unique per kind."""
    return (b.total, -b.mitigation, ACTION_ORDER.index(b.kind))


def find_backup_service(
    task: Task,
    current: Service,
    cloud: MultiCloud,
    detected_in: DatasetKind,
) -> Service:
    """Cheapest eligible alternative to the attacked service. A violation seen
    in the cloud log file implicates the provider, so the whole current
    provider is excluded; network-side detections allow sibling services.
    Ties break on the lexicographically smallest id."""
    pool = [s for s in eligible_services(task, cloud) if s.id != current.id]
    if detected_in is DatasetKind.CLF:
        pool = [s for s in pool if s.provider_id != current.provider_id]
    if not pool:
        raise NoBackupError(
            f"no backup service for task {task.id!r} (current {current.id!r})"
        )
    return min(pool, key=lambda s: (s.price, s.id))


def candidate_params(
    kind: ActionKind,
    task: Task,
    service: Service,
    backup: Service | None,
) -> ActionParams:
    """Resolve a candidate's price/time/MI/value: explicit modeling-time params
    for tenant kinds when present, else the built-in catalog row instantiated
    against the bound service."""
    explicit = task.feasible_actions.get(kind)
    if explicit is not None:
        return explicit
    return builtin_action_properties(
        kind,
        task_time=service.response_time,
        task_price=service.price,
        task_value=task.value,
        backup=backup,
    )


def resolve_candidates(
    task: Task,
    spec: AttackSpec,
    level: Severity,
    detected_in: DatasetKind,
    cfg: TenantConfig,
    cloud: MultiCloud,
    current: Service,
) -> CandidateSet:
    """The candidate set of a triggered selection: the intersection of the
    severity tier's mitigation actions with the task's feasible actions
    (Rework/Redundancy drop out when no backup resolves), each priced,
    normalized and costed. Nothing here reads live state, so for one task
    bound to `current` it depends only on (attack type, tier, detector kind)."""
    allowed = spec.mitigation_actions[level] & set(task.feasible_actions)
    final = [k for k in ACTION_ORDER if k in allowed]

    backup = None
    if ActionKind.REWORK in final or ActionKind.REDUNDANCY in final:
        try:
            backup = find_backup_service(task, current, cloud, detected_in)
        except NoBackupError:
            final = [
                k for k in final if k not in (ActionKind.REWORK, ActionKind.REDUNDANCY)
            ]
    if not final:
        return CandidateSet((), None, (), 0.0)

    params = {k: candidate_params(k, task, current, backup) for k in final}
    ms = {
        k: mitigation_score(task.requirements, spec.impact, p.mitigation_impact)
        for k, p in params.items()
    }
    price_n = normalize({k: params[k].price for k in final})
    time_n = normalize({k: params[k].time for k in final})
    ms_n = normalize(ms)
    value_n = normalize({k: params[k].value for k in final})
    breakdowns = tuple(
        CostBreakdown(
            kind=k,
            price=params[k].price,
            time=params[k].time,
            mitigation=ms[k],
            value=params[k].value,
            total=adaptation_cost(cfg, price_n[k], time_n[k], ms_n[k], value_n[k]),
        )
        for k in final
    )
    ranked = tuple(b.kind for b in sorted(breakdowns, key=cost_rank))
    return CandidateSet(breakdowns, backup, ranked, max(ms.values()))


def select_action(
    task: Task,
    event: AttackEvent,
    spec: AttackSpec,
    cfg: TenantConfig,
    cloud: MultiCloud,
    trust: TrustRepository,
    current: Service,
    memo: dict | None = None,
) -> SelectionResult:
    """Run the selection algorithm for one detected attack.

    Below the tenant's trigger threshold, nothing happens. Otherwise the
    candidate set is `resolve_candidates`'s, ranked by adaptation cost
    (`cost_rank`); `CandidateSet.candidate` looks up the one to apply.
    `memo` keeps resolved candidate sets by (task id, attack type, tier,
    detector kind) across calls that share `cfg`, `cloud` and each task's
    bound service `current`, as the instances of one experiment do.
    """
    afr = trust.afr(event.service_id, event.attack_type)
    score = attack_score(task.requirements, spec.impact, afr, SEVERITY_LEVEL[event.level])
    if score <= cfg.adapt_trigger_threshold:
        return SelectionResult(SelectionStatus.NOT_TRIGGERED, score)
    if memo is None:
        memo = {}
    key = (task.id, event.attack_type, event.level, event.detected_in)
    candidates = memo.get(key)
    if candidates is None:
        candidates = memo[key] = resolve_candidates(
            task, spec, event.level, event.detected_in, cfg, cloud, current
        )
    status = SelectionStatus.SELECTED if candidates.breakdowns else SelectionStatus.UNMITIGABLE
    return SelectionResult(status, score, candidates)


def apply_tenant_action(state, event: AttackEvent, chosen: CostBreakdown):
    """Apply a Skip/Switch/Insert candidate to the execution state.

    Skip zeroes the task's contribution and flags data-dependent successors as
    degraded. Switch charges the re-sequencing overhead in place (time and
    value deltas). Insert appends a synthetic mitigation task's params."""
    kind = chosen.kind
    task_id = event.task_id
    mitigation = chosen.mitigation
    if kind is ActionKind.SKIP:
        state.skip_task(task_id)
        state.add_adaptation(task_id, price=0.0, time=0.0, value_delta=0.0,
                             mitigation=mitigation)
        return
    if kind is ActionKind.SWITCH:
        base_value = state.base_value(task_id)
        state.add_adaptation(
            task_id,
            price=0.0,
            time=chosen.time,
            value_delta=chosen.value - base_value,
            mitigation=mitigation,
        )
        return
    if kind is ActionKind.INSERT:
        state.add_adaptation(
            task_id,
            price=chosen.price,
            time=chosen.time,
            value_delta=chosen.value,
            mitigation=mitigation,
        )
        return
    raise ValueError(f"not a tenant action: {kind!r}")


def apply_middleware_action(
    state, event: AttackEvent, chosen: CostBreakdown, backup: Service | None,
    trust: TrustRepository,
):
    """Apply a Rework/Redundancy/Reconfiguration candidate, the first two on
    `backup`, and record the violation against the original service's
    trust."""
    kind = chosen.kind
    task_id = event.task_id
    mitigation = chosen.mitigation
    if kind is ActionKind.REWORK:
        if backup is None:
            raise NoBackupError(f"rework on {task_id!r} lost its backup service")
        time = backup.response_time * state.late_multiplier()
        state.add_adaptation(task_id, price=backup.price, time=time, value_delta=0.0,
                             mitigation=mitigation)
    elif kind is ActionKind.REDUNDANCY:
        if backup is None:
            raise NoBackupError(f"redundancy on {task_id!r} lost its backup service")
        base_time = state.base_time(task_id)
        base_value = state.base_value(task_id)
        state.add_adaptation(
            task_id,
            price=backup.price,
            time=max(backup.response_time, base_time) - base_time,
            value_delta=chosen.value - base_value,
            mitigation=mitigation,
        )
    elif kind is ActionKind.RECONFIGURATION:
        base_price = state.base_price(task_id)
        base_time = state.base_time(task_id)
        base_value = state.base_value(task_id)
        state.add_adaptation(
            task_id,
            price=chosen.price - base_price,
            time=chosen.time - base_time,
            value_delta=chosen.value - base_value,
            mitigation=mitigation,
        )
        trust.scale_afr(event.service_id, event.attack_type, RECONFIG_AFR_FACTOR)
    else:
        raise ValueError(f"not a middleware action: {kind!r}")
    trust.update(event.service_id, event.attack_type, detected=True)
