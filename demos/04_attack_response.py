"""Walk one detected attack through the adaptation-selection algorithm.

Builds a single task bound to a service, raises a high-severity DoS event,
and prints the trigger score, the per-candidate cost breakdowns (price, time,
mitigation, value after min-max normalization), and the selected action.
"""

from secflow.decision import AttackEvent, SelectionStatus, select_action
from secflow.datagen import DatasetKind
from secflow.model import (
    ActionKind,
    AttackType,
    MultiCloud,
    SecurityVector,
    Service,
    Severity,
    Task,
    TenantConfig,
    builtin_attack_catalog,
)
from secflow.scheduling import TrustRepository


def _service(sid, provider, price, time, afr):
    return Service(
        id=sid,
        provider_id=provider,
        price=price,
        response_time=time,
        guarantees=SecurityVector(1.0, 1.0, 1.0),
        afr={at: afr for at in AttackType},
    )


def main():
    cloud = MultiCloud(
        providers=(
            ("p0", (_service("p0-s0", "p0", 2.0, 10.0, 0.6),
                    _service("p0-s1", "p0", 1.5, 14.0, 0.3))),
            ("p1", (_service("p1-s0", "p1", 3.5, 7.0, 0.2),)),
        )
    )
    task = Task(
        id="t0",
        requirements=SecurityVector(0.9, 0.8, 0.7),
        value=2.0,
        feasible_actions={k: None for k in ActionKind},
    )
    current = cloud.service_map()["p0-s0"]
    trust = TrustRepository.from_cloud(cloud)
    catalog = builtin_attack_catalog()

    event = AttackEvent(
        attack_type=AttackType.DOS,
        level=Severity.HIGH,
        detected_in=DatasetKind.NTD,
        task_id=task.id,
        service_id=current.id,
    )
    result = select_action(
        task, event, catalog[AttackType.DOS], TenantConfig(), cloud, trust, current
    )
    print(f"status: {result.status.value}, trigger score "
          f"{result.trigger_score:.3f}")
    if result.status is SelectionStatus.SELECTED:
        print("\ncandidates (ascending cost):")
        for b in sorted(result.candidates.breakdowns, key=lambda b: b.total):
            print(f"  {b.kind.value:<15} price {b.price:6.2f}  time {b.time:6.2f}"
                  f"  mitigation {b.mitigation:.3f}  cost {b.total:+.3f}")
        print(f"\nselected: {result.candidates.ranked[0].value}")


if __name__ == "__main__":
    main()
