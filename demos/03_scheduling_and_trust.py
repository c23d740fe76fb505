"""Schedule a workflow over a multi-cloud and watch trust move the bindings.

Generates a small random workflow and a 5-provider / 15-service cloud, builds
the initial trust repository from advertised failure rates, schedules, then
simulates a run of detected attacks against the chosen services and schedules
again to show bindings shifting away from services that lost trust.
"""

from secflow.model import AttackType, TenantConfig
from secflow.scheduling import TrustRepository, schedule
from secflow.sim import WorkflowClass, generate_multicloud, generate_workflow_class


def main():
    workflow = generate_workflow_class(WorkflowClass.SMALL, seed=11)
    cloud = generate_multicloud(seed=12)
    cfg = TenantConfig()
    trust = TrustRepository.from_cloud(cloud)

    plan = schedule(workflow, cloud, trust, cfg)
    print("initial bindings:")
    for tid in sorted(plan.bindings):
        sid = plan.bindings[tid]
        print(f"  {tid} -> {sid}  (trust {trust.score(sid):.3f})")

    # every bound service observes a detected DoS; trust drops via the EWMA
    for sid in set(plan.bindings.values()):
        for _ in range(5):
            trust.update(sid, AttackType.DOS, detected=True)

    replanned = schedule(workflow, cloud, trust, cfg)
    moved = {
        tid for tid in plan.bindings if plan.bindings[tid] != replanned.bindings[tid]
    }
    print(f"\nafter detected attacks, {len(moved)} of "
          f"{len(plan.bindings)} bindings moved:")
    for tid in sorted(moved):
        print(f"  {tid}: {plan.bindings[tid]} -> {replanned.bindings[tid]}")


if __name__ == "__main__":
    main()
