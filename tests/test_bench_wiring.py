"""The benchmark wraps secflow's layer functions by name from outside
(`perfbench/spans.py`). A rename under src/ must fail here, in a second, and
not only when the benchmark runs; so must a change to how often an instance
calls the wrapped hot-path functions."""

from collections import Counter

from perfbench import spans
from secflow import datagen, decision, detection, model, rl, sim
from secflow.model import TenantConfig
from secflow.scheduling import TrustRepository, schedule
from tests.conftest import weak_models


def test_every_wrapped_site_exists():
    sites = [site for _, _, owner_sites in spans.WIRING for site in owner_sites]
    sites += [(sim, "run_instance"), (rl, "run_training_episode")]
    missing = [f"{owner.__name__}.{attr}" for owner, attr in sites
               if attr not in owner.__dict__]
    assert not missing, f"the benchmark wraps names that are gone: {missing}"


def test_one_telemetry_draw_per_task_and_one_predict_per_attack(monkeypatch):
    """Counted the way perfbench counts: through the wrapped attributes. Clean
    telemetry reaches the detector only through one batch per kind."""
    detectors, severity_model = weak_models()
    workflow = sim.generate_workflow_class(sim.WorkflowClass.MEDIUM, 3)
    cloud = sim.generate_multicloud(4)
    trust = TrustRepository.from_cloud(cloud)
    plan = schedule(workflow, cloud, trust, TenantConfig())
    calls = Counter()

    def counted(owner, attr):
        original = owner.__dict__[attr]

        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)

    counted(datagen, "sample_features")
    counted(detection.DetectorModel, "predict")
    counted(sim.ExecutionState, "start_task")
    experiment = sim.Experiment(workflow, plan, cloud, detectors, severity_model,
                                TenantConfig(), trust, 0.5)
    result = sim.run_instance(experiment, 3)
    assert result.failures > 0 and result.injected > 0 and result.false_alarms > 0
    assert calls["sample_features"] == calls["start_task"] - result.failures
    assert calls["predict"] == result.injected


def test_one_resolution_per_candidate_key_within_an_experiment(monkeypatch):
    """Within one experiment (burn-in and adaptive rounds), each (task, attack
    type, tier, detector kind) resolves its backup at most once, the workflow
    is ordered once, `select_action` runs once per detected attack and
    `rl.q_update` once per adapted decision of the adaptive rounds."""
    detectors, severity_model = weak_models()
    workflow = sim.generate_workflow_class(sim.WorkflowClass.MEDIUM, 3)
    cloud = sim.generate_multicloud(4)
    calls = Counter()
    keys, backup_keys, results = [], [], []

    def select_action(task, event, *args):
        calls["select_action"] += 1
        keys.append((task.id, event.attack_type, event.level, event.detected_in))
        return original["select_action"](task, event, *args)

    def find_backup_service(*args):
        backup_keys.append(keys[-1])
        return original["find_backup_service"](*args)

    def topological_order(self):
        calls["topological_order"] += 1
        return original["topological_order"](self)

    def q_update(*args):
        calls["q_update"] += 1
        return original["q_update"](*args)

    def collecting(name):
        def wrapper(*args, **kwargs):
            results.append(original[name](*args, **kwargs))
            return results[-1]
        return wrapper

    original = {"select_action": sim.select_action,
                "find_backup_service": decision.find_backup_service,
                "topological_order": model.Workflow.topological_order,
                "q_update": rl.q_update,
                "run_instance": sim.run_instance,
                "run_training_episode": rl.run_training_episode}
    monkeypatch.setattr(sim, "select_action", select_action)
    monkeypatch.setattr(decision, "find_backup_service", find_backup_service)
    monkeypatch.setattr(model.Workflow, "topological_order", topological_order)
    monkeypatch.setattr(rl, "q_update", q_update)
    monkeypatch.setattr(sim, "run_instance", collecting("run_instance"))
    monkeypatch.setattr(rl, "run_training_episode", collecting("run_training_episode"))
    sim.run_experiment(workflow, cloud, detectors, severity_model, TenantConfig(), 6,
                       "adaptive", 0.8, seed=9, qtable=rl.QTable(), burn_in=3)
    assert len(results) == 3 + 6  # burn_in + n_runs: no other instance runs
    assert calls["select_action"] == sum(r.detected for r in results) > 0
    assert 0 < len(backup_keys) == len(set(backup_keys)) < len(keys)
    assert calls["topological_order"] == 1
    assert calls["q_update"] == sum(r.adapted for r in results[3:]) > 0  # adaptive rounds
