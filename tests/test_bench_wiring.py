"""The benchmark wraps secflow's layer functions by name from outside
(`perfbench/spans.py`). A rename under src/ must fail here, in a second, and
not only when the benchmark runs; so must a change to how often an instance
calls the wrapped hot-path functions."""

from collections import Counter

from perfbench import spans
from secflow import datagen, detection, rl, sim
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
    result = sim.run_instance(
        workflow, plan, cloud, detectors, severity_model, TenantConfig(), trust, 0.5, 3
    )
    assert result.failures > 0 and result.injected > 0 and result.false_alarms > 0
    assert calls["sample_features"] == calls["start_task"] - result.failures
    assert calls["predict"] == result.injected
