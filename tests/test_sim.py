"""Execution engine: attack-free identities, makespan, injection plumbing,
experiment aggregation, and benchmark generators."""

import numpy as np
import pytest

from secflow.datagen import DatasetKind, generate, split
from secflow.detection import train_random_forest
from secflow.model import (
    ControlEdge,
    TenantConfig,
    Workflow,
)
from secflow.scheduling import TrustRepository
from secflow import sim
from secflow.severity import fit_severity
from secflow.sim import (
    CLASS_TASK_RANGE,
    WorkflowClass,
    composite_rewards,
    generate_multicloud,
    generate_workflow_class,
    makespan,
    run_experiment,
    run_instance,
)
from tests.conftest import make_cloud, make_plan, make_service, make_task

MIX = {"normal": 0.5, "dos": 0.125, "probe": 0.125, "u2r": 0.125, "r2l": 0.125}


def _models(seed=42, n=1200):
    detectors, datasets = {}, {}
    for i, kind in enumerate(DatasetKind):
        ds = generate(kind, n, MIX, seed + i)
        datasets[kind] = ds
        train, _ = split(ds, 0.8, seed)
        detectors[kind] = train_random_forest(train, seed=seed)
    return detectors, fit_severity(datasets, seed)


DETECTORS, SEVERITY = _models()


def _chain_workflow(times_values):
    tasks = tuple(
        make_task(f"t{i}", cia=(0.2, 0.2, 0.2), value=v)
        for i, (_, v) in enumerate(times_values)
    )
    edges = tuple(
        ControlEdge(f"t{i}", f"t{i+1}") for i in range(len(times_values) - 1)
    )
    return Workflow(tasks=tasks, control_edges=edges, data_edges=())


class TestAttackFreeIdentities:
    def test_single_task(self):
        wf = _chain_workflow([(10.0, 1.0)])
        cloud = make_cloud([make_service("p0-s0", price=2.0, time=10.0)])
        result = run_instance(
            wf, make_plan(wf, "p0-s0"), cloud, DETECTORS, SEVERITY, TenantConfig(),
            TrustRepository.from_cloud(cloud), attack_rate=0.0,
            seed=0,
        )
        assert result.time == pytest.approx(10.0)
        assert result.price == pytest.approx(2.0)
        assert result.value == pytest.approx(1.0)
        assert result.injected == result.adapted == 0

    def test_chain_sums_times(self):
        wf = _chain_workflow([(10.0, 1.0), (10.0, 1.0), (10.0, 1.0)])
        cloud = make_cloud([make_service("p0-s0", price=2.0, time=10.0)])
        result = run_instance(
            wf, make_plan(wf, "p0-s0"), cloud, DETECTORS, SEVERITY, TenantConfig(),
            TrustRepository.from_cloud(cloud), attack_rate=0.0,
            seed=0,
        )
        assert result.time == pytest.approx(30.0)
        assert result.price == pytest.approx(6.0)

    def test_parallel_pair_takes_max(self):
        tasks = (
            make_task("t0", value=1.0),
            make_task("t1", value=1.0),
            make_task("t2", value=1.0),
            make_task("t3", value=1.0),
        )
        edges = (
            ControlEdge("t0", "t1"),
            ControlEdge("t0", "t2"),
            ControlEdge("t1", "t3"),
            ControlEdge("t2", "t3"),
        )
        wf = Workflow(tasks=tasks, control_edges=edges, data_edges=())
        cloud = make_cloud(
            [
                make_service("p0-s0", "p0", price=1.0, time=1.0),
                make_service("p0-s1", "p0", price=1.0, time=5.0),
                make_service("p0-s2", "p0", price=1.0, time=9.0),
            ]
        )
        plan_bindings = {"t0": "p0-s0", "t1": "p0-s1", "t2": "p0-s2", "t3": "p0-s0"}
        from secflow.model import SchedulingPlan

        result = run_instance(
            wf, SchedulingPlan(bindings=plan_bindings), cloud, DETECTORS, SEVERITY,
            TenantConfig(), TrustRepository.from_cloud(cloud), attack_rate=0.0,
            seed=0,
        )
        # critical path 1 + max(5, 9) + 1
        assert result.time == pytest.approx(11.0)


class TestMakespan:
    def test_diamond_critical_path(self):
        tasks = tuple(make_task(f"t{i}") for i in range(4))
        edges = (
            ControlEdge("t0", "t1"),
            ControlEdge("t0", "t2"),
            ControlEdge("t1", "t3"),
            ControlEdge("t2", "t3"),
        )
        wf = Workflow(tasks=tasks, control_edges=edges, data_edges=())
        durations = {"t0": 1.0, "t1": 5.0, "t2": 9.0, "t3": 2.0}
        assert makespan(wf, {"t0", "t1", "t2", "t3"}, durations) == pytest.approx(12.0)

    def test_unexecuted_task_contributes_zero_time(self):
        tasks = tuple(make_task(f"t{i}") for i in range(3))
        edges = (ControlEdge("t0", "t1"), ControlEdge("t1", "t2"))
        wf = Workflow(tasks=tasks, control_edges=edges, data_edges=())
        durations = {"t0": 1.0, "t1": 100.0, "t2": 2.0}
        assert makespan(wf, {"t0", "t2"}, durations) == pytest.approx(3.0)


class TestInjection:
    def _run(self, rate, seed=0, **kw):
        wf = _chain_workflow([(10.0, 1.0)] * 10)
        cloud = make_cloud([make_service("p0-s0", price=2.0, time=10.0, afr=0.5)])
        return run_instance(
            wf, make_plan(wf, "p0-s0"), cloud, DETECTORS, SEVERITY, TenantConfig(),
            TrustRepository.from_cloud(cloud), attack_rate=rate,
            seed=seed, **kw,
        )

    def test_rate_one_attacks_every_task(self):
        result = self._run(1.0)
        assert result.injected == 10

    def test_counters_are_consistent(self):
        for seed in range(10):
            r = self._run(0.5, seed=seed)
            assert r.detected <= r.injected
            assert r.adapted <= r.detected
            assert r.unmitigated <= r.detected

    def test_deterministic_given_seed(self):
        a, b = self._run(0.7, seed=3), self._run(0.7, seed=3)
        assert a.price == b.price and a.time == b.time and a.value == b.value
        assert a.events == b.events

    def test_events_carry_service_and_outcome(self):
        result = self._run(1.0)
        assert len(result.events) > 0
        for e in result.events:
            assert e["service"] == "p0-s0"
            assert e["outcome"] in {
                "adapted", "unmitigable", "below-threshold", "undetected"
            }


class _AlwaysDos:
    """A detector that labels every record `dos`."""

    def predict(self, features):
        return "dos"

    def predict_batch(self, X):
        return np.array(["dos"] * len(X))


class TestFalseAlarms:
    def test_every_clean_task_of_an_alarming_detector_is_a_false_alarm(self):
        """At attack rate 0 nothing fails, so every executed task is clean
        and is one false alarm; a chain with coin-flip edges executes a
        prefix, of which the price (2.0 a task) gives the length."""
        wf = _chain_workflow([(10.0, 1.0)] * 8)
        wf = Workflow(
            tasks=wf.tasks,
            control_edges=tuple(
                ControlEdge(e.src, e.dst, cond=f"c{i}", prob=0.8) if i % 3 == 2 else e
                for i, e in enumerate(wf.control_edges)
            ),
            data_edges=(),
        )
        cloud = make_cloud([make_service("p0-s0", price=2.0, time=10.0)])
        detectors = {kind: _AlwaysDos() for kind in DatasetKind}
        executed = []
        for seed in range(12):
            result = run_instance(
                wf, make_plan(wf, "p0-s0"), cloud, detectors, SEVERITY, TenantConfig(),
                TrustRepository.from_cloud(cloud), attack_rate=0.0, seed=seed,
            )
            assert result.failures == 0 and result.injected == 0
            executed.append(result.price / 2.0)
            assert result.false_alarms == executed[-1]
        assert min(executed) < 8 == max(executed)


class TestRunExperiment:
    def _setup(self, seed=0):
        wf = generate_workflow_class(WorkflowClass.SMALL, seed)
        cloud = generate_multicloud(seed + 1)
        return wf, cloud

    def test_singleton_aggregate_equals_single_run(self):
        wf, cloud = self._setup()
        exp = run_experiment(
            wf, cloud, DETECTORS, SEVERITY, TenantConfig(), 1, "lowest-cost", 0.0,
            seed=0, burn_in=0,
        )
        r = exp.runs[0]
        assert exp.mean["price"] == pytest.approx(r.price)
        assert exp.mean["time"] == pytest.approx(r.time)
        assert len(exp.windows) == 1

    def test_zero_rate_no_adaptations_both_strategies(self):
        wf, cloud = self._setup()
        for strategy in ("lowest-cost", "adaptive"):
            exp = run_experiment(
                wf, cloud, DETECTORS, SEVERITY, TenantConfig(), 5, strategy, 0.0,
                seed=0, burn_in=0,
            )
            assert all(r.injected == 0 and r.adapted == 0 for r in exp.runs)

    def test_determinism_identical_csvs(self):
        wf, cloud = self._setup()
        csvs = []
        for _ in range(2):
            exp = run_experiment(
                wf, cloud, DETECTORS, SEVERITY, TenantConfig(), 20, "lowest-cost",
                0.3, seed=11, burn_in=2,
            )
            csvs.append(exp.aggregate_csv("lowest-cost", "small"))
        assert csvs[0] == csvs[1]

    def test_window_count(self):
        wf, cloud = self._setup()
        exp = run_experiment(
            wf, cloud, DETECTORS, SEVERITY, TenantConfig(), 30, "lowest-cost", 0.0,
            seed=0, window=10, burn_in=0,
        )
        assert len(exp.windows) == 3

    def test_unknown_strategy_rejected(self, monkeypatch):
        """Rejected before the burn-in rounds run any instance."""
        wf, cloud = self._setup()

        def no_instance(*args, **kwargs):
            raise AssertionError("an instance ran before the strategy was checked")

        monkeypatch.setattr(sim, "run_instance", no_instance)
        with pytest.raises(ValueError, match="'psychic'"):
            run_experiment(
                wf, cloud, DETECTORS, SEVERITY, TenantConfig(), 1, "psychic", 0.0,
            )

    @pytest.mark.parametrize("window", [0, -5])
    def test_nonpositive_window_rejected(self, window):
        wf, cloud = self._setup()
        with pytest.raises(ValueError, match="window must be >= 1"):
            run_experiment(
                wf, cloud, DETECTORS, SEVERITY, TenantConfig(), 1, "lowest-cost", 0.0,
                window=window, burn_in=0,
            )

    def test_aggregate_csv_header(self):
        wf, cloud = self._setup()
        exp = run_experiment(
            wf, cloud, DETECTORS, SEVERITY, TenantConfig(), 2, "lowest-cost", 0.0,
            seed=0, burn_in=0,
        )
        header = exp.aggregate_csv("lowest-cost", "small").splitlines()[0]
        assert header == (
            "run,strategy,class,price,time,value,mitigation,"
            "injected,detected,adapted,failed"
        )


class TestCompositeRewards:
    def test_pooled_min_max(self):
        wf, cloud = (
            generate_workflow_class(WorkflowClass.SMALL, 3),
            generate_multicloud(4),
        )
        exp = run_experiment(
            wf, cloud, DETECTORS, SEVERITY, TenantConfig(), 10, "lowest-cost", 0.3,
            seed=5, burn_in=2,
        )
        rewards = composite_rewards(exp.runs)
        assert len(rewards) == 10
        assert np.all(rewards >= -0.5 - 1e-9)
        assert np.all(rewards <= 0.5 + 1e-9)


class TestGenerators:
    @pytest.mark.parametrize("wf_class", list(WorkflowClass))
    def test_task_counts_in_class_range(self, wf_class):
        lo, hi = CLASS_TASK_RANGE[wf_class]
        for seed in range(5):
            wf = generate_workflow_class(wf_class, seed)
            assert lo <= len(wf.tasks) <= hi

    def test_generated_workflow_valid_and_deterministic(self):
        from secflow.model import serialize_workflow

        a = generate_workflow_class(WorkflowClass.MEDIUM, 7)
        b = generate_workflow_class(WorkflowClass.MEDIUM, 7)
        assert serialize_workflow(a) == serialize_workflow(b)
        # every task allows at least two adaptation kinds
        assert all(len(t.feasible_actions) >= 2 for t in a.tasks)

    def test_multicloud_shape_and_ranges(self):
        cloud = generate_multicloud(0)
        assert len(cloud.providers) == 5
        for _, services in cloud.providers:
            assert len(services) == 3
        for s in cloud.services():
            assert 1.0 <= s.response_time <= 50.0
            assert 0.1 <= s.price <= 10.0
            for rate in s.afr.values():
                assert 0.0 <= rate <= 1.0

    def test_multicloud_speed_price_anticorrelation(self):
        cloud = generate_multicloud(0)
        times = np.array([s.response_time for s in cloud.services()])
        prices = np.array([s.price for s in cloud.services()])
        assert np.corrcoef(times, prices)[0, 1] < -0.5
