"""Execution engine: attack-free identities, makespan, injection plumbing,
experiment aggregation, and benchmark generators."""

import numpy as np
import pytest

from secflow.datagen import DatasetKind, generate, split
from secflow.detection import train_random_forest
from secflow.model import (
    AttackType,
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
    Layout,
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


def _instance(wf, plan, cloud, rate=0.0, seed=0, detectors=DETECTORS):
    """One instance of a fresh experiment: its own trust repository and memo."""
    experiment = sim.Experiment(wf, plan, cloud, detectors, SEVERITY, TenantConfig(),
                                TrustRepository.from_cloud(cloud), rate)
    return run_instance(experiment, seed)


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
        result = _instance(wf, make_plan(wf, "p0-s0"), cloud)
        assert result.time == pytest.approx(10.0)
        assert result.price == pytest.approx(2.0)
        assert result.value == pytest.approx(1.0)
        assert result.injected == result.adapted == 0

    def test_chain_sums_times(self):
        wf = _chain_workflow([(10.0, 1.0), (10.0, 1.0), (10.0, 1.0)])
        cloud = make_cloud([make_service("p0-s0", price=2.0, time=10.0)])
        result = _instance(wf, make_plan(wf, "p0-s0"), cloud)
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

        result = _instance(wf, SchedulingPlan(bindings=plan_bindings), cloud)
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
        assert makespan(Layout(wf), {"t0", "t1", "t2", "t3"}, durations) == pytest.approx(12.0)

    def test_unexecuted_task_contributes_zero_time(self):
        tasks = tuple(make_task(f"t{i}") for i in range(3))
        edges = (ControlEdge("t0", "t1"), ControlEdge("t1", "t2"))
        wf = Workflow(tasks=tasks, control_edges=edges, data_edges=())
        durations = {"t0": 1.0, "t1": 100.0, "t2": 2.0}
        assert makespan(Layout(wf), {"t0", "t2"}, durations) == pytest.approx(3.0)


class TestInjection:
    def _run(self, rate, seed=0):
        wf = _chain_workflow([(10.0, 1.0)] * 10)
        cloud = make_cloud([make_service("p0-s0", price=2.0, time=10.0, afr=0.5)])
        return _instance(wf, make_plan(wf, "p0-s0"), cloud, rate, seed)

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
            result = _instance(wf, make_plan(wf, "p0-s0"), cloud, seed=seed,
                               detectors=detectors)
            assert result.failures == 0 and result.injected == 0
            executed.append(result.price / 2.0)
            assert result.false_alarms == executed[-1]
        assert min(executed) < 8 == max(executed)


def _no_instance(*args, **kwargs):
    raise AssertionError("an instance ran before the experiment was checked")


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
        assert len(exp.windows) == 1
        assert exp.windows[0]["price"] == pytest.approx(r.price)
        assert exp.windows[0]["time"] == pytest.approx(r.time)

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
        monkeypatch.setattr(sim, "run_instance", _no_instance)
        with pytest.raises(ValueError, match="'psychic'"):
            run_experiment(
                wf, cloud, DETECTORS, SEVERITY, TenantConfig(), 1, "psychic", 0.0,
            )

    def test_missing_detector_rejected_before_any_instance(self, monkeypatch):
        """The experiment checks its detectors once, before the burn-in."""
        wf, cloud = self._setup()
        monkeypatch.setattr(sim, "run_instance", _no_instance)
        with pytest.raises(ValueError, match="missing detector for clf"):
            run_experiment(
                wf, cloud, {DatasetKind.NTD: DETECTORS[DatasetKind.NTD]}, SEVERITY,
                TenantConfig(), 1, "lowest-cost", 0.0,
            )

    @pytest.mark.parametrize("window", [0, -5])
    def test_nonpositive_window_rejected(self, window):
        wf, cloud = self._setup()
        with pytest.raises(ValueError, match="window must be >= 1"):
            run_experiment(
                wf, cloud, DETECTORS, SEVERITY, TenantConfig(), 1, "lowest-cost", 0.0,
                window=window, burn_in=0,
            )

    @pytest.mark.parametrize("burn_in", [-1, -3])
    def test_negative_burn_in_rejected(self, burn_in):
        wf, cloud = self._setup()
        with pytest.raises(ValueError, match="burn_in must be >= 0"):
            run_experiment(
                wf, cloud, DETECTORS, SEVERITY, TenantConfig(), 1, "lowest-cost", 0.0,
                burn_in=burn_in,
            )

    @pytest.mark.parametrize("rate", [-0.1, 1.5, float("nan")])
    def test_attack_rate_outside_unit_interval_rejected(self, rate, monkeypatch):
        """A NaN rate fails the range check too, before any instance runs."""
        wf, cloud = self._setup()
        monkeypatch.setattr(sim, "run_instance", _no_instance)
        with pytest.raises(ValueError, match=r"attack_rate must be in \[0, 1\], got"):
            run_experiment(
                wf, cloud, DETECTORS, SEVERITY, TenantConfig(), 1, "lowest-cost", rate,
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


def _reference_attack_type(trust, service_id, rng):
    """The numpy draw the scalar one replaced."""
    types = list(AttackType)
    weights = np.array([trust.afr(service_id, at) for at in types])
    total = weights.sum()
    if total <= 0:
        return types[int(rng.integers(len(types)))]
    return types[int(rng.choice(len(types), p=weights / total))]


def test_attack_type_draw_matches_numpy_choice():
    cloud = generate_multicloud(3)
    trust = TrustRepository.from_cloud(cloud)
    services = [s.id for s in cloud.services()]
    states = np.random.default_rng(0)
    ours, reference = np.random.default_rng(1), np.random.default_rng(1)
    for i in range(3000):
        svc = services[i % len(services)]
        if i % 3 == 0:  # rates of mixed magnitudes, some exactly 0, every 50th all 0
            for at in AttackType:
                rate = float(states.random() * 10.0 ** states.integers(-8, 1))
                zero = i % 50 == 0 or states.random() < 0.25
                trust.afr_history[(svc, at)] = 0.0 if zero else rate
        else:
            trust.update(svc, list(AttackType)[i % 4], bool(states.random() < 0.5))
        assert sim._sample_attack_type(trust, svc, ours) is _reference_attack_type(
            trust, svc, reference)
        assert ours.bit_generator.state == reference.bit_generator.state


class _FixedDraw(np.random.Generator):
    """A generator whose `random()` returns `u`, which `choice(p=)` also calls."""

    def __init__(self, u):
        super().__init__(np.random.PCG64(0))
        self.u = u

    def random(self, size=None, dtype=np.float64, out=None):
        return self.u


def test_attack_type_draw_matches_numpy_choice_at_cdf_boundaries():
    cloud = generate_multicloud(3)
    trust = TrustRepository.from_cloud(cloud)
    svc = next(iter(cloud.services())).id
    states = np.random.default_rng(2)
    unnormalized = 0  # draws whose cdf does not end at exactly 1
    for _ in range(300):
        weights = states.random(4) * 10.0 ** states.integers(-3, 1, size=4)
        for at, w in zip(AttackType, weights.tolist()):
            trust.afr_history[(svc, at)] = w
        cdf = np.cumsum(weights / weights.sum())
        unnormalized += cdf[-1] != 1.0
        for c in np.concatenate([cdf, cdf / cdf[-1]]).tolist():
            for u in (np.nextafter(c, 0.0), c, np.nextafter(c, 1.0)):
                if u < 1.0:
                    assert sim._sample_attack_type(trust, svc, _FixedDraw(u)) is (
                        _reference_attack_type(trust, svc, _FixedDraw(u)))
    assert unnormalized > 0


@pytest.mark.parametrize("rate", [np.inf, np.nan, -0.1])
def test_attack_type_draw_rejects_bad_rates(rate):
    cloud = generate_multicloud(3)
    trust = TrustRepository.from_cloud(cloud)
    svc = next(iter(cloud.services())).id
    trust.afr_history[(svc, AttackType.PROBE)] = rate
    with pytest.raises(ValueError, match="must be finite and non-negative"):
        sim._sample_attack_type(trust, svc, np.random.default_rng(0))


def _reference_reconcile(trust, cloud, result):
    """The per-pair `TrustRepository.update` loop the one-pass reconcile
    replaced."""
    hit = {(e["service"], e["type"]) for e in result.events
           if e["outcome"] in {"adapted", "unmitigable", "below-threshold"}}
    for s in cloud.services():
        for at in AttackType:
            trust.update(s.id, at, detected=(s.id, at.value) in hit)


def test_one_pass_reconcile_matches_update_loop():
    cloud = generate_multicloud(5)
    services = [s.id for s in cloud.services()]
    outcomes = ["adapted", "unmitigable", "below-threshold", "undetected"]
    rng = np.random.default_rng(8)
    ours, reference = TrustRepository.from_cloud(cloud), TrustRepository.from_cloud(cloud)
    rates = set()
    for i in range(300):
        if i % 10 == 0:  # rates at the ends of [0, 1] and in between
            for key in ours.afr_history:
                rate = float(rng.choice([0.0, 1.0, rng.random()]))
                ours.afr_history[key] = reference.afr_history[key] = rate
                rates.add(rate)
        events = [{"service": services[int(rng.integers(len(services)))],
                   "type": list(AttackType)[int(rng.integers(4))].value,
                   "outcome": outcomes[int(rng.integers(4))]}
                  for _ in range(int(rng.integers(0, 40)))]
        result = sim.RunResult(0.0, 0.0, 0.0, 0.0, 0, 0, 0, 0, 0, 0, events)
        sim._reconcile_trust(ours, result)
        _reference_reconcile(reference, cloud, result)
        assert ours.afr_history == reference.afr_history
        assert list(ours.afr_history) == list(reference.afr_history)
    assert {0.0, 1.0} <= rates


def test_every_adapted_event_gets_its_own_candidate_list():
    """Candidate sets are shared across an experiment through the memo; the
    events' candidate lists and dicts are not."""
    wf = generate_workflow_class(WorkflowClass.MEDIUM, 3)
    cloud = generate_multicloud(4)
    exp = run_experiment(wf, cloud, DETECTORS, SEVERITY, TenantConfig(), 6, "lowest-cost",
                         0.8, seed=5, burn_in=0)
    lists = [e["candidates"] for r in exp.runs for e in r.events if e["outcome"] == "adapted"]
    assert len(lists) > 20
    assert len({id(c) for c in lists}) == len(lists)
    assert len({id(d) for c in lists for d in c}) == sum(len(c) for c in lists)
