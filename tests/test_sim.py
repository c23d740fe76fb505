"""Execution engine: attack-free identities, makespan, injection plumbing,
experiment aggregation, and benchmark generators."""

import random

import numpy as np
import pytest

from secflow.datagen import DatasetKind, generate, split
from secflow.detection import train_random_forest
from secflow.model import (
    AttackType,
    ControlEdge,
    Severity,
    TenantConfig,
    Workflow,
)
from secflow.scheduling import TrustRepository, schedule
from secflow import rl, sim
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
from tests.conftest import greedy_choice, make_cloud, make_plan, make_service, make_task

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
        assert makespan(Layout(wf), durations) == pytest.approx(12.0)

    def test_unexecuted_task_contributes_zero_time(self):
        tasks = tuple(make_task(f"t{i}") for i in range(3))
        edges = (ControlEdge("t0", "t1"), ControlEdge("t1", "t2"))
        wf = Workflow(tasks=tasks, control_edges=edges, data_edges=())
        durations = {"t0": 1.0, "t2": 2.0}
        assert makespan(Layout(wf), durations) == pytest.approx(3.0)

    def test_no_tasks_take_zero_time(self):
        wf = Workflow(tasks=(), control_edges=(), data_edges=())
        assert makespan(Layout(wf), {}) == 0.0

    @staticmethod
    def _reference(wf, durations):
        """Critical path with `max` over the incoming edges and over the
        finish times."""
        finish = {}
        for tid in wf.topological_order():
            start = max((finish[e.src] for e in wf.control_edges if e.dst == tid),
                        default=0.0)
            finish[tid] = start + durations.get(tid, 0.0)
        return max(finish.values(), default=0.0)

    @pytest.mark.parametrize("wf_class", list(WorkflowClass))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_max_reference_on_generated_workflows(self, wf_class, seed):
        """Exactly the reference's float, on random durations (some zero,
        some tied) with a random subset of tasks left without one."""
        wf = generate_workflow_class(wf_class, seed)
        layout = Layout(wf)
        rng = random.Random(seed)
        for _ in range(20):
            durations = {t.id: rng.choice((0.0, 1.0, rng.uniform(0.0, 50.0)))
                         for t in wf.tasks if rng.random() < 0.8}
            got = makespan(layout, durations)
            want = self._reference(wf, durations)
            assert got == want
            assert got.hex() == want.hex()


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


def _table_for(strategy):
    """The Q-table a policy needs: an empty one for frozen, none otherwise."""
    return rl.QTable() if strategy == "frozen" else None


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
        (r,) = exp.runs
        _, row = exp.aggregate_csv("lowest-cost", "small").splitlines()
        assert row.split(",")[3:5] == [repr(float(r.price)), repr(float(r.time))]

    @pytest.mark.parametrize("strategy", sim.POLICIES)
    def test_zero_rate_no_adaptations_every_policy(self, strategy):
        wf, cloud = self._setup()
        exp = run_experiment(
            wf, cloud, DETECTORS, SEVERITY, TenantConfig(), 5, strategy, 0.0,
            seed=0, burn_in=0, qtable=_table_for(strategy),
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

    def test_adaptive_table_has_one_state_per_attack_type_and_severity(self):
        wf = generate_workflow_class(WorkflowClass.MEDIUM, 3)
        cloud = generate_multicloud(4)
        table = rl.QTable()
        run_experiment(wf, cloud, DETECTORS, SEVERITY, TenantConfig(), 20, "adaptive", 0.8,
                       seed=5, qtable=table, burn_in=0)
        states = {state for state, _ in table.entries}
        assert 1 < len(states) <= 12
        assert states <= {f"{t.value}|{s.value}" for t in AttackType for s in Severity}

    @pytest.mark.parametrize("burn_in", [0, 1])
    def test_burn_in_below_two_rounds_learns_nothing(self, burn_in):
        """With a burn-in of 0 or 1 rounds every spread is 0, so every reward
        and Q value is 0.0 and the greedy choice is the cheapest candidate:
        without exploration, the adaptive rounds are the lowest-cost rounds."""
        wf = generate_workflow_class(WorkflowClass.MEDIUM, 3)
        cloud = generate_multicloud(4)

        def run(strategy, table=None):
            return run_experiment(wf, cloud, DETECTORS, SEVERITY, TenantConfig(), 6,
                                  strategy, 0.8, seed=5, qtable=table, burn_in=burn_in)

        explored = rl.QTable()
        run("adaptive", explored)
        assert explored.entries and set(explored.entries.values()) == {0.0}
        greedy = rl.QTable(config=rl.RLConfig(epsilon=0.0, epsilon_floor=0.0))
        assert run("adaptive", greedy).runs == run("lowest-cost").runs
        assert greedy.entries and set(greedy.entries.values()) == {0.0}

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

    def test_qtable_with_lowest_cost_rejected_before_any_instance(self, monkeypatch):
        """Lowest-cost would leave the table untouched, so it is refused."""
        wf, cloud = self._setup()
        monkeypatch.setattr(sim, "run_instance", _no_instance)
        with pytest.raises(ValueError, match="qtable needs the adaptive strategy"):
            run_experiment(
                wf, cloud, DETECTORS, SEVERITY, TenantConfig(), 1, "lowest-cost", 0.0,
                qtable=rl.QTable(),
            )

    def test_frozen_without_qtable_rejected_before_any_instance(self, monkeypatch):
        wf, cloud = self._setup()
        monkeypatch.setattr(sim, "run_instance", _no_instance)
        with pytest.raises(ValueError, match="the frozen strategy needs a qtable"):
            run_experiment(wf, cloud, DETECTORS, SEVERITY, TenantConfig(), 1, "frozen", 0.0)

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
    """`u` just below, on and just above every running sum, normalized or
    not; some rates are 0, so a running sum repeats and a `u` on it must
    pass every zero-rate type, as `bisect_right` does."""
    cloud = generate_multicloud(3)
    trust = TrustRepository.from_cloud(cloud)
    svc = next(iter(cloud.services())).id
    states = np.random.default_rng(2)
    unnormalized = 0  # draws whose cdf does not end at exactly 1
    with_zeros = 0
    for _ in range(300):
        weights = states.random(4) * 10.0 ** states.integers(-3, 1, size=4)
        weights[states.random(4) < 0.3] = 0.0
        if not weights.any():
            continue
        with_zeros += not weights.all()
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
    assert with_zeros > 100


@pytest.mark.parametrize("rate", [np.inf, np.nan, -0.1])
def test_attack_type_draw_rejects_bad_rates(rate):
    cloud = generate_multicloud(3)
    trust = TrustRepository.from_cloud(cloud)
    svc = next(iter(cloud.services())).id
    trust.afr_history[(svc, AttackType.PROBE)] = rate
    with pytest.raises(ValueError, match="must be finite and non-negative"):
        sim._sample_attack_type(trust, svc, np.random.default_rng(0))


def _reference_observe(trust, cloud, hits):
    """The per-pair `TrustRepository.update` loop the one-pass `observe`
    replaced."""
    for s in cloud.services():
        for at in AttackType:
            trust.update(s.id, at, detected=(s.id, at) in hits)


def test_observe_matches_update_loop():
    cloud = generate_multicloud(5)
    services = [s.id for s in cloud.services()]
    rng = np.random.default_rng(8)
    ours, reference = TrustRepository.from_cloud(cloud), TrustRepository.from_cloud(cloud)
    rates = set()
    for i in range(300):
        if i % 10 == 0:  # rates at the ends of [0, 1] and in between
            for key in ours.afr_history:
                rate = float(rng.choice([0.0, 1.0, rng.random()]))
                ours.afr_history[key] = reference.afr_history[key] = rate
                rates.add(rate)
        hits = {(services[int(rng.integers(len(services)))], list(AttackType)[int(rng.integers(4))])
                for _ in range(int(rng.integers(0, 30)))}
        ours.observe(hits)
        _reference_observe(reference, cloud, hits)
        assert ours.afr_history == reference.afr_history
        assert list(ours.afr_history) == list(reference.afr_history)
    assert {0.0, 1.0} <= rates


_DETECTED_OUTCOMES = {"adapted", "unmitigable", "below-threshold"}


def test_an_instance_observes_the_pairs_of_its_detected_events(monkeypatch):
    """An instance ends with one `observe` call, whose hits are the (service,
    type) pairs of its adapted, unmitigable and below-threshold events: the
    predicted type of each detected attack. Undetected attacks are no hit."""
    observed = []
    original = TrustRepository.observe

    def recorded(self, hits):
        observed.append(set(hits))
        return original(self, hits)

    monkeypatch.setattr(TrustRepository, "observe", recorded)
    wf, cloud = generate_workflow_class(WorkflowClass.MEDIUM, 3), generate_multicloud(4)
    plan = schedule(wf, cloud, TrustRepository.from_cloud(cloud), TenantConfig())
    exp = sim.Experiment(wf, plan, cloud, DETECTORS, SEVERITY, TenantConfig(),
                         TrustRepository.from_cloud(cloud), 0.8)
    outcomes = set()
    for seed in range(12):
        result = run_instance(exp, seed)
        assert len(observed) == seed + 1
        assert observed[-1] == {(e["service"], AttackType(e["type"])) for e in result.events
                                if e["outcome"] in _DETECTED_OUTCOMES}
        outcomes |= {e["outcome"] for e in result.events}
    assert outcomes == _DETECTED_OUTCOMES | {"undetected"}


def _rotating_choice():
    """A `choose` that takes every ranked kind in turn."""
    calls = []

    def choose(state, ranked):
        calls.append(state)
        return ranked[len(calls) % len(ranked)]

    return choose


@pytest.mark.parametrize("rotating", [False, True], ids=["cheapest", "rotating"])
def test_an_instance_replays_from_a_trust_snapshot(rotating):
    """Every trust write of an instance happens inside it: restoring the
    table an instance started from and running it again gives the same
    result and leaves the same table, key order included."""
    exp = _adaptive_experiment()()
    trust = exp.trust
    run_instance(exp, 9)  # a burn-in round, so the snapshot is not the seed table
    snapshot = dict(trust.afr_history)
    runs, tables = [], []
    for _ in range(2):
        trust.afr_history = dict(snapshot)
        runs.append(sim.instance_episode(exp, 5, _rotating_choice() if rotating else None))
        tables.append(list(trust.afr_history.items()))
    assert runs[0] == runs[1]
    assert tables[0] == tables[1]
    assert dict(tables[0]) != snapshot
    assert any(e.get("level") == "middleware" for e in runs[0].events)


def test_lowest_cost_experiment_is_its_bare_instances(monkeypatch):
    """A lowest-cost experiment's rounds are its burn-in then its rounds as
    bare `run_instance` calls on one experiment, and they leave the same
    trust table: nothing writes to trust between instances."""
    experiments = []

    class Recorded(sim.Experiment):
        def __init__(self, *args):
            super().__init__(*args)
            experiments.append(self)

    monkeypatch.setattr(sim, "Experiment", Recorded)
    wf, cloud = generate_workflow_class(WorkflowClass.MEDIUM, 3), generate_multicloud(4)
    seed, n_runs, burn_in = 5, 6, 4
    result = run_experiment(wf, cloud, DETECTORS, SEVERITY, TenantConfig(), n_runs,
                            "lowest-cost", 0.8, seed=seed, burn_in=burn_in)

    trust = TrustRepository.from_cloud(cloud)
    plan = schedule(wf, cloud, trust, TenantConfig())
    exp = sim.Experiment(wf, plan, cloud, DETECTORS, SEVERITY, TenantConfig(), trust, 0.8)
    for s in np.random.SeedSequence([seed, 23]).generate_state(burn_in).tolist():
        run_instance(exp, s)
    run_seeds = np.random.SeedSequence(seed).generate_state(n_runs + 1)[1:].tolist()
    assert [run_instance(exp, s) for s in run_seeds] == result.runs
    assert sum(r.detected for r in result.runs) > 0
    [recorded] = experiments[:1]
    assert list(trust.afr_history.items()) == list(recorded.trust.afr_history.items())


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


def _adaptive_experiment():
    """A medium workflow at attack rate 0.8, with a fresh experiment per call
    whose spreads are set by hand: value's is 0, so value counts for nothing."""
    wf = generate_workflow_class(WorkflowClass.MEDIUM, 3)
    cloud = generate_multicloud(4)
    plan = schedule(wf, cloud, TrustRepository.from_cloud(cloud), TenantConfig())

    def experiment():
        exp = sim.Experiment(wf, plan, cloud, DETECTORS, SEVERITY, TenantConfig(),
                             TrustRepository.from_cloud(cloud), 0.8)
        exp.spreads = {"price": 4.0, "time": 30.0, "mitigation": 0.5, "value": 0.0}
        return exp

    return experiment


def test_only_a_learner_pays_for_state_keys_and_rewards(monkeypatch):
    """Counted through the module attributes, as the benchmark counts: a
    lowest-cost instance builds no state key. Choosing the cheapest through
    the callbacks yields the same instance, with one state key and one
    reward per adapted decision, and no decision calls `rl.reward` or
    `rl.attr_bounds`."""
    experiment = _adaptive_experiment()
    calls = {name: 0 for name in ("workflow_state_key", "reward", "attr_bounds")}

    def counted(name):
        original = getattr(rl, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(rl, name, wrapper)

    for name in calls:
        counted(name)

    cheapest = run_instance(experiment(), 5)
    assert cheapest.adapted > 0
    assert calls == {"workflow_state_key": 0, "reward": 0, "attr_bounds": 0}
    rewards = []
    assert sim.instance_episode(experiment(), 5, lambda state, ranked: ranked[0],
                                rewards.append) == cheapest
    assert len(rewards) == cheapest.adapted
    assert calls == {"workflow_state_key": cheapest.adapted, "reward": 0, "attr_bounds": 0}


def test_each_reward_is_the_decisions_share_of_the_run_metric(monkeypatch):
    """The reward handed to `learn` is sum of W_i * (after_i - before_i) / s_i
    over the ledger totals just before the choice and just after the
    decision's damage, with the experiment's spreads s_i; a spread of 0
    contributes 0."""
    states = []

    class Recorded(sim.ExecutionState):
        def __init__(self, *args):
            super().__init__(*args)
            states.append(self)

    monkeypatch.setattr(sim, "ExecutionState", Recorded)
    exp = _adaptive_experiment()()
    decisions = []

    def choose(state, ranked):
        decisions.append([states[-1].accumulated()])
        return ranked[len(decisions) % len(ranked)]  # every kind, in turn

    def learn(r):
        decisions[-1] += [states[-1].accumulated(), r]

    result = sim.instance_episode(exp, 5, choose, learn)
    assert len(decisions) == result.adapted > 0
    for before, after, r in decisions:
        before, after = (dict(zip(sim.RESULTS_FLOATS, totals)) for totals in (before, after))
        share = sum(w * (after[n] - before[n]) / exp.spreads[n]
                    for n, w in rl.REWARD_WEIGHTS.items() if exp.spreads[n])
        assert r == pytest.approx(share, rel=1e-12, abs=1e-15)
    assert any(r != 0.0 for _, _, r in decisions)


_RANDOM_SEEDS = random.Random(20261019)
# seeds of every width from 1 to 128 bits, the range's ends and word edges
ORACLE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**128 - 1] + [
    _RANDOM_SEEDS.randrange(2 ** _RANDOM_SEEDS.randint(1, 128)) for _ in range(1000)]


def test_instance_seed_words_equal_numpys_spawned_seed_sequences():
    words = sim.instance_seed_words(ORACLE_SEEDS)
    assert words.shape == (len(ORACLE_SEEDS), sim.N_STREAMS, 4)
    assert words.dtype == np.uint64
    for seed, row in zip(ORACLE_SEEDS, words):
        children = np.random.SeedSequence(seed).spawn(sim.N_STREAMS)
        expected = [c.generate_state(4, np.uint64) for c in children]
        assert row.tolist() == [e.tolist() for e in expected], seed


def test_generators_built_from_the_words_are_numpys():
    seeds = ORACLE_SEEDS[:56]
    for seed, row in zip(seeds, sim.instance_seed_words(seeds)):
        children = np.random.SeedSequence(seed).spawn(sim.N_STREAMS)
        for words, child in zip(row, children):
            ours = np.random.Generator(np.random.PCG64(sim._SeedWords(words)))
            reference = np.random.default_rng(child)
            assert ours.bit_generator.state == reference.bit_generator.state, seed
            assert ours.random(3).tolist() == reference.random(3).tolist()


@pytest.mark.parametrize("seed", [-1, 2**128])
def test_instance_seed_outside_its_range_rejected(seed):
    with pytest.raises(ValueError, match=rf"instance seed must be in \[0, 2\*\*128\), got {seed}"):
        sim.instance_seed_words([0, seed])


def test_an_instance_reads_its_streams_from_the_seed_table():
    """A seed in the table runs on the table's words; a seed outside it
    derives its own, so a direct call needs no table."""
    experiment = _adaptive_experiment()

    def tabled():
        exp = experiment()
        exp.seed_words = {5: sim.instance_seed_words([6])[0]}
        return exp

    assert run_instance(tabled(), 5) == run_instance(experiment(), 6)
    assert run_instance(tabled(), 6) == run_instance(experiment(), 6)
    assert run_instance(tabled(), 5) != run_instance(experiment(), 5)


@pytest.mark.parametrize("strategy", sim.POLICIES)
def test_seed_derivation_does_not_grow_with_an_experiments_rounds(monkeypatch, strategy):
    """An experiment builds the same SeedSequences whatever its round count,
    and derives every instance's words in one call before the burn-in."""
    wf, cloud = generate_workflow_class(WorkflowClass.SMALL, 0), generate_multicloud(1)
    sequences = []
    derivations = []

    class Counted(np.random.SeedSequence):
        def __init__(self, *args, **kwargs):
            sequences.append(args)
            super().__init__(*args, **kwargs)

    derive = sim.instance_seed_words

    def counted_derive(seeds):
        derivations.append(len(seeds))
        return derive(seeds)

    monkeypatch.setattr(np.random, "SeedSequence", Counted)
    monkeypatch.setattr(sim, "instance_seed_words", counted_derive)
    counts = []
    for n_runs in (5, 50):
        sequences.clear()
        derivations.clear()
        run_experiment(wf, cloud, DETECTORS, SEVERITY, TenantConfig(), n_runs, strategy,
                       0.3, seed=3, burn_in=4, qtable=_table_for(strategy))
        assert derivations == [4 + n_runs]
        counts.append(len(sequences))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("wf_class, wf_seed, cloud_seed, n_runs, rate", [
    (WorkflowClass.SMALL, 0, 1, 100, 0.3),
    (WorkflowClass.MEDIUM, 3, 4, 60, 0.8),
    (WorkflowClass.LARGE, 102, 202, 20, 0.8),
], ids=["small", "medium", "large"])
def test_frozen_over_an_empty_table_is_lowest_cost(wf_class, wf_seed, cloud_seed, n_runs, rate):
    """Unseen pairs value 0 and `rl.predict` keeps the first of equal values,
    so the greedy choice of an empty table is the cheapest candidate."""
    wf, cloud = generate_workflow_class(wf_class, wf_seed), generate_multicloud(cloud_seed)

    def run(strategy, table=None):
        return run_experiment(wf, cloud, DETECTORS, SEVERITY, TenantConfig(), n_runs,
                              strategy, rate, seed=5, qtable=table)

    lowest = run("lowest-cost")
    assert sum(r.adapted for r in lowest.runs) > 0
    assert run("frozen", rl.QTable()).runs == lowest.runs


def test_frozen_run_deploys_a_trained_table_unchanged(monkeypatch):
    """Over a table that adaptive rounds trained, a frozen run leaves the
    table byte-equal, builds no policy RNG, and picks the table's greedy
    choice at every adapted decision."""
    wf, cloud = generate_workflow_class(WorkflowClass.MEDIUM, 3), generate_multicloud(4)

    def run(strategy, table):
        return run_experiment(wf, cloud, DETECTORS, SEVERITY, TenantConfig(), 20, strategy,
                              0.8, seed=5, qtable=table, burn_in=10)

    table = rl.QTable()
    run("adaptive", table)
    assert any(q != 0.0 for q in table.entries.values())
    trained = rl.table_to_json(table)

    sequences = []

    class Counted(np.random.SeedSequence):
        def __init__(self, *args, **kwargs):
            sequences.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", Counted)
    frozen = run("frozen", table)
    assert rl.table_to_json(table) == trained
    assert ([5, 23],) in sequences and ([5, 7],) not in sequences
    adapted = [e for r in frozen.runs for e in r.events if e["outcome"] == "adapted"]
    assert len(adapted) == sum(r.adapted for r in frozen.runs) > 0
    for event in adapted:
        assert event["chosen"] == greedy_choice(table, event)
    assert any(event["chosen"] != greedy_choice(rl.QTable(), event) for event in adapted)
