"""End-to-end acceptance checks.

Each test covers one acceptance criterion, checks its stated tolerance and
runtime budget, and prints a single PASS line on success (pytest reports the
failure otherwise).
"""

import time

import numpy as np
import pytest

from secflow.datagen import DatasetKind, generate, split
from secflow.decision import AttackEvent, SelectionStatus, select_action
from secflow.detection import evaluate, train_linear, train_random_forest
from secflow.model import (
    ActionKind,
    AttackType,
    SecurityVector,
    Severity,
    TenantConfig,
    builtin_attack_catalog,
)
from secflow.rl import REWARD_WEIGHTS, QTable, RLConfig, predict, reward, train
from secflow.scheduling import TrustRepository, UnschedulableError, schedule
from secflow.scoring import adaptation_cost, attack_score, mitigation_score, normalize
from secflow.severity import fit_severity
from secflow.sim import (
    POLICIES,
    ExecutionState,
    Layout,
    WorkflowClass,
    composite_rewards,
    generate_multicloud,
    generate_workflow_class,
    run_experiment,
)
from secflow.model import Workflow
from tests.conftest import NoNoise, make_cloud, make_service, make_task

MIX = {"normal": 0.5, "dos": 0.125, "probe": 0.125, "u2r": 0.125, "r2l": 0.125}
CATALOG = builtin_attack_catalog()


def _elapsed_ok(t0, budget, label):
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"{label} took {elapsed:.1f}s (budget {budget}s)"
    return elapsed


# ---------------------------------------------------------------------------
# Criterion 1 — formula oracles on 10,000 random inputs, 1e-9, < 5 s


def test_criterion_1_formula_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260826)
    n = 10_000

    for _ in range(n):
        req = SecurityVector(*rng.uniform(0, 1, 3))
        imp = SecurityVector(*rng.uniform(0, 1, 3))
        mi = SecurityVector(*rng.uniform(0, 1, 3))
        afr = float(rng.uniform(0, 1))
        level = float(rng.uniform(0, 1))

        # independent brute-force evaluation of each formula
        product = 1.0
        for r_c, i_c in zip(req.as_tuple(), imp.as_tuple()):
            product = product * (1.0 - r_c * i_c)
        expected_attack = (1.0 - product) * afr * level
        assert abs(attack_score(req, imp, afr, level) - expected_attack) <= 1e-9

        expected_mitigation = sum(
            (1.0 - r_c * i_c) * m_c
            for r_c, i_c, m_c in zip(req.as_tuple(), imp.as_tuple(), mi.as_tuple())
        )
        assert abs(mitigation_score(req, imp, mi) - expected_mitigation) <= 1e-9

        k = int(rng.integers(1, 6))
        raw = {f"a{j}": float(rng.uniform(-10, 10)) for j in range(k)}
        got = normalize(raw)
        if k == 1:
            expected_norm = dict(raw)
        else:
            lo, hi = min(raw.values()), max(raw.values())
            if hi - lo <= 1e-12:
                expected_norm = {key: 0.0 for key in raw}
            else:
                expected_norm = {key: (v - lo) / (hi - lo) for key, v in raw.items()}
        for key in raw:
            assert abs(got[key] - expected_norm[key]) <= 1e-9

        w = rng.uniform(0, 1, 4)
        if w.sum() == 0:
            w[0] = 1.0
        cfg = TenantConfig(
            w_price=float(w[0]), w_time=float(w[1]),
            w_security=float(w[2]), w_value=float(w[3]),
        )
        p, t, ms, v = rng.uniform(0, 1, 4)
        expected_cost = w[0] * p + w[1] * t - w[2] * ms - w[3] * v
        assert abs(adaptation_cost(cfg, p, t, ms, v) - expected_cost) <= 1e-9

        attrs, mins, maxs = {}, {}, {}
        for name in ("price", "time", "mitigation", "value"):
            lo, hi = sorted(rng.uniform(0, 10, 2))
            mins[name], maxs[name] = float(lo), float(hi)
            attrs[name] = float(rng.uniform(lo, hi))
        expected_reward = 0.0
        for name in ("price", "time", "mitigation", "value"):
            if maxs[name] > mins[name]:
                ratio = (attrs[name] - mins[name]) / (maxs[name] - mins[name])
                expected_reward += REWARD_WEIGHTS[name] * ratio
        assert abs(reward(attrs, mins, maxs) - expected_reward) <= 1e-9

    elapsed = _elapsed_ok(t0, 5.0, "criterion 1")
    print(f"\n[PASS] criterion 1: formula oracles, {n} inputs within 1e-9 "
          f"({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# Criterion 2 — detection ordering on 10k-row NTD and CLF, < 60 s


def test_criterion_2_detection_ordering():
    t0 = time.perf_counter()
    results = {}
    for i, kind in enumerate((DatasetKind.NTD, DatasetKind.CLF)):
        ds = generate(kind, 10_000, MIX, seed=42 + i)
        train_ds, test_ds = split(ds, 0.8, seed=42)
        forest = train_random_forest(train_ds, seed=42)
        linear = train_linear(train_ds)
        results[kind] = (evaluate(forest, test_ds), evaluate(linear, test_ds))

    for kind, (rf, lin) in results.items():
        assert rf.accuracy >= lin.accuracy - 0.01, (
            f"{kind.value}: rf {rf.accuracy:.4f} < linear {lin.accuracy:.4f} - 0.01"
        )
    rf_ntd = results[DatasetKind.NTD][0]
    assert rf_ntd.accuracy >= 0.97, f"RF-NTD accuracy {rf_ntd.accuracy:.4f} < 0.97"
    for cls, far in rf_ntd.far.items():
        assert far <= 0.02, f"RF-NTD FAR[{cls}] = {far:.4f} > 0.02"

    elapsed = _elapsed_ok(t0, 60.0, "criterion 2")
    summary = ", ".join(
        f"{k.value}: rf {rf.accuracy:.3f} vs lin {lin.accuracy:.3f}"
        for k, (rf, lin) in results.items()
    )
    print(f"\n[PASS] criterion 2: detection ordering ({summary}) ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# Criterion 3 — severity tercile recovery on banded data, >= 90 %, < 30 s


def test_criterion_3_severity_recovery():
    t0 = time.perf_counter()
    level_index = {Severity.LOW: 0, Severity.MEDIUM: 1, Severity.HIGH: 2}
    worst = 1.0
    for kind in DatasetKind:
        train_ds = generate(kind, 3000, MIX, seed=42, intensity_mode="banded")
        test_ds = generate(kind, 1200, MIX, seed=4242, intensity_mode="banded")
        model = fit_severity({kind: train_ds}, seed=42)
        for at in AttackType:
            mask = test_ds.labels == at.value
            X = test_ds.X[mask]
            terciles = np.digitize(test_ds.intensity[mask], [1 / 3, 2 / 3])
            predicted = np.array(
                [level_index[model.assess(kind, at, x)] for x in X]
            )
            agreement = float(np.mean(predicted == terciles))
            worst = min(worst, agreement)
            assert agreement >= 0.90, (
                f"{kind.value}/{at.value}: tercile agreement {agreement:.3f} < 0.90"
            )
    elapsed = _elapsed_ok(t0, 30.0, "criterion 3")
    print(f"\n[PASS] criterion 3: severity tercile agreement >= 90% per type "
          f"(worst {worst:.3f}) ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# Criterion 4 — Q-learning matches value iteration on a 5-state MDP, < 10 s


# Deterministic 5-state chain: state i, "up" -> i+1, "jump" -> min(i+2, 4);
# state 4 is terminal. Rewards make the immediate-best move suboptimal in s0.
MDP_REWARDS = {
    (0, "up"): 0.0, (0, "jump"): 0.2,
    (1, "up"): 0.8, (1, "jump"): 0.1,
    (2, "up"): 0.3, (2, "jump"): 0.9,
    (3, "up"): 1.0, (3, "jump"): 0.4,
}
MDP_ACTIONS = ("up", "jump")
MDP_TERMINAL = 4


def _mdp_step(state, action):
    nxt = state + 1 if action == "up" else min(state + 2, MDP_TERMINAL)
    return MDP_REWARDS[(state, action)], nxt


def _value_iteration(gamma=0.9, sweeps=1000, tol=1e-12):
    V = [0.0] * (MDP_TERMINAL + 1)
    for _ in range(sweeps):
        delta = 0.0
        for s in range(MDP_TERMINAL):
            best = max(
                MDP_REWARDS[(s, a)] + gamma * V[_mdp_step(s, a)[1]]
                for a in MDP_ACTIONS
            )
            delta = max(delta, abs(best - V[s]))
            V[s] = best
        if delta < tol:
            break
    policy = {}
    for s in range(MDP_TERMINAL):
        policy[s] = max(
            MDP_ACTIONS,
            key=lambda a: MDP_REWARDS[(s, a)] + gamma * V[_mdp_step(s, a)[1]],
        )
    return policy


def test_criterion_4_q_learning_matches_value_iteration():
    t0 = time.perf_counter()
    oracle = _value_iteration(gamma=0.9)
    # sanity: the benchmark is non-trivial (greedy-on-immediate differs)
    assert oracle[0] == "up" and MDP_REWARDS[(0, "jump")] > MDP_REWARDS[(0, "up")]

    def episode(choose, learn):
        state = 0
        while state != MDP_TERMINAL:
            r, state = _mdp_step(state, choose(f"s{state}", MDP_ACTIONS))
            learn(r)

    episodes = 10_000
    table = QTable(config=RLConfig(gamma=0.9))
    rng = np.random.default_rng(np.random.SeedSequence(0))
    for _ in train(table, (episode for _ in range(episodes)), rng):
        pass
    learned = {
        s: predict(table, f"s{s}", list(MDP_ACTIONS)) for s in range(MDP_TERMINAL)
    }
    assert learned == oracle, f"learned {learned} != oracle {oracle}"

    elapsed = _elapsed_ok(t0, 10.0, "criterion 4")
    print(f"\n[PASS] criterion 4: greedy policy equals value-iteration oracle "
          f"after {episodes} episodes ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# Criterion 5 — adaptive beats lowest-cost on Medium workflows, < 10 min


def test_criterion_5_adaptive_strategy_advantage():
    t0 = time.perf_counter()
    detectors, datasets = {}, {}
    for i, kind in enumerate((DatasetKind.NTD, DatasetKind.CLF)):
        ds = generate(kind, 1500, MIX, seed=42 + i)
        datasets[kind] = ds
        train_ds, _ = split(ds, 0.8, seed=42)
        detectors[kind] = train_random_forest(train_ds, seed=42)
    severity_model = fit_severity(datasets, seed=42)

    workflow = generate_workflow_class(WorkflowClass.MEDIUM, seed=129)
    cloud = generate_multicloud(seed=242)
    cfg = TenantConfig()
    n_runs, rate, run_seed = 1000, 0.3, 342

    lowest = run_experiment(
        workflow, cloud, detectors, severity_model, cfg, n_runs, "lowest-cost",
        rate, seed=run_seed,
    )
    adaptive = run_experiment(
        workflow, cloud, detectors, severity_model, cfg, n_runs, "adaptive",
        rate, seed=run_seed,
    )

    pooled = composite_rewards(lowest.runs + adaptive.runs)
    lc_rewards = pooled[:n_runs]
    ad_rewards = pooled[n_runs:]

    lc_mean = float(np.mean(lc_rewards))
    ad_late_mean = float(np.mean(ad_rewards[500:]))
    assert ad_late_mean >= lc_mean, (
        f"adaptive rounds 501-1000 mean {ad_late_mean:.4f} < "
        f"lowest-cost mean {lc_mean:.4f}"
    )

    window_means = [float(np.mean(ad_rewards[s:s + 100])) for s in range(0, 1000, 100)]
    early = float(np.mean(window_means[:5]))
    late = float(np.mean(window_means[5:]))
    assert late >= early, (
        f"adaptive windows 6-10 mean {late:.4f} < windows 1-5 mean {early:.4f}"
    )

    elapsed = _elapsed_ok(t0, 600.0, "criterion 5")
    print(f"\n[PASS] criterion 5: adaptive {ad_late_mean:.4f} >= lowest-cost "
          f"{lc_mean:.4f}; windows 6-10 {late:.4f} >= 1-5 {early:.4f} "
          f"({elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# Criterion 6 — 1,000-case invariant suites

N_CASES = 1000


def test_criterion_6a_ledger_conservation():
    rng = np.random.default_rng(6001)
    for _ in range(N_CASES):
        n_tasks = int(rng.integers(1, 6))
        wf = Workflow(
            tasks=tuple(make_task(f"t{i}") for i in range(n_tasks)),
            control_edges=(), data_edges=(),
        )
        state = ExecutionState(Layout(wf), NoNoise())
        expected = {"price": 0.0, "time": 0.0, "value": 0.0, "mitigation": 0.0}
        for i in range(n_tasks):
            p, t, v = rng.uniform(0, 10, 3)
            state.start_task(f"t{i}", p, t, v, t)
            expected["price"] += p
            expected["time"] += t
            expected["value"] += v
        for _ in range(int(rng.integers(0, 4))):
            tid = f"t{int(rng.integers(n_tasks))}"
            p, t, dv, ms = rng.uniform(0, 5, 4)
            state.add_adaptation(tid, price=p, time=t, value_delta=dv, mitigation=ms)
            expected["price"] += p
            expected["time"] += t
            expected["value"] += dv
            expected["mitigation"] += ms
        acc = state.accumulated()
        for key in expected:
            assert abs(acc[key] - expected[key]) <= 1e-9
    print(f"\n[PASS] criterion 6: ledger conservation, {N_CASES} cases within 1e-9")


def test_criterion_6b_scheduling_eligibility():
    rng = np.random.default_rng(6002)
    checked = 0
    for _ in range(N_CASES):
        task = make_task(cia=tuple(rng.uniform(0, 1, 3)))
        services = [
            make_service(
                f"p{j % 3}-s{j}",
                provider=f"p{j % 3}",
                price=float(rng.uniform(0.1, 10)),
                time=float(rng.uniform(1, 50)),
                guarantees=tuple(rng.uniform(0, 1, 3)),
                afr=float(rng.uniform(0, 1)),
            )
            for j in range(int(rng.integers(1, 7)))
        ]
        cloud = make_cloud(services)
        trust = TrustRepository.from_cloud(cloud)
        wf = Workflow(tasks=(task,), control_edges=(), data_edges=())
        try:
            plan = schedule(wf, cloud, trust, TenantConfig())
        except UnschedulableError:
            assert not any(
                s.guarantees.dominates(task.requirements) for s in services
            )
            continue
        bound = cloud.service_map()[plan.bindings[task.id]]
        assert bound.guarantees.dominates(task.requirements)
        checked += 1
    print(f"\n[PASS] criterion 6: scheduling eligibility, {N_CASES} cases "
          f"({checked} schedulable)")


def test_criterion_6c_final_candidate_containment():
    rng = np.random.default_rng(6003)
    kinds_pool = list(ActionKind)
    cloud = make_cloud(
        [
            make_service("p0-s0", "p0", price=2.0, time=10.0, afr=0.9),
            make_service("p0-s1", "p0", price=1.5, time=12.0, afr=0.9),
            make_service("p1-s0", "p1", price=3.0, time=8.0, afr=0.9),
        ]
    )
    trust = TrustRepository.from_cloud(cloud)
    svc = cloud.service_map()["p0-s0"]
    for _ in range(N_CASES):
        n_kinds = int(rng.integers(1, len(kinds_pool) + 1))
        feasible = list(rng.choice(len(kinds_pool), size=n_kinds, replace=False))
        kinds = [kinds_pool[i] for i in feasible]
        task = make_task(cia=tuple(rng.uniform(0.5, 1.0, 3)), kinds=kinds)
        at = list(AttackType)[int(rng.integers(4))]
        level = list(Severity)[int(rng.integers(3))]
        event = AttackEvent(
            attack_type=at,
            level=level,
            detected_in=DatasetKind.NTD if rng.random() < 0.5 else DatasetKind.CLF,
            task_id=task.id,
            service_id=svc.id,
        )
        res = select_action(
            task, event, CATALOG[at], TenantConfig(), cloud, trust, svc
        )
        if res.status is not SelectionStatus.SELECTED:
            continue
        allowed = CATALOG[at].mitigation_actions[level]
        for b in res.candidates.breakdowns:
            assert b.kind in allowed and b.kind in task.feasible_actions
        assert res.candidates.ranked[0] in {b.kind for b in res.candidates.breakdowns}
    print(f"\n[PASS] criterion 6: final candidate-set containment, {N_CASES} cases")


def test_criterion_6d_normalization_bounds():
    rng = np.random.default_rng(6004)
    for _ in range(N_CASES):
        k = int(rng.integers(2, 9))
        values = {f"a{j}": float(rng.uniform(-100, 100)) for j in range(k)}
        out = normalize(values)
        assert all(0.0 <= v <= 1.0 for v in out.values())
    print(f"\n[PASS] criterion 6: normalization bounds, {N_CASES} cases")


def test_criterion_6e_trust_monotonicity():
    rng = np.random.default_rng(6005)
    cloud = make_cloud([make_service("p0-s0", afr=0.5)])
    for _ in range(N_CASES):
        repo = TrustRepository.from_cloud(cloud)
        for _ in range(int(rng.integers(1, 6))):
            at = list(AttackType)[int(rng.integers(4))]
            detected = bool(rng.random() < 0.5)
            before = repo.score("p0-s0")
            repo.update("p0-s0", at, detected=detected)
            after = repo.score("p0-s0")
            if detected:
                assert after <= before + 1e-12
            else:
                assert after >= before - 1e-12
    print(f"\n[PASS] criterion 6: trust monotonicity, {N_CASES} cases")


def test_criterion_6f_attack_score_monotonicity():
    rng = np.random.default_rng(6006)
    for _ in range(N_CASES):
        req = SecurityVector(*rng.uniform(0, 1, 3))
        imp = SecurityVector(*rng.uniform(0, 1, 3))
        afr, level = rng.uniform(0, 1, 2)
        base = attack_score(req, imp, float(afr), float(level))
        bump = float(rng.uniform(0, 0.5))
        perturbed = [
            attack_score(req, imp, min(1.0, float(afr) + bump), float(level)),
            attack_score(req, imp, float(afr), min(1.0, float(level) + bump)),
            attack_score(
                SecurityVector(
                    min(1.0, req.c + bump), min(1.0, req.i + bump),
                    min(1.0, req.a + bump),
                ),
                imp, float(afr), float(level),
            ),
            attack_score(
                req,
                SecurityVector(
                    min(1.0, imp.c + bump), min(1.0, imp.i + bump),
                    min(1.0, imp.a + bump),
                ),
                float(afr), float(level),
            ),
        ]
        for s in perturbed:
            assert s >= base - 1e-12
    print(f"\n[PASS] criterion 6: attack-score monotonicity, {N_CASES} cases")


def test_criterion_6g_determinism_under_seed():
    for case in range(N_CASES):
        a = generate(DatasetKind.CLF, 5, {"normal": 0.6, "dos": 0.4}, seed=case)
        b = generate(DatasetKind.CLF, 5, {"normal": 0.6, "dos": 0.4}, seed=case)
        assert a.to_csv() == b.to_csv()
        if case % 50 == 0:  # heavier generators sampled every 50th case
            from secflow.model import serialize_multicloud, serialize_workflow

            wa = generate_workflow_class(WorkflowClass.SMALL, case)
            wb = generate_workflow_class(WorkflowClass.SMALL, case)
            assert serialize_workflow(wa) == serialize_workflow(wb)
            ca = generate_multicloud(case)
            cb = generate_multicloud(case)
            assert serialize_multicloud(ca) == serialize_multicloud(cb)
    print(f"\n[PASS] criterion 6: determinism under seed, {N_CASES} cases")


# ---------------------------------------------------------------------------
# Criterion 7 — zero attack rate: byte-identical CSVs, zero adaptations


def test_criterion_7_zero_rate_identity():
    detectors, datasets = {}, {}
    for i, kind in enumerate((DatasetKind.NTD, DatasetKind.CLF)):
        ds = generate(kind, 800, MIX, seed=42 + i)
        datasets[kind] = ds
        train_ds, _ = split(ds, 0.8, seed=42)
        detectors[kind] = train_random_forest(train_ds, seed=42)
    severity_model = fit_severity(datasets, seed=42)

    workflow = generate_workflow_class(WorkflowClass.SMALL, seed=70)
    cloud = generate_multicloud(seed=71)
    csvs = []
    for strategy in POLICIES:
        exp = run_experiment(
            workflow, cloud, detectors, severity_model, TenantConfig(), 50,
            strategy, attack_rate=0.0, seed=72,
            qtable=QTable() if strategy == "frozen" else None,
        )
        assert all(r.adapted == 0 for r in exp.runs), f"{strategy} adapted at rate 0"
        assert all(r.injected == 0 for r in exp.runs)
        # identical strategy label isolates the run data in the comparison
        csvs.append(exp.aggregate_csv("x", "small"))
    assert csvs == [csvs[0]] * len(POLICIES), "strategies diverge at attack rate 0"
    print("\n[PASS] criterion 7: zero-rate identity, byte-identical CSVs and "
          "zero adaptations")
