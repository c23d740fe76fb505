"""Decision engine: trigger, candidate intersection, backup resolution, and
tenant/middleware action application."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secflow import decision
from secflow.datagen import DatasetKind
from secflow.decision import (
    AttackEvent,
    CandidateSet,
    CostBreakdown,
    NoBackupError,
    RECONFIG_AFR_FACTOR,
    apply_middleware_action,
    apply_tenant_action,
    find_backup_service,
    resolve_candidates,
    select_action,
    task_impact,
)
from secflow.model import (
    ACTION_ORDER,
    SEVERITY_LEVEL,
    ActionKind,
    ActionParams,
    AttackType,
    ControlEdge,
    DataEdge,
    MIDDLEWARE_KINDS,
    SecurityVector,
    Severity,
    TenantConfig,
    Workflow,
    builtin_attack_catalog,
)
from secflow.scheduling import TrustRepository, schedule
from secflow.scoring import (
    EQUAL_TOL,
    ScoringDomainError,
    adaptation_cost,
    attack_score,
    impact_factor,
    normalize,
    scaled_attack_score,
)
from secflow.sim import (
    RESULTS_FLOATS,
    ExecutionState,
    Layout,
    WorkflowClass,
    generate_multicloud,
    generate_workflow_class,
)
from tests.conftest import NoNoise, make_cloud, make_service, make_task

CATALOG = builtin_attack_catalog()


def _event(at=AttackType.DOS, level=Severity.HIGH, detected_in=DatasetKind.NTD,
           task_id="t0", service_id="p0-s0"):
    return AttackEvent(
        attack_type=at,
        level=level,
        detected_in=detected_in,
        task_id=task_id,
        service_id=service_id,
    )


def _outcome(res):
    """The event outcome a selection leads to in `sim.instance_episode`."""
    if res.candidates is None:
        return "below-threshold"
    return "adapted" if res.candidates.ranked else "unmitigable"


def _noiseless_state(workflow):
    return ExecutionState(Layout(workflow), NoNoise())


class TestFindBackup:
    def _setup(self):
        services = [
            make_service("p0-s0", "p0", price=2.0),
            make_service("p0-s1", "p0", price=1.0),
            make_service("p1-s0", "p1", price=3.0),
        ]
        cloud = make_cloud(services)
        return cloud, cloud.service_map()

    def test_clf_detection_excludes_whole_provider(self):
        cloud, smap = self._setup()
        task = make_task(cia=(0.1, 0.1, 0.1))
        backup = find_backup_service(task, smap["p0-s0"], cloud, DatasetKind.CLF)
        assert backup.id == "p1-s0"

    def test_ntd_detection_allows_sibling(self):
        cloud, smap = self._setup()
        task = make_task(cia=(0.1, 0.1, 0.1))
        backup = find_backup_service(task, smap["p0-s0"], cloud, DatasetKind.NTD)
        assert backup.id == "p0-s1"  # cheapest eligible alternative

    def test_single_service_cloud_has_no_backup(self):
        cloud = make_cloud([make_service("p0-s0", "p0")])
        task = make_task(cia=(0.1, 0.1, 0.1))
        with pytest.raises(NoBackupError):
            find_backup_service(task, cloud.service_map()["p0-s0"], cloud, DatasetKind.NTD)


class TestSelectAction:
    def _setup(self, kinds=None, afr=0.5):
        task = make_task(cia=(1.0, 1.0, 1.0), kinds=kinds)
        services = [
            make_service("p0-s0", "p0", price=2.0, time=10.0, afr=afr),
            make_service("p1-s0", "p1", price=1.0, time=8.0, afr=afr),
        ]
        cloud = make_cloud(services)
        trust = TrustRepository.from_cloud(cloud)
        return task, cloud, trust, cloud.service_map()["p0-s0"]

    def test_below_threshold_not_triggered(self):
        task, cloud, trust, svc = self._setup(afr=0.05)
        event = _event(level=Severity.LOW)
        res = select_action(
            task, event, CATALOG[AttackType.DOS], TenantConfig(), cloud, trust, svc
        )
        assert res.trigger_score <= 0.1
        assert res.candidates is None

    def test_probe_low_intersection_is_skip_only(self):
        task, cloud, trust, svc = self._setup(
            kinds=[ActionKind.SKIP, ActionKind.REWORK], afr=1.0
        )
        event = _event(at=AttackType.PROBE, level=Severity.LOW)
        res = select_action(
            task, event, CATALOG[AttackType.PROBE], TenantConfig(), cloud, trust, svc
        )
        assert _outcome(res) == "adapted"
        assert res.candidates.ranked == (ActionKind.SKIP,)
        assert [b.kind for b in res.candidates.breakdowns] == [ActionKind.SKIP]
        skip = res.candidates.candidate(ActionKind.SKIP)
        assert skip.price == 0.0
        assert skip.time == 0.0

    def test_lowest_total_wins(self):
        task, cloud, trust, svc = self._setup(afr=1.0)
        event = _event(level=Severity.HIGH)
        res = select_action(
            task, event, CATALOG[AttackType.DOS], TenantConfig(), cloud, trust, svc
        )
        assert _outcome(res) == "adapted"
        best = min(b.total for b in res.candidates.breakdowns)
        assert res.candidates.candidate(res.candidates.ranked[0]).total == best

    def test_unmitigable_when_intersection_empty(self):
        # probe/low requires Skip, which the task does not allow
        task, cloud, trust, svc = self._setup(kinds=[ActionKind.REWORK], afr=1.0)
        event = _event(at=AttackType.PROBE, level=Severity.LOW)
        res = select_action(
            task, event, CATALOG[AttackType.PROBE], TenantConfig(), cloud, trust, svc
        )
        assert _outcome(res) == "unmitigable"

    def test_rework_drops_out_without_backup(self):
        task = make_task(cia=(1.0, 1.0, 1.0), kinds=[ActionKind.REWORK])
        cloud = make_cloud([make_service("p0-s0", "p0", afr=1.0)])
        trust = TrustRepository.from_cloud(cloud)
        event = _event(at=AttackType.R2L, level=Severity.LOW)
        res = select_action(
            task, event, CATALOG[AttackType.R2L], TenantConfig(), cloud, trust,
            cloud.service_map()["p0-s0"],
        )
        assert _outcome(res) == "unmitigable"

    def test_candidate_overrides_lowest_cost(self):
        task, cloud, trust, svc = self._setup(afr=1.0)
        event = _event(level=Severity.HIGH)
        res = select_action(
            task, event, CATALOG[AttackType.DOS], TenantConfig(), cloud, trust, svc,
        )
        assert res.candidates.ranked[0] is not ActionKind.REDUNDANCY
        chosen = res.candidates.candidate(ActionKind.REDUNDANCY)
        assert chosen.kind is ActionKind.REDUNDANCY

    def test_candidate_outside_set_rejected(self):
        task, cloud, trust, svc = self._setup(afr=1.0)
        event = _event(level=Severity.HIGH)
        res = select_action(
            task, event, CATALOG[AttackType.DOS], TenantConfig(), cloud, trust, svc,
        )
        with pytest.raises(ValueError, match="outside the candidate set"):
            res.candidates.candidate(ActionKind.SKIP)

    @settings(max_examples=100, deadline=None)
    @given(
        at=st.sampled_from(list(AttackType)),
        level=st.sampled_from(list(Severity)),
        kinds=st.lists(st.sampled_from(list(ActionKind)), min_size=1, unique=True),
    )
    def test_final_set_contained_in_both_sources(self, at, level, kinds):
        task, cloud, trust, svc = self._setup(kinds=kinds, afr=1.0)
        event = _event(at=at, level=level)
        res = select_action(
            task, event, CATALOG[at], TenantConfig(), cloud, trust, svc
        )
        if _outcome(res) == "adapted":
            allowed = CATALOG[at].mitigation_actions[level]
            for b in res.candidates.breakdowns:
                assert b.kind in allowed
                assert b.kind in task.feasible_actions
            assert res.candidates.ranked[0] in {b.kind for b in res.candidates.breakdowns}

    def test_two_candidate_cost_ordering(self):
        # security-only weights: the higher mitigation score must win
        task, cloud, trust, svc = self._setup(
            kinds=[ActionKind.INSERT, ActionKind.RECONFIGURATION], afr=1.0
        )
        cfg = TenantConfig(w_price=0, w_time=0, w_security=1, w_value=0)
        event = _event(level=Severity.HIGH)
        res = select_action(
            task, event, CATALOG[AttackType.DOS], cfg, cloud, trust, svc
        )
        best = max(res.candidates.breakdowns, key=lambda b: b.mitigation)
        assert res.candidates.ranked[0] == best.kind


class TestCandidateMemo:
    """`select_action` with a memo against a fresh call, on generated
    workflows: every task, attack type, tier and detector kind, with the live
    rate of the bound service low enough that some attacks stay below the
    trigger threshold and high enough that others cross it."""

    @pytest.mark.parametrize("wf_class, seed", [
        (WorkflowClass.MEDIUM, 11), (WorkflowClass.MEDIUM, 12),
        (WorkflowClass.LARGE, 13), (WorkflowClass.LARGE, 14),
    ])
    def test_memoized_selection_equals_fresh(self, wf_class, seed):
        workflow = generate_workflow_class(wf_class, seed)
        cloud = generate_multicloud(seed)
        cfg = TenantConfig()
        trust = TrustRepository.from_cloud(cloud)
        plan = schedule(workflow, cloud, trust, cfg)
        services = cloud.service_map()
        memo = {}
        outcomes = set()
        for sweep in range(2):  # the second sweep reads only memo entries
            for task in workflow.tasks:
                svc = services[plan.bindings[task.id]]
                for at in AttackType:
                    for afr in (0.05, 1.0):
                        trust.afr_history[(svc.id, at)] = afr
                        for level in Severity:
                            for kind in DatasetKind:
                                event = _event(at, level, kind, task.id, svc.id)
                                args = (task, event, CATALOG[at], cfg, cloud, trust, svc)
                                fresh = select_action(*args)
                                assert select_action(*args, memo) == fresh
                                outcomes.add(_outcome(fresh))
            if sweep == 0:
                resolved = len(memo)
        assert outcomes == {"below-threshold", "adapted", "unmitigable"}
        assert len(memo) == resolved > 0

    def test_resolution_differs_by_tier_and_detector_kind(self):
        """The memo key needs the tier and the backup: the tier picks the
        mitigation set, and here a CLF detection, which excludes the
        attacked provider, resolves another backup than an NTD one."""
        task, cloud, trust, svc = self._setup()
        selections = {
            (level, kind): select_action(
                task, _event(level=level, detected_in=kind), CATALOG[AttackType.DOS],
                TenantConfig(), cloud, trust, svc, {},
            )
            for level in Severity for kind in DatasetKind
        }
        assert {_outcome(s) for s in selections.values()} == {"adapted"}
        memo = {}
        for (level, kind), fresh in selections.items():
            event = _event(level=level, detected_in=kind)
            assert select_action(
                task, event, CATALOG[AttackType.DOS], TenantConfig(), cloud, trust, svc, memo
            ) == fresh
        candidates = [s.candidates for s in selections.values()]
        assert all(a != b for i, a in enumerate(candidates) for b in candidates[i + 1:])

    def test_backup_under_one_detector_kind_only(self, monkeypatch):
        """The bound service's only alternative shares its provider: NTD
        resolves it as the backup, CLF resolves none and drops Rework and
        Redundancy. Memoized selections equal fresh ones for every tier and
        both kinds, and the backup is looked up at most once per (task,
        detector kind) for the memo."""
        tasks = [make_task("t0", cia=(1.0, 1.0, 1.0)), make_task("t1", cia=(0.9, 0.9, 0.9))]
        cloud = make_cloud([
            make_service("p0-s0", "p0", price=2.0, time=10.0, afr=1.0),
            make_service("p0-s1", "p0", price=1.0, time=12.0, afr=1.0),
            make_service("p1-s0", "p1", price=3.0, time=8.0, afr=1.0,
                         guarantees=(0.5, 0.5, 0.5)),
        ])
        trust = TrustRepository.from_cloud(cloud)
        svc = cloud.service_map()["p0-s0"]
        backup_kinds = {ActionKind.REWORK, ActionKind.REDUNDANCY}
        by_id = {t.id: t for t in tasks}
        cases = [(t.id, at, level, kind) for t in tasks for at in AttackType
                 for level in Severity for kind in DatasetKind]

        def select(tid, at, level, kind, *memo):
            return select_action(by_id[tid], _event(at, level, kind, tid), CATALOG[at],
                                 TenantConfig(), cloud, trust, svc, *memo)

        fresh = {case: select(*case) for case in cases}
        lookups = Counter()

        def find_backup(task, current, cloud, detected_in):
            lookups[task.id, detected_in] += 1
            return find_backup_service(task, current, cloud, detected_in)

        monkeypatch.setattr(decision, "find_backup_service", find_backup)
        memo = {}
        for _ in range(2):
            for case in cases:
                assert select(*case, memo) == fresh[case]
        assert set(lookups.values()) == {1}
        assert set(lookups) == {(t.id, kind) for t in tasks for kind in DatasetKind}

        adapted = [(case, res.candidates) for case, res in fresh.items()
                   if _outcome(res) == "adapted"]
        ntd_backups = {c.backup.id for (*_, kind), c in adapted
                       if kind is DatasetKind.NTD and c.backup is not None}
        assert ntd_backups == {"p0-s1"}
        # cases whose NTD set holds a backup kind that CLF drops from its own
        assert any(_outcome(fresh[(*case[:3], DatasetKind.CLF)]) == "adapted"
                   for case, c in adapted if c.backup is not None)
        for (*_, kind), c in adapted:
            if kind is DatasetKind.CLF:
                assert c.backup is None
                assert not backup_kinds & set(c.ranked)
            elif c.backup is None:
                assert not backup_kinds & set(c.ranked)
            else:
                assert backup_kinds & set(c.ranked)

    def test_detector_kinds_with_one_backup_share_their_sets(self, monkeypatch):
        """The cheapest alternative is on another provider, so both detector
        kinds resolve it: their selections share one set per (attack type,
        tier), resolved once, and equal fresh ones."""
        task = make_task(cia=(1.0, 1.0, 1.0))
        cloud = make_cloud([
            make_service("p0-s0", "p0", price=2.0, time=10.0, afr=1.0),
            make_service("p1-s0", "p1", price=1.0, time=12.0, afr=1.0),
        ])
        trust = TrustRepository.from_cloud(cloud)
        svc = cloud.service_map()["p0-s0"]
        cases = [(at, level, kind) for at in AttackType for level in Severity
                 for kind in DatasetKind]

        def select(at, level, kind, *memo):
            return select_action(task, _event(at, level, kind), CATALOG[at], TenantConfig(),
                                 cloud, trust, svc, *memo)

        fresh = {case: select(*case) for case in cases}
        resolved = []

        def counted(*args):
            resolved.append(args)
            return resolve_candidates(*args)

        monkeypatch.setattr(decision, "resolve_candidates", counted)
        memo = {}
        shared = {case: select(*case, memo) for case in cases}
        assert shared == fresh
        assert len(resolved) == len(AttackType) * len(Severity)
        assert {memo[task.id, kind][0].id for kind in DatasetKind} == {"p1-s0"}
        for at in AttackType:
            for level in Severity:
                ntd, clf = (shared[at, level, kind].candidates for kind in DatasetKind)
                assert ntd is clf and ntd.ranked

    def _setup(self):
        task = make_task(cia=(1.0, 1.0, 1.0))
        cloud = make_cloud([
            make_service("p0-s0", "p0", price=2.0, time=10.0, afr=1.0),
            make_service("p0-s1", "p0", price=1.0, time=12.0, afr=1.0),
            make_service("p1-s0", "p1", price=3.0, time=8.0, afr=1.0),
        ])
        trust = TrustRepository.from_cloud(cloud)
        return task, cloud, trust, cloud.service_map()["p0-s0"]


class TestImpactFactorMemo:
    """The CIA impact factor is computed once per (task id, attack type) and
    scaled by the live AFR and level at each call: the trigger score and a
    landed attack's true damage equal `scoring.attack_score`'s bit for bit,
    with the memo cold or warm."""

    @settings(max_examples=200, deadline=None)
    @given(
        cia=st.tuples(*[st.floats(0.0, 1.0)] * 3),
        at=st.sampled_from(list(AttackType)),
        level=st.sampled_from(list(Severity)),
        afr=st.floats(0.0, 1.0),
        intensity=st.floats(0.0, 1.0, exclude_min=True),
    )
    def test_memoized_factor_reproduces_attack_score(self, cia, at, level, afr, intensity):
        task = make_task(cia=cia)
        spec = CATALOG[at]
        req, imp = task.requirements, spec.impact
        # the score's float operations, in order
        exact = (1.0 - (1.0 - req.c * imp.c) * (1.0 - req.i * imp.i)
                 * (1.0 - req.a * imp.a)) * afr * intensity
        assert attack_score(req, imp, afr, intensity) == exact
        cloud = make_cloud([make_service("p0-s0", "p0", afr=afr),
                            make_service("p1-s0", "p1", afr=afr)])
        trust = TrustRepository.from_cloud(cloud)
        svc = cloud.service_map()["p0-s0"]
        trigger = attack_score(req, imp, afr, SEVERITY_LEVEL[level])
        damage = 1.0 - attack_score(req, imp, afr, intensity)
        select_memo, damage_memo = {}, {}
        for _ in range(2):  # each memo cold, then warm
            res = select_action(task, _event(at, level), spec, TenantConfig(), cloud, trust,
                                svc, select_memo)
            assert res.trigger_score == trigger
            factor = task_impact(task, spec, damage_memo)
            assert 1.0 - scaled_attack_score(factor, afr, intensity) == damage
        assert select_memo[task.id, at] == damage_memo[task.id, at] == impact_factor(req, imp)

    @pytest.mark.parametrize("afr, level, message", [
        (1.5, None, "afr must be in [0,1], got 1.5"),
        (-0.1, None, "afr must be in [0,1], got -0.1"),
        (float("nan"), None, "afr must be in [0,1], got nan"),
        (0.5, 1.5, "level must be in [0,1], got 1.5"),
        (0.5, -0.25, "level must be in [0,1], got -0.25"),
        (2.0, 1.5, "afr must be in [0,1], got 2.0"),  # the rate is checked first
    ])
    def test_out_of_range_rate_or_level_raises_with_a_warm_memo(self, monkeypatch, afr, level,
                                                                message):
        task = make_task(cia=(1.0, 1.0, 1.0))
        cloud = make_cloud([make_service("p0-s0", "p0", afr=0.5),
                            make_service("p1-s0", "p1", afr=0.5)])
        trust = TrustRepository.from_cloud(cloud)
        svc = cloud.service_map()["p0-s0"]
        spec = CATALOG[AttackType.DOS]
        memo = {}
        args = (task, _event(), spec, TenantConfig(), cloud, trust, svc, memo)
        assert _outcome(select_action(*args)) == "adapted"
        assert (task.id, AttackType.DOS) in memo
        trust.afr_history[svc.id, AttackType.DOS] = afr
        if level is not None:
            monkeypatch.setitem(decision.SEVERITY_LEVEL, Severity.HIGH, level)
        with pytest.raises(ScoringDomainError) as expected:
            attack_score(task.requirements, spec.impact, afr, decision.SEVERITY_LEVEL[Severity.HIGH])
        with pytest.raises(ScoringDomainError) as got:
            select_action(*args)
        assert str(got.value) == str(expected.value) == message


def _reference_candidates(allowed, backup, params, ms, cfg):
    """`resolve_candidates` kind by kind: each column normalized as a map, each
    candidate costed on its own."""
    final = [k for k in params if k in allowed]
    if not final:
        return CandidateSet((), None, (), 0.0)
    columns = [normalize({k: value(k) for k in final}) for value in (
        lambda k: params[k].price, lambda k: params[k].time, lambda k: ms[k],
        lambda k: params[k].value)]
    breakdowns = tuple(
        CostBreakdown(kind=k, price=params[k].price, time=params[k].time, mitigation=ms[k],
                      value=params[k].value,
                      total=adaptation_cost(cfg, *(column[k] for column in columns)))
        for k in final)
    ranked = tuple(b.kind for b in sorted(breakdowns, key=decision.cost_rank))
    keeps_backup = any(k in decision.BACKUP_KINDS for k in final)
    return CandidateSet(breakdowns, backup if keeps_backup else None, ranked,
                        max(ms[k] for k in final))


# a column's values: spread out, or all within EQUAL_TOL of one another
_spread = st.floats(0.0, 50.0)
_near = st.sampled_from([0.0, EQUAL_TOL / 4, EQUAL_TOL / 2])


@st.composite
def _candidate_inputs(draw):
    kinds = draw(st.lists(st.sampled_from(ACTION_ORDER), min_size=1, unique=True))
    kinds.sort(key=ACTION_ORDER.index)  # task_actions keeps declaration order

    def column():
        if draw(st.booleans()):
            return [draw(_spread) for _ in kinds]
        base = draw(_spread)
        return [base + draw(_near) for _ in kinds]

    price, time, value, ms = column(), column(), column(), column()
    params = {k: ActionParams(p, t, SecurityVector(0.5, 0.5, 0.5), v)
              for k, p, t, v in zip(kinds, price, time, value)}
    allowed = frozenset(draw(st.lists(st.sampled_from(ACTION_ORDER), unique=True)))
    weights = draw(st.tuples(*[st.floats(0.0, 1.0)] * 4).filter(any))
    return allowed, params, dict(zip(kinds, ms)), TenantConfig(*weights)


class TestResolveCandidates:
    """`resolve_candidates` against a reference that normalizes each column
    with `scoring.normalize` and costs each kind with `adaptation_cost`."""

    BACKUP = make_service("p1-s0", "p1")

    @settings(max_examples=300, deadline=None)
    @given(_candidate_inputs(), st.booleans())
    def test_equals_the_kind_by_kind_reference(self, inputs, with_backup):
        allowed, params, ms, cfg = inputs
        backup = self.BACKUP if with_backup else None
        got = resolve_candidates(allowed, backup, params, ms, cfg)
        expected = _reference_candidates(allowed, backup, params, ms, cfg)
        assert got == expected
        assert repr(got) == repr(expected)
        assert got.audit == expected.audit

    def _params(self, *prices):
        return {k: ActionParams(p, 2.0, SecurityVector(0.5, 0.5, 0.5), 1.0)
                for k, p in zip(ACTION_ORDER, prices)}

    def test_single_candidate_keeps_raw_values(self):
        params = self._params(3.0, 4.0)
        ms = {ActionKind.SKIP: 0.75, ActionKind.SWITCH: 2.0}
        got = resolve_candidates({ActionKind.SWITCH}, self.BACKUP, params, ms, TenantConfig())
        assert got == _reference_candidates({ActionKind.SWITCH}, self.BACKUP, params, ms,
                                            TenantConfig())
        (only,) = got.breakdowns
        # price 4, time 2, mitigation 2 and value 1, each kept raw
        assert only.total == 0.25 * 4.0 + 0.25 * 2.0 - 0.25 * 2.0 - 0.25 * 1.0
        assert got.backup is None and got.ranked == (ActionKind.SWITCH,)

    def test_all_equal_within_tolerance_costs_zero(self):
        params = self._params(1.0, 1.0 + EQUAL_TOL / 2, 1.0 + EQUAL_TOL / 4)
        ms = dict.fromkeys(params, 1.5)
        got = resolve_candidates(set(params), self.BACKUP, params, ms, TenantConfig())
        assert got == _reference_candidates(set(params), self.BACKUP, params, ms,
                                            TenantConfig())
        assert [b.total for b in got.breakdowns] == [0.0, 0.0, 0.0]
        assert got.ranked == ACTION_ORDER[:3]  # ties go to declaration order

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_mitigation_raises_as_the_reference(self, bad):
        params = self._params(1.0, 2.0, 3.0)
        ms = {k: 1.0 for k in params}
        ms[ACTION_ORDER[1]] = bad
        with pytest.raises(ScoringDomainError) as expected:
            _reference_candidates(set(params), None, params, ms, TenantConfig())
        with pytest.raises(ScoringDomainError) as got:
            resolve_candidates(set(params), None, params, ms, TenantConfig())
        assert str(got.value) == str(expected.value)
        assert "non-finite value for" in str(got.value)


def _totals(state):
    """The ledger totals of `state` by name."""
    return dict(zip(RESULTS_FLOATS, state.accumulated()))


class TestApplyTenant:
    def _workflow(self):
        tasks = (
            make_task("t0", value=1.0),
            make_task("t1", value=1.0),
            make_task("t2", value=1.0),
        )
        edges = (ControlEdge("t0", "t1"), ControlEdge("t0", "t2"))
        data = (DataEdge("t0", "t1", "d0"), DataEdge("t0", "t2", "d1"))
        return Workflow(tasks=tasks, control_edges=edges, data_edges=data)

    def _selected(self, kinds, at=AttackType.DOS, level=Severity.MEDIUM):
        task = make_task(cia=(1.0, 1.0, 1.0), value=1.0, kinds=kinds)
        cloud = make_cloud(
            [
                make_service("p0-s0", "p0", price=2.0, time=10.0, afr=1.0),
                make_service("p1-s0", "p1", price=3.0, time=8.0, afr=1.0),
            ]
        )
        trust = TrustRepository.from_cloud(cloud)
        event = _event(at=at, level=level)
        res = select_action(
            task, event, CATALOG[at], TenantConfig(), cloud, trust,
            cloud.service_map()["p0-s0"],
        )
        assert _outcome(res) == "adapted"
        return res.candidates.candidate(res.candidates.ranked[0]), event, trust

    def test_skip_zeroes_leaf_value_and_flags_successors(self):
        wf = self._workflow()
        state = _noiseless_state(wf)
        state.start_task("t0", 2.0, 10.0, 1.0)
        chosen, event, _ = self._selected(
            [ActionKind.SKIP], at=AttackType.PROBE, level=Severity.MEDIUM
        )
        if chosen.kind is not ActionKind.SKIP:
            pytest.skip("skip not selected")
        before = _totals(state)["value"]
        apply_tenant_action(state, event, chosen)
        after = _totals(state)
        assert before - after["value"] == pytest.approx(1.0)
        assert state.degraded == {"t1": 1, "t2": 1}

    def test_insert_charges_exact_defaults(self):
        wf = self._workflow()
        state = _noiseless_state(wf)
        state.start_task("t0", 2.0, 10.0, 1.0)
        chosen, event, _ = self._selected(
            [ActionKind.INSERT], at=AttackType.DOS, level=Severity.MEDIUM
        )
        before = _totals(state)
        apply_tenant_action(state, event, chosen)
        after = _totals(state)
        # Insert defaults: 0.2*P, 0.2*T, 0.1*V of the violated task
        assert after["price"] - before["price"] == pytest.approx(0.2 * 2.0)
        assert after["time"] - before["time"] == pytest.approx(0.2 * 10.0)
        assert after["value"] - before["value"] == pytest.approx(0.1 * 1.0)


class TestApplyMiddleware:
    def _run(self, chosen, level=Severity.HIGH, at=AttackType.DOS):
        wf = Workflow(tasks=(make_task("t0", value=1.0),), control_edges=(), data_edges=())
        state = _noiseless_state(wf)
        state.start_task("t0", 2.0, 10.0, 1.0)
        task = make_task(
            cia=(1.0, 1.0, 1.0), value=1.0,
            kinds=[ActionKind.REWORK, ActionKind.REDUNDANCY, ActionKind.RECONFIGURATION],
        )
        cloud = make_cloud(
            [
                make_service("p0-s0", "p0", price=2.0, time=10.0, afr=0.4),
                make_service("p1-s0", "p1", price=3.0, time=8.0, afr=0.4),
            ]
        )
        trust = TrustRepository.from_cloud(cloud)
        event = _event(at=at, level=level)
        res = select_action(
            task, event, CATALOG[at], TenantConfig(), cloud, trust,
            cloud.service_map()["p0-s0"],
        )
        assert _outcome(res) == "adapted"
        before = _totals(state)
        apply_middleware_action(
            state, event, res.candidates.candidate(chosen), res.candidates.backup, trust
        )
        return before, _totals(state), trust

    def test_rework_charges_backup(self):
        before, after, _ = self._run(ActionKind.REWORK)
        assert after["time"] - before["time"] == pytest.approx(8.0)
        assert after["price"] - before["price"] == pytest.approx(3.0)

    def test_redundancy_max_time_sum_price(self):
        before, after, _ = self._run(ActionKind.REDUNDANCY)
        # ledger: task keeps time 10 (max(8,10)), price rises to 2+3
        assert after["time"] - before["time"] == pytest.approx(0.0)
        assert after["price"] - before["price"] == pytest.approx(3.0)

    def test_reconfiguration_halves_live_afr(self):
        _, _, trust = self._run(ActionKind.RECONFIGURATION)
        # scale 0.4 * 0.5 = 0.2, then the detected-violation EWMA bumps it
        expected = 0.4 * RECONFIG_AFR_FACTOR * 0.9 + 0.1
        assert trust.afr("p0-s0", AttackType.DOS) == pytest.approx(expected)

    def test_middleware_action_updates_trust(self):
        _, _, trust = self._run(ActionKind.REWORK)
        # EWMA with detected=True from the baseline 0.4
        assert trust.afr("p0-s0", AttackType.DOS) == pytest.approx(0.4 * 0.9 + 0.1)


class _FixedNoise:
    """An overhead-noise stream whose every draw is 0.1, counting its draws."""

    draws = 0

    def normal(self, loc=0.0, scale=1.0):
        self.draws += 1
        return 0.1


class _TrustLog(TrustRepository):
    """A trust repository that records its writes in order."""

    def __init__(self, afr_history):
        super().__init__(dict(afr_history))
        self.writes = []

    def scale_afr(self, service_id, attack_type, factor):
        self.writes.append(("scale_afr", service_id, attack_type, factor))
        super().scale_afr(service_id, attack_type, factor)

    def update(self, service_id, attack_type, detected):
        self.writes.append(("update", service_id, attack_type, detected))
        super().update(service_id, attack_type, detected)


class TestApplyEveryKindBitForBit:
    """Each kind's ledger change and trust writes against the per-kind
    formulas, kept here as a reference: a reference ledger fed those changes
    must end bit-for-bit equal to the one the apply functions wrote."""

    BASE = (2.3, 10.7, 0.9)  # price, time, value of the attacked task
    CHOSEN = CostBreakdown(ActionKind.SKIP, price=0.37, time=3.3, mitigation=1.25,
                           value=0.71, total=0.0)

    @staticmethod
    def _state(late):
        wf = Workflow(tasks=(make_task("t0"), make_task("t1")),
                      control_edges=(ControlEdge("t0", "t1"),),
                      data_edges=(DataEdge("t0", "t1"),))
        state = ExecutionState(Layout(wf), _FixedNoise())
        state.start_task("t0", *TestApplyEveryKindBitForBit.BASE)
        if late:  # past LATE_THRESHOLD_FACTOR times the nominal time so far
            state.add_adaptation("t0", 0.0, 6.1, 0.0, 0.0)
        return state

    @classmethod
    def _reference(cls, kind, late, backup):
        """The ledger and trust writes by the per-kind formulas."""
        state, chosen = cls._state(late), cls.CHOSEN
        base_price, base_time, base_value = state.base["t0"]
        if kind is ActionKind.SKIP:
            state.skip_task("t0")
            change = (0.0, 0.0, 0.0)
        elif kind is ActionKind.SWITCH:
            change = (0.0, chosen.time, chosen.value - base_value)
        elif kind is ActionKind.INSERT:
            change = (chosen.price, chosen.time, chosen.value)
        elif kind is ActionKind.REWORK:
            change = (backup.price, backup.response_time * state.late_multiplier(), 0.0)
        elif kind is ActionKind.REDUNDANCY:
            change = (backup.price, max(backup.response_time, base_time) - base_time,
                      chosen.value - base_value)
        else:
            change = (chosen.price - base_price, chosen.time - base_time,
                      chosen.value - base_value)
        state.add_adaptation("t0", *change, chosen.mitigation)
        writes = []
        if kind in MIDDLEWARE_KINDS:
            if kind is ActionKind.RECONFIGURATION:
                writes.append(("scale_afr", "p0-s0", AttackType.DOS, RECONFIG_AFR_FACTOR))
            writes.append(("update", "p0-s0", AttackType.DOS, True))
        return state, writes

    @pytest.mark.parametrize("kind, late, backup_time", [
        (ActionKind.SKIP, False, None),
        (ActionKind.SWITCH, False, None),
        (ActionKind.INSERT, False, None),
        (ActionKind.REWORK, False, 8.2),
        (ActionKind.REWORK, True, 8.2),
        (ActionKind.REDUNDANCY, False, 13.9),
        (ActionKind.REDUNDANCY, False, 8.2),
        (ActionKind.RECONFIGURATION, False, None),
    ])
    def test_ledger_and_trust_match_the_reference(self, kind, late, backup_time):
        cloud = make_cloud([make_service("p0-s0", "p0", afr=0.4),
                            make_service("p1-s0", "p1", price=3.1,
                                         time=backup_time or 8.2)])
        backup = cloud.service_map()["p1-s0"] if backup_time is not None else None
        state = self._state(late)
        trust = _TrustLog(TrustRepository.from_cloud(cloud).afr_history)
        chosen = CostBreakdown(kind, **{f: getattr(self.CHOSEN, f) for f in
                                        ("price", "time", "mitigation", "value", "total")})
        if kind in MIDDLEWARE_KINDS:
            apply_middleware_action(state, _event(), chosen, backup, trust)
        else:
            apply_tenant_action(state, _event(), chosen)
        ref, writes = self._reference(kind, late, backup)
        assert state.accumulated() == ref.accumulated()
        assert state.durations() == ref.durations()
        assert state.base == ref.base and state.degraded == ref.degraded
        assert state._noise_rng.draws == ref._noise_rng.draws
        assert trust.writes == writes
        assert self._state(late).late_multiplier() == (1.5 if late else 1.0)


class TestApplyRejects:
    """A candidate an apply function cannot apply raises before the ledger or
    the trust repository changes: a kind of the other level, or a Rework or
    Redundancy without its backup service."""

    def _setup(self):
        wf = Workflow(tasks=(make_task("t0", value=1.0),), control_edges=(), data_edges=())
        state = ExecutionState(Layout(wf), _FixedNoise())
        state.start_task("t0", 2.0, 10.0, 1.0)
        cloud = make_cloud([make_service("p0-s0", "p0"), make_service("p1-s0", "p1")])
        return state, TrustRepository.from_cloud(cloud), cloud.service_map()["p1-s0"]

    @staticmethod
    def _ledger(state):
        return state.accumulated(), state.durations(), state._noise_rng.draws

    @staticmethod
    def _candidate(kind):
        return CostBreakdown(kind, price=3.0, time=8.0, mitigation=1.0, value=1.0, total=0.0)

    @pytest.mark.parametrize("kind", sorted(MIDDLEWARE_KINDS, key=lambda k: k.value))
    def test_tenant_apply_rejects_middleware_kind(self, kind):
        state, _, _ = self._setup()
        before = self._ledger(state)
        with pytest.raises(ValueError, match="not a tenant action"):
            apply_tenant_action(state, _event(), self._candidate(kind))
        assert self._ledger(state) == before

    @pytest.mark.parametrize(
        "kind", sorted(set(ActionKind) - MIDDLEWARE_KINDS, key=lambda k: k.value)
    )
    def test_middleware_apply_rejects_tenant_kind(self, kind):
        state, trust, backup = self._setup()
        before, rates = self._ledger(state), dict(trust.afr_history)
        with pytest.raises(ValueError, match="not a middleware action"):
            apply_middleware_action(state, _event(), self._candidate(kind), backup, trust)
        assert self._ledger(state) == before
        assert trust.afr_history == rates

    @pytest.mark.parametrize("kind", [ActionKind.REWORK, ActionKind.REDUNDANCY])
    def test_missing_backup_leaves_ledger_and_trust(self, kind):
        state, trust, _ = self._setup()
        before, rates = self._ledger(state), dict(trust.afr_history)
        with pytest.raises(NoBackupError):
            apply_middleware_action(state, _event(), self._candidate(kind), None, trust)
        assert self._ledger(state) == before
        assert trust.afr_history == rates


class TestLedgerConservation:
    def test_totals_fold_adaptation_records(self):
        wf = Workflow(
            tasks=(make_task("t0"), make_task("t1")),
            control_edges=(ControlEdge("t0", "t1"),),
            data_edges=(),
        )
        state = _noiseless_state(wf)
        state.start_task("t0", 2.0, 10.0, 1.0)
        state.start_task("t1", 1.0, 5.0, 0.5)
        state.add_adaptation("t0", price=0.4, time=2.0, value_delta=0.1, mitigation=1.2)
        state.add_adaptation("t1", price=3.0, time=8.0, value_delta=0.0, mitigation=0.9)
        acc = _totals(state)
        assert acc["price"] == pytest.approx(2.0 + 1.0 + 0.4 + 3.0, abs=1e-9)
        assert acc["time"] == pytest.approx(10.0 + 5.0 + 2.0 + 8.0, abs=1e-9)
        assert acc["value"] == pytest.approx(1.0 + 0.5 + 0.1, abs=1e-9)
        assert acc["mitigation"] == pytest.approx(1.2 + 0.9, abs=1e-9)

    def test_running_totals_equal_ledger_rescans_exactly(self):
        """The running totals against a rescan of the whole ledger, bit for
        bit, while the task in progress is skipped, failed or damaged."""
        rng = np.random.default_rng(404)
        n_tasks = 6
        wf = Workflow(tasks=tuple(make_task(f"t{i}") for i in range(n_tasks)),
                      control_edges=(), data_edges=())
        for _ in range(200):
            state = _noiseless_state(wf)
            adapt = []  # this test's own record of the adaptations it added
            for i in range(n_tasks):
                tid = f"t{i}"
                state.start_task(tid, *rng.uniform(0, 10, 3))
                for _ in range(int(rng.integers(0, 3))):
                    op = int(rng.integers(4))
                    if op == 0:
                        state.skip_task(tid)
                    elif op == 1:
                        state.fail_task(tid)
                    elif op == 2:
                        state.damage_task(tid, rng.uniform())
                    else:
                        p, t, dv, ms = rng.uniform(0, 5, 4)
                        target = f"t{int(rng.integers(i + 1))}"
                        state.add_adaptation(target, price=p, time=t, value_delta=dv,
                                             mitigation=ms)
                        adapt.append({"task": target, "price": p, "time": t,
                                      "value_delta": dv, "mitigation": ms})
                    base = state.base.values()
                    assert state.accumulated() == (
                        sum(v[0] for v in base) + sum(a["price"] for a in adapt),
                        sum(v[1] for v in base) + sum(a["time"] for a in adapt),
                        sum(v[2] for v in base) + sum(a["value_delta"] for a in adapt),
                        sum(a["mitigation"] for a in adapt),
                    )
                    assert state.accumulated_time() == state.accumulated()[1]
                    extra = {}
                    for a in adapt:
                        extra[a["task"]] = extra.get(a["task"], 0) + a["time"]
                    assert state.durations() == {
                        tid: v[1] + extra.get(tid, 0) for tid, v in state.base.items()
                    }
