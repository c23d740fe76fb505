"""Domain model: catalogs, action-property algebra, and workflow JSON."""

import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secflow.model import (
    ACTION_MITIGATION_IMPACT,
    ActionKind,
    AttackType,
    ControlEdge,
    DataEdge,
    MissingBackupError,
    ParseError,
    SecurityVector,
    Severity,
    Task,
    TenantConfig,
    ValidationError,
    Workflow,
    builtin_action_properties,
    builtin_attack_catalog,
    parse_multicloud,
    parse_workflow,
    serialize_multicloud,
    serialize_workflow,
)
from tests.conftest import make_cloud, make_service, make_task


class TestSecurityVector:
    def test_components_validated(self):
        with pytest.raises(ValidationError):
            SecurityVector(1.5, 0.0, 0.0)
        with pytest.raises(ValidationError):
            SecurityVector(0.0, -0.1, 0.0)

    def test_dominates_is_componentwise(self):
        assert SecurityVector(0.9, 0.9, 0.9).dominates(SecurityVector(0.5, 0.5, 0.5))
        assert not SecurityVector(0.9, 0.4, 0.9).dominates(SecurityVector(0.5, 0.5, 0.5))


class TestAttackCatalog:
    def test_dos_row(self):
        spec = builtin_attack_catalog()[AttackType.DOS]
        assert spec.impact.as_tuple() == (0.56, 0.56, 0.56)
        assert spec.mitigation_actions[Severity.LOW] == {
            ActionKind.SWITCH,
            ActionKind.REWORK,
        }
        assert spec.mitigation_actions[Severity.MEDIUM] == {
            ActionKind.INSERT,
            ActionKind.REWORK,
        }
        assert spec.mitigation_actions[Severity.HIGH] == {
            ActionKind.INSERT,
            ActionKind.REWORK,
            ActionKind.REDUNDANCY,
            ActionKind.RECONFIGURATION,
        }

    def test_probe_row(self):
        spec = builtin_attack_catalog()[AttackType.PROBE]
        assert spec.impact.as_tuple() == (0.22, 0.22, 0.0)
        assert spec.mitigation_actions[Severity.LOW] == {ActionKind.SKIP}
        assert spec.mitigation_actions[Severity.MEDIUM] == {
            ActionKind.SKIP,
            ActionKind.RECONFIGURATION,
        }
        assert spec.mitigation_actions[Severity.HIGH] == {
            ActionKind.SKIP,
            ActionKind.RECONFIGURATION,
        }

    def test_r2l_row(self):
        spec = builtin_attack_catalog()[AttackType.R2L]
        assert spec.impact.as_tuple() == (0.56, 0.56, 0.22)
        assert spec.mitigation_actions[Severity.LOW] == {ActionKind.REWORK}

    def test_catalog_is_stable_across_calls(self):
        a, b = builtin_attack_catalog(), builtin_attack_catalog()
        assert a == b


class TestActionProperties:
    def test_skip_is_identically_zero(self):
        p = builtin_action_properties(ActionKind.SKIP, 10.0, 2.0, 1.0)
        assert (p.price, p.time, p.value) == (0.0, 0.0, 0.0)
        assert p.mitigation_impact.as_tuple() == (0.5, 0.4, 0.6)

    def test_redundancy_max_time_sum_price(self):
        p = builtin_action_properties(
            ActionKind.REDUNDANCY,
            task_time=10.0,
            task_price=2.0,
            task_value=1.0,
            backup=make_service(time=8.0, price=3.0),
        )
        assert p.time == 10.0  # max(8, 10)
        assert p.price == 5.0  # 2 + 3
        assert p.value == 1.25  # 1 + 25%
        assert p.mitigation_impact.as_tuple() == (0.5, 0.8, 0.9)

    def test_reconfiguration_ten_percent_overheads(self):
        p = builtin_action_properties(ActionKind.RECONFIGURATION, 10.0, 2.0, 1.0)
        assert p.time == pytest.approx(11.0)
        assert p.price == pytest.approx(2.2)
        assert p.value == pytest.approx(1.1)
        assert p.mitigation_impact.as_tuple() == (0.6, 0.7, 0.5)

    def test_rework_charges_backup_params(self):
        p = builtin_action_properties(
            ActionKind.REWORK, 10.0, 2.0, 1.0, backup=make_service(time=8.0, price=3.0)
        )
        assert (p.price, p.time) == (3.0, 8.0)

    def test_rework_without_backup_raises(self):
        with pytest.raises(MissingBackupError):
            builtin_action_properties(ActionKind.REWORK, 10.0, 2.0, 1.0)
        with pytest.raises(MissingBackupError):
            builtin_action_properties(ActionKind.REDUNDANCY, 10.0, 2.0, 1.0)

    @given(
        task_time=st.floats(0.1, 100),
        task_price=st.floats(0.1, 100),
        backup_time=st.floats(0.1, 100),
        backup_price=st.floats(0.1, 100),
    )
    def test_redundancy_algebra_for_arbitrary_inputs(
        self, task_time, task_price, backup_time, backup_price
    ):
        p = builtin_action_properties(
            ActionKind.REDUNDANCY,
            task_time,
            task_price,
            1.0,
            backup=make_service(time=backup_time, price=backup_price),
        )
        assert p.time == max(task_time, backup_time)
        assert p.price == task_price + backup_price

    def test_every_kind_has_a_mitigation_impact(self):
        assert set(ACTION_MITIGATION_IMPACT) == set(ActionKind)


class TestWorkflowValidation:
    def test_minimal_single_task(self):
        wf = parse_workflow(
            json.dumps(
                {"tasks": [{"id": "t0", "c": 0.5, "i": 0.5, "a": 0.5, "value": 1.0}]}
            )
        )
        assert len(wf.tasks) == 1
        assert wf.topological_order() == ["t0"]

    def test_chain_topological_order(self):
        doc = {
            "tasks": [
                {"id": t, "c": 0.1, "i": 0.1, "a": 0.1, "value": 1.0}
                for t in ("t0", "t1", "t2")
            ],
            "control_edges": [
                {"from": "t0", "to": "t1"},
                {"from": "t1", "to": "t2"},
            ],
        }
        wf = parse_workflow(json.dumps(doc))
        assert wf.topological_order() == ["t0", "t1", "t2"]

    def test_dangling_edge_rejected(self):
        doc = {
            "tasks": [{"id": "t0", "c": 0.1, "i": 0.1, "a": 0.1, "value": 1.0}],
            "control_edges": [{"from": "t0", "to": "t9"}],
        }
        with pytest.raises(ValidationError, match="t9"):
            parse_workflow(json.dumps(doc))

    def test_cycle_rejected_with_cycle_named(self):
        doc = {
            "tasks": [
                {"id": t, "c": 0.1, "i": 0.1, "a": 0.1, "value": 1.0}
                for t in ("t0", "t1")
            ],
            "control_edges": [
                {"from": "t0", "to": "t1"},
                {"from": "t1", "to": "t0"},
            ],
        }
        with pytest.raises(ValidationError, match="cycle"):
            parse_workflow(json.dumps(doc))

    def test_unknown_action_kind_rejected(self):
        doc = {
            "tasks": [
                {
                    "id": "t0",
                    "c": 0.1,
                    "i": 0.1,
                    "a": 0.1,
                    "value": 1.0,
                    "actions": [{"kind": "teleport"}],
                }
            ]
        }
        with pytest.raises(ValidationError, match="teleport"):
            parse_workflow(json.dumps(doc))

    def test_middleware_action_cannot_carry_static_params(self):
        with pytest.raises(ValidationError):
            Task(
                id="t0",
                requirements=SecurityVector(0.1, 0.1, 0.1),
                value=1.0,
                feasible_actions={
                    ActionKind.REWORK: builtin_action_properties(
                        ActionKind.SKIP, 1.0, 1.0, 1.0
                    )
                },
            )

    def test_data_edge_needs_control_path(self):
        doc = {
            "tasks": [
                {"id": t, "c": 0.1, "i": 0.1, "a": 0.1, "value": 1.0}
                for t in ("t0", "t1")
            ],
            "data_edges": [{"from": "t0", "to": "t1", "data": "x"}],
        }
        with pytest.raises(ValidationError, match="control path"):
            parse_workflow(json.dumps(doc))


def _workflow(ids, control, data=()):
    return Workflow(
        tasks=tuple(make_task(t) for t in ids),
        control_edges=tuple(ControlEdge(src=s, dst=d) for s, d in control),
        data_edges=tuple(DataEdge(src=s, dst=d) for s, d in data),
    )


def _chain(n):
    return [f"t{i}" for i in range(n)], [(f"t{i}", f"t{i + 1}") for i in range(n - 1)]


class TestControlGraph:
    # declared out of order: src fans out to a, b, c and e; a and b join at d
    DIAMOND_IDS = ["sink", "b", "a", "src", "d", "c", "solo", "e"]
    DIAMOND = [("src", "a"), ("src", "b"), ("src", "c"), ("a", "d"), ("b", "d"),
               ("c", "e"), ("d", "sink"), ("e", "sink"), ("src", "e")]

    def test_fan_out_and_diamond_order(self):
        # Kahn's FIFO order: sources in declaration order, then each task as
        # its last predecessor is taken
        wf = _workflow(self.DIAMOND_IDS, self.DIAMOND, [("src", "sink"), ("a", "a")])
        assert wf.topological_order() == ["src", "solo", "a", "b", "c", "d", "e", "sink"]

    @pytest.mark.parametrize("src, dst", [("b", "c"), ("sink", "src"), ("solo", "d")])
    def test_data_edge_off_every_control_path_rejected(self, src, dst):
        with pytest.raises(ValidationError) as exc:
            _workflow(self.DIAMOND_IDS, self.DIAMOND, [("a", "sink"), (src, dst)])
        assert str(exc.value) == (
            f"data edge {src}->{dst} endpoints not connected by a control path")

    def test_long_chain_parses_and_orders(self):
        ids, control = _chain(2000)
        doc = {"tasks": [dict(_TASK, id=t) for t in ids],
               "control_edges": [{"from": s, "to": d} for s, d in control],
               "data_edges": [{"from": "t0", "to": "t1999"}]}
        assert parse_workflow(json.dumps(doc)).topological_order() == ids

    def test_validation_memory_is_bounded(self):
        # all-pairs reach sets of this chain peak at about 340 MB
        ids, control = _chain(4000)
        data = [(ids[i], ids[-1 - i]) for i in range(2000)]
        tracemalloc.start()
        try:
            _workflow(ids, control, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20

    @pytest.mark.parametrize("control", [
        [("t0", "t1"), ("t1", "t2"), ("t2", "t1"), ("t3", "t4"), ("t4", "t3"), ("t2", "t5")],
        [("t5", "t0"), ("t0", "t1"), ("t1", "t2"), ("t2", "t0"), ("t2", "t3"), ("t3", "t1"),
         ("t4", "t4")],
        [("t1", "t0"), ("t2", "t1"), ("t0", "t2"), ("t0", "t3"), ("t3", "t4"), ("t4", "t5"),
         ("t5", "t3")],
    ], ids=["two-loops", "nested-loops", "loop-feeds-loop"])
    def test_several_cycles_one_real_one_named(self, control):
        with pytest.raises(ValidationError) as exc:
            _workflow([f"t{i}" for i in range(6)], control)
        prefix = "cycle in control edges: "
        assert str(exc.value).startswith(prefix)
        cycle = str(exc.value)[len(prefix):].split(" -> ")
        assert len(cycle) >= 2 and cycle[0] == cycle[-1]
        assert all(step in control for step in zip(cycle, cycle[1:]))

    def test_self_loop_named(self):
        with pytest.raises(ValidationError) as exc:
            _workflow(["t0", "t1"], [("t0", "t1"), ("t1", "t1")])
        assert str(exc.value) == "cycle in control edges: t1 -> t1"


@st.composite
def random_workflows(draw):
    n = draw(st.integers(1, 8))
    tasks = tuple(
        make_task(
            f"t{i}",
            cia=(
                draw(st.floats(0, 1)),
                draw(st.floats(0, 1)),
                draw(st.floats(0, 1)),
            ),
            value=draw(st.floats(0, 10)),
            kinds=draw(
                st.lists(st.sampled_from(list(ActionKind)), min_size=1, unique=True)
            ),
        )
        for i in range(n)
    )
    edges = []
    for j in range(1, n):
        src = draw(st.integers(0, j - 1))
        if draw(st.booleans()):
            edges.append(ControlEdge(src=f"t{src}", dst=f"t{j}", cond="", prob=1.0))
    return Workflow(tasks=tasks, control_edges=tuple(edges), data_edges=())


class TestRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(random_workflows())
    def test_workflow_json_round_trip(self, wf):
        assert parse_workflow(serialize_workflow(wf)) == wf

    def test_multicloud_json_round_trip(self):
        cloud = make_cloud(
            [
                make_service("p0-s0", "p0", price=1.0),
                make_service("p0-s1", "p0", price=2.0),
                make_service("p1-s0", "p1", price=3.0),
            ]
        )
        assert parse_multicloud(serialize_multicloud(cloud)) == cloud


_TASK = {"id": "t0", "c": 0.1, "i": 0.1, "a": 0.1, "value": 1.0}
_SERVICE = {"id": "p0-s0", "price": 1.0, "time": 2.0, "c": 1.0, "i": 1.0, "a": 1.0}
_EDGE_DOC = {"tasks": [_TASK, dict(_TASK, id="t1")]}


@pytest.mark.parametrize(
    "parse, doc, message",
    [
        (parse_workflow, {"tasks": [_TASK], "control_edges": [{"from": "t0"}]},
         "$.control_edges[0]: missing field 'to'"),
        (parse_workflow, {"tasks": [_TASK], "data_edges": [["t0", "t0"]]},
         "$.data_edges[0]: must be an object"),
        (parse_multicloud,
         {"providers": [{"id": "p0", "services": [
             _SERVICE, {k: v for k, v in _SERVICE.items() if k != "price"}]}]},
         "$.providers[0].services[1]: missing field 'price'"),
        (parse_multicloud, {"providers": [{"services": []}]},
         "$.providers[0]: missing field 'id'"),
        (parse_multicloud, [{"id": "p0"}], "$: must be an object"),
        (parse_multicloud,
         {"providers": [{"id": "p0", "services": [dict(_SERVICE, afr={"dos": 0.1, "xss": 0.2})]}]},
         "$.providers[0].services[0].afr: unknown attack type 'xss'"),
        (parse_workflow, {"tasks": [dict(_TASK, actions=["skip"])]},
         "$.tasks[0].actions[0]: must be an object"),
        (parse_workflow,
         {"tasks": [dict(_TASK, actions=[{"kind": "switch", "price": "cheap", "time": 1.0,
                                          "value": 1.0}])]},
         "$.tasks[0].actions[0].price: must be a number, got 'cheap'"),
        (parse_multicloud,
         {"providers": [{"id": "p0", "services": [dict(_SERVICE, afr={"dos": "often"})]}]},
         "$.providers[0].services[0].afr.dos: must be a number, got 'often'"),
        (parse_workflow, {"tasks": [dict(_TASK, c=2)]}, "$.tasks[0].c: must be in [0,1], got 2"),
        (parse_workflow,
         {"tasks": [dict(_TASK, actions=[{"kind": "insert", "price": 1.0, "time": 1.0,
                                          "value": 1.0, "mi": [0.5, 1.5, 0.5]}])]},
         "$.tasks[0].actions[0].mi[1]: must be in [0,1], got 1.5"),
        (parse_multicloud, {"providers": [{"id": "p0", "services": [dict(_SERVICE, a=-0.5)]}]},
         "$.providers[0].services[0].a: must be in [0,1], got -0.5"),
        (parse_multicloud, {"providers": [{"id": "p0", "services": {"s0": _SERVICE}}]},
         "$.providers[0].services: must be an array"),
        (parse_workflow, {"tasks": [dict(_TASK, value=float("nan"))]},
         "$.tasks[0].value: must be a finite number, got nan"),
        (parse_workflow,
         {"tasks": [dict(_TASK, actions=[{"kind": "switch", "price": 1.0,
                                          "time": float("-inf"), "value": 1.0}])]},
         "$.tasks[0].actions[0].time: must be a finite number, got -inf"),
        (parse_workflow, dict(_EDGE_DOC, control_edges=[
            {"from": "t0", "to": "t1", "cond": "x", "prob": 1.5}]),
         "$.control_edges[0].prob: must be in [0,1], got 1.5"),
        (parse_workflow, dict(_EDGE_DOC, control_edges=[{"from": "t0", "to": "t1", "prob": -3}]),
         "$.control_edges[0].prob: must be in [0,1], got -3"),
        (parse_workflow, dict(_EDGE_DOC, control_edges=[
            {"from": "t0", "to": "t1", "prob": float("nan")}]),
         "$.control_edges[0].prob: must be a finite number, got nan"),
        (parse_multicloud, {"providers": [{"id": "p0", "services": [
            dict(_SERVICE, price=float("nan"))]}]},
         "$.providers[0].services[0].price: must be a finite number, got nan"),
        (parse_multicloud, {"providers": [{"id": "p0", "services": [
            dict(_SERVICE, time=float("inf"))]}]},
         "$.providers[0].services[0].time: must be a finite number, got inf"),
        (parse_multicloud, {"providers": [{"id": "p0", "services": [
            dict(_SERVICE, afr={"dos": "NaN"})]}]},
         "$.providers[0].services[0].afr.dos: must be a finite number, got 'NaN'"),
        (parse_workflow, {"tasks": [dict(_TASK, c=True)]},
         "$.tasks[0].c: must be in [0,1], got True"),
        (parse_workflow, {"tasks": [dict(_TASK, value=True)]},
         "$.tasks[0].value: must be a number, got True"),
        (parse_multicloud, {"providers": [{"id": "p0", "services": [
            dict(_SERVICE, price=False)]}]},
         "$.providers[0].services[0].price: must be a number, got False"),
        (parse_multicloud,
         {"providers": [{"id": "p0", "services": [dict(_SERVICE, afr={"dos": True})]}]},
         "$.providers[0].services[0].afr.dos: must be a number, got True"),
        (parse_workflow,
         {"tasks": [dict(_TASK, actions=[{"kind": "insert", "price": 1.0, "time": 1.0,
                                          "value": 1.0, "mi": [0.5, True, 0.5]}])]},
         "$.tasks[0].actions[0].mi[1]: must be in [0,1], got True"),
        (parse_workflow, dict(_EDGE_DOC, control_edges=[
            {"from": "t0", "to": "t1", "cond": "x", "prob": True}]),
         "$.control_edges[0].prob: must be a number, got True"),
    ],
    ids=["control-edge-field", "data-edge-object", "service-field", "provider-field",
         "cloud-document-object", "afr-attack-type", "action-object", "action-number",
         "afr-number", "task-cia-range", "action-mi-range", "service-cia-range",
         "services-array", "task-value-nan", "action-time-inf", "prob-above-one",
         "prob-negative", "prob-nan", "service-price-nan", "service-time-inf",
         "afr-nan-string", "task-cia-boolean", "task-value-boolean",
         "service-price-boolean", "afr-boolean", "action-mi-boolean", "prob-boolean"],
)
def test_malformed_document_names_its_path(parse, doc, message):
    with pytest.raises(ParseError) as exc:
        parse(json.dumps(doc))
    assert str(exc.value) == message


def test_numeric_strings_and_probability_bounds_accepted():
    doc = {"tasks": [dict(_TASK, value="0.5"), dict(_TASK, id="t1")],
           "control_edges": [{"from": "t0", "to": "t1", "cond": "x", "prob": 0},
                             {"from": "t0", "to": "t1", "cond": "y", "prob": "1"}]}
    wf = parse_workflow(json.dumps(doc))
    assert wf.tasks[0].value == 0.5
    assert [e.prob for e in wf.control_edges] == [0.0, 1.0]


class TestTenantConfig:
    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValidationError):
            TenantConfig(w_price=0, w_time=0, w_security=0, w_value=0)

    @pytest.mark.parametrize("weight", [-0.1, float("nan"), float("inf")])
    def test_weight_not_finite_and_nonnegative_rejected(self, weight):
        with pytest.raises(ValidationError, match="finite and >= 0"):
            TenantConfig(w_price=weight)

    def test_defaults(self):
        cfg = TenantConfig()
        assert (cfg.w_price, cfg.w_time, cfg.w_security, cfg.w_value) == (
            0.25,
            0.25,
            0.25,
            0.25,
        )
        assert cfg.adapt_trigger_threshold == 0.1
