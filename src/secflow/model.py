"""Domain model: workflows, tasks, attacks, services and the built-in catalogs.

All types are immutable after construction and safe to share across threads.
Workflow documents are exchanged as JSON; see ``parse_workflow`` for the schema.
"""

from __future__ import annotations

import enum
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


class ModelError(ValueError):
    """Base class for model construction/validation failures."""


class ParseError(ModelError):
    """Malformed workflow document; the message names the offending path."""


class ValidationError(ModelError):
    """Structurally well-formed document violating a model invariant."""


def _check_unit(value, name):
    if not (isinstance(value, (int, float)) and 0.0 <= value <= 1.0):
        raise ValidationError(f"{name} must be in [0,1], got {value!r}")
    return float(value)


@dataclass(frozen=True)
class SecurityVector:
    """A (confidentiality, integrity, availability) triple, each in [0,1]."""

    c: float
    i: float
    a: float

    def __post_init__(self):
        _check_unit(self.c, "c")
        _check_unit(self.i, "i")
        _check_unit(self.a, "a")

    def dominates(self, other: "SecurityVector") -> bool:
        """Component-wise >= comparison (e.g. service guarantees vs task needs)."""
        return self.c >= other.c and self.i >= other.i and self.a >= other.a

    def as_tuple(self):
        return (self.c, self.i, self.a)


class ActionKind(enum.Enum):
    SKIP = "skip"
    SWITCH = "switch"
    INSERT = "insert"
    REWORK = "rework"
    REDUNDANCY = "redundancy"
    RECONFIGURATION = "reconfiguration"

    # Members are singletons, so the identity hash is a valid one, computed in
    # C; Enum's own hashes the name in Python. Both vary between processes.
    __hash__ = object.__hash__


MIDDLEWARE_KINDS = frozenset(
    {ActionKind.REWORK, ActionKind.REDUNDANCY, ActionKind.RECONFIGURATION}
)

# Stable declaration order used for deterministic tie-breaking everywhere.
ACTION_ORDER = tuple(ActionKind)


class AttackType(enum.Enum):
    DOS = "dos"
    PROBE = "probe"
    U2R = "u2r"
    R2L = "r2l"

    __hash__ = object.__hash__  # as ActionKind's


class Severity(enum.Enum):
    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"

    __hash__ = object.__hash__  # as ActionKind's


SEVERITY_ORDER = (Severity.LOW, Severity.MEDIUM, Severity.HIGH)

#: Numeric severity used multiplicatively in the attack score.
SEVERITY_LEVEL = {Severity.LOW: 1 / 3, Severity.MEDIUM: 2 / 3, Severity.HIGH: 1.0}


@dataclass(frozen=True)
class ActionParams:
    """Price/time/mitigation-impact/value tuple of one adaptation action."""

    price: float
    time: float
    mitigation_impact: SecurityVector
    value: float

    def __post_init__(self):
        for name in ("price", "time", "value"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and v >= 0 and v == v and v != float("inf")):
                raise ValidationError(f"action {name} must be finite and >= 0, got {v!r}")


@dataclass(frozen=True)
class Task:
    id: str
    requirements: SecurityVector
    value: float
    # Tenant-level kinds may carry explicit params fixed at modeling time;
    # middleware-level kinds never do (resolved at runtime from a backup service).
    feasible_actions: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.value < 0:
            raise ValidationError(f"task {self.id}: value must be >= 0")
        for kind, params in self.feasible_actions.items():
            if not isinstance(kind, ActionKind):
                raise ValidationError(f"task {self.id}: unknown action kind {kind!r}")
            if kind in MIDDLEWARE_KINDS and params is not None:
                raise ValidationError(
                    f"task {self.id}: middleware action {kind.value} cannot carry "
                    "static params (resolved at runtime)"
                )


@dataclass(frozen=True)
class ControlEdge:
    src: str
    dst: str
    cond: str = ""
    prob: float = 1.0  # probability the edge is taken when cond is non-empty


@dataclass(frozen=True)
class DataEdge:
    src: str
    dst: str
    data: str = ""


@dataclass(frozen=True)
class Workflow:
    tasks: tuple
    control_edges: tuple
    data_edges: tuple

    def __post_init__(self):
        ids = [t.id for t in self.tasks]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate task ids")
        known = set(ids)
        for e in self.control_edges + self.data_edges:
            for end in (e.src, e.dst):
                if end not in known:
                    raise ValidationError(f"edge references missing task {end!r}")
        order = self.topological_order()
        if len(order) < len(ids):
            cycle = _control_cycle(ids, set(order), self.control_edges)
            raise ValidationError("cycle in control edges: " + " -> ".join(cycle))
        # bit i of reach[t]: the i-th declared task follows t on a control path;
        # taking edges latest source first in `order` finds each reach[dst] done
        rank = {t: i for i, t in enumerate(order)}
        bit = {t: 1 << i for i, t in enumerate(ids)}
        reach = dict.fromkeys(ids, 0)
        for e in sorted(self.control_edges, key=lambda e: rank[e.src], reverse=True):
            reach[e.src] |= bit[e.dst] | reach[e.dst]
        for e in self.data_edges:
            if e.src != e.dst and not reach[e.src] & bit[e.dst]:
                raise ValidationError(
                    f"data edge {e.src}->{e.dst} endpoints not connected by a control path"
                )

    def task_map(self):
        return {t.id: t for t in self.tasks}

    def topological_order(self):
        """Kahn's algorithm; ties resolved by task declaration order. The
        tasks of a control cycle, and those after one, are left out."""
        indeg = {t.id: 0 for t in self.tasks}
        succ = {t.id: [] for t in self.tasks}
        for e in self.control_edges:
            indeg[e.dst] += 1
            succ[e.src].append(e.dst)
        out = [t.id for t in self.tasks if indeg[t.id] == 0]
        for n in out:  # `out` is the FIFO queue too
            for m in succ[n]:
                indeg[m] -= 1
                if indeg[m] == 0:
                    out.append(m)
        return out


def _control_cycle(ids, ordered, edges):
    """A cycle of control edges, first task repeated last, among the tasks
    Kahn's pass left out of `ordered`. Each of those has a predecessor that
    is left out too, so walking back from the first one declared repeats a
    task; the loop between the repeats, reversed, is a cycle."""
    pred = {}
    for e in edges:
        if e.src not in ordered:
            pred.setdefault(e.dst, e.src)
    walk, seen = [], {}
    t = next(t for t in ids if t not in ordered)
    while t not in seen:
        seen[t] = len(walk)
        walk.append(t)
        t = pred[t]
    return [t, *reversed(walk[seen[t]:])]


@dataclass(frozen=True)
class AttackSpec:
    attack_type: AttackType
    impact: SecurityVector
    # severity -> frozenset of ActionKind
    mitigation_actions: dict

    def __post_init__(self):
        for sev in SEVERITY_ORDER:
            actions = self.mitigation_actions.get(sev)
            if not actions:
                raise ValidationError(
                    f"{self.attack_type.value}: empty mitigation set for {sev.value}"
                )


@dataclass(frozen=True)
class Service:
    id: str
    provider_id: str
    price: float
    response_time: float
    guarantees: SecurityVector
    afr: dict  # AttackType -> rate in [0,1]

    def __post_init__(self):
        if self.price <= 0:
            raise ValidationError(f"service {self.id}: price must be > 0")
        if self.response_time <= 0:
            raise ValidationError(f"service {self.id}: response_time must be > 0")
        for at, rate in self.afr.items():
            _check_unit(rate, f"service {self.id} afr[{at.value}]")


@dataclass(frozen=True)
class MultiCloud:
    providers: tuple  # of (provider_id, tuple of Service)

    def __post_init__(self):
        seen = set()
        for pid, services in self.providers:
            for s in services:
                if s.id in seen:
                    raise ValidationError(f"duplicate service id {s.id!r}")
                seen.add(s.id)
                if s.provider_id != pid:
                    raise ValidationError(
                        f"service {s.id}: provider_id {s.provider_id!r} != owner {pid!r}"
                    )

    def services(self):
        for _, services in self.providers:
            yield from services

    def service_map(self):
        return {s.id: s for s in self.services()}


@dataclass(frozen=True)
class SchedulingPlan:
    bindings: dict  # task id -> service id

    def validate(self, workflow: Workflow, cloud: MultiCloud):
        services = cloud.service_map()
        for t in workflow.tasks:
            sid = self.bindings.get(t.id)
            if sid is None:
                raise ValidationError(f"task {t.id} unbound in scheduling plan")
            if sid not in services:
                raise ValidationError(f"task {t.id} bound to unknown service {sid!r}")


@dataclass(frozen=True)
class TenantConfig:
    w_price: float = 0.25
    w_time: float = 0.25
    w_security: float = 0.25
    w_value: float = 0.25
    adapt_trigger_threshold: float = 0.1

    def __post_init__(self):
        weights = (self.w_price, self.w_time, self.w_security, self.w_value)
        if not all(0 <= w < float("inf") for w in weights):
            raise ValidationError(f"tenant weights must be finite and >= 0, got {weights}")
        if not any(w > 0 for w in weights):
            raise ValidationError("at least one tenant weight must be > 0")
        _check_unit(self.adapt_trigger_threshold, "adapt_trigger_threshold")


# ---------------------------------------------------------------------------
# Built-in catalogs

_ATTACK_ROWS = {
    AttackType.DOS: (
        (0.56, 0.56, 0.56),
        {
            Severity.LOW: {ActionKind.SWITCH, ActionKind.REWORK},
            Severity.MEDIUM: {ActionKind.INSERT, ActionKind.REWORK},
            Severity.HIGH: {
                ActionKind.INSERT,
                ActionKind.REWORK,
                ActionKind.REDUNDANCY,
                ActionKind.RECONFIGURATION,
            },
        },
    ),
    AttackType.PROBE: (
        (0.22, 0.22, 0.0),
        {
            Severity.LOW: {ActionKind.SKIP},
            Severity.MEDIUM: {ActionKind.SKIP, ActionKind.RECONFIGURATION},
            Severity.HIGH: {ActionKind.SKIP, ActionKind.RECONFIGURATION},
        },
    ),
    AttackType.U2R: (
        (0.56, 0.22, 0.22),
        {
            Severity.LOW: {ActionKind.INSERT, ActionKind.REWORK},
            Severity.MEDIUM: {ActionKind.INSERT, ActionKind.REWORK},
            Severity.HIGH: {
                ActionKind.INSERT,
                ActionKind.REWORK,
                ActionKind.REDUNDANCY,
                ActionKind.RECONFIGURATION,
            },
        },
    ),
    AttackType.R2L: (
        (0.56, 0.56, 0.22),
        {
            Severity.LOW: {ActionKind.REWORK},
            Severity.MEDIUM: {ActionKind.INSERT, ActionKind.REWORK},
            Severity.HIGH: {
                ActionKind.INSERT,
                ActionKind.REWORK,
                ActionKind.RECONFIGURATION,
            },
        },
    ),
}

#: Mitigation impact (C, I, A) per adaptation kind.
ACTION_MITIGATION_IMPACT = {
    ActionKind.INSERT: SecurityVector(0.7, 0.9, 0.9),
    ActionKind.SWITCH: SecurityVector(0.7, 0.6, 0.8),
    ActionKind.SKIP: SecurityVector(0.5, 0.4, 0.6),
    ActionKind.REWORK: SecurityVector(0.5, 0.9, 0.7),
    ActionKind.REDUNDANCY: SecurityVector(0.5, 0.8, 0.9),
    ActionKind.RECONFIGURATION: SecurityVector(0.6, 0.7, 0.5),
}


def builtin_attack_catalog():
    """The four built-in attack specifications, keyed by attack type."""
    return {
        at: AttackSpec(
            attack_type=at,
            impact=SecurityVector(*impact),
            mitigation_actions={sev: frozenset(acts) for sev, acts in mas.items()},
        )
        for at, (impact, mas) in _ATTACK_ROWS.items()
    }


# Symbolic overheads of the action-properties catalog, as fractions of the
# violated task's own time/price/value.
INSERT_TIME_FRAC = 0.2
INSERT_PRICE_FRAC = 0.2
INSERT_VALUE_FRAC = 0.1
SWITCH_TIME_FRAC = 0.1
SWITCH_VALUE_FRAC = 0.9
RECONFIG_TIME_FRAC = 0.1
RECONFIG_PRICE_FRAC = 0.1
RECONFIG_VALUE_FRAC = 0.1
REDUNDANCY_VALUE_FRAC = 0.25


class MissingBackupError(ModelError):
    """Rework/Redundancy requested without a resolved backup service."""


def builtin_action_properties(
    kind: ActionKind,
    task_time: float,
    task_price: float,
    task_value: float,
    backup: Service | None = None,
) -> ActionParams:
    """Instantiate the catalog row for `kind` against a concrete task.

    `task_time`/`task_price` are the bound service's response time and price;
    `task_value` is the task's value. Rework and Redundancy require `backup`,
    the runtime-resolved backup service.
    """
    mi = ACTION_MITIGATION_IMPACT[kind]
    if kind is ActionKind.SKIP:
        return ActionParams(0.0, 0.0, mi, 0.0)
    if kind is ActionKind.INSERT:
        return ActionParams(
            INSERT_PRICE_FRAC * task_price,
            INSERT_TIME_FRAC * task_time,
            mi,
            INSERT_VALUE_FRAC * task_value,
        )
    if kind is ActionKind.SWITCH:
        return ActionParams(
            task_price,
            SWITCH_TIME_FRAC * task_time,
            mi,
            SWITCH_VALUE_FRAC * task_value,
        )
    if kind is ActionKind.RECONFIGURATION:
        return ActionParams(
            task_price + RECONFIG_PRICE_FRAC * task_price,
            task_time + RECONFIG_TIME_FRAC * task_time,
            mi,
            task_value + RECONFIG_VALUE_FRAC * task_value,
        )
    if backup is None:
        raise MissingBackupError(f"{kind.value} requires a backup service")
    if kind is ActionKind.REWORK:
        return ActionParams(backup.price, backup.response_time, mi, task_value)
    if kind is ActionKind.REDUNDANCY:
        return ActionParams(
            task_price + backup.price,
            max(backup.response_time, task_time),
            mi,
            task_value + REDUNDANCY_VALUE_FRAC * task_value,
        )
    raise ModelError(f"unknown action kind {kind!r}")


# ---------------------------------------------------------------------------
# Workflow JSON (de)serialization
#
# {"tasks":[{"id","c","i","a","value",
#            "actions":[{"kind","price","time","mi":[c,i,a],"value"}]}],
#  "control_edges":[{"from","to","cond","prob"}],
#  "data_edges":[{"from","to","data"}]}
#
# Tenant-level action entries may carry explicit params; when omitted they are
# instantiated at decision time from the built-in catalog. Middleware-level
# entries must not carry price/time.


@contextmanager
def fields_at(path, obj, error=ParseError):
    """Read the fields of the JSON object `obj` found at JSON path `path`: a
    non-object or a missing field raises `error` naming the path. A path is
    `$` for the document, then `.field`, `[index]` or `["map key"]` steps."""
    if not isinstance(obj, dict):
        raise error(f"{path}: must be an object")
    try:
        yield obj
    except KeyError as exc:
        raise error(f"{path}: missing field {exc.args[0]!r}") from None


def array_at(path, value, error=ParseError):
    """The JSON array `value` found at `path`; anything else raises `error`."""
    if not isinstance(value, list):
        raise error(f"{path}: must be an array")
    return value


def floats_at(path, value, shape, error=ParseError):
    """The JSON array `value` found at `path` as a float array of `shape`;
    anything else, or a non-finite entry, raises `error` naming the path."""
    try:
        array = np.array(value, dtype=float)
    except (TypeError, ValueError):
        array = None
    if array is None or array.shape != shape or not np.isfinite(array).all():
        raise error(f"{path}: must be {' × '.join(map(str, shape))} finite numbers")
    return array


def _number(path, value):
    """`value` as a finite float, not a boolean; else ParseError naming `path`."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = None
    if number is None or isinstance(value, bool):
        raise ParseError(f"{path}: must be a number, got {value!r}")
    if not math.isfinite(number):
        raise ParseError(f"{path}: must be a finite number, got {value!r}")
    return number


def _security_vector(named):
    """A SecurityVector from (path, value) pairs: a value that is not a number
    in [0,1] raises ParseError naming its path."""
    for path, value in named:
        # `type`, not `isinstance`: a JSON boolean is an int subclass
        if not (type(value) in (int, float) and 0.0 <= value <= 1.0):
            raise ParseError(f"{path}: must be in [0,1], got {value!r}")
    return SecurityVector(*(value for _, value in named))


def load_document(document: str, error=ParseError) -> dict:
    """The JSON object that `document` holds; bad JSON, or JSON that is not
    an object, raises `error` naming the path `$`."""
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        raise error(f"$: not valid JSON: {exc}") from None
    with fields_at("$", doc, error):
        return doc


def parse_file(path, parse):
    """`parse(text)` of the file at `path`; the ValueError it raises is raised
    again as the same type as `<file>: <JSON path>: <message>`."""
    with open(path) as fh:
        text = fh.read()
    try:
        return parse(text)
    except ValueError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def parse_workflow(document: str) -> Workflow:
    doc = load_document(document)
    tasks = []
    for idx, td in enumerate(array_at("$.tasks", doc.get("tasks", []))):
        path = f"$.tasks[{idx}]"
        with fields_at(path, td):
            actions = {}
            for aidx, ad in enumerate(array_at(f"{path}.actions", td.get("actions", []))):
                apath = f"{path}.actions[{aidx}]"
                with fields_at(apath, ad):
                    kind, params = _parse_action(apath, ad)
                actions[kind] = params
            tasks.append(
                Task(
                    id=str(td["id"]),
                    requirements=_security_vector([(f"{path}.{k}", td[k]) for k in "cia"]),
                    value=_number(f"{path}.value", td["value"]),
                    feasible_actions=actions,
                )
            )
    control = []
    for idx, e in enumerate(array_at("$.control_edges", doc.get("control_edges", []))):
        epath = f"$.control_edges[{idx}]"
        with fields_at(epath, e):
            prob = _number(f"{epath}.prob", e.get("prob", 1.0 if not e.get("cond") else 0.5))
            if not 0.0 <= prob <= 1.0:
                raise ParseError(f"{epath}.prob: must be in [0,1], got {e['prob']!r}")
            control.append(ControlEdge(
                src=str(e["from"]),
                dst=str(e["to"]),
                cond=str(e.get("cond", "")),
                prob=prob,
            ))
    data = []
    for idx, e in enumerate(array_at("$.data_edges", doc.get("data_edges", []))):
        with fields_at(f"$.data_edges[{idx}]", e):
            data.append(DataEdge(src=str(e["from"]), dst=str(e["to"]),
                                 data=str(e.get("data", ""))))
    return Workflow(tasks=tuple(tasks), control_edges=tuple(control), data_edges=tuple(data))


def _parse_action(path, ad):
    """One (kind, params) entry of a task's feasible actions; params is None
    where the decision layer instantiates them."""
    try:
        kind = ActionKind(ad["kind"])
    except (KeyError, ValueError):
        raise ValidationError(f"{path}: unknown action kind {ad.get('kind')!r}") from None
    if kind in MIDDLEWARE_KINDS:
        if any(k in ad for k in ("price", "time")):
            raise ValidationError(f"{path}: middleware action cannot carry static price/time")
        return kind, None
    if "price" not in ad:
        return kind, None
    if "mi" in ad:
        mi = ad["mi"]
        if not (isinstance(mi, list) and len(mi) == 3):
            raise ParseError(f"{path}.mi: must be an array of 3 numbers, got {mi!r}")
        impact = _security_vector([(f"{path}.mi[{j}]", v) for j, v in enumerate(mi)])
    else:
        impact = ACTION_MITIGATION_IMPACT[kind]
    return kind, ActionParams(
        price=_number(f"{path}.price", ad["price"]),
        time=_number(f"{path}.time", ad["time"]),
        mitigation_impact=impact,
        value=_number(f"{path}.value", ad["value"]),
    )


def serialize_workflow(workflow: Workflow) -> str:
    doc = {
        "tasks": [
            {
                "id": t.id,
                "c": t.requirements.c,
                "i": t.requirements.i,
                "a": t.requirements.a,
                "value": t.value,
                "actions": [
                    (
                        {"kind": kind.value}
                        if params is None
                        else {
                            "kind": kind.value,
                            "price": params.price,
                            "time": params.time,
                            "mi": list(params.mitigation_impact.as_tuple()),
                            "value": params.value,
                        }
                    )
                    for kind, params in sorted(
                        t.feasible_actions.items(), key=lambda kv: ACTION_ORDER.index(kv[0])
                    )
                ],
            }
            for t in workflow.tasks
        ],
        "control_edges": [
            {"from": e.src, "to": e.dst, "cond": e.cond, "prob": e.prob}
            for e in workflow.control_edges
        ],
        "data_edges": [
            {"from": e.src, "to": e.dst, "data": e.data} for e in workflow.data_edges
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def parse_multicloud(document: str) -> MultiCloud:
    """MultiCloud JSON: {"providers":[{"id","services":[{"id","price","time",
    "c","i","a","afr":{"dos":..,"probe":..,"u2r":..,"r2l":..}}]}]}."""
    doc = load_document(document)
    providers = []
    for pidx, pd in enumerate(array_at("$.providers", doc.get("providers", []))):
        ppath = f"$.providers[{pidx}]"
        with fields_at(ppath, pd):
            pid = str(pd["id"])
            services = []
            for sidx, sd in enumerate(array_at(f"{ppath}.services", pd.get("services", []))):
                spath = f"{ppath}.services[{sidx}]"
                with fields_at(spath, sd):
                    services.append(Service(
                        id=str(sd["id"]),
                        provider_id=pid,
                        price=_number(f"{spath}.price", sd["price"]),
                        response_time=_number(f"{spath}.time", sd["time"]),
                        guarantees=_security_vector([(f"{spath}.{k}", sd[k]) for k in "cia"]),
                        afr=_parse_afr(f"{spath}.afr", sd.get("afr", {})),
                    ))
        providers.append((pid, tuple(services)))
    return MultiCloud(providers=tuple(providers))


def _parse_afr(path, rates):
    afr = {}
    with fields_at(path, rates):
        for name, rate in rates.items():
            try:
                at = AttackType(name)
            except ValueError:
                raise ParseError(f"{path}: unknown attack type {name!r}") from None
            afr[at] = _number(f"{path}.{name}", rate)
    return afr


def serialize_multicloud(cloud: MultiCloud) -> str:
    doc = {
        "providers": [
            {
                "id": pid,
                "services": [
                    {
                        "id": s.id,
                        "price": s.price,
                        "time": s.response_time,
                        "c": s.guarantees.c,
                        "i": s.guarantees.i,
                        "a": s.guarantees.a,
                        "afr": {at.value: rate for at, rate in sorted(
                            s.afr.items(), key=lambda kv: kv[0].value)},
                    }
                    for s in services
                ],
            }
            for pid, services in cloud.providers
        ]
    }
    return json.dumps(doc, indent=2, sort_keys=True)
