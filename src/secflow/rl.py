"""Tabular Q-learning for adaptation-action selection.

`train` is the one training loop. An episode is a callable
``episode(choose, learn)``: at each decision it calls
``choose(state_key, candidates)`` and applies the candidate returned, then
calls ``learn(r)`` with that decision's reward: in the simulator, the
decision's own share of the run metric (`sim.run_experiment`), which is
why the default gamma is 0. The episode's return value is its outcome.
`predict` is the greedy choice alone: the simulator's frozen policy deploys
a trained table through it, with no `learn` and no exploration.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, asdict

from .model import ActionKind, AttackType, Severity, array_at, fields_at, load_document


class RLDomainError(ValueError):
    pass


@dataclass(frozen=True)
class RLConfig:
    alpha: float = 0.1
    gamma: float = 0.0
    epsilon: float = 0.3
    epsilon_decay: float = 0.995
    epsilon_floor: float = 0.01

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise RLDomainError("alpha must be in (0,1]")
        if not (0.0 <= self.gamma < 1.0):
            raise RLDomainError("gamma must be in [0,1)")
        if not (0.0 <= self.epsilon <= 1.0):
            raise RLDomainError("epsilon must be in [0,1]")
        if not (0.0 < self.epsilon_decay <= 1.0):
            raise RLDomainError(f"epsilon_decay must be in (0,1], got {self.epsilon_decay!r}")
        if not (0.0 <= self.epsilon_floor <= 1.0):
            raise RLDomainError(f"epsilon_floor must be in [0,1], got {self.epsilon_floor!r}")


#: The weight of each attribute in every simulated reward (a decision's share
#: of the run metric and the pooled composite reward): price and time count
#: against a run, mitigation and value for it.
REWARD_WEIGHTS = {"price": -0.25, "time": -0.25, "mitigation": 0.25, "value": 0.25}

ATTR_NAMES = ("price", "time", "mitigation", "value")


def reward(attrs: dict, mins: dict, maxs: dict) -> float:
    """Sum of W_i * (att_i - min_i) / (max_i - min_i) with W =
    `REWARD_WEIGHTS`; a degenerate attribute (max == min) contributes 0."""
    total = 0.0
    for name in ATTR_NAMES:
        att, lo, hi = attrs[name], mins[name], maxs[name]
        for v in (att, lo, hi):
            if not math.isfinite(v):
                raise RLDomainError(f"non-finite {name} input: {v!r}")
        if hi < lo:
            raise RLDomainError(f"max < min for {name}")
        if hi > lo:
            total += REWARD_WEIGHTS[name] * (att - lo) / (hi - lo)
    return total


def attr_bounds(rows) -> tuple:
    """The (mins, maxs) of each attribute over a list of attribute dicts: the
    normalization `reward` takes."""
    return ({n: min(r[n] for r in rows) for n in ATTR_NAMES},
            {n: max(r[n] for r in rows) for n in ATTR_NAMES})


#: Each ActionKind's Q-table key, its value, read once.
_ACTION_KEYS = {kind: kind.value for kind in ActionKind}


def _action_key(action):
    return _ACTION_KEYS.get(action) or str(action)


@dataclass
class QTable:
    config: RLConfig = field(default_factory=RLConfig)
    entries: dict = field(default_factory=dict)  # (state, action_key) -> q
    visits: dict = field(default_factory=dict)

    def q(self, state, action) -> float:
        return self.entries.get((state, _action_key(action)), 0.0)


def q_update(table: QTable, state, action, r: float, next_state, next_candidates):
    """One Bellman backup: Q += alpha * (r + gamma * max_a' Q(st',a') - Q).
    A terminal transition passes next_state=None (valued 0)."""
    key = (state, _action_key(action))
    old = table.entries.get(key, 0.0)
    cfg = table.config
    future = 0.0
    # at gamma 0 the bootstrap term is 0 whatever the (finite) Q values: no scan
    if next_state is not None and cfg.gamma != 0:
        future = max((table.q(next_state, a) for a in next_candidates), default=0.0)
    table.entries[key] = old + cfg.alpha * (r + cfg.gamma * future - old)
    table.visits[key] = table.visits.get(key, 0) + 1


def predict(table: QTable, state, candidates):
    """Greedy argmax over the candidate set; unseen pairs value 0; ties go to
    the first candidate given. `sim.instance_episode` gives them ranked
    cheapest-first, so there a tie goes to the cheapest."""
    if not candidates:
        raise RLDomainError("empty candidate set")
    get = table.entries.get  # `QTable.q` without a method call per candidate
    return max(candidates, key=lambda a: get((state, _action_key(a)), 0.0))  # max keeps the first


def train(table: QTable, episodes, rng):
    """The epsilon-greedy Q-learning loop: run each episode of the iterable
    `episodes` through `run_training_episode`, drawing exploration from
    `rng`, and yield each episode's outcome. Epsilon starts at
    `table.config.epsilon` and decays multiplicatively per episode down to
    the configured floor. An episode that raises is re-raised as RuntimeError
    naming its index."""
    cfg = table.config
    epsilon = cfg.epsilon
    for ep, episode in enumerate(episodes):
        try:
            outcome = run_training_episode(table, episode, epsilon, rng)
        except Exception as exc:
            raise RuntimeError(f"episode {ep} failed: {exc}") from exc
        yield outcome
        epsilon = max(cfg.epsilon_floor, epsilon * cfg.epsilon_decay)


def run_training_episode(table, episode, epsilon, rng):
    """Run `episode(choose, learn)` with epsilon-greedy choices and online Q
    updates, and return its outcome. Each decision gets one Q update, the
    last as a terminal transition. A choice among one candidate draws
    nothing from `rng`: exploring could not change it."""
    pending = None  # (state, action, reward) of the last decision

    def choose(state, candidates):
        nonlocal pending
        if pending is not None:
            q_update(table, *pending, state, candidates)
        if len(candidates) > 1 and rng.random() < epsilon:
            action = candidates[int(rng.integers(len(candidates)))]
        else:
            action = predict(table, state, candidates)
        pending = (state, action, 0.0)
        return action

    def learn(r):
        nonlocal pending
        pending = (*pending[:2], float(r))

    outcome = episode(choose, learn)
    if pending is not None:
        q_update(table, *pending, None, ())
    return outcome


# ---------------------------------------------------------------------------
# State key

_STATE_KEYS = {(at, level): f"{at.value}|{level.value}" for at in AttackType for level in Severity}


def workflow_state_key(attack_type, level) -> str:
    """The state the learner sees at a decision: the detected `AttackType` and
    its `Severity` tier, as "<type>|<tier>" (e.g. "dos|high")."""
    return _STATE_KEYS[attack_type, level]


# ---------------------------------------------------------------------------
# Serialization

_CONFIG_FIELDS = {f.name for f in fields(RLConfig)}


def table_to_json(table: QTable) -> str:
    doc = {
        "config": asdict(table.config),
        "entries": [
            {"state": state, "action": action, "q": q, "n": table.visits.get((state, action), 0)}
            for (state, action), q in sorted(table.entries.items())
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def table_from_json(text: str) -> QTable:
    """A Q-table from its JSON document. Malformed input raises RLDomainError
    naming the JSON path; `config` holds numbers for `RLConfig` fields only,
    and an entry's `state` and `action` are strings, each pair given once. A
    document with `discretization` holds bucketed state keys, which no
    decision's key matches, and is refused."""
    doc = load_document(text, RLDomainError)
    with fields_at("$", doc, RLDomainError):
        config, entries = doc["config"], array_at("$.entries", doc["entries"], RLDomainError)
    if "discretization" in doc:
        raise RLDomainError("$.discretization: a Q-table with bucketed state keys; "
                            "retrain it with simulate --strategy adaptive")
    with fields_at("$.config", config, RLDomainError):
        for name, value in config.items():
            if name not in _CONFIG_FIELDS:
                raise RLDomainError(f"$.config: unknown field {name!r}")
            # `type`, not `isinstance`: a JSON boolean is an int subclass
            if type(value) not in (int, float):
                raise RLDomainError(f"$.config.{name}: must be a number, "
                                    f"got {json.dumps(value)}")
    try:
        table = QTable(config=RLConfig(**config))
    except RLDomainError as exc:
        raise RLDomainError(f"$.config: {exc}") from None
    for i, e in enumerate(entries):
        path = f"$.entries[{i}]"
        with fields_at(path, e, RLDomainError):
            key, q, n = (e["state"], e["action"]), e["q"], e["n"]
        for name, value in zip(("state", "action"), key):
            if type(value) is not str:
                raise RLDomainError(f"{path}.{name}: must be a string, got {value!r}")
        if key in table.entries:  # each earlier entry added one key, in order
            raise RLDomainError(f"{path}: repeats the (state, action) pair of "
                                f"$.entries[{list(table.entries).index(key)}]")
        # `type`, not `isinstance`: a JSON boolean is an int subclass
        if type(q) not in (int, float) or not math.isfinite(q):
            raise RLDomainError(f"{path}.q: must be a finite number, got {q!r}")
        if type(n) is not int or n < 0:
            raise RLDomainError(f"{path}.n: must be a non-negative integer, got {n!r}")
        table.entries[key] = float(q)
        table.visits[key] = n
    return table
