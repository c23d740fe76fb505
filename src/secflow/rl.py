"""Tabular Q-learning for adaptation-action selection.

`train` is the one training loop. It drives episode generators speaking a
small event protocol: the generator yields ("decide", state_key, candidates)
and expects the chosen candidate via send(); after applying it, it yields
("reward", r) and expects send(None). On return, its StopIteration value may
be an object whose ``reward_attrs()`` gives the episode's final workflow
totals (price/time/value/mitigation), which feed the terminal bonus reward
normalized against running min/max across episodes.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from .model import array_at, fields_at, load_document


class RLDomainError(ValueError):
    pass


@dataclass(frozen=True)
class RLConfig:
    alpha: float = 0.1
    gamma: float = 0.9
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


@dataclass(frozen=True)
class RewardWeights:
    """Per-attribute reward weights; price/time must be <= 0 and
    mitigation/value >= 0."""

    price: float = -0.25
    time: float = -0.25
    mitigation: float = 0.25
    value: float = 0.25

    def __post_init__(self):
        if self.price > 0 or self.time > 0:
            raise RLDomainError("price/time weights must be <= 0")
        if self.mitigation < 0 or self.value < 0:
            raise RLDomainError("mitigation/value weights must be >= 0")


#: The weights of every simulated reward: the per-decision reward, the
#: terminal bonus and the pooled composite reward.
REWARD_WEIGHTS = RewardWeights()

ATTR_NAMES = ("price", "time", "mitigation", "value")


def reward(attrs: dict, mins: dict, maxs: dict, weights: RewardWeights) -> float:
    """Sum of W_i * (att_i - min_i) / (max_i - min_i); a degenerate attribute
    (max == min) contributes 0."""
    total = 0.0
    for name in ATTR_NAMES:
        att, lo, hi = attrs[name], mins[name], maxs[name]
        for v in (att, lo, hi):
            if not math.isfinite(v):
                raise RLDomainError(f"non-finite {name} input: {v!r}")
        if hi < lo:
            raise RLDomainError(f"max < min for {name}")
        if hi > lo:
            total += getattr(weights, name) * (att - lo) / (hi - lo)
    return total


def attr_bounds(rows) -> tuple:
    """The (mins, maxs) of each attribute over a list of attribute dicts: the
    normalization `reward` takes."""
    return ({n: min(r[n] for r in rows) for n in ATTR_NAMES},
            {n: max(r[n] for r in rows) for n in ATTR_NAMES})


def _action_key(action):
    return action.value if hasattr(action, "value") else str(action)


@dataclass
class QTable:
    config: RLConfig = field(default_factory=RLConfig)
    entries: dict = field(default_factory=dict)  # (state, action_key) -> q
    visits: dict = field(default_factory=dict)
    discretization: dict = field(default_factory=dict)  # persisted with the table

    def q(self, state, action) -> float:
        return self.entries.get((state, _action_key(action)), 0.0)


def q_update(table: QTable, state, action, r: float, next_state, next_candidates):
    """One Bellman backup: Q += alpha * (r + gamma * max_a' Q(st',a') - Q).
    A terminal transition passes next_state=None (valued 0)."""
    key = (state, _action_key(action))
    old = table.entries.get(key, 0.0)
    future = 0.0
    if next_state is not None:
        future = max((table.q(next_state, a) for a in next_candidates), default=0.0)
    cfg = table.config
    table.entries[key] = old + cfg.alpha * (r + cfg.gamma * future - old)
    table.visits[key] = table.visits.get(key, 0) + 1


def predict(table: QTable, state, candidates):
    """Greedy argmax over the candidate set; unseen pairs value 0; ties break
    on candidate declaration order."""
    if not candidates:
        raise RLDomainError("empty candidate set")
    return max(candidates, key=lambda a: table.q(state, a))  # max keeps the first


def train(table: QTable, episodes, rng):
    """The epsilon-greedy Q-learning loop: drive each episode generator of the
    iterable `episodes` through `run_training_episode`, drawing exploration
    from `rng`, and yield each episode's outcome. Epsilon starts at
    `table.config.epsilon` and decays multiplicatively per episode down to
    the configured floor. An episode that raises is re-raised as RuntimeError
    naming its index."""
    cfg = table.config
    epsilon = cfg.epsilon
    # terminal-bonus min/max of each attribute across the episodes so far
    running = ({n: np.inf for n in ATTR_NAMES}, {n: -np.inf for n in ATTR_NAMES})
    for ep, gen in enumerate(episodes):
        try:
            outcome = run_training_episode(table, gen, epsilon, rng, running)
        except Exception as exc:
            raise RuntimeError(f"episode {ep} failed: {exc}") from exc
        yield outcome
        epsilon = max(cfg.epsilon_floor, epsilon * cfg.epsilon_decay)


def run_training_episode(table, gen, epsilon, rng, running):
    """Drive one episode generator with epsilon-greedy choices and online Q
    updates. Returns the generator's StopIteration value; if it is not None,
    its ``reward_attrs()`` totals widen the `running` (mins, maxs) and add the
    terminal bonus, normalized against them, to the last decision's reward."""
    pending = None  # (state, action, reward) of the last decision
    try:
        event = next(gen)
        while True:
            if event[0] == "decide":
                _, state, candidates = event
                if pending is not None:
                    q_update(table, *pending, state, candidates)
                if rng.random() < epsilon:
                    action = candidates[int(rng.integers(len(candidates)))]
                else:
                    action = predict(table, state, candidates)
                pending = (state, action, 0.0)
                event = gen.send(action)
            elif event[0] == "reward":
                st, a, _ = pending
                pending = (st, a, float(event[1]))
                event = gen.send(None)
            else:
                raise RLDomainError(f"unknown episode event {event[0]!r}")
    except StopIteration as stop:
        outcome = stop.value
    bonus = 0.0
    if outcome is not None:
        totals = outcome.reward_attrs()
        mins, maxs = running
        for name in ATTR_NAMES:
            mins[name] = min(mins[name], totals[name])
            maxs[name] = max(maxs[name], totals[name])
        bonus = reward(totals, mins, maxs, REWARD_WEIGHTS)
    if pending is not None:
        st, a, r = pending
        q_update(table, st, a, r + bonus, None, ())
    return outcome


# ---------------------------------------------------------------------------
# Workflow-state discretization

VIOLATION_BUCKETS = 4  # 0, 1, 2, 3+
#: The accumulated attributes the state key buckets by three cuts each, and
#: the prefix of each bucket in the key.
BUCKETS = {"time": "t", "price": "p", "value": "u"}


def quartile_boundaries(samples: dict) -> dict:
    """Bucket cuts for the state key: the 25/50/75% quantiles of each
    attribute's samples. They are fixed at training start and persisted as
    `QTable.discretization`."""
    return {
        attr: [float(np.quantile(np.asarray(v, dtype=float), q)) for q in (0.25, 0.5, 0.75)]
        for attr, v in samples.items()
    }


def workflow_state_key(
    attack_type, level, kind_counts: dict, accumulated: dict, discretization: dict
) -> str:
    """Canonical string key combining the task state (attack type, severity)
    with the discretized workflow state: the violation bucket (one per
    decision so far, 3+ capped), the counts of the action kinds applied so
    far (`kind_counts`: kind -> count, as `sim.ExecutionState.kind_counts`
    keeps them), and the buckets of the accumulated time/price/value under the
    cuts of `discretization` (an attribute without cuts has cuts 0, 0, 0)."""
    counts = sorted((_action_key(k), n) for k, n in kind_counts.items())
    parts = [
        _action_key(attack_type),
        _action_key(level),
        f"v{min(sum(kind_counts.values()), VIOLATION_BUCKETS - 1)}",
        ",".join(f"{k}:{n}" for k, n in counts) or "-",
    ]
    for attr, prefix in BUCKETS.items():
        cuts = discretization.get(attr, (0.0, 0.0, 0.0))
        parts.append(f"{prefix}{bisect.bisect_right(cuts, accumulated.get(attr, 0.0))}")
    return "|".join(parts)


# ---------------------------------------------------------------------------
# Serialization

def table_to_json(table: QTable) -> str:
    doc = {
        "config": asdict(table.config),
        "discretization": table.discretization,
        "entries": [
            {"state": state, "action": action, "q": q, "n": table.visits.get((state, action), 0)}
            for (state, action), q in sorted(table.entries.items())
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def table_from_json(text: str) -> QTable:
    """A Q-table from its JSON document. Malformed input raises RLDomainError
    naming the JSON path; a non-empty `discretization` must hold three
    ascending finite cuts for each of time, price and value."""
    doc = load_document(text, RLDomainError)
    with fields_at("$", doc, RLDomainError):
        config, entries = doc["config"], array_at("$.entries", doc["entries"], RLDomainError)
    with fields_at("$.discretization", doc.get("discretization", {}), RLDomainError) as disc:
        for attr in BUCKETS if disc else ():
            cuts = disc.get(attr)
            if not (isinstance(cuts, list) and len(cuts) == 3
                    and all(isinstance(c, (int, float)) and math.isfinite(c) for c in cuts)
                    and cuts == sorted(cuts)):
                raise RLDomainError(f"$.discretization.{attr}: must be 3 ascending finite "
                                    f"cuts, got {cuts!r}")
    try:
        table = QTable(config=RLConfig(**config), discretization=disc)
    except (TypeError, ValueError) as exc:
        raise RLDomainError(f"$.config: {exc}") from None
    for i, e in enumerate(entries):
        with fields_at(f"$.entries[{i}]", e, RLDomainError):
            key, q, n = (e["state"], e["action"]), e["q"], e["n"]
        try:
            table.entries[key] = float(q)
            table.visits[key] = int(n)
        except (TypeError, ValueError) as exc:
            raise RLDomainError(f"$.entries[{i}]: {exc}") from None
    return table
