"""Tabular Q-learning for adaptation-action selection.

Training is driven by episode generators speaking a small event protocol:
the generator yields ("decide", state_key, candidates) and expects the chosen
candidate via send(); after applying it, it yields ("reward", r) and expects
send(None). On return, its StopIteration value may carry the episode's final
workflow totals (price/time/value/mitigation), which feed the terminal bonus
reward normalized against running min/max across episodes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

import numpy as np

DEFAULT_ALPHA = 0.1
DEFAULT_GAMMA = 0.9
DEFAULT_EPSILON = 0.3
DEFAULT_EPSILON_DECAY = 0.995
DEFAULT_EPSILON_FLOOR = 0.01


class RLDomainError(ValueError):
    pass


@dataclass(frozen=True)
class RLConfig:
    alpha: float = DEFAULT_ALPHA
    gamma: float = DEFAULT_GAMMA
    epsilon: float = DEFAULT_EPSILON
    epsilon_decay: float = DEFAULT_EPSILON_DECAY
    epsilon_floor: float = DEFAULT_EPSILON_FLOOR

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise RLDomainError("alpha must be in (0,1]")
        if not (0.0 <= self.gamma < 1.0):
            raise RLDomainError("gamma must be in [0,1)")
        if not (0.0 <= self.epsilon <= 1.0):
            raise RLDomainError("epsilon must be in [0,1]")


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
            if not np.isfinite(v):
                raise RLDomainError(f"non-finite {name} input: {v!r}")
        if hi < lo:
            raise RLDomainError(f"max < min for {name}")
        if hi > lo:
            total += getattr(weights, name) * (att - lo) / (hi - lo)
    return total


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

    def best_value(self, state, candidates) -> float:
        if not candidates:
            return 0.0
        return max(self.q(state, a) for a in candidates)


def q_update(table: QTable, state, action, r: float, next_state, next_candidates):
    """One Bellman backup: Q += alpha * (r + gamma * max_a' Q(st',a') - Q).
    A terminal transition passes next_state=None (valued 0)."""
    key = (state, _action_key(action))
    old = table.entries.get(key, 0.0)
    future = 0.0 if next_state is None else table.best_value(next_state, next_candidates)
    cfg = table.config
    table.entries[key] = old + cfg.alpha * (r + cfg.gamma * future - old)
    table.visits[key] = table.visits.get(key, 0) + 1


def predict(table: QTable, state, candidates):
    """Greedy argmax over the candidate set; unseen pairs value 0; ties break
    on candidate declaration order."""
    if not candidates:
        raise RLDomainError("empty candidate set")
    best, best_q = candidates[0], table.q(state, candidates[0])
    for a in candidates[1:]:
        qa = table.q(state, a)
        if qa > best_q:
            best, best_q = a, qa
    return best


def _epsilon_greedy(table, state, candidates, epsilon, rng):
    if rng.random() < epsilon:
        return candidates[int(rng.integers(len(candidates)))]
    return predict(table, state, candidates)


def train(
    episode_factory,
    episodes: int,
    cfg: RLConfig = RLConfig(),
    seed: int = 0,
) -> QTable:
    """Run `episodes` episodes from `episode_factory(index, episode_seed)`,
    choosing epsilon-greedily and applying the Q update online. Epsilon decays
    multiplicatively per episode down to the configured floor. Deterministic
    given (config, seed)."""
    if episodes < 1:
        raise RLDomainError("episodes must be >= 1")
    table = QTable(config=cfg)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    episode_seeds = np.random.SeedSequence(seed).generate_state(episodes + 1)[1:]
    epsilon = cfg.epsilon
    running = {n: [np.inf, -np.inf] for n in ATTR_NAMES}  # terminal-bonus min/max
    for ep in range(episodes):
        try:
            _run_episode(
                table, episode_factory, ep, int(episode_seeds[ep]), epsilon, rng, running
            )
        except Exception as exc:
            raise RuntimeError(f"episode {ep} failed: {exc}") from exc
        epsilon = max(cfg.epsilon_floor, epsilon * cfg.epsilon_decay)
    return table


def _run_episode(table, episode_factory, index, ep_seed, epsilon, rng, running):
    gen = episode_factory(index, ep_seed)
    return run_training_episode(table, gen, epsilon, rng, running)


def run_training_episode(table, gen, epsilon, rng, running):
    """Drive one episode generator with epsilon-greedy choices and online Q
    updates. Returns the generator's StopIteration value; if that value is an
    object exposing ``reward_attrs()`` (or a plain dict), its totals feed the
    terminal bonus."""
    pending = None  # (state, action, reward)
    outcome = None
    try:
        event = next(gen)
        while True:
            if event[0] == "decide":
                _, state, candidates = event
                if pending is not None:
                    st, a, r = pending
                    q_update(table, st, a, r, state, candidates)
                    pending = None
                action = _epsilon_greedy(table, state, candidates, epsilon, rng)
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
    totals = outcome
    if totals is not None and not isinstance(totals, dict):
        totals = totals.reward_attrs()
    if pending is not None:
        st, a, r = pending
        r += _terminal_bonus(totals, running)
        q_update(table, st, a, r, None, ())
    elif totals is not None:
        _update_running(totals, running)
    return outcome


def _update_running(totals, running):
    for name in ATTR_NAMES:
        if name in totals:
            lo, hi = running[name]
            running[name] = [min(lo, totals[name]), max(hi, totals[name])]


def _terminal_bonus(totals, running):
    """Whole-workflow reward term, normalized against the running min/max of
    each attribute across the episodes seen so far."""
    if not totals:
        return 0.0
    _update_running(totals, running)
    bonus = 0.0
    for name in ATTR_NAMES:
        if name not in totals:
            continue
        lo, hi = running[name]
        if np.isfinite(lo) and np.isfinite(hi) and hi > lo:
            bonus += getattr(REWARD_WEIGHTS, name) * (totals[name] - lo) / (hi - lo)
    return bonus


# ---------------------------------------------------------------------------
# Workflow-state discretization

VIOLATION_BUCKETS = 4  # 0, 1, 2, 3+


@dataclass
class StateDiscretizer:
    """Quantile bucket boundaries for the accumulated time/price/value parts
    of the workflow state. Boundaries are fixed at training start and
    persisted alongside the table."""

    boundaries: dict  # attr -> [q25, q50, q75]

    @classmethod
    def from_samples(cls, samples: dict) -> "StateDiscretizer":
        boundaries = {}
        for attr, values in samples.items():
            arr = np.asarray(values, dtype=float)
            if len(arr) == 0:
                boundaries[attr] = [0.0, 0.0, 0.0]
            else:
                boundaries[attr] = [float(np.quantile(arr, q)) for q in (0.25, 0.5, 0.75)]
        return cls(boundaries=boundaries)

    def bucket(self, attr: str, value: float) -> int:
        cuts = self.boundaries.get(attr, [0.0, 0.0, 0.0])
        return int(np.searchsorted(cuts, value, side="right"))


def workflow_state_key(
    attack_type,
    level,
    n_violations: int,
    action_history,
    accumulated: dict,
    disc: StateDiscretizer,
) -> str:
    """Canonical string key combining the task state (attack type, severity)
    with the discretized workflow state."""
    counts = {}
    for a in action_history:
        k = _action_key(a)
        counts[k] = counts.get(k, 0) + 1
    history = ",".join(f"{k}:{counts[k]}" for k in sorted(counts)) or "-"
    vb = min(n_violations, VIOLATION_BUCKETS - 1)
    parts = [
        _action_key(attack_type),
        _action_key(level),
        f"v{vb}",
        history,
        f"t{disc.bucket('time', accumulated.get('time', 0.0))}",
        f"p{disc.bucket('price', accumulated.get('price', 0.0))}",
        f"u{disc.bucket('value', accumulated.get('value', 0.0))}",
    ]
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
    doc = json.loads(text)
    table = QTable(config=RLConfig(**doc["config"]), discretization=doc.get("discretization", {}))
    for e in doc["entries"]:
        table.entries[(e["state"], e["action"])] = float(e["q"])
        table.visits[(e["state"], e["action"])] = int(e["n"])
    return table
