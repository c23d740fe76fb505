"""Q-learning: reward shaping, Bellman updates, training loops, prediction."""

import bisect
import json
from collections import Counter

import numpy as np
import pytest

from secflow.model import ActionKind, AttackType, Severity
from secflow.rl import (
    BUCKETS,
    VIOLATION_BUCKETS,
    QTable,
    RLConfig,
    RLDomainError,
    RewardWeights,
    predict,
    q_update,
    quartile_boundaries,
    reward,
    table_from_json,
    table_to_json,
    train,
    workflow_state_key,
)


def _attrs(price=0.0, time=0.0, mitigation=0.0, value=0.0):
    return {"price": price, "time": time, "mitigation": mitigation, "value": value}


class TestReward:
    def test_all_at_minima_is_zero(self):
        mins = _attrs()
        maxs = _attrs(1, 1, 1, 1)
        assert reward(_attrs(), mins, maxs, RewardWeights()) == 0.0

    def test_single_attribute_upper_anchor(self):
        w = RewardWeights(price=0, time=0, mitigation=0, value=1.0)
        r = reward(_attrs(value=1.0), _attrs(), _attrs(1, 1, 1, 1), w)
        assert r == 1.0

    def test_worked_example(self):
        # weights (-0.5 time, +0.5 value); time at ratio 0.4, value at 0.8
        w = RewardWeights(price=0, time=-0.5, mitigation=0, value=0.5)
        r = reward(
            _attrs(time=0.4, value=0.8), _attrs(), _attrs(1, 1, 1, 1), w
        )
        assert r == pytest.approx(-0.2 + 0.4)

    def test_degenerate_attribute_contributes_zero(self):
        r = reward(_attrs(price=5), _attrs(price=5), _attrs(price=5), RewardWeights())
        assert r == 0.0

    def test_non_finite_rejected(self):
        with pytest.raises(RLDomainError):
            reward(_attrs(price=float("nan")), _attrs(), _attrs(1, 1, 1, 1), RewardWeights())

    def test_max_below_min_rejected(self):
        with pytest.raises(RLDomainError):
            reward(_attrs(), _attrs(price=1), _attrs(), RewardWeights())

    def test_sign_convention_enforced(self):
        with pytest.raises(RLDomainError):
            RewardWeights(price=0.1)
        with pytest.raises(RLDomainError):
            RewardWeights(mitigation=-0.1)

    def test_total_bounded_by_weight_sums(self):
        w = RewardWeights()
        rng = np.random.default_rng(0)
        for _ in range(200):
            vals = rng.uniform(0, 1, 4)
            r = reward(_attrs(*vals), _attrs(), _attrs(1, 1, 1, 1), w)
            assert -0.5 - 1e-12 <= r <= 0.5 + 1e-12


class TestQUpdate:
    def test_terminal_update(self):
        table = QTable(config=RLConfig(alpha=0.1))
        q_update(table, "s", "a", 1.0, None, ())
        assert table.q("s", "a") == pytest.approx(0.1)
        assert table.visits[("s", "a")] == 1

    def test_bellman_fixed_point(self):
        table = QTable(config=RLConfig(alpha=0.5, gamma=0.9))
        table.entries[("s", "a")] = 2.0
        table.entries[("s2", "b")] = 2.0 / 0.9  # r + gamma*max = 0 + 2.0
        q_update(table, "s", "a", 0.0, "s2", ["b"])
        assert table.q("s", "a") == pytest.approx(2.0)

    def test_full_overwrite_limit(self):
        table = QTable(config=RLConfig(alpha=1.0, gamma=0.0))
        table.entries[("s", "a")] = 0.7
        q_update(table, "s", "a", 0.25, "s2", ["b"])
        assert table.q("s", "a") == pytest.approx(0.25)


class TestPredict:
    def test_cold_start_first_candidate(self):
        table = QTable()
        assert predict(table, "s", ["x", "y", "z"]) == "x"

    def test_dominant_value_wins(self):
        table = QTable()
        table.entries[("s", "y")] = 0.9
        assert predict(table, "s", ["x", "y", "z"]) == "y"

    def test_empty_candidates_rejected(self):
        with pytest.raises(RLDomainError):
            predict(QTable(), "s", [])

    def test_argmax_matches_brute_force_scan(self):
        rng = np.random.default_rng(1)
        table = QTable()
        candidates = ["a", "b", "c", "d"]
        for c in candidates:
            table.entries[("s", c)] = float(rng.normal())
        best = max(candidates, key=lambda c: table.entries[("s", c)])
        assert predict(table, "s", candidates) == best


def _train(factory, episodes, cfg=RLConfig(), seed=0):
    """A fresh table trained through `train` on `factory(index)` episodes."""
    table = QTable(config=cfg)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    for _ in train(table, (factory(i) for i in range(episodes)), rng):
        pass
    return table


def _chain_episode_factory(rewards_by_action):
    """3-state deterministic chain: states s0 -> s1 -> s2(terminal); two
    actions per state with fixed rewards."""

    def factory(index):
        def gen():
            total = 0.0
            for state in ("s0", "s1"):
                action = yield ("decide", state, ["good", "bad"])
                r = rewards_by_action[action]
                total += r
                yield ("reward", r)
            return None

        return gen()

    return factory


class TestTrain:
    def test_chain_mdp_matches_value_iteration(self):
        factory = _chain_episode_factory({"good": 1.0, "bad": 0.0})
        table = _train(factory, episodes=2000, cfg=RLConfig(), seed=0)
        # value iteration on the chain: picking "good" is optimal in both states
        for state in ("s0", "s1"):
            assert predict(table, state, ["good", "bad"]) == "good"
            assert table.q(state, "good") > table.q(state, "bad")

    def test_zero_epsilon_sticks_to_tiebreak_arm(self):
        # single-state bandit; epsilon=0 explores only the first candidate
        def factory(index):
            def gen():
                action = yield ("decide", "s", ["zero", "one"])
                yield ("reward", 1.0 if action == "one" else 0.0)
                return None

            return gen()

        cfg = RLConfig(epsilon=0.0, epsilon_floor=0.0)
        table = _train(factory, episodes=500, cfg=cfg, seed=0)
        assert table.visits.get(("s", "one")) is None
        assert predict(table, "s", ["zero", "one"]) == "zero"

    def test_exploring_bandit_finds_reward_arm(self):
        def factory(index):
            def gen():
                action = yield ("decide", "s", ["zero", "one"])
                yield ("reward", 1.0 if action == "one" else 0.0)
                return None

            return gen()

        cfg = RLConfig(epsilon=0.1, epsilon_decay=1.0, epsilon_floor=0.1)
        table = _train(factory, episodes=5000, cfg=cfg, seed=0)
        assert predict(table, "s", ["zero", "one"]) == "one"

    def test_zero_reward_environment_all_zero(self):
        factory = _chain_episode_factory({"good": 0.0, "bad": 0.0})
        table = _train(factory, episodes=200, seed=0)
        assert all(v == 0.0 for v in table.entries.values())

    def test_reproducible_serialization(self):
        factory = _chain_episode_factory({"good": 1.0, "bad": 0.2})
        a = _train(factory, episodes=300, seed=5)
        b = _train(factory, episodes=300, seed=5)
        assert table_to_json(a) == table_to_json(b)

    def test_q_values_bounded_for_bounded_rewards(self):
        factory = _chain_episode_factory({"good": 1.0, "bad": -1.0})
        cfg = RLConfig(gamma=0.9)
        table = _train(factory, episodes=1000, cfg=cfg, seed=1)
        bound = 1.0 / (1.0 - cfg.gamma)
        assert all(abs(v) <= bound + 1e-9 for v in table.entries.values())

    def test_episode_failure_carries_index(self):
        def factory(index):
            def gen():
                if index == 3:
                    raise RuntimeError("boom")
                yield ("decide", "s", ["a"])
                yield ("reward", 0.0)
                return None

            return gen()

        with pytest.raises(RuntimeError, match="episode 3"):
            _train(factory, episodes=10, seed=0)


class TestConfigValidation:
    def test_alpha_range(self):
        with pytest.raises(RLDomainError):
            RLConfig(alpha=0.0)

    def test_gamma_range(self):
        with pytest.raises(RLDomainError):
            RLConfig(gamma=1.0)

    @pytest.mark.parametrize("field, value", [
        ("epsilon_decay", -1.0), ("epsilon_decay", 0.0), ("epsilon_decay", 5.0),
        ("epsilon_decay", float("nan")), ("epsilon_floor", 2.0), ("epsilon_floor", -0.1),
        ("epsilon_floor", float("nan")),
    ])
    def test_epsilon_schedule_range(self, field, value):
        with pytest.raises(RLDomainError, match=f"{field} must be in"):
            RLConfig(**{field: value})

    def test_epsilon_decay_out_of_range_in_json(self):
        doc = {"config": {"epsilon_decay": -1}, "entries": []}
        with pytest.raises(RLDomainError, match=r"\$\.config: epsilon_decay .* got -1"):
            table_from_json(json.dumps(doc))


def _key_from_history(attack_type, level, history, accumulated, discretization):
    """The state key as it was built from the whole adaptation history: a
    `Counter` over the kinds, one violation per entry."""
    def name(a):
        return a.value if hasattr(a, "value") else str(a)

    counts = Counter(name(a) for a in history)
    parts = [
        name(attack_type),
        name(level),
        f"v{min(len(history), VIOLATION_BUCKETS - 1)}",
        ",".join(f"{k}:{counts[k]}" for k in sorted(counts)) or "-",
    ]
    for attr, prefix in BUCKETS.items():
        cuts = discretization.get(attr, (0.0, 0.0, 0.0))
        parts.append(f"{prefix}{bisect.bisect_right(cuts, accumulated.get(attr, 0.0))}")
    return "|".join(parts)


class TestStateKeys:
    def test_key_structure(self):
        key = workflow_state_key(
            "dos", "high", Counter(["skip", "skip", "rework", "skip", "insert"]),
            {"time": 2.5, "price": 0.0, "value": 0.0}, {"time": [1, 2, 3]},
        )
        parts = key.split("|")
        assert parts[0] == "dos"
        assert parts[1] == "high"
        assert parts[2] == "v3"  # one violation per decision, capped at 3+
        assert parts[3] == "insert:1,rework:1,skip:3"
        assert parts[4] == "t2"  # 2.5 falls in bucket 2 of [1,2,3]

    def test_quartile_boundaries_bucket_the_key(self):
        cuts = quartile_boundaries({"time": list(range(101))})
        assert cuts == {"time": [25.0, 50.0, 75.0]}
        for time, bucket in ((10, 0), (60, 2), (99, 3)):
            key = workflow_state_key("dos", "high", {}, {"time": time}, cuts)
            assert key.split("|")[4] == f"t{bucket}"

    def test_key_from_running_counts_equals_key_from_history(self):
        rng = np.random.default_rng(0)
        kinds = list(ActionKind)
        cuts = {"time": [1.0, 2.0, 3.0], "price": [0.5, 0.5, 2.0], "value": [0.0, 1.0, 4.0]}
        history, counts = [], {}
        for step in range(300):
            attack_type = list(AttackType)[int(rng.integers(4))]
            level = list(Severity)[int(rng.integers(3))]
            accumulated = {attr: float(rng.uniform(-1.0, 5.0)) for attr in BUCKETS}
            for discretization in (cuts, {}):
                assert workflow_state_key(attack_type, level, counts, accumulated,
                                          discretization) == _key_from_history(
                    attack_type, level, history, accumulated, discretization)
            if step % 60 == 0:  # a new instance starts with no adaptations
                history, counts = [], {}
            kind = kinds[int(rng.integers(len(kinds)))]
            history.append(kind)
            counts[kind] = counts.get(kind, 0) + 1

    def test_table_json_round_trip_preserves_discretization(self):
        table = QTable(discretization={
            "time": [1.0, 2.0, 3.0], "price": [0.5, 0.5, 2.0], "value": [0.0, 1.0, 4.0],
        })
        table.entries[("s", "a")] = 0.5
        table.visits[("s", "a")] = 3
        restored = table_from_json(table_to_json(table))
        assert restored.entries == table.entries
        assert restored.visits == table.visits
        assert restored.discretization == table.discretization
