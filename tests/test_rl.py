"""Q-learning: reward shaping, Bellman updates, training loops, prediction."""

import json

import numpy as np
import pytest

from secflow import rl
from secflow.model import ActionKind, AttackType, Severity
from secflow.rl import (
    QTable,
    RLConfig,
    RLDomainError,
    predict,
    q_update,
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
        assert reward(_attrs(), mins, maxs) == 0.0

    def test_single_attribute_upper_anchor(self):
        r = reward(_attrs(value=1.0), _attrs(), _attrs(1, 1, 1, 1))
        assert r == 0.25

    def test_worked_example(self):
        # weights (-0.25 time, +0.25 value); time at ratio 0.4, value at 0.8
        r = reward(_attrs(time=0.4, value=0.8), _attrs(), _attrs(1, 1, 1, 1))
        assert r == pytest.approx(-0.1 + 0.2)

    def test_degenerate_attribute_contributes_zero(self):
        r = reward(_attrs(price=5), _attrs(price=5), _attrs(price=5))
        assert r == 0.0

    def test_non_finite_rejected(self):
        with pytest.raises(RLDomainError):
            reward(_attrs(price=float("nan")), _attrs(), _attrs(1, 1, 1, 1))

    def test_max_below_min_rejected(self):
        with pytest.raises(RLDomainError):
            reward(_attrs(), _attrs(price=1), _attrs())

    def test_total_bounded_by_weight_sums(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            vals = rng.uniform(0, 1, 4)
            r = reward(_attrs(*vals), _attrs(), _attrs(1, 1, 1, 1))
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
        def episode(choose, learn):
            for state in ("s0", "s1"):
                learn(rewards_by_action[choose(state, ["good", "bad"])])

        return episode

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
            def episode(choose, learn):
                learn(1.0 if choose("s", ["zero", "one"]) == "one" else 0.0)

            return episode

        cfg = RLConfig(epsilon=0.0, epsilon_floor=0.0)
        table = _train(factory, episodes=500, cfg=cfg, seed=0)
        assert table.visits.get(("s", "one")) is None
        assert predict(table, "s", ["zero", "one"]) == "zero"

    def test_exploring_bandit_finds_reward_arm(self):
        def factory(index):
            def episode(choose, learn):
                learn(1.0 if choose("s", ["zero", "one"]) == "one" else 0.0)

            return episode

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

    def test_forced_choice_draws_nothing_and_updates_once_per_decision(self, monkeypatch):
        """A choice among one candidate cannot explore, so it leaves the policy
        RNG untouched, yet each decision still gets its one Q update."""
        updated = []
        original = rl.q_update

        def counted(table, state, action, *rest):
            updated.append((state, action))
            return original(table, state, action, *rest)

        monkeypatch.setattr(rl, "q_update", counted)

        def episode(choose, learn):
            for state in ("s0", "s1", "s2"):
                assert choose(state, ["only"]) == "only"
                learn(1.0)

        table = QTable(config=RLConfig(epsilon=1.0))
        rng = np.random.default_rng(0)
        untouched = rng.bit_generator.state
        for _ in train(table, (episode for _ in range(4)), rng):
            pass
        assert rng.bit_generator.state == untouched
        assert len(updated) == 12
        assert table.visits == {(s, "only"): 4 for s in ("s0", "s1", "s2")}

    def test_episode_failure_carries_index(self):
        def factory(index):
            def episode(choose, learn):
                if index == 3:
                    raise RuntimeError("boom")
                choose("s", ["a"])
                learn(0.0)

            return episode

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

    @pytest.mark.parametrize("config, message", [
        ([0.1], "$.config: must be an object"),
        ("alpha", "$.config: must be an object"),
        ({"alpha": True}, "$.config.alpha: must be a number, got true"),
        ({"alpha": 0.5, "epsilon": False}, "$.config.epsilon: must be a number, got false"),
        ({"gamma": "0"}, '$.config.gamma: must be a number, got "0"'),
        ({"epsilon_floor": None}, "$.config.epsilon_floor: must be a number, got null"),
        ({"alpha": 0.5, "beta": 0.5}, "$.config: unknown field 'beta'"),
    ], ids=["array", "string", "true", "false", "string-value", "null", "unknown-field"])
    def test_config_checked_field_by_field(self, config, message):
        with pytest.raises(RLDomainError) as exc:
            table_from_json(json.dumps({"config": config, "entries": []}))
        assert str(exc.value) == message

    def test_config_takes_integers_and_leaves_missing_fields_at_their_defaults(self):
        table = table_from_json(json.dumps({"config": {"alpha": 1, "gamma": 0}, "entries": []}))
        assert table.config == RLConfig(alpha=1.0, gamma=0.0)


class TestTableFile:
    """`table_from_json` refuses an entry it cannot key, naming its path."""

    @staticmethod
    def _entries(*pairs):
        return json.dumps({"config": {}, "entries": [
            {"state": state, "action": action, "q": 0.5, "n": 1} for state, action in pairs]})

    @pytest.mark.parametrize("pairs, message", [
        ([("dos|high", ["skip"])], "$.entries[0].action: must be a string, got ['skip']"),
        ([("dos|high", "skip"), (1, "skip")], "$.entries[1].state: must be a string, got 1"),
        ([("dos|high", "skip"), ("dos|low", "skip"), ("dos|high", "skip")],
         "$.entries[2]: repeats the (state, action) pair of $.entries[0]"),
        ([("dos|high", "skip"), ("dos|low", "skip"), ("dos|low", "skip")],
         "$.entries[2]: repeats the (state, action) pair of $.entries[1]"),
    ], ids=["action-list", "state-number", "repeated-first", "repeated-second"])
    def test_unkeyable_entry_refused(self, pairs, message):
        with pytest.raises(RLDomainError) as exc:
            table_from_json(self._entries(*pairs))
        assert str(exc.value) == message

    def test_same_state_or_action_in_distinct_pairs_loads(self):
        pairs = [("dos|high", "skip"), ("dos|high", "rework"), ("dos|low", "skip")]
        assert list(table_from_json(self._entries(*pairs)).entries) == pairs


class TestStateKeys:
    def test_key_structure(self):
        assert workflow_state_key(AttackType.DOS, Severity.HIGH) == "dos|high"

    def test_every_state_key_is_type_bar_tier(self):
        keys = {workflow_state_key(at, level) for at in AttackType for level in Severity}
        assert keys == {f"{at.value}|{level.value}" for at in AttackType for level in Severity}
        assert len(keys) == 12

    def test_action_kind_and_its_value_share_an_entry(self):
        table = QTable()
        for kind in ActionKind:
            q_update(table, "dos|high", kind, 1.0, None, ())
            q_update(table, "dos|high", kind.value, 1.0, None, ())
        assert list(table.entries) == [("dos|high", kind.value) for kind in ActionKind]
        for kind in ActionKind:
            assert table.q("dos|high", kind) == table.q("dos|high", kind.value) == 0.1 + 0.09

    def test_table_json_round_trip(self):
        table = QTable(config=RLConfig(alpha=0.5, epsilon=0.2))
        table.entries[("dos|high", ActionKind.SKIP.value)] = 0.5
        table.entries[("r2l|low", ActionKind.REWORK.value)] = -0.25
        table.visits[("dos|high", ActionKind.SKIP.value)] = 3
        table.visits[("r2l|low", ActionKind.REWORK.value)] = 1
        restored = table_from_json(table_to_json(table))
        assert restored == table
        assert "discretization" not in json.loads(table_to_json(table))
