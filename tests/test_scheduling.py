"""Trust-aware scheduling and the provider trust repository."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secflow.model import AttackType, TenantConfig, Workflow
from secflow.scheduling import (
    TrustRepository,
    UnschedulableError,
    _ewma,
    eligible_services,
    schedule,
)
from tests.conftest import make_cloud, make_service, make_task


def _workflow(*tasks):
    return Workflow(tasks=tuple(tasks), control_edges=(), data_edges=())


class TestSchedule:
    def test_single_eligible_service_bound(self):
        task = make_task(cia=(0.9, 0.9, 0.9))
        cloud = make_cloud([make_service("p0-s0", guarantees=(1, 1, 1))])
        trust = TrustRepository.from_cloud(cloud)
        plan = schedule(_workflow(task), cloud, trust, TenantConfig())
        assert plan.bindings == {"t0": "p0-s0"}

    def test_unschedulable_names_the_task(self):
        task = make_task(tid="t7", cia=(0.99, 0.0, 0.0))
        cloud = make_cloud(
            [
                make_service("p0-s0", guarantees=(0.5, 1, 1)),
                make_service("p0-s1", guarantees=(0.98, 1, 1)),
            ]
        )
        trust = TrustRepository.from_cloud(cloud)
        with pytest.raises(UnschedulableError, match="t7"):
            schedule(_workflow(task), cloud, trust, TenantConfig())

    def test_cheaper_service_wins_all_else_equal(self):
        task = make_task(cia=(0.1, 0.1, 0.1))
        cloud = make_cloud(
            [
                make_service("p0-s0", price=1.0, time=10.0, afr=0.2),
                make_service("p0-s1", price=2.0, time=10.0, afr=0.2),
            ]
        )
        trust = TrustRepository.from_cloud(cloud)
        cfg = TenantConfig(w_price=1.0, w_time=0.0, w_security=0.0, w_value=0.0)
        plan = schedule(_workflow(task), cloud, trust, cfg)
        assert plan.bindings["t0"] == "p0-s0"

    def test_tie_breaks_on_lexicographic_id(self):
        task = make_task(cia=(0.1, 0.1, 0.1))
        cloud = make_cloud(
            [
                make_service("p0-s1", price=1.0, time=10.0),
                make_service("p0-s0", price=1.0, time=10.0),
            ]
        )
        trust = TrustRepository.from_cloud(cloud)
        plan = schedule(_workflow(task), cloud, trust, TenantConfig())
        assert plan.bindings["t0"] == "p0-s0"

    @settings(max_examples=100, deadline=None)
    @given(
        cia=st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1)),
        guarantees=st.lists(
            st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1)),
            min_size=1,
            max_size=6,
        ),
    )
    def test_plan_respects_eligibility(self, cia, guarantees):
        task = make_task(cia=cia)
        cloud = make_cloud(
            [make_service(f"p0-s{i}", guarantees=g) for i, g in enumerate(guarantees)]
        )
        trust = TrustRepository.from_cloud(cloud)
        pool = eligible_services(task, cloud)
        if not pool:
            with pytest.raises(UnschedulableError):
                schedule(_workflow(task), cloud, trust, TenantConfig())
            return
        plan = schedule(_workflow(task), cloud, trust, TenantConfig())
        bound = cloud.service_map()[plan.bindings["t0"]]
        assert bound.guarantees.dominates(task.requirements)


class TestTrustRepository:
    def _repo(self):
        cloud = make_cloud([make_service("p0-s0", afr=0.0)])
        return TrustRepository.from_cloud(cloud)

    def test_ewma_first_detection(self):
        repo = self._repo()
        repo.update("p0-s0", AttackType.DOS, detected=True)
        assert repo.afr("p0-s0", AttackType.DOS) == pytest.approx(0.1)

    def test_clean_period_is_fixed_point_at_zero(self):
        repo = self._repo()
        repo.update("p0-s0", AttackType.DOS, detected=False)
        assert repo.afr("p0-s0", AttackType.DOS) == 0.0

    def test_repeated_detection_limit(self):
        repo = self._repo()
        for _ in range(1000):
            repo.update("p0-s0", AttackType.DOS, detected=True)
        assert repo.afr("p0-s0", AttackType.DOS) == pytest.approx(1.0, abs=1e-9)
        # trust = 1 - mean over attack types; only dos is saturated
        assert repo.score("p0-s0") == pytest.approx(1.0 - 1.0 / 4.0, abs=1e-9)

    def test_unknown_service_raises(self):
        repo = self._repo()
        with pytest.raises(KeyError):
            repo.update("nope", AttackType.DOS, detected=True)

    @pytest.mark.parametrize("method, arg", [("update", True), ("scale_afr", 0.5)])
    @pytest.mark.parametrize("service_id, attack_type, message", [
        ("nope", AttackType.DOS, "unknown service 'nope'"),
        ("p0-s0", "dos", "unknown attack type 'dos'"),
        ("nope", "dos", "unknown attack type 'dos'"),
    ])
    def test_unknown_key_names_the_unknown_part(self, method, arg, service_id, attack_type,
                                                message):
        repo = self._repo()
        before = dict(repo.afr_history)
        with pytest.raises(KeyError, match=re.escape(message)):
            getattr(repo, method)(service_id, attack_type, arg)
        assert repo.afr_history == before

    @pytest.mark.parametrize("method, arg", [("update", True), ("scale_afr", 0.5)])
    def test_missing_pair_of_known_parts_names_both(self, method, arg):
        repo = TrustRepository({("p0-s0", AttackType.DOS): 0.5})
        with pytest.raises(KeyError, match="no rate for service 'p0-s0' and type 'probe'"):
            getattr(repo, method)("p0-s0", AttackType.PROBE, arg)
        assert repo.afr_history == {("p0-s0", AttackType.DOS): 0.5}

    def test_detection_never_increases_trust(self):
        repo = self._repo()
        for detected in (True, True, False, True, False):
            before = repo.score("p0-s0")
            repo.update("p0-s0", AttackType.PROBE, detected=detected)
            after = repo.score("p0-s0")
            if detected:
                assert after <= before + 1e-12
            else:
                assert after >= before - 1e-12

    def test_observe_equals_ewma_of_each_rate(self):
        """Every rate after `observe(hits)` is bit-equal to `_ewma(old, key in
        hits)`, in the same key order; a hit outside the table adds nothing.
        The table holds both zeros, 1.0 hit and missed, out-of-range and NaN
        rates for the clamp, and a rate that repeated hits saturate."""
        rates = {"zero": 0.0, "neg-zero": -0.0, "one": 1.0, "one-hit": 1.0,
                 "saturating": 0.95, "above": 1.5, "above-hit": 1.5, "below": -0.5,
                 "below-hit": -0.5, "nan": float("nan"), "nan-hit": float("nan"),
                 "neg-zero-hit": -0.0}
        repo = TrustRepository({(name, AttackType.DOS): rate for name, rate in rates.items()})
        hits = {(name, AttackType.DOS) for name in rates if name.endswith("hit")}
        hits |= {("saturating", AttackType.DOS), ("absent", AttackType.DOS)}
        order = list(repo.afr_history)
        for _ in range(400):
            want = {key: _ewma(old, key in hits) for key, old in repo.afr_history.items()}
            repo.observe(hits)
            assert list(repo.afr_history) == order
            assert {k: v.hex() for k, v in repo.afr_history.items()} == {
                k: v.hex() for k, v in want.items()}
        saturated = repo.afr("saturating", AttackType.DOS)
        assert 0.999 < saturated == _ewma(saturated, True)  # a fixed point under hits
