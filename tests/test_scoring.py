"""Scoring formulas: attack score, mitigation score, normalization, cost."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secflow.model import SecurityVector, TenantConfig
from secflow.scoring import (
    ScoringDomainError,
    adaptation_cost,
    attack_score,
    mitigation_score,
    normalize,
)

unit = st.floats(0.0, 1.0)
vectors = st.builds(SecurityVector, unit, unit, unit)


class TestAttackScore:
    def test_zero_requirements_annihilate(self):
        req = SecurityVector(0, 0, 0)
        imp = SecurityVector(0.9, 0.9, 0.9)
        assert attack_score(req, imp, 0.8, 1.0) == 0.0

    def test_zero_afr_annihilates(self):
        req = SecurityVector(1, 1, 1)
        imp = SecurityVector(0.9, 0.9, 0.9)
        assert attack_score(req, imp, 0.0, 1.0) == 0.0

    def test_dos_full_requirements(self):
        req = SecurityVector(1, 1, 1)
        imp = SecurityVector(0.56, 0.56, 0.56)
        expected = (1 - 0.44**3) * 0.5  # = 0.457408
        assert attack_score(req, imp, 0.5, 1.0) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.457408, abs=1e-9)

    def test_out_of_range_afr_rejected(self):
        req = SecurityVector(1, 1, 1)
        with pytest.raises(ScoringDomainError):
            attack_score(req, req, 1.5, 1.0)
        with pytest.raises(ScoringDomainError):
            attack_score(req, req, 0.5, -0.1)

    @settings(max_examples=200)
    @given(req=vectors, imp=vectors, afr=unit, level=unit)
    def test_bounded_in_unit_interval(self, req, imp, afr, level):
        s = attack_score(req, imp, afr, level)
        assert 0.0 <= s <= 1.0

    @settings(max_examples=200)
    @given(req=vectors, imp=vectors, afr=unit, level=unit, bump=st.floats(0, 0.5))
    def test_monotone_in_afr_and_level(self, req, imp, afr, level, bump):
        base = attack_score(req, imp, afr, level)
        assert attack_score(req, imp, min(1.0, afr + bump), level) >= base - 1e-12
        assert attack_score(req, imp, afr, min(1.0, level + bump)) >= base - 1e-12

    @settings(max_examples=200)
    @given(req=vectors, imp=vectors, afr=unit, level=unit, bump=st.floats(0, 0.5))
    def test_monotone_in_requirement_components(self, req, imp, afr, level, bump):
        base = attack_score(req, imp, afr, level)
        bumped = SecurityVector(
            min(1.0, req.c + bump), min(1.0, req.i + bump), min(1.0, req.a + bump)
        )
        assert attack_score(bumped, imp, afr, level) >= base - 1e-12


class TestMitigationScore:
    def test_null_mitigation(self):
        req = SecurityVector(0.5, 0.5, 0.5)
        assert mitigation_score(req, req, SecurityVector(0, 0, 0)) == 0.0

    def test_upper_bound_three(self):
        zero = SecurityVector(0, 0, 0)
        assert mitigation_score(zero, SecurityVector(1, 1, 1), SecurityVector(1, 1, 1)) == 3.0

    def test_skip_against_dos(self):
        req = SecurityVector(1, 1, 1)
        imp = SecurityVector(0.56, 0.56, 0.56)
        mi = SecurityVector(0.5, 0.4, 0.6)  # skip's mitigation impact
        assert mitigation_score(req, imp, mi) == pytest.approx(0.44 * 1.5, abs=1e-12)
        assert 0.44 * 1.5 == pytest.approx(0.66)

    @settings(max_examples=200)
    @given(req=vectors, imp=vectors, mi=vectors)
    def test_bounded_by_mi_sum(self, req, imp, mi):
        s = mitigation_score(req, imp, mi)
        assert 0.0 <= s <= mi.c + mi.i + mi.a + 1e-12
        assert s <= 3.0 + 1e-12


class TestNormalize:
    def test_singleton_keeps_raw_value(self):
        assert normalize({"a": 7.0}) == {"a": 7.0}

    def test_all_equal_maps_to_zero(self):
        assert normalize({"a": 4.0, "b": 4.0}) == {"a": 0.0, "b": 0.0}

    def test_three_values(self):
        assert normalize({"a": 2.0, "b": 4.0, "c": 10.0}) == {
            "a": 0.0,
            "b": 0.25,
            "c": 1.0,
        }

    def test_empty_map_rejected(self):
        with pytest.raises(ScoringDomainError):
            normalize({})

    def test_non_finite_rejected(self):
        with pytest.raises(ScoringDomainError):
            normalize({"a": float("nan"), "b": 1.0})

    def test_spread_at_equal_tol_reads_as_equal(self):
        assert normalize({"a": 0.0, "b": 1e-12}) == {"a": 0.0, "b": 0.0}

    def test_spread_rounded_past_equal_tol_reads_as_real(self):
        # 1 + 1e-12 rounds to a double 1.00009e-12 above 1
        assert normalize({"a": 1.0, "b": 1.0 + 1e-12}) == {"a": 0.0, "b": 1.0}

    @settings(max_examples=200)
    @given(
        st.dictionaries(
            st.text(min_size=1, max_size=3),
            st.floats(-1e6, 1e6),
            min_size=2,
            max_size=8,
        )
    )
    def test_bounds_and_order_isomorphism(self, values):
        out = normalize(values)
        assert all(0.0 <= v <= 1.0 for v in out.values())
        spread = max(values.values()) - min(values.values())
        if spread > 1e-12:  # below this the all-equal case collapses to 0
            assert max(out.values()) == 1.0 and min(out.values()) == 0.0
        # order preserved pairwise
        keys = list(values)
        for x in keys:
            for y in keys:
                if values[x] < values[y]:
                    assert out[x] <= out[y]


class TestAdaptationCost:
    def test_worked_example(self):
        cfg = TenantConfig()
        # weights 0.25 each; components (P,T,MS,V)=(1,0,0.5,0.5)
        assert adaptation_cost(cfg, 1.0, 0.0, 0.5, 0.5) == pytest.approx(0.0)

    def test_single_criterion_ordering(self):
        cfg = TenantConfig(w_price=0, w_time=0, w_security=1, w_value=0)
        a = adaptation_cost(cfg, 0.3, 0.9, 0.0, 0.2)
        b = adaptation_cost(cfg, 0.3, 0.9, 1.0, 0.2)
        assert (a, b) == (0.0, -1.0)
        assert b < a  # b ranks first ascending

    @settings(max_examples=200)
    @given(
        p=st.floats(0, 1),
        t=st.floats(0, 1),
        ms=st.floats(0, 1),
        v=st.floats(0, 1),
        shift=st.floats(-100, 100),
        # A spread within a few ulps of EQUAL_TOL can round across it when
        # shifted, so there shift invariance fails in floating point; the
        # boundary itself is pinned by TestNormalize.
        prices=st.lists(st.floats(0, 100), min_size=2, max_size=6).filter(
            lambda ps: max(ps) == min(ps) or max(ps) - min(ps) >= 1e-6
        ),
    )
    def test_ranking_invariant_under_price_shift(self, p, t, ms, v, shift, prices):
        # min-max normalization is shift-invariant, so the normalized prices
        # (hence the cost ranking) do not move when all raw prices shift
        shifted = [x + shift for x in prices]
        base = normalize({i: x for i, x in enumerate(prices)})
        moved = normalize({i: x for i, x in enumerate(shifted)})
        for i in base:
            assert base[i] == pytest.approx(moved[i], abs=1e-6)
