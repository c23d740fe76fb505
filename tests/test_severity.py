"""Severity model: chi-square selection, k-means, cluster-to-level mapping."""

import numpy as np
import pytest

from secflow.datagen import CLF_FEATURES, Dataset, DatasetKind, NORMAL, generate
from secflow.model import SEVERITY_LEVEL, SEVERITY_ORDER, AttackType, Severity
from secflow.severity import (
    AssessmentError,
    FittingError,
    SelectionError,
    SeverityEntry,
    SeverityModel,
    chi_square_select,
    chi_square_statistics,
    fit_severity,
    fit_severity_entry,
    kmeans,
    severity_from_obj,
    severity_to_obj,
)


def _dataset(X, labels, intensity=None, kind=DatasetKind.CLF, names=CLF_FEATURES):
    X = np.asarray(X, dtype=float)
    labels = np.asarray(labels)
    if intensity is None:
        intensity = np.zeros(len(labels))
    return Dataset(kind, names, X, labels, np.asarray(intensity, dtype=float))


class TestChiSquare:
    def test_label_indicator_ranked_first(self):
        rng = np.random.default_rng(0)
        n = 200
        labels = np.array([NORMAL] * 100 + ["dos"] * 100)
        indicator = (labels == "dos").astype(float)
        X = np.column_stack([rng.normal(size=n), indicator, rng.normal(size=n)])
        ds = _dataset(X, labels)
        assert chi_square_select(ds, AttackType.DOS, 3)[0] == 1

    def test_constant_feature_scores_zero(self):
        labels = np.array([NORMAL] * 50 + ["dos"] * 50)
        X = np.column_stack(
            [np.full(100, 2.0), (labels == "dos").astype(float), np.full(100, 7.0)]
        )
        stats = chi_square_statistics(_dataset(X, labels), AttackType.DOS)
        assert stats[0] == 0.0
        assert stats[2] == 0.0
        assert stats[1] > 0.0

    def test_statistics_match_hand_contingency(self):
        # Feature values split the 8 records into two bins; hand-computed
        # 2x2 contingency per feature gives the expected chi-square.
        labels = np.array([NORMAL] * 4 + ["dos"] * 4)
        f0 = np.array([0, 0, 0, 1, 1, 1, 1, 1], dtype=float)  # bins: low x3 / high x5
        f1 = np.array([0, 0, 0, 0, 1, 1, 1, 1], dtype=float)  # perfect alignment
        f2 = np.array([0, 1, 0, 1, 0, 1, 0, 1], dtype=float)  # independent
        ds = _dataset(np.column_stack([f0, f1, f2]), labels)
        stats = chi_square_statistics(ds, AttackType.DOS)

        def hand_chi2(low_counts, high_counts):
            observed = np.array([low_counts, high_counts], dtype=float)
            row = observed.sum(axis=1, keepdims=True)
            col = observed.sum(axis=0, keepdims=True)
            expected = row * col / observed.sum()
            return float(((observed - expected) ** 2 / expected).sum())

        assert stats[0] == pytest.approx(hand_chi2([3, 0], [1, 4]))
        assert stats[1] == pytest.approx(hand_chi2([4, 0], [0, 4]))
        assert stats[2] == pytest.approx(hand_chi2([2, 2], [2, 2]))
        assert stats[1] > stats[0] > stats[2]

    def test_single_class_rejected(self):
        ds = _dataset(np.zeros((10, 3)), [NORMAL] * 10)
        with pytest.raises(SelectionError):
            chi_square_select(ds, AttackType.DOS, 1)

    def test_top_k_bounded_by_feature_count(self):
        labels = np.array([NORMAL] * 5 + ["dos"] * 5)
        ds = _dataset(np.random.default_rng(0).normal(size=(10, 3)), labels)
        with pytest.raises(SelectionError):
            chi_square_select(ds, AttackType.DOS, 4)


class TestKMeans:
    def test_three_blob_centroids_recovered(self, rng):
        blobs = np.concatenate(
            [rng.normal(c, 0.01, size=(30, 1)) for c in (0.1, 0.5, 0.9)]
        )
        centroids, labels = kmeans(blobs, 3, rng)
        got = sorted(float(c) for c in centroids[:, 0])
        for found, true in zip(got, (0.1, 0.5, 0.9)):
            assert abs(found - true) < 0.05
        assert len(set(labels)) == 3

    def test_identical_records_degenerate(self, rng):
        with pytest.raises(FittingError):
            kmeans(np.zeros((10, 2)), 3, rng)

    def test_fewer_records_than_k(self, rng):
        with pytest.raises(FittingError):
            kmeans(np.zeros((2, 2)), 3, rng)

    def test_same_seed_identical_centroids(self):
        X = np.random.default_rng(3).normal(size=(60, 2))
        a, _ = kmeans(X, 3, np.random.default_rng(7))
        b, _ = kmeans(X, 3, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)


class TestFitSeverity:
    def _banded(self, kind, seed=0):
        mix = {NORMAL: 0.2, "dos": 0.2, "probe": 0.2, "u2r": 0.2, "r2l": 0.2}
        return generate(kind, 3000, mix, seed, intensity_mode="banded")

    def test_cluster_levels_track_intensity_bands(self):
        ds = self._banded(DatasetKind.NTD)
        entry = fit_severity_entry(ds, AttackType.DOS, seed=1)
        order = np.argsort(entry.cluster_mean_intensity)
        assert [entry.cluster_level[j] for j in order] == [
            Severity.LOW,
            Severity.MEDIUM,
            Severity.HIGH,
        ]

    def test_numeric_levels(self):
        ds = self._banded(DatasetKind.CLF)
        model = fit_severity({DatasetKind.CLF: ds}, seed=2)
        entry = model.entries[(DatasetKind.CLF, AttackType.PROBE)]
        for rec in ds.X[ds.labels == "probe"][:50]:
            assert 0 < SEVERITY_LEVEL[entry.assess(rec)] <= 1

    def test_held_out_tercile_agreement(self):
        train = self._banded(DatasetKind.CLF, seed=3)
        test = self._banded(DatasetKind.CLF, seed=4)
        entry = fit_severity_entry(train, AttackType.U2R, seed=3)
        mask = test.labels == "u2r"
        X, intensity = test.X[mask][:100], test.intensity[mask][:100]
        tercile = np.digitize(intensity, [1 / 3, 2 / 3])
        predicted = np.array(
            [(Severity.LOW, Severity.MEDIUM, Severity.HIGH).index(entry.assess(x))
             for x in X]
        )
        assert np.mean(predicted == tercile) >= 0.9

    def test_too_few_records_rejected(self):
        labels = np.array([NORMAL] * 10 + ["dos"] * 2)
        X = np.random.default_rng(0).normal(size=(12, 3))
        ds = _dataset(X, labels, intensity=[0] * 10 + [0.5, 0.9])
        with pytest.raises(FittingError):
            fit_severity_entry(ds, AttackType.DOS, seed=0)

    def test_unknown_type_assessment_error(self):
        model = SeverityModel(entries={})
        with pytest.raises(AssessmentError):
            model.assess(DatasetKind.CLF, AttackType.DOS, [0.1, 0.2, 0.3])

    def test_serialization_round_trip(self):
        ds = self._banded(DatasetKind.CLF, seed=5)
        model = fit_severity({DatasetKind.CLF: ds}, seed=5)
        restored = severity_from_obj(severity_to_obj(model))
        probe = ds.X[ds.labels == "r2l"][:25]
        for x in probe:
            assert restored.assess(DatasetKind.CLF, AttackType.R2L, x) == model.assess(
                DatasetKind.CLF, AttackType.R2L, x
            )

    def test_record_at_centroid_gets_that_level(self):
        ds = self._banded(DatasetKind.CLF, seed=6)
        entry = fit_severity_entry(ds, AttackType.DOS, seed=6)
        for j, centroid in enumerate(entry.centroids):
            raw = centroid * entry.scale_std + entry.scale_mean
            features = np.zeros(ds.X.shape[1])
            features[entry.feature_indices] = raw
            assert entry.assess(features) is entry.cluster_level[j]


def _reference_assess(entry, features):
    """The numpy distance the scalar one replaced."""
    x = (np.asarray(features, dtype=float)[entry.feature_indices] - entry.scale_mean) / (
        entry.scale_std
    )
    d2 = np.sum((entry.centroids - x) ** 2, axis=1)
    best = min(range(len(d2)),
               key=lambda j: (d2[j], SEVERITY_ORDER.index(entry.cluster_level[j])))
    return entry.cluster_level[best]


def test_assess_matches_numpy_distance():
    rng = np.random.default_rng(0)
    for i, kind in enumerate(DatasetKind):
        ds = generate(kind, 1500, {NORMAL: 0.2, "dos": 0.2, "probe": 0.2, "u2r": 0.2,
                                   "r2l": 0.2}, seed=i, intensity_mode="banded")
        model = fit_severity({kind: ds}, seed=i)
        # telemetry rows, then rows far from any fitted scale
        records = list(ds.X[:400]) + list(rng.normal(0, 10.0, size=(200, ds.X.shape[1])))
        for entry in model.entries.values():
            for x in records:
                assert entry.assess(list(x)) == _reference_assess(entry, x)


def test_equidistant_clusters_resolve_to_lower_severity():
    entry = SeverityEntry(
        feature_indices=[2, 0],
        scale_mean=np.array([1.0, 0.0]),
        scale_std=np.array([2.0, 1.0]),
        centroids=np.array([[0.5, 0.0], [-0.5, 0.0], [0.0, 3.0]]),
        cluster_mean_intensity=np.array([0.9, 0.1, 0.5]),
        cluster_level=[Severity.HIGH, Severity.LOW, Severity.MEDIUM],
    )
    # standardized (0, 0) lies 0.25 from both the HIGH and the LOW centroid
    record = [0.0, 7.0, 1.0]
    assert entry.assess(record) == _reference_assess(entry, record) == Severity.LOW
