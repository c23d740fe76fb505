"""Severity model: chi-square selection, k-means, cluster-to-level mapping."""

import dataclasses
import json
import pickle

import numpy as np
import pytest

from secflow import severity
from secflow.datagen import CLF_FEATURES, Dataset, DatasetKind, NORMAL, generate
from secflow.detection import load_models, save_models
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


def _reference_kmeans(X, k, rng):
    """`severity.kmeans` as it was written with an `empty` flag and a second
    nearest-centroid pass, kept as the reference for its draws and floats."""
    if len(X) < k:
        raise FittingError(f"need at least {k} records, got {len(X)}")
    for _ in range(severity.KMEANS_RESEEDS):
        centroids = severity._kmeans_pp_init(X, k, rng)
        for _ in range(severity.KMEANS_MAX_ITER):
            d2 = np.sum((X[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
            labels = d2.argmin(axis=1)
            new = np.empty_like(centroids)
            empty = False
            for j in range(k):
                members = X[labels == j]
                if len(members) == 0:
                    empty = True
                    break
                new[j] = members.mean(axis=0)
            if empty:
                break
            shift = np.max(np.abs(new - centroids))
            centroids = new
            if shift <= severity.KMEANS_TOL:
                break
        else:
            empty = False
        if not empty:
            d2 = np.sum((X[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
            return centroids, d2.argmin(axis=1)
    raise FittingError("k-means produced an empty cluster on every reseed")


def _run_both(X, k=3, seed=11):
    """Each function's result (or FittingError) and its generator's next draw."""
    outcomes = []
    for fn in (kmeans, _reference_kmeans):
        rng = np.random.default_rng(seed)
        try:
            result = fn(X, k, rng)
        except FittingError as exc:
            result = str(exc)
        outcomes.append((result, rng.random()))
    return outcomes


def _assert_same(got, want):
    (result, draw), (ref_result, ref_draw) = got, want
    assert draw == ref_draw
    if isinstance(ref_result, str):
        assert result == ref_result
        return
    for array, ref in zip(result, ref_result):
        assert array.dtype == ref.dtype and array.tobytes() == ref.tobytes()


class TestKMeansAgainstReference:
    def test_converging_data(self):
        X = np.concatenate([np.random.default_rng(5).normal(c, 0.05, size=(20, 2))
                            for c in (0.0, 1.0, 2.0)])
        _assert_same(*_run_both(X))

    def test_last_iteration_returns(self, monkeypatch):
        X = np.random.default_rng(3).normal(size=(60, 2))
        converged, _ = kmeans(X, 3, np.random.default_rng(11))
        monkeypatch.setattr(severity, "KMEANS_MAX_ITER", 1)
        got, want = _run_both(X)
        _assert_same(got, want)
        # one Lloyd step does not reach the fixed point: the loop stopped on
        # its iteration count, not on convergence
        assert not np.array_equal(want[0][0], converged)

    def test_empty_cluster_on_every_reseed(self):
        got, want = _run_both(np.zeros((10, 2)))
        assert want[0] == "k-means produced an empty cluster on every reseed"
        _assert_same(got, want)


def _scale_all_zero(std):
    std[:] = [0.0] * len(std)


def _scale_one_negative(std):
    std[2] = -1.0


@pytest.mark.parametrize("edit, where, shown", [
    (_scale_all_zero, 0, "0.0"),
    (_scale_one_negative, 2, "-1.0"),
], ids=["all-zero", "one-negative"])
def test_non_positive_scale_refused_at_load(tmp_path, edit, where, shown):
    mix = {NORMAL: 0.5, "dos": 0.5}
    ds = generate(DatasetKind.NTD, 300, mix, 0, intensity_mode="banded")
    obj = severity_to_obj(fit_severity({DatasetKind.NTD: ds}, 0))
    edit(obj["ntd/dos"]["scale_std"])
    path = tmp_path / "m.json"
    save_models(path, {}, obj)
    with pytest.raises(ValueError) as exc:
        load_models(path)
    assert str(exc.value) == (f'{path}: $.severity["ntd/dos"].scale_std[{where}]: '
                              f"must be > 0, got {shown}")


def test_cluster_levels_rank_intensity_ascending_with_ties_to_the_lower_index():
    low, medium, high = SEVERITY_ORDER
    assert severity.cluster_levels([0.9, 0.1, 0.5]) == (high, low, medium)
    assert severity.cluster_levels([0.5, 0.5, 0.1]) == (medium, high, low)
    assert severity.cluster_levels([0.3, 0.3, 0.3]) == (low, medium, high)


@pytest.mark.parametrize("intensity, levels, ranked", [
    ([0.2, 0.5, 0.8], ["low", "low", "low"], '["low", "medium", "high"]'),
    ([0.9, 0.1, 0.5], ["high", "medium", "low"], '["high", "low", "medium"]'),
    ([0.4, 0.4, 0.9], ["medium", "low", "high"], '["low", "medium", "high"]'),
], ids=["repeated-level", "against-intensity", "tie-to-the-higher-index"])
def test_cluster_levels_fitting_cannot_produce_refused_at_load(intensity, levels, ranked):
    """A loaded entry's levels must be `cluster_levels` of its intensities:
    the only levels fitting writes."""
    mix = {NORMAL: 0.5, "dos": 0.5}
    ds = generate(DatasetKind.CLF, 300, mix, 0, intensity_mode="banded")
    obj = severity_to_obj(fit_severity({DatasetKind.CLF: ds}, 0))
    obj["clf/dos"].update(cluster_mean_intensity=intensity, cluster_level=levels)
    with pytest.raises(ValueError) as exc:
        severity_from_obj(obj)
    assert str(exc.value) == (
        '$.severity["clf/dos"].cluster_level: must rank cluster_mean_intensity ascending '
        f'as low, medium, high: {ranked}, got {json.dumps(levels)}')
    obj["clf/dos"]["cluster_level"] = json.loads(ranked)
    assert severity_from_obj(obj).entries[DatasetKind.CLF, AttackType.DOS].cluster_level == (
        severity.cluster_levels(intensity))


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
            features[list(entry.feature_indices)] = raw
            assert entry.assess(features) is entry.cluster_level[j]

    def test_fitted_entry_is_immutable(self):
        """No field of a fitted entry or model can be reassigned, so the lists
        `assess` reads, converted once, stay those of its arrays."""
        ds = self._banded(DatasetKind.CLF, seed=6)
        model = fit_severity({DatasetKind.CLF: ds}, seed=6)
        entry = model.entries[(DatasetKind.CLF, AttackType.DOS)]
        record = ds.X[ds.labels == "dos"][0]
        level = entry.assess(record)
        for name in ("scale_mean", "scale_std", "centroids", "cluster_level"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(entry, name, getattr(entry, name)[::-1])
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.entries = {}
        assert entry.assess(record) is level

    def test_fitted_entry_arrays_are_read_only(self):
        """An in-place edit of a fitted entry's arrays raises, so the lists
        `assess` converted once cannot go stale; its index and level
        sequences are tuples."""
        ds = self._banded(DatasetKind.CLF, seed=6)
        entry = fit_severity({DatasetKind.CLF: ds}, seed=6).entries[
            (DatasetKind.CLF, AttackType.DOS)]
        entry.assess(ds.X[ds.labels == "dos"][0])
        with pytest.raises(ValueError, match="read-only"):
            entry.centroids[:] = entry.centroids[::-1].copy()
        for name in ("scale_mean", "scale_std", "cluster_mean_intensity"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(entry, name)[0] = 0.0
        assert type(entry.feature_indices) is tuple and type(entry.cluster_level) is tuple
        assert type(severity_to_obj(SeverityModel({(DatasetKind.CLF, AttackType.DOS): entry}))
                    ["clf/dos"]["feature_indices"]) is list

    def test_models_compare_by_identity_and_pickle(self):
        """`==` and `hash()` never look at a model's arrays: two fits of the
        same data are distinct, each is equal to itself and can key a dict,
        and a pickled copy assesses as the original with read-only arrays."""
        ds = self._banded(DatasetKind.CLF, seed=6)
        a, b = (fit_severity({DatasetKind.CLF: ds}, seed=6) for _ in range(2))
        key = (DatasetKind.CLF, AttackType.DOS)
        assert a != b and a == a and a.entries[key] != b.entries[key]
        assert len({a: 0, b: 1, a.entries[key]: 2, b.entries[key]: 3}) == 4
        copy = pickle.loads(pickle.dumps(a))
        records = ds.X[ds.labels == "dos"][:50]
        assert [copy.assess(*key, x) for x in records] == [a.assess(*key, x) for x in records]
        assert not copy.entries[key].centroids.flags.writeable


def _reference_assess(entry, features):
    """The numpy distance the scalar one replaced."""
    x = (np.asarray(features, dtype=float)[list(entry.feature_indices)] - entry.scale_mean) / (
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


def _grid_entry(centroids, levels):
    """An entry over every feature of a record, unscaled."""
    centroids = np.asarray(centroids, dtype=float)
    k, n = centroids.shape
    return SeverityEntry(
        feature_indices=tuple(range(n)),
        scale_mean=np.zeros(n),
        scale_std=np.ones(n),
        centroids=centroids,
        cluster_mean_intensity=np.zeros(k),
        cluster_level=tuple(levels),
    )


def test_running_best_matches_min_on_tied_grids():
    """Centroids and records on a small integer grid, so that many records
    lie equidistant from two or more clusters, with levels that repeat: the
    running best picks the level `min` over (distance, rank) picks."""
    rng = np.random.default_rng(4)
    ties = 0
    for _ in range(200):
        k, n = int(rng.integers(2, 6)), int(rng.integers(1, 4))
        entry = _grid_entry(rng.integers(-2, 3, size=(k, n)),
                            [SEVERITY_ORDER[i] for i in rng.integers(0, 3, size=k)])
        for x in rng.integers(-3, 4, size=(20, n)).astype(float):
            d2 = np.sum((entry.centroids - x) ** 2, axis=1)
            ties += int(np.sum(d2 == d2.min()) > 1)
            assert entry.assess(list(x)) is _reference_assess(entry, x)
    assert ties > 100


class _SameLevel:
    """Equal to one severity level but not that member, so the level
    `assess` returns shows which of two same-level clusters won."""

    def __init__(self, level):
        self.level = level

    def __eq__(self, other):
        return other is self.level or other is self

    __hash__ = object.__hash__


def test_equidistant_lower_severity_at_the_lower_index_is_kept():
    """The lower-index order of `test_equidistant_clusters_resolve_to_lower_severity`."""
    entry = _grid_entry([[0.5, 0.0], [-0.5, 0.0], [0.0, 3.0]],
                        [Severity.LOW, Severity.HIGH, Severity.MEDIUM])
    record = [0.0, 0.0]  # 0.25 from the first two centroids
    assert entry.assess(record) is _reference_assess(entry, record) is Severity.LOW


def test_equidistant_clusters_of_one_level_resolve_to_the_lower_index():
    first, second = _SameLevel(Severity.MEDIUM), _SameLevel(Severity.MEDIUM)
    entry = _grid_entry([[3.0, 3.0], [0.5, 0.0], [-0.5, 0.0]],
                        [Severity.LOW, first, second])
    record = [0.0, 0.0]  # 0.25 from the last two centroids
    assert entry.assess(record) is _reference_assess(entry, record) is first
