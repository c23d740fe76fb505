"""Attack severity model: chi-square feature selection per attack type and
k-means clustering of attack records, mapping clusters to Low/Medium/High
severity by their mean hidden intensity."""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .datagen import FEATURES, Dataset, DatasetKind, NORMAL
from .model import FittedModel, Severity, SEVERITY_ORDER, AttackType, fields_at, floats_at

K_CLUSTERS = 3
CHI2_BINS = 10
DEFAULT_TOP_K = 5
KMEANS_MAX_ITER = 100
KMEANS_TOL = 1e-6
KMEANS_RESEEDS = 5


class SelectionError(ValueError):
    pass


class FittingError(ValueError):
    pass


class AssessmentError(KeyError):
    pass


def chi_square_statistics(ds: Dataset, attack_type: AttackType) -> np.ndarray:
    """Chi-square statistic per feature against the binary attack-vs-normal
    label, after discretizing each feature into 10 equal-width bins."""
    mask = (ds.labels == attack_type.value) | (ds.labels == NORMAL)
    X = ds.X[mask]
    y = (ds.labels[mask] == attack_type.value).astype(int)
    if len(np.unique(y)) < 2:
        raise SelectionError(
            f"need both {attack_type.value!r} and normal records for selection"
        )
    stats = np.zeros(X.shape[1])
    n = len(y)
    n_pos = y.sum()
    col_totals = np.array([n - n_pos, n_pos], dtype=float)
    for f in range(X.shape[1]):
        vals = X[:, f]
        lo, hi = vals.min(), vals.max()
        if hi - lo <= 0:
            stats[f] = 0.0  # constant feature carries no association
            continue
        bins = np.clip(((vals - lo) / (hi - lo) * CHI2_BINS).astype(int), 0, CHI2_BINS - 1)
        observed = np.zeros((CHI2_BINS, 2))
        np.add.at(observed, (bins, y), 1.0)
        row_totals = observed.sum(axis=1)
        expected = np.outer(row_totals, col_totals) / n
        with np.errstate(invalid="ignore", divide="ignore"):
            terms = (observed - expected) ** 2 / expected
        stats[f] = np.nansum(terms[expected > 0])
    return stats


def chi_square_select(ds: Dataset, attack_type: AttackType, top_k: int) -> list:
    """Indices of the top_k features by chi-square statistic, descending.
    Deterministic; statistic ties break on the lower feature index."""
    stats = chi_square_statistics(ds, attack_type)
    if top_k > len(stats):
        raise SelectionError(f"top_k {top_k} exceeds feature count {len(stats)}")
    order = sorted(range(len(stats)), key=lambda f: (-stats[f], f))
    return order[:top_k]


def _kmeans_pp_init(X, k, rng):
    centroids = [X[rng.integers(len(X))]]
    for _ in range(k - 1):
        d2 = np.min(
            [np.sum((X - c) ** 2, axis=1) for c in centroids], axis=0
        )
        total = d2.sum()
        if total <= 0:
            centroids.append(X[rng.integers(len(X))])
            continue
        probs = d2 / total
        centroids.append(X[rng.choice(len(X), p=probs)])
    return np.array(centroids)


def kmeans(X: np.ndarray, k: int, rng):
    """Lloyd's algorithm with k-means++ seeding. Returns (centroids, labels)
    or raises FittingError if every reseed leaves an empty cluster."""
    if len(X) < k:
        raise FittingError(f"need at least {k} records, got {len(X)}")
    for _ in range(KMEANS_RESEEDS):
        centroids = _kmeans_pp_init(X, k, rng)
        shift = np.inf
        for iteration in range(KMEANS_MAX_ITER + 1):
            d2 = np.sum((X[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
            labels = d2.argmin(axis=1)
            if shift <= KMEANS_TOL or iteration == KMEANS_MAX_ITER:
                return centroids, labels
            if np.bincount(labels, minlength=k).min() == 0:
                break  # an empty cluster: reseed
            new = np.array([X[labels == j].mean(axis=0) for j in range(k)])
            shift = np.max(np.abs(new - centroids))
            centroids = new
    raise FittingError("k-means produced an empty cluster on every reseed")


@dataclass(frozen=True, eq=False)
class SeverityEntry(FittedModel):
    """Fitted severity model for one (dataset kind, attack type) pair: an
    immutable value, compared by identity, so `assess` converts its arrays
    to lists once."""

    feature_indices: tuple
    scale_mean: np.ndarray  # standardization of the selected features
    scale_std: np.ndarray
    centroids: np.ndarray  # (k, top_k) in standardized space
    cluster_mean_intensity: np.ndarray  # (k,)
    cluster_level: tuple  # cluster index -> Severity

    @cached_property
    def _lists(self):
        # one (feature index, mean, std) row per selected feature and the
        # centroids as Python floats, and each cluster's level as its
        # SEVERITY_ORDER rank
        return (tuple(zip(self.feature_indices, self.scale_mean.tolist(),
                          self.scale_std.tolist())),
                self.centroids.tolist(),
                [SEVERITY_ORDER.index(level) for level in self.cluster_level])

    def assess(self, features) -> Severity:
        """The severity of one record: its nearest centroid's level;
        equidistant clusters resolve to the lower severity, then to the lower
        index. The distances are `np.sum((centroids - x) ** 2, axis=1)` on
        Python floats, with the same operations in the same order (numpy sums
        fewer than 8 values as a left fold), and the running best keeps the
        order of `min` over (distance, rank) tuples."""
        scaling, centroids, rank = self._lists
        x = [(float(features[i]) - m) / s for i, m, s in scaling]
        best = best_d2 = None
        for j, centroid in enumerate(centroids):
            d2 = 0.0
            for c, v in zip(centroid, x):
                d2 += (c - v) * (c - v)
            if best is None or (d2 < best_d2 if d2 != best_d2 else rank[j] < rank[best]):
                best, best_d2 = j, d2
        return self.cluster_level[best]


@dataclass(frozen=True, eq=False)
class SeverityModel:
    entries: dict  # (DatasetKind, AttackType) -> SeverityEntry

    def assess(self, kind: DatasetKind, attack_type: AttackType, features) -> Severity:
        entry = self.entries.get((kind, attack_type))
        if entry is None:
            raise AssessmentError(
                f"no severity entry for ({kind.value}, {attack_type.value})"
            )
        return entry.assess(features)


def cluster_levels(cluster_mean_intensity) -> tuple:
    """Each cluster's Severity: ascending mean intensity gives low, medium,
    high, and intensity ties go to the lower cluster index, so the ranking is
    always strict."""
    rank = sorted(range(K_CLUSTERS), key=lambda j: (cluster_mean_intensity[j], j))
    return tuple(SEVERITY_ORDER[rank.index(j)] for j in range(K_CLUSTERS))


def fit_severity_entry(ds: Dataset, attack_type: AttackType, seed: int) -> SeverityEntry:
    """Cluster the type's attack records (k=3) on their chi-square-selected,
    standardized features (the top `DEFAULT_TOP_K`, or all when fewer);
    each cluster's level is its `cluster_levels` rank by mean hidden
    intensity."""
    selected = chi_square_select(ds, attack_type, min(DEFAULT_TOP_K, ds.X.shape[1]))
    mask = ds.labels == attack_type.value
    X = ds.X[mask][:, selected]
    intensity = ds.intensity[mask]
    if len(X) < K_CLUSTERS:
        raise FittingError(
            f"{attack_type.value}: need >= {K_CLUSTERS} attack records, got {len(X)}"
        )
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std[std <= 0] = 1.0
    Z = (X - mean) / std
    rng = np.random.default_rng(seed)
    centroids, labels = kmeans(Z, K_CLUSTERS, rng)
    cluster_intensity = np.array(
        [intensity[labels == j].mean() for j in range(K_CLUSTERS)]
    )
    return SeverityEntry(
        feature_indices=tuple(selected),
        scale_mean=mean,
        scale_std=std,
        centroids=centroids,
        cluster_mean_intensity=cluster_intensity,
        cluster_level=cluster_levels(cluster_intensity),
    )


def fit_severity(datasets: dict, seed: int) -> SeverityModel:
    """Fit entries for every (kind, attack type) with enough records.
    `datasets` maps DatasetKind -> Dataset (with intensity metadata)."""
    entries = {}
    ss = np.random.SeedSequence(seed)
    keys = [(kind, at) for kind in datasets for at in AttackType]
    for child_seed, (kind, at) in zip(ss.generate_state(len(keys)), keys):
        ds = datasets[kind]
        if np.sum(ds.labels == at.value) < K_CLUSTERS:
            continue
        entries[(kind, at)] = fit_severity_entry(ds, at, int(child_seed))
    return SeverityModel(entries=entries)


# ---------------------------------------------------------------------------
# Serialization (embedded in the shared model JSON file)
def severity_to_obj(model: SeverityModel):
    return {
        f"{kind.value}/{at.value}": {
            "feature_indices": list(entry.feature_indices),
            "scale_mean": entry.scale_mean.tolist(),
            "scale_std": entry.scale_std.tolist(),
            "centroids": entry.centroids.tolist(),
            "cluster_mean_intensity": entry.cluster_mean_intensity.tolist(),
            "cluster_level": [lv.value for lv in entry.cluster_level],
        }
        for (kind, at), entry in model.entries.items()
    }


def severity_from_obj(obj) -> SeverityModel:
    """The severity model from its object at `$.severity` in the model file; an
    entry whose fields or shapes are wrong raises ValueError naming its path."""
    entries = {}
    with fields_at("$.severity", obj, ValueError):
        for key, e in obj.items():
            path = f"$.severity[{json.dumps(key)}]"
            kind_name, _, at_name = key.partition("/")
            try:
                kind, at = DatasetKind(kind_name), AttackType(at_name)
            except ValueError:
                raise ValueError(f"{path}: key must be '<dataset kind>/<attack type>'") from None
            entries[(kind, at)] = _entry_from_obj(e, path, len(FEATURES[kind]))
    return SeverityModel(entries=entries)


def _entry_from_obj(e, path, n_features) -> SeverityEntry:
    with fields_at(path, e, ValueError):
        indices, centroids, levels = e["feature_indices"], e["centroids"], e["cluster_level"]
        if not (isinstance(indices, list) and indices
                and all(type(i) is int and 0 <= i < n_features for i in indices)):
            raise ValueError(f"{path}.feature_indices: must be a non-empty array of feature "
                             f"indices in [0, {n_features})")
        n = len(indices)
        centroids = floats_at(f"{path}.centroids", centroids, (K_CLUSTERS, n), ValueError)
        if not (isinstance(levels, list) and len(levels) == K_CLUSTERS):
            raise ValueError(f"{path}.cluster_level: must be {K_CLUSTERS} severity levels")
        scale_std = floats_at(f"{path}.scale_std", e["scale_std"], (n,), ValueError)
        for i, std in enumerate(scale_std.tolist()):
            if std <= 0:  # fitting scales a constant feature by 1.0
                raise ValueError(f"{path}.scale_std[{i}]: must be > 0, got {std!r}")
        intensity = floats_at(f"{path}.cluster_mean_intensity", e["cluster_mean_intensity"],
                              (K_CLUSTERS,), ValueError)
        ranked = cluster_levels(intensity.tolist())
        if levels != (names := [lv.value for lv in ranked]):
            raise ValueError(f"{path}.cluster_level: must rank cluster_mean_intensity ascending "
                             f"as low, medium, high: {json.dumps(names)}, got {json.dumps(levels)}")
        return SeverityEntry(
            feature_indices=tuple(indices),
            scale_mean=floats_at(f"{path}.scale_mean", e["scale_mean"], (n,), ValueError),
            scale_std=scale_std,
            centroids=centroids,
            cluster_mean_intensity=intensity,
            cluster_level=ranked,
        )
