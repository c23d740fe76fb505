"""Attack detectors: a bagged decision-tree ensemble and a one-vs-rest
least-squares linear classifier, with accuracy/F1/FAR evaluation and a
versioned JSON model format."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .datagen import Dataset, LABELS, NORMAL

MODEL_FORMAT_VERSION = 1

DEFAULT_N_TREES = 50
DEFAULT_MAX_DEPTH = 10
DEFAULT_MIN_LEAF = 2
RIDGE = 1e-6  # regularization of the linear model's normal equations


class TrainingError(ValueError):
    pass


class EvaluationError(ValueError):
    pass


class PredictionError(ValueError):
    pass


@dataclass
class DecisionTree:
    """Flat-array binary tree. Internal node i splits on feature[i] <=
    threshold[i]; leaves have feature[i] == -1 and a class-probability row."""

    feature: np.ndarray  # (m,) int, -1 for leaf
    threshold: np.ndarray  # (m,) float
    left: np.ndarray  # (m,) int child index
    right: np.ndarray  # (m,) int child index
    proba: np.ndarray  # (m, n_classes) leaf class probabilities

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        n = X.shape[0]
        node = np.zeros(n, dtype=int)
        active = self.feature[node] >= 0
        while active.any():
            idx = np.flatnonzero(active)
            f = self.feature[node[idx]]
            go_left = X[idx, f] <= self.threshold[node[idx]]
            node[idx[go_left]] = self.left[node[idx[go_left]]]
            node[idx[~go_left]] = self.right[node[idx[~go_left]]]
            active = self.feature[node] >= 0
        return self.proba[node]


def _gini_from_counts(counts):
    # counts: (..., n_classes); returns gini impurity per row
    total = counts.sum(axis=-1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        p = counts / total
    g = 1.0 - np.nansum(p * p, axis=-1)
    return np.where(total[..., 0] > 0, g, 0.0)


def _grow_tree(X, y, n_classes, max_depth, min_leaf, max_features, rng):
    features, thresholds, lefts, rights, probas = [], [], [], [], []

    def leaf(idx):
        counts = np.bincount(y[idx], minlength=n_classes).astype(float)
        node = len(features)
        features.append(-1)
        thresholds.append(0.0)
        lefts.append(-1)
        rights.append(-1)
        probas.append(counts / counts.sum())
        return node

    def best_split(idx):
        n = len(idx)
        ys = y[idx]
        parent_counts = np.bincount(ys, minlength=n_classes).astype(float)
        cand = rng.choice(X.shape[1], size=max_features, replace=False)
        best = None  # (impurity, feature, threshold)
        for f in cand:
            vals = X[idx, f]
            order = np.argsort(vals, kind="stable")
            sv, sy = vals[order], ys[order]
            # cumulative class counts over sorted rows; split between distinct values
            onehot = np.zeros((n, n_classes))
            onehot[np.arange(n), sy] = 1.0
            cum = np.cumsum(onehot, axis=0)
            cut = np.flatnonzero(sv[:-1] < sv[1:])  # split after position i
            cut = cut[(cut + 1 >= min_leaf) & (n - cut - 1 >= min_leaf)]
            if len(cut) == 0:
                continue
            left_counts = cum[cut]
            right_counts = parent_counts - left_counts
            nl = cut + 1.0
            nr = n - nl
            impurity = (
                nl * _gini_from_counts(left_counts) + nr * _gini_from_counts(right_counts)
            ) / n
            k = int(np.argmin(impurity))
            if best is None or impurity[k] < best[0]:
                best = (impurity[k], int(f), (sv[cut[k]] + sv[cut[k] + 1]) / 2.0)
        return best

    def build(idx, depth):
        ys = y[idx]
        if depth >= max_depth or len(idx) < 2 * min_leaf or len(np.unique(ys)) == 1:
            return leaf(idx)
        found = best_split(idx)
        if found is None:
            return leaf(idx)
        _, f, thr = found
        node = len(features)
        features.append(f)
        thresholds.append(thr)
        lefts.append(-1)
        rights.append(-1)
        probas.append(np.zeros(n_classes))
        mask = X[idx, f] <= thr
        lefts[node] = build(idx[mask], depth + 1)
        rights[node] = build(idx[~mask], depth + 1)
        return node

    build(np.arange(len(y)), 0)
    return DecisionTree(
        feature=np.array(features, dtype=int),
        threshold=np.array(thresholds, dtype=float),
        left=np.array(lefts, dtype=int),
        right=np.array(rights, dtype=int),
        proba=np.vstack(probas),
    )


@dataclass
class DetectorModel:
    kind: str  # "random_forest" | "linear"
    dataset_kind: str
    feature_names: tuple
    classes: tuple  # declaration order; prediction ties break on this order
    trees: list = field(default_factory=list)
    weights: np.ndarray | None = None  # (d+1, n_classes) for linear

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        if X.ndim != 2 or X.shape[1] != len(self.feature_names):
            raise PredictionError(
                f"expected {len(self.feature_names)} features, got shape {X.shape}"
            )
        if self.kind == "random_forest":
            # majority vote over per-tree argmax votes; ties -> earliest class
            votes = np.zeros((X.shape[0], len(self.classes)))
            for tree in self.trees:
                proba = tree.predict_proba(X)
                votes[np.arange(X.shape[0]), proba.argmax(axis=1)] += 1
            idx = votes.argmax(axis=1)
        else:
            scores = np.column_stack([X, np.ones(X.shape[0])]) @ self.weights
            idx = scores.argmax(axis=1)
        return np.array([self.classes[i] for i in idx])

    def predict(self, features) -> str:
        x = np.asarray(features, dtype=float)
        if x.ndim != 1 or len(x) != len(self.feature_names):
            raise PredictionError(
                f"expected {len(self.feature_names)} features, got {x.shape}"
            )
        return str(self.predict_batch(x[None, :])[0])


@dataclass
class DetectionMetrics:
    accuracy: float
    f1: dict  # class -> F1
    far: dict  # attack class -> false-alarm rate FP/(FP+TN)


def _present_classes(labels):
    present = set(labels)
    return tuple(c for c in LABELS if c in present)


def train_random_forest(
    train: Dataset,
    n_trees: int = DEFAULT_N_TREES,
    max_depth: int = DEFAULT_MAX_DEPTH,
    min_leaf: int = DEFAULT_MIN_LEAF,
    seed: int = 0,
) -> DetectorModel:
    """Bagged trees with sqrt(d) feature subsets per split and Gini splits.
    Each tree grows on a bootstrap sample with a seed derived per tree."""
    if len(train) == 0:
        raise TrainingError("empty training dataset")
    if n_trees < 1:
        raise TrainingError("n_trees must be >= 1")
    classes = _present_classes(train.labels)
    class_idx = {c: i for i, c in enumerate(classes)}
    y = np.array([class_idx[l] for l in train.labels])
    X = train.X
    max_features = max(1, int(np.sqrt(X.shape[1])))
    ss = np.random.SeedSequence(seed)
    trees = []
    for child in ss.spawn(n_trees):
        rng = np.random.default_rng(child)
        boot = rng.integers(0, len(y), size=len(y))
        trees.append(
            _grow_tree(X[boot], y[boot], len(classes), max_depth, min_leaf, max_features, rng)
        )
    return DetectorModel(
        kind="random_forest",
        dataset_kind=train.kind.value,
        feature_names=train.feature_names,
        classes=classes,
        trees=trees,
    )


def train_linear(train: Dataset) -> DetectorModel:
    """One-vs-rest least squares with an intercept and ridge regularization;
    prediction is the argmax of the per-class scores."""
    if len(train) == 0:
        raise TrainingError("empty training dataset")
    classes = _present_classes(train.labels)
    X = np.column_stack([train.X, np.ones(len(train))])
    Y = np.zeros((len(train), len(classes)))
    for j, c in enumerate(classes):
        Y[train.labels == c, j] = 1.0
    gram = X.T @ X + RIDGE * np.eye(X.shape[1])
    try:
        weights = np.linalg.solve(gram, X.T @ Y)
    except np.linalg.LinAlgError as exc:
        raise TrainingError(f"normal equations singular even with ridge: {exc}") from exc
    if not np.all(np.isfinite(weights)):
        raise TrainingError("non-finite weights from normal equations")
    return DetectorModel(
        kind="linear",
        dataset_kind=train.kind.value,
        feature_names=train.feature_names,
        classes=classes,
        weights=weights,
    )


def evaluate(model: DetectorModel, test: Dataset) -> DetectionMetrics:
    if tuple(test.feature_names) != tuple(model.feature_names):
        raise EvaluationError(
            f"schema mismatch: model {model.feature_names} vs data {test.feature_names}"
        )
    pred = model.predict_batch(test.X)
    truth = test.labels
    accuracy = float(np.mean(pred == truth))
    f1, far = {}, {}
    for c in model.classes:
        tp = np.sum((pred == c) & (truth == c))
        fp = np.sum((pred == c) & (truth != c))
        fn = np.sum((pred != c) & (truth == c))
        tn = np.sum((pred != c) & (truth != c))
        denom = 2 * tp + fp + fn
        f1[c] = float(2 * tp / denom) if denom > 0 else 0.0
        if c != NORMAL:
            far[c] = float(fp / (fp + tn)) if (fp + tn) > 0 else 0.0
    return DetectionMetrics(accuracy=accuracy, f1=f1, far=far)


# ---------------------------------------------------------------------------
# Serialization

def _tree_to_obj(tree: DecisionTree):
    return {
        "feature": tree.feature.tolist(),
        "threshold": tree.threshold.tolist(),
        "left": tree.left.tolist(),
        "right": tree.right.tolist(),
        "proba": tree.proba.tolist(),
    }


def _tree_from_obj(obj):
    return DecisionTree(
        feature=np.array(obj["feature"], dtype=int),
        threshold=np.array(obj["threshold"], dtype=float),
        left=np.array(obj["left"], dtype=int),
        right=np.array(obj["right"], dtype=int),
        proba=np.array(obj["proba"], dtype=float),
    )


def model_to_obj(model: DetectorModel):
    obj = {
        "kind": model.kind,
        "dataset_kind": model.dataset_kind,
        "feature_names": list(model.feature_names),
        "classes": list(model.classes),
    }
    if model.kind == "random_forest":
        obj["trees"] = [_tree_to_obj(t) for t in model.trees]
    else:
        obj["weights"] = model.weights.tolist()
    return obj


def model_from_obj(obj) -> DetectorModel:
    return DetectorModel(
        kind=obj["kind"],
        dataset_kind=obj["dataset_kind"],
        feature_names=tuple(obj["feature_names"]),
        classes=tuple(obj["classes"]),
        trees=[_tree_from_obj(t) for t in obj.get("trees", [])],
        weights=np.array(obj["weights"], dtype=float) if "weights" in obj else None,
    )


def save_models(path, models: dict, severity_obj=None):
    """Write detectors (and optionally a severity model) to one versioned
    JSON file keyed by '<dataset_kind>/<model_kind>'."""
    doc = {
        "version": MODEL_FORMAT_VERSION,
        "detectors": {key: model_to_obj(m) for key, m in models.items()},
    }
    if severity_obj is not None:
        doc["severity"] = severity_obj
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_models(path):
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("version") != MODEL_FORMAT_VERSION:
        raise EvaluationError(f"unsupported model file version {doc.get('version')!r}")
    detectors = {key: model_from_obj(obj) for key, obj in doc["detectors"].items()}
    return detectors, doc.get("severity")
