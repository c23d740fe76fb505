"""Attack detectors: a bagged decision-tree ensemble and a one-vs-rest
least-squares linear classifier, with accuracy/F1/FAR evaluation and a
versioned JSON model format."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .datagen import Dataset, LABELS, NORMAL
from .model import array_at, fields_at, floats_at, load_document, parse_file
from .severity import severity_from_obj

MODEL_FORMAT_VERSION = 1

DEFAULT_N_TREES = 50
DEFAULT_MAX_DEPTH = 10
DEFAULT_MIN_LEAF = 2
RIDGE = 1e-6  # regularization of the linear model's normal equations
# The most (row, candidate feature) pairs one step of `_grow_forest` searches.
# On 2,800-row forests of 50 trees (2-vCPU VM), 16,384 fit 2.1x (NTD) and
# 3.3x (CLF) faster than growing one tree at a time, at a traced peak of
# 3.9-4.4 MB against 5.7-7.5 MB; unbounded steps peaked at 27-44 MB, and
# below one NTD root (5,600 pairs) most of the gain was lost.
STEP_PAIRS = 16_384


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


@dataclass(frozen=True)
class _Forest:
    """Every tree of one forest in one node array, walked all at once.

    Tree k's nodes follow tree k-1's, with child indices offset to match.
    Each leaf loops to itself (feature 0, threshold +inf, both children
    itself), so after as many steps as the deepest leaf is deep, every walk
    rests on its leaf. The comparisons are those of a tree-by-tree walk on the
    same float64 values, so the votes are the same."""

    trees: object  # the `DetectorModel.trees` value stacked here, matched by identity
    roots: np.ndarray  # (n_trees,) node index of each tree's root
    feature: np.ndarray  # (nodes,)
    threshold: np.ndarray  # (nodes,)
    children: np.ndarray  # (2 * nodes,): node i goes to children[2i + (x <= threshold)]
    vote: np.ndarray  # (nodes,) class index a leaf votes for
    depth: int

    @classmethod
    def stack(cls, trees, path="$") -> "_Forest":
        """Raises EvaluationError naming (under the model's JSON `path`) the
        first child pointer that leaves its tree's own [0, m) or reaches a node
        a second time (a shared subtree or a cycle): stacked, either would walk
        into a neighbouring tree or never reach a leaf."""
        sizes = np.array([len(t.feature) for t in trees])
        roots = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.intp)
        feature = np.concatenate([t.feature for t in trees]).astype(np.intp)
        threshold = np.concatenate([t.threshold for t in trees]).astype(float)
        # pointer 2i is node i's left child and 2i + 1 its right one, numbered
        # within the node's own tree; only internal nodes' pointers are used
        local = np.column_stack([np.concatenate([t.left for t in trees]),
                                 np.concatenate([t.right for t in trees])]).ravel()
        used = np.repeat(feature >= 0, 2)

        def pointer(p):
            k = int(np.searchsorted(roots, p // 2, side="right")) - 1
            return k, f"{path}.trees[{k}].{('left', 'right')[p % 2]}[{p // 2 - roots[k]}]"

        outside = used & ((local < 0) | (local >= np.repeat(sizes, 2 * sizes)))
        if outside.any():
            p = int(np.argmax(outside))
            k, name = pointer(p)
            raise EvaluationError(f"{name}: child {local[p]} outside [0, {sizes[k]})")
        child = np.where(used, local + np.repeat(roots, 2 * sizes),
                         np.repeat(np.arange(len(feature)), 2))
        arrivals = np.bincount(child[used], minlength=len(feature))
        arrivals[roots] += 1
        if arrivals.max() > 1:
            reached = set(roots.tolist())
            for p in np.flatnonzero(used).tolist():
                if child[p] in reached:
                    raise EvaluationError(f"{pointer(p)[1]}: node {local[p]} reached twice")
                reached.add(child[p])
        child = child.reshape(-1, 2)  # (left, right) of each node; a leaf's are itself
        depth, level = 0, roots
        while len(level := level[feature[level] >= 0]):
            level = child[level].ravel()
            depth += 1
        leaf = feature < 0
        feature[leaf] = 0
        threshold[leaf] = np.inf
        return cls(
            trees=trees,
            roots=roots,
            feature=feature,
            threshold=threshold,
            children=child[:, ::-1].ravel(),
            vote=np.concatenate([t.proba.argmax(axis=1) for t in trees]),
            depth=depth,
        )

    def predict(self, X: np.ndarray, n_classes: int) -> np.ndarray:
        """Class index per row: the majority of the per-tree votes, ties to
        the earliest class."""
        n = X.shape[0]
        rows = np.arange(n)[:, None]
        node = self.roots  # broadcasts against `rows` to (n, n_trees)
        for _ in range(self.depth):
            go_left = X[rows, self.feature[node]] <= self.threshold[node]
            node = self.children[2 * node + go_left]
        cells = (rows * n_classes + self.vote[node]).ravel()
        counts = np.bincount(cells, minlength=n * n_classes).reshape(n, n_classes)
        return counts.argmax(axis=1)


def _gini(counts, sizes):
    """Gini impurity of each row of class `counts` (k, n_classes) holding
    `sizes` (k,) rows: 1 - sum of p * p, the squares added in class order
    (as `np.sum` adds fewer than 8 terms), so the floats match a per-node
    `np.sum(p * p, axis=-1)`."""
    square_sum = 0.0
    for c in range(counts.shape[1]):
        p = counts[:, c] / sizes
        square_sum = square_sum + p * p
    return 1.0 - square_sum


def _best_splits(X, y, rank, rows, sizes, counts, cand, min_leaf):
    """The Gini split of each of m nodes, searched in one pass.

    Node j holds `sizes[j]` rows of `rows` (in node order) with class
    `counts[j]` and tries the features `cand[j]` (m, F). Returns (feature,
    threshold, found) per node: the first feature in `cand[j]` order with the
    strictly lowest impurity, its first minimal cut, and the midpoint of the
    two values around it; `found` is False where no cut leaves `min_leaf`
    rows on both sides."""
    m, n_cand = cand.shape
    d = X.shape[1]
    node_of = np.repeat(np.arange(m), sizes)
    # segment c * m + j holds node j's rows under its c-th candidate, as flat
    # indices row * d + feature into X and `rank`
    seg_sizes = np.tile(sizes, n_cand)
    seg_start = np.concatenate([[0], np.cumsum(seg_sizes)[:-1]])
    seg = np.repeat(np.arange(m * n_cand), seg_sizes)
    flat = np.tile(rows, n_cand) * d + cand[node_of].T.ravel()
    # each segment sorted by value, ties in node order: per-node stable argsorts
    flat = flat[np.argsort(seg * len(rank) + rank.take(flat), kind="stable")]
    sv = X.take(flat)
    # cum[g]: class counts of the segment's sorted rows up to position g,
    # plus those of the segments before it
    cum = np.cumsum(np.eye(counts.shape[1], dtype=np.intp).take(y.take(flat // d), axis=0),
                    axis=0)
    before = cum.take(seg_start - 1, axis=0)
    before[0] = 0

    # a cut after sorted position g splits between two distinct values
    cut = np.flatnonzero((sv[:-1] < sv[1:]) & (seg[:-1] == seg[1:]))
    cut_seg = seg[cut]
    n_seg = seg_sizes[cut_seg]
    nl = cut + 1 - seg_start[cut_seg]
    ok = (nl >= min_leaf) & (n_seg - nl >= min_leaf)
    cut, cut_seg, n_seg, nl = cut[ok], cut_seg[ok], n_seg[ok], nl[ok]
    nr = n_seg - nl
    left = cum.take(cut, axis=0) - before.take(cut_seg, axis=0)
    right = counts.take(cut_seg % m, axis=0) - left
    impurity = (nl * _gini(left, nl) + nr * _gini(right, nr)) / n_seg

    # the first minimal cut of each segment, then the first minimal candidate
    seg_best = np.full(m * n_cand, np.inf)
    np.minimum.at(seg_best, cut_seg, impurity)
    hit = np.flatnonzero(impurity == seg_best[cut_seg])
    hit_seg = cut_seg[hit]
    first = hit[np.flatnonzero(np.diff(hit_seg, prepend=-1))]  # cut_seg is sorted
    seg_cut = np.zeros(m * n_cand, dtype=np.intp)
    seg_cut[cut_seg[first]] = cut[first]
    choice = seg_best.reshape(n_cand, m).argmin(axis=0)
    best = choice * m + np.arange(m)
    g = seg_cut[best]
    return (cand[np.arange(m), choice], (sv[g] + sv[g + 1]) / 2.0,
            np.isfinite(seg_best[best]))


def _grow_forest(X, y, n_classes, max_depth, min_leaf, max_features, rngs):
    """One tree per generator in `rngs`, each on a bootstrap of (X, y) it
    draws with `rng.integers`, all grown together.

    Each tree keeps a preorder stack of (rows, depth, parent slot). A step
    takes the top node of every tree with nodes left, up to `STEP_PAIRS`
    (row, candidate) pairs, and searches their splits in one pass; each split
    attempt draws its candidates with `rng.choice` in its tree's preorder.
    Every tree equals the one a node-by-node recursive grower builds from the
    same generator."""
    n = len(y)
    rank = np.empty(X.shape, dtype=np.intp)  # each value's dense rank in its column
    for f in range(X.shape[1]):
        rank[:, f] = np.unique(X[:, f], return_inverse=True)[1]
    stacks = [[(rng.integers(0, n, size=n), 0, None)] for rng in rngs]
    nodes = [([], [], [], [], []) for _ in rngs]  # feature, threshold, left, right, proba
    while True:
        taken, pairs = [], 0
        for k, stack in enumerate(stacks):
            if stack and (not taken or pairs + len(stack[-1][0]) * max_features <= STEP_PAIRS):
                taken.append(k)
                pairs += len(stack[-1][0]) * max_features
        if not taken:
            break
        items = [stacks[k].pop() for k in taken]
        sizes = np.array([len(rows) for rows, _, _ in items])
        rows = np.concatenate([rows for rows, _, _ in items])
        node_of = np.repeat(np.arange(len(items)), sizes)
        counts = np.bincount(node_of * n_classes + y[rows],
                             minlength=len(items) * n_classes).reshape(-1, n_classes)
        depths = np.array([depth for _, depth, _ in items])
        tries = (depths < max_depth) & (sizes >= 2 * min_leaf) & (counts.max(axis=1) < sizes)
        attempt = np.flatnonzero(tries)
        feature = np.full(len(items), -1)
        threshold = np.zeros(len(items))
        if len(attempt):
            cand = np.array([rngs[taken[j]].choice(X.shape[1], size=max_features, replace=False)
                             for j in attempt])
            f, thr, found = _best_splits(X, y, rank, rows[tries[node_of]], sizes[attempt],
                                         counts[attempt], cand, min_leaf)
            feature[attempt[found]] = f[found]
            threshold[attempt[found]] = thr[found]
        # one comparison partitions every split node's rows (a leaf's go unused)
        go_left = X.take(rows * X.shape[1] + feature[node_of]) <= threshold[node_of]
        proba = counts / sizes[:, None]
        proba[feature >= 0] = 0.0
        start, ends = 0, np.cumsum(sizes).tolist()
        for k, (node_rows, depth, slot), f, thr, p, end in zip(
                taken, items, feature.tolist(), threshold.tolist(), proba, ends):
            features, thresholds, lefts, rights, probas = nodes[k]
            node = len(features)
            if slot is not None:
                slot[0][slot[1]] = node
            features.append(f)
            thresholds.append(thr)
            lefts.append(-1)
            rights.append(-1)
            probas.append(p)
            if f >= 0:
                mask = go_left[start:end]
                stacks[k].append((node_rows[~mask], depth + 1, (rights, node)))
                stacks[k].append((node_rows[mask], depth + 1, (lefts, node)))
            start = end
    return [
        DecisionTree(
            feature=np.array(features, dtype=int),
            threshold=np.array(thresholds, dtype=float),
            left=np.array(lefts, dtype=int),
            right=np.array(rights, dtype=int),
            proba=np.vstack(probas),
        )
        for features, thresholds, lefts, rights, probas in nodes
    ]


@dataclass
class DetectorModel:
    kind: str  # "random_forest" | "linear"
    dataset_kind: str
    feature_names: tuple
    classes: tuple  # declaration order; prediction ties break on this order
    trees: tuple = ()  # replaced as a whole, never edited in place
    weights: np.ndarray | None = None  # (d+1, n_classes) for linear
    _forest: _Forest | None = field(default=None, init=False, repr=False, compare=False)

    def _stacked(self) -> _Forest:
        # restacked whenever `trees` is reassigned
        if self._forest is None or self._forest.trees is not self.trees:
            self._forest = _Forest.stack(self.trees)
        return self._forest

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        if X.ndim != 2 or X.shape[1] != len(self.feature_names):
            raise PredictionError(
                f"expected {len(self.feature_names)} features, got shape {X.shape}"
            )
        if self.kind == "random_forest":
            idx = self._stacked().predict(X, len(self.classes))
        else:
            scores = np.column_stack([X, np.ones(X.shape[0])]) @ self.weights
            idx = scores.argmax(axis=1)
        return np.array([self.classes[i] for i in idx])

    def predict(self, features) -> str:
        """The class of one record; `predict_batch` checks its feature count."""
        return str(self.predict_batch(np.asarray(features, dtype=float).reshape(1, -1))[0])


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
    rngs = [np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(n_trees)]
    trees = _grow_forest(X, y, len(classes), max_depth, min_leaf, max_features, rngs)
    return DetectorModel(
        kind="random_forest",
        dataset_kind=train.kind.value,
        feature_names=train.feature_names,
        classes=classes,
        trees=tuple(trees),
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

# each tree array and the dtype it loads as, in file order
_TREE_FIELDS = {"feature": int, "threshold": float, "left": int, "right": int, "proba": float}


def _tree_from_obj(obj, path, n_features, n_classes):
    """A tree from its JSON object, refusing arrays the forest cannot stack;
    `_Forest.stack` checks the child pointers."""
    with fields_at(path, obj, EvaluationError):
        columns = {key: obj[key] for key in _TREE_FIELDS}
    m = len(columns["feature"]) if isinstance(columns["feature"], list) else 0
    for key, column in columns.items():
        if not (isinstance(column, list) and m):
            raise EvaluationError(f"{path}.{key}: must be a non-empty array")
        if len(column) != m:
            raise EvaluationError(f"{path}.{key}: {len(column)} entries, feature has {m}")
    for i, row in enumerate(columns["proba"]):
        if not isinstance(row, list) or len(row) != n_classes:
            raise EvaluationError(f"{path}.proba[{i}]: must hold {n_classes} probabilities, "
                                  "one per class")
    try:
        tree = DecisionTree(**{key: np.array(columns[key], dtype=dtype)
                               for key, dtype in _TREE_FIELDS.items()})
    except (TypeError, ValueError) as exc:
        raise EvaluationError(f"{path}: {exc}") from None
    bad = np.flatnonzero((tree.feature < -1) | (tree.feature >= n_features))
    if len(bad):
        raise EvaluationError(f"{path}.feature[{bad[0]}]: feature {tree.feature[bad[0]]} "
                              f"outside [-1, {n_features})")
    return tree


def model_to_obj(model: DetectorModel):
    obj = {
        "kind": model.kind,
        "dataset_kind": model.dataset_kind,
        "feature_names": list(model.feature_names),
        "classes": list(model.classes),
    }
    if model.kind == "random_forest":
        obj["trees"] = [{key: getattr(t, key).tolist() for key in _TREE_FIELDS}
                        for t in model.trees]
    else:
        obj["weights"] = model.weights.tolist()
    return obj


def model_from_obj(obj, path) -> DetectorModel:
    """A detector from its JSON object at JSON path `path`; a missing field, an
    unknown kind, a wrong shape or a malformed tree raises EvaluationError."""
    with fields_at(path, obj, EvaluationError):
        kind = obj["kind"]
        if kind not in ("random_forest", "linear"):
            raise EvaluationError(f"{path}.kind: must be 'random_forest' or 'linear', got {kind!r}")
        names, classes = (tuple(array_at(f"{path}.{key}", obj[key], EvaluationError))
                          for key in ("feature_names", "classes"))
        model = DetectorModel(kind=kind, dataset_kind=obj["dataset_kind"],
                              feature_names=names, classes=classes)
        params = obj["trees" if kind == "random_forest" else "weights"]
    if kind == "linear":
        model.weights = floats_at(f"{path}.weights", params,
                                  (len(names) + 1, len(classes)), EvaluationError)
        return model
    if not isinstance(params, list) or not params:
        raise EvaluationError(f"{path}.trees: must be a non-empty array")
    model.trees = tuple(
        _tree_from_obj(t, f"{path}.trees[{k}]", len(names), len(classes))
        for k, t in enumerate(params)
    )
    model._forest = _Forest.stack(model.trees, path)  # checks every child pointer
    return model


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
        fh.write(json.dumps(doc))  # the C encoder; json.dump encodes in Python


def load_models(path):
    """Detectors and the raw severity object from a model file; malformed input
    raises `<file>: <JSON path>: <message>` (ValueError for severity, else EvaluationError)."""
    return parse_file(path, _models_from_json)


def _models_from_json(text):
    doc = load_document(text, EvaluationError)
    if doc.get("version") != MODEL_FORMAT_VERSION:
        raise EvaluationError(f"$.version: unsupported model file version {doc.get('version')!r}")
    with fields_at("$", doc, EvaluationError):
        with fields_at("$.detectors", doc["detectors"], EvaluationError) as detectors:
            models = {key: model_from_obj(obj, f"$.detectors[{json.dumps(key)}]")
                      for key, obj in detectors.items()}
    severity_obj = doc.get("severity")
    if severity_obj is not None:
        severity_from_obj(severity_obj)  # checks every entry before any run
    return models, severity_obj
