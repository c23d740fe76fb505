"""Detectors: random forest, linear one-vs-rest, metrics, serialization."""

import json
import tracemalloc

import numpy as np
import pytest

from secflow.cli import DEFAULT_MIX

from secflow.datagen import (
    CLF_FEATURES,
    LABELS,
    Dataset,
    DatasetKind,
    NORMAL,
    generate,
    split,
)
from secflow.detection import (
    DEFAULT_MAX_DEPTH,
    DecisionTree,
    DetectorModel,
    EvaluationError,
    PredictionError,
    TrainingError,
    evaluate,
    load_models,
    model_to_obj,
    save_models,
    train_linear,
    train_random_forest,
)

UNIFORM_MIX = {label: 1.0 / len(LABELS) for label in LABELS}


def _reference_predict(model, X):
    """Tree-by-tree scalar walk: each tree votes for the most probable class
    of the leaf the row reaches; most votes win, ties to the earliest class."""
    labels = []
    for x in X:
        votes = [0] * len(model.classes)
        for tree in model.trees:
            node = 0
            while tree.feature[node] >= 0:
                if x[tree.feature[node]] <= tree.threshold[node]:
                    node = tree.left[node]
                else:
                    node = tree.right[node]
            votes[int(np.argmax(tree.proba[node]))] += 1
        labels.append(model.classes[votes.index(max(votes))])
    return labels


def _depth(tree, node=0):
    if tree.feature[node] < 0:
        return 0
    return 1 + max(_depth(tree, tree.left[node]), _depth(tree, tree.right[node]))


def _leaf(proba):
    return DecisionTree(
        feature=np.array([-1]),
        threshold=np.array([0.0]),
        left=np.array([-1]),
        right=np.array([-1]),
        proba=np.array([proba], dtype=float),
    )


def _forest(trees, classes=(NORMAL, "dos")):
    return DetectorModel(
        kind="random_forest",
        dataset_kind=DatasetKind.CLF.value,
        feature_names=CLF_FEATURES,
        classes=classes,
        trees=tuple(trees),
    )


def _dataset(X, labels, kind=DatasetKind.CLF, names=CLF_FEATURES):
    X = np.asarray(X, dtype=float)
    labels = np.asarray(labels)
    return Dataset(kind, names, X, labels, np.zeros(len(labels)))


def _xor_dataset(n_per=40, jitter=0.05, seed=0):
    # 4 tight clusters in a 2-feature XOR layout (third feature constant);
    # no single linear boundary separates the two classes
    rng = np.random.default_rng(seed)
    rows, labels = [], []
    for cx, cy, label in [
        (0, 0, NORMAL),
        (1, 1, NORMAL),
        (0, 1, "dos"),
        (1, 0, "dos"),
    ]:
        pts = rng.normal([cx, cy, 0.5], jitter, size=(n_per, 3))
        rows.append(pts)
        labels.extend([label] * n_per)
    return _dataset(np.vstack(rows), labels)


def _gini_from_counts(counts):
    # counts: (..., n_classes); returns gini impurity per row
    total = counts.sum(axis=-1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        p = counts / total
    g = 1.0 - np.nansum(p * p, axis=-1)
    return np.where(total[..., 0] > 0, g, 0.0)


def _reference_grow_tree(X, y, n_classes, max_depth, min_leaf, max_features, rng):
    """One tree grown node by node, recursively: the grower the forest
    grower must reproduce byte for byte."""
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


def _reference_forest(train, n_trees=50, max_depth=DEFAULT_MAX_DEPTH, min_leaf=2, seed=0):
    """`train_random_forest` with its trees grown one at a time by the
    reference grower, each from its own generator and bootstrap."""
    classes = tuple(c for c in LABELS if c in set(train.labels))
    y = np.array([classes.index(label) for label in train.labels])
    max_features = max(1, int(np.sqrt(train.X.shape[1])))
    trees = []
    for child in np.random.SeedSequence(seed).spawn(n_trees):
        rng = np.random.default_rng(child)
        boot = rng.integers(0, len(y), size=len(y))
        trees.append(_reference_grow_tree(train.X[boot], y[boot], len(classes), max_depth,
                                          min_leaf, max_features, rng))
    return DetectorModel(kind="random_forest", dataset_kind=train.kind.value,
                         feature_names=train.feature_names, classes=classes, trees=tuple(trees))


def _train_detect_split(kind, seed=0):
    """The training rows of a train-detect round: 2,800 of 4,000 records."""
    return split(generate(kind, 4000, DEFAULT_MIX, seed=seed), 0.7, seed=seed)[0]


def _small_ntd():
    return split(generate(DatasetKind.NTD, 800, DEFAULT_MIX, seed=3), 0.7, seed=3)[0]


def _const_feature():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(300, 3))
    X[:, 1] = 3.0
    return _dataset(X, rng.choice([NORMAL, "dos", "probe"], size=300))


_GROWTH_CASES = {
    "ntd-50-trees": (lambda: _train_detect_split(DatasetKind.NTD), {}),
    "clf-50-trees": (lambda: _train_detect_split(DatasetKind.CLF, seed=1), {"seed": 1}),
    "depth-14-min-leaf-1": (_small_ntd, {"n_trees": 10, "max_depth": 14, "min_leaf": 1}),
    "depth-1-min-leaf-15": (_small_ntd, {"n_trees": 10, "max_depth": 1, "min_leaf": 15}),
    "min-leaf-0": (_small_ntd, {"n_trees": 10, "min_leaf": 0, "seed": 2}),
    "one-tree": (_small_ntd, {"n_trees": 1, "seed": 3}),
    "single-class": (lambda: _dataset(np.random.default_rng(0).normal(size=(60, 3)),
                                      ["dos"] * 60), {"n_trees": 5}),
    "constant-feature": (_const_feature, {"n_trees": 10}),
    # every row identical: no cut is valid, so each root is a leaf after its draw
    "identical-rows": (lambda: _dataset(np.ones((40, 3)), [NORMAL, "dos"] * 20),
                       {"n_trees": 5}),
}


@pytest.mark.parametrize("case", list(_GROWTH_CASES))
def test_forest_equals_tree_by_tree_growth(case):
    make, params = _GROWTH_CASES[case]
    train = make()
    grown = train_random_forest(train, **params)
    expected = _reference_forest(train, **params)
    assert json.dumps(model_to_obj(grown)) == json.dumps(model_to_obj(expected))


def test_forest_fit_memory_is_bounded():
    # a train-detect NTD fit; growing every tree's node in one step peaks at about 44 MB
    train = _train_detect_split(DatasetKind.NTD)
    tracemalloc.start()
    try:
        train_random_forest(train)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


class TestRandomForest:
    def test_single_class_always_predicted(self):
        ds = _dataset(np.random.default_rng(0).normal(size=(30, 3)), [NORMAL] * 30)
        model = train_random_forest(ds, seed=0)
        assert model.predict([0.0, 0.0, 0.0]) == NORMAL

    def test_xor_toy_forest_beats_linear(self):
        ds = _xor_dataset()
        forest = train_random_forest(ds, seed=1)
        linear = train_linear(ds)
        forest_acc = evaluate(forest, ds).accuracy
        linear_acc = evaluate(linear, ds).accuracy
        assert forest_acc == 1.0
        assert linear_acc <= 0.75 + 1e-9

    def test_same_seed_identical_predictions(self):
        ds = generate(DatasetKind.CLF, 400, {NORMAL: 0.5, "dos": 0.5}, seed=3)
        probe = generate(DatasetKind.CLF, 50, {NORMAL: 0.5, "dos": 0.5}, seed=4)
        a = train_random_forest(ds, seed=9)
        b = train_random_forest(ds, seed=9)
        assert list(a.predict_batch(probe.X)) == list(b.predict_batch(probe.X))

    def test_majority_vote_matches_per_tree_tally(self):
        for kind in (DatasetKind.NTD, DatasetKind.CLF):
            ds = generate(kind, 1500, UNIFORM_MIX, seed=5)
            train, held_out = split(ds, 0.8, seed=5)
            model = train_random_forest(train, n_trees=15, seed=2)
            expected = _reference_predict(model, held_out.X)
            assert list(model.predict_batch(held_out.X)) == expected
            assert [model.predict(x) for x in held_out.X] == expected

    def test_prediction_invariant_under_tree_reordering(self):
        ds = generate(DatasetKind.CLF, 300, {NORMAL: 0.5, "u2r": 0.5}, seed=7)
        probe = generate(DatasetKind.CLF, 40, {NORMAL: 0.5, "u2r": 0.5}, seed=8)
        model = train_random_forest(ds, n_trees=9, seed=3)
        before = list(model.predict_batch(probe.X))
        model.trees = list(reversed(model.trees))
        assert list(model.predict_batch(probe.X)) == before

    def test_reassigned_trees_predict_as_that_subset(self):
        ds = generate(DatasetKind.NTD, 800, UNIFORM_MIX, seed=9)
        probe = generate(DatasetKind.NTD, 300, UNIFORM_MIX, seed=10)
        model = train_random_forest(ds, n_trees=9, seed=4)
        full = list(model.predict_batch(probe.X))
        model.trees = model.trees[2:4]
        subset = list(model.predict_batch(probe.X))
        assert subset == _reference_predict(model, probe.X)
        assert subset != full
        assert [model.predict(x) for x in probe.X] == subset

    def test_deep_forest_survives_save_and_load(self, tmp_path):
        # labels independent of the features: the trees grow to max_depth
        rng = np.random.default_rng(11)
        X = rng.normal(size=(1500, 3))
        ds = _dataset(X[:1200], rng.choice([NORMAL, "dos"], size=1200))
        model = train_random_forest(ds, n_trees=10, max_depth=14, min_leaf=1, seed=5)
        assert max(_depth(t) for t in model.trees) > DEFAULT_MAX_DEPTH
        path = tmp_path / "models.json"
        save_models(path, {"clf/random_forest": model})
        loaded = load_models(path)[0]["clf/random_forest"]
        expected = _reference_predict(model, X[1200:])
        assert list(loaded.predict_batch(X[1200:])) == expected
        assert [loaded.predict(x) for x in X[1200:]] == expected

    def test_forest_of_single_leaves(self):
        model = _forest([_leaf([0.2, 0.8]), _leaf([0.9, 0.1]), _leaf([0.4, 0.6])])
        X = np.random.default_rng(0).normal(size=(5, 3))
        assert list(model.predict_batch(X)) == ["dos"] * 5
        assert model.predict(X[0]) == "dos"

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_two_class_tie_goes_to_earliest_class(self, order):
        split_tree = DecisionTree(
            feature=np.array([1, -1, -1]),
            threshold=np.array([0.5, 0.0, 0.0]),
            left=np.array([1, -1, -1]),
            right=np.array([2, -1, -1]),
            proba=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        )
        trees = [split_tree, _leaf([0.0, 1.0]), _leaf([1.0, 0.0]), _leaf([0.0, 1.0])]
        # a row going left ties 2:2, one going right votes 3:1 for NORMAL
        model = _forest([trees[i] for i in order] + trees[2:], classes=("dos", NORMAL))
        X = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert list(model.predict_batch(X)) == ["dos", NORMAL]

    def test_empty_dataset_rejected(self):
        empty = _dataset(np.zeros((0, 3)), [])
        with pytest.raises(TrainingError):
            train_random_forest(empty)


class TestLinear:
    def test_separable_blobs_high_accuracy(self):
        rng = np.random.default_rng(0)
        X = np.vstack(
            [rng.normal(0.0, 0.05, size=(200, 3)), rng.normal(1.0, 0.05, size=(200, 3))]
        )
        ds = _dataset(X, [NORMAL] * 200 + ["dos"] * 200)
        train, test = split(ds, 0.7, seed=0)
        model = train_linear(train)
        assert evaluate(model, test).accuracy >= 0.99

    def test_constant_feature_still_solvable(self):
        rng = np.random.default_rng(1)
        X = np.column_stack(
            [rng.normal(size=100), np.full(100, 3.0), rng.normal(size=100)]
        )
        labels = np.where(X[:, 0] > 0, "dos", NORMAL)
        model = train_linear(_dataset(X, labels))
        assert np.all(np.isfinite(model.weights))

    def test_one_point_per_class_interpolates(self):
        ds = _dataset([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]], [NORMAL, "dos"])
        model = train_linear(ds)
        assert model.predict([0.0, 0.0, 0.0]) == NORMAL
        assert model.predict([1.0, 1.0, 1.0]) == "dos"


class TestEvaluate:
    def test_perfect_classifier(self):
        ds = _xor_dataset()
        model = train_random_forest(ds, seed=1)
        metrics = evaluate(model, ds)
        assert metrics.accuracy == 1.0
        assert all(v == 1.0 for v in metrics.f1.values())
        assert all(v == 0.0 for v in metrics.far.values())

    def test_all_normal_on_70_30(self):
        # degenerate single-class model applied to a 70/30 normal/dos set
        train = _dataset(np.zeros((10, 3)), [NORMAL] * 10)
        model = train_random_forest(train, seed=0)
        rng = np.random.default_rng(2)
        test_ds = Dataset(
            DatasetKind.CLF,
            CLF_FEATURES,
            rng.normal(size=(100, 3)),
            np.array([NORMAL] * 70 + ["dos"] * 30),
            np.zeros(100),
        )
        # evaluate against the model's class list: only NORMAL is known, so
        # craft a two-class model trained on both but predicting all-normal
        both = _dataset(np.zeros((20, 3)), [NORMAL] * 19 + ["dos"])
        model = train_random_forest(both, n_trees=1, max_depth=1, min_leaf=15, seed=0)
        pred = model.predict_batch(test_ds.X)
        assert set(pred) == {NORMAL}
        metrics = evaluate(model, test_ds)
        assert metrics.accuracy == pytest.approx(0.7)
        assert metrics.f1["dos"] == 0.0
        assert metrics.far["dos"] == 0.0

    def test_total_miss_accuracy_zero(self):
        ds = _dataset([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]], [NORMAL, "dos"])
        model = train_linear(ds)
        swapped = _dataset([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]], ["dos", NORMAL])
        assert evaluate(model, swapped).accuracy == 0.0

    def test_schema_mismatch_rejected(self):
        ds = _xor_dataset()
        model = train_random_forest(ds, seed=0)
        ntd = generate(DatasetKind.NTD, 10, {NORMAL: 1.0}, seed=0)
        with pytest.raises(EvaluationError):
            evaluate(model, ntd)

    def test_accuracy_is_frequency_weighted_recall(self):
        ds = generate(DatasetKind.CLF, 600, {NORMAL: 0.5, "dos": 0.3, "r2l": 0.2}, seed=4)
        train, test = split(ds, 0.7, seed=4)
        model = train_random_forest(train, seed=4)
        pred = model.predict_batch(test.X)
        metrics = evaluate(model, test)
        weighted = 0.0
        for c in model.classes:
            mask = test.labels == c
            if mask.sum():
                weighted += mask.mean() * np.mean(pred[mask] == c)
        assert metrics.accuracy == pytest.approx(weighted)


class TestPredict:
    def test_wrong_arity_rejected(self):
        ds = _xor_dataset()
        model = train_random_forest(ds, seed=0)
        with pytest.raises(PredictionError):
            model.predict([1.0, 2.0])


class TestSerialization:
    def test_save_load_round_trip(self, tmp_path):
        ds = generate(DatasetKind.CLF, 300, {NORMAL: 0.5, "dos": 0.5}, seed=5)
        probe = generate(DatasetKind.CLF, 40, {NORMAL: 0.5, "dos": 0.5}, seed=6)
        models = {
            "clf/random_forest": train_random_forest(ds, n_trees=5, seed=1),
            "clf/linear": train_linear(ds),
        }
        path = tmp_path / "models.json"
        save_models(path, models)
        restored, severity_obj = load_models(path)
        assert severity_obj is None
        for key in models:
            assert list(restored[key].predict_batch(probe.X)) == list(
                models[key].predict_batch(probe.X)
            )


def _break_missing_key(tree):
    del tree["right"]
    return "trees[1]: missing field 'right'"


def _break_unequal_length(tree):
    tree["threshold"].pop()
    m = len(tree["feature"])
    return f"trees[1].threshold: {m - 1} entries, feature has {m}"


def _break_child_range(tree):
    m = len(tree["feature"])
    tree["left"][0] = m
    return f"trees[1].left[0]: child {m} outside [0, {m})"


def _break_shared_node(tree):
    tree["right"][0] = tree["left"][0]
    return f"trees[1].right[0]: node {tree['left'][0]} reached twice"


def _break_cycle(tree):
    tree["right"][0] = 0
    return "trees[1].right[0]: node 0 reached twice"


def _break_feature_range(tree):
    tree["feature"][0] = len(CLF_FEATURES)
    return f"trees[1].feature[0]: feature {len(CLF_FEATURES)} outside [-1, {len(CLF_FEATURES)})"


def _break_proba_width(tree):
    tree["proba"][2].pop()
    return "trees[1].proba[2]: must hold 2 probabilities, one per class"


@pytest.mark.parametrize(
    "corrupt",
    [_break_missing_key, _break_unequal_length, _break_child_range, _break_shared_node,
     _break_cycle, _break_feature_range, _break_proba_width],
    ids=["missing-key", "unequal-length", "child-range", "shared-node", "cycle",
         "feature-range", "proba-width"],
)
def test_malformed_forest_refused_at_load(tmp_path, corrupt):
    ds = generate(DatasetKind.CLF, 300, {NORMAL: 0.5, "dos": 0.5}, seed=5)
    model = train_random_forest(ds, n_trees=3, seed=1)
    assert all(t.feature[0] >= 0 for t in model.trees)  # every root splits
    path = tmp_path / "models.json"
    save_models(path, {"clf/random_forest": model})
    doc = json.loads(path.read_text())
    where = corrupt(doc["detectors"]["clf/random_forest"]["trees"][1])
    path.write_text(json.dumps(doc))
    with pytest.raises(EvaluationError) as exc:
        load_models(path)
    assert str(exc.value) == f'{path}: $.detectors["clf/random_forest"].{where}'
