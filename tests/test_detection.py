"""Detectors: random forest, linear one-vs-rest, metrics, serialization."""

import dataclasses
import functools
import json
import pickle
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secflow import detection
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
from secflow.severity import fit_severity, severity_to_obj

UNIFORM_MIX = {label: 1.0 / len(LABELS) for label in LABELS}


def _reference_votes(model, X):
    """Tree-by-tree scalar walk: each row's votes per class, each tree voting
    for the class of the leaf the row reaches."""
    tallies = []
    for x in X:
        votes = [0] * len(model.classes)
        for tree in model.trees:
            node = 0
            while tree.feature[node] >= 0:
                if x[tree.feature[node]] <= tree.threshold[node]:
                    node = tree.left[node]
                else:
                    node = tree.right[node]
            votes[tree.vote[node]] += 1
        tallies.append(votes)
    return tallies


def _reference_predict(model, X):
    """Most votes win, ties to the earliest class."""
    return [model.classes[votes.index(max(votes))] for votes in _reference_votes(model, X)]


def _batch_walk(forest, X, n_classes):
    """The step walk of a batch, one level per step: the expression a single
    row also went through before it compared itself with every node at once."""
    n = X.shape[0]
    rows = np.arange(n)[:, None]
    node = forest.roots
    for _ in forest.levels:
        go_left = X[rows, forest.feature[node]] <= forest.threshold[node]
        node = forest.children[2 * node + go_left]
    cells = (rows * n_classes + forest.vote[node]).ravel()
    counts = np.bincount(cells, minlength=n * n_classes).reshape(n, n_classes)
    return counts.argmax(axis=1)


def _depth(tree, node=0):
    if tree.feature[node] < 0:
        return 0
    return 1 + max(_depth(tree, tree.left[node]), _depth(tree, tree.right[node]))


def _leaf(vote):
    return DecisionTree(
        feature=np.array([-1]),
        threshold=np.array([0.0]),
        left=np.array([-1]),
        right=np.array([-1]),
        vote=np.array([vote]),
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
    features, thresholds, lefts, rights, votes = [], [], [], [], []

    def leaf(idx):
        counts = np.bincount(y[idx], minlength=n_classes)
        node = len(features)
        features.append(-1)
        thresholds.append(0.0)
        lefts.append(-1)
        rights.append(-1)
        votes.append(int(np.argmax(counts)))
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
        votes.append(-1)
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
        vote=np.array(votes, dtype=int),
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


def _tied_dataset(labels, columns):
    """Integer-valued features (one column per array in `columns`), named
    f0, f1, ..., so that nodes try several candidates."""
    return _dataset(np.column_stack(columns), labels,
                    names=tuple(f"f{i}" for i in range(len(columns))))


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
    # 16 searched nodes hold under 6 distinct rows but 6-8 drawn ones: the
    # repeats decide min_leaf
    "repeats-decide-min-leaf": (lambda: _dataset(np.random.default_rng(0).normal(size=(12, 3)),
                                                 [NORMAL, "dos", "probe"] * 4),
                                {"n_trees": 20, "min_leaf": 3, "max_depth": 14}),
    # integer features: tie blocks that hold several classes next to long
    # one-class runs of distinct values, the cuts the split search skips
    "tied-mixed-blocks": (lambda: _tied_dataset(
        [NORMAL] * 14 + [NORMAL, "dos", "probe", "dos"] * 5 + ["probe"] * 12 + ["dos"] * 14,
        [np.arange(60), np.arange(60) // 4, np.random.default_rng(5).integers(0, 4, 60),
         np.arange(60) % 7]), {"n_trees": 5, "min_leaf": 3, "max_depth": 14, "seed": 2}),
}


@pytest.mark.parametrize("case", list(_GROWTH_CASES))
def test_forest_equals_tree_by_tree_growth(case):
    make, params = _GROWTH_CASES[case]
    train = make()
    grown = train_random_forest(train, **params)
    expected = _reference_forest(train, **params)
    assert json.dumps(model_to_obj(grown)) == json.dumps(model_to_obj(expected))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), runs=st.lists(st.tuples(st.sampled_from([NORMAL, "dos", "probe"]),
                                               st.integers(1, 15)), min_size=1, max_size=8),
       n_trees=st.integers(1, 5), min_leaf=st.sampled_from([0, 1, 2, 3, 5]),
       max_depth=st.integers(1, 14), seed=st.integers(0, 2**32 - 1))
def test_forest_equals_tree_by_tree_growth_on_tied_values(data, runs, n_trees, min_leaf,
                                                          max_depth, seed):
    """Integer-valued features under long one-class runs of labels: one
    column rises with the rows (a tie wherever it steps by 0), the others
    are drawn from a few values, so value blocks hold several classes. The
    split search skips the cuts inside one-class runs of one-row blocks;
    every tree still equals the tree-by-tree grower's."""
    labels = [label for label, length in runs for _ in range(length)][:60]
    n = len(labels)
    rising = np.cumsum(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    drawn = [data.draw(st.lists(st.integers(0, high), min_size=n, max_size=n))
             for high in data.draw(st.lists(st.integers(1, 6), min_size=0, max_size=4))]
    train = _tied_dataset(labels, [rising, *drawn])
    params = {"n_trees": n_trees, "max_depth": max_depth, "min_leaf": min_leaf, "seed": seed}
    grown = train_random_forest(train, **params)
    expected = _reference_forest(train, **params)
    assert json.dumps(model_to_obj(grown)) == json.dumps(model_to_obj(expected))


@functools.cache
def _traced_train_detect_fit(kind):
    """A train-detect round's forest and the tracemalloc peak of its fit."""
    train = _train_detect_split(kind)
    tracemalloc.start()
    try:
        return train_random_forest(train), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", list(DatasetKind), ids=lambda kind: kind.value)
def test_forest_fit_memory_is_bounded(kind):
    # a train-detect fit peaks near 2.5 MiB (NTD and CLF); with unbounded
    # steps it peaks at 21 and 12 MiB
    assert _traced_train_detect_fit(kind)[1] <= 8 * 2**20


@pytest.mark.parametrize("kind", list(DatasetKind), ids=lambda kind: kind.value)
def test_save_memory_is_below_the_file_size(tmp_path, kind):
    """Saving a 50-tree forest holds one tree's encoding at a time: it peaks
    at 0.4x (CLF) and 0.75x (NTD) the file's size. Encoding the whole
    document at once peaked at 11x and 16x."""
    model = _traced_train_detect_fit(kind)[0]
    path = tmp_path / "models.json"
    tracemalloc.start()
    try:
        save_models(path, {f"{kind.value}/random_forest": model})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), draws=st.lists(st.one_of(
    st.integers(1, 64).flatmap(lambda d: st.tuples(st.just(d), st.integers(1, d))),
    st.sampled_from(["random", "uint32"])), min_size=1, max_size=12))
def test_candidate_draw_is_numpys_choice(seed, draws):
    """`_candidates` against `Generator.choice(d, size=k, replace=False)`,
    with 64-bit `random()` and 32-bit `next_uint32` draws between them, so
    draws start on the buffered half of a word as often as on a fresh one:
    after every step the values and the whole generator state are equal."""
    ours, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    for draw in draws:
        if draw == "random":
            assert ours.random() == twin.random()
        elif draw == "uint32":
            a, b = ours.bit_generator.ctypes, twin.bit_generator.ctypes
            assert a.next_uint32(a.state) == b.next_uint32(b.state)
        else:
            d, k = draw
            picks = detection._candidates(ours.bit_generator.ctypes, d, k)
            assert picks == twin.choice(d, size=k, replace=False).tolist()
        assert ours.bit_generator.state == twin.bit_generator.state


def test_candidate_draw_rejects_a_word_and_keeps_j_for_a_taken_value():
    """Scripted words, since no generator can be steered to them. choice(3,
    size=2): the draw on [0, 1] takes 2**31, so 1; the draw on [0, 2] rejects
    0 (its low product word 0 is below (2**32 - 3) % 3 == 1), then takes 2**31,
    so 1 again, which is taken, so 2 is kept; the shuffle's draw on [0, 1]
    takes 0 and swaps the two picks."""
    words = iter([2**31, 0, 2**31, 0, 5])
    bitgen = SimpleNamespace(state=None, next_uint32=lambda state: next(words))
    assert detection._candidates(bitgen, 3, 2) == [2, 1]
    assert next(words) == 5


def test_split_search_past_an_int32_sort_key():
    """16,384 two-row nodes over 140,000 ranked rows: seg * rows + rank reaches
    2.29e9, past int32, and each node still cuts between its own two rows,
    counting the second one's two draws; its sorted segment hands the left
    child the first row and the right child the second."""
    n, m = 140_000, 16_384
    X = np.arange(n, dtype=float)[:, None]
    y = np.arange(n) % 2
    hot = np.eye(2, dtype=np.int32)[y]
    rank = np.arange(n, dtype=np.int32)[:, None]
    rows = np.arange(n - 2 * m, n)  # node j holds rows n - 2m + 2j and the next
    lens = np.full(m, 2)
    feature, threshold, found, counts, left, entry, start, g = detection._best_splits(
        X, y, hot, rank, rows, np.tile(np.array([1, 2], dtype=np.int32), m), lens,
        np.zeros((m, 1), dtype=np.intp), 1)
    assert found.all() and not feature.any()
    assert np.array_equal(threshold, rows[::2] + 0.5)
    assert (counts == [[1], [2]]).all() and (left == [[1], [0]]).all()
    left_rows = [rows[entry[a:b + 1]].tolist() for a, b in zip(start, g)]
    right_rows = [rows[entry[b + 1:a + size]].tolist() for a, b, size in zip(start, g, lens)]
    assert left_rows == rows[::2, None].tolist() and right_rows == rows[1::2, None].tolist()


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
        model = dataclasses.replace(model, trees=tuple(reversed(model.trees)))
        assert list(model.predict_batch(probe.X)) == before

    def test_reassigned_trees_predict_as_that_subset(self):
        ds = generate(DatasetKind.NTD, 800, UNIFORM_MIX, seed=9)
        probe = generate(DatasetKind.NTD, 300, UNIFORM_MIX, seed=10)
        model = train_random_forest(ds, n_trees=9, seed=4)
        full = list(model.predict_batch(probe.X))
        model = dataclasses.replace(model, trees=model.trees[2:4])
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
        model = _forest([_leaf(1), _leaf(0), _leaf(1)])
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
            vote=np.array([-1, 0, 1]),
        )
        trees = [split_tree, _leaf(1), _leaf(0), _leaf(1)]
        # a row going left ties 2:2, one going right votes 3:1 for NORMAL
        model = _forest([trees[i] for i in order] + trees[2:], classes=("dos", NORMAL))
        X = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert list(model.predict_batch(X)) == ["dos", NORMAL]
        assert [model.predict(x) for x in X] == ["dos", NORMAL]

    def test_empty_dataset_rejected(self):
        empty = _dataset(np.zeros((0, 3)), [])
        with pytest.raises(TrainingError):
            train_random_forest(empty)


@pytest.mark.parametrize("kind", [DatasetKind.NTD, DatasetKind.CLF])
def test_compiled_walk_equals_batch_walk(kind):
    """A single record's compiled walk votes as the batch's level walk."""
    train, held_out = split(generate(kind, 1500, UNIFORM_MIX, seed=5), 0.8, seed=5)
    model = train_random_forest(train, seed=2)
    forest, n = model._forest, len(model.classes)
    X = held_out.X.copy()
    # rows holding nan go right at every node that tests the nan feature
    X[::7, 0] = np.nan
    X[3::11, :] = np.nan
    expected = _batch_walk(forest, X, n).tolist()
    assert forest.predict(X, n).tolist() == expected
    assert [model.predict(x) for x in X] == [model.classes[i] for i in expected]


def test_compiled_walk_on_depth_zero_forest():
    model = _forest([_leaf(1), _leaf(0), _leaf(0)])
    forest = model._forest
    assert forest.levels == ()
    for x in np.random.default_rng(1).normal(size=(5, 3)):
        assert model.predict(x) == model.classes[_batch_walk(forest, x[None], 2)[0]]
    assert model.predict([0.0, np.nan, 1.0]) == NORMAL


@pytest.fixture(scope="module")
def forest_51():
    """51 trees on all five classes, and held-out CLF rows, some holding nan."""
    train, held_out = split(generate(DatasetKind.CLF, 1500, UNIFORM_MIX, seed=5), 0.8, seed=5)
    X = held_out.X.copy()
    X[::7, 0] = np.nan
    X[3::11, :] = np.nan
    return train_random_forest(train, n_trees=51, seed=2), X


@pytest.mark.parametrize("n_trees", [1, 2, 3, 4, 51])
def test_vote_stopped_at_a_majority_equals_batch_walk(forest_51, n_trees):
    """The compiled vote returns at the first strict majority; every label is
    the batch walk's, on 1:1 and 2:2 ties and on rows no class wins outright."""
    model, X = forest_51
    model = _forest(model.trees[:n_trees], classes=model.classes)
    votes = _reference_votes(model, X)
    if n_trees % 2 == 0:
        assert any(sorted(v)[-2:] == [n_trees // 2] * 2 for v in votes)
    if n_trees > 1:
        assert any(max(v) <= n_trees // 2 for v in votes)
    expected = [model.classes[i] for i in _batch_walk(model._forest, X, len(model.classes))]
    assert [model.predict(x) for x in X] == expected == list(model.predict_batch(X))


@pytest.mark.parametrize("votes, called", [
    ((1, 1, 1, 1, 1), [0, 1, 2]),
    ((0, 1, 1, 1, 0), [0, 1, 2, 3]),
    ((1, 0, 1, 0, 1), [0, 1, 2, 3, 4]),
])
def test_vote_asks_no_tree_after_a_strict_majority(votes, called):
    """Five trees: the vote ends at the first tree that gives a class three."""
    model = _forest([_leaf(v) for v in votes])
    forest = model._walk
    calls = []
    for k in range(len(votes)):
        tree = forest.__globals__[f"tree{k}"]
        forest.__globals__[f"tree{k}"] = lambda *x, k=k, tree=tree: calls.append(k) or tree(*x)
    assert model.predict([0.0, 0.0, 0.0]) == model.classes[max(votes, key=votes.count)]
    assert calls == called


_GRID = [-1.0, -0.5, 0.0, 0.5, 1.0]  # the property's thresholds, and values that sit on them


@st.composite
def _small_forests(draw):
    """A forest of 1-7 random trees at most 3 deep over the 3 CLF features,
    each leaf voting for one of 2-5 classes."""
    n_classes = draw(st.integers(2, 5))
    trees = []
    for _ in range(draw(st.integers(1, 7))):
        feature, threshold, left, right, vote = [], [], [], [], []

        def grow(depth):
            i = len(feature)
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            vote.append(-1)
            if depth < 3 and draw(st.booleans()):
                feature[i] = draw(st.integers(0, 2))
                threshold[i] = draw(st.sampled_from(_GRID))
                left[i] = grow(depth + 1)
                right[i] = grow(depth + 1)
            else:
                vote[i] = draw(st.integers(0, n_classes - 1))
            return i

        grow(0)
        trees.append(DecisionTree(*map(np.array, (feature, threshold, left, right, vote))))
    return _forest(trees, classes=LABELS[:n_classes])


@settings(max_examples=300, deadline=None)
@given(model=_small_forests(), rows=st.lists(
    st.lists(st.sampled_from(_GRID + [-2.0, 2.0, np.nan]), min_size=3, max_size=3),
    max_size=40))
def test_batch_walk_stopped_at_a_majority_counts_as_every_tree(model, rows):
    """The batch walk's two phases (the first half + 1 trees for every row,
    the rest for the rows with no strict majority yet) give the argmax of
    every tree's votes, ties to the earliest class, and the compiled walk's
    class for each row; no rows give no classes."""
    X = np.array(rows, dtype=float).reshape(-1, 3)
    n_classes = len(model.classes)
    full = [votes.index(max(votes)) for votes in _reference_votes(model, X)]
    assert model._forest.predict(X, n_classes).tolist() == full
    assert [model._walk(*x) for x in X.tolist()] == full
    assert model._forest.predict(np.empty((0, 3)), n_classes).shape == (0,)


def _chain(depth, lean, thresholds):
    """A tree as its JSON object: `depth` splits in a chain, each one's child
    on the `lean` side the next split and the other a leaf."""
    feature, threshold, left, right, vote = [], [], [], [], []
    for j in range(depth):
        chain, leaf = 2 * j + 2, 2 * j + 1
        feature += [j % len(CLF_FEATURES), -1]
        threshold += [thresholds[j], 0.0]
        left += [chain if lean == "left" else leaf, -1]
        right += [leaf if lean == "left" else chain, -1]
        vote += [-1, 1 - j % 2]
    feature.append(-1)
    threshold.append(0.0)
    left.append(-1)
    right.append(-1)
    vote.append(0)
    return {"feature": feature, "threshold": threshold, "left": left, "right": right,
            "vote": vote}


def test_deep_chains_with_non_finite_thresholds_from_a_model_file(tmp_path):
    """Two 150-deep chains, deeper than Python nests blocks, with thresholds
    +inf, -inf and nan, as a model file can hold them."""
    rng = np.random.default_rng(3)
    thresholds = rng.normal(2.5, 0.5, size=(2, 150))
    thresholds[:, 60] = np.inf
    thresholds[0, 140], thresholds[1, 139] = -np.inf, -np.inf
    thresholds[0, 145], thresholds[1, 146] = np.nan, np.nan
    obj = {"kind": "random_forest", "dataset_kind": DatasetKind.CLF.value,
           "feature_names": list(CLF_FEATURES), "classes": [NORMAL, "dos"],
           "trees": [_chain(150, "left", thresholds[0].tolist()),
                     _chain(150, "right", (-thresholds[1]).tolist())]}
    path = tmp_path / "models.json"
    path.write_text(json.dumps({"version": 2, "detectors": {"clf/random_forest": obj}}))
    save_models(path, load_models(path)[0])
    model = load_models(path)[0]["clf/random_forest"]
    X = rng.normal(size=(300, 3)) * 1.5
    X[::5, 1] = np.nan
    X[::13] = np.nan
    X[1::17] = np.inf
    X[2::19] = -np.inf
    expected = _reference_predict(model, X)
    assert len(set(expected)) == 2
    assert [model.predict(x) for x in X] == expected
    assert list(model.predict_batch(X)) == expected


def test_walk_compiled_once_at_first_single_record_predict(tmp_path, monkeypatch):
    """Batch evaluation, stacking and loading never compile a forest; the
    first single-record predict does, once per model object."""
    compiled = []
    compile_walk = detection._compile_walk
    monkeypatch.setattr(detection, "_compile_walk",
                        lambda *args: compiled.append(args) or compile_walk(*args))
    ds = generate(DatasetKind.NTD, 800, UNIFORM_MIX, seed=9)
    probe = generate(DatasetKind.NTD, 100, UNIFORM_MIX, seed=10)
    model = train_random_forest(ds, n_trees=9, seed=4)
    evaluate(model, probe)
    model.predict_batch(probe.X)
    path = tmp_path / "models.json"
    save_models(path, {"ntd/random_forest": model})
    model = load_models(path)[0]["ntd/random_forest"]
    detection._Forest.stack(model.trees)
    assert not compiled
    for _ in range(2):
        assert [model.predict(x) for x in probe.X] == _reference_predict(model, probe.X)
    assert len(compiled) == 1
    subset = dataclasses.replace(model, trees=model.trees[2:4])
    for _ in range(2):
        labels = [subset.predict(x) for x in probe.X]
        assert labels == _reference_predict(subset, probe.X) == list(subset.predict_batch(probe.X))
    model.predict(probe.X[0])
    assert len(compiled) == 2


def test_fitted_detector_is_immutable():
    """Neither a fitted model's fields nor its trees' can be reassigned, so
    its stacked forest and compiled walk stay those of its trees; the stack
    keeps no reference to the trees."""
    ds = generate(DatasetKind.CLF, 300, {NORMAL: 0.5, "dos": 0.5}, seed=7)
    forest = train_random_forest(ds, n_trees=3, seed=1)
    for model in (forest, train_linear(ds)):
        for name, value in (("trees", ()), ("weights", None), ("classes", (NORMAL,))):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(model, name, value)
    with pytest.raises(dataclasses.FrozenInstanceError):
        forest.trees[0].feature = np.array([-1])
    assert "trees" not in {f.name for f in dataclasses.fields(detection._Forest)}


def test_fitted_detector_arrays_are_read_only():
    ds = generate(DatasetKind.CLF, 300, {NORMAL: 0.5, "dos": 0.5}, seed=7)
    forest = train_random_forest(ds, n_trees=3, seed=1)
    for tree in forest.trees:
        for field in dataclasses.fields(tree):
            with pytest.raises(ValueError, match="read-only"):
                getattr(tree, field.name)[0] = 0
    with pytest.raises(ValueError, match="read-only"):
        train_linear(ds).weights[0, 0] = 0.0


def test_fitted_detectors_compare_by_identity():
    """`==` and `hash()` never look at a model's arrays: two fits of the same
    data are distinct, each is equal to itself, and each can key a dict."""
    ds = generate(DatasetKind.CLF, 300, {NORMAL: 0.5, "dos": 0.5}, seed=7)
    a, b = (train_random_forest(ds, n_trees=3, seed=1) for _ in range(2))
    linear = train_linear(ds)
    assert a != b and a == a and linear == linear and a.trees[0] != b.trees[0]
    assert len({a: 0, b: 1, linear: 2, a.trees[0]: 3, b.trees[0]: 4}) == 5


def test_used_detector_survives_a_pickle_round_trip():
    """A model that has predicted pickles its fields only: the copy has
    read-only arrays and rebuilds its stacked forest and compiled walk."""
    ds = generate(DatasetKind.CLF, 300, {NORMAL: 0.5, "dos": 0.5}, seed=7)
    for model in (train_random_forest(ds, n_trees=3, seed=1), train_linear(ds)):
        labels = [model.predict(x) for x in ds.X]
        copy = pickle.loads(pickle.dumps(model))
        assert "_walk" not in vars(copy) and "_forest" not in vars(copy)
        assert [copy.predict(x) for x in ds.X] == labels
        assert list(copy.predict_batch(ds.X)) == list(model.predict_batch(ds.X)) == labels
        arrays = [copy.weights] if model.kind == "linear" else vars(copy.trees[0]).values()
        assert not any(array.flags.writeable for array in arrays)


def test_non_finite_training_values_rejected():
    # a cut between a finite value and +inf gets the threshold +inf and NaN leaves
    column = [0.0, 1.0, 2.0, 3.0, np.inf, np.inf, np.inf, np.inf]
    ds = _dataset(np.column_stack([column] * 3), [NORMAL] * 4 + ["dos"] * 4)
    with pytest.raises(TrainingError, match="non-finite feature value inf in row 4, "
                                            "column cpu_util"):
        train_random_forest(ds, n_trees=3)


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

    @staticmethod
    def _per_class_reference(model, test):
        """The metrics counted class by class from the predicted labels, with
        four comparisons per class."""
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
        return detection.DetectionMetrics(accuracy=accuracy, f1=f1, far=far)

    @pytest.mark.parametrize("kind", list(DatasetKind), ids=lambda kind: kind.value)
    def test_confusion_matrix_metrics_equal_the_per_class_counts(self, kind):
        """Every float is the per-class reference's, to the last bit, on the
        train-detect split and on test labels the model never saw: those
        count as a miss for every class."""
        ds = generate(kind, 4000, DEFAULT_MIX, seed=0)
        train, test = split(ds, 0.7, seed=0)
        seen = np.isin(train.labels, [NORMAL, "dos", "probe"])
        narrow = Dataset(kind, train.feature_names, train.X[seen], train.labels[seen],
                         train.intensity[seen])
        for model in (train_random_forest(train, n_trees=15, seed=0), train_linear(train),
                      train_random_forest(narrow, n_trees=15, seed=0), train_linear(narrow)):
            metrics = evaluate(model, test)
            assert repr(metrics) == repr(self._per_class_reference(model, test))
            indices = model.predict_batch(test.X, as_indices=True)
            assert [model.classes[i] for i in indices] == list(model.predict_batch(test.X))
        assert set(test.labels) - set(model.classes) == {"r2l", "u2r"}
        assert metrics.accuracy <= 1 - np.isin(test.labels, ["r2l", "u2r"]).mean()

    def test_empty_test_set_rejected(self):
        model = train_random_forest(_xor_dataset(), n_trees=3, seed=0)
        with pytest.raises(EvaluationError, match="^empty test dataset$"):
            evaluate(model, _dataset(np.zeros((0, 3)), []))


class TestPredict:
    def test_wrong_arity_rejected(self):
        ds = _xor_dataset()
        for model in (train_random_forest(ds, seed=0), train_linear(ds)):
            with pytest.raises(PredictionError) as exc:
                model.predict([1.0, 2.0])
            assert str(exc.value) == "expected 3 features, got shape (1, 2)"

    def test_any_sequence_of_numbers_predicts_as_the_batch_walk(self):
        train, held_out = split(generate(DatasetKind.CLF, 600, UNIFORM_MIX, seed=5), 0.8, seed=5)
        model = train_random_forest(train, n_trees=9, seed=2)
        nan_row, inf_row = held_out.X[2].copy(), held_out.X[2].copy()
        nan_row[1], inf_row[1] = np.nan, np.inf
        # nan fails every `x <= threshold` test and goes right, as +inf does
        # below the forest's finite thresholds
        assert model.predict(nan_row) == model.predict(inf_row)
        for x in (held_out.X[0].tolist(), held_out.X[1], nan_row, [0, 1, 0], [1, 1, 1]):
            row = np.array([x], dtype=float)
            label = model.predict(x)
            assert type(label) is str
            assert label == model.classes[_batch_walk(model._forest, row, len(model.classes))[0]]

    def test_batch_labels_are_as_wide_as_the_widest_class_name(self):
        """The labels are gathered from the class names, so their dtype is the
        widest name's whatever the rows predict, and an empty batch is an
        empty array of that dtype."""
        ds = _xor_dataset()
        wide = ("normal", "dos")
        for model in (train_random_forest(ds, seed=0), train_linear(ds), _forest([_leaf(1)], wide)):
            dtype = np.dtype(f"<U{max(map(len, model.classes))}")
            labels = model.predict_batch(ds.X)
            assert labels.dtype == dtype
            assert labels.tolist() == [model.classes[i]
                                       for i in model.predict_batch(ds.X, as_indices=True)]
            empty = model.predict_batch(ds.X[:0])
            assert empty.dtype == dtype and empty.shape == (0,)
        assert model.predict_batch(ds.X).tolist() == ["dos"] * len(ds)  # no row predicts "normal"


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


@pytest.fixture(scope="module")
def detectors_and_severity():
    """Forest and linear detectors of both kinds, and a severity object."""
    mix = {NORMAL: 0.5, "dos": 0.5}
    detectors = {}
    for kind in DatasetKind:
        ds = generate(kind, 300, mix, seed=5)
        detectors[f"{kind.value}/random_forest"] = train_random_forest(ds, n_trees=4, seed=1)
        detectors[f"{kind.value}/linear"] = train_linear(ds)
    banded = generate(DatasetKind.NTD, 300, mix, 0, intensity_mode="banded")
    return detectors, severity_to_obj(fit_severity({DatasetKind.NTD: banded}, 0))


_SAVE_CASES = {
    "both-kinds-with-severity": lambda d, sev: (d, sev),
    "without-severity": lambda d, sev: (d, None),
    "no-detectors": lambda d, sev: ({}, sev),
    "one-tree": lambda d, sev: ({"ntd/random_forest": dataclasses.replace(
        d["ntd/random_forest"], trees=d["ntd/random_forest"].trees[:1])}, None),
    "escaped-keys": lambda d, sev: ({'clf/"forêt"': d["clf/random_forest"],
                                     "ntd/linéaire": d["ntd/linear"]}, sev),
}


@pytest.mark.parametrize("case", list(_SAVE_CASES))
def test_saved_bytes_are_json_dumps_of_the_document(tmp_path, detectors_and_severity, case):
    """The file written a tree at a time is exactly the standard library's
    encoding of the whole document."""
    detectors, severity_obj = _SAVE_CASES[case](*detectors_and_severity)
    doc = {"version": detection.MODEL_FORMAT_VERSION,
           "detectors": {key: model_to_obj(m) for key, m in detectors.items()}}
    if severity_obj is not None:
        doc["severity"] = severity_obj
    path = tmp_path / "models.json"
    save_models(path, detectors, severity_obj)
    assert path.read_text() == json.dumps(doc)


def test_failed_save_keeps_the_earlier_file(tmp_path, monkeypatch, detectors_and_severity):
    """A save that fails part-way leaves the earlier file's bytes and no
    temporary file behind."""
    detectors, severity_obj = detectors_and_severity
    path = tmp_path / "models.json"
    save_models(path, {"ntd/linear": detectors["ntd/linear"]})
    before = path.read_bytes()
    encoded = []
    tree_to_obj = detection._tree_to_obj

    def fail_at_third_tree(tree):
        if len(encoded) == 2:
            raise OSError("no space left on device")
        encoded.append(tree)
        return tree_to_obj(tree)

    monkeypatch.setattr(detection, "_tree_to_obj", fail_at_third_tree)
    with pytest.raises(OSError, match="no space left"):
        save_models(path, detectors, severity_obj)
    assert len(encoded) == 2
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["models.json"]


@pytest.mark.parametrize("classes, where", [
    ([NORMAL, "bogus"], f"classes[1]: must be one of {', '.join(LABELS)}, got 'bogus'"),
    ([NORMAL, 7], f"classes[1]: must be one of {', '.join(LABELS)}, got 7"),
    ([NORMAL, NORMAL], "classes[1]: 'normal' appears twice"),
    ([], "classes: must be a non-empty array"),
], ids=["not-a-label", "not-a-string", "twice", "empty"])
@pytest.mark.parametrize("key", ["clf/random_forest", "clf/linear"])
def test_unknown_repeated_or_missing_class_refused_at_load(tmp_path, classes, where, key):
    ds = generate(DatasetKind.CLF, 300, {NORMAL: 0.5, "dos": 0.5}, seed=5)
    path = tmp_path / "models.json"
    model = train_random_forest(ds, n_trees=3) if key.endswith("forest") else train_linear(ds)
    save_models(path, {key: model})
    doc = json.loads(path.read_text())
    doc["detectors"][key]["classes"] = classes
    path.write_text(json.dumps(doc))
    with pytest.raises(EvaluationError) as exc:
        load_models(path)
    assert str(exc.value) == f'{path}: $.detectors["{key}"].{where}'


def test_detector_features_must_be_its_keys_kind(tmp_path):
    """A detector keyed `ntd/…` or `clf/…` holds exactly that kind's features."""
    mix = {NORMAL: 0.5, "dos": 0.5}
    ntd, clf = (generate(kind, 200, mix, seed=5) for kind in (DatasetKind.NTD, DatasetKind.CLF))
    path = tmp_path / "models.json"
    save_models(path, {"ntd/random_forest": train_random_forest(clf, n_trees=3),
                       "clf/random_forest": train_random_forest(ntd, n_trees=3)})
    with pytest.raises(EvaluationError) as exc:
        load_models(path)
    assert str(exc.value) == (f'{path}: $.detectors["ntd/random_forest"].feature_names: '
                              "must be the 8 ntd features, got 3")
    save_models(path, {"clf/random_forest": train_random_forest(clf, n_trees=3)})
    doc = json.loads(path.read_text())
    doc["detectors"]["clf/random_forest"]["feature_names"] = list(CLF_FEATURES[::-1])
    path.write_text(json.dumps(doc))
    with pytest.raises(EvaluationError) as exc:
        load_models(path)
    assert str(exc.value) == (f'{path}: $.detectors["clf/random_forest"].feature_names: '
                              f"must be the 3 clf features, got {list(CLF_FEATURES[::-1])}")


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


def _break_leaf_vote(vote):
    def corrupt(tree):
        leaf = tree["feature"].index(-1)
        tree["vote"][leaf] = vote
        return f"trees[1].vote[{leaf}]: leaf vote {vote} outside [0, 2)"
    return corrupt


def _break_split_vote(tree):
    tree["vote"][0] = 0
    return "trees[1].vote[0]: split vote 0, must be -1"


def _break_entry(key, value, shown):
    """Tree 1's `key` entry at its first leaf (feature at its root) set to
    `value`, which a cast would have loaded as a valid number."""
    def corrupt(tree):
        i = 0 if key == "feature" else tree["feature"].index(-1)
        tree[key][i] = value
        return f"trees[1].{key}[{i}]: {shown}"
    return corrupt


def _break_overflow(tree):
    tree["vote"][tree["feature"].index(-1)] = 2 ** 64
    return "trees[1].vote: Python int too large to convert to C long"


@pytest.mark.parametrize(
    "corrupt",
    [_break_missing_key, _break_unequal_length, _break_child_range, _break_shared_node,
     _break_cycle, _break_feature_range, _break_leaf_vote(2), _break_leaf_vote(-2),
     _break_split_vote,
     _break_entry("vote", 0.9, "must be an integer, got 0.9"),
     _break_entry("vote", 1.0, "must be an integer, got 1.0"),
     _break_entry("left", 1.5, "must be an integer, got 1.5"),
     _break_entry("right", "2", "must be an integer, got '2'"),
     _break_entry("feature", True, "must be an integer, got True"),
     _break_entry("vote", False, "must be an integer, got False"),
     _break_entry("threshold", True, "must be a number, got True"),
     _break_entry("threshold", "0.5", "must be a number, got '0.5'"),
     _break_entry("threshold", [0.5], "must be a number, got [0.5]"),
     _break_overflow],
    ids=["missing-key", "unequal-length", "child-range", "shared-node", "cycle",
         "feature-range", "vote-outside-classes", "vote-negative", "vote-at-split",
         "vote-fraction", "vote-float", "left-fraction", "right-string", "feature-boolean",
         "vote-boolean", "threshold-boolean", "threshold-string", "threshold-array",
         "vote-overflow"],
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
