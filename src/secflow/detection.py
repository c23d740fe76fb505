"""Attack detectors: a bagged decision-tree ensemble and a one-vs-rest
least-squares linear classifier, with accuracy/F1/FAR evaluation and a
versioned JSON model format."""

from __future__ import annotations

import contextlib
import json
import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .datagen import FEATURES, Dataset, LABELS, NORMAL, bounded_uint32
from .model import FittedModel, array_at, fields_at, floats_at, load_document, parse_file
from .severity import severity_from_obj

MODEL_FORMAT_VERSION = 2

DEFAULT_N_TREES = 50
DEFAULT_MAX_DEPTH = 10
DEFAULT_MIN_LEAF = 2
RIDGE = 1e-6  # regularization of the linear model's normal equations
# The most (row, candidate feature) pairs, rows counted with repeats, that
# one step of `_grow_forest` searches. On 2,800-row forests of 50 trees
# (2-vCPU VM), 16,384 fit 3x (NTD) and 9x (CLF) faster than one node per
# step; they peak at 2.5 MiB traced (NTD and CLF), unbounded steps at 21
# (NTD) and 12 MiB (CLF), and at one NTD root (5,600 pairs) the NTD fit was
# 2.9x slower.
STEP_PAIRS = 16_384


class TrainingError(ValueError):
    pass


class EvaluationError(ValueError):
    pass


class PredictionError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class DecisionTree(FittedModel):
    """Flat-array binary tree. Internal node i splits on feature[i] <=
    threshold[i]; leaves have feature[i] == -1 and the class they vote for."""

    feature: np.ndarray  # (m,) int, -1 for leaf
    threshold: np.ndarray  # (m,) float
    left: np.ndarray  # (m,) int child index
    right: np.ndarray  # (m,) int child index
    vote: np.ndarray  # (m,) int class index a leaf votes for, -1 at a split


@dataclass(frozen=True)
class _Forest:
    """Every tree of one forest in one node array, walked all at once.

    Tree k's nodes follow tree k-1's, with child indices offset to match.
    Each leaf loops to itself (feature 0, threshold +inf, both children
    itself), so after as many steps as the deepest leaf is deep, every walk
    rests on its leaf. The comparisons are those of a tree-by-tree walk on the
    same float64 values, so the votes are the same.

    A batch is walked one level per step. A single record goes through the
    forest compiled to Python instead (`_compile_walk`), which costs by the
    length of its root-to-leaf paths, not by the node count."""

    roots: np.ndarray  # (n_trees,) node index of each tree's root
    feature: np.ndarray  # (nodes,)
    threshold: np.ndarray  # (nodes,)
    children: np.ndarray  # (2 * nodes,): node i goes to children[2i + (x <= threshold)]
    vote: np.ndarray  # (nodes,) class index a leaf votes for
    levels: tuple  # each level's split nodes, the roots' first: one step per level

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
        levels, level = [], roots
        while len(level := level[feature[level] >= 0]):
            levels.append(level)
            level = child[level].ravel()
        leaf = feature < 0
        feature[leaf] = 0
        threshold[leaf] = np.inf
        return cls(
            roots=roots,
            feature=feature,
            threshold=threshold,
            children=child[:, ::-1].ravel(),
            vote=np.concatenate([t.vote for t in trees]),
            levels=tuple(levels),
        )

    def predict(self, X: np.ndarray, n_classes: int) -> np.ndarray:
        """Class index per row: the majority of the per-tree votes, ties to
        the earliest class.

        Like the compiled walk, a row stops at a strict majority: every row
        counts the first `half + 1` trees' votes, and a row whose top count is
        above `half` is settled, since that class holds more than half of all
        the trees' votes and so is the full count's unique argmax. Only the
        rows still open walk the other trees."""
        n, d = X.shape
        values, start = X.ravel(), np.arange(n)[:, None] * d  # row r's feature f: values[r * d + f]
        half = len(self.roots) // 2
        counts = self._counts(values, start, self.roots[:half + 1], n_classes)
        rest = self.roots[half + 1:]
        open_rows = np.flatnonzero(counts.max(axis=1) <= half)
        if len(rest) and len(open_rows):
            counts[open_rows] += self._counts(values, start[open_rows], rest, n_classes)
        return counts.argmax(axis=1)

    def _counts(self, values, start, roots, n_classes):
        """(rows, n_classes) votes of the trees rooted at `roots` for the rows
        whose features begin at `start` (rows, 1) in `values`, walked one level
        per step."""
        node = roots  # broadcasts against `start` to (rows, trees)
        for _ in self.levels:
            go_left = values.take(start + self.feature.take(node)) <= self.threshold.take(node)
            node = self.children.take(2 * node + go_left)
        cells = (np.arange(len(start))[:, None] * n_classes + self.vote.take(node)).ravel()
        return np.bincount(cells, minlength=len(start) * n_classes).reshape(-1, n_classes)


def _compile_walk(forest: _Forest, n_features: int, n_classes: int):
    """The forest as generated Python (Treelite's idea): `forest(x0, ...)`
    returns the class index most trees vote for, ties to the earliest class,
    for one record passed as one float per feature.

    The vote stops at the first tree that gives a class more than half of
    all the trees' votes: that class is the unique argmax whatever the rest
    vote (the exact case of instance-based ensemble pruning). A record with
    no such majority counts every tree.

    Each tree becomes a function of `if xF <= T:` tests whose every leaf
    returns its vote; the comparisons are the walk's own on the same float64
    values (nan goes right), so the votes are the same. The child with the
    smaller Horton-Strahler number is the one nested, under `if not xF <= T:`
    when it is the right child, and the other follows at the same indentation:
    blocks then nest at most log2(leaves) deep however deep the tree (Python
    refuses indentation 100 levels deep). The source holds only ints and
    float reprs from the validated node arrays; one `compile` per tree keeps
    the compiler's peak memory to one tree's."""
    right, left = forest.children[::2], forest.children[1::2]  # a leaf's are itself
    strahler = np.ones(len(forest.feature), dtype=np.intp)
    for level in reversed(forest.levels):
        a, b = strahler[left[level]], strahler[right[level]]
        strahler[level] = np.maximum(a, b) + (a == b)
    feature, threshold = forest.feature.tolist(), forest.threshold.tolist()
    left, right, strahler = left.tolist(), right.tolist(), strahler.tolist()
    vote = forest.vote.tolist()
    args = ", ".join(f"x{f}" for f in range(n_features))
    namespace = {"inf": math.inf, "nan": math.nan}  # the reprs of non-finite thresholds
    for k, root in enumerate(forest.roots.tolist()):
        lines, stack = [f"def tree{k}({args}):"], [(root, 1)]
        while stack:
            node, indent = stack.pop()
            pad = "    " * indent
            if left[node] == node:
                lines.append(f"{pad}return {vote[node]}")
                continue
            test = f"x{feature[node]} <= {threshold[node]!r}"
            if strahler[left[node]] <= strahler[right[node]]:
                lines.append(f"{pad}if {test}:")
                stack += [(right[node], indent), (left[node], indent + 1)]
            else:
                lines.append(f"{pad}if not {test}:")
                stack += [(left[node], indent), (right[node], indent + 1)]
        exec(compile("\n".join(lines), f"<tree {k}>", "exec"), namespace)
    half = len(forest.roots) // 2  # no class can hold a majority before tree `half`
    lines = [f"def forest({args}):", f"    c = [0] * {n_classes}"]
    lines += [f"    c[tree{k}({args})] += 1" for k in range(half)]
    for k in range(half, len(forest.roots)):
        lines += [f"    v = tree{k}({args})", "    c[v] += 1", f"    if c[v] > {half}:",
                  "        return v"]
    lines.append("    return c.index(max(c))")
    exec(compile("\n".join(lines), "<forest>", "exec"), namespace)
    return namespace["forest"]


def _gini(counts, sizes):
    """Gini impurity of each column of class `counts` (n_classes, k) holding
    `sizes` (k,) rows: 1 - sum of p * p, the squares added in class order
    (as `np.sum` adds fewer than 8 terms), so the floats match a per-node
    `np.sum(p * p, axis=-1)`."""
    sizes = sizes.astype(float)  # divides each count as an integer size would
    square_sum = np.zeros(len(sizes))
    for row in counts:
        p = row / sizes
        p *= p
        square_sum += p
    return 1.0 - square_sum


def _best_splits(X, y, hot, rank, rows, mult, lens, cand, min_leaf):
    """The Gini split of each of m nodes, searched in one pass.

    Node j holds `lens[j]` distinct rows of `rows` (in node order, any order
    within a node), row i drawn `mult[i]` times, and tries the features
    `cand[j]` (m, F); `y` holds each row's class index and `hot` (n,
    n_classes) the same one-hot. `hot` and `mult` are int32. Every count
    counts the repeats: the class counts, the sizes that `min_leaf` bounds
    and the Gini weights. Only cuts that can be a segment's first minimum
    are scored: a class change, the edge of a tie block, or a cut within
    `min_leaf` positions of the segment's ends. Returns (feature, threshold, found, counts, left, entry,
    start, g): per node the first feature in `cand[j]` order with the
    strictly lowest impurity, the midpoint of the two values around its
    first minimal cut, and False where no cut leaves `min_leaf` rows on both
    sides; then, as columns of (n_classes, m) arrays, each node's class
    counts and those on its cut's left (where found). Class-major, each
    class's counts are one contiguous row for `_gini`. Last, the sorted
    pairs' positions in `rows` and, per node, where its chosen feature's
    sorted segment starts and the position of its cut: where found, the
    left child's rows are `rows[entry[start:g + 1]]` and the right child's
    `rows[entry[g + 1:start + lens]]`."""
    m, n_cand = cand.shape
    d = X.shape[1]
    node_of = np.repeat(np.arange(m), lens)
    # segment c * m + j holds node j's rows under its c-th candidate, as flat
    # indices row * d + feature into X and `rank`
    seg_sizes = np.tile(lens, n_cand)
    seg_start = np.concatenate([[0], np.cumsum(seg_sizes)[:-1]])
    # the sort key seg * rows + rank sorts faster as int32, and the counts add
    # faster in it; both stay below m * F * n (a node holds at most n drawn
    # rows), so int32 holds them while that is below 2**31 (a train-detect
    # step: under 16,384 segments of 2,800 rows)
    key_type = np.int32 if m * n_cand * len(rank) < 2 ** 31 else np.int64
    seg = np.repeat(np.arange(m * n_cand, dtype=key_type), seg_sizes)
    flat = np.tile(rows, n_cand) * d + cand[node_of].T.ravel()
    # each segment sorted by value; equal values may come in any order, since
    # a cut falls only between two distinct values
    order = np.argsort(seg * len(rank) + rank.take(flat))
    sv = X.take(flat.take(order))
    entry = order % len(rows)  # the sorted pairs' positions in `rows`
    # cum[:, g]: class counts of the segment's sorted rows up to position g,
    # plus those of the segments before it, and drawn[g] their sum
    cum = np.cumsum((hot.take(rows, axis=0) * mult[:, None]).take(entry, axis=0).T, axis=1,
                    dtype=key_type)
    drawn = np.cumsum(mult.take(entry), dtype=key_type)
    before = cum.take(seg_start - 1, axis=1)
    before[:, 0] = 0
    drawn_before = drawn.take(seg_start - 1)
    drawn_before[0] = 0
    ends = seg_start[:m] + lens - 1
    counts = cum.take(ends, axis=1) - before[:, :m]
    sizes = np.tile(drawn.take(ends) - drawn_before[:m], n_cand)

    # a cut after sorted position g splits between two distinct values of
    # one segment
    step = sv[:-1] < sv[1:]
    step[seg_start[1:] - 1] = False
    # Inside a run of one-row value blocks of one class, the weighted Gini is
    # strictly concave in the class weight a cut moves (unless both sides are
    # pure, and a pure node does not search), so an inner cut of the run is
    # never minimal. Kept: class changes, the edges of tie blocks, and the
    # cuts within min_leaf positions of a segment's ends, where the run's
    # neighbouring cuts may leave under min_leaf rows on a side.
    label = y.take(rows).take(entry)
    keep = label[:-1] != label[1:]
    keep[1:] |= ~step[:-1]
    keep[:-1] |= ~step[1:]
    reach = np.arange(min_leaf + 1)
    keep[np.minimum(seg_start[:, None] + reach, len(step) - 1)] = True
    keep[np.maximum((seg_start + seg_sizes - 2)[:, None] - reach, 0)] = True
    cut = np.flatnonzero(step & keep)
    cut_seg = seg[cut]
    n_seg = sizes[cut_seg]
    nl = drawn[cut] - drawn_before[cut_seg]
    ok = (nl >= min_leaf) & (n_seg - nl >= min_leaf)
    cut, cut_seg, n_seg, nl = cut[ok], cut_seg[ok], n_seg[ok], nl[ok]
    nr = n_seg - nl
    left = cum.take(cut, axis=1) - before.take(cut_seg, axis=1)
    right = counts.take(cut_seg % m, axis=1) - left
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
            np.isfinite(seg_best[best]), counts, cum[:, g] - before[:, best], entry,
            seg_start[best], g)


def _candidates(bitgen, d, k):
    """k distinct features of [0, d) drawn from `bitgen`, a bit generator's
    `ctypes` interface, as numpy's `Generator.choice(d, size=k,
    replace=False)` draws them for d <= 10,000 (same words, same order, same
    final state): Floyd's sampling (Bentley & Floyd, CACM 1987), where the
    j-th draw on [0, j] keeps j in place of a value already taken, then a
    Fisher-Yates shuffle of the k picks."""
    picks = []
    for j in range(d - k, d):
        v = bounded_uint32(bitgen, j)
        picks.append(j if v in picks else v)
    for i in range(k - 1, 0, -1):
        s = bounded_uint32(bitgen, i)
        picks[i], picks[s] = picks[s], picks[i]
    return picks


def _grow_forest(X, y, n_classes, max_depth, min_leaf, max_features, rngs):
    """One tree per generator in `rngs`, each on a bootstrap of (X, y) it
    draws with `rng.integers`, all grown together.

    A node holds the distinct rows of its tree's bootstrap and how often each
    was drawn; its class counts, its size and its vote count the repeats. A
    node splits only if it is above `max_depth`, holds at least `2 *
    min_leaf` rows and is not pure, which its parent's split already tells,
    so a child that cannot split is recorded as a leaf right then. The others
    wait on their tree's preorder stack. A step takes the top node of
    every tree with nodes waiting, up to `STEP_PAIRS` (row, candidate) pairs
    counted with repeats, draws each node's candidates with `_candidates`
    (`rng.choice(d, size=max_features, replace=False)` on the same words, in
    its tree's preorder) and searches their splits in one pass. That pass
    sorts each node's rows on each candidate, and a waiting child takes its
    rows as one slice of its parent's rows sorted on the split feature, so
    no second sort routes them (a node's row order never changes its split,
    since a cut falls only between distinct values). Each step records its
    nodes as arrays; at the end every node is numbered in its tree's
    preorder from the subtree sizes. Every tree equals the one a
    node-by-node recursive grower builds from the same generator."""
    n, d = X.shape
    rank = np.empty(X.shape, dtype=np.int32)  # each value's dense rank in its column
    for f in range(d):
        rank[:, f] = np.unique(X[:, f], return_inverse=True)[1]
    hot = np.eye(n_classes, dtype=np.int32).take(y, axis=0)
    bitgens = [rng.bit_generator.ctypes for rng in rngs]

    def can_split(counts, depth):
        sizes = counts.sum(axis=0)
        return (depth < max_depth) & (sizes >= 2 * min_leaf) & (counts.max(axis=0) < sizes)

    # the nodes in the order they are settled (a node's id is its position),
    # two arrays per batch: the int rows tree, parent, side, depth, feature
    # and vote (a leaf's most counted class, -1 at a split), and the
    # thresholds; few arrays, since many small ones living to the end of the
    # fit fragment the heap
    records, stacks, n_nodes = [], [[] for _ in rngs], 0
    for k, rng in enumerate(rngs):
        mult = np.bincount(rng.integers(0, n, size=n), minlength=n).astype(np.int32)
        rows = np.flatnonzero(mult)
        counts = (hot.take(rows, axis=0) * mult[rows, None]).sum(axis=0)[:, None]
        if can_split(counts, 0)[0]:
            # a waiting node: (rows, multiplicities, size, parent, side, depth)
            stacks[k].append((rows, mult[rows], n, -1, 0, 0))
        else:
            records.append((np.array([[k], [-1], [0], [0], [-1], counts.argmax(axis=0)]),
                            np.zeros(1)))
            n_nodes += 1
    while True:
        taken, pairs = [], 0
        for k, stack in enumerate(stacks):
            if stack and (not taken or pairs + stack[-1][2] * max_features <= STEP_PAIRS):
                taken.append(k)
                pairs += stack[-1][2] * max_features
        if not taken:
            break
        items = [stacks[k].pop() for k in taken]
        cand = np.array([_candidates(bitgens[k], d, max_features) for k in taken])
        rows = np.concatenate([item[0] for item in items])
        mult = np.concatenate([item[1] for item in items])
        lens = np.array([len(item[0]) for item in items])
        parent, side, depth = np.array([item[3:] for item in items]).T
        f, thr, found, counts, left, entry, start, g = _best_splits(
            X, y, hot, rank, rows, mult, lens, cand, min_leaf)
        m, tree = len(items), np.array(taken)
        feature = np.where(found, f, -1)
        threshold = np.where(found, thr, 0.0)
        records.append((np.array([tree, parent, side, depth, feature,
                                  np.where(found, -1, counts.argmax(axis=0))]), threshold))
        ids = n_nodes + np.arange(m)
        n_nodes += m
        split = np.flatnonzero(found)
        if not len(split):
            continue
        # the children of split node split[s] are 2s (left) and 2s + 1 (right)
        left = left[:, split]
        child_counts = np.stack([left, counts[:, split] - left], axis=2).reshape(n_classes, -1)
        child_depth = np.repeat(depth[split] + 1, 2)
        grows = can_split(child_counts, child_depth)
        leaf = np.flatnonzero(~grows)
        up = split[leaf // 2]
        records.append((np.array([tree[up], ids[up], leaf % 2, child_depth[leaf],
                                  np.full(len(leaf), -1), child_counts[:, leaf].argmax(axis=0)]),
                        np.zeros(len(leaf))))
        n_nodes += len(leaf)
        waiting = np.flatnonzero(grows)
        if not len(waiting):
            continue
        # a child's rows are a slice of its parent's segment sorted on the
        # split feature: the left child's up to the cut, the right one's after
        up = split[waiting // 2]
        child_side = waiting % 2
        bounds = np.stack([start, g + 1, start + lens])
        children = zip(tree[up].tolist(), bounds[child_side, up].tolist(),
                       bounds[child_side + 1, up].tolist(),
                       child_counts[:, waiting].sum(axis=0).tolist(), ids[up].tolist(),
                       child_side.tolist(), child_depth[waiting].tolist())
        # trees differ between nodes, so pushing in reverse puts each right
        # child below its left sibling; the gathers pin no array of this step
        for k, a, b, size, parent_id, right, child_d in reversed(list(children)):
            at = entry[a:b]
            stacks[k].append((rows.take(at), mult.take(at), size, parent_id, right, child_d))
    ints, threshold = (np.concatenate(c, axis=-1) for c in zip(*records))
    del records  # the per-step arrays, which would double the assembly's peak
    return _assemble(len(rngs), *ints, threshold)


def _assemble(n_trees, tree, parent, side, depth, feature, vote, threshold):
    """The trees of `_grow_forest`'s node records, each node numbered in its
    tree's preorder: a left child follows its parent, and a right child
    follows its parent and the whole left subtree."""
    first = np.full(len(tree), -1)  # each split node's left child
    is_left = (parent >= 0) & (side == 0)
    first[parent[is_left]] = np.flatnonzero(is_left)
    by_depth = np.argsort(depth, kind="stable")
    levels = np.split(by_depth, np.cumsum(np.bincount(depth))[:-1])[1:]
    size = np.ones(len(tree), dtype=np.intp)  # nodes in each subtree
    for level in reversed(levels):
        np.add.at(size, parent[level], size[level])
    pre = np.zeros(len(tree), dtype=np.intp)
    for level in levels:
        up = parent[level]
        pre[level] = pre[up] + 1 + side[level] * size[first[up]]
    internal = feature >= 0
    left = np.where(internal, pre + 1, -1)
    right = np.where(internal, pre + 1 + size[first], -1)
    order = np.lexsort((pre, tree))
    bounds = np.cumsum(np.bincount(tree, minlength=n_trees))[:-1]
    # each tree gathers its own arrays: a view of a forest-wide array would
    # keep all of it alive, high on the heap, as long as the model lives
    return [DecisionTree(feature[nodes], threshold[nodes], left[nodes], right[nodes],
                         vote[nodes]) for nodes in np.split(order, bounds)]


@dataclass(frozen=True, eq=False)
class DetectorModel(FittedModel):
    """A fitted detector. It is immutable, so the forms `predict` and
    `predict_batch` derive from its trees are built once per object. Models
    compare by identity."""

    kind: str  # "random_forest" | "linear"
    dataset_kind: str
    feature_names: tuple
    classes: tuple  # declaration order; prediction ties break on this order
    trees: tuple = ()
    weights: np.ndarray | None = None  # (d+1, n_classes) for linear

    @cached_property
    def _forest(self) -> _Forest:
        return _Forest.stack(self.trees)

    @cached_property
    def _walk(self):
        # built at the first single-record predict, never for a batch
        return _compile_walk(self._forest, len(self.feature_names), len(self.classes))

    def _checked(self, X: np.ndarray) -> np.ndarray:
        if X.ndim != 2 or X.shape[1] != len(self.feature_names):
            raise PredictionError(
                f"expected {len(self.feature_names)} features, got shape {X.shape}"
            )
        return X

    def _class_indices(self, X: np.ndarray) -> np.ndarray:
        X = self._checked(X)
        if self.kind == "random_forest":
            return self._forest.predict(X, len(self.classes))
        scores = np.column_stack([X, np.ones(X.shape[0])]) @ self.weights
        return scores.argmax(axis=1)

    def predict_batch(self, X: np.ndarray, as_indices: bool = False) -> np.ndarray:
        """Each row's class label, or with `as_indices` its index in `classes`.
        The labels are a unicode array as wide as the widest class name,
        also for an empty batch."""
        indices = self._class_indices(X)
        return indices if as_indices else np.array(self.classes).take(indices)

    def predict(self, features) -> str:
        """The class of one record; a forest walks its compiled trees."""
        if self.kind != "random_forest":
            x = np.asarray(features, dtype=float).reshape(1, -1)
            return str(self.classes[self._class_indices(x)[0]])
        x = list(map(float, features))
        if len(x) != len(self.feature_names):
            raise PredictionError(
                f"expected {len(self.feature_names)} features, got shape (1, {len(x)})"
            )
        return str(self.classes[self._walk(*x)])


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
    if not np.isfinite(train.X).all():
        row, col = np.argwhere(~np.isfinite(train.X))[0].tolist()
        raise TrainingError(f"non-finite feature value {train.X[row, col]} in row {row}, "
                            f"column {train.feature_names[col]}")
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
    """Accuracy, per-class F1 and per-attack-class false-alarm rate, from one
    confusion matrix of true against predicted class index. A test label the
    model has no class for is its own true row: a miss for every class."""
    if len(test) == 0:
        raise EvaluationError("empty test dataset")
    if tuple(test.feature_names) != tuple(model.feature_names):
        raise EvaluationError(
            f"schema mismatch: model {model.feature_names} vs data {test.feature_names}"
        )
    k, n = len(model.classes), len(test)
    pred = model.predict_batch(test.X, as_indices=True)
    truth = np.full(n, k)
    for i, c in enumerate(model.classes):
        truth[test.labels == c] = i
    confusion = np.bincount(truth * k + pred, minlength=(k + 1) * k).reshape(k + 1, k)
    tp = confusion.diagonal()
    fp = confusion.sum(axis=0) - tp
    fn = confusion.sum(axis=1)[:k] - tp
    tn = n - tp - fp - fn
    accuracy = float(tp.sum() / n)  # correctly rounded, as the mean of a 0/1 array is
    f1, far = {}, {}
    for i, c in enumerate(model.classes):
        denom = 2 * tp[i] + fp[i] + fn[i]
        f1[c] = float(2 * tp[i] / denom) if denom > 0 else 0.0
        if c != NORMAL:
            far[c] = float(fp[i] / (fp[i] + tn[i])) if (fp[i] + tn[i]) > 0 else 0.0
    return DetectionMetrics(accuracy=accuracy, f1=f1, far=far)


# ---------------------------------------------------------------------------
# Serialization

# each tree array and the dtype it loads as, in file order
_TREE_FIELDS = {"feature": int, "threshold": float, "left": int, "right": int, "vote": int}


def _tree_from_obj(obj, path, n_features, n_classes):
    """A tree from its JSON object, refusing arrays the forest cannot stack
    and entries of the wrong type: an int array takes only integers, and the
    thresholds only numbers. `_Forest.stack` checks the child pointers."""
    with fields_at(path, obj, EvaluationError):
        columns = {key: obj[key] for key in _TREE_FIELDS}
    m = len(columns["feature"]) if isinstance(columns["feature"], list) else 0
    arrays = {}
    for key, column in columns.items():
        if not (isinstance(column, list) and m):
            raise EvaluationError(f"{path}.{key}: must be a non-empty array")
        if len(column) != m:
            raise EvaluationError(f"{path}.{key}: {len(column)} entries, feature has {m}")
        # exact types: a JSON boolean is not a number, and a cast would
        # truncate a fractional index or vote
        dtype = _TREE_FIELDS[key]
        allowed, what = ({int}, "an integer") if dtype is int else ({int, float}, "a number")
        if not set(map(type, column)) <= allowed:
            i = next(i for i, v in enumerate(column) if type(v) not in allowed)
            raise EvaluationError(f"{path}.{key}[{i}]: must be {what}, got {column[i]!r}")
        try:
            arrays[key] = np.array(column, dtype=dtype)
        except OverflowError as exc:  # an integer too large for the array's type
            raise EvaluationError(f"{path}.{key}: {exc}") from None
    tree = DecisionTree(**arrays)
    bad = np.flatnonzero((tree.feature < -1) | (tree.feature >= n_features))
    if len(bad):
        raise EvaluationError(f"{path}.feature[{bad[0]}]: feature {tree.feature[bad[0]]} "
                              f"outside [-1, {n_features})")
    leaf = tree.feature < 0
    bad = np.flatnonzero(np.where(leaf, (tree.vote < 0) | (tree.vote >= n_classes),
                                  tree.vote != -1))
    if len(bad):
        i, vote = bad[0], tree.vote[bad[0]]
        raise EvaluationError(f"{path}.vote[{i}]: " + (
            f"leaf vote {vote} outside [0, {n_classes})" if leaf[i] else
            f"split vote {vote}, must be -1"))
    return tree


def _tree_to_obj(tree: DecisionTree):
    return {key: getattr(tree, key).tolist() for key in _TREE_FIELDS}


def _head_to_obj(model: DetectorModel):
    """A detector's fields before its trees or weights."""
    return {
        "kind": model.kind,
        "dataset_kind": model.dataset_kind,
        "feature_names": list(model.feature_names),
        "classes": list(model.classes),
    }


def model_to_obj(model: DetectorModel):
    obj = _head_to_obj(model)
    if model.kind == "random_forest":
        obj["trees"] = [_tree_to_obj(t) for t in model.trees]
    else:
        obj["weights"] = model.weights.tolist()
    return obj


def model_from_obj(obj, path) -> DetectorModel:
    """A detector from its JSON object at JSON path `path`; a missing field, an
    unknown kind, no class, a class that is not a label or comes twice, a wrong
    shape or a malformed tree raises EvaluationError."""
    with fields_at(path, obj, EvaluationError):
        kind = obj["kind"]
        if kind not in ("random_forest", "linear"):
            raise EvaluationError(f"{path}.kind: must be 'random_forest' or 'linear', got {kind!r}")
        names, classes = (tuple(array_at(f"{path}.{key}", obj[key], EvaluationError))
                          for key in ("feature_names", "classes"))
        if not classes:
            raise EvaluationError(f"{path}.classes: must be a non-empty array")
        for i, label in enumerate(classes):
            if label not in LABELS:
                raise EvaluationError(f"{path}.classes[{i}]: must be one of "
                                      f"{', '.join(LABELS)}, got {label!r}")
            if label in classes[:i]:
                raise EvaluationError(f"{path}.classes[{i}]: {label!r} appears twice")
        dataset_kind = obj["dataset_kind"]
        params = obj["trees" if kind == "random_forest" else "weights"]
    if kind == "linear":
        return DetectorModel(kind, dataset_kind, names, classes, weights=floats_at(
            f"{path}.weights", params, (len(names) + 1, len(classes)), EvaluationError))
    if not isinstance(params, list) or not params:
        raise EvaluationError(f"{path}.trees: must be a non-empty array")
    trees = tuple(
        _tree_from_obj(t, f"{path}.trees[{k}]", len(names), len(classes))
        for k, t in enumerate(params)
    )
    _Forest.stack(trees, path)  # checks every child pointer; the model restacks at first use
    return DetectorModel(kind, dataset_kind, names, classes, trees=trees)


def _document_pieces(models: dict, severity_obj):
    """The model file's text in document order, one tree per piece, joined
    as `json.dumps` joins the whole document."""
    yield f'{{"version": {json.dumps(MODEL_FORMAT_VERSION)}, "detectors": {{'
    for i, (key, model) in enumerate(models.items()):
        yield f'{", " if i else ""}{json.dumps(key)}: '
        if model.kind != "random_forest":
            yield json.dumps(model_to_obj(model))
            continue
        yield json.dumps(_head_to_obj(model))[:-1] + ', "trees": ['
        for k, tree in enumerate(model.trees):
            yield (", " if k else "") + json.dumps(_tree_to_obj(tree))
        yield "]}"
    yield "}"
    if severity_obj is not None:
        yield f', "severity": {json.dumps(severity_obj)}'
    yield "}"


def save_models(path, models: dict, severity_obj=None):
    """Write detectors (and optionally a severity model) to one versioned
    JSON file keyed by '<dataset_kind>/<model_kind>'. The file is written one
    tree at a time, each piece by the C encoder (`json.dump` encodes in pure
    Python), and its bytes are those of `json.dumps` of the whole document.
    It goes to a temporary sibling first, which replaces `path` only once
    complete, so a failed save leaves an earlier file as it was."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.writelines(_document_pieces(models, severity_obj))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def load_models(path):
    """Detectors and the raw severity object from a model file; malformed input
    raises `<file>: <JSON path>: <message>` (ValueError for severity, else EvaluationError)."""
    return parse_file(path, _models_from_json)


def _models_from_json(text):
    doc = load_document(text, EvaluationError)
    if doc.get("version") != MODEL_FORMAT_VERSION:
        raise EvaluationError(f"$.version: unsupported model file version {doc.get('version')!r}; "
                              f"refit with `secflow train-detect`, which writes version "
                              f"{MODEL_FORMAT_VERSION}")
    with fields_at("$", doc, EvaluationError):
        with fields_at("$.detectors", doc["detectors"], EvaluationError) as detectors:
            models = {key: model_from_obj(obj, f"$.detectors[{json.dumps(key)}]")
                      for key, obj in detectors.items()}
    # a detector keyed '<dataset kind>/…' reads that kind's telemetry records
    for key, model in models.items():
        for kind, names in FEATURES.items():
            if key.startswith(f"{kind.value}/") and model.feature_names != names:
                got = list(model.feature_names)
                raise EvaluationError(
                    f"$.detectors[{json.dumps(key)}].feature_names: must be the {len(names)} "
                    f"{kind.value} features, got {got if len(got) == len(names) else len(got)}")
    severity_obj = doc.get("severity")
    if severity_obj is not None:
        severity_from_obj(severity_obj)  # checks every entry before any run
    return models, severity_obj
