import inspect
import math
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wearbench import models
from wearbench.errors import DegenerateLabels
from wearbench.models import ModelKind, ModelSpec


@pytest.fixture(scope="module")
def blobs():
    rng = np.random.default_rng(2)
    x0 = rng.normal(size=(15, 2)) + [2.0, 2.0]
    x1 = rng.normal(size=(15, 2)) - [2.0, 2.0]
    x = np.vstack([x0, x1])
    y = np.array([0] * 15 + [1] * 15)
    return x, y


@st.composite
def fold_stacks(draw):
    """A stack of f folds, each with both classes, plus query rows; rounded
    draws repeat values, so pair choices and clipping meet ties."""
    f = draw(st.integers(1, 6))
    n = draw(st.integers(4, 20))
    d = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.normal(size=(f, n, d)) * draw(st.sampled_from([0.1, 1.0, 10.0]))
    if draw(st.booleans()):
        x = np.round(x)
    y = (rng.random((f, n)) < draw(st.sampled_from([0.2, 0.5]))).astype(int)
    y[:, :2] = [0, 1]
    for fold in y:
        rng.shuffle(fold)
    return x, y, np.round(rng.normal(size=(f, 3, d)), 1)


class TestKnn:
    def test_k1_resubstitution_is_perfect(self, blobs):
        x, y = blobs
        knn = models.KnnClassifier(k=1).fit(x[None], y[None])
        assert np.array_equal(knn.predict(x[None])[0], y)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(40, 6))
        y = (rng.random(40) > 0.4).astype(int)
        for k in (1, 3, 5, 7, 40, 45):  # 45 is past the 40 training rows
            model = models.KnnClassifier(k=k).fit(x[None], y[None])
            for _ in range(50):
                q = rng.normal(size=6)
                dist = [(float(np.sum((x[i] - q) ** 2)), i)
                        for i in range(40)]
                dist.sort()
                votes = [y[i] for _, i in dist[:k]]
                expect = int(sum(votes) > len(votes) - sum(votes))
                assert model.predict(q[None, None, :])[0, 0] == expect

    def test_tie_goes_to_class_zero(self):
        x = np.array([[0.0], [2.0]])
        y = np.array([0, 1])
        knn = models.KnnClassifier(k=2).fit(x[None], y[None])
        assert knn.predict(np.array([1.0])[None, None, :])[0, 0] == 0

    def test_degenerate_labels(self):
        with pytest.raises(DegenerateLabels):
            models.KnnClassifier(k=1).fit(np.zeros((3, 1))[None],
                                          np.zeros(3)[None])

    @settings(max_examples=60, deadline=None)
    @given(stack=fold_stacks(), k=st.integers(1, 7))
    def test_stacked_predict_equals_per_fold_fit(self, stack, k):
        x, y, queries = stack
        got = models.KnnClassifier(k=k).fit(x, y).predict(queries)
        assert got.shape == queries.shape[:2]
        for fold in range(len(x)):
            alone = models.KnnClassifier(k=k).fit(x[fold:fold + 1],
                                                  y[fold:fold + 1])
            assert np.array_equal(got[fold],
                                  alone.predict(queries[fold:fold + 1])[0])

    def test_one_single_class_fold_raises(self):
        x = np.zeros((3, 4, 1))
        y = np.array([[0, 1, 0, 1], [0, 0, 0, 0], [1, 0, 1, 0]])
        with pytest.raises(DegenerateLabels):
            models.KnnClassifier(k=1).fit(x, y)

    @settings(max_examples=60, deadline=None)
    @given(stack=fold_stacks(), one_fold=st.booleans())
    def test_k_path_rows_equal_one_fit_per_k(self, stack, one_fold):
        x, y, queries = stack
        if one_fold:
            x, y, queries = x[:1], y[:1], queries[:1]
        f, ks = len(x), (5, 1, 3, 100)  # 100 is past every training row
        got = models.KnnClassifier(k=ks).fit(x, y).predict(queries)
        assert got.shape == (len(ks) * f, queries.shape[1])
        for i, k in enumerate(ks):  # path-major: model i * f + fold
            alone = models.KnnClassifier(k=k).fit(x, y).predict(queries)
            assert np.array_equal(got[i * f:(i + 1) * f], alone)

    def test_k_past_the_rows_votes_among_all_rows(self):
        x = np.array([[0.0], [1.0], [2.0]])
        knn = models.KnnClassifier(k=(3, 4, 50)).fit(x[None],
                                                     np.array([[0, 1, 1]]))
        assert knn.predict(np.array([[[0.0]]])).tolist() == [[1], [1], [1]]

    @pytest.mark.parametrize("k", [[], (), [3, 0], [1, -2, 5], 0])
    def test_k_path_must_hold_counts_of_at_least_one(self, k):
        with pytest.raises(ValueError):
            models.KnnClassifier(k=k)


def exhaustive_best_split_1d(values, labels):
    """Independent oracle: enumerate every midpoint, weighted Gini."""
    order = np.argsort(values, kind="stable")
    xs, ys = np.asarray(values)[order], np.asarray(labels)[order]
    n = len(xs)

    def gini(lbls):
        if len(lbls) == 0:
            return 0.0
        p1 = np.mean(np.asarray(lbls) == 1)
        return 1.0 - p1 ** 2 - (1 - p1) ** 2

    best = None
    for i in range(n - 1):
        if xs[i] == xs[i + 1]:
            continue
        thr = (xs[i] + xs[i + 1]) / 2.0
        left, right = ys[:i + 1], ys[i + 1:]
        score = (len(left) * gini(left) + len(right) * gini(right)) / n
        if best is None or score < best[1] - 1e-15:
            best = (thr, score)
    return best


def column_splits(x, target, min_samples_leaf, criterion):
    """Per column of ``x``, the ``(threshold, score)`` the trees' split
    search keeps for a node of every row, or None."""
    threshold, score = models._column_splits(
        x, target, [np.arange(len(x))], None, min_samples_leaf, criterion)
    return [None if s == np.inf else (t, s)
            for t, s in zip(threshold[:, 0].tolist(), score[:, 0].tolist())]


def best_gini_split(x_col, y, min_samples_leaf=1):
    """Best (threshold, weighted Gini impurity) for one feature, or None,
    from the split search the trees use."""
    return column_splits(np.asarray(x_col, dtype=float)[:, None],
                         np.asarray(y), min_samples_leaf, models._GINI)[0]


def _scalar_gini(counts):
    n = counts.sum()
    if n == 0:
        return 0.0
    p = counts / n
    return float(1.0 - np.sum(p * p))


def scalar_best_gini_split(x_col, y, min_samples_leaf=1):
    """Oracle: the per-threshold Gini loop the vectorised search replaced."""
    order = np.argsort(x_col, kind="stable")
    xs, ys = x_col[order], y[order]
    n = xs.size
    ones = np.cumsum(ys == 1)
    zeros = np.cumsum(ys == 0)
    best = None
    for i in range(min_samples_leaf - 1, n - min_samples_leaf):
        if xs[i] == xs[i + 1]:
            continue
        n_left = i + 1
        left = np.array([zeros[i], ones[i]])
        right = np.array([zeros[-1] - zeros[i], ones[-1] - ones[i]])
        score = (n_left * _scalar_gini(left)
                 + (n - n_left) * _scalar_gini(right)) / n
        if best is None or score < best[1] - 1e-15:
            best = ((xs[i] + xs[i + 1]) / 2.0, score)
    return best


def scalar_best_sse_split(x_col, r, min_samples_leaf=1):
    """Oracle: the per-threshold squared-error loop it replaced."""
    order = np.argsort(x_col, kind="stable")
    xs, rs = x_col[order], r[order]
    n = xs.size
    csum = np.cumsum(rs)
    csum2 = np.cumsum(rs * rs)
    total, total2 = csum[-1], csum2[-1]
    best = None
    for i in range(min_samples_leaf - 1, n - min_samples_leaf):
        if xs[i] == xs[i + 1]:
            continue
        n_left = i + 1
        # squares as products: ``**`` on a NumPy scalar calls C ``pow``,
        # which can miss x * x by an ulp (1.5000000000000007 ** 2)
        left, right = csum[i], total - csum[i]
        sse_left = csum2[i] - left * left / n_left
        n_right = n - n_left
        sse_right = (total2 - csum2[i]) - right * right / n_right
        score = sse_left + sse_right
        if best is None or score < best[1] - 1e-12:
            best = ((xs[i] + xs[i + 1]) / 2.0, score)
    return best


def gini_node_score(y):
    """Oracle: a node's Gini impurity, as the per-node tree computed it."""
    p0, p1 = int(np.sum(y == 0)) / y.size, int(np.sum(y == 1)) / y.size
    return 1.0 - (p0 * p0 + p1 * p1)


def sse_node_score(r):
    return float(np.sum((r - r.mean()) ** 2))


def scalar_node_split(x, target, min_samples_leaf, splitter, node_score):
    """Oracle: the first feature wins near-ties, and a node splits only if
    it improves on its own score by more than 1e-15."""
    best = None
    for f in range(x.shape[1]):
        cand = splitter(x[:, f], target, min_samples_leaf)
        if cand is not None and (best is None or cand[1] < best[2] - 1e-15):
            best = (f, cand[0], cand[1])
    if best is None or not best[2] < node_score - 1e-15:
        return None
    return best[:2]


@st.composite
def duplicate_heavy(draw):
    n = draw(st.integers(2, 24))
    d = draw(st.integers(1, 5))
    x = np.array(draw(st.lists(st.integers(-3, 3), min_size=n * d,
                               max_size=n * d)), dtype=float).reshape(n, d)
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    r = np.array(draw(st.lists(st.integers(-4, 4), min_size=n,
                               max_size=n)), dtype=float) / 10.0
    return x, y, r, draw(st.integers(1, 3))


class TestSplitSearch:
    @settings(max_examples=300, deadline=None)
    @given(duplicate_heavy())
    def test_every_column_matches_scalar_loops(self, case):
        x, y, r, msl = case
        gini = column_splits(x, y, msl, models._GINI)
        sse = column_splits(x, r, msl, models._SSE)
        for j in range(x.shape[1]):
            assert gini[j] == scalar_best_gini_split(x[:, j], y, msl)
            assert sse[j] == scalar_best_sse_split(x[:, j], r, msl)
            assert best_gini_split(x[:, j], y, msl) == gini[j]

    @settings(max_examples=300, deadline=None)
    @given(duplicate_heavy())
    def test_chosen_split_matches_scalar_cross_feature_rule(self, case):
        x, y, r, msl = case
        for criterion, target, splitter, node_score in (
                (models._GINI, y, scalar_best_gini_split, gini_node_score),
                (models._SSE, r, scalar_best_sse_split, sse_node_score)):
            stump = models._Tree(criterion, 1, msl).fit(x[None], target[None])
            expect = None
            if x.shape[0] >= 2 * msl and node_score(target) > 0.0:
                expect = scalar_node_split(x, target, msl, splitter,
                                           node_score(target))
            if expect is None:
                assert stump.left[0] < 0
            else:
                assert (stump.feature[0], stump.threshold[0]) == expect

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda n: st.lists(
               st.lists(st.integers(-3, 3) | st.none(), min_size=n,
                        max_size=n), min_size=1, max_size=4)),
           st.sampled_from([1e-15, 1e-12]))
    def test_scan_matches_naive_scan(self, cols, tol):
        # chains of scores 0.6 * tol apart: a step down beats the kept score
        # only once two steps have accumulated
        steps = np.array([[np.inf if v is None else v for v in c]
                          for c in cols]).T
        scores = 0.25 + np.cumsum(np.where(np.isinf(steps), 0.0, steps),
                                  axis=0) * 0.6 * tol
        scores[np.isinf(steps)] = np.inf
        rows, kept_scores = models._scan(scores, tol)
        for c, (row, score) in enumerate(zip(rows.tolist(),
                                             kept_scores.tolist())):
            kept = None if row < 0 else (row, score)
            naive = None
            for i, s in enumerate(scores[:, c].tolist()):
                if s == np.inf:
                    continue
                if naive is None or s < naive[1] - tol:
                    naive = (i, s)
            assert kept == naive


class TestDecisionTree:
    def test_1d_hand_case(self):
        x = np.array([[0.0], [1.0], [10.0], [11.0]])
        y = np.array([0, 0, 1, 1])
        tree = models.DecisionTreeClassifier().fit(x[None], y[None])
        assert 1.0 < tree.tree.threshold[0] < 10.0
        assert tree.predict(np.array([5.0])[None, None, :])[0, 0] == (
            0 if 5.0 <= tree.tree.threshold[0] else 1)
        assert np.array_equal(tree.predict(x[None])[0], y)

    def test_root_split_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(60):
            n = int(rng.integers(4, 21))
            values = np.round(rng.normal(size=n), 3)
            labels = (rng.random(n) > 0.5).astype(int)
            if len(set(labels)) < 2:
                continue
            oracle = exhaustive_best_split_1d(values, labels)
            got = best_gini_split(values, labels)
            if oracle is None:
                assert got is None
                continue
            assert got is not None
            assert got[0] == pytest.approx(oracle[0], abs=0.0)
            assert got[1] == pytest.approx(oracle[1], rel=1e-12)

    def test_max_depth_limits_tree(self, blobs):
        x, y = blobs
        stump = models.DecisionTreeClassifier(max_depth=1).fit(x[None],
                                                               y[None])
        t = stump.tree
        assert t.left[t.left[0]] < 0 and t.left[t.right[0]] < 0

    def test_pure_node_is_leaf(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        tree = models.DecisionTreeClassifier().fit(x[None], y[None])
        t = tree.tree
        assert t.left[t.left[0]] < 0 and t.left[t.right[0]] < 0


    @pytest.mark.parametrize("column", [
        [-np.inf, np.inf, -np.inf, np.inf],
        [1.7e308, 1.75e308, 1.7e308, 1.75e308],
        [-1.7e308, -1.75e308, -1.7e308, -1.75e308],
    ], ids=["nan midpoint", "midpoint overflows up", "midpoint overflows down"])
    def test_no_split_leaves_a_child_empty(self, column):
        # each midpoint sends every row one way, so no split is a candidate;
        # the depth cap ends the run should one be taken anyway
        x = np.array(column)[:, None]
        y = np.array([0, 1, 0, 1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trees = [models.DecisionTreeClassifier(3).fit(x[None],
                                                          y[None]).tree,
                     *models.GradientBoostingClassifier(3).fit(
                         x[None], y[None])._trees,
                     *models.RandomForestClassifier(3, 3, seed=[1]).fit(
                         x[None], y[None])._trees]
        assert all(np.all(tree.left < 0) for tree in trees)


class TestRandomForest:
    def test_separable_and_deterministic(self, blobs):
        x, y = blobs
        a = models.RandomForestClassifier(n_estimators=30, seed=[3]).fit(
            x[None], y[None])
        b = models.RandomForestClassifier(n_estimators=30, seed=[3]).fit(
            x[None], y[None])
        assert np.array_equal(a.predict(x[None]), b.predict(x[None]))
        assert float(np.mean(a.predict(x[None])[0] == y)) >= 0.95

    def test_seed_changes_votes(self, blobs):
        x, y = blobs
        rng = np.random.default_rng(0)
        probe = rng.normal(size=(200, 2)) * 3
        a = models.RandomForestClassifier(n_estimators=5, seed=[1]).fit(
            x[None], y[None])
        b = models.RandomForestClassifier(n_estimators=5, seed=[2]).fit(
            x[None], y[None])
        assert not np.array_equal(a.predict(probe[None])[0],
                                  b.predict(probe[None])[0])


class TestGradientBoosting:
    def test_separable(self, blobs):
        x, y = blobs
        gb = models.GradientBoostingClassifier(
            n_estimators=50, learning_rate=0.1).fit(x[None], y[None])
        assert np.array_equal(gb.predict(x[None])[0], y)

    def test_logistic_loss_decreases(self, blobs):
        x, y = blobs

        def loss(n_est):
            gb = models.GradientBoostingClassifier(
                n_estimators=n_est, learning_rate=0.1).fit(x[None], y[None])
            p = 1.0 / (1.0 + np.exp(-gb.decision_scores(x[None])[0]))
            p = np.clip(p, 1e-12, 1 - 1e-12)
            return -float(np.mean(y * np.log(p) + (1 - y) * np.log(1 - p)))

        losses = [loss(n) for n in (1, 5, 20, 60)]
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_base_score_is_prior_log_odds(self):
        x = np.arange(10, dtype=float).reshape(-1, 1)
        y = np.array([0, 0, 0, 0, 0, 0, 1, 1, 1, 1])
        gb = models.GradientBoostingClassifier(n_estimators=1).fit(x[None],
                                                                   y[None])
        assert gb._base_score == pytest.approx(math.log(0.4 / 0.6))

    @pytest.mark.parametrize("f", [1, 3])
    def test_stage_path_blocks_equal_one_fit_per_count(self, f):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(f, 14, 3))
        y = np.tile([0, 1], (f, 7))
        queries = rng.normal(size=(f, 5, 3))
        counts = (3, 1, 3)  # unsorted and repeated: rows come in this order
        path = models.GradientBoostingClassifier(n_estimators=counts).fit(x, y)
        assert len(path._trees) == 3
        scores = path.decision_scores(queries)
        assert scores.shape == (len(counts) * f, 5)
        for i, count in enumerate(counts):
            alone = models.GradientBoostingClassifier(count).fit(x, y)
            assert scores[i * f:(i + 1) * f].tobytes() \
                == alone.decision_scores(queries).tobytes()
            expect = np.repeat(path._base_score[:, None], 5, axis=1)
            for tree in path._trees[:count]:  # the first count stages
                expect = expect + 0.1 * tree.predict(queries)
            assert scores[i * f:(i + 1) * f].tobytes() == expect.tobytes()
            assert np.array_equal(path.predict(queries)[i * f:(i + 1) * f],
                                  alone.predict(queries))

    def test_empty_stage_path_raises(self):
        for empty in ([], ()):
            with pytest.raises(ValueError):
                models.GradientBoostingClassifier(n_estimators=empty)

    def test_stage_path_scores_hold_no_copy_per_stage(self):
        rng = np.random.default_rng(7)
        gb = models.GradientBoostingClassifier(n_estimators=(50, 200)).fit(
            rng.normal(size=(1, 30, 3)), np.tile([0, 1], (1, 15)))
        queries = rng.normal(size=(1, 10_000, 3))
        tracemalloc.start()
        try:
            gb.decision_scores(queries)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the two kept (f, m) score arrays plus a few per-stage temporaries;
        # one copy per stage would be 100 times this
        assert peak < 8 * (2 * 1 * 10_000 * 8)


def oracle_tree(x, target, min_samples_leaf, max_depth, splitter,
                node_score, leaf_value, sampler=None):
    """Oracle: the recursive pre-order growth the lock-step kernel
    replaced, on the scalar split loops. Returns the feature, threshold,
    left, right and value arrays, and the leaf of each row."""
    nodes, leaf_of = [], np.zeros(len(x), dtype=int)

    def grow(rows, depth):
        index = len(nodes)
        nodes.append([0, 0.0, -1, -1, 0.0])
        t = target[rows]
        split = None
        if not ((max_depth is not None and depth >= max_depth)
                or rows.size < 2 * min_samples_leaf or node_score(t) <= 0.0):
            features = [int(f) for f in (
                sampler(x.shape[1]) if sampler else range(x.shape[1]))]
            split = scalar_node_split(x[rows][:, features], t,
                                      min_samples_leaf, splitter,
                                      node_score(t))
        if split is None:
            nodes[index][4] = leaf_value(t)
            leaf_of[rows] = index
            return index
        f, thr = features[split[0]], split[1]
        go_left = x[rows, f] <= thr
        left = grow(rows[go_left], depth + 1)
        nodes[index][:4] = [f, thr, left, grow(rows[~go_left], depth + 1)]
        return index

    grow(np.arange(len(x)), 0)
    return [np.array(column) for column in zip(*nodes)], leaf_of


def oracle_decision_tree(x, y, min_samples_leaf, max_depth, sampler=None):
    return oracle_tree(
        x, y, min_samples_leaf, max_depth, scalar_best_gini_split,
        gini_node_score, lambda t: float(np.sum(t == 1) > np.sum(t == 0)),
        sampler)[0]


def oracle_forest(x, y, n_estimators, max_depth, min_samples_leaf, seed):
    """Oracle: each tree on its bootstrap, drawing its features from the
    same generator, after the bootstrap, at each node that searches."""
    n, d = x.shape
    m = max(1, int(round(math.sqrt(d))))
    trees = []
    for ss in np.random.SeedSequence(seed).spawn(n_estimators):
        rng = np.random.default_rng(ss)
        idx = rng.integers(0, n, n)
        trees.append(oracle_decision_tree(
            x[idx], y[idx], min_samples_leaf, max_depth,
            lambda k, rng=rng: sorted(rng.choice(k, size=min(m, k),
                                                 replace=False))))
    return trees


def oracle_boosting(x, y, n_estimators, learning_rate, max_depth):
    """Oracle: the stage loop with one Newton step per leaf."""
    y = y.astype(float)
    p0 = min(max(float(y.mean()), 1e-9), 1.0 - 1e-9)
    scores = np.full(y.size, math.log(p0 / (1.0 - p0)))
    trees = []
    for _ in range(n_estimators):
        p = models._sigmoid(scores)
        residual, hessian = y - p, p * (1.0 - p)
        arrays, leaf = oracle_tree(x, residual, 1, max_depth,
                                   scalar_best_sse_split, sse_node_score,
                                   lambda r: float(r.mean()))
        for node in np.unique(leaf).tolist():
            rows = leaf == node
            arrays[4][node] = float(residual[rows].sum()) \
                / max(float(hessian[rows].sum()), 1e-12)
        trees.append(arrays)
        scores = scores + learning_rate * arrays[4][leaf]
    return trees


def tree_arrays(stack, k):
    """Tree k of a stack of trees, its node ids counted from its root."""
    lo = stack.roots[k]
    hi = stack.roots[k + 1] if k + 1 < len(stack.roots) \
        else len(stack.feature)

    def local(child):
        return np.where(child[lo:hi] >= 0, child[lo:hi] - lo, -1)

    return [stack.feature[lo:hi], stack.threshold[lo:hi], local(stack.left),
            local(stack.right), stack.value[lo:hi]]


def assert_same_arrays(got, expect):
    for name, a, b in zip(("feature", "threshold", "left", "right", "value"),
                          got, expect):
        assert np.asarray(a, dtype=float).tobytes() \
            == np.asarray(b, dtype=float).tobytes(), name


@st.composite
def tree_stacks(draw):
    """A fold stack from ``fold_stacks``, or one of small integers, which
    tie in most columns."""
    if draw(st.booleans()):
        return draw(fold_stacks())
    f, n, d = (draw(st.integers(1, 4)), draw(st.integers(2, 16)),
               draw(st.integers(1, 4)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    y = rng.integers(0, 2, (f, n))
    y[:, :2] = [0, 1]
    return (rng.integers(-3, 4, (f, n, d)).astype(float), y,
            rng.integers(-3, 4, (f, 3, d)).astype(float))


class TestStackedTrees:
    """A stack of folds grows every tree in one lock-step; each tree must
    equal, bit for bit, the tree its fold grows alone and the recursive
    oracle's."""

    @settings(max_examples=60, deadline=None)
    @given(stack=tree_stacks(), msl=st.integers(1, 3),
           max_depth=st.sampled_from([None, 1, 3]))
    def test_decision_trees_equal_per_tree_fits(self, stack, msl, max_depth):
        x, y, queries = stack
        dt = models.DecisionTreeClassifier(max_depth, msl).fit(x, y)
        preds = dt.predict(queries)
        for fold in range(len(x)):
            alone = models.DecisionTreeClassifier(max_depth, msl).fit(
                x[fold:fold + 1], y[fold:fold + 1])
            expect = oracle_decision_tree(x[fold], y[fold], msl, max_depth)
            assert_same_arrays(tree_arrays(dt.tree, fold), expect)
            assert_same_arrays(tree_arrays(alone.tree, 0), expect)
            assert np.array_equal(preds[fold],
                                  alone.predict(queries[fold:fold + 1])[0])

    @settings(max_examples=50, deadline=None)
    @given(stack=tree_stacks(), msl=st.integers(1, 3),
           max_depth=st.sampled_from([None, 1, 3]),
           n_estimators=st.integers(1, 3), seed=st.integers(0, 1000))
    def test_forests_equal_per_tree_fits(self, stack, msl, max_depth,
                                         n_estimators, seed):
        x, y, queries = stack
        seeds = [seed + fold for fold in range(len(x))]
        rf = models.RandomForestClassifier(n_estimators, max_depth, msl,
                                           seed=seeds).fit(x, y)
        preds = rf.predict(queries)
        for fold in range(len(x)):
            alone = models.RandomForestClassifier(
                n_estimators, max_depth, msl, seed=[seeds[fold]]).fit(
                    x[fold:fold + 1], y[fold:fold + 1])
            expects = oracle_forest(x[fold], y[fold], n_estimators,
                                    max_depth, msl, seeds[fold])
            for tree, expect in enumerate(expects):
                assert_same_arrays(
                    tree_arrays(rf._trees[0], fold * n_estimators + tree),
                    expect)
                assert_same_arrays(tree_arrays(alone._trees[0], tree), expect)
            assert np.array_equal(preds[fold],
                                  alone.predict(queries[fold:fold + 1])[0])

    @settings(max_examples=50, deadline=None)
    @given(stack=tree_stacks(), max_depth=st.sampled_from([1, 3]),
           n_estimators=st.integers(1, 4),
           learning_rate=st.sampled_from([0.1, 0.5]))
    def test_boosted_trees_equal_per_tree_fits(self, stack, max_depth,
                                               n_estimators, learning_rate):
        x, y, queries = stack
        gb = models.GradientBoostingClassifier(
            n_estimators, learning_rate, max_depth).fit(x, y)
        scores = gb.decision_scores(queries)
        for fold in range(len(x)):
            alone = models.GradientBoostingClassifier(
                n_estimators, learning_rate, max_depth).fit(
                    x[fold:fold + 1], y[fold:fold + 1])
            expects = oracle_boosting(x[fold], y[fold], n_estimators,
                                      learning_rate, max_depth)
            for stage, expect in enumerate(expects):
                assert_same_arrays(tree_arrays(gb._trees[stage], fold), expect)
                assert_same_arrays(tree_arrays(alone._trees[stage], 0),
                                   expect)
            assert scores[fold].tobytes() \
                == alone.decision_scores(queries[fold:fold + 1])[0].tobytes()

    @settings(max_examples=50, deadline=None)
    @given(stack=tree_stacks(), msl=st.integers(1, 3),
           max_depth=st.sampled_from([None, 1, 3]), boosted=st.booleans())
    def test_leaves_record_the_partition_apply_finds(self, stack, msl,
                                                    max_depth, boosted):
        # DT and GB grow every tree on all rows of its fold, so the leaves
        # hold each training row once, in the leaf ``apply`` routes it to,
        # ascending: the partition GB's Newton steps sum over
        x, y, _ = stack
        trees = models.GradientBoostingClassifier(
            3, 0.5, max_depth or 2).fit(x, y)._trees if boosted \
            else [models.DecisionTreeClassifier(max_depth, msl).fit(x, y).tree]
        for tree in trees:
            node, size, ids = tree.leaves
            assert np.array_equal(np.sort(ids), np.arange(y.size))
            assert np.all(tree.left[node] < 0)
            leaf = tree.apply(x).ravel()
            for k, rows in zip(node, np.split(ids, np.cumsum(size)[:-1])):
                assert np.array_equal(rows, np.flatnonzero(leaf == k))

    def test_forest_lock_steps_hold_whole_folds(self, monkeypatch):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, 12, 3))
        y = np.tile([0, 1], (5, 6))
        one = models.RandomForestClassifier(3, seed=list(range(5))).fit(x, y)
        monkeypatch.setattr(models, "_LOCKSTEP_TREES", 7)
        split = models.RandomForestClassifier(3, seed=list(range(5))).fit(
            x, y)
        assert [len(stack.roots) for stack in split._trees] == [6, 6, 3]
        for k in range(15):
            stack, tree = divmod(k, 6)
            assert_same_arrays(tree_arrays(split._trees[stack], tree),
                               tree_arrays(one._trees[0], k))
        assert np.array_equal(split.predict(x), one.predict(x))

    @pytest.mark.parametrize("make", [
        models.DecisionTreeClassifier,
        lambda: models.RandomForestClassifier(3, seed=[1, 2, 3]),
        lambda: models.GradientBoostingClassifier(3),
    ], ids=["dt", "rf", "gb"])
    def test_one_single_class_fold_raises(self, make):
        x = np.random.default_rng(0).normal(size=(3, 6, 2))
        y = np.array([[0, 1] * 3, [1] * 6, [1, 0] * 3])
        with pytest.raises(DegenerateLabels):
            make().fit(x, y)


class TestSvm:
    def test_kkt_conditions_at_convergence(self, blobs):
        x, y = blobs
        for kernel, gamma in (("linear", 0.1), ("rbf", 0.5)):
            svm = models.SvmClassifier(c=1.0, kernel=kernel,
                                       gamma=gamma).fit(x[None], y[None])
            f = svm.decision_function(x[None])[0]
            s = np.where(y == 1, 1.0, -1.0)
            alpha = svm._alpha[0]
            assert abs(float(np.sum(alpha * s))) < 1e-9
            for i in range(len(y)):
                margin = s[i] * f[i]
                if alpha[i] < 1e-8:
                    assert margin >= 1.0 - 5e-3
                elif alpha[i] > svm.c[0] - 1e-8:
                    assert margin <= 1.0 + 5e-3
                else:
                    assert margin == pytest.approx(1.0, abs=5e-3)

    def test_separable_accuracy(self, blobs):
        x, y = blobs
        for kernel in ("linear", "rbf"):
            svm = models.SvmClassifier(c=10.0, kernel=kernel,
                                       gamma=0.5).fit(x[None], y[None])
            assert float(np.mean(svm.predict(x[None])[0] == y)) == 1.0

    def test_linear_duality_gap_is_tiny(self, monkeypatch):
        # independent optimality certificate: at the optimum the primal
        # hinge-loss objective equals the dual objective
        rng = np.random.default_rng(14)
        x = np.vstack([rng.normal(size=(12, 3)) + 1.0,
                       rng.normal(size=(12, 3)) - 1.0])
        y = np.array([0] * 12 + [1] * 12)
        c = 2.0
        monkeypatch.setattr(models, "_SVM_TOL", 1e-6)
        svm = models.SvmClassifier(c=c, kernel="linear").fit(x[None], y[None])
        s = np.where(y == 1, 1.0, -1.0)
        alpha = svm._alpha[0]
        w = x.T @ (alpha * s)
        margins = s * (x @ w + svm._bias[0])
        primal = 0.5 * float(w @ w) + c * float(
            np.sum(np.maximum(0.0, 1.0 - margins)))
        q = (s[:, None] * s[None, :]) * (x @ x.T)
        dual = float(alpha.sum() - 0.5 * alpha @ q @ alpha)
        assert primal >= dual - 1e-9
        assert primal - dual <= 1e-4 * max(1.0, abs(primal))

    def test_unknown_kernel(self):
        with pytest.raises(ValueError):
            models.SvmClassifier(kernel="poly")

    @pytest.mark.parametrize("kwargs", [
        {"c": 0.0}, {"c": -1.0}, {"c": math.nan}, {"c": math.inf},
        {"c": "x"}, {"c": None}, {"c": []}, {"c": [1.0, -1.0]},
        {"c": [math.nan, 1.0]}, {"c": [1.0, math.inf]},
        {"gamma": 0.0}, {"gamma": -0.5}, {"gamma": math.nan},
        {"gamma": -math.inf}, {"gamma": None},
    ], ids=repr)
    def test_c_and_gamma_must_be_finite_and_positive(self, kwargs):
        with pytest.raises(ValueError):
            models.SvmClassifier(**kwargs)

    @settings(max_examples=150, deadline=None)
    @given(stack=fold_stacks(), kernel=st.sampled_from(["linear", "rbf"]),
           cs=st.lists(st.sampled_from([0.01, 0.1, 1.0, 10.0]), min_size=1,
                       max_size=4),
           gamma=st.sampled_from([0.05, 0.5, 5.0]),
           cap=st.sampled_from([None, None, 1, 4, 15]),
           one_fold=st.booleans())
    def test_c_sequence_fit_equals_one_fit_per_c(self, stack, kernel, cs,
                                                 gamma, cap, one_fold):
        x, y, queries = stack
        if one_fold:  # a stack of one
            x, y, queries = x[:1], y[:1], queries[:1]
        f = len(x)
        # the equality holds at any cap; for cap=None, 2,000 in place of
        # the production 20,000 bounds the run time
        with mock.patch.object(models, "_SVM_MAX_ITER", cap or 2_000):
            path = models.SvmClassifier(c=cs, kernel=kernel,
                                        gamma=gamma).fit(x, y)
            alone = [models.SvmClassifier(c=c, kernel=kernel,
                                          gamma=gamma).fit(x, y)
                     for c in cs]
        scores = path.decision_function(queries)
        assert path.n_iter.shape == path.hit_cap.shape == (len(cs) * f,)
        assert scores.shape == (len(cs) * f, queries.shape[-2])
        for k, svm in enumerate(alone):
            block = slice(k * f, (k + 1) * f)  # C-major: model k * f + fold
            want = np.reshape(svm.decision_function(queries), (f, -1))
            assert np.array_equal(path._alpha[block],
                                  np.reshape(svm._alpha, (f, -1)))
            assert np.array_equal(path._bias[block], np.ravel(svm._bias))
            assert np.array_equal(path.n_iter[block], np.ravel(svm.n_iter))
            assert np.array_equal(path.hit_cap[block], np.ravel(svm.hit_cap))
            assert np.array_equal(scores[block], want)
            assert np.array_equal(path.predict(queries)[block],
                                  np.reshape(svm.predict(queries), (f, -1)))

    def test_c_path_caps_some_models_and_not_others(self, monkeypatch):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(6, 16, 3))
        y = np.tile([0, 1], (6, 8))
        cs = [10.0, 0.1, 10.0]
        free = models.SvmClassifier(c=cs).fit(x, y).n_iter
        cap = int(np.median(free))
        monkeypatch.setattr(models, "_SVM_MAX_ITER", cap)
        path = models.SvmClassifier(c=cs).fit(x, y)
        assert 0 < np.sum(path.hit_cap) < len(free)
        assert np.array_equal(path.n_iter, np.minimum(free, cap))
        for k, c in enumerate(cs):
            svm = models.SvmClassifier(c=c).fit(x, y)
            assert np.array_equal(path._alpha[6 * k:6 * k + 6], svm._alpha)
            assert np.array_equal(path._bias[6 * k:6 * k + 6], svm._bias)
            assert np.array_equal(path.hit_cap[6 * k:6 * k + 6], svm.hit_cap)

    @settings(max_examples=150, deadline=None)
    @given(stack=fold_stacks(), kernel=st.sampled_from(["linear", "rbf"]),
           c=st.sampled_from([0.01, 0.1, 1.0, 10.0]),
           gamma=st.sampled_from([0.05, 0.5, 5.0]),
           cap=st.sampled_from([None, None, 1, 4, 15]))
    def test_stacked_fit_equals_per_fold_oracle(self, stack, kernel, c,
                                                gamma, cap):
        x, y, queries = stack
        # the equality holds at any cap; for cap=None, 2,000 in place of
        # the production 20,000 bounds the run time
        cap = cap or 2_000
        with mock.patch.object(models, "_SVM_MAX_ITER", cap):
            svm = models.SvmClassifier(c=c, kernel=kernel,
                                       gamma=gamma).fit(x, y)
            expects = [oracle_svm_fit(x[fold], y[fold], c=c, kernel=kernel,
                                      gamma=gamma) for fold in range(len(x))]
        scores = svm.decision_function(queries)
        assert scores.shape == queries.shape[:2]
        for fold, (alpha, bias, n_iter, decide) in enumerate(expects):
            assert np.array_equal(svm._alpha[fold], alpha), fold
            assert svm._bias[fold] == bias, fold
            assert svm.n_iter[fold] == n_iter, fold
            assert svm.hit_cap[fold] == (n_iter == cap), fold
            assert np.array_equal(scores[fold], decide(queries[fold])), fold

    def test_capped_and_converged_folds_in_one_stack(self, monkeypatch):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(6, 16, 3))
        y = np.tile([0, 1], (6, 8))
        uncapped = models.SvmClassifier(c=10.0).fit(x, y)
        free = uncapped.n_iter
        assert not np.any(uncapped.hit_cap)
        cap = int(np.median(free))
        monkeypatch.setattr(models, "_SVM_MAX_ITER", cap)
        svm = models.SvmClassifier(c=10.0).fit(x, y)
        assert np.array_equal(svm.n_iter, np.minimum(free, cap))
        assert 0 < np.sum(svm.hit_cap) < len(x)
        for fold in range(len(x)):
            alpha, bias, n_iter, _ = oracle_svm_fit(x[fold], y[fold], c=10.0)
            assert np.array_equal(svm._alpha[fold], alpha)
            assert svm._bias[fold] == bias and svm.n_iter[fold] == n_iter

    def test_one_single_class_fold_raises(self):
        x = np.random.default_rng(0).normal(size=(3, 6, 2))
        y = np.array([[0, 1] * 3, [1] * 6, [1, 0] * 3])
        with pytest.raises(DegenerateLabels):
            models.SvmClassifier().fit(x, y)


def oracle_svm_kernel(a, b, kernel, gamma):
    if kernel == "linear":
        return a @ b.T
    aa = np.sum(a * a, axis=1)[:, None]
    bb = np.sum(b * b, axis=1)[None, :]
    sq = np.maximum(aa + bb - 2.0 * (a @ b.T), 0.0)
    return np.exp(-gamma * sq)


def oracle_svm_fit(x, y, c=1.0, kernel="linear", gamma=0.1, tol=1e-3):
    """Most-violating-pair SMO on one fold with scalar pair updates, as
    ``SvmClassifier.fit`` ran before fold stacking. Returns ``alpha``, the
    bias, the number of pair updates and the decision function."""
    s = np.where(y == 1, 1.0, -1.0)
    q = (s[:, None] * s[None, :]) * oracle_svm_kernel(x, x, kernel, gamma)
    alpha = np.zeros(len(y))
    grad = -np.ones(len(y))
    n_iter = 0
    for _ in range(models._SVM_MAX_ITER):
        up = ((s > 0) & (alpha < c)) | ((s < 0) & (alpha > 0))
        low = ((s < 0) & (alpha < c)) | ((s > 0) & (alpha > 0))
        viol = -s * grad
        up_vals = np.where(up, viol, -np.inf)
        low_vals = np.where(low, viol, np.inf)
        i = int(np.argmax(up_vals))
        j = int(np.argmin(low_vals))
        if up_vals[i] - low_vals[j] < tol:
            break
        if s[i] != s[j]:
            quad = max(q[i, i] + q[j, j] + 2.0 * q[i, j], 1e-12)
            delta = (-grad[i] - grad[j]) / quad
            diff = alpha[i] - alpha[j]
            ai, aj = alpha[i] + delta, alpha[j] + delta
            if diff > 0 and aj < 0:
                aj, ai = 0.0, diff
            elif diff <= 0 and ai < 0:
                ai, aj = 0.0, -diff
            if diff > 0 and ai > c:
                ai, aj = c, c - diff
            elif diff <= 0 and aj > c:
                aj, ai = c, c + diff
        else:
            quad = max(q[i, i] + q[j, j] - 2.0 * q[i, j], 1e-12)
            delta = (grad[i] - grad[j]) / quad
            total = alpha[i] + alpha[j]
            ai, aj = alpha[i] - delta, alpha[j] + delta
            if total > c:
                if ai > c:
                    ai, aj = c, total - c
                elif aj > c:
                    aj, ai = c, total - c
            else:
                if aj < 0:
                    aj, ai = 0.0, total
                elif ai < 0:
                    ai, aj = 0.0, total
        d_i, d_j = ai - alpha[i], aj - alpha[j]
        alpha[i], alpha[j] = ai, aj
        grad = grad + q[:, i] * d_i + q[:, j] * d_j
        n_iter += 1

    free = (alpha > 1e-12) & (alpha < c - 1e-12)
    if np.any(free):
        bias = float(np.mean((-s * grad)[free]))
    else:
        up = ((s > 0) & (alpha < c)) | ((s < 0) & (alpha > 0))
        low = ((s < 0) & (alpha < c)) | ((s > 0) & (alpha > 0))
        viol = -s * grad
        hi = np.max(np.where(up, viol, -np.inf))
        lo = np.min(np.where(low, viol, np.inf))
        bias = float((hi + lo) / 2.0)

    def decide(rows):
        return oracle_svm_kernel(rows, x, kernel, gamma) @ (alpha * s) + bias
    return alpha, bias, n_iter, decide


def mlp_loss_and_grad(params, x, y):
    """Binary cross-entropy and the gradient training uses
    (``models._mlp_backprop``) for one net, as a stack of one."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    buffers = models._mlp_buffers(1, *x.shape, params["w1"].shape[1])
    p, grads = models._mlp_backprop({k: v[None] for k, v in params.items()},
                                    x[None], y[None], buffers)
    p = p[0]
    eps = 1e-12
    loss = -float(np.mean(y * np.log(np.clip(p, eps, None))
                          + (1.0 - y) * np.log(np.clip(1.0 - p, eps, None))))
    return loss, {k: g[0] for k, g in grads.items()}


def oracle_mlp_loss_and_grad(params, x, y):
    """Per-net loss and gradient, as computed before fold stacking."""
    n = x.shape[0]
    z1 = x @ params["w1"] + params["b1"]
    a1 = np.maximum(z1, 0.0)
    z2 = (a1 @ params["w2"] + params["b2"]).ravel()
    p = models._sigmoid(z2)
    eps = 1e-12
    loss = -float(np.mean(y * np.log(np.clip(p, eps, None))
                          + (1.0 - y) * np.log(np.clip(1.0 - p, eps, None))))
    dz2 = ((p - y) / n)[:, None]
    grads = {
        "w2": a1.T @ dz2,
        "b2": dz2.sum(axis=0),
    }
    da1 = dz2 @ params["w2"].T
    dz1 = da1 * (z1 > 0.0)
    grads["w1"] = x.T @ dz1
    grads["b1"] = dz1.sum(axis=0)
    return loss, grads


def oracle_mlp_backprop(params, x, y, buffers):
    """``models._mlp_backprop`` with the output-to-hidden gradient as a
    batched (n, 1) x (1, h) ``np.matmul``, as before the broadcast
    multiply."""
    z1 = np.matmul(x, params["w1"], out=buffers["a1"])
    z1 += params["b1"][:, None, :]
    active = np.greater(z1, 0.0, out=buffers["active"])
    a1 = np.maximum(z1, 0.0, out=z1)
    p = models._sigmoid((a1 @ params["w2"])[..., 0] + params["b2"])
    dz2 = ((p - y) / x.shape[1])[..., None]
    dz1 = np.matmul(dz2, params["w2"].transpose(0, 2, 1), out=buffers["dz1"])
    dz1 *= active
    grads = {
        "w1": np.matmul(x.transpose(0, 2, 1), dz1, out=buffers["w1"]),
        "b1": dz1.sum(axis=1),
        "w2": a1.transpose(0, 2, 1) @ dz2,
        "b2": dz2.sum(axis=1),
    }
    return p, grads


def oracle_mlp_fit(x, y, hidden=16, learning_rate=0.01, epochs=500,
                   momentum=0.9, seed=0):
    """The one-net-at-a-time training loop: the parameters it ends with."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    params = models.init_mlp_params(x.shape[1], hidden, seed)
    velocity = {k: np.zeros_like(v) for k, v in params.items()}
    for _ in range(epochs):
        _, grads = oracle_mlp_loss_and_grad(params, x, y)
        for key in params:
            velocity[key] = momentum * velocity[key] \
                - learning_rate * grads[key]
            params[key] = params[key] + velocity[key]
    return params


def oracle_mlp_decision(params, x):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    a1 = np.maximum(x @ params["w1"] + params["b1"], 0.0)
    return (a1 @ params["w2"] + params["b2"]).ravel()


@st.composite
def mlp_fold_stacks(draw):
    """A stack of f folds, each with both classes, plus query rows."""
    f = draw(st.integers(1, 5))
    n = draw(st.integers(4, 12))
    d = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.normal(size=(f, n, d)) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    y = (rng.random((f, n)) < 0.5).astype(int)
    y[:, :2] = [0, 1]
    for fold in y:
        rng.shuffle(fold)
    seeds = [int(s) for s in rng.integers(0, 2 ** 62, f)]
    return x, y, seeds, rng.normal(size=(f, 3, d))


class TestMlp:
    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 3))
        y = np.array([0.0, 1.0, 1.0, 0.0])
        params = models.init_mlp_params(3, 5, seed=1)
        _, grads = mlp_loss_and_grad(params, x, y)
        h = 1e-6
        for key in params:
            flat = params[key]
            it = np.nditer(flat, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = float(flat[idx])
                flat[idx] = orig + h
                lp, _ = mlp_loss_and_grad(params, x, y)
                flat[idx] = orig - h
                lm, _ = mlp_loss_and_grad(params, x, y)
                flat[idx] = orig
                fd = (lp - lm) / (2 * h)
                g = float(grads[key][idx])
                rel = abs(fd - g) / max(1e-8, abs(fd) + abs(g))
                assert rel < 1e-5, (key, idx)

    def test_separable(self, blobs):
        x, y = blobs
        mlp = models.MlpClassifier(hidden=8, learning_rate=0.05, epochs=300,
                                   seed=[0]).fit(x[None], y[None])
        assert float(np.mean(mlp.predict(x[None])[0] == y)) == 1.0

    def test_seeded_init_deterministic(self, blobs):
        x, y = blobs
        a = models.MlpClassifier(hidden=8, epochs=50, seed=[4]).fit(x[None],
                                                                    y[None])
        b = models.MlpClassifier(hidden=8, epochs=50, seed=[4]).fit(x[None],
                                                                    y[None])
        assert np.array_equal(a.decision_function(x[None]),
                              b.decision_function(x[None]))

    @settings(max_examples=60, deadline=None)
    @given(stack=mlp_fold_stacks(), hidden=st.integers(1, 8),
           epochs=st.integers(1, 30),
           learning_rate=st.sampled_from([0.001, 0.01, 0.5]))
    def test_stacked_fit_equals_per_fold_oracle(self, stack, hidden, epochs,
                                                learning_rate):
        x, y, seeds, queries = stack
        mlp = models.MlpClassifier(hidden=hidden, epochs=epochs,
                                   learning_rate=learning_rate,
                                   seed=seeds).fit(x, y)
        scores = mlp.decision_function(queries)
        for fold, seed in enumerate(seeds):
            expect = oracle_mlp_fit(x[fold], y[fold], hidden=hidden,
                                    epochs=epochs,
                                    learning_rate=learning_rate, seed=seed)
            for key in ("w1", "b1", "w2", "b2"):
                assert np.array_equal(mlp._params[key][fold], expect[key]), \
                    (fold, key)
            assert np.array_equal(scores[fold],
                                  oracle_mlp_decision(expect, queries[fold]))

    @settings(max_examples=60, deadline=None)
    @given(stack=mlp_fold_stacks(), hidden=st.integers(1, 8),
           epochs=st.integers(1, 30),
           learning_rate=st.sampled_from([0.001, 0.01, 0.5]))
    def test_stacked_fit_bytes_equal_matmul_backprop(self, stack, hidden,
                                                     epochs, learning_rate):
        # bytes, not values: a signed zero may differ inside dz1, and must
        # not reach a parameter
        x, y, seeds, _ = stack
        fits = []
        for backprop in (models._mlp_backprop, oracle_mlp_backprop):
            with pytest.MonkeyPatch.context() as m:
                m.setattr(models, "_mlp_backprop", backprop)
                fits.append(models.MlpClassifier(
                    hidden=hidden, epochs=epochs, learning_rate=learning_rate,
                    seed=seeds).fit(x, y)._params)
        for key in ("w1", "b1", "w2", "b2"):
            assert fits[0][key].tobytes() == fits[1][key].tobytes(), key

    def test_gradient_equals_per_net_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(9, 4))
        y = np.array([0, 1, 1, 0, 1, 0, 0, 1, 1], dtype=float)
        params = models.init_mlp_params(4, 6, seed=2)
        loss, grads = mlp_loss_and_grad(params, x, y)
        expect_loss, expect = oracle_mlp_loss_and_grad(params, x, y)
        assert loss == expect_loss
        for key in expect:
            assert np.array_equal(grads[key], expect[key]), key

    def test_one_single_class_fold_raises(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 6, 2))
        y = np.array([[0, 1] * 3, [1] * 6, [1, 0] * 3])
        with pytest.raises(DegenerateLabels):
            models.MlpClassifier(epochs=5, seed=[1, 2, 3]).fit(x, y)

    def test_stack_needs_one_seed_per_fold(self):
        x = np.zeros((2, 4, 1))
        y = np.array([[0, 1, 0, 1]] * 2)
        for seed in (0, [1, 2, 3]):
            with pytest.raises(ValueError):
                models.MlpClassifier(epochs=1, seed=seed).fit(x, y)


class TestDispatch:
    @pytest.mark.parametrize("kind,hp", [
        (ModelKind.KNN, {"k": 3}),
        (ModelKind.DECISION_TREE, {"max_depth": 3}),
        (ModelKind.RANDOM_FOREST, {"n_estimators": 20}),
        (ModelKind.GRADIENT_BOOSTING, {"n_estimators": 20}),
        (ModelKind.SVM, {"kernel": "linear", "c": 1.0}),
        (ModelKind.MLP, {"hidden": 8, "epochs": 100}),
    ])
    def test_train_and_predict_every_kind(self, blobs, kind, hp):
        x, y = blobs
        model = models.train(ModelSpec(kind, hp), x[None], y[None], seed=[2])
        acc = float(np.mean([models.predict(model, row[None, None]) == yy
                             for row, yy in zip(x, y)]))
        assert acc >= 0.9

    def test_degenerate_labels_everywhere(self):
        x = np.zeros((4, 2))
        y = np.ones(4, dtype=int)
        for kind in ModelKind:
            with pytest.raises(DegenerateLabels):
                models.train(ModelSpec(kind, {}), x[None], y[None])


class TestTrainArguments:
    """``train`` checks its spec through ``errors.check_fields``."""

    def test_unknown_hyperparameter_raises_naming_it(self, blobs):
        # the constructor's TypeError
        x, y = blobs
        with pytest.raises(ValueError, match=r"^unknown keys: \['bogus'\]$"):
            models.train(ModelSpec(ModelKind.KNN, {"bogus": 1}), x[None],
                         y[None])

    def test_kind_must_be_a_model_kind(self, blobs):
        # KeyError: 'knn'
        x, y = blobs
        with pytest.raises(ValueError,
                           match="^kind must be a ModelKind, got 'knn'$"):
            models.train(ModelSpec("knn", {}), x[None], y[None])


class TestFoldSeeds:
    """Each fold seed is checked against ``errors.SEED`` before a generator
    reads it."""

    @pytest.mark.parametrize("make", [
        lambda seed: models.RandomForestClassifier(5, seed=seed),
        lambda seed: models.MlpClassifier(epochs=1, seed=seed),
    ], ids=["rf", "mlp"])
    @pytest.mark.parametrize("seed", [2.5, -1, True, "1"], ids=repr)
    def test_out_of_range_seed_raises_naming_it(self, blobs, make, seed):
        # 2.5 trained with seed 2, and -1 raised NumPy's "expected
        # non-negative integer"
        x, y = blobs
        with pytest.raises(ValueError, match=re.escape(
                f"seed must be an integer >= 0, got {seed!r}")):
            make([seed]).fit(x[None], y[None])


def oracle_sigmoid(z):
    """The boolean-mask logistic: 1 / (1 + e^-z) where z >= 0, else
    e^z / (1 + e^z)."""
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


SIGMOID_SPECIALS = [0.0, -0.0, math.inf, -math.inf, math.nan, 709.0, -709.0,
                    745.0, -745.0, 1e-300, -1e-300]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats() | st.sampled_from(SIGMOID_SPECIALS), max_size=40),
       st.booleans())
def test_sigmoid_equals_mask_oracle_bit_for_bit(values, stacked):
    # a NaN's sign bit is not compared: no output reads it
    z = np.array(values, dtype=float)
    z = z[None] if stacked else z
    got, want = models._sigmoid(z), oracle_sigmoid(z)
    nan = np.isnan(want)
    assert got.shape == want.shape
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


class TestHyperparameterRanges:
    """Every constructor checks each hyperparameter, and each element of a
    path, against ``models.HYPERPARAMETERS``, the table the config reads."""

    @pytest.mark.parametrize("make,field", [
        (lambda: models.RandomForestClassifier(0), "n_estimators"),
        (lambda: models.MlpClassifier(hidden=0), "hidden"),
        (lambda: models.GradientBoostingClassifier(0), "n_estimators"),
        (lambda: models.GradientBoostingClassifier(-3), "n_estimators"),
        (lambda: models.GradientBoostingClassifier(learning_rate=math.nan),
         "learning_rate"),
        (lambda: models.GradientBoostingClassifier(max_depth=None),
         "max_depth"),
        (lambda: models.DecisionTreeClassifier(max_depth=-1), "max_depth"),
        (lambda: models.DecisionTreeClassifier(min_samples_leaf=0),
         "min_samples_leaf"),
        (lambda: models.RandomForestClassifier(min_samples_leaf=0),
         "min_samples_leaf"),
        (lambda: models.MlpClassifier(learning_rate=-1.0), "learning_rate"),
        (lambda: models.SvmClassifier(c="1.0"), "c"),
        (lambda: models.KnnClassifier(k=2.5), "k"),
        (lambda: models.KnnClassifier(k=True), "k"),
    ], ids=["rf-0-trees", "mlp-0-hidden", "gb-0-stages", "gb-negative-stages",
            "gb-nan-rate", "gb-null-depth", "dt-negative-depth", "dt-0-leaf",
            "rf-0-leaf", "mlp-negative-rate", "svm-string-c", "knn-float-k",
            "knn-bool-k"])
    def test_out_of_range_value_raises_naming_the_field(self, make, field):
        with pytest.raises(ValueError, match=rf"^{field} must be "):
            make()

    @pytest.mark.parametrize("kind", list(ModelKind), ids=lambda k: k.value)
    def test_table_keys_are_the_constructor_parameters(self, kind):
        params = inspect.signature(models._CLASSIFIERS[kind]).parameters
        assert list(models.HYPERPARAMETERS[kind]) \
            == [name for name in params if name != "seed"]

    def test_values_are_kept_as_python_numbers(self):
        svm = models.SvmClassifier(c=np.array([1, 10]), gamma=np.float32(0.5))
        assert svm.c == (1.0, 10.0) and type(svm.c[0]) is float
        assert type(svm.gamma) is float
        gb = models.GradientBoostingClassifier(np.int64(3), 1, np.int8(2))
        assert gb.n_estimators == (3,) and type(gb.n_estimators[0]) is int
        assert type(gb.learning_rate) is float and type(gb.max_depth) is int
        assert models.KnnClassifier(k=[np.int64(2), 4]).k == (2, 4)
        assert models.DecisionTreeClassifier(None).max_depth is None


class TestPathAxes:
    def test_no_seeded_kind_has_a_path(self):
        # a grid point's fold seeds come from its grid index, so points
        # with different seeds cannot share one fit
        assert not set(models.PATH_AXES) & set(models.SEEDED_KINDS)

    def test_predict_gives_one_class_per_model(self, blobs):
        x, y = blobs
        model = models.train(ModelSpec(ModelKind.KNN, {"k": [1, 30]}),
                             x[None], y[None])
        # the first query only; k = 30 takes all rows, a 15-15 tie: class 0
        assert models.predict(model, x[None, ::-1]).tolist() == [1, 0]


class TestFitContract:
    """``fit`` takes a fold stack only: ``x`` (f, n, d), ``y`` (f, n), and
    one seed per fold for the random forest and the MLP."""

    @pytest.mark.parametrize("kind", list(ModelKind), ids=lambda k: k.value)
    def test_anything_but_a_fold_stack_raises(self, blobs, kind):
        x, y = blobs
        spec = ModelSpec(kind, {})
        for bad_x, bad_y in ((x, y), (x[None], y), (x[None], y[None, :-1]),
                             (x[None], np.stack([y, y]))):
            with pytest.raises(ValueError, match="fit takes x"):
                models.train(spec, bad_x, bad_y, seed=[1])
        if kind in models.SEEDED_KINDS:
            with pytest.raises(ValueError, match="one seed per fold"):
                models.train(spec, x[None], y[None], seed=1)
