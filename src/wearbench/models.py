"""Binary classifiers implemented from first principles.

All models share conventions chosen for reproducibility: deterministic
tie-breaking (first index / class 0), explicit seeds wherever randomness
exists, and ``x <= threshold`` routing to the left branch of every tree.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateLabels


class ModelKind(enum.Enum):
    KNN = "knn"
    DECISION_TREE = "dt"
    RANDOM_FOREST = "rf"
    GRADIENT_BOOSTING = "gb"
    SVM = "svm"
    MLP = "mlp"


MODEL_KINDS_BY_NAME = {kind.value: kind for kind in ModelKind}


@dataclass(frozen=True)
class ModelSpec:
    kind: ModelKind
    hyperparameters: dict = field(default_factory=dict)


def _check_labels(y: np.ndarray) -> None:
    """Raise unless labels (n,), or each fold of a stack (f, n), hold two
    classes."""
    for labels in np.atleast_2d(y):
        if np.unique(labels).size < 2:
            raise DegenerateLabels("training labels contain a single class")


def _majority(labels: np.ndarray) -> int:
    # ties resolve to class 0
    return int(np.sum(labels == 1) > np.sum(labels == 0))


# --- k-nearest neighbours -------------------------------------------------------


class KnnClassifier:
    """Majority vote of the k nearest training rows (Euclidean).

    After a fit on a fold stack ``x`` (f, n, d), ``y`` (f, n), ``predict``
    takes (f, m, d) queries and votes each fold's queries among its rows.
    """

    def __init__(self, k: int = 5):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = int(k)
        self._x: np.ndarray | None = None
        self._y: np.ndarray | None = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "KnnClassifier":
        self._x = np.asarray(x, dtype=float)
        self._y = np.asarray(y, dtype=int)
        _check_labels(self._y)
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        d = np.sum((self._x[..., None, :, :] - x[..., :, None, :]) ** 2,
                   axis=-1)
        order = np.argsort(d, axis=-1, kind="stable")[..., :self.k]
        votes = np.take_along_axis(self._y[..., None, :], order, axis=-1)
        ones = np.sum(votes == 1, axis=-1)
        # ties resolve to class 0
        return (ones > order.shape[-1] - ones).astype(int)


# --- CART trees --------------------------------------------------------------------


@dataclass(frozen=True)
class _Criterion:
    """How a tree scores its nodes and splits and what a leaf predicts."""
    split_scores: object  # (n, k) target sorted by each column -> (n-1, k)
    node_score: object  # target -> impurity of the node
    leaf_value: object  # target -> prediction of a leaf
    tol: float  # a later split point must beat the kept one by more than this


def _gini(zeros, ones, n):
    p0, p1 = zeros / n, ones / n
    return 1.0 - (p0 * p0 + p1 * p1)


def _gini_split_scores(ys: np.ndarray) -> np.ndarray:
    """Weighted child Gini impurity of cutting after every row."""
    n = ys.shape[0]
    n_left = np.arange(1, n)[:, None]
    zeros, ones = np.cumsum(ys == 0, axis=0), np.cumsum(ys == 1, axis=0)
    left = _gini(zeros[:-1], ones[:-1], n_left)
    right = _gini(zeros[-1] - zeros[:-1], ones[-1] - ones[:-1], n - n_left)
    return (n_left * left + (n - n_left) * right) / n


def _sse_split_scores(rs: np.ndarray) -> np.ndarray:
    """Summed child squared error of cutting after every row."""
    n = rs.shape[0]
    n_left = np.arange(1, n)[:, None]
    csum, csum2 = np.cumsum(rs, axis=0), np.cumsum(rs * rs, axis=0)
    c, c2 = csum[:-1], csum2[:-1]
    return (c2 - c ** 2 / n_left) \
        + ((csum2[-1] - c2) - (csum[-1] - c) ** 2 / (n - n_left))


_GINI = _Criterion(
    _gini_split_scores,
    lambda y: _gini(int(np.sum(y == 0)), int(np.sum(y == 1)), y.size),
    _majority, 1e-15)
_SSE = _Criterion(
    _sse_split_scores, lambda r: float(np.sum((r - r.mean()) ** 2)),
    lambda r: float(r.mean()), 1e-12)


def _scan(scores: np.ndarray, tol: float) -> list:
    """Per column, the ``(row, score)`` that a top-down scan keeps, or None.

    The scan keeps the first finite score and replaces it only with a
    score below ``kept - tol``, so on near-ties the earliest row wins. The
    kept score always lies within ``tol`` of the running minimum, so only
    rows that set a new strict running minimum can replace it; the scan
    visits just those.
    """
    record = np.empty(scores.shape, dtype=bool)
    record[:1] = scores[:1] < np.inf
    record[1:] = scores[1:] < np.minimum.accumulate(scores, axis=0)[:-1]
    cols, rows = np.nonzero(record.T)
    kept = [None] * scores.shape[1]
    for c, i, s in zip(cols.tolist(), rows.tolist(),
                       scores.T[record.T].tolist()):
        if kept[c] is None or s < kept[c][1] - tol:
            kept[c] = (i, s)
    return kept


def _column_splits(x: np.ndarray, target: np.ndarray, min_samples_leaf: int,
                   criterion: _Criterion) -> list:
    """Best ``(threshold, score)`` of every column of ``x``, or None.

    Candidate thresholds are midpoints between consecutive distinct sorted
    values that leave ``min_samples_leaf`` rows on each side; on near-ties
    the lowest threshold wins.
    """
    n = x.shape[0]
    order = np.argsort(x, axis=0, kind="stable")
    xs = np.take_along_axis(x, order, axis=0)
    valid = xs[:-1] != xs[1:]
    valid[:min_samples_leaf - 1] = False
    valid[max(n - min_samples_leaf, 0):] = False
    scores = np.where(valid, criterion.split_scores(target[order]), np.inf)
    return [None if kept is None
            else (float((xs[kept[0], c] + xs[kept[0] + 1, c]) / 2.0), kept[1])
            for c, kept in enumerate(_scan(scores, criterion.tol))]


class _Tree:
    """Binary CART tree stored as flat arrays, grown depth-first.

    Node 0 is the root and nodes are numbered in pre-order. An inner node
    sends rows with ``x[feature] <= threshold`` to ``left`` and the rest to
    ``right``; ``left < 0`` marks a leaf, which predicts ``value``.
    ``feature_sampler(d)``, if given, picks the candidate features of each
    node that may split.
    """

    def __init__(self, criterion: _Criterion, max_depth: int | None = None,
                 min_samples_leaf: int = 1, feature_sampler=None):
        self.criterion = criterion
        self.max_depth = max_depth
        self.min_samples_leaf = int(min_samples_leaf)
        self.feature_sampler = feature_sampler

    def fit(self, x: np.ndarray, target: np.ndarray) -> "_Tree":
        nodes: list[list] = []
        self._grow(np.asarray(x, dtype=float), target, 0, nodes)
        (self.feature, self.threshold, self.left, self.right,
         value) = (np.array(column) for column in zip(*nodes))
        self.value = value.astype(float)
        return self

    def _grow(self, x, target, depth: int, nodes: list) -> int:
        index = len(nodes)
        nodes.append([0, 0.0, -1, -1, 0.0])  # a leaf until a split is found
        node_score = self.criterion.node_score(target)
        best = None
        if not ((self.max_depth is not None and depth >= self.max_depth)
                or x.shape[0] < 2 * self.min_samples_leaf
                or node_score <= 0.0):
            features = [int(f) for f in (
                self.feature_sampler(x.shape[1]) if self.feature_sampler
                else range(x.shape[1]))]
            for f, cand in zip(features, _column_splits(
                    x[:, features], target, self.min_samples_leaf,
                    self.criterion)):
                if cand is not None and (best is None
                                         or cand[1] < best[2] - 1e-15):
                    best = (f, cand[0], cand[1])
        if best is None or not best[2] < node_score - 1e-15:
            nodes[index][4] = self.criterion.leaf_value(target)
            return index
        f, thr, _ = best
        mask = x[:, f] <= thr
        left = self._grow(x[mask], target[mask], depth + 1, nodes)
        right = self._grow(x[~mask], target[~mask], depth + 1, nodes)
        nodes[index][:4] = [f, thr, left, right]
        return index

    def apply(self, x) -> np.ndarray:
        """Index of the leaf each row of ``x`` lands in."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        node = np.zeros(x.shape[0], dtype=np.intp)
        rows = np.flatnonzero(self.left[node] >= 0)
        while rows.size:
            at = node[rows]
            go_left = x[rows, self.feature[at]] <= self.threshold[at]
            node[rows] = np.where(go_left, self.left[at], self.right[at])
            rows = rows[self.left[node[rows]] >= 0]
        return node

    def predict(self, x) -> np.ndarray:
        return self.value[self.apply(x)]


class DecisionTreeClassifier:
    """CART with Gini impurity and axis-aligned binary splits."""

    def __init__(self, max_depth: int | None = None, min_samples_leaf: int = 1):
        self.max_depth = max_depth
        self.min_samples_leaf = int(min_samples_leaf)
        self.tree: _Tree | None = None

    def fit(self, x, y) -> "DecisionTreeClassifier":
        y = np.asarray(y, dtype=int)
        _check_labels(y)
        self.tree = _Tree(_GINI, self.max_depth,
                          self.min_samples_leaf).fit(x, y)
        return self

    def predict(self, x) -> np.ndarray:
        return self.tree.predict(x).astype(int)


class RandomForestClassifier:
    """Bagged CART trees with sqrt(d) feature subsampling per split."""

    def __init__(self, n_estimators: int = 100, max_depth: int | None = None,
                 min_samples_leaf: int = 1, seed: int = 0):
        self.n_estimators = int(n_estimators)
        self.max_depth = max_depth
        self.min_samples_leaf = int(min_samples_leaf)
        self.seed = int(seed)
        self._trees: list[_Tree] = []

    def fit(self, x, y) -> "RandomForestClassifier":
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=int)
        _check_labels(y)
        n, d = x.shape
        m = max(1, int(round(math.sqrt(d))))
        seeds = np.random.SeedSequence(self.seed).spawn(self.n_estimators)
        self._trees = []
        for ss in seeds:
            rng = np.random.default_rng(ss)
            idx = rng.integers(0, n, n)

            def sampler(n_features, rng=rng):
                k = min(m, n_features)
                return sorted(rng.choice(n_features, size=k, replace=False))

            self._trees.append(_Tree(
                _GINI, self.max_depth, self.min_samples_leaf,
                feature_sampler=sampler).fit(x[idx], y[idx]))
        return self

    def predict(self, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        votes = sum((tree.predict(x) for tree in self._trees),
                    np.zeros(x.shape[0]))
        return (votes > len(self._trees) - votes).astype(int)


# --- gradient boosting ---------------------------------------------------------------


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class GradientBoostingClassifier:
    """Stage-wise shallow regression trees on the logistic loss.

    Each stage fits residuals ``y - p`` and applies a per-leaf Newton step
    ``sum(residual) / sum(p (1 - p))`` scaled by the learning rate.
    """

    def __init__(self, n_estimators: int = 100, learning_rate: float = 0.1,
                 max_depth: int = 3):
        self.n_estimators = int(n_estimators)
        self.learning_rate = float(learning_rate)
        self.max_depth = int(max_depth)
        self._trees: list[_Tree] = []
        self._base_score = 0.0

    def fit(self, x, y) -> "GradientBoostingClassifier":
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        _check_labels(y.astype(int))
        p0 = min(max(float(y.mean()), 1e-9), 1.0 - 1e-9)
        self._base_score = math.log(p0 / (1.0 - p0))
        scores = np.full(y.size, self._base_score)
        self._trees = []
        for _ in range(self.n_estimators):
            p = _sigmoid(scores)
            residual = y - p
            hessian = p * (1.0 - p)
            tree = _Tree(_SSE, self.max_depth).fit(x, residual)
            leaf = tree.apply(x)
            # replace leaf means with Newton steps
            for node in np.unique(leaf).tolist():
                rows = leaf == node
                tree.value[node] = float(residual[rows].sum()) \
                    / max(float(hessian[rows].sum()), 1e-12)
            self._trees.append(tree)
            scores = scores + self.learning_rate * tree.value[leaf]
        return self

    def decision_scores(self, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        scores = np.full(x.shape[0], self._base_score)
        for tree in self._trees:
            scores = scores + self.learning_rate * tree.predict(x)
        return scores

    def predict(self, x) -> np.ndarray:
        return (_sigmoid(self.decision_scores(x)) > 0.5).astype(int)


# --- support vector machine ------------------------------------------------------------


_SVM_MAX_ITER = 20000


def _if_elif(a, b, *cases):
    """``(a, b)`` after an if/elif chain over ``(condition, a_new, b_new)``
    cases, taken element by element: the first true condition wins."""
    for condition, a_new, b_new in reversed(cases):
        a, b = np.where(condition, a_new, a), np.where(condition, b_new, b)
    return a, b


class SvmClassifier:
    """Soft-margin SVM trained by most-violating-pair dual optimization.

    Kernels: ``"linear"`` or ``"rbf"`` (``exp(-gamma ||a - b||^2)``).
    ``fit`` takes rows (n, d) or a fold stack ``x`` (f, n, d), ``y``
    (f, n), whose folds run the SMO in lock-step, each ending bit for bit
    where it would alone. A fold stops when its maximal KKT violation
    drops below ``tol`` or after ``_SVM_MAX_ITER`` pair updates, which is
    not an error; ``n_iter`` and ``hit_cap`` say which, per fold.
    """

    def __init__(self, c: float = 1.0, kernel: str = "linear",
                 gamma: float = 0.1, tol: float = 1e-3):
        if kernel not in ("linear", "rbf"):
            raise ValueError(f"unknown kernel {kernel!r}")
        self.c = float(c)
        self.kernel = kernel
        self.gamma = float(gamma)
        self.tol = float(tol)
        self._x: np.ndarray | None = None
        self._sy: np.ndarray | None = None
        self._alpha: np.ndarray | None = None
        self._bias = 0.0

    def _kernel_matrix(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        ab = np.matmul(a, np.swapaxes(b, -1, -2))
        if self.kernel == "linear":
            return ab
        aa = np.sum(a * a, axis=-1)[..., :, None]
        bb = np.sum(b * b, axis=-1)[..., None, :]
        return np.exp(-self.gamma * np.maximum(aa + bb - 2.0 * ab, 0.0))

    def _violations(self, s, alpha, grad):
        """KKT violations of the rows free to move up, and down."""
        up = ((s > 0) & (alpha < self.c)) | ((s < 0) & (alpha > 0))
        low = ((s < 0) & (alpha < self.c)) | ((s > 0) & (alpha > 0))
        viol = -s * grad
        return np.where(up, viol, -np.inf), np.where(low, viol, np.inf)

    def fit(self, x, y) -> "SvmClassifier":
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=int)
        stacked = x.ndim == 3
        if not stacked:
            x, y = x[None], y[None]
        _check_labels(y)
        c, s = self.c, np.where(y == 1, 1.0, -1.0)
        f, n = s.shape
        q = (s[:, :, None] * s[:, None, :]) * self._kernel_matrix(x, x)
        alpha, grad = np.zeros((f, n)), -np.ones((f, n))
        n_iter, folds = np.zeros(f, dtype=int), np.arange(f)

        for _ in range(_SVM_MAX_ITER):
            up_vals, low_vals = self._violations(s, alpha, grad)
            i, j = up_vals.argmax(axis=1), low_vals.argmin(axis=1)
            # a fold whose gap is below tol does not move, so it stays so
            live = ~(up_vals[folds, i] - low_vals[folds, j] < self.tol)
            if not live.any():
                break
            n_iter += live
            r, i, j = folds[live], i[live], j[live]
            a_i, a_j, g_i, g_j = alpha[r, i], alpha[r, j], grad[r, i], \
                grad[r, j]
            q_ii, q_jj, q_ij = q[r, i, i], q[r, j, j], q[r, i, j]
            # s[i] != s[j]: alpha[i] - alpha[j] stays fixed
            delta = (-g_i - g_j) / np.maximum(q_ii + q_jj + 2.0 * q_ij, 1e-12)
            diff = a_i - a_j
            ai, aj = a_i + delta, a_j + delta
            ai, aj = _if_elif(ai, aj, ((diff > 0) & (aj < 0), diff, 0.0),
                              ((diff <= 0) & (ai < 0), 0.0, -diff))
            opposite = _if_elif(ai, aj, ((diff > 0) & (ai > c), c, c - diff),
                                ((diff <= 0) & (aj > c), c + diff, c))
            # s[i] == s[j]: alpha[i] + alpha[j] stays fixed
            delta = (g_i - g_j) / np.maximum(q_ii + q_jj - 2.0 * q_ij, 1e-12)
            total = a_i + a_j
            ai, aj = a_i - delta, a_j + delta
            over = total > c
            same = _if_elif(ai, aj, (over & (ai > c), c, total - c),
                            (over & (aj > c), total - c, c),
                            (~over & (aj < 0), total, 0.0),
                            (~over & (ai < 0), 0.0, total))
            ai, aj = _if_elif(*opposite, (s[r, i] == s[r, j], *same))
            alpha[r, i], alpha[r, j] = ai, aj
            grad[r] = grad[r] + q[r, :, i] * (ai - a_i)[:, None] \
                + q[r, :, j] * (aj - a_j)[:, None]

        up_vals, low_vals = self._violations(s, alpha, grad)
        free = (alpha > 1e-12) & (alpha < c - 1e-12)
        bias = np.array([
            np.mean((-s[k] * grad[k])[free[k]]) if np.any(free[k])
            else (np.max(up_vals[k]) + np.min(low_vals[k])) / 2.0
            for k in range(f)])
        if not stacked:
            x, s, alpha, bias, n_iter = (x[0], s[0], alpha[0],
                                         float(bias[0]), int(n_iter[0]))
        self._x, self._sy, self._alpha, self._bias = x, s, alpha, bias
        self.n_iter, self.hit_cap = n_iter, n_iter == _SVM_MAX_ITER
        return self

    def decision_function(self, x) -> np.ndarray:
        """Scores of rows ``x``, or (f, m) scores of a stack ``x``
        (f, m, d) after a stacked fit, fold i scored by model i."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        k = self._kernel_matrix(x, self._x)
        scores = np.matmul(k, (self._alpha * self._sy)[..., None])[..., 0]
        return scores + np.expand_dims(self._bias, -1)

    def predict(self, x) -> np.ndarray:
        return (self.decision_function(x) > 0.0).astype(int)


# --- multi-layer perceptron ---------------------------------------------------------------


_MLP_PARAMS = ("w1", "b1", "w2", "b2")
_MLP_MOMENTUM = 0.9


def init_mlp_params(n_features: int, hidden: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "w1": rng.normal(0.0, math.sqrt(2.0 / n_features), (n_features, hidden)),
        "b1": np.zeros(hidden),
        "w2": rng.normal(0.0, math.sqrt(1.0 / hidden), (hidden, 1)),
        "b2": np.zeros(1),
    }


def _mlp_buffers(f: int, n: int, d: int, hidden: int) -> dict:
    return {"a1": np.empty((f, n, hidden)), "dz1": np.empty((f, n, hidden)),
            "active": np.empty((f, n, hidden), dtype=bool),
            "w1": np.empty((f, d, hidden))}


def _mlp_backprop(params: dict, x: np.ndarray, y: np.ndarray,
                  buffers: dict):
    """Output probabilities and exact gradients over a stack of f nets.

    ``x`` is (f, n, d) and ``y`` (f, n); ``params`` holds ``w1`` (f, d, h),
    ``b1`` (f, h), ``w2`` (f, h, 1) and ``b2`` (f, 1). The products are
    batched ``np.matmul`` calls, which run BLAS once per slice, and
    element-wise NumPy operations, so each net's gradient equals the one
    it gets alone, bit for bit. The (f, n, h) and (f, d, h) arrays are
    written into ``buffers``, which the returned ``w1`` gradient shares.
    """
    z1 = np.matmul(x, params["w1"], out=buffers["a1"])
    z1 += params["b1"][:, None, :]
    active = np.greater(z1, 0.0, out=buffers["active"])
    a1 = np.maximum(z1, 0.0, out=z1)  # the ReLU overwrites z1
    p = _sigmoid((a1 @ params["w2"])[..., 0] + params["b2"])
    dz2 = ((p - y) / x.shape[1])[..., None]
    # the outer product of dz2 and w2, as a broadcast multiply
    dz1 = np.multiply(dz2, params["w2"].transpose(0, 2, 1), out=buffers["dz1"])
    dz1 *= active
    grads = {
        "w1": np.matmul(x.transpose(0, 2, 1), dz1, out=buffers["w1"]),
        "b1": dz1.sum(axis=1),
        "w2": a1.transpose(0, 2, 1) @ dz2,
        "b2": dz2.sum(axis=1),
    }
    return p, grads


class MlpClassifier:
    """One hidden layer, full-batch gradient descent with momentum 0.9.

    ``fit`` takes rows ``x`` (n, d) and labels ``y`` (n,), or a stack of
    f folds, ``x`` (f, n, d) and ``y`` (f, n), with one ``seed`` per fold.
    A stack trains f independent nets in one loop; each ends bit for bit
    where it would end fit alone. Rows are a stack of one.
    """

    def __init__(self, hidden: int = 16, learning_rate: float = 0.01,
                 epochs: int = 500, seed=0):
        self.hidden = int(hidden)
        self.learning_rate = float(learning_rate)
        self.epochs = int(epochs)
        self.seed = tuple(int(s) for s in seed) if np.ndim(seed) \
            else int(seed)
        self._params: dict | None = None
        self._stacked = False

    def fit(self, x, y) -> "MlpClassifier":
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        self._stacked = x.ndim == 3
        if not self._stacked:
            x, y = x[None], y[None]
        seeds = self.seed if self._stacked else (self.seed,)
        if np.ndim(seeds) != 1 or len(seeds) != x.shape[0]:
            raise ValueError(f"a stack of {x.shape[0]} folds needs one seed "
                             f"per fold, got {self.seed!r}")
        _check_labels(y.astype(int))
        inits = [init_mlp_params(x.shape[2], self.hidden, s) for s in seeds]
        params = {k: np.stack([p[k] for p in inits]) for k in _MLP_PARAMS}
        del inits
        velocity = {k: np.zeros_like(v) for k, v in params.items()}
        buffers = _mlp_buffers(*x.shape, self.hidden)
        for _ in range(self.epochs):
            _, grads = _mlp_backprop(params, x, y, buffers)
            for key in _MLP_PARAMS:
                # velocity = momentum * velocity - learning_rate * grad
                v, g = velocity[key], grads[key]
                v *= _MLP_MOMENTUM
                g *= self.learning_rate
                v -= g
                params[key] += v
        self._params = params
        return self

    def decision_function(self, x) -> np.ndarray:
        """Logits of rows ``x``, or (f, m) logits of a stack ``x`` (f, m, d)
        after a stacked fit, fold i scored by net i."""
        x = np.asarray(x, dtype=float)
        if not self._stacked:
            x = np.atleast_2d(x)[None]
        p = self._params
        a1 = np.maximum(np.matmul(x, p["w1"]) + p["b1"][:, None, :], 0.0)
        z2 = (a1 @ p["w2"])[..., 0] + p["b2"]
        return z2 if self._stacked else z2[0]

    def predict(self, x) -> np.ndarray:
        return (_sigmoid(self.decision_function(x)) > 0.5).astype(int)


# --- dispatch ----------------------------------------------------------------------


_CLASSIFIERS = {
    ModelKind.KNN: KnnClassifier,
    ModelKind.DECISION_TREE: DecisionTreeClassifier,
    ModelKind.RANDOM_FOREST: RandomForestClassifier,
    ModelKind.GRADIENT_BOOSTING: GradientBoostingClassifier,
    ModelKind.SVM: SvmClassifier,
    ModelKind.MLP: MlpClassifier,
}


# the kinds whose fit reads ``train``'s seed
SEEDED_KINDS = (ModelKind.RANDOM_FOREST, ModelKind.MLP)


def train(spec: ModelSpec, x: np.ndarray, y: np.ndarray,
          seed: int | list[int] = 0):
    """Instantiate and fit the classifier named by ``spec``.

    The hyperparameters are constructor arguments; the ones left out take
    the constructor defaults. ``seed`` feeds the models that use randomness
    (random forest bootstrap and MLP initialization); the rest ignore it.
    kNN, SVM and MLP also take a fold stack ``x`` (f, n, d), ``y``
    (f, n), with a list of f seeds for the MLP.
    """
    hp = dict(spec.hyperparameters)
    if spec.kind in SEEDED_KINDS:
        hp["seed"] = seed
    return _CLASSIFIERS[spec.kind](**hp).fit(x, y)


def predict(model, x) -> int:
    """The class ``model`` predicts for the first row of ``x``."""
    return int(model.predict(x)[0])
