"""Binary classifiers implemented from first principles.

Every classifier fits a fold stack: ``x`` (f, n, d) and labels ``y``
(f, n), one independent training set per fold, with one seed per fold
for the random forest and the MLP. ``predict`` takes (f, m, d) queries,
fold i's scored by fold i's models, and returns (models, m); that is one
model per fold, except for an SVM C-path. One training set is a stack of
one, ``x[None]``, ``y[None]``.

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
    """Raise unless each fold of labels (f, n) holds two classes."""
    for labels in y:
        if np.unique(labels).size < 2:
            raise DegenerateLabels("training labels contain a single class")


def _as_stack(x, y, y_dtype):
    """``x``, ``y`` as float and ``y_dtype`` arrays; ValueError unless they
    are a fold stack (f, n, d), (f, n)."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=y_dtype)
    if x.ndim != 3 or y.shape != x.shape[:2]:
        raise ValueError(f"fit takes x (f, n, d) and y (f, n), got x "
                         f"{x.shape} and y {y.shape}")
    return x, y


def _seeds_per_fold(seed, n_folds: int) -> list[int]:
    if np.ndim(seed) != 1 or len(seed) != n_folds:
        raise ValueError(f"a stack of {n_folds} folds needs one seed per "
                         f"fold, got {seed!r}")
    return [int(s) for s in seed]


# --- k-nearest neighbours -------------------------------------------------------


class KnnClassifier:
    """Majority vote of the k nearest training rows (Euclidean), each
    fold's queries voting among its own rows."""

    def __init__(self, k: int = 5):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = int(k)
        self._x: np.ndarray | None = None
        self._y: np.ndarray | None = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "KnnClassifier":
        self._x, self._y = _as_stack(x, y, int)
        _check_labels(self._y)
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        d = np.sum((self._x[:, None, :, :] - x[:, :, None, :]) ** 2, axis=-1)
        order = np.argsort(d, axis=-1, kind="stable")[..., :self.k]
        votes = np.take_along_axis(self._y[:, None, :], order, axis=-1)
        ones = np.sum(votes == 1, axis=-1)
        # ties resolve to class 0
        return (ones > order.shape[-1] - ones).astype(int)


# --- CART trees --------------------------------------------------------------------


def _per_size(values: np.ndarray, sizes: np.ndarray, reduce_rows) -> np.ndarray:
    """``reduce_rows`` of each run of ``sizes`` consecutive ``values``, with
    the bits it has on that run alone: NumPy sums a run pairwise, so runs
    of one length are reduced as the rows of one block, never padded."""
    out, starts = np.empty(len(sizes)), np.cumsum(sizes) - sizes
    for size in np.unique(sizes).tolist():
        which = np.flatnonzero(sizes == size)
        out[which] = reduce_rows(values[starts[which, None] + np.arange(size)])
    return out


def _last_rows(a: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Row ``n[b] - 1`` of every lane ``(b, c)`` of an (N, B, C) block."""
    return a[n - 1, np.arange(len(n))]


@dataclass(frozen=True)
class _Criterion:
    """How a tree scores its nodes and splits and what a leaf predicts."""
    # (N, B, C) targets of B nodes sorted by C columns, node sizes (B,)
    # -> the score of cutting after each row, (N - 1, B, C)
    split_scores: object
    node_score: object  # (k, size) targets of k nodes -> their impurities
    leaf_value: object  # the same -> their predictions
    tol: float  # a later split point must beat the kept one by more than this


def _gini(zeros, ones, n):
    p0, p1 = zeros / n, ones / n
    return 1.0 - (p0 * p0 + p1 * p1)


def _gini_split_scores(ys: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Weighted child Gini impurity of cutting after every row."""
    n_left = np.arange(1, len(ys))[:, None, None]
    zeros, ones = np.cumsum(ys == 0, axis=0), np.cumsum(ys == 1, axis=0)
    z, o = zeros[:-1], ones[:-1]
    n_right = np.maximum(n[:, None] - n_left, 1)  # past a node: never read
    left = _gini(z, o, n_left)
    right = _gini(_last_rows(zeros, n) - z, _last_rows(ones, n) - o, n_right)
    return (n_left * left + n_right * right) / n[:, None]


def _sse_split_scores(rs: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Summed child squared error of cutting after every row."""
    n_left = np.arange(1, len(rs))[:, None, None]
    csum, csum2 = np.cumsum(rs, axis=0), np.cumsum(rs * rs, axis=0)
    c, c2 = csum[:-1], csum2[:-1]
    return (c2 - c ** 2 / n_left) \
        + ((_last_rows(csum2, n) - c2) - (_last_rows(csum, n) - c) ** 2
           / np.maximum(n[:, None] - n_left, 1))


def _row_sums(rows: np.ndarray) -> np.ndarray:
    return rows.sum(axis=1)


_GINI = _Criterion(
    _gini_split_scores,
    lambda y: _gini(np.sum(y == 0, axis=1), np.sum(y == 1, axis=1), y.shape[1]),
    # ties resolve to class 0
    lambda y: (np.sum(y == 1, axis=1) > np.sum(y == 0, axis=1)).astype(float),
    1e-15)
_SSE = _Criterion(
    _sse_split_scores,
    lambda r: np.sum((r - r.mean(axis=1, keepdims=True)) ** 2, axis=1),
    lambda r: r.mean(axis=1), 1e-12)

# the most (row, node, column) cells of one split-search block; its arrays
# stay at 64 KiB, which the allocator reuses rather than maps afresh
_BLOCK_CELLS = 1 << 13


def _scan(scores: np.ndarray, tol: float):
    """Along axis 0, the row (-1 if none) and score that a top-down scan
    keeps: the first finite score, replaced only by one below ``kept - tol``,
    so on near-ties the earliest row wins. Only a row below the running
    minimum can replace it; where each such row is more than ``tol`` below,
    the scan ends at the first minimum, and only other lanes go row by row.
    """
    running = np.minimum.accumulate(scores, axis=0)
    score = running[-1].copy()
    row = np.sum(running > score, axis=0)
    record = scores[1:] < running[:-1]
    chained = np.any(record & ~(scores[1:] < running[:-1] - tol), axis=0)
    if chained.any():
        lanes = scores[:, chained]
        kept, at = np.full(lanes.shape[1:], np.inf), np.full(lanes.shape[1:], -1)
        for i in [0] + (1 + np.flatnonzero(
                record[:, chained].any(axis=-1))).tolist():
            take = lanes[i] < kept - tol
            kept[take], at[take] = lanes[i][take], i
        score[chained], row[chained] = kept, at
    row[score == np.inf] = -1
    return row, score


def _column_splits(x: np.ndarray, target: np.ndarray, ids: list,
                   cols: np.ndarray | None, min_samples_leaf: int,
                   criterion: _Criterion):
    """(C, B) thresholds and scores (inf if none) of the best split of each
    column ``cols[b]`` (default: all) of nodes b of rows ``ids[b]``.

    Candidates are midpoints between consecutive distinct sorted values
    that leave ``min_samples_leaf`` rows on each side and send a row each
    way by ``x <= threshold``; on near-ties the lowest wins. Each node is
    padded after its rows with NaN, which a stable sort puts last, so its
    sorted rows, prefix sums and scores keep the bits they have alone.
    """
    n = np.array([len(rows) for rows in ids])
    real = np.arange(n.max()) < n[:, None]
    rows = np.zeros(real.shape, dtype=np.intp)
    rows[real] = np.concatenate(ids)
    rows, real = rows.T, real.T  # (N, B)
    xv = x[rows] if cols is None else x[rows[:, :, None], cols]
    xv[~real] = np.nan
    order = np.argsort(xv, axis=0, kind="stable")
    lanes = np.arange(order[0].size).reshape(order.shape[1:])
    xs = xv.ravel()[order * lanes.size + lanes]
    ts = target[rows.ravel()[order * len(ids) + np.arange(len(ids))[:, None]]]
    lo, hi = xs[:-1], xs[1:]
    with np.errstate(invalid="ignore", over="ignore"):
        mid = (lo + hi) / 2.0
    i = np.arange(len(lo))[:, None, None]
    valid = ((lo != hi) & (i >= min_samples_leaf - 1)
             & (i < n[:, None] - min_samples_leaf)
             & (mid >= xs[0]) & (mid < _last_rows(xs, n)))
    row, score = _scan(np.where(valid, criterion.split_scores(ts, n), np.inf),
                       criterion.tol)
    return mid.ravel()[np.maximum(row, 0) * lanes.size + lanes].T, score.T


class _Tree:
    """A stack of binary CART trees as flat arrays, grown in lock-step.

    ``fit`` grows tree t on rows ``rows[t]`` (default: all) of fold
    ``t * f // len(rows)`` of ``x`` (f, n, d), ``target`` (f, n). Tree t
    numbers its nodes in pre-order from ``roots[t]``. An inner node sends
    rows with ``x[feature] <= threshold`` to ``left``, the rest to
    ``right``; ``left < 0`` marks a leaf. At each step every tree pops
    pending nodes, making leaves, up to the next one to search, and one
    batch searches those nodes, so each tree ends bit for bit as it grows
    alone. ``samplers[t](d)`` draws the features of each node of tree t
    that searches, in its pre-order.
    """

    def __init__(self, criterion: _Criterion, max_depth: int | None = None,
                 min_samples_leaf: int = 1):
        self.criterion = criterion
        self.max_depth = max_depth
        self.min_samples_leaf = int(min_samples_leaf)

    def fit(self, x, target, rows=None, samplers=None) -> "_Tree":
        f, n, d = x.shape
        rows = np.tile(np.arange(n), (f, 1)) if rows is None else rows
        ids = rows + (np.arange(len(rows)) * f // len(rows) * n)[:, None]
        x, target = x.reshape(f * n, d), target.ravel()
        nodes = [[] for _ in ids]  # per tree: [feature, threshold, left, right]
        pending = [[(r, 0, None, 0)] for r in ids]  # (rows, depth, parent, side)
        leaves = []  # (tree, node, rows)
        max_depth = np.inf if self.max_depth is None else self.max_depth
        while True:
            batch = []  # (tree, node, rows, depth)
            for t, stack in enumerate(pending):
                while stack:
                    r, depth, parent, side = stack.pop()
                    if parent is not None:
                        nodes[t][parent][2 + side] = len(nodes[t])
                    nodes[t].append([0, 0.0, -1, -1])
                    entry = (t, len(nodes[t]) - 1, r, depth)
                    if depth >= max_depth \
                            or r.size < 2 * self.min_samples_leaf:
                        leaves.append(entry[:3])
                    else:
                        batch.append(entry)
                        break
            if not batch:
                break
            self._search(x, target, batch, samplers, nodes, leaves, pending)
        sizes = np.array([len(tree) for tree in nodes])
        self.roots = np.cumsum(sizes) - sizes
        flat = np.array([node for tree in nodes for node in tree])
        offset = np.repeat(self.roots, sizes)
        self.feature, self.threshold = flat[:, 0].astype(np.intp), flat[:, 1]
        self.left, self.right = (np.where(c >= 0, c + offset, -1)
                                 .astype(np.intp) for c in flat[:, 2:].T)
        self.value = np.zeros(len(flat))
        self.value[[self.roots[t] + i for t, i, _ in leaves]] = _per_size(
            target[np.concatenate([r for *_, r in leaves])],
            np.array([r.size for *_, r in leaves]), self.criterion.leaf_value)
        return self

    def _search(self, x, target, batch, samplers, nodes, leaves,
                pending) -> None:
        """Make leaves of a batch's pure nodes and search the rest in
        blocks of like sizes; split those that beat their impurity, pushing
        the children, and make leaves of the others."""
        impurity = _per_size(target[np.concatenate([e[2] for e in batch])],
                             np.array([e[2].size for e in batch]),
                             self.criterion.node_score).tolist()
        leaves += [e[:3] for e, s in zip(batch, impurity) if s <= 0.0]
        batch = sorted((e + (s,) for e, s in zip(batch, impurity) if s > 0.0),
                       key=lambda entry: entry[2].size)
        if not batch:
            return
        cols = None if samplers is None else np.array(
            [samplers[entry[0]](x.shape[1]) for entry in batch])
        n_cols = x.shape[1] if cols is None else cols.shape[1]
        blocks, lo = [], 0
        for hi in range(1, len(batch) + 1):
            # a block pads each node to its last, largest one
            if hi == len(batch) or (hi + 1 - lo) * batch[hi][2].size \
                    * n_cols > _BLOCK_CELLS:
                blocks.append(_column_splits(
                    x, target, [entry[2] for entry in batch[lo:hi]],
                    None if cols is None else cols[lo:hi],
                    self.min_samples_leaf, self.criterion))
                lo = hi
        threshold, scores = (np.concatenate(a, axis=1) for a in zip(*blocks))
        col, best = _scan(scores, 1e-15)
        # the first column wins near-ties; a split must beat its node
        split = (col >= 0) & (best < np.array([e[4] for e in batch]) - 1e-15)
        for b, (t, index, r, depth, _) in enumerate(batch):
            if not split[b]:
                leaves.append((t, index, r))
                continue
            f = int(col[b] if cols is None else cols[b, col[b]])
            nodes[t][index][:2] = f, float(threshold[col[b], b])
            go_left = x[r, f] <= nodes[t][index][1]
            pending[t] += [(r[~go_left], depth + 1, index, 1),
                           (r[go_left], depth + 1, index, 0)]

    def apply(self, x) -> np.ndarray:
        """The leaf each query lands in: ``x`` (f, m, d) holds the queries
        of each run of ``len(roots) // f`` trees; returns (trees, m)."""
        f, m, d = np.shape(x)
        queries = np.asarray(x, dtype=float).reshape(f * m, d)
        query = np.repeat(np.arange(f * m).reshape(f, 1, m),
                          len(self.roots) // f, axis=1).ravel()
        node = np.repeat(self.roots, m)
        live = np.flatnonzero(self.left[node] >= 0)
        while live.size:
            at = node[live]
            go_left = queries[query[live], self.feature[at]] \
                <= self.threshold[at]
            node[live] = np.where(go_left, self.left[at], self.right[at])
            live = live[self.left[node[live]] >= 0]
        return node.reshape(-1, m)

    def predict(self, x) -> np.ndarray:
        return self.value[self.apply(x)]


class DecisionTreeClassifier:
    """CART with Gini impurity and axis-aligned binary splits, the trees
    of all folds grown in one lock-step."""

    def __init__(self, max_depth: int | None = None, min_samples_leaf: int = 1):
        self.max_depth = max_depth
        self.min_samples_leaf = int(min_samples_leaf)
        self.tree: _Tree | None = None

    def fit(self, x, y) -> "DecisionTreeClassifier":
        x, y = _as_stack(x, y, int)
        _check_labels(y)
        self.tree = _Tree(_GINI, self.max_depth,
                          self.min_samples_leaf).fit(x, y)
        return self

    def predict(self, x) -> np.ndarray:
        return self.tree.predict(x).astype(int)


# the most trees a forest grows in one lock-step (but at least one fold's):
# Python holds their nodes until all are done, and the memory stays
_LOCKSTEP_TREES = 128


class RandomForestClassifier:
    """Bagged CART trees with sqrt(d) feature subsampling per split.

    The trees grow in lock-steps of whole folds, each tree's bootstrap and
    feature draws coming from its own generator, spawned from its fold's
    seed.
    """

    def __init__(self, n_estimators: int = 100, max_depth: int | None = None,
                 min_samples_leaf: int = 1, seed=(0,)):
        self.n_estimators = int(n_estimators)
        self.max_depth = max_depth
        self.min_samples_leaf = int(min_samples_leaf)
        self.seed = seed
        self._trees: list[_Tree] = []  # one stack per lock-step

    def fit(self, x, y) -> "RandomForestClassifier":
        x, y = _as_stack(x, y, int)
        seeds = _seeds_per_fold(self.seed, len(x))
        _check_labels(y)
        m = max(1, int(round(math.sqrt(x.shape[2]))))
        per = max(1, _LOCKSTEP_TREES // self.n_estimators)
        self._trees = []
        for lo in range(0, len(x), per):
            rngs = [np.random.default_rng(ss) for seed in seeds[lo:lo + per]
                    for ss in np.random.SeedSequence(seed).spawn(
                        self.n_estimators)]
            boots = np.array([rng.integers(0, x.shape[1], x.shape[1])
                              for rng in rngs])
            self._trees.append(_Tree(
                _GINI, self.max_depth, self.min_samples_leaf).fit(
                    x[lo:lo + per], y[lo:lo + per], boots,
                    [lambda d, rng=rng: sorted(rng.choice(
                        d, size=min(m, d), replace=False)) for rng in rngs]))
        return self

    def predict(self, x) -> np.ndarray:
        per = len(self._trees[0].roots) // self.n_estimators
        votes = np.concatenate([
            stack.predict(x[i * per:(i + 1) * per])
            .reshape(-1, self.n_estimators, x.shape[1]).sum(axis=1)
            for i, stack in enumerate(self._trees)])
        return (votes > self.n_estimators - votes).astype(int)


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
    ``sum(residual) / sum(p (1 - p))`` scaled by the learning rate. Each
    stage grows its trees, one per fold, in one lock-step.
    """

    def __init__(self, n_estimators: int = 100, learning_rate: float = 0.1,
                 max_depth: int = 3):
        self.n_estimators = int(n_estimators)
        self.learning_rate = float(learning_rate)
        self.max_depth = int(max_depth)
        self._trees: list[_Tree] = []
        self._base_score = np.zeros(1)

    def fit(self, x, y) -> "GradientBoostingClassifier":
        x, y = _as_stack(x, y, float)
        _check_labels(y.astype(int))
        self._base_score = np.array([
            math.log(p0 / (1.0 - p0))
            for p0 in np.clip(y.mean(axis=1), 1e-9, 1.0 - 1e-9).tolist()])
        scores = np.repeat(self._base_score[:, None], y.shape[1], axis=1)
        self._trees = []
        for _ in range(self.n_estimators):
            p = _sigmoid(scores)
            residual, hessian = y - p, p * (1.0 - p)
            tree = _Tree(_SSE, self.max_depth).fit(x, residual)
            leaf = tree.apply(x)
            # replace leaf means with Newton steps, summing each leaf's rows
            # in order
            by_leaf = np.argsort(leaf, axis=None, kind="stable")
            nodes, sizes = np.unique(leaf, return_counts=True)
            tree.value[nodes] = _per_size(
                residual.ravel()[by_leaf], sizes, _row_sums) / np.maximum(
                    _per_size(hessian.ravel()[by_leaf], sizes, _row_sums), 1e-12)
            self._trees.append(tree)
            scores = scores + self.learning_rate * tree.value[leaf]
        return self

    def decision_scores(self, x) -> np.ndarray:
        scores = np.repeat(self._base_score[:, None], x.shape[1], axis=1)
        for tree in self._trees:
            scores = scores + self.learning_rate * tree.predict(x)
        return scores

    def predict(self, x) -> np.ndarray:
        return (_sigmoid(self.decision_scores(x)) > 0.5).astype(int)


# --- support vector machine ------------------------------------------------------------


_SVM_TOL = 1e-3
_SVM_MAX_ITER = 20000


def _if_elif(a, b, *cases):
    """``(a, b)`` after an if/elif chain over ``(condition, a_new, b_new)``
    cases, taken element by element: the first true condition wins."""
    for condition, a_new, b_new in reversed(cases):
        a, b = np.where(condition, a_new, a), np.where(condition, b_new, b)
    return a, b


def _positive(name: str, value) -> float:
    """``value`` as a float; ValueError unless it is a finite number > 0."""
    try:
        v = float(value)
    except (TypeError, ValueError):
        v = math.nan
    if not (math.isfinite(v) and v > 0):
        raise ValueError(f"{name} must be a finite number > 0, got {value!r}")
    return v


class SvmClassifier:
    """Soft-margin SVM trained by most-violating-pair dual optimization.

    Kernels: ``"linear"`` or ``"rbf"`` (``exp(-gamma ||a - b||^2)``).
    ``c`` is a C-path: one value or a sequence, kept as a tuple. A fit on
    f folds trains ``len(c) * f`` models, whose SMOs run in one lock-step,
    each ending bit for bit where it would alone. They are C-major (model
    k is fold ``k % f`` at C ``c[k // f]``), all reading their fold's one
    kernel matrix, and predict (``len(c) * f``, m) for (f, m, d) queries.
    A model stops when its maximal KKT violation drops below ``_SVM_TOL``
    or after ``_SVM_MAX_ITER`` pair updates, which is not an error;
    ``n_iter`` and ``hit_cap`` say which, per model.
    """

    def __init__(self, c=1.0, kernel: str = "linear", gamma: float = 0.1):
        if kernel not in ("linear", "rbf"):
            raise ValueError(f"unknown kernel {kernel!r}")
        self.c = tuple(_positive("c", v) for v in (c if np.ndim(c) else [c]))
        if self.c == ():
            raise ValueError("c must not be an empty sequence")
        self.kernel = kernel
        self.gamma = _positive("gamma", gamma)
        self._x: np.ndarray | None = None
        self._fold: np.ndarray | None = None
        self._sy: np.ndarray | None = None
        self._alpha: np.ndarray | None = None
        self._bias: np.ndarray | None = None

    def _kernel_matrix(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        ab = np.matmul(a, np.swapaxes(b, -1, -2))
        if self.kernel == "linear":
            return ab
        aa = np.sum(a * a, axis=-1)[..., :, None]
        bb = np.sum(b * b, axis=-1)[..., None, :]
        return np.exp(-self.gamma * np.maximum(aa + bb - 2.0 * ab, 0.0))

    @staticmethod
    def _violations(s, pos, neg, c, alpha, grad):
        """KKT violations of the rows free to move up, and down; ``pos``
        and ``neg`` mark ``s > 0`` and ``s < 0``, ``c`` is (models, 1)."""
        up = (pos & (alpha < c)) | (neg & (alpha > 0))
        low = (neg & (alpha < c)) | (pos & (alpha > 0))
        viol = -s * grad
        return np.where(up, viol, -np.inf), np.where(low, viol, np.inf)

    def fit(self, x, y) -> "SvmClassifier":
        x, y = _as_stack(x, y, int)
        _check_labels(y)
        s = np.where(y == 1, 1.0, -1.0)
        f, n = s.shape
        q = (s[:, :, None] * s[:, None, :]) * self._kernel_matrix(x, x)
        c = np.repeat(self.c, f)[:, None]
        m = len(c)
        fold, models = np.arange(m) % f, np.arange(m)
        s = s[fold]
        pos, neg = s > 0, s < 0
        alpha, grad = np.zeros((m, n)), -np.ones((m, n))
        n_iter = np.zeros(m, dtype=int)

        for _ in range(_SVM_MAX_ITER):
            up_vals, low_vals = self._violations(s, pos, neg, c, alpha, grad)
            i, j = up_vals.argmax(axis=1), low_vals.argmin(axis=1)
            # a model whose gap is below _SVM_TOL does not move, so it stays so
            live = ~(up_vals[models, i] - low_vals[models, j] < _SVM_TOL)
            if not live.any():
                break
            n_iter += live
            r, i, j = models[live], i[live], j[live]
            fr, cr = fold[r], c[r, 0]
            a_i, a_j, g_i, g_j = alpha[r, i], alpha[r, j], grad[r, i], \
                grad[r, j]
            q_ii, q_jj, q_ij = q[fr, i, i], q[fr, j, j], q[fr, i, j]
            # s[i] != s[j]: alpha[i] - alpha[j] stays fixed
            delta = (-g_i - g_j) / np.maximum(q_ii + q_jj + 2.0 * q_ij, 1e-12)
            diff = a_i - a_j
            ai, aj = a_i + delta, a_j + delta
            ai, aj = _if_elif(ai, aj, ((diff > 0) & (aj < 0), diff, 0.0),
                              ((diff <= 0) & (ai < 0), 0.0, -diff))
            opposite = _if_elif(ai, aj, ((diff > 0) & (ai > cr), cr, cr - diff),
                                ((diff <= 0) & (aj > cr), cr + diff, cr))
            # s[i] == s[j]: alpha[i] + alpha[j] stays fixed
            delta = (g_i - g_j) / np.maximum(q_ii + q_jj - 2.0 * q_ij, 1e-12)
            total = a_i + a_j
            ai, aj = a_i - delta, a_j + delta
            over = total > cr
            same = _if_elif(ai, aj, (over & (ai > cr), cr, total - cr),
                            (over & (aj > cr), total - cr, cr),
                            (~over & (aj < 0), total, 0.0),
                            (~over & (ai < 0), 0.0, total))
            ai, aj = _if_elif(*opposite, (s[r, i] == s[r, j], *same))
            alpha[r, i], alpha[r, j] = ai, aj
            grad[r] = grad[r] + q[fr, :, i] * (ai - a_i)[:, None] \
                + q[fr, :, j] * (aj - a_j)[:, None]

        up_vals, low_vals = self._violations(s, pos, neg, c, alpha, grad)
        free = (alpha > 1e-12) & (alpha < c - 1e-12)
        bias = np.array([
            np.mean((-s[k] * grad[k])[free[k]]) if np.any(free[k])
            else (np.max(up_vals[k]) + np.min(low_vals[k])) / 2.0
            for k in range(m)])
        self._x, self._fold, self._sy = x, fold, s
        self._alpha, self._bias = alpha, bias
        self.n_iter, self.hit_cap = n_iter, n_iter == _SVM_MAX_ITER
        return self

    def decision_function(self, x) -> np.ndarray:
        """(models, m) scores of queries ``x`` (f, m, d), model k scored on
        ``x[k % f]``."""
        k = self._kernel_matrix(x, self._x)[self._fold]
        scores = np.matmul(k, (self._alpha * self._sy)[..., None])[..., 0]
        return scores + self._bias[:, None]

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

    The f folds train f independent nets in one loop, each initialised
    from its fold's seed; each ends bit for bit where it would end alone.
    """

    def __init__(self, hidden: int = 16, learning_rate: float = 0.01,
                 epochs: int = 500, seed=(0,)):
        self.hidden = int(hidden)
        self.learning_rate = float(learning_rate)
        self.epochs = int(epochs)
        self.seed = seed
        self._params: dict | None = None

    def fit(self, x, y) -> "MlpClassifier":
        x, y = _as_stack(x, y, float)
        seeds = _seeds_per_fold(self.seed, len(x))
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
        """(f, m) logits of queries ``x`` (f, m, d), fold i's by net i."""
        p = self._params
        a1 = np.maximum(np.matmul(x, p["w1"]) + p["b1"][:, None, :], 0.0)
        return (a1 @ p["w2"])[..., 0] + p["b2"]

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


def train(spec: ModelSpec, x: np.ndarray, y: np.ndarray, seed=(0,)):
    """Instantiate the classifier named by ``spec`` and fit the fold stack
    ``x``, ``y``.

    The hyperparameters are constructor arguments; the ones left out take
    the constructor defaults. ``seed``, one per fold, feeds the models that
    use randomness (random forest bootstrap and MLP initialization); the
    rest ignore it.
    """
    hp = dict(spec.hyperparameters)
    if spec.kind in SEEDED_KINDS:
        hp["seed"] = seed
    return _CLASSIFIERS[spec.kind](**hp).fit(x, y)


def predict(model, x) -> int:
    """The class the first model predicts for the first query of ``x``."""
    return int(model.predict(x)[0, 0])
