"""Feature-matrix assembly, leakage-safe LOOCV grid search, and metrics.

The protocol: for every hyperparameter combination, run a full
leave-one-out pass where imputation medians and z-score statistics are
fit on each fold's training rows only; pick the combination with the best
pooled accuracy (first wins ties) and report its pooled confusion matrix.
Because the same LOOCV both selects and scores, reports carry an explicit
optimistic-bias flag. A report is the ``bench_*.json`` dict itself, plain
JSON values only, so the CLI writes it as it comes.

A matrix standardises each of its folds once, on the first search that
needs them, and every grid point of every search on that matrix trains on
the same fold stack. Points that differ only in their kind's path axis
(``PATH_AXES``: kNN's ``k``, GB's ``n_estimators``, SVM's ``c``) share one
fit, with the bits of one fit per point. Every fit but kNN's trains all
its folds as one stacked fit, with the same bits as one fit per fold; kNN
trains fold by fold, each a stack of one.
"""
from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .actigraphy import ACC_FEATURE_NAMES
from .eda import EDA_FEATURE_NAMES
from .errors import (SEED, ClassUnderpopulated, EmptyConfusion, check_fields,
                     check_value)
from .hrv import HRV_FREQ_NAMES, HRV_TIME_NAMES
from .models import (PATH_AXES, SEEDED_KINDS, ModelKind, ModelSpec, predict,
                     train)
from .session_io import LABEL, Label
from .thermo import TEMP_FEATURE_NAMES

FEATURE_GROUPS: dict[str, tuple[str, ...]] = {
    "hrv_time": HRV_TIME_NAMES,
    "hrv_freq": HRV_FREQ_NAMES,
    "eda": EDA_FEATURE_NAMES,
    "acc": ACC_FEATURE_NAMES,
    "temp": TEMP_FEATURE_NAMES,
}
FEATURE_GROUPS["all"] = (HRV_TIME_NAMES + HRV_FREQ_NAMES + EDA_FEATURE_NAMES
                         + ACC_FEATURE_NAMES + TEMP_FEATURE_NAMES)

MODEL_DISPLAY_NAMES = {
    ModelKind.KNN: "kNN",
    ModelKind.DECISION_TREE: "DT",
    ModelKind.RANDOM_FOREST: "RF",
    ModelKind.GRADIENT_BOOSTING: "GB (stands in for XGB)",
    ModelKind.SVM: "SVM",
    ModelKind.MLP: "MLP",
}


@dataclass(frozen=True)
class SubjectFeatures:
    subject_id: str
    label: Label
    features: dict[str, float]


@dataclass(frozen=True)
class FeatureMatrix:
    subject_ids: tuple[str, ...]
    feature_names: tuple[str, ...]
    values: np.ndarray  # (n_subjects, n_features), NaN marks absent
    labels: np.ndarray  # (n_subjects,), 0 = unipolar, 1 = bipolar

    @functools.cached_property
    def folds(self) -> _Folds:
        """The standardised LOOCV folds, built on first use and shared by
        every later search on this matrix."""
        return _build_folds(self)


def assemble_matrix(rows, selector: str) -> FeatureMatrix:
    """Stack per-subject feature maps into a matrix with a fixed column order.

    ``selector`` picks one of the groups in :data:`FEATURE_GROUPS`; missing
    values stay NaN here and are imputed per fold at fit time.
    """
    if selector not in FEATURE_GROUPS:
        raise KeyError(f"unknown feature selector {selector!r}; "
                       f"choose from {sorted(FEATURE_GROUPS)}")
    names = FEATURE_GROUPS[selector]
    rows = list(rows)
    labels = np.array([r.label.to_int() for r in rows], dtype=int)
    for cls in (0, 1):
        if int(np.sum(labels == cls)) < 2:
            raise ClassUnderpopulated(
                f"class {cls} has {int(np.sum(labels == cls))} subjects; "
                "need >= 2 per class")
    values = np.full((len(rows), len(names)), np.nan)
    for i, row in enumerate(rows):
        for j, name in enumerate(names):
            v = row.features.get(name)
            if v is not None:
                values[i, j] = float(v)
    return FeatureMatrix(
        subject_ids=tuple(r.subject_id for r in rows),
        feature_names=names,
        values=values,
        labels=labels,
    )


# --- leakage-safe preprocessing ------------------------------------------------------


@dataclass(frozen=True)
class Standardizer:
    """Per-column statistics of training rows, each taken after dividing
    the column by its ``scales`` entry."""
    medians: np.ndarray
    means: np.ndarray
    stds: np.ndarray
    scales: np.ndarray


def _column_stats(x: np.ndarray) -> np.ndarray:
    with warnings.catch_warnings():
        # an all-NaN column legitimately yields a NaN median (handled below)
        warnings.simplefilter("ignore", category=RuntimeWarning)
        medians = np.nanmedian(x, axis=0)
    medians = np.where(np.isnan(medians), 0.0, medians)
    imputed = np.where(np.isnan(x), medians[None, :], x)
    return np.stack([medians, imputed.mean(axis=0),
                     np.maximum(imputed.std(axis=0), 1e-9)])


def fit_standardizer(train_rows: np.ndarray) -> Standardizer:
    """Column medians (for imputation) and post-imputation z-score stats.

    The std floor keeps constant columns from dividing by zero; they scale
    to all-zeros instead. A column whose statistics overflow is divided by
    its largest magnitude first, which leaves its z-scores as they are and
    its statistics finite; every other column keeps a scale of 1.
    """
    x = np.asarray(train_rows, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        stats = _column_stats(x)
    scales = np.ones(x.shape[1])
    huge = ~np.all(np.isfinite(stats), axis=0)
    if huge.any():
        scales[huge] = np.nanmax(np.abs(x[:, huge]), axis=0)
        stats[:, huge] = _column_stats(x[:, huge] / scales[huge])
    return Standardizer(*stats, scales=scales)


# a z-score's magnitude cap: a model squaring and summing the differences
# of 59 capped z-scores stays finite
_Z_CAP = 1e150


def apply_standardizer(s: Standardizer, rows: np.ndarray) -> np.ndarray:
    """Imputed z-scores of ``rows``, clipped to +-``_Z_CAP``: a held-out
    cell far outside its training column scores the cap, not an overflow."""
    x = np.atleast_2d(np.asarray(rows, dtype=float)) / s.scales[None, :]
    x = np.where(np.isnan(x), s.medians[None, :], x)
    with np.errstate(over="ignore"):
        z = (x - s.means[None, :]) / s.stds[None, :]
    return np.clip(z, -_Z_CAP, _Z_CAP, out=z)


# --- metrics -----------------------------------------------------------------------------


def compute_metrics(confusion: dict) -> dict:
    """Accuracy, precision, recall, F1 in percent from a pooled confusion
    ``{"tp", "tn", "fp", "fn"}``, as a report's ``metrics`` dict.

    A zero denominator yields 0 for that metric, flagged in ``degenerate``;
    a count that is not an integer >= 0 raises ValueError naming its key.
    """
    keys = ("tp", "tn", "fp", "fn")
    tp, tn, fp, fn = check_fields({k: confusion[k] for k in keys},
                                  dict.fromkeys(keys, SEED)).values()
    total = tp + tn + fp + fn
    if total < 1:
        raise EmptyConfusion("confusion matrix has no entries")
    flags = []
    accuracy = 100.0 * (tp + tn) / total
    if tp + fp > 0:
        precision = 100.0 * tp / (tp + fp)
    else:
        precision, flags = 0.0, flags + ["precision"]
    if tp + fn > 0:
        recall = 100.0 * tp / (tp + fn)
    else:
        recall, flags = 0.0, flags + ["recall"]
    if precision + recall > 0:
        f1 = 2.0 * precision * recall / (precision + recall)
    else:
        f1, flags = 0.0, flags + ["f1"]
    return {"accuracy": accuracy, "precision": precision, "recall": recall,
            "f1": f1, "degenerate": flags}


# --- LOOCV grid search --------------------------------------------------------------------


def _fold_seed(seed: int, grid_index: int, fold: int) -> int:
    ss = np.random.SeedSequence((seed, grid_index, fold))
    return int(ss.generate_state(1, dtype=np.uint64)[0] % (2 ** 62))


@dataclass(frozen=True)
class _Folds:
    """The LOOCV folds of a matrix, each standardised by its own training
    rows: fold i trains on every subject but i and tests on subject i."""
    x_train: np.ndarray  # (n, n - 1, d)
    y_train: np.ndarray  # (n, n - 1)
    x_test: np.ndarray  # (n, 1, d)


def _build_folds(matrix: FeatureMatrix) -> _Folds:
    n, d = matrix.values.shape
    x_train = np.empty((n, n - 1, d))
    x_test = np.empty((n, 1, d))
    y_train = np.empty((n, n - 1), dtype=matrix.labels.dtype)
    for fold in range(n):
        mask = np.ones(n, dtype=bool)
        mask[fold] = False
        rows = matrix.values[mask]
        std = fit_standardizer(rows)
        x_train[fold] = apply_standardizer(std, rows)
        x_test[fold] = apply_standardizer(std, matrix.values[fold:fold + 1])
        y_train[fold] = matrix.labels[mask]
    return _Folds(x_train, y_train, x_test)


def _grid_predictions(folds: _Folds, kind: ModelKind, grid: list[dict],
                      seed: int) -> np.ndarray:
    """(len(grid), n) LOOCV predictions: row g holds grid point g's, fold i
    predicting held-out subject i. Points that set their kind's path axis
    and differ only in it share one fit over their path values, in grid
    order; a point without it fits alone at the classifier's default."""
    n = folds.x_train.shape[0]
    axis = PATH_AXES.get(kind)
    groups: dict = {}  # the grid indices that one fit serves
    for gi, hp in enumerate(grid):
        rest = tuple(sorted((k, v) for k, v in hp.items() if k != axis))
        groups.setdefault(rest if axis in hp else gi, []).append(gi)
    preds = np.empty((len(grid), n), dtype=int)
    for members in groups.values():
        gi, hp = members[0], grid[members[0]]
        if axis in hp:
            hp = {**hp, axis: [grid[g][axis] for g in members]}
        spec = ModelSpec(kind, hp)
        # kNN stacks too, but perfbench pins its per-fold train and predict
        if kind is ModelKind.KNN:
            for fold, (x, y, x_test) in enumerate(
                    zip(folds.x_train, folds.y_train, folds.x_test)):
                preds[members, fold] = predict(train(spec, x[None], y[None]),
                                               x_test[None])
        else:  # one stacked fit, each model equal to its own fit bit for bit
            seeds = ([_fold_seed(seed, gi, fold) for fold in range(n)]
                     if kind in SEEDED_KINDS else [0] * n)
            model = train(spec, folds.x_train, folds.y_train, seed=seeds)
            preds[members] = predict(model, folds.x_test).reshape(-1, n)
            del model  # freed before the next fit, not alongside it
    return preds


def loocv_grid_search(matrix: FeatureMatrix, kind: ModelKind, grid,
                      seed: int = 0, positive_class: Label = Label.BIPOLAR,
                      selector: str = "all") -> dict:
    """Exhaustive hyperparameter search scored by pooled LOOCV accuracy.

    ``grid`` is an ordered sequence of hyperparameter dicts; determinism
    comes from that order, the seed, and first-best tie-breaking. Returns
    the ``bench_*.json`` report, built of plain JSON values only, which
    names ``positive_class`` by its ``to_int()``.
    """
    seed = check_value("seed", seed, SEED)
    positive = check_value("positive_class", positive_class, LABEL).to_int()
    grid = [dict(g) for g in grid]
    if not grid:
        raise ValueError("hyperparameter grid must be non-empty")
    n = matrix.values.shape[0]
    if n < 3:
        raise ClassUnderpopulated(f"need >= 3 subjects for LOOCV, got {n}")

    all_preds = _grid_predictions(matrix.folds, kind, grid, seed)
    correct = np.sum(all_preds == matrix.labels, axis=1).tolist()
    gi = correct.index(max(correct))  # the first best wins ties
    labels, preds = matrix.labels.tolist(), all_preds[gi].tolist()
    # (true is positive, predicted is positive) per subject
    hits = [(t == positive, p == positive) for t, p in zip(labels, preds)]
    confusion = {"tp": hits.count((True, True)),
                 "tn": hits.count((False, False)),
                 "fp": hits.count((False, True)),
                 "fn": hits.count((True, False))}
    return {
        "model": {"kind": kind.value,
                  "display_name": MODEL_DISPLAY_NAMES[kind],
                  "hyperparameters": grid[gi]},
        "confusion": confusion,
        "metrics": compute_metrics(confusion),
        "per_fold": [{"subject_id": sid, "true": t, "predicted": p}
                     for sid, t, p in zip(matrix.subject_ids, labels, preds)],
        "selector": selector,
        "positive_class": positive,
        "seed": seed,
        "grid_search": {
            "n_points": len(grid),
            "selection": "pooled LOOCV accuracy, first best on ties",
            "optimistic_bias": True,  # non-nested selection, by protocol
            # percent from the correct count, as compute_metrics takes it
            "points": [{"hyperparameters": hp, "accuracy": 100.0 * k / n}
                       for hp, k in zip(grid, correct)],
        },
    }


# --- default grids and report rendering --------------------------------------------------


def expand_grid(axes: dict[str, list]) -> list[dict]:
    """Cartesian product of axis values, in axis-declaration order."""
    points = [{}]
    for name, values in axes.items():
        points = [{**p, name: v} for p in points for v in values]
    return points


def default_grids() -> dict[ModelKind, list[dict]]:
    return {
        ModelKind.KNN: expand_grid({"k": [1, 3, 5, 7]}),
        ModelKind.DECISION_TREE: expand_grid({"max_depth": [2, 3, 5, None]}),
        ModelKind.RANDOM_FOREST: expand_grid(
            {"n_estimators": [50, 200], "max_depth": [3, None]}),
        ModelKind.GRADIENT_BOOSTING: expand_grid(
            {"n_estimators": [50, 200], "learning_rate": [0.05, 0.1]}),
        ModelKind.SVM: (
            expand_grid({"kernel": ["linear"], "c": [0.1, 1.0, 10.0]})
            + expand_grid({"kernel": ["rbf"], "c": [0.1, 1.0, 10.0],
                           "gamma": [0.01, 0.1, 1.0]})),
        ModelKind.MLP: expand_grid(
            {"hidden": [8, 16, 32], "learning_rate": [0.01, 0.001],
             "epochs": [500]}),
    }


def render_markdown_table(reports) -> str:
    """One results table in the benchmark layout, percentages to 2 decimals,
    from report dicts: ``loocv_grid_search``'s or loaded ``bench_*.json``."""
    lines = [
        "| Method | Accuracy | Precision | Recall | F1 Score |",
        "|---|---|---|---|---|",
    ]
    for report in reports:
        m = report["metrics"]
        lines.append(
            f"| {report['model']['display_name']} "
            f"| {m['accuracy']:.2f} | {m['precision']:.2f} "
            f"| {m['recall']:.2f} | {m['f1']:.2f} |")
    return "\n".join(lines) + "\n"
