import hashlib
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from wearbench import mlbench, pipeline
from wearbench.errors import ClassUnderpopulated, EmptyConfusion
from wearbench.mlbench import (
    FeatureMatrix,
    SubjectFeatures,
    apply_standardizer,
    assemble_matrix,
    compute_metrics,
    fit_standardizer,
    _fold_seed,
    loocv_grid_search,
)
from wearbench.models import SEEDED_KINDS, ModelKind, ModelSpec, predict, train
from wearbench.session_io import Label


def toy_rows(n0=5, n1=6, n_features=4, seed=0, names=None):
    rng = np.random.default_rng(seed)
    names = names or list(mlbench.FEATURE_GROUPS["all"][:n_features])
    rows = []
    for i in range(n0 + n1):
        label = Label.UNIPOLAR if i < n0 else Label.BIPOLAR
        shift = 0.0 if i < n0 else 2.5
        feats = {name: float(rng.normal() + shift) for name in names}
        rows.append(SubjectFeatures(subject_id=f"S{i:03d}", label=label,
                                    features=feats))
    return rows


def matrix_from_arrays(values, labels, names=None):
    values = np.asarray(values, dtype=float)
    names = tuple(names or (f"f{i}" for i in range(values.shape[1])))
    return FeatureMatrix(
        subject_ids=tuple(f"S{i:03d}" for i in range(values.shape[0])),
        feature_names=names,
        values=values,
        labels=np.asarray(labels, dtype=int),
    )


class TestAssembleMatrix:
    def test_column_counts_per_selector(self, default_session):
        from wearbench.pipeline import extract_session_features
        feats = extract_session_features(default_session)
        rows = [
            SubjectFeatures(f"S{i:03d}",
                            Label.UNIPOLAR if i < 2 else Label.BIPOLAR,
                            feats)
            for i in range(4)
        ]
        assert len(assemble_matrix(rows, "temp").feature_names) == 7
        assert len(assemble_matrix(rows, "acc").feature_names) == 10
        assert len(assemble_matrix(rows, "eda").feature_names) == 10
        assert len(assemble_matrix(rows, "hrv_time").feature_names) == 23
        assert len(assemble_matrix(rows, "hrv_freq").feature_names) == 9
        assert len(assemble_matrix(rows, "all").feature_names) == 59

    def test_class_underpopulated(self):
        rows = toy_rows(n0=1, n1=5)
        with pytest.raises(ClassUnderpopulated):
            assemble_matrix(rows, "all")

    def test_unknown_selector(self):
        with pytest.raises(KeyError):
            assemble_matrix(toy_rows(), "bogus")

    def test_missing_feature_becomes_nan(self):
        rows = toy_rows(names=["HRV_MeanNN"])
        matrix = assemble_matrix(rows, "hrv_time")
        j = matrix.feature_names.index("HRV_SDNN")
        assert np.all(np.isnan(matrix.values[:, j]))


class TestStandardizer:
    def test_train_stats_after_transform(self):
        rng = np.random.default_rng(1)
        x = rng.normal(3.0, 2.5, size=(20, 5))
        s = fit_standardizer(x)
        z = apply_standardizer(s, x)
        assert np.max(np.abs(z.mean(axis=0))) < 1e-9
        assert np.max(np.abs(z.std(axis=0) - 1.0)) < 1e-9

    def test_constant_column_scales_to_zero(self):
        x = np.ones((10, 2))
        x[:, 1] = np.arange(10)
        z = apply_standardizer(fit_standardizer(x), x)
        assert np.all(z[:, 0] == 0.0)

    def test_row_at_train_mean_maps_to_zero(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(15, 3))
        s = fit_standardizer(x)
        z = apply_standardizer(s, x.mean(axis=0))
        assert np.max(np.abs(z)) < 1e-9

    def test_imputes_with_train_median(self):
        x = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, np.nan], [4.0, 40.0]])
        s = fit_standardizer(x)
        assert s.medians[1] == 20.0
        row = apply_standardizer(s, np.array([np.nan, np.nan]))
        expect = apply_standardizer(s, np.array([2.5, 20.0]))
        assert np.allclose(row, expect)


class TestMetrics:
    def test_reference_row_fixtures(self):
        # frozen confusion matrices whose metric quadruples were computed
        # independently by hand
        m = compute_metrics({"tp": 17, "tn": 13, "fp": 0, "fn": 1})
        assert (round(m["accuracy"], 2), round(m["precision"], 2),
                round(m["recall"], 2), round(m["f1"], 2)) == \
            (96.77, 100.0, 94.44, 97.14)
        m = compute_metrics({"tp": 18, "tn": 1, "fp": 12, "fn": 0})
        assert (round(m["accuracy"], 2), round(m["precision"], 2),
                round(m["recall"], 2), round(m["f1"], 2)) == \
            (61.29, 60.0, 100.0, 75.0)

    def test_perfect_single_class(self):
        m = compute_metrics({"tp": 5, "tn": 0, "fp": 0, "fn": 0})
        assert (m["accuracy"], m["precision"], m["recall"], m["f1"]) == \
            (100.0, 100.0, 100.0, 100.0)
        assert m["degenerate"] == []

    def test_degenerate_flags(self):
        m = compute_metrics({"tp": 0, "tn": 5, "fp": 0, "fn": 0})
        assert m["precision"] == 0.0 and m["recall"] == 0.0 \
            and m["f1"] == 0.0
        assert set(m["degenerate"]) == {"precision", "recall", "f1"}

    def test_empty_confusion(self):
        with pytest.raises(EmptyConfusion):
            compute_metrics({"tp": 0, "tn": 0, "fp": 0, "fn": 0})

    def test_metrics_recompute_from_confusion(self):
        rows = toy_rows()
        matrix = assemble_matrix(rows, "all")
        report = loocv_grid_search(matrix, ModelKind.KNN, [{"k": 1}, {"k": 3}],
                                   seed=0)
        again = compute_metrics(report["confusion"])
        assert again["accuracy"] == pytest.approx(
            report["metrics"]["accuracy"], abs=0.01)
        assert again["f1"] == pytest.approx(report["metrics"]["f1"], abs=0.01)


def manual_knn_loocv(values, labels, k):
    """Independent LOOCV oracle: per-fold imputation, scaling, brute kNN."""
    n = values.shape[0]
    preds = []
    for fold in range(n):
        mask = np.ones(n, dtype=bool)
        mask[fold] = False
        train = values[mask].copy()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", category=RuntimeWarning)
            medians = np.nanmedian(train, axis=0)
        medians = np.where(np.isnan(medians), 0.0, medians)
        train = np.where(np.isnan(train), medians[None, :], train)
        mu = train.mean(axis=0)
        sd = np.maximum(train.std(axis=0), 1e-9)
        ztrain = (train - mu) / sd
        row = values[fold].copy()
        row = np.where(np.isnan(row), medians, row)
        zrow = (row - mu) / sd
        dist = np.sum((ztrain - zrow) ** 2, axis=1)
        order = np.argsort(dist, kind="stable")[:k]
        votes = labels[mask][order]
        preds.append(int(np.sum(votes == 1) > np.sum(votes == 0)))
    return np.asarray(preds)


class TestLoocv:
    def test_singleton_grid_equals_plain_loocv(self):
        matrix = assemble_matrix(toy_rows(), "all")
        report = loocv_grid_search(matrix, ModelKind.KNN, [{"k": 3}], seed=0)
        manual = manual_knn_loocv(matrix.values, matrix.labels, 3)
        got = np.array([f["predicted"] for f in report["per_fold"]])
        assert np.array_equal(got, manual)
        assert report["grid_search"]["n_points"] == 1

    def test_every_subject_predicted_once(self):
        matrix = assemble_matrix(toy_rows(n0=4, n1=5), "all")
        report = loocv_grid_search(matrix, ModelKind.DECISION_TREE,
                                   [{"max_depth": 2}], seed=0)
        subjects = [f["subject_id"] for f in report["per_fold"]]
        assert subjects == list(matrix.subject_ids)
        assert sum(report["confusion"].values()) == 9

    def test_fold_hygiene_with_extreme_outlier(self):
        # the held-out row must not contaminate that fold's training
        # statistics: predictions must match a leakage-free manual oracle
        # even when the held-out row is absurd
        rng = np.random.default_rng(3)
        values = np.vstack([rng.normal(0, 1, (5, 3)),
                            rng.normal(4, 1, (6, 3))])
        values[7] = [1e9, -1e9, 1e9]
        labels = np.array([0] * 5 + [1] * 6)
        matrix = matrix_from_arrays(values, labels)
        report = loocv_grid_search(matrix, ModelKind.KNN, [{"k": 1}], seed=0)
        manual = manual_knn_loocv(values, labels, 1)
        assert np.array_equal([f["predicted"] for f in report["per_fold"]],
                              manual)

    def test_determinism(self):
        matrix = assemble_matrix(toy_rows(seed=9), "all")
        grid = [{"n_estimators": 10, "max_depth": 3},
                {"n_estimators": 20, "max_depth": None}]
        a = loocv_grid_search(matrix, ModelKind.RANDOM_FOREST, grid, seed=4)
        b = loocv_grid_search(matrix, ModelKind.RANDOM_FOREST, grid, seed=4)
        assert a == b

    def test_permutation_invariance_knn_dt(self):
        rows = toy_rows(n0=5, n1=6, seed=12)
        perm_rows = [rows[i] for i in
                     np.random.default_rng(0).permutation(len(rows))]
        for kind, grid in ((ModelKind.KNN, [{"k": 3}]),
                           (ModelKind.DECISION_TREE, [{"max_depth": 3}])):
            a = loocv_grid_search(assemble_matrix(rows, "all"), kind, grid,
                                  seed=0)
            b = loocv_grid_search(assemble_matrix(perm_rows, "all"), kind,
                                  grid, seed=0)
            assert a["metrics"] == b["metrics"]
            assert a["confusion"] == b["confusion"]

    def test_grid_selects_best_accuracy_first_on_ties(self):
        matrix = assemble_matrix(toy_rows(seed=5), "all")
        grid = [{"k": 1}, {"k": 3}, {"k": 5}]
        report = loocv_grid_search(matrix, ModelKind.KNN, grid, seed=0)
        accs = []
        for hp in grid:
            single = loocv_grid_search(matrix, ModelKind.KNN, [hp], seed=0)
            accs.append(single["metrics"]["accuracy"])
        best = max(accs)
        assert report["metrics"]["accuracy"] == best
        assert report["model"]["hyperparameters"] == grid[accs.index(best)]

    def test_positive_class_configurable(self):
        matrix = assemble_matrix(toy_rows(), "all")
        rep1 = loocv_grid_search(matrix, ModelKind.KNN, [{"k": 1}], seed=0,
                                 positive_class=Label.BIPOLAR)
        rep0 = loocv_grid_search(matrix, ModelKind.KNN, [{"k": 1}], seed=0,
                                 positive_class=Label.UNIPOLAR)
        assert rep1["confusion"]["tp"] == rep0["confusion"]["tn"]
        assert rep1["confusion"]["fp"] == rep0["confusion"]["fn"]

    def test_too_few_subjects(self):
        matrix = matrix_from_arrays(np.zeros((2, 2)), [0, 1])
        with pytest.raises(ClassUnderpopulated):
            loocv_grid_search(matrix, ModelKind.KNN, [{"k": 1}], seed=0)

    def test_report_json_shape(self):
        matrix = assemble_matrix(toy_rows(), "all")
        data = loocv_grid_search(matrix, ModelKind.KNN, [{"k": 1}], seed=0,
                                 selector="all")
        assert data["grid_search"]["optimistic_bias"] is True
        assert data["model"]["kind"] == "knn"
        assert len(data["per_fold"]) == 11
        total = sum(data["confusion"].values())
        assert total == 11


def oracle_loocv_predictions(matrix, spec, seed, grid_index):
    """Per-fold LOOCV that refits the fold standardiser for every grid
    point and trains one model per fold, as before fold stacking."""
    n = matrix.values.shape[0]
    preds = np.empty(n, dtype=int)
    for fold in range(n):
        mask = np.ones(n, dtype=bool)
        mask[fold] = False
        x_train = matrix.values[mask]
        y_train = matrix.labels[mask]
        std = fit_standardizer(x_train)
        model = train(spec, apply_standardizer(std, x_train)[None],
                      y_train[None], seed=[_fold_seed(seed, grid_index, fold)])
        x_test = apply_standardizer(std, matrix.values[fold:fold + 1])
        preds[fold] = predict(model, x_test[None])[0]
    return preds


def oracle_grid_search(matrix, kind, grid, seed):
    best, points = None, []
    for gi, hp in enumerate(grid):
        preds = oracle_loocv_predictions(matrix, ModelSpec(kind, hp), seed,
                                         gi)
        accuracy = float(np.mean(preds == matrix.labels))
        points.append((hp, 100.0 * int(np.sum(preds == matrix.labels))
                       / len(preds)))
        if best is None or accuracy > best[0] + 1e-12:
            best = (accuracy, gi, preds)
    _, gi, preds = best
    labels = matrix.labels
    confusion = {"tp": int(np.sum((preds == 1) & (labels == 1))),
                 "tn": int(np.sum((preds == 0) & (labels == 0))),
                 "fp": int(np.sum((preds == 1) & (labels == 0))),
                 "fn": int(np.sum((preds == 0) & (labels == 1)))}
    return {
        "model": {"kind": kind.value,
                  "display_name": mlbench.MODEL_DISPLAY_NAMES[kind],
                  "hyperparameters": grid[gi]},
        "confusion": confusion,
        "metrics": compute_metrics(confusion),
        "per_fold": [{"subject_id": sid, "true": int(t), "predicted": int(p)}
                     for sid, t, p in zip(matrix.subject_ids, labels, preds)],
        "selector": "all", "positive_class": 1, "seed": seed,
        "grid_search": {
            "n_points": len(grid),
            "selection": "pooled LOOCV accuracy, first best on ties",
            "optimistic_bias": True,
            "points": [{"hyperparameters": hp, "accuracy": accuracy}
                       for hp, accuracy in points]}}


TWO_POINT_GRIDS = {
    ModelKind.KNN: [{"k": 1}, {"k": 3}],
    ModelKind.DECISION_TREE: [{"max_depth": 1}, {"max_depth": None}],
    ModelKind.RANDOM_FOREST: [{"n_estimators": 5, "max_depth": 2},
                              {"n_estimators": 5, "max_depth": None}],
    ModelKind.GRADIENT_BOOSTING: [
        {"n_estimators": 5, "learning_rate": 0.1},
        {"n_estimators": 10, "learning_rate": 0.5}],
    ModelKind.SVM: [{"kernel": "linear", "c": 0.1},
                    {"kernel": "rbf", "c": 1.0, "gamma": 0.5}],
    ModelKind.MLP: [{"hidden": 4, "epochs": 40},
                    {"hidden": 8, "epochs": 60, "learning_rate": 0.1}],
}


# three C-paths: linear, rbf at gamma 0.5 and rbf at gamma 0.1, with
# unsorted and repeated C values
SHARED_KERNEL_SVM_GRID = [
    {"kernel": "linear", "c": 10.0},
    {"kernel": "rbf", "c": 1.0, "gamma": 0.5},
    {"kernel": "linear", "c": 0.1},
    {"kernel": "rbf", "c": 0.1, "gamma": 0.5},
    {"kernel": "rbf", "c": 1.0, "gamma": 0.1},
    {"kernel": "linear", "c": 10.0},
]

# points without c fit alone at SvmClassifier's default C; the linear
# points that set c share one C-path
DEFAULT_C_SVM_GRID = [
    {"kernel": "linear"},
    {"kernel": "linear", "c": 0.1},
    {"kernel": "rbf", "gamma": 0.5},
    {"kernel": "linear", "c": 1.0},
    {"kernel": "linear"},
]

# grids on each path axis, unsorted and repeated: k = 40 is past every
# training row, and the GB point without n_estimators fits alone at 100
PATH_GRIDS = {
    ModelKind.KNN: [{"k": 5}, {"k": 1}, {"k": 5}, {"k": 40}],
    ModelKind.GRADIENT_BOOSTING: [
        {"n_estimators": 4, "learning_rate": 0.5},
        {"n_estimators": 1, "learning_rate": 0.1},
        {"learning_rate": 0.5, "max_depth": 1},
        {"n_estimators": 4, "learning_rate": 0.1},
        {"n_estimators": 2, "learning_rate": 0.5},
        {"n_estimators": 4, "learning_rate": 0.5}],
}

# (kind, grid, fits the search makes: per fold for kNN, else stacked); the
# two kNN points differ only in k
FIT_CASES = [(kind, TWO_POINT_GRIDS[kind], 1 if kind is ModelKind.KNN else 2)
             for kind in ModelKind] + [
    (ModelKind.SVM, SHARED_KERNEL_SVM_GRID, 3),
    (ModelKind.SVM, DEFAULT_C_SVM_GRID, 4),
    (ModelKind.KNN, PATH_GRIDS[ModelKind.KNN], 1),
    (ModelKind.GRADIENT_BOOSTING, PATH_GRIDS[ModelKind.GRADIENT_BOOSTING], 3)]


def outlier_matrix():
    rng = np.random.default_rng(3)
    values = np.vstack([rng.normal(0, 1, (5, 3)),
                        rng.normal(4, 1, (6, 3))])
    values[7] = [1e9, -1e9, 1e9]
    return matrix_from_arrays(values, [0] * 5 + [1] * 6)


def toy_matrix_with_gaps():
    matrix = assemble_matrix(toy_rows(seed=7, n_features=5), "all")
    values = matrix.values[:, :5].copy()
    values[[1, 4, 8], [0, 2, 0]] = np.nan
    return matrix_from_arrays(values, matrix.labels)


MATRICES = pytest.mark.parametrize("make", [
    lambda: assemble_matrix(toy_rows(), "all"),
    lambda: assemble_matrix(toy_rows(n0=6, n1=6, seed=4), "hrv_time"),
    toy_matrix_with_gaps,
    outlier_matrix,
], ids=["toy", "toy-narrow", "toy-gaps", "outlier"])


class TestFoldStack:
    @pytest.mark.parametrize("kind", list(ModelKind), ids=lambda k: k.value)
    @MATRICES
    def test_report_equals_per_grid_point_oracle(self, kind, make):
        matrix = make()
        grid = TWO_POINT_GRIDS[kind]
        report = loocv_grid_search(matrix, kind, grid, seed=5)
        assert report == oracle_grid_search(matrix, kind, grid, seed=5)

    @MATRICES
    def test_svm_c_paths_equal_per_grid_point_oracle(self, make):
        matrix = make()
        report = loocv_grid_search(matrix, ModelKind.SVM,
                                   SHARED_KERNEL_SVM_GRID, seed=5)
        assert report == oracle_grid_search(
            matrix, ModelKind.SVM, SHARED_KERNEL_SVM_GRID, seed=5)

    @MATRICES
    def test_svm_points_without_c_equal_per_grid_point_oracle(self, make):
        matrix = make()
        report = loocv_grid_search(matrix, ModelKind.SVM, DEFAULT_C_SVM_GRID,
                                   seed=5)
        assert report == oracle_grid_search(
            matrix, ModelKind.SVM, DEFAULT_C_SVM_GRID, seed=5)

    @MATRICES
    @pytest.mark.parametrize("kind", list(PATH_GRIDS), ids=lambda k: k.value)
    def test_path_grids_equal_per_grid_point_oracle(self, kind, make):
        matrix = make()
        report = loocv_grid_search(matrix, kind, PATH_GRIDS[kind], seed=5)
        assert report == oracle_grid_search(matrix, kind, PATH_GRIDS[kind],
                                            seed=5)

    @pytest.mark.parametrize("kind,grid,fits", FIT_CASES, ids=[
        kind.value for kind in ModelKind] + ["svm-shared-kernels",
                                             "svm-default-c", "knn-path",
                                             "gb-path"])
    def test_each_fold_standardised_once_per_search(self, kind, grid, fits,
                                                    monkeypatch):
        calls = {"fit_standardizer": 0, "train": 0, "predict": 0,
                 "_fold_seed": 0}

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(mlbench, name,
                                counting(name, getattr(mlbench, name)))
        matrix = assemble_matrix(toy_rows(), "all")
        loocv_grid_search(matrix, kind, grid, seed=0)
        n = matrix.values.shape[0]
        assert calls["fit_standardizer"] == n
        # points that differ only in their path axis share one fit, which
        # trains all folds in one stack, except kNN's, which trains per fold
        stacked = kind is not ModelKind.KNN
        assert calls["train"] == (fits if stacked else fits * n)
        # every fit's predictions go through predict, so traces time them
        assert calls["predict"] == calls["train"]
        # only RF and MLP read a fold seed, so only they derive one
        seeded = kind in (ModelKind.RANDOM_FOREST, ModelKind.MLP)
        assert calls["_fold_seed"] == (len(grid) * n if seeded else 0)

    def test_matrix_builds_its_folds_once(self, monkeypatch):
        calls = []
        original = mlbench.fit_standardizer
        monkeypatch.setattr(mlbench, "fit_standardizer",
                            lambda rows: calls.append(1) or original(rows))
        matrix = assemble_matrix(toy_rows(), "all")
        for kind in ModelKind:
            loocv_grid_search(matrix, kind, TWO_POINT_GRIDS[kind], seed=0)
        assert len(calls) == matrix.values.shape[0]
        assert matrix.folds is matrix.folds


class TestSelectionSurface:
    @pytest.mark.parametrize("kind", list(ModelKind), ids=lambda k: k.value)
    def test_every_point_in_grid_order_winner_matches_metrics(self, kind):
        matrix = assemble_matrix(toy_rows(seed=5), "all")
        grid = (SHARED_KERNEL_SVM_GRID if kind is ModelKind.SVM
                else TWO_POINT_GRIDS[kind])
        data = loocv_grid_search(matrix, kind, grid, seed=3)
        points = data["grid_search"]["points"]
        assert len(points) == data["grid_search"]["n_points"] == len(grid)
        assert [p["hyperparameters"] for p in points] == grid
        accuracies = [p["accuracy"] for p in points]
        winner = accuracies.index(max(accuracies))
        assert points[winner]["hyperparameters"] == \
            data["model"]["hyperparameters"]
        assert accuracies[winner] == data["metrics"]["accuracy"]
        if kind in SEEDED_KINDS:
            return  # a seeded point's fold seeds depend on its grid index
        for hp, accuracy in zip(grid, accuracies):
            single = loocv_grid_search(matrix, kind, [hp], seed=3)
            assert single["metrics"]["accuracy"] == accuracy

    @pytest.mark.parametrize("kind", list(ModelKind), ids=lambda k: k.value)
    def test_report_is_plain_json(self, kind):
        report = loocv_grid_search(assemble_matrix(toy_rows(), "all"), kind,
                                   TWO_POINT_GRIDS[kind], seed=3)
        assert json.loads(json.dumps(report)) == report

        def values(v):
            yield v
            children = v.values() if type(v) is dict \
                else v if type(v) is list else ()
            for child in children:
                yield from values(child)

        # exact types: a NumPy float64 is a float subclass, and a tuple
        # would come back from JSON as a list
        plain = (int, float, str, bool, list, dict, type(None))
        assert all(type(v) in plain for v in values(report))

    def test_seed11_linear_svm_c1_and_c10_tie(self):
        table = (Path(__file__).resolve().parents[1] / "perfbench"
                 / "reference" / "features-seed11.csv")
        matrix = assemble_matrix(pipeline.read_features_csv(table), "all")
        report = loocv_grid_search(matrix, ModelKind.SVM,
                                   mlbench.default_grids()[ModelKind.SVM],
                                   seed=11)
        linear = {p["hyperparameters"]["c"]: p["accuracy"]
                  for p in report["grid_search"]["points"]
                  if p["hyperparameters"]["kernel"] == "linear"}
        assert linear[1.0] == linear[10.0]


# SHA-256 of each default-grid report on the frozen table's ``temp``
# columns, as the CLI writes it, recorded before grid points shared fits
PAPER_GRID_REPORTS = {
    ModelKind.KNN:
        "50e56385571dc74bea2630f35bf85088c5b99c40c6aba1ada0c017ce2aab3872",
    ModelKind.DECISION_TREE:
        "47eb4ea7669c248a7d4b9e33145042af173236e123e66f04c05591ba6a4dfac6",
    ModelKind.RANDOM_FOREST:
        "e2e3f349d46c52e3fc0a301721de82c7858ceb995e537ba172d84df2332cebb0",
    ModelKind.GRADIENT_BOOSTING:
        "23549eedbf134ad9a8fb772aa0d4da1a779b250d7dd9a47106e0145b2cfa1cdc",
    ModelKind.SVM:
        "1b72c326f1d7f6bb3c33f4874436b24a1327915b3b692b68e884003d46b12f79",
    ModelKind.MLP:
        "005b7c5f673e77ed501296871535bf5847bc2f1b4ef202f940252b8c7c34d1ad",
}


class TestPaperGrids:
    @pytest.mark.parametrize("kind,fits", [
        (ModelKind.KNN, 31), (ModelKind.DECISION_TREE, 4),
        (ModelKind.RANDOM_FOREST, 4), (ModelKind.GRADIENT_BOOSTING, 2),
        (ModelKind.SVM, 4), (ModelKind.MLP, 6)],
        ids=lambda v: getattr(v, "value", v))
    def test_default_grid_report_bytes_and_fits(self, kind, fits,
                                                monkeypatch):
        table = (Path(__file__).resolve().parents[1] / "perfbench"
                 / "reference" / "features-seed11.csv")
        matrix = assemble_matrix(pipeline.read_features_csv(table), "temp")
        calls = []
        monkeypatch.setattr(mlbench, "train",
                            lambda *a, **k: calls.append(1) or train(*a, **k))
        report = loocv_grid_search(matrix, kind,
                                   mlbench.default_grids()[kind], seed=11,
                                   selector="temp")
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() \
            == PAPER_GRID_REPORTS[kind]
        # kNN: one fit per subject for its one k-path; DT, RF and MLP: one
        # fit per grid point; GB: one 200-stage fit per learning rate; SVM:
        # one C-path per kernel and gamma
        assert len(calls) == fits


class TestGrids:
    def test_default_grids_cover_all_kinds(self):
        grids = mlbench.default_grids()
        assert set(grids) == set(ModelKind)
        assert [g["k"] for g in grids[ModelKind.KNN]] == [1, 3, 5, 7]
        assert len(grids[ModelKind.SVM]) == 12

    def test_expand_grid_order(self):
        grid = mlbench.expand_grid({"a": [1, 2], "b": ["x", "y"]})
        assert grid == [{"a": 1, "b": "x"}, {"a": 1, "b": "y"},
                        {"a": 2, "b": "x"}, {"a": 2, "b": "y"}]

    def test_markdown_table(self):
        matrix = assemble_matrix(toy_rows(), "all")
        report = loocv_grid_search(matrix, ModelKind.GRADIENT_BOOSTING,
                                   [{"n_estimators": 10}], seed=0)
        table = mlbench.render_markdown_table([report])
        assert table.splitlines()[0] == \
            "| Method | Accuracy | Precision | Recall | F1 Score |"
        assert "GB (stands in for XGB)" in table


class TestArgumentRanges:
    def test_negative_seed_raises(self):
        # kNN ran and wrote "seed": -1 into the report
        with pytest.raises(ValueError, match="^seed must be an integer >= 0"):
            loocv_grid_search(assemble_matrix(toy_rows(), "all"),
                              ModelKind.KNN, [{"k": 1}], seed=-1)

    def test_negative_confusion_count_raises(self):
        # it gave an accuracy of 100.0
        with pytest.raises(ValueError, match="^tp must be an integer >= 0"):
            compute_metrics({"tp": -1, "tn": 5, "fp": 0, "fn": 0})

    @pytest.fixture(scope="class")
    def temp_matrix(self):
        table = (Path(__file__).resolve().parents[1] / "perfbench"
                 / "reference" / "features-seed11.csv")
        return assemble_matrix(pipeline.read_features_csv(table), "temp")

    def test_label_positive_class_scores_the_grid_point(self, temp_matrix):
        # Label.BIPOLAR matched no subject, so all 31 counted as true
        # negatives: accuracy 100.0 against the point's 25.81
        report = loocv_grid_search(temp_matrix, ModelKind.KNN, [{"k": 3}],
                                   seed=11, positive_class=Label.BIPOLAR,
                                   selector="temp")
        assert report["metrics"]["accuracy"] \
            == report["grid_search"]["points"][0]["accuracy"]
        assert round(report["metrics"]["accuracy"], 2) == 25.81
        assert json.loads(json.dumps(report))["positive_class"] == 1

    @pytest.mark.parametrize("value", [2, -1, 1, "bipolar"])
    def test_positive_class_other_than_a_label_raises(self, temp_matrix,
                                                      value):
        # 2 and -1 also scored 100.0
        with pytest.raises(ValueError, match="^positive_class must be"):
            loocv_grid_search(temp_matrix, ModelKind.KNN, [{"k": 3}],
                              positive_class=value)
