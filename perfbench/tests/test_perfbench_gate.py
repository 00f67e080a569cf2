import copy

from perfbench import gate
from perfbench.workloads import REFERENCE_DIR, Reference, Run

TABLE = (REFERENCE_DIR / "features-seed11.csv").read_text(encoding="utf-8")


def _replace_cell(text, row, col, value):
    lines = text.splitlines()
    cells = lines[row].split(",")
    old = cells[col]
    cells[col] = value
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n", old


def test_reference_table_matches_itself():
    assert gate.compare_features(TABLE, TABLE) == []


def test_one_perturbed_value_is_flagged():
    old = TABLE.splitlines()[5].split(",")[7]
    bumped, _ = _replace_cell(TABLE, 5, 7, repr(float(old) * (1 + 1e-6)))
    problems = gate.compare_features(bumped, TABLE)
    assert len(problems) == 1 and "S005" in problems[0]


def test_rounding_moves_pass():
    old = TABLE.splitlines()[5].split(",")[7]
    nudged, _ = _replace_cell(TABLE, 5, 7, repr(float(old) * (1 + 1e-12)))
    assert gate.compare_features(nudged, TABLE) == []


def test_nan_position_change_is_flagged():
    blanked, _ = _replace_cell(TABLE, 3, 2, "")
    problems = gate.compare_features(blanked, TABLE)
    assert len(problems) == 1 and "NaN position" in problems[0]


def _report():
    folds = [{"subject_id": f"S{i:03d}", "true": i % 2, "predicted": i % 2}
             for i in range(1, 7)]
    return {"model": {"kind": "knn", "hyperparameters": {"k": 5}},
            "confusion": {"tp": 3, "tn": 3, "fp": 0, "fn": 0},
            "metrics": {"accuracy": 100.0, "precision": 100.0,
                        "recall": 100.0, "f1": 100.0, "degenerate": []},
            "per_fold": folds}


def test_flipped_prediction_is_flagged(tmp_path):
    recorder = Reference(tmp_path, recording=True)
    recorder.expect("w/seed1/knn", gate.report_summary(_report()))
    recorder.save()
    reference = Reference(tmp_path)
    assert reference.expect("w/seed1/knn",
                            gate.report_summary(_report())) == []
    flipped = copy.deepcopy(_report())
    flipped["per_fold"][2]["predicted"] ^= 1
    problems = reference.expect("w/seed1/knn", gate.report_summary(flipped))
    assert problems == ["w/seed1/knn: predicted differs from the reference"]
    assert reference.expect("w/seed2/knn", gate.report_summary(_report())) \
        == ["w/seed2/knn: no reference recorded"]


def test_failed_cli_call_counts_as_failed_operation():
    from wearbench import cli
    run = Run(cli)
    run.call("extract")  # no data root: exit 2
    run.call("--print-config")
    assert (run.attempted, run.failed) == (2, 1)
    assert "exited 2" in run.problems[0]
