"""Output-correctness gate: compare a run's outputs with the references
recorded from the program at the commit that defined the benchmark.

Every check returns a list of problems; an empty list means the output
matches. Feature values are compared with a relative tolerance, because
re-ordered floating-point arithmetic may move them by about 1e-12; every
other output must match exactly.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

# |a - b| <= FEATURE_RTOL * (max(|a|, |b|) + max |column|): four orders of
# magnitude above rounding moves, far below any change a wrong feature makes.
FEATURE_RTOL = 1e-8


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def sha256_tree(root, pattern: str = "*") -> str:
    """Digest of the files under ``root`` matching ``pattern``: relative
    path and bytes, in sorted path order."""
    root = Path(root)
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob(pattern) if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def _parse_features(text: str):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


def compare_features(text: str, reference: str,
                     rtol: float = FEATURE_RTOL) -> list[str]:
    """Same columns, subjects, labels and NaN positions; values within
    ``rtol``, scaled by the larger of the two values plus the column's
    largest reference magnitude so that near-zero cells are not judged by
    their own tiny size."""
    header, rows = _parse_features(text)
    ref_header, ref_rows = _parse_features(reference)
    if header != ref_header:
        return ["features.csv header differs from the reference"]
    if len(rows) != len(ref_rows):
        return [f"features.csv has {len(rows)} subjects, "
                f"reference {len(ref_rows)}"]
    problems = []
    for row, ref in zip(rows, ref_rows):
        if len(row) != len(ref) or (row[0], row[-1]) != (ref[0], ref[-1]):
            problems.append(f"row {ref[0]}: subject, label or width differs")
    if problems:
        return problems
    for j in range(1, len(header) - 1):
        scale = max((abs(float(r[j])) for r in ref_rows if r[j] != ""),
                    default=0.0)
        for row, ref in zip(rows, ref_rows):
            got, want = row[j], ref[j]
            where = f"{ref[0]}/{header[j]}"
            if (got == "") != (want == ""):
                problems.append(f"{where}: NaN position differs "
                                f"({got or 'NaN'} vs {want or 'NaN'})")
                continue
            if got == "":
                continue
            a, b = float(got), float(want)
            if not math.isfinite(a) or \
                    abs(a - b) > rtol * (max(abs(a), abs(b)) + scale):
                problems.append(f"{where}: {got} vs reference {want}")
    return problems


def report_summary(report: dict) -> dict:
    """The fields of a bench report the gate compares exactly, with the
    per-fold predictions packed into strings."""
    folds = report["per_fold"]
    return {
        "hyperparameters": report["model"]["hyperparameters"],
        "confusion": report["confusion"],
        "metrics": report["metrics"],
        "subjects": ",".join(f["subject_id"] for f in folds),
        "true": "".join(str(f["true"]) for f in folds),
        "predicted": "".join(str(f["predicted"]) for f in folds),
    }


def load_report(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))
