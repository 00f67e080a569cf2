#!/usr/bin/env python3
"""End-to-end benchmark run on a synthetic cohort.

Generates a labeled cohort, extracts the 59-column feature table, then runs
the LOOCV grid-search benchmark for every feature group and prints the six
results tables (one per group, one for all features combined).

Example:

    python scripts/run_benchmark.py --workdir /tmp/bench --seed 11 \
        --offset-acc-freq 2.0 --models knn,dt,svm
"""
import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from wearbench import mlbench, pipeline, synth  # noqa: E402
from wearbench.models import MODEL_KINDS_BY_NAME  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default="bench_run",
                        help="directory for sessions and outputs")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--n-unipolar", type=int, default=13)
    parser.add_argument("--n-bipolar", type=int, default=18)
    parser.add_argument("--duration", type=float, default=120.0)
    parser.add_argument("--offset-acc-freq", type=float, default=0.0,
                        help="class offset on the ACC dominant frequency")
    parser.add_argument("--offset-temp-trend", type=float, default=0.0)
    parser.add_argument("--models", default="knn,dt,rf,gb,svm,mlp")
    args = parser.parse_args()

    work = Path(args.workdir)
    cohort = synth.CohortSpec(
        n_unipolar=args.n_unipolar, n_bipolar=args.n_bipolar, seed=args.seed,
        duration_s=args.duration,
        offsets=synth.CohortOffsets(
            acc_dominant_freq_hz=args.offset_acc_freq,
            temp_trend_c_per_s=args.offset_temp_trend))

    t0 = time.perf_counter()
    manifest = synth.generate_cohort(work / "data", cohort)
    print(f"cohort -> {manifest.parent} [{time.perf_counter() - t0:.1f}s]")

    t0 = time.perf_counter()
    features_path, _, n_ok = pipeline.run_extract(
        work / "data", manifest, work / "out")
    print(f"{n_ok} subjects extracted -> {features_path} "
          f"[{time.perf_counter() - t0:.1f}s]")

    rows = pipeline.read_features_csv(features_path)
    kinds = [MODEL_KINDS_BY_NAME[m.strip()] for m in args.models.split(",")]
    grids = mlbench.default_grids()

    for selector in ("hrv_time", "hrv_freq", "eda", "acc", "temp", "all"):
        matrix = mlbench.assemble_matrix(rows, selector)
        reports = []
        for kind in kinds:
            t0 = time.perf_counter()
            report = mlbench.loocv_grid_search(
                matrix, kind, grids[kind], seed=args.seed, selector=selector)
            reports.append(report.to_json_dict())
            print(f"  {selector}/{kind.value}: "
                  f"acc={report.metrics.accuracy:.2f} "
                  f"hp={report.model.hyperparameters} "
                  f"[{time.perf_counter() - t0:.1f}s]")
        print(f"\n### {selector}\n")
        print(mlbench.render_markdown_table(reports))
    return 0


if __name__ == "__main__":
    sys.exit(main())
