"""The workloads, driven through ``wearbench.cli.main`` in-process.

A workload stages its inputs in ``setup`` (timed as set-up, repeated) and
runs one pass of timed CLI calls in ``run_pass``. Every CLI call is one
operation: it fails when it exits non-zero, raises, or its outputs differ
from the references in ``reference/``. Only the CLI calls themselves are
inside the pass clock; the checks are not.

``--seed`` picks one of ``SLOTS`` recorded input sets (``seed % SLOTS``),
so that every seed has references to be checked against:

* extract-300s: the 31 x 300 s cohort of seed 11 + slot;
* loocv-all: the frozen seed-11 table, bench seed 11 + slot.
"""
from __future__ import annotations

import io
import json
import resource
import shutil
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from perfbench import gate
from perfbench.tracing import MODEL_KINDS

SLOTS = 5
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# loocv-all: default grids for knn, dt, svm and mlp; one small point each
# for the two ensembles so that a pass fits in one run (see README.md)
LOOCV_GRIDS = {
    "rf": [{"n_estimators": 10, "max_depth": None}],
    "gb": [{"n_estimators": 10, "learning_rate": 0.1}],
}


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class Stopwatch:
    """Wall and CPU seconds summed over the blocks run inside it."""

    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0

    def __enter__(self):
        self._wall0 = time.perf_counter()
        self._cpu0 = _cpu_seconds()
        return self

    def __exit__(self, *exc):
        self.wall += time.perf_counter() - self._wall0
        self.cpu += _cpu_seconds() - self._cpu0
        return False


class Reference:
    """Recorded outputs under flat keys such as ``loocv-all/seed11/knn``.

    In recording mode ``expect`` stores the value instead of comparing.
    """

    def __init__(self, directory: Path = REFERENCE_DIR, recording=False):
        self.directory = directory
        self.recording = recording
        path = directory / "reference.json"
        self.data = {} if recording else json.loads(
            path.read_text(encoding="utf-8"))

    def expect(self, key: str, value) -> list[str]:
        if self.recording:
            self.data[key] = value
            return []
        if key not in self.data:
            return [f"{key}: no reference recorded"]
        want = self.data[key]
        if isinstance(want, dict) and isinstance(value, dict):
            return [f"{key}: {k} differs from the reference"
                    for k in sorted(want) if value.get(k) != want[k]]
        return [] if value == want else [f"{key}: differs from the reference"]

    def features_path(self, cohort_seed: int) -> Path:
        return self.directory / f"features-seed{cohort_seed}.csv"

    def expect_features(self, cohort_seed: int, text: str) -> list[str]:
        path = self.features_path(cohort_seed)
        if self.recording:
            path.write_text(text, encoding="utf-8")
            return []
        return gate.compare_features(text, path.read_text(encoding="utf-8"))

    def save(self) -> None:
        (self.directory / "reference.json").write_text(
            json.dumps(self.data, indent=1, sort_keys=True) + "\n",
            encoding="utf-8")


class Run:
    """Operation counts, problems and the clock shared by set-up and passes.

    ``tracer`` is set only during a traced pass; each CLI call is then a
    top-level ``cli.main`` span.
    """

    def __init__(self, cli):
        self.cli = cli
        self.clock = Stopwatch()
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def call(self, *argv, check=None) -> None:
        argv = [str(a) for a in argv]
        self.attempted += 1
        err = io.StringIO()
        try:
            with self.clock, redirect_stdout(io.StringIO()), \
                    redirect_stderr(err):
                if self.tracer is None:
                    code = self.cli.main(argv)
                else:
                    with self.tracer.span("cli.main"):
                        code = self.cli.main(argv)
        except Exception as exc:  # a traceback is a failed operation
            code, err = 1, io.StringIO(f"{type(exc).__name__}: {exc}")
        if code != 0:
            problems = [f"wearbench {' '.join(argv)} exited {code}: "
                        f"{err.getvalue().strip()[-400:]}"]
        elif check is None:
            problems = []
        else:
            try:
                problems = check()
            except (OSError, KeyError, ValueError) as exc:
                problems = [f"wearbench {' '.join(argv)}: unreadable output "
                            f"({type(exc).__name__}: {exc})"]
        if problems:
            self.failed += 1
            self.problems.extend(problems)


class Workload:
    name = ""
    why = ""
    setup_repeats = 1

    def __init__(self, reference: Reference, work: Path, seed: int):
        self.ref = reference
        self.work = work
        self.slot = seed % SLOTS

    def setup(self, run: Run, rep: int) -> None:
        raise NotImplementedError

    def run_pass(self, run: Run) -> None:
        raise NotImplementedError


class Extract300s(Workload):
    name = "extract-300s"
    why = ("signal chain: CSV parse, detrend, filtfilt, peaks and feature "
           "families over 31 x 300 s sessions, no model work; set-up times "
           "synth and CSV writing")
    setup_repeats = 3

    def __init__(self, reference, work, seed):
        super().__init__(reference, work, seed)
        self.cohort_seed = 11 + self.slot
        self.key = f"{self.name}/seed{self.cohort_seed}"
        self.out = work / "out"

    def setup(self, run, rep):
        # a fresh directory per repeat, so no deletion is timed as set-up
        self.cohort = self.work / f"cohort{rep}"
        run.call("--out", self.cohort, "--seed", self.cohort_seed, "synth",
                 "--duration", "300",
                 check=lambda: self.ref.expect(
                     f"{self.key}/cohort_sha256", gate.sha256_tree(self.cohort)))

    def run_pass(self, run):
        shutil.rmtree(self.out, ignore_errors=True)
        run.call("--data-root", self.cohort,
                 "--manifest", self.cohort / "manifest.csv",
                 "--out", self.out, "extract", check=self._check)

    def _check(self):
        return self.ref.expect(
            f"{self.key}/validation_sha256",
            gate.sha256_file(self.out / "validation.json")) \
            + self.ref.expect_features(
                self.cohort_seed,
                (self.out / "features.csv").read_text(encoding="utf-8"))


class LoocvAll(Workload):
    name = "loocv-all"
    why = ("models only: six-model LOOCV grid search on the frozen seed-11 "
           "table, so a signal-chain change cannot move it")
    setup_repeats = 5
    table_seed = 11

    def __init__(self, reference, work, seed):
        super().__init__(reference, work, seed)
        self.bench_seed = 11 + self.slot
        self.out = work / "out"
        self.config = work / "loocv.json"

    def setup(self, run, rep):
        self.out.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(self.ref.features_path(self.table_seed),
                        self.out / "features.csv")
        self.config.write_text(json.dumps({"bench": {"grids": LOOCV_GRIDS}}),
                               encoding="utf-8")

    def run_pass(self, run):
        run.call("--config", self.config, "--out", self.out,
                 "--seed", self.bench_seed, "bench", "--features", "all",
                 check=self._check)

    def _check(self):
        problems = []
        for kind in MODEL_KINDS:
            report = gate.load_report(self.out / f"bench_all_{kind}.json")
            problems += self.ref.expect(
                f"{self.name}/seed{self.bench_seed}/{kind}",
                gate.report_summary(report))
        return problems


WORKLOADS = {w.name: w for w in (Extract300s, LoocvAll)}
