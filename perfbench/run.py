#!/usr/bin/env python3
"""wearbench performance benchmark.

Run one workload (the last line of stdout is the JSON result)::

    python3 perfbench/run.py --workload extract-300s --seed 0 --seconds 45 --trace 0

Run every workload, each in its own process, one at a time, and print a
summary table::

    python3 perfbench/run.py

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reports its per-layer metrics from alternating untraced passes
and traced rounds (one set-up repeat and one pass), and prints the
self-time table. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import gate, tracing  # noqa: E402
from perfbench.workloads import WORKLOADS, Reference, Run, Stopwatch  # noqa: E402

STATE_DIR = ROOT / ".perfbench"


class SetupError(Exception):
    pass


def import_program():
    """Import ``wearbench.cli`` from this checkout's ``src``; return the
    module and the seconds the import took (NumPy included)."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    try:
        from wearbench import cli
    except ImportError as exc:
        raise SetupError(f"cannot import wearbench from {src}: {exc}") from None
    seconds = time.perf_counter() - start
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SetupError(f"wearbench was imported from {cli.__file__}, "
                         f"not from {src}")
    return cli, seconds


def load_spec() -> dict:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot read BENCHMARK.json: {exc}") from None
    names = {w["name"] for w in spec["workloads"]}
    if names != set(WORKLOADS):
        raise SetupError(f"BENCHMARK.json workloads {sorted(names)} differ "
                         f"from {sorted(WORKLOADS)}")
    return spec


# --- environment block --------------------------------------------------------------


def _blas_threads():
    """Threads in NumPy's bundled OpenBLAS pool, or None if not found."""
    import ctypes
    import numpy
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("lib*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def _git_sha():
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text(encoding="utf-8").strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def speed_probe() -> float:
    """Median seconds of a fixed pure-Python loop. It reads high while the
    host is slow, for example under a busy neighbour on a shared machine,
    which the load average inside a virtual machine does not show."""
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def environment() -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "src_sha256": gate.sha256_tree(ROOT / "src", "*.py"),
    }


# --- measuring ----------------------------------------------------------------------


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _describe(values) -> dict:
    q1, q3 = _quartiles(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "samples": values}


def _timed_pass(workload, run: Run):
    run.clock = Stopwatch()
    workload.run_pass(run)
    return run.clock.wall, run.clock.cpu


def _traced_round(workload, run: Run, index: int):
    """One set-up repeat and one pass under one tracer, so that the layers
    only set-up runs (synth, CSV writing) are traced too. Returns the tracer,
    the wall time of the CLI calls in both, and the pass's wall time."""
    tracer = tracing.Tracer(f"{workload.name}-slot{workload.slot}-round{index}")
    with tracing.instrumented(tracer):
        run.tracer = tracer
        try:
            run.clock = Stopwatch()
            workload.setup(run, workload.setup_repeats + index)
            setup_wall = run.clock.wall
            wall, _ = _timed_pass(workload, run)
        finally:
            run.tracer = None
    return tracer, setup_wall + wall, wall


def measure(workload, run: Run, seconds: float, trace: bool) -> dict:
    """Rounds of one untraced pass (plus one traced set-up and pass when
    tracing) while the next round is expected to end within ``seconds``: at
    least one round, and no further round after a failed operation."""
    walls, cpus, traced_walls, layers, tracers = [], [], [], [], []
    start = time.perf_counter()
    while True:
        order = (False, True) if trace else (False,)
        if len(walls) % 2:  # alternate, so that drift charges neither side
            order = order[::-1]
        for traced in order:
            if traced:
                tracer, covered, wall = _traced_round(workload, run,
                                                      len(tracers))
                traced_walls.append(wall)
                layers.append(tracing.layer_metrics(tracer, covered))
                tracers.append(tracer)
            else:
                wall, cpu = _timed_pass(workload, run)
                walls.append(wall)
                cpus.append(cpu)
        elapsed = time.perf_counter() - start
        if run.failed or elapsed * (1 + 1 / len(walls)) > seconds:
            break
    return {"walls": walls, "cpus": cpus, "traced_walls": traced_walls,
            "layers": layers, "tracers": tracers}


def print_span_table(tracer: tracing.Tracer) -> None:
    table = tracing.span_table(tracer.spans)
    print(f"{'span':<44} {'calls':>7} {'total s':>9} {'self s':>9}")
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{name:<44} {row['calls']:>7} {row['total_s']:>9.4f} "
              f"{row['self_s']:>9.4f}")


def write_spans(path: Path, tracers) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for tracer in tracers:
            for i, s in enumerate(tracer.spans):
                fh.write(json.dumps({"run_id": s.run_id, "id": i,
                                     "parent": s.parent, "name": s.name,
                                     "start": s.start, "end": s.end}) + "\n")


def run_workload(args) -> int:
    cli, import_s = import_program()
    spec = load_spec()
    env = environment()
    env["loadavg_1m_start"] = os.getloadavg()[0]
    env["speed_probe_s_start"] = speed_probe()
    work = STATE_DIR / "work" / f"{args.workload}-{os.getpid()}"
    try:
        workload = WORKLOADS[args.workload](Reference(), work, args.seed)
        run = Run(cli)
        setups = []
        for rep in range(workload.setup_repeats):
            start = time.perf_counter()
            workload.setup(run, rep)
            setups.append(time.perf_counter() - start)
        result = measure(workload, run, args.seconds, args.trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_1m_end"] = os.getloadavg()[0]
    env["speed_probe_s_end"] = speed_probe()

    unit = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    e2e = {
        "setup_s": import_s + statistics.median(setups),
        "wall_s": statistics.median(result["walls"]),
        "cpu_s": statistics.median(result["cpus"]),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    failed_share = run.failed / max(run.attempted, 1)
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        reported = tracing.median_metrics(
            [tracing.select(m, names) for m in result["layers"]])
        reported["trace.overhead_s"] = (
            statistics.median(result["traced_walls"]) - e2e["wall_s"])
    else:
        reported = {m["name"]: e2e[m["name"]] for m in spec["end_to_end"]}

    STATE_DIR.joinpath("results").mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{int(args.trace)}"
    details = {
        "workload": args.workload, "seed": args.seed, "slot": workload.slot,
        "seconds": args.seconds, "environment": env,
        "import_s": import_s, "setup_samples_s": setups,
        "wall_s": _describe(result["walls"]),
        "cpu_s": _describe(result["cpus"]),
        "traced_wall_s": result["traced_walls"],
        "metrics": reported, "attempted": run.attempted,
        "failed": run.failed, "failed_share": failed_share,
        "problems": run.problems,
    }
    STATE_DIR.joinpath("results", stem + ".json").write_text(
        json.dumps(details, indent=1) + "\n", encoding="utf-8")
    if result["tracers"]:
        write_spans(STATE_DIR / "results" / (stem + ".spans.jsonl"),
                    result["tracers"])
        print(f"## {args.workload}: self time of the last traced round")
        print_span_table(result["tracers"][-1])

    print("environment: " + json.dumps(env, sort_keys=True))
    wall = details["wall_s"]
    print(f"passes: {wall['n']}  wall_s median {wall['median']:.4f} "
          f"q1 {wall['q1']:.4f} q3 {wall['q3']:.4f}")
    for name, value in reported.items():
        print(f"{args.workload:<13} {name:<48} {value:>14.6g} {unit[name]}")
    print(f"{args.workload:<13} {'failed_share':<48} {failed_share:>14.6g} "
          f"ratio ({run.failed}/{run.attempted})")
    for problem in run.problems[:20]:
        print(f"FAILED: {problem}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit[name]}
                    for name, value in reported.items()},
    }))
    return 0 if run.failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    rows, status = [], 0
    for w in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", w["name"], "--seed", str(args.seed),
               "--seconds", str(seconds), "--trace", str(int(args.trace))]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            rows.append((w["name"], "error", f"exit {proc.returncode}", ""))
            continue
        result = json.loads(lines[-1])
        for name, m in result["metrics"].items():
            rows.append((w["name"], name, f"{m['value']:.6g}", m["unit"]))
        rows.append((w["name"], "failed_share",
                     f"{result['failed'] / result['attempted']:.6g}",
                     f"ratio ({result['failed']}/{result['attempted']})"))
    print("\n## summary")
    for row in rows:
        print(f"{row[0]:<13} {row[1]:<48} {row[2]:>14} {row[3]}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=0,
                        help="selects the input set: seed %% 5")
    parser.add_argument("--seconds", type=float,
                        help="measuring time (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload is None:
            return run_all(args)
        if args.seconds is None:
            args.seconds = load_spec()["run_seconds"]
        return run_workload(args)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
