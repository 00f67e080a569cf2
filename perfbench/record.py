#!/usr/bin/env python3
"""Record the reference outputs the correctness gate compares against.

Runs set-up and one pass of every workload for every input slot, and
writes ``perfbench/reference/reference.json`` plus one ``features-seed<n>.csv``
per extract-300s cohort. The references belong to the commit that defined
the benchmark; recording them again accepts whatever the program now
outputs, so do it only with an explanation in CHANGES.md.

    python3 perfbench/record.py
"""
from __future__ import annotations

import shutil
import sys

from run import STATE_DIR, import_program  # noqa: E402  (also sets sys.path)

from perfbench.workloads import SLOTS, WORKLOADS, Reference, Run


def main() -> int:
    cli, _ = import_program()
    reference = Reference(recording=True)
    for name, workload_cls in WORKLOADS.items():  # extract-300s writes the
        for slot in range(SLOTS):                 # table loocv-all reads
            work = STATE_DIR / "record" / f"{name}-{slot}"
            shutil.rmtree(work, ignore_errors=True)
            run = Run(cli)
            workload = workload_cls(reference, work, slot)
            workload.setup(run, 0)
            workload.run_pass(run)
            shutil.rmtree(work, ignore_errors=True)
            if run.failed:
                print("\n".join(run.problems), file=sys.stderr)
                return 1
            print(f"recorded {name} slot {slot} ({run.attempted} calls)")
    reference.save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
