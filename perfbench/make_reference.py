#!/usr/bin/env python3
"""Rewrite perfbench/reference.json from the current program.

Run only when a change is meant to alter model outputs, and say so in the
change: the benchmark's reference check compares against this file.

    python3 perfbench/make_reference.py
"""

import json
import sys
import tempfile

from run import BENCH_DIR, WORK_ROOT, import_program


def main() -> int:
    import_program()
    import workloads

    WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as work_dir:
        probs = workloads.reference_probabilities(work_dir)
    with open(BENCH_DIR / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(probs, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
