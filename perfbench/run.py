#!/usr/bin/env python3
"""molcalib benchmark: run one workload for a fixed time and check its outputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload train-gcn --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload screen --seed 1 --seconds 30 --trace 1

Workloads: train-gcn, screen, ingest-hiv (see perfbench/README.md).  The
run is a closed loop in one process and one thread: each call starts when
the previous one has returned.  BLAS is pinned to one thread.

``--trace 0`` measures with tracing off and reports the end-to-end metrics;
``--trace 1`` wraps every molcalib layer in spans and reports the per-layer
metrics, the tracing overhead and the wall time no layer accounts for.
Stdout ends with a metric table, one ``report`` JSON line (environment,
named workload metrics, checks) and the result JSON as the last line.  The
report, and in traced runs the spans, are also written under
``.perfbench_out/``.  The exit code is 0 only when every check passes.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCE_DIR = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# set-up repeats at least 3 times, and up to 10 until it has taken 1 s,
# so that a cheap set-up still yields a steady median
SETUP_REPS = (3, 10)
SETUP_BUDGET_S = 1.0
MIN_OPS = 2  # two same-seed train_runs are compared by fingerprint
MIN_CALLS = 100  # nearest-rank p90 needs 100 samples for 10 beyond it
RUN_LIMIT_S = 160.0  # the whole run, set-up and checks included
REFERENCE_TOLERANCE = 1e-9

# call_ms_p50 is reported but not gated: the vCPUs here slow down by about
# 1.6x in episodes of a second or two, and the median call time jumps with
# the share of slowed calls (quartile spread up to 0.26 over ten seeds)
END_TO_END = (("mol_per_s", "mol/s"), ("call_ms_p90", "ms"),
              ("peak_rss_mb", "MB"), ("setup_s", "s"))

# per-layer counts that must read zero on a workload, in traced runs
EXPECTED_ZEROS = {
    "screen": ("autodiff.backward_calls", "optim.steps"),
    "ingest-hiv": ("autodiff.op_calls.*",),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("train-gcn", "screen", "ingest-hiv"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import molcalib from this checkout's src/, or exit with code 2."""
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy loads BLAS
    sys.path.insert(0, str(SOURCE_DIR))
    try:
        import molcalib
    except ImportError as err:
        print(f"cannot import molcalib from {SOURCE_DIR}: {err}",
              file=sys.stderr)
        raise SystemExit(2) from err
    if Path(molcalib.__file__).resolve().parent.parent != SOURCE_DIR:
        print(f"molcalib resolved to {molcalib.__file__}, not {SOURCE_DIR}",
              file=sys.stderr)
        raise SystemExit(2)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        path = ROOT / ".git" / ref
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError, AttributeError):
        blas = {"name": "unknown"}
    try:
        from molcalib import kernels
        backend = kernels.BACKEND
    except (ImportError, AttributeError):
        backend = "absent"
    affinity = getattr(os, "sched_getaffinity", None)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(affinity(0)) if affinity else os.cpu_count(),
        "kernels_backend": backend,
        "numba_available": importlib.util.find_spec("numba") is not None,
        "git_commit": git_commit(),
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Loop:
    """Closed loop of workload operations with failure accounting."""

    def __init__(self, workload, hard_stop: float) -> None:
        self.workload = workload
        self.hard_stop = hard_stop
        self.attempted = 0
        self.failed = 0
        self.succeeded = 0
        self.errors: list[str] = []

    def out_of_time(self) -> bool:
        return time.perf_counter() >= self.hard_stop

    def once(self) -> bool:
        """One operation; True when it succeeded."""
        self.attempted += 1
        try:
            self.workload.op()
        except Exception as err:  # counted, reported, run goes on
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{type(err).__name__}: {err}")
            return False
        self.succeeded += 1
        return True

    def run(self, until: float, min_ops: int, min_calls: int) -> None:
        """Run operations until `until`, and past it until `min_ops`
        succeeded and `min_calls` call samples exist, unless one failed."""
        calls = self.workload.call_seconds
        while not self.out_of_time():
            short = self.succeeded < min_ops or len(calls) < min_calls
            if time.perf_counter() >= until and (self.failed or not short):
                return
            self.once()

    def require(self, measured) -> None:
        """Stop the run, printing no result, when nothing was measured."""
        if not measured:
            raise SystemExit(f"no operation succeeded: {self.errors}")


class TracedRun:
    """Alternates untraced and traced operations until the deadline.

    Alternating keeps drift in machine speed out of the overhead figure.
    Spans are recorded only inside traced sections: one set-up, then every
    other operation.
    """

    def __init__(self, workload, loop) -> None:
        from tracing import Tracer

        self.workload = workload
        self.loop = loop
        self.tracer = Tracer()
        self.wall = 0.0  # time spent inside traced sections
        self.load_reports: list[dict] = []
        self.rates: dict[bool, list[float]] = {False: [], True: []}

    def _traced(self, fn):
        import layers
        from tracing import Patch

        before = len(self.workload.load_reports)
        with Patch() as patch:
            layers.install(self.tracer, patch)
            t0 = time.perf_counter()
            try:
                return fn()
            finally:
                self.wall += time.perf_counter() - t0
                self.load_reports += self.workload.load_reports[before:]

    def run(self, deadline: float) -> None:
        self._traced(self.workload.setup)
        while not self.loop.out_of_time():
            for traced in (False, True):
                ok = self._traced(self.loop.once) if traced \
                    else self.loop.once()
                if ok:
                    self.rates[traced].append(self.workload.op_rates[-1])
            if time.perf_counter() >= deadline and (
                    self.loop.failed or all(self.rates.values())):
                return

    def overhead(self) -> float:
        """Untraced over traced median rate, minus one."""
        self.loop.require(all(self.rates.values()))
        return (statistics.median(self.rates[False])
                / statistics.median(self.rates[True]) - 1.0)


def reference_problems(work_dir: str) -> list[str]:
    import workloads

    with open(BENCH_DIR / "reference.json", encoding="utf-8") as fh:
        stored = json.load(fh)
    got = workloads.reference_probabilities(work_dir)
    problems = []
    for key, values in got.items():
        want = stored.get(key)
        if want is None or len(want) != len(values):
            problems.append(f"reference for {key} missing or wrong length")
            continue
        worst = max(abs(a - b) for a, b in zip(values, want))
        if worst > REFERENCE_TOLERANCE:
            problems.append(f"{key} probabilities differ from the stored "
                            f"reference by up to {worst:.3e}")
    return problems


def expected_zero_problems(workload: str, per_layer: dict) -> list[str]:
    problems = []
    for pattern in EXPECTED_ZEROS.get(workload, ()):
        prefix = pattern[:-1] if pattern.endswith("*") else None
        names = [n for n in per_layer
                 if (n.startswith(prefix) if prefix else n == pattern)]
        total = sum(per_layer[n] for n in names)
        if total != 0:
            problems.append(f"{pattern} is {total} on {workload}, "
                            "expected 0")
    return problems


def run(args) -> tuple[dict, dict]:
    import layers
    import stats
    from tracing import Patch
    from workloads import WORKLOADS

    started = time.perf_counter()
    WORK_ROOT.mkdir(exist_ok=True)
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "closed_loop": "1 client, 1 thread", "environment":
              environment()}
    problems: list[str] = []
    try:
        with Patch() as timers:
            workload = WORKLOADS[args.workload](args.seed, work_dir, timers)
            setup_times: list[float] = []
            fewest, most = SETUP_REPS
            while len(setup_times) < fewest or (
                    sum(setup_times) < SETUP_BUDGET_S
                    and len(setup_times) < most):
                t0 = time.perf_counter()
                workload.setup()
                setup_times.append(time.perf_counter() - t0)
            deadline = time.perf_counter() + args.seconds
            loop = Loop(workload, started + RUN_LIMIT_S)
            if args.trace:
                traced = TracedRun(workload, loop)
                traced.run(deadline)
            else:
                loop.run(deadline, MIN_OPS, MIN_CALLS)
            loop.require(workload.op_rates)
        problems += workload.check()
        problems += reference_problems(work_dir)
        if loop.failed:
            problems.append(f"{loop.failed} of {loop.attempted} "
                            "operations failed")

        report["attempted"] = loop.attempted
        report["failed"] = loop.failed
        report["failed_frac"] = loop.failed / max(loop.attempted, 1)
        report["errors"] = loop.errors
        report["setup_s_samples"] = setup_times
        report["op_mol_per_s"] = workload.op_rates
        calls = stats.summarize_ms(workload.call_seconds)
        report["call_ms"] = calls
        named = workload.named_metrics()
        named["call_ms_p50"] = (calls["p50"], "ms")
        named["failed_frac"] = (report["failed_frac"], "ratio")
        report["named"] = {name: {"value": v, "unit": u}
                           for name, (v, u) in named.items()}
        if args.trace:
            spans = traced.tracer.arrays()
            per_layer = layers.metrics(spans, traced.tracer.errors)
            loads = traced.load_reports
            per_layer["data.rows"] = sum(r["rows_total"] for r in loads)
            per_layer["data.skipped"] = sum(r["skipped"] for r in loads)
            per_layer["runner.artifact_bytes"] = getattr(
                workload, "artifact_bytes", 0)
            per_layer["trace.overhead_frac"] = traced.overhead()
            per_layer["trace.unattributed_s"] = (traced.wall
                                                 - spans.root_time())
            per_layer["trace.unattributed_frac"] = \
                per_layer["trace.unattributed_s"] / traced.wall
            per_layer["trace.spans"] = len(spans)
            report["traced_s"] = traced.wall
            report["op_mol_per_s_by_mode"] = {
                "untraced": traced.rates[False],
                "traced": traced.rates[True]}
            report["layer_self_s"] = layers.self_time_by_layer(spans)
            spans_path = OUT_DIR / f"{tag}-spans.npz"
            traced.tracer.save(str(spans_path))
            report["spans_file"] = str(spans_path.relative_to(ROOT))
            problems += expected_zero_problems(args.workload, per_layer)
            metrics = {name: {"value": per_layer[name], "unit": unit}
                       for name, unit in layers.PER_LAYER}
        else:
            values = {"mol_per_s": workload.mol_per_s(),
                      "call_ms_p90": calls["p90"],
                      "peak_rss_mb": peak_rss_mb(),
                      "setup_s": statistics.median(setup_times)}
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    report["checks"] = problems
    report["metrics"] = metrics
    with open(OUT_DIR / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    result = {"correct": not problems, "attempted": loop.attempted,
              "failed": loop.failed, "metrics": metrics}
    return report, result


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    import_program()
    report, result = run(args)
    shown = dict(result["metrics"])
    shown.update(report["named"])
    for name, m in shown.items():
        print(f"{name:40s} {m['value']!r:>24} {m['unit']}")
    for problem in report["checks"]:
        print(f"CHECK FAILED: {problem}")
    print("report " + json.dumps(report, separators=(",", ":")))
    print(json.dumps(result, separators=(",", ":")))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
