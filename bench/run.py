"""Run one randmax benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a randmax source checkout; the package is imported
from ``src/``.  The workload's operations are built from ``--seed``, run in
whole passes until ``--seconds`` have elapsed, and every output is checked
against a reference computed apart from the program.  With ``--trace 0``
the last line carries the end-to-end metrics; with ``--trace 1`` it carries
the per-layer metrics of one traced pass, after the same untraced passes.
"""

import os

# single-threaded numerics: the benchmark measures one core's work
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from checks import CheckError

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SCRATCH = BENCH / "scratch"
SETUP_PROBES_FIRST = 3  # set-up probes before the first pass; two more follow each pass
DEFAULT_SEED = 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="import, build the inputs, print a clock stamp and exit")
    return parser.parse_args(argv)


def import_package():
    if not (SRC / "randmax" / "__init__.py").is_file():
        sys.exit(f"error: no randmax sources under {SRC}; run from a randmax checkout")
    sys.path.insert(0, str(SRC))
    import randmax

    if Path(randmax.__file__).resolve().parent != SRC / "randmax":
        sys.exit(f"error: imported randmax from {randmax.__file__}, not from {SRC}")


def measure_setup(args, count):
    """Wall times from a fresh interpreter to built inputs, in seconds.

    The probe prints CLOCK_MONOTONIC, which is shared across processes, once
    its inputs are built; interpreter exit is not counted.
    """
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(count):
        start = time.monotonic_ns()
        done = subprocess.run(argv, capture_output=True, text=True, check=True, cwd=ROOT)
        times.append((int(done.stdout.split()[-1]) - start) / 1e9)
    return times


class Outcome:
    """Operations attempted and failed in one run, and whether every output checked out."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def run(self, op, outdir, trace=None):
        """Run and check one operation; return its (wall s, cpu s), failed or not."""
        if outdir.exists():
            shutil.rmtree(outdir)
        outdir.mkdir(parents=True)
        self.attempted += 1
        cpu = time.process_time()
        wall = time.perf_counter()
        error = None
        try:
            if trace is None:
                result = op.run(outdir)
            else:
                result = trace.span(f"op:{op.name}", op.run, (outdir,), {})
        except Exception as exc:  # the program failed; count it and go on
            error = exc
        timing = time.perf_counter() - wall, time.process_time() - cpu
        if error is not None:
            self.failed += 1
            print(f"FAILED {op.name}: {type(error).__name__}: {error}", file=sys.stderr)
            return timing
        try:
            op.check(result, outdir)
        except CheckError as exc:
            self.correct = False
            print(f"INCORRECT {op.name}: {exc}", file=sys.stderr)
        return timing


def run_pass(ops, outcome, scratch, trace=None):
    wall = cpu = 0.0
    for index, op in enumerate(ops):
        op_wall, op_cpu = outcome.run(op, scratch / f"op{index}", trace)
        wall += op_wall
        cpu += op_cpu
    return wall, cpu


def main(argv=None):
    args = parse_args(argv)
    import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; expected {', '.join(workloads.WORKLOADS)}")
    if args.setup_probe:
        workloads.build(args.workload, args.seed)
        print(time.monotonic_ns())
        return 0

    # set-up is probed before and between passes, so its median spans the run
    setup = measure_setup(args, 0 if args.trace else SETUP_PROBES_FIRST)
    ops = workloads.build(args.workload, args.seed)
    outcome = Outcome()
    SCRATCH.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    try:
        for index, op in enumerate(workloads.thread_checks(args.seed)):
            outcome.run(op, scratch / f"threads{index}")
        passes = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < args.seconds:
            passes.append(run_pass(ops, outcome, scratch))
            print(f"pass {len(passes)}: {passes[-1][0]:.4f} s wall, {passes[-1][1]:.4f} s cpu")
            setup += measure_setup(args, 0 if args.trace else 2)
        pass_s = statistics.median(p[0] for p in passes)
        if args.trace:
            metrics = traced_metrics(args, ops, outcome, scratch, pass_s)
        else:
            metrics = {
                "setup_s": (statistics.median(setup), "s"),
                "pass_s": (pass_s, "s"),
                "cpu_s": (statistics.median(p[1] for p in passes), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"{args.workload}: {len(passes)} passes of {len(ops)} operations, seed {args.seed}")
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


def traced_metrics(args, ops, outcome, scratch, untraced_pass_s):
    """One traced pass for self times and counts, one tracemalloc pass for peak_alloc_mb."""
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_s = run_pass(ops, outcome, scratch, trace=tracer)[0]
    finally:
        tracer.uninstall()
    probe = tracing.AllocProbe()
    alloc_ops = [op for op in ops if op.random_max]
    if alloc_ops:
        probe.install()
        try:
            run_pass(alloc_ops, outcome, scratch)
        finally:
            probe.uninstall()
    RESULTS.mkdir(parents=True, exist_ok=True)
    tracer.write(RESULTS / f"spans-{args.workload}-seed{args.seed}.jsonl")
    overhead = traced_s / untraced_pass_s - 1.0
    print(f"tracing overhead: {100 * overhead:+.2f}% "
          f"(traced pass {traced_s:.4f} s, untraced median {untraced_pass_s:.4f} s)")
    units = {name: "count" for name in tracing.LAYER_COUNTS}
    units["cli.csv_bytes"] = "B"
    metrics = {name: (value, units.get(name, "s")) for name, value in tracer.metrics().items()}
    metrics["nmid_compose.peak_alloc_mb"] = (probe.peak_mb, "MB")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
