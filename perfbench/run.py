"""Benchmark of the halfwave solver, surface-mass and estimate layers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {solve,surface,estimates} --seed N \
        --seconds S --trace {0,1}

The package is imported from the checkout's `src/` directory.  A run is one
process.  Set-up: time the import of `halfwave` in three fresh interpreters
run one after another, import it, then three times build the seeded
operation list and run one untimed warm-up operation; `setup_s` is the sum
of the two medians.  Then every operation of the list is timed and its
output checked.  With `--trace 0` the last line of standard output is a JSON
object with the end-to-end metrics; with `--trace 1` the calls into each
layer are wrapped and the per-layer metrics are reported instead.  Full
results go to `perfbench/results/`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_REPEATS = 3

# One BLAS/OpenMP thread: the workloads are FFTs and elementwise array code,
# and extra pool threads add only scheduling noise.  numpy asks the kernel for
# 2 MiB pages for large arrays, which it grants only while it has free 2 MiB
# blocks; that moved the peak RSS of identical runs by up to 16 MB, so the
# benchmark keeps to 4 KiB pages.  Set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("solve", "surface", "estimates"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _import_seconds(src: Path) -> float:
    """Wall time of a fresh interpreter importing halfwave from src."""
    env = dict(os.environ, PYTHONPATH=str(src))
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import halfwave"], env=env, check=True)
    return time.perf_counter() - t


def _timed(op, problems: list):
    """Run one operation and check its output; its wall time, or None if it raised."""
    t = time.perf_counter()
    try:
        out = op.run()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return None
    seconds = time.perf_counter() - t
    problems += [f"{op.kind}: {p}" for p in op.check(out)]
    return seconds


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "halfwave" / "__init__.py").is_file():
        print(f"error: no halfwave package under {src}", file=sys.stderr)
        return 2
    # an import cannot be repeated in one process, so it is timed in fresh
    # interpreters, one after another, and the median taken
    import_times = [_import_seconds(src) for _ in range(SETUP_REPEATS)]
    sys.path.insert(0, str(src))
    import workloads  # imports halfwave
    n_rounds = workloads.rounds_for(args.workload, args.seconds)
    problems: list[str] = []
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        rounds = workloads.build_rounds(args.workload, args.seed, n_rounds)
        warm = workloads.build_warmup(args.workload, args.seed)
        if _timed(warm, problems) is None:
            problems.append("warm-up operation raised")
        setup_times.append(time.perf_counter() - t)
    setup_s = statistics.median(import_times) + statistics.median(setup_times)

    tracer = None
    if args.trace:
        import layertrace as tracing

        tracer = tracing.Tracer()
        tracer.install()
        for name in tracer.missing:
            print(f"trace: {name} is missing and not measured", file=sys.stderr)

    op_times, kinds = [], []
    attempted = failed = 0
    t_run = time.perf_counter()
    try:
        for ops in rounds:
            for op in ops:
                if tracer is not None:
                    tracer.op = attempted
                attempted += 1
                seconds = _timed(op, problems)
                if seconds is None:
                    failed += 1
                else:
                    op_times.append(seconds)
                    kinds.append(op.kind)
    finally:
        if tracer is not None:
            tracer.uninstall()
    run_s = time.perf_counter() - t_run
    measured_s = sum(op_times)

    if tracer is None:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": len(op_times) / measured_s if measured_s else 0.0,
                          "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(op_times) if op_times else 0.0,
                         "unit": "s"},
            "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MB"},
        }
    else:
        agg = tracer.aggregates()
        metrics = {k: {"value": agg[k], "unit": u} for k, u in tracing.PER_LAYER.items()}

    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = dict(result, workload=args.workload, seed=args.seed, rounds=n_rounds,
                  import_s=import_times, setup_repeats_s=setup_times, run_wall_s=run_s,
                  ops=[{"kind": k, "s": s} for k, s in zip(kinds, op_times)],
                  problems=problems)
    (RESULTS / f"{stem}.json").write_text(json.dumps(detail, indent=1))
    if tracer is not None:
        (RESULTS / f"trace-{stem}.json").write_text(json.dumps(tracer.dump()))

    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
