"""Self-test of the benchmark's own references and tracing; no timing.

    python3 perfbench/selftest.py

Checks that
  1. the 1-D surface reference equals the ellipsoid closed form at p = q = 1;
  2. every manufactured solution satisfies its own equation;
  3. two traced runs of the same operations give identical counts, and the
     tracer puts every original function back when it is removed.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import halfwave as hw  # noqa: E402
import layertrace  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402


def check_surface_reference() -> list:
    out = []
    for xi_norm, tau in ((1.0, 1.5), (0.7, 2.1), (2.0, 6.0), (3.0, 3.3)):
        got = ref.ellipsoid_mass(xi_norm, tau, 1.0, 1.0)
        want = ref.ellipsoid_closed_form(xi_norm, tau)
        if abs(got / want - 1.0) > 1e-10:
            out.append(f"ellipsoid reference {got} != closed form {want} at |xi|={xi_norm}, tau={tau}")
    return out


def check_manufactured() -> list:
    out = []
    for k, deriv in ref.NONLINEARITIES:
        for q, om, amp in ((1.0, 1.5, 0.02), (0.5, 1.2, 0.03)):
            defect = ref.manufactured_defect(k, deriv, q, om, amp)
            if defect > 1e-6 * amp:
                out.append(f"manufactured k={k} d={deriv} q={q} om={om}: defect {defect:.2e}")
    return out


def _traced_counts(ops) -> dict:
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        for i, op in enumerate(ops):
            tracer.op = i
            op.check(op.run())
    finally:
        tracer.uninstall()
    units = layertrace.PER_LAYER
    return {k: v for k, v in tracer.aggregates().items() if units[k] != "s"}, tracer.missing


def _sample_ops():
    """A cheap cut through every layer: one round of surface, one solve, three estimates."""
    wanted = ("manufactured_m32", "sharpness_below", "extremizer", "pq_split")
    ops = list(workloads.build_rounds("surface", 0, 1)[0])
    for workload in ("solve", "estimates"):
        ops += [op for op in workloads.build_rounds(workload, 0, 1)[0] if op.kind in wanted]
    return ops


def check_trace_repeats() -> list:
    originals = {name: getattr(hw, name) for name in ("solve_local", "surface_mass",
                                                      "forward_transform")}
    first, missing = _traced_counts(_sample_ops())
    second, _ = _traced_counts(_sample_ops())
    out = [f"traced name missing: {m}" for m in missing]
    if first != second:
        diff = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
        out.append(f"traced counts differ between runs: {diff}")
    if not all(first[k] for k in ("grid.transform_calls", "kernels.band_mass_calls",
                                  "kernels.masked_convolution_calls",
                                  "solver.picard_iterations")):
        out.append(f"traced counts miss a layer: {first}")
    if any(getattr(hw, name) is not fn for name, fn in originals.items()):
        out.append("tracer left a wrapper in place")
    return out


def main() -> int:
    problems = check_surface_reference() + check_manufactured() + check_trace_repeats()
    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
