"""Exact unforced solutions as oracles for the solver.

Spatially constant data stay spatially constant, so Box u = B(u, u)
becomes an ODE in t with a closed-form solution:

    u'' = (u')^2,   u(0) = a, u'(0) = c:  u = a - log(1 - c t);
    u'' = (u^2)',   u(0) = a, u'(0) = c:  u = sqrt(K) tan(sqrt(K) t + atan(a/sqrt(K))),
                                           K = c - a^2 > 0.

The first blows up at t = 1/c: its lifespan.  The error of a solve is the
max over the core |t| <= delta of |u - u_exact| / max |u|.  The exact
formulas are numpy's; the solve goes through the public API alone, and the
private names appear only in the mutants that must fail the gate.
"""

import numpy as np
import pytest

from halfwave import solver
from halfwave.grid import Field, SpacetimeGrid, SpatialGrid, forward_transform
from halfwave.solver import CauchyData, NonlinearitySpec, SolveConfig, solve_local, to_first_order

_MS = (32, 64, 128)


def _log_solution(a, c, t):
    return a - np.log(1.0 - c * t)


def _tan_solution(a, c, t):
    root = np.sqrt(c - a * a)
    return root * np.tan(root * t + np.arctan(a / root))


_CASES = {
    "(d_t u)^2": (NonlinearitySpec(2, "t"), 0.0, 1.0, _log_solution),
    "d_t(u^2)": (NonlinearitySpec(1, "t"), 0.3, 0.5, _tan_solution),
}


def _constant(sg, value):
    return forward_transform(Field(sg, np.full(sg.shape, value, dtype=complex)))


def _solve(ns, a, c, m, half_time=1.0, delta=0.5, max_iter=60, tol=1e-13, b=None):
    """The solve of constant data (a, c) on 4^3 with L = pi, and its grid."""
    sg = SpatialGrid(4, np.pi)
    g = SpacetimeGrid(sg, m, half_time)
    fp, fm = to_first_order(CauchyData(_constant(sg, a), _constant(sg, c)))
    return g, solve_local(fp, fm, ns, SolveConfig(g, delta, max_iter=max_iter, tol=tol, b=b))


def _error(g, report, exact, delta):
    core = np.abs(g.t_axis) <= delta
    u = report.u.data[core]
    return float(np.abs(u - exact(g.t_axis[core])[:, None, None, None]).max()
                 / np.abs(u).max())


def _errors(name):
    ns, a, c, exact = _CASES[name]
    errors = []
    for m in _MS:
        g, report = _solve(ns, a, c, m)
        # an unconverged solve reads NaN, which fails the gate
        errors.append(_error(g, report, lambda t: exact(a, c, t), 0.5)
                      if report.success else np.nan)
    return errors


def _gate(errors) -> bool:
    """Second order: the error falls at least 3.5x per doubling of M, and is
    at most 2e-4 at M = 128."""
    return all(e0 >= 3.5 * e1 for e0, e1 in zip(errors, errors[1:])) and errors[-1] <= 2e-4


@pytest.mark.parametrize("name", sorted(_CASES))
def test_exact_solution_converges(name):
    """Measured: 2.08e-3, 5.20e-4, 1.30e-4 for (d_t u)^2 and 9.06e-4,
    2.27e-4, 5.66e-5 for d_t(u^2)."""
    assert _gate(_errors(name))


@pytest.mark.parametrize("name", sorted(_CASES))
def test_scaled_product_fails_gate(name, monkeypatch):
    """B one percent too large stops the convergence (2.34e-3, 3.91e-3,
    4.30e-3 and 9.63e-4, 8.69e-4, 1.04e-3)."""
    real = solver._bilinear_spec
    monkeypatch.setattr(solver, "_bilinear_spec", lambda *args: 1.01 * real(*args))
    assert not _gate(_errors(name))


def test_dropped_factor_two_fails_gate(monkeypatch):
    """d_t(u^2) = 2 u d_t u: without the 2 the error stays near 5.3e-2."""
    real = solver._product_tables

    def halved(sg, h, ns):
        w_in, d_in, out, sign = real(sg, h, ns)
        return w_in, (d_in if ns != NonlinearitySpec(1, "t") else d_in / 2.0), out, sign

    monkeypatch.setattr(solver, "_product_tables", halved)
    assert not _gate(_errors("d_t(u^2)"))


@pytest.mark.parametrize("c", [1.0, 2.0, 4.0])
def test_lifespan(c):
    """u = -log(1 - c t) lives until t = 1/c: on T = 2/c with M = 256 the
    solves at delta = 0.6/c and 0.7/c converge and match it on their cores
    (errors 1.3e-4, 9.4e-5, 8.6e-5 and 1.12e-4, 7.98e-5, 7.24e-5), and so
    does the solve at 0.7/c with b = 0.55, whose X window ramps down to
    1.4/c, past the lifespan: the loop reads no slice past delta for any b.
    A solve whose core crosses the lifespan, at delta = 1.05/c, does not
    succeed with either b (it diverges after 4 iterations).  Past the
    lifespan the norms overflow, so those warnings are silenced."""
    ns = NonlinearitySpec(2, "t")
    kw = dict(half_time=2.0 / c, max_iter=80, tol=1e-12)
    with np.errstate(over="ignore", invalid="ignore"):
        inside = [(f, _solve(ns, 0.0, c, 256, delta=f / c, b=b, **kw))
                  for f, b in ((0.6, None), (0.7, None), (0.7, 0.55))]
        crossing = [_solve(ns, 0.0, c, 256, delta=1.05 / c, b=b, **kw)[1] for b in (None, 0.55)]
    for f, (g, rep) in inside:
        assert rep.success and rep.result.status == "converged"
        assert _error(g, rep, lambda t: _log_solution(0.0, c, t), f / c) <= 2e-4
    for rep in crossing:
        assert not rep.success and rep.result.status in ("diverged", "nonfinite")
