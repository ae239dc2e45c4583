"""Command-line front end: config parsing, experiment dispatch, report files.

Every command writes <out>/<command>.csv (one row per parameter tuple,
deterministic order) and <out>/<command>.json (inputs echoed, pass/fail,
fitted exponents).  Runtimes are reported as null unless --timing is given
so that outputs are byte-identical across runs with the same seed.

Each command accepts exactly the config keys it reads, and reads all of them
before it computes anything.  A key given through --config or --set that the
chosen command does not read, in a known section or not, is a configuration
error: nothing runs and no output is written.  The global --seed flag is
exempt.

Exit status: 0 all enabled criteria pass, 2 criterion failure, 1 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import os
import sys
import time
from collections import defaultdict

import numpy as np

from .bilinear import ReductionSpec, SignPair, reduction_integral
from .dyadic import shell_surface_mass
from .errors import HalfwaveError
from .fieldio import read_field
from .grid import SpacetimeGrid, SpatialGrid, Spectrum, forward_transform
from .spaces import NormParams, lr_xt_norm, sobolev_hat_norm, xsb_norm
from . import solver as solver_mod
from . import verify

# The default params.b of every command that forms an X^r_{s,b} norm.  The
# solver forms none unless its caller sets b; solve sets it, so its JSON
# reports the restricted distances and, for k = 2, the Z-norm.
_DEFAULT_B = 0.55


class UsageError(Exception):
    pass


class _Section(dict):
    """One config section; `read` collects the keys that _get looked up."""

    def __init__(self):
        super().__init__()
        self.read: set[str] = set()


def load_config(path: str | None) -> dict:
    """The config sections by name; main rejects the keys a command does not read."""
    cfg = defaultdict(_Section)
    if path is None:
        return cfg
    # no header names "", so [DEFAULT] is an ordinary section, which no command
    # reads; values are read as written, so a '%' is a character like any other
    parser = configparser.ConfigParser(default_section="", interpolation=None)
    try:
        read = parser.read(path)
    except configparser.Error as e:
        raise UsageError(f"config parse error: {e}")
    if not read:
        raise UsageError(f"config file not found: {path}")
    for sec in parser.sections():
        cfg[sec].update(parser[sec])
    return cfg


def apply_overrides(cfg: dict, sets) -> dict:
    for item in sets or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise UsageError(f"override must look like section.key=value, got {item!r}")
        target, val = item.split("=", 1)
        sec, key = target.split(".", 1)
        key = key.lower()  # as configparser does for INI keys; sections stay case-sensitive
        cfg[sec][key] = val
    return cfg


def _get(cfg, sec, key, cast, default):
    section = cfg[sec]
    section.read.add(key)
    raw = section.get(key)
    if raw is None:
        return default
    try:
        return cast(raw)
    except ValueError as e:
        raise UsageError(f"bad value for {sec}.{key}: {raw!r} ({e})")


def _float_list(raw: str):
    """A non-empty list of numbers, separated by commas or blanks."""
    vals = tuple(float(tok) for tok in raw.replace(",", " ").split())
    if not vals:
        raise ValueError("the list is empty")
    return vals


def _shells(raw: str):
    """Shell indices for a slope fit, which needs two distinct shells."""
    shells = tuple(int(k) for k in _float_list(raw))
    if len(set(shells)) < 2:
        raise ValueError("a slope needs at least two distinct shells")
    return shells


def _positive_int(raw: str):
    val = int(raw)
    if val < 1:
        raise ValueError("must be at least 1")
    return val


def _signs(cfg) -> SignPair:
    return SignPair(_get(cfg, "params", "sign1", int, 1), _get(cfg, "params", "sign2", int, -1))


def _report_to_outputs(rep: verify.EstimateReport):
    rows = []
    for row in rep.rows:
        out = {}
        for key in sorted(row):
            val = row[key]
            out[key] = float(val) if isinstance(val, (int, float, np.floating)) else val
        rows.append(out)
    summary = {
        "params": rep.params,
        "max_ratio": rep.max_ratio,
        "min_ratio": rep.min_ratio,
        "median_ratio": rep.median_ratio,
        "spread": rep.spread,
        "exponent": rep.exponent,
        "exponent_r2": rep.exponent_r2,
        "skipped": rep.skipped,
    }
    return rows, summary, bool(rep.passed)


def cmd_norms(cfg, args):
    if not args.input:
        raise UsageError("norms requires --input FIELD_FILE")
    obj = read_field(args.input)
    r = _get(cfg, "params", "r", float, 2.0)
    s = _get(cfg, "params", "s", float, 1.0)
    b = _get(cfg, "params", "b", float, _DEFAULT_B)
    spacetime = getattr(obj, "is_spacetime", False)
    if spacetime:
        p = NormParams(r, s, b, _get(cfg, "params", "sign1", int, 1))

    def run():
        rows = []
        if spacetime:
            rows.append({"norm": "lr_xt", "value": lr_xt_norm(obj, r)})
            rows.append({"norm": "xsb", "value": xsb_norm(obj, p)})
        else:
            F = obj if obj.is_frequency else forward_transform(obj)
            rows.append({"norm": "sobolev_hat", "value": sobolev_hat_norm(F, r, s)})
        summary = {"params": {"r": r, "s": s, "b": b, "input": args.input}}
        return rows, summary, all(np.isfinite(row["value"]) for row in rows)

    return run


def cmd_reduce(cfg, args):
    p = _get(cfg, "params", "p", float, 0.0)
    q = _get(cfg, "params", "q", float, 0.0)
    region = _get(cfg, "params", "region", str, "elliptic")
    c1 = _get(cfg, "params", "c1", float, 2.0)
    a_values = _get(cfg, "sweep", "a_values", _float_list, (1.0, 2.0, 10.0, 100.0))

    def run():
        rows = []
        for a in a_values:
            res = reduction_integral(ReductionSpec(a=a, p=p, q=q, region=region, c1=c1))
            rows.append({"a": a, "p": p, "q": q, "region": region, "value": res.value,
                         "abserr": res.abserr, "converged": res.converged})
        ok = all(row["converged"] for row in rows)
        return rows, {"params": {"p": p, "q": q, "region": region, "c1": c1}}, ok

    return run


def _common_lemma_args(cfg, lams=(2.0, 4.0, 8.0, 16.0)):
    return dict(
        r=_get(cfg, "params", "r", float, 2.0),
        sigma=_get(cfg, "params", "sigma", float, 1.25),
        kind=_get(cfg, "family", "kind", str, "gaussian-bump"),
        lams=_get(cfg, "sweep", "lams", _float_list, lams),
        n=_get(cfg, "grid", "n", int, 16),
        m=_get(cfg, "grid", "m", int, 32),
        seed=_get(cfg, "family", "seed", int, 0),
    )


def _report_run(check, **kw):
    """The computation of a command that reports one verify.EstimateReport."""
    return lambda: _report_to_outputs(check(**kw))


def cmd_lemma(cfg, args):
    suite = args.suite
    if suite == "elliptic":
        return _report_run(verify.check_elliptic_lemma, **_common_lemma_args(cfg))
    if suite == "hyperbolic":
        return _report_run(verify.check_hyperbolic_lemmas,
                           c1=_get(cfg, "params", "c1", float, 2.0),
                           **_common_lemma_args(cfg, lams=(2.0, 4.0, 8.0)))
    if suite == "shell":
        h = _get(cfg, "params", "h", float, 1.0)
        shells = _get(cfg, "sweep", "shells", _shells, (2, 3, 4, 5, 6))
        return lambda: _shell_suite(h, shells)
    raise UsageError(f"unknown lemma suite {suite!r}")


def _shell_suite(h, shells):
    xi = np.array([2000.0, 0.0, 0.0])
    rows = []
    for elliptic in (True, False):
        sp = SignPair(+1, +1 if elliptic else -1)
        tau = 2004.0 if elliptic else -1996.0
        vals = []
        for k in shells:
            res = shell_surface_mass(xi, tau, sp, k, h, n0=64)
            vals.append(res.value)
            rows.append({"surface": "elliptic" if elliptic else "hyperbolic",
                         "shell": k, "value": res.value, "converged": res.converged})
        slope = float(np.polyfit(shells, np.log2(vals), 1)[0])
        rows.append({"surface": "elliptic" if elliptic else "hyperbolic",
                     "shell": -1, "value": slope})
    slopes = [row["value"] for row in rows if row["shell"] == -1]
    ok = all(abs(sl - 2.0) <= 0.1 for sl in slopes) and all(
        row["converged"] for row in rows if row["shell"] >= 0)
    return rows, {"params": {"h": h, "shells": list(shells)}, "slopes": slopes}, ok


def cmd_key(cfg, args):
    return _report_run(verify.check_key_estimate, signs=_signs(cfg),
                       b=_get(cfg, "params", "b", float, _DEFAULT_B),
                       **_common_lemma_args(cfg))


def cmd_sharpness(cfg, args):
    kw = _common_lemma_args(cfg)
    sigma = kw.pop("sigma")

    def run():
        rep = verify.sharpness_probe(sigma_below=sigma, **kw)
        ok = rep.exponent is not None and rep.finite()
        return *_report_to_outputs(rep)[:2], ok

    return run


def cmd_lowfreq(cfg, args):
    return _report_run(
        verify.check_lowfreq_young,
        r=_get(cfg, "params", "r", float, 1.5),
        sigma=_get(cfg, "params", "sigma", float, 1.25),
        samples=_get(cfg, "sweep", "samples", _positive_int, 8),
        n=_get(cfg, "grid", "n", int, 16),
        m=_get(cfg, "grid", "m", int, 32),
        seed=_get(cfg, "family", "seed", int, 0),
    )


def cmd_strichartz(cfg, args):
    return _report_run(
        verify.check_strichartz_l2,
        sigma1=_get(cfg, "params", "sigma1", float, 0.55),
        sigma2=_get(cfg, "params", "sigma2", float, 0.55),
        kind=_get(cfg, "family", "kind", str, "gaussian-bump"),
        lams=_get(cfg, "sweep", "lams", _float_list, (2.0, 4.0, 8.0, 16.0)),
        n=_get(cfg, "grid", "n", int, 16),
        m=_get(cfg, "grid", "m", int, 32),
        seed=_get(cfg, "family", "seed", int, 0),
    )


def cmd_extremize(cfg, args):
    kw = dict(
        r=_get(cfg, "params", "r", float, 2.0),
        sigma=_get(cfg, "params", "sigma", float, 1.25),
        signs=_signs(cfg),
        n=_get(cfg, "grid", "n", int, 12),
        m=_get(cfg, "grid", "m", int, 16),
        seed=_get(cfg, "family", "seed", int, 0),
    )
    budget = _get(cfg, "sweep", "budget", _positive_int, None)
    if budget is not None:  # else extremizer_search's own
        kw["budget"] = budget
    kind = _get(cfg, "family", "kind", str, None)
    if kind is not None:  # one family in place of the default restarts over three
        kw["kinds"] = (kind,)

    def run():
        res = verify.extremizer_search(**kw)
        rows = [{"step": i, "best_ratio": v} for i, v in enumerate(res["trace"])]
        summary = {
            "best_ratio": res["best_ratio"],
            "best_kind": res["best_kind"],
            "best_params": list(res["best_params"]) if res["best_params"] else None,
            "converged": res["converged"],
            "evaluations": res["evaluations"],
        }
        return rows, summary, bool(np.isfinite(res["best_ratio"]) and res["converged"])

    return run


def _solve_setup(cfg, args):
    n = _get(cfg, "grid", "n", int, 16)
    L = _get(cfg, "grid", "l", float, 2.0 * np.pi)
    m = _get(cfg, "grid", "m", int, 64)
    T = _get(cfg, "grid", "t", float, 1.0)
    g = SpacetimeGrid(SpatialGrid(n, L), m, T)
    r = _get(cfg, "params", "r", float, 2.0)
    s = _get(cfg, "params", "s", float, 1.0)
    ns = solver_mod.NonlinearitySpec(
        _get(cfg, "params", "k", int, 1), _get(cfg, "params", "derivative", str, "x1")
    )
    if args.input:
        u0 = read_field(args.input)
        if not isinstance(u0, Spectrum):
            raise UsageError("solve --input expects a spatial Spectrum container")
        if u0.grid != g.spatial:
            raise UsageError(
                f"the --input data live on the N = {u0.grid.n}, "
                f"L = {u0.grid.half_length!r} lattice, not on grid.n = {n}, "
                f"grid.l = {L!r}; set grid.n and grid.l to match it")
        u1 = Spectrum(g.spatial, np.zeros(g.spatial.shape, complex))
    else:
        amp = _get(cfg, "family", "amplitude", float, 0.01)
        width = _get(cfg, "family", "width", float, 1.0)
        xi = g.spatial.xi_modulus()
        with np.errstate(divide="ignore", invalid="ignore"):    # CauchyData refuses width 0
            profile = amp * np.exp(-(xi**2) / (2.0 * width**2))
        u0, u1 = Spectrum(g.spatial, profile), Spectrum(g.spatial, 0.5 * profile)
    return g, solver_mod.CauchyData(u0, u1, r, s), ns


def cmd_solve(cfg, args):
    g, data, ns = _solve_setup(cfg, args)
    delta = _get(cfg, "params", "delta", float, None)
    b = _get(cfg, "params", "b", float, _DEFAULT_B)

    def run():
        if delta is None:
            chosen, trace = solver_mod.select_delta(data, ns, g, b=b)
        else:
            chosen, trace = delta, []
        scfg = solver_mod.default_config(g, chosen, b=b)
        fp, fm = solver_mod.to_first_order(data)
        rep = solver_mod.solve_local(fp, fm, ns, scfg, r=data.r, s=data.s)
        rows = [{"t_index": i, "persistence": float(v)} for i, v in enumerate(rep.persistence)]
        summary = {
            "params": {"k": ns.k, "derivative": ns.derivative, "delta": chosen,
                       "r": data.r, "s": data.s},
            "delta_trace": trace,
            "converged": rep.result.converged,
            "diverged": rep.result.diverged,
            "status": rep.status,
            "iterations": rep.result.iterations,
            "real_data": rep.result.real_data,
            "contraction_factors": rep.result.rhos,
            "restricted_distances": rep.result.restricted_distances,
            "restricted_contraction_factors": rep.result.restricted_rhos,
            "residual": rep.residual,
            "residual_scale": rep.residual_scale,
            "max_persistence_jump": rep.max_jump,
            "z_value": rep.z_value,
        }
        return rows, summary, bool(rep.success)

    return run


def cmd_lipschitz(cfg, args):
    g, data, ns = _solve_setup(cfg, args)
    delta = _get(cfg, "params", "delta", float, 0.25)
    n_pairs = _get(cfg, "sweep", "pairs", _positive_int, 8)
    eps = 0.1 * _get(cfg, "family", "amplitude", float, 0.01)
    seed = _get(cfg, "family", "seed", int, 0)

    def run():
        scfg = solver_mod.default_config(g, delta)
        rng = np.random.default_rng(seed)
        xi = g.spatial.xi_modulus()
        envelope = np.exp(-(xi**2) / 2.0)
        rows = []
        max_ratios, max_off, failed = {}, {}, {}
        for scale_name, scale in (("eps", 1.0), ("eps/2", 0.5)):
            pairs = []
            for _ in range(n_pairs):
                pert = scale * eps * (
                    rng.standard_normal(g.spatial.shape)
                    + 1j * rng.standard_normal(g.spatial.shape)
                ) * envelope
                d2 = solver_mod.CauchyData(
                    Spectrum(g.spatial, data.u0.data + pert), data.u1, data.r, data.s
                )
                pairs.append((data, d2))
            out = solver_mod.flow_lipschitz_probe(pairs, ns, scfg)
            max_ratios[scale_name] = out["max_ratio"]
            max_off[scale_name] = out["max_ratio_off_origin"]
            failed[scale_name] = out["failed"]
            for i, row in enumerate(out["rows"]):
                rows.append({"perturbation": scale_name, "pair": i,
                             "ratio": row["ratio"], "status": row["status"]})
        r1, r2 = max_ratios["eps"], max_ratios["eps/2"]
        stable = r1 is not None and r2 is not None and abs(r2 / r1 - 1.0) <= 0.3
        summary = {"max_ratio": r1, "max_ratio_half": r2, "stable": stable,
                   "max_ratio_off_origin": max_off["eps"],
                   "max_ratio_off_origin_half": max_off["eps/2"],
                   "failed": failed["eps"], "failed_half": failed["eps/2"],
                   "params": {"pairs": n_pairs, "eps": eps, "delta": delta}}
        return rows, summary, bool(stable) and not any(failed.values())

    return run


_COMMANDS = {
    "norms": cmd_norms,
    "reduce": cmd_reduce,
    "lemma": cmd_lemma,
    "key": cmd_key,
    "sharpness": cmd_sharpness,
    "lowfreq": cmd_lowfreq,
    "strichartz": cmd_strichartz,
    "extremize": cmd_extremize,
    "solve": cmd_solve,
    "lipschitz": cmd_lipschitz,
}


def _write_outputs(out_dir, command, rows, summary, passed, runtime, timing):
    os.makedirs(out_dir, exist_ok=True)
    columns = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    csv_path = os.path.join(out_dir, f"{command}.csv")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(row.get(col)) for col in columns])
    payload = {
        "command": command,
        "passed": passed,
        "summary": summary,
        "runtime_seconds": runtime if timing else None,
    }
    json_path = os.path.join(out_dir, f"{command}.json")
    with open(json_path, "w") as fh:
        json.dump(_strict(payload), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return csv_path, json_path


def _cell(val):
    if val is None:
        return ""
    if isinstance(val, (float, np.floating)):
        return repr(float(val))
    return str(val)


def _strict(val):
    """val with numpy values made Python ones and NaN or +-inf made None:
    strict JSON (RFC 8259) has no token for a non-finite number."""
    if isinstance(val, dict):
        return {key: _strict(x) for key, x in val.items()}
    if isinstance(val, (list, tuple, np.ndarray)):
        return [_strict(x) for x in val]
    if isinstance(val, (np.floating, np.integer)):
        val = val.item()
    if isinstance(val, float) and not math.isfinite(val):
        return None
    return val


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="halfwave",
        description="Numerical experiments for bilinear wave estimates and the local solver.",
    )
    parser.add_argument("--config", help="INI config file")
    parser.add_argument("--set", action="append", metavar="SEC.KEY=VAL",
                        help="override a config value")
    parser.add_argument("--out", default="halfwave_out", help="output directory")
    parser.add_argument("--seed", type=int, help="override family.seed")
    parser.add_argument("--timing", action="store_true",
                        help="record wall-clock runtimes (breaks byte-determinism)")
    parser.add_argument("--input", help="input field container (norms, solve, lipschitz)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        if name == "lemma":
            p.add_argument("--suite", default="elliptic",
                           choices=["elliptic", "hyperbolic", "shell"])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    try:
        cfg = apply_overrides(load_config(args.config), args.set)
        given = [(sec, key) for sec, section in cfg.items() for key in section]
        if args.seed is not None:
            cfg["family"]["seed"] = str(args.seed)
        t0 = time.perf_counter()
        run = _COMMANDS[args.command](cfg, args)
        unread = [f"{sec}.{key}" for sec, key in given if key not in cfg[sec].read]
        if unread:
            raise UsageError(f"{args.command} does not read {', '.join(unread)}")
        rows, summary, passed = run()
        runtime = time.perf_counter() - t0
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (HalfwaveError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    csv_path, json_path = _write_outputs(
        args.out, args.command, rows, summary, passed, runtime, args.timing
    )
    print(f"{args.command}: {'pass' if passed else 'FAIL'} ({csv_path}, {json_path})")
    return 0 if passed else 2


if __name__ == "__main__":
    sys.exit(main())
