"""CLI: config handling, outputs, exit codes, determinism."""

import filecmp
import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest
import scipy.fft

from halfwave import dyadic
from halfwave.bilinear import SurfaceMassResult
from halfwave import cli
from halfwave import solver as solver_mod
from halfwave import verify
from halfwave.cli import main
from halfwave.fieldio import write_field
from halfwave.grid import SpatialGrid, Spectrum


def _run(tmp_path, *argv):
    out = tmp_path / "out"
    return main(["--out", str(out), *argv]), out


def test_reduce_table(tmp_path):
    code, out = _run(tmp_path, "reduce")
    assert code == 0
    lines = (out / "reduce.csv").read_text().strip().splitlines()
    assert lines[0] == "a,p,q,region,value,abserr,converged"
    for line in lines[1:]:
        value, abserr, converged = line.split(",")[4:]
        assert float(value) == pytest.approx(2.0, rel=1e-10)
        assert 0.0 <= float(abserr) < 1e-12 and converged == "True"
    payload = json.loads((out / "reduce.json").read_text())
    assert payload["passed"] is True
    assert payload["runtime_seconds"] is None  # no --timing


def test_reduce_unconverged_row_fails(tmp_path):
    """A zero of the integrand just outside an end of the interval leaves the
    quadrature unconverged; the row says so and the command exits 2."""
    code, out = _run(tmp_path, "--set", "sweep.a_values=1.000000000000001",
                     "--set", "params.p=-0.9", "--set", "params.q=0.3", "reduce")
    assert code == 2
    assert (out / "reduce.csv").read_text().strip().splitlines()[1].endswith(",False")
    assert json.loads((out / "reduce.json").read_text())["passed"] is False


def test_unknown_config_key(tmp_path, capsys):
    code, out = _run(tmp_path, "--set", "params.nope=1", "reduce")
    assert code == 1
    assert not (out / "reduce.csv").exists()


@pytest.mark.parametrize("key", ["params.s1", "params.s2", "params.a", "family.scale"])
def test_unread_config_key_rejected(tmp_path, key):
    """Keys that no command reads are unknown keys, not silent no-ops."""
    code, out = _run(tmp_path, "--set", f"{key}=64", "sharpness")
    assert code == 1
    assert not (out / "sharpness.csv").exists()


# For each command, a key it never reads (lemma runs its default elliptic suite)
_UNREAD_BY_COMMAND = {
    "norms": "sweep.lams",
    "reduce": "grid.n",
    "lemma": "params.h",
    "key": "params.h",
    "sharpness": "params.b",
    "lowfreq": "family.kind",
    "strichartz": "params.r",
    "extremize": "sweep.lams",
    "solve": "sweep.pairs",
    "lipschitz": "sweep.lams",
}


# With --input the data come from the file, so the Gaussian's keys go unread;
# lipschitz still reads family.amplitude for its perturbation size
_UNREAD_WITH_INPUT = {
    "solve": ("family.amplitude", "family.width"),
    "lipschitz": ("family.width",),
}


def _spectrum_file(tmp_path):
    sg = SpatialGrid(8, np.pi)
    path = tmp_path / "data.hw"
    write_field(path, Spectrum(sg, np.exp(-(sg.xi_modulus() ** 2)).astype(complex)))
    return path


def _input_argv(tmp_path):
    """--input of _spectrum_file, with the spatial lattice set to match it."""
    return ["--input", str(_spectrum_file(tmp_path)),
            "--set", "grid.n=8", "--set", f"grid.l={math.pi!r}"]


def _rejected(tmp_path, capsys, command, target, *argv):
    """Whether target (sec.key) given through --set and through --config each
    exits 1, writes nothing and is named as a key the command does not read."""
    sec, key = target.split(".")
    ini = tmp_path / "run.ini"
    ini.write_text(f"[{sec}]\n{key} = 4, 8\n")
    for given in (["--set", f"{target}=4,8"], ["--config", str(ini)]):
        code, out = _run(tmp_path, *given, *argv)
        if code != 1 or out.exists():
            return False
    return capsys.readouterr().err.count(f"{command} does not read {target}") == 2


@pytest.mark.parametrize("command", sorted(_UNREAD_BY_COMMAND))
def test_key_unread_by_command_rejected(tmp_path, capsys, command):
    """A key that is valid for some command but not read by this one, a key
    no command reads and a section no command reads each exit 1 before
    anything runs, whether they come from --set or from --config; so do the
    Gaussian data's keys when solve or lipschitz reads its data from --input."""
    assert set(_UNREAD_BY_COMMAND) == set(cli._COMMANDS)
    argv = ["--input", str(_spectrum_file(tmp_path))] if command == "norms" else []
    argv.append(command)
    for target in (_UNREAD_BY_COMMAND[command], "params.nope", "mystery.x"):
        assert _rejected(tmp_path, capsys, command, target, *argv), target
    argv = [*_input_argv(tmp_path), command]
    for target in _UNREAD_WITH_INPUT.get(command, ()):
        assert _rejected(tmp_path, capsys, command, target, *argv), target


def test_lipschitz_does_not_read_b(tmp_path, capsys):
    """The probe's ratios and the extremizer's free-wave ratio read no
    X-norm, so lipschitz and extremize form none and params.b, which solve
    reads, is a key neither reads."""
    for command in ("lipschitz", "extremize"):
        assert _rejected(tmp_path, capsys, command, "params.b", command), command


def test_lipschitz_input_reads_amplitude(tmp_path):
    """With --input, family.amplitude still sets lipschitz's perturbation size."""
    code, out = _run(tmp_path, *_input_argv(tmp_path), "--set", "grid.m=16",
                     "--set", "family.amplitude=0.02", "--set", "sweep.pairs=1", "lipschitz")
    params = json.loads((out / "lipschitz.json").read_text())["summary"]["params"]
    assert code in (0, 2) and params["eps"] == pytest.approx(0.002)


def test_percent_in_a_config_value(tmp_path, capsys):
    """A '%' is read as written: a bad value is an error line naming its key,
    with no traceback and nothing written."""
    path = tmp_path / "run.ini"
    path.write_text("[sweep]\na_values = 1%\n")
    code, out = _run(tmp_path, "--config", str(path), "reduce")
    assert code == 1 and not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: bad value for sweep.a_values: '1%'")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["solve", "lipschitz"])
def test_input_on_another_lattice(tmp_path, capsys, command):
    """An --input spectrum on a lattice other than grid.n/grid.l's is refused
    with both lattices named, and nothing is written."""
    code, out = _run(tmp_path, "--input", str(_spectrum_file(tmp_path)), command)
    assert code == 1 and not out.exists()
    err = capsys.readouterr().err
    assert f"N = 8, L = {math.pi!r}" in err
    assert f"grid.n = 16, grid.l = {2 * math.pi!r}" in err
    assert "different lattices" not in err


@pytest.mark.parametrize("ini, command, key", [
    ("[DEFAULT]\nlams = 2,4\n", "reduce", "lams"),
    ("[DEFAULT]\nbudget = 6\n\n[grid]\nn = 8\nm = 16\n", "extremize", "budget"),
])
def test_default_section_refused(tmp_path, capsys, ini, command, key):
    """[DEFAULT] is an ordinary section, which no command reads: its keys
    exit 1 with nothing written, named as DEFAULT keys, and reach no other
    section."""
    path = tmp_path / "run.ini"
    path.write_text(ini)
    code, out = _run(tmp_path, "--config", str(path), command)
    assert code == 1 and not out.exists()
    err = capsys.readouterr().err
    assert f"{command} does not read DEFAULT.{key}" in err and "grid." not in err


def test_seed_flag_is_exempt(tmp_path, capsys):
    """--seed sets family.seed for every command; --set family.seed does not."""
    code, out = _run(tmp_path / "a", "--seed", "3", "reduce")
    assert code == 0
    code, out = _run(tmp_path / "b", "--set", "family.seed=3", "reduce")
    assert code == 1 and not out.exists()
    assert "reduce does not read family.seed" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["knapp-box", "shell-concentrated"])
def test_extremize_reads_family_kind(tmp_path, kind):
    """family.kind restricts the extremizer search to that one family."""
    code, out = _run(tmp_path, "--set", "sweep.budget=120", "--set", f"family.kind={kind}",
                     "extremize")
    assert code == 0
    summary = json.loads((out / "extremize.json").read_text())["summary"]
    assert summary["best_kind"] == kind and summary["evaluations"] <= 120
    assert summary["converged"]


@pytest.mark.parametrize("budget, code", [("6", 2), ("0", 1), ("-3", 1)])
def test_extremize_judges_convergence(tmp_path, budget, code):
    """A search that stops unconverged fails, exit 2, however finite its
    ratio; a budget below one evaluation is a configuration error, exit 1."""
    got, out = _run(tmp_path, "--set", f"sweep.budget={budget}",
                    "--set", "family.kind=knapp-box", "extremize")
    assert got == code
    if code == 1:
        assert not out.exists()
    else:
        payload = json.loads((out / "extremize.json").read_text())
        assert payload["passed"] is False and payload["summary"]["converged"] is False


def test_malformed_override(tmp_path):
    code, _ = _run(tmp_path, "--set", "garbage", "reduce")
    assert code == 1


def test_missing_config_file(tmp_path):
    code, _ = _run(tmp_path, "--config", str(tmp_path / "nope.ini"), "reduce")
    assert code == 1


def test_config_file_and_override(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[params]\np = -0.5\nq = 0.5\n\n[sweep]\na_values = 1.0\n")
    code, out = _run(tmp_path, "--config", str(ini), "reduce")
    assert code == 0
    lines = (out / "reduce.csv").read_text().strip().splitlines()
    assert len(lines) == 2
    assert float(lines[1].split(",")[4]) == pytest.approx(np.pi, abs=1e-6)


def test_config_unknown_section(tmp_path, capsys):
    """A section no command reads is refused from the config file: exit 1,
    nothing written, and the error names its key."""
    ini = tmp_path / "run.ini"
    ini.write_text("[mystery]\nx = 1\n")
    code, out = _run(tmp_path, "--config", str(ini), "reduce")
    assert code == 1 and not out.exists()
    assert "reduce does not read mystery.x" in capsys.readouterr().err


def test_override_validation(tmp_path, capsys):
    """An override of a key no command reads is refused the same way."""
    code, out = _run(tmp_path, "--set", "grid.q=1", "solve")
    assert code == 1 and not out.exists()
    assert "solve does not read grid.q" in capsys.readouterr().err


def test_set_keys_are_case_insensitive(tmp_path):
    """--set lower-cases the key, as configparser does for INI keys; the
    section name stays case-sensitive."""
    outs = []
    for key in ("N", "n"):
        code, out = _run(tmp_path / key, "--set", f"grid.{key}=8", "--set", "sweep.samples=2",
                         "lowfreq")
        assert code in (0, 2)
        outs.append(out)
    for suffix in ("csv", "json"):
        assert filecmp.cmp(*(out / f"lowfreq.{suffix}" for out in outs), shallow=False)
    code, out = _run(tmp_path / "sec", "--set", "GRID.n=8", "lowfreq")
    assert code == 1 and not out.exists()


@pytest.mark.parametrize("argv", [
    ["--set", "sweep.lams=", "key"],
    ["--set", "sweep.lams=", "lemma"],
    ["--set", "sweep.lams= , ", "strichartz"],
    ["--set", "sweep.shells=", "lemma", "--suite", "shell"],
    ["--set", "sweep.shells=3", "lemma", "--suite", "shell"],
    ["--set", "sweep.shells=3,3", "lemma", "--suite", "shell"],
    ["--set", "sweep.samples=0", "lowfreq"],
    ["--set", "sweep.a_values=", "reduce"],
    ["--set", "sweep.pairs=0", "lipschitz"],
    ["--set", "sweep.pairs=-1", "lipschitz"],
], ids=lambda argv: " ".join(argv[1:]))
def test_empty_sweep_is_a_usage_error(tmp_path, argv):
    """A sweep with nothing to judge, or a shell slope with one point, is a
    configuration error: exit 1 before anything runs, and nothing written."""
    code, out = _run(tmp_path, *argv)
    assert code == 1
    assert not out.exists()


def test_shell_slope_needs_two_distinct_shells(tmp_path, capsys):
    """A repeated shell is one point of the slope fit: 3,3 is refused with
    an error line and nothing written, and 3,3,4 is read as given."""
    code, out = _run(tmp_path, "--set", "sweep.shells=3,3", "lemma", "--suite", "shell")
    assert code == 1 and not out.exists()
    assert "error: bad value for sweep.shells" in capsys.readouterr().err
    assert cli._shells("3,3,4") == (3, 3, 4)


# a ladder of one distinct scale, or one sample: its output file and the
# spreads its JSON summary (or the summary's params) reports
_ONE_SCALE_RUNS = {
    "lemma-elliptic": (["--set", "sweep.lams=8", "lemma", "--suite", "elliptic"], "lemma",
                       ["spread"]),
    "lemma-hyperbolic": (["--set", "sweep.lams=4,4", "lemma", "--suite", "hyperbolic"], "lemma",
                         ["spread", "spread_P", "spread_Q"]),
    "key": (["--set", "sweep.lams=4,4,4", "key"], "key", ["spread", "spread_free", "spread_full"]),
    "strichartz": (["--set", "sweep.lams=8", "strichartz"], "strichartz", ["spread"]),
    "lowfreq": (["--set", "sweep.samples=1", "lowfreq"], "lowfreq", ["spread"]),
}


def _strict_json(path):
    """path read as strict JSON: a NaN or Infinity token is an error."""
    def refuse(token):
        raise ValueError(f"{path.name} holds the non-JSON token {token}")
    return json.loads(path.read_text(), parse_constant=refuse)


@pytest.mark.parametrize("run", sorted(_ONE_SCALE_RUNS))
def test_one_scale_run_fails(tmp_path, run):
    """A spread over one distinct scale bounds nothing: it is NaN, written
    as null, and the run exits 2."""
    argv, name, keys = _ONE_SCALE_RUNS[run]
    code, out = _run(tmp_path, "--set", "grid.n=8", "--set", "grid.m=16", *argv)
    assert code == 2
    summary = _strict_json(out / f"{name}.json")["summary"]
    values = {**summary["params"], **summary}
    assert all(values[key] is None for key in keys)


def test_json_holds_no_nonfinite_token():
    """A non-finite value at any depth, numpy or Python, is written as null;
    finite values are written as before."""
    payload = {"a": math.nan, "b": [np.float64(-np.inf), 1.5, (np.inf, 2)],
               "c": {"d": np.array([[np.nan, 0.25]])}, "e": np.int64(3), "f": None}
    strict = json.loads(json.dumps(cli._strict(payload), allow_nan=False))
    assert strict == {"a": None, "b": [None, 1.5, [None, 2]], "c": {"d": [[None, 0.25]]},
                      "e": 3, "f": None}


@pytest.mark.parametrize("argv, name, groups", [
    (["key"], "key", ("free", "full")),
    (["lemma", "--suite", "hyperbolic"], "lemma", ("P", "Q")),
])
def test_group_judged_run_writes_no_overall_spread(tmp_path, argv, name, groups):
    """A report judged on its row groups, whose ratios use different norms,
    writes its group spreads and no spread over all rows."""
    code, out = _run(tmp_path, "--set", "grid.n=8", "--set", "grid.m=16", *argv)
    assert code == 0
    summary = _strict_json(out / f"{name}.json")["summary"]
    assert summary["spread"] is None
    assert all(1.0 <= summary["params"][f"spread_{g}"] <= verify.BOUNDED_SPREAD for g in groups)


def test_unjudged_report_never_passes():
    """A report that nothing judged (passed is None) is written as a failure."""
    rep = verify.EstimateReport("empty", {}).finalize()
    assert rep.skipped and rep.passed is None
    assert cli._report_to_outputs(rep)[2] is False


def test_lemma_determinism(tmp_path):
    code1, out1 = _run(tmp_path / "a", "lemma", "--suite", "elliptic")
    code2, out2 = _run(tmp_path / "b", "lemma", "--suite", "elliptic")
    assert code1 == 0 and code2 == 0
    assert filecmp.cmp(out1 / "lemma.csv", out2 / "lemma.csv", shallow=False)
    assert filecmp.cmp(out1 / "lemma.json", out2 / "lemma.json", shallow=False)


@pytest.mark.parametrize("converged,code", [(True, 0), (False, 2)])
def test_lemma_shell_reads_convergence(tmp_path, monkeypatch, converged, code):
    """An unconverged shell mass fails the suite even when the slopes are exact."""
    def fake(xi_vec, tau, sp, weight, h, mask, **kw):
        return SurfaceMassResult(mask.sh_hi ** 2, converged=converged, n_final=64)

    monkeypatch.setattr(dyadic, "surface_mass", fake)
    got, out = _run(tmp_path, "lemma", "--suite", "shell")
    assert got == code
    lines = (out / "lemma.csv").read_text().strip().splitlines()
    assert lines[0] == "surface,shell,value,converged"
    assert lines[1].endswith(f",{converged}")
    payload = json.loads((out / "lemma.json").read_text())
    assert payload["summary"]["slopes"] == [2.0, 2.0]


@pytest.mark.parametrize("command", ["lowfreq", "strichartz"])
def test_grid_size_is_read(tmp_path, command):
    """grid.n reaches the check: a smaller lattice changes the rows."""
    code1, out1 = _run(tmp_path / "a", command)
    code2, out2 = _run(tmp_path / "b", "--set", "grid.n=8", command)
    assert code1 == 0 and code2 == 0
    csv = f"{command}.csv"
    assert not filecmp.cmp(out1 / csv, out2 / csv, shallow=False)


def test_criterion_failure_exit_2(tmp_path):
    """A borderline split (sum just under 1) shows neither clear growth nor
    boundedness is claimed: the growth branch fails, exit 2."""
    code, out = _run(
        tmp_path, "--set", "params.sigma1=0.5", "--set", "params.sigma2=0.45",
        "strichartz",
    )
    assert code == 2
    payload = json.loads((out / "strichartz.json").read_text())
    assert payload["passed"] is False


def test_norms_command(tmp_path):
    sg = SpatialGrid(8, np.pi)
    xi = sg.xi_modulus()
    path = tmp_path / "data.hw"
    write_field(path, Spectrum(sg, np.exp(-(xi**2)).astype(complex)))
    code, out = _run(tmp_path, "--input", str(path), "norms")
    assert code == 0
    lines = (out / "norms.csv").read_text().strip().splitlines()
    assert lines[0] == "norm,value"
    assert lines[1].startswith("sobolev_hat,")


def test_norms_rejects_non_finite_lattice(tmp_path):
    """A container whose L is NaN is a load error, exit 1, with no output."""
    sg = SpatialGrid(8, np.pi)
    path = tmp_path / "data.hw"
    write_field(path, Spectrum(sg, np.ones(sg.shape, complex)))
    raw = bytearray(path.read_bytes())
    raw[24:32] = struct.pack("<d", math.nan)
    path.write_bytes(bytes(raw))
    code, out = _run(tmp_path, "--input", str(path), "norms")
    assert code == 1 and not out.exists()


def test_norms_fails_on_non_finite_value(tmp_path):
    sg = SpatialGrid(8, np.pi)
    data = np.ones(sg.shape, complex)
    data[1, 2, 3] = np.inf
    path = tmp_path / "data.hw"
    write_field(path, Spectrum(sg, data))
    code, out = _run(tmp_path, "--input", str(path), "norms")
    assert code == 2
    assert json.loads((out / "norms.json").read_text())["passed"] is False


def test_solve_large_data_fails_at_the_delta_floor(tmp_path):
    """Data too large to contract at delta = 2 dt fail: the solve is not run
    on a core of t = 0 alone, where nothing is measured."""
    code, out = _run(tmp_path, "--set", "family.amplitude=2000", "--set", "params.k=2",
                     "--set", "params.derivative=t", "solve")
    summary = json.loads((out / "solve.json").read_text())["summary"]
    trace = summary["delta_trace"]
    assert code == 2 and summary["status"] != "converged"
    assert [row["delta"] for row in trace] == [summary["params"]["delta"]] == [2.0 / 32]
    assert trace[0]["rho1"] >= 0.9


def test_solve_delta_trace_carries_trial_status(tmp_path):
    """Each delta_trace entry holds the trial's status; a trial that stopped
    non-finite writes rho1 null, is not accepted, and the solve fails."""
    small = ["--set", "grid.n=8", "--set", "grid.m=16"]
    code, out = _run(tmp_path / "a", *small, "solve")
    trace = json.loads((out / "solve.json").read_text())["summary"]["delta_trace"]
    assert code == 0 and trace[-1]["status"] == "unconverged" and trace[-1]["rho1"] < 0.9
    with np.errstate(over="ignore", invalid="ignore"):
        code, out = _run(tmp_path / "b", *small, "--set", "family.amplitude=1e150", "solve")
    payload = json.loads((out / "solve.json").read_text())
    assert code == 2 and payload["passed"] is False
    assert payload["summary"]["delta_trace"] == [
        {"delta": 0.25, "rho1": None, "status": "nonfinite"}]
    assert payload["summary"]["status"] == "nonfinite"


def test_sharpness_reports_exponent(tmp_path):
    code, out = _run(tmp_path, "--set", "params.sigma=0.5", "sharpness")
    assert code == 0
    payload = json.loads((out / "sharpness.json").read_text())
    assert payload["summary"]["exponent"] >= 0.4


def test_sharpness_needs_three_distinct_scales(tmp_path, capsys):
    """Repeated scales cannot fit an exponent: exit 1, an error line, and
    nothing written."""
    code, out = _run(tmp_path, "--set", "sweep.lams=4,4,4", "sharpness")
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_seed_flag_changes_family(tmp_path):
    _, out1 = _run(tmp_path / "a", "--seed", "0",
                   "--set", "family.kind=random-bandlimited", "lemma", "--suite", "elliptic")
    _, out2 = _run(tmp_path / "b", "--seed", "1",
                   "--set", "family.kind=random-bandlimited", "lemma", "--suite", "elliptic")
    assert not filecmp.cmp(out1 / "lemma.csv", out2 / "lemma.csv", shallow=False)


def test_solve_reports_picard_path(tmp_path):
    """The default Gaussian data are real; a complex input spectrum is not."""
    small = ["--set", "grid.n=8", "--set", "grid.m=16", "--set", "params.delta=0.25"]
    code, out = _run(tmp_path, *small, "solve")
    assert code == 0
    assert json.loads((out / "solve.json").read_text())["summary"]["real_data"] is True
    sg = SpatialGrid(8, 2 * np.pi)
    rng = np.random.default_rng(0)
    envelope = 0.01 * np.exp(-(sg.xi_modulus() ** 2) / 2.0)
    path = tmp_path / "complex.hwf"
    write_field(path, Spectrum(sg, (rng.standard_normal(sg.shape) + 1j) * envelope))
    code, out = _run(tmp_path, *small, "--input", str(path), "solve")
    assert code == 0
    assert json.loads((out / "solve.json").read_text())["summary"]["real_data"] is False


def test_solve_empty_audit_fails(tmp_path):
    """A converged solve with no slice left to audit is reported unaudited and fails."""
    code, out = _run(tmp_path, "--set", "grid.n=8", "--set", "grid.m=4",
                     "--set", "params.delta=0.5", "solve")
    payload = _strict_json(out / "solve.json")
    assert code == 2 and payload["passed"] is False
    assert payload["summary"]["status"] == "unaudited" and payload["summary"]["converged"]
    assert payload["summary"]["residual"] is None


def test_solve_reports_picard_status(tmp_path):
    """The solve JSON carries the Picard status next to the two flags it sets."""
    code, out = _run(tmp_path, "--set", "grid.n=8", "--set", "grid.m=16",
                     "--set", "params.delta=0.25", "solve")
    summary = json.loads((out / "solve.json").read_text())["summary"]
    assert code == 0
    assert summary["status"] == "converged"
    assert summary["converged"] is True and summary["diverged"] is False


@pytest.mark.parametrize("k, derivative", [(1, "x1"), (1, "t"), (2, "x1"), (2, "t")])
def test_solve_reports_restricted_contraction(tmp_path, k, derivative):
    """The solve JSON carries the windowed X^{s,b} distances and their step
    ratios, at least one of them, and the default data contract in that norm
    with every factor below 0.5, the bound criterion 8 puts on the sup-norm
    factors."""
    code, out = _run(tmp_path, "--set", f"params.k={k}", "--set",
                     f"params.derivative={derivative}", "--set", "params.delta=0.25", "solve")
    summary = json.loads((out / "solve.json").read_text())["summary"]
    dr = summary["restricted_distances"]
    factors = summary["restricted_contraction_factors"]
    assert code == 0 and len(dr) == summary["iterations"] >= 2
    assert factors == [cur / prev for prev, cur in zip(dr, dr[1:])]
    assert all(f < 0.5 for f in factors)


def test_lipschitz_fails_on_a_failed_pair(tmp_path, monkeypatch):
    """A pair whose solve does not converge fails the command, however
    stable the ratios of the other pairs; the summary counts it."""
    calls = []
    solve = solver_mod.picard_iterate

    def second_unconverged(*args, **kwargs):
        res = solve(*args, **kwargs)
        calls.append(None)
        if len(calls) == 2:         # the first perturbed datum
            res.status = "unconverged"
        return res

    monkeypatch.setattr(solver_mod, "picard_iterate", second_unconverged)
    code, out = _run(tmp_path, *_SMALL, "--set", "sweep.pairs=3", "lipschitz")
    payload = json.loads((out / "lipschitz.json").read_text())
    summary = payload["summary"]
    assert code == 2 and payload["passed"] is False
    assert summary["failed"] == 1 and summary["failed_half"] == 0 and summary["stable"]
    statuses = (out / "lipschitz.csv").read_text().count
    assert statuses("no-contraction") == 1 and statuses(",ok") == 5


def test_lipschitz_passes_with_no_failed_pair(tmp_path):
    """At its defaults every pair contracts and the command passes."""
    code, out = _run(tmp_path, *_SMALL, "--set", "sweep.pairs=2", "lipschitz")
    payload = json.loads((out / "lipschitz.json").read_text())
    assert code == 0 and payload["passed"] is True
    assert payload["summary"]["failed"] == payload["summary"]["failed_half"] == 0


def test_solve_at_the_selected_delta_matches_delta_selection(tmp_path):
    """A delta-selected solve resumes select_delta's accepted trial; solving
    again with that delta given writes the same solve.json, delta_trace
    aside, and a cmp-identical persistence CSV."""
    code, out = _run(tmp_path / "a", "solve")
    selected = json.loads((out / "solve.json").read_text())
    delta = selected["summary"]["params"]["delta"]
    assert code == 0 and selected["summary"]["delta_trace"][-1]["delta"] == delta
    code, given = _run(tmp_path / "b", "--set", f"params.delta={delta!r}", "solve")
    payload = json.loads((given / "solve.json").read_text())
    assert code == 0 and payload["summary"].pop("delta_trace") == []
    selected["summary"].pop("delta_trace")
    assert payload == selected
    assert filecmp.cmp(out / "solve.csv", given / "solve.csv", shallow=False)


_SMALL = ["--set", "grid.n=8", "--set", "grid.m=16"]


@pytest.mark.parametrize("delta", ["0", "-0.25"])
def test_solve_refuses_a_nonpositive_delta(tmp_path, capsys, delta):
    """delta is selected only when params.delta is absent: a given delta
    <= 0 exits 1 with nothing written."""
    code, out = _run(tmp_path, *_SMALL, "--set", f"params.delta={delta}", "solve")
    assert code == 1 and not out.exists()
    assert "delta must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "lipschitz"])
def test_a_nan_delta_is_refused(tmp_path, capsys, command):
    """delta = NaN fails delta <= 0 and delta > 0.95 T alike: the config
    refuses it, and the command exits 1 with nothing written."""
    code, out = _run(tmp_path, *_SMALL, "--set", "params.delta=nan", command)
    assert code == 1 and not out.exists()
    assert capsys.readouterr().err.startswith("error: delta = nan does not fit the time box")


@pytest.mark.parametrize("b", ["nan", "inf"])
def test_solve_refuses_a_nonfinite_b(tmp_path, capsys, b):
    """A non-finite b is refused where b <= 1/r is: exit 1, nothing written."""
    code, out = _run(tmp_path, *_SMALL, "--set", f"params.b={b}", "solve")
    assert code == 1 and not out.exists()
    assert "finite b > 1/r" in capsys.readouterr().err


@pytest.mark.parametrize("key, argv", [
    ("params.b=nan", ["key"]),
    ("params.b=inf", ["key"]),
    ("params.sigma=nan", ["key"]),
    ("params.sigma=nan", ["lemma"]),
    ("params.sigma=nan", ["lemma", "--suite", "hyperbolic"]),
    ("params.sigma=nan", ["extremize"]),
    ("params.sigma1=nan", ["strichartz"]),
    ("params.sigma=nan", ["lowfreq"]),
    ("params.sigma=nan", ["sharpness"]),
])
def test_estimate_checks_refuse_a_nonfinite_sigma_or_b(tmp_path, capsys, key, argv):
    """A non-finite sigma or b is refused before the ladder runs: exit 1,
    an error line and nothing written."""
    code, out = _run(tmp_path, *_SMALL, "--set", key, *argv)
    assert code == 1 and not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "finite" in err


def test_solve_refuses_a_nonfinite_s(tmp_path, capsys):
    """s = NaN is refused with the data, before a delta is chosen."""
    code, out = _run(tmp_path, *_SMALL, "--set", "params.s=nan", "solve")
    assert code == 1 and not out.exists()
    assert capsys.readouterr().err.startswith("error: the data regularity s must be finite")


def test_solve_refuses_b_at_most_one_over_r(tmp_path, capsys):
    """At r = 1.5 the default b = 0.55 is below 1/r: the solve exits 1 with
    nothing written, and with b = 0.7 it runs."""
    code, out = _run(tmp_path, "--seed", "0", "--set", "params.r=1.5", "solve")
    assert code == 1 and not out.exists()
    assert "b > 1/r" in capsys.readouterr().err
    code, out = _run(tmp_path, "--seed", "0", "--set", "params.r=1.5", "--set", "params.b=0.7",
                     "solve")
    assert code == 0
    assert json.loads((out / "solve.json").read_text())["passed"] is True


# every command, on small inputs where it reads them, and the settings changes
# quote: solve and lipschitz at their full defaults, and a k = 2 d_t solve
_DETERMINISM_RUNS = {
    "norms": [],            # on a small input file, see _seed0_outputs
    "reduce": [],
    "lemma-elliptic": _SMALL + ["lemma", "--suite", "elliptic"],
    "lemma-hyperbolic": _SMALL + ["--set", "sweep.lams=2,4", "lemma", "--suite", "hyperbolic"],
    "lemma-shell": ["--set", "sweep.shells=2,3", "lemma", "--suite", "shell"],
    "key": _SMALL + ["--set", "sweep.lams=2,4"],
    "sharpness": _SMALL,
    "lowfreq": _SMALL + ["--set", "sweep.samples=2"],
    "strichartz": _SMALL + ["--set", "sweep.lams=2,4"],
    "extremize": _SMALL + ["--set", "sweep.budget=6"],
    "solve": _SMALL,
    "solve-defaults": [],
    "solve-k2-dt": _SMALL + ["--set", "params.k=2", "--set", "params.derivative=t"],
    "lipschitz": _SMALL + ["--set", "sweep.pairs=2"],
    "lipschitz-defaults": [],
}

GOLDEN = Path(__file__).parent / "golden"


def _seed0_outputs(where, run, workers=1):
    """(exit code, {suffix: bytes}) of a --seed 0 run of _DETERMINISM_RUNS[run]
    with the FFTs on `workers` threads, writing under the new directory
    where.  norms reads _spectrum_file(where), and its JSON echoes that path
    as the file name alone, so that the bytes do not depend on where."""
    command = run.split("-")[0]
    argv = _DETERMINISM_RUNS[run]
    if command == "norms":
        data = _spectrum_file(where)
        argv = ["--input", str(data), "norms"]
    elif command != "lemma":
        argv = argv + [command]
    with scipy.fft.set_workers(workers):
        code, out = _run(where, "--seed", "0", *argv)
    outputs = {suffix: (out / f"{command}.{suffix}").read_bytes() for suffix in ("csv", "json")}
    if command == "norms":
        outputs["json"] = outputs["json"].replace(json.dumps(str(data)).encode(),
                                                  json.dumps(data.name).encode())
    return code, outputs


def _first_difference(got: bytes, want: bytes) -> str:
    """The first line where got and want differ, as 'line n: got ... golden ...'."""
    a, b = got.decode().splitlines(), want.decode().splitlines()
    n = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    line = lambda lines: lines[n] if n < len(lines) else "<end of file>"
    return f"line {n + 1}: got {line(a)!r}, golden {line(b)!r}"


@pytest.mark.parametrize("run", sorted(_DETERMINISM_RUNS))
def test_every_command_is_deterministic(tmp_path, run):
    """Two --seed 0 runs of a command in one process, and a third with the
    FFTs on two threads, write cmp-identical CSV and JSON, the solver's
    trial memo notwithstanding; and the first run writes the bytes of
    tests/golden/<run>.csv and .json.

    The golden files pin the output bits of numpy 2.4.6 and scipy 1.17.1
    (pocketfft): another version may round differently and fail here.  A
    change that moves an output on purpose rewrites them with
    `python tests/make_golden.py`, and names each moved file."""
    assert {name.split("-")[0] for name in _DETERMINISM_RUNS} == set(cli._COMMANDS)
    outs = []
    for name, workers in (("a", 1), ("b", 1), ("threaded", 2)):
        (tmp_path / name).mkdir()
        code, outputs = _seed0_outputs(tmp_path / name, run, workers)
        assert code in (0, 2)
        outs.append(outputs)
    for suffix, got in outs[0].items():
        want = (GOLDEN / f"{run}.{suffix}").read_bytes()
        assert got == want, f"{run}.{suffix}, " + _first_difference(got, want)
        for name, out in zip(("b", "threaded"), outs[1:]):
            assert out[suffix] == got, name
