"""CLI: config handling, outputs, exit codes, determinism."""

import ast
import filecmp
import json
import math
from pathlib import Path

import numpy as np
import pytest

from halfwave import dyadic
from halfwave.bilinear import SurfaceMassResult
from halfwave import cli
from halfwave.cli import UsageError, apply_overrides, load_config, main
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


def test_accepted_keys_are_read():
    """The keys _SECTIONS accepts are exactly the keys some _get(cfg, sec, key, ...) reads."""
    tree = ast.parse(Path(cli.__file__).read_text())
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_get":
            sec, key = (ast.literal_eval(arg) for arg in node.args[1:3])
            read.add((sec, key))
    accepted = {(sec, key) for sec, keys in cli._SECTIONS.items() for key in keys}
    assert read == accepted


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


def _spectrum_file(tmp_path):
    sg = SpatialGrid(8, np.pi)
    path = tmp_path / "data.hw"
    write_field(path, Spectrum(sg, np.exp(-(sg.xi_modulus() ** 2)).astype(complex)))
    return path


@pytest.mark.parametrize("command", sorted(_UNREAD_BY_COMMAND))
def test_key_unread_by_command_rejected(tmp_path, capsys, command):
    """A key that is valid for some command but not read by this one exits 1
    before anything runs, whether it comes from --set or from --config."""
    assert set(_UNREAD_BY_COMMAND) == set(cli._COMMANDS)
    sec, key = _UNREAD_BY_COMMAND[command].split(".")
    argv = ["--input", str(_spectrum_file(tmp_path))] if command == "norms" else []
    argv.append(command)
    code, out = _run(tmp_path, "--set", f"{sec}.{key}=4,8", *argv)
    assert code == 1 and not out.exists()
    ini = tmp_path / "run.ini"
    ini.write_text(f"[{sec}]\n{key} = 4, 8\n")
    code, out = _run(tmp_path, "--config", str(ini), *argv)
    assert code == 1 and not out.exists()
    assert capsys.readouterr().err.count(f"{command} does not read {sec}.{key}") == 2


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
    code, out = _run(tmp_path, "--set", "sweep.budget=6", "--set", f"family.kind={kind}",
                     "extremize")
    assert code == 0
    summary = json.loads((out / "extremize.json").read_text())["summary"]
    assert summary["best_kind"] == kind and summary["evaluations"] <= 6


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


def test_config_unknown_section(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[mystery]\nx = 1\n")
    with pytest.raises(UsageError):
        load_config(str(ini))


def test_override_validation():
    cfg = load_config(None)
    with pytest.raises(UsageError):
        apply_overrides(cfg, ["grid.q=1"])


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


def test_sharpness_reports_exponent(tmp_path):
    code, out = _run(tmp_path, "--set", "params.sigma=0.5", "sharpness")
    assert code == 0
    payload = json.loads((out / "sharpness.json").read_text())
    assert payload["summary"]["exponent"] >= 0.4


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
    payload = json.loads((out / "solve.json").read_text())
    assert code == 2 and payload["passed"] is False
    assert payload["summary"]["status"] == "unaudited" and payload["summary"]["converged"]
    assert math.isnan(payload["summary"]["residual"])


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
    ratios, and the default data contract in that norm with every factor
    below 0.5, the bound criterion 8 puts on the sup-norm factors."""
    code, out = _run(tmp_path, "--set", f"params.k={k}", "--set",
                     f"params.derivative={derivative}", "--set", "params.delta=0.25", "solve")
    summary = json.loads((out / "solve.json").read_text())["summary"]
    dr = summary["restricted_distances"]
    factors = summary["restricted_contraction_factors"]
    assert code == 0 and len(dr) == summary["iterations"] >= 3
    assert factors == [cur / prev for prev, cur in zip(dr, dr[1:])]
    assert all(f < 0.5 for f in factors)
