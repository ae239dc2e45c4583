"""Verification harness: report mechanics, families, and small-scale checks."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from halfwave import bilinear, kernels, spaces, verify
from halfwave.bilinear import SignPair, _product_block, _symbol_block, product_transform_direct
from halfwave.dyadic import region_masks
from halfwave.errors import ParameterError
from halfwave.grid import SpacetimeField, forward_transform
from halfwave.propagator import EvolutionSpec, free_spacetime
from halfwave.spaces import (
    NormParams,
    WindowSpec,
    _block_norms,
    _free_xsb_norm,
    _grid_window,
    dual_exponent,
    window_values,
    xsb_norm,
)
from halfwave.verify import (
    BOUNDED_SPREAD,
    DataFamily,
    EstimateReport,
    check_elliptic_lemma,
    check_hyperbolic_lemmas,
    check_key_estimate,
    check_lowfreq_young,
    check_strichartz_l2,
    extremizer_search,
    family_spectrum,
    scaling_grid,
    sharpness_probe,
    surface_cross_check,
)


def test_scaling_grid_places_scale():
    g, w = scaling_grid(4.0, n=16, m=32)
    assert g.spatial.nyquist == pytest.approx(8.0)      # scale at half Nyquist
    assert g.tau_axis[-1] == pytest.approx(16.0 - g.dtau)
    assert w.support <= g.half_time


def test_family_band_limit():
    g, _ = scaling_grid(4.0)
    for kind in ("gaussian-bump", "shell-concentrated", "knapp-box", "random-bandlimited"):
        F = family_spectrum(DataFamily(kind=kind, scale=4.0), g.spatial,
                            np.random.default_rng(0))
        xi = g.spatial.xi_modulus()
        assert np.all(F.data[xi >= 0.98 * g.spatial.nyquist] == 0)
        assert np.abs(F.data).max() > 0


def test_family_validation():
    assert [f.name for f in dataclasses.fields(DataFamily)] == [
        "kind", "scale", "width", "anisotropy"]
    with pytest.raises(ParameterError):
        DataFamily(kind="plane-wave")


def test_family_determinism():
    g, _ = scaling_grid(2.0)
    fam = DataFamily(kind="random-bandlimited", scale=2.0)
    a, b = (family_spectrum(fam, g.spatial, np.random.default_rng(7)) for _ in range(2))
    assert np.array_equal(a.data, b.data)


def test_report_finalize_stats():
    rep = EstimateReport("x", {})
    for lam, ratio in [(2.0, 1.0), (4.0, 2.0), (8.0, 4.0)]:
        rep.rows.append({"scale": lam, "ratio": ratio})
    rep.finalize(fit_against="scale")
    assert rep.spread == pytest.approx(4.0)
    assert rep.exponent == pytest.approx(1.0)
    assert rep.exponent_r2 == pytest.approx(1.0)


def test_report_all_zero_skipped():
    rep = EstimateReport("x", {})
    rep.rows.append({"scale": 2.0, "ratio": 0.0})
    rep.finalize()
    assert rep.skipped


def test_report_nan_ratio_never_passes():
    rep = EstimateReport("x", {})
    for lam, ratio in [(2.0, 1.0), (4.0, math.nan), (8.0, 1.2)]:
        rep.rows.append({"scale": lam, "lhs": ratio, "rhs": 1.0, "ratio": ratio})
    rep.finalize()
    assert rep.spread == pytest.approx(1.2)     # NaN is left out of the statistics
    assert rep.judge(rep.spread <= BOUNDED_SPREAD).passed is False
    only_nan = EstimateReport("y", {}, rows=[{"lhs": math.nan, "rhs": 1.0, "ratio": math.nan}])
    assert only_nan.finalize().skipped
    assert only_nan.judge(True).passed is False
    nan_rhs = EstimateReport("z", {}, rows=[{"lhs": 1.0, "rhs": math.nan, "ratio": 0.0}])
    assert nan_rhs.finalize().judge(True).passed is False


def test_spread_needs_two_distinct_scales():
    """Rows at one repeated scale give no spread (NaN, which no bound passes),
    in the report and in each row group; a second scale gives one."""
    rep = EstimateReport("x", {})
    rep.add(4.0, 1.0, 1.0, form="free").add(4.0, 2.0, 1.0, form="free")
    rep.add(2.0, 1.0, 1.0, form="full").add(2.0, 1.5, 1.0, form="full")
    verify._judge_groups(rep.finalize(), "form", ("free", "full"))
    assert rep.spread == pytest.approx(2.0)
    assert math.isnan(rep.params["spread_free"]) and math.isnan(rep.params["spread_full"])
    assert rep.passed is False
    one = EstimateReport("one", {}).add(4.0, 1.0, 1.0).add(4.0, 2.0, 1.0).finalize()
    assert math.isnan(one.spread) and one.max_ratio == 2.0
    assert one.judge(one.spread <= BOUNDED_SPREAD).passed is False


_ONE_SCALE_CHECKS = {
    "elliptic": lambda: check_elliptic_lemma(2.0, 1.25, lams=(8.0,), n=8, m=16),
    "hyperbolic": lambda: check_hyperbolic_lemmas(2.0, 1.25, lams=(4.0, 4.0), n=8, m=16),
    "key": lambda: check_key_estimate(2.0, 1.25, 0.55, lams=(4.0, 4.0, 4.0), n=8, m=16),
    "lowfreq": lambda: check_lowfreq_young(1.5, samples=1, n=8, m=16),
    "strichartz": lambda: check_strichartz_l2(0.75, 0.5, lams=(8.0,), n=8, m=16),
}


@pytest.mark.parametrize("name", sorted(_ONE_SCALE_CHECKS))
def test_one_scale_is_no_bounded_ladder(name):
    """A ladder of one distinct scale (or one sample) bounds nothing: every
    spread the check reports stays NaN, and the check fails."""
    rep = _ONE_SCALE_CHECKS[name]()
    assert rep.rows and rep.finite() and not rep.skipped
    spreads = [rep.spread] + [v for k, v in rep.params.items() if k.startswith("spread_")]
    assert all(math.isnan(x) for x in spreads)
    assert rep.passed is False


def test_report_add_guards_ratio():
    """add() stores ratio 0 for a zero or NaN rhs; finalize leaves those rows
    out of the statistics and judge fails the NaN row."""
    rep = EstimateReport("x", {})
    rep.add(2.0, 1.0, 2.0, form="free").add(4.0, 1.0, 0.0).add(8.0, 3.0, 2.0)
    assert rep.rows[0] == {"scale": 2.0, "lhs": 1.0, "rhs": 2.0, "ratio": 0.5, "form": "free"}
    assert rep.rows[1]["ratio"] == 0.0
    rep.finalize()
    assert (rep.min_ratio, rep.max_ratio) == (0.5, 1.5)
    assert rep.judge(True).passed is True
    rep.add(16.0, 1.0, math.nan)
    assert rep.rows[-1]["ratio"] == 0.0
    rep.finalize()
    assert (rep.min_ratio, rep.max_ratio) == (0.5, 1.5)
    assert rep.judge(True).passed is False


_SMALL_CHECKS = {
    "elliptic": lambda: check_elliptic_lemma(2.0, 1.25, lams=(2.0, 4.0, 8.0), n=8, m=16),
    "hyperbolic": lambda: check_hyperbolic_lemmas(2.0, 1.25, lams=(2.0, 4.0), n=8, m=16),
    "key": lambda: check_key_estimate(2.0, 1.25, 0.55, lams=(2.0, 4.0), n=8, m=16),
    "lowfreq": lambda: check_lowfreq_young(1.5, samples=3, n=8, m=16),
    "strichartz": lambda: check_strichartz_l2(0.75, 0.5, lams=(2.0, 4.0, 8.0), n=8, m=16),
}


@pytest.mark.parametrize("name", sorted(_SMALL_CHECKS))
def test_check_with_nan_row_fails(name, monkeypatch):
    assert _SMALL_CHECKS[name]().passed
    real = verify._block_norms
    calls = []

    def second_is_nan(g, keep, block, r, terms):
        calls.append(1)
        return [math.nan] * len(terms) if len(calls) == 2 else real(g, keep, block, r, terms)

    monkeypatch.setattr(verify, "_block_norms", second_is_nan)
    rep = _SMALL_CHECKS[name]()
    assert not rep.finite()
    assert rep.passed is False


def test_elliptic_lemma_bounded():
    rep = check_elliptic_lemma(2.0, 1.25, lams=(2.0, 4.0, 8.0))
    assert rep.passed
    assert rep.spread <= BOUNDED_SPREAD


def test_elliptic_lemma_threshold_guard():
    with pytest.raises(ParameterError):
        check_elliptic_lemma(2.0, 0.9)  # sigma must exceed 2/r = 1


@pytest.mark.parametrize("build", [
    lambda: check_elliptic_lemma(2.0, math.nan),
    lambda: check_hyperbolic_lemmas(2.0, math.inf),
    lambda: check_key_estimate(2.0, math.nan, 0.55),
    lambda: check_key_estimate(2.0, 1.25, math.nan),
    lambda: check_key_estimate(2.0, 1.25, math.inf),
    lambda: NormParams(2.0, math.nan),
    lambda: NormParams(2.0, 1.0, math.inf),
])
def test_nonfinite_sigma_and_b_are_refused(build):
    """NaN fails sigma <= 2/r and b <= 1/r alike, and an infinite value
    passes both: the guards and NormParams refuse either before any norm."""
    with pytest.raises(ParameterError, match="finite"):
        build()


def test_hyperbolic_lemmas_bounded():
    rep = check_hyperbolic_lemmas(2.0, 1.25, n=12, m=16, lams=(2.0, 4.0))
    assert rep.passed
    regions = {row["region"] for row in rep.rows}
    assert regions == {"P", "Q"}


def test_hyperbolic_lemmas_convolve_once_per_rung(monkeypatch):
    """Each rung makes one masked convolution, for P; Q is read off the
    product block."""
    real = kernels.masked_convolution
    masks = []

    def counted(us, vs, xi_axis, mask):
        masks.append(mask)
        return real(us, vs, xi_axis, mask)

    monkeypatch.setattr(kernels, "masked_convolution", counted)
    check_hyperbolic_lemmas(2.0, 1.25, kind="random-bandlimited", lams=(2.0, 4.0, 8.0))
    assert masks == [region_masks()["P"]] * 3


# the full-support families convolve every pair, so they run on a smaller lattice
@pytest.mark.parametrize("r, sigma", [(2.0, 1.25), (1.5, 1.4)])
@pytest.mark.parametrize("kind, n, m", [("random-bandlimited", 16, 32),
                                        ("gaussian-bump", 8, 16),
                                        ("shell-concentrated", 8, 16)])
def test_hyperbolic_q_matches_masked_convolution(kind, n, m, r, sigma):
    """The Q lhs, taken from the product block minus P, is the lhs of the
    masked convolution under the Q mask."""
    lams = (2.0, 4.0, 8.0)
    rep = check_hyperbolic_lemmas(r, sigma, kind=kind, lams=lams, n=n, m=m)
    rows = [row for row in rep.rows if row["region"] == "Q"]
    assert all(row["lhs"] > 0 for row in rows)
    sp, far = SignPair(+1, -1), region_masks()["Q"]
    for row, (lam, g, w, u0, v0) in zip(rows, verify._ladder(kind, lams, n, m, 0)):
        _, wx, wt = verify._key_tables(g, sigma)
        block = _symbol_block(u0, v0, sp, far, g, _grid_window(g, w))
        want = sum(_block_norms(g, *block, r, (wx, wt)))
        assert row["scale"] == lam
        assert row["lhs"] == pytest.approx(want, rel=1e-13, abs=0.0)


def test_key_estimate_reports_both_forms():
    rep = check_key_estimate(2.0, 1.25, 0.55, lams=(2.0, 4.0))
    forms = {row["form"] for row in rep.rows}
    assert forms == {"free", "full"}
    assert rep.passed
    with pytest.raises(ParameterError):
        check_key_estimate(2.0, 1.25, 0.3)  # b must exceed 1/r


def _fixed_window_grid16(lam):
    return verify._fixed_window_grid(lam, 16)


_GRIDS = {"scaling": scaling_grid, "fixed-window": _fixed_window_grid16}


@pytest.mark.parametrize("grid", sorted(_GRIDS))
@pytest.mark.parametrize("kind", ["gaussian-bump", "shell-concentrated"])
@pytest.mark.parametrize("lam", [2.0, 16.0])
def test_free_xsb_norm_matches_lattice_norm(grid, kind, lam):
    """The X-norm taken from the data equals xsb_norm of the windowed,
    modulated free wave sampled on the space-time lattice."""
    g, w = _GRIDS[grid](lam)
    u0, _ = verify._data_pair(kind, lam, 0, g.spatial)
    win = window_values(w, g.t_axis)
    for mu in (0.0, 2.5):
        mod = np.exp(1j * mu * g.t_axis)
        for sign in (+1, -1):
            wave = free_spacetime(u0, g, EvolutionSpec("D", sign))
            field = SpacetimeField(g, wave.data * mod[:, None, None, None]
                                   * win[:, None, None, None])
            for r, sigma, b in ((2.0, 1.25, 0.55), (1.5, 1.4, 0.72)):
                p = NormParams(r, sigma, b, sign)
                assert _free_xsb_norm(u0, g, win * mod, p) == pytest.approx(
                    xsb_norm(field, p), rel=1e-13)


def _key_weights_reference(g, sigma):
    """The key-estimate weights evaluated on every lattice point."""
    sg = g.spatial
    tau = g.tau_axis[:, None, None, None]
    lower = sg.bracket ** (sigma - 1.0)
    return sg.bracket**sigma, lower * sg.modulus, lower[None] * np.abs(tau)


@pytest.mark.parametrize("grid", sorted(_GRIDS))
@pytest.mark.parametrize("lam", [2.0, 16.0])
def test_key_weights_match_lattice_formula(grid, lam):
    """Each key term's shell table gathered onto the lattice, times its tau
    factor, is the weight evaluated on every lattice point."""
    g, _ = _GRIDS[grid](lam)
    index = g.spatial.shell_index
    for sigma in (1.25, 1.4, 0.5):
        terms = verify._key_tables(g, sigma)
        assert [c is None for _, c in terms] == [True, True, False]
        for (table, c), want in zip(terms, _key_weights_reference(g, sigma)):
            assert table.shape == g.spatial.shell_values.shape
            got = np.take(table, index)
            if c is not None:
                assert c.shape == (g.m,)
                got = got[None] * c[:, None, None, None]
            assert np.array_equal(got, want)


def _weighted_norm_reference(S, r, weight):
    rp = dual_exponent(r)
    total = np.sum((weight * np.abs(S.data)) ** rp) * S.grid.spatial.dxi**3 * S.grid.dtau
    return float(total ** (1.0 / rp))


def _sobolev_reference(F, r, s):
    rp = dual_exponent(r)
    sg = F.grid
    total = np.sum(sg.bracket ** (s * rp) * np.abs(F.data) ** rp) * sg.dxi**3
    return float(total ** (1.0 / rp))


def _key_rows_reference(r, sigma, b, signs, kind, lams, n, m, modulation, seed):
    """(lhs, rhs, form) of every check_key_estimate row, by the lattice
    formulas: the full form windows and modulates each free wave in
    configuration space and takes its X-norm through a forward transform."""
    rows = []
    for lam in lams:
        g, w = scaling_grid(lam, n=n, m=m)
        u0, v0 = verify._data_pair(kind, lam, seed, g.spatial)
        S = product_transform_direct(u0, v0, signs, g, w)
        _, wx, wt = _key_weights_reference(g, sigma)
        rows.append((_weighted_norm_reference(S, r, wx) + _weighted_norm_reference(S, r, wt),
                     _sobolev_reference(u0, r, sigma) * _sobolev_reference(v0, r, sigma),
                     "free"))
        gf, wf = verify._fixed_window_grid(lam, n)
        u0f, v0f = verify._data_pair(kind, lam, seed, gf.spatial)
        mod = np.exp(1j * modulation * gf.t_axis)[:, None, None, None]
        uw = free_spacetime(u0f, gf, EvolutionSpec("D", signs.first))
        vw = free_spacetime(v0f, gf, EvolutionSpec("D", signs.second))
        win = window_values(wf, gf.t_axis)[:, None, None, None]
        uw = SpacetimeField(gf, uw.data * mod * win)
        vw = SpacetimeField(gf, vw.data * np.conj(mod) * win)
        prod = forward_transform(SpacetimeField(gf, uw.data * vw.data))
        wj, _, wt2 = _key_weights_reference(gf, sigma)
        rows.append((_weighted_norm_reference(prod, r, wj)
                     + _weighted_norm_reference(prod, r, wt2),
                     xsb_norm(uw, NormParams(r, sigma, b, signs.first))
                     * xsb_norm(vw, NormParams(r, sigma, b, signs.second)),
                     "full"))
    return rows


@pytest.mark.parametrize("signs", [SignPair(+1, +1), SignPair(+1, -1)], ids=["ee", "hyp"])
@pytest.mark.parametrize("r, sigma, b, modulation", [(2.0, 1.25, 0.55, 0.0),
                                                     (1.5, 1.4, 0.72, 2.5)])
def test_key_estimate_matches_lattice_reference(signs, r, sigma, b, modulation):
    """Every row agrees with the lattice formulas to 1e-13: the lhs is summed
    per tau and shell chunk by chunk, and the full-form X-norms come from the
    data."""
    args = dict(signs=signs, kind="shell-concentrated", lams=(2.0, 8.0), n=16, m=32,
                modulation=modulation, seed=0)
    rep = check_key_estimate(r, sigma, b, **args)
    want = _key_rows_reference(r, sigma, b, **args)
    assert [row["form"] for row in rep.rows] == [form for _, _, form in want]
    for row, (lhs, rhs, form) in zip(rep.rows, want):
        assert row["lhs"] == pytest.approx(lhs, rel=1e-13)
        if form == "free":
            assert row["rhs"] == rhs
        else:
            assert row["rhs"] == pytest.approx(rhs, rel=1e-13)


def _parseval_square(u0, v0, sp, g, win):
    """(2 pi)^4 sum |win u v|^2 dx^3 dt, the square of the r = 2 unit-weight
    norm of the product's spectrum, from the free waves in configuration space."""
    u = free_spacetime(u0, g, EvolutionSpec("D", sp.first)).data
    v = free_spacetime(v0, g, EvolutionSpec("D", sp.second)).data
    prod = u * v * win[:, None, None, None]
    return (2.0 * np.pi) ** 4 * np.sum(np.abs(prod) ** 2) * g.spatial.dx**3 * g.dt


def test_block_norms_parseval():
    """At r = 2 with unit weight the lhs is Parseval's configuration-space
    sum: on two rungs of check_strichartz_l2, whose window blocks are shorter
    than the time axis, and in one direct call with the sharp window over the
    whole time range, whose block is the whole axis."""
    lams = (2.0, 4.0)
    rep = check_strichartz_l2(0.75, 0.5, lams=lams)
    sp = SignPair(+1, -1)
    for row, lam in zip(rep.rows, lams):
        g, w = scaling_grid(lam)
        win = window_values(w, g.t_axis)
        assert np.count_nonzero(win) < g.m
        u0, v0 = verify._data_pair("gaussian-bump", lam, 0, g.spatial)
        assert row["lhs"] ** 2 == pytest.approx(_parseval_square(u0, v0, sp, g, win), rel=1e-12)
    g, _ = scaling_grid(4.0)
    win = window_values(WindowSpec(flat_fraction=1.0, support=g.half_time), g.t_axis)
    u0, v0 = verify._data_pair("shell-concentrated", 4.0, 0, g.spatial)
    keep, block = _product_block(u0, v0, SignPair(+1, +1), g, win)
    assert keep == slice(0, g.m)
    unit = (np.ones(g.spatial.shell_values.size), None)
    (lhs,) = _block_norms(g, keep, block, 2.0, (unit,))
    assert lhs**2 == pytest.approx(_parseval_square(u0, v0, SignPair(+1, +1), g, win),
                                   rel=1e-12)


def test_key_estimate_memory():
    """The key estimate's lhs never holds an (M, N^3) array: at n = 16, where
    the full form reaches M = 256, the peak traced memory is at most 30 MB
    (66.7 MB when the product's spectrum and weights were formed whole)."""
    tracemalloc.start()
    try:
        check_key_estimate(2.0, 1.25, 0.55, lams=(2.0, 4.0, 8.0, 16.0), n=16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 30e6


@pytest.mark.parametrize("grid", ["scaling", "fixed-window"])
def test_estimate_harness_transforms_are_bare(grid, monkeypatch):
    """At the estimates' settings (n = 16, m = 32, and the fixed-window rung
    at M = 256) the product lhs and the free X-norm make no signed transform
    pass: every _dft call is bare, and _block_norms makes ceil(N^3 M /
    _CHUNK_POINTS) time transforms per call."""
    g, w = scaling_grid(4.0, n=16, m=32) if grid == "scaling" else _fixed_window_grid16(16.0)
    u0, v0 = verify._data_pair("gaussian-bump", 4.0, 0, g.spatial)
    calls = []

    def recorded(module):
        real = module._dft

        def wrapped(data, *args, **kwargs):
            calls.append((module.__name__, kwargs.get("bare", False), kwargs.get("time")))
            return real(data, *args, **kwargs)
        monkeypatch.setattr(module, "_dft", wrapped)

    recorded(bilinear)
    recorded(spaces)
    win = _grid_window(g, w)
    _, wx, wt = verify._key_tables(g, 1.25)
    verify._product_lhs(u0, v0, SignPair(+1, -1), g, win, 2.0, (wx, wt))
    chunks = [c for c in calls if c[0] == spaces.__name__]
    assert len(chunks) == -(-16**3 * g.m // spaces._CHUNK_POINTS)
    assert all(time is g for _, _, time in chunks)
    _free_xsb_norm(u0, g, win, NormParams(2.0, 1.25, 0.55, +1))
    assert len(calls) > len(chunks) + 1 and all(bare for _, bare, _ in calls)
    assert g.m == (32 if grid == "scaling" else 256)


def test_sharpness_growth_and_control():
    grow = sharpness_probe(2.0, 0.5, lams=(4.0, 8.0, 16.0, 32.0))
    assert grow.exponent >= 0.4
    assert grow.exponent_r2 > 0.9
    ctrl = sharpness_probe(2.0, 1.25, lams=(4.0, 8.0, 16.0, 32.0))
    assert ctrl.exponent <= 0.1
    with pytest.raises(ParameterError):
        sharpness_probe(2.0, 0.5, lams=(4.0, 8.0))
    with pytest.raises(ParameterError):
        sharpness_probe(2.0, 0.5, lams=(4, 4, 4))


def test_lowfreq_young_flat():
    rep = check_lowfreq_young(1.5, samples=4)
    assert rep.passed
    assert rep.spread <= 2.0


def test_strichartz_branches():
    ok = check_strichartz_l2(0.75, 0.5, lams=(2.0, 4.0, 8.0))
    assert ok.passed  # sigma1 + sigma2 > 1: bounded
    growth = check_strichartz_l2(0.2, 0.2, lams=(2.0, 4.0, 8.0, 16.0))
    assert growth.passed  # well below 1: growth detected
    assert growth.exponent > 0.25


def test_fit_needs_three_distinct_scales():
    """Rows at one repeated scale give no exponent, so the growth branch
    cannot pass on a slope fitted to them."""
    rep = check_strichartz_l2(0.25, 0.25, lams=(8, 8, 8, 8))
    assert len(rep.rows) == 4
    assert rep.exponent is None and rep.exponent_r2 is None
    assert rep.passed is False
    rep = EstimateReport("two", {})
    for scale, ratio in ((2.0, 1.0), (4.0, 2.0), (4.0, 3.0), (2.0, 5.0)):
        rep.add(scale, ratio, 1.0)
    assert rep.finalize(fit_against="scale").exponent is None


def test_surface_cross_check():
    rep = surface_cross_check()
    assert rep.passed
    assert rep.params["max_deviation"] <= 0.05
    assert len(rep.rows) >= 4


def test_surface_cross_check_unconverged_fails(monkeypatch):
    real = verify.surface_mass
    monkeypatch.setattr(verify, "surface_mass",
                        lambda *a, **kw: dataclasses.replace(real(*a, **kw), converged=False))
    rep = surface_cross_check()
    assert rep.params["max_deviation"] <= 0.05  # would pass on the deviation alone
    assert [row["converged"] for row in rep.rows] == [False] * len(rep.rows)
    assert rep.passed is False


def test_extremizer_degenerate_box():
    res = extremizer_search(2.0, 1.25, 0.55,
                            bounds=((2.0, 2.0), (1.0, 1.0), (0.5, 0.5), (0.5, 0.5)))
    assert res["converged"]
    assert res["best_params"] == (2.0, 1.0, 0.5, 0.5)
    assert np.isfinite(res["best_ratio"])
    assert len(res["trace"]) == res["evaluations"] == 3


def test_extremizer_weights_once_per_grid(monkeypatch):
    """The key tables are built with each cached grid, not per evaluation."""
    grids, weights = [], []
    for name, calls in (("scaling_grid", grids), ("_key_tables", weights)):
        def counted(*args, real=getattr(verify, name), calls=calls, **kw):
            calls.append(1)
            return real(*args, **kw)

        monkeypatch.setattr(verify, name, counted)
    res = extremizer_search(2.0, 1.25, 0.55, budget=30, n=8, m=8, seed=0)
    assert len(weights) == len(grids) < res["evaluations"]


def test_extremizer_flag_ignores_budget_remainder():
    """Budgets 60 and 61 give each of the three kinds 20 evaluations, so the
    searches and their convergence flags are the same."""
    kw = dict(n=8, m=8, seed=0)
    a = extremizer_search(2.0, 1.25, 0.55, budget=60, **kw)
    b = extremizer_search(2.0, 1.25, 0.55, budget=61, **kw)
    assert a["evaluations"] == b["evaluations"]
    assert a["trace"] == b["trace"]
    assert a["converged"] == b["converged"]


def test_extremizer_vs_random_oracle():
    """Simplex search should do at least half as well as random search."""
    bounds = ((1.0, 6.0), (0.2, 3.0), (0.1, 1.0), (0.1, 1.0))
    res = extremizer_search(2.0, 1.25, 0.55, kinds=("gaussian-bump",),
                            bounds=bounds, budget=40, n=8, m=8, seed=0)
    trace = res["trace"]
    assert all(a <= b + 1e-15 for a, b in zip(trace, trace[1:]))  # monotone

    # random-search oracle on the same box and objective proxy
    rng = np.random.default_rng(1)
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    best = 0.0
    for _ in range(60):
        x = lo + (hi - lo) * rng.random(4)
        g, w = scaling_grid(float(x[0]), n=8, m=8)
        fam = DataFamily(kind="gaussian-bump", scale=float(x[0]), width=float(x[1]),
                         anisotropy=(1.0, float(x[2]), float(x[3])))
        u0 = family_spectrum(fam, g.spatial, np.random.default_rng(0))
        S = product_transform_direct(u0, u0, SignPair(+1, +1), g, w)
        _, wx, wt = _key_weights_reference(g, 1.25)
        lhs = _weighted_norm_reference(S, 2.0, wx) + _weighted_norm_reference(S, 2.0, wt)
        rhs = _sobolev_reference(u0, 2.0, 1.25) ** 2
        if rhs > 0:
            best = max(best, lhs / rhs)
    assert res["best_ratio"] >= best / 2.0
