"""Closed-form constant evaluators: frozen values and structural laws.

Frozen numbers were produced by running the documented formulas once by
hand (plain arithmetic, mpmath-free) and pinning the result; each one
carries its derivation inline. Cross-module checks exercise the bounds
against actual resolvents of small boxes.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chernlab import bounds
from chernlab.bloch import band_structure
from chernlab.cli import main
from chernlab.disorder import (
    truncated_gaussian,
    trunc_gauss_abs_moment_bound,
    trunc_gauss_power_moment_bound,
    uniform,
)
from chernlab.finite_volume import green_function, restrict_simple
from chernlab.lattice import box_sites
from chernlab.model import HaldaneParams, HoppingModel, haldane_model


@pytest.fixture(scope="module")
def reference_model():
    return haldane_model(HaldaneParams())


@pytest.fixture(scope="module")
def reference_bands(reference_model):
    return band_structure(reference_model, grid=201)


@pytest.fixture(scope="module")
def reference_geometry(reference_bands):
    return bounds.GapGeometry(reference_bands, a=1.0, b=1.0)


# ---------------------------------------------------------------- gap algebra


def test_gap_geometry_validation(reference_bands):
    with pytest.raises(ValueError):
        bounds.GapGeometry(reference_bands, a=0.0, b=0.0)
    with pytest.raises(ValueError):
        bounds.GapGeometry(reference_bands, a=-1.0, b=2.0)


def test_locate_gap_and_distance(reference_geometry):
    g = reference_geometry
    assert g.locate_gap(0.0) == 0
    with pytest.raises(ValueError):
        g.locate_gap(2.0)  # inside the upper band
    with pytest.raises(ValueError):
        g.locate_gap(5.0)  # outside the spectrum entirely
    assert g.dist_to_spectrum(2.0) == 0.0
    # E = 0 sits dead center of a gap of half-width ~1
    assert g.dist_to_spectrum(0.0) == pytest.approx(g.gap_size(0) / 2.0, abs=1e-12)


def test_lambda_zero_symmetric_gap(reference_geometry):
    # symmetric gap, E = 0, a = b = 1: both one-sided slacks equal the
    # half-width, so lambda_0 = |G|/2
    lam0 = bounds.lambda_zero(0.0, reference_geometry)
    assert lam0 == pytest.approx(reference_geometry.gap_size(0) / 2.0, rel=1e-12)


def test_lambda_zero_one_sided(reference_bands):
    lo, hi = reference_bands.gaps[0]
    only_neg = bounds.GapGeometry(reference_bands, a=1.0, b=0.0)
    # potential only pushes the upper edge down: lambda_0 = (hi - E)/a
    assert bounds.lambda_zero(0.3, only_neg) == pytest.approx(hi - 0.3, rel=1e-12)
    only_pos = bounds.GapGeometry(reference_bands, a=0.0, b=1.0)
    assert bounds.lambda_zero(0.3, only_pos) == pytest.approx(0.3 - lo, rel=1e-12)


# -------------------------------------------------------- exponential sums


def test_salpha_single_hopping_pair():
    # one hopping t across distance 1 (plus its reverse):
    # S_alpha = 2 t (e^alpha - 1) exactly
    t = 0.7
    m = HoppingModel(n=1, r=1, hoppings={
        (0, 0): np.array([[0.0]]),
        (1, 0): np.array([[t]]),
        (-1, 0): np.array([[t]]),
    })
    alpha = 0.3
    want = 2.0 * t * (math.exp(alpha) - 1.0)
    assert bounds.combes_thomas_salpha(m, alpha) == pytest.approx(want, rel=1e-12)


def test_salpha_exact_below_overbound(reference_model):
    for alpha in (0.01, 0.05, 0.2, 1.0):
        exact = bounds.combes_thomas_salpha(reference_model, alpha)
        over = bounds.salpha_overbound(reference_model, alpha)
        assert 0.0 < exact < over


def test_overbound_coefficient_value(reference_model):
    # nearest-neighbor blocks carry max row sum t1 + t2 and are full,
    # the diagonal-distance blocks are diagonal with norm t2:
    # c0 = 4 * 2 (t1 + t2) + 2 t2, below the round coefficient 10 t1
    c0, dmax = bounds._overbound_coefficient(reference_model)
    t2 = 1.0 / (3.0 * math.sqrt(3.0))
    assert c0 == pytest.approx(8.0 * (1.0 + t2) + 2.0 * t2, rel=1e-12)
    assert c0 < 10.0
    assert dmax == pytest.approx(math.sqrt(2.0), rel=1e-15)
    alpha = 0.1
    assert bounds.salpha_overbound(reference_model, alpha) == pytest.approx(
        c0 * (math.exp(alpha * math.sqrt(2.0)) - 1.0), rel=1e-12)


def test_alpha_for_gap_inverts_overbound(reference_model, reference_bands):
    gap = reference_bands.gap_sizes[0]
    alpha = bounds.alpha_for_gap(reference_model, gap)
    # chosen so the doubled over-bounded sum spends exactly half the gap
    assert 2.0 * bounds.salpha_overbound(reference_model, alpha) == pytest.approx(
        gap / 2.0, rel=1e-12)
    # frozen: ln(1 + 1.99988/(4 * 9.9245008973)) / sqrt(2) = 0.0347539411
    assert alpha == pytest.approx(0.034753941095545506, rel=1e-9)


def test_alpha_for_gap_rejects_hopping_free_model():
    m = HoppingModel(n=1, r=1, hoppings={(0, 0): np.array([[1.0]])})
    with pytest.raises(ValueError):
        bounds.alpha_for_gap(m, 1.0)


def test_combes_thomas_rate_branches():
    S, alpha = 0.4, 0.05
    pref, rate = bounds.combes_thomas_rate(S, alpha, delta=1.0)
    assert pref == 2.0 and rate == alpha  # 1.0 >= 2S
    pref, rate = bounds.combes_thomas_rate(S, alpha, delta=0.2)
    assert pref == pytest.approx(10.0)
    assert rate == pytest.approx(alpha * 0.2 / (2.0 * S), rel=1e-15)
    # the two branches agree at delta = 2S
    _, r1 = bounds.combes_thomas_rate(S, alpha, delta=2.0 * S)
    assert r1 == pytest.approx(alpha, rel=1e-15)
    with pytest.raises(ValueError):
        bounds.combes_thomas_rate(S, alpha, delta=0.0)


def test_resolvent_obeys_combes_thomas_bound():
    # mass-dominated insulator: open box has no in-gap states, so the
    # distance from z = 0 to the box spectrum stays ~1 and the bound
    # |G(x,y)| <= (2/delta) e^{-rate |x-y|} can be checked pointwise
    m = haldane_model(HaldaneParams(t1=1.0, t2=0.0, phi=0.0, M=1.0))
    gap = band_structure(m, grid=201).gap_sizes[0]
    alpha = bounds.alpha_for_gap(m, gap)
    S = bounds.combes_thomas_salpha(m, alpha)
    box = box_sites(14)
    op = restrict_simple(m, box)
    delta = float(np.min(np.abs(op.eigenvalues)))
    G = np.abs(green_function(op, 0.0))
    pos = np.repeat(box.sites.astype(float), m.n, axis=0)
    dist = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=2)
    for a_try in (alpha, 5.0 * alpha):  # second value forces the small-gap branch
        S_try = bounds.combes_thomas_salpha(m, a_try)
        pref, rate = bounds.combes_thomas_rate(S_try, a_try, delta)
        assert float(np.max(G / (pref * np.exp(-rate * dist)))) <= 1.0 + 1e-9


# ------------------------------------------------- fractional-moment constants


def test_k_constant_frozen_value():
    # B = sqrt(e), C = sqrt(2/3) sqrt(pi) e^{3/2} / 8 for the unit
    # truncation; at (s, t, q) = (1/4, 1, 2): p = 1/4 / (1/2) = 1/2,
    # C_pq = 1 + (1/2)(4C)^{1/3}/(2/3 - 1/2), K = max(5 sqrt(2 sqrt e),
    # 2^{3/2} e^{1/8} (1 + e^{1/8} C_pq)) = 22.9637986808
    B = trunc_gauss_abs_moment_bound()
    C = trunc_gauss_power_moment_bound(2.0)
    rep = bounds.d_s1_bound(B, C, s=0.25, t=1.0, q=2.0)
    assert rep.p == pytest.approx(0.5, rel=1e-15)
    assert rep.C_pq == pytest.approx(5.440531270356422, rel=1e-9)
    assert rep.value == pytest.approx(22.963798680773785, rel=1e-9)


def test_k_constant_small_s_limit():
    # s -> 0: the first branch dominates and tends to 5 (2B)^0 = 5
    B = trunc_gauss_abs_moment_bound()
    C = trunc_gauss_power_moment_bound(2.0)
    assert bounds.d_s1_bound(B, C, s=1e-8, t=1.0, q=2.0).value == pytest.approx(
        5.0, abs=1e-6)


def test_k_constant_admissibility():
    B, C = 1.5, 1.0
    # ceiling 1/(1 + 2/t + 1/q) = 2/7 at t = 1, q = 2
    with pytest.raises(ValueError):
        bounds.d_s1_bound(B, C, s=2.0 / 7.0, t=1.0, q=2.0)
    with pytest.raises(ValueError):
        bounds.d_s1_bound(B, C, s=0.3, t=1.0, q=2.0)
    with pytest.raises(ValueError):
        bounds.d_s1_bound(B, C, s=0.1, t=1.5, q=2.0)
    with pytest.raises(ValueError):
        bounds.d_s1_bound(B, C, s=0.1, t=1.0, q=0.0)
    # just inside the ceiling works
    assert bounds.d_s1_bound(B, C, s=2.0 / 7.0 - 1e-6, t=1.0, q=2.0).value > 0


def test_weak_disorder_ceiling_midgap_form(reference_geometry, reference_model,
                                           reference_bands):
    # at gap center the generic expression collapses to the symmetric
    # form |G|^{1+2/s} / (2 (4 C D)^{1/s}); identical arithmetic, so the
    # two evaluations agree to the last bit
    gap = reference_bands.gap_sizes[0]
    alpha = bounds.alpha_for_gap(reference_model, gap)
    S = bounds.combes_thomas_salpha(reference_model, alpha)
    s, D = 0.25, 0.8
    got = bounds.weak_disorder_upper(0.0, reference_geometry, s, alpha, S, D, 2)
    C = bounds.c_s_alpha(2, gap, s, alpha)
    want = gap ** (1.0 + 2.0 / s) / (2.0 * (4.0 * C * D) ** (1.0 / s))
    assert got == pytest.approx(want, rel=1e-12, abs=0)


def test_weak_disorder_requires_small_salpha(reference_geometry):
    # 2 S_alpha above the half-gap must be rejected, not silently used
    with pytest.raises(ValueError):
        bounds.weak_disorder_upper(0.0, reference_geometry, 0.25, 0.5,
                                   S_alpha=1.0, D_s1=1.0, n=2)


def test_weak_disorder_monotone_in_density_constant(reference_geometry,
                                                    reference_model,
                                                    reference_bands):
    gap = reference_bands.gap_sizes[0]
    alpha = bounds.alpha_for_gap(reference_model, gap)
    S = bounds.combes_thomas_salpha(reference_model, alpha)
    vals = [bounds.weak_disorder_upper(0.0, reference_geometry, 0.25, alpha, S, D, 2)
            for D in (0.5, 1.0, 2.0)]
    assert vals[0] > vals[1] > vals[2]


@pytest.mark.parametrize("flags", [[], ["--q", "3"], ["--s", "0.1"]],
                         ids=["default", "q3", "s0.1"])
@pytest.mark.parametrize("law", [{"kind": "uniform", "a": 1.0},
                                 {"kind": "uniform", "a": 0.5, "b": 2.0},
                                 {"kind": "truncated_gaussian", "a": 1.0},
                                 {"kind": "truncated_gaussian", "a": 2.5}],
                         ids=["uniform", "uniform-skew", "tgauss1", "tgauss2.5"])
def test_thresholds_report_is_the_weak_disorder_ceiling_at_mid_gap(tmp_path, reference_bands,
                                                                   law, flags):
    # at mid-gap dist(E, spectrum) = |G|/2, so the ceiling
    # (|G|/2)^(1+2/s) / (C_{s,alpha} K)^(1/s) is the report's |G| / (2 a0)
    dist = tmp_path / "law.json"
    dist.write_text(json.dumps(law))
    assert main(["thresholds", "--dist", str(dist), *flags, "--out", str(tmp_path)]) == 0
    res = json.loads((tmp_path / "thresholds.json").read_text())["results"]
    lo, hi = reference_bands.gaps[0]
    gaps = bounds.GapGeometry(reference_bands, law["a"], law.get("b", law["a"]))
    ceiling = bounds.weak_disorder_upper((lo + hi) / 2, gaps, res["s"], res["alpha"],
                                         res["S_alpha"], res["K"], 2)
    assert ceiling == pytest.approx(res["gap_over_2a0"], rel=1e-12, abs=0.0)


def test_a_zero_pipeline_frozen(reference_model, reference_bands):
    # full no-hand-input chain: measured gap -> alpha -> C_{s,alpha} ->
    # K -> a0. Frozen: a0 = 2.2986e30 and gap/(2 a0) = 4.350e-31
    gap = reference_bands.gap_sizes[0]
    alpha = bounds.alpha_for_gap(reference_model, gap)
    C = bounds.c_s_alpha(2, gap, 0.25, alpha)
    K = bounds.d_s1_bound(trunc_gauss_abs_moment_bound(),
                          trunc_gauss_power_moment_bound(2.0),
                          s=0.25, t=1.0, q=2.0).value
    a0 = bounds.a_zero(gap, 0.25, C, K)
    assert a0 == pytest.approx(2.2986155750464074e30, rel=1e-6)
    assert gap / (2.0 * a0) == pytest.approx(4.3501854733946225e-31, rel=1e-6, abs=0)


def test_a_zero_validation():
    with pytest.raises(ValueError):
        bounds.a_zero(0.0, 0.25, 1.0, 1.0)
    with pytest.raises(ValueError):
        bounds.a_zero(1.0, 0.25, -1.0, 1.0)


# ------------------------------------------------- strong-disorder threshold


def test_row_moment_sums_reference_point(reference_model):
    # per orbital: the opposite onsite entry t1, two t1 neighbors, four
    # t2 neighbors at distance 1 and two at sqrt(2)
    t2 = 1.0 / (3.0 * math.sqrt(3.0))
    s = np.array([0.3, 0.5, 0.78])
    got = bounds._row_moment_sums(bounds._block_magnitudes(reference_model), s)
    assert got.shape == (3,)
    for g, si in zip(got, s):
        assert g == pytest.approx(3.0 + 6.0 * t2 ** si, rel=1e-12)


def test_strong_threshold_reference_point(reference_model):
    # frozen scan optimum for the unit truncated Gaussian: the measure
    # factor erf(1/sqrt 2) turns the threshold into a law-independent
    # coefficient just below 40
    rep = bounds.strong_disorder_threshold(reference_model, truncated_gaussian(1.0))
    assert rep.value == pytest.approx(58.5541125042437, rel=1e-6)
    assert rep.s_opt == pytest.approx(0.7779, abs=2e-3)
    coeff = rep.value * math.erf(1.0 / math.sqrt(2.0))
    assert 35.0 < coeff < 39.98
    assert coeff == pytest.approx(39.97427732805992, rel=1e-6)


def test_strong_threshold_scans_s_only(reference_model, monkeypatch):
    # one row sum per s grid point plus the golden-section refinement;
    # a (s, mu) grid would need thousands
    sizes = []
    row_sums = bounds._row_moment_sums

    def spy(mags, s):
        sizes.append(np.size(s))
        return row_sums(mags, s)

    monkeypatch.setattr(bounds, "_row_moment_sums", spy)
    bounds.strong_disorder_threshold(reference_model, truncated_gaussian(1.0))
    assert 64 <= sum(sizes) < 200


def _threshold_case(model, spec):
    # the threshold objective of one model and law, and the bracket its
    # s-scan hands to the golden section
    tau, C2 = spec.tau, 2.0 ** spec.tau * spec.C_tau
    mags = bounds._block_magnitudes(model)

    def f(s):
        c = tau * C2 ** (s / tau) / (tau - s)
        return (c * float(bounds._row_moment_sums(mags, s))) ** (1.0 / s)

    grid = np.geomspace(0.01 * tau, 0.99 * tau, 64)
    k = int(np.argmin([f(s) for s in grid]))
    return f, (float(grid[k - 1]), float(grid[k]), float(grid[k + 1]))


_GOLDEN_CASES = {
    "threshold-tg": lambda: _threshold_case(haldane_model(HaldaneParams()),
                                            truncated_gaussian(1.0)),
    "threshold-uniform": lambda: _threshold_case(haldane_model(HaldaneParams()),
                                                 uniform(1.0)),
    "threshold-uniform-skew": lambda: _threshold_case(
        haldane_model(HaldaneParams(t2=0.3)), uniform(0.5, 2.0)),
    "quadratic": lambda: (lambda x: (x - 0.3) ** 2, (0.0, 0.2, 1.0)),
    "quadratic-left-heavy": lambda: (lambda x: (x - 0.3) ** 2, (-1.0, 0.25, 0.4)),
    "quadratic-right-heavy": lambda: (lambda x: (x - 0.3) ** 2, (0.2, 0.35, 2.0)),
    "quadratic-offset": lambda: (lambda x: 5.0 + 2.0 * (x + 7.5) ** 2, (-9.0, -7.0, -6.0)),
    "quartic": lambda: (lambda x: (x - 1.0) ** 4 + 0.1 * x, (0.0, 0.6, 2.0)),
    "cosh": lambda: (lambda x: math.cosh(x - 0.7), (-3.0, 1.0, 1.5)),
    "exp-linear": lambda: (lambda x: math.exp(x) - 2.0 * x, (-1.0, 0.5, 2.0)),
    "x-log-x": lambda: (lambda x: x * math.log(x), (0.05, 0.4, 1.0)),
    "rational": lambda: (lambda x: x + 1.0 / x, (0.1, 1.3, 5.0)),
    "abs-power": lambda: (lambda x: abs(x - 0.123) ** 1.5, (-1.0, 0.1, 1.0)),
    "cosine": lambda: (lambda x: math.cos(x), (2.0, 3.0, 4.5)),
    "gaussian-well": lambda: (lambda x: -math.exp(-(x - 2.0) ** 2), (0.0, 2.5, 3.0)),
    "narrow": lambda: (lambda x: (x - 1e-3) ** 2, (0.0, 1e-3, 3e-3)),
    "large-scale": lambda: (lambda x: (x - 4.2e5) ** 2, (1e5, 4e5, 9e5)),
    "symmetric-bracket": lambda: (lambda x: (x + 0.3) ** 2, (-1.0, 0.0, 1.0)),
    "log-barrier": lambda: (lambda x: -math.log(x) - math.log(1.0 - x) + x, (0.01, 0.5, 0.99)),
    "sin-well": lambda: (lambda x: math.sin(3.0 * x) + 0.5 * x, (-1.0, -0.4, 0.0)),
    "power-moment": lambda: (lambda s: (4.0 * 0.6 ** s / (1.0 - s)) ** (1.0 / s),
                             (0.3, 0.6, 0.95)),
}


@pytest.mark.parametrize("name", list(_GOLDEN_CASES))
def test_golden_matches_scipy_bit_for_bit(name):
    from scipy.optimize import minimize_scalar

    f, (a, b, c) = _GOLDEN_CASES[name]()
    got = bounds._golden(f, a, b, c, 1e-10)
    res = minimize_scalar(f, bracket=(a, b, c), method="golden", options={"xtol": 1e-10})
    assert got is not None
    assert got == (float(res.x), float(res.fun))


def test_golden_runs_both_first_probe_branches():
    # right-heavy: the first probe lands right of xb; left-heavy, and a
    # bracket with equal sides: left of it
    probes = []

    def f(x):
        probes.append(x)
        return (x - 0.3) ** 2

    bounds._golden(f, 0.2, 0.35, 2.0, 1e-10)
    assert probes[3] == 0.35 and probes[4] > 0.35
    for bracket in ((-1.0, 0.25, 0.4), (-0.5, 0.25, 1.0)):
        probes.clear()
        bounds._golden(f, *bracket, 1e-10)
        assert probes[3] < 0.25 and probes[4] == 0.25


@pytest.mark.parametrize("f, bracket", [
    (lambda x: 1.0, (0.0, 0.5, 1.0)),  # flat
    (lambda x: x, (0.0, 0.5, 1.0)),  # monotone increasing
    (lambda x: -x, (0.0, 0.5, 1.0)),  # monotone decreasing
    (lambda x: x * x, (0.0, 0.0, 1.0)),  # xb not strictly inside
], ids=["flat", "increasing", "decreasing", "degenerate"])
def test_golden_invalid_bracket_is_none_where_scipy_raises(f, bracket):
    from scipy.optimize import minimize_scalar

    assert bounds._golden(f, *bracket, 1e-10) is None
    with pytest.raises(ValueError):
        minimize_scalar(f, bracket=bracket, method="golden", options={"xtol": 1e-10})


def test_strong_threshold_uniform_law(reference_model):
    rep = bounds.strong_disorder_threshold(reference_model, uniform(1.0))
    assert rep.value == pytest.approx(50.100326904227984, rel=1e-6)


def test_strong_threshold_onsite_only_model():
    m = HoppingModel(n=2, r=1, hoppings={
        (0, 0): np.array([[1.0, 0.0], [0.0, -1.0]]),
    })
    rep = bounds.strong_disorder_threshold(m, uniform(1.0))
    assert rep.value == 0.0


def test_strong_threshold_degree_one_homogeneous(reference_model):
    # scaling every hopping by c scales the threshold by exactly c
    scaled = HoppingModel(n=2, r=1, hoppings={
        d: 2.0 * m for d, m in reference_model.hoppings.items()})
    spec = truncated_gaussian(1.0)
    base = bounds.strong_disorder_threshold(reference_model, spec)
    double = bounds.strong_disorder_threshold(scaled, spec)
    assert double.value == pytest.approx(2.0 * base.value, rel=1e-9)


# ------------------------------------------------------------ plug-in bounds


def test_wegner_bound_values():
    # 4 pi * 2 * (1/2) * 64 * eps / 2 = 128 pi eps, capped at one
    assert bounds.wegner_bound(2, 0.5, 1.0, 8, 1e-2, 2.0) == 1.0
    assert bounds.wegner_bound(2, 0.5, 1.0, 8, 1e-5, 2.0) == pytest.approx(
        128.0 * math.pi * 1e-5, rel=1e-12)
    assert bounds.wegner_bound(1, 1.0, 1.0, 1, 1e-3, 1.0) == pytest.approx(
        4.0 * math.pi * 1e-3, rel=1e-12)
    with pytest.raises(ValueError):
        bounds.wegner_bound(2, 0.5, 1.0, 8, 1e-3, 0.0)
    with pytest.raises(ValueError):
        bounds.wegner_bound(2, 0.5, 1.0, 8, 0.0, 1.0)


def test_wegner_bound_sublinear_in_tau():
    # heavier-tailed regularity (smaller tau) weakens the eps scaling
    v1 = bounds.wegner_bound(2, 0.5, 1.0, 8, 1e-4, 2.0)
    v_half = bounds.wegner_bound(2, 0.5, 0.5, 8, 1e-4, 2.0)
    assert v_half > v1


@settings(max_examples=40, deadline=None)
@given(eps=st.floats(min_value=1e-4, max_value=0.05),
       lam=st.floats(min_value=0.5, max_value=3.0))
def test_wegner_bound_monotone_and_capped(eps, lam):
    v = bounds.wegner_bound(2, 0.5, 1.0, 8, eps, lam)
    assert 0.0 < v <= 1.0
    assert bounds.wegner_bound(2, 0.5, 1.0, 8, eps * 0.5, lam) <= v
