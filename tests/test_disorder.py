import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chernlab.disorder import (
    DistributionSpec,
    abs_moment,
    custom_density,
    hash64,
    sample_potential,
    spec_from_json,
    trunc_gauss_abs_moment_bound,
    trunc_gauss_power_moment_bound,
    truncated_gaussian,
    uniform,
)
from chernlab.lattice import box_sites


def _ks_statistic(spec, values):
    v = np.sort(values)
    n = len(v)
    c = spec.cdf(v)
    return max(np.max(np.abs(np.arange(1, n + 1) / n - c)),
               np.max(np.abs(np.arange(n) / n - c)))


@pytest.mark.parametrize("spec", [uniform(1.0), truncated_gaussian(1.0), truncated_gaussian(2.5)])
def test_samples_match_law(spec):
    # one-sample KS against the exact CDF; N=3200 draws
    sample = sample_potential(spec, box_sites(40), n=2, seed=7, realization_index=0)
    assert _ks_statistic(spec, sample) < 0.02


@pytest.mark.parametrize("spec", [uniform(0.5, 2.0), truncated_gaussian(1.5)])
def test_support(spec):
    sample = sample_potential(spec, box_sites(30), n=2, seed=3, realization_index=1)
    assert np.all(sample >= -spec.a - 1e-12)
    assert np.all(sample <= spec.b + 1e-12)


def test_reproducible_and_distinct():
    spec = uniform(1.0)
    box = box_sites(6)
    a = sample_potential(spec, box, 2, seed=42, realization_index=3)
    b = sample_potential(spec, box, 2, seed=42, realization_index=3)
    c = sample_potential(spec, box, 2, seed=42, realization_index=4)
    d = sample_potential(spec, box, 2, seed=43, realization_index=3)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_nested_boxes_agree_on_shared_sites():
    # values are keyed by coordinates, so a subbox sees the same draws
    spec = truncated_gaussian(1.0)
    small, big = box_sites(5), box_sites(9)
    vs = sample_potential(spec, small, 2, seed=42, realization_index=3)
    vb = sample_potential(spec, big, 2, seed=42, realization_index=3)
    for i, (g1, g2) in enumerate(small.sites):
        j = big.index_of(int(g1), int(g2))
        assert j >= 0
        for orb in range(2):
            assert vs[2 * i + orb] == vb[2 * j + orb]


def test_hash64_order_sensitive():
    assert hash64(1, 2) != hash64(2, 1)
    assert hash64(5, -1) == hash64(5, -1)


def test_uniform_holder_constant():
    spec = uniform(1.0)
    tau, c = spec.tau, spec.C_tau
    assert tau == 1.0
    assert c == 0.5


def test_truncated_gaussian_holder_constant():
    # peak density (1/sqrt(2 pi)) / erf(a/sqrt(2)); at a=1 this is 0.584369...
    spec = truncated_gaussian(1.0)
    tau, c = spec.tau, spec.C_tau
    assert tau == 1.0
    assert c == pytest.approx((1.0 / math.sqrt(2 * math.pi)) / math.erf(1 / math.sqrt(2)), rel=1e-12)
    assert c == pytest.approx(0.584368567257, abs=1e-9)


def test_truncation_point_validation():
    with pytest.raises(ValueError):
        truncated_gaussian(0.5)


def test_ppf_inverts_cdf():
    from chernlab.disorder import _ppf

    u = np.linspace(1e-3, 1 - 1e-3, 997)
    for spec in (truncated_gaussian(1.0), truncated_gaussian(4.0)):
        x = _ppf(spec, u)
        assert np.max(np.abs(spec.cdf(x) - u)) < 1e-12


def test_abs_moment_below_uniform_bound():
    # E|v| for the truncated gaussian stays under sqrt(e) for every a >= 1
    for a in (1.0, 1.7, 3.0, 6.0):
        assert abs_moment(truncated_gaussian(a), 1.0) <= trunc_gauss_abs_moment_bound()


@pytest.mark.parametrize("q", [0.5, 1.0, 2.0, 3.0])
def test_power_moment_below_uniform_bound(q):
    for a in (1.0, 2.0, 4.0):
        spec = truncated_gaussian(a)
        v = np.linspace(-a, a, 20001)
        val = np.trapezoid(spec.pdf(v) ** (1.0 + q), v)
        assert val <= trunc_gauss_power_moment_bound(q)


def test_custom_density_normalizes_and_samples():
    pts = np.linspace(-2.0, 1.0, 301)
    spec = custom_density(pts, np.exp(-np.abs(pts)))
    assert spec.a == 2.0 and spec.b == 1.0
    v = np.linspace(-2.0, 1.0, 5001)
    assert np.trapezoid(spec.pdf(v), v) == pytest.approx(1.0, abs=1e-4)
    sample = sample_potential(spec, box_sites(40), 2, seed=11, realization_index=0)
    assert _ks_statistic(spec, sample) < 0.025


def test_spec_validation():
    with pytest.raises(ValueError):
        DistributionSpec(kind="x", a=-1.0, b=1.0, tau=1.0, C_tau=1.0)
    with pytest.raises(ValueError):
        DistributionSpec(kind="x", a=0.0, b=0.0, tau=1.0, C_tau=1.0)
    with pytest.raises(ValueError):
        DistributionSpec(kind="x", a=1.0, b=1.0, tau=1.5, C_tau=1.0)
    for field in ("a", "b", "tau", "C_tau"):
        for bad in (math.nan, math.inf):
            params = {"a": 1.0, "b": 1.0, "tau": 1.0, "C_tau": 1.0, field: bad}
            with pytest.raises(ValueError, match="must be finite"):
                DistributionSpec(kind="x", **params)


@pytest.mark.parametrize("a, b", [(0.0, None), (-1.0, 1.0), (0.0, 0.0), (-2.0, 1.0)])
def test_uniform_refuses_an_empty_support(a, b):
    # the support is checked before the density 1/(a + b) is formed: a
    # zero width once ended in a ZeroDivisionError
    with pytest.raises(ValueError, match=r"support \[-a, b\]"):
        uniform(a, b)
    doc = {"kind": "uniform", "a": a} if b is None else {"kind": "uniform", "a": a, "b": b}
    with pytest.raises(ValueError, match=r"support \[-a, b\]"):
        spec_from_json(doc)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_constructors_reject_non_finite_parameters(bad):
    pts = np.linspace(-1.0, 1.0, 5)
    cases = [lambda: uniform(bad), lambda: uniform(1.0, bad), lambda: truncated_gaussian(bad)]
    for i in range(len(pts)):
        cases.append(lambda i=i: custom_density(np.where(np.arange(5) == i, bad, pts), np.ones(5)))
        cases.append(lambda i=i: custom_density(pts, np.where(np.arange(5) == i, bad, 1.0)))
    for make in cases:
        with pytest.raises(ValueError, match="must be finite"):
            make()


def test_json_round_trip():
    s = spec_from_json({"kind": "uniform", "a": 1.0})
    assert s.kind == "uniform" and s.b == 1.0
    s = spec_from_json('{"kind": "truncated_gaussian", "a": 2.0}')
    assert s.kind == "truncated_gaussian" and s.C_tau < 0.5
    # a recorded "beta" key is read by nothing and loads like any other
    # unknown key
    tabled = {"kind": "custom_density", "points": [-1, 0, 1], "density": [0.0, 1.0, 0.0]}
    s = spec_from_json(dict(tabled, beta=3.0))
    ref = spec_from_json(tabled)
    assert (s.kind, s.a, s.b, s.tau, s.C_tau) == (ref.kind, ref.a, ref.b, ref.tau, ref.C_tau)
    assert not hasattr(s, "beta")
    with pytest.raises(ValueError):
        spec_from_json({"kind": "bogus"})


TABLE = {"kind": "custom_density", "points": [-1, 0, 1], "density": [0.0, 1.0, 0.0]}


@pytest.mark.parametrize("doc, key", [
    ({"kind": "uniform", "a": "nan"}, "a"),  # a NaN support
    ({"kind": "uniform", "a": True}, "a"),  # ran as a = 1
    ({"kind": "uniform", "a": "1e400"}, "a"),  # an infinite support
    ('{"kind": "uniform", "a": 1e400}', "a"),
    ({"kind": "uniform", "a": 1.0, "b": None}, "b"),
    ({"kind": "uniform"}, "a"),
    ({"kind": "truncated_gaussian", "a": [1]}, "a"),  # escaped as a TypeError
    ({**TABLE, "points": [-1, float("nan"), 1]}, "points"),  # C_tau = nan
    ({**TABLE, "density": "0 1 0"}, "density"),
    ({"kind": "custom_density", "points": [-1, 0, 1]}, "density"),
    ([1], "distribution"),  # escaped as an AttributeError
])
def test_json_values_are_checked(doc, key):
    # a missing value or one that is not a finite JSON number (or a list
    # of them) raises ValueError naming its key
    with pytest.raises(ValueError, match=f"^{key} must be "):
        spec_from_json(doc)


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=0, max_value=50))
@settings(max_examples=25, deadline=None)
def test_sampling_pure_function_of_key(seed, idx):
    spec = uniform(1.0)
    box = box_sites(3)
    a = sample_potential(spec, box, 2, seed, idx)
    b = sample_potential(spec, box, 2, seed, idx)
    assert np.array_equal(a, b)
    assert np.all(np.abs(a) <= 1.0)
