"""Monte-Carlo probe tests.

Every stochastic assertion below is deterministic: draws are keyed by
(master_seed, realization, site, orbital), so the frozen numbers are
exact reruns, not statistical expectations. Values were measured once
with throwaway driver scripts and are asserted at the printed precision.
"""

import gc
import threading
import weakref

import numpy as np
import pytest

from chernlab import finite_volume, probes
from chernlab.bounds import (
    alpha_for_gap,
    combes_thomas_rate,
    combes_thomas_salpha,
    strong_disorder_threshold,
)
from chernlab.bloch import band_structure
from chernlab.disorder import truncated_gaussian, uniform
from chernlab.finite_volume import restrict_periodic, spectral_projection
from chernlab.lattice import box_sites
from chernlab.model import HaldaneParams, haldane_model
from chernlab.probes import (
    EnsembleConfig,
    averaged_marker_scan,
    bump_window,
    disorder_continuity_check,
    disorder_continuity_lhs,
    ids_continuity_check,
    ids_estimate,
    loglog_slope,
    max_secant_slope,
    projection_decay,
    suitable_box_probability,
    time_averaged_moment,
    transport_slope,
    wegner_empirical,
    wilson_interval,
)
from chernlab.topology import chern_marker


@pytest.fixture(scope="module")
def model():
    return haldane_model(HaldaneParams())


@pytest.fixture(scope="module")
def trivial_model():
    # mass-dominated, t2 = 0: gapped with a fast-decaying gap resolvent
    return haldane_model(HaldaneParams(t1=1.0, t2=0.0, phi=0.0, M=1.0))


def clean_cfg(model, L, bc="periodic"):
    return EnsembleConfig(model=model, spec=None, lam=0.0, box_L=L, bc=bc)


# ---------------------------------------------------------------- config


def test_config_validation(model):
    with pytest.raises(ValueError):
        EnsembleConfig(model=model, spec=None, lam=1.0, box_L=8)  # needs spec
    with pytest.raises(ValueError):
        EnsembleConfig(model=model, spec=None, lam=0.0, box_L=8, n_realizations=0)
    with pytest.raises(ValueError):
        EnsembleConfig(model=model, spec=None, lam=0.0, box_L=8, bc="moebius")
    with pytest.raises(ValueError):
        EnsembleConfig(model=model, spec=None, lam=-0.5, box_L=8)


def test_wilson_interval_basics():
    lo, hi = wilson_interval(0, 50)
    assert lo == 0.0 and 0.0 < hi < 0.2
    lo, hi = wilson_interval(16, 100)
    # frozen scipy Wilson bracket for 16/100 at 99%
    assert lo == pytest.approx(0.0872934555, rel=1e-8)
    assert hi == pytest.approx(0.2750166121, rel=1e-8)


def test_wilson_interval_matches_scipy_bit_for_bit():
    from scipy.stats import binomtest

    # the interval ignores the null proportion p; p = k/n only makes
    # binomtest's unused p-value trivial to compute
    for n in range(1, 201):
        for k in range(n + 1):
            ci = binomtest(k, n, p=k / n).proportion_ci(0.99, method="wilson")
            assert wilson_interval(k, n) == (ci.low, ci.high), (k, n)
    for k, n in ((0, 0), (-1, 5), (6, 5)):
        with pytest.raises(ValueError):
            wilson_interval(k, n)


# ---------------------------------------------------------------- Wegner


def test_wegner_bound_holds_at_99(model):
    cfg = EnsembleConfig(model=model, spec=uniform(1.0), lam=2.0, box_L=8,
                         bc="periodic", n_realizations=400, master_seed=5)
    rows = wegner_empirical(cfg, 0.0, [1e-3, 1e-2])
    assert [r.eps for r in rows] == [1e-3, 1e-2]
    for r in rows:
        assert r.empirical <= r.upper_99 <= r.bound
        assert r.n == 400


def test_wegner_epsilon_spanning_spectrum_saturates(model):
    cfg = EnsembleConfig(model=model, spec=uniform(1.0), lam=2.0, box_L=6,
                         bc="periodic", n_realizations=10, master_seed=1)
    row, = wegner_empirical(cfg, 0.0, [100.0])
    assert row.empirical == 1.0
    assert row.bound == 1.0


def test_wegner_large_lambda_rarefies(model):
    # 1/lam^tau scaling direction: same eps, stronger disorder, fewer hits
    mk = lambda lam: EnsembleConfig(model=model, spec=uniform(1.0), lam=lam,
                                    box_L=6, bc="periodic",
                                    n_realizations=200, master_seed=2)
    weak, = wegner_empirical(mk(2.0), 0.0, [1e-2])
    strong, = wegner_empirical(mk(80.0), 0.0, [1e-2])
    assert strong.empirical < weak.empirical
    assert strong.bound < weak.bound


# ---------------------------------------------------------------- suitability


def test_suitability_deterministic_gapped_points(model):
    # mass-dominated point: core-to-shell block norm 4.2e-6 at L=13,
    # two decades under the 13^-3 threshold
    m5 = haldane_model(HaldaneParams(t1=1.0, t2=0.0, phi=0.0, M=5.0))
    r = suitable_box_probability(clean_cfg(m5, 13), 0.0, 3.0)
    assert r.probability == 1.0 and r.n == 1

    # the default topological point has spectral distance 1 at E=0 and a
    # measured block norm 1.12e-2: passes theta=1 (vs 13^-1) but not
    # theta=3 (vs 13^-3 = 4.55e-4); only strongly gapped models pass 3
    r1 = suitable_box_probability(clean_cfg(model, 13), 0.0, 1.0)
    r3 = suitable_box_probability(clean_cfg(model, 13), 0.0, 3.0)
    assert r1.probability == 1.0
    assert r3.probability == 0.0


def test_suitability_enormous_theta_rejects(model):
    r = suitable_box_probability(clean_cfg(model, 13), 0.0, 50.0)
    assert r.probability == 0.0


def test_suitability_trend_with_box_size(model):
    # band-edge energy outside the typical finite-box spectrum: decay is
    # exponential at fixed rate while the pass threshold L^-1 only decays
    # polynomially, so growing L wins; frozen seeded values
    probs = []
    for L in (7, 13):
        cfg = EnsembleConfig(model=model, spec=uniform(1.0), lam=0.3, box_L=L,
                             bc="periodic", n_realizations=60, master_seed=11)
        r = suitable_box_probability(cfg, 3.2, 1.0)
        probs.append(r.probability)
        assert r.ci_low <= r.probability <= r.ci_high
    assert probs[0] == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert probs[1] == 1.0


# ---------------------------------------------------------------- decay


def test_decay_clean_midgap_rate(trivial_model):
    bs = band_structure(trivial_model, 101)
    prof = projection_decay(clean_cfg(trivial_model, 14), (-0.2, 0.2))
    # measured fit on box 14; the analytic resolvent rate is a one-sided
    # guarantee and is ~20x looser than the observed decay, so the fit
    # must clear at least 70% of it
    assert prof.fit_rate == pytest.approx(0.94637, rel=1e-4)
    assert prof.r_squared == pytest.approx(0.86178, rel=1e-3)
    alpha = alpha_for_gap(trivial_model, bs.gap_sizes[0])
    s_alpha = combes_thomas_salpha(trivial_model, alpha)
    delta = bs.gaps[0][1] - 0.2
    _, rate = combes_thomas_rate(s_alpha, alpha, delta)
    assert prof.fit_rate >= 0.7 * rate


def test_decay_strong_disorder_exponential_fit(model):
    lam = 2.0 * strong_disorder_threshold(model, truncated_gaussian(1.0)).value
    cfg = EnsembleConfig(model=model, spec=truncated_gaussian(1.0), lam=lam,
                         box_L=12, bc="periodic", n_realizations=40,
                         master_seed=21)
    prof = projection_decay(cfg, (-0.5, 0.5))
    assert prof.fit_rate == pytest.approx(3.12621, rel=1e-4)
    assert prof.fit_rate > 0
    assert prof.r_squared > 0.9


def test_decay_identity_window_is_flat(model):
    # window above the whole spectrum: projection = identity, kernel has
    # no off-diagonal mass, fit degenerates to zeros
    prof = projection_decay(clean_cfg(model, 10), (10.0, 11.0))
    off = prof.means[prof.distances > 0]
    assert np.all(off < 1e-13)
    assert (prof.fit_amplitude, prof.fit_rate, prof.r_squared) == (0.0, 0.0, 0.0)


# ---------------------------------------------------------------- IDS


def test_ids_rank_counts(model):
    rows = ids_estimate(clean_cfg(model, 10), [-5.0, 0.0, 5.0])
    vals = [(r.E, r.value, r.stderr) for r in rows]
    assert vals[0] == (-5.0, 0.0, 0.0)
    assert vals[1] == (0.0, 1.0, 0.0)  # half filling at the internal gap
    assert vals[2] == (5.0, 2.0, 0.0)  # full rank: n states per cell


def test_ids_monotone_under_disorder(model):
    cfg = EnsembleConfig(model=model, spec=uniform(1.0), lam=1.0, box_L=8,
                         bc="periodic", n_realizations=20, master_seed=3)
    rows = ids_estimate(cfg, list(np.linspace(-4.0, 4.0, 9)))
    vals = [r.value for r in rows]
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    assert vals[0] == 0.0 and vals[-1] == 2.0
    assert vals[4] == pytest.approx(1.0, abs=1e-12)  # E=0, particle-hole pair


def test_ids_energy_continuity(model):
    cfg = EnsembleConfig(model=model, spec=uniform(1.0), lam=2.0, box_L=10,
                         bc="periodic", n_realizations=60, master_seed=4)
    r = ids_continuity_check(cfg, -0.05, 0.05)
    assert r.passed and r.lhs > 0
    assert r.lhs == pytest.approx(0.00616667, rel=1e-5)
    # rhs closed form: 2^(2-tau) n pi C_tau (dE/lam)^tau, uniform C_tau=1/2
    assert r.rhs == pytest.approx(2.0 * 2 * np.pi * 0.5 * (0.1 / 2.0), rel=1e-12)

    # off-diagonal variant carries n^2 rather than n
    ro = ids_continuity_check(cfg, -0.05, 0.05, off_diagonal=True)
    assert ro.passed
    assert ro.rhs == pytest.approx(2.0 * r.rhs, rel=1e-12)


def test_ids_continuity_degenerate_and_invalid(model):
    cfg = EnsembleConfig(model=model, spec=uniform(1.0), lam=1.0, box_L=6,
                         bc="periodic", n_realizations=5, master_seed=0)
    r = ids_continuity_check(cfg, 0.3, 0.3)
    assert (r.lhs, r.rhs, r.passed) == (0.0, 0.0, True)
    with pytest.raises(ValueError):
        ids_continuity_check(cfg, 0.5, 0.3)
    bad = EnsembleConfig(model=cfg.model, spec=None, lam=0.0, box_L=6)
    with pytest.raises(ValueError):
        ids_continuity_check(bad, 0.0, 0.1)


def test_lifshitz_protected_window_gives_zero_lhs(model):
    # at lam=1 the shifted band edges just touch E=0; no finite sample
    # puts an eigenvalue inside the window, so the bound holds trivially
    cfg = EnsembleConfig(model=model, spec=uniform(1.0), lam=1.0, box_L=10,
                         bc="periodic", n_realizations=60, master_seed=4)
    r = ids_continuity_check(cfg, -0.05, 0.05)
    assert r.lhs == 0.0 and r.passed


# ------------------------------------------------------- disorder continuity


def test_disorder_continuity_mid_spectrum(model):
    cfg = EnsembleConfig(model=model, spec=uniform(1.0), lam=1.0, box_L=10,
                         bc="periodic", n_realizations=40, master_seed=9)
    r = disorder_continuity_check(cfg, 1.0, 2.0, 0.0, rungs=6)
    assert r.passed
    assert r.target == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert r.exponent == pytest.approx(1.0099, abs=2e-3)
    # coupled sampling halves lhs with each halved rung
    ratios = r.lhs[1:] / r.lhs[:-1]
    assert np.all((0.45 < ratios) & (ratios < 0.55))


def test_disorder_continuity_gap_is_lipschitz(model):
    cfg = EnsembleConfig(model=model, spec=uniform(1.0), lam=1.0, box_L=10,
                         bc="periodic", n_realizations=40, master_seed=9)
    r = disorder_continuity_check(cfg, 0.1, 0.2, 0.0, rungs=5)
    assert r.exponent >= 0.9


def test_disorder_continuity_equal_lambdas(model):
    cfg = EnsembleConfig(model=model, spec=uniform(1.0), lam=1.0, box_L=8,
                         bc="periodic", n_realizations=10, master_seed=9)
    assert disorder_continuity_lhs(cfg, 1.3, 1.3, 0.0) == 0.0


def test_disorder_continuity_validation(model):
    cfg = EnsembleConfig(model=model, spec=uniform(1.0), lam=1.0, box_L=8,
                         bc="periodic", n_realizations=5, master_seed=0)
    with pytest.raises(ValueError):
        disorder_continuity_check(cfg, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        disorder_continuity_check(cfg, 2.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        disorder_continuity_check(cfg, 1.0, 2.0, 0.0, rungs=1)


# ---------------------------------------------------------------- marker scan


def test_marker_scan_topological_vs_strong_disorder(model):
    thr = strong_disorder_threshold(model, truncated_gaussian(2.0)).value
    cfg = EnsembleConfig(model=model, spec=truncated_gaussian(2.0), lam=0.1,
                         box_L=12, bc="periodic", n_realizations=20,
                         master_seed=14)
    weak, strong = averaged_marker_scan(cfg, [0.0], [0.1, 1.5 * thr],
                                        window_L=4)
    assert weak.mean == pytest.approx(-0.99911044, rel=1e-6)
    assert abs(weak.mean + 1.0) < 0.2
    assert abs(strong.mean) < 1e-5
    assert abs(weak.mean - strong.mean) > 0.5


def test_marker_scan_clean_column_equals_marker(model):
    box = box_sites(10)
    op = restrict_periodic(model, None, 0.0, box)
    P = spectral_projection(op, 0.0)
    direct = chern_marker(P, box, 3).value
    row, = averaged_marker_scan(clean_cfg(model, 10), [0.0], [0.0], window_L=3)
    assert row.mean == pytest.approx(direct, abs=1e-12)
    assert row.stderr == 0.0


def test_marker_scan_never_forms_projection(model, monkeypatch):
    # the scan reads window rows from the occupied vectors: no realization
    # may build an N x N projection, lazily or raw
    formed = []
    monkeypatch.setattr(finite_volume.ProjectionMatrix, "matrix",
                        property(lambda P: formed.append("matrix")))
    monkeypatch.setattr(finite_volume, "fermi_matrix",
                        lambda *a: formed.append("fermi_matrix"))
    monkeypatch.setattr(probes, "fermi_matrix",
                        lambda *a: formed.append("fermi_matrix"))
    cfg = EnsembleConfig(model=model, spec=truncated_gaussian(2.0), lam=0.1,
                         box_L=8, bc="periodic", n_realizations=2, master_seed=3)
    rows = averaged_marker_scan(cfg, [0.0, -1.3], [0.0, 0.1], window_L=3)
    assert len(rows) == 4 and all(np.isfinite(r.mean) for r in rows)
    assert formed == []


# ---------------------------------------------------------------- moments


def test_moment_t_zero_matches_static_envelope(model):
    # independent recompute of the T->0 limit: the envelope of the
    # windowed unit-cell state under the position weight
    L, p, window = 8, 2.0, (2.0, 0.5)
    box = box_sites(L)
    op = restrict_periodic(model, None, 0.0, box)
    w, v = np.linalg.eigh(op.matrix)
    g = bump_window(*window)(w)
    origin = box.index_of(0, 0)
    psi = (v * g) @ v.conj().T[:, 2 * origin:2 * origin + 2]
    weight = 1.0 + np.sum(box.sites.astype(float) ** 2, axis=1)
    envelope = float(np.sum(np.repeat(weight, 2)[:, None] ** (p / 2.0) * np.abs(psi) ** 2))

    row, = time_averaged_moment(clean_cfg(model, L), p, window, [0.0])
    assert row.mean == pytest.approx(envelope, rel=1e-12)


def test_moment_clean_growth_is_ballistic(model):
    Ts = [0.0] + list(np.geomspace(1.0, 100.0, 9))
    rows = time_averaged_moment(clean_cfg(model, 14), 2.0, (2.0, 0.5), Ts)
    M = [r.mean for r in rows]
    assert transport_slope(Ts, M) == pytest.approx(1.9086, abs=2e-3)


def test_moment_strong_disorder_is_flat(model):
    thr = strong_disorder_threshold(model, truncated_gaussian(2.0)).value
    cfg = EnsembleConfig(model=model, spec=truncated_gaussian(2.0),
                         lam=2.0 * thr, box_L=12, bc="periodic",
                         n_realizations=10, master_seed=5)
    Ts = [0.0] + list(np.geomspace(1.0, 100.0, 9))
    rows = time_averaged_moment(cfg, 2.0, (2.0, 0.5), Ts)
    M = [r.mean for r in rows]
    assert abs(loglog_slope(Ts[1:], M[1:])) < 0.1
    assert transport_slope(Ts, M) == 0.0  # increment saturates below the floor


def test_moment_window_outside_spectrum_is_zero(model):
    rows = time_averaged_moment(clean_cfg(model, 8), 2.0, (10.0, 0.5), [0.0, 1.0])
    assert all(r.mean == 0.0 for r in rows)


def test_moment_validation(model):
    cfg = clean_cfg(model, 8)
    with pytest.raises(ValueError):
        time_averaged_moment(cfg, -1.0, (2.0, 0.5), [1.0])
    with pytest.raises(ValueError):
        time_averaged_moment(cfg, 2.0, (2.0, 0.5), [-1.0])
    with pytest.raises(ValueError):
        time_averaged_moment(cfg, 4000.0, (2.0, 0.5), [1.0])  # weight overflows


def test_bump_window_shape():
    g = bump_window(2.0, 0.5)
    assert g(np.array([2.0]))[0] == 1.0
    assert g(np.array([1.5, 2.5])).tolist() == [0.0, 0.0]
    assert 0.0 < g(np.array([2.4]))[0] < 0.05  # quartic contact at the edge
    with pytest.raises(ValueError):
        bump_window(2.0, 0.0)


# ---------------------------------------------------------------- slopes


def test_slope_estimators_on_synthetic_data():
    T = np.geomspace(1.0, 100.0, 9)
    assert loglog_slope(T, 3.0 * T ** 1.7) == pytest.approx(1.7, rel=1e-12)
    assert max_secant_slope(T, 3.0 * T ** 1.7) == pytest.approx(1.7, rel=1e-12)
    grid = np.concatenate([[0.0], T])
    assert transport_slope(grid, 1.0 + 0.03 * grid ** 2) == pytest.approx(2.0, rel=1e-9)
    assert transport_slope(grid, np.full(10, 7.0)) == 0.0


def test_slope_estimator_validation():
    with pytest.raises(ValueError):
        loglog_slope([1.0], [2.0])
    with pytest.raises(ValueError):
        max_secant_slope([1.0, 2.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        transport_slope([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])  # must start at 0
    with pytest.raises(ValueError):
        transport_slope([0.0, 2.0, 1.0], [1.0, 2.0, 3.0])


# ---------------------------------------------------------------- determinism


def test_finished_probe_call_keeps_no_reference(monkeypatch):
    # the clean restriction is scoped to one probe call: once the call
    # returns, neither it nor the model may stay reachable from chernlab
    built = []
    restrict = probes.restrict_periodic

    def spy(*args):
        op = restrict(*args)
        built.append(weakref.ref(op.matrix))
        return op

    monkeypatch.setattr(probes, "restrict_periodic", spy)
    fresh = haldane_model(HaldaneParams())
    model_ref = weakref.ref(fresh)
    cfg = EnsembleConfig(model=fresh, spec=uniform(1.0), lam=2.0, box_L=6,
                         bc="periodic", n_realizations=3, master_seed=1)
    wegner_empirical(cfg, 0.0, [1e-2], threads=2)
    ids_estimate(cfg, [0.0])
    averaged_marker_scan(cfg, [0.0], [0.0, 1.0], window_L=2)
    del fresh, cfg
    gc.collect()
    assert len(built) == 3
    assert all(ref() is None for ref in built)
    assert model_ref() is None


def test_thread_count_never_changes_results(model):
    cfg = EnsembleConfig(model=model, spec=uniform(1.0), lam=2.0, box_L=7,
                         bc="periodic", n_realizations=30, master_seed=8)
    serial = wegner_empirical(cfg, 0.0, [1e-2, 1e-1])
    pooled = wegner_empirical(cfg, 0.0, [1e-2, 1e-1], threads=3)
    assert serial == pooled

    s1 = suitable_box_probability(cfg, 3.2, 1.0)
    s3 = suitable_box_probability(cfg, 3.2, 1.0, threads=3)
    assert s1 == s3


def test_realizations_run_in_order_on_the_calling_thread(monkeypatch, model):
    # --threads selects nothing: every draw happens on the caller's
    # thread, realization 0 first, whatever value is passed
    calls = []
    sample = probes.sample_potential

    def spy(spec, box, n, master_seed, k):
        calls.append((threading.get_ident(), k))
        return sample(spec, box, n, master_seed, k)

    monkeypatch.setattr(probes, "sample_potential", spy)
    cfg = EnsembleConfig(model=model, spec=uniform(1.0), lam=2.0, box_L=6,
                         bc="periodic", n_realizations=5, master_seed=3)
    me = threading.get_ident()
    wegner_empirical(cfg, 0.0, [1e-2], threads=3)
    assert calls == [(me, k) for k in range(5)]
    calls.clear()
    averaged_marker_scan(cfg, [0.0], [0.0, 1.0], window_L=2, threads=0)
    assert calls == [(me, k) for k in range(5)]
