"""Acceptance suite: one test per headline guarantee, numbered 01-10.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line
per guarantee. Everything is seeded, so reruns are exact; the ensemble
sizes are chosen so the whole file finishes in minutes on one core.
Wall-clock guards appear only where the guarantee itself names one.
"""

import json
import math
import time

import numpy as np
import pytest

from chernlab.bloch import band_structure, chern_number
from chernlab.bounds import (
    a_zero,
    alpha_for_gap,
    c_s_alpha,
    d_s1_bound,
    strong_disorder_threshold,
)
from chernlab.cli import main as cli_main
from chernlab.disorder import (
    trunc_gauss_abs_moment_bound,
    trunc_gauss_power_moment_bound,
    truncated_gaussian,
    uniform,
)
from chernlab.finite_volume import (
    ProjectionMatrix,
    restrict_periodic,
    restrict_simple,
)
from chernlab.lattice import box_sites, inner_boundary
from chernlab.model import HaldaneParams, haldane_model
from chernlab.probes import (
    EnsembleConfig,
    averaged_marker_scan,
    suitable_box_probability,
    time_averaged_moment,
    transport_slope,
    wegner_empirical,
)
from chernlab.topology import chern_marker, chern_marker_triple

T2 = 1.0 / (3.0 * math.sqrt(3.0))
EDGE = 3.0 * math.sqrt(3.0)  # critical |M|/t2 at |sin phi| = 1


@pytest.fixture(scope="module")
def model():
    return haldane_model(HaldaneParams())


def test_criterion_01_phase_diagram_classification():
    # 41 x 41 sweep of (phi, M/t2); away from the critical curve
    # |M|/t2 = 3 sqrt(3) |sin phi| the invariant must be -sign(sin phi)
    # between the branches and 0 outside, and always land in {-1, 0, +1}
    start = time.perf_counter()
    checked = 0
    for phi in np.linspace(-math.pi, math.pi, 41):
        edge = EDGE * abs(math.sin(phi))
        for m in np.linspace(-6.0, 6.0, 41):
            near_curve = abs(abs(m) - edge) <= 0.1
            params = HaldaneParams(phi=float(phi), M=float(m) * T2)
            try:
                c = chern_number(haldane_model(params)).value
            except ValueError:
                # the gap can only close on the critical curve
                assert near_curve, (phi, m)
                continue
            assert c in (-1, 0, 1), (phi, m, c)
            if near_curve:
                continue
            want = -int(np.sign(math.sin(phi))) if abs(m) < edge else 0
            assert c == want, (phi, m, c, want)
            checked += 1
    assert checked >= 1500  # the excused strip is a thin minority of the grid
    assert time.perf_counter() - start < 60.0


def test_criterion_02_internal_gap_size(model):
    bs = band_structure(model, 201)
    assert bs.gap_open[0]
    assert bs.gap_sizes[0] == pytest.approx(2.000, abs=0.005)


def test_criterion_03_constants_pipeline(model):
    # every number below is computed from the model and the disorder law;
    # the references are golden values with the stated factor guards
    start = time.perf_counter()
    gap = band_structure(model, 201).gap_sizes[0]

    B_mom = trunc_gauss_abs_moment_bound()
    C_mom = trunc_gauss_power_moment_bound(2.0)
    K = d_s1_bound(B_mom, C_mom, 0.25, 1.0, 2.0)
    assert K.value == pytest.approx(22.96, abs=0.05)

    alpha = alpha_for_gap(model, gap)
    a0 = a_zero(gap, 0.25, c_s_alpha(model.n, gap, 0.25, alpha), K.value)
    assert 1.0 / 1.15 <= a0 / 2.4e30 <= 1.15
    assert 1.0 / 1.15 <= (gap / (2.0 * a0)) / 4.1e-31 <= 1.15

    thr = strong_disorder_threshold(model, truncated_gaussian(1.0))
    coefficient = thr.value * math.erf(1.0 / math.sqrt(2.0))
    assert 35.0 <= coefficient <= 39.98
    assert time.perf_counter() - start < 10.0


def test_criterion_04_marker_tracks_chern_number_and_sign():
    box = box_sites(24)
    markers = {}
    for phi, expect in ((math.pi / 2.0, -1), (-math.pi / 2.0, +1)):
        m = haldane_model(HaldaneParams(phi=phi))
        assert chern_number(m).value == expect
        P = ProjectionMatrix(restrict_periodic(m, box).eigenpairs(hi=0.0)[1])
        markers[expect] = chern_marker(P, box, 8)
        assert abs(markers[expect] - expect) <= 0.15
    assert markers[-1] < 0.0 < markers[+1]


def test_criterion_05_exact_identities(model):
    # (a) windowed trace formula == triple-commutator form on the full box
    box = box_sites(10)
    P = ProjectionMatrix(restrict_simple(model, box).eigenpairs(hi=0.0)[1])
    a = chern_marker(P, box, 10)
    b = chern_marker_triple(P, box, 10)
    assert abs(a - b) <= 1e-6

    # (b) periodic and simple assemblies agree entry-for-entry away from
    # the wrap-around shell, with zero rounding slack
    box = box_sites(12)
    Hs = restrict_simple(model, box).matrix
    Hp = restrict_periodic(model, box).matrix
    shell = {(int(a), int(b)) for a, b in inner_boundary(box, model.r)}
    idx = np.array([model.n * i + o for i, (a, b) in enumerate(box.sites)
                    if (int(a), int(b)) not in shell for o in range(model.n)])
    assert np.array_equal(Hs[idx, :], Hp[idx, :])
    assert np.array_equal(Hs[:, idx], Hp[:, idx])

    # (c) clean periodic eigenvalues sit inside the torus bands; 240 is a
    # multiple of the box side, so the box momenta are sampled exactly
    bs = band_structure(model, 240)
    w = restrict_periodic(model, box).eigenvalues
    for E in w:
        assert any(lo - 1e-9 <= E <= hi + 1e-9 for lo, hi in bs.bands)


def test_criterion_06_wegner_upper_confidence_below_bound(model):
    cfg = EnsembleConfig(model=model, spec=uniform(1.0), lam=2.0, box_L=8,
                         bc="periodic", n_realizations=3000, master_seed=0)
    rows = wegner_empirical(cfg, 0.0, [1e-2, 1e-3, 1e-4])
    assert len(rows) == 3
    for row in rows:
        assert row.upper_99 <= row.bound, (row.eps, row.upper_99, row.bound)


def test_criterion_07_marker_jump_under_strong_disorder(model):
    spec = truncated_gaussian(2.0)
    lam_strong = 1.5 * strong_disorder_threshold(model, spec).value
    cfg = EnsembleConfig(model=model, spec=spec, lam=0.1, box_L=18,
                         bc="periodic", n_realizations=200, master_seed=14)
    rows = averaged_marker_scan(cfg, [0.0], [0.1, lam_strong], window_L=6)
    weak = next(r for r in rows if r.lam == 0.1)
    strong = next(r for r in rows if r.lam == lam_strong)
    assert weak.n == strong.n == 200
    assert abs(weak.mean - (-1.0)) <= 0.2
    assert abs(strong.mean) <= 0.25
    assert abs(weak.mean - strong.mean) >= 0.5


def test_criterion_08_suitable_box_probability_trend(model):
    probs = []
    for L in (7, 13, 19):
        cfg = EnsembleConfig(model=model, spec=uniform(1.0), lam=0.3,
                             box_L=L, bc="periodic", n_realizations=500,
                             master_seed=11)
        probs.append(suitable_box_probability(cfg, 3.2, 1.0, r=1).probability)
    assert probs == sorted(probs), probs
    assert probs[-1] >= 0.9, probs


def test_criterion_09_transport_regime_contrast(model):
    Ts = [0.0] + list(np.geomspace(1.0, 100.0, 9))
    window = (2.0, 0.5)  # mid upper band

    # lam = 0 leaves nothing to average: one realization is the ensemble
    clean = EnsembleConfig(model=model, spec=None, lam=0.0, box_L=20,
                           bc="periodic")
    M = [r.mean for r in time_averaged_moment(clean, 2.0, window, Ts)]
    assert transport_slope(Ts, M) >= 1.5

    spec = truncated_gaussian(2.0)
    lam = 2.0 * strong_disorder_threshold(model, spec).value
    localized = EnsembleConfig(model=model, spec=spec, lam=lam, box_L=20,
                               bc="periodic", n_realizations=100,
                               master_seed=5)
    Ml = [r.mean for r in time_averaged_moment(localized, 2.0, window, Ts)]
    assert transport_slope(Ts, Ml) <= 0.3


def test_criterion_10_byte_identical_outputs_across_threads(tmp_path):
    # every file-producing command, run twice with different worker
    # counts; outputs (CSV bodies and JSON sidecars) must match in bytes
    dist = tmp_path / "uniform.json"
    dist.write_text(json.dumps({"kind": "uniform", "a": 1.0}))
    battery = [
        ["bloch", "--grid", "24"],
        ["chern"],
        ["marker", "--dist", str(dist), "--lambda", "0.5", "--box-l", "9",
         "--window-l", "3", "--realizations", "4", "--seed", "7"],
        ["spectrum", "--dist", str(dist), "--grid", "24",
         "--lambda-grid", "0:3:5"],
        ["thresholds", "--dist", str(dist), "--grid", "121"],
        ["wegner", "--dist", str(dist), "--lambda", "2.0", "--box-l", "8",
         "--realizations", "20", "--seed", "3"],
        ["msa-probe", "--dist", str(dist), "--lambda", "0.3", "--box-grid",
         "7", "--realizations", "20", "--seed", "3"],
        ["decay", "--dist", str(dist), "--lambda", "1.0", "--box-l", "8",
         "--realizations", "4", "--seed", "3", "--window=-0.2:0.2"],
        ["ids", "--dist", str(dist), "--lambda", "1.0", "--box-l", "8",
         "--realizations", "4", "--seed", "3", "--energy-grid=-4:4:9"],
        ["moments", "--dist", str(dist), "--lambda", "1.0", "--box-l", "10",
         "--realizations", "3", "--seed", "3"],
        ["phase-diagram", "--grid", "5x5"],
    ]
    for args in battery:
        csvs, sidecars = [], []
        for threads in ("1", "3"):
            out = tmp_path / f"{args[0]}-t{threads}"
            rc = cli_main(args + ["--threads", threads, "--out", str(out)])
            assert rc == 0, args
            csvs.append({p.name: p.read_bytes()
                         for p in sorted(out.glob("*.csv"))})
            docs = {}
            for p in sorted(out.glob("*.json")):
                doc = json.loads(p.read_text())
                # the sidecar records its own destination directory, the
                # only field that legitimately differs between the runs
                doc["config"].pop("output")
                docs[p.name] = doc
            sidecars.append(docs)
        assert csvs[0] or sidecars[0], args[0]
        assert csvs[0] == csvs[1], args[0]
        assert sidecars[0] == sidecars[1], args[0]
