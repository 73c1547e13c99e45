import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chernlab import bloch
from chernlab.cli import main as cli_main
from chernlab.model import HaldaneParams, HoppingModel, haldane_model
from chernlab.bloch import (
    band_structure,
    bloch_grid,
    bloch_matrix,
    chern_number,
    plaquette_field,
)

T2 = 1.0 / (3.0 * np.sqrt(3.0))


def std_model(phi=np.pi / 2, M=0.0, t2=T2):
    return haldane_model(HaldaneParams(t1=1.0, t2=t2, phi=phi, M=M))


def test_bloch_k0_nn_only():
    # NN-only honeycomb at k=0: off-diagonal t1 (1+1+1), eigenvalues -3, 3
    m = haldane_model(HaldaneParams(t1=1.0, t2=0.0, phi=0.0, M=0.0))
    H = bloch_matrix(m, (0.0, 0.0))
    np.testing.assert_allclose(np.linalg.eigvalsh(H), [-3.0, 3.0], atol=1e-12)


def test_bloch_rejects_flux():
    m = std_model()
    mf = HoppingModel(n=2, r=1, hoppings=dict(m.hoppings), flux=0.5)
    with pytest.raises(ValueError):
        bloch_matrix(mf, (0.0, 0.0))


@given(st.floats(0, 2 * np.pi), st.floats(0, 2 * np.pi))
@settings(max_examples=30)
def test_bloch_hermitian(k1, k2):
    H = bloch_matrix(std_model(M=0.17), (k1, k2))
    assert np.max(np.abs(H - H.conj().T)) < 1e-12


def test_bloch_grid_matches_pointwise():
    m = std_model(M=0.3)
    G = bloch_grid(m, 6)
    for i in range(6):
        for j in range(6):
            k = (2 * np.pi * i / 6, 2 * np.pi * j / 6)
            np.testing.assert_allclose(G[i, j], bloch_matrix(m, k), atol=1e-13)


def test_internal_gap_is_two_t1():
    # gap edges sit at the two Dirac momenta; a 201-grid contains them
    w = np.linalg.eigvalsh(bloch_grid(std_model(), 201))
    gap = float(np.min(w[..., 1] - w[..., 0]))
    assert gap >= 2.0 - 0.01
    assert gap == pytest.approx(2.0, abs=1e-9)


def test_band_structure_reference_point():
    bs = band_structure(std_model(), grid=64)
    (lo1, hi1), (lo2, hi2) = bs.bands
    assert lo1 == pytest.approx(-3.0, abs=1e-6)
    assert hi1 == pytest.approx(-1.0, abs=1e-6)
    assert lo2 == pytest.approx(1.0, abs=1e-6)
    assert hi2 == pytest.approx(3.0, abs=1e-6)
    assert bs.gap_open == [True]
    assert bs.gap_sizes[0] == pytest.approx(2.0, abs=1e-6)


def test_band_structure_critical_mass_closes():
    m = haldane_model(HaldaneParams(t1=1.0, t2=1.0, phi=np.pi / 2, M=3.0 * np.sqrt(3.0)))
    bs = band_structure(m, grid=401)
    assert bs.gap_sizes[0] < 1e-3
    assert not bs.gap_open[0]


def test_band_structure_graphene_dirac():
    m = haldane_model(HaldaneParams(t1=1.0, t2=0.0, phi=0.0, M=0.0))
    bs = band_structure(m, grid=120)
    assert bs.gap_sizes[0] < 1e-6
    assert not bs.gap_open[0]


def test_chern_sign_convention():
    assert chern_number(std_model(phi=np.pi / 2), 1, 24).value == -1
    assert chern_number(std_model(phi=-np.pi / 2), 1, 24).value == 1
    assert chern_number(std_model(phi=0.0, M=1.0), 1, 24).value == 0


def test_chern_curvature_close_to_integer():
    c = chern_number(std_model(), 1, 24)
    assert abs(c.curvature_sum - c.value) < 0.01


def test_chern_raises_on_gapless():
    m = haldane_model(HaldaneParams(t1=1.0, t2=1.0, phi=np.pi / 2, M=3.0 * np.sqrt(3.0)))
    with pytest.raises(ValueError, match="gapless"):
        chern_number(m, 1, 24)


def spy_grids(monkeypatch, counts=None):
    """Grid sides built by the ladders (bloch._bloch_grids), in call order;
    the number of models of each call goes to ``counts`` if given."""
    seen = []
    build = bloch._bloch_grids

    def spy(models, N):
        seen.append(N)
        if counts is not None:
            counts.append(len(models))
        return build(models, N)

    monkeypatch.setattr(bloch, "_bloch_grids", spy)
    return seen


# a truly gapped point 0.0038 from the critical curve, on the criterion-01
# sweep; its gap opens only on a ladder grid that holds the Dirac points
NEAR_CURVE_PHI = float(np.linspace(-np.pi, np.pi, 41)[26])
NEAR_CURVE_M = 4.2


def test_chern_ladder_solves_each_grid_once_up_to_max(monkeypatch):
    seen = spy_grids(monkeypatch)
    # a deep point certifies and integrates on grid 24 alone; the near-curve
    # point certifies on 24 too, and its curvature loop doubles up to 768
    for phi, m, sides in ((np.pi / 2, 0.0, [24]),
                          (NEAR_CURVE_PHI, NEAR_CURVE_M, [24, 48, 96, 192, 384, 768])):
        seen.clear()
        chern_number(std_model(phi=phi, M=m * T2))
        assert max(seen) <= bloch._MAX_GRID
        assert len(seen) == len(set(seen)), seen
        assert seen == sides
    # a gap 0.05 t2 from the curve, on a ladder that misses the Dirac
    # points, opens only a few rungs up; the coarse grid 10 is read off
    # grid 20, and each rung reuses the one below
    seen.clear()
    chern_number(std_model(M=(3.0 * np.sqrt(3.0) - 0.05) * T2), 1, 20)
    assert seen == [20, 40, 80, 160, 320]


def test_odd_or_small_grid_walks_one_rounded_ladder(monkeypatch):
    seen = spy_grids(monkeypatch)
    # the curvature loop reads the gap check's rungs, rounded like
    # band_structure: 25 -> 26, and 5 -> 8 doubling to 32
    for model, grid, sides in ((PINNED_MODELS["deep"], 25, [26]),
                               (PINNED_MODELS["near"], 5, [8, 16, 32])):
        seen.clear()
        chern_number(model, 1, grid)
        assert seen == sides


def phase_row(phi_index, rows, cols):
    """Models of one phase-diagram row, as ``phase-diagram --grid rowsxcols`` builds them."""
    phi = float(np.linspace(-np.pi, np.pi, rows)[phi_index])
    return [std_model(phi=phi, M=float(m) * T2) for m in np.linspace(-6.0, 6.0, cols)]


def one_at_a_time(model):
    try:
        return chern_number(model)
    except ValueError as err:
        return err


# the 6x6 bench sweep, the 1x5 row at phi = -pi (gapless at M = 0), and the
# 41-column row at phi index 26, where M = +-4.2 t2 climbs to grid 768
@pytest.mark.parametrize("row", [(i, 6, 6) for i in range(6)] + [(0, 1, 5), (26, 41, 41)])
def test_chern_numbers_match_one_at_a_time(row):
    models = phase_row(*row)
    batched = bloch.chern_numbers(models)
    assert len(batched) == len(models)
    for got, want in zip(batched, map(one_at_a_time, models)):
        assert type(got) is type(want)
        if isinstance(want, ValueError):
            assert str(got) == str(want)
        else:
            assert (got.value, got.grid) == (want.value, want.grid)
            assert abs(got.curvature_sum - want.curvature_sum) <= 1e-12


def test_phase_diagram_builds_one_grid_per_rung_per_row(monkeypatch, tmp_path):
    counts = []
    seen = spy_grids(monkeypatch, counts)
    assert cli_main(["phase-diagram", "--grid", "6x6", "--out", str(tmp_path)]) == 0
    # every row certifies and integrates on grid 24: one call of six points
    assert list(zip(seen, counts)) == [(24, 6)] * 6
    # rungs hold at most _MAX_GRID^2 k-points: the two near-curve points of
    # the 41-column row share each rung up to 384 and take 768 one at a time
    seen.clear()
    counts.clear()
    bloch.chern_numbers(phase_row(26, 41, 41))
    assert list(zip(seen, counts)) == [(24, 41), (48, 2), (96, 2), (192, 2), (384, 2),
                                       (768, 1), (768, 1)]
    assert all(N * N * P <= bloch._MAX_GRID**2 for N, P in zip(seen, counts))


@pytest.mark.parametrize("model", [
    std_model(phi=-np.pi, M=0.0),
    haldane_model(HaldaneParams(t1=1.0, t2=1.0, phi=np.pi / 2, M=3.0 * np.sqrt(3.0))),
])
def test_chern_gapless_exits_after_first_rung(monkeypatch, model):
    seen = spy_grids(monkeypatch)
    with pytest.raises(ValueError, match="gapless: gap 1 is not open on a 24x24 grid"):
        chern_number(model, 1, 24)
    assert seen == [24]


@pytest.mark.parametrize("N", [12, 24, 48, 96])
def test_doubled_grid_holds_grid_bit_for_bit(N):
    m = std_model(phi=1.1, M=0.3)
    fine, coarse = bloch_grid(m, 2 * N), bloch_grid(m, N)
    assert np.array_equal(fine[::2, ::2], coarse)
    assert np.array_equal(np.linalg.eigvalsh(fine)[::2, ::2], np.linalg.eigvalsh(coarse))
    # and so do the closed-form solves that chern_number and band_structure read
    (w_fine, v_fine), (w_coarse, v_coarse) = bloch._eigh(fine), bloch._eigh(coarse)
    assert np.array_equal(w_fine[::2, ::2], w_coarse)
    assert np.array_equal(v_fine[::2, ::2], v_coarse)


@pytest.mark.parametrize("shape", [(24, 24, 2), (26, 26, 3), (24, 24, 5, 2), (12, 12, 3, 4)])
@pytest.mark.parametrize("view", [False, True], ids=["contiguous", "even-sublattice"])
def test_extrema_band_major_matches_axis_reduction(shape, view):
    w = np.random.default_rng(len(shape) * shape[0] + shape[-1]).normal(size=shape)
    if view:
        w = w[::2, ::2]
    lo, hi = bloch._extrema(w)
    assert lo.shape == hi.shape == shape[2:]
    assert np.array_equal(lo, w.min(axis=(0, 1)))
    assert np.array_equal(hi, w.max(axis=(0, 1)))


def closed_form_cases():
    """Stacked 2x2 Hermitian matrices covering every branch of bloch._eigh."""
    rng = np.random.default_rng(5)
    A = rng.normal(size=(400, 2, 2)) + 1j * rng.normal(size=(400, 2, 2))
    H = A + A.conj().swapaxes(-1, -2)
    h = (H[:, 0, 0].real - H[:, 1, 1].real) / 2.0
    assert (h > 0).any() and (h < 0).any()
    H[:40, 0, 1] = H[:40, 1, 0] = 0.0  # b = 0, either sign of h
    H[40:80, 0, 1] *= 1e-9  # |b| << |h|
    H[40:80, 1, 0] *= 1e-9
    H[80:100] = 2.5 * np.eye(2)  # exact degeneracy
    H[100:110] = 0.0
    H[110:120, 0, 0] = H[110:120, 1, 1]  # h = 0 with b != 0
    return H


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
def test_closed_form_eigh_matches_numpy(scale):
    H = scale * closed_form_cases()
    eps = np.finfo(float).eps
    norm = np.linalg.norm(H, 2, axis=(-2, -1))[:, None]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w, v = bloch._eigh(H)
        w_only = bloch._eigh(H, vectors=False)
    assert np.array_equal(w_only, w)
    assert np.all(w[:, 0] <= w[:, 1])
    assert np.all(np.abs(w - np.linalg.eigvalsh(H)) <= 8.0 * eps * norm)
    residual = np.linalg.norm(H @ v - v * w[:, None, :], axis=-2)
    assert np.all(residual <= 8.0 * eps * norm)
    gram = v.conj().swapaxes(-1, -2) @ v
    assert np.max(np.abs(gram - np.eye(2))) <= 8.0 * eps
    # a degenerate matrix gets the standard basis
    assert np.array_equal(v[80:110], np.broadcast_to(np.eye(2), (30, 2, 2)))


def three_orbital_model():
    """The reference Haldane blocks plus a decoupled flat orbital at 10."""
    ref = std_model()
    hop = {}
    for delta, mat in ref.hoppings.items():
        hop[delta] = np.zeros((3, 3), dtype=complex)
        hop[delta][:2, :2] = mat
    hop[(0, 0)][2, 2] = 10.0
    return HoppingModel(n=3, r=1, hoppings=hop)


def test_three_orbital_model_keeps_numpy_path():
    # captured before the closed-form 2x2 solve, with the float sums and
    # edges re-captured for the one-product grid, and the grid-25 rows again
    # once the curvature loop rounded grid 25 up to 26; n = 3 still goes to numpy
    m = three_orbital_model()
    for grid, gap_index, want in ((24, 1, (-1, -1.0000000000000002, 24)),
                                  (24, 2, (0, -1.1085645875407238e-16, 24)),
                                  (25, 1, (-1, -1.0, 26)),
                                  (25, 2, (0, -1.0876115722299675e-16, 26))):
        res = chern_number(m, gap_index, grid)
        assert (res.value, res.curvature_sum, res.grid) == want, (grid, gap_index)
    bs = band_structure(m, 25)
    top, bottom = -0.9968508023501682, 0.9968508023501681  # edges of the first gap
    assert (bs.bands, bs.gaps, bs.gap_sizes, bs.gap_open, bs.grid) == (
        [(-3.0, top), (bottom, 3.0), (10.0, 10.0)], [(top, bottom), (3.0, 10.0)],
        [1.9937016047003362, 7.0], [True, True], 26)


@pytest.mark.parametrize("m", [-NEAR_CURVE_M, NEAR_CURVE_M])
def test_chern_certifies_gap_near_curve(m):
    # |M|/t2 = 4.2 against the curve at 3 sqrt(3) sin(0.3 pi) = 4.2038
    res = chern_number(std_model(phi=NEAR_CURVE_PHI, M=m * T2))
    assert res.value == -1
    assert res.grid == bloch._MAX_GRID


# (value, curvature_sum, grid) per (model, grid). Values and grids date
# from before the gap check and the curvature loop shared their solves;
# the curvature sums were re-captured with the closed-form 2x2 solve,
# which moved 15 of them in the last bits, and again with the one-product
# grid and the one-band link, which moved 10. Grids 5 and 25 were
# re-captured once the curvature loop stopped starting on the raw grid (5
# or 25) and started on the gap check's rounded rung (8 or 26), which moved
# their grids and sums but no value; grids 1 and 4 already ended on the
# gap check's rungs.
PINNED_MODELS = {
    "deep": std_model(),
    "near": std_model(M=(3.0 * np.sqrt(3.0) - 0.5) * T2),
    "trivial": std_model(phi=-0.8, M=5.0 * T2),
    "generic": std_model(phi=1.1, M=0.3),
}
CHERN_PINNED = {
    ("deep", 1): (-1, -1.0, 8),
    ("deep", 4): (-1, -1.0, 8),
    ("deep", 5): (-1, -1.0, 8),
    ("deep", 20): (-1, -1.0, 20),
    ("deep", 24): (-1, -1.0, 24),
    ("deep", 25): (-1, -1.0, 26),
    ("deep", 32): (-1, -1.0, 32),
    ("near", 1): (-1, -1.0000000000000002, 32),
    ("near", 4): (-1, -1.0000000000000002, 32),
    ("near", 5): (-1, -1.0000000000000002, 32),
    ("near", 20): (-1, -1.0000000000000002, 40),
    ("near", 24): (-1, -1.0, 24),
    ("near", 25): (-1, -1.0, 52),
    ("near", 32): (-1, -1.0000000000000002, 32),
    ("trivial", 1): (0, 3.533949646070574e-17, 8),
    ("trivial", 4): (0, 3.533949646070574e-17, 8),
    ("trivial", 5): (0, 3.533949646070574e-17, 8),
    ("trivial", 20): (0, -5.300924469105861e-17, 20),
    ("trivial", 24): (0, -3.533949646070574e-17, 24),
    ("trivial", 25): (0, 0.0, 26),
    ("trivial", 32): (0, -5.300924469105861e-17, 32),
}
# (bands, gaps, gap_sizes, gap_open, grid) per (model, grid). gap_open and
# grid date from when band_structure still solved the coarse grid on its
# own; the floats were re-captured with the closed-form 2x2 solve and
# again with the one-product grid
BANDS_PINNED = {
    ("generic", 8): (
        [(-2.491195000719413, -0.8179282420137947),
         (0.2759038481223195, 3.5387303719531213)],
        [(-0.8179282420137947, 0.2759038481223195)],
        [1.093832090136114], [True], 8),
    ("generic", 64): (
        [(-2.491195000719413, -0.8533060368187425),
         (0.32958130849955747, 3.5387303719531213)],
        [(-0.8533060368187425, 0.32958130849955747)],
        [1.1828873453183], [True], 64),
    ("generic", 101): (
        [(-2.491195000719413, -0.8530912028698627),
         (0.32932351725300824, 3.5387303719531213)],
        [(-0.8530912028698627, 0.32932351725300824)],
        [1.182414720122871], [True], 102),
    ("generic", 201): (
        [(-2.491195000719413, -0.8530979076705065),
         (0.32933157621451, 3.5387303719531213)],
        [(-0.8530979076705065, 0.32933157621451)],
        [1.1824294838850165], [True], 202),
    ("near", 8): (
        [(-3.1331787643748297, -0.21701518205544543),
         (0.21701518205544532, 3.1331787643748297)],
        [(-0.21701518205544543, 0.21701518205544532)],
        [0.43403036411089074], [False], 8),
    ("near", 64): (
        [(-3.1331787643748297, -0.09997362715571158),
         (0.0999736271557116, 3.1331787643748297)],
        [(-0.09997362715571158, 0.0999736271557116)],
        [0.19994725431142318], [True], 64),
    ("near", 101): (
        [(-3.1331787643748297, -0.0962250448649376),
         (0.09622504486493755, 3.1331787643748297)],
        [(-0.0962250448649376, 0.09622504486493755)],
        [0.19245008972987515], [True], 102),
    ("near", 201): (
        [(-3.1331787643748297, -0.09631140470593934),
         (0.09631140470593938, 3.1331787643748297)],
        [(-0.09631140470593934, 0.09631140470593938)],
        [0.1926228094118787], [True], 202),
}


def test_chern_number_matches_pinned_values():
    for (name, grid), want in CHERN_PINNED.items():
        res = chern_number(PINNED_MODELS[name], 1, grid)
        assert (res.value, res.curvature_sum, res.grid) == want, (name, grid)


def test_chern_number_pinned_near_curve_and_gapless():
    res = chern_number(std_model(phi=NEAR_CURVE_PHI, M=NEAR_CURVE_M * T2))
    assert (res.value, res.curvature_sum, res.grid) == (-1, -1.0, 768)
    for model in (std_model(phi=-np.pi, M=0.0),
                  haldane_model(HaldaneParams(t1=1.0, t2=1.0, phi=np.pi / 2,
                                              M=3.0 * np.sqrt(3.0)))):
        with pytest.raises(ValueError) as err:
            chern_number(model, 1, 24)
        assert str(err.value) == "gapless: gap 1 is not open on a 24x24 grid"


def test_band_structure_matches_pinned_values():
    for (name, grid), want in BANDS_PINNED.items():
        bs = band_structure(PINNED_MODELS[name], grid)
        assert (bs.bands, bs.gaps, bs.gap_sizes, bs.gap_open, bs.grid) == want, (name, grid)


@pytest.mark.parametrize("grid", [0, -5])
def test_nonpositive_grid_side_is_rejected(grid):
    for analysis in (band_structure, chern_number):
        with pytest.raises(ValueError, match=f"grid side {grid} must be at least 1"):
            analysis(std_model(), grid=grid)


def test_chern_gauge_invariance():
    rng = np.random.default_rng(7)
    _, v = np.linalg.eigh(bloch_grid(std_model(), 18))
    psi = v[..., :1]
    base = int(np.rint(plaquette_field(psi).sum() / (2 * np.pi)))
    twist = np.exp(2j * np.pi * rng.random(psi.shape[:2]))
    twisted = psi * twist[:, :, None, None]
    assert int(np.rint(plaquette_field(twisted).sum() / (2 * np.pi))) == base


def test_band_chern_numbers_sum_to_zero():
    _, v = np.linalg.eigh(bloch_grid(std_model(), 24))
    low = int(np.rint(plaquette_field(v[..., :1]).sum() / (2 * np.pi)))
    up = int(np.rint(plaquette_field(v[..., 1:]).sum() / (2 * np.pi)))
    assert low + up == 0
    assert low != 0


def test_chern_constant_per_region():
    rng = np.random.default_rng(3)
    # sample parameter points well inside each lobe and well outside both
    for region, expect in [("plus", -1), ("minus", 1), ("out", 0)]:
        vals = set()
        got = 0
        while got < 5:
            phi = rng.uniform(-np.pi, np.pi)
            ratio = rng.uniform(-6.0, 6.0)
            border = 3 * np.sqrt(3) * abs(np.sin(phi))
            if region == "plus" and not (np.sin(phi) > 0.3 and abs(ratio) < 0.6 * border):
                continue
            if region == "minus" and not (np.sin(phi) < -0.3 and abs(ratio) < 0.6 * border):
                continue
            if region == "out" and not (abs(ratio) > border + 1.5):
                continue
            c = chern_number(std_model(phi=phi, M=ratio * T2), 1, 24)
            vals.add(c.value)
            got += 1
        assert vals == {expect}, region

