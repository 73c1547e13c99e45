import math

import numpy as np
import pytest

from chernlab.bounds import strong_disorder_threshold
from chernlab.disorder import sample_potential, truncated_gaussian
from chernlab.finite_volume import (
    ProjectionMatrix,
    add_potential,
    restrict_periodic,
    restrict_simple,
    spectral_projection,
)
from chernlab.lattice import box_sites
from chernlab.model import HaldaneParams, haldane_model
from chernlab.topology import (
    _positions,
    _window_rows,
    chern_marker,
    chern_marker_triple,
    flux_unitary,
    index_pair,
)

T2 = 1.0 / (3.0 * math.sqrt(3.0))
BOX16 = box_sites(16)


def _gap_projection(phi, box):
    m = haldane_model(HaldaneParams(t1=1.0, t2=T2, phi=phi, M=0.0))
    return spectral_projection(restrict_periodic(m, None, 0.0, box), 0.0)


@pytest.fixture(scope="module")
def proj_plus():
    return _gap_projection(math.pi / 2, BOX16)


@pytest.fixture(scope="module")
def proj_minus():
    return _gap_projection(-math.pi / 2, BOX16)


def test_marker_trivial_projections():
    box = box_sites(6)
    N = 2 * box.size
    zero = ProjectionMatrix(np.zeros((N, 0), dtype=complex))
    one = ProjectionMatrix(np.eye(N, dtype=complex))
    assert chern_marker(zero, box, 4).value == 0.0
    assert chern_marker(one, box, 4).value == 0.0
    assert chern_marker_triple(one, box, 4) == 0.0


def test_marker_haldane_signs(proj_plus, proj_minus):
    rp = chern_marker(proj_plus, BOX16, 6)
    rm = chern_marker(proj_minus, BOX16, 6)
    assert rp.value == pytest.approx(-1.0, abs=0.15)
    assert rm.value == pytest.approx(+1.0, abs=0.15)
    assert rp.imag_residual < 1e-8 and rm.imag_residual < 1e-8


def test_marker_center_translation_stability(proj_plus):
    base = chern_marker(proj_plus, BOX16, 6).value
    for center in ((1, 0), (0, 1), (-1, -1)):
        assert abs(chern_marker(proj_plus, BOX16, 6, center).value - base) < 0.05


def test_marker_rank_one_localized_vanishes():
    rng = np.random.default_rng(0)
    g = BOX16.sites
    amp = np.exp(-np.hypot(g[:, 0], g[:, 1]) / 1.5)
    psi = (amp[:, None] * np.exp(2j * math.pi * rng.random((BOX16.size, 2)))).ravel()
    psi /= np.linalg.norm(psi)
    P = ProjectionMatrix(psi[:, None])
    assert abs(chern_marker(P, BOX16, 4).value) < 0.05


def test_projection_rejects_non_orthonormal_vectors():
    box = box_sites(4)
    psi = np.zeros(2 * box.size, dtype=complex)
    psi[3] = 1.0
    with pytest.raises(ValueError, match="orthonormal"):
        ProjectionMatrix(2.0 * psi[:, None])
    with pytest.raises(ValueError, match="orthonormal"):
        ProjectionMatrix(np.stack([psi, psi], axis=1))


def test_marker_window_validation(proj_plus):
    with pytest.raises(ValueError):
        chern_marker(proj_plus, BOX16, 17)
    with pytest.raises(ValueError):
        # window legal by size but pushed out of the box by its center
        chern_marker(proj_plus, BOX16, 8, center=(7, 0))
    for side in (0, -1):
        with pytest.raises(ValueError, match=f"window side {side} must be at least 1"):
            chern_marker(proj_plus, BOX16, side)
        with pytest.raises(ValueError, match=f"window side {side} must be at least 1"):
            chern_marker_triple(proj_plus, BOX16, side)


def _reference_marker(m, box, window_L, center=(0, 0)):
    """The dense O(N^3) evaluation of the windowed marker from the matrix P."""
    n = m.shape[0] // box.size
    x1, x2 = _positions(box, n)
    A1 = x1[:, None] * m - m * x1[None, :]
    A2 = x2[:, None] * m - m * x2[None, :]
    core = m @ (A1 @ A2 - A2 @ A1) @ m
    rows, nsites = _window_rows(box, n, window_L, center)
    raw = 2j * math.pi * np.sum(np.diagonal(core)[rows]) / nsites
    return float(raw.real)


@pytest.mark.parametrize("restrict", [restrict_periodic, restrict_simple])
@pytest.mark.parametrize("strength", ["clean", "weak", "strong"])
def test_marker_rows_match_dense_reference(restrict, strength):
    box = box_sites(10)
    m = haldane_model(HaldaneParams())
    spec = truncated_gaussian(2.0)
    lam = {"clean": 0.0, "weak": 0.1,
           "strong": 1.5 * strong_disorder_threshold(m, spec).value}[strength]
    sample = sample_potential(spec, box, m.n, 14, 0) if lam else None
    op = add_potential(restrict(m, None, 0.0, box), sample, lam)
    # E = 0 in the clean gap, E = -1.3 in the lower clean band
    for E in (0.0, -1.3):
        P = spectral_projection(op, E)
        for window_L, center in ((4, (0, 0)), (3, (2, -1))):
            ref = _reference_marker(P.matrix, box, window_L, center)
            got = chern_marker(P, box, window_L, center)
            assert abs(got.value - ref) <= 1e-12
            assert got.imag_residual <= 1e-12


def test_marker_equals_triple_full_box():
    # full-box sums of both forms telescope to zero; the identity is
    # that they agree, checked here on open boundaries where no wrap
    # could hide a discrepancy
    box = box_sites(10)
    m = haldane_model(HaldaneParams(t1=1.0, t2=T2, phi=math.pi / 2, M=0.0))
    P = spectral_projection(restrict_simple(m, None, 0.0, box), 0.0)
    a = chern_marker(P, box, 10).value
    b = chern_marker_triple(P, box, 10)
    assert abs(a - b) < 1e-6


def test_marker_equals_triple_windowed(proj_plus):
    a = chern_marker(proj_plus, BOX16, 6).value
    b = chern_marker_triple(proj_plus, BOX16, 6)
    assert abs(a - b) < 1e-6
    assert b == pytest.approx(-1.0, abs=0.15)


def test_flux_unitary_phases():
    box = box_sites(10)
    fu = flux_unitary((0.5, 0.5), box, 2)
    i = box.index_of(1, 1)
    assert -np.angle(fu.phases[2 * i]) == pytest.approx(math.pi / 4, abs=1e-12)
    assert np.allclose(np.abs(fu.phases), 1.0, atol=1e-15)
    U = fu.phases
    assert np.allclose(U * np.conj(U), 1.0, atol=1e-15)


def test_flux_unitary_rejects_lattice_point():
    with pytest.raises(ValueError):
        flux_unitary((1.0, -2.0), box_sites(6), 2)


def test_index_diagonal_projection_zero():
    box = box_sites(10)
    N = 2 * box.size
    P = ProjectionMatrix(np.eye(N, dtype=complex)[:, ::2])
    assert index_pair(P, box, (0.3, 0.2)) == 0


def test_index_matches_chern_sign(proj_plus, proj_minus):
    assert index_pair(proj_plus, BOX16, (0.1, 0.1)) == -1
    assert index_pair(proj_minus, BOX16, (0.1, 0.1)) == +1


def test_index_stable_under_flux_point_shift(proj_plus):
    assert index_pair(proj_plus, BOX16, (0.2, 0.03)) == -1
    assert index_pair(proj_plus, BOX16, (0.5, 0.5)) == -1


def test_index_trivial_phase_zero():
    m = haldane_model(HaldaneParams(t1=1.0, t2=0.0, phi=0.0, M=1.0))
    P = spectral_projection(restrict_periodic(m, None, 0.0, BOX16), 0.0)
    assert index_pair(P, BOX16, (0.1, 0.1)) == 0


def test_index_ambiguous_window_errors(proj_plus):
    # pick the tolerance so a real eigenvalue of the windowed difference
    # lands exactly on the window edge
    u = flux_unitary((0.1, 0.1), BOX16, 2).phases
    m = proj_plus.matrix
    D = (u[:, None] * m) * np.conj(u)[None, :] - m
    rows = np.array([2 * i + o for i, (a, b) in enumerate(BOX16.sites)
                     if -4 <= a <= 3 and -4 <= b <= 3 for o in range(2)])
    ev = np.linalg.eigvalsh(D[np.ix_(rows, rows)])
    mid = ev[(ev > 0.05) & (ev < 0.95)][0]
    with pytest.raises(ValueError, match="ambiguous"):
        index_pair(proj_plus, BOX16, (0.1, 0.1), tol_window=float(1.0 - mid))
