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
)
from chernlab.lattice import box_sites
from chernlab.model import HaldaneParams, haldane_model
from chernlab.topology import (
    _positions,
    _window_rows,
    chern_marker,
    chern_marker_triple,
)

T2 = 1.0 / (3.0 * math.sqrt(3.0))
BOX16 = box_sites(16)


def _gap_projection(phi, box):
    m = haldane_model(HaldaneParams(t1=1.0, t2=T2, phi=phi, M=0.0))
    return ProjectionMatrix(restrict_periodic(m, box).eigenpairs(hi=0.0)[1])


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
    assert chern_marker(zero, box, 4) == 0.0
    assert chern_marker(one, box, 4) == 0.0
    assert chern_marker_triple(one, box, 4) == 0.0


def test_marker_haldane_signs(proj_plus, proj_minus):
    rp = chern_marker(proj_plus, BOX16, 6)
    rm = chern_marker(proj_minus, BOX16, 6)
    assert rp == pytest.approx(-1.0, abs=0.15)
    assert rm == pytest.approx(+1.0, abs=0.15)


def test_marker_center_translation_stability():
    # the window stays at the origin; translating a disordered periodic
    # sample by c moves the window to -c relative to the sample (a clean
    # sample would not change)
    m = haldane_model(HaldaneParams(t1=1.0, t2=T2, phi=math.pi / 2, M=0.0))
    sample = sample_potential(truncated_gaussian(2.0), BOX16, m.n, 3, 0)
    v = add_potential(restrict_periodic(m, BOX16), sample, 0.3).eigenpairs(hi=0.0)[1]
    base = chern_marker(ProjectionMatrix(v), BOX16, 6)
    sites = np.arange(BOX16.size).reshape(BOX16.L, BOX16.L)
    for c in ((1, 0), (0, 1), (-1, -1)):
        moved = np.roll(sites, (-c[0], -c[1]), axis=(0, 1)).ravel()
        rows = (m.n * moved[:, None] + np.arange(m.n)).ravel()
        assert abs(chern_marker(ProjectionMatrix(v[rows]), BOX16, 6) - base) < 0.05


def test_marker_rank_one_localized_vanishes():
    rng = np.random.default_rng(0)
    g = BOX16.sites
    amp = np.exp(-np.hypot(g[:, 0], g[:, 1]) / 1.5)
    psi = (amp[:, None] * np.exp(2j * math.pi * rng.random((BOX16.size, 2)))).ravel()
    psi /= np.linalg.norm(psi)
    P = ProjectionMatrix(psi[:, None])
    assert abs(chern_marker(P, BOX16, 4)) < 0.05


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
    for side in (0, -1):
        with pytest.raises(ValueError, match=f"window side {side} must be at least 1"):
            chern_marker(proj_plus, BOX16, side)
        with pytest.raises(ValueError, match=f"window side {side} must be at least 1"):
            chern_marker_triple(proj_plus, BOX16, side)


def _reference_marker(m, box, window_L):
    """The dense O(N^3) evaluation of the windowed marker from the matrix P."""
    n = m.shape[0] // box.size
    x1, x2 = _positions(box, n)
    A1 = x1[:, None] * m - m * x1[None, :]
    A2 = x2[:, None] * m - m * x2[None, :]
    core = m @ (A1 @ A2 - A2 @ A1) @ m
    rows, nsites = _window_rows(box, n, window_L)
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
    op = add_potential(restrict(m, box), sample, lam)
    # E = 0 in the clean gap, E = -1.3 in the lower clean band
    for E in (0.0, -1.3):
        P = ProjectionMatrix(op.eigenpairs(hi=E)[1])
        for window_L in (4, 3):
            ref = _reference_marker(P.matrix, box, window_L)
            assert abs(chern_marker(P, box, window_L) - ref) <= 1e-12


def test_marker_equals_triple_full_box():
    # full-box sums of both forms telescope to zero; the identity is
    # that they agree, checked here on open boundaries where no wrap
    # could hide a discrepancy
    box = box_sites(10)
    m = haldane_model(HaldaneParams(t1=1.0, t2=T2, phi=math.pi / 2, M=0.0))
    P = ProjectionMatrix(restrict_simple(m, box).eigenpairs(hi=0.0)[1])
    a = chern_marker(P, box, 10)
    b = chern_marker_triple(P, box, 10)
    assert abs(a - b) < 1e-6


def test_marker_equals_triple_windowed(proj_plus):
    a = chern_marker(proj_plus, BOX16, 6)
    b = chern_marker_triple(proj_plus, BOX16, 6)
    assert abs(a - b) < 1e-6
    assert b == pytest.approx(-1.0, abs=0.15)

