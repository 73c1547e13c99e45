import math

import numpy as np
import pytest

from chernlab.bloch import bloch_matrix
from chernlab.disorder import uniform, sample_potential
from chernlab.finite_volume import (
    FiniteOperator,
    add_potential,
    fermi_matrix,
    green_function,
    restrict_periodic,
    restrict_simple,
    spectral_projection,
)
from chernlab.lattice import box_sites, inner_boundary
from chernlab.model import (
    HaldaneParams,
    HoppingModel,
    build_dense,
    haldane_model,
    honeycomb_basis,
)

T2 = 1.0 / (3.0 * math.sqrt(3.0))
TOPO = HaldaneParams(t1=1.0, t2=T2, phi=math.pi / 2, M=0.0)


def _onsite_model(M: float) -> HoppingModel:
    # purely diagonal two-band model, entries +-M
    return HoppingModel(basis=honeycomb_basis(), n=2, r=1,
                        hoppings={(0, 0): np.array([[M, 0.0], [0.0, -M]], dtype=complex)},
                        flux=0.0)


def test_simple_restriction_is_hermitian():
    op = restrict_simple(haldane_model(TOPO), None, 0.0, box_sites(6))
    assert np.max(np.abs(op.matrix - op.matrix.conj().T)) < 1e-12
    assert op.bc == "simple" and op.sample_ref == "clean"


def test_simple_clean_spectrum_massive_point():
    # mass-gapped trivial point: bands +-[1, sqrt(10)], gap (-1, 1);
    # at L=5 the open box has no in-gap states at all, so the gap
    # shrunk by 0.3 per side is empty and nothing escapes the bands
    m = haldane_model(HaldaneParams(t1=1.0, t2=0.0, phi=0.0, M=1.0))
    w = restrict_simple(m, None, 0.0, box_sites(5)).eigenvalues
    assert w[0] >= -math.sqrt(10.0) - 1e-9
    assert w[-1] <= math.sqrt(10.0) + 1e-9
    assert not np.any(np.abs(w) < 1.0 - 1e-9)
    assert not np.any(np.abs(w) < 0.7)


def test_simple_clean_spectrum_topological_point_edge_modes():
    # same box at the half-flux point: chiral edge modes do intrude
    # into the bulk gap (calibrated depth |E| ~ 0.151 at L=5), which is
    # why gap-membership arguments use the periodic restriction
    w = restrict_simple(haldane_model(TOPO), None, 0.0, box_sites(5)).eigenvalues
    assert w[0] >= -3.0 - 1e-9 and w[-1] <= 3.0 + 1e-9
    in_gap = w[np.abs(w) < 1.0 - 1e-9]
    assert len(in_gap) == 8
    assert np.min(np.abs(in_gap)) == pytest.approx(0.151, abs=0.01)


def test_simple_onsite_only_is_diagonal():
    op = restrict_simple(_onsite_model(1.0), None, 0.0, box_sites(4))
    assert np.array_equal(op.matrix, np.diag(np.tile([1.0, -1.0], 16)))


def test_periodic_matches_bloch_grid():
    # clean periodic restriction is the Bloch operator sampled on the
    # L x L momentum grid, eigenvalue by eigenvalue
    m = haldane_model(TOPO)
    L = 12
    w = np.sort(restrict_periodic(m, None, 0.0, box_sites(L)).eigenvalues)
    ks = 2 * math.pi * np.arange(L) / L
    grid = [np.linalg.eigvalsh(bloch_matrix(m, (k1, k2))) for k1 in ks for k2 in ks]
    assert np.max(np.abs(w - np.sort(np.concatenate(grid)))) < 1e-9


def test_periodic_simple_agree_off_boundary_exactly():
    m = haldane_model(TOPO)
    box = box_sites(12)
    Hs = restrict_simple(m, None, 0.0, box).matrix
    Hp = restrict_periodic(m, None, 0.0, box).matrix
    shell = {(int(a), int(b)) for a, b in inner_boundary(box, m.r)}
    idx = np.array([m.n * i + o for i, (a, b) in enumerate(box.sites)
                    if (int(a), int(b)) not in shell for o in range(m.n)])
    assert np.array_equal(Hs[idx, :], Hp[idx, :])
    assert np.array_equal(Hs[:, idx], Hp[:, idx])


def test_periodic_spectrum_shift_inclusion():
    # diagonal perturbation with values in [-a, b-Delta] moves each
    # eigenvalue by at most those bounds (Weyl), so the disordered
    # spectrum stays inside the clean one fattened by lam*[-a, b-Delta]
    m = haldane_model(TOPO)
    box = box_sites(12)
    spec = uniform(1.0)
    sample = sample_potential(spec, box, 2, seed=5, realization_index=0)
    lam = 0.8
    w0 = restrict_periodic(m, None, 0.0, box).eigenvalues
    w = restrict_periodic(m, sample, lam, box).eigenvalues
    delta = spec.b - np.max(sample.values)
    assert delta > 0
    assert np.all(w >= w0 - lam * spec.a - 1e-9)
    assert np.all(w <= w0 + lam * (spec.b - delta) + 1e-9)


def test_simple_spectrum_in_convex_hull():
    m = haldane_model(TOPO)
    box = box_sites(8)
    spec = uniform(1.0)
    sample = sample_potential(spec, box, 2, seed=9, realization_index=2)
    lam = 1.3
    w = restrict_simple(m, sample, lam, box).eigenvalues
    assert np.all(w >= -3.0 - lam * spec.a - 1e-9)
    assert np.all(w <= 3.0 + lam * spec.b + 1e-9)


def test_eigvalsh_matches_eigensystem():
    # the eigenvalue-only probes call eigvalsh; projections count eigh values
    m = haldane_model(TOPO)
    box = box_sites(8)
    sample = sample_potential(uniform(1.0), box, 2, seed=3, realization_index=1)
    op = restrict_periodic(m, sample, 2.0, box)
    w, v = op.eigensystem
    assert op.eigenvalues is w
    assert np.max(np.abs(np.linalg.eigvalsh(op.matrix) - w)) < 1e-12
    assert np.max(np.abs(op.matrix @ v - v * w)) < 1e-11


def test_add_potential_equals_dense_diagonal_sum():
    # a realization is the clean matrix plus diag(lam v), bit for bit,
    # and leaves the shared clean operator untouched
    m = haldane_model(TOPO)
    box = box_sites(6)
    clean = restrict_periodic(m, None, 0.0, box)
    before = clean.matrix.copy()
    sample = sample_potential(uniform(1.0), box, 2, seed=4, realization_index=7)
    op = add_potential(clean, sample, 1.7)
    expected = build_dense(m, box, periodic=True) + np.diag(1.7 * sample.values)
    assert op.matrix.tobytes() == expected.tobytes()
    assert np.array_equal(clean.matrix, before)
    assert op.sample_ref == "seed=4,realization=7"
    assert add_potential(clean, sample, 0.0).matrix is clean.matrix
    assert add_potential(clean, None, 0.0) is clean
    with pytest.raises(ValueError, match="sample"):
        add_potential(clean, None, 0.5)
    with pytest.raises(ValueError, match="clean"):
        add_potential(op, sample, 1.0)
    with pytest.raises(ValueError):
        add_potential(clean, sample, -1.0)


def test_periodic_flux_divisibility():
    m = haldane_model(TOPO)
    flux_model = HoppingModel(basis=m.basis, n=2, r=1, hoppings=dict(m.hoppings),
                              flux=2 * math.pi / 3)
    with pytest.raises(ValueError):
        restrict_periodic(flux_model, None, 0.0, box_sites(8))
    op = restrict_periodic(flux_model, None, 0.0, box_sites(9))
    assert np.max(np.abs(op.matrix - op.matrix.conj().T)) < 1e-12


def test_periodic_rejects_irrational_flux():
    m = haldane_model(TOPO)
    flux_model = HoppingModel(basis=m.basis, n=2, r=1, hoppings=dict(m.hoppings),
                              flux=0.37)
    with pytest.raises(ValueError):
        restrict_periodic(flux_model, None, 0.0, box_sites(8))


def test_projection_extremes():
    op = restrict_periodic(haldane_model(TOPO), None, 0.0, box_sites(6))
    empty = spectral_projection(op, -10.0)
    full = spectral_projection(op, 10.0)
    assert empty.rank == 0 and not np.any(empty.matrix)
    assert full.rank == 72 and np.allclose(full.matrix, np.eye(72), atol=1e-12)


def test_projection_half_filling():
    # symmetric spectrum at M=0, so E=0 fills exactly half the states
    op = restrict_periodic(haldane_model(TOPO), None, 0.0, box_sites(11))
    P = spectral_projection(op, 0.0)
    assert P.rank == 121
    F = fermi_matrix(op, 0.0)
    assert P.matrix.tobytes() == (0.5 * (F + F.conj().T)).tobytes()
    assert np.max(np.abs(P.matrix @ P.matrix - P.matrix)) < 1e-9
    assert np.max(np.abs(P.matrix - P.matrix.conj().T)) < 1e-10


def test_projection_rank_right_continuous():
    op = restrict_simple(haldane_model(TOPO), None, 0.0, box_sites(4))
    w = op.eigenvalues
    ranks = [spectral_projection(op, E).rank for E in w]
    assert ranks == [int(np.searchsorted(w, E, side="right")) for E in w]
    assert all(b >= a for a, b in zip(ranks, ranks[1:]))
    # E exactly at an eigenvalue includes that state
    assert spectral_projection(op, w[0]).rank >= 1


def test_projection_kernel_block_symmetry():
    op = restrict_simple(haldane_model(TOPO), None, 0.0, box_sites(5))
    P = spectral_projection(op, 0.3).matrix
    n = 2
    for i in (0, 7, 13):
        for j in (2, 11, 24):
            blk = P[n * i:n * i + n, n * j:n * j + n]
            assert np.allclose(blk, P[n * j:n * j + n, n * i:n * i + n].conj().T, atol=1e-12)


def test_green_function_eta_bound_and_residual():
    op = restrict_periodic(haldane_model(TOPO), None, 0.0, box_sites(11))
    z = 0.5 + 1.0j
    G = green_function(op, z)
    assert np.linalg.norm(G, 2) <= 1.0 + 1e-12
    N = op.matrix.shape[0]
    assert np.max(np.abs((op.matrix - z * np.eye(N)) @ G - np.eye(N))) < 1e-8


def test_green_function_resonant_error():
    op = restrict_periodic(haldane_model(TOPO), None, 0.0, box_sites(6))
    with pytest.raises(ValueError, match="resonant"):
        green_function(op, complex(op.eigenvalues[3]))


def test_green_function_diagonal_model():
    op = restrict_simple(_onsite_model(1.0), None, 0.0, box_sites(3))
    G = green_function(op, 1.0j)
    assert np.max(np.abs(G - np.diag(np.diag(G)))) == 0.0
    d = np.diag(G)
    assert np.allclose(d[::2], 1.0 / (1.0 - 1.0j))
    assert np.allclose(d[1::2], 1.0 / (-1.0 - 1.0j))


def test_operator_validation():
    box = box_sites(3)
    bad = np.zeros((18, 18), dtype=complex)
    bad[0, 1] = 1.0
    with pytest.raises(ValueError, match="Hermitian"):
        FiniteOperator(matrix=bad, box=box, n=2, bc="simple", sample_ref="clean")
    # complex-symmetric off-diagonal pair and an imaginary diagonal
    for entries in (((0, 1, 1j), (1, 0, 1j)), ((2, 2, 1j),)):
        bad = np.zeros((18, 18), dtype=complex)
        for i, j, x in entries:
            bad[i, j] = x
        with pytest.raises(ValueError, match="Hermitian"):
            FiniteOperator(matrix=bad, box=box, n=2, bc="simple", sample_ref="clean")
    good = np.zeros((18, 18), dtype=complex)
    good[0, 1], good[1, 0] = 1j, -1j
    FiniteOperator(matrix=good, box=box, n=2, bc="simple", sample_ref="clean")
    with pytest.raises(ValueError):
        FiniteOperator(matrix=np.eye(18, dtype=complex), box=box, n=2, bc="weird",
                       sample_ref="clean")
    with pytest.raises(ValueError):
        restrict_simple(haldane_model(TOPO), None, -1.0, box)
