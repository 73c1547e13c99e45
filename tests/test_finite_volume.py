import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from chernlab import finite_volume, probes
from chernlab.bloch import bloch_matrix
from chernlab.disorder import truncated_gaussian, uniform, sample_potential
from chernlab.finite_volume import (
    FiniteOperator,
    HermitianEntries,
    ProjectionMatrix,
    add_potential,
    green_function,
    resolvent_columns,
    restrict_periodic,
    restrict_simple,
)
from chernlab.lattice import box_sites, inner_boundary
from chernlab.model import (
    HaldaneParams,
    HoppingModel,
    haldane_model,
)
from chernlab.probes import EnsembleConfig, suitable_box_probability

T2 = 1.0 / (3.0 * math.sqrt(3.0))
TOPO = HaldaneParams(t1=1.0, t2=T2, phi=math.pi / 2, M=0.0)


def _onsite_model(M: float) -> HoppingModel:
    # purely diagonal two-band model, entries +-M
    return HoppingModel(n=2, r=1,
                        hoppings={(0, 0): np.array([[M, 0.0], [0.0, -M]], dtype=complex)},
                        flux=0.0)


def test_simple_restriction_is_hermitian():
    op = restrict_simple(haldane_model(TOPO), box_sites(6))
    assert np.max(np.abs(op.matrix - op.matrix.conj().T)) < 1e-12


def test_simple_clean_spectrum_massive_point():
    # mass-gapped trivial point: bands +-[1, sqrt(10)], gap (-1, 1);
    # at L=5 the open box has no in-gap states at all, so the gap
    # shrunk by 0.3 per side is empty and nothing escapes the bands
    m = haldane_model(HaldaneParams(t1=1.0, t2=0.0, phi=0.0, M=1.0))
    w = restrict_simple(m, box_sites(5)).eigenvalues
    assert w[0] >= -math.sqrt(10.0) - 1e-9
    assert w[-1] <= math.sqrt(10.0) + 1e-9
    assert not np.any(np.abs(w) < 1.0 - 1e-9)
    assert not np.any(np.abs(w) < 0.7)


def test_simple_clean_spectrum_topological_point_edge_modes():
    # same box at the half-flux point: chiral edge modes do intrude
    # into the bulk gap (calibrated depth |E| ~ 0.151 at L=5), which is
    # why gap-membership arguments use the periodic restriction
    w = restrict_simple(haldane_model(TOPO), box_sites(5)).eigenvalues
    assert w[0] >= -3.0 - 1e-9 and w[-1] <= 3.0 + 1e-9
    in_gap = w[np.abs(w) < 1.0 - 1e-9]
    assert len(in_gap) == 8
    assert np.min(np.abs(in_gap)) == pytest.approx(0.151, abs=0.01)


def test_simple_onsite_only_is_diagonal():
    op = restrict_simple(_onsite_model(1.0), box_sites(4))
    assert np.array_equal(op.matrix, np.diag(np.tile([1.0, -1.0], 16)))


def test_periodic_matches_bloch_grid():
    # clean periodic restriction is the Bloch operator sampled on the
    # L x L momentum grid, eigenvalue by eigenvalue
    m = haldane_model(TOPO)
    L = 12
    w = np.sort(restrict_periodic(m, box_sites(L)).eigenvalues)
    ks = 2 * math.pi * np.arange(L) / L
    grid = [np.linalg.eigvalsh(bloch_matrix(m, (k1, k2))) for k1 in ks for k2 in ks]
    assert np.max(np.abs(w - np.sort(np.concatenate(grid)))) < 1e-9


def test_periodic_simple_agree_off_boundary_exactly():
    m = haldane_model(TOPO)
    box = box_sites(12)
    Hs = restrict_simple(m, box).matrix
    Hp = restrict_periodic(m, box).matrix
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
    w0 = restrict_periodic(m, box).eigenvalues
    w = add_potential(restrict_periodic(m, box), sample, lam).eigenvalues
    delta = spec.b - np.max(sample)
    assert delta > 0
    assert np.all(w >= w0 - lam * spec.a - 1e-9)
    assert np.all(w <= w0 + lam * (spec.b - delta) + 1e-9)


def test_simple_spectrum_in_convex_hull():
    m = haldane_model(TOPO)
    box = box_sites(8)
    spec = uniform(1.0)
    sample = sample_potential(spec, box, 2, seed=9, realization_index=2)
    lam = 1.3
    w = add_potential(restrict_simple(m, box), sample, lam).eigenvalues
    assert np.all(w >= -3.0 - lam * spec.a - 1e-9)
    assert np.all(w <= 3.0 + lam * spec.b + 1e-9)


def test_counts_read_a_values_only_reduction(monkeypatch):
    # the counting probes read counts(), one values-only zhetrd and a
    # Sturm count per energy: no tridiagonal eigensolve, nothing cached;
    # projections count the values of the full tridiagonal reduction
    m = haldane_model(TOPO)
    box = box_sites(8)
    sample = sample_potential(uniform(1.0), box, 2, seed=3, realization_index=1)
    op = add_potential(restrict_periodic(m, box), sample, 2.0)
    xs = np.linspace(-5.0, 5.0, 17)

    def refuse(*args, **kwargs):
        raise AssertionError("called")

    with monkeypatch.context() as patch:
        for name in ("dstevd", "dsterf"):
            patch.setattr(finite_volume.lapack, name, refuse)
        counts = op.counts(xs)
    assert "_tridiagonal" not in vars(op)
    w, v = op.eigenpairs()
    assert np.array_equal(counts, np.searchsorted(w, xs, side="right"))
    assert np.array_equal(op.eigenvalues, w)
    assert np.max(np.abs(np.linalg.eigvalsh(op.matrix) - w)) < 1e-12
    assert np.max(np.abs(op.matrix @ v - v * w)) < 1e-11


@pytest.mark.parametrize("bc", ["simple", "periodic"])
@pytest.mark.parametrize("law", ["uniform", "gaussian"])
def test_counts_match_eigenvalue_ranks(law, bc):
    # 7 sides x 8 realizations per law and boundary, 224 in all: each
    # count of a 17-energy grid spanning the spectrum is the rank of the
    # energy among numpy's eigenvalues
    spec = uniform(1.0) if law == "uniform" else truncated_gaussian(2.0)
    m = haldane_model(TOPO)
    for L in range(6, 13):
        lam = 0.5 + 0.3 * L
        cfg = EnsembleConfig(model=m, spec=spec, lam=lam, box_L=L, bc=bc,
                             n_realizations=8, master_seed=L)
        for real in probes._realizations(cfg, box_sites(L)):
            op = real(lam)
            w = np.linalg.eigvalsh(op.matrix)
            xs = np.linspace(w[0] - 0.5, w[-1] + 0.5, 17)
            assert np.array_equal(op.counts(xs), np.searchsorted(w, xs, side="right")), L


def test_counts_edge_cases(monkeypatch):
    box = box_sites(6)
    sample = sample_potential(uniform(1.0), box, 2, seed=5, realization_index=0)
    op = add_potential(restrict_periodic(haldane_model(TOPO), box), sample, 1.5)
    N = op.entries.size
    w = op.eigenvalues
    # an unsorted grid keeps its order
    xs = [2.0, -1.0, 0.5, -3.0, 0.0]
    assert np.array_equal(op.counts(xs), np.searchsorted(w, xs, side="right"))
    assert op.counts([]).shape == (0,)

    def refuse(*args, **kwargs):
        raise AssertionError("called")

    # outside the Gershgorin interval of T, and at +-inf, no count runs
    monkeypatch.setattr(finite_volume.lapack, "dstebz", refuse)
    assert op.counts([-1e3, 1e3, -np.inf, np.inf]).tolist() == [0, N, 0, N]
    with pytest.raises(ValueError, match="NaN"):
        op.counts([0.0, np.nan])


def _add_at_reference(entries: HermitianEntries, diagonal, order: str,
                      shift: int) -> np.ndarray:
    # the assembly as np.add.at on zeros, then a fancy-indexed diagonal
    N = entries.size
    H = np.zeros((N, N), dtype=complex, order=order)
    np.add.at(H, ((entries.rows + shift) % N, (entries.cols + shift) % N), entries.vals)
    if diagonal is not None:
        H[np.diag_indices(N)] += np.roll(diagonal, shift)
    return H


@pytest.mark.parametrize("restrict", [restrict_simple, restrict_periodic])
@pytest.mark.parametrize("params", [TOPO, HaldaneParams(t1=1.0, t2=0.2, phi=-1.1, M=0.7)],
                         ids=["topo", "massive"])
def test_dense_equals_add_at_reference(restrict, params):
    # one assignment of the entries and a strided diagonal give the bytes
    # np.add.at gives, also where an entry or the diagonal holds -0.0
    for L in (4, 7):
        box = box_sites(L)
        clean = restrict(haldane_model(params), box).entries
        # the conjugate (transposed) matrix turns every +0.0 imaginary part
        # of a real entry into -0.0
        conj = HermitianEntries(clean.size, clean.rows, clean.cols, clean.vals.conj())
        assert np.any(np.signbit(conj.vals.imag) & (conj.vals.imag == 0.0))
        sample = sample_potential(uniform(1.0), box, 2, seed=L, realization_index=0)
        for entries in (clean, conj):
            for diagonal in (None, 1.3 * sample, np.full(clean.size, -0.0)):
                for order in ("C", "F"):
                    for shift in (0, 1):
                        H = entries.dense(diagonal, order=order, shift=shift)
                        ref = _add_at_reference(entries, diagonal, order, shift)
                        assert H.flags.f_contiguous == (order == "F")
                        assert H.tobytes(order="A") == ref.tobytes(order="A"), (L, order, shift)


@pytest.mark.parametrize("model, L", [(haldane_model(TOPO), 6), (haldane_model(TOPO), 12),
                                     (haldane_model(TOPO), 18), (_onsite_model(1.0), 6)],
                         ids=["haldane6", "haldane12", "haldane18", "onsite6"])
def test_eigensystem_on_degenerate_spectra(model, L):
    # clean periodic boxes hold the widest eigenvalue clusters (momentum
    # images up to 12-fold; the on-site model is two 36-fold levels),
    # where divide and conquer on the tridiagonal form must still return
    # orthonormal eigenvectors
    op = restrict_periodic(model, box_sites(L))
    w, v = op.eigenpairs()
    assert np.max(np.abs(v.conj().T @ v - np.eye(len(w)))) <= 1e-11
    assert np.max(np.abs(op.matrix @ v - v * w)) <= 1e-12
    if L == 18:
        rank = int(np.searchsorted(np.linalg.eigvalsh(op.matrix), 0.0, side="right"))
        assert ProjectionMatrix(op.eigenpairs(hi=0.0)[1]).vectors.shape[1] == rank == 324


def test_add_potential_equals_dense_diagonal_sum():
    # a realization is the clean matrix plus diag(lam v), bit for bit,
    # and leaves the shared clean operator untouched
    m = haldane_model(TOPO)
    box = box_sites(6)
    clean = restrict_periodic(m, box)
    before = clean.matrix.copy()
    sample = sample_potential(uniform(1.0), box, 2, seed=4, realization_index=7)
    op = add_potential(clean, sample, 1.7)
    expected = before + np.diag(1.7 * sample)
    assert op.matrix.tobytes() == expected.tobytes()
    assert np.array_equal(clean.matrix, before)
    unshifted = add_potential(clean, sample, 0.0)
    assert unshifted.potential is None and unshifted.entries is clean.entries
    assert unshifted.matrix.tobytes() == clean.matrix.tobytes()
    assert add_potential(clean, None, 0.0) is clean
    with pytest.raises(ValueError, match="sample"):
        add_potential(clean, None, 0.5)
    with pytest.raises(ValueError, match="clean"):
        add_potential(op, sample, 1.0)
    with pytest.raises(ValueError):
        add_potential(clean, sample, -1.0)


def test_one_realization_solve_holds_about_two_matrices():
    # clean restriction, realization and either solve the probes run (the
    # occupied half's eigenpairs, or the shell columns of the resolvent)
    # keep no N x N array but the buffer the solve overwrites and its result
    m = haldane_model(TOPO)
    box = box_sites(12)
    N = m.n * box.size
    sample = sample_potential(uniform(1.0), box, 2, seed=1, realization_index=0)
    shell = np.array([m.n * box.index_of(*g) + o for g in inner_boundary(box, 1)
                      for o in range(m.n)])
    for solve in (lambda op: op.eigenpairs(hi=0.0),
                  lambda op: resolvent_columns(op, 3.2, shell)):
        tracemalloc.start()
        try:
            solve(add_potential(restrict_periodic(m, box), sample, 1.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * N * N * 16


def _entries_of(m: np.ndarray) -> HermitianEntries:
    # a dense matrix read as its nonzero entries
    rows, cols = np.nonzero(m)
    return HermitianEntries(len(m), rows, cols, m[rows, cols])


def _gap_splits(w: np.ndarray, count: int) -> list[int]:
    # the column counts k that end at the widest gaps w[k] - w[k-1] wider
    # than 1e-3: there the projection onto the first k columns is well
    # conditioned
    gaps = np.diff(w)
    return sorted(int(k) + 1 for k in np.argsort(gaps)[-count:] if gaps[k] > 1e-3)


@pytest.mark.parametrize("case", ["clean", "onsite", "strong"])
def test_eigensystem_matches_evr_oracle(case):
    # the tridiagonal path against LAPACK's MRRR driver on the same
    # matrix: a clean box, two 36-fold levels, and 1.5 lambda_rho of the
    # truncated Gaussian a = 2 (criterion 07's strong disorder)
    if case == "onsite":
        op = restrict_periodic(_onsite_model(1.0), box_sites(6))
    else:
        box = box_sites(8)
        op = restrict_periodic(haldane_model(TOPO), box)
        if case == "strong":
            sample = sample_potential(truncated_gaussian(2.0), box, 2, seed=6,
                                      realization_index=3)
            op = add_potential(op, sample, 62.8)
    w_evr, v_evr = scipy.linalg.eigh(op.matrix, driver="evr")
    w, v = op.eigenpairs()
    assert np.max(np.abs(w - w_evr)) <= 1e-15 * len(w) * max(1.0, np.max(np.abs(w)))
    for k in _gap_splits(w, 3):
        P_evr = v_evr[:, :k] @ v_evr[:, :k].conj().T
        assert np.max(np.abs(v[:, :k] @ v[:, :k].conj().T - P_evr)) <= 1e-12
        # a slice back-transformed on its own, on a fresh operator
        fresh = FiniteOperator(op.entries, op.potential)
        vk = fresh.eigenpairs(hi=0.5 * (w[k - 1] + w[k]))[1]
        assert vk.shape[1] == k
        assert np.max(np.abs(vk @ vk.conj().T - P_evr)) <= 1e-12


def test_slices_come_from_one_reduction(monkeypatch):
    # eigenvalues and every slice share one zhetrd; each slice transforms
    # its own columns
    reductions, transforms = [], []
    reduce, transform = finite_volume._reduce, finite_volume._back_transform
    monkeypatch.setattr(finite_volume, "_reduce",
                        lambda *a: reductions.append(1) or reduce(*a))
    monkeypatch.setattr(finite_volume, "_back_transform",
                        lambda z, *a: transforms.append(z.shape[1]) or transform(z, *a))
    op = restrict_periodic(haldane_model(TOPO), box_sites(6))
    w = op.eigenvalues
    _, lower = op.eigenpairs(hi=0.0)
    window, _ = op.eigenpairs(-2.0, -1.0)
    assert transforms == [36, int(np.sum((w > -2.0) & (w <= -1.0)))]
    assert np.array_equal(window, w[(w > -2.0) & (w <= -1.0)])
    _, again = op.eigenpairs(hi=0.0)
    assert len(transforms) == 3 and reductions == [1]
    assert np.max(np.abs(again - lower)) <= 1e-12
    assert op.eigenvalues is w


def test_one_site_and_empty_slices():
    # N = 1 has no reflectors; k = 0 transforms nothing
    op = FiniteOperator(_entries_of(np.array([[0.5 + 0.0j]])))
    w, v = op.eigenpairs()
    assert w.tolist() == [0.5] and v.tolist() == [[1.0]]
    assert ProjectionMatrix(op.eigenpairs(hi=0.0)[1]).vectors.shape[1] == 0
    assert ProjectionMatrix(op.eigenpairs(hi=0.5)[1]).vectors.shape[1] == 1
    two = restrict_simple(_onsite_model(1.0), box_sites(1))
    _, none = two.eigenpairs(hi=-2.0)
    assert none.shape == (2, 0)
    assert finite_volume._dot(none, none, adjoint_b=True).tolist() == [[0.0, 0.0], [0.0, 0.0]]
    assert np.array_equal(np.abs(two.eigenpairs(lo=0.0)[1]), [[1.0], [0.0]])
    with pytest.raises(ValueError, match="empty"):
        two.eigenpairs(1.0, 0.0)


def test_non_finite_operator_is_rejected():
    # LAPACK is called without scipy's check_finite: a NaN pair once
    # built and solved to NaN eigenvalues without an error
    for x in (np.nan, np.inf, complex(0.0, np.nan)):
        bad = np.zeros((18, 18), dtype=complex)
        bad[0, 1] = bad[1, 0] = x
        with pytest.raises(ValueError, match="finite"):
            _entries_of(bad)
    with pytest.raises(ValueError, match="finite"):
        HermitianEntries(2, np.array([0, 1]), np.array([0, 1]), np.array([1.0, np.inf]))
    clean = restrict_periodic(haldane_model(TOPO), box_sites(6))
    sample = sample_potential(uniform(1.0), box_sites(6), 2, seed=4, realization_index=0)
    for lam in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            add_potential(clean, sample, lam)
    with_nan = np.array(sample)
    with_nan[5] = np.nan
    # lam v overflows; a sample value is NaN
    for values, lam in ((np.full(72, 2.0), 1e308), (with_nan, 1.0)):
        with pytest.raises(ValueError, match="finite"):
            add_potential(clean, values, lam)


def test_realization_matrix_is_exactly_hermitian():
    m = haldane_model(TOPO)
    box = box_sites(7)
    sample = sample_potential(uniform(1.0), box, 2, seed=2, realization_index=5)
    H = add_potential(restrict_simple(m, box), sample, 2.4).matrix
    assert np.array_equal(H, H.conj().T)


def test_entries_check_matches_the_dense_bound():
    # each entry against its partner's conjugate, with the dense check's
    # 1e-12 bound on |m - m^*|; a repeated (row, col) pair is refused
    rows, cols = np.array([0, 1, 2]), np.array([1, 0, 2])
    for skew, ok in ((5e-13, True), (2e-12, False), (5e-13j, True), (2e-12j, False)):
        vals = np.array([1.0 + 1.0j, 1.0 - 1.0j + skew, 3.0])
        if ok:
            HermitianEntries(3, rows, cols, vals)
        else:
            with pytest.raises(ValueError, match="Hermitian"):
                HermitianEntries(3, rows, cols, vals)
    with pytest.raises(ValueError, match="repeat"):
        HermitianEntries(3, np.array([2, 2]), np.array([2, 2]), np.array([1.0, 1.0], dtype=complex))


def test_periodic_flux_divisibility():
    m = haldane_model(TOPO)
    flux_model = HoppingModel(n=2, r=1, hoppings=dict(m.hoppings),
                              flux=2 * math.pi / 3)
    with pytest.raises(ValueError):
        restrict_periodic(flux_model, box_sites(8))
    op = restrict_periodic(flux_model, box_sites(9))
    assert np.max(np.abs(op.matrix - op.matrix.conj().T)) < 1e-12


def test_periodic_rejects_irrational_flux():
    m = haldane_model(TOPO)
    flux_model = HoppingModel(n=2, r=1, hoppings=dict(m.hoppings),
                              flux=0.37)
    with pytest.raises(ValueError):
        restrict_periodic(flux_model, box_sites(8))


def test_projection_extremes():
    op = restrict_periodic(haldane_model(TOPO), box_sites(6))
    empty = ProjectionMatrix(op.eigenpairs(hi=-10.0)[1])
    full = ProjectionMatrix(op.eigenpairs(hi=10.0)[1])
    assert empty.vectors.shape[1] == 0 and not np.any(empty.matrix)
    assert full.vectors.shape[1] == 72 and np.allclose(full.matrix, np.eye(72), atol=1e-12)


def test_projection_half_filling():
    # symmetric spectrum at M=0, so E=0 fills exactly half the states
    op = restrict_periodic(haldane_model(TOPO), box_sites(11))
    P = ProjectionMatrix(op.eigenpairs(hi=0.0)[1])
    assert P.vectors.shape[1] == 121
    F = finite_volume._dot(P.vectors, P.vectors, adjoint_b=True)
    assert P.matrix.tobytes() == (0.5 * (F + F.conj().T)).tobytes()
    assert np.max(np.abs(P.matrix @ P.matrix - P.matrix)) < 1e-9
    assert np.max(np.abs(P.matrix - P.matrix.conj().T)) < 1e-10


def test_projection_rank_right_continuous():
    op = restrict_simple(haldane_model(TOPO), box_sites(4))
    w = op.eigenvalues
    ranks = [ProjectionMatrix(op.eigenpairs(hi=E)[1]).vectors.shape[1] for E in w]
    assert ranks == [int(np.searchsorted(w, E, side="right")) for E in w]
    assert all(b >= a for a, b in zip(ranks, ranks[1:]))
    # E exactly at an eigenvalue includes that state
    assert ProjectionMatrix(op.eigenpairs(hi=w[0])[1]).vectors.shape[1] >= 1


def test_projection_kernel_block_symmetry():
    op = restrict_simple(haldane_model(TOPO), box_sites(5))
    P = ProjectionMatrix(op.eigenpairs(hi=0.3)[1]).matrix
    n = 2
    for i in (0, 7, 13):
        for j in (2, 11, 24):
            blk = P[n * i:n * i + n, n * j:n * j + n]
            assert np.allclose(blk, P[n * j:n * j + n, n * i:n * i + n].conj().T, atol=1e-12)


def test_green_function_eta_bound_and_residual():
    op = restrict_periodic(haldane_model(TOPO), box_sites(11))
    z = 0.5 + 1.0j
    G = green_function(op, z)
    assert np.linalg.norm(G, 2) <= 1.0 + 1e-12
    N = op.matrix.shape[0]
    assert np.max(np.abs((op.matrix - z * np.eye(N)) @ G - np.eye(N))) < 1e-8


def test_green_function_resonant_error():
    op = restrict_periodic(haldane_model(TOPO), box_sites(6))
    with pytest.raises(ValueError, match="resonant"):
        green_function(op, complex(op.eigenvalues[3]))


@pytest.mark.parametrize("case", ["clean", "disordered", "open"])
def test_resolvent_columns_match_green_function(case):
    # the one Hermitian solve against the eigendecomposition oracle, on a
    # clean periodic box, a disordered one and a disordered open box
    m = haldane_model(TOPO)
    box = box_sites(7)
    build = restrict_simple if case == "open" else restrict_periodic
    op = build(m, box)
    if case != "clean":
        sample = sample_potential(uniform(1.0), box, 2, seed=11, realization_index=4)
        op = add_potential(op, sample, 0.3 if case == "disordered" else 1.5)
    cols = np.array([0, 1, 17, 40, 97])
    for E in (-3.2, 0.3, 1.1):
        X = resolvent_columns(op, E, cols)
        G = green_function(op, E)[:, cols]
        assert X.shape == (98, 5)
        assert np.max(np.abs(X - G)) <= 1e-12 * np.max(np.abs(G))


def test_resolvent_columns_refuse_a_resonant_energy():
    # H - E has exact zeros on its diagonal at E = +-1, so the factor is
    # exactly singular
    op = restrict_periodic(_onsite_model(1.0), box_sites(7))
    cfg = EnsembleConfig(model=_onsite_model(1.0), spec=None, lam=0.0, box_L=7, bc="periodic")
    for E in (1.0, -1.0):
        with pytest.raises(ValueError, match="resonant"):
            resolvent_columns(op, E, np.arange(4))
        assert suitable_box_probability(cfg, E, 1.0).probability == 0.0
    assert np.array_equal(resolvent_columns(op, 0.5, [0, 1])[:2], np.diag([2.0, -2.0 / 3.0]))


def test_resolvent_columns_refuse_an_overflowing_shift():
    # lam v - E overflows to -inf on some sites; the solve must not run on
    # a matrix that is not finite
    box = box_sites(7)
    sample = sample_potential(uniform(1.0), box, 2, seed=1, realization_index=0)
    op = add_potential(restrict_periodic(haldane_model(TOPO), box), sample, 1e308)
    with pytest.raises(ValueError, match="not finite") as caught:
        resolvent_columns(op, 1e308, np.arange(4))
    assert not isinstance(caught.value, finite_volume.ResonantEnergy)


def _spy_zhetrf(monkeypatch) -> list[np.ndarray]:
    # the pivot vector of every zhetrf the operator runs
    pivots, zhetrf = [], finite_volume.lapack.zhetrf

    def spy(*args, **kwargs):
        ldu, ipiv, info = zhetrf(*args, **kwargs)
        pivots.append(ipiv.copy())
        return ldu, ipiv, info

    monkeypatch.setattr(finite_volume.lapack, "zhetrf", spy)
    return pivots


def test_inertia_counts_match_eigvalsh(monkeypatch):
    # random dense Hermitian matrices: the counts below and at x equal
    # those of the eigenvalues, at points away from the spectrum and
    # halfway between neighbouring eigenvalues, and the factors use 2 x 2
    # Bunch-Kaufman blocks
    pivots = _spy_zhetrf(monkeypatch)
    rng = np.random.default_rng(22)
    for N in range(1, 61):
        m = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
        m = m + m.conj().T
        op = FiniteOperator(_entries_of(m))
        w = np.linalg.eigvalsh(m)
        for x in [w[0] - 1.0, w[-1] + 1.0, *rng.uniform(w[0], w[-1], 3),
                  *(0.5 * (w[1:] + w[:-1]))]:
            assert op.inertia(x) == (np.sum(w < x), np.sum(w == x)), (N, x)
    assert sum(int(np.sum(p < 0)) for p in pivots) > 1000
    for p in pivots:  # a 2 x 2 block is a pair ipiv[k] = ipiv[k + 1] < 0
        k = np.flatnonzero(p < 0)
        assert len(k) % 2 == 0 and np.array_equal(p[k[::2]], p[k[1::2]])


def test_inertia_counts_exact_eigenvalues_as_at():
    # a diagonal operator with eigenvalues exactly at x: each exact zero
    # pivot is an eigenvalue at x, and the Wegner window (E - eps,
    # E + eps) is open at both ends
    m = np.diag([-2.0, -0.5, -0.5, 0.5, 1.0, 3.0]).astype(complex)
    op = FiniteOperator(_entries_of(m))
    assert op.inertia(-0.5) == (1, 2)
    assert op.inertia(0.5) == (3, 1)
    assert op.inertia(0.0) == (3, 0)
    assert op.inertia(-2.0) == (0, 1)
    assert op.inertia(3.0) == (5, 1)
    assert not probes._in_window(op, -0.5, 0.5)  # ends only
    assert probes._in_window(op, -0.5, 0.75)  # 0.5 inside
    assert probes._in_window(op, -0.75, 0.5)  # -0.5 inside
    disordered = add_potential(FiniteOperator(_entries_of(np.zeros((3, 3), complex))),
                               np.array([-1.0, 0.0, 1.0]), 0.25)
    assert disordered.inertia(0.25) == (2, 1)
    assert not probes._in_window(disordered, -0.25, 0.0)
    assert probes._in_window(disordered, -0.25, 0.25)


def test_inertia_at_infinite_and_nan_points(monkeypatch):
    pivots = _spy_zhetrf(monkeypatch)
    op = restrict_periodic(haldane_model(TOPO), box_sites(6))
    assert op.inertia(np.inf) == (72, 0)
    assert op.inertia(-np.inf) == (0, 0)
    assert pivots == []  # no factor
    with pytest.raises(ValueError, match="not finite"):
        op.inertia(np.nan)
    # a finite x whose shifted diagonal overflows is refused too
    with pytest.raises(ValueError, match="not finite"):
        add_potential(op, np.full(72, -1.0), 1e308).inertia(1e308)
    assert pivots == []
    # and so is a finite H - x whose elimination overflows
    big = np.array([[1e-300, 1e308, 1e308], [1e308, 1.0, 1e308], [1e308, 1e308, 1.0]],
                   dtype=complex)
    with pytest.raises(ValueError, match="factor of H - x is not finite"):
        FiniteOperator(_entries_of(big)).inertia(0.0)


def test_green_function_diagonal_model():
    op = restrict_simple(_onsite_model(1.0), box_sites(3))
    G = green_function(op, 1.0j)
    assert np.max(np.abs(G - np.diag(np.diag(G)))) == 0.0
    d = np.diag(G)
    assert np.allclose(d[::2], 1.0 / (1.0 - 1.0j))
    assert np.allclose(d[1::2], 1.0 / (-1.0 - 1.0j))


def test_operator_validation():
    bad = np.zeros((18, 18), dtype=complex)
    bad[0, 1] = 1.0
    with pytest.raises(ValueError, match="Hermitian"):
        _entries_of(bad)
    # complex-symmetric off-diagonal pair and an imaginary diagonal
    for entries in (((0, 1, 1j), (1, 0, 1j)), ((2, 2, 1j),)):
        bad = np.zeros((18, 18), dtype=complex)
        for i, j, x in entries:
            bad[i, j] = x
        with pytest.raises(ValueError, match="Hermitian"):
            _entries_of(bad)
    good = np.zeros((18, 18), dtype=complex)
    good[0, 1], good[1, 0] = 1j, -1j
    FiniteOperator(_entries_of(good))
    with pytest.raises(ValueError):
        add_potential(restrict_simple(haldane_model(TOPO), box_sites(3)), None, -1.0)


def test_potential_is_one_finite_value_per_row():
    # the operator itself checks its diagonal, however it was built
    entries = restrict_periodic(haldane_model(TOPO), box_sites(3)).entries
    FiniteOperator(entries, np.zeros(18))
    with pytest.raises(ValueError, match="shape"):
        FiniteOperator(entries, np.zeros(17))
    with pytest.raises(ValueError, match="shape"):
        FiniteOperator(entries, np.zeros((18, 1)))
    with_nan = np.zeros(18)
    with_nan[4] = np.nan
    with pytest.raises(ValueError, match="finite"):
        FiniteOperator(entries, with_nan)


def test_unshifted_realization_takes_a_potential():
    # a lam = 0 realization stores no diagonal, so it is the clean
    # operator and a potential may be added to it
    m = haldane_model(TOPO)
    box = box_sites(6)
    clean = restrict_periodic(m, box)
    sample = sample_potential(uniform(1.0), box, 2, seed=4, realization_index=7)
    unshifted = add_potential(clean, sample, 0.0)
    op = add_potential(unshifted, sample, 1.7)
    expected = clean.matrix + np.diag(1.7 * sample)
    assert op.matrix.tobytes() == expected.tobytes()
