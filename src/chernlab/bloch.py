"""Clean-model Bloch analysis: band intervals, gaps, and Chern numbers.

Momenta live in dual-basis coordinates: k = (k1, k2) with each component
2pi-periodic, so a hop by coefficient displacement delta picks up
exp(i (k1 delta1 + k2 delta2)). The Cartesian embedding of the basis
never enters.

Every grid is the uniform N x N torus grid, built as one matrix product
over all displacements, and grid N/2 is the even sublattice [::2, ::2]
of grid N bit for bit. So each analysis solves a grid side at most once:
the coarse (N/2) band extrema of a Richardson pair are read off the fine
(N) eigenvalues, and ``chern_number`` climbs one doubling ladder whose
every solve serves both its gap check and its curvature loop.

``chern_numbers`` climbs that ladder with a list of models, such as one
row of the phase diagram, at most ``_MAX_GRID``^2 k-points a solve;
``chern_number`` is the list of one. The plaquette field's links are
overlap determinants, and for the one band below the first gap the
overlap itself, with no determinant.

Two-orbital models, the Haldane model among them, are solved in closed
form by ``_eigh``, elementwise over the grid and with no LAPACK call, so
the sublattice identity holds for the eigenvalues and eigenvectors too.
Models with another orbital count go to numpy's ``eigh``/``eigvalsh``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import HoppingModel

__all__ = [
    "BandStructure",
    "ChernResult",
    "bloch_matrix",
    "bloch_grid",
    "band_structure",
    "plaquette_field",
    "chern_number",
    "chern_numbers",
]

# Fixed so that the half-flux honeycomb point phi=+pi/2, M=0 lands on
# Chern number -1 for the lower-band Fermi projection.
_ORIENTATION = 1.0

# chern_number's doubling ladder climbs while its rung is below this
# side: the gap check calls the point gapless after the first rung at or
# above it, and the curvature loop accepts that rung as final. 768 =
# 24 * 2^5 is a multiple of 3, so the default ladder ends exactly here,
# on a grid that holds the Dirac points, where a small gap is seen at its
# true size.
_MAX_GRID = 768

# Absolute floor of every gap's open tolerance (times a band scale >= 1),
# which guards the exactly-gapless case, where both grids hit the
# touching point and the correction vanishes. A chern_number rung whose
# raw fine-grid width is at or below it ends the gap check as gapless.
_GAP_FLOOR = 1e-10


def bloch_matrix(model: HoppingModel, k) -> np.ndarray:
    """H(k) = sum_delta H0(0,delta) exp(i k.delta), k in dual coordinates."""
    if model.flux != 0.0:
        raise ValueError("Bloch analysis requires zero flux")
    H = np.zeros((model.n, model.n), dtype=complex)
    for delta, mat in model.hoppings.items():
        H += mat * np.exp(1j * (k[0] * delta[0] + k[1] * delta[1]))
    return H


def bloch_grid(model: HoppingModel, N: int) -> np.ndarray:
    """Stacked H(k) over the N x N uniform torus grid, shape (N, N, n, n)."""
    return _bloch_grids([model], N)[:, :, 0]


def _bloch_grids(models, N: int) -> np.ndarray:
    """Stacked H(k) of models sharing one orbital count n over the N x N
    uniform torus grid, shape (N, N, P, n, n) for P models.

    One product: the (N, D) table exp(i k1 d1) times the (D, N P n^2)
    stack of hopping blocks, each block already times exp(i k2 d2), over
    the D displacements any of the models holds (a model without one
    contributes a zero block). Unlike an (N^2, D) table of full phases,
    no operand grows with N^2 (one would take 66 MB at side 768).
    """
    if any(m.flux != 0.0 for m in models):
        raise ValueError("Bloch analysis requires zero flux")
    n, P = models[0].n, len(models)
    deltas = sorted(set().union(*(m.hoppings for m in models)))
    D = len(deltas)
    zero = np.zeros((n, n), dtype=complex)
    blocks = np.array([[m.hoppings.get(d, zero) for m in models] for d in deltas], dtype=complex)
    ks = 2.0 * np.pi * np.arange(N) / N
    d1, d2 = np.array(deltas, dtype=int).reshape(D, 2).T
    rows = np.exp(1j * np.multiply.outer(ks, d1))
    cols = np.exp(1j * np.multiply.outer(d2, ks))[:, :, None] * blocks.reshape(D, 1, P * n * n)
    H = rows @ cols.reshape(D, N * P * n * n)
    return H.reshape(N, N, P, n, n)


def _eigh(H: np.ndarray, vectors: bool = True):
    """Ascending eigenvalues w, and with ``vectors`` the pair (w, v), of a
    stack of Hermitian matrices H, shape (..., n, n).

    For n = 2 the solve is closed-form and elementwise. With a, d the real
    diagonal and b = H[0, 1], let m = (a + d)/2, h = (a - d)/2 and
    r = hypot(h, |b|); the eigenvalues are m - r and m + r. The lower
    eigenvector comes from the better-conditioned row of H - (m - r):
    (b, -(h + r)) where h > 0, else (-(r - h), conj b), normalized. The
    upper one is (-conj y, conj x). An exactly degenerate matrix (b = 0,
    h = 0) gets the standard basis. Any other n goes to numpy.
    """
    if H.shape[-1] != 2:
        return np.linalg.eigh(H) if vectors else np.linalg.eigvalsh(H)
    a, d, b = H[..., 0, 0].real, H[..., 1, 1].real, H[..., 0, 1]
    w = np.empty(H.shape[:-1])
    lower, upper = w[..., 0], w[..., 1]
    np.add(a, d, out=lower)
    lower *= 0.5
    h = a - d
    h *= 0.5
    babs = np.abs(b)
    r = np.hypot(h, babs)
    np.add(lower, r, out=upper)
    lower -= r
    if not vectors:
        return w
    first_row = h > 0.0
    q = np.abs(h, out=h)
    q += r  # |h| + r, zero only at exact degeneracy
    q[q == 0.0] = -1.0  # then x = 1 and y = conj b = 0
    norm = np.hypot(babs, q, out=babs)
    np.negative(q, out=q)  # -(h + r) where h > 0, else -(r - h)
    v = np.empty(H.shape, dtype=complex)
    x, y = v[..., 0, 0], v[..., 1, 0]
    np.copyto(x, q)
    np.copyto(x, b, where=first_row)
    np.conjugate(b, out=y)
    np.copyto(y, q, where=first_row)
    v.real[..., 0] /= norm[..., None]
    v.imag[..., 0] /= norm[..., None]
    np.conjugate(y, out=v[..., 0, 1])
    np.negative(v[..., 0, 1], out=v[..., 0, 1])
    np.conjugate(x, out=v[..., 1, 1])
    return w, v


@dataclass(frozen=True)
class BandStructure:
    bands: list[tuple[float, float]]
    gaps: list[tuple[float, float]]
    gap_sizes: list[float]
    gap_open: list[bool]
    grid: int


def _extrema(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-band (min, max) of grid eigenvalues w, shape (N, N, ..., n).

    Both reduce a band-major contiguous copy: numpy reduces each band's
    own N*N block far faster than it strides across the band axis, and
    min and max are exact, so the values do not change.
    """
    w = np.ascontiguousarray(np.moveaxis(w, (0, 1), (-2, -1)))
    return w.min(axis=(-2, -1)), w.max(axis=(-2, -1))


def _even_grid(grid: int) -> int:
    if grid < 1:
        raise ValueError(f"grid side {grid} must be at least 1")
    N = max(int(grid), 8)
    return N + N % 2


def _richardson(fine, coarse):
    """Band edges (lo, hi), gap widths and open tolerances of one grid pair,
    per model along any leading axes of the (..., n) extrema.

    Grid extrema of a smooth band converge at second order, so the
    fine/coarse pair (N, N/2) gives the refinement fine + (fine-coarse)/3;
    a gap is open only when its width clears 3x the applied correction.
    """
    (lo_f, hi_f), (lo_c, hi_c) = fine, coarse
    lo = lo_f + (lo_f - lo_c) / 3.0
    hi = hi_f + (hi_f - hi_c) / 3.0
    corr_lo = np.abs(lo_f - lo_c) / 3.0
    corr_hi = np.abs(hi_f - hi_c) / 3.0
    scale = np.maximum(1.0, np.maximum(np.abs(hi).max(axis=-1), np.abs(lo).max(axis=-1)))
    width = lo[..., 1:] - hi[..., :-1]
    tol = 3.0 * (corr_hi[..., :-1] + corr_lo[..., 1:]) + _GAP_FLOOR * scale[..., None]
    return lo, hi, width, tol


def band_structure(model: HoppingModel, grid: int = 64) -> BandStructure:
    """Per-band energy intervals over the torus with one Richardson step.

    The grid is rounded up to an even side N >= 8, and the pair (N, N/2)
    gives the edges; see ``_richardson``. Only grid N is solved: the N/2
    extrema come from its even sublattice. Raises ValueError for a grid
    below 1.
    """
    N = _even_grid(grid)
    w = _eigh(bloch_grid(model, N), vectors=False)
    lo, hi, width, tol = _richardson(_extrema(w), _extrema(w[::2, ::2]))
    return BandStructure(
        bands=[(float(lo[j]), float(hi[j])) for j in range(model.n)],
        gaps=[(float(hi[j]), float(lo[j + 1])) for j in range(model.n - 1)],
        gap_sizes=[float(max(w, 0.0)) for w in width],
        gap_open=[bool(w > t) for w, t in zip(width, tol)],
        grid=N,
    )


@dataclass(frozen=True)
class ChernResult:
    value: int
    curvature_sum: float
    grid: int


def plaquette_field(psi: np.ndarray) -> np.ndarray:
    """Plaquette field strengths, shape (N, N, ...), of the frame bundle psi,
    shape (N, N, ..., n, m).

    Link variables are determinants of neighboring-frame overlaps; for one
    band (m = 1) the overlap is a number and is its own link. Each
    plaquette phase lies in (-pi, pi], so the sum over the torus is 2pi
    times an integer whenever every plaquette stays off the branch cut.
    The phases are manifestly invariant under per-k gauge rotations.
    """
    one_band = psi.shape[-1] == 1
    if one_band:
        psi = psi[..., 0]
    bra = psi.conj()

    def link(axis):
        ahead = np.roll(psi, -1, axis=axis)
        if one_band:
            return np.einsum("...a,...a->...", bra, ahead)
        return np.linalg.det(np.einsum("...am,...an->...mn", bra, ahead))

    u1, u2 = link(0), link(1)
    del bra
    # u1 * roll(u2) * conj(roll(u1)) * conj(u2), formed in place
    loop = np.roll(u2, -1, axis=0)
    loop *= u1
    ahead = np.roll(u1, -1, axis=1)
    loop *= np.conjugate(ahead, out=ahead)
    loop *= np.conjugate(u2, out=u2)
    return np.angle(loop)


def chern_numbers(models, gap_index: int = 1, grid: int = 24) -> list:
    """``chern_number`` of each model: a list in the models' order holding
    a ChernResult per gapped model and, per gapless one, the ValueError
    that ``chern_number`` raises for it.

    Every unfinished model sits on the same rung of ``chern_number``'s
    ladder, so each model gets the same verdict, grid and message as
    alone. A rung solves the grids of all of them together, in batches of
    at most ``_MAX_GRID``^2 k-points (one model a batch on a larger side),
    and drops each batch once read: its eigenvalues advance the open gap
    checks, and its frames give the plaquette field of each model whose
    curvature is not yet final, of which only the sum of the final one is
    kept. The models must share one orbital count.
    """
    models = list(models)
    if len({m.n for m in models}) > 1:
        raise ValueError("models must share one orbital count")
    if models and not (1 <= gap_index <= models[0].n - 1):
        raise ValueError(f"gap index must be in 1..{models[0].n - 1}")
    j = gap_index - 1
    results: list = [None] * len(models)
    # open gap checks, each with the rung below's fine extrema (None on the first rung)
    coarse: dict = dict.fromkeys(range(len(models)))
    curvature: dict = {}  # the ChernResult of each model whose curvature is final
    N = _even_grid(grid)
    while pending := [p for p, result in enumerate(results) if result is None]:
        step = max(1, _MAX_GRID**2 // N**2)
        for at in range(0, len(pending), step):
            batch = pending[at:at + step]
            w, v = _eigh(_bloch_grids([models[p] for p in batch], N))
            if any(p in coarse for p in batch):
                lo_f, hi_f = _extrema(w)
                lo_c, hi_c = _extrema(w[::2, ::2])  # the first rung's coarse extrema
                for i, p in enumerate(batch):
                    if coarse.get(p) is not None:
                        lo_c[i], hi_c[i] = coarse[p]
                _, _, width, tol = _richardson((lo_f, hi_f), (lo_c, hi_c))
                opened = width[:, j] > tol[:, j]
                touching = lo_f[:, j + 1] - hi_f[:, j] <= _GAP_FLOOR
            del w  # before the plaquette field's temporaries
            for i, p in enumerate(batch):
                if p not in coarse:
                    continue
                if opened[i]:
                    del coarse[p]
                elif touching[i] or N >= _MAX_GRID:
                    del coarse[p]
                    results[p] = ValueError(f"gapless: gap {gap_index} is not open on a {N}x{N} grid")
                else:
                    coarse[p] = (lo_f[i], hi_f[i])
            keep = [i for i, p in enumerate(batch) if results[p] is None and p not in curvature]
            if keep:
                F = plaquette_field((v if len(keep) == len(batch) else v[:, :, keep])[..., :gap_index])
                peaks = np.abs(F).max(axis=(0, 1))
                sums = np.moveaxis(F, 2, 0).copy().sum(axis=(1, 2))  # each model's own contiguous sum
                for i, peak, total in zip(keep, peaks, sums):
                    if peak <= 1.0 or N >= _MAX_GRID:
                        total = _ORIENTATION * float(total) / (2.0 * np.pi)
                        curvature[batch[i]] = ChernResult(value=int(np.rint(total)),
                                                          curvature_sum=total, grid=N)
            for p in batch:
                if results[p] is None and p not in coarse:
                    results[p] = curvature.get(p)
        N *= 2
    return results


def chern_number(
    model: HoppingModel,
    gap_index: int = 1,
    grid: int = 24,
) -> ChernResult:
    """Chern number of the Fermi projection below the ``gap_index``-th gap.

    Both the gap check and the curvature loop climb one doubling ladder:
    rungs N * 2^k, with the grid rounded up like ``band_structure`` to an
    even side N >= 8, up to the first one at or above ``_MAX_GRID``. Each
    rung is one solve (``_eigh``: closed form for two orbitals, numpy
    ``eigh`` otherwise), its eigenvalues read by the gap check and its
    vectors by the curvature loop, until each has its answer.

    The gap check judges each rung like ``band_structure`` at that side.
    The first rung's coarse extrema are its fine grid's even sublattice,
    and each later rung's are the rung below. The check raises
    ValueError ("gapless") when no rung opens the gap, and at once when
    a rung's raw fine width lo_f[j+1] - hi_f[j] is at most
    ``_GAP_FLOOR``. That early exit cannot change a verdict: grid 2N
    holds grid N bit for bit, so the fine extrema only spread as the
    ladder climbs; the Richardson edges lie outside the fine ones
    (lo <= lo_f, hi >= hi_f); and every open tolerance is at least
    ``_GAP_FLOOR``. No later width can then exceed its tolerance.

    The curvature loop sums the plaquette field (``plaquette_field``) of
    the first rung whose field strength stays within 1 radian everywhere,
    or of the last rung, which keeps the rounded sum an exact integer on
    gapped models. At the default gap index 1 each link is the one-band
    overlap itself, with no determinant. So a point that certifies on
    the first rung and needs no doubling costs one solve.

    This is ``chern_numbers`` on one model. Raises ValueError for a grid
    below 1.
    """
    result = chern_numbers([model], gap_index, grid)[0]
    if isinstance(result, ValueError):
        raise result
    return result
