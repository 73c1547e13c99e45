"""Clean-model Bloch analysis: band intervals, gaps, and Chern numbers.

Momenta live in dual-basis coordinates: k = (k1, k2) with each component
2pi-periodic, so a hop by coefficient displacement delta picks up
exp(i (k1 delta1 + k2 delta2)). The Cartesian embedding of the basis
never enters.

Every grid is the uniform N x N torus grid, and grid N/2 is the even
sublattice [::2, ::2] of grid N bit for bit. So each analysis solves a
grid side at most once: the coarse (N/2) band extrema of a Richardson
pair are read off the fine (N) eigenvalues, and ``chern_number`` shares
one solve per side between its gap check and its curvature loop.

Two-orbital models, the Haldane model among them, are solved in closed
form by ``_eigh``, elementwise over the grid and with no LAPACK call, so
the sublattice identity holds for the eigenvalues and eigenvectors too.
Models with another orbital count go to numpy's ``eigh``/``eigvalsh``.
"""

from __future__ import annotations

import functools
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
]

# Fixed so that the half-flux honeycomb point phi=+pi/2, M=0 lands on
# Chern number -1 for the lower-band Fermi projection.
_ORIENTATION = 1.0

# chern_number's doubling ladder grid * 2^k climbs while its rung is
# below this side: the gap check calls the point gapless after the first
# rung at or above it, and the curvature loop accepts that rung as final.
# 768 = 24 * 2^5 is a multiple of 3, so the default ladder ends exactly
# here, on a grid that holds the Dirac points, where a small gap is seen
# at its true size. Each side is solved once per call, shared by both
# ladders, so the gap check's climb costs the curvature loop nothing.
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
    if model.flux != 0.0:
        raise ValueError("Bloch analysis requires zero flux")
    ks = 2.0 * np.pi * np.arange(N) / N
    H = np.zeros((N, N, model.n, model.n), dtype=complex)
    for delta, mat in model.hoppings.items():
        phase = np.exp(1j * ks * delta[0])[:, None] * np.exp(1j * ks * delta[1])[None, :]
        H += phase[:, :, None, None] * mat
    return H


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
    """Per-band (min, max) of grid eigenvalues w, shape (N, N, n)."""
    return w.min(axis=(0, 1)), w.max(axis=(0, 1))


def _even_grid(grid: int) -> int:
    if grid < 1:
        raise ValueError(f"grid side {grid} must be at least 1")
    N = max(int(grid), 8)
    return N + N % 2


def _richardson(fine, coarse):
    """Band edges (lo, hi), gap widths and open tolerances of one grid pair.

    Grid extrema of a smooth band converge at second order, so the
    fine/coarse pair (N, N/2) gives the refinement fine + (fine-coarse)/3;
    a gap is open only when its width clears 3x the applied correction.
    """
    (lo_f, hi_f), (lo_c, hi_c) = fine, coarse
    lo = lo_f + (lo_f - lo_c) / 3.0
    hi = hi_f + (hi_f - hi_c) / 3.0
    corr_lo = np.abs(lo_f - lo_c) / 3.0
    corr_hi = np.abs(hi_f - hi_c) / 3.0
    scale = max(1.0, float(np.max(np.abs(hi))), float(np.max(np.abs(lo))))
    width = lo[1:] - hi[:-1]
    tol = 3.0 * (corr_hi[:-1] + corr_lo[1:]) + _GAP_FLOOR * scale
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
    """Plaquette field strengths of the frame bundle psi, shape (N, N, n, m).

    Link variables are determinants of neighboring-frame overlaps; each
    plaquette phase lies in (-pi, pi], so the sum over the torus is 2pi
    times an integer whenever every plaquette stays off the branch cut.
    The phases are manifestly invariant under per-k gauge rotations.
    """
    u1 = np.linalg.det(np.einsum("xyam,xyan->xymn", psi.conj(), np.roll(psi, -1, axis=0)))
    u2 = np.linalg.det(np.einsum("xyam,xyan->xymn", psi.conj(), np.roll(psi, -1, axis=1)))
    loop = u1 * np.roll(u2, -1, axis=0) * np.conj(np.roll(u1, -1, axis=1)) * np.conj(u2)
    return np.angle(loop)


def chern_number(
    model: HoppingModel,
    gap_index: int = 1,
    grid: int = 24,
) -> ChernResult:
    """Chern number of the Fermi projection below the ``gap_index``-th gap.

    The gap is certified first, on one doubling ladder: rungs grid * 2^k
    (grid rounded up to an even side >= 8) up to the first one at or
    above ``_MAX_GRID``, each judged like ``band_structure`` at that
    side. The first rung's coarse extrema are its fine grid's even
    sublattice, and each later rung's are the rung below. The check
    raises ValueError ("gapless") when no rung opens the gap, and at
    once when a rung's raw fine width lo_f[j+1] - hi_f[j] is at most
    ``_GAP_FLOOR``. That early exit cannot change a verdict: grid 2N
    holds grid N bit for bit, so the fine extrema only spread as the
    ladder climbs; the Richardson edges lie outside the fine ones
    (lo <= lo_f, hi >= hi_f); and every open tolerance is at least
    ``_GAP_FLOOR``. No later width can then exceed its tolerance.

    The plaquette link-variable discretization then runs on the grids
    grid * 2^k (grid raised to at least 4), doubling while any plaquette
    field strength exceeds 1 radian and stopping at the first rung at or
    above ``_MAX_GRID``, which keeps the rounded sum an exact integer on
    gapped models.

    Both ladders read one solve per grid side (``_eigh``: closed form for
    two orbitals, numpy ``eigh`` otherwise), made at most once per call:
    its eigenvalues give the gap check's extrema, its vectors the
    plaquette field. For an even grid >= 8 both ladders walk the same
    sides, so a point that certifies on the first rung and needs no
    doubling costs one solve. Raises ValueError for a grid below 1.
    """
    if not (1 <= gap_index <= model.n - 1):
        raise ValueError(f"gap index must be in 1..{model.n - 1}")
    j = gap_index - 1
    N = _even_grid(grid)
    solve = functools.cache(lambda side: _eigh(bloch_grid(model, side)))
    coarse = _extrema(solve(N)[0][::2, ::2])
    while True:
        fine = _extrema(solve(N)[0])
        _, _, width, tol = _richardson(fine, coarse)
        if width[j] > tol[j]:
            break
        if fine[0][j + 1] - fine[1][j] <= _GAP_FLOOR or N >= _MAX_GRID:
            raise ValueError(f"gapless: gap {gap_index} is not open on a {N}x{N} grid")
        coarse, N = fine, 2 * N
    N = max(int(grid), 4)
    while True:
        F = plaquette_field(solve(N)[1][..., :gap_index])
        if np.max(np.abs(F)) <= 1.0 or N >= _MAX_GRID:
            break
        N *= 2
    total = _ORIENTATION * float(F.sum()) / (2.0 * np.pi)
    return ChernResult(value=int(np.rint(total)), curvature_sum=total, grid=N)
