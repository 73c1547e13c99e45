"""Clean-model Bloch analysis: band intervals, gaps, and Chern numbers.

Momenta live in dual-basis coordinates: k = (k1, k2) with each component
2pi-periodic, so a hop by coefficient displacement delta picks up
exp(i (k1 delta1 + k2 delta2)). The Cartesian embedding of the basis
never enters.
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
    "chern_number",
    "haldane_gapless",
]

# Fixed so that the half-flux honeycomb point phi=+pi/2, M=0 lands on
# Chern number -1 for the lower-band Fermi projection.
_ORIENTATION = 1.0

# Both doubling ladders of chern_number stop at this grid side: the gap
# check gives up past it, and the curvature loop accepts it as final.
_MAX_GRID = 768


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


@dataclass(frozen=True)
class BandStructure:
    bands: list[tuple[float, float]]
    gaps: list[tuple[float, float]]
    gap_sizes: list[float]
    gap_open: list[bool]
    grid: int


def _band_extrema(model: HoppingModel, N: int) -> tuple[np.ndarray, np.ndarray]:
    w = np.linalg.eigvalsh(bloch_grid(model, N))
    return w.min(axis=(0, 1)), w.max(axis=(0, 1))


def band_structure(model: HoppingModel, grid: int = 64) -> BandStructure:
    """Per-band energy intervals over the torus with one Richardson step.

    Grid extrema of a smooth band converge at second order, so the
    fine/coarse pair (N, N/2) gives the refinement fine + (fine-coarse)/3;
    a gap is declared open only when it clears 3x the applied correction.
    """
    N = max(int(grid), 8)
    if N % 2:
        N += 1
    lo_f, hi_f = _band_extrema(model, N)
    lo_c, hi_c = _band_extrema(model, N // 2)
    lo = lo_f + (lo_f - lo_c) / 3.0
    hi = hi_f + (hi_f - hi_c) / 3.0
    corr_lo = np.abs(lo_f - lo_c) / 3.0
    corr_hi = np.abs(hi_f - hi_c) / 3.0

    bands = [(float(lo[j]), float(hi[j])) for j in range(model.n)]
    scale = max(1.0, float(np.max(np.abs(hi))), float(np.max(np.abs(lo))))
    gaps, sizes, opens = [], [], []
    for j in range(model.n - 1):
        width = lo[j + 1] - hi[j]
        # absolute floor guards the exactly-gapless case, where both grids
        # hit the touching point and the correction vanishes
        tol = 3.0 * (corr_hi[j] + corr_lo[j + 1]) + 1e-10 * scale
        gaps.append((float(hi[j]), float(lo[j + 1])))
        sizes.append(float(max(width, 0.0)))
        opens.append(bool(width > tol))
    return BandStructure(bands=bands, gaps=gaps, gap_sizes=sizes, gap_open=opens, grid=N)


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


def _fhs_curvatures(H: np.ndarray, m: int) -> np.ndarray:
    _, v = np.linalg.eigh(H)
    return plaquette_field(v[..., :m])


def chern_number(
    model: HoppingModel,
    gap_index: int = 1,
    grid: int = 24,
) -> ChernResult:
    """Chern number of the Fermi projection below the ``gap_index``-th gap.

    Plaquette link-variable discretization on the torus grid; the grid is
    doubled while any plaquette field strength exceeds 1 radian, which
    keeps the rounded sum an exact integer on gapped models. Raises
    ValueError when the gap is not open on any grid of the ladder.
    """
    if not (1 <= gap_index <= model.n - 1):
        raise ValueError(f"gap index must be in 1..{model.n - 1}")
    # small open gaps certify only on fine grids, so walk the same
    # doubling ladder as the curvature loop before declaring failure
    N_bs = max(int(grid), 32)
    while True:
        bs = band_structure(model, grid=N_bs)
        if bs.gap_open[gap_index - 1]:
            break
        if N_bs >= _MAX_GRID:
            raise ValueError(
                f"gapless: gap {gap_index} is not open on a {bs.grid}x{bs.grid} grid")
        N_bs *= 2
    N = max(int(grid), 4)
    while True:
        F = _fhs_curvatures(bloch_grid(model, N), gap_index)
        if np.max(np.abs(F)) <= 1.0 or N >= _MAX_GRID:
            break
        N *= 2
    total = _ORIENTATION * float(F.sum()) / (2.0 * np.pi)
    return ChernResult(value=int(np.rint(total)), curvature_sum=total, grid=N)


def haldane_gapless(p) -> bool:
    """True iff the mass sits exactly on the critical curve |M| = 3 sqrt(3) t2 |sin phi|."""
    import math

    lhs = abs(p.M)
    rhs = 3.0 * np.sqrt(3.0) * p.t2 * abs(np.sin(p.phi))
    return math.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=0.0)
