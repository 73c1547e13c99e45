"""Real-space topological invariants of finite-volume Fermi projections.

Two equivalent traces give the Chern marker; their agreement on full-box
sums is an exact finite-matrix identity and is tested as such. The
windowed marker reads only the window rows of P from the occupied
eigenvectors V: idempotency gives P[[X1,P],[X2,P]]P = V [A1, A2] V^*
with A_i = V^* X_i V, so its window trace costs O(rows N k) and never
forms the N x N projection. The triple form and the pair index read the
full matrix.

The index of a pair of projections needs one finite-volume repair: on a
finite box the spectrum of P - U P U* away from +-1 pairs as +-mu and
its trace vanishes, so the raw eigenvalue count at the edges cancels
identically. Restricting the difference to a concentric window first
breaks that cancellation and recovers the charge transported around the
flux point, which is the quantity the infinite-volume index measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi

import numpy as np

from .finite_volume import ProjectionMatrix
from .lattice import Box

__all__ = [
    "MarkerResult",
    "FluxUnitary",
    "chern_marker",
    "chern_marker_triple",
    "flux_unitary",
    "index_pair",
]


@dataclass(frozen=True)
class MarkerResult:
    """Windowed marker per site.

    ``imag_residual`` is |Im| of 2*pi*i times the evaluated window trace
    per site. The row form tr(L1 L2^*) - tr(L2 L1^*) is imaginary for any
    vectors, so the value is real up to rounding and the residual only
    measures that rounding.
    """

    value: float
    window_L: int
    imag_residual: float


@dataclass(frozen=True)
class FluxUnitary:
    phases: np.ndarray
    p: tuple[float, float]

    def __post_init__(self) -> None:
        if np.max(np.abs(np.abs(self.phases) - 1.0)) > 1e-12:
            raise ValueError("flux unitary must have unimodular diagonal")
        self.phases.flags.writeable = False


def _positions(box: Box, n: int) -> tuple[np.ndarray, np.ndarray]:
    x1 = np.repeat(box.sites[:, 0], n).astype(float)
    x2 = np.repeat(box.sites[:, 1], n).astype(float)
    return x1, x2


def _window_rows(box: Box, n: int, window_L: int,
                 center: tuple[int, int] = (0, 0)) -> tuple[np.ndarray, int]:
    if window_L < 1:
        raise ValueError(f"window side {window_L} must be at least 1")
    if window_L > box.L:
        raise ValueError(f"window side {window_L} exceeds box side {box.L}")
    off = window_L // 2
    lo1, hi1 = center[0] - off, center[0] + (window_L - 1 - off)
    lo2, hi2 = center[1] - off, center[1] + (window_L - 1 - off)
    g = box.sites
    sel = np.nonzero((g[:, 0] >= lo1) & (g[:, 0] <= hi1)
                     & (g[:, 1] >= lo2) & (g[:, 1] <= hi2))[0]
    if len(sel) != window_L * window_L:
        raise ValueError("window (with its center offset) leaves the box")
    rows = (n * sel[:, None] + np.arange(n)[None, :]).ravel()
    return rows, len(sel)


def chern_marker(P: ProjectionMatrix, box: Box, window_L: int,
                 center: tuple[int, int] = (0, 0)) -> MarkerResult:
    """Windowed trace of 2*pi*i P[[X1,P],[X2,P]]P per site.

    Position operators are diagonal in lattice coefficients. The window
    should sit well inside the box (margin of about box.L/4) to keep
    boundary artifacts out of the average. With P_r = V_r V^* the window
    rows of P and L_i = (P_r X_i) V, the window trace is
    tr(L1 L2^*) - tr(L2 L1^*).
    """
    v = P.vectors
    n = v.shape[0] // box.size
    rows, nsites = _window_rows(box, n, window_L, center)
    x1, x2 = _positions(box, n)
    Pr = v[rows] @ v.conj().T
    L1 = (Pr * x1) @ v
    L2 = (Pr * x2) @ v
    raw = 2j * pi * (np.vdot(L2, L1) - np.vdot(L1, L2)) / nsites
    return MarkerResult(value=float(raw.real), window_L=window_L,
                        imag_residual=float(abs(raw.imag)))


def chern_marker_triple(P: ProjectionMatrix, box: Box, center_window: int) -> float:
    """Triple-kernel sum 2*pi*Im tr(P(c,g)P(g,x)P(x,c)) (g-c)^(x-c), center-averaged.

    Written so the center shift is explicit; no idempotency of P is
    assumed anywhere.
    """
    m = P.matrix
    n = m.shape[0] // box.size
    x1, x2 = _positions(box, n)
    X1P = x1[:, None] * m
    X2P = x2[:, None] * m
    B1 = m @ X1P
    B2 = m @ X2P
    # P(X2-c2)P(X1-c1)P - (1<->2) = D0 - c1 [B2,P] + c2 [B1,P]
    D0 = B2 @ X1P - B1 @ X2P
    C1 = B1 @ m - m @ B1
    C2 = B2 @ m - m @ B2
    rows, _ = _window_rows(box, n, center_window)
    centers = rows[::n] // n
    total = 0.0
    for i in centers:
        blk = slice(n * i, n * i + n)
        c1, c2 = float(box.sites[i, 0]), float(box.sites[i, 1])
        d = D0[blk, blk] - c1 * C2[blk, blk] + c2 * C1[blk, blk]
        total += 2.0 * pi * float(np.trace(d).imag)
    return total / len(centers)


def flux_unitary(p: tuple[float, float], box: Box, n: int) -> FluxUnitary:
    """Diagonal phases e^{-i Arg(g - p)} per (site, orbital)."""
    if abs(p[0] - round(p[0])) < 1e-12 and abs(p[1] - round(p[1])) < 1e-12:
        raise ValueError(f"flux point {p} sits on a lattice point")
    x1, x2 = _positions(box, n)
    theta = np.arctan2(x2 - p[1], x1 - p[0])
    return FluxUnitary(phases=np.exp(-1j * theta), p=(float(p[0]), float(p[1])))


def index_pair(P: ProjectionMatrix, box: Box, p: tuple[float, float],
               tol_window: float = 0.1, window_L: int | None = None) -> int:
    """Eigenvalue count of the pair difference near +1 minus near -1.

    The difference U P U* - P is restricted to a concentric window
    (default side box.L/2) before counting; see the module docstring for
    why the unrestricted count is identically zero. An eigenvalue within
    1e-6 of a tolerance edge makes the count ill-defined and is an error.
    """
    m = P.matrix
    n = m.shape[0] // box.size
    u = flux_unitary(p, box, n).phases
    D = (u[:, None] * m) * np.conj(u)[None, :] - m
    if window_L is None:
        window_L = max(2, box.L // 2)
    rows, _ = _window_rows(box, n, window_L)
    ev = np.linalg.eigvalsh(D[np.ix_(rows, rows)])
    hi, lo = 1.0 - tol_window, -1.0 + tol_window
    if np.any(np.abs(ev - hi) < 1e-6) or np.any(np.abs(ev - lo) < 1e-6):
        raise ValueError("ambiguous index: eigenvalue at a tolerance-window edge")
    return int(np.sum(ev >= hi)) - int(np.sum(ev <= lo))
