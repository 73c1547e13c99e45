"""Real-space topological invariants of finite-volume Fermi projections.

Two equivalent traces give the Chern marker; their agreement on full-box
sums is an exact finite-matrix identity and is tested as such. The
windowed marker reads only the window rows of P from the occupied
eigenvectors V: idempotency gives P[[X1,P],[X2,P]]P = V [A1, A2] V^*
with A_i = V^* X_i V, so its window trace costs O(rows N k) and never
forms the N x N projection. The triple form, the test oracle of the
windowed one, reads the full matrix.
"""

from __future__ import annotations

from math import pi

import numpy as np

from .finite_volume import ProjectionMatrix, _dot
from .lattice import Box

__all__ = [
    "chern_marker",
    "chern_marker_triple",
]


def _positions(box: Box, n: int) -> tuple[np.ndarray, np.ndarray]:
    x1 = np.repeat(box.sites[:, 0], n).astype(float)
    x2 = np.repeat(box.sites[:, 1], n).astype(float)
    return x1, x2


def _window_rows(box: Box, n: int, window_L: int) -> tuple[np.ndarray, int]:
    if window_L < 1:
        raise ValueError(f"window side {window_L} must be at least 1")
    if window_L > box.L:
        raise ValueError(f"window side {window_L} exceeds box side {box.L}")
    # centered like the box, so a window no wider than the box lies inside it
    lo, hi = -(window_L // 2), window_L - 1 - window_L // 2
    g = box.sites
    sel = np.nonzero((g[:, 0] >= lo) & (g[:, 0] <= hi) & (g[:, 1] >= lo) & (g[:, 1] <= hi))[0]
    rows = (n * sel[:, None] + np.arange(n)[None, :]).ravel()
    return rows, len(sel)


def chern_marker(P: ProjectionMatrix, box: Box, window_L: int) -> float:
    """Windowed trace of 2*pi*i P[[X1,P],[X2,P]]P per site.

    Position operators are diagonal in lattice coefficients. The window
    is centered at the origin, like the box, and should sit well inside
    it (margin of about box.L/4) to keep boundary artifacts out of the
    average. With P_r = V_r V^* the window rows of P and
    L_i = (P_r X_i) V, the window trace is tr(L1 L2^*) - tr(L2 L1^*),
    each trace one product of the flattened L_i. Every product runs
    through scipy's BLAS, as the eigensolve does (see ``finite_volume``).
    That difference is imaginary for any vectors, so the marker is real
    and its real part is returned.
    """
    v = P.vectors
    n = v.shape[0] // box.size
    rows, nsites = _window_rows(box, n, window_L)
    x1, x2 = _positions(box, n)
    Pr = _dot(v[rows], v, adjoint_b=True)
    L1 = _dot(Pr * x1, v).reshape(-1, 1, order="F")
    L2 = _dot(Pr * x2, v).reshape(-1, 1, order="F")
    raw = 2j * pi * (_dot(L2, L1, adjoint_a=True) - _dot(L1, L2, adjoint_a=True))[0, 0] / nsites
    return float(raw.real)


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

