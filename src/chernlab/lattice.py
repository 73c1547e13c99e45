"""Bravais lattice geometry: the coefficient sup-norm and centered boxes.

All distances are measured in lattice coefficients (the integer
coordinates w.r.t. the basis a1, a2), never in Cartesian embedding.
Every bound downstream assumes this convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Box",
    "norm_inf",
    "box_sites",
    "inner_boundary",
    "core_sites",
]


def norm_inf(gamma) -> int:
    return max(abs(gamma[0]), abs(gamma[1]))


@dataclass(frozen=True)
class Box:
    """Centered box of side L: coefficients in {0,...,L-1} - floor(L/2).

    Sites are ordered row-major in (g1, g2), g1 outermost. All dense
    matrices downstream index sites in exactly this order.
    """

    L: int
    sites: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.L < 1:
            raise ValueError(f"box side must be >= 1, got {self.L}")

    @property
    def size(self) -> int:
        return self.L * self.L

    def index_of(self, g1: int, g2: int) -> int:
        """Rank of the site in the row-major ordering; -1 if outside."""
        off = self.L // 2
        i, j = g1 + off, g2 + off
        if 0 <= i < self.L and 0 <= j < self.L:
            return i * self.L + j
        return -1


def box_sites(L: int) -> Box:
    """Build the centered box of side L (L^2 sites)."""
    off = L // 2
    vals = np.arange(L) - off
    g1, g2 = np.meshgrid(vals, vals, indexing="ij")
    sites = np.stack([g1.ravel(), g2.ravel()], axis=1).astype(np.int64)
    return Box(L=L, sites=sites)


def inner_boundary(box: Box, r: int) -> np.ndarray:
    """Sites of the box with some complement site within sup-distance r.

    A site is in the r-shell iff its sup-distance margin to the box edge
    is < r (the nearest outside site then sits at margin+1 <= r).
    Returns the (m, 2) coefficient array in box site order.
    """
    if r < 1:
        raise ValueError(f"shell thickness must be >= 1, got {r}")
    off = box.L // 2
    lo, hi = -off, box.L - 1 - off
    g = box.sites
    margin = np.minimum.reduce(
        [g[:, 0] - lo, hi - g[:, 0], g[:, 1] - lo, hi - g[:, 1]]
    )
    return box.sites[margin < r]


def core_sites(box: Box, r: int) -> Box:
    """Core box of side (L+2r)/3 used by the suitability criterion.

    Requires L = 3k + 4r with k a positive integer, so the core nests
    inside the box with symmetric margins k + r on all four edges.
    """
    if r < 1:
        raise ValueError(f"range must be >= 1, got {r}")
    L = box.L
    k, rem = divmod(L - 4 * r, 3)
    if rem != 0 or k < 1:
        raise ValueError(f"{L} not admissible for range {r}: need L = 3k + {4 * r} with k a positive integer")
    return box_sites((L + 2 * r) // 3)
