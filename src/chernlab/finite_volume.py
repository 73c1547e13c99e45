"""Finite-volume restrictions, spectra, projections, Green functions.

A disordered realization is the clean restriction with lam V added to
its diagonal (``add_potential``). An ensemble builds and validates the
clean operator of its box once and pays one matrix copy per
realization. Each operator solves lazily with one ``eigh``
(``eigensystem``; ``eigenvalues`` is its first part), so an energy read
from ``eigenvalues`` sits exactly on the state a projection counts.
Statistics that only count or locate eigenvalues call ``eigvalsh`` on
the matrix instead and form no eigenvectors; its values may differ
from the ``eigh`` ones in the last bits. Gap-membership arguments
should use the periodic restriction: open boundaries of a topologically
nontrivial model carry in-gap edge modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import pi

import numpy as np

from .disorder import DisorderSample
from .lattice import Box
from .model import HoppingModel, build_dense

__all__ = [
    "FiniteOperator",
    "ProjectionMatrix",
    "add_potential",
    "restrict_simple",
    "restrict_periodic",
    "fermi_matrix",
    "spectral_projection",
    "green_function",
]

_HERM_TOL = 1e-12


@dataclass(frozen=True)
class FiniteOperator:
    matrix: np.ndarray
    box: Box
    n: int
    bc: str
    lam: float
    sample_ref: str

    def __post_init__(self) -> None:
        N = self.n * self.box.size
        if self.matrix.shape != (N, N):
            raise ValueError(f"matrix must be {N}x{N}")
        if np.max(np.abs(self.matrix - self.matrix.conj().T)) > _HERM_TOL:
            raise ValueError("matrix is not Hermitian")
        if self.bc not in ("simple", "periodic"):
            raise ValueError(f"unknown boundary condition {self.bc!r}")
        self.matrix.flags.writeable = False

    @cached_property
    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """(w, v) from one ``eigh``: ascending eigenvalues, eigenvector columns."""
        w, v = np.linalg.eigh(self.matrix)
        w.flags.writeable = False
        v.flags.writeable = False
        return w, v

    @property
    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues of ``eigensystem``."""
        return self.eigensystem[0]


@dataclass(frozen=True)
class ProjectionMatrix:
    matrix: np.ndarray
    rank: int = field(default=-1)

    def __post_init__(self) -> None:
        m = self.matrix
        if np.max(np.abs(m - m.conj().T)) > 1e-10:
            raise ValueError("projection is not Hermitian")
        if np.max(np.abs(m @ m - m)) > 1e-9:
            raise ValueError("projection is not idempotent")
        self.matrix.flags.writeable = False


def _sample_ref(sample: DisorderSample | None) -> str:
    if sample is None:
        return "clean"
    return f"seed={sample.seed},realization={sample.realization_index}"


def add_potential(clean: FiniteOperator, sample: DisorderSample | None,
                  lam: float) -> FiniteOperator:
    """The realization clean + lam V, V the diagonal potential of the sample.

    The clean matrix is copied and lam v_i added to its entry (i, i),
    which equals clean + diag(lam v) bit for bit. Without a sample the
    clean operator itself is returned; at lam = 0 its read-only matrix
    is shared, not copied.
    """
    if lam < 0:
        raise ValueError("disorder strength must be >= 0")
    if clean.sample_ref != "clean":
        raise ValueError("the potential must be added to a clean operator")
    if sample is None:
        if lam != 0.0:
            raise ValueError("nonzero disorder strength needs a sample")
        return clean
    H = clean.matrix
    if lam != 0.0:
        vals = np.asarray(sample.values, dtype=float)
        if vals.shape != (H.shape[0],):
            raise ValueError(f"sample has {vals.shape[0]} values, operator needs {H.shape[0]}")
        H = H.copy()
        H[np.diag_indices_from(H)] += lam * vals
    return FiniteOperator(matrix=H, box=clean.box, n=clean.n, bc=clean.bc, lam=lam,
                          sample_ref=_sample_ref(sample))


def restrict_simple(model: HoppingModel, sample: DisorderSample | None,
                    lam: float, box: Box) -> FiniteOperator:
    """Compression chi_Box (H0 + lam V) chi_Box, open boundaries."""
    clean = FiniteOperator(matrix=build_dense(model, box, periodic=False), box=box,
                           n=model.n, bc="simple", lam=0.0, sample_ref="clean")
    return add_potential(clean, sample, lam)


def _flux_denominator(flux: float, L: int) -> int:
    ratio = flux / (2.0 * pi)
    frac = Fraction(ratio).limit_denominator(max(2 * L, 64))
    if abs(ratio - float(frac)) > 1e-12:
        raise ValueError("flux is not 2*pi*(p/q) with small q; periodic wrap undefined")
    return frac.denominator


def restrict_periodic(model: HoppingModel, sample: DisorderSample | None,
                      lam: float, box: Box) -> FiniteOperator:
    """Wrapped-kernel restriction: rows sum the plane kernel over L-translates.

    Requires the clean kernel to be q-periodic with q dividing L, and
    hopping range below L/2 so each wrap direction contributes at most
    one image.
    """
    q = _flux_denominator(model.flux, box.L)
    if box.L % q != 0:
        raise ValueError(f"box side {box.L} is not a multiple of the flux period {q}")
    if 2 * model.r >= box.L:
        raise ValueError(f"hopping range {model.r} needs box side > {2 * model.r}")
    clean = FiniteOperator(matrix=build_dense(model, box, periodic=True), box=box,
                           n=model.n, bc="periodic", lam=0.0, sample_ref="clean")
    return add_potential(clean, sample, lam)


def _occupied(op: FiniteOperator, E: float) -> np.ndarray:
    """Eigenvector columns of the eigenvalues <= E."""
    w, v = op.eigensystem
    return v[:, :np.searchsorted(w, E, side="right")]


def fermi_matrix(op: FiniteOperator, E: float) -> np.ndarray:
    """Raw chi_(-inf, E] of the operator, V_k V_k^*, without validation.

    For inner loops, where the checks of ``ProjectionMatrix`` would
    dominate the runtime. E exactly at an eigenvalue is included.
    """
    vk = _occupied(op, E)
    return vk @ vk.conj().T


def spectral_projection(op: FiniteOperator, E: float) -> ProjectionMatrix:
    """P = chi_(-inf, E] of the operator; E exactly at an eigenvalue is included."""
    vk = _occupied(op, E)
    P = vk @ vk.conj().T
    return ProjectionMatrix(matrix=0.5 * (P + P.conj().T), rank=vk.shape[1])


def green_function(op: FiniteOperator, z: complex) -> np.ndarray:
    """(H - z)^(-1) through the eigendecomposition."""
    w, v = op.eigensystem
    gap = np.min(np.abs(w - z))
    if gap <= 1e-12:
        raise ValueError(f"resonant energy: dist(z, spectrum) = {gap:.3e}")
    G = (v / (w - z)) @ v.conj().T
    G.flags.writeable = False
    return G
