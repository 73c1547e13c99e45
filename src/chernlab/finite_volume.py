"""Finite-volume restrictions, spectra, projections, Green functions.

The restrictions build the clean operator H0 of a box only. A
disordered realization is that clean operator with lam V added to its
diagonal (``add_potential``), the one way to form H0 + lam V. An
ensemble builds and validates the clean operator of its box once and
pays one matrix copy per realization. Each operator solves lazily with
one call of LAPACK's MRRR driver ``zheevr`` through
``scipy.linalg.eigh(driver="evr")`` (``eigensystem``; ``eigenvalues``
is its first part), so an energy read from ``eigenvalues`` sits exactly
on the state a projection counts.
Statistics that only count or locate eigenvalues call numpy's
``eigvalsh`` on the matrix instead and form no eigenvectors; its values
may differ from the ``eigensystem`` ones in the last bits. A spectral
projection is held by its occupied eigenvectors V (N x k) and forms
P = V V^* only when a caller reads ``matrix``; the windowed marker reads
rows of P from V alone, and only the kernel-decay probe reads the
raw N x N matrix V V^* (``fermi_matrix``). Gap-membership arguments
should use the periodic restriction: open boundaries of a
topologically nontrivial model carry in-gap edge modes.

Every matrix product on eigenvectors goes through ``_dot``, that is
through scipy's BLAS, the library that solved for them. numpy and scipy
each bundle their own OpenBLAS, and after a call the worker threads of
one keep spinning and slow the other's next call on a small machine: at
N = 648 on 2 vCPUs, ``evr`` took 202 ms after nothing and 275 ms right
after one numpy ``gemm``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import pi

import numpy as np
import scipy.linalg
from scipy.linalg import blas

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
_ORTHO_TOL = 1e-9


@dataclass(frozen=True)
class FiniteOperator:
    matrix: np.ndarray
    box: Box
    n: int
    sample_ref: str

    def __post_init__(self) -> None:
        N = self.n * self.box.size
        if self.matrix.shape != (N, N):
            raise ValueError(f"matrix must be {N}x{N}")
        # m - m^* written part by part into one buffer: np.abs(m - m.conj().T)
        # bit for bit, with one complex temporary instead of two
        m = self.matrix
        d = np.empty(m.shape, dtype=complex)
        np.subtract(m.real, m.real.T, out=d.real)
        np.add(m.imag, m.imag.T, out=d.imag)
        if np.max(np.abs(d)) > _HERM_TOL:
            raise ValueError("matrix is not Hermitian")
        self.matrix.flags.writeable = False

    @cached_property
    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """(w, v) from one MRRR solve: ascending eigenvalues, eigenvector columns.

        LAPACK ``zheevr`` (Dhillon and Parlett, LAA 387 (2004)) through
        ``scipy.linalg.eigh(driver="evr")``. At N = 648 it takes about
        190 ms against about 300 ms for numpy's divide-and-conquer
        ``eigh``, with less workspace, and gives the same eigenpairs to
        rounding.
        """
        w, v = scipy.linalg.eigh(self.matrix, driver="evr")
        w.flags.writeable = False
        v.flags.writeable = False
        return w, v

    @property
    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues of ``eigensystem``."""
        return self.eigensystem[0]


@dataclass(frozen=True)
class ProjectionMatrix:
    """The orthogonal projection P = V V^* onto the columns of ``vectors``.

    V (N x k) must have orthonormal columns, |V^*V - 1| <= 1e-9 entrywise,
    which makes V V^* a projection of rank k; the check forms the upper
    triangle of V^*V by one rank-k update (``zherk``), costs O(N k^2)
    and forms no N x N product.
    """

    vectors: np.ndarray

    def __post_init__(self) -> None:
        v = self.vectors
        if v.ndim != 2:
            raise ValueError("projection vectors must be an N x k array")
        k = v.shape[1]
        if k and np.max(np.abs(np.triu(blas.zherk(1.0, v, trans=2)) - np.eye(k))) > _ORTHO_TOL:
            raise ValueError("projection vectors are not orthonormal")
        v.flags.writeable = False

    @property
    def rank(self) -> int:
        return self.vectors.shape[1]

    @cached_property
    def matrix(self) -> np.ndarray:
        """P = V V^*, symmetrized to be Hermitian to the last bit (N x N)."""
        v = self.vectors
        P = _dot(v, v, adjoint_b=True)
        P = 0.5 * (P + P.conj().T)
        P.flags.writeable = False
        return P


def _dot(a: np.ndarray, b: np.ndarray, adjoint_a: bool = False,
         adjoint_b: bool = False) -> np.ndarray:
    """a @ b through scipy's BLAS ``gemm``, with a^* or b^* where asked.

    Any dimension may be 0, which gives an empty or zero product.
    """
    gemm = blas.get_blas_funcs("gemm", (a, b))
    return gemm(1.0, a, b, trans_a=2 if adjoint_a else 0, trans_b=2 if adjoint_b else 0)


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
    return FiniteOperator(matrix=H, box=clean.box, n=clean.n,
                          sample_ref=_sample_ref(sample))


def restrict_simple(model: HoppingModel, box: Box) -> FiniteOperator:
    """Compression chi_Box H0 chi_Box of the clean operator, open boundaries."""
    return FiniteOperator(matrix=build_dense(model, box, periodic=False), box=box,
                          n=model.n, sample_ref="clean")


def _flux_denominator(flux: float, L: int) -> int:
    ratio = flux / (2.0 * pi)
    frac = Fraction(ratio).limit_denominator(max(2 * L, 64))
    if abs(ratio - float(frac)) > 1e-12:
        raise ValueError("flux is not 2*pi*(p/q) with small q; periodic wrap undefined")
    return frac.denominator


def restrict_periodic(model: HoppingModel, box: Box) -> FiniteOperator:
    """Wrapped-kernel restriction of the clean operator: rows sum the plane
    kernel over L-translates.

    Requires the clean kernel to be q-periodic with q dividing L, and
    hopping range below L/2 so each wrap direction contributes at most
    one image.
    """
    q = _flux_denominator(model.flux, box.L)
    if box.L % q != 0:
        raise ValueError(f"box side {box.L} is not a multiple of the flux period {q}")
    if 2 * model.r >= box.L:
        raise ValueError(f"hopping range {model.r} needs box side > {2 * model.r}")
    return FiniteOperator(matrix=build_dense(model, box, periodic=True), box=box,
                          n=model.n, sample_ref="clean")


def _occupied(op: FiniteOperator, E: float) -> np.ndarray:
    """Eigenvector columns of the eigenvalues <= E."""
    w, v = op.eigensystem
    return v[:, :np.searchsorted(w, E, side="right")]


def fermi_matrix(op: FiniteOperator, E: float) -> np.ndarray:
    """Raw chi_(-inf, E] of the operator, V_k V_k^* (N x N), unsymmetrized.

    For ``projection_decay``, the one probe that reduces the kernel
    itself, taking its block norms at each energy of a grid. E exactly
    at an eigenvalue is included.
    """
    vk = _occupied(op, E)
    return _dot(vk, vk, adjoint_b=True)


def spectral_projection(op: FiniteOperator, E: float) -> ProjectionMatrix:
    """P = chi_(-inf, E] of the operator, held by its occupied eigenvectors.

    E exactly at an eigenvalue is included. No N x N product is formed.
    """
    return ProjectionMatrix(_occupied(op, E))


def green_function(op: FiniteOperator, z: complex) -> np.ndarray:
    """(H - z)^(-1) through the eigendecomposition."""
    w, v = op.eigensystem
    gap = np.min(np.abs(w - z))
    if gap <= 1e-12:
        raise ValueError(f"resonant energy: dist(z, spectrum) = {gap:.3e}")
    G = _dot(v / (w - z), v, adjoint_b=True)
    G.flags.writeable = False
    return G
