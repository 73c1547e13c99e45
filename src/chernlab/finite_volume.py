"""Finite-volume restrictions, spectra, projections, Green functions.

The restrictions build the clean operator H0 of a box only, held as its
nonzero entries (``HermitianEntries``, about 18 per site for the Haldane
model) and checked Hermitian once. A disordered realization is that
clean operator with lam V added to its diagonal (``add_potential``), the
one way to form H0 + lam V; it shares the clean entries and stores only
the real diagonal lam v. No operator holds an N x N matrix: ``matrix``
assembles one when read. Each operator solves lazily with one call of
LAPACK's MRRR driver ``zheevr`` through
``scipy.linalg.eigh(driver="evr")`` (``eigensystem``; ``eigenvalues``
is its first part), on a freshly assembled buffer that the solve
overwrites, so an energy read from ``eigenvalues`` sits exactly on the
state a projection counts and the eigenvectors are the one N x N array
a solve leaves.
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
from .model import HoppingModel, dense_from_entries, hopping_entries

__all__ = [
    "FiniteOperator",
    "HermitianEntries",
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


@dataclass(frozen=True, eq=False)
class HermitianEntries:
    """The nonzero entries (rows, cols, vals) of a size x size Hermitian matrix.

    No (row, col) pair may repeat. Checked once, when built: each entry
    is compared with the conjugate of its partner at (col, row), or with
    0 if there is none, which are the |m - m^*| values of the dense
    matrix m. ``dense`` assembles m with ``model.dense_from_entries``.
    """

    size: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def __post_init__(self) -> None:
        N = self.size
        keys = self.rows * N + self.cols
        order = np.argsort(keys)
        sorted_keys = keys[order]
        if np.any(sorted_keys[1:] == sorted_keys[:-1]):
            raise ValueError("entries repeat a (row, col) pair")
        partner_keys = self.cols * N + self.rows
        at = np.minimum(np.searchsorted(sorted_keys, partner_keys), len(keys) - 1)
        partner = np.where(sorted_keys[at] == partner_keys, self.vals[order[at]], 0.0)
        if self.vals.size and np.max(np.abs(self.vals - partner.conj())) > _HERM_TOL:
            raise ValueError("matrix is not Hermitian")
        for a in (self.rows, self.cols, self.vals):
            a.flags.writeable = False

    def dense(self, diagonal: np.ndarray | None = None, order: str = "C") -> np.ndarray:
        """The matrix plus diag(``diagonal``), added after every entry."""
        H = dense_from_entries(self.size, self.rows, self.cols, self.vals, order)
        if diagonal is not None:
            H[np.diag_indices(self.size)] += diagonal
        return H


@dataclass(frozen=True, eq=False, init=False)
class FiniteOperator:
    """H0 + diag(potential) on a box, held without any N x N matrix.

    ``entries`` hold the clean operator H0, checked Hermitian once; a
    realization shares them and adds only its real diagonal
    ``potential`` lam v (None for no diagonal), so it is Hermitian
    without a second check. Built from a dense Hermitian ``matrix``,
    read as its nonzero entries, or from a clean operator's ``entries``
    and a ``potential``. ``matrix`` assembles the dense operator anew
    on each read.
    """

    entries: HermitianEntries
    potential: np.ndarray | None
    box: Box
    n: int
    sample_ref: str

    def __init__(self, matrix: np.ndarray | None = None, *, box: Box, n: int, sample_ref: str,
                 entries: HermitianEntries | None = None,
                 potential: np.ndarray | None = None) -> None:
        N = n * box.size
        if entries is None:
            m = np.asarray(matrix)
            if m.shape != (N, N):
                raise ValueError(f"matrix must be {N}x{N}")
            rows, cols = np.nonzero(m)
            entries = HermitianEntries(N, rows, cols, m[rows, cols])
        if entries.size != N:
            raise ValueError(f"entries must be of a {N}x{N} matrix")
        for name, value in (("entries", entries), ("potential", potential), ("box", box),
                            ("n", n), ("sample_ref", sample_ref)):
            object.__setattr__(self, name, value)

    @property
    def matrix(self) -> np.ndarray:
        """The dense N x N operator, assembled on each read."""
        return self.entries.dense(self.potential)

    @cached_property
    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """(w, v) from one MRRR solve: ascending eigenvalues, eigenvector columns.

        LAPACK ``zheevr`` (Dhillon and Parlett, LAA 387 (2004)) through
        ``scipy.linalg.eigh(driver="evr")``. At N = 648 it takes about
        190 ms against about 300 ms for numpy's divide-and-conquer
        ``eigh``, with less workspace, and gives the same eigenpairs to
        rounding. The operator is assembled into a fresh Fortran-ordered
        buffer that the solve overwrites, so only the eigenvectors stay.
        """
        w, v = scipy.linalg.eigh(self.entries.dense(self.potential, order="F"),
                                 driver="evr", overwrite_a=True)
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

    The realization shares the clean entries and stores lam v; its
    matrix adds lam v_i to entry (i, i) of the clean matrix, which
    equals clean + diag(lam v) bit for bit. Without a sample the clean
    operator itself is returned; at lam = 0 no diagonal is stored.
    """
    if lam < 0:
        raise ValueError("disorder strength must be >= 0")
    if clean.sample_ref != "clean":
        raise ValueError("the potential must be added to a clean operator")
    if sample is None:
        if lam != 0.0:
            raise ValueError("nonzero disorder strength needs a sample")
        return clean
    potential = None
    if lam != 0.0:
        vals = np.asarray(sample.values, dtype=float)
        N = clean.entries.size
        if vals.shape != (N,):
            raise ValueError(f"sample has {vals.shape[0]} values, operator needs {N}")
        potential = lam * vals
        potential.flags.writeable = False
    return FiniteOperator(box=clean.box, n=clean.n, sample_ref=_sample_ref(sample),
                          entries=clean.entries, potential=potential)


def _clean(model: HoppingModel, box: Box, periodic: bool) -> FiniteOperator:
    N = box.size * model.n
    return FiniteOperator(box=box, n=model.n, sample_ref="clean",
                          entries=HermitianEntries(N, *hopping_entries(model, box, periodic)))


def restrict_simple(model: HoppingModel, box: Box) -> FiniteOperator:
    """Compression chi_Box H0 chi_Box of the clean operator, open boundaries."""
    return _clean(model, box, periodic=False)


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
    return _clean(model, box, periodic=True)


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
