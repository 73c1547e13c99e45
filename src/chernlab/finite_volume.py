"""Finite-volume restrictions, spectra, projections, Green functions.

The restrictions build the clean operator H0 of a box only, held as its
nonzero entries (``HermitianEntries``, about 18 per site for the Haldane
model) and checked Hermitian and finite once. A disordered realization
is that clean operator with lam V added to its diagonal
(``add_potential``), the one way to form H0 + lam V; it shares the clean
entries and stores only the real diagonal lam v. No operator holds an
N x N matrix: ``matrix`` assembles one when read.

Each operator is reduced once, lazily, to real tridiagonal form:
LAPACK's ``zhetrd`` overwrites a freshly assembled Fortran buffer with
its Householder reflectors. On the first read of eigenvalues, divide and
conquer on the tridiagonal (``dstevd``; Cuppen, Gu and Eisenstat) gives
every eigenvalue and every eigenvector of the tridiagonal form.
``eigenpairs(lo, hi)``, the one way to read eigenvectors, returns the
pair (values, vectors) of the eigenvalues in (lo, hi], all N by default,
and back-transforms (``zunmqr``) only their columns. The eigenvalues and
every such read come from that one reduction, so an energy read from
``eigenvalues`` sits exactly on the state a projection counts. At
N = 648 on 2 vCPUs (side 18, truncated Gaussian a = 2 at lam = 0.1 and
62.8, medians of 7) ``zhetrd`` took 58-69 ms, ``dstevd`` 22-24 ms and
the occupied half's back-transform 20-21 ms: 121-128 ms in all, against
180-198 ms for LAPACK's MRRR driver ``zheevr``, which forms every
eigenvector. All N columns took 52-54 ms to back-transform.
``resolvent_columns`` reads columns of (H - E)^(-1) from one Hermitian
indefinite solve (``zhesv``), with no eigenvectors: at side 19 (N = 722)
the suitable-box probe's shell columns took 32 ms, against 201 ms for
all N eigenvectors. ``green_function`` is its test oracle. The raw
LAPACK calls check nothing; the finiteness checks of ``HermitianEntries``
and ``FiniteOperator`` stand in for scipy's ``check_finite``.

The lower reduction leaves row 0 fixed, and its reflectors act on rows
1..N-1, stored one row below the rows they act on. In the flat Fortran
buffer the N x (N-1) view that starts one element in holds them in the
rows they act on; its last row is row 0 of the buffer right of the
diagonal, which the lower reduction never reads and which is cleared.
The columns they act on are the same view of the output buffer, one
element longer than the vectors. So f2py hands both to LAPACK as they
are, and the eigenvectors come out in the rows of H.

Statistics that count eigenvalues form none. ``counts(xs)`` reads the
number of eigenvalues <= x for a grid of energies from the same
reduction, with no tridiagonal eigensolve, and one Sturm count of the
tridiagonal per energy (``dstebz``; Barth, Martin and Wilkinson): a
few O(N) passes each, against O(N^2) for every eigenvalue. At N = 128
(side 8, 2 vCPUs) a count took 5-8 us and the root-free QR of all
eigenvalues 0.31 ms.
A count may differ from one read off ``eigenvalues`` only at an
eigenvalue within rounding of x. Statistics that count eigenvalues
below and at one energy x read ``inertia(x)``: one Bunch-Kaufman factor
(``zhetrf``) of the assembled H - x, whose pivots count the eigenvalues
below and at x by Sylvester's law of inertia, with no reduction at all.
So the finite volume calls one LAPACK, scipy's. Every LAPACK path
assembles H - x through one helper, at x = 0 for the reduction, and
refuses it when its diagonal is not finite (lam v - x can overflow).
A spectral projection (``ProjectionMatrix``) is held by its occupied
eigenvectors V (N x k) and forms P = V V^* only when a caller reads
``matrix``; the windowed marker reads rows of P from V alone. A probe
scanning energies reads ``eigenpairs`` once, up to its top energy, and
takes the leading columns below each energy of its grid.
Gap-membership arguments should use the periodic restriction: open
boundaries of a topologically nontrivial model carry in-gap edge modes.

Every matrix product on eigenvectors goes through ``_dot``, that is
through scipy's BLAS, the library that solved for them. numpy and scipy
each bundle their own OpenBLAS, and after a call the worker threads of
one keep spinning and slow the other's next call on a small machine: at
N = 648 on 2 vCPUs, ``zheevr`` took 202 ms after nothing and 275 ms
right after one numpy ``gemm``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import isfinite, pi
from typing import NamedTuple

import numpy as np
from scipy.linalg import blas, lapack

from .lattice import Box
from .model import HoppingModel, dense_from_entries, hopping_entries

__all__ = [
    "FiniteOperator",
    "HermitianEntries",
    "ProjectionMatrix",
    "add_potential",
    "restrict_simple",
    "restrict_periodic",
    "green_function",
    "resolvent_columns",
    "ResonantEnergy",
]

_HERM_TOL = 1e-12
_ORTHO_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class HermitianEntries:
    """The nonzero entries (rows, cols, vals) of a size x size Hermitian matrix.

    No (row, col) pair may repeat and every value must be finite.
    Checked once, when built: each entry is compared with the conjugate
    of its partner at (col, row), or with 0 if there is none, which are
    the |m - m^*| values of the dense matrix m. Because no pair repeats,
    ``dense`` assembles m, in the order of its indices, with
    ``model.dense_from_entries`` by one assignment of every entry, and
    adds a diagonal through a strided view of the buffer.
    """

    size: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def __post_init__(self) -> None:
        N = self.size
        if not np.all(np.isfinite(self.vals)):
            raise ValueError("entries must be finite")
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
        N = self.size
        H = dense_from_entries(N, self.rows, self.cols, self.vals, order)
        if diagonal is not None:
            # entries (i, i) are N + 1 apart in either layout
            H.reshape(-1, order="A")[::N + 1] += diagonal
        return H


class ResonantEnergy(ValueError):
    """The energy of a resolvent is an eigenvalue: H - E is singular."""


class _Reduction(NamedTuple):
    """An operator H reduced to a real tridiagonal T = Q^* H Q.

    ``d`` and ``e`` are the diagonal and off-diagonal of T, e padded to
    one zero for N = 1, where the tridiagonal drivers still read one
    value. ``reflectors`` (N x (N - 1)) and ``tau`` hold Q as Householder
    reflectors on rows 0..N-2 of their N rows, which are rows 1..N-1 of
    H; their last row is zero (see the module docstring). For an
    eigenvector z of T, Q z is an eigenvector of H.
    """

    d: np.ndarray
    e: np.ndarray
    reflectors: np.ndarray
    tau: np.ndarray


def _lapack_info(name: str, info: int) -> None:
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK {name} failed with info = {info}")


def _reduce(op: FiniteOperator) -> _Reduction:
    """``zhetrd`` (lower) on the operator assembled in its own index
    order, which it overwrites with its reflectors."""
    N = op.entries.size
    work, info = lapack.zhetrd_lwork(N, lower=1)
    _lapack_info("zhetrd_lwork", info)
    a, d, e, tau, info = lapack.zhetrd(_shifted(op, 0.0), lower=1, lwork=int(work.real),
                                       overwrite_a=1)
    _lapack_info("zhetrd", info)
    a[0, 1:] = 0.0  # the last row of the reflectors' view
    reflectors = a.reshape(-1, order="F")[1:1 + N * (N - 1)].reshape(N, N - 1, order="F")
    return _Reduction(d, e if N > 1 else np.zeros(1), reflectors, tau)


def _back_transform(z: np.ndarray, reflectors: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """The eigenvectors Q z of H for the tridiagonal eigenvector columns z.

    ``zunmqr`` overwrites a copy of z in place, through the view of its
    flat Fortran buffer that starts one element in: the rows 1..N-1 of
    each column that the reflectors act on, and a row they leave fixed.
    """
    N, k = z.shape
    flat = np.empty(N * k + 1, dtype=complex)
    out = flat[:N * k].reshape(N, k, order="F")
    out[:] = z
    if N > 1 and k:
        c = flat[1:].reshape(N, k, order="F")
        _, work, info = lapack.zunmqr("L", "N", reflectors, tau, c, -1, overwrite_c=1)
        _lapack_info("zunmqr", info)
        _, _, info = lapack.zunmqr("L", "N", reflectors, tau, c, int(work[0].real),
                                   overwrite_c=1)
        _lapack_info("zunmqr", info)
    return out


@dataclass(frozen=True, eq=False)
class FiniteOperator:
    """H0 + diag(potential) on a box, held without any N x N matrix.

    ``entries`` hold the clean operator H0, checked Hermitian once; a
    realization shares them and adds only its real diagonal
    ``potential`` lam v, None for a clean operator. The potential must
    have one finite value per row, so the sum is Hermitian without a
    second check. ``matrix`` assembles the dense operator anew on each
    read.
    """

    entries: HermitianEntries
    potential: np.ndarray | None = None

    def __post_init__(self) -> None:
        v = self.potential
        if v is None:
            return
        N = self.entries.size
        if v.shape != (N,):
            raise ValueError(f"potential has shape {v.shape}, operator needs ({N},)")
        if not np.all(np.isfinite(v)):
            raise ValueError("potential must be finite")

    @property
    def matrix(self) -> np.ndarray:
        """The dense N x N operator, assembled on each read."""
        return self.entries.dense(self.potential)

    @cached_property
    def _reduction(self) -> _Reduction:
        return _reduce(self)

    @cached_property
    def _tridiagonal(self) -> tuple[np.ndarray, np.ndarray]:
        """(w, z): the ascending eigenvalues and eigenvectors of T."""
        t = self._reduction
        w, z, info = lapack.dstevd(t.d, t.e, compute_v=1)
        _lapack_info("dstevd", info)
        w.flags.writeable = False
        return w, z

    @property
    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues, from the one tridiagonal reduction."""
        return self._tridiagonal[0]

    def counts(self, xs) -> np.ndarray:
        """The number of eigenvalues <= x for each x of ``xs``, in its order.

        The counts read the tridiagonal T of the operator's one
        reduction, and no eigenvalue of it. An x below T's Gershgorin
        interval [lo, hi] counts 0 and an x >= hi counts N, x = +-inf
        among them, with no call; any other x is one Sturm count of the
        tridiagonal T: ``dstebz`` over (gl, x], with gl
        below lo, so that nothing lies at or below it, and an infinite
        tolerance, so that bisection stops after its first halving. A
        NaN x raises ValueError. A count may differ from one of
        ``eigenvalues`` at an eigenvalue within rounding of x.
        """
        xs = np.asarray(xs, dtype=float)
        if np.any(np.isnan(xs)):
            raise ValueError("cannot count eigenvalues up to NaN")
        N = self.entries.size
        d, e = self._reduction.d, self._reduction.e
        radii = np.zeros(N)
        radii[:-1] += np.abs(e[:N - 1])
        radii[1:] += np.abs(e[:N - 1])
        lo, hi = float(np.min(d - radii)), float(np.max(d + radii))
        gl = lo - (abs(lo) + abs(hi) + 1.0)
        out = np.empty(len(xs), dtype=np.intp)
        for k, x in enumerate(xs):
            if x < lo:
                out[k] = 0
            elif x >= hi:
                out[k] = N
            else:
                m, _, _, _, info = lapack.dstebz(d, e, 1, gl, x, 0, 0, np.inf, "B")
                _lapack_info("dstebz", info)
                out[k] = m
        return out

    def inertia(self, x: float) -> tuple[int, int]:
        """(below, at): how many eigenvalues are < x and how many == x.

        By Sylvester's law of inertia, H - x = P L D L^* P^T has as many
        negative and zero eigenvalues as D. ``zhetrf`` (Bunch-Kaufman,
        lower) factors the assembled H - x in place. A 1 x 1 pivot of D
        counts by its sign, and an exact zero is an eigenvalue at x (the
        factor is then complete but singular). Each 2 x 2 block has a
        negative determinant, so one eigenvalue of each sign. x = +-inf
        needs no factor; a NaN x, a shifted diagonal that is not finite
        or a factor whose pivots are not raises ValueError.
        """
        N = self.entries.size
        if x == np.inf:
            return N, 0
        if x == -np.inf:
            return 0, 0
        a = _shifted(self, x)
        work, info = lapack.zhetrf_lwork(N, lower=1)
        _lapack_info("zhetrf_lwork", info)
        ldu, ipiv, info = lapack.zhetrf(a, lower=1, lwork=int(work.real), overwrite_a=1)
        _lapack_info("zhetrf", min(info, 0))  # info > 0: an exact zero pivot
        d = ldu.diagonal().real
        if not np.all(np.isfinite(d)):
            raise ValueError(f"the factor of H - x is not finite at x = {x}")
        one = ipiv > 0  # a 2 x 2 block has ipiv[k] = ipiv[k + 1] < 0
        below = int(np.count_nonzero(d[one] < 0)) + (N - int(np.count_nonzero(one))) // 2
        return below, int(np.count_nonzero(d[one] == 0))

    def eigenpairs(self, lo: float = -np.inf,
                   hi: float = np.inf) -> tuple[np.ndarray, np.ndarray]:
        """(values, vectors): the ascending eigenvalues in (lo, hi] and
        their eigenvectors, column j of the read-only N x k ``vectors``
        belonging to ``values[j]``.

        Back-transforms only those columns, on every call; an empty range
        of eigenvalues transforms nothing. lo > hi raises ValueError.
        """
        if not lo <= hi:
            raise ValueError(f"empty energy range ({lo}, {hi}]")
        w = self.eigenvalues
        a, b = np.searchsorted(w, [lo, hi], side="right")
        if a >= b:
            v = np.empty((len(w), 0), dtype=complex)
        else:
            t = self._reduction
            v = _back_transform(self._tridiagonal[1][:, a:b], t.reflectors, t.tau)
        v.flags.writeable = False
        return w[a:b], v


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


def add_potential(clean: FiniteOperator, sample: np.ndarray | None,
                  lam: float) -> FiniteOperator:
    """The realization clean + lam V, V = diag(sample) the drawn potential.

    The realization shares the clean entries and stores lam v; its
    matrix adds lam v_i to entry (i, i) of the clean matrix, which
    equals clean + diag(lam v) bit for bit. Without a sample the clean
    operator itself is returned; at lam = 0 no diagonal is stored, and
    the realization is the clean operator again. lam must be finite and
    >= 0, and lam v finite.
    """
    if not (isfinite(lam) and lam >= 0):
        raise ValueError("disorder strength must be finite and >= 0")
    if clean.potential is not None:
        raise ValueError("the potential must be added to a clean operator")
    if sample is None:
        if lam != 0.0:
            raise ValueError("nonzero disorder strength needs a sample")
        return clean
    potential = None
    if lam != 0.0:
        with np.errstate(over="ignore"):  # an overflow is refused as not finite
            potential = lam * np.asarray(sample, dtype=float)
        potential.flags.writeable = False
    return FiniteOperator(clean.entries, potential)


def _clean(model: HoppingModel, box: Box, periodic: bool) -> FiniteOperator:
    return FiniteOperator(HermitianEntries(box.size * model.n,
                                           *hopping_entries(model, box, periodic)))


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


def _shifted(op: FiniteOperator, x: float) -> np.ndarray:
    """H - x for real x, assembled in its own index order into a Fortran
    buffer for LAPACK to overwrite; ValueError if its diagonal is not
    finite. Every LAPACK path assembles here, the reduction at x = 0,
    where the buffer holds the bytes of ``matrix``."""
    x = float(x)
    with np.errstate(over="ignore"):  # refused below
        diagonal = np.full(op.entries.size, -x) if op.potential is None else op.potential - x
        a = op.entries.dense(diagonal, order="F")
    if not np.all(np.isfinite(a.diagonal())):
        raise ValueError(f"H - x is not finite at x = {x}")
    return a


def resolvent_columns(op: FiniteOperator, E: float, cols: np.ndarray) -> np.ndarray:
    """Columns ``cols`` of (H - E)^(-1) for real E (N x k).

    ``zhesv`` factors the assembled H - E in place (Bunch-Kaufman,
    U D U^*) and solves for the unit columns in place. An exactly
    singular D is a resonant energy and raises ``ResonantEnergy``; an
    H - E whose diagonal is not finite raises a plain ValueError.
    """
    N = op.entries.size
    a = _shifted(op, E)
    b = np.zeros((N, len(cols)), dtype=complex, order="F")
    b[cols, np.arange(len(cols))] = 1.0
    work, info = lapack.zhesv_lwork(N)
    _lapack_info("zhesv_lwork", info)
    _, _, x, info = lapack.zhesv(a, b, lwork=int(work.real), overwrite_a=1, overwrite_b=1)
    if info > 0:
        raise ResonantEnergy(f"resonant energy: the factor of H - E is singular at E = {E}")
    _lapack_info("zhesv", info)
    return x


def green_function(op: FiniteOperator, z: complex) -> np.ndarray:
    """(H - z)^(-1) through the eigendecomposition; the test oracle of
    ``resolvent_columns``."""
    w, v = op.eigenpairs()
    gap = np.min(np.abs(w - z))
    if gap <= 1e-12:
        raise ResonantEnergy(f"resonant energy: dist(z, spectrum) = {gap:.3e}")
    G = _dot(v / (w - z), v, adjoint_b=True)
    G.flags.writeable = False
    return G
