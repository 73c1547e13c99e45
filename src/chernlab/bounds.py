"""Closed-form constants and thresholds for the localization analysis.

Pure evaluators only: nothing here touches matrices or randomness. The
hand-off points are documented per function so the Monte-Carlo probes
and the acceptance pipeline can compose them without manual constants.

Two conventions worth stating once:
  * Holder constants: `DistributionSpec.C_tau` bounds the mass of a
    one-sided window [u, u+t]. The fractional-moment machinery needs the
    two-sided window [E-t, E+t], which costs a factor 2^tau; that factor
    is applied inside `strong_disorder_threshold`, not stored in the
    spec.
  * `combes_thomas_salpha` uses exact spectral norms of the hopping
    blocks. `salpha_overbound` reproduces the cruder n*max-row-sum bound
    (diagonal blocks kept exact) collapsed onto a single exponential at
    the maximal hopping distance; its inversion `alpha_for_gap` is what
    fixes alpha from a target gap without hand input.

`strong_disorder_threshold` is the fractional-moment threshold of
Aizenman and Molchanov: its s-scan is one array expression over the
64-point grid, and its refinement is the golden section of Kiefer,
written out here as `_golden` so that the package needs no
`scipy.optimize`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bloch import BandStructure
from .disorder import DistributionSpec, _check_support
from .model import HoppingModel, hopping_norm_sum

__all__ = [
    "GapGeometry",
    "ThresholdReport",
    "KReport",
    "combes_thomas_salpha",
    "salpha_overbound",
    "alpha_for_gap",
    "combes_thomas_rate",
    "strong_disorder_threshold",
    "d_s1_bound",
    "c_s_alpha",
    "weak_disorder_upper",
    "lambda_zero",
    "a_zero",
    "wegner_bound",
]


@dataclass(frozen=True)
class GapGeometry:
    """Clean band intervals plus the disorder support [-a, b]."""

    bands: BandStructure
    a: float
    b: float

    def __post_init__(self) -> None:
        _check_support(self.a, self.b)

    def gap_size(self, i: int) -> float:
        return self.bands.gap_sizes[i]

    def locate_gap(self, E: float) -> int:
        """Index of the open internal gap holding E at lam=0."""
        for i, (lo, hi) in enumerate(self.bands.gaps):
            if self.bands.gap_open[i] and lo < E < hi:
                return i
        raise ValueError(f"E={E} is not inside an open internal gap")

    def dist_to_spectrum(self, E: float) -> float:
        d = min(abs(E - edge) for lo, hi in self.bands.bands for edge in (lo, hi))
        for lo, hi in self.bands.bands:
            if lo <= E <= hi:
                return 0.0
        return d


@dataclass(frozen=True)
class ThresholdReport:
    """Strong-disorder threshold and the s at which the scan attains it."""

    value: float
    s_opt: float


@dataclass(frozen=True)
class KReport:
    value: float
    p: float
    C_pq: float


def combes_thomas_salpha(model: HoppingModel, alpha: float) -> float:
    """sup_gamma sum over xi of ||H0(gamma,xi)|| (e^{alpha|gamma-xi|} - 1)."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return hopping_norm_sum(model, weight=lambda d: math.exp(alpha * d) - 1.0)


def _overbound_coefficient(model: HoppingModel) -> tuple[float, float]:
    # n*||.||_inf per block, except diagonal blocks where the spectral
    # norm equals the inf-norm; all distances rounded up to the largest
    c0, dmax = 0.0, 0.0
    for delta, mat in model.hoppings.items():
        if delta == (0, 0):
            continue
        inf_norm = float(np.max(np.sum(np.abs(mat), axis=1)))
        diagonal = not np.any(np.abs(mat - np.diag(np.diagonal(mat))) > 0)
        c0 += inf_norm if diagonal else model.n * inf_norm
        dmax = max(dmax, float(np.hypot(*delta)))
    return c0, dmax


def salpha_overbound(model: HoppingModel, alpha: float) -> float:
    """Single-exponential over-bound c0*(e^{alpha*dmax} - 1) of S_alpha."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    c0, dmax = _overbound_coefficient(model)
    return c0 * (math.exp(alpha * dmax) - 1.0)


def alpha_for_gap(model: HoppingModel, gap_size: float) -> float:
    """Rate alpha making the over-bounded 2*S_alpha equal half the gap."""
    if gap_size <= 0:
        raise ValueError("gap must be positive")
    c0, dmax = _overbound_coefficient(model)
    if c0 == 0:
        raise ValueError("model has no hopping")
    return math.log(1.0 + gap_size / (4.0 * c0)) / dmax


def combes_thomas_rate(S_alpha: float, alpha: float, delta: float) -> tuple[float, float]:
    """(prefactor, decay rate) of the resolvent bound at distance delta."""
    if delta <= 0:
        raise ValueError("distance to the spectrum must be positive")
    rate = alpha if delta >= 2.0 * S_alpha else alpha * delta / (2.0 * S_alpha)
    return 2.0 / delta, rate


def _block_magnitudes(model: HoppingModel) -> np.ndarray:
    # |entry| of every hopping block, shape (D, n, n) in insertion order,
    # with the (0,0) diagonal zeroed: the row sums skip the site's own entry
    mags = np.abs(np.stack(list(model.hoppings.values())))
    for d, delta in enumerate(model.hoppings):
        if delta == (0, 0):
            np.fill_diagonal(mags[d], 0.0)
    return mags


def _row_moment_sums(mags: np.ndarray, s) -> np.ndarray:
    # sup over the orbital index of sum |entry|^s, for each s > 0 of an
    # array; translation covariance collapses the sup over gamma. The
    # blocks are added in insertion order, one at a time, so each value
    # has the bits of a per-s loop.
    s = np.asarray(s, dtype=float)
    rows = (mags ** s[..., None, None, None]).sum(axis=-1)  # (..., D, n)
    totals = np.zeros(rows.shape[:-2] + rows.shape[-1:])
    for d in range(rows.shape[-2]):
        totals += rows[..., d, :]
    return totals.max(axis=-1)


def _golden(f, xa: float, xb: float, xc: float, xtol: float):
    """Golden-section minimum (x, f(x)) of f inside the bracket xa < xb < xc
    with f(xb) below f(xa) and f(xc), or None for an invalid bracket.

    The steps, constants and stop test are those of scipy's 3-point
    ``minimize_scalar(method="golden")``, so x and f(x) match it bit for bit.
    """
    if not xa < xb < xc:
        return None
    fa, fb, fc = f(xa), f(xb), f(xc)
    if not (fb < fa and fb < fc):
        return None
    gr = 0.61803399  # golden ratio conjugate, to scipy's eight digits
    gc = 1.0 - gr
    x0, x3 = xa, xc
    if abs(xc - xb) > abs(xb - xa):
        x1, x2 = xb, xb + gc * (xc - xb)
    else:
        x1, x2 = xb - gc * (xb - xa), xb
    f1, f2 = f(x1), f(x2)
    for _ in range(5000):
        if abs(x3 - x0) <= xtol * (abs(x1) + abs(x2)):
            break
        if f2 < f1:
            x0, x1, f1 = x1, x2, f2
            x2 = gr * x1 + gc * x3
            f2 = f(x2)
        else:
            x3, x2, f2 = x2, x1, f1
            x1 = gr * x2 + gc * x0
            f1 = f(x1)
    return (x1, f1) if f1 < f2 else (x2, f2)


def strong_disorder_threshold(model: HoppingModel, spec: DistributionSpec) -> ThresholdReport:
    """Grid infimum of [C_{s,tau} * sup-row-sum(s)]^{1/s} over s.

    C_{s,tau} = tau (2^tau C_tau)^{s/tau} / (tau - s), the 2^tau being
    the one-sided-to-two-sided window conversion. The row sum is the
    mu = 0 one: a weight e^{mu |delta|} >= 1 on each hopping block could
    only raise it, so mu is not scanned. s is scanned on 64 geometric
    points of [0.01 tau, 0.99 tau]. The block magnitudes are taken once,
    and the row sums of the whole grid are one array expression. The
    best s cell gets one golden-section refinement (``_golden``, in this
    module), which is skipped when its bracket is flat or monotone: the
    grid point is then already optimal.
    """
    tau, C2 = spec.tau, 2.0 ** spec.tau * spec.C_tau
    s_grid = np.geomspace(0.01 * tau, 0.99 * tau, 64)
    mags = _block_magnitudes(model)

    def value(s, row):
        # scalar arithmetic: numpy's vectorized pow moves last bits
        if row == 0.0:
            return 0.0
        c = tau * C2 ** (s / tau) / (tau - s)
        return (c * row) ** (1.0 / s)

    rows = _row_moment_sums(mags, s_grid).tolist()
    values = np.array([value(s, row) for s, row in zip(s_grid, rows)])
    k = int(np.argmin(values))
    best_s, best = float(s_grid[k]), float(values[k])
    if best > 0 and 0 < k < len(s_grid) - 1:
        found = _golden(lambda s: value(s, float(_row_moment_sums(mags, s))),
                        float(s_grid[k - 1]), best_s, float(s_grid[k + 1]), 1e-10)
        if found is not None and found[1] < best:
            best_s, best = float(found[0]), float(found[1])
    return ThresholdReport(value=best, s_opt=best_s)


def d_s1_bound(B_mom: float, C_mom: float, s: float, t: float, q: float) -> KReport:
    """Uniform fractional-moment constant K from the two moment bounds.

    K = max{5 (2B)^{s/t}, 2^{2s+1} B^{s/t} (1 + B^{s/t} C_{p,q})} with
    p = s/(1 - 2s/t) and C_{p,q} = 1 + p (2^q C)^{1/(1+q)} / (q/(1+q) - p).
    """
    if not (0 < t <= 1) or q <= 0:
        raise ValueError("need t in (0,1] and q > 0")
    s_max = 1.0 / (1.0 + 2.0 / t + 1.0 / q)
    if not (0 < s < s_max):
        raise ValueError(f"s must lie in (0, {s_max:.6g})")
    p = s / (1.0 - 2.0 * s / t)
    C_pq = 1.0 + p * (2.0 ** q * C_mom) ** (1.0 / (1.0 + q)) / (q / (1.0 + q) - p)
    K = max(5.0 * (2.0 * B_mom) ** (s / t),
            2.0 ** (2.0 * s + 1.0) * B_mom ** (s / t) * (1.0 + B_mom ** (s / t) * C_pq))
    return KReport(value=K, p=p, C_pq=C_pq)


def c_s_alpha(n: int, gap_size: float, s: float, alpha: float) -> float:
    """(n |G|^2 / 2) (1 + 32/(s^2 alpha^2))."""
    return (n * gap_size ** 2 / 2.0) * (1.0 + 32.0 / (s * s * alpha * alpha))


def weak_disorder_upper(E: float, gaps: GapGeometry, s: float, alpha: float,
                        S_alpha: float, D_s1: float, n: int) -> float:
    """Disorder-strength ceiling Delta(E)^{1+2/s} / (C_{s,alpha} D_s1)^{1/s}."""
    i = gaps.locate_gap(E)
    g = gaps.gap_size(i)
    if 2.0 * S_alpha > g / 2.0:
        raise ValueError("2 S_alpha exceeds half the gap; decrease alpha")
    delta = gaps.dist_to_spectrum(E)
    C = c_s_alpha(n, g, s, alpha)
    return delta ** (1.0 + 2.0 / s) / (C * D_s1) ** (1.0 / s)


def lambda_zero(E: float, gaps: GapGeometry) -> float:
    """Largest lambda keeping E inside its (shrinking) internal gap."""
    i = gaps.locate_gap(E)
    lo, hi = gaps.bands.gaps[i]
    if gaps.b == 0:
        return (hi - E) / gaps.a
    if gaps.a == 0:
        return (E - lo) / gaps.b
    return min((E - lo) / gaps.b, (hi - E) / gaps.a)


def a_zero(gap_size: float, s: float, C_salpha: float, K: float) -> float:
    """(4 K C_{s,alpha} / |G|^2)^{1/s}."""
    if min(gap_size, s, C_salpha, K) <= 0:
        raise ValueError("all inputs must be positive")
    return (4.0 * K * C_salpha / gap_size ** 2) ** (1.0 / s)


def wegner_bound(n: int, C_tau: float, tau: float, L: int, eps: float,
                 lam: float) -> float:
    """min{1, 4 pi n C_tau L^2 eps^tau / lam^tau}."""
    if lam <= 0:
        raise ValueError("bound diverges at lam = 0")
    if eps <= 0:
        raise ValueError("eps must be positive")
    return min(1.0, 4.0 * math.pi * n * C_tau * L * L * eps ** tau / lam ** tau)
