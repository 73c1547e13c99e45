"""Monte-Carlo probes pitting finite-volume samples against the bounds.

Every probe is a pure function of an EnsembleConfig and runs one
realization loop, ``_realizations``: it builds the clean restriction of
the box once per call and, for k = 0, 1, ... in order on the calling
thread, draws potential k from (master_seed, k) once and yields the
realization as a function lam -> H0 + lam V_k. The marker scan, the
one probe that couples strengths, evaluates every strength of a
realization on that one draw. BLAS threads
parallelize each solve. Averages over realizations go through one
reduction, ``_mean_stderr``. Probes that compare against an analytic
bound report the bound next to the estimate instead of hiding the
comparison in a boolean.

Infinite-volume expectations are stood in for by the combination of
realization averaging and translation averaging over box centers (the
latter is exact in distribution under periodic boundary conditions and
a finite-size surrogate under simple ones).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .bounds import wegner_bound
from .disorder import DistributionSpec, sample_potential
from .finite_volume import (
    ProjectionMatrix,
    ResonantEnergy,
    _dot,
    add_potential,
    resolvent_columns,
    restrict_periodic,
    restrict_simple,
)
from .lattice import Box, box_sites, core_sites, inner_boundary
from .model import HoppingModel
from .topology import chern_marker

__all__ = [
    "EnsembleConfig",
    "DecayProfile",
    "WegnerRow",
    "SuitabilityResult",
    "IdsRow",
    "MarkerScanRow",
    "MomentRow",
    "wilson_interval",
    "wegner_empirical",
    "suitable_box_probability",
    "projection_decay",
    "ids_estimate",
    "averaged_marker_scan",
    "time_averaged_moment",
    "bump_window",
    "loglog_slope",
    "max_secant_slope",
    "transport_slope",
]

_Z99 = 2.5758293035489004  # two-sided 99% normal quantile
_FLOOR_REL = 1e-3  # transport floor of `transport_slope`, relative to M(0)


@dataclass(frozen=True)
class EnsembleConfig:
    """A disorder ensemble: model, law, strength, box, and seeding."""

    model: HoppingModel
    spec: DistributionSpec | None
    lam: float
    box_L: int
    bc: str = "simple"
    n_realizations: int = 1
    master_seed: int = 0

    def __post_init__(self) -> None:
        if self.n_realizations < 1:
            raise ValueError("need at least one realization")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValueError("disorder strength must be finite and nonnegative")
        if self.lam > 0 and self.spec is None:
            raise ValueError("nonzero disorder strength needs a distribution")
        if self.bc not in ("simple", "periodic"):
            raise ValueError(f"unknown boundary condition {self.bc!r}")
        if self.box_L < 1:
            raise ValueError("box side must be >= 1")


def _realizations(cfg: EnsembleConfig, box: Box, lams=None):
    """Realization k = 0, 1, ... of the ensemble on box, in order, as a
    function lam -> H0 + lam V_k.

    The clean restriction H0 is built once per call and dropped with the
    generator, so nothing outlives the probe call. Draw k is made once
    and shared by every strength of the realization (coupled sampling);
    nothing is drawn when no strength in lams (default: cfg.lam) is
    positive. Operators are built lazily, one strength at a time.
    """
    lams = (cfg.lam,) if lams is None else lams
    draws = any(lam > 0 for lam in lams)
    if draws and cfg.spec is None:  # coupled strengths bypass EnsembleConfig's check
        raise ValueError("nonzero disorder strength needs a distribution")
    build = restrict_periodic if cfg.bc == "periodic" else restrict_simple
    clean = build(cfg.model, box)
    for k in range(cfg.n_realizations):
        sample = (sample_potential(cfg.spec, box, cfg.model.n, cfg.master_seed, k)
                  if draws else None)
        yield partial(add_potential, clean, sample)


def _mean_stderr(per_real) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error over realizations (axis 0) of every entry.

    Each entry's realizations are reduced as one contiguous vector, so a
    value has the bits of np.mean and np.std(ddof=1) of that vector; a
    single realization has standard error 0.
    """
    v = np.asarray(per_real, dtype=float)
    n = v.shape[0]
    cols = np.ascontiguousarray(v.reshape(n, -1).T)
    means = cols.mean(axis=1)
    if n < 2:
        stderrs = np.zeros_like(means)
    else:
        stderrs = cols.std(axis=1, ddof=1) / math.sqrt(n)
    return means.reshape(v.shape[1:]), stderrs.reshape(v.shape[1:])


def wilson_interval(successes: int, n: int) -> tuple[float, float]:
    """Two-sided 99% Wilson score interval for a binomial proportion.

    The closed form in the operation order of scipy's binomtest, whose
    interval it reproduces bit for bit.
    """
    if n < 1 or not 0 <= successes <= n:
        raise ValueError("need n >= 1 and 0 <= successes <= n")
    p, z = successes / n, _Z99
    denom = 2 * (n + z * z)
    center = (2 * n * p + z * z) / denom
    delta = z / denom * math.sqrt(4 * n * p * (1 - p) + z * z)
    lo = 0.0 if successes == 0 else center - delta
    hi = 1.0 if successes == n else center + delta
    return lo, hi


def _spectral_norms(blocks: np.ndarray) -> np.ndarray:
    """Largest singular value of every n-by-n block (the last two axes).

    For n = 2, B = [[p, q], [r, s]], in closed form:
    sigma_max = (sqrt(||B||_F^2 + 2 |det B|) + sqrt(||B||_F^2 - 2 |det B|)) / 2.
    With c = exp(-i arg(det B) / 2), cB has the real determinant
    |det B|, and ||B||_F^2 +- 2 |det B| = |cp +- conj(cs)|^2 + |cq -+ conj(cr)|^2,
    sums of squares that keep sigma_max accurate to rounding. Forming
    ||B||_F^2 - 2 |det B| by subtraction instead loses half the digits
    when sigma_1 ~ sigma_2 (relative error 1.8e-8 on blocks with equal
    singular values). Other n take ``svd``.
    """
    if blocks.shape[-1] != 2:
        return np.linalg.svd(blocks, compute_uv=False)[..., 0]
    p, q, r, s = blocks[..., 0, 0], blocks[..., 0, 1], blocks[..., 1, 0], blocks[..., 1, 1]
    c = np.exp(-0.5j * np.angle(p * s - q * r))
    cp, cq, cr, cs = c * p, c * q, np.conj(c * r), np.conj(c * s)
    plus = np.abs(cp + cs) ** 2 + np.abs(cq - cr) ** 2
    minus = np.abs(cp - cs) ** 2 + np.abs(cq + cr) ** 2
    return 0.5 * (np.sqrt(plus) + np.sqrt(minus))


def _orbital_rows(box: Box, sites: np.ndarray, n: int) -> np.ndarray:
    idx = np.array([box.index_of(int(g1), int(g2)) for g1, g2 in sites])
    return (idx[:, None] * n + np.arange(n)[None, :]).ravel()


# ------------------------------------------------------------------ Wegner


@dataclass(frozen=True)
class WegnerRow:
    eps: float
    empirical: float
    upper_99: float
    bound: float
    n: int


def _in_window(op, lo: float, hi: float) -> bool:
    """Whether op has an eigenvalue in the open interval (lo, hi)."""
    below_hi, _ = op.inertia(hi)
    below_lo, at_lo = op.inertia(lo)
    return below_hi - below_lo - at_lo > 0


def wegner_empirical(cfg: EnsembleConfig, E: float, eps_grid) -> list[WegnerRow]:
    """Frequency of an eigenvalue in (E - eps, E + eps), against the bound.

    Each realization is decided by counts, with no eigenvalue formed:
    the inertia of H - (E + eps) and H - (E - eps), at the rounded ends
    fl(E +- eps). The interval is open, so an eigenvalue exactly at an
    end does not count. The grid is walked from the largest eps down,
    and the first miss ends the walk, since every smaller window misses
    too. upper_99 is the Wilson 99% upper endpoint.
    """
    if cfg.lam <= 0:
        raise ValueError("the comparison bound needs lam > 0")
    eps_values = sorted(float(e) for e in eps_grid)
    if not eps_values:
        raise ValueError("eps_grid is empty")
    if not all(e > 0 for e in eps_values):
        raise ValueError(f"eps_grid values must be positive, got {eps_values}")
    E = float(E)
    hits = [0] * len(eps_values)
    for real in _realizations(cfg, box_sites(cfg.box_L)):
        op = real(cfg.lam)
        for i in reversed(range(len(eps_values))):
            if not _in_window(op, E - eps_values[i], E + eps_values[i]):
                break
            hits[i] += 1
    rows = []
    for eps, k in zip(eps_values, hits):
        _, hi = wilson_interval(k, cfg.n_realizations)
        b = wegner_bound(cfg.model.n, cfg.spec.C_tau, cfg.spec.tau,
                         cfg.box_L, eps, cfg.lam)
        rows.append(WegnerRow(eps=eps, empirical=k / cfg.n_realizations,
                              upper_99=hi, bound=b, n=cfg.n_realizations))
    return rows


# ----------------------------------------------------------- suitable boxes


@dataclass(frozen=True)
class SuitabilityResult:
    probability: float
    ci_low: float
    ci_high: float
    n: int


def suitable_box_probability(cfg: EnsembleConfig, E: float, theta: float,
                             r: int = 1) -> SuitabilityResult:
    """Fraction of realizations whose box resolvent decays core-to-shell.

    A realization counts iff its factor of H - E is not exactly singular
    (resonant) and every n-by-n resolvent block from a core site to an
    inner-boundary site has spectral norm at most L^(-theta). The box
    side must satisfy the core geometry L = 3k + 4r with k a positive
    integer.
    """
    box = box_sites(cfg.box_L)
    core = core_sites(box, r)
    shell = inner_boundary(box, r)
    n = cfg.model.n
    rows_core = _orbital_rows(box, core.sites, n)
    rows_shell = _orbital_rows(box, shell, n)
    thresh = float(cfg.box_L) ** (-theta)

    def suitable(op) -> int:
        try:
            G = resolvent_columns(op, E, rows_shell)[rows_core]
        except ResonantEnergy:
            return 0
        blocks = G.reshape(len(core.sites), n, len(shell), n).transpose(0, 2, 1, 3)
        return int(np.all(_spectral_norms(blocks) <= thresh))

    hits = sum(suitable(real(cfg.lam)) for real in _realizations(cfg, box))
    lo, hi = wilson_interval(hits, cfg.n_realizations)
    return SuitabilityResult(probability=hits / cfg.n_realizations,
                             ci_low=lo, ci_high=hi, n=cfg.n_realizations)


# -------------------------------------------------------- projection decay


@dataclass(frozen=True)
class DecayProfile:
    """Distance-resolved kernel profile with its log-linear fit.

    A profile with no usable off-diagonal mass (identity or zero
    projection) reports the degenerate fit (0, 0, 0).
    """

    distances: np.ndarray
    means: np.ndarray
    stderrs: np.ndarray
    fit_amplitude: float
    fit_rate: float
    r_squared: float
    n: int

    def __post_init__(self) -> None:
        d = np.asarray(self.distances, dtype=float)
        if np.any(np.diff(d) <= 0):
            raise ValueError("distance classes must be strictly increasing")
        if np.any(np.asarray(self.means) < 0) or np.any(np.asarray(self.stderrs) < 0):
            raise ValueError("profile entries must be nonnegative")


class _DisplacementClasses:
    """Distance classes over the site pairs of a box, and class means of
    the n-by-n site-block nuclear norms of a matrix."""

    def __init__(self, box: Box, bc: str, n: int):
        g = box.sites
        d1 = g[None, :, 0] - g[:, None, 0]
        d2 = g[None, :, 1] - g[:, None, 1]
        if bc == "periodic":
            L = box.L
            d1 = (d1 + L // 2) % L - L // 2
            d2 = (d2 + L // 2) % L - L // 2
        dist = np.hypot(d1, d2)
        self.distances, ids = np.unique(np.round(dist, 9), return_inverse=True)
        self.ids = ids.ravel()
        self.counts = np.bincount(self.ids).astype(float)
        self.size, self.n = box.size, n

    def block_norms(self, M: np.ndarray) -> np.ndarray:
        """Nuclear norm of every n-by-n site block of an (m n, m n) matrix."""
        m, n = self.size, self.n
        blocks = M.reshape(m, n, m, n).transpose(0, 2, 1, 3)
        if n == 1:
            return np.abs(blocks[..., 0, 0])
        if n == 2:
            # sigma1 + sigma2 = sqrt(||B||_F^2 + 2 |det B|) for 2x2 blocks
            fro2 = np.sum(np.abs(blocks) ** 2, axis=(2, 3))
            det = blocks[..., 0, 0] * blocks[..., 1, 1] - blocks[..., 0, 1] * blocks[..., 1, 0]
            return np.sqrt(fro2 + 2.0 * np.abs(det))
        return np.sum(np.linalg.svd(blocks, compute_uv=False), axis=-1)

    def means(self, norms: np.ndarray) -> np.ndarray:
        """Mean of per-site-pair values over each distance class."""
        return np.bincount(self.ids, weights=norms.ravel()) / self.counts


def projection_decay(cfg: EnsembleConfig, E_window: tuple[float, float],
                     grid_points: int = 16) -> DecayProfile:
    """Averaged sup over an energy grid of the Fermi-kernel block norms.

    Per realization the sup over a grid_points-point grid inside the
    window is taken first (projections only move at eigenvalues, so the
    grid brackets the sup statistically), then classes are averaged
    over centers and realizations and fitted log-linearly. Each
    realization back-transforms its eigenvectors once, up to the top of
    the window.
    """
    lo, hi = float(E_window[0]), float(E_window[1])
    if not hi >= lo:
        raise ValueError("energy window is empty")
    if grid_points < 1:
        raise ValueError(f"grid_points {grid_points} must be at least 1")
    box = box_sites(cfg.box_L)
    classes = _DisplacementClasses(box, cfg.bc, cfg.model.n)
    energies = np.linspace(lo, hi, grid_points)

    def class_means(w: np.ndarray, v: np.ndarray) -> np.ndarray:
        # the raw kernel V_k V_k^* (N x N) of chi_(-inf, E] at each energy
        sup = None
        for k in np.searchsorted(w, energies, side="right"):
            norms = classes.block_norms(_dot(v[:, :k], v[:, :k], adjoint_b=True))
            sup = norms if sup is None else np.maximum(sup, norms)
        return classes.means(sup)

    # the operator, and with it its reduction, is dropped once its
    # eigenpairs are read
    means, stderrs = _mean_stderr([class_means(*real(cfg.lam).eigenpairs(hi=energies[-1]))
                                   for real in _realizations(cfg, box)])

    distances = classes.distances
    usable = (distances > 0) & (means > 1e-14)
    if np.sum(usable) >= 2:
        x, y = distances[usable], np.log(means[usable])
        slope, intercept = np.polyfit(x, y, 1)
        resid = y - (slope * x + intercept)
        total = y - y.mean()
        denom = float(total @ total)
        r2 = 1.0 - float(resid @ resid) / denom if denom > 0 else 1.0
        fit_amp, fit_rate = float(np.exp(intercept)), float(-slope)
    else:
        fit_amp, fit_rate, r2 = 0.0, 0.0, 0.0
    return DecayProfile(distances=distances, means=means, stderrs=stderrs,
                        fit_amplitude=fit_amp, fit_rate=fit_rate,
                        r_squared=r2, n=cfg.n_realizations)


# ------------------------------------------------------------------- IDS


@dataclass(frozen=True)
class IdsRow:
    E: float
    value: float
    stderr: float
    n: int


def ids_estimate(cfg: EnsembleConfig, E_grid) -> list[IdsRow]:
    """Per-site state count below E: mean of rank/|box| over the ensemble."""
    box = box_sites(cfg.box_L)
    energies = [float(E) for E in E_grid]
    means, stderrs = _mean_stderr([
        np.searchsorted(real(cfg.lam).eigvalsh(), energies, side="right") / box.size
        for real in _realizations(cfg, box)])
    return [IdsRow(E=E, value=float(m), stderr=float(s), n=cfg.n_realizations)
            for E, m, s in zip(energies, means, stderrs)]


# --------------------------------------------------------- marker averages


@dataclass(frozen=True)
class MarkerScanRow:
    E: float
    lam: float
    mean: float
    stderr: float
    n: int


def averaged_marker_scan(cfg: EnsembleConfig, E_grid, lam_grid,
                         window_L: int | None = None) -> list[MarkerScanRow]:
    """Disorder-averaged windowed marker on an (E, lam) grid.

    Realization k reuses the same potential draw across the whole lam
    grid (coupled columns), so the lam = 0 column is exactly the clean
    marker. Window defaults to a third of the box. Each operator
    back-transforms its eigenvectors once, up to the top energy of the
    grid.
    """
    box = box_sites(cfg.box_L)
    if window_L is None:
        window_L = max(2, cfg.box_L // 3)
    energies = [float(E) for E in E_grid]
    lams = [float(x) for x in lam_grid]

    def markers(w: np.ndarray, v: np.ndarray) -> list[float]:
        return [chern_marker(ProjectionMatrix(v[:, :k]), box, window_L)
                for k in np.searchsorted(w, energies, side="right")]

    # one disordered operator alive at a time: each, with its reduction,
    # is dropped once its eigenpairs are read
    top = max(energies, default=-np.inf)
    means, stderrs = _mean_stderr([[markers(*real(lam).eigenpairs(hi=top)) for lam in lams]
                                   for real in _realizations(cfg, box, lams)])
    return [MarkerScanRow(E=E, lam=lam, mean=float(means[i, j]), stderr=float(stderrs[i, j]),
                          n=cfg.n_realizations)
            for i, lam in enumerate(lams) for j, E in enumerate(energies)]


# ------------------------------------------------------- transport moments


@dataclass(frozen=True)
class MomentRow:
    """Moment at time T over n realizations; ``empty_windows`` of them had
    no eigenpair inside the energy window and contribute 0."""

    T: float
    mean: float
    stderr: float
    n: int
    empty_windows: int


def bump_window(center: float, half_width: float):
    """Compactly supported window (1-u^2)^4 on |u| < 1, u = (E-c)/w."""
    if half_width <= 0:
        raise ValueError("window half-width must be positive")

    def g(E):
        u = (np.asarray(E, dtype=float) - center) / half_width
        return np.clip(1.0 - u * u, 0.0, None) ** 4

    return g


def time_averaged_moment(cfg: EnsembleConfig, p: float,
                         g_window: tuple[float, float], T_grid) -> list[MomentRow]:
    """Abel-averaged spread of a windowed state launched from the origin.

    In the eigenbasis the time integral per eigenvalue pair is exact:
    weight 2/(2 - i T (E_a - E_b)). The position weight is the diagonal
    (1+|site|^2)^(p/2); the initial state is the n-orbital indicator of
    the origin cell. Only eigenpairs inside the window contribute, so
    the pair sums run over the window's eigenpairs, the only
    eigenvectors back-transformed; a realization whose window holds none
    contributes 0, transforms nothing and is counted in every row's
    ``empty_windows``.
    """
    if p < 0:
        raise ValueError("moment order must be nonnegative")
    # a moment is at most n W_max, W_max = (1 + 2 half^2)^(p/2) the
    # largest weight; the standard error sums the squares of all of them
    half = cfg.box_L // 2
    if (p * math.log1p(2.0 * half * half) + 2.0 * math.log(cfg.model.n)
            + math.log(cfg.n_realizations)) > 700.0:
        raise ValueError("moment order overflows double range at this box size")
    box = box_sites(cfg.box_L)
    center, half_width = g_window
    g = bump_window(center, half_width)
    times = [float(T) for T in T_grid]
    if any(T < 0 for T in times):
        raise ValueError("times must be nonnegative")
    weight = (1.0 + np.sum(box.sites.astype(float) ** 2, axis=1)) ** (p / 2.0)
    weight = np.repeat(weight, cfg.model.n)
    rows0 = box.index_of(0, 0) * cfg.model.n + np.arange(cfg.model.n)

    def moments(w: np.ndarray, v: np.ndarray) -> np.ndarray | None:
        """The moment at every time, or None when the window holds no eigenpair."""
        gv = g(w)
        idx = np.flatnonzero(gv > 0)
        if idx.size == 0:
            return None
        vs = v[:, idx]
        D = _dot(vs, weight[:, None] * vs, adjoint_a=True)
        C = vs[rows0, :]
        B = _dot(C, C, adjoint_a=True)
        F = np.outer(gv[idx], gv[idx]) * D * B.T
        dE = w[idx, None] - w[None, idx]
        out = np.empty(len(times))
        for j, T in enumerate(times):
            out[j] = float(np.real(np.sum(2.0 * F / (2.0 - 1j * T * dE))))
        return out

    per_real = [moments(*real(cfg.lam).eigenpairs(center - half_width, center + half_width))
                for real in _realizations(cfg, box)]
    empty = sum(m is None for m in per_real)
    means, stderrs = _mean_stderr([np.zeros(len(times)) if m is None else m for m in per_real])
    return [MomentRow(T=T, mean=float(m), stderr=float(s), n=cfg.n_realizations,
                      empty_windows=empty)
            for T, m, s in zip(times, means, stderrs)]


def loglog_slope(T, M) -> float:
    """Least-squares slope of log M against log T."""
    T, M = np.asarray(T, dtype=float), np.asarray(M, dtype=float)
    ok = (T > 0) & (M > 0)
    if np.sum(ok) < 2:
        raise ValueError("need at least two positive samples")
    return float(np.polyfit(np.log(T[ok]), np.log(M[ok]), 1)[0])


def max_secant_slope(T, M) -> float:
    """Largest consecutive-pair log-log slope; growth before saturation."""
    T, M = np.asarray(T, dtype=float), np.asarray(M, dtype=float)
    if np.any(T <= 0) or np.any(M <= 0):
        raise ValueError("need positive samples")
    if T.size < 2:
        raise ValueError("need at least two samples")
    return float(np.max(np.diff(np.log(M)) / np.diff(np.log(T))))


def transport_slope(T, M) -> float:
    """Growth rate of the moment increment M(T) - M(0) on a log-log scale.

    The grid must start at T=0 so the static envelope of the windowed
    initial state can be subtracted; the envelope carries no transport
    information and otherwise dilutes the visible growth on small boxes.
    A rung counts as transport only once the state has spread by at
    least _FLOOR_REL = 1e-3 of that envelope. Localized dynamics still
    shows a transient increment, but it saturates exponentially far
    below this scale (measured ~1e-6 relative at twice the
    strong-disorder threshold), while any genuinely spreading regime
    crosses it on its first rung (~1e-2 relative); the floor sits
    between the two and also buries double-precision cancellation
    noise. Rungs below it are dropped; if fewer than two survive there
    is no transport to rate and the slope is 0. Returns the largest
    consecutive-pair secant over the surviving rungs.
    """
    T, M = np.asarray(T, dtype=float), np.asarray(M, dtype=float)
    if T.size != M.size or T.size < 3:
        raise ValueError("need matched grids with at least three samples")
    if T[0] != 0.0:
        raise ValueError("grid must start at T=0 to define the increment")
    if np.any(np.diff(T) <= 0):
        raise ValueError("grid must be strictly increasing")
    inc = M[1:] - M[0]
    keep = inc > _FLOOR_REL * abs(M[0])
    if np.sum(keep) < 2:
        return 0.0
    return max_secant_slope(T[1:][keep], inc[keep])
