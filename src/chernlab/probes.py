"""Monte-Carlo probes pitting finite-volume samples against the bounds.

Every probe is a pure function of an EnsembleConfig: realization k of
the potential is drawn from (master_seed, k), and reductions run in
realization order. Realizations run in index order on the calling
thread; BLAS threads parallelize each solve. The ``threads`` keyword
every ensemble probe takes is accepted and selects nothing, so the
worker count never changes a single output bit. Probes that compare
against an analytic bound report the bound next to the estimate instead
of hiding the comparison in a boolean.

Infinite-volume expectations are stood in for by the combination of
realization averaging and translation averaging over box centers (the
latter is exact in distribution under periodic boundary conditions and
a finite-size surrogate under simple ones).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import binomtest

from .bounds import wegner_bound
from .disorder import DisorderSample, DistributionSpec, sample_potential
from .finite_volume import (
    FiniteOperator,
    add_potential,
    fermi_matrix,
    restrict_periodic,
    restrict_simple,
    spectral_projection,
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
    "EnergyContinuityResult",
    "DisorderContinuityResult",
    "MarkerScanRow",
    "MomentRow",
    "wilson_interval",
    "wegner_empirical",
    "suitable_box_probability",
    "projection_decay",
    "ids_estimate",
    "ids_continuity_check",
    "disorder_continuity_lhs",
    "disorder_continuity_check",
    "averaged_marker_scan",
    "time_averaged_moment",
    "bump_window",
    "loglog_slope",
    "max_secant_slope",
    "transport_slope",
]

_Z99 = 2.5758293035489004  # two-sided 99% normal quantile


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
        if self.lam < 0:
            raise ValueError("disorder strength must be nonnegative")
        if self.lam > 0 and self.spec is None:
            raise ValueError("nonzero disorder strength needs a distribution")
        if self.bc not in ("simple", "periodic"):
            raise ValueError(f"unknown boundary condition {self.bc!r}")
        if self.box_L < 1:
            raise ValueError("box side must be >= 1")


def _clean_restriction(cfg: EnsembleConfig, box: Box) -> FiniteOperator:
    """The clean operator every realization of one probe call starts from.

    Each probe call builds its own and drops it on return, so nothing
    outlives the call: a process that runs many calls holds no matrix.
    """
    build = restrict_periodic if cfg.bc == "periodic" else restrict_simple
    return build(cfg.model, None, 0.0, box)


def _draw(cfg: EnsembleConfig, box: Box, k: int, lams) -> DisorderSample | None:
    """Potential draw k, shared by every strength in lams; None when none
    of them is positive."""
    if not any(lam > 0 for lam in lams):
        return None
    if cfg.spec is None:  # coupled strengths bypass EnsembleConfig's check
        raise ValueError("nonzero disorder strength needs a distribution")
    return sample_potential(cfg.spec, box, cfg.model.n, cfg.master_seed, k)


def _realization(cfg: EnsembleConfig, clean: FiniteOperator, k: int) -> FiniteOperator:
    return add_potential(clean, _draw(cfg, clean.box, k, (cfg.lam,)), cfg.lam)


def _mean_stderr(values) -> tuple[float, float]:
    v = np.asarray(values, dtype=float)
    m = float(np.mean(v))
    if v.size < 2:
        return m, 0.0
    return m, float(np.std(v, ddof=1) / math.sqrt(v.size))


def wilson_interval(successes: int, n: int,
                    confidence: float = 0.99) -> tuple[float, float]:
    """Two-sided Wilson score interval for a binomial proportion."""
    ci = binomtest(successes, n).proportion_ci(confidence_level=confidence,
                                               method="wilson")
    return float(ci.low), float(ci.high)


def _orbital_rows(box: Box, sites: np.ndarray, n: int) -> np.ndarray:
    idx = np.array([box.index_of(int(g1), int(g2)) for g1, g2 in sites])
    if np.any(idx < 0):
        raise ValueError("sites fall outside the box")
    return (idx[:, None] * n + np.arange(n)[None, :]).ravel()


# ------------------------------------------------------------------ Wegner


@dataclass(frozen=True)
class WegnerRow:
    eps: float
    empirical: float
    upper_99: float
    bound: float
    n: int


def wegner_empirical(cfg: EnsembleConfig, E: float, eps_grid,
                     threads: int = 1) -> list[WegnerRow]:
    """Frequency of an eigenvalue within eps of E, against the bound.

    Counting is strict (dist < eps) so exact collisions land on the
    closed complement. upper_99 is the Wilson 99% upper endpoint.
    """
    if cfg.lam <= 0:
        raise ValueError("the comparison bound needs lam > 0")
    clean = _clean_restriction(cfg, box_sites(cfg.box_L))

    def dist(k: int) -> float:
        w = np.linalg.eigvalsh(_realization(cfg, clean, k).matrix)
        return float(np.min(np.abs(w - E)))

    dists = np.array([dist(k) for k in range(cfg.n_realizations)])
    rows = []
    for eps in sorted(float(e) for e in eps_grid):
        hits = int(np.sum(dists < eps))
        _, hi = wilson_interval(hits, cfg.n_realizations)
        b = wegner_bound(cfg.model.n, cfg.spec.C_tau, cfg.spec.tau,
                         cfg.box_L, eps, cfg.lam)
        rows.append(WegnerRow(eps=eps, empirical=hits / cfg.n_realizations,
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
                             r: int = 1, threads: int = 1) -> SuitabilityResult:
    """Fraction of realizations whose box resolvent decays core-to-shell.

    A realization counts iff E avoids the spectrum and every n-by-n
    resolvent block from a core site to an inner-boundary site has
    spectral norm at most L^(-theta). The box side must satisfy the
    core geometry L = 3k + 4r with k a positive integer.
    """
    box = box_sites(cfg.box_L)
    core = core_sites(box, r)
    shell = inner_boundary(box, r)
    n = cfg.model.n
    rows_core = _orbital_rows(box, core.sites, n)
    rows_shell = _orbital_rows(box, shell, n)
    thresh = float(cfg.box_L) ** (-theta)
    clean = _clean_restriction(cfg, box)

    def suitable(k: int) -> int:
        w, v = _realization(cfg, clean, k).eigensystem
        if np.min(np.abs(w - E)) <= 1e-12:
            return 0
        G = (v[rows_core] / (w - E)) @ v[rows_shell].conj().T
        blocks = G.reshape(len(core.sites), n, len(shell), n).transpose(0, 2, 1, 3)
        norms = np.linalg.svd(blocks, compute_uv=False)[..., 0]
        return int(np.all(norms <= thresh))

    hits = sum(suitable(k) for k in range(cfg.n_realizations))
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

    def profile(self, M: np.ndarray) -> np.ndarray:
        """Class means of the block nuclear norms of M."""
        return self.means(self.block_norms(M))


def projection_decay(cfg: EnsembleConfig, E_window: tuple[float, float],
                     grid_points: int = 16, threads: int = 1) -> DecayProfile:
    """Averaged sup over an energy grid of the Fermi-kernel block norms.

    Per realization the sup over a grid_points-point grid inside the
    window is taken first (projections only move at eigenvalues, so the
    grid brackets the sup statistically), then classes are averaged
    over centers and realizations and fitted log-linearly.
    """
    lo, hi = float(E_window[0]), float(E_window[1])
    if not hi >= lo:
        raise ValueError("energy window is empty")
    box = box_sites(cfg.box_L)
    classes = _DisplacementClasses(box, cfg.bc, cfg.model.n)
    clean = _clean_restriction(cfg, box)
    energies = np.linspace(lo, hi, grid_points)

    def class_means(k: int) -> np.ndarray:
        op = _realization(cfg, clean, k)
        sup = None
        for E in energies:
            norms = classes.block_norms(fermi_matrix(op, E))
            sup = norms if sup is None else np.maximum(sup, norms)
        return classes.means(sup)

    per_real = np.array([class_means(k) for k in range(cfg.n_realizations)])
    means = per_real.mean(axis=0)
    if cfg.n_realizations > 1:
        stderrs = per_real.std(axis=0, ddof=1) / math.sqrt(cfg.n_realizations)
    else:
        stderrs = np.zeros_like(means)

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


def ids_estimate(cfg: EnsembleConfig, E_grid, threads: int = 1) -> list[IdsRow]:
    """Per-site state count below E: mean of rank/|box| over the ensemble."""
    box = box_sites(cfg.box_L)
    clean = _clean_restriction(cfg, box)
    energies = [float(E) for E in E_grid]

    def counts(k: int) -> np.ndarray:
        w = np.linalg.eigvalsh(_realization(cfg, clean, k).matrix)
        return np.searchsorted(w, energies, side="right") / box.size

    per_real = np.array([counts(k) for k in range(cfg.n_realizations)])
    rows = []
    for j, E in enumerate(energies):
        m, s = _mean_stderr(per_real[:, j])
        rows.append(IdsRow(E=E, value=m, stderr=s, n=cfg.n_realizations))
    return rows


@dataclass(frozen=True)
class EnergyContinuityResult:
    lhs: float
    lhs_stderr: float
    rhs: float
    passed: bool
    n: int


def ids_continuity_check(cfg: EnsembleConfig, E1: float, E2: float,
                         off_diagonal: bool = False,
                         threads: int = 1) -> EnergyContinuityResult:
    """Projection increment against the energy-regularity ceiling.

    Diagonal form: mean per-site rank increment vs
    2^(2-tau) n pi C_tau |dE/lam|^tau. With off_diagonal=True the
    statistic is the largest center-averaged block nuclear norm of
    P(E2)-P(E1) over displacement classes, and the ceiling carries n^2.
    The check passes when the 99% upper confidence of the statistic
    stays below the ceiling.
    """
    if cfg.lam <= 0:
        raise ValueError("the ceiling needs lam > 0")
    if E2 < E1:
        raise ValueError("need E2 >= E1")
    box = box_sites(cfg.box_L)
    tau, C = cfg.spec.tau, cfg.spec.C_tau
    n = cfg.model.n
    scale = (2.0 ** (2.0 - tau)) * math.pi * C * abs((E2 - E1) / cfg.lam) ** tau
    rhs = (n * n if off_diagonal else n) * scale
    clean = _clean_restriction(cfg, box)

    if off_diagonal:
        classes = _DisplacementClasses(box, cfg.bc, n)

        def stat(k: int) -> np.ndarray:
            op = _realization(cfg, clean, k)
            return classes.profile(fermi_matrix(op, E2) - fermi_matrix(op, E1))

        per_real = np.array([stat(k) for k in range(cfg.n_realizations)])
        class_mean = per_real.mean(axis=0)
        j = int(np.argmax(class_mean))
        lhs, stderr = _mean_stderr(per_real[:, j])
    else:
        def stat(k: int) -> float:
            w = np.linalg.eigvalsh(_realization(cfg, clean, k).matrix)
            k2 = int(np.searchsorted(w, E2, side="right"))
            k1 = int(np.searchsorted(w, E1, side="right"))
            return (k2 - k1) / box.size

        lhs, stderr = _mean_stderr([stat(k) for k in range(cfg.n_realizations)])
    return EnergyContinuityResult(lhs=lhs, lhs_stderr=stderr, rhs=rhs,
                                  passed=lhs + _Z99 * stderr <= rhs,
                                  n=cfg.n_realizations)


# ------------------------------------------------- continuity in disorder


@dataclass(frozen=True)
class DisorderContinuityResult:
    delta_lams: np.ndarray
    lhs: np.ndarray
    exponent: float
    target: float
    passed: bool
    n: int


def disorder_continuity_lhs(cfg: EnsembleConfig, lam_a: float, lam_b: float,
                            E: float, threads: int = 1) -> float:
    """sup over displacements of E[block nuclear norm of P(lam_a)-P(lam_b)].

    Coupled sampling: both strengths see the identical potential draw,
    so the statistic vanishes exactly at lam_a = lam_b.
    """
    box = box_sites(cfg.box_L)
    classes = _DisplacementClasses(box, cfg.bc, cfg.model.n)
    clean = _clean_restriction(cfg, box)

    def stat(k: int) -> np.ndarray:
        sample = _draw(cfg, box, k, (lam_a, lam_b))
        P_a = fermi_matrix(add_potential(clean, sample, lam_a), E)
        P_b = fermi_matrix(add_potential(clean, sample, lam_b), E)
        return classes.profile(P_a - P_b)

    per_real = np.array([stat(k) for k in range(cfg.n_realizations)])
    return float(np.max(per_real.mean(axis=0)))


def disorder_continuity_check(cfg: EnsembleConfig, lam1: float, lam2: float,
                              E: float, rungs: int = 6,
                              threads: int = 1) -> DisorderContinuityResult:
    """Scaling exponent of the coupled projection difference in |dlam|.

    The ladder halves dlam = lam2 - lam1 per rung with the lower
    strength pinned at lam1; the fitted log-log slope must reach the
    regularity exponent tau/(tau+2) minus a 0.1 finite-size allowance.
    """
    if lam1 <= 0 or lam2 <= lam1:
        raise ValueError("need 0 < lam1 < lam2")
    if rungs < 2:
        raise ValueError("need at least two ladder rungs")
    box = box_sites(cfg.box_L)
    classes = _DisplacementClasses(box, cfg.bc, cfg.model.n)
    clean = _clean_restriction(cfg, box)
    dlams = (lam2 - lam1) * 0.5 ** np.arange(rungs)

    def stat(k: int) -> np.ndarray:
        sample = _draw(cfg, box, k, (lam1, lam2))
        base = fermi_matrix(add_potential(clean, sample, lam1), E)
        out = np.empty((len(dlams), len(classes.distances)))
        for j, dl in enumerate(dlams):
            op = add_potential(clean, sample, lam1 + dl)
            out[j] = classes.profile(fermi_matrix(op, E) - base)
        return out

    per_real = np.array([stat(k) for k in range(cfg.n_realizations)])
    lhs = per_real.mean(axis=0).max(axis=1)
    ok = lhs > 0
    if np.sum(ok) < 2:
        raise ValueError("projection difference vanished on the ladder; nothing to fit")
    slope = float(np.polyfit(np.log(dlams[ok]), np.log(lhs[ok]), 1)[0])
    target = cfg.spec.tau / (cfg.spec.tau + 2.0)
    return DisorderContinuityResult(delta_lams=dlams, lhs=lhs, exponent=slope,
                                    target=target, passed=slope >= target - 0.1,
                                    n=cfg.n_realizations)


# --------------------------------------------------------- marker averages


@dataclass(frozen=True)
class MarkerScanRow:
    E: float
    lam: float
    mean: float
    stderr: float
    n: int


def averaged_marker_scan(cfg: EnsembleConfig, E_grid, lam_grid,
                         window_L: int | None = None,
                         threads: int = 1) -> list[MarkerScanRow]:
    """Disorder-averaged windowed marker on an (E, lam) grid.

    Realization k reuses the same potential draw across the whole lam
    grid (coupled columns), so the lam = 0 column is exactly the clean
    marker. Window defaults to a third of the box.
    """
    box = box_sites(cfg.box_L)
    if window_L is None:
        window_L = max(2, cfg.box_L // 3)
    energies = [float(E) for E in E_grid]
    lams = [float(x) for x in lam_grid]
    clean = _clean_restriction(cfg, box)

    def markers(k: int) -> np.ndarray:
        sample = _draw(cfg, box, k, lams)
        out = np.empty((len(lams), len(energies)))
        for i, lam in enumerate(lams):
            op = add_potential(clean, sample, lam)
            for j, E in enumerate(energies):
                P = spectral_projection(op, E)
                out[i, j] = chern_marker(P, box, window_L).value
        return out

    per_real = np.array([markers(k) for k in range(cfg.n_realizations)])
    rows = []
    for i, lam in enumerate(lams):
        for j, E in enumerate(energies):
            m, s = _mean_stderr(per_real[:, i, j])
            rows.append(MarkerScanRow(E=E, lam=lam, mean=m, stderr=s,
                                      n=cfg.n_realizations))
    return rows


# ------------------------------------------------------- transport moments


@dataclass(frozen=True)
class MomentRow:
    T: float
    mean: float
    stderr: float
    n: int


def bump_window(center: float, half_width: float):
    """Compactly supported window (1-u^2)^4 on |u| < 1, u = (E-c)/w."""
    if half_width <= 0:
        raise ValueError("window half-width must be positive")

    def g(E):
        u = (np.asarray(E, dtype=float) - center) / half_width
        return np.clip(1.0 - u * u, 0.0, None) ** 4

    return g


def time_averaged_moment(cfg: EnsembleConfig, p: float,
                         g_window: tuple[float, float], T_grid,
                         threads: int = 1) -> list[MomentRow]:
    """Abel-averaged spread of a windowed state launched from the origin.

    In the eigenbasis the time integral per eigenvalue pair is exact:
    weight 2/(2 - i T (E_a - E_b)). The position weight is the diagonal
    (1+|site|^2)^(p/2); the initial state is the n-orbital indicator of
    the origin cell. Only eigenpairs inside the window contribute, so
    the pair sums run over the windowed spectral slice.
    """
    if p < 0:
        raise ValueError("moment order must be nonnegative")
    half = cfg.box_L // 2
    if (p / 2.0) * math.log1p(2.0 * half * half) > 700.0:
        raise ValueError("moment order overflows double range at this box size")
    box = box_sites(cfg.box_L)
    g = bump_window(*g_window)
    times = [float(T) for T in T_grid]
    if any(T < 0 for T in times):
        raise ValueError("times must be nonnegative")
    weight = (1.0 + np.sum(box.sites.astype(float) ** 2, axis=1)) ** (p / 2.0)
    weight = np.repeat(weight, cfg.model.n)
    origin = box.index_of(0, 0)
    if origin < 0:
        raise ValueError("box does not contain the origin cell")
    rows0 = origin * cfg.model.n + np.arange(cfg.model.n)
    clean = _clean_restriction(cfg, box)

    def moments(k: int) -> np.ndarray:
        w, v = _realization(cfg, clean, k).eigensystem
        gv = g(w)
        idx = np.flatnonzero(gv > 0)
        if idx.size == 0:
            return np.zeros(len(times))
        vs = v[:, idx]
        D = vs.conj().T @ (weight[:, None] * vs)
        C = vs[rows0, :]
        B = C.conj().T @ C
        F = np.outer(gv[idx], gv[idx]) * D * B.T
        dE = w[idx, None] - w[None, idx]
        out = np.empty(len(times))
        for j, T in enumerate(times):
            out[j] = float(np.real(np.sum(2.0 * F / (2.0 - 1j * T * dE))))
        return out

    per_real = np.array([moments(k) for k in range(cfg.n_realizations)])
    rows = []
    for j, T in enumerate(times):
        m, s = _mean_stderr(per_real[:, j])
        rows.append(MomentRow(T=T, mean=m, stderr=s, n=cfg.n_realizations))
    return rows


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


def transport_slope(T, M, floor_rel: float = 1e-3) -> float:
    """Growth rate of the moment increment M(T) - M(0) on a log-log scale.

    The grid must start at T=0 so the static envelope of the windowed
    initial state can be subtracted; the envelope carries no transport
    information and otherwise dilutes the visible growth on small boxes.
    A rung counts as transport only once the state has spread by at
    least floor_rel of that envelope. Localized dynamics still shows a
    transient increment, but it saturates exponentially far below this
    scale (measured ~1e-6 relative at twice the strong-disorder
    threshold), while any genuinely spreading regime crosses it on its
    first rung (~1e-2 relative); the floor sits between the two and
    also buries double-precision cancellation noise. Rungs below it are
    dropped; if fewer than two survive there is no transport to rate
    and the slope is 0. Returns the largest consecutive-pair secant
    over the surviving rungs.
    """
    T, M = np.asarray(T, dtype=float), np.asarray(M, dtype=float)
    if T.size != M.size or T.size < 3:
        raise ValueError("need matched grids with at least three samples")
    if T[0] != 0.0:
        raise ValueError("grid must start at T=0 to define the increment")
    if np.any(np.diff(T) <= 0):
        raise ValueError("grid must be strictly increasing")
    inc = M[1:] - M[0]
    keep = inc > floor_rel * abs(M[0])
    if np.sum(keep) < 2:
        return 0.0
    return max_secant_slope(T[1:][keep], inc[keep])
