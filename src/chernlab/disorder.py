"""Single-site disorder laws, their regularity constants, and sampling.

Sampling is hash-based: every value is a pure function of
(master seed, realization index, site coefficients, orbital), so a
draw does not depend on the order realizations are taken in, and
nested boxes agree, without any sequential RNG state. The truncated
Gaussian is inverted by fixed-count bisection, which keeps results
bit-identical across platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import erf, ndtr

from .lattice import Box

__all__ = [
    "DistributionSpec",
    "DisorderSample",
    "uniform",
    "truncated_gaussian",
    "custom_density",
    "holder_constant",
    "sample_potential",
    "hash64",
    "abs_moment",
    "trunc_gauss_abs_moment_bound",
    "trunc_gauss_power_moment_bound",
    "spec_from_json",
]

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB


def _splitmix(z: int) -> int:
    z = (z + _GAMMA) & _MASK
    z = ((z ^ (z >> 30)) * _M1) & _MASK
    z = ((z ^ (z >> 27)) * _M2) & _MASK
    return (z ^ (z >> 31)) & _MASK


def hash64(*parts: int) -> int:
    """Combine integers into one 64-bit value; order-sensitive."""
    h = 0
    for p in parts:
        h = _splitmix(h ^ (int(p) & _MASK))
    return h


def _splitmix_vec(z: np.ndarray) -> np.ndarray:
    z = z + np.uint64(_GAMMA)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_M1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_M2)
    return z ^ (z >> np.uint64(31))


@dataclass(frozen=True)
class DistributionSpec:
    """Law of one disorder entry, supported in [-a, b]."""

    kind: str
    a: float
    b: float
    tau: float
    C_tau: float
    beta: float
    pdf: Callable[[np.ndarray], np.ndarray] | None = None
    cdf: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self) -> None:
        if self.a < 0 or self.b < 0 or self.a + self.b <= 0:
            raise ValueError("support [-a, b] needs a, b >= 0 and a+b > 0")
        if not (0 < self.tau <= 1):
            raise ValueError("tau must lie in (0, 1]")


@dataclass(frozen=True)
class DisorderSample:
    values: np.ndarray
    seed: int
    realization_index: int


def uniform(a: float, b: float | None = None) -> DistributionSpec:
    """Uniform density on [-a, b] (defaults to symmetric [-a, a])."""
    b = a if b is None else b
    width = a + b
    dens = 1.0 / width

    def pdf(v):
        v = np.asarray(v, dtype=float)
        return np.where((v >= -a) & (v <= b), dens, 0.0)

    def cdf(v):
        v = np.asarray(v, dtype=float)
        return np.clip((v + a) * dens, 0.0, 1.0)

    return DistributionSpec(kind="uniform", a=a, b=b, tau=1.0, C_tau=dens,
                            beta=math.inf, pdf=pdf, cdf=cdf)


def _gauss_mass(a: float) -> float:
    # integral of the standard normal density over [-a, a]
    return float(erf(a / math.sqrt(2.0)))


def truncated_gaussian(a: float) -> DistributionSpec:
    """Standard normal density restricted to [-a, a] and renormalized, a >= 1."""
    if a < 1.0:
        raise ValueError("truncation point must satisfy a >= 1")
    Z = _gauss_mass(a)
    peak = (1.0 / math.sqrt(2.0 * math.pi)) / Z

    def pdf(v):
        v = np.asarray(v, dtype=float)
        out = np.exp(-0.5 * v * v) / (math.sqrt(2.0 * math.pi) * Z)
        return np.where(np.abs(v) <= a, out, 0.0)

    def cdf(v):
        v = np.asarray(v, dtype=float)
        lo = ndtr(-a)
        return np.clip((ndtr(np.clip(v, -a, a)) - lo) / Z, 0.0, 1.0)

    return DistributionSpec(kind="truncated_gaussian", a=a, b=a, tau=1.0,
                            C_tau=peak, beta=math.inf, pdf=pdf, cdf=cdf)


def custom_density(points: np.ndarray, density: np.ndarray, beta: float = math.inf) -> DistributionSpec:
    """Tabulated density, piecewise-linear between sample points."""
    pts = np.asarray(points, dtype=float)
    den = np.asarray(density, dtype=float)
    if pts.ndim != 1 or pts.shape != den.shape or len(pts) < 2:
        raise ValueError("need matching 1-d tables with at least two points")
    if np.any(np.diff(pts) <= 0) or np.any(den < 0):
        raise ValueError("points must increase and density must be nonnegative")
    mass = np.trapezoid(den, pts)
    if mass <= 0:
        raise ValueError("density integrates to zero")
    den = den / mass
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (den[1:] + den[:-1]) * np.diff(pts))])
    cum /= cum[-1]
    a, b = -float(pts[0]), float(pts[-1])

    def pdf(v):
        return np.interp(np.asarray(v, dtype=float), pts, den, left=0.0, right=0.0)

    def cdf(v):
        return np.interp(np.asarray(v, dtype=float), pts, cum, left=0.0, right=1.0)

    return DistributionSpec(kind="custom_density", a=a, b=b, tau=1.0,
                            C_tau=float(np.max(den)), beta=beta, pdf=pdf, cdf=cdf)


def holder_constant(spec: DistributionSpec) -> tuple[float, float]:
    """(tau, C_tau) with sup_u rho([u, u+t]) <= C_tau t^tau.

    For bounded densities this is tau=1 with the density sup.
    """
    if spec.pdf is None:
        raise ValueError("distribution has no density to bound")
    return spec.tau, spec.C_tau


def _ppf(spec: DistributionSpec, u: np.ndarray) -> np.ndarray:
    if spec.kind == "uniform":
        return -spec.a + (spec.a + spec.b) * u
    if spec.kind == "truncated_gaussian":
        a = spec.a
        lo = np.full_like(u, -a)
        hi = np.full_like(u, a)
        base = ndtr(-a)
        Z = _gauss_mass(a)
        target = base + u * Z
        # fixed iteration count: interval 2a shrinks below 1e-14
        iters = int(math.ceil(math.log2(2.0 * a / 1e-14)))
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            below = ndtr(mid) < target
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        return 0.5 * (lo + hi)
    if spec.kind == "custom_density":
        # numeric CDF inversion by bisection on the tabulated law
        lo = np.full_like(u, -spec.a)
        hi = np.full_like(u, spec.b)
        iters = int(math.ceil(math.log2((spec.a + spec.b) / 1e-14)))
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            below = spec.cdf(mid) < u
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        return 0.5 * (lo + hi)
    raise ValueError(f"cannot sample kind {spec.kind!r}")


def sample_potential(spec: DistributionSpec, box: Box, n: int, seed: int,
                     realization_index: int) -> DisorderSample:
    """I.i.d. draws per (site, orbital), flat in site-major matrix order.

    Values are keyed by site coordinates, not site rank, so nested boxes
    drawn from the same (seed, index) agree on their common sites.
    """
    sub = hash64(seed, realization_index)
    g1 = np.repeat(box.sites[:, 0], n)
    g2 = np.repeat(box.sites[:, 1], n)
    orb = np.tile(np.arange(n, dtype=np.int64), box.size)
    h = np.full(g1.shape, np.uint64(sub), dtype=np.uint64)
    with np.errstate(over="ignore"):
        h = _splitmix_vec(h ^ g1.astype(np.uint64))
        h = _splitmix_vec(h ^ g2.astype(np.uint64))
        h = _splitmix_vec(h ^ orb.astype(np.uint64))
    u = (h >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
    vals = _ppf(spec, u)
    vals.flags.writeable = False
    return DisorderSample(values=vals, seed=seed, realization_index=realization_index)


def abs_moment(spec: DistributionSpec, s: float, quad_points: int = 4001) -> float:
    """integral of |v|^s against the law, by fixed-grid quadrature."""
    if spec.pdf is None:
        raise ValueError("distribution has no density")
    v = np.linspace(-spec.a, spec.b, quad_points)
    return float(np.trapezoid(np.abs(v) ** s * spec.pdf(v), v))


def trunc_gauss_abs_moment_bound() -> float:
    """Uniform-in-a bound on the first absolute moment, valid for a >= 1."""
    return math.sqrt(math.e)


def trunc_gauss_power_moment_bound(q: float) -> float:
    """Uniform-in-a bound on the integral of rho^(1+q), valid for a >= 1:
    sqrt(2/(q+1)) * sqrt(pi) * exp((q+1)/2) / 2^(q+1).
    """
    return math.sqrt(2.0 / (q + 1.0)) * math.sqrt(math.pi) * math.exp((q + 1.0) / 2.0) / 2.0 ** (q + 1.0)


def spec_from_json(doc) -> DistributionSpec:
    """{kind: "uniform"|"truncated_gaussian"|"custom_density", ...}."""
    import json

    if isinstance(doc, (str, bytes)):
        doc = json.loads(doc)
    kind = doc.get("kind")
    if kind == "uniform":
        return uniform(float(doc["a"]), float(doc.get("b", doc["a"])))
    if kind == "truncated_gaussian":
        return truncated_gaussian(float(doc["a"]))
    if kind == "custom_density":
        return custom_density(np.asarray(doc["points"], dtype=float),
                              np.asarray(doc["density"], dtype=float),
                              beta=float(doc.get("beta", math.inf)))
    raise ValueError(f"unknown distribution kind: {kind!r}")
