"""Finite-range tight-binding Hamiltonians on l2(Gamma; C^n).

A model stores the zero-flux hopping matrices H0(0, delta) for each
displacement delta with sup-norm at most r, plus a flux parameter B.
Kernels at nonzero flux carry the covariance phase exp(iB (gamma ^ xi)),
which is the unique wedge-linear gauge commuting with the magnetic
translations T_gamma: (T_gamma psi)(xi) = exp(-iB (gamma ^ xi)) psi(xi - gamma).
The wedge of two coefficient pairs is gamma ^ xi = gamma2 xi1 - gamma1 xi2,
so (1, 0) ^ (0, 1) = -1.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .lattice import Box, box_sites, norm_inf

__all__ = [
    "HoppingModel",
    "HaldaneParams",
    "haldane_model",
    "hopping_entries",
    "dense_from_entries",
    "check_magnetic_periodicity",
    "hopping_norm_sum",
    "model_from_json",
]

_HERMITICITY_TOL = 1e-12

# Displacements in lattice coefficients.
_A1 = (1, 0)
_A2 = (0, 1)
_A3 = (-1, -1)


@dataclass(frozen=True)
class HoppingModel:
    """Hopping data H0(0, delta) keyed by coefficient displacement."""

    n: int
    r: int
    hoppings: Mapping[tuple[int, int], np.ndarray]
    flux: float = 0.0

    def __post_init__(self) -> None:
        if self.n < 1 or self.r < 1:
            raise ValueError("need n >= 1 and r >= 1")
        clean: dict[tuple[int, int], np.ndarray] = {}
        for delta, mat in self.hoppings.items():
            delta = (int(delta[0]), int(delta[1]))
            if norm_inf(delta) > self.r:
                raise ValueError(f"displacement {delta} exceeds hopping range {self.r}")
            m = np.asarray(mat, dtype=complex)
            if m.shape != (self.n, self.n):
                raise ValueError(f"hopping matrix for {delta} must be {self.n}x{self.n}")
            m = m.copy()
            m.flags.writeable = False
            clean[delta] = m
        zero = np.zeros((self.n, self.n), dtype=complex)
        # every block against its partner's adjoint in one comparison; a
        # missing partner stands in as zero and is reported first
        blocks = np.array(list(clean.values())).reshape(-1, self.n, self.n)
        partners = np.array([clean.get((-d[0], -d[1]), zero) for d in clean])
        partners = partners.reshape(blocks.shape).conj().swapaxes(1, 2)
        far = np.abs(blocks - partners).max(axis=(1, 2)) > _HERMITICITY_TOL
        for delta, bad in zip(clean, far):
            neg = (-delta[0], -delta[1])
            if neg not in clean:
                raise ValueError(f"missing reverse hopping for {delta}")
            if bad:
                raise ValueError(f"hoppings for {delta} and {neg} are not Hermitian partners")
        object.__setattr__(self, "hoppings", clean)


@dataclass(frozen=True)
class HaldaneParams:
    t1: float = 1.0
    t2: float = 1.0 / (3.0 * np.sqrt(3.0))
    phi: float = np.pi / 2.0
    M: float = 0.0
    dimerization: str = "d3"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t1) and self.t1 > 0.0):
            raise ValueError("t1 must be finite and positive")
        if not (math.isfinite(self.t2) and self.t2 >= 0.0):
            raise ValueError("t2 must be finite and nonnegative")
        if not math.isfinite(self.M):
            raise ValueError("M must be finite")
        if not (-np.pi <= self.phi <= np.pi):
            raise ValueError("phi must lie in [-pi, pi]")
        if self.dimerization not in ("d1", "d2", "d3"):
            raise ValueError("dimerization must be one of d1, d2, d3")


def haldane_model(p: HaldaneParams) -> HoppingModel:
    """Honeycomb model with complex next-nearest hops and staggered mass.

    Orbital 0 is sublattice A (on-site +M), orbital 1 is B (-M). The
    next-nearest block is the same for every displacement a_i and every
    dimerization: diag(t2 e^{-i phi}, t2 e^{i phi}). The dimerization
    only moves where the three t1 bonds land: the in-cell bond goes to
    the on-site block, the other two to a cyclic pair of a_i blocks.
    """
    w = p.t2 * np.exp(-1j * p.phi)
    nnn = np.diag([w, np.conj(w)])
    # a1 = d2 - d3, a2 = d3 - d1 for the nearest-neighbor bonds
    # d1 = (1/2, -sqrt3/2), d2 = (1/2, sqrt3/2), d3 = (-1, 0)
    # (block with t1 at [0,1], block with t1 at [1,0], block left diagonal)
    slots = {
        "d3": (_A1, _A2, _A3),
        "d1": (_A2, _A3, _A1),
        "d2": (_A3, _A1, _A2),
    }[p.dimerization]
    up, dn, dg = slots
    h_up = nnn.copy()
    h_up[0, 1] = p.t1
    h_dn = nnn.copy()
    h_dn[1, 0] = p.t1
    onsite = np.array([[p.M, p.t1], [p.t1, -p.M]], dtype=complex)
    hop = {
        (0, 0): onsite,
        up: h_up,
        dn: h_dn,
        dg: nnn,
        (-up[0], -up[1]): h_up.conj().T,
        (-dn[0], -dn[1]): h_dn.conj().T,
        (-dg[0], -dg[1]): nnn.conj().T,
    }
    return HoppingModel(n=2, r=1, hoppings=hop, flux=0.0)


def hopping_entries(model: HoppingModel, box: Box,
                    periodic: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The entries (rows, cols, vals) of H0 on the box, site-major ordering.

    Displacement by displacement in insertion order, then orbital pair by
    orbital pair, skipping zero hopping entries. With ``periodic`` the
    displacement wraps modulo L in each direction (the flux phase is
    still evaluated at the unwrapped coefficients of the stored
    displacement, applied to the wrapped pair). A (row, col) pair repeats
    only when two displacements wrap onto each other, that is for a
    periodic box of side at most 2r.
    """
    n, L = model.n, box.L
    N = box.size
    off = L // 2
    g1 = box.sites[:, 0]
    g2 = box.sites[:, 1]
    rows, cols, vals = [], [], []
    for delta, mat in model.hoppings.items():
        t1c, t2c = g1 + delta[0], g2 + delta[1]
        if periodic:
            t1w = (t1c + off) % L - off
            t2w = (t2c + off) % L - off
            targets = (t1w + off) * L + (t2w + off)
            rows_ok = np.arange(N)
        else:
            ok = (t1c >= -off) & (t1c <= L - 1 - off) & (t2c >= -off) & (t2c <= L - 1 - off)
            rows_ok = np.nonzero(ok)[0]
            targets = (t1c[ok] + off) * L + (t2c[ok] + off)
        if model.flux != 0.0:
            # phase at (gamma, gamma + delta): exp(iB (gamma ^ delta))
            ph = np.exp(1j * model.flux * (g2[rows_ok] * delta[0] - g1[rows_ok] * delta[1]))
        else:
            ph = np.ones(len(rows_ok))
        for a in range(n):
            for b in range(n):
                if mat[a, b] != 0.0:
                    rows.append(rows_ok * n + a)
                    cols.append(targets * n + b)
                    vals.append(ph * mat[a, b])
    if not rows:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0, dtype=complex)
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def dense_from_entries(size: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                       order: str = "C") -> np.ndarray:
    """A size x size complex matrix of zeros with each value at its (row, col).

    No (row, col) pair may repeat: the values are written by one
    assignment, so a repeated pair would keep only one of its values.
    Adding 0.0 turns a -0.0 part into +0.0, so the matrix equals zeros
    plus each value bit for bit. ``order`` is the memory layout, "C" or
    "F" (the layout LAPACK overwrites in place).
    """
    H = np.zeros((size, size), dtype=complex, order=order)
    H[rows, cols] = vals + 0.0
    return H


def check_magnetic_periodicity(model: HoppingModel, L: int, matrix: np.ndarray | None = None) -> bool:
    """Check flux-twisted translation covariance of the dense kernel on a box.

    For each generator shift s in {a1, a2} and every site pair staying in
    the box after the shift, the kernel must satisfy
    H(gamma, xi) = exp(iB (s ^ (gamma - xi))) H(gamma + s, xi + s).
    Pass an explicit ``matrix`` (in box ordering) to check a perturbed or
    externally built operator; default is the model's own dense kernel.
    """
    box = box_sites(L)
    if matrix is None:
        H = dense_from_entries(box.size * model.n, *hopping_entries(model, box))
    else:
        H = np.asarray(matrix)
    n = model.n
    if H.shape != (box.size * n, box.size * n):
        raise ValueError("matrix shape does not match the box")
    worst = 0.0
    for s in (_A1, _A2):
        keep = []
        shifted = []
        for i, (g1, g2) in enumerate(box.sites):
            j = box.index_of(g1 + s[0], g2 + s[1])
            if j >= 0:
                keep.append(i)
                shifted.append(j)
        keep = np.asarray(keep)
        shifted = np.asarray(shifted)
        g = box.sites[keep]
        # wedge(s, gamma - xi) = s2 (g1a - g1b) - s1 (g2a - g2b) over all kept pairs
        w = np.subtract.outer(g[:, 0], g[:, 0]) * s[1]
        w = w - np.subtract.outer(g[:, 1], g[:, 1]) * s[0]
        phase = np.exp(1j * model.flux * w)
        rows0 = (keep[:, None] * n + np.arange(n)[None, :]).ravel()
        rows1 = (shifted[:, None] * n + np.arange(n)[None, :]).ravel()
        lhs = H[np.ix_(rows0, rows0)]
        rhs = H[np.ix_(rows1, rows1)]
        ph = np.kron(phase, np.ones((n, n)))
        dev = np.max(np.abs(lhs - ph * rhs)) if len(rows0) else 0.0
        worst = max(worst, float(dev))
    return worst < 1e-12


def hopping_norm_sum(model: HoppingModel, weight=None) -> float:
    """sup_gamma sum_xi w(|gamma-xi|) ||H0(gamma,xi)|| for translation-covariant H0.

    ``weight`` maps the coefficient norm |delta| to a scalar; default 1.
    Spectral norms, computed per stored block.
    """
    total = 0.0
    for delta, mat in model.hoppings.items():
        if delta == (0, 0):
            continue
        nrm = float(np.linalg.norm(mat, ord=2))
        wt = 1.0 if weight is None else float(weight(float(np.hypot(*delta))))
        total += wt * nrm
    return total


def _is_number(x, whole: bool = False) -> bool:
    """A finite JSON number, not a bool; whole asks for an integral value."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    if isinstance(x, int):
        return whole or abs(x) <= sys.float_info.max
    return math.isfinite(x) and (not whole or x.is_integer())


def _read_number(source: dict, key: str, default, whole: bool = False):
    """source[key] (a JSON value) as a finite float, or a whole int."""
    value = source.get(key, default)
    if not _is_number(value, whole):
        kind = "a whole number" if whole else "a finite number"
        raise ValueError(f"{key} must be {kind}, got {value!r}")
    return int(value) if whole else float(value)


def _read_numbers(source: dict, key: str, default: list, size: int | None = None,
                  whole: bool = False) -> list:
    """source[key] as a list of finite floats, or of whole ints, of size entries if given."""
    value = source.get(key, default)
    if not (isinstance(value, list) and (size is None or len(value) == size)
            and all(_is_number(x, whole) for x in value)):
        count = "" if size is None else f"{size} "
        kind = "whole numbers" if whole else "finite numbers"
        raise ValueError(f"{key} must be a list of {count}{kind}, got {value!r}")
    return [int(x) if whole else float(x) for x in value]


def _parse_complex_matrix(rows, n: int) -> np.ndarray:
    if not (isinstance(rows, list) and len(rows) == n):
        raise ValueError(f"matrix must have {n} rows")
    m = np.zeros((n, n), dtype=complex)
    for i, row in enumerate(rows):
        if not (isinstance(row, list) and len(row) == n):
            raise ValueError(f"matrix row {i} must have {n} entries")
        for j, entry in enumerate(row):
            if not (isinstance(entry, list) and len(entry) == 2
                    and all(_is_number(x) for x in entry)):
                raise ValueError(f"matrix entry ({i}, {j}) must be a pair [re, im] "
                                 f"of finite numbers, got {entry!r}")
            m[i, j] = complex(entry[0], entry[1])
    return m


def model_from_json(doc) -> HoppingModel:
    """Build a model from a JSON document (dict or JSON text).

    Two forms: {"type": "haldane", "t1": .., "t2": .., "phi": .., "M": ..,
    "dimerization": "d3"} or {"type": "custom", "n": .., "r": .., "B": ..,
    "hoppings": [{"dg1": .., "dg2": .., "matrix": [[[re, im], ..], ..]}, ..]}.
    Custom hoppings may omit the reversed displacement; it is filled in
    as the Hermitian transpose. Every number must be a finite JSON number,
    and n, r, dg1 and dg2 whole ones; a bad value raises ValueError
    naming its key.
    """
    if isinstance(doc, (str, bytes)):
        doc = json.loads(doc)
    if not isinstance(doc, dict):
        raise ValueError(f"model must be a JSON object, got {doc!r}")
    kind = doc.get("type")
    if kind == "haldane":
        p = HaldaneParams(
            **{key: _read_number(doc, key, getattr(HaldaneParams, key))
               for key in ("t1", "t2", "phi", "M")},
            dimerization=str(doc.get("dimerization", "d3")),
        )
        return haldane_model(p)
    if kind == "custom":
        n = _read_number(doc, "n", None, whole=True)
        if n < 1:
            raise ValueError(f"n must be at least 1, got {n}")
        r = _read_number(doc, "r", None, whole=True)
        flux = _read_number(doc, "B", 0.0)
        items = doc["hoppings"]
        if not (isinstance(items, list) and all(isinstance(item, dict) for item in items)):
            raise ValueError(f"hoppings must be a list of objects, got {items!r}")
        hop: dict[tuple[int, int], np.ndarray] = {}
        for item in items:
            delta = (_read_number(item, "dg1", None, whole=True),
                     _read_number(item, "dg2", None, whole=True))
            hop[delta] = _parse_complex_matrix(item["matrix"], n)
        for delta in list(hop.keys()):
            neg = (-delta[0], -delta[1])
            if neg not in hop:
                hop[neg] = hop[delta].conj().T
        return HoppingModel(n=n, r=r, hoppings=hop, flux=flux)
    raise ValueError(f"unknown model type: {kind!r}")
