"""Experiment runner: JSON-configured subcommands over the library.

Each command is one entry of ``_COMMANDS``: its output file, its CSV
header (none for a JSON report), its scan flags as (flag, parser, scan
key), and its runner. A flag parser only turns text into the JSON value
a config file would hold; the runner reads every scan value through
one checking reader per kind, so a value from a flag and the same value
from a config file pass the same checks.

Output contract: every run writes a CSV (or JSON for scalar reports)
plus a sidecar JSON carrying the fully resolved configuration, so any
output file can be reproduced from its sidecar alone. CSV bodies are
byte-identical for a fixed (config, seed). --threads is accepted and
selects nothing, so no value of it can change an output.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .bloch import band_structure, chern_number
from .bounds import (
    a_zero,
    alpha_for_gap,
    c_s_alpha,
    combes_thomas_salpha,
    d_s1_bound,
    salpha_overbound,
    strong_disorder_threshold,
)
from .disorder import (
    abs_moment,
    spec_from_json,
    trunc_gauss_abs_moment_bound,
    trunc_gauss_power_moment_bound,
)
from .model import HaldaneParams, haldane_model, model_from_json
from .probes import (
    EnsembleConfig,
    averaged_marker_scan,
    ids_estimate,
    loglog_slope,
    projection_decay,
    suitable_box_probability,
    time_averaged_moment,
    transport_slope,
    wegner_empirical,
)

__all__ = ["ConfigError", "ExperimentConfig", "main", "run"]

SCHEMA_VERSION = 1

_DEFAULT_MODEL = {"type": "haldane", "t1": 1.0, "t2": 1.0 / (3.0 * math.sqrt(3.0)),
                  "phi": math.pi / 2.0, "M": 0.0, "dimerization": "d3"}


class ConfigError(Exception):
    """Invalid configuration, carrying a file:line reference."""

    def __init__(self, path: str, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")


def _key_line(path: str, key: str) -> int:
    """Best-effort line number of a JSON key for error messages."""
    try:
        text = Path(path).read_text()
    except OSError:
        return 1
    pat = re.compile(r'"' + re.escape(key) + r'"\s*:')
    for i, line in enumerate(text.splitlines(), start=1):
        if pat.search(line):
            return i
    return 1


def _load_json(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ConfigError(path, 1, str(e))
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(path, e.lineno, e.msg)
    if not isinstance(doc, dict):
        raise ConfigError(path, 1, "top level must be a JSON object")
    return doc


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved run description; serializes losslessly to/from JSON."""

    command: str
    model: dict
    distribution: dict | None
    scan: dict
    ensemble: dict
    output: str = "."

    def __post_init__(self) -> None:
        if self.command not in _COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(doc: dict) -> "ExperimentConfig":
        allowed = {"command", "model", "distribution", "scan", "ensemble", "output"}
        unknown = set(doc) - allowed
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return ExperimentConfig(
            command=doc["command"],
            model=doc.get("model", dict(_DEFAULT_MODEL)),
            distribution=doc.get("distribution"),
            scan=doc.get("scan", {}),
            ensemble=doc.get("ensemble", {}),
            output=doc.get("output", "."),
        )


# ------------------------------------------------------------- formatting


def _fmt(x) -> str:
    if isinstance(x, bool):
        return str(x)
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


def _write_csv(path: Path, config: ExperimentConfig, header: tuple[str, ...],
               rows: list[tuple], meta: dict) -> None:
    lines = [f"# schema-version: {SCHEMA_VERSION}",
             f"# command: {config.command}"]
    for key in sorted(meta):
        lines.append(f"# {key}: {_fmt(meta[key])}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(c) for c in row))
    path.write_text("\n".join(lines) + "\n")


# ------------------------------------------------------------- flag parsers
# Text to the JSON value a config file would hold; the runners check it.


def _parse_floats(text: str) -> list[float]:
    return [float(p) for p in text.split(",") if p.strip()]


def _parse_ints(text: str) -> list[int]:
    return [int(p) for p in text.split(",") if p.strip()]


def _parse_range(text: str) -> list:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"must look like lo:hi:count, got {text!r}")
    return [float(parts[0]), float(parts[1]), int(parts[2])]


def _parse_window(text: str) -> list[float]:
    parts = _parse_floats(text.replace(":", ","))
    if len(parts) != 2:
        raise ValueError(f"must be two numbers, got {text!r}")
    return parts


def _parse_dims(text: str) -> list[int]:
    m = re.fullmatch(r"(\d+)x(\d+)", text)
    if not m:
        raise ValueError(f"must look like 41x41, got {text!r}")
    return [int(m.group(1)), int(m.group(2))]


# ------------------------------------------------------------- scan readers
# Shape and range checks of scan values, from a flag or a config file.


def _read_numbers(config: ExperimentConfig, key: str, default: list, size: int) -> list:
    """The scan value of key as a list of size finite numbers."""
    value = config.scan.get(key, default)
    if not (isinstance(value, list) and len(value) == size and all(
            isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
            for x in value)):
        raise ValueError(f"{key} must be a list of {size} finite numbers, got {value!r}")
    return value


def _is_count(x) -> bool:
    return x >= 1 and x == int(x)


def _read_grid(config: ExperimentConfig, key: str, default: list) -> tuple[float, float, int]:
    """A [lo, hi, count] grid with hi >= lo and a whole count >= 1."""
    lo, hi, count = _read_numbers(config, key, default, 3)
    if hi < lo or not _is_count(count):
        raise ValueError(f"{key} needs hi >= lo and a whole count >= 1, got {[lo, hi, count]}")
    return float(lo), float(hi), int(count)


def _read_window(config: ExperimentConfig, default: list) -> tuple[float, float]:
    lo, hi = _read_numbers(config, "window", default, 2)
    return float(lo), float(hi)


# ------------------------------------------------------------- runners
# Each takes the config and returns (rows, meta), or a results dict for
# a JSON report; run() writes every output file.


def _spec(config: ExperimentConfig):
    if config.distribution is None:
        return None
    return spec_from_json(config.distribution)


def _ensemble(config: ExperimentConfig) -> EnsembleConfig:
    ens = config.ensemble
    return EnsembleConfig(
        model=model_from_json(config.model),
        spec=_spec(config),
        lam=float(ens.get("lam", 0.0)),
        box_L=int(ens.get("box_L", 12)),
        bc=str(ens.get("bc", "periodic")),
        n_realizations=int(ens.get("n_realizations", 1)),
        master_seed=int(ens.get("master_seed", 0)),
    )


def _run_bloch(config: ExperimentConfig):
    bs = band_structure(model_from_json(config.model), int(config.scan.get("grid", 201)))
    rows = [(i, lo, hi) for i, (lo, hi) in enumerate(bs.bands)]
    meta = {"grid": bs.grid}
    for i, ((lo, hi), size, is_open) in enumerate(
            zip(bs.gaps, bs.gap_sizes, bs.gap_open)):
        meta[f"gap-{i + 1}"] = f"{_fmt(lo)} {_fmt(hi)} {_fmt(size)} {is_open}"
    return rows, meta


def _run_chern(config: ExperimentConfig):
    gap_index = int(config.scan.get("gap_index", 1))
    res = chern_number(model_from_json(config.model), gap_index=gap_index,
                       grid=int(config.scan.get("grid", 24)))
    return [(gap_index, res.value, res.curvature_sum, res.grid)], {}


def _run_marker(config: ExperimentConfig):
    cfg = _ensemble(config)
    E = float(config.scan.get("energy", 0.0))
    window = config.scan.get("window_L")
    window = int(window) if window is not None else None
    rows = averaged_marker_scan(cfg, [E], [cfg.lam], window_L=window)
    return [(r.E, r.lam, r.mean, r.stderr, r.n) for r in rows], {}


def _run_spectrum(config: ExperimentConfig):
    spec = _spec(config)
    if spec is None:
        raise ValueError("spectrum needs a distribution (for the support [-a, b])")
    lo, hi, count = _read_grid(config, "lambda_grid", [0.0, 3.0, 31])
    bs = band_structure(model_from_json(config.model), int(config.scan.get("grid", 201)))
    rows = []
    for lam in np.linspace(lo, hi, count):
        for i, (blo, bhi) in enumerate(bs.bands):
            rows.append((lam, i, blo - spec.a * lam, bhi + spec.b * lam))
    return rows, {"support_a": spec.a, "support_b": spec.b}


def _run_thresholds(config: ExperimentConfig):
    model = model_from_json(config.model)
    spec = _spec(config)
    if spec is None:
        raise ValueError("thresholds needs a distribution")
    s = float(config.scan.get("s", 0.25))
    t = float(config.scan.get("t", 1.0))
    q = float(config.scan.get("q", 2.0))
    bs = band_structure(model, int(config.scan.get("grid", 201)))
    open_gaps = [i for i, o in enumerate(bs.gap_open) if o]
    if not open_gaps:
        raise ValueError("model has no open gap")
    gap = bs.gap_sizes[open_gaps[0]]

    if spec.kind == "truncated_gaussian":
        B_mom = trunc_gauss_abs_moment_bound()
        C_mom = trunc_gauss_power_moment_bound(q)
    else:
        B_mom = abs_moment(spec, 1.0)
        x = np.linspace(-spec.a, spec.b, 4001)
        C_mom = float(np.trapezoid(spec.pdf(x) ** (1.0 + q), x))
    K = d_s1_bound(B_mom, C_mom, s, t, q)
    alpha = alpha_for_gap(model, gap)
    C_sa = c_s_alpha(model.n, gap, s, alpha)
    a0 = a_zero(gap, s, C_sa, K.value)
    thr = strong_disorder_threshold(model, spec)

    results = {
        "gap_size": gap,
        "alpha": alpha,
        "S_alpha_overbound": salpha_overbound(model, alpha),
        "S_alpha": combes_thomas_salpha(model, alpha),
        "s": s, "t": t, "q": q,
        "B_mom": B_mom, "C_mom": C_mom,
        "K": K.value, "K_p": K.p, "K_C_pq": K.C_pq,
        "C_s_alpha": C_sa,
        "a_zero": a0,
        "gap_over_2a0": gap / (2.0 * a0),
        "lambda_rho": thr.value,
        "lambda_rho_s": thr.s_opt,
        # the mu-weighted row sum is least at mu = 0 for every s
        "lambda_rho_mu": 0.0,
    }
    if spec.kind == "truncated_gaussian":
        # the Gaussian mass of the truncation window [-a, a] normalizes
        # the threshold into a law-free coefficient
        results["lambda_rho_coefficient"] = thr.value * math.erf(spec.a / math.sqrt(2.0))
    return results


def _run_wegner(config: ExperimentConfig):
    cfg = _ensemble(config)
    E = float(config.scan.get("energy", 0.0))
    rows = wegner_empirical(cfg, E, config.scan.get("eps_grid", [1e-2, 1e-3, 1e-4]))
    return ([(r.eps, r.empirical, r.upper_99, r.bound, r.n) for r in rows],
            {"energy": E})


def _run_msa_probe(config: ExperimentConfig):
    cfg = _ensemble(config)
    E = float(config.scan.get("energy", 0.0))
    theta = float(config.scan.get("theta", 1.0))
    rng = int(config.scan.get("range", 1))
    boxes = config.scan.get("box_grid", [int(config.ensemble.get("box_L", 13))])
    if not boxes:
        raise ValueError("box_grid is empty")
    rows = []
    for L in boxes:
        r = suitable_box_probability(replace(cfg, box_L=int(L)), E, theta, r=rng)
        rows.append((int(L), theta, r.probability, r.ci_low, r.ci_high, r.n))
    return rows, {"energy": E, "range": rng}


def _run_decay(config: ExperimentConfig):
    cfg = _ensemble(config)
    lo, hi = _read_window(config, [-0.2, 0.2])
    prof = projection_decay(cfg, (lo, hi),
                            grid_points=int(config.scan.get("grid_points", 16)))
    rows = list(zip(prof.distances, prof.means, prof.stderrs))
    return rows, {"fit_amplitude": prof.fit_amplitude, "fit_rate": prof.fit_rate,
                  "r_squared": prof.r_squared, "n": prof.n,
                  "window": f"{_fmt(lo)} {_fmt(hi)}"}


def _run_ids(config: ExperimentConfig):
    lo, hi, count = _read_grid(config, "energy_grid", [-4.0, 4.0, 17])
    rows = ids_estimate(_ensemble(config), np.linspace(lo, hi, count))
    return [(r.E, r.value, r.stderr, r.n) for r in rows], {}


def _run_moments(config: ExperimentConfig):
    p = float(config.scan.get("p", 2.0))
    center, width = _read_window(config, [2.0, 0.5])
    lo, hi, count = _read_grid(config, "t_grid", [1.0, 100.0, 9])
    if lo <= 0 or count < 2:
        raise ValueError("t_grid needs lo > 0 and count >= 2 (T = 0 is prepended)")
    Ts = [0.0] + list(np.geomspace(lo, hi, count))
    rows = time_averaged_moment(_ensemble(config), p, (center, width), Ts)
    M = [r.mean for r in rows]
    meta = {"p": p,
            "window": f"{_fmt(center)} {_fmt(width)}",
            "transport_slope": transport_slope(Ts, M)}
    positive = [(T, m) for T, m in zip(Ts[1:], M[1:]) if m > 0]
    if len(positive) >= 2:
        meta["raw_slope"] = loglog_slope([T for T, _ in positive],
                                         [m for _, m in positive])
    return [(r.T, r.mean, r.stderr, r.n) for r in rows], meta


def _run_phase_diagram(config: ExperimentConfig):
    base = config.model
    if base.get("type") != "haldane":
        raise ValueError("phase-diagram sweeps haldane parameters; model type must be haldane")
    rows_n, cols_n = _read_numbers(config, "grid", [41, 41], 2)
    if not (_is_count(rows_n) and _is_count(cols_n)):
        raise ValueError(f"grid {rows_n}x{cols_n} needs a whole number >= 1 of rows "
                         "and of columns")
    t1 = float(base.get("t1", 1.0))
    t2 = float(base.get("t2", _DEFAULT_MODEL["t2"]))
    phis = np.linspace(-math.pi, math.pi, int(rows_n))
    ms = np.linspace(-6.0, 6.0, int(cols_n))
    rows = []
    for phi in phis:
        for m_over_t2 in ms:
            params = HaldaneParams(t1=t1, t2=t2, phi=float(phi),
                                   M=float(m_over_t2) * t2,
                                   dimerization=str(base.get("dimerization", "d3")))
            model = haldane_model(params)
            try:
                c = chern_number(model).value
            except ValueError:
                c = 0  # on the critical curve: gapless, classify as trivial
            rows.append((float(phi), float(m_over_t2), c))
    return rows, {"t1": t1, "t2": t2}


class _Command(NamedTuple):
    output: str
    header: tuple[str, ...] | None  # None: a JSON report, not a CSV
    flags: tuple[tuple[str, Callable[[str], object], str], ...]  # (flag, parser, scan key)
    runner: Callable[[ExperimentConfig], object]


_COMMANDS = {
    "bloch": _Command("bloch.csv", ("band", "lower", "upper"),
                      (("--grid", int, "grid"),), _run_bloch),
    "chern": _Command("chern.csv", ("gap_index", "chern_number", "curvature_sum", "grid"),
                      (("--grid", int, "grid"), ("--gap-index", int, "gap_index")),
                      _run_chern),
    "marker": _Command("marker.csv", ("energy", "lam", "mean", "stderr", "n"),
                       (("--energy", float, "energy"), ("--window-l", int, "window_L")),
                       _run_marker),
    "spectrum": _Command("spectrum.csv", ("lam", "band", "lower", "upper"),
                         (("--lambda-grid", _parse_range, "lambda_grid"),
                          ("--grid", int, "grid")),
                         _run_spectrum),
    "thresholds": _Command("thresholds.json", None,
                           (("--s", float, "s"), ("--t", float, "t"),
                            ("--q", float, "q"), ("--grid", int, "grid")),
                           _run_thresholds),
    "wegner": _Command("wegner.csv", ("eps", "empirical", "upper_99", "bound", "n"),
                       (("--energy", float, "energy"),
                        ("--eps-grid", _parse_floats, "eps_grid")),
                       _run_wegner),
    "msa-probe": _Command("msa_probe.csv",
                          ("box_L", "theta", "probability", "ci_low", "ci_high", "n"),
                          (("--energy", float, "energy"), ("--theta", float, "theta"),
                           ("--range", int, "range"),
                           ("--box-grid", _parse_ints, "box_grid")),
                          _run_msa_probe),
    "decay": _Command("decay.csv", ("distance", "mean", "stderr"),
                      (("--window", _parse_window, "window"),
                       ("--grid-points", int, "grid_points")),
                      _run_decay),
    "ids": _Command("ids.csv", ("energy", "value", "stderr", "n"),
                    (("--energy-grid", _parse_range, "energy_grid"),), _run_ids),
    "moments": _Command("moments.csv", ("T", "mean", "stderr", "n"),
                        (("--p", float, "p"), ("--window", _parse_window, "window"),
                         ("--t-grid", _parse_range, "t_grid")),
                        _run_moments),
    "phase-diagram": _Command("phase_diagram.csv", ("phi", "m_over_t2", "chern_number"),
                              (("--grid", _parse_dims, "grid"),), _run_phase_diagram),
}


def run(config: ExperimentConfig) -> Path:
    """Execute one resolved configuration; returns the primary output path."""
    command = _COMMANDS[config.command]
    out = Path(config.output)
    out.mkdir(parents=True, exist_ok=True)
    result = command.runner(config)
    path = out / command.output
    doc = {"schema_version": SCHEMA_VERSION, "config": config.to_dict()}
    if command.header is None:
        doc["results"], sidecar = result, path
    else:
        rows, meta = result
        _write_csv(path, config, command.header, rows, meta)
        sidecar = path.with_suffix(".json")
    sidecar.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


# ------------------------------------------------------------- arg parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chernlab",
        description="Disordered Chern-insulator laboratory: spectra, invariants, "
                    "analytic thresholds, and Monte-Carlo probes.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON experiment config; flags override it")
        p.add_argument("--model", help="model JSON file")
        p.add_argument("--dist", help="distribution JSON file")
        p.add_argument("--seed", type=int, default=None, help="master seed")
        p.add_argument("--realizations", type=int, default=None)
        p.add_argument("--threads", type=int, default=1,
                       help="accepted and selects nothing: realizations run in "
                            "index order on the calling thread, and BLAS threads "
                            "parallelize each solve")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--lambda", dest="lam", type=float, default=None,
                       help="disorder strength")
        p.add_argument("--box-l", type=int, default=None, help="box side length")
        p.add_argument("--bc", choices=["simple", "periodic"], default=None)
        for flag, _, key in command.flags:
            p.add_argument(flag, default=None, dest=f"scan_{key}")
    return parser


def _resolve(args: argparse.Namespace) -> ExperimentConfig:
    doc: dict = {}
    if args.config:
        doc = _load_json(args.config)
        if "schema_version" in doc and isinstance(doc.get("config"), dict):
            doc = dict(doc["config"])  # a recorded sidecar works as-is
        if "command" in doc and doc["command"] != args.command:
            raise ConfigError(args.config, _key_line(args.config, "command"),
                              f"config is for {doc['command']!r}, invoked as {args.command!r}")
    doc["command"] = args.command

    if args.model:
        doc["model"] = _load_json(args.model)
    if args.dist:
        doc["distribution"] = _load_json(args.dist)
    if args.out is not None:
        doc["output"] = args.out

    ens = dict(doc.get("ensemble", {}))
    for flag, key in (("seed", "master_seed"), ("realizations", "n_realizations"),
                      ("lam", "lam"), ("box_l", "box_L"), ("bc", "bc")):
        value = getattr(args, flag)
        if value is not None:
            ens[key] = value
    doc["ensemble"] = ens

    scan = dict(doc.get("scan", {}))
    for flag, parse, key in _COMMANDS[args.command].flags:
        text = getattr(args, f"scan_{key}")
        if text is not None:
            try:
                scan[key] = parse(text)
            except ValueError as e:
                raise ValueError(f"{flag}: {e}") from None
    doc["scan"] = scan

    try:
        config = ExperimentConfig.from_dict(doc)
    except (KeyError, ValueError) as e:
        if args.config:
            raise ConfigError(args.config, 1, str(e))
        raise
    # validate file-sourced model/distribution now, while the source
    # path is still known, so the error can reference its line
    try:
        model_from_json(config.model)
    except (KeyError, ValueError) as e:
        if args.model:
            raise ConfigError(args.model, _key_line(args.model, "type"), str(e))
        raise ValueError(f"model: {e}")
    if config.distribution is not None:
        try:
            spec_from_json(config.distribution)
        except (KeyError, ValueError) as e:
            if args.dist:
                raise ConfigError(args.dist, _key_line(args.dist, "kind"), str(e))
            raise ValueError(f"distribution: {e}")
    # round-trip guard: the resolved config must survive serialization
    rt = ExperimentConfig.from_dict(json.loads(json.dumps(config.to_dict())))
    if rt != config:
        raise ValueError("config does not round-trip losslessly")
    return config


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _resolve(args)
        path = run(config)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
