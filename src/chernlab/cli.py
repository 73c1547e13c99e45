"""Experiment runner: JSON-configured subcommands over the library.

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
from dataclasses import asdict, dataclass
from pathlib import Path

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

COMMANDS = (
    "bloch", "chern", "marker", "spectrum", "thresholds", "wegner",
    "msa-probe", "decay", "ids", "moments", "phase-diagram",
)

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
        if self.command not in COMMANDS:
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


def _write_csv(path: Path, config: ExperimentConfig, header: list[str],
               rows: list[tuple], extra_meta: dict | None = None) -> None:
    lines = [f"# schema-version: {SCHEMA_VERSION}",
             f"# command: {config.command}"]
    meta = dict(extra_meta or {})
    for key in sorted(meta):
        lines.append(f"# {key}: {_fmt(meta[key])}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(c) for c in row))
    path.write_text("\n".join(lines) + "\n")


def _write_sidecar(path: Path, config: ExperimentConfig) -> None:
    doc = {"schema_version": SCHEMA_VERSION, "config": config.to_dict()}
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _parse_range(text: str, what: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"{what} must look like lo:hi:count, got {text!r}")
    lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    if n < 1 or hi < lo:
        raise ValueError(f"{what} needs hi >= lo and count >= 1")
    return lo, hi, n


def _parse_floats(text: str) -> list[float]:
    return [float(p) for p in text.split(",") if p.strip()]


def _parse_ints(text: str) -> list[int]:
    return [int(p) for p in text.split(",") if p.strip()]


# ------------------------------------------------------------- runners


def _model(config: ExperimentConfig):
    return model_from_json(config.model)


def _spec(config: ExperimentConfig):
    if config.distribution is None:
        return None
    return spec_from_json(config.distribution)


def _ensemble(config: ExperimentConfig, model) -> EnsembleConfig:
    ens = config.ensemble
    return EnsembleConfig(
        model=model,
        spec=_spec(config),
        lam=float(ens.get("lam", 0.0)),
        box_L=int(ens.get("box_L", 12)),
        bc=str(ens.get("bc", "periodic")),
        n_realizations=int(ens.get("n_realizations", 1)),
        master_seed=int(ens.get("master_seed", 0)),
    )


def _run_bloch(config: ExperimentConfig, out: Path) -> Path:
    bs = band_structure(_model(config), int(config.scan.get("grid", 201)))
    rows = [(i, lo, hi) for i, (lo, hi) in enumerate(bs.bands)]
    meta = {"grid": bs.grid}
    for i, ((lo, hi), size, is_open) in enumerate(
            zip(bs.gaps, bs.gap_sizes, bs.gap_open)):
        meta[f"gap-{i + 1}"] = f"{_fmt(lo)} {_fmt(hi)} {_fmt(size)} {is_open}"
    path = out / "bloch.csv"
    _write_csv(path, config, ["band", "lower", "upper"], rows, meta)
    return path


def _run_chern(config: ExperimentConfig, out: Path) -> Path:
    model = _model(config)
    gap_index = int(config.scan.get("gap_index", 1))
    res = chern_number(model, gap_index=gap_index,
                       grid=int(config.scan.get("grid", 24)))
    path = out / "chern.csv"
    _write_csv(path, config, ["gap_index", "chern_number", "curvature_sum", "grid"],
               [(gap_index, res.value, res.curvature_sum, res.grid)])
    return path


def _run_marker(config: ExperimentConfig, out: Path) -> Path:
    model = _model(config)
    cfg = _ensemble(config, model)
    E = float(config.scan.get("energy", 0.0))
    window = config.scan.get("window_L")
    window = int(window) if window is not None else None
    rows = averaged_marker_scan(cfg, [E], [cfg.lam], window_L=window)
    path = out / "marker.csv"
    _write_csv(path, config, ["energy", "lam", "mean", "stderr", "n"],
               [(r.E, r.lam, r.mean, r.stderr, r.n) for r in rows])
    return path


def _run_spectrum(config: ExperimentConfig, out: Path) -> Path:
    model = _model(config)
    spec = _spec(config)
    if spec is None:
        raise ValueError("spectrum needs a distribution (for the support [-a, b])")
    lo, hi, count = config.scan.get("lambda_grid", (0.0, 3.0, 31))
    bs = band_structure(model, int(config.scan.get("grid", 201)))
    rows = []
    for lam in np.linspace(lo, hi, int(count)):
        for i, (blo, bhi) in enumerate(bs.bands):
            rows.append((lam, i, blo - spec.a * lam, bhi + spec.b * lam))
    path = out / "spectrum.csv"
    _write_csv(path, config, ["lam", "band", "lower", "upper"], rows,
               {"support_a": spec.a, "support_b": spec.b})
    return path


def _run_thresholds(config: ExperimentConfig, out: Path) -> Path:
    model = _model(config)
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

    path = out / "thresholds.json"
    doc = {"schema_version": SCHEMA_VERSION, "config": config.to_dict(),
           "results": results}
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def _run_wegner(config: ExperimentConfig, out: Path) -> Path:
    model = _model(config)
    cfg = _ensemble(config, model)
    E = float(config.scan.get("energy", 0.0))
    eps_grid = config.scan.get("eps_grid", [1e-2, 1e-3, 1e-4])
    rows = wegner_empirical(cfg, E, eps_grid)
    path = out / "wegner.csv"
    _write_csv(path, config, ["eps", "empirical", "upper_99", "bound", "n"],
               [(r.eps, r.empirical, r.upper_99, r.bound, r.n) for r in rows],
               {"energy": E})
    return path


def _run_msa_probe(config: ExperimentConfig, out: Path) -> Path:
    model = _model(config)
    E = float(config.scan.get("energy", 0.0))
    theta = float(config.scan.get("theta", 1.0))
    rng = int(config.scan.get("range", 1))
    boxes = config.scan.get("box_grid", [int(config.ensemble.get("box_L", 13))])
    if not boxes:
        raise ValueError("box_grid is empty")
    rows = []
    for L in boxes:
        ens = dict(config.ensemble)
        ens["box_L"] = int(L)
        cfg = _ensemble(ExperimentConfig(config.command, config.model,
                                         config.distribution, config.scan,
                                         ens, config.output), model)
        r = suitable_box_probability(cfg, E, theta, r=rng)
        rows.append((int(L), theta, r.probability, r.ci_low, r.ci_high, r.n))
    path = out / "msa_probe.csv"
    _write_csv(path, config,
               ["box_L", "theta", "probability", "ci_low", "ci_high", "n"],
               rows, {"energy": E, "range": rng})
    return path


def _run_decay(config: ExperimentConfig, out: Path) -> Path:
    model = _model(config)
    cfg = _ensemble(config, model)
    window = config.scan.get("window", (-0.2, 0.2))
    prof = projection_decay(cfg, (float(window[0]), float(window[1])),
                            grid_points=int(config.scan.get("grid_points", 16)))
    rows = list(zip(prof.distances, prof.means, prof.stderrs))
    path = out / "decay.csv"
    _write_csv(path, config, ["distance", "mean", "stderr"], rows,
               {"fit_amplitude": prof.fit_amplitude, "fit_rate": prof.fit_rate,
                "r_squared": prof.r_squared, "n": prof.n,
                "window": f"{_fmt(float(window[0]))} {_fmt(float(window[1]))}"})
    return path


def _run_ids(config: ExperimentConfig, out: Path) -> Path:
    model = _model(config)
    cfg = _ensemble(config, model)
    lo, hi, count = config.scan.get("energy_grid", (-4.0, 4.0, 17))
    rows = ids_estimate(cfg, np.linspace(lo, hi, int(count)))
    path = out / "ids.csv"
    _write_csv(path, config, ["energy", "value", "stderr", "n"],
               [(r.E, r.value, r.stderr, r.n) for r in rows])
    return path


def _run_moments(config: ExperimentConfig, out: Path) -> Path:
    model = _model(config)
    cfg = _ensemble(config, model)
    p = float(config.scan.get("p", 2.0))
    window = config.scan.get("window", (2.0, 0.5))
    lo, hi, count = config.scan.get("t_grid", (1.0, 100.0, 9))
    if lo <= 0:
        raise ValueError("t_grid must start above 0 (0 is prepended automatically)")
    Ts = [0.0] + list(np.geomspace(lo, hi, int(count)))
    rows = time_averaged_moment(cfg, p, (float(window[0]), float(window[1])), Ts)
    M = [r.mean for r in rows]
    meta = {"p": p,
            "window": f"{_fmt(float(window[0]))} {_fmt(float(window[1]))}",
            "transport_slope": transport_slope(Ts, M)}
    positive = [(T, m) for T, m in zip(Ts[1:], M[1:]) if m > 0]
    if len(positive) >= 2:
        meta["raw_slope"] = loglog_slope([T for T, _ in positive],
                                         [m for _, m in positive])
    path = out / "moments.csv"
    _write_csv(path, config, ["T", "mean", "stderr", "n"],
               [(r.T, r.mean, r.stderr, r.n) for r in rows], meta)
    return path


def _run_phase_diagram(config: ExperimentConfig, out: Path) -> Path:
    base = config.model
    if base.get("type") != "haldane":
        raise ValueError("phase-diagram sweeps haldane parameters; model type must be haldane")
    rows_n, cols_n = config.scan.get("grid", (41, 41))
    if int(rows_n) < 1 or int(cols_n) < 1:
        raise ValueError(f"grid {rows_n}x{cols_n} needs at least one row and one column")
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
    path = out / "phase_diagram.csv"
    _write_csv(path, config, ["phi", "m_over_t2", "chern_number"], rows,
               {"t1": t1, "t2": t2})
    return path


_RUNNERS = {
    "bloch": _run_bloch,
    "chern": _run_chern,
    "marker": _run_marker,
    "spectrum": _run_spectrum,
    "thresholds": _run_thresholds,
    "wegner": _run_wegner,
    "msa-probe": _run_msa_probe,
    "decay": _run_decay,
    "ids": _run_ids,
    "moments": _run_moments,
    "phase-diagram": _run_phase_diagram,
}


def run(config: ExperimentConfig) -> Path:
    """Execute one resolved configuration; returns the primary output path."""
    out = Path(config.output)
    out.mkdir(parents=True, exist_ok=True)
    path = _RUNNERS[config.command](config, out)
    if path.suffix == ".csv":
        _write_sidecar(path.with_suffix(".json"), config)
    return path


# ------------------------------------------------------------- arg parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chernlab",
        description="Disordered Chern-insulator laboratory: spectra, invariants, "
                    "analytic thresholds, and Monte-Carlo probes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
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

    specs: dict[str, list[tuple]] = {
        "bloch": [("--grid", int, "grid")],
        "chern": [("--grid", int, "grid"), ("--gap-index", int, "gap_index")],
        "marker": [("--energy", float, "energy"), ("--window-l", int, "window_L")],
        "spectrum": [("--lambda-grid", str, "lambda_grid"), ("--grid", int, "grid")],
        "thresholds": [("--s", float, "s"), ("--t", float, "t"),
                       ("--q", float, "q"), ("--grid", int, "grid")],
        "wegner": [("--energy", float, "energy"), ("--eps-grid", str, "eps_grid")],
        "msa-probe": [("--energy", float, "energy"), ("--theta", float, "theta"),
                      ("--range", int, "range"), ("--box-grid", str, "box_grid")],
        "decay": [("--window", str, "window"), ("--grid-points", int, "grid_points")],
        "ids": [("--energy-grid", str, "energy_grid")],
        "moments": [("--p", float, "p"), ("--window", str, "window"),
                    ("--t-grid", str, "t_grid")],
        "phase-diagram": [("--grid", str, "grid")],
    }
    for name, flags in specs.items():
        p = sub.add_parser(name)
        common(p)
        for flag, typ, dest in flags:
            p.add_argument(flag, type=typ, default=None, dest=f"scan_{dest}")
    return parser


def _scan_value(command: str, key: str, raw):
    """Parse a flag string into the canonical JSON-native scan value."""
    if key in ("lambda_grid", "energy_grid", "t_grid"):
        return list(_parse_range(raw, key))
    if key == "eps_grid":
        return _parse_floats(raw)
    if key == "box_grid":
        return _parse_ints(raw)
    if key == "window":
        parts = _parse_floats(raw.replace(":", ","))
        if len(parts) != 2:
            raise ValueError(f"window must be two numbers, got {raw!r}")
        return parts
    if key == "grid" and command == "phase-diagram":
        m = re.fullmatch(r"(\d+)x(\d+)", raw)
        if not m:
            raise ValueError(f"grid must look like 41x41, got {raw!r}")
        return [int(m.group(1)), int(m.group(2))]
    return raw


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
    for name, value in vars(args).items():
        if name.startswith("scan_") and value is not None:
            key = name[len("scan_"):]
            scan[key] = _scan_value(args.command, key, value) \
                if isinstance(value, str) else value
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
