"""The benchmark's four workloads: operations, inputs and correctness checks.

Every operation is one ``chernlab`` CLI invocation. A workload yields its
operations in cycles; run.py runs whole cycles, so each run executes
the same mix of operations. All per-operation seeds and input files come
from a ``random.Random`` seeded with the workload name and the workload
seed, so a seed fixes the inputs.

Checks hold for every seed. Each operation's output is checked on its
own (shape, ranges, golden constants); statistical checks pool the
operations of one run, sized (``min_cycles``) so that they hold with a
wide margin at any seed.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

_Z99 = 2.5758293035489004  # two-sided 99% normal quantile
_EDGE = 3.0 * math.sqrt(3.0)  # critical |M|/t2 of the Haldane model at |sin phi| = 1


@dataclass(frozen=True)
class Op:
    """One CLI operation: argv without ``--out``, and its work units."""

    kind: str
    argv: tuple[str, ...]
    units: int


def read_csv(path: Path) -> list[dict[str, str]]:
    """Rows of a chernlab CSV, skipping its ``#`` metadata lines."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def wilson_upper(hits: int, n: int, z: float = _Z99) -> float:
    """Upper endpoint of the Wilson score interval."""
    p = hits / n
    denom = 1.0 + z * z / n
    centre = (p + z * z / (2.0 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    return centre + half


class Workload:
    name = ""
    unit = ""          # what one work unit is
    min_cycles = 1     # per run: pooled-check size, and >= 21 operations
                       # so that the latency tail lies above the median
    scaled = False     # report times in reference seconds (run.py, Gauge)

    def __init__(self, seed: int, inputs: Path):
        self.inputs = inputs
        self.rng = random.Random(f"{self.name}/ops/{seed}")
        self.files = self.make_inputs(random.Random(f"{self.name}/inputs/{seed}"))

    def make_inputs(self, rng: random.Random) -> dict[str, dict]:
        return {}

    def write_inputs(self) -> None:
        self.inputs.mkdir(parents=True, exist_ok=True)
        for name, doc in self.files.items():
            (self.inputs / name).write_text(json.dumps(doc, sort_keys=True) + "\n")

    def path(self, name: str) -> str:
        return str(self.inputs / name)

    def seed(self) -> str:
        return str(self.rng.randrange(2 ** 31))

    def cycle(self) -> list[Op]:
        raise NotImplementedError

    def check(self, op: Op, out: Path):
        """(passed, data for the pooled check) for one operation's output."""
        raise NotImplementedError

    def check_pool(self, results: list[tuple[Op, object]]) -> set[str]:
        """Kinds of operation whose pooled check failed."""
        return set()


class EnsembleSmall(Workload):
    """wegner and ids over realization chunks at box side 8 (N = 128)."""

    name = "ensemble_small"
    scaled = True
    unit = "realization-box solves"
    min_cycles = 20  # >= 500 pooled Wegner realizations
    CHUNK = 25
    ENERGIES = [-4.0 + 0.5 * i for i in range(17)]
    # wegner_bound(n=2, uniform a=1, L=8, eps, lam=2), by eps
    BOUNDS = {1e-4: 0.04021238596594935, 1e-3: 0.40212385965949354, 1e-2: 1.0}

    def make_inputs(self, rng):
        return {"uniform.json": {"kind": "uniform", "a": 1.0}}

    def cycle(self):
        common = ("--dist", self.path("uniform.json"), "--lambda", "2",
                  "--box-l", "8", "--bc", "periodic",
                  "--realizations", str(self.CHUNK))
        return [
            Op("wegner", ("wegner", *common, "--energy", "0", "--seed", self.seed()),
               self.CHUNK),
            Op("ids", ("ids", *common, "--energy-grid=-4:4:17", "--seed", self.seed()),
               self.CHUNK),
        ]

    def check(self, op, out):
        if op.kind == "wegner":
            rows = read_csv(out / "wegner.csv")
            eps = [float(r["eps"]) for r in rows]
            ok = eps == sorted(self.BOUNDS)
            hits = []
            for r, e in zip(rows, eps):
                emp, up = float(r["empirical"]), float(r["upper_99"])
                ok = ok and int(r["n"]) == self.CHUNK and 0.0 <= emp <= up <= 1.0
                ok = ok and math.isclose(float(r["bound"]), self.BOUNDS.get(e, -1.0),
                                         rel_tol=1e-9)
                hits.append(round(emp * self.CHUNK))
            return ok, hits
        rows = read_csv(out / "ids.csv")
        energies = [float(r["energy"]) for r in rows]
        values = [float(r["value"]) for r in rows]
        ok = (len(energies) == len(self.ENERGIES)
              and all(math.isclose(a, b, abs_tol=1e-12)
                      for a, b in zip(energies, self.ENERGIES))
              and all(int(r["n"]) == self.CHUNK for r in rows)
              and all(0.0 <= v <= 2.0 for v in values)  # n = 2 orbitals
              and all(a <= b for a, b in zip(values, values[1:])))
        return ok, None

    def check_pool(self, results):
        # criterion 06: pooled Wilson 99% upper endpoint below the bound
        hits = [h for op, h in results if op.kind == "wegner"]
        if not hits:
            return {"wegner"}
        n = self.CHUNK * len(hits)
        for e, total in zip(sorted(self.BOUNDS), map(sum, zip(*hits))):
            if wilson_upper(total, n) > self.BOUNDS[e]:
                return {"wegner"}
        return set()


class MarkerLarge(Workload):
    """Windowed marker at side 18, weak and strong disorder in turn."""

    name = "marker_large"
    unit = "realization-lambda solves"
    min_cycles = 11
    LAM_WEAK = 0.1
    # 1.5 x lambda_rho of the reference model under the truncated Gaussian, a = 2
    LAM_STRONG = 62.819730298573

    def make_inputs(self, rng):
        return {"tgauss.json": {"kind": "truncated_gaussian", "a": 2.0}}

    def cycle(self):
        ops = []
        for kind, lam in (("marker-weak", self.LAM_WEAK), ("marker-strong", self.LAM_STRONG)):
            ops.append(Op(kind, ("marker", "--dist", self.path("tgauss.json"),
                                 "--lambda", repr(lam), "--box-l", "18",
                                 "--bc", "periodic", "--window-l", "6",
                                 "--energy", "0", "--realizations", "1",
                                 "--seed", self.seed()), 1))
        return ops

    def check(self, op, out):
        rows = read_csv(out / "marker.csv")
        lam = self.LAM_WEAK if op.kind == "marker-weak" else self.LAM_STRONG
        ok = (len(rows) == 1 and int(rows[0]["n"]) == 1
              and float(rows[0]["energy"]) == 0.0
              and math.isclose(float(rows[0]["lam"]), lam, rel_tol=1e-12)
              and math.isfinite(float(rows[0]["mean"])))
        return ok, float(rows[0]["mean"]) if ok else None

    def check_pool(self, results):
        # criterion 07: the averaged marker jumps from -1 to 0
        failed = set()
        weak = [m for op, m in results if op.kind == "marker-weak"]
        strong = [m for op, m in results if op.kind == "marker-strong"]
        if not weak or abs(sum(weak) / len(weak) + 1.0) > 0.2:
            failed.add("marker-weak")
        if not strong or abs(sum(strong) / len(strong)) > 0.25:
            failed.add("marker-strong")
        return failed


class ResolventLarge(Workload):
    """Suitable-box probe over box sides 13 and 19."""

    name = "resolvent_large"
    unit = "realization-box solves"
    min_cycles = 21
    SIDES = (13, 19)

    def make_inputs(self, rng):
        return {"uniform.json": {"kind": "uniform", "a": 1.0}}

    def cycle(self):
        return [Op("msa-probe", ("msa-probe", "--dist", self.path("uniform.json"),
                                 "--lambda", "0.3", "--box-grid", "13,19",
                                 "--bc", "periodic", "--energy", "3.2",
                                 "--theta", "1", "--realizations", "1",
                                 "--seed", self.seed()), len(self.SIDES))]

    def check(self, op, out):
        rows = read_csv(out / "msa_probe.csv")
        ok = [int(r["box_L"]) for r in rows] == list(self.SIDES)
        for r in rows:
            p = float(r["probability"])
            ok = (ok and int(r["n"]) == 1 and p in (0.0, 1.0)
                  and float(r["ci_low"]) <= p <= float(r["ci_high"]))
        return ok, [float(r["probability"]) for r in rows] if ok else None

    def check_pool(self, results):
        # criterion 08: nondecreasing in the box side and >= 0.9 at side 19
        probs = [p for _, p in results]
        if not probs:
            return {"msa-probe"}
        p13, p19 = (sum(col) / len(probs) for col in zip(*probs))
        return set() if p13 <= p19 and p19 >= 0.9 else {"msa-probe"}


class TorusSweep(Workload):
    """Phase-diagram sweeps plus one thresholds report per law, per cycle.

    The 1x5 grid sits at phi = -pi and contains the gapless point M = 0,
    which walks the whole grid-doubling ladder; the 6x6 grids contain no
    gapless point. Latencies form three clusters: 6x6 sweeps, thresholds
    reports, gapless sweeps. The 6x6 sweeps are 16 of the 19 operations,
    so the median lies inside their cluster. A cycle takes 3.8 to 7 s,
    so a 30 s run has 5 to 8 cycles, and any run of 4 to 10 cycles has
    at most 10 gapless sweeps and at least 11 slower operations: the
    latency tail lies inside the thresholds cluster. A mix whose clusters share the median or the
    tail drifts apart as the machine's speed changes, and the quantile
    then jumps between them.
    Models are the reference Haldane model scaled by a seed-drawn factor,
    which leaves the phase diagram in units of t2 and the per-point cost
    unchanged.
    """

    name = "torus_sweep"
    scaled = True
    unit = "phase points"
    min_cycles = 4
    VARIANTS = 4
    GRIDS = ("6x6",) * 8 + ("1x5",) + ("6x6",) * 8

    def make_inputs(self, rng):
        files = {}
        for i in range(self.VARIANTS):
            s = rng.uniform(0.8, 1.25)
            files[f"model{i}.json"] = {"type": "haldane", "t1": s,
                                       "t2": s / (3.0 * math.sqrt(3.0)),
                                       "phi": math.pi / 2.0, "M": 0.0}
        # the laws of criterion 03; a drawn law parameter would make the
        # cost of a thresholds report, and so the latency tail, seed-dependent
        files["uniform.json"] = {"kind": "uniform", "a": 1.0}
        files["tgauss.json"] = {"kind": "truncated_gaussian", "a": 1.0}
        return files

    def cycle(self):
        ops = []
        for grid in self.GRIDS:
            rows, cols = map(int, grid.split("x"))
            model = self.path(f"model{self.rng.randrange(self.VARIANTS)}.json")
            ops.append(Op("phase-diagram", ("phase-diagram", "--model", model,
                                            "--grid", grid), rows * cols))
        for stem in ("uniform", "tgauss"):
            ops.append(Op(f"thresholds-{stem}",
                          ("thresholds", "--dist", self.path(f"{stem}.json")), 0))
        return ops

    def check(self, op, out):
        if op.kind == "phase-diagram":
            return self._check_phase_diagram(op, out), None
        res = json.loads((out / "thresholds.json").read_text())["results"]
        ok = (all(math.isfinite(v) for v in res.values() if isinstance(v, (int, float)))
              and abs(res["gap_size"] - 2.0) <= 0.005  # criterion 02
              and res["lambda_rho"] > 0.0)
        if op.kind == "thresholds-tgauss":
            # criterion 03 goldens; the threshold times the Gaussian mass
            # of the window is a law-free coefficient for every a >= 1
            a = self.files["tgauss.json"]["a"]
            coefficient = res["lambda_rho"] * math.erf(a / math.sqrt(2.0))
            ok = (ok and abs(res["K"] - 22.96) <= 0.05
                  and 1 / 1.15 <= res["a_zero"] / 2.4e30 <= 1.15
                  and 1 / 1.15 <= res["gap_over_2a0"] / 4.1e-31 <= 1.15
                  and 35.0 <= coefficient <= 39.98)
        return ok, None

    @staticmethod
    def _check_phase_diagram(op, out) -> bool:
        # criterion 01: off the critical curve |M|/t2 = 3 sqrt(3) |sin phi| the
        # invariant is -sign(sin phi) between the branches and 0 outside; a
        # status column, where present, may mark points gapless only on it
        rows = read_csv(out / "phase_diagram.csv")
        if len(rows) != op.units:
            return False
        for r in rows:
            phi, m, c = float(r["phi"]), float(r["m_over_t2"]), int(r["chern_number"])
            edge = _EDGE * abs(math.sin(phi))
            near = abs(abs(m) - edge) <= 0.1
            if c not in (-1, 0, 1):
                return False
            if "gapless" in r.get("status", "") and not near:
                return False
            want = -int(math.copysign(1.0, math.sin(phi))) if abs(m) < edge else 0
            if not near and c != want:
                return False
        return True


WORKLOADS = {w.name: w for w in (EnsembleSmall, MarkerLarge, ResolventLarge, TorusSweep)}
