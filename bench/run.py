"""chernlab benchmark: closed-loop CLI workloads with an optional layer trace.

Run from the repository root:

    python3 bench/run.py --workload ensemble_small --seed 1 --seconds 30 --trace 0

One client in one process runs operations back to back; each operation
is one ``chernlab.cli.main(argv)`` call with the default ``--threads``
and the default BLAS threads. With ``--trace 0`` the run prints the
end-to-end metrics; with ``--trace 1`` it spends half of ``--seconds``
untraced and half traced, and prints the per-layer metrics and the
tracing overhead. The last line of standard output is a JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from spans import LAYERS, Tracer
from workloads import WORKLOADS, Op

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "chernlab"
WORK = Path(".bench_run")  # relative to ROOT; removed when the run ends
SETUP_REPS = 3
IMPORT_PROBE = f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import chernlab.cli"
TAIL_BEYOND = 10  # samples beyond the reported tail percentile
REF_ITERS = 100_000  # one reference sample: a fixed pure-Python loop
REF_S = 0.012        # nominal time of one sample; times are scaled to it
REF_EVERY_S = 1.0    # least wall time between two samples
REF_WINDOW_S = 4.0   # an operation is scaled by the samples this close to it
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


@dataclass
class Record:
    op: Op
    out: Path
    rc: int
    seconds: float
    end: float  # perf_counter at the end of the operation
    band_calls: int = 0  # bloch.band_structure calls, traced phase only
    ok: bool = False
    data: object = None


def reference_kernel() -> int:
    total = 0
    for i in range(REF_ITERS):
        total += i * i % 7
    return total


class Gauge:
    """Samples the machine's speed with a fixed reference kernel.

    The speed of a shared machine drifts by up to 2x over tens of
    seconds, in about the same proportion for the interpreted code of
    chernlab and for this pure-Python kernel. The kernel runs about once a
    second between operations, and each time is scaled by ``REF_S`` over
    the mean sample near it, which takes that drift out of the figures.
    The kernel runs no chernlab, numpy or BLAS code, so a change to
    chernlab, or to its thread policy, cannot move it. An inactive gauge
    takes no samples and scales by 1: the speed of a LAPACK-bound
    workload does not follow the kernel's, and scaling it adds noise.
    """

    def __init__(self, active: bool):
        self.active = active
        self.at: list[float] = []       # perf_counter at the end of each sample
        self.samples: list[float] = []  # its duration
        self.last = -math.inf

    def sample(self) -> None:
        if not self.active:
            return
        start = time.perf_counter()
        reference_kernel()
        self.last = time.perf_counter()
        self.at.append(self.last)
        self.samples.append(self.last - start)

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.last >= REF_EVERY_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """REF_S over the mean sample taken from ``start - REF_WINDOW_S``
        to ``end + REF_WINDOW_S``, or over the nearest sample if none was."""
        if not self.active:
            return 1.0
        lo = bisect.bisect_left(self.at, start - REF_WINDOW_S)
        hi = bisect.bisect_right(self.at, end + REF_WINDOW_S)
        if lo == hi:
            lo = min(range(len(self.at)), key=lambda i: abs(self.at[i] - end))
            hi = lo + 1
        return REF_S / statistics.fmean(self.samples[lo:hi])


@dataclass
class Phase:
    """The records of one timed phase and their times in reference seconds
    (wall seconds where the gauge is inactive)."""

    records: list[Record]
    scaled: list[float]
    cycles: int
    wall_s: float

    @property
    def units(self) -> int:
        return sum(r.op.units for r in self.records)

    def throughput(self, scaled: bool = True) -> float:
        """Work units per second of operation time."""
        busy = sum(self.scaled) if scaled else sum(r.seconds for r in self.records)
        return self.units / busy


class Client:
    """Runs operations through the CLI and keeps their records."""

    def __init__(self, cli, tracer, gauge: Gauge):
        self.cli = cli
        self.tracer = tracer
        self.gauge = gauge
        self.count = 0

    def _band_calls(self) -> int:
        stat = self.tracer.stats.get("bloch.band_structure") if self.tracer else None
        return stat.calls if stat else 0

    def run(self, op: Op, out: Path) -> Record:
        argv = list(op.argv) + ["--out", str(out)]
        self.count += 1
        before = self._band_calls()
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                rc = self.cli.main(argv)
            except SystemExit as e:  # argparse rejects the arguments
                rc = e.code if isinstance(e.code, int) else 1
            except Exception:
                traceback.print_exc()
                rc = 1
        end = time.perf_counter()
        record = Record(op, out, rc, end - start, end, self._band_calls() - before)
        self.gauge.maybe_sample()
        return record

    def phase(self, workload, seconds: float, min_cycles: int) -> Phase:
        """Whole cycles until ``seconds`` have passed and ``min_cycles`` ran.

        Every cycle holds the same work, so every run has the same mix.
        """
        self.gauge.sample()
        records, cycles = [], 0
        start = time.perf_counter()
        while True:
            for op in workload.cycle():
                out = WORK / "ops" / f"{self.count:05d}-{op.kind}"
                records.append(self.run(op, out))
            cycles += 1
            elapsed = time.perf_counter() - start
            if elapsed >= seconds and cycles >= min_cycles:
                self.gauge.sample()
                scaled = [r.seconds * self.gauge.scale(r.end - r.seconds, r.end)
                          for r in records]
                return Phase(records, scaled, cycles, elapsed)


def check(workload, records: list[Record]) -> tuple[int, set[str]]:
    """Mark each record ok or not; returns (failed count, failed pooled kinds)."""
    for rec in records:
        if rec.rc != 0:
            continue
        try:
            rec.ok, rec.data = workload.check(rec.op, rec.out)
        except (OSError, ValueError, KeyError, TypeError) as e:
            print(f"check error in {rec.out}: {e!r}", file=sys.stderr)
    pooled = workload.check_pool([(r.op, r.data) for r in records if r.ok])
    failed = sum(1 for r in records if not r.ok or r.op.kind in pooled)
    return failed, pooled


def output_hashes(records: list[Record]) -> list[dict]:
    out = []
    for i, rec in enumerate(records):
        files = sorted(rec.out.glob("*")) if rec.out.is_dir() else []
        out.append({"op": i, "argv": list(rec.op.argv),
                    "sha256": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                               for p in files}})
    return out


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with TAIL_BEYOND samples beyond it."""
    s = sorted(latencies)
    n = len(s)
    return 100.0 * (n - TAIL_BEYOND) / n, s[n - TAIL_BEYOND - 1]


def blas_threads() -> dict[str, int]:
    """Runtime thread counts of the OpenBLAS libraries loaded in this process."""
    import ctypes

    found = {}
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({ln.split()[-1] for ln in f if "openblas" in ln.lower()})
    except OSError:
        return found
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.is_file():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


def end_to_end(phase: Phase, setup_s: float, setup_wall_s: float) -> tuple[dict, dict]:
    """Metrics in reference seconds, and the same figures in wall seconds."""
    lat = [r.seconds for r in phase.records]
    pct, tail_s = tail(phase.scaled)
    wall = {
        "throughput_per_s": phase.throughput(scaled=False),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail(lat)[1],
        "setup_s": setup_wall_s,
    }
    metrics = {
        "throughput_per_s": (phase.throughput(), "1/s"),
        "op_p50_s": (statistics.median(phase.scaled), "s"),
        "op_tail_s": (tail_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }
    info = {"ops": len(lat), "cycles": phase.cycles,
            "tail_percentile": pct, "tail_samples_beyond": TAIL_BEYOND,
            "work_units": phase.units, "timed_s": phase.wall_s, "wall": wall}
    return metrics, info


# span names behind each named per-layer metric
NAMED_SPANS = {
    "disorder.sample_potential": ("disorder.sample_potential",),
    "model.build_dense": ("model.build_dense",),
    "finite_volume.restrict": ("finite_volume.restrict_periodic",
                               "finite_volume.restrict_simple"),
    "finite_volume.eigensolve": ("finite_volume.eigensolve",),
    "finite_volume.spectral_projection": ("finite_volume.spectral_projection",),
    "topology.chern_marker": ("topology.chern_marker",),
    "bloch.band_structure": ("bloch.band_structure",),
    "bloch.chern_number": ("bloch.chern_number",),
    "bloch.eigensolve": ("bloch.eigensolve",),
}


def per_layer(tracer, layers, traced: Phase, untraced: Phase) -> dict:
    units = traced.units
    pd = [r for r in traced.records if r.op.argv[0] == "phase-diagram"]
    points = sum(r.op.units for r in pd)
    metrics = {
        "work_units": (units, "count"),
        "trace.wall_s": (traced.wall_s, "s"),
        "trace.accounted_share": (tracer.total("self_s", prefix="") / traced.wall_s,
                                  "ratio"),
        "trace.throughput_per_s": (traced.throughput(), "1/s"),
        "trace.untraced_throughput_per_s": (untraced.throughput(), "1/s"),
        "trace.overhead_share": (untraced.throughput() / traced.throughput() - 1.0,
                                 "ratio"),
    }
    for layer in layers:
        metrics[f"{layer}.self_s"] = (tracer.total("self_s", prefix=layer + "."), "s")
    for key, names in NAMED_SPANS.items():
        metrics[f"{key}.calls"] = (int(tracer.total("calls", names)), "count")
        metrics[f"{key}.self_s"] = (tracer.total("self_s", names), "s")
    eig_calls = tracer.total("calls", NAMED_SPANS["finite_volume.eigensolve"])
    metrics["finite_volume.eigensolve.per_unit"] = (eig_calls / units, "ratio")
    metrics["bloch.band_structure.calls_per_point"] = (
        sum(r.band_calls for r in pd) / points if points else 0.0, "ratio")
    metrics["bloch.chern_number.gapless"] = (
        int(tracer.total("errors", NAMED_SPANS["bloch.chern_number"])), "count")
    return metrics


def run(args, cli, tracer, import_s: float) -> dict:
    workload = WORKLOADS[args.workload](args.seed, WORK / "inputs")
    client = Client(cli, tracer, Gauge(workload.scaled))

    # set-up, repeated: the imports in a fresh interpreter (one import time
    # swings with the machine's state), the input files and one untimed
    # warm-up operation
    warmups, setup_times, spans = [], [], []
    for rep in range(SETUP_REPS):
        client.gauge.sample()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, check=True)
        workload.write_inputs()
        warmups.append(client.run(workload.cycle()[0], WORK / "warmup" / str(rep)))
        spans.append((start, time.perf_counter()))
        setup_times.append(spans[-1][1] - start)
    client.gauge.sample()
    setup_s = statistics.median((b - a) * client.gauge.scale(a, b) for a, b in spans)

    if args.trace:
        # the pooled checks see both halves, so each half needs half the cycles
        half = -(-workload.min_cycles // 2)
        untraced = client.phase(workload, args.seconds / 2.0, half)
        tracer.enabled = True
        traced = client.phase(workload, args.seconds / 2.0, half)
        tracer.enabled = False
        timed = untraced.records + traced.records
        metrics = per_layer(tracer, LAYERS, traced, untraced)
        info = {"ops": len(timed)}
    else:
        phase = client.phase(workload, args.seconds, workload.min_cycles)
        timed = phase.records
        metrics, info = end_to_end(phase, setup_s, statistics.median(setup_times))

    records = warmups + timed
    failed, pooled = check(workload, records)
    hashes = output_hashes(timed)
    info.update({
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "work_unit": workload.unit,
        "setup_reps_s": setup_times, "import_s": import_s,
        "error_rate": failed / len(records),
        "failed_pooled_checks": sorted(pooled),
        "outputs_sha256": hashlib.sha256(
            json.dumps(hashes, sort_keys=True).encode()).hexdigest(),
        "environment": environment(),
    })

    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:>16.6g} {unit}")
    for name, value in info.get("wall", {}).items():  # unscaled, information only
        print(f"{'wall.' + name:42s} {value:>16.6g} {metrics[name][1]}")
    print(f"{'error_rate':42s} {info['error_rate']:>16.6g} ratio")
    print("detail " + json.dumps(info, sort_keys=True))
    print("outputs " + json.dumps(hashes, sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (PACKAGE / "cli.py").is_file():
        print(f"error: no chernlab sources at {PACKAGE}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    start = time.perf_counter()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install_solvers()
    sys.path.insert(0, str(PACKAGE.parent))
    import chernlab.cli
    if Path(chernlab.cli.__file__).resolve().parent != PACKAGE.resolve():
        print(f"error: imported chernlab from {chernlab.cli.__file__}, "
              f"not from {PACKAGE}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - start
    if tracer:
        tracer.install_chernlab()

    shutil.rmtree(WORK, ignore_errors=True)
    try:
        result = run(args, chernlab.cli, tracer, import_s)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
