"""Runner tests: output format, determinism, overrides, error paths.

Tests call main() in-process with tmp_path outputs; one subprocess test
covers the console-script wiring.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from chernlab import probes
from chernlab.bloch import band_structure
from chernlab.cli import ExperimentConfig, _build_parser, main
from chernlab.model import haldane_model, model_from_json

T2 = 1.0 / (3.0 * math.sqrt(3.0))


@pytest.fixture()
def model_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(
        {"type": "haldane", "t1": 1.0, "t2": T2, "phi": math.pi / 2.0, "M": 0.0}))
    return str(path)


@pytest.fixture()
def tg_file(tmp_path):
    path = tmp_path / "tg.json"
    path.write_text(json.dumps({"kind": "truncated_gaussian", "a": 1.0}))
    return str(path)


@pytest.fixture()
def uniform_file(tmp_path):
    path = tmp_path / "uniform.json"
    path.write_text(json.dumps({"kind": "uniform", "a": 1.0}))
    return str(path)


def read_csv(path):
    meta, header, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


def test_thresholds_pipeline_json(tmp_path, model_file, tg_file):
    out = tmp_path / "run"
    assert main(["thresholds", "--model", model_file, "--dist", tg_file,
                 "--out", str(out)]) == 0
    doc = json.loads((out / "thresholds.json").read_text())
    r = doc["results"]
    assert r["K"] == pytest.approx(22.963798680773785, rel=1e-12)
    assert r["a_zero"] == pytest.approx(2.2986155750464074e30, rel=1e-9)
    assert r["gap_over_2a0"] == pytest.approx(4.3501854733946225e-31, rel=1e-9, abs=0)
    assert r["lambda_rho_coefficient"] == pytest.approx(39.97427732805992, rel=1e-9)
    assert r["lambda_rho_coefficient"] <= 39.98
    assert doc["schema_version"] == 2
    assert doc["config"]["command"] == "thresholds"


@pytest.mark.parametrize("a", [1.0, 1.5, 2.0, 3.0])
def test_lambda_rho_coefficient_is_law_free(tmp_path, model_file, a):
    # the Gaussian mass erf(a/sqrt 2) of the truncation window cancels
    # the a-dependence of the threshold
    dist = tmp_path / "tg.json"
    dist.write_text(json.dumps({"kind": "truncated_gaussian", "a": a}))
    out = tmp_path / "run"
    assert main(["thresholds", "--model", model_file, "--dist", str(dist),
                 "--out", str(out)]) == 0
    r = json.loads((out / "thresholds.json").read_text())["results"]
    assert abs(r["lambda_rho_coefficient"] - 39.974) < 1e-3


THRESHOLDS_UNIFORM_PINNED = {
    "B_mom": 0.5, "C_mom": 0.25, "C_s_alpha": 1695395.7621202879,
    "K": 10.378414230005445, "K_C_pq": 4.000000000000001, "K_p": 0.5,
    "S_alpha": 0.1659082915165083, "S_alpha_overbound": 0.4999702041742749,
    "a_zero": 9.589929708719103e+28, "alpha": 0.034753941095545506,
    "gap_over_2a0": 1.042698370812261e-29, "gap_size": 1.9998808166971018,
    "lambda_rho": 50.100326904227984, "lambda_rho_mu": 0.0,
    "lambda_rho_s": 0.7778866929959833, "q": 2.0, "s": 0.25, "t": 1.0,
}

THRESHOLDS_TG_PINNED = {
    "B_mom": 1.6487212707001282, "C_mom": 0.8107389584591749,
    "C_s_alpha": 1695395.7621202879, "K": 22.963798680773785,
    "K_C_pq": 5.440531270356422, "K_p": 0.5, "S_alpha": 0.1659082915165083,
    "S_alpha_overbound": 0.4999702041742749, "a_zero": 2.2986155750464074e+30,
    "alpha": 0.034753941095545506, "gap_over_2a0": 4.3501854733946225e-31,
    "gap_size": 1.9998808166971018, "lambda_rho": 58.5541125042437,
    "lambda_rho_coefficient": 39.97427732805992, "lambda_rho_mu": 0.0,
    "lambda_rho_s": 0.7778866947296681, "q": 2.0, "s": 0.25, "t": 1.0,
}


@pytest.mark.parametrize("law, pinned", [("uniform", THRESHOLDS_UNIFORM_PINNED),
                                         ("tg", THRESHOLDS_TG_PINNED)])
def test_thresholds_results_are_pinned(tmp_path, request, law, pinned):
    # frozen report of the reference model for the unit uniform and
    # unit truncated Gaussian laws, every entry to the last bit
    dist = request.getfixturevalue(f"{law}_file")
    out = tmp_path / "run"
    assert main(["thresholds", "--dist", dist, "--out", str(out)]) == 0
    assert json.loads((out / "thresholds.json").read_text())["results"] == pinned


def test_csv_format_and_lossless_floats(tmp_path, model_file):
    out = tmp_path / "run"
    assert main(["bloch", "--model", model_file, "--out", str(out)]) == 0
    text = (out / "bloch.csv").read_text()
    assert text.startswith("# schema-version: 2\n")
    meta, header, rows = read_csv(out / "bloch.csv")
    assert header == ["band", "lower", "upper"]
    assert meta["command"] == "bloch"
    # 17 significant digits round-trip the double exactly
    bs = band_structure(model_from_json(json.loads(open(model_file).read())), 201)
    assert float(rows[0][2]) == bs.bands[0][1]
    assert float(rows[1][1]) == bs.bands[1][0]


def test_rerun_is_byte_identical_across_threads(tmp_path, model_file, uniform_file):
    args = ["wegner", "--model", model_file, "--dist", uniform_file,
            "--lambda", "2", "--box-l", "6", "--realizations", "40",
            "--seed", "5", "--eps-grid", "1e-2,1e-3"]
    outs = []
    for name, threads in (("a", "1"), ("b", "3"), ("c", "0")):
        out = tmp_path / name
        assert main(args + ["--out", str(out), "--threads", threads]) == 0
        outs.append((out / "wegner.csv").read_bytes())
    assert outs[0] == outs[1] == outs[2]


WEGNER_PINNED = """\
# schema-version: 2
# command: wegner
# energy: 0
eps,empirical,upper_99,bound,n
0.001,0,0.20973346885562544,0.40212385965949354,25
0.01,0.080000000000000002,0.32039002368145975,1,25
0.10000000000000001,0.88,0.96911994190631312,1,25
"""

IDS_PINNED = """\
# schema-version: 2
# command: ids
energy,value,stderr,n
-4,0.00062500000000000001,0.00062500000000000001,25
-3.5,0.047500000000000001,0.0034327618861008506,25
-3,0.16312499999999999,0.0044267769501824539,25
-2.5,0.30375000000000002,0.0064474033856015758,25
-2,0.455625,0.0071988135596545823,25
-1.5,0.61375000000000002,0.0074126861977738311,25
-1,0.77437500000000004,0.0071078008788466596,25
-0.5,0.91562500000000002,0.0063147685692615321,25
0,0.99750000000000005,0.0023315655505832698,25
0.5,1.0700000000000001,0.0049509310992983929,25
1,1.2124999999999999,0.0062500000000000003,25
1.5,1.3712500000000001,0.0069456596159040221,25
2,1.5325,0.0072123664054640673,25
2.5,1.680625,0.0058519049604950583,25
3,1.828125,0.0053369535239372904,25
3.5,1.944375,0.004141853198348134,25
4,1.9981249999999999,0.0010364452469860624,25
"""


def test_wegner_and_ids_csv_bodies_are_pinned(tmp_path, uniform_file):
    # frozen seeded outputs of the eigenvalue-only probes (reference
    # model, side 8, periodic, 25 realizations, seed 7)
    common = ["--dist", uniform_file, "--lambda", "2", "--box-l", "8",
              "--bc", "periodic", "--realizations", "25", "--seed", "7"]
    assert main(["wegner", *common, "--energy", "0", "--eps-grid", "1e-1,1e-2,1e-3",
                 "--out", str(tmp_path / "w")]) == 0
    assert main(["ids", *common, "--energy-grid=-4:4:17",
                 "--out", str(tmp_path / "i")]) == 0
    assert (tmp_path / "w" / "wegner.csv").read_text() == WEGNER_PINNED
    assert (tmp_path / "i" / "ids.csv").read_text() == IDS_PINNED


def test_sidecar_round_trips_and_reproduces(tmp_path, model_file, uniform_file):
    out1 = tmp_path / "first"
    assert main(["ids", "--model", model_file, "--dist", uniform_file,
                 "--lambda", "1", "--box-l", "6", "--realizations", "5",
                 "--seed", "3", "--energy-grid=-4:4:3", "--out", str(out1)]) == 0
    sidecar = json.loads((out1 / "ids.json").read_text())
    config = ExperimentConfig.from_dict(sidecar["config"])
    assert config.to_dict() == sidecar["config"]  # lossless round trip

    # rerunning purely from the recorded config reproduces the bytes
    out2 = tmp_path / "second"
    cfg_file = tmp_path / "replay.json"
    replay = dict(sidecar["config"])
    replay["output"] = str(out2)
    cfg_file.write_text(json.dumps(replay))
    assert main(["ids", "--config", str(cfg_file)]) == 0
    assert (out1 / "ids.csv").read_bytes() == (out2 / "ids.csv").read_bytes()

    # the sidecar itself is also a valid config file
    out3 = tmp_path / "third"
    assert main(["ids", "--config", str(out1 / "ids.json"),
                 "--out", str(out3)]) == 0
    assert (out1 / "ids.csv").read_bytes() == (out3 / "ids.csv").read_bytes()


def test_flags_override_config_file(tmp_path, model_file, uniform_file):
    cfg = {
        "command": "wegner",
        "model": json.loads(open(model_file).read()),
        "distribution": json.loads(open(uniform_file).read()),
        "ensemble": {"lam": 2.0, "box_L": 6, "n_realizations": 5, "master_seed": 1},
        "scan": {"eps_grid": [1e-2]},
    }
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert main(["wegner", "--config", str(cfg_file), "--seed", "9",
                 "--out", str(out)]) == 0
    sidecar = json.loads((out / "wegner.json").read_text())
    assert sidecar["config"]["ensemble"]["master_seed"] == 9
    assert sidecar["config"]["ensemble"]["lam"] == 2.0


def test_spectrum_renders_shifted_band_edges(tmp_path, model_file, uniform_file):
    out = tmp_path / "run"
    assert main(["spectrum", "--model", model_file, "--dist", uniform_file,
                 "--lambda-grid", "0:2:3", "--out", str(out)]) == 0
    _, header, rows = read_csv(out / "spectrum.csv")
    assert header == ["lam", "band", "lower", "upper"]
    bs = band_structure(model_from_json(json.loads(open(model_file).read())), 201)
    got = [[float(c) for c in row] for row in rows]
    # lam=1 rows: lower shifted by -a*lam, upper by +b*lam with a=b=1
    assert got[2][2] == bs.bands[0][0] - 1.0
    assert got[3][3] == bs.bands[1][1] + 1.0


def test_phase_diagram_classifies_regions(tmp_path, model_file):
    out = tmp_path / "run"
    assert main(["phase-diagram", "--model", model_file, "--grid", "9x9",
                 "--out", str(out)]) == 0
    _, header, rows = read_csv(out / "phase_diagram.csv")
    table = {(float(r[0]), float(r[1])): int(r[2]) for r in rows}
    assert set(table.values()) <= {-1, 0, 1}
    assert table[(math.pi / 2.0, 0.0)] == -1
    assert table[(-math.pi / 2.0, 0.0)] == 1
    assert table[(math.pi / 2.0, -6.0)] == 0
    assert table[(math.pi / 2.0, 6.0)] == 0


def test_phase_diagram_reports_gapless_points(tmp_path, model_file):
    # phi = -pi holds the exactly gapless point M = 0; it keeps an integer
    # Chern column (0) and is marked in the status column
    out = tmp_path / "run"
    assert main(["phase-diagram", "--model", model_file, "--grid", "1x5",
                 "--out", str(out)]) == 0
    meta, header, rows = read_csv(out / "phase_diagram.csv")
    assert meta["schema-version"] == "2"
    assert header == ["phi", "m_over_t2", "chern_number", "status"]
    assert [(float(r[1]), int(r[2]), r[3]) for r in rows] == [
        (-6.0, 0, "gapped"), (-3.0, 0, "gapped"), (0.0, 0, "gapless"),
        (3.0, 0, "gapped"), (6.0, 0, "gapped")]


@pytest.mark.parametrize("command, section, values, key", [
    (command, "scan", {"grid": 24.5}, "grid")
    for command in ("chern", "bloch", "spectrum", "thresholds")
] + [
    ("chern", "scan", {"gap_index": "1"}, "gap_index"),
    ("wegner", "scan", {"energy": [0]}, "energy"),
    ("wegner", "scan", {"eps_grid": 5}, "eps_grid"),
    ("wegner", "scan", {"eps_grid": [1e-2, None]}, "eps_grid"),
    ("msa-probe", "scan", {"box_grid": 7}, "box_grid"),
    ("msa-probe", "scan", {"box_grid": [7.5]}, "box_grid"),
    ("msa-probe", "scan", {"range": 1.5}, "range"),
    ("marker", "scan", {"window_L": 2.5}, "window_L"),
    ("decay", "scan", {"grid_points": "16"}, "grid_points"),
    ("moments", "scan", {"p": True}, "p"),
    ("ids", "ensemble", {"box_L": [4]}, "box_L"),
    ("ids", "ensemble", {"box_L": 4.7}, "box_L"),
    ("ids", "ensemble", {"n_realizations": 2.5}, "n_realizations"),
    ("ids", "ensemble", {"master_seed": "0"}, "master_seed"),
    ("ids", "ensemble", {"lam": [1.0]}, "lam"),
    ("wegner", "distribution", {"a": "nan"}, "distribution: a"),
])
def test_config_scalar_and_list_values_are_checked(tmp_path, model_file, capsys,
                                                   command, section, values, key):
    # a scalar or list value from a config file that is not a number of the
    # right kind stops the run naming its key: no truncation, no TypeError
    doc = {"command": command, "distribution": {"kind": "uniform", "a": 1.0},
           "ensemble": {"lam": 1.0, "box_L": 4}, "scan": {}}
    if command in ("bloch", "chern", "spectrum", "thresholds"):
        del doc["ensemble"]  # these commands read none
    if command in ("bloch", "chern"):
        del doc["distribution"]
    doc[section].update(values)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "run"
    assert main([command, "--config", str(cfg), "--model", model_file,
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be "), err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["ids", "--lambda", "nan"],
    ["msa-probe", "--theta", "nan"],
    ["wegner", "--energy", "nan"],
    ["moments", "--p", "nan"],
    ["wegner", "--eps-grid=nan"],
], ids=lambda args: " ".join(args))
def test_nan_flag_is_named(tmp_path, model_file, uniform_file, capsys, args):
    # a NaN given by flag stops the run naming its flag, as a NaN in a
    # config file names its key, and writes no output
    out = tmp_path / "run"
    assert main(args + ["--model", model_file, "--dist", uniform_file,
                        "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {args[1].split('=')[0]}: must not be NaN\n"
    assert not out.exists()


HALDANE = {"type": "haldane", "t1": 1.0, "t2": T2, "phi": 0.5, "M": 0.0}
CUSTOM = {"type": "custom", "n": 2, "r": 1, "B": 0.0,
          "hoppings": [{"dg1": 0, "dg2": 0, "matrix": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]}]}
CUSTOM_HOP = CUSTOM["hoppings"][0]


@pytest.mark.parametrize("command, model, key", [
    # NaN bands and an all-gapless phase diagram, both exiting 0
    ("bloch", {**HALDANE, "t1": "nan"}, "t1"),
    ("phase-diagram", {**HALDANE, "t1": "nan"}, "t1"),
    # ran as phi = 1.0
    ("bloch", {**HALDANE, "phi": True}, "phi"),
    # truncated to n = 2
    ("bloch", {**CUSTOM, "n": 2.7}, "n"),
    # escaped as a TypeError traceback
    ("bloch", {**HALDANE, "t1": [1]}, "t1"),
    ("bloch", {**HALDANE, "M": 1e400}, "M"),
    ("bloch", {**CUSTOM, "n": 0}, "n"),
    ("bloch", {**CUSTOM, "r": "1"}, "r"),
    ("bloch", {**CUSTOM, "B": None}, "B"),
    ("bloch", {**CUSTOM, "hoppings": [{**CUSTOM_HOP, "dg1": 0.5}]}, "dg1"),
    ("bloch", {**CUSTOM, "hoppings": [{**CUSTOM_HOP, "dg2": False}]}, "dg2"),
    ("bloch", {**CUSTOM, "hoppings": [{**CUSTOM_HOP, "matrix": [
        [[1, 0], [0, "nan"]], [[0, 0], [-1, 0]]]}]}, "matrix entry (0, 1)"),
    ("bloch", {**CUSTOM, "hoppings": [1]}, "hoppings"),
    ("bloch", 5, "model"),
])
def test_model_numbers_are_checked(tmp_path, capsys, command, model, key):
    # a model value that is not a finite number of the right kind stops
    # the run naming its key: a ConfigError (exit 2) from a --model file,
    # exit 1 from a --config file, and no output in either case
    out = tmp_path / "run"
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    assert main([command, "--model", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}:"), model
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": command, "model": model}))
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: model: {key} must be "), model
    assert not out.exists()


def test_msa_probe_and_marker_outputs(tmp_path, model_file, uniform_file):
    out = tmp_path / "run"
    assert main(["msa-probe", "--model", model_file, "--dist", uniform_file,
                 "--lambda", "0.3", "--theta", "1", "--energy", "3.2",
                 "--box-grid", "7", "--realizations", "20", "--seed", "11",
                 "--out", str(out)]) == 0
    _, header, rows = read_csv(out / "msa_probe.csv")
    assert header == ["box_L", "theta", "probability", "ci_low", "ci_high", "n"]
    assert 0.0 <= float(rows[0][2]) <= 1.0

    assert main(["marker", "--model", model_file, "--box-l", "10",
                 "--window-l", "3", "--out", str(out)]) == 0
    _, _, rows = read_csv(out / "marker.csv")
    assert float(rows[0][2]) == pytest.approx(-1.0, abs=0.05)


def test_moments_metadata_carries_slopes(tmp_path, model_file):
    out = tmp_path / "run"
    assert main(["moments", "--model", model_file, "--p", "2",
                 "--window", "2:0.5", "--t-grid", "1:100:5",
                 "--box-l", "10", "--out", str(out)]) == 0
    meta, header, rows = read_csv(out / "moments.csv")
    assert header == ["T", "mean", "stderr", "n"]
    assert float(rows[0][0]) == 0.0  # T=0 envelope row always present
    assert float(meta["transport_slope"]) > 1.5
    assert float(meta["raw_slope"]) < 1.0
    assert meta["empty_windows"] == "0"


def test_moments_metadata_counts_empty_windows(tmp_path, model_file):
    # a window that holds no eigenpair gives zero moments and a zero
    # slope, and the header says how many realizations that was
    law = tmp_path / "gauss.json"
    law.write_text(json.dumps({"kind": "truncated_gaussian", "a": 2.0}))
    out = tmp_path / "run"
    assert main(["moments", "--model", model_file, "--dist", str(law), "--lambda", "0.3",
                 "--window=0:0.3", "--box-l", "10", "--realizations", "3",
                 "--out", str(out)]) == 0
    meta, _, rows = read_csv(out / "moments.csv")
    assert meta["empty_windows"] == "3"
    assert meta["transport_slope"] == "0"
    assert all(float(row[1]) == 0.0 for row in rows)


def test_invalid_config_exits_nonzero_with_line(tmp_path, model_file, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "command": "wegner",\n  "mystery": 3\n}\n')
    code = main(["wegner", "--config", str(bad), "--model", model_file])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{bad}:1:" in err and "mystery" in err

    baddist = tmp_path / "baddist.json"
    baddist.write_text('{\n  "kind": "uniform",\n  "a": -3\n}\n')
    code = main(["wegner", "--model", model_file, "--dist", str(baddist),
                 "--lambda", "1"])
    assert code == 2
    assert f"{baddist}:2:" in capsys.readouterr().err


@pytest.mark.parametrize("dist", [{"kind": "uniform", "a": 0}, {"kind": "uniform", "a": -1, "b": 1}])
def test_zero_width_uniform_law_is_refused(tmp_path, model_file, capsys, dist):
    # the support is checked before the density 1/(a + b) is formed: a
    # zero width once ended in a ZeroDivisionError traceback
    out = tmp_path / "run"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "spectrum", "distribution": dist}))
    assert main(["spectrum", "--config", str(cfg), "--model", model_file,
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: distribution: support [-a, b] ")
    # from a --dist file the error names the file and line, like any other
    dist_file = tmp_path / "dist.json"
    dist_file.write_text(json.dumps(dist))
    assert main(["spectrum", "--dist", str(dist_file), "--model", model_file,
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {dist_file}:1: support [-a, b] ")
    assert not out.exists()


def test_command_mismatch_and_runtime_errors(tmp_path, model_file, uniform_file, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "bloch"}))
    assert main(["wegner", "--config", str(cfg), "--model", model_file]) == 2
    assert "bloch" in capsys.readouterr().err

    # gapless model: the numerical error label propagates, exit 1
    gapless = tmp_path / "gapless.json"
    gapless.write_text(json.dumps({"type": "haldane", "t1": 1.0, "t2": T2,
                                   "phi": 0.0, "M": 0.0}))
    out = tmp_path / "run"
    assert main(["chern", "--model", str(gapless), "--out", str(out)]) == 1
    assert "gapless" in capsys.readouterr().err

    # a window side below 1 is an error, not a NaN marker
    for side in ("0", "-2"):
        assert main(["marker", "--model", model_file, "--box-l", "6",
                     "--window-l", side, "--out", str(out)]) == 1
        assert f"window side {side} must be at least 1" in capsys.readouterr().err
    assert not (out / "marker.csv").exists()

    # so is a kernel-decay energy grid of fewer than one point
    for points in ("0", "-2"):
        assert main(["decay", "--model", model_file, "--box-l", "4",
                     f"--grid-points={points}", "--out", str(out)]) == 1
        assert f"grid_points {points} must be at least 1" in capsys.readouterr().err
    assert not (out / "decay.csv").exists()

    # and so is a Bloch grid side below 1, where it used to become grid 8
    for command in ("bloch", "chern", "spectrum", "thresholds"):
        law = ["--dist", uniform_file] if command in ("spectrum", "thresholds") else []
        for side in ("0", "-5"):
            assert main([command, "--model", model_file, *law,
                         f"--grid={side}", "--out", str(out)]) == 1
            assert f"grid side {side} must be at least 1" in capsys.readouterr().err
    # no failed run above wrote an output, a sidecar or the directory
    assert not out.exists()


ENSEMBLE_FLAGS = (["--seed", "1"], ["--realizations", "2"], ["--lambda", "1"],
                  ["--box-l", "6"], ["--bc", "simple"])


def test_commands_take_only_the_shared_flags_their_runner_reads(tmp_path, uniform_file,
                                                                capsys):
    # bloch, chern and phase-diagram read no distribution and no ensemble,
    # spectrum and thresholds no ensemble: argparse refuses those flags
    out = tmp_path / "run"
    cases = [(command, flags) for command in ("bloch", "chern", "phase-diagram")
             for flags in (["--dist", uniform_file], *ENSEMBLE_FLAGS)]
    cases += [(command, flags) for command in ("spectrum", "thresholds")
              for flags in ENSEMBLE_FLAGS]
    for command, flags in cases:
        with pytest.raises(SystemExit) as exit_:
            main([command, *flags, "--out", str(out)])
        assert exit_.value.code == 2, (command, flags)
        assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
    assert not out.exists()


def test_config_sections_a_command_does_not_read_are_refused(tmp_path, model_file,
                                                             uniform_file, capsys):
    law = {"kind": "uniform", "a": 1.0}
    out = tmp_path / "run"
    for command, key, value in [("bloch", "distribution", law),
                                ("chern", "ensemble", {"master_seed": 3}),
                                ("phase-diagram", "distribution", law),
                                ("phase-diagram", "ensemble", {"lam": 1.0}),
                                ("spectrum", "ensemble", {"lam": 1.0}),
                                ("thresholds", "ensemble", {"box_L": 6})]:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": command, "scan": {}, key: value}, indent=2))
        line = 1 + [f'"{key}"' in text for text in cfg.read_text().splitlines()].index(True)
        assert main([command, "--config", str(cfg), "--model", model_file,
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"error: {cfg}:{line}: {command} reads no "
                                           f"{key}, got {value!r}\n")
    assert not out.exists()

    # null and {} stand for an unset section, as every sidecar records
    # one: each such command replays its own sidecar to the same outputs
    replay = tmp_path / "replay"
    for args, name in [(["bloch", "--grid", "8"], "bloch.csv"),
                       (["chern", "--grid", "8"], "chern.csv"),
                       (["phase-diagram", "--grid", "2x3"], "phase_diagram.csv"),
                       (["spectrum", "--dist", uniform_file, "--grid", "8"], "spectrum.csv"),
                       (["thresholds", "--dist", uniform_file, "--grid", "21"],
                        "thresholds.json")]:
        assert main([*args, "--model", model_file, "--out", str(out)]) == 0
        sidecar = (out / name).with_suffix(".json")
        doc = json.loads(sidecar.read_text())
        assert doc["config"]["ensemble"] == {}
        assert main([args[0], "--config", str(sidecar), "--out", str(replay)]) == 0
        again = json.loads((replay / sidecar.name).read_text())
        assert again["config"].pop("output") == str(replay)
        assert doc["config"].pop("output") == str(out)
        assert again == doc
        if name != sidecar.name:  # a CSV; a JSON report is its own sidecar
            assert (replay / name).read_bytes() == (out / name).read_bytes()


def test_config_sections_must_be_json_objects(tmp_path, model_file, uniform_file, capsys):
    # scan and ensemble are JSON objects: a number, a string or a list of
    # pairs is refused on the key's line (exit 2) before anything runs
    out = tmp_path / "run"
    cfg = tmp_path / "cfg.json"
    for command, key, value in [("ids", "scan", 5), ("bloch", "scan", "x"),
                                ("ids", "scan", [["energy_grid", [-1.0, 1.0, 3]]]),
                                ("ids", "ensemble", 5), ("ids", "ensemble", [["lam", 1.0]]),
                                ("ids", "scan", None)]:
        cfg.write_text(json.dumps({"command": command, key: value}, indent=2))
        line = 1 + [f'"{key}"' in text for text in cfg.read_text().splitlines()].index(True)
        law = ["--dist", uniform_file] if command == "ids" else []
        assert main([command, "--config", str(cfg), "--model", model_file, *law,
                     "--out", str(out)]) == 2, (command, key, value)
        assert capsys.readouterr().err == (f"error: {cfg}:{line}: {key} must be a JSON "
                                           f"object, got {value!r}\n")
    assert not out.exists()

    # a null ensemble is an unset one, as a sidecar records it
    cfg.write_text(json.dumps({"command": "ids", "ensemble": None,
                               "scan": {"energy_grid": [-1.0, 1.0, 3]}}))
    assert main(["ids", "--config", str(cfg), "--model", model_file, "--dist", uniform_file,
                 "--out", str(out)]) == 0
    assert json.loads((out / "ids.json").read_text())["config"]["ensemble"] == {}


def test_empty_scan_grids_are_rejected(tmp_path, model_file, uniform_file, tg_file, capsys,
                                       monkeypatch):
    # an empty grid is an error, not a header-only CSV; a config file's
    # scan values pass the same checks as flags, and flag text that does
    # not parse names its flag; every case stops before the first draw
    draws = []
    sample = probes.sample_potential
    monkeypatch.setattr(probes, "sample_potential",
                        lambda *a: draws.append(a[3:]) or sample(*a))
    out = tmp_path / "run"
    cases = [
        (["wegner", "--dist", uniform_file, "--lambda", "2", "--box-l", "4",
          "--eps-grid="], "eps_grid is empty", "wegner.csv"),
        (["msa-probe", "--dist", uniform_file, "--lambda", "0.3",
          "--box-grid="], "box_grid is empty", "msa_probe.csv"),
        (["phase-diagram", "--grid", "0x5"], "grid 0x5", "phase_diagram.csv"),
    ]
    cfg = tmp_path / "pd.json"
    cfg.write_text(json.dumps({"command": "phase-diagram", "scan": {"grid": [0, 5]}}))
    cases.append((["phase-diagram", "--config", str(cfg)], "grid 0x5",
                  "phase_diagram.csv"))
    for command, scan, key in [("ids", {"energy_grid": [-4, 4, 0]}, "energy_grid"),
                               ("spectrum", {"lambda_grid": [0, 3, 0]}, "lambda_grid"),
                               ("spectrum", {"lambda_grid": [-1, 3, 5]}, "lambda_grid"),
                               ("moments", {"t_grid": [1, 10, 0]}, "t_grid"),
                               ("ids", {"energy_grid": 5}, "energy_grid"),
                               ("decay", {"window": 0.3}, "window"),
                               ("decay", {"window": [1, 2, 3]}, "window")]:
        cfg = tmp_path / f"{command}-{len(cases)}.json"
        doc = {"command": command, "distribution": {"kind": "uniform", "a": 1.0},
               "ensemble": {"lam": 1.0, "box_L": 4}, "scan": scan}
        if command == "spectrum":
            del doc["ensemble"]  # spectrum reads no ensemble
        cfg.write_text(json.dumps(doc))
        cases.append(([command, "--config", str(cfg)], key, f"{command}.csv"))
    cases += [
        (["ids", "--energy-grid=1:2"], "--energy-grid:", "ids.csv"),
        (["decay", "--window=1,2,3"], "--window:", "decay.csv"),
        (["phase-diagram", "--grid", "5by5"], "--grid:", "phase_diagram.csv"),
        # a negative disorder strength would write inverted bands
        (["spectrum", "--dist", uniform_file, "--lambda-grid=-1:1:3"],
         "lambda_grid must start at a disorder strength >= 0", "spectrum.csv"),
        # the weight (p/2) ln(1 + 2 * 4^2) fits a double, the sum of the
        # squared moments over realizations does not
        (["moments", "--dist", uniform_file, "--lambda", "2", "--box-l", "8",
          "--realizations", "5", "--p", "400"],
         "moment order overflows double range", "moments.csv"),
        (["wegner", "--dist", uniform_file, "--lambda", "2", "--box-l", "4",
          "--realizations", "40", "--eps-grid=1e-3,0"],
         "eps_grid values must be positive", "wegner.csv"),
        # sides 7 and 13 are admissible, 8 is not
        (["msa-probe", "--dist", uniform_file, "--lambda", "0.3", "--box-grid", "7,13,8",
          "--realizations", "20"], "box_grid side 8", "msa_probe.csv"),
        (["msa-probe", "--dist", uniform_file, "--lambda", "0.3", "--range", "0"],
         "range must be >= 1", "msa_probe.csv"),
        # q <= 0 once divided by zero (q = -1) or took a negative root
        # (q = -3) in the truncated-Gaussian moment bound
        (["thresholds", "--dist", tg_file, "--q=-1"], "q must be > 0", "thresholds.json"),
        (["thresholds", "--dist", tg_file, "--q=-3"], "q must be > 0", "thresholds.json"),
    ]
    for args, message, name in cases:
        assert main(args + ["--model", model_file, "--out", str(out)]) == 1, args
        assert message in capsys.readouterr().err, args
        assert not (out / name).exists(), args
    assert draws == []


def test_overflowing_shifts_are_refused_or_counted_exactly(tmp_path, model_file,
                                                          uniform_file, capsys):
    # lam v - E overflows to -inf on some sites: msa-probe refuses the
    # H - E that is not finite instead of solving it and reporting 1
    out = tmp_path / "run"
    assert main(["msa-probe", "--model", model_file, "--dist", uniform_file,
                 "--lambda", "1e308", "--energy=1e308", "--box-grid", "7",
                 "--bc", "periodic", "--theta", "1", "--realizations", "4",
                 "--out", str(out)]) == 1
    assert "H - x is not finite at x = 1e+308" in capsys.readouterr().err
    assert not (out / "msa_probe.csv").exists()
    # wegner's window (-inf, 0) at E = -1e308, eps = 1e308 holds every
    # eigenvalue below 0, so each realization hits; the lower end needs
    # no factor
    assert main(["wegner", "--model", model_file, "--dist", uniform_file,
                 "--lambda", "2", "--box-l", "4", "--realizations", "3",
                 "--energy=-1e308", "--eps-grid=1e308", "--out", str(out)]) == 0
    _, _, rows = read_csv(out / "wegner.csv")
    assert [row[:2] for row in rows] == [["1e+308", "1"]]


def test_cached_parser_parses_an_argv_alike_after_another_command():
    # main reuses one argparse tree per process, so a parse must leave
    # nothing behind that changes the next one
    argv = ["marker", "--model", "m.json", "--lambda", "0.5", "--box-l", "12",
            "--energy", "0.25", "--window-l", "4"]
    first = _build_parser().parse_args(argv)
    other = _build_parser().parse_args(["wegner", "--seed", "3", "--bc", "simple",
                                        "--energy", "1.5", "--eps-grid", "0.1,0.2"])
    again = _build_parser().parse_args(argv)
    assert _build_parser() is _build_parser()
    assert other.command == "wegner" and other.scan_energy == "1.5"
    assert again == first
    assert first.command == "marker" and first.scan_window_L == "4" and first.seed is None


def test_console_script_entry_point(tmp_path, model_file):
    out = tmp_path / "run"
    proc = subprocess.run(
        [sys.executable, "-m", "chernlab.cli", "bloch", "--model", model_file,
         "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert (out / "bloch.csv").exists()
    assert "RuntimeWarning" not in proc.stderr


def _fresh(code: str) -> list[str]:
    """The whitespace-separated words ``code`` prints in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


@pytest.mark.parametrize("module", ["scipy", "scipy.optimize", "scipy.stats", "scipy.sparse"])
def test_cli_import_leaves_scipy_module_unloaded(module):
    # at start-up scipy.optimize would cost every CLI process about 0.2 s
    # and 17 MB (the threshold's golden section lives in bounds),
    # scipy.stats about half a second; the resolvent is one dense LAPACK
    # solve and needs no sparse stack. No scipy module loads at all (any
    # of them loads the package "scipy"): the layers that use it load on
    # first use, and model, lattice and bloch need numpy alone
    code = f"import chernlab, chernlab.cli, sys; print({module!r} in sys.modules)"
    assert _fresh(code) == ["False"]


def test_scipy_loads_only_in_commands_that_call_it(tmp_path):
    # the clean phase diagram, band edges and Chern number never load
    # scipy; a marker run solves with scipy's LAPACK
    code = f"""
import sys
from chernlab.cli import main
for argv in (["phase-diagram", "--grid", "3x3"], ["bloch"], ["chern"]):
    assert main([*argv, "--out", {str(tmp_path)!r}]) == 0
clean = any(m.startswith("scipy") for m in sys.modules)
assert main(["marker", "--box-l", "4", "--out", {str(tmp_path)!r}]) == 0
print(clean, "scipy.linalg" in sys.modules)
"""
    assert _fresh(code)[-2:] == ["False", "True"]


def test_package_attribute_loads_its_layer():
    code = """
import chernlab
print(chernlab.probes.__name__, "chernlab.probes" in __import__("sys").modules)
try:
    chernlab.nothing
except AttributeError:
    print("AttributeError")
"""
    assert _fresh(code) == ["chernlab.probes", "True", "AttributeError"]
