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

from chernlab.bloch import band_structure
from chernlab.cli import ExperimentConfig, main
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
    assert r["gap_over_2a0"] == pytest.approx(4.3501854733946225e-31, rel=1e-9)
    assert r["lambda_rho_coefficient"] == pytest.approx(39.97427732805992, rel=1e-9)
    assert r["lambda_rho_coefficient"] <= 39.98
    assert doc["schema_version"] == 1
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
    assert text.startswith("# schema-version: 1\n")
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
# schema-version: 1
# command: wegner
# energy: 0
eps,empirical,upper_99,bound,n
0.001,0,0.20973346885562544,0.40212385965949354,25
0.01,0.080000000000000002,0.32039002368145975,1,25
0.10000000000000001,0.88,0.96911994190631312,1,25
"""

IDS_PINNED = """\
# schema-version: 1
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


def test_command_mismatch_and_runtime_errors(tmp_path, model_file, capsys):
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


def test_empty_scan_grids_are_rejected(tmp_path, model_file, uniform_file, capsys):
    # an empty grid is an error, not a header-only CSV; a config file's
    # scan values pass the same checks as flags, and flag text that does
    # not parse names its flag
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
                               ("moments", {"t_grid": [1, 10, 0]}, "t_grid"),
                               ("ids", {"energy_grid": 5}, "energy_grid"),
                               ("decay", {"window": 0.3}, "window"),
                               ("decay", {"window": [1, 2, 3]}, "window")]:
        cfg = tmp_path / f"{command}-{len(cases)}.json"
        cfg.write_text(json.dumps({
            "command": command, "distribution": {"kind": "uniform", "a": 1.0},
            "ensemble": {"lam": 1.0, "box_L": 4}, "scan": scan}))
        cases.append(([command, "--config", str(cfg)], key, f"{command}.csv"))
    cases += [
        (["ids", "--energy-grid=1:2"], "--energy-grid:", "ids.csv"),
        (["decay", "--window=1,2,3"], "--window:", "decay.csv"),
        (["phase-diagram", "--grid", "5by5"], "--grid:", "phase_diagram.csv"),
    ]
    for args, message, name in cases:
        assert main(args + ["--model", model_file, "--out", str(out)]) == 1, args
        assert message in capsys.readouterr().err, args
        assert not (out / name).exists(), args


def test_console_script_entry_point(tmp_path, model_file):
    out = tmp_path / "run"
    proc = subprocess.run(
        [sys.executable, "-m", "chernlab.cli", "bloch", "--model", model_file,
         "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert (out / "bloch.csv").exists()
    assert "RuntimeWarning" not in proc.stderr


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs every CLI process about half a second at start-up
    proc = subprocess.run(
        [sys.executable, "-c",
         "import chernlab.cli, sys; print('scipy.stats' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
