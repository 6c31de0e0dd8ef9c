import json

import numpy as np
import pytest

from driftscope.cli import run_command

STAGES = ("gen-data", "fit", "sinogram", "invert", "solve", "recover")
DGF_FILES = ("V_hat.dgf", "u.dgf", "psi_hat.dgf", "c_hat_x.dgf", "c_hat_y.dgf")


def small_disc_config(**overrides):
    raw = {
        "domain": {"kind": "disc", "radius": 1.0},
        "grid": {"x0": -1.15, "y0": -1.15, "x1": 1.15, "y1": 1.15, "nx": 33, "ny": 33},
        "geometry": {"n_angles": 24, "n_offsets": 25},
        "kernels": {"observed": {"kind": "ou", "theta": 1.0},
                    "reference": {"kind": "brownian"}},
        "ground_truth": {"kind": "ou", "theta": 1.0},
        "workers": 1,
    }
    raw.update(overrides)
    return raw


def write_config(path, raw):
    # json writes NaN / Infinity tokens, which the config reader accepts
    path.write_text(json.dumps(raw))
    return str(path)


@pytest.mark.parametrize("overrides", [
    {"boundary_knots": 0},
    {"boundary_knots": -4},
    {"seed": "x"},
    {"seed": 1.5},
    {"workers": "two"},
    {"workers": 2.5},
    {"workers": 0},
    {"ladder": [0.02, float("nan"), 0.005]},
    {"ladder": [float("inf"), 0.01, 0.005]},
    {"density_floor": -1e-30},
    {"density_floor": float("nan")},
    {"density_floor": float("inf")},
    {"metric_fraction": 0.0},
    {"metric_fraction": 1.5},
    {"metric_fraction": float("nan")},
], ids=lambda o: "-".join(f"{k}={v}" for k, v in o.items()))
def test_invalid_config_exits_2(tmp_path, capsys, overrides):
    config = write_config(tmp_path / "config.json", small_disc_config(**overrides))
    assert run_command(["gen-data", "--config", config, "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "dataset.csv").exists()


def test_stage_chain_matches_pipeline(tmp_path, capsys):
    chain, whole = tmp_path / "chain", tmp_path / "pipeline"
    config = write_config(tmp_path / "config.json", small_disc_config())
    for stage in STAGES:
        assert run_command([stage, "--config", config, "--out", str(chain)]) == 0, stage
    assert run_command(["pipeline", "--config", config, "--out", str(whole)]) == 0
    for name in DGF_FILES + ("dataset.csv", "fits.csv", "sinogram.csv"):
        assert (chain / name).read_bytes() == (whole / name).read_bytes(), name
    chain_report = json.loads((chain / "report.json").read_text())
    whole_report = json.loads((whole / "report.json").read_text())
    assert np.isfinite(whole_report["rel_l2"])
    assert chain_report["rel_l2"] == whole_report["rel_l2"]


def test_check_passes(capsys):
    assert run_command(["check"]) == 0
    out = capsys.readouterr().out
    assert "np.float64" not in out
    assert out.strip().splitlines()[-1].split()[-1] == "PASS"
