import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import driftscope
from driftscope.cli import run_command

STAGES = ("gen-data", "fit", "sinogram", "invert", "solve", "recover")
DGF_FILES = ("V_hat.dgf", "u.dgf", "psi_hat.dgf", "c_hat_x.dgf", "c_hat_y.dgf")
# the options naming each stage's input files, with the files' names
INPUT_OPTIONS = {
    "fit": (("--data", "dataset.csv"),),
    "sinogram": (("--fits", "fits.csv"),),
    "invert": (("--sinogram", "sinogram.csv"),),
    "solve": (("--vhat", "V_hat.dgf"), ("--fits", "fits.csv")),
    "recover": (("--psi", "psi_hat.dgf"),),
}


# malformed input files, by name
BAD_INPUTS = {
    "big.csv": b"n_angles,n_offsets,R\r\n1000000000,1000000000,1.0\r\n"
               b"angle_index,offset_index,value,valid\r\n0,0,0.5,1\r\n",
    "short.dgf": b"DGF1\x01\x00",
}


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


# a 17^2 grid on [-1, 1]^2 and a three-time ladder, for the tiny domains
TINY = {"grid": {"x0": -1.0, "y0": -1.0, "x1": 1.0, "y1": 1.0, "nx": 17, "ny": 17},
        "ladder": [0.02, 0.01, 0.005]}


# references other than the driftless kernel, each of which ran to exit 0
# while the reference was a setting (with rel_l2 1.0, 0.63 and none): the
# observed kernel itself, an OU kernel under a faster OU one, and an OU
# kernel under Brownian motion
NOT_DRIFTLESS = {
    "ou1-ou1": {"kernels": {"observed": {"kind": "ou", "theta": 1.0},
                            "reference": {"kind": "ou", "theta": 1.0}}},
    "ou2-ou1": {"kernels": {"observed": {"kind": "ou", "theta": 2.0},
                            "reference": {"kind": "ou", "theta": 1.0}}, "ground_truth": True},
    "brownian-ou1": {"kernels": {"observed": {"kind": "brownian"},
                                 "reference": {"kind": "ou", "theta": 1.0}}, "ground_truth": True},
}


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
    {"workers": "null"},
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
    {"output_dir": None},
    {"output_dir": ""},
    {"kernels": {"observed": {"kind": "ou", "theta": 0.0}, "reference": {"kind": "brownian"}}},
    {"kernels": {"observed": {"kind": "ou", "theta": 1.0}, "reference": {"kind": "ou", "theta": -2.0}}},
    {"grid": {"x0": -0.9, "y0": -1.15, "x1": 1.15, "y1": 1.15, "nx": 33, "ny": 33}},
    {"grid": None, "domain": {"kind": "rectangle", "corners": [[1.0, -0.7], [1.0, 0.7]]}},
    {"grid": None, "domain": {"kind": "rectangle", "corners": [[-1.0, -0.7], [1.0, 1.7e308]]}},
    # a domain whose circumradius squared is not a positive normal float
    {"grid": None, "domain": {"kind": "disc", "radius": 1e200}},
    {"grid": None, "domain": {"kind": "disc", "radius": 1e200}, "ladder": TINY["ladder"]},
    {"grid": None, "domain": {"kind": "disc", "radius": 1e-200}},
    {"grid": None, "domain": {"kind": "rectangle", "corners": [[0.0, 0.0], [1e200, 1e200]]}},
    {**TINY, "domain": {"kind": "disc", "radius": 1e-200}},
    {**TINY, "domain": {"kind": "rectangle", "corners": [[0.0, 0.0], [1e-200, 1e-200]]}},
    # a key that the section's kind does not take
    {"domain": {"kind": "disc", "radius": 1.0, "corners": [[-1.0, -1.0], [1.0, 1.0]]}},
    {"grid": None, "domain": {"kind": "rectangle", "corners": [[-1.0, -0.7], [1.0, 0.7]],
                              "radius": 1.0}},
    *({"kernels": {"observed": {"kind": "ou", "theta": 1.0},
                   "reference": {"kind": "brownian", key: value}}}
      for key, value in [("theta", 1.0), ("theta1", 1.0), ("theta2", 1.0), ("offset", [0.0, 0.0])]),
    *({"kernels": {"observed": {"kind": "ou", "theta": 1.0, key: value},
                   "reference": {"kind": "brownian"}}}
      for key, value in [("theta1", 1.0), ("theta2", 1.0), ("offset", [0.0, 0.0])]),
    {"ground_truth": {"kind": "zero", "theta": 1.0}},
    # a negative product_ou rate is refused, not run as a driftless component
    {"kernels": {"observed": {"kind": "product_ou", "theta1": -1.0}, "reference": {"kind": "brownian"}},
     "ground_truth": None},
    # a ground_truth spec that is not the observed kernel, whose drift scores the run
    {"ground_truth": {"kind": "ou", "theta": 3.0}},
    {"kernels": {"observed": {"kind": "product_ou", "theta1": 1.0, "theta2": 2.0},
                 "reference": {"kind": "brownian"}}},
    *NOT_DRIFTLESS.values(),
], ids=lambda o: "-".join(f"{k}={v}" for k, v in o.items()))
def test_invalid_config_exits_2(tmp_path, capsys, overrides):
    config = write_config(tmp_path / "config.json", small_disc_config(**overrides))
    assert run_command(["gen-data", "--config", config, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "dataset.csv").exists()


@pytest.mark.parametrize("overrides, message", [
    ({"kernels": {"observed": {"kind": "product_ou", "theta1": -1.0},
                  "reference": {"kind": "brownian"}}},
     "kernels.observed.theta1 must not be negative, got -1.0"),
    ({"kernels": {"observed": {"kind": "ou", "theta": 0.0}, "reference": {"kind": "brownian"}}},
     "kernels.observed.theta must be positive, got 0.0"),
    ({"kernels": {"observed": {"kind": "ou", "theta": 1.0},
                  "reference": {"kind": "ou", "theta": -2.0}}},
     "kernels.reference.theta must be positive, got -2.0"),
    ({"ground_truth": {"kind": "ou", "theta": -1.0}},
     "ground_truth.theta must be positive, got -1.0; "
     "give ground_truth true to score against kernels.observed"),
], ids=["product_ou-theta1", "ou-theta", "reference-theta", "ground_truth-theta"])
def test_ou_rate_out_of_range_names_its_key(tmp_path, capsys, overrides, message):
    config = write_config(tmp_path / "config.json", small_disc_config(**overrides))
    assert run_command(["gen-data", "--config", config, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("command", ["gen-data", "pipeline"])
@pytest.mark.parametrize("case", sorted(NOT_DRIFTLESS))
def test_reference_that_is_not_driftless_names_kernels_reference(tmp_path, capsys, command, case):
    config = write_config(tmp_path / "config.json", small_disc_config(**NOT_DRIFTLESS[case]))
    out = tmp_path / "out"
    assert run_command([command, "--config", config, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: kernels.reference must be the driftless kernel of "
                          "the observed diffusion, ") and err.count("\n") == 1
    assert "Traceback" not in err and not out.exists()


def test_omitted_reference_runs_as_the_brownian_one(tmp_path):
    """kernels.reference may be left out: pipeline and the stage chain then
    leave the files that an explicit {"kind": "brownian"} leaves, byte for
    byte."""
    explicit = small_disc_config()
    omitted = small_disc_config(kernels={"observed": explicit["kernels"]["observed"]})
    for name, raw in (("explicit", explicit), ("omitted", omitted)):
        config = write_config(tmp_path / f"{name}.json", raw)
        assert run_command(["pipeline", "--config", config,
                            "--out", str(tmp_path / name / "pipeline")]) == 0
        for stage in STAGES:
            assert run_command([stage, "--config", config,
                                "--out", str(tmp_path / name / "chain")]) == 0, stage
    for run in ("pipeline", "chain"):
        for file in ("dataset.csv", "fits.csv", "sinogram.csv", *DGF_FILES):
            assert ((tmp_path / "omitted" / run / file).read_bytes()
                    == (tmp_path / "explicit" / run / file).read_bytes()), (run, file)
        rel_l2 = [comparable_report(tmp_path / name / run)["rel_l2"]
                  for name in ("explicit", "omitted")]
        assert rel_l2[0] == rel_l2[1] is not None


def test_tiny_disc_runs(tmp_path):
    """A disc of radius 1e-9 runs on a grid of its own size: its chords,
    ~1e-9 long, are not taken for chords whose ends coincide."""
    raw = small_disc_config(
        domain={"kind": "disc", "radius": 1e-9}, geometry={"n_angles": 12, "n_offsets": 13},
        grid={"x0": -1.15e-9, "y0": -1.15e-9, "x1": 1.15e-9, "y1": 1.15e-9, "nx": 17, "ny": 17})
    config = write_config(tmp_path / "config.json", raw)
    assert run_command(["pipeline", "--config", config, "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("command", ["gen-data", "pipeline"])
def test_grid_with_no_unknown_exits_2_at_parse(tmp_path, capsys, command):
    """A disc of radius 1e-9 on the 17^2 grid over [-1, 1]^2 holds no grid
    node: the config is refused before any stage runs, not at solve after
    four stages."""
    raw = small_disc_config(**TINY, domain={"kind": "disc", "radius": 1e-9},
                            geometry={"n_angles": 12, "n_offsets": 13})
    config = write_config(tmp_path / "config.json", raw)
    out = tmp_path / "out"
    assert run_command([command, "--config", config, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: no node of the 17x17 grid lies inside the domain, clear of its "
        "boundary: the solve has no unknown\n")
    assert not out.exists()


@pytest.mark.parametrize("overrides, radius", [
    ({"grid": None, "domain": {"kind": "disc", "radius": 1e200}}, "1e+200"),
    ({**TINY, "domain": {"kind": "rectangle", "corners": [[0.0, 0.0], [1e-200, 1e-200]]}},
     "7.071067811865475e-201"),
], ids=["huge disc", "tiny rectangle"])
def test_domain_out_of_float_range_names_domain(tmp_path, capsys, overrides, radius):
    config = write_config(tmp_path / "config.json", small_disc_config(**overrides))
    assert run_command(["pipeline", "--config", config, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (f"config error: domain circumradius {radius} is out of "
                                       "range: its square must be a positive normal float\n")


def test_removed_density_floor_key_exits_2(tmp_path, capsys):
    # the density floor went with the densities: the key is now unknown
    config = write_config(tmp_path / "config.json", small_disc_config(density_floor=1e-30))
    assert run_command(["gen-data", "--config", config, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "config error: unknown key 'density_floor' in config\n"


def test_removed_gauge_param_key_exits_2(tmp_path, capsys):
    # psi is written in the one gauge boundary_psi_from_fits returns: the key is now unknown
    config = write_config(tmp_path / "config.json", small_disc_config(gauge_param=0.0))
    assert run_command(["gen-data", "--config", config, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "config error: unknown key 'gauge_param' in config\n"


@pytest.mark.parametrize("command, out, reason", [
    ("gen-data", "file/sub", "Not a directory"),
    ("pipeline", "file", "File exists"),
    ("phantom", "file", "File exists"),
])
def test_output_directory_that_cannot_be_made_exits_2(tmp_path, capsys, command, out, reason):
    (tmp_path / "file").write_text("")
    argv = [command, "--out", str(tmp_path / out)]
    if command != "phantom":
        argv += ["--config", write_config(tmp_path / "config.json", small_disc_config())]
    assert run_command(argv) == 2
    assert capsys.readouterr().err == (
        f"config error: cannot create output directory {tmp_path / out}: {reason}\n")


def edited_dataset(tmp_path, edit):
    """A config and the path of a copy of its gen-data dataset.csv, with
    `edit` applied to the copy's rows, each a list of fields (header first)."""
    config = write_config(tmp_path / "config.json", small_disc_config())
    assert run_command(["gen-data", "--config", config, "--out", str(tmp_path)]) == 0
    rows = [line.split(",") for line in (tmp_path / "dataset.csv").read_text().splitlines()]
    edit(rows)
    bad = tmp_path / "bad_dataset.csv"
    bad.write_text("".join(",".join(row) + "\n" for row in rows))
    return config, bad


@pytest.mark.parametrize("time", ["-0.0025", "0.0", "inf", "nan"])
def test_nonpositive_or_non_finite_time_exits_3(tmp_path, capsys, time):
    """One time of a dataset that is not finite and positive is a data error,
    not a fit of the wrong sign or an unrelated failure downstream."""
    def edit(rows):
        rows[5][rows[0].index("t")] = time

    config, bad = edited_dataset(tmp_path, edit)
    capsys.readouterr()
    assert run_command(["fit", "--config", config, "--out", str(tmp_path), "--data", str(bad)]) == 3
    err = capsys.readouterr().err
    assert err == (f"data error: [stage fit] {bad}: times must be finite and positive, "
                   f"got t={float(time)!r}\n")
    assert not (tmp_path / "fits.csv").exists()


@pytest.mark.parametrize("case", ["no log_ratio column", "blank log_ratio"])
def test_dataset_without_log_ratio_exits_3(tmp_path, capsys, case):
    """The log ratio is the one datum of a dataset row: a file without the
    column, or a row with the field left blank, is a data error."""
    def edit(rows):
        j = rows[0].index("log_ratio")
        if case == "blank log_ratio":
            rows[5][j] = ""
        else:
            for row in rows:
                del row[j]

    config, bad = edited_dataset(tmp_path, edit)
    capsys.readouterr()
    assert run_command(["fit", "--config", config, "--out", str(tmp_path), "--data", str(bad)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: [stage fit] {bad}: "), err
    assert "Traceback" not in err


def test_chord_without_rows_is_excluded_and_masked(tmp_path, capsys):
    """dataset.csv is read against the config's chords: a chord with no rows
    has no observation, so its fit is excluded and its sinogram bin masked.
    A row off the config's raster is ignored."""
    def edit(rows):
        rows[:] = [row for row in rows if row[:2] != ["3", "5"]]
        rows.append(["24", "0", "0.02", "1.0"])

    config, bad = edited_dataset(tmp_path, edit)
    assert run_command(["fit", "--config", config, "--out", str(tmp_path), "--data", str(bad)]) == 0
    assert run_command(["sinogram", "--config", config, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["n_chords_excluded"] == 1
    assert report["sinogram_masked_bins"] == 1
    fits = (tmp_path / "fits.csv").read_text().splitlines()
    assert len(fits) == report["n_chords"] and not any(line.startswith("3,5,") for line in fits)
    masked = [line for line in (tmp_path / "sinogram.csv").read_text().splitlines()[3:]
              if line.endswith(",0")]
    assert [line.split(",")[:2] for line in masked] == [["3", "5"]]


PRODUCT_OU = {"observed": {"kind": "product_ou", "theta1": 1.0, "theta2": 0.5, "offset": [0.1, -0.2]},
              "reference": {"kind": "brownian"}}
# an off-center domain, the centered one of the same shape, and the
# config's other entries
OFF_CENTER = {
    "disc": ({"kind": "disc", "center": [0.5, 0], "radius": 1.0},
             {"kind": "disc", "radius": 1.0}, {}),
    "disc-product_ou": ({"kind": "disc", "center": [0.5, 0], "radius": 1.0},
                        {"kind": "disc", "radius": 1.0},
                        {"kernels": PRODUCT_OU, "ground_truth": True}),
    "rectangle": ({"kind": "rectangle", "corners": [[0, 0], [2, 1.4]]},
                  {"kind": "rectangle", "corners": [[-1, -0.7], [1, 0.7]]}, {}),
}


@pytest.mark.parametrize("kind", sorted(OFF_CENTER))
def test_off_center_domain_runs(tmp_path, kind):
    """The raster is measured from the domain's center: an off-center domain
    on its default grid runs through pipeline and the stage chain with the
    same report, and its rel_l2 is within 2x of the centered domain's.  A
    product_ou kernel with an offset is scored against its own drift."""
    off_center, centered, entries = OFF_CENTER[kind]
    chain, whole = str(tmp_path / "chain"), str(tmp_path / "pipeline")
    raw = small_disc_config(grid=None, domain=off_center, **entries)
    config = write_config(tmp_path / "config.json", raw)
    for stage in STAGES:
        assert run_command([stage, "--config", config, "--out", chain]) == 0, stage
    assert run_command(["pipeline", "--config", config, "--out", whole]) == 0
    report = comparable_report(tmp_path / "pipeline")
    assert comparable_report(tmp_path / "chain") == report
    raw = small_disc_config(grid=None, domain=centered, **entries)
    config = write_config(tmp_path / "centered.json", raw)
    assert run_command(["pipeline", "--config", config, "--out", str(tmp_path / "centered")]) == 0
    assert report["rel_l2"] <= 2.0 * comparable_report(tmp_path / "centered")["rel_l2"]


def test_numeric_string_offset_runs_gen_data(tmp_path):
    # the config takes numeric strings as numbers, the product kernel too
    kernels = {"observed": {"kind": "product_ou", "theta1": 1.0, "offset": ["0.1", "0"]},
               "reference": {"kind": "brownian"}}
    config = write_config(tmp_path / "config.json",
                          small_disc_config(kernels=kernels, ground_truth=True))
    assert run_command(["gen-data", "--config", config, "--out", str(tmp_path / "strings")]) == 0
    kernels["observed"]["offset"] = [0.1, 0.0]
    config = write_config(tmp_path / "config.json",
                          small_disc_config(kernels=kernels, ground_truth=True))
    assert run_command(["gen-data", "--config", config, "--out", str(tmp_path / "numbers")]) == 0
    assert ((tmp_path / "strings" / "dataset.csv").read_bytes()
            == (tmp_path / "numbers" / "dataset.csv").read_bytes())


def test_undecodable_config_exits_2(tmp_path, capsys):
    (tmp_path / "config.json").write_bytes(b"\xff\xfe")
    assert run_command(["gen-data", "--config", str(tmp_path / "config.json"),
                        "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err


def comparable_report(out_dir):
    """report.json without its run-specific parts."""
    report = json.loads((out_dir / "report.json").read_text())
    del report["meta"], report["config"]["output_dir"]
    return report


def test_stage_chain_matches_pipeline(tmp_path, capsys):
    chain, whole, by_option = tmp_path / "chain", tmp_path / "pipeline", tmp_path / "by-option"
    config = write_config(tmp_path / "config.json", small_disc_config())
    for stage in STAGES:
        assert run_command([stage, "--config", config, "--out", str(chain)]) == 0, stage
    assert run_command(["pipeline", "--config", config, "--out", str(whole)]) == 0
    for name in DGF_FILES + ("dataset.csv", "fits.csv", "sinogram.csv"):
        assert (chain / name).read_bytes() == (whole / name).read_bytes(), name
    whole_report = comparable_report(whole)
    assert np.isfinite(whole_report["rel_l2"])
    assert comparable_report(chain) == whole_report
    assert sorted(p.name for p in chain.iterdir()) == sorted(p.name for p in whole.iterdir())
    assert not (chain / "solve_diagnostics.csv").exists()
    # every input named by its option: <out> holds no default input file
    for stage, inputs in INPUT_OPTIONS.items():
        options = [arg for option, name in inputs for arg in (option, str(chain / name))]
        assert run_command([stage, "--config", config, "--out", str(by_option), *options]) == 0, stage
    for name in DGF_FILES + ("fits.csv", "sinogram.csv"):
        assert (by_option / name).read_bytes() == (whole / name).read_bytes(), name
    assert not (by_option / "dataset.csv").exists()


# one CLI stage in a fresh interpreter; its last stdout line says whether
# the stage loaded scipy
# prints which of scipy, scipy.sparse and the scipy linalg packages the stage loaded
SCIPY_PACKAGES = ("scipy", "scipy.sparse", "scipy.sparse.linalg", "scipy.linalg")
FRESH_STAGE = ("import sys\n"
               "from driftscope.cli import run_command\n"
               "code = run_command(sys.argv[1:])\n"
               f"print(','.join(m for m in {SCIPY_PACKAGES!r} if m in sys.modules))\n"
               "sys.exit(code)\n")


def fresh_env():
    """The environment with this checkout's driftscope first on the path."""
    src = str(Path(driftscope.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_python_m_driftscope_runs_the_cli(tmp_path):
    config = write_config(tmp_path / "config.json", small_disc_config())
    proc = subprocess.run([sys.executable, "-m", "driftscope", "gen-data", "--config", config,
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, env=fresh_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "dataset.csv").is_file()


def test_fresh_process_stage_chain_matches_pipeline(tmp_path):
    """Each stage in its own interpreter, as a user runs the chain: no stage
    leans on module state an earlier stage left behind, and only solve loads
    scipy, and of it only scipy.sparse, not its linalg packages."""
    chain, whole = tmp_path / "chain", tmp_path / "pipeline"
    config = write_config(tmp_path / "config.json", small_disc_config())
    env = fresh_env()
    loaded = {}
    for stage in STAGES:
        proc = subprocess.run([sys.executable, "-c", FRESH_STAGE, stage, "--config", config,
                               "--out", str(chain)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, (stage, proc.stderr)
        loaded[stage] = proc.stdout.splitlines()[-1]
    assert run_command(["pipeline", "--config", config, "--out", str(whole)]) == 0
    for name in DGF_FILES + ("dataset.csv", "fits.csv", "sinogram.csv"):
        assert (chain / name).read_bytes() == (whole / name).read_bytes(), name
    assert comparable_report(chain) == comparable_report(whole)
    assert loaded == {stage: "scipy,scipy.sparse" if stage == "solve" else "" for stage in STAGES}


@pytest.mark.parametrize("stage, code, prefix", [
    *((stage, 3, f"data error: [stage {stage}] input file not found: ") for stage in STAGES[1:]),
    ("solve", 4, "solver error: [stage solve] no convergence in 1 iterations"),
    ("pipeline", 4, "solver error: [stage solve] no convergence in 1 iterations"),
    ("invert --sinogram big.csv", 3, "data error: [stage invert] {input}:"),
    ("solve --vhat short.dgf", 3, "data error: [stage solve] {input}:"),
    *((f"phantom {option} {value}", 2, f"config error: {option} must be at least {least}, got ")
      for option, value, least in (("--n", 1, 2), ("--n", -3, 2), ("--angles", 0, 1),
                                   ("--offsets", 0, 1))),
    *((f"phantom --kind {kind} --width {width}", 2, "config error: --width must be positive, got ")
      for kind, width in (("disc", -0.5), ("radial-gaussian", 0), ("disc", "nan"))),
    # width**2 overflows (a Python OverflowError) or underflows to 0, and a
    # non-finite amplitude, are refused before the output directory is made
    *((f"phantom --kind {kind} --width {width!r}", 2,
       f"config error: --width {width!r} is out of range: its square must be a positive normal float")
      for kind in ("disc", "radial-gaussian") for width in (1e308, 1e-300)),
    *((f"phantom --kind {kind} --amplitude={amplitude}", 2,
       "config error: --amplitude must be finite, got ")
      for kind in ("disc", "radial-gaussian") for amplitude in ("nan", "inf", "-inf")),
])
def test_error_exit_codes(tmp_path, capsys, stage, code, prefix):
    config = write_config(tmp_path / "config.json", small_disc_config())
    if code == 4:
        if stage == "solve":  # its inputs come from the stages before it
            for earlier in STAGES[:4]:
                assert run_command([earlier, "--config", config, "--out", str(tmp_path)]) == 0
        config = write_config(tmp_path / "max_iter.json", small_disc_config(solver={"max_iter": 1}))
    capsys.readouterr()
    if stage.startswith("phantom"):  # phantom takes its sizes as options, not a config
        argv = [*stage.split(), "--out", str(tmp_path / "phantom")]
    else:
        name, *option = stage.split()
        argv = [name, "--config", config, "--out", str(tmp_path)]
        if option:  # a malformed input file
            path = tmp_path / option[1]
            path.write_bytes(BAD_INPUTS[option[1]])
            argv += [option[0], str(path)]
            prefix = prefix.format(input=path)
    assert run_command(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix), err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    assert not (tmp_path / "phantom").exists()


def test_failed_pipeline_leaves_the_files_the_chain_leaves(tmp_path, capsys):
    """pipeline writes each stage's outputs when the stage ends: a solve that
    fails leaves the files of the stages before it, as the stage chain does."""
    chain, whole = tmp_path / "chain", tmp_path / "pipeline"
    config = write_config(tmp_path / "config.json", small_disc_config(solver={"max_iter": 1}))
    for stage in STAGES[:4]:
        assert run_command([stage, "--config", config, "--out", str(chain)]) == 0
    assert run_command(["solve", "--config", config, "--out", str(chain)]) == 4
    assert run_command(["pipeline", "--config", config, "--out", str(whole)]) == 4
    for name in ("dataset.csv", "fits.csv", "sinogram.csv", "V_hat.dgf"):
        assert (whole / name).read_bytes() == (chain / name).read_bytes(), name
    for name in ("u.dgf", "psi_hat.dgf", "c_hat_x.dgf"):
        assert not (whole / name).exists() and not (chain / name).exists(), name


# sizes no machine holds: a dense 100,000^2 normal matrix (74.5 GiB, but the
# knots lack chords first), a 100,000 x 100,001 chord raster (149 GiB) and a
# 200,000^2 grid (298 GiB)
OUT_OF_MEMORY = {
    "boundary_knots": ({"boundary_knots": 100000}, 3, "data error: [stage solve] "),
    "geometry": ({"geometry": {"n_angles": 100000, "n_offsets": 100001}}, 2,
                 "config error: out of memory: "),
    "grid": ({"grid": {"x0": -1.15, "y0": -1.15, "x1": 1.15, "y1": 1.15,
                       "nx": 200000, "ny": 200000}}, 2, "config error: out of memory: "),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_MEMORY))
def test_configs_too_large_for_memory_exit_cleanly(tmp_path, case):
    # run in a child whose address space is capped at 32 GiB, so that an
    # allocation fails at once even where the kernel overcommits memory
    overrides, code, prefix = OUT_OF_MEMORY[case]
    config = write_config(tmp_path / "config.json", small_disc_config(**overrides))
    limit = "import resource; resource.setrlimit(resource.RLIMIT_AS, (2**35, 2**35)); "
    proc = subprocess.run(
        [sys.executable, "-c", limit + "from driftscope.cli import main; main()",
         "pipeline", "--config", config, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=fresh_env(), timeout=120)
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.startswith(prefix) and proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.parametrize("stage", ["sinogram", "solve"])
def test_non_finite_fit_row_exits_3(tmp_path, capsys, stage):
    """A fits.csv row with NaN delta_psi and F is a data error when the file
    is read, not a solve that runs out of iterations on a NaN residual."""
    config = write_config(tmp_path / "config.json", small_disc_config())
    for earlier in STAGES[:4]:
        assert run_command([earlier, "--config", config, "--out", str(tmp_path)]) == 0
    header, row, *rest = (tmp_path / "fits.csv").read_text().splitlines()
    fields = row.split(",")
    fields[2:4] = ["nan", "nan"]
    bad = tmp_path / "bad_fits.csv"
    bad.write_text("\n".join([header, ",".join(fields), *rest]) + "\n")
    capsys.readouterr()
    assert run_command([stage, "--config", config, "--out", str(tmp_path),
                        "--fits", str(bad)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: [stage {stage}] {bad}: "), err
    assert "Traceback" not in err


def test_recover_rerun_replaces_metrics(tmp_path, capsys):
    """Re-running recover without ground truth drops the earlier run's error
    metrics: the chain's report then equals pipeline's without ground truth."""
    chain, whole = tmp_path / "chain", tmp_path / "pipeline"
    config = write_config(tmp_path / "config.json", small_disc_config())
    for stage in STAGES:
        assert run_command([stage, "--config", config, "--out", str(chain)]) == 0, stage
    assert "rel_l2" in comparable_report(chain)
    no_truth = small_disc_config()
    del no_truth["ground_truth"]
    config = write_config(tmp_path / "no_truth.json", no_truth)
    assert run_command(["recover", "--config", config, "--out", str(chain)]) == 0
    assert run_command(["pipeline", "--config", config, "--out", str(whole)]) == 0
    whole_report = comparable_report(whole)
    assert "rel_l2" not in whole_report and "curl_norm" in whole_report
    assert comparable_report(chain) == whole_report


def test_run_command_leaves_warning_filters_alone(tmp_path, capsys):
    before = list(warnings.filters)
    config = write_config(tmp_path / "config.json", small_disc_config(seed="x"))
    assert run_command(["gen-data", "--config", config, "--out", str(tmp_path)]) == 2
    assert warnings.filters == before


def test_check_passes(capsys):
    assert run_command(["check"]) == 0
    out = capsys.readouterr().out
    assert "np.float64" not in out
    assert out.strip().splitlines()[-1].split()[-1] == "PASS"
