import io
import json
import os
import re
import subprocess
import sys
import warnings
import zipfile
from pathlib import Path

import numpy as np
import pytest

import driftscope
from driftscope.cli import parse_config, run_command
from driftscope.smalltime import make_parallel_chords, read_dataset_csv
from test_csv import DATASET_MALFORMED, npy_of, npz_members, npz_of, oracle_write_dataset_csv

STAGES = ("gen-data", "fit", "sinogram", "invert", "solve", "recover")
DGF_FILES = ("V_hat.dgf", "u.dgf", "psi_hat.dgf", "c_hat_x.dgf", "c_hat_y.dgf")
# the options naming each stage's input files, with the files' names
INPUT_OPTIONS = {
    "fit": (("--data", "dataset.npz"),),
    "sinogram": (("--fits", "fits.npy"),),
    "invert": (("--sinogram", "sinogram.npz"),),
    "solve": (("--vhat", "V_hat.dgf"), ("--fits", "fits.npy")),
    "recover": (("--psi", "psi_hat.dgf"),),
}


def npz_claiming_a_huge_raster() -> bytes:
    """A sinogram.npz whose values and valid headers claim a 10^9 x 10^9
    raster (8 EB of values) over a body of one bin."""
    archive_bytes = io.BytesIO()
    with zipfile.ZipFile(archive_bytes, "w") as archive:
        for name, array in (("values", np.ones((1, 1))), ("valid", np.ones((1, 1), dtype=bool)),
                            ("radius", np.float64(1.0))):
            member = io.BytesIO()
            np.lib.format.write_array(member, array)
            # the longer shape takes the place of header padding
            archive.writestr(f"{name}.npy", member.getvalue().replace(
                b"(1, 1), }" + b" " * 18, b"(1000000000, 1000000000), }"))
    return archive_bytes.getvalue()


# malformed input files, by name: a sinogram in the CSV text that
# sinogram.npz replaced, which claimed a 10^9 x 10^9 raster, and the same
# claim in the binary file; a dataset that is binary but not an .npz (so
# read as CSV text; not UTF-8 either), and two with a line longer than the
# csv module takes as a field, the header or a row
BAD_INPUTS = {
    "big.csv": b"n_angles,n_offsets,R\r\n1000000000,1000000000,1.0\r\n"
               b"angle_index,offset_index,value,valid\r\n0,0,0.5,1\r\n",
    "big.npz": npz_claiming_a_huge_raster(),
    "short.dgf": b"DGF1\x01\x00",
    "fits.npy": npy_of(np.full((12, 13, 6), np.nan)),
    "long.csv": b"angle_index" * 20000 + b"\r\n",
    "long-row.csv": b"angle_index,offset_index,t,log_ratio\r\n" + b"a" * 200000 + b"\r\n",
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
    assert not (tmp_path / "dataset.npz").exists()


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
        for file in ("dataset.npz", "fits.npy", "sinogram.npz", *DGF_FILES):
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


def test_tiny_disc_away_from_the_origin_runs_as_at_the_origin(tmp_path):
    """A disc of radius 1e-6 centred at (1, 0) makes as many chords as the
    same disc at the origin, and pipeline exits with the same code: whether
    chord ends coincide is measured against the chord table's own extent,
    not from the origin (where it exited 3, "chord endpoints coincide")."""
    from driftscope.recover import config_from_dict
    from driftscope.smalltime import make_parallel_chords

    codes, n_chords = [], []
    for cx in (0.0, 1.0):
        raw = small_disc_config(
            domain={"kind": "disc", "center": [cx, 0.0], "radius": 1e-6},
            geometry={"n_angles": 12, "n_offsets": 13},
            grid={"x0": cx - 1.15e-6, "y0": -1.15e-6, "x1": cx + 1.15e-6, "y1": 1.15e-6,
                  "nx": 17, "ny": 17})
        n_chords.append(len(make_parallel_chords(
            config_from_dict(raw).resolved_domain(), 12, 13)[0]))
        config = write_config(tmp_path / f"config{cx}.json", raw)
        codes.append(run_command(["pipeline", "--config", config,
                                  "--out", str(tmp_path / f"out{cx}")]))
    assert n_chords == [12 * 13] * 2
    assert codes[0] == codes[1] == 0


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


@pytest.mark.parametrize("command", ["fit", "pipeline", "phantom"])
def test_empty_out_exits_2(tmp_path, capsys, monkeypatch, command):
    # --out '' is refused as "output_dir": "" is, not read as no --out
    monkeypatch.chdir(tmp_path)
    argv = [command, "--out", ""]
    if command != "phantom":
        argv += ["--config", write_config(tmp_path / "config.json",
                                          small_disc_config(output_dir=str(tmp_path / "cfg")))]
    assert run_command(argv) == 2
    assert capsys.readouterr().err == "config error: --out must name a directory, got ''\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"] * (command != "phantom")

def csv_of_dataset(config, npz, path):
    """The dataset of a gen-data dataset.npz written to `path` as dataset.csv
    text, the format observed data come in."""
    cfg = parse_config(config)
    chords = make_parallel_chords(cfg.resolved_domain(), cfg.n_angles, cfg.n_offsets)[0]
    oracle_write_dataset_csv(path, read_dataset_csv(npz, chords))
    return path


def edited_dataset(tmp_path, edit):
    """A config and the path of a copy of its gen-data dataset as CSV text,
    with `edit` applied to the copy's rows, each a list of fields (header
    first)."""
    config = write_config(tmp_path / "config.json", small_disc_config())
    assert run_command(["gen-data", "--config", config, "--out", str(tmp_path)]) == 0
    text = csv_of_dataset(config, tmp_path / "dataset.npz", tmp_path / "dataset.csv").read_text()
    rows = [line.split(",") for line in text.splitlines()]
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
    assert not (tmp_path / "fits.npy").exists()


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
    fits = np.load(tmp_path / "fits.npy", allow_pickle=False)
    ok = ~np.isnan(fits).all(axis=-1)
    assert ok.sum() == report["n_chords"] - 1 and not ok[3, 5]
    with np.load(tmp_path / "sinogram.npz", allow_pickle=False) as sinogram:
        assert np.argwhere(~sinogram["valid"]).tolist() == [[3, 5]]


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
    assert ((tmp_path / "strings" / "dataset.npz").read_bytes()
            == (tmp_path / "numbers" / "dataset.npz").read_bytes())


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


# a rectangle on a 33 x 25 grid, whose raster has lines that miss it
SMALL_RECTANGLE = {
    "domain": {"kind": "rectangle", "corners": [[-1.0, -0.7], [1.0, 0.7]]},
    "grid": {"x0": -1.15, "y0": -0.805, "x1": 1.15, "y1": 0.805, "nx": 33, "ny": 25},
}


@pytest.mark.parametrize("overrides", [{}, SMALL_RECTANGLE], ids=["disc", "rectangle"])
def test_stage_chain_matches_pipeline(tmp_path, capsys, overrides):
    chain, whole, by_option = tmp_path / "chain", tmp_path / "pipeline", tmp_path / "by-option"
    config = write_config(tmp_path / "config.json", small_disc_config(**overrides))
    for stage in STAGES:
        assert run_command([stage, "--config", config, "--out", str(chain)]) == 0, stage
    assert run_command(["pipeline", "--config", config, "--out", str(whole)]) == 0
    for name in DGF_FILES + ("dataset.npz", "fits.npy", "sinogram.npz"):
        assert (chain / name).read_bytes() == (whole / name).read_bytes(), name
    whole_report = comparable_report(whole)
    assert np.isfinite(whole_report["rel_l2"])
    # 24 x 25 raster lines: every one crosses the disc, some miss the rectangle
    assert whole_report["n_chords"] + whole_report["n_lines_skipped"] == 24 * 25
    assert (whole_report["n_lines_skipped"] > 0) == bool(overrides)
    assert comparable_report(chain) == whole_report
    assert sorted(p.name for p in chain.iterdir()) == sorted(p.name for p in whole.iterdir())
    assert not (chain / "solve_diagnostics.csv").exists()
    # every input named by its option: <out> holds no default input file
    for stage, inputs in INPUT_OPTIONS.items():
        options = [arg for option, name in inputs for arg in (option, str(chain / name))]
        assert run_command([stage, "--config", config, "--out", str(by_option), *options]) == 0, stage
    for name in DGF_FILES + ("fits.npy", "sinogram.npz"):
        assert (by_option / name).read_bytes() == (whole / name).read_bytes(), name
    assert not (by_option / "dataset.npz").exists()


def test_csv_dataset_feeds_the_chain_as_the_npz_does(tmp_path):
    """dataset.csv text, the format observed data come in, fed to fit by
    --data, gives the chain the gen-data dataset.npz gives it, byte for
    byte.  The format is told by the file's bytes, not its name: an .npz
    named data.csv and CSV text named data.npz fit to the same fits.npy."""
    npz_chain, csv_chain = tmp_path / "npz", tmp_path / "csv"
    config = write_config(tmp_path / "config.json", small_disc_config())
    for stage in STAGES:
        assert run_command([stage, "--config", config, "--out", str(npz_chain)]) == 0, stage
    text = csv_of_dataset(config, npz_chain / "dataset.npz", tmp_path / "data.csv")
    assert run_command(["gen-data", "--config", config, "--out", str(csv_chain)]) == 0
    (csv_chain / "dataset.npz").unlink()  # fit reads the CSV text or nothing
    assert run_command(["fit", "--config", config, "--out", str(csv_chain),
                        "--data", str(text)]) == 0
    for stage in STAGES[2:]:
        assert run_command([stage, "--config", config, "--out", str(csv_chain)]) == 0, stage
    for name in ("fits.npy", "sinogram.npz", *DGF_FILES):
        assert (csv_chain / name).read_bytes() == (npz_chain / name).read_bytes(), name
    assert comparable_report(csv_chain) == comparable_report(npz_chain)
    renamed = {"data.csv": (npz_chain / "dataset.npz").read_bytes(), "data.npz": text.read_bytes()}
    for name, data in renamed.items():
        out = tmp_path / f"renamed-{name}"
        (out / name).parent.mkdir()
        (out / name).write_bytes(data)
        assert run_command(["fit", "--config", config, "--out", str(out),
                            "--data", str(out / name)]) == 0, name
        assert (out / "fits.npy").read_bytes() == (npz_chain / "fits.npy").read_bytes(), name


@pytest.fixture(scope="module")
def gen_data_npz(tmp_path_factory):
    """A config and its gen-data dataset.npz."""
    base = tmp_path_factory.mktemp("gen-data")
    config = write_config(base / "config.json", small_disc_config())
    assert run_command(["gen-data", "--config", config, "--out", str(base)]) == 0
    return config, base / "dataset.npz"


@pytest.mark.parametrize("case", DATASET_MALFORMED)
def test_damaged_dataset_npz_exits_3(tmp_path, capsys, gen_data_npz, case):
    """Each refusal of tests/test_csv.py's damaged dataset.npz files, fed to
    fit, is one data error line naming the file, and no fits.npy."""
    config, npz = gen_data_npz
    bad = tmp_path / "dataset.npz"
    bad.write_bytes(DATASET_MALFORMED[case](npz.read_bytes()))
    capsys.readouterr()
    assert run_command(["fit", "--config", config, "--out", str(tmp_path),
                        "--data", str(bad)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: [stage fit] {bad}: ") and err.count("\n") == 1, err
    assert "Traceback" not in err and not (tmp_path / "fits.npy").exists()


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
    assert (tmp_path / "out" / "dataset.npz").is_file()


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
    for name in DGF_FILES + ("dataset.npz", "fits.npy", "sinogram.npz"):
        assert (chain / name).read_bytes() == (whole / name).read_bytes(), name
    assert comparable_report(chain) == comparable_report(whole)
    assert loaded == {stage: "scipy,scipy.sparse" if stage == "solve" else "" for stage in STAGES}


@pytest.mark.parametrize("stage, code, prefix", [
    *((stage, 3, f"data error: [stage {stage}] input file not found: ") for stage in STAGES[1:]),
    ("solve", 4, "solver error: [stage solve] no convergence in 1 iterations"),
    ("pipeline", 4, "solver error: [stage solve] no convergence in 1 iterations"),
    ("invert --sinogram big.csv", 3, "data error: [stage invert] {input}:"),
    ("invert --sinogram big.npz", 3, "data error: [stage invert] {input}:"),
    ("solve --vhat short.dgf", 3, "data error: [stage solve] {input}:"),
    ("fit --data fits.npy", 3, "data error: [stage fit] {input}: missing column 'angle_index'"),
    ("fit --data long.csv", 3, "data error: [stage fit] {input}: field larger than field limit"),
    ("fit --data long-row.csv", 3, "data error: [stage fit] {input}: rows must have 4 fields"),
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
    # a finite field whose line integrals overflow
    *((f"phantom --kind {kind} --amplitude={amplitude} --width 10", 2,
       f"config error: --amplitude {float(amplitude)!r} with --width 10.0 gives line integrals "
       "beyond the float range")
      for kind in ("disc", "radial-gaussian") for amplitude in ("1e308", "-1e308")),
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
    """pipeline writes each stage's outputs and report.json when the stage
    ends, and removes the files of the later stages: a solve that fails
    leaves the files and the report of the stages before it, as the stage
    chain does, and nothing of an earlier run into the same directory."""
    chain, whole, fresh = tmp_path / "chain", tmp_path / "pipeline", tmp_path / "fresh"
    earlier = write_config(tmp_path / "earlier.json", small_disc_config())
    for out in (chain, whole):  # a run that succeeded, with its rel_l2
        assert run_command(["pipeline", "--config", earlier, "--out", str(out)]) == 0
    config = write_config(tmp_path / "config.json", small_disc_config(solver={"max_iter": 1}))
    for stage in STAGES[:4]:
        assert run_command([stage, "--config", config, "--out", str(chain)]) == 0
    assert run_command(["solve", "--config", config, "--out", str(chain)]) == 4
    for out in (whole, fresh):
        assert run_command(["pipeline", "--config", config, "--out", str(out)]) == 4
    names = ["V_hat.dgf", "dataset.npz", "fits.npy", "report.json", "sinogram.npz"]
    report = comparable_report(fresh)
    assert "rel_l2" not in report and "solver_iterations" not in report
    assert report["config"]["solver"]["max_iter"] == 1
    for out in (chain, whole):
        assert sorted(p.name for p in out.iterdir()) == names, out
        for name in names:
            if name != "report.json":
                assert (out / name).read_bytes() == (fresh / name).read_bytes(), (out, name)
        assert comparable_report(out) == report, out


def test_stage_refuses_the_report_of_another_config(tmp_path, capsys):
    """A stage continues only a run of its own config: fit under OU theta = 2
    after gen-data under theta = 1 would score theta = 1 data against the
    theta = 2 drift."""
    config = write_config(tmp_path / "theta1.json", small_disc_config())
    assert run_command(["gen-data", "--config", config, "--out", str(tmp_path)]) == 0
    theta2 = {"kind": "ou", "theta": 2.0}
    config = write_config(tmp_path / "theta2.json", small_disc_config(
        kernels={"observed": theta2, "reference": {"kind": "brownian"}}, ground_truth=theta2))
    capsys.readouterr()
    for stage in STAGES[1:]:
        assert run_command([stage, "--config", config, "--out", str(tmp_path)]) == 2, stage
        assert capsys.readouterr().err == (
            f"config error: [stage {stage}] {tmp_path / 'report.json'} holds a run of another "
            "config: 'kernels' differs; gen-data starts a new run\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "dataset.npz", "report.json", "theta1.json", "theta2.json"]


@pytest.mark.parametrize("first, then", [
    ({"kernels": {"observed": {"kind": "ou", "theta": 1.0}, "reference": {"kind": "brownian"}}},
     {"kernels": {"observed": {"kind": "ou", "theta": 1.0}}}),
    ({"kernels": {"observed": {"kind": "ou", "theta": "1"}}},
     {"kernels": {"observed": {"kind": "ou", "theta": 1.0}}}),
    ({"domain": {"kind": "disc", "radius": 1}},
     {"domain": {"kind": "disc", "radius": 1.0, "center": [0, 0.0]}}),
], ids=["reference left out", "rate as a string", "center left out"])
def test_stage_continues_a_run_whose_sections_resolve_alike(tmp_path, first, then):
    """Domain and kernels compare by what they resolve to: sections written
    differently that build the same domain and kernels continue the run, and
    the files equal those of a chain run under one config."""
    chain, fresh = tmp_path / "chain", tmp_path / "fresh"
    first = write_config(tmp_path / "first.json", small_disc_config(**first))
    then = write_config(tmp_path / "then.json", small_disc_config(**then))
    assert run_command(["gen-data", "--config", first, "--out", str(chain)]) == 0
    for stage in STAGES:
        if stage != "gen-data":
            assert run_command([stage, "--config", then, "--out", str(chain)]) == 0, stage
        assert run_command([stage, "--config", then, "--out", str(fresh)]) == 0, stage
    names = sorted(p.name for p in fresh.iterdir())
    assert sorted(p.name for p in chain.iterdir()) == names
    for name in names:
        if name != "report.json":
            assert (chain / name).read_bytes() == (fresh / name).read_bytes(), name
    assert comparable_report(chain) == comparable_report(fresh)


def test_a_section_that_does_not_resolve_differs(tmp_path, capsys):
    config = write_config(tmp_path / "config.json", small_disc_config())
    assert run_command(["gen-data", "--config", config, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    report["config"]["kernels"]["observed"] = {"kind": "ou", "theta": -1.0}
    (tmp_path / "report.json").write_text(json.dumps(report))
    capsys.readouterr()
    assert run_command(["fit", "--config", config, "--out", str(tmp_path)]) == 2
    assert "config: 'kernels' differs; " in capsys.readouterr().err


def test_report_times_the_stages_of_the_run(tmp_path):
    """meta.stages holds the wall time of each stage the run has: pipeline
    and the chain list the same stages, and a re-run stage keeps the earlier
    stages' times and drops the later ones'."""
    pipe, chain = tmp_path / "pipe", tmp_path / "chain"
    config = write_config(tmp_path / "config.json", small_disc_config())

    def seconds(out):
        return json.loads((out / "report.json").read_text())["meta"]["stages"]

    assert run_command(["pipeline", "--config", config, "--out", str(pipe)]) == 0
    for i, stage in enumerate(STAGES):
        assert run_command([stage, "--config", config, "--out", str(chain)]) == 0, stage
        assert sorted(seconds(chain)) == sorted(STAGES[:i + 1])
    assert sorted(seconds(pipe)) == sorted(seconds(chain))
    assert all(isinstance(s, float) and s > 0 for s in (*seconds(pipe).values(),
                                                       *seconds(chain).values()))
    before = seconds(chain)
    assert run_command(["invert", "--config", config, "--out", str(chain)]) == 0
    after = seconds(chain)
    assert sorted(after) == sorted(STAGES[:4])
    assert all(after[stage] == before[stage] for stage in STAGES[:3])


def test_rerun_stage_may_change_only_its_own_settings(tmp_path, capsys):
    """A stage re-run under a config that differs in its own settings only
    (invert's filter) replaces its outputs and removes the later stages'
    files and report entries; a later stage under the earlier config is then
    refused, and the directory equals a fresh chain of the new config."""
    chain, fresh = tmp_path / "chain", tmp_path / "fresh"
    hann = write_config(tmp_path / "hann.json", small_disc_config())
    ram_lak = write_config(tmp_path / "ram-lak.json", small_disc_config(filter="ram-lak"))
    for stage in STAGES:
        assert run_command([stage, "--config", hann, "--out", str(chain)]) == 0, stage
    assert run_command(["invert", "--config", ram_lak, "--out", str(chain)]) == 0
    for stage in STAGES[:4]:
        assert run_command([stage, "--config", ram_lak, "--out", str(fresh)]) == 0, stage
    names = sorted(p.name for p in fresh.iterdir())
    assert sorted(p.name for p in chain.iterdir()) == names
    for name in names:
        if name != "report.json":
            assert (chain / name).read_bytes() == (fresh / name).read_bytes(), name
    assert comparable_report(chain) == comparable_report(fresh)
    capsys.readouterr()
    assert run_command(["solve", "--config", hann, "--out", str(chain)]) == 2
    assert "config: 'filter' differs; " in capsys.readouterr().err
    # solve's own settings may change: the report then echoes the new ones
    solver = write_config(tmp_path / "solver.json",
                          small_disc_config(filter="ram-lak", solver={"tol": 1e-8}))
    assert run_command(["solve", "--config", solver, "--out", str(chain)]) == 0
    assert comparable_report(chain)["config"]["solver"]["tol"] == 1e-8


@pytest.mark.parametrize("option", [["--seed", "3"], ["--workers", "2"]])
@pytest.mark.parametrize("command", ["gen-data", "fit", "pipeline"])
def test_seed_and_workers_are_not_options(tmp_path, capsys, command, option):
    # no stage draws a random number or runs the worker pool; the config's
    # seed and workers keys stay
    config = write_config(tmp_path / "config.json", small_disc_config(seed=3, workers=2))
    with pytest.raises(SystemExit) as exited:
        run_command([command, "--config", config, "--out", str(tmp_path / "out"), *option])
    assert exited.value.code == 2
    assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", ["missing", "list"])
def test_config_that_is_missing_or_not_an_object_exits_2(tmp_path, capsys, case):
    path = tmp_path / "config.json"
    if case == "list":
        path.write_text(json.dumps([small_disc_config()]))
    assert run_command(["gen-data", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == {
        "missing": f"config error: config file not found: {path}\n",
        "list": f"config error: {path}: must hold a JSON object\n"}[case]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, name", [
    ("fit", "fits.npy"), ("fit", "report.json"), ("pipeline", "report.json"),
    ("phantom", "phantom.dgf"),
])
def test_output_file_that_cannot_be_written_exits_2(tmp_path, capsys, command, name):
    # a directory where the command writes an output file
    out = tmp_path / "out"
    argv = [command, "--out", str(out)]
    if command != "phantom":
        argv += ["--config", write_config(tmp_path / "config.json", small_disc_config())]
    if command == "fit":  # its input
        assert run_command(["gen-data", *argv[1:]]) == 0
        (out / "report.json").unlink()
    (out / name).mkdir(parents=True)
    capsys.readouterr()
    assert run_command(argv) == 2
    assert capsys.readouterr().err == f"config error: cannot write {out / name}: Is a directory\n"


@pytest.mark.parametrize("name, code, prefix", [
    ("config.json", 2, "config error: "), ("report.json", 3, "data error: "),
], ids=["config", "report"])
def test_json_nested_past_the_recursion_limit_exits_cleanly(tmp_path, capsys, name, code, prefix):
    config = write_config(tmp_path / "config.json", small_disc_config())
    assert run_command(["gen-data", "--config", config, "--out", str(tmp_path)]) == 0
    (tmp_path / name).write_text("[" * 200000)
    capsys.readouterr()
    assert run_command(["fit", "--config", config, "--out", str(tmp_path)]) == code
    err = capsys.readouterr().err
    assert err.startswith(f"{prefix}{tmp_path / name}: invalid JSON ("), err
    assert err.count("\n") == 1 and "Traceback" not in err, err


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
    """A fits.npy cell with NaN delta_psi and F is a data error when the file
    is read, not a solve that runs out of iterations on a NaN residual."""
    config = write_config(tmp_path / "config.json", small_disc_config())
    for earlier in STAGES[:4]:
        assert run_command([earlier, "--config", config, "--out", str(tmp_path)]) == 0
    fits = np.load(tmp_path / "fits.npy", allow_pickle=False)
    fits[0, 0, :2] = np.nan
    bad = tmp_path / "bad_fits.npy"
    np.save(bad, fits)
    capsys.readouterr()
    assert run_command([stage, "--config", config, "--out", str(tmp_path),
                        "--fits", str(bad)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: [stage {stage}] {bad}: "), err
    assert "Traceback" not in err


def edit_npy_header(data: bytes, pattern: bytes, new: bytes) -> bytes:
    """A format 1.0 .npy file with `pattern` replaced by `new` in its header,
    re-padded to a multiple of 64 bytes as np.save pads it."""
    end = 10 + int.from_bytes(data[8:10], "little")
    header = re.sub(pattern, new, data[10:end].rstrip())
    header += b" " * (-(10 + len(header) + 1) % 64) + b"\n"
    return data[:8] + len(header).to_bytes(2, "little") + header + data[end:]


# header edits: (pattern, replacement) of the descr, fortran_order and shape entries
HEADER_EDITS = [
    *((rb"'descr': '[^']*'", f"'descr': '{descr}'".encode())
      for descr in ("<f4", ">f8", "|O", "<i8", "|b1", "<f8")),
    (rb"False", b"True"),
    *((rb"'shape': \([^)]*\)", f"'shape': {shape}".encode())
      for shape in ("()", "(1,)", "(13, 12)", "(12, 13, 5)", "(12, 13, 7)", "(13, 12, 6)",
                    "(1000000000, 1000000000, 6)", "(1000000000, 1000000000)", "(-1, 13, 6)",
                    "(2.5, 13)", "(12, 13)")),
]


def fuzzed(data: bytes, rng, header_edit) -> list:
    """Seeded damage to a file: cuts at random lengths, one to three random
    bytes flipped, and every header edit (`header_edit(data, pattern,
    new)`)."""
    cases = [data[:int(rng.integers(len(data)))] for _ in range(8)]
    for _ in range(16):
        flipped = bytearray(data)
        for at in rng.integers(len(data), size=rng.integers(1, 4)):
            flipped[at] ^= int(rng.integers(1, 256))
        cases.append(bytes(flipped))
    return cases + [header_edit(data, pattern, new) for pattern, new in HEADER_EDITS]


def test_damaged_fits_and_sinogram_exit_0_or_3(tmp_path, capsys):
    """Truncated, byte-flipped and header-edited fits.npy, sinogram.npz and
    dataset.npz files, fed to the stages that read them, end in exit 0 or 3,
    never in a traceback."""
    base, out = tmp_path / "base", str(tmp_path / "out")
    config = write_config(tmp_path / "config.json", small_disc_config(
        geometry={"n_angles": 12, "n_offsets": 13}))
    for stage in STAGES[:4]:
        assert run_command([stage, "--config", config, "--out", str(base)]) == 0
    rng = np.random.default_rng(20041108)
    fits = (base / "fits.npy").read_bytes()
    sinogram = (base / "sinogram.npz").read_bytes()
    dataset = (base / "dataset.npz").read_bytes()

    def member_edit(data, pattern, new):
        members = npz_members(data)
        name = list(members)[int(rng.integers(len(members)))]
        return npz_of({**members, name: edit_npy_header(members[name], pattern, new)})

    runs = [(stage, "--fits", case) for case in fuzzed(fits, rng, edit_npy_header)
            for stage in ("sinogram", "solve")]
    runs += [("invert", "--sinogram", case) for case in fuzzed(sinogram, rng, member_edit)]
    runs += [("fit", "--data", case) for case in fuzzed(dataset, rng, member_edit)]
    codes = []
    for k, (stage, option, data) in enumerate(runs):
        bad = tmp_path / f"case{k}"
        bad.write_bytes(data)
        argv = [stage, "--config", config, "--out", out, option, str(bad)]
        if stage == "solve":
            argv += ["--vhat", str(base / "V_hat.dgf")]
        capsys.readouterr()
        codes.append(run_command(argv))
        err = capsys.readouterr().err
        assert codes[-1] in (0, 3) and "Traceback" not in err, (stage, k, codes[-1], err)
    # most damage is refused; the untouched header edits ('<f8' for '<f8') run
    assert codes.count(3) > len(codes) // 2 and 0 in codes


def test_phantom_sinogram_inverts(tmp_path):
    phantom = tmp_path / "phantom"
    assert run_command(["phantom", "--angles", "24", "--offsets", "25", "--n", "33",
                        "--out", str(phantom)]) == 0
    assert sorted(p.name for p in phantom.iterdir()) == ["phantom.dgf", "phantom_sinogram.npz"]
    config = write_config(tmp_path / "config.json", small_disc_config())
    assert run_command(["invert", "--config", config, "--out", str(tmp_path / "out"),
                        "--sinogram", str(phantom / "phantom_sinogram.npz")]) == 0
    assert (tmp_path / "out" / "V_hat.dgf").is_file()


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
