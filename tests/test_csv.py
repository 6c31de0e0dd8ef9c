"""The dataset, fits and sinogram CSV files pinned to the csv-module code
they replaced.

The oracles below are the column-wise `csv.writer` writers and the
`csv.reader` + `float()` / `int()` readers as they stood before the writers
cached `repr` per value and the readers moved to `np.loadtxt`: the files
must be the same bytes and the arrays read back the same bits.
"""

import csv
import re

import numpy as np
import pytest

from driftscope.errors import DataError
from driftscope.fields import DiscDomain, Grid
from driftscope.kernels import BrownianKernel, OrnsteinUhlenbeckKernel
from driftscope.smalltime import (
    DATASET_COLUMNS,
    DEFAULT_DENSITY_FLOOR,
    FITS_COLUMNS,
    BoundaryDataset,
    ChordTable,
    FitTable,
    build_boundary_dataset,
    fit_dataset,
    read_dataset_csv,
    read_fits_csv,
    write_dataset_csv,
    write_fits_csv,
    chord_angles,
    chord_offsets,
    _CHORDS_PER_WRITE,
)
from driftscope.xray import Sinogram, read_sinogram_csv, write_sinogram_csv

SPECIAL = [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e16, 1e-5]


def oracle_write_dataset_csv(path, dataset):
    c = dataset.chords
    n, m = dataset.log_ratios.shape
    per_chord = [c.angle_index, c.offset_index, c.x[:, 0], c.x[:, 1], c.y[:, 0], c.y[:, 1]]
    columns = [np.repeat(v, m).tolist() for v in per_chord]
    columns.append(np.tile(dataset.times, n).tolist())
    columns += [a.ravel().tolist() for a in (dataset.p_obs, dataset.p_ref, dataset.log_ratios)]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(DATASET_COLUMNS)
        w.writerows(zip(*columns))


def oracle_write_fits_csv(path, chords, fits):
    ok = fits.ok
    columns = [chords.angle_index[ok], chords.offset_index[ok], fits.delta_psi[ok], fits.F[ok],
               fits.residual[ok], fits.se_delta_psi[ok], fits.se_F[ok], fits.n_times[ok]]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(FITS_COLUMNS)
        w.writerows(zip(*(v.tolist() for v in columns)))


def oracle_columns(path):
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return dict(zip(header, map(list, zip(*rows))))


def oracle_read_dataset_csv(path, floor=DEFAULT_DENSITY_FLOOR):
    """The arrays the csv.reader-based reader built (its input checks left out)."""
    cols = oracle_columns(path)
    num = {name: np.array([float(v) for v in cols[name]]) for name in DATASET_COLUMNS[2:-1]}
    ia, io = (np.array([int(v) for v in cols[name]], dtype=np.int64)
              for name in DATASET_COLUMNS[:2])
    p_o, p_r, t = num["p_obs"], num["p_ref"], num["t"]
    lr = (np.array([float(v or "nan") for v in cols["log_ratio"]])
          if "log_ratio" in cols else np.full(len(t), np.nan))
    fallback = ~np.isfinite(lr)
    lr[fallback] = np.log(p_o[fallback]) - np.log(p_r[fallback])
    times, ti = np.unique(t, return_inverse=True)
    times, ti = times[::-1], len(times) - 1 - ti
    keys, first, ci = np.unique(np.stack([ia, io], axis=1), axis=0,
                                return_index=True, return_inverse=True)
    log_ratios, p_obs, p_ref = (np.full((len(keys), len(times)), np.nan) for _ in range(3))
    log_ratios[ci, ti], p_obs[ci, ti], p_ref[ci, ti] = lr, p_o, p_r
    xy = np.stack([num["x1"], num["x2"], num["y1"], num["y2"]], axis=1)[first]
    return {"x": xy[:, :2], "y": xy[:, 2:], "angle_index": keys[:, 0],
            "offset_index": keys[:, 1], "times": times, "log_ratios": log_ratios,
            "p_obs": p_obs, "p_ref": p_ref}


def oracle_read_fits_csv(path, chords):
    cols = oracle_columns(path)
    num = {name: np.array([(int if name in ("angle_index", "offset_index", "n_times") else float)(v)
                           for v in cols[name]]) for name in FITS_COLUMNS}
    row_of = {key: i for i, key in enumerate(zip(chords.angle_index.tolist(),
                                                chords.offset_index.tolist()))}
    target = np.array([row_of.get(key, -1) for key in zip(num["angle_index"].tolist(),
                                                          num["offset_index"].tolist())],
                      dtype=np.int64)
    hit = target >= 0

    def column(values, fill=np.nan):
        out = np.full(len(chords), fill, dtype=values.dtype)
        out[target[hit]] = values[hit]
        return out

    return {"delta_psi": column(num["delta_psi"]), "F": column(num["F"]),
            "residual": column(num["residual"]), "var_delta_psi": column(num["se_delta_psi"] ** 2),
            "var_F": column(num["se_F"] ** 2), "cov_delta_psi_F": column(np.zeros(len(hit))),
            "n_times": column(num["n_times"].astype(np.int64), 0),
            "ok": column(np.ones(len(hit), dtype=bool), False)}


def oracle_read_sinogram_csv(path):
    """The arrays the csv.reader-based reader built (its input checks left out)."""
    with open(path, newline="") as fh:
        _, sizes, header, *rows = csv.reader(fh)
    n_angles, n_offsets, radius = int(sizes[0]), int(sizes[1]), float(sizes[2])
    cols = dict(zip(header, map(list, zip(*rows))))
    ia, io, valid = (np.array([int(v) for v in cols[name]], dtype=np.int64)
                     for name in ("angle_index", "offset_index", "valid"))
    values = np.zeros((n_angles, n_offsets))
    mask = np.zeros((n_angles, n_offsets), dtype=bool)
    values[ia, io] = np.array([float(v) for v in cols["value"]])
    mask[ia, io] = valid != 0
    return {"angles": chord_angles(n_angles), "offsets": chord_offsets(radius, n_offsets),
            "values": values, "mask": mask, "radius": np.float64(radius)}


def assert_bits_equal(table, expected):
    for name, want in expected.items():
        got = getattr(table, name) if not isinstance(table, dict) else table[name]
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


def dataset_arrays(ds):
    return {"x": ds.chords.x, "y": ds.chords.y, "angle_index": ds.chords.angle_index,
            "offset_index": ds.chords.offset_index, "times": ds.times,
            "log_ratios": ds.log_ratios, "p_obs": ds.p_obs, "p_ref": ds.p_ref}


def special_dataset(dropped_density=0.0):
    """Three chords holding NaN, +-inf, -0.0, 5e-324, 1e16 and 1e-5; chord 1
    has a dropped observation (NaN log ratio) whose observed density is
    `dropped_density`.  Every other non-finite log ratio has usable densities."""
    chords = ChordTable([[-0.0, 5e-324], [1e-5, 1e16], [0.5, -0.5]],
                        [[1.0, 0.0], [-1e16, 0.25], [-0.5, 0.5]], [0, 0, 2], [1, 3, 0])
    times = np.array([0.02, 0.01, 1e-5, 5e-324])
    p_obs = np.array([[0.5, 1e16, 1e-5, 0.25],
                      [0.5, dropped_density, SPECIAL[2], SPECIAL[0]],
                      [0.5, SPECIAL[1], SPECIAL[3], SPECIAL[4]]])
    p_ref = np.array([[0.25, 1e-5, 1e16, 0.5],
                      [0.125, 0.5, 0.5, 0.5],
                      [0.5, 0.5, 0.5, SPECIAL[2]]])
    log_ratios = np.array([[np.log(2.0), SPECIAL[1], SPECIAL[0], -0.0],
                           [5e-324, np.nan, 1e16, 1e-5],
                           [SPECIAL[2], -0.0, 1e-5, 5e-324]])
    return BoundaryDataset(chords, times, log_ratios, p_obs, p_ref)


def small_dataset(ladder=(0.02, 0.01, 0.005, 0.0025), raster=(6, 5)):
    g = Grid.from_extent(-1.3, -1.3, 1.3, 1.3, 17, 17)
    return build_boundary_dataset(OrnsteinUhlenbeckKernel(1.0, dim=2), BrownianKernel(dim=2),
                                  DiscDomain(g, 0.0, 0.0, 1.0), raster, ladder)


def chunked_dataset():
    """More chords than the dataset writer formats at once, in a last
    partial chunk too."""
    ds = small_dataset(raster=(70, 81))
    assert 2 * _CHORDS_PER_WRITE < len(ds.chords.angle_index) < 3 * _CHORDS_PER_WRITE
    return ds


def special_fits():
    """Four fits holding -0.0, 5e-324, 1e16 and 1e-5; the third is not ok."""
    chords = ChordTable([[-1.0, 0.0]] * 4, [[1.0, 0.0]] * 4, [0, 0, 1, 3], [0, 2, 1, 0])
    nan = float("nan")
    fits = FitTable(delta_psi=[-0.0, 1e16, nan, 5e-324], F=[1e-5, -0.0, nan, -1e16],
                    residual=[5e-324, 0.0, nan, 1e16], var_delta_psi=[1e-10, 0.0, nan, 5e-324],
                    var_F=[1e32, 2.0, nan, -0.0], cov_delta_psi_F=[0.0, 0.0, nan, 0.0],
                    n_times=[4, 3, 2, 4], ok=[True, True, False, True])
    return chords, fits


def fitted_fits():
    ds = small_dataset()
    return ds.chords, fit_dataset(ds)[0]


class TestWriters:
    @pytest.mark.parametrize("make", [special_dataset, small_dataset, chunked_dataset])
    def test_dataset_bytes_equal_csv_writer(self, tmp_path, make):
        ds = make()
        write_dataset_csv(tmp_path / "new.csv", ds)
        oracle_write_dataset_csv(tmp_path / "old.csv", ds)
        text = (tmp_path / "new.csv").read_bytes()
        assert text == (tmp_path / "old.csv").read_bytes()
        assert text.count(b"\r\n") == 1 + ds.log_ratios.size

    def test_special_values_are_written(self, tmp_path):
        write_dataset_csv(tmp_path / "dataset.csv", special_dataset())
        text = (tmp_path / "dataset.csv").read_text()
        for token in ("nan", "inf", "-inf", "-0.0", "5e-324", "1e+16", "1e-05"):
            assert re.search(rf"(^|,){re.escape(token)}(,|\r?$)", text, re.M), token

    @pytest.mark.parametrize("make, n_rows", [(special_fits, 3), (fitted_fits, 30)])
    def test_fits_bytes_equal_csv_writer(self, tmp_path, make, n_rows):
        chords, fits = make()
        write_fits_csv(tmp_path / "new.csv", chords, fits)
        oracle_write_fits_csv(tmp_path / "old.csv", chords, fits)
        text = (tmp_path / "new.csv").read_bytes()
        assert text == (tmp_path / "old.csv").read_bytes()
        assert text.count(b"\r\n") == 1 + n_rows  # special_fits' not-ok fit is left out


def rewrite(path, edit):
    """Apply edit to the file's list of lines (header first) and write it back."""
    lines = path.read_text().splitlines()
    path.write_text("".join(line + "\n" for line in edit(lines)))


class TestReaders:
    @pytest.mark.parametrize("make", [lambda: special_dataset(dropped_density=1e-5),
                                      small_dataset])
    def test_dataset_bits_equal_csv_reader(self, tmp_path, make):
        path = tmp_path / "dataset.csv"
        oracle_write_dataset_csv(path, make())
        assert_bits_equal(dataset_arrays(read_dataset_csv(path)), oracle_read_dataset_csv(path))

    @pytest.mark.parametrize("make", [special_fits, fitted_fits])
    def test_fits_bits_equal_csv_reader(self, tmp_path, make):
        chords, fits = make()
        path = tmp_path / "fits.csv"
        oracle_write_fits_csv(path, chords, fits)
        assert_bits_equal(read_fits_csv(path, chords), oracle_read_fits_csv(path, chords))

    def test_fits_rows_without_a_chord_are_ignored(self, tmp_path):
        chords, fits = special_fits()
        path = tmp_path / "fits.csv"
        oracle_write_fits_csv(path, chords, fits)
        rewrite(path, lambda lines: lines + ["9,0,1.0,1.0,0.0,0.0,0.0,3",
                                             "0,9,1.0,1.0,0.0,0.0,0.0,3",
                                             "-1,0,1.0,1.0,0.0,0.0,0.0,3"])
        assert_bits_equal(read_fits_csv(path, chords), oracle_read_fits_csv(path, chords))

    def test_empty_or_absent_log_ratio_falls_back(self, tmp_path):
        ds = small_dataset(ladder=(0.4, 0.2, 0.1, 0.05))  # no density below the floor
        path = tmp_path / "dataset.csv"
        write_dataset_csv(path, ds)
        fallback = np.log(ds.p_obs) - np.log(ds.p_ref)
        rewrite(path, lambda lines: [lines[0]] + [line[:line.rindex(",") + 1] if i % 3 == 0
                                                  else line for i, line in enumerate(lines[1:])])
        back = read_dataset_csv(path)
        assert_bits_equal(dataset_arrays(back), oracle_read_dataset_csv(path))
        empty = (np.arange(ds.log_ratios.size) % 3 == 0).reshape(ds.log_ratios.shape)
        assert np.array_equal(back.log_ratios[empty], fallback[empty])
        assert np.array_equal(back.log_ratios[~empty], ds.log_ratios[~empty])
        rewrite(path, lambda lines: [line[:line.rindex(",")] for line in lines])
        back = read_dataset_csv(path)
        assert_bits_equal(dataset_arrays(back), oracle_read_dataset_csv(path))
        assert np.array_equal(back.log_ratios, fallback)

    def test_dropped_observation_reads_back_as_nan(self, tmp_path):
        # a NaN log ratio beside a density pair below the floor is a dropped
        # observation, as build_boundary_dataset stores it
        path, usable = tmp_path / "dropped.csv", tmp_path / "usable.csv"
        write_dataset_csv(path, special_dataset(dropped_density=0.0))
        oracle_write_dataset_csv(usable, special_dataset(dropped_density=1e-5))
        got, want = dataset_arrays(read_dataset_csv(path)), oracle_read_dataset_csv(usable)
        assert np.isnan(got["log_ratios"][1, 1]) and got["p_obs"][1, 1] == 0.0
        for name in ("log_ratios", "p_obs"):
            got[name][1, 1] = want[name][1, 1] = 0.0
        assert_bits_equal(got, want)

    @pytest.mark.parametrize("n_angles, n_offsets", [(3, 4), (12, 13)])
    def test_sinogram_bits_equal_csv_reader(self, tmp_path, n_angles, n_offsets):
        shape = (n_angles, n_offsets)
        rng = np.random.default_rng(n_angles)
        values = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
        values.flat[:4] = [-0.0, 5e-324, 1e16, 1e-5]
        mask = rng.random(shape) > 0.2
        mask.flat[:4] = True
        values[~mask] = np.where(rng.random((~mask).sum()) < 0.5, np.nan, -np.inf)
        path = tmp_path / "sinogram.csv"
        write_sinogram_csv(path, Sinogram(chord_angles(n_angles), chord_offsets(1.25, n_offsets),
                                          values, mask, 1.25))
        back = read_sinogram_csv(path)
        assert_bits_equal({name: np.asarray(getattr(back, name))
                           for name in ("angles", "offsets", "values", "mask", "radius")},
                          oracle_read_sinogram_csv(path))

    def test_blank_lines_are_skipped(self, tmp_path):
        ds = small_dataset()
        path = tmp_path / "dataset.csv"
        write_dataset_csv(path, ds)
        expected = dataset_arrays(read_dataset_csv(path))
        rewrite(path, lambda lines: [lines[0], "", *lines[1:3], "", *lines[3:], ""])
        assert_bits_equal(dataset_arrays(read_dataset_csv(path)), expected)


def drop_column(name):
    def edit(lines):
        j = lines[0].split(",").index(name)
        return [",".join(f for k, f in enumerate(line.split(",")) if k != j) for line in lines]
    return edit


def set_field(row, name, value):
    def edit(lines):
        j = lines[0].split(",").index(name)
        fields = lines[row].split(",")
        fields[j] = value
        return lines[:row] + [",".join(fields)] + lines[row + 1:]
    return edit


# case -> (edit of a fits file, edit of a dataset file)
MALFORMED = {
    "non-numeric field": (set_field(2, "delta_psi", "abc"), set_field(2, "p_obs", "abc")),
    "short row": (lambda lines: lines[:2] + [lines[2].rsplit(",", 1)[0]] + lines[3:],) * 2,
    "non-integral index": (set_field(1, "offset_index", "1.5"), set_field(3, "angle_index", "2.5")),
    "nan index": (set_field(1, "angle_index", "nan"), set_field(1, "offset_index", "nan")),
    "header only": (lambda lines: lines[:1],) * 2,
    "empty file": (lambda lines: [],) * 2,
    "missing column": (drop_column("F"), drop_column("t")),
}


class TestMalformed:
    @pytest.mark.parametrize("case", MALFORMED)
    def test_dataset_data_error_names_path(self, tmp_path, case):
        path = tmp_path / "dataset.csv"
        write_dataset_csv(path, small_dataset())
        rewrite(path, MALFORMED[case][1])
        with pytest.raises(DataError, match=re.escape(str(path))):
            read_dataset_csv(path)

    @pytest.mark.parametrize("case", MALFORMED)
    def test_fits_data_error_names_path(self, tmp_path, case):
        chords, fits = fitted_fits()
        path = tmp_path / "fits.csv"
        write_fits_csv(path, chords, fits)
        rewrite(path, MALFORMED[case][0])
        with pytest.raises(DataError, match=re.escape(str(path))):
            read_fits_csv(path, chords)

    @pytest.mark.parametrize("name, value", [("delta_psi", "nan"), ("F", "inf"),
                                             ("residual", "-inf"), ("residual", "-1e-3"),
                                             ("se_F", "nan")])
    def test_fits_non_finite_row_is_data_error(self, tmp_path, name, value):
        chords, fits = fitted_fits()
        path = tmp_path / "fits.csv"
        write_fits_csv(path, chords, fits)
        rewrite(path, set_field(2, name, value))
        with pytest.raises(DataError, match=re.escape(str(path))):
            read_fits_csv(path, chords)

    def test_non_finite_ok_fit_rejected_by_table(self):
        with pytest.raises(DataError, match="finite"):
            FitTable([np.nan], [1.0], [0.0], [1.0], [1.0], [0.0], [3], [True])
        table = FitTable([np.nan], [np.nan], [np.nan], [np.nan], [np.nan], [np.nan], [2], [False])
        assert table[0] is None


def lines_indices(path, row):
    return path.read_text().splitlines()[row].split(",")[:2]


class TestDuplicates:
    def test_dataset_row_listed_twice(self, tmp_path):
        path = tmp_path / "dataset.csv"
        write_dataset_csv(path, small_dataset())
        rewrite(path, lambda lines: lines + [lines[6]])
        ia, io = lines_indices(path, 6)
        with pytest.raises(DataError, match=rf"{re.escape(str(path))}: chord angle={ia} "
                                            rf"offset={io} at t=.* listed more than once"):
            read_dataset_csv(path)

    def test_dataset_endpoints_disagree(self, tmp_path):
        path = tmp_path / "dataset.csv"
        write_dataset_csv(path, small_dataset())
        rewrite(path, set_field(7, "y2", "0.123"))
        ia, io = lines_indices(path, 7)
        with pytest.raises(DataError, match=rf"chord angle={ia} offset={io} disagree on its "
                                            "endpoints"):
            read_dataset_csv(path)

    def test_fits_chord_listed_twice(self, tmp_path):
        chords, fits = fitted_fits()
        path = tmp_path / "fits.csv"
        write_fits_csv(path, chords, fits)
        rewrite(path, lambda lines: lines[:2] + [lines[5]] + lines[2:])
        ia, io = lines_indices(path, 2)
        with pytest.raises(DataError, match=rf"{re.escape(str(path))}: chord angle={ia} "
                                            rf"offset={io} is listed more than once"):
            read_fits_csv(path, chords)
