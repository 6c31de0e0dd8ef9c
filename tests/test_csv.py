"""The dataset, fits and sinogram CSV files pinned to the csv-module code
they replaced.

The oracles below are the column-wise `csv.writer` writers and the
`csv.reader` + `float()` / `int()` readers as they stood before the writers
cached `repr` per value and the readers moved to `np.loadtxt`: the files
must be the same bytes and the arrays read back the same bits.  The dataset
oracles use its four-column layout, each row placed into the given chord
table by a dict lookup on (angle_index, offset_index); the oracle writer
also gives the two older layouts, with the chord endpoints and with the
densities as well.
"""

import csv
import re

import numpy as np
import pytest

from driftscope.errors import DataError
from driftscope.fields import DiscDomain, Grid
from driftscope.kernels import OrnsteinUhlenbeckKernel
from driftscope.smalltime import (
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


def oracle_write_dataset_csv(path, dataset, endpoints=False, densities=False):
    """The dataset file as csv.writer writes it; with endpoints, in the older
    layout that also held each chord's endpoints x1, x2, y1, y2, and with
    densities too, in the oldest one that also held p_obs and p_ref."""
    c = dataset.chords
    n, m = dataset.log_ratios.shape
    header, per_chord = ["angle_index", "offset_index"], [c.angle_index, c.offset_index]
    if endpoints:
        header += ["x1", "x2", "y1", "y2"]
        per_chord += [c.x[:, 0], c.x[:, 1], c.y[:, 0], c.y[:, 1]]
    columns = [np.repeat(v, m).tolist() for v in per_chord]
    columns.append(np.tile(dataset.times, n).tolist())
    header.append("t")
    if densities:
        header += ["p_obs", "p_ref"]
        columns += [np.exp(dataset.log_ratios.ravel() + 0.5).tolist(),
                    np.full(n * m, np.exp(0.5)).tolist()]
    columns.append(dataset.log_ratios.ravel().tolist())
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([*header, "log_ratio"])
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


def chord_of_row(cols, chords):
    """Each row's chord in `chords` by (angle_index, offset_index), or -1."""
    row_of = {key: i for i, key in enumerate(zip(chords.angle_index.tolist(),
                                                chords.offset_index.tolist()))}
    return np.array([row_of.get((int(a), int(o)), -1)
                     for a, o in zip(cols["angle_index"], cols["offset_index"])], dtype=np.int64)


def oracle_read_dataset_csv(path, chords):
    """The arrays the csv.reader-based reader built, with its rows placed by
    a dict lookup on the chords' raster indices (its input checks left out)."""
    cols = oracle_columns(path)
    target = chord_of_row(cols, chords)
    hit = target >= 0
    t = np.array([float(v) for v in cols["t"]])[hit]
    times = np.array(sorted(set(t.tolist()), reverse=True))
    column_of = {v: j for j, v in enumerate(times.tolist())}
    log_ratios = np.full((len(chords), len(times)), np.nan)
    for i, v, r in zip(target[hit].tolist(), t.tolist(),
                       np.array([float(v) for v in cols["log_ratio"]])[hit].tolist()):
        log_ratios[i, column_of[v]] = r
    return {"x": chords.x, "y": chords.y, "angle_index": chords.angle_index,
            "offset_index": chords.offset_index, "times": times, "log_ratios": log_ratios}


def oracle_read_fits_csv(path, chords):
    cols = oracle_columns(path)
    num = {name: np.array([(int if name in ("angle_index", "offset_index", "n_times") else float)(v)
                           for v in cols[name]]) for name in FITS_COLUMNS}
    target = chord_of_row(cols, chords)
    hit = target >= 0

    def column(values, fill=np.nan):
        out = np.full(len(chords), fill, dtype=values.dtype)
        out[target[hit]] = values[hit]
        return out

    return {"delta_psi": column(num["delta_psi"]), "F": column(num["F"]),
            "residual": column(num["residual"]), "se_delta_psi": column(num["se_delta_psi"]),
            "se_F": column(num["se_F"]),
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
            "log_ratios": ds.log_ratios}


def special_dataset():
    """Three chords holding NaN, +-inf, -0.0, 5e-324, 1e16 and 1e-5; chord 1
    has a dropped observation (NaN log ratio)."""
    chords = ChordTable([[-0.0, 5e-324], [1e-5, 1e16], [0.5, -0.5]],
                        [[1.0, 0.0], [-1e16, 0.25], [-0.5, 0.5]], [0, 0, 2], [1, 3, 0])
    times = np.array([0.02, 0.01, 1e-5, 5e-324])
    log_ratios = np.array([[np.log(2.0), SPECIAL[1], SPECIAL[0], -0.0],
                           [5e-324, np.nan, 1e16, 1e-5],
                           [SPECIAL[2], -0.0, 1e-5, 5e-324]])
    return BoundaryDataset(chords, times, log_ratios)


def small_dataset(ladder=(0.02, 0.01, 0.005, 0.0025), raster=(6, 5)):
    g = Grid.from_extent(-1.3, -1.3, 1.3, 1.3, 17, 17)
    return build_boundary_dataset(OrnsteinUhlenbeckKernel(1.0),
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
                    residual=[5e-324, 0.0, nan, 1e16], se_delta_psi=[1e-5, 0.0, nan, 5e-324],
                    se_F=[1e16, 2.0, nan, -0.0],
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
        assert text.startswith(b"angle_index,offset_index,t,log_ratio\r\n")

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
    @pytest.mark.parametrize("make", [special_dataset, small_dataset])
    def test_dataset_bits_equal_csv_reader(self, tmp_path, make):
        chords = make().chords
        path = tmp_path / "dataset.csv"
        oracle_write_dataset_csv(path, make())
        assert_bits_equal(dataset_arrays(read_dataset_csv(path, chords)),
                          oracle_read_dataset_csv(path, chords))

    @pytest.mark.parametrize("make", [special_dataset, small_dataset])
    def test_shuffled_dataset_reads_the_same(self, tmp_path, make):
        # rows are placed by their raster indices, not by their order: a
        # chord's rows need not follow each other
        ds = make()
        path = tmp_path / "dataset.csv"
        write_dataset_csv(path, ds)
        order = np.random.default_rng(7).permutation(ds.log_ratios.size)
        rewrite(path, lambda lines: [lines[0], *(lines[1 + i] for i in order)])
        assert_bits_equal(dataset_arrays(read_dataset_csv(path, ds.chords)), dataset_arrays(ds))
        assert_bits_equal(dataset_arrays(read_dataset_csv(path, ds.chords)),
                          oracle_read_dataset_csv(path, ds.chords))

    def test_dataset_rows_without_a_chord_are_ignored(self, tmp_path):
        # a row off the chords' raster is left out, its time too
        ds = small_dataset()
        path = tmp_path / "dataset.csv"
        write_dataset_csv(path, ds)
        n_angles, n_offsets = ds.chords.angle_index.max() + 1, ds.chords.offset_index.max() + 1
        rewrite(path, lambda lines: lines + [f"{n_angles},0,0.02,1.0", f"0,{n_offsets},0.5,1.0",
                                             "-1,0,0.01,1.0", "0,-1,0.04,-inf"])
        assert_bits_equal(dataset_arrays(read_dataset_csv(path, ds.chords)), dataset_arrays(ds))
        assert_bits_equal(dataset_arrays(read_dataset_csv(path, ds.chords)),
                          oracle_read_dataset_csv(path, ds.chords))

    def test_chord_without_rows_is_nan(self, tmp_path):
        ds = small_dataset()
        path = tmp_path / "dataset.csv"
        write_dataset_csv(path, ds)
        k = 7
        key = f"{ds.chords.angle_index[k]},{ds.chords.offset_index[k]},"
        rewrite(path, lambda lines: [line for line in lines if not line.startswith(key)])
        back = read_dataset_csv(path, ds.chords)
        expected = ds.log_ratios.copy()
        expected[k] = np.nan
        assert_bits_equal(dataset_arrays(back), {**dataset_arrays(ds), "log_ratios": expected})
        fits, excluded = fit_dataset(back)
        assert excluded == [k] and not fits.ok[k]

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

    def test_older_layout_reads_the_same(self, tmp_path):
        # a file that also holds the chord endpoints (8 columns), or the
        # endpoints and the two densities (10 columns), as the format once
        # did, reads to the same bits as the file written now
        for make in (special_dataset, small_dataset):
            ds = make()
            path = tmp_path / "dataset.csv"
            write_dataset_csv(path, ds)
            new = dataset_arrays(read_dataset_csv(path, ds.chords))
            assert_bits_equal(new, dataset_arrays(ds))
            for densities, header in [
                (False, b"angle_index,offset_index,x1,x2,y1,y2,t,log_ratio\r\n"),
                (True, b"angle_index,offset_index,x1,x2,y1,y2,t,p_obs,p_ref,log_ratio\r\n"),
            ]:
                older = tmp_path / "older.csv"
                with np.errstate(over="ignore"):
                    oracle_write_dataset_csv(older, ds, endpoints=True, densities=densities)
                assert older.read_bytes().startswith(header)
                assert_bits_equal(dataset_arrays(read_dataset_csv(older, ds.chords)), new)

    def test_dropped_observation_reads_back_as_nan(self, tmp_path):
        # a dropped observation (NaN log ratio) is written as nan and read
        # back as NaN
        path = tmp_path / "dropped.csv"
        write_dataset_csv(path, special_dataset())
        back = read_dataset_csv(path, special_dataset().chords)
        assert b"\r\n0,3,0.01,nan\r\n" in path.read_bytes()
        assert np.isnan(back.log_ratios[1, 1])
        assert_bits_equal(dataset_arrays(back), dataset_arrays(special_dataset()))

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
        expected = dataset_arrays(read_dataset_csv(path, ds.chords))
        rewrite(path, lambda lines: [lines[0], "", *lines[1:3], "", *lines[3:], ""])
        assert_bits_equal(dataset_arrays(read_dataset_csv(path, ds.chords)), expected)


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
    "non-numeric field": (set_field(2, "delta_psi", "abc"), set_field(2, "log_ratio", "abc")),
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
        ds = small_dataset()
        path = tmp_path / "dataset.csv"
        write_dataset_csv(path, ds)
        rewrite(path, MALFORMED[case][1])
        with pytest.raises(DataError, match=re.escape(str(path))):
            read_dataset_csv(path, ds.chords)

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
                                             ("se_F", "nan"), ("se_delta_psi", "-1e-3")])
    def test_fits_non_finite_row_is_data_error(self, tmp_path, name, value):
        chords, fits = fitted_fits()
        path = tmp_path / "fits.csv"
        write_fits_csv(path, chords, fits)
        rewrite(path, set_field(2, name, value))
        with pytest.raises(DataError, match=re.escape(str(path))):
            read_fits_csv(path, chords)

    def test_non_finite_ok_fit_rejected_by_table(self):
        with pytest.raises(DataError, match="finite"):
            FitTable([np.nan], [1.0], [0.0], [1.0], [1.0], [3], [True])
        with pytest.raises(DataError, match="nonnegative"):
            FitTable([0.0], [1.0], [0.0], [1.0], [-1e-3], [3], [True])
        table = FitTable([np.nan], [np.nan], [np.nan], [np.nan], [np.nan], [2], [False])
        assert table[0] is None


def lines_indices(path, row):
    return path.read_text().splitlines()[row].split(",")[:2]


class TestDuplicates:
    def test_dataset_row_listed_twice(self, tmp_path):
        ds = small_dataset()
        path = tmp_path / "dataset.csv"
        write_dataset_csv(path, ds)
        rewrite(path, lambda lines: lines + [lines[6]])
        ia, io = lines_indices(path, 6)
        with pytest.raises(DataError, match=rf"{re.escape(str(path))}: chord angle={ia} "
                                            rf"offset={io} at t=.* listed more than once"):
            read_dataset_csv(path, ds.chords)

    def test_fits_chord_listed_twice(self, tmp_path):
        chords, fits = fitted_fits()
        path = tmp_path / "fits.csv"
        write_fits_csv(path, chords, fits)
        rewrite(path, lambda lines: lines[:2] + [lines[5]] + lines[2:])
        ia, io = lines_indices(path, 2)
        with pytest.raises(DataError, match=rf"{re.escape(str(path))}: chord angle={ia} "
                                            rf"offset={io} is listed more than once"):
            read_fits_csv(path, chords)
