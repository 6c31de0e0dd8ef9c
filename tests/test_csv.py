"""The dataset CSV reader pinned to the csv-module code it replaced, and the
binary dataset.npz, fits.npy and sinogram.npz pinned to the tables that the
CSV files they replaced read back as.

The oracles below are the column-wise `csv.writer` writers and the
`csv.reader` + `float()` / `int()` readers as they stood before the readers
moved to `np.loadtxt`: every file must read back the same bits as the
oracles read from the CSV text of the same values.  The dataset oracles use
its four-column layout, each row placed into the given chord table by a
dict lookup on (angle_index, offset_index); the oracle writer makes the
dataset.csv text that observed data come in, and also the two older
layouts, with the chord endpoints and with the densities as well.
"""

import csv
import io
import re
import struct
import zipfile

import numpy as np
import pytest

from driftscope.errors import DataError
from driftscope.fields import DiscDomain, Grid
from driftscope.kernels import OrnsteinUhlenbeckKernel
from driftscope.smalltime import (
    BoundaryDataset,
    ChordTable,
    FitRow,
    FitTable,
    build_boundary_dataset,
    fit_dataset,
    read_dataset_csv,
    read_fits_csv,
    write_dataset_csv,
    write_fits_csv,
    chord_angles,
    chord_offsets,
    make_parallel_chords,
)
from driftscope.xray import Sinogram, read_sinogram_csv, write_sinogram_csv

SPECIAL = [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e16, 1e-5]

# the columns of the fits CSV file that fits.npy replaced
FITS_COLUMNS = ["angle_index", "offset_index", *FitRow._fields]


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


def oracle_write_sinogram_csv(path, sino):
    """The sinogram CSV file that sinogram.npz replaced: a size row, then
    one row per bin in (angle, offset) order."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerows([["n_angles", "n_offsets", "R"], [sino.n_angles, sino.n_offsets, sino.radius],
                      ["angle_index", "offset_index", "value", "valid"]])
        w.writerows((ia, io, float(sino.values[ia, io]), int(sino.mask[ia, io]))
                    for ia in range(sino.n_angles) for io in range(sino.n_offsets))


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
                        [[1.0, 0.0], [-1e16, 0.25], [-0.5, 0.5]], [0, 0, 2], [1, 3, 0], (3, 4))
    times = np.array([0.02, 0.01, 1e-5, 5e-324])
    log_ratios = np.array([[np.log(2.0), SPECIAL[1], SPECIAL[0], -0.0],
                           [5e-324, np.nan, 1e16, 1e-5],
                           [SPECIAL[2], -0.0, 1e-5, 5e-324]])
    return BoundaryDataset(chords, times, log_ratios)


def small_dataset(ladder=(0.02, 0.01, 0.005, 0.0025), raster=(6, 5)):
    g = Grid.from_extent(-1.3, -1.3, 1.3, 1.3, 17, 17)
    chords, _ = make_parallel_chords(DiscDomain(g, 0.0, 0.0, 1.0), *raster)
    return build_boundary_dataset(OrnsteinUhlenbeckKernel(1.0), chords, ladder)


def special_fits():
    """Four fits holding -0.0, 5e-324, 1e16 and 1e-5 on a 4 x 3 raster; the
    third is not ok.  Returns (chords, fits)."""
    chords = ChordTable([[-1.0, 0.0]] * 4, [[1.0, 0.0]] * 4, [0, 0, 1, 3], [0, 2, 1, 0], (4, 3))
    nan = float("nan")
    fits = FitTable(chords=chords, delta_psi=[-0.0, 1e16, nan, 5e-324], F=[1e-5, -0.0, nan, -1e16],
                    residual=[5e-324, 0.0, nan, 1e16], se_delta_psi=[1e-5, 0.0, nan, 5e-324],
                    se_F=[1e16, 2.0, nan, -0.0],
                    n_times=[4, 3, 2, 4], ok=[True, True, False, True])
    return chords, fits


def fitted_fits():
    ds = small_dataset()
    return ds.chords, fit_dataset(ds)[0]


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
        oracle_write_dataset_csv(path, ds)
        order = np.random.default_rng(7).permutation(ds.log_ratios.size)
        rewrite(path, lambda lines: [lines[0], *(lines[1 + i] for i in order)])
        assert_bits_equal(dataset_arrays(read_dataset_csv(path, ds.chords)), dataset_arrays(ds))
        assert_bits_equal(dataset_arrays(read_dataset_csv(path, ds.chords)),
                          oracle_read_dataset_csv(path, ds.chords))

    def test_dataset_rows_without_a_chord_are_ignored(self, tmp_path):
        # a row off the chords' raster is left out, its time too
        ds = small_dataset()
        path = tmp_path / "dataset.csv"
        oracle_write_dataset_csv(path, ds)
        n_angles, n_offsets = ds.chords.raster
        rewrite(path, lambda lines: lines + [f"{n_angles},0,0.02,1.0", f"0,{n_offsets},0.5,1.0",
                                             "-1,0,0.01,1.0", "0,-1,0.04,-inf"])
        assert_bits_equal(dataset_arrays(read_dataset_csv(path, ds.chords)), dataset_arrays(ds))
        assert_bits_equal(dataset_arrays(read_dataset_csv(path, ds.chords)),
                          oracle_read_dataset_csv(path, ds.chords))

    def test_chord_without_rows_is_nan(self, tmp_path):
        ds = small_dataset()
        path = tmp_path / "dataset.csv"
        oracle_write_dataset_csv(path, ds)
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
        # fits.npy reads back the bits the CSV reader read from the same fits
        chords, fits = make()
        oracle_write_fits_csv(tmp_path / "fits.csv", chords, fits)
        write_fits_csv(tmp_path / "fits.npy", fits)
        assert_bits_equal(read_fits_csv(tmp_path / "fits.npy", chords),
                          oracle_read_fits_csv(tmp_path / "fits.csv", chords))

    def test_fits_rows_without_a_chord_are_ignored(self, tmp_path):
        # a raster cell that names no chord is not read, whatever it holds
        chords, fits = special_fits()
        path = tmp_path / "fits.npy"
        write_fits_csv(path, fits)
        expected = {name: getattr(read_fits_csv(path, chords), name)
                    for name in (*FitRow._fields, "ok")}
        cells = np.load(path, allow_pickle=False)
        seen = np.zeros(chords.raster, dtype=bool)
        seen[chords.angle_index, chords.offset_index] = True
        assert (~seen).sum() == 8
        cells[~seen] = [1.0, np.inf, -1.0, np.nan, -0.0, 2.5]
        np.save(path, cells)
        assert_bits_equal(read_fits_csv(path, chords), expected)

    def test_older_layout_reads_the_same(self, tmp_path):
        # a file that also holds the chord endpoints (8 columns), or the
        # endpoints and the two densities (10 columns), as the format once
        # did, reads to the same bits as the file written now
        for make in (special_dataset, small_dataset):
            ds = make()
            path = tmp_path / "dataset.csv"
            oracle_write_dataset_csv(path, ds)
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
        oracle_write_dataset_csv(path, special_dataset())
        back = read_dataset_csv(path, special_dataset().chords)
        assert b"\r\n0,3,0.01,nan\r\n" in path.read_bytes()
        assert np.isnan(back.log_ratios[1, 1])
        assert_bits_equal(dataset_arrays(back), dataset_arrays(special_dataset()))

    @pytest.mark.parametrize("n_angles, n_offsets", [(3, 4), (12, 13)])
    def test_sinogram_bits_equal_csv_reader(self, tmp_path, n_angles, n_offsets):
        # sinogram.npz reads back the bits the CSV reader read from the same sinogram
        shape = (n_angles, n_offsets)
        rng = np.random.default_rng(n_angles)
        values = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
        values.flat[:4] = [-0.0, 5e-324, 1e16, 1e-5]
        mask = rng.random(shape) > 0.2
        mask.flat[:4] = True
        values[~mask] = np.where(rng.random((~mask).sum()) < 0.5, np.nan, -np.inf)
        sino = Sinogram(values, mask, 1.25)
        oracle_write_sinogram_csv(tmp_path / "sinogram.csv", sino)
        write_sinogram_csv(tmp_path / "sinogram.npz", sino)
        back = read_sinogram_csv(tmp_path / "sinogram.npz")
        assert_bits_equal({name: np.asarray(getattr(back, name))
                           for name in ("angles", "offsets", "values", "mask", "radius")},
                          oracle_read_sinogram_csv(tmp_path / "sinogram.csv"))

    def test_blank_lines_are_skipped(self, tmp_path):
        ds = small_dataset()
        path = tmp_path / "dataset.csv"
        oracle_write_dataset_csv(path, ds)
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


# case -> edit of a dataset file
MALFORMED = {
    "non-numeric field": set_field(2, "log_ratio", "abc"),
    "short row": lambda lines: lines[:2] + [lines[2].rsplit(",", 1)[0]] + lines[3:],
    "non-integral index": set_field(3, "angle_index", "2.5"),
    "nan index": set_field(1, "offset_index", "nan"),
    "header only": lambda lines: lines[:1],
    "empty file": lambda lines: [],
    "missing column": drop_column("t"),
}


def npy_of(array) -> bytes:
    """The .npy bytes of an array (an object array pickled)."""
    buf = io.BytesIO()
    np.lib.format.write_array(buf, np.asarray(array), allow_pickle=True)
    return buf.getvalue()


def cells_of(data: bytes) -> np.ndarray:
    return np.load(io.BytesIO(data), allow_pickle=False).copy()


def header_length(data: bytes) -> int:
    """Bytes before the body of a format 1.0 .npy file."""
    return 10 + int.from_bytes(data[8:10], "little")


def header_edit(old: str, new: str):
    """An edit of a format 1.0 .npy file that replaces `old` by `new` in its
    header text, re-padded as np.save pads it."""
    def edit(data):
        header = data[10:header_length(data)].decode("latin1").rstrip()
        assert old in header, header
        header = header.replace(old, new)
        header += " " * (-(10 + len(header) + 1) % 64) + "\n"
        return data[:8] + len(header).to_bytes(2, "little") + header.encode("latin1") \
            + data[header_length(data):]
    return edit


def set_cell(index, value):
    def edit(data):
        cells = cells_of(data)
        cells[index] = value
        return npy_of(cells)
    return edit


# case -> edit of the bytes of fits.npy on fitted_fits' 6 x 5 raster
FITS_MALFORMED = {
    "non-numeric field": lambda data: npy_of(cells_of(data).astype(str)),
    "object array": lambda data: npy_of(cells_of(data).astype(object)),
    "float32": lambda data: npy_of(cells_of(data).astype("<f4")),
    "big-endian": lambda data: npy_of(cells_of(data).astype(">f8")),
    "fortran order": header_edit("'fortran_order': False", "'fortran_order': True"),
    "short row": lambda data: data[:-8],
    "header only": lambda data: data[:header_length(data)],
    "empty file": lambda data: b"",
    "bad magic": lambda data: b"\x00" + data[1:],
    "format version 3.0": lambda data: data[:6] + b"\x03\x00" + data[8:],
    "unreadable header": header_edit("'shape': (6, 5, 6)", "'shape': (6, 5, x)"),
    "unclosed shape": header_edit("(6, 5, 6)", "(6, 5, 6"),  # tokenize's TokenError
    "empty dtype description": header_edit("'<f8'", "()"),  # an IndexError in numpy
    "missing column": lambda data: npy_of(cells_of(data)[..., :5]),
    "other raster": lambda data: npy_of(cells_of(data)[:, :4]),
    # the raster's angle and offset index ranges are the header's first two sizes
    "nan index": header_edit("(6, 5, 6)", "(6, nan, 6)"),
    "non-integral index": header_edit("(6, 5, 6)", "(6, 5.5, 6)"),
    "huge shape in header": header_edit("(6, 5, 6)", "(1000000000, 1000000000, 6)"),
    "non-integral n_times": set_cell((2, 3, 5), 2.5),
    "infinite n_times": set_cell((2, 3, 5), np.inf),
}


class TestMalformed:
    @pytest.mark.parametrize("case", MALFORMED)
    def test_dataset_data_error_names_path(self, tmp_path, case):
        ds = small_dataset()
        path = tmp_path / "dataset.csv"
        oracle_write_dataset_csv(path, ds)
        rewrite(path, MALFORMED[case])
        with pytest.raises(DataError, match=re.escape(str(path))):
            read_dataset_csv(path, ds.chords)

    @pytest.mark.parametrize("case", FITS_MALFORMED)
    def test_fits_data_error_names_path(self, tmp_path, case):
        chords, fits = fitted_fits()
        path = tmp_path / "fits.npy"
        write_fits_csv(path, fits)
        path.write_bytes(FITS_MALFORMED[case](path.read_bytes()))
        with pytest.raises(DataError, match=re.escape(str(path))):
            read_fits_csv(path, chords)

    @pytest.mark.parametrize("name, value", [("delta_psi", "nan"), ("F", "inf"),
                                             ("residual", "-inf"), ("residual", "-1e-3"),
                                             ("se_F", "nan"), ("se_delta_psi", "-1e-3")])
    def test_fits_non_finite_row_is_data_error(self, tmp_path, name, value):
        chords, fits = fitted_fits()
        path = tmp_path / "fits.npy"
        write_fits_csv(path, fits)
        k = 2
        cell = (chords.angle_index[k], chords.offset_index[k], FitRow._fields.index(name))
        path.write_bytes(set_cell(cell, float(value))(path.read_bytes()))
        with pytest.raises(DataError, match=re.escape(str(path))):
            read_fits_csv(path, chords)

    def test_non_finite_ok_fit_rejected_by_table(self):
        chord = ChordTable([[-1.0, 0.0]], [[1.0, 0.0]])
        with pytest.raises(DataError, match="finite"):
            FitTable(chord, [np.nan], [1.0], [0.0], [1.0], [1.0], [3], [True])
        with pytest.raises(DataError, match="nonnegative"):
            FitTable(chord, [0.0], [1.0], [0.0], [1.0], [-1e-3], [3], [True])
        table = FitTable(chord, [np.nan], [np.nan], [np.nan], [np.nan], [np.nan], [2], [False])
        assert table[0] is None

    def test_partly_nan_cell_names_its_chord(self, tmp_path):
        chords, fits = fitted_fits()
        path = tmp_path / "fits.npy"
        write_fits_csv(path, fits)
        k = 7
        ia, io = chords.angle_index[k], chords.offset_index[k]
        path.write_bytes(set_cell((ia, io, FitRow._fields.index("n_times")), np.nan)(
            path.read_bytes()))
        with pytest.raises(DataError, match=rf"{re.escape(str(path))}: chord angle={ia} "
                                            rf"offset={io} is NaN in some columns only"):
            read_fits_csv(path, chords)


def lines_indices(path, row):
    return path.read_text().splitlines()[row].split(",")[:2]


class TestDuplicates:
    def test_dataset_row_listed_twice(self, tmp_path):
        ds = small_dataset()
        path = tmp_path / "dataset.csv"
        oracle_write_dataset_csv(path, ds)
        rewrite(path, lambda lines: lines + [lines[6]])
        ia, io = lines_indices(path, 6)
        with pytest.raises(DataError, match=rf"{re.escape(str(path))}: chord angle={ia} "
                                            rf"offset={io} at t=.* listed more than once"):
            read_dataset_csv(path, ds.chords)


def npz_of(members: dict, compression=zipfile.ZIP_STORED) -> bytes:
    """A zip archive of the given member bytes, stored as np.savez stores
    them or compressed as np.savez_compressed does."""
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", compression) as archive:
        for name, data in members.items():
            archive.writestr(name, data)
    return buf.getvalue()


def sinogram_members(values=None, valid=None, radius=1.25) -> dict:
    values = np.arange(12.0).reshape(3, 4) if values is None else values
    valid = np.ones(np.shape(values), dtype=bool) if valid is None else valid
    return {"values.npy": npy_of(values), "valid.npy": npy_of(valid),
            "radius.npy": npy_of(np.float64(radius) if np.isscalar(radius) else radius)}


def patched(data: bytes, signature: bytes, offset: int, fmt: str, value: int) -> bytes:
    """`data` with a field of its first zip record of `signature` (a local
    header b"PK\\3\\4" or a central directory entry b"PK\\1\\2") set."""
    out = bytearray(data)
    at = out.find(signature) + offset
    out[at:at + struct.calcsize(fmt)] = struct.pack(fmt, value)
    return bytes(out)


LOCAL, CENTRAL = b"PK\x03\x04", b"PK\x01\x02"


def without(members: dict, name: str) -> dict:
    return {k: v for k, v in members.items() if k != name}


# case -> the bytes of a malformed sinogram.npz
SINOGRAM_MALFORMED = {
    "not a zip": b"n_angles,n_offsets,R\r\n3,4,1.25\r\n",
    "empty file": b"",
    "truncated archive": npz_of(sinogram_members())[:-40],
    "missing values": npz_of(without(sinogram_members(), "values.npy")),
    "missing valid": npz_of(without(sinogram_members(), "valid.npy")),
    "missing radius": npz_of(without(sinogram_members(), "radius.npy")),
    "integer valid": npz_of(sinogram_members(valid=np.ones((3, 4), dtype=np.int64))),
    "object values": npz_of(sinogram_members(values=np.ones((3, 4), dtype=object))),
    "float32 values": npz_of(sinogram_members(values=np.ones((3, 4), dtype="<f4"))),
    "1-D values": npz_of(sinogram_members(values=np.ones(12), valid=np.ones(12, dtype=bool))),
    "valid of another shape": npz_of(sinogram_members(valid=np.ones((4, 3), dtype=bool))),
    "radius not a scalar": npz_of(sinogram_members(radius=np.ones(1))),
    "no angles": npz_of(sinogram_members(values=np.ones((0, 4)))),
    "no offsets": npz_of(sinogram_members(values=np.ones((3, 0)))),
    "zero radius": npz_of(sinogram_members(radius=0.0)),
    "infinite radius": npz_of(sinogram_members(radius=np.inf)),
    "values cut short": npz_of({**sinogram_members(),
                                "values.npy": npy_of(np.ones((3, 4)))[:-8]}),
    "huge shape in header": npz_of({**sinogram_members(), "values.npy": header_edit(
        "(3, 4)", "(1000000000, 1000000000)")(npy_of(np.ones((3, 4))))}),
    # a deflated member's reads stop at its data too
    "huge shape in a deflated member": npz_of({**sinogram_members(), "values.npy": header_edit(
        "(3, 4)", "(1000000000, 1000000000)")(npy_of(np.ones((3, 4))))}, zipfile.ZIP_DEFLATED),
    "negative sizes in header": npz_of({**sinogram_members(), "values.npy": header_edit(
        "(3, 4)", "(-3, -4)")(npy_of(np.ones((3, 4))))}),
    "nan on a valid bin": npz_of(sinogram_members(values=np.full((3, 4), np.nan))),
    # damage that each of zipfile's errors reports
    "bad crc": patched(npz_of(sinogram_members()), CENTRAL, 16, "<I", 0x12345678),
    "encrypted flag": patched(npz_of(sinogram_members()), CENTRAL, 8, "<H", 1),
    "unknown compression": patched(npz_of(sinogram_members()), CENTRAL, 10, "<H", 99),
    "bzip2 flag on stored data": patched(npz_of(sinogram_members()), CENTRAL, 10, "<H", 12),
    "deflate flag on a reserved block": patched(
        npz_of({**sinogram_members(), "values.npy": b"\x07" * 8}), CENTRAL, 10, "<H", 8),
    "local extra field past the end": patched(npz_of(sinogram_members()), LOCAL, 28, "<H", 65535),
}


class TestSinogramNpz:
    @pytest.mark.parametrize("case", SINOGRAM_MALFORMED)
    def test_malformed_file_is_data_error_naming_path(self, tmp_path, case):
        path = tmp_path / "sinogram.npz"
        path.write_bytes(SINOGRAM_MALFORMED[case])
        with pytest.raises(DataError, match=re.escape(f"{path}: ")):
            read_sinogram_csv(path)

    def test_well_formed_members_read(self, tmp_path):
        # the helpers above build a file the reader takes, so each case
        # fails on its one defect; np.savez_compressed's deflated members read
        path = tmp_path / "sinogram.npz"
        for compression in (zipfile.ZIP_STORED, zipfile.ZIP_DEFLATED):
            path.write_bytes(npz_of(sinogram_members(), compression))
            sino = read_sinogram_csv(path)
            assert sino.values.shape == (3, 4) and sino.radius == 1.25 and sino.mask.all()
        nan_masked = np.where(np.eye(3, 4, dtype=bool), np.nan, 1.0)
        path.write_bytes(npz_of(sinogram_members(values=nan_masked,
                                                 valid=~np.eye(3, 4, dtype=bool))))
        assert read_sinogram_csv(path).mask.sum() == 9

    def test_written_to_the_path_given_and_bytes_repeat(self, tmp_path):
        # a path without the .npz suffix is written as it is, np.load reads
        # the file, and writing it again, later, gives the same bytes
        sino = Sinogram(np.arange(12.0).reshape(3, 4), np.eye(3, 4, dtype=bool), 1.25)
        path = tmp_path / "sinogram"
        write_sinogram_csv(path, sino)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sinogram"]
        with np.load(path, allow_pickle=False) as npz:
            assert sorted(npz.files) == ["radius", "valid", "values"]
            assert np.array_equal(npz["values"], sino.values)
            assert np.array_equal(npz["valid"], sino.mask) and npz["valid"].dtype == bool
            assert npz["radius"].shape == () and float(npz["radius"]) == 1.25
        first = path.read_bytes()
        write_sinogram_csv(tmp_path / "again.npz", sino)
        assert (tmp_path / "again.npz").read_bytes() == first
        assert all(info.date_time == (1980, 1, 1, 0, 0, 0)
                   for info in zipfile.ZipFile(path).infolist())



def npz_members(data: bytes) -> dict:
    with zipfile.ZipFile(io.BytesIO(data)) as archive:
        return {name: archive.read(name) for name in archive.namelist()}


def member_edit(name, edit):
    """An edit of an .npz file that applies `edit` to the bytes of its
    member name.npy."""
    def apply(data):
        members = npz_members(data)
        return npz_of({**members, f"{name}.npy": edit(members[f"{name}.npy"])})
    return apply


def arrays_edit(edit):
    """An edit of an .npz file that rewrites its arrays: `edit` maps the
    arrays by name ({"log_ratios": ..., "times": ...}) to those to write."""
    def apply(data):
        arrays = {name[:-4]: cells_of(member) for name, member in npz_members(data).items()}
        return npz_of({f"{name}.npy": npy_of(array) for name, array in edit(arrays).items()})
    return apply


def set_time(k, value):
    def edit(arrays):
        times = arrays["times"]
        times[k] = times[0] if value == "repeat" else value
        return arrays
    return arrays_edit(edit)


def shape_edit(shape):
    """An edit of a .npy file's header that claims `shape`, whatever it held."""
    def edit(data):
        header = data[10:header_length(data)].decode("latin1")
        return header_edit(re.search(r"'shape': \([^)]*\)", header).group(),
                           f"'shape': {shape}")(data)
    return edit


# case -> edit of the bytes of dataset.npz, whatever its raster and ladder
DATASET_MALFORMED = {
    "float32 log_ratios": member_edit("log_ratios", lambda d: npy_of(cells_of(d).astype("<f4"))),
    "integer times": member_edit("times", lambda d: npy_of(np.arange(len(cells_of(d)), 0, -1))),
    "object log_ratios": member_edit("log_ratios", lambda d: npy_of(cells_of(d).astype(object))),
    "fortran-order log_ratios": member_edit(
        "log_ratios", header_edit("'fortran_order': False", "'fortran_order': True")),
    "big-endian times": member_edit("times", lambda d: npy_of(cells_of(d).astype(">f8"))),
    "another raster": arrays_edit(lambda a: {**a, "log_ratios": a["log_ratios"][:, 1:]}),
    "another number of times": arrays_edit(lambda a: {**a, "log_ratios": a["log_ratios"][..., 1:]}),
    "2-D log_ratios": arrays_edit(lambda a: {**a, "log_ratios": a["log_ratios"][..., 0]}),
    "2-D times": arrays_edit(lambda a: {**a, "times": a["times"][None]}),
    "scalar times": arrays_edit(lambda a: {**a, "times": a["times"][0]}),
    "two times": arrays_edit(lambda a: {"log_ratios": a["log_ratios"][..., :2],
                                        "times": a["times"][:2]}),
    "nan time": set_time(1, np.nan),
    "infinite time": set_time(0, np.inf),
    "zero time": set_time(-1, 0.0),
    "negative time": set_time(-1, -1e-3),
    "repeated time": set_time(1, "repeat"),
    "ascending times": arrays_edit(lambda a: {"log_ratios": a["log_ratios"][..., ::-1],
                                              "times": a["times"][::-1]}),
    "missing times": lambda data: npz_of(without(npz_members(data), "times.npy")),
    "missing log_ratios": lambda data: npz_of(without(npz_members(data), "log_ratios.npy")),
    "log_ratios cut short": member_edit("log_ratios", lambda d: d[:-8]),
    "truncated archive": lambda data: data[:-40],
    "bad crc": lambda data: patched(data, CENTRAL, 16, "<I", 0x12345678),
    "huge shape in header": member_edit("log_ratios", shape_edit((10**9, 10**9, 4))),
}


class TestDatasetNpz:
    @pytest.mark.parametrize("case", DATASET_MALFORMED)
    def test_malformed_file_is_data_error_naming_path(self, tmp_path, case):
        ds = small_dataset()
        path = tmp_path / "dataset.npz"
        write_dataset_csv(path, ds)
        path.write_bytes(DATASET_MALFORMED[case](path.read_bytes()))
        assert path.read_bytes().startswith(LOCAL)  # read as an .npz, not as CSV text
        with pytest.raises(DataError, match=re.escape(f"{path}: ")):
            read_dataset_csv(path, ds.chords)

    @pytest.mark.parametrize("make", [special_dataset, small_dataset])
    def test_reads_back_the_bits_the_csv_text_reads(self, tmp_path, make):
        ds = make()
        write_dataset_csv(tmp_path / "dataset.npz", ds)
        oracle_write_dataset_csv(tmp_path / "dataset.csv", ds)
        back = dataset_arrays(read_dataset_csv(tmp_path / "dataset.npz", ds.chords))
        assert_bits_equal(back, dataset_arrays(ds))
        assert_bits_equal(back, oracle_read_dataset_csv(tmp_path / "dataset.csv", ds.chords))

    def test_format_is_told_by_the_bytes_not_the_name(self, tmp_path):
        # an .npz named data.csv reads as an .npz, CSV text named data.npz as CSV
        ds = small_dataset()
        write_dataset_csv(tmp_path / "data.csv", ds)
        oracle_write_dataset_csv(tmp_path / "data.npz", ds)
        assert (tmp_path / "data.csv").read_bytes().startswith(LOCAL)
        assert (tmp_path / "data.npz").read_bytes().startswith(b"angle_index,")
        for name in ("data.csv", "data.npz"):
            back = read_dataset_csv(tmp_path / name, ds.chords)
            assert_bits_equal(dataset_arrays(back), dataset_arrays(ds))

    def test_written_to_the_path_given_and_bytes_repeat(self, tmp_path):
        # a path without the .npz suffix is written as it is, np.load reads
        # the file, and writing it again, later, gives the same bytes
        ds = special_dataset()
        path = tmp_path / "dataset"
        write_dataset_csv(path, ds)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dataset"]
        with np.load(path, allow_pickle=False) as npz:
            assert npz.files == ["log_ratios", "times"]
            cells, times = npz["log_ratios"], npz["times"]
        assert cells.shape == (3, 4, 4) and cells.dtype == np.dtype("<f8")
        assert times.dtype == np.dtype("<f8") and times.tobytes() == ds.times.tobytes()
        # each chord's cell holds its log ratios, and the cells without a chord are all NaN
        assert (cells[ds.chords.angle_index, ds.chords.offset_index].tobytes()
                == ds.log_ratios.tobytes())
        assert np.isnan(cells).all(axis=-1).sum() == 3 * 4 - 3
        first = path.read_bytes()
        write_dataset_csv(tmp_path / "again.npz", ds)
        assert (tmp_path / "again.npz").read_bytes() == first
        with zipfile.ZipFile(path) as archive:
            assert all(info.date_time == (1980, 1, 1, 0, 0, 0) for info in archive.infolist())

def test_fits_npy_written_to_the_path_given(tmp_path):
    # np.save would append .npy to a path without it
    chords, fits = special_fits()
    path = tmp_path / "fits"
    write_fits_csv(path, fits)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fits"]
    cells = np.load(path, allow_pickle=False)
    assert cells.shape == (4, 3, 6) and cells.dtype == np.dtype("<f8")
    # the not-ok fit and the cells without a chord are all NaN
    assert np.isnan(cells).all(axis=-1).sum() == 4 * 3 - 3
    assert cells[3, 0].tolist() == [5e-324, -1e16, 1e16, 5e-324, -0.0, 4.0]
