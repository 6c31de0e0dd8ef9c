"""Extract potential-difference intercepts and chord-averaged potentials from
log density ratios over a ladder of small times.

For each chord (x, y) the log ratio of the observed transition density p
to the driftless one p0 behaves like
    log(p / p0)(t) = dpsi - F t + o(t),
so a weighted affine fit in t yields the drift-potential difference
dpsi = psi(y) - psi(x) (intercept) and the chord average F of the scalar
potential (minus the slope) in one pass.  p0 is the kernel of the same
diffusion without drift, Brownian while the diffusion coefficient is the
identity, and `build_boundary_dataset` evaluates it itself: against any
other p0 the slope is the difference of two potentials, which is not the
potential of any drift.  The log ratio is the only datum kept per
(chord, time): the fit reads nothing else, and the densities themselves
underflow at small t where their log ratio is still finite.

Chords and fits are tables of columns: a ChordTable of endpoints, raster
indices and lengths, and a FitTable of the value columns of fits.npy
(dpsi, F, the residual, the standard errors of dpsi and F, the number of
times fitted) plus ok.  Code reads the columns; a slice, mask or index
array gives a sub-table.  The raster is the config's: `chord_angles`,
`chord_offsets` and `make_parallel_chords` are its one definition.  A
raster chord is fixed by its (angle_index, offset_index) and the domain:
dataset.npz (the chain's handoff) and fits.npy hold its data in that cell,
dataset.csv (observed data as text) names it by those indices, and their
readers place the values into the chord table rebuilt from the config.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
import tokenize
import warnings
import zipfile
import zlib
from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

import numpy as np

from .errors import DataError, GeometryError
from .fields import Domain
from .kernels import DRIFTLESS, Kernel

# chords per batch of the chord-wise layers (the ladder fit here and the
# boundary-psi normal equations): bounds their temporaries
_CHORDS_PER_CHUNK = 8192


@dataclass(frozen=True, eq=False)
class ChordTable:
    """Chords as arrays: endpoints x, y (n, 2), raster indices and lengths (n,).

    The endpoint checks run once over the whole table: finite planar
    points, and no chord shorter than 1e-8 s + 1e-5 s, np.allclose's
    tolerance at coordinates of size s, for s half the table's longest
    chord, at most 1: a small domain keeps its chords wherever it sits.  A
    slice, mask or index array gives a sub-table.
    """

    x: np.ndarray
    y: np.ndarray
    angle_index: np.ndarray | None = None
    offset_index: np.ndarray | None = None
    length: np.ndarray = dc_field(init=False)

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.ndim != 2 or x.shape[1:] != (2,) or y.shape != x.shape:
            raise DataError("chord endpoints must be planar points")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise DataError("chord endpoints must be finite")
        d = y - x
        length = np.hypot(d[:, 0], d[:, 1])
        if np.any(length <= (1e-8 + 1e-5) * min(1.0, 0.5 * length.max(initial=0.0))):
            raise GeometryError("chord endpoints coincide")
        columns = {"x": x, "y": y, "length": length}
        for name in ("angle_index", "offset_index"):
            v = getattr(self, name)
            v = np.full(len(x), -1) if v is None else np.asarray(v, dtype=np.int64)
            if v.shape != (len(x),):
                raise DataError(f"{name} must hold one entry per chord")
            columns[name] = v
        for name, v in columns.items():
            v = np.ascontiguousarray(v)
            v.setflags(write=False)
            object.__setattr__(self, name, v)

    def __len__(self) -> int:
        return len(self.x)

    def __getitem__(self, i):
        return ChordTable(self.x[i], self.y[i], self.angle_index[i], self.offset_index[i])


def chord_offsets(radius: float, n_offsets: int) -> np.ndarray:
    """Equi-spaced offsets strictly inside (-R, R): z_j = -R + (j+1) * 2R/(n+1)."""
    if n_offsets < 1:
        raise DataError("n_offsets must be positive")
    step = 2.0 * radius / (n_offsets + 1)
    return -radius + step * (1.0 + np.arange(n_offsets))


def chord_angles(n_angles: int) -> np.ndarray:
    if n_angles < 1:
        raise DataError("n_angles must be positive")
    return np.pi * np.arange(n_angles) / n_angles


def make_parallel_chords(domain: Domain, n_angles: int, n_offsets: int):
    """Chord table of the domain on a parallel-beam (angle, offset) raster.

    Offsets are measured from the domain's center.  Every line of the raster
    is clipped in one `Domain.chord_endpoints` call.
    Returns (chords, skipped): the ChordTable of the lines that cross the
    domain, in angle-major raster order, and the (angle_index, offset_index)
    pairs of the lines that miss it, as an (n_missed, 2) int array.
    """
    angles = chord_angles(n_angles)
    omega = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    offsets = chord_offsets(domain.circumradius, n_offsets)
    x, y, hit = domain.chord_endpoints(omega[:, None, :], offsets[None, :])
    ia, io = np.nonzero(hit)
    return ChordTable(x[ia, io], y[ia, io], ia, io), np.argwhere(~hit)


class FitRow(NamedTuple):
    """One ok chord fit: the values of its cell of fits.npy."""

    delta_psi: float
    F: float
    residual: float
    se_delta_psi: float
    se_F: float
    n_times: int


# the columns of FitRow that hold floats
_FIT_FLOATS = FitRow._fields[:-1]


@dataclass(frozen=True, eq=False)
class FitTable:
    """Per-chord affine fits as arrays, row-aligned with a ChordTable: the
    value columns of fits.npy (the fields of FitRow) and ok.

    Rows with ok False (fewer than 3 surviving observations) hold NaN, as
    their cells of fits.npy do.  On ok rows every value is finite, and the
    residual and the standard errors are nonnegative.  An integer index, or
    iteration, gives a FitRow built from the checked columns, or None for a
    row that is not ok; a slice, mask or index array gives a sub-table.
    The rows stay only because the benchmark's tracer (perfbench/tracing.py)
    iterates a fit table to count its ok fits; the package reads columns.
    """

    delta_psi: np.ndarray
    F: np.ndarray
    residual: np.ndarray
    se_delta_psi: np.ndarray
    se_F: np.ndarray
    n_times: np.ndarray
    ok: np.ndarray

    def __post_init__(self):
        cols = {name: np.asarray(getattr(self, name), dtype=float) for name in _FIT_FLOATS}
        cols["n_times"] = np.asarray(self.n_times, dtype=np.int64)
        cols["ok"] = np.asarray(self.ok, dtype=bool)
        if any(v.shape != cols["ok"].shape or v.ndim != 1 for v in cols.values()):
            raise DataError("fit table columns must be 1-D arrays of equal length")
        ok = cols["ok"]
        finite = all(np.all(np.isfinite(cols[name]) | ~ok) for name in _FIT_FLOATS)
        if not finite or any(np.any(cols[name][ok] < 0)
                             for name in ("residual", "se_delta_psi", "se_F")):
            raise DataError("fit results must be finite, with nonnegative residual and "
                            "standard errors")
        for name, v in cols.items():
            v.setflags(write=False)
            object.__setattr__(self, name, v)

    def __len__(self) -> int:
        return len(self.ok)

    def __getitem__(self, i):
        if isinstance(i, (int, np.integer)):
            return next(iter(self[[i]]))
        return FitTable(*(getattr(self, name)[i] for name in (*FitRow._fields, "ok")))

    def __iter__(self):
        # the benchmark's tracer counts the ok fits as the rows that are not
        # None; the pipeline itself reads the columns
        rows = zip(*(getattr(self, name).tolist() for name in FitRow._fields))
        return (FitRow._make(row) if ok else None for row, ok in zip(rows, self.ok.tolist()))


def _row_sums(table, *start):
    """Each row's sum, added column after column (after `start`, if given).
    For up to 7 columns numpy's own `sum(axis=1)` adds a row in this order,
    so the bits are equal; its reduction loop costs several times more."""
    return functools.reduce(np.add, (table[:, j] for j in range(table.shape[1])), *start)


def fit_ladder_batch(times, logratios) -> FitTable:
    """Masked weighted least squares of r(t) ~ dpsi - F t, weights 1/t, for
    many chords sharing one time ladder.

    logratios has shape (n_chords, m); a non-finite entry is a dropped
    observation and gets weight zero.  Each row yields the intercept dpsi,
    the slope magnitude F, the weighted RMS residual and the standard errors
    of dpsi and F; rows with fewer than 3 observations are marked not ok.  The
    table is fitted `_CHORDS_PER_CHUNK` rows at a time into preallocated
    columns, so the temporaries do not grow with the table.  Every sum runs
    along one row, and no chunk of a longer table is a single row, so the
    bits are those of fitting the whole table at once.  The weight sums add
    a row's columns in ladder order (`_row_sums`), as numpy's `sum(axis=1)`
    does for up to 7 columns, with the same bits; from 8 columns numpy
    sums pairwise, so a ladder of 8 or more times may round its sums
    differently in the last place, and its fits by up to ~1e-11 relative
    (the slope's cancellation).  The products with the data (`r @ w`)
    stay BLAS's.
    """
    t = np.asarray(times, dtype=float)
    table = np.asarray(logratios, dtype=float)
    w = 1.0 / t
    cols = np.empty((len(_FIT_FLOATS), len(table)))
    n_obs = np.empty(len(table), dtype=np.int64)
    # a lone last row joins the chunk before it: a one-row matrix-vector
    # product takes another BLAS path and rounds differently
    bounds = [*range(0, max(len(table) - 1, 1), _CHORDS_PER_CHUNK), len(table)]
    for lo, hi in zip(bounds, bounds[1:]):
        part = slice(lo, hi)
        r = table[part]
        seen = np.isfinite(r)
        n = n_obs[part] = _row_sums(seen, 0)
        W = np.where(seen, w, 0.0)
        r = np.where(seen, r, 0.0)
        s0 = _row_sums(W)
        s1 = _row_sums(W * t)
        s2 = _row_sums(W * t * t)
        det = s0 * s2 - s1 * s1
        b0 = r @ w
        b1 = r @ (w * t)
        with np.errstate(divide="ignore", invalid="ignore"):
            dpsi = (s2 * b0 - s1 * b1) / det
            slope = (s0 * b1 - s1 * b0) / det
            resid = np.where(seen, r - (dpsi[:, None] + slope[:, None] * t[None, :]), 0.0)
            wss = (resid * resid) @ w
            sigma2 = np.maximum(wss, 0.0) / (n - 2)
            chunk = (dpsi, -slope, np.sqrt(sigma2), np.sqrt(np.maximum(sigma2 * s2 / det, 0.0)),
                     np.sqrt(np.maximum(sigma2 * s0 / det, 0.0)))
        cols[:, part] = np.where(n >= 3, chunk, np.nan)
    return FitTable(*cols, n_obs, n_obs >= 3)


def fit_small_time(times, logratios) -> FitRow:
    """One chord's fit through `fit_ladder_batch` on a one-row table.

    Returns the table's FitRow: the intercept dpsi, the slope magnitude F,
    the weighted RMS residual, the standard errors of dpsi and F and the
    number of times fitted.  These agree with the same chord's row of a
    many-row batch to ~1e-12, not bit for bit: a one-row matrix-vector
    product takes another BLAS path and rounds differently.
    """
    t = np.asarray(times, dtype=float)
    r = np.asarray(logratios, dtype=float)
    if t.shape != r.shape or t.ndim != 1:
        raise DataError("times and logratios must be 1-D arrays of equal length")
    if len(t) < 3:
        raise DataError(f"need at least 3 times to fit, got {len(t)}")
    if not (np.all(np.isfinite(t) & (t > 0)) and np.all(np.isfinite(r))):
        raise DataError("times must be finite and positive, and log ratios finite")
    if np.ptp(t) <= 1e-15 * t.max():
        raise DataError("time ladder is rank deficient (all times equal)")
    return fit_ladder_batch(t, r[None, :])[0]


@dataclass(frozen=True)
class BoundaryDataset:
    """Log density ratios log(p / p0) per chord over a ladder of at least 3
    finite, positive, decreasing times.

    log_ratios has shape (n_chords, n_times); NaN marks a dropped
    observation.
    """

    chords: ChordTable
    times: np.ndarray
    log_ratios: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if len(t) < 3:
            raise DataError("time ladder must hold at least 3 times")
        bad = t[~(np.isfinite(t) & (t > 0))]
        if len(bad):
            raise DataError(f"times must be finite and positive, got t={float(bad[0])!r}")
        if np.any(np.diff(t) >= 0):
            raise DataError("times must be decreasing")
        lr = np.asarray(self.log_ratios, dtype=float)
        if lr.shape != (len(self.chords), len(t)):
            raise DataError("log_ratios shape must be (n_chords, n_times)")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "log_ratios", lr)

    @property
    def n_chords(self) -> int:
        return len(self.chords)


def build_boundary_dataset(
    observed: Kernel,
    domain: Domain,
    geometry: tuple[int, int],
    ladder,
) -> BoundaryDataset:
    """Tabulate log density ratios log(p / p0) of the observed kernel p
    against the driftless one p0, `DRIFTLESS` (the OU kernel at theta = 0),
    for every chord of a parallel-beam raster.

    Both kernels are evaluated in log space, so a ratio stays finite where
    the densities themselves underflow.
    """
    n_angles, n_offsets = geometry
    times = np.asarray(sorted(ladder, reverse=True), dtype=float)
    if np.any(times <= 0):
        raise DataError("ladder times must be positive")
    chords, _ = make_parallel_chords(domain, n_angles, n_offsets)
    xs, ys = chords.x, chords.y
    log_ratios = np.empty((len(chords), len(times)))
    for k, t in enumerate(times):
        try:
            lo = np.asarray(observed.log_density(xs, float(t), ys), dtype=float)
            lref = np.asarray(DRIFTLESS.log_density(xs, float(t), ys), dtype=float)
        except DataError as exc:
            raise DataError(f"kernel evaluation failed at t={t}: {exc}") from exc
        log_ratios[:, k] = lo - lref
    return BoundaryDataset(chords=chords, times=times, log_ratios=log_ratios)


def fit_dataset(dataset: BoundaryDataset):
    """Fit every chord in one masked batch (`fit_ladder_batch`).

    Returns (fits, excluded): the FitTable row-aligned with dataset.chords,
    and the indices of the chords with fewer than 3 surviving observations,
    whose rows are not ok (None when indexed or iterated).
    """
    fits = fit_ladder_batch(dataset.times, dataset.log_ratios)
    return fits, np.nonzero(~fits.ok)[0].tolist()


# ---------------------------------------------------------------------------
# Interchange: dataset.npz, dataset.csv and fits.npy
# ---------------------------------------------------------------------------
# dataset.npz: gen-data's handoff to fit; dataset.csv: observed data as text.

DATASET_COLUMNS = ["angle_index", "offset_index", "t", "log_ratio"]


def _read_table(path, required) -> dict:
    """The numeric columns of a CSV file by header name, as float arrays.

    The header is read by `csv`, the body by numpy's parser: unquoted
    decimal numbers (nan and inf included); blank lines are skipped.  A
    missing column, a field that is not a number (an empty one too), a row
    of the wrong length, a file without rows and bytes that are no table at
    all are DataErrors naming the path.
    """
    with open(path, newline="", encoding="latin-1") as fh:  # any bytes decode
        try:
            header = next(csv.reader(fh), [])
        except csv.Error as exc:  # a field beyond csv's size limit
            raise DataError(f"{path}: {exc}") from exc
        missing = [c for c in required if c not in header]
        if missing:
            raise DataError(f"{path}: missing column {missing[0]!r}")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
                body = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None)
        except ValueError as exc:
            # numpy measures a row of the wrong length against the first row;
            # name the header's length instead
            fh.seek(0)
            ragged = any(line.strip() and line.count(",") + 1 != len(header)
                         for line in itertools.islice(fh, 1, None))
            raise DataError(f"{path}: rows must have {len(header)} fields" if ragged
                            else f"{path}: {exc}") from exc
    if not body.size:
        raise DataError(f"{path}: no rows")
    if body.shape[1] != len(header):
        raise DataError(f"{path}: rows must have {len(header)} fields")
    return dict(zip(header, body.T))


def _integers(path, cols, *names) -> list:
    """The named columns as int64; a value that is not an integer is a DataError."""
    for name in names:
        v = cols[name]
        bad = np.nonzero(~(np.abs(v) < 2.0**63) | (v != np.floor(v)))[0]
        if len(bad):
            raise DataError(f"{path}: {name} must be integral, got {float(v[bad[0]])!r}")
    return [cols[name].astype(np.int64) for name in names]


def _first_repeat(keys):
    """Index of the first entry whose key an earlier entry holds, or None."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    same = np.nonzero(ordered[1:] == ordered[:-1])[0]
    return int(order[same + 1].min()) if len(same) else None


def _chord_rows(path, cols, chords: ChordTable):
    """Each row's chord, looked up on the (angle, offset) raster of `chords`:
    (hit, target), where hit marks the rows whose (angle_index,
    offset_index) names a chord and target holds those rows' chord indices.
    An index that is not an integer is a DataError naming the path."""
    ia, io = _integers(path, cols, "angle_index", "offset_index")
    shape = (chords.angle_index.max(initial=-1) + 1, chords.offset_index.max(initial=-1) + 1)
    slot = np.full(shape, -1)
    slot[chords.angle_index, chords.offset_index] = np.arange(len(chords))
    hit = (ia >= 0) & (ia < shape[0]) & (io >= 0) & (io < shape[1])
    hit[hit] = slot[ia[hit], io[hit]] >= 0
    return hit, slot[ia[hit], io[hit]]


def _chord_name(chords: ChordTable, k) -> str:
    return f"chord angle={chords.angle_index[k]} offset={chords.offset_index[k]}"


def write_dataset_csv(path, dataset: BoundaryDataset, raster: tuple[int, int]) -> None:
    """dataset.npz (binary, whatever the name says; the benchmark traces this
    name until ROADMAP item 4) at exactly `path`, as equal bytes for equal
    datasets: times, descending, and a float64 (*raster, n_times) log_ratios."""
    cells = np.full((*raster, len(dataset.times)), np.nan)
    cells[dataset.chords.angle_index, dataset.chords.offset_index] = dataset.log_ratios
    with open(path, "wb") as fh:  # np.savez on a path would append .npz
        np.savez(fh, log_ratios=cells, times=dataset.times, allow_pickle=False)


def read_dataset_csv(path, chords: ChordTable, raster: tuple[int, int]) -> BoundaryDataset:
    """A dataset row-aligned with `chords`, a table of `raster`: gathered
    in one step from the dataset.npz of `write_dataset_csv` (`_read_npz`) if
    the file starts with the zip magic, else from CSV text as `_read_table`
    reads it.  The CSV times are the distinct times of the rows that name a
    chord, descending; a chord without a row at some time holds NaN there (a
    dropped observation); other rows, and other columns, are ignored.  A
    log_ratios raster other than (*raster, n_times), times not 1-D, finite,
    positive and decreasing, an index not integral and a (chord, time)
    listed twice are DataErrors naming the path."""
    with open(path, "rb") as fh:
        binary = fh.read(4) == b"PK\x03\x04"  # the zip magic
    if binary:
        times, cells = _read_npz(path, {"times": "<f8", "log_ratios": "<f8"}).values()
        if times.ndim != 1 or cells.shape != (*raster, len(times)):
            raise DataError(f"{path}: times of shape {times.shape} and log_ratios of shape "
                            f"{cells.shape}, not 1-D and of shape {raster} + (n_times,)")
        log_ratios = cells[chords.angle_index, chords.offset_index]
    else:
        cols = _read_table(path, DATASET_COLUMNS)
        hit, target = _chord_rows(path, cols, chords)
        ascending = np.unique(t := cols["t"][hit])
        times, m = ascending[::-1], len(ascending)
        cell = target * m + (m - 1 - np.searchsorted(ascending, t))
        if (i := _first_repeat(cell)) is not None:
            raise DataError(f"{path}: {_chord_name(chords, target[i])} at t={t[i]} "
                            "is listed more than once")
        log_ratios = np.full((len(chords), m), np.nan)
        log_ratios.reshape(-1)[cell] = cols["log_ratio"][hit]
    try:
        return BoundaryDataset(chords=chords, times=times, log_ratios=log_ratios)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


# what numpy's .npy header parser raises on damaged text: ValueError mostly,
# SyntaxError and TokenError from its fallback for Python 2 headers, and
# TypeError and IndexError from some malformed dtype descriptions
_NPY_HEADER_ERRORS = (ValueError, TypeError, SyntaxError, IndexError, tokenize.TokenError)


def _read_npy(fh, where: str, dtype: str, shape: tuple | None = None) -> np.ndarray:
    """The read-only array of one .npy stream (format 1.0, as np.save writes
    it): in C order, of `dtype`, of `shape` when given, and whole, else a
    DataError naming `where`.  The header is checked before the body is
    read, so no object array is unpickled, and no huge claimed shape is
    allocated: when no shape is given, the stream must be a zip member,
    whose reads stop at its data."""
    try:
        if np.lib.format.read_magic(fh) != (1, 0):
            raise ValueError("format version is not 1.0")
        got_shape, fortran_order, got_dtype = np.lib.format.read_array_header_1_0(fh)
    except _NPY_HEADER_ERRORS as exc:
        raise DataError(f"{where}: not a .npy array ({exc!r})") from exc
    if got_dtype != np.dtype(dtype) or fortran_order or shape not in (None, got_shape):
        raise DataError(f"{where}: holds a {'Fortran-order ' * fortran_order}{got_dtype.str} "
                        f"array of shape {got_shape}, not a C-order {dtype} one"
                        + (f" of shape {shape}" if shape else ""))
    nbytes = math.prod(got_shape) * got_dtype.itemsize
    if min(got_shape, default=0) < 0 or len(data := fh.read(nbytes)) != nbytes:
        raise DataError(f"{where}: truncated, or a bad shape {got_shape}")
    return np.frombuffer(data, got_dtype).reshape(got_shape)


# zipfile's errors on damage: directory, missing or short member, CRC, flags
_ZIP_ERRORS = (zipfile.BadZipFile, KeyError, EOFError, OSError, NotImplementedError,
               RuntimeError, zlib.error)


def _read_npz(path, members: dict) -> dict:
    """The members name.npy of an .npz archive, each read by `_read_npy` as
    the dtype `members` maps its name to, by name; damage names the path."""
    arrays = {}
    try:
        with zipfile.ZipFile(path) as archive:
            for name, dtype in members.items():
                with archive.open(f"{name}.npy") as member:  # KeyError: no such member
                    arrays[name] = _read_npy(member, f"{path}: {name}", dtype)
    except _ZIP_ERRORS as exc:
        raise DataError(f"{path}: not an .npz archive of {', '.join(members)} ({exc!r})") from exc
    return arrays


def write_fits_csv(path, chords: ChordTable, fits: FitTable, raster: tuple[int, int]) -> None:
    """fits.npy (binary, whatever the name says; the benchmark traces this
    name until ROADMAP item 4) at exactly `path`: a float64 (n_angles,
    n_offsets, 6) raster, each chord's cell holding its FitRow and every
    other cell, a not-ok fit's or one without a chord, all NaN."""
    cells = np.full((*raster, len(FitRow._fields)), np.nan)
    ok = fits.ok
    cells[chords.angle_index[ok], chords.offset_index[ok]] = np.column_stack(
        [getattr(fits, name)[ok] for name in FitRow._fields])
    with open(path, "wb") as fh:  # np.save on a path would append .npy
        np.save(fh, cells, allow_pickle=False)


def read_fits_csv(path, chords: ChordTable, raster: tuple[int, int]) -> FitTable:
    """Fits from the fits.npy of `write_fits_csv`, row-aligned with `chords`
    (a table of `raster`) by one gather; an all-NaN cell is a fit that is
    not ok.  Another shape or dtype, a truncated file, a cell NaN in some
    columns only, a non-integral n_times and an ok fit that FitTable refuses
    are DataErrors naming the path."""
    with open(path, "rb") as fh:
        cells = _read_npy(fh, str(path), "<f8", (*raster, len(FitRow._fields)))
    columns = cells[chords.angle_index, chords.offset_index].T.copy()
    nan = np.isnan(columns)
    ok = ~nan.any(axis=0)
    if np.any(partial := ~ok & ~nan.all(axis=0)):
        raise DataError(f"{path}: {_chord_name(chords, np.argmax(partial))} is NaN in some "
                        "columns only")
    (n_times,) = _integers(path, {"n_times": np.where(ok, columns[-1], 0.0)}, "n_times")
    try:
        return FitTable(*columns[:-1], n_times, ok)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc
