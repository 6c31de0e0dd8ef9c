"""Extract potential-difference intercepts and chord-averaged potentials from
density ratios over a ladder of small times.

For each chord (x, y) the log density ratio behaves like
    log(p_obs / p_ref)(t) = dpsi - F t + o(t),
so a weighted affine fit in t yields the drift-potential difference
dpsi = psi(y) - psi(x) (intercept) and the chord average F of the scalar
potential (minus the slope) in one pass.
"""

from __future__ import annotations

import csv
import itertools
import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import DataError, GeometryError
from .fields import Domain
from .kernels import Kernel

DEFAULT_DENSITY_FLOOR = 1e-30
# chords per batch of the chord-wise layers (the ladder fit here and the
# boundary-psi normal equations): bounds their temporaries
_CHORDS_PER_CHUNK = 8192


@dataclass(frozen=True)
class Chord:
    """Oriented segment between two boundary points of the domain."""

    x: np.ndarray
    y: np.ndarray
    angle_index: int = -1
    offset_index: int = -1

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.shape != (2,) or y.shape != (2,):
            raise DataError("chord endpoints must be planar points")
        if not np.all(np.isfinite(x)) or not np.all(np.isfinite(y)):
            raise DataError("chord endpoints must be finite")
        if np.allclose(x, y):
            raise GeometryError("chord endpoints coincide")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def length(self) -> float:
        return float(np.hypot(*(self.y - self.x)))


@dataclass(frozen=True, eq=False)
class ChordTable:
    """Chords as arrays: endpoints x, y (n, 2), raster indices and lengths (n,).

    The endpoint checks of Chord run once over the whole table.  An integer
    index gives one Chord; a slice, mask or index array gives a sub-table.
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
        if np.any(np.all(np.isclose(x, y), axis=1)):  # np.allclose per chord
            raise GeometryError("chord endpoints coincide")
        d = y - x
        columns = {"x": x, "y": y, "length": np.hypot(d[:, 0], d[:, 1])}
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
        if isinstance(i, (int, np.integer)):
            return Chord(self.x[i], self.y[i], int(self.angle_index[i]), int(self.offset_index[i]))
        return ChordTable(self.x[i], self.y[i], self.angle_index[i], self.offset_index[i])

    def __iter__(self):
        return (self[i] for i in range(len(self)))


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


def chord_directions(angles: np.ndarray) -> np.ndarray:
    """Unit directions (cos, sin) of the given angles, shape (n, 2)."""
    return np.stack([np.cos(angles), np.sin(angles)], axis=-1)


def make_parallel_chords(domain: Domain, n_angles: int, n_offsets: int):
    """Chord table of the domain on a parallel-beam (angle, offset) raster.

    Offsets are measured from the domain's center.  Every line of the raster
    is clipped in one `Domain.chord_endpoints` call.
    Returns (chords, skipped): the ChordTable of the lines that cross the
    domain, in angle-major raster order, and the (angle_index, offset_index)
    pairs of the lines that miss it.
    """
    omega = chord_directions(chord_angles(n_angles))
    offsets = chord_offsets(domain.circumradius, n_offsets)
    x, y, hit = domain.chord_endpoints(omega[:, None, :], offsets[None, :])
    ia, io = np.nonzero(hit)
    skipped = list(zip(*(a.tolist() for a in np.nonzero(~hit))))
    return ChordTable(x[ia, io], y[ia, io], ia, io), skipped


@dataclass(frozen=True)
class ChordFit:
    """Affine fit of the log ratio over the time ladder."""

    delta_psi: float
    F: float
    residual: float
    covariance: np.ndarray
    n_times: int

    def __post_init__(self):
        cov = np.asarray(self.covariance, dtype=float)
        if cov.shape != (2, 2):
            raise DataError("covariance must be 2x2")
        if self.residual < 0 or not np.isfinite(cov).all():
            raise DataError("fit results must be finite with nonnegative residual")
        object.__setattr__(self, "covariance", cov)

    @property
    def se_delta_psi(self) -> float:
        return float(np.sqrt(max(self.covariance[0, 0], 0.0)))

    @property
    def se_F(self) -> float:
        return float(np.sqrt(max(self.covariance[1, 1], 0.0)))


def log_ratio(p_obs: float, p_ref: float, floor: float = DEFAULT_DENSITY_FLOOR) -> float:
    """log(p_obs / p_ref) with a positivity floor on both densities."""
    if not (np.isfinite(p_obs) and np.isfinite(p_ref)) or p_obs <= floor or p_ref <= floor:
        raise DataError(
            f"density pair ({p_obs:.3e}, {p_ref:.3e}) at or below the floor {floor:.1e}"
        )
    return float(np.log(p_obs) - np.log(p_ref))


@dataclass(frozen=True, eq=False)
class FitTable:
    """Per-chord affine fits as arrays, row-aligned with a ChordTable.

    Rows with ok False (fewer than 3 surviving observations) hold NaN.  An
    integer index gives a ChordFit, or None for such a row; iteration yields
    one of these per chord.
    """

    delta_psi: np.ndarray
    F: np.ndarray
    residual: np.ndarray
    var_delta_psi: np.ndarray
    var_F: np.ndarray
    cov_delta_psi_F: np.ndarray
    n_times: np.ndarray
    ok: np.ndarray

    def __post_init__(self):
        cols = {name: np.asarray(getattr(self, name), dtype=float) for name in _FIT_COLUMNS}
        cols["n_times"] = np.asarray(self.n_times, dtype=np.int64)
        cols["ok"] = np.asarray(self.ok, dtype=bool)
        if any(v.shape != cols["ok"].shape or v.ndim != 1 for v in cols.values()):
            raise DataError("fit table columns must be 1-D arrays of equal length")
        ok = cols["ok"]
        finite = all(np.all(np.isfinite(cols[name]) | ~ok) for name in _FIT_COLUMNS)
        if np.any(cols["residual"][ok] < 0) or not finite:
            raise DataError("fit results must be finite with nonnegative residual")
        for name, v in cols.items():
            v.setflags(write=False)
            object.__setattr__(self, name, v)

    @property
    def se_delta_psi(self) -> np.ndarray:
        return np.sqrt(np.maximum(self.var_delta_psi, 0.0))

    @property
    def se_F(self) -> np.ndarray:
        return np.sqrt(np.maximum(self.var_F, 0.0))

    def __len__(self) -> int:
        return len(self.ok)

    def __getitem__(self, i):
        if isinstance(i, (int, np.integer)):
            return next(iter(self[[i]]))
        return FitTable(*(getattr(self, name)[i] for name in _FIT_COLUMNS),
                        self.n_times[i], self.ok[i])

    def __iter__(self):
        rows = zip(*(getattr(self, name).tolist() for name in _FIT_COLUMNS + ("n_times", "ok")))
        for dpsi, F, resid, vd, vf, c, n_times, ok in rows:
            yield ChordFit(dpsi, F, resid, np.array([[vd, c], [c, vf]]), n_times) if ok else None


_FIT_COLUMNS = ("delta_psi", "F", "residual", "var_delta_psi", "var_F", "cov_delta_psi_F")


def fit_ladder_batch(times, logratios) -> FitTable:
    """Masked weighted least squares of r(t) ~ dpsi - F t, weights 1/t, for
    many chords sharing one time ladder.

    logratios has shape (n_chords, m); a non-finite entry is a dropped
    observation and gets weight zero.  Each row yields the intercept dpsi,
    the slope magnitude F, the weighted RMS residual and the covariance of
    (dpsi, F); rows with fewer than 3 observations are marked not ok.  The
    table is fitted `_CHORDS_PER_CHUNK` rows at a time into preallocated
    columns, so the temporaries do not grow with the table.  Every sum runs
    along one row, and no chunk of a longer table is a single row, so the
    bits are those of fitting the whole table at once.
    """
    t = np.asarray(times, dtype=float)
    table = np.asarray(logratios, dtype=float)
    w = 1.0 / t
    cols = np.empty((len(_FIT_COLUMNS), len(table)))
    n_obs = np.empty(len(table), dtype=np.int64)
    # a lone last row joins the chunk before it: a one-row matrix-vector
    # product takes another BLAS path and rounds differently
    bounds = [*range(0, max(len(table) - 1, 1), _CHORDS_PER_CHUNK), len(table)]
    for lo, hi in zip(bounds, bounds[1:]):
        part = slice(lo, hi)
        r = table[part]
        seen = np.isfinite(r)
        n = n_obs[part] = seen.sum(axis=1)
        W = np.where(seen, w, 0.0)
        r = np.where(seen, r, 0.0)
        s0 = W.sum(axis=1)
        s1 = (W * t).sum(axis=1)
        s2 = (W * t * t).sum(axis=1)
        det = s0 * s2 - s1 * s1
        b0 = r @ w
        b1 = r @ (w * t)
        with np.errstate(divide="ignore", invalid="ignore"):
            dpsi = (s2 * b0 - s1 * b1) / det
            slope = (s0 * b1 - s1 * b0) / det
            resid = np.where(seen, r - (dpsi[:, None] + slope[:, None] * t[None, :]), 0.0)
            wss = (resid * resid) @ w
            sigma2 = np.maximum(wss, 0.0) / (n - 2)
            chunk = (dpsi, -slope, np.sqrt(sigma2), sigma2 * s2 / det, sigma2 * s0 / det,
                     sigma2 * s1 / det)
        cols[:, part] = np.where(n >= 3, chunk, np.nan)
    return FitTable(*cols, n_obs, n_obs >= 3)


def fit_small_time(times, logratios) -> ChordFit:
    """One chord's fit through `fit_ladder_batch` on a one-row table.

    Returns the intercept dpsi, the slope magnitude F, the weighted RMS
    residual, and the parameter covariance for (dpsi, F).  These agree with
    the same chord's row of a many-row batch to ~1e-12, not bit for bit: a
    one-row matrix-vector product takes another BLAS path and rounds
    differently.
    """
    t = np.asarray(times, dtype=float)
    r = np.asarray(logratios, dtype=float)
    if t.shape != r.shape or t.ndim != 1:
        raise DataError("times and logratios must be 1-D arrays of equal length")
    if len(t) < 3:
        raise DataError(f"need at least 3 times to fit, got {len(t)}")
    if np.any(t <= 0) or not np.all(np.isfinite(r)):
        raise DataError("times must be positive and log ratios finite")
    if np.ptp(t) <= 1e-15 * t.max():
        raise DataError("time ladder is rank deficient (all times equal)")
    return fit_ladder_batch(t, r[None, :])[0]


@dataclass(frozen=True)
class BoundaryDataset:
    """Observed density ratios per chord over a decreasing time ladder.

    log_ratios holds log(p_obs/p_ref) with NaN marking dropped observations;
    p_obs/p_ref hold the raw densities when they are representable (NaN
    otherwise; exact-log kernels can produce valid ratios for density values
    far below the smallest float).  n_dropped counts the observations
    dropped below the density floor when the dataset was built.
    """

    chords: ChordTable
    times: np.ndarray
    log_ratios: np.ndarray
    p_obs: np.ndarray
    p_ref: np.ndarray
    skipped: tuple = ()
    n_dropped: int = 0

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if len(t) < 3:
            raise DataError("time ladder must hold at least 3 times")
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
    reference: Kernel,
    domain: Domain,
    geometry: tuple[int, int],
    ladder,
    floor: float = DEFAULT_DENSITY_FLOOR,
) -> BoundaryDataset:
    """Tabulate density ratios for every chord of a parallel-beam raster.

    Kernels exposing exact log densities are evaluated in log space (no
    underflow); otherwise densities below `floor` are dropped and recorded.
    """
    n_angles, n_offsets = geometry
    times = np.asarray(sorted(ladder, reverse=True), dtype=float)
    if np.any(times <= 0):
        raise DataError("ladder times must be positive")
    chords, skipped = make_parallel_chords(domain, n_angles, n_offsets)
    nc = len(chords)
    xs, ys = chords.x, chords.y
    log_ratios = np.full((nc, len(times)), np.nan)
    p_obs = np.full((nc, len(times)), np.nan)
    p_ref = np.full((nc, len(times)), np.nan)
    exact = observed.exact_log and reference.exact_log
    n_dropped = 0
    for k, t in enumerate(times):
        try:
            if exact:
                lo = np.asarray(observed.log_density(xs, float(t), ys), dtype=float)
                lref = np.asarray(reference.log_density(xs, float(t), ys), dtype=float)
                log_ratios[:, k] = lo - lref
                with np.errstate(under="ignore"):
                    p_obs[:, k] = np.exp(lo)
                    p_ref[:, k] = np.exp(lref)
            else:
                po = np.asarray(observed.density(xs, float(t), ys), dtype=float)
                pr = np.asarray(reference.density(xs, float(t), ys), dtype=float)
                ok = (po > floor) & (pr > floor) & np.isfinite(po) & np.isfinite(pr)
                n_dropped += int((~ok).sum())
                log_ratios[ok, k] = np.log(po[ok]) - np.log(pr[ok])
                p_obs[:, k] = po
                p_ref[:, k] = pr
        except DataError as exc:
            raise DataError(f"kernel evaluation failed at t={t}: {exc}") from exc
    if n_dropped:
        warnings.warn(f"dropped {n_dropped} sub-floor density observations", stacklevel=2)
    return BoundaryDataset(
        chords=chords,
        times=times,
        log_ratios=log_ratios,
        p_obs=p_obs,
        p_ref=p_ref,
        skipped=tuple(skipped),
        n_dropped=n_dropped,
    )


def fit_dataset(dataset: BoundaryDataset):
    """Fit every chord in one masked batch (`fit_ladder_batch`).

    Returns (fits, excluded): the FitTable row-aligned with dataset.chords,
    and the indices of the chords with fewer than 3 surviving observations,
    whose rows are not ok (None when indexed or iterated).
    """
    fits = fit_ladder_batch(dataset.times, dataset.log_ratios)
    return fits, np.nonzero(~fits.ok)[0].tolist()


# ---------------------------------------------------------------------------
# CSV interchange
# ---------------------------------------------------------------------------

DATASET_COLUMNS = [
    "angle_index",
    "offset_index",
    "x1",
    "x2",
    "y1",
    "y2",
    "t",
    "p_obs",
    "p_ref",
    "log_ratio",
]

FITS_COLUMNS = [
    "angle_index",
    "offset_index",
    "delta_psi",
    "F",
    "residual",
    "se_delta_psi",
    "se_F",
    "n_times",
]

# chords whose dataset rows are turned into Python objects at once: the
# writer's memory stays a few MB instead of growing with the dataset
_CHORDS_PER_WRITE = 2048


def _write_csv(path, head_rows, fmt, rows) -> None:
    """The bytes csv.writer gives for unquoted fields: the head rows joined
    by commas, then one `fmt % row` line (ending in CRLF) per row, streamed."""
    with open(path, "w", newline="") as fh:
        fh.writelines(",".join(map(str, row)) + "\r\n" for row in head_rows)
        fh.writelines(map(fmt.__mod__, rows))


def _read_table(path, required, blank_is_nan=(), head_rows=0) -> tuple[list, dict]:
    """The first `head_rows` rows of a CSV file as lists of strings (the
    sinogram's size row and its names), and the numeric columns of the table
    after them by header name, as float arrays.

    The head rows and the header are read by `csv`, the body by numpy's
    parser: unquoted decimal numbers (nan and inf included); blank lines are
    skipped, and so are empty fields in the `blank_is_nan` columns, which
    read as NaN.  A missing column, a field that is not a number, a row of
    the wrong length or a file without rows is a DataError naming the path.
    """
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        head = [next(rows, []) for _ in range(head_rows)]
        header = next(rows, [])
        missing = [c for c in required if c not in header]
        if missing:
            raise DataError(f"{path}: missing column {missing[0]!r}")
        blank = {header.index(c): lambda s: float(s or "nan") for c in blank_is_nan if c in header}

        def parse(converters):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
                return np.loadtxt(fh, delimiter=",", ndmin=2, comments=None, converters=converters)

        try:
            try:
                body = parse(None)  # the converter calls Python per row: only if needed
            except ValueError:
                if not blank:
                    raise
                # fh.tell() is disabled once csv has read from fh, so go back
                # to the body by skipping the rows before it again
                fh.seek(0)
                rows = csv.reader(fh)
                for _ in range(head_rows + 1):
                    next(rows, None)
                body = parse(blank)
        except ValueError as exc:
            # numpy measures a row of the wrong length against the first row;
            # name the header's length instead
            fh.seek(0)
            ragged = any(row and len(row) != len(header)
                         for row in itertools.islice(csv.reader(fh), head_rows + 1, None))
            raise DataError(f"{path}: rows must have {len(header)} fields" if ragged
                            else f"{path}: {exc}") from exc
    if not body.size:
        raise DataError(f"{path}: no rows")
    if body.shape[1] != len(header):
        raise DataError(f"{path}: rows must have {len(header)} fields")
    return head, dict(zip(header, body.T))


def _require_integral(path, cols, *names) -> None:
    """DataError unless every value of the named columns is an integer."""
    for name in names:
        v = cols[name]
        bad = np.nonzero(~(np.abs(v) < 2.0**63) | (v != np.floor(v)))[0]
        if len(bad):
            raise DataError(f"{path}: {name} must be integral, got {float(v[bad[0]])!r}")


def _integers(path, cols, *names) -> list:
    """The named columns as int64; a value that is not an integer is a DataError."""
    _require_integral(path, cols, *names)
    return [cols[name].astype(np.int64) for name in names]


def _first_repeat(keys):
    """Index of the first entry whose key an earlier entry holds, or None."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    same = np.nonzero(ordered[1:] == ordered[:-1])[0]
    return int(order[same + 1].min()) if len(same) else None


def write_dataset_csv(path, dataset: BoundaryDataset) -> None:
    """One row per (chord, time), chord-major; floats as shortest round-trip
    text (`repr`), each chord's six fields and each time formatted once.
    Rows are formatted `_CHORDS_PER_WRITE` chords at a time."""
    c = dataset.chords
    times = ["%r," % t for t in dataset.times.tolist()]

    def rows():
        for lo in range(0, len(c.angle_index), _CHORDS_PER_WRITE):
            part = slice(lo, lo + _CHORDS_PER_WRITE)
            heads = ["%d,%d,%r,%r,%r,%r," % row for row in zip(
                c.angle_index[part].tolist(), c.offset_index[part].tolist(),
                *c.x[part].T.tolist(), *c.y[part].T.tolist())]
            cells = (a[part].tolist() for a in (dataset.p_obs, dataset.p_ref, dataset.log_ratios))
            for head, *chord in zip(heads, *cells):
                yield from zip([head] * len(times), times, *chord)

    _write_csv(path, [DATASET_COLUMNS], "%s%s%r,%r,%r\r\n", rows())


def read_dataset_csv(path, floor: float = DEFAULT_DENSITY_FLOOR) -> BoundaryDataset:
    """Rebuild a dataset from CSV, read as `_read_table` reads it.

    Prefers the exact log_ratio column and falls back to floored densities
    where it is absent, empty or non-finite.  A non-finite log ratio beside
    an unusable density pair (not finite, or at or below the floor) is a
    dropped observation (NaN), as `build_boundary_dataset` stores one;
    without a log_ratio column such a pair is a DataError.  Indices must be
    integral; a (chord, time) listed twice or a chord whose rows disagree on
    its endpoints is a DataError.
    """
    times, keys, x, y, tables = _dataset_tables(path, floor)
    log_ratios, p_obs, p_ref = tables
    return BoundaryDataset(
        chords=ChordTable(x, y, keys[:, 0], keys[:, 1]),
        times=times,
        log_ratios=log_ratios,
        p_obs=p_obs,
        p_ref=p_ref,
    )


def _dataset_tables(path, floor):
    """The checked contents of a dataset CSV: its times (descending), its
    chords' (angle, offset) keys in sorted order with the endpoints x and y
    of each chord's first row, and the (chord, time) tables of log ratios,
    p_obs and p_ref.

    The parsed table is completed in place and its rows are placed by one
    index into the (chord, time) tables, so the read holds little beyond
    the parsed table and the result; the parsed table is released when this
    returns, before the chord table is built.
    """
    _, cols = _read_table(path, DATASET_COLUMNS[:-1], blank_is_nan=("log_ratio",))
    _require_integral(path, cols, "angle_index", "offset_index")
    ia, io, t, p_o, p_r = (cols[c] for c in ("angle_index", "offset_index", "t", "p_obs", "p_ref"))

    def chord(i):
        return f"chord angle={int(ia[i])} offset={int(io[i])}"

    lr = cols["log_ratio"] if "log_ratio" in cols else np.full(len(t), np.nan)
    fallback = ~np.isfinite(lr)
    usable = (p_o > floor) & (p_r > floor) & np.isfinite(p_o) & np.isfinite(p_r)
    bad = np.nonzero(fallback & ~usable)[0]
    if len(bad) and "log_ratio" not in cols:
        i = bad[0]
        raise DataError(f"{path}: unusable density pair ({p_o[i]:.3e}, {p_r[i]:.3e}) for "
                        f"{chord(i)} at t={t[i]}")
    lr[bad] = np.nan  # a dropped observation
    fallback &= usable
    lr[fallback] = np.log(p_o[fallback]) - np.log(p_r[fallback])
    times, keys, first, cell = _table_cells(ia, io, t)
    if (i := _first_repeat(cell)) is not None:
        raise DataError(f"{path}: {chord(i)} at t={t[i]} is listed more than once")
    differs = np.zeros(len(t), dtype=bool)
    for c in ("x1", "x2", "y1", "y2"):
        bits = cols[c].view(np.int64)  # compared bit for bit
        differs |= bits != bits[first][cell // len(times)]
    if differs.any():
        i = np.argmax(differs)
        raise DataError(f"{path}: the rows of {chord(i)} disagree on its endpoints")
    tables = tuple(np.full((len(keys), len(times)), np.nan) for _ in range(3))
    for table, values in zip(tables, (lr, p_o, p_r)):
        table.reshape(-1)[cell] = values
    del cell
    x, y = (np.stack([cols[a][first], cols[b][first]], axis=1)
            for a, b in (("x1", "x2"), ("y1", "y2")))
    return times, keys, x, y, tables


def _table_cells(ia, io, t):
    """Where the rows of a dataset go: the distinct times (descending), the
    distinct (angle, offset) keys in sorted order, each key's first row, and
    each row's flat cell of a (chord, time) table.

    Rows of one chord usually follow each other, so the runs of rows with
    one (angle, offset) are found first and the keys among the runs' heads.
    """
    ascending = np.unique(t)
    m = len(ascending)
    head = np.flatnonzero(np.r_[True, (ia[1:] != ia[:-1]) | (io[1:] != io[:-1])])
    keys, first, run_chord = np.unique(np.stack([ia[head], io[head]], axis=1).astype(np.int64),
                                       axis=0, return_index=True, return_inverse=True)
    cell = np.repeat(run_chord * m + (m - 1), np.diff(np.r_[head, len(t)]))
    cell -= np.searchsorted(ascending, t)
    return ascending[::-1], keys, head[first], cell


def write_fits_csv(path, chords: ChordTable, fits: FitTable) -> None:
    """One row per ok fit, in chord order; excluded chords are left out."""
    ok = fits.ok
    columns = [chords.angle_index[ok], chords.offset_index[ok], fits.delta_psi[ok], fits.F[ok],
               fits.residual[ok], fits.se_delta_psi[ok], fits.se_F[ok], fits.n_times[ok]]
    _write_csv(path, [FITS_COLUMNS], "%d,%d,%r,%r,%r,%r,%r,%d\r\n",
               zip(*(v.tolist() for v in columns)))


def read_fits_csv(path, chords: ChordTable) -> FitTable:
    """Fits from CSV, read as `_read_table` reads it, row-aligned with
    `chords` by (angle_index, offset_index).

    Chords without a row are not ok; rows without a chord are ignored.  The
    covariance is rebuilt as diag(se_delta_psi^2, se_F^2).  Indices and
    n_times must be integral; a chord listed twice, or a row with a
    non-finite number or a negative residual, is a DataError.
    """
    _, cols = _read_table(path, FITS_COLUMNS)
    ia, io, n_times = _integers(path, cols, "angle_index", "offset_index", "n_times")
    # each row's chord, looked up on the (angle, offset) raster of the chords
    shape = (chords.angle_index.max(initial=-1) + 1, chords.offset_index.max(initial=-1) + 1)
    slot = np.full(shape, -1)
    slot[chords.angle_index, chords.offset_index] = np.arange(len(chords))
    hit = (ia >= 0) & (ia < shape[0]) & (io >= 0) & (io < shape[1])
    hit[hit] = slot[ia[hit], io[hit]] >= 0
    target = slot[ia[hit], io[hit]]
    if (i := _first_repeat(target)) is not None:
        raise DataError(f"{path}: chord angle={ia[hit][i]} offset={io[hit][i]} "
                        "is listed more than once")

    def column(values, fill=np.nan):
        out = np.full(len(chords), fill, dtype=values.dtype)
        out[target] = values[hit]
        return out

    try:
        return FitTable(column(cols["delta_psi"]), column(cols["F"]), column(cols["residual"]),
                        column(cols["se_delta_psi"] ** 2), column(cols["se_F"] ** 2),
                        column(np.zeros(len(hit))), column(n_times, 0),
                        column(np.ones(len(hit), dtype=bool), False))
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc
