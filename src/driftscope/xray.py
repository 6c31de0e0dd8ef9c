"""Forward line-integral transform, sinogram assembly, and filtered
back-projection inversion on a parallel-beam raster.

A sinogram bin (angle i, offset j) holds the line integral along the line
with direction omega_i = (cos, sin)(pi*i/n_angles) and signed offset z_j
from the domain's center along omega_i^perp.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .fields import Domain, Grid, ScalarField, interp
from .smalltime import (
    ChordTable,
    FitTable,
    _read_npz,
    chord_angles,
    chord_offsets,
    make_parallel_chords,
)

# Back-projection sums the angles in blocks of this many, then adds the block
# sums in order.  The block size fixes the rounding of V_hat: changing it
# changes the bits of every inversion.  The order in which a block visits
# the nodes (x or y fastest, `fbp_invert`) does not: each node's sum over the
# block's angles is the same.
_ANGLE_BLOCK = 16


@dataclass(frozen=True)
class Sinogram:
    """Line integrals on the config's parallel-beam raster, as sinogram.npz
    holds them: values and mask (True = valid bin) of shape (n_angles,
    n_offsets), and the radius R of the offsets.  The axes are not stored:
    angles and offsets are `chord_angles(n_angles)` and `chord_offsets(R,
    n_offsets)`, the raster every chord table is built on."""

    values: np.ndarray
    mask: np.ndarray
    radius: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        m = np.asarray(self.mask, dtype=bool)
        if v.ndim != 2 or not v.size or m.shape != v.shape:
            raise DataError(f"sinogram values and mask must share one non-empty (n_angles, "
                            f"n_offsets) shape, got {v.shape} and {m.shape}")
        if not 0 < self.radius < np.inf:
            raise DataError(f"sinogram radius must be positive and finite, got {self.radius!r}")
        if not np.all(np.isfinite(v[m])):
            raise DataError("sinogram has non-finite values on valid bins")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "mask", m)

    @property
    def n_angles(self) -> int:
        return self.values.shape[0]

    @property
    def n_offsets(self) -> int:
        return self.values.shape[1]

    @functools.cached_property
    def angles(self) -> np.ndarray:
        return chord_angles(self.n_angles)

    @functools.cached_property
    def offsets(self) -> np.ndarray:
        return chord_offsets(self.radius, self.n_offsets)


def _line_integrals(V, chords: ChordTable, n_quad: int) -> np.ndarray:
    """Composite-trapezoid arclength integrals of V along every chord."""
    if n_quad < 16:
        raise DataError("n_quad must be at least 16")
    s = np.linspace(0.0, 1.0, n_quad + 1)
    pts = chords.x[:, None, :] + s[None, :, None] * (chords.y - chords.x)[:, None, :]
    if isinstance(V, ScalarField):
        vals = interp(V, pts, mode="strict")
    else:
        vals = np.asarray(V(pts.reshape(-1, 2)), dtype=float).reshape(pts.shape[:-1])
    return np.trapezoid(vals, s, axis=-1) * chords.length


def forward_xray(V, x, y, n_quad: int = 256) -> float:
    """Arclength line integral of V along the chord from point x to point y
    by composite trapezoid.

    V may be a ScalarField (bilinear interpolation; the chord must stay
    inside the grid) or a callable on (n, 2) points.  The endpoints are
    checked as a one-row ChordTable checks them.
    """
    table = ChordTable(np.asarray(x, dtype=float)[None], np.asarray(y, dtype=float)[None])
    return float(_line_integrals(V, table, n_quad)[0])


# quadrature points per block of sinogram_of_field: bounds its memory
_POINTS_PER_BLOCK = 1 << 18


def sinogram_of_field(
    V,
    domain: Domain,
    n_angles: int,
    n_offsets: int,
    n_quad: int = 256,
) -> Sinogram:
    """Forward transform of V restricted to the domain on the raster grid.

    Lines that miss the domain integrate to zero by definition.  The chord
    table is integrated in blocks of whole angles, each holding about
    _POINTS_PER_BLOCK quadrature points.
    """
    chords, _ = make_parallel_chords(domain, n_angles, n_offsets)
    values = np.zeros((n_angles, n_offsets))
    per_block = max(1, _POINTS_PER_BLOCK // (n_offsets * (n_quad + 1)))
    bounds = np.searchsorted(chords.angle_index, np.arange(0, n_angles + per_block, per_block))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        block = chords[lo:hi]
        values[block.angle_index, block.offset_index] = _line_integrals(V, block, n_quad)
    return Sinogram(values, np.ones_like(values, dtype=bool), domain.circumradius)


def sinogram_from_fits(fits: FitTable, chords: ChordTable, geometry, domain: Domain) -> Sinogram:
    """Scatter the line integrals F * |y - x| of a fit table into the raster.

    chords is the whole chord table of the raster (`make_parallel_chords`
    of the domain and geometry) and fits is row-aligned with it.  Bins
    without a chord are lines that miss the domain: known zeros.  Bins
    whose chord has no ok fit are masked.
    """
    n_angles, n_offsets = geometry
    if len(fits) != len(chords):
        raise DataError("fits and chords are misaligned")
    ia, io = chords.angle_index, chords.offset_index
    outside = (ia < 0) | (ia >= n_angles) | (io < 0) | (io >= n_offsets)
    if np.any(outside):
        k = np.argmax(outside)
        raise DataError(f"chord indices ({ia[k]}, {io[k]}) outside the {n_angles} x "
                        f"{n_offsets} raster")
    values = np.zeros((n_angles, n_offsets))
    mask = np.ones((n_angles, n_offsets), dtype=bool)
    ok = fits.ok
    mask[ia[~ok], io[~ok]] = False
    values[ia[ok], io[ok]] = fits.F[ok] * chords.length[ok]
    return Sinogram(values, mask, domain.circumradius)


def _ramp_kernel(n_pad: int, dz: float) -> np.ndarray:
    """Band-limited ramp filter sampled in the signal domain (wraparound)."""
    k = np.arange(n_pad)
    k = np.where(k > n_pad // 2, k - n_pad, k)
    h = np.zeros(n_pad)
    h[0] = 1.0 / (4.0 * dz * dz)
    odd = k % 2 != 0
    h[odd] = -1.0 / (np.pi * np.pi * k[odd] ** 2 * dz * dz)
    return h


def fbp_invert(sino: Sinogram, out_grid: Grid, filter_name: str, domain: Domain) -> ScalarField:
    """Filtered back-projection onto the solve's unknowns (`Domain.interior`)
    of out_grid, which must be the domain's grid.

    Offset profiles are convolved with the ramp filter (FFT on a zero-padded
    axis of at least twice the length; optional Hann apodization), then
    back-projected with linear interpolation in offset, in one thread, at
    those nodes only, each measured from the domain's center; the other
    nodes are zero.  Each `_ANGLE_BLOCK` of angles visits the nodes in the
    C order of the grid (y fastest) or of its transpose (x fastest),
    whichever moves the offset z = -sin(phi) x + cos(phi) y less from node
    to node over the block: np.interp's bin search starts from the previous
    query's bin, so the nearer the next bin, the cheaper the search.  Its
    value depends only on the bin and z, each node's z and its sum over the
    block's angles are the same in either order, and the block sums are
    added in the same order, so V_hat keeps its bits.  Masked bins are
    in-filled by linear interpolation along the offset axis (with a
    warning); a fully masked angle or more than 10% masked bins is an
    error.
    """
    if sino.n_angles < 2:
        raise DataError("need at least 2 angles to invert")
    if filter_name not in ("ram-lak", "hann"):
        raise DataError(f"unknown filter {filter_name!r}")
    n_masked = int((~sino.mask).sum())
    if n_masked > 0.10 * sino.mask.size:
        raise DataError(
            f"{n_masked} of {sino.mask.size} sinogram bins masked; inversion needs >= 90% valid"
        )
    values = sino.values.copy()
    if n_masked:
        warnings.warn(f"in-filling {n_masked} masked sinogram bins", stacklevel=2)
        for ia in range(sino.n_angles):
            bad = ~sino.mask[ia]
            if bad.all():
                raise DataError(f"angle index {ia} has no valid bins")
            if bad.any():
                values[ia, bad] = np.interp(
                    sino.offsets[bad], sino.offsets[~bad], values[ia, ~bad]
                )

    n = sino.n_offsets
    dz = float(sino.offsets[1] - sino.offsets[0]) if n > 1 else 1.0
    n_pad = 1 << int(np.ceil(np.log2(max(2 * n, 4))))
    H = np.fft.rfft(_ramp_kernel(n_pad, dz))
    if filter_name == "hann":
        freqs = np.fft.rfftfreq(n_pad, d=dz)
        nyq = 0.5 / dz
        H = H * 0.5 * (1.0 + np.cos(np.pi * freqs / nyq))
    padded = np.zeros((sino.n_angles, n_pad))
    padded[:, :n] = values
    filtered = np.fft.irfft(np.fft.rfft(padded, axis=1) * H[None, :], axis=1)[:, :n] * dz

    inside = domain.interior(out_grid)
    X, Y = out_grid.nodes()
    cx, cy = domain.center
    x, y = X[inside] - cx, Y[inside] - cy
    # the unknowns in their C order (y fastest) and x fastest: the node
    # x_first[k] of the C order is the k-th x fastest, and back[i] the place
    # of C node i in the x-fastest order
    rank = np.zeros(X.shape, dtype=np.intp)
    rank[inside] = np.arange(len(x))
    x_first = rank.T[inside.T]
    back = np.empty_like(x_first)
    back[x_first] = np.arange(len(x))
    orders = {False: (x, y), True: (x[x_first], y[x_first])}
    total = np.zeros(len(x))
    for lo in range(0, sino.n_angles, _ANGLE_BLOCK):
        phis = sino.angles[lo:lo + _ANGLE_BLOCK]
        # x fastest moves z by |sin(phi)| dx per node, y fastest by |cos(phi)| dy
        x_fastest = bool(np.abs(np.sin(phis)).sum() * out_grid.dx
                         < np.abs(np.cos(phis)).sum() * out_grid.dy)
        bx, by = orders[x_fastest]
        acc = np.zeros(len(x))
        for ia, phi in enumerate(phis, start=lo):
            z = -np.sin(phi) * bx + np.cos(phi) * by
            acc += np.interp(z, sino.offsets, filtered[ia], left=0.0, right=0.0)
        total += acc[back] if x_fastest else acc
    out = np.zeros(X.shape)
    out[inside] = (np.pi / sino.n_angles) * total
    return ScalarField(out_grid, out)


# ---------------------------------------------------------------------------
# Phantoms with analytic transforms (test oracles and CLI fixtures)
# ---------------------------------------------------------------------------


def radial_gaussian(grid: Grid, width: float, amplitude: float = 1.0) -> ScalarField:
    X, Y = grid.nodes()
    return ScalarField(grid, amplitude * np.exp(-(X**2 + Y**2) / width**2))


def radial_gaussian_sinogram(
    offsets: np.ndarray, angles: np.ndarray, width: float, amplitude: float = 1.0
) -> np.ndarray:
    """Analytic line integrals of amplitude * exp(-|x|^2 / width^2)."""
    prof = amplitude * width * np.sqrt(np.pi) * np.exp(-np.asarray(offsets) ** 2 / width**2)
    return np.tile(prof, (len(angles), 1))


def disc_indicator(grid: Grid, radius: float, amplitude: float = 1.0) -> ScalarField:
    X, Y = grid.nodes()
    return ScalarField(grid, np.where(X**2 + Y**2 <= radius**2, amplitude, 0.0))


def disc_indicator_sinogram(
    offsets: np.ndarray, angles: np.ndarray, radius: float, amplitude: float = 1.0
) -> np.ndarray:
    z = np.asarray(offsets)
    prof = np.where(np.abs(z) < radius, 2.0 * amplitude * np.sqrt(np.maximum(radius**2 - z**2, 0.0)), 0.0)
    return np.tile(prof, (len(angles), 1))


# ---------------------------------------------------------------------------
# sinogram.npz
# ---------------------------------------------------------------------------

# each member of sinogram.npz and its dtype
_SINOGRAM_MEMBERS = {"values": "<f8", "valid": "|b1", "radius": "<f8"}

def write_sinogram_csv(path, sino: Sinogram) -> None:
    """sinogram.npz (binary, whatever the name says; the benchmark traces
    this name until ROADMAP item 4) at exactly `path`: the .npy members
    values, valid (the mask) and radius.  np.savez's zip members carry
    zipfile's fixed 1980 timestamp, so equal sinograms give equal bytes."""
    with open(path, "wb") as fh:  # np.savez on a path would append .npz
        np.savez(fh, values=sino.values, valid=sino.mask, radius=np.float64(sino.radius),
                 allow_pickle=False)


def read_sinogram_csv(path) -> Sinogram:
    """A sinogram from the sinogram.npz of `write_sinogram_csv`.  A damaged
    archive, a missing member or one refused by `smalltime._read_npz`, a
    radius that is not a scalar and a sinogram that `Sinogram` refuses are
    DataErrors naming the path."""
    values, valid, radius = _read_npz(path, _SINOGRAM_MEMBERS).values()
    if radius.shape != ():
        raise DataError(f"{path}: radius must be a scalar, got shape {radius.shape}")
    try:
        return Sinogram(values, valid, float(radius))
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc
