"""Forward line-integral transform, sinogram assembly, and filtered
back-projection inversion on a parallel-beam raster.

A sinogram bin (angle i, offset j) holds the line integral along the line
with direction omega_i = (cos, sin)(pi*i/n_angles) and signed offset z_j
from the domain's center along omega_i^perp.
"""

from __future__ import annotations

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
    chord_directions,
    chord_offsets,
    make_parallel_chords,
)

# Back-projection sums the angles in blocks of this many, then adds the block
# sums in order.  The block size fixes the rounding of V_hat: changing it
# changes the bits of every inversion.
_ANGLE_BLOCK = 16


@dataclass(frozen=True)
class Sinogram:
    angles: np.ndarray
    offsets: np.ndarray
    values: np.ndarray
    mask: np.ndarray  # True = valid bin
    radius: float

    def __post_init__(self):
        a = np.asarray(self.angles, dtype=float)
        z = np.asarray(self.offsets, dtype=float)
        v = np.asarray(self.values, dtype=float)
        m = np.asarray(self.mask, dtype=bool)
        if v.shape != (len(a), len(z)) or m.shape != v.shape:
            raise DataError("sinogram arrays must share the (n_angles, n_offsets) shape")
        if not np.all(np.isfinite(v[m])):
            raise DataError("sinogram has non-finite values on valid bins")
        object.__setattr__(self, "angles", a)
        object.__setattr__(self, "offsets", z)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "mask", m)

    @property
    def n_angles(self) -> int:
        return len(self.angles)

    @property
    def n_offsets(self) -> int:
        return len(self.offsets)


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
    return Sinogram(
        chord_angles(n_angles),
        chord_offsets(domain.circumradius, n_offsets),
        values,
        np.ones_like(values, dtype=bool),
        domain.circumradius,
    )


def sinogram_from_fits(fits: FitTable, chords: ChordTable, geometry, domain: Domain) -> Sinogram:
    """Scatter the line integrals F * |y - x| of a fit table into the raster.

    fits and chords are row-aligned tables.  Bins whose line misses the
    domain are known zeros; bins with a chord but no ok fit, and bins whose
    line crosses the domain but has no chord, are masked.
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
    seen = np.zeros((n_angles, n_offsets), dtype=bool)
    seen[ia, io] = True
    ok = fits.ok
    mask[ia[~ok], io[~ok]] = False
    values[ia[ok], io[ok]] = fits.F[ok] * chords.length[ok]
    # raster cells without a chord: zero if the line misses the domain
    angles = chord_angles(n_angles)
    offsets = chord_offsets(domain.circumradius, n_offsets)
    ua, uo = np.nonzero(~seen)
    if len(ua):
        _, _, hit = domain.chord_endpoints(chord_directions(angles[ua]), offsets[uo])
        mask[ua[hit], uo[hit]] = False
    return Sinogram(angles, offsets, values, mask, domain.circumradius)


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
    nodes are zero.  Masked bins are in-filled by linear interpolation along
    the offset axis (with a warning); a fully masked angle or more than 10%
    masked bins is an error.
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
    total = np.zeros(len(x))
    for lo in range(0, sino.n_angles, _ANGLE_BLOCK):
        acc = np.zeros(len(x))
        for ia in range(lo, min(lo + _ANGLE_BLOCK, sino.n_angles)):
            phi = sino.angles[ia]
            z = -np.sin(phi) * x + np.cos(phi) * y
            acc += np.interp(z, sino.offsets, filtered[ia], left=0.0, right=0.0)
        total += acc
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
    """A sinogram from the sinogram.npz of `write_sinogram_csv`, its angles
    and offsets rebuilt from the raster's shape and radius.  A damaged
    archive, a missing member or one refused by `smalltime._read_npz`, a
    values and valid of different or not 2-D shapes, a radius that is not a
    positive finite scalar and a non-finite valid bin are DataErrors."""
    values, valid, radius = _read_npz(path, _SINOGRAM_MEMBERS).values()
    if values.ndim != 2 or radius.shape != () or not 0 < float(radius) < np.inf:
        raise DataError(f"{path}: values must be 2-D and radius a positive finite scalar, got "
                        f"shape {values.shape} and radius {radius!r}")
    try:
        return Sinogram(chord_angles(len(values)), chord_offsets(float(radius), values.shape[1]),
                        values, valid, float(radius))
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc
