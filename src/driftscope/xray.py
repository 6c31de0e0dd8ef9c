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

# `fbp_invert` filters and back-projects the profiles of this many angles at
# a time, in buffers of this many rows, then adds the block sums in order.
# The block size fixes the rounding of V_hat: changing it changes the bits
# of every inversion.  The filtered profiles keep their bits whatever the
# block size (the FFTs transform each row alone), and the order in which a
# block visits the nodes (x or y fastest) changes no bit of V_hat: each
# node's sum over the block's angles is the same.
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


def sinogram_from_fits(fits: FitTable, domain: Domain) -> Sinogram:
    """Scatter the line integrals F * |y - x| of a fit table into the raster
    of its chords, the whole chord table of the raster (`make_parallel_chords`
    of the domain).  Bins without a chord are lines that miss the domain:
    known zeros.  Bins whose chord has no ok fit are masked.
    """
    chords, ok = fits.chords, fits.ok
    ia, io = chords.angle_index, chords.offset_index
    values = np.zeros(chords.raster)
    mask = np.ones(chords.raster, dtype=bool)
    mask[ia[~ok], io[~ok]] = False
    values[ia[ok], io[ok]] = fits.F[ok] * chords.length[ok]
    return Sinogram(values, mask, domain.circumradius)


def _filtered(padded: np.ndarray, H: np.ndarray, n: int, dz: float) -> np.ndarray:
    """The profiles in the rows of `padded`, zero-padded to its width,
    convolved with the filter of spectrum H and cut back to n offsets.  The
    FFTs transform each row alone, so a block of rows gives the bits that
    the whole sinogram gives."""
    return np.fft.irfft(np.fft.rfft(padded, axis=1) * H, axis=1)[:, :n] * dz


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
    axis of at least twice the length; optional Hann apodization), one
    `_ANGLE_BLOCK` of angles at a time, which gives the bits of filtering the
    whole sinogram at once.  They are then back-projected with linear
    interpolation in offset, in one thread, at those nodes only, each
    measured from the domain's center; the other nodes are zero.  Masked
    bins are in-filled by linear interpolation along the offset axis (with a
    warning); a fully masked angle or more than 10% masked bins is an error.

    Parallel-beam profiles satisfy p_{phi + pi}(z) = p_phi(-z), so on a grid
    symmetric about the center (to within 1e-12 of a cell) a node (i, j)
    and its mirror (nx - 1 - i, ny - 1 - j) read one profile at z and -z.
    Where both are unknowns, one complex np.interp of p + 1j * p reversed,
    at the node's z, gives the node's term (real part) and its mirror's
    (imaginary part).  The center node, edge nodes whose mirror rounding
    leaves out of the unknowns, and every node of a grid not centered on the
    domain have no pair and take a real np.interp at their own z.  Pairs
    round otherwise than that, by about 1e-14 of max|V_hat|: the complex
    np.interp forms its slopes as dp * (1/dz), and a mirror reads -z rather
    than its own z.

    Each block visits its nodes in the C order of the grid (y fastest) or of
    its transpose (x fastest), whichever moves the offset
    z = -sin(phi) x + cos(phi) y less from node to node over the block:
    np.interp's bin search starts from the previous query's bin, so the
    nearer the next bin, the cheaper the search.  Its value depends only on
    the bin and z, each node's z and its sum over the block's angles are
    the same in either order, and the block sums are added in the same
    order, so the order does not change V_hat.
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
    values = sino.values
    if n_masked:
        warnings.warn(f"in-filling {n_masked} masked sinogram bins", stacklevel=2)
        values = values.copy()
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

    dest, n_pairs, queries, back = _node_layouts(domain, out_grid)
    # one block's buffers: its zero-padded profiles, its complex profiles
    # p(z) + 1j p(-z), the pairs' sums, and all its sums in its layout
    padded = np.zeros((_ANGLE_BLOCK, n_pad))
    profiles = np.empty((_ANGLE_BLOCK, n), dtype=complex)
    acc = np.empty(n_pairs, dtype=complex)
    block = np.empty(len(back))
    solo = block[2 * n_pairs:]  # the single nodes' sums
    total = np.zeros(len(back))
    for lo in range(0, sino.n_angles, _ANGLE_BLOCK):
        phis = sino.angles[lo:lo + _ANGLE_BLOCK]
        m = len(phis)
        padded[:m, :n] = values[lo:lo + m]
        filtered = _filtered(padded[:m], H, n, dz)
        profiles.real[:m] = filtered
        profiles.imag[:m] = filtered[:, ::-1]  # p_phi(-z) at z: offsets are symmetric
        x_fastest = _x_fastest(phis, out_grid)
        bx, by = queries[x_fastest]
        acc.fill(0.0)
        solo.fill(0.0)
        for k, phi in enumerate(phis):
            z = -np.sin(phi) * bx + np.cos(phi) * by
            acc += np.interp(z[:n_pairs], sino.offsets, profiles[k], left=0.0, right=0.0)
            solo += np.interp(z[n_pairs:], sino.offsets, filtered[k], left=0.0, right=0.0)
        block[:n_pairs] = acc.real
        block[n_pairs:2 * n_pairs] = acc.imag
        total += block[back] if x_fastest else block
    total *= np.pi / sino.n_angles
    out = np.zeros(out_grid.shape)
    out.reshape(-1)[dest] = total
    return ScalarField(out_grid, out)


def _x_fastest(phis: np.ndarray, grid: Grid) -> bool:
    """Whether a block of angles back-projects x fastest: that moves z by
    |sin(phi)| dx from node to node, y fastest by |cos(phi)| dy."""
    return bool(np.abs(np.sin(phis)).sum() * grid.dx < np.abs(np.cos(phis)).sum() * grid.dy)


def _node_layouts(domain: Domain, grid: Grid):
    """The unknowns of `fbp_invert` in its two node orders.  Each unknown is
    a pair node (before its mirror in the C order of the grid, the mirror an
    unknown too; only on a grid centered on the domain), the mirror of one,
    or single.  The layout of an order holds the pair nodes in that order,
    their mirrors in the same sequence, then the single nodes in that order.

    Returns dest, the flat node index at each place of the C order's layout
    (y fastest); the number of pairs; per order (x_fastest False or True)
    the coordinates (x, y), from the domain's center, of its pair nodes and
    then its single nodes, which are np.interp's queries; and back, the
    place in the x-fastest layout of the node at each place of C's."""
    inside = domain.interior(grid)
    cx, cy = domain.center
    pair = np.zeros_like(inside)
    if (abs(grid.x0 + grid.x1 - 2.0 * cx) <= 1e-12 * grid.dx
            and abs(grid.y0 + grid.y1 - 2.0 * cy) <= 1e-12 * grid.dy):
        # the mirror of flat node f is inside.size - 1 - f: before it, f is
        # in the first half
        pair.reshape(-1)[:inside.size // 2] = True
        pair &= inside & inside[::-1, ::-1]
    single = inside & ~pair & ~pair[::-1, ::-1]
    xs, ys = grid.xs() - cx, grid.ys() - cy
    dest, queries = {}, {}
    for x_fastest in (False, True):
        # (i, j) of the pair nodes and of the single nodes in this order
        (i, j), (si, sj) = (np.nonzero(m.T)[::-1] if x_fastest else np.nonzero(m)
                            for m in (pair, single))
        f = i * grid.ny + j
        dest[x_fastest] = np.concatenate([f, inside.size - 1 - f, si * grid.ny + sj])
        queries[x_fastest] = (xs[np.concatenate([i, si])], ys[np.concatenate([j, sj])])
    place = np.empty(inside.size, dtype=np.intp)
    place[dest[True]] = np.arange(len(dest[True]))
    return dest[False], int(pair.sum()), queries, place[dest[False]]


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
