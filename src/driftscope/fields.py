"""Grids, sampled fields, finite-difference operators, and field I/O.

Conventions: node (i, j) of a Grid sits at (x0 + i*dx, y0 + j*dy); field
values are stored as (nx, ny) arrays so that C-order flattening gives the
row-major node index i*ny + j.  All field objects are immutable (arrays are
frozen) and safe to share across workers.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataError, GeometryError

_DGF_MAGIC = b"DGF1"
# a node this close to the boundary along an axis, in grid steps, is a
# boundary node of the Dirichlet solve rather than an unknown
_SLIVER = 1e-3


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Grid:
    """Uniform rectangular grid."""

    x0: float
    y0: float
    dx: float
    dy: float
    nx: int
    ny: int

    def __post_init__(self):
        if not (self.dx > 0 and self.dy > 0):
            raise DataError(f"grid spacings must be positive, got dx={self.dx}, dy={self.dy}")
        if self.nx < 2 or self.ny < 2:
            raise DataError(f"grid needs at least 2 nodes per axis, got {self.nx}x{self.ny}")

    @classmethod
    def from_extent(cls, x0: float, y0: float, x1: float, y1: float, nx: int, ny: int) -> "Grid":
        return cls(x0, y0, (x1 - x0) / (nx - 1), (y1 - y0) / (ny - 1), nx, ny)

    @property
    def x1(self) -> float:
        return self.x0 + (self.nx - 1) * self.dx

    @property
    def y1(self) -> float:
        return self.y0 + (self.ny - 1) * self.dy

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nx, self.ny)

    @property
    def cell_area(self) -> float:
        return self.dx * self.dy

    def xs(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.nx)

    def ys(self) -> np.ndarray:
        return self.y0 + self.dy * np.arange(self.ny)

    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """Coordinate arrays X, Y of shape (nx, ny)."""
        return np.meshgrid(self.xs(), self.ys(), indexing="ij")

    def node_points(self) -> np.ndarray:
        """All node coordinates as an (nx*ny, 2) array in row-major order."""
        X, Y = self.nodes()
        return np.stack([X.ravel(), Y.ravel()], axis=-1)


@dataclass(frozen=True)
class ScalarField:
    """Real function sampled on a grid; values shape (nx, ny)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != self.grid.shape:
            raise DataError(f"values shape {v.shape} does not match grid {self.grid.shape}")
        if not np.all(np.isfinite(v)):
            bad = np.argwhere(~np.isfinite(v))[0]
            raise DataError(f"non-finite field value at node ({bad[0]}, {bad[1]})")
        object.__setattr__(self, "values", _frozen(v))


@dataclass(frozen=True)
class VectorField:
    """R^2-valued function sampled on a grid; values shape (nx, ny, 2)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (*self.grid.shape, 2):
            raise DataError(f"vector values shape {v.shape}, expected {(*self.grid.shape, 2)}")
        if not np.all(np.isfinite(v)):
            raise DataError("non-finite vector field value")
        object.__setattr__(self, "values", _frozen(v))


@dataclass(frozen=True)
class DiffusionField:
    """One constant SPD diffusion matrix [[a11, a12], [a12, a22]], by default
    the identity: constant, it gives div(a grad(u)) = a:D2 u, so 1/2
    div(a grad(u)) = V u (`elliptic`) has no first-order term.  DataError
    unless every entry is finite, a11 > 0 and det(a) > 0."""

    a11: float = 1.0
    a12: float = 0.0
    a22: float = 1.0

    def __post_init__(self):
        entries = (self.a11, self.a12, self.a22)
        if not np.all(np.isfinite(entries)):
            raise DataError(f"non-finite entries in the diffusion matrix {entries}")
        if not (self.a11 > 0 and self.a11 * self.a22 - self.a12 * self.a12 > 0):
            raise DataError(f"diffusion matrix {entries} is not SPD")


# ---------------------------------------------------------------------------
# Domains
# ---------------------------------------------------------------------------


class Domain:
    """Bounded region whose closure lies strictly inside its enclosing grid."""

    grid: Grid

    def contains(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def interior(self, grid: Grid) -> np.ndarray:
        """Mask (nx, ny) of the Dirichlet solve's unknowns on the domain's
        own grid: the nodes inside the domain, less those within `_SLIVER`
        grid steps of the boundary along an axis, which are boundary nodes.
        DataError when `grid` is another grid.
        """
        if grid != self.grid:
            raise DataError("fields must live on the domain's grid")
        return self._interior

    @cached_property
    def _interior(self) -> np.ndarray:
        pts = np.stack(self.grid.nodes(), axis=-1)
        inside = self.contains(pts)
        # The domain is convex, so it holds the segment between two axis
        # neighbours inside it: only a node with an axis neighbour outside
        # can have a probe outside.  Nodes on the grid's edge lie outside.
        near = inside.copy()
        near[1:-1, 1:-1] &= ~(inside[:-2, 1:-1] & inside[2:, 1:-1]
                              & inside[1:-1, :-2] & inside[1:-1, 2:])
        inside[near] = self._unknowns(pts[near])
        inside.setflags(write=False)
        return inside

    def _unknowns(self, pts: np.ndarray) -> np.ndarray:
        """Mask of the grid nodes `pts` (..., 2) inside the domain, and inside
        still when moved `_SLIVER` grid steps along either axis."""
        g = self.grid
        inside = self.contains(pts)
        for step in _SLIVER * np.array([[-g.dx, 0.0], [g.dx, 0.0], [0.0, -g.dy], [0.0, g.dy]]):
            inside &= self.contains(pts + step)
        return inside

    def has_unknown(self) -> bool:
        """Whether `interior` holds a node, from the 5x5 nodes about the center:
        each domain kind is convex and mirror-symmetric about its center along
        both axes, so if any node is an unknown, the one nearest the center is
        (the block covers ties and rounding).  Float indices fit any grid."""
        g = self.grid
        near = np.rint((self.center - (g.x0, g.y0)) / (g.dx, g.dy))
        i, j = (np.clip(k + np.arange(-2.0, 3.0), 0, n - 1) for k, n in zip(near, g.shape))
        pts = np.stack(np.meshgrid(g.x0 + g.dx * i, g.y0 + g.dy * j, indexing="ij"), axis=-1)
        return bool(self._unknowns(pts).any())

    def boundary_param(self, points: np.ndarray) -> np.ndarray:
        """Map boundary points (..., 2) to an arclength-like parameter in
        [0, param_length]; param_length itself stands for 0, where rounding
        lands a point just short of the start (a disc's tiny negative
        angles)."""
        raise NotImplementedError

    def boundary_point(self, s: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def project_to_boundary(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def chord_endpoints(self, omega: np.ndarray, z):
        """Entry and exit points of the lines {center + z*omega_perp + s*omega}.

        omega (..., 2) holds unit directions and z (...) signed offsets from
        the domain's center; the two broadcast together.  Returns (x, y,
        hit): entry and exit points (..., 2), NaN where the line misses the
        domain, and the mask of lines that cross it.
        """
        raise NotImplementedError

    def boundary_crossing(self, p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Where the segments p->q (p inside, q outside; arrays (..., 2))
        first meet the boundary: the points (..., 2) and their fractions
        theta (...) along the segments, clamped to 1.  GeometryError if any
        segment does not cross it.
        """
        raise NotImplementedError

    @property
    def param_length(self) -> float:
        raise NotImplementedError

    @property
    def circumradius(self) -> float:
        raise NotImplementedError

    @property
    def center(self) -> np.ndarray:
        raise NotImplementedError

    @property
    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Exact bounding box of the closure: (lower-left, upper-right)."""
        raise NotImplementedError

    def shrunk(self, fraction: float) -> "Domain":
        """Copy scaled by `fraction` about the center (metrics avoid the edge)."""
        raise NotImplementedError

    def _check_inside_grid(self):
        g = self.grid
        lo, hi = self.bounds
        if np.any(lo <= np.array([g.x0, g.y0])) or np.any(hi >= np.array([g.x1, g.y1])):
            raise GeometryError("domain closure must lie strictly inside the grid extent")


def _line_origins(omega, z, center):
    """The lines through directions omega (..., 2) at offsets z (...): omega
    as a float array, and the x and y columns of the lines' feet center +
    z * omega_perp, omega_perp = (-omega_y, omega_x), each of the shape
    omega[..., 0] and z broadcast to.  Column arithmetic, not (..., 2)
    broadcasts: the bits are the same, in less time."""
    omega = np.asarray(omega, dtype=float)
    z = np.asarray(z, dtype=float)
    return omega, center[0] + z * -omega[..., 1], center[1] + z * omega[..., 0]


@dataclass(frozen=True)
class DiscDomain(Domain):
    grid: Grid
    center_x: float
    center_y: float
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise GeometryError("disc radius must be positive")
        self._check_inside_grid()

    @property
    def center(self) -> np.ndarray:
        return np.array([self.center_x, self.center_y])

    @property
    def circumradius(self) -> float:
        return self.radius

    @property
    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return self.center - self.radius, self.center + self.radius

    def shrunk(self, fraction: float) -> "DiscDomain":
        return DiscDomain(self.grid, self.center_x, self.center_y, self.radius * fraction)

    @staticmethod
    def default_grid(cx: float, cy: float, radius: float, n: int, margin: float) -> Grid:
        """n x n nodes over the disc's bounding box widened `margin` times."""
        r = radius * margin
        return Grid.from_extent(cx - r, cy - r, cx + r, cy + r, n, n)

    @property
    def param_length(self) -> float:
        return 2.0 * np.pi

    def contains(self, points: np.ndarray) -> np.ndarray:
        p = np.asarray(points, dtype=float)
        d = p - self.center
        return d[..., 0] ** 2 + d[..., 1] ** 2 < self.radius**2

    def boundary_param(self, points: np.ndarray) -> np.ndarray:
        """The polar angle about the center, in [0, 2 pi]: a tiny negative
        angle rounds up to 2 pi, and -0.0 gives +0.0, as np.mod(angle, 2 pi)
        does.  A point with a NaN coordinate gives NaN; an infinite one, the
        angle arctan2 gives it."""
        p = np.asarray(points, dtype=float)
        a = np.arctan2(p[..., 1] - self.center_y, p[..., 0] - self.center_x)
        return np.where(a < 0.0, a + 2.0 * np.pi, np.abs(a))

    def boundary_point(self, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        return np.stack(
            [self.center_x + self.radius * np.cos(s), self.center_y + self.radius * np.sin(s)],
            axis=-1,
        )

    def project_to_boundary(self, points: np.ndarray) -> np.ndarray:
        p = np.asarray(points, dtype=float)
        d = p - self.center
        r = np.maximum(np.hypot(d[..., 0], d[..., 1]), 1e-300)
        return self.center + d * (self.radius / r)[..., None]

    def chord_endpoints(self, omega: np.ndarray, z):
        omega, px, py = _line_origins(omega, z, self.center)
        # solve |p0 + s*omega - c|^2 = R^2 (vecdot rounds like a 2-vector dot)
        d = np.stack([px - self.center_x, py - self.center_y], axis=-1)
        b = np.vecdot(d, omega)
        cterm = np.vecdot(d, d) - self.radius**2
        disc = b * b - cterm
        hit = disc > 0
        s = np.sqrt(np.where(hit, disc, np.nan))
        # p0 + r * omega for r = -b -+ s, column by column
        x, y = (np.stack([px + r * omega[..., 0], py + r * omega[..., 1]], axis=-1)
                for r in (-b - s, -b + s))
        return x, y, hit

    def boundary_crossing(self, p, q):
        p = np.asarray(p, dtype=float)
        d = np.asarray(q, dtype=float) - p
        f = p - self.center
        # larger root of |f + theta*d|^2 = R^2 (vecdot rounds like a 2-vector dot)
        a = np.vecdot(d, d)
        b = np.vecdot(f, d)
        c = np.vecdot(f, f) - self.radius**2
        with np.errstate(divide="ignore", invalid="ignore"):
            theta = (-b + np.sqrt(b * b - a * c)) / a
        # a NaN theta (no real root) fails the range test too
        if not np.all((a != 0) & (theta >= 0.0) & (theta <= 1.0 + 1e-12)):
            raise GeometryError("segment does not cross the disc boundary")
        theta = np.minimum(theta, 1.0)
        return p + theta[..., None] * d, theta


@dataclass(frozen=True)
class RectangleDomain(Domain):
    grid: Grid
    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self):
        if not (self.xmax > self.xmin and self.ymax > self.ymin):
            raise GeometryError("rectangle corners must satisfy xmin < xmax, ymin < ymax")
        self._check_inside_grid()

    @property
    def center(self) -> np.ndarray:
        return np.array([0.5 * (self.xmin + self.xmax), 0.5 * (self.ymin + self.ymax)])

    @property
    def circumradius(self) -> float:
        return float(np.hypot(self.xmax - self.xmin, self.ymax - self.ymin)) / 2.0

    @property
    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return np.array([self.xmin, self.ymin]), np.array([self.xmax, self.ymax])

    def shrunk(self, fraction: float) -> "RectangleDomain":
        lo, hi = self.bounds
        half = 0.5 * (hi - lo) * fraction
        return RectangleDomain(self.grid, *(self.center - half), *(self.center + half))

    @staticmethod
    def default_grid(xmin, ymin, xmax, ymax, n: int, margin: float) -> Grid:
        """The rectangle widened `margin` times about its center, with n nodes
        along x and an odd count along y that keeps the cells near square."""
        mx = 0.5 * (margin - 1.0) * (xmax - xmin)
        my = 0.5 * (margin - 1.0) * (ymax - ymin)
        aspect = (ymax - ymin + 2 * my) / (xmax - xmin + 2 * mx)
        if not np.isfinite(aspect):
            raise GeometryError(f"rectangle corners {[[xmin, ymin], [xmax, ymax]]!r} span no finite grid")
        ny = max(3, int(round((n - 1) * aspect)) + 1)
        if ny % 2 == 0:
            ny += 1
        return Grid.from_extent(xmin - mx, ymin - my, xmax + mx, ymax + my, n, ny)

    @property
    def param_length(self) -> float:
        return 2.0 * ((self.xmax - self.xmin) + (self.ymax - self.ymin))

    def contains(self, points: np.ndarray) -> np.ndarray:
        p = np.asarray(points, dtype=float)
        return (
            (p[..., 0] > self.xmin)
            & (p[..., 0] < self.xmax)
            & (p[..., 1] > self.ymin)
            & (p[..., 1] < self.ymax)
        )

    def boundary_param(self, points: np.ndarray) -> np.ndarray:
        """Perimeter arclength from (xmin, ymin), counterclockwise, in
        [0, param_length).  A point off the boundary takes the side of its
        nearest edge, at its coordinate clipped to the rectangle.  A point
        with a NaN coordinate has no nearest edge and is read on the left
        edge: it gives NaN when y is NaN, else the left edge's value at y."""
        p = np.asarray(points, dtype=float)
        w = self.xmax - self.xmin
        h = self.ymax - self.ymin
        x = np.clip(p[..., 0], self.xmin, self.xmax) - self.xmin
        y = np.clip(p[..., 1], self.ymin, self.ymax) - self.ymin
        # the nearest edge decides which side the point belongs to; on a tie
        # the first of bottom, right, top, left wins, as argmin's first minimum
        d_bottom = np.abs(p[..., 1] - self.ymin)
        d_right = np.abs(p[..., 0] - self.xmax)
        d_top = np.abs(p[..., 1] - self.ymax)
        d_left = np.abs(p[..., 0] - self.xmin)
        top_left = np.minimum(d_top, d_left)
        s = np.where(
            d_bottom <= np.minimum(d_right, top_left),
            x,
            np.where(d_right <= top_left, w + y,
                     np.where(d_top <= d_left, w + h + (w - x), 2 * w + h + (h - y))),
        )
        return np.mod(s, self.param_length)

    def boundary_point(self, s: np.ndarray) -> np.ndarray:
        s = np.mod(np.asarray(s, dtype=float), self.param_length)
        w = self.xmax - self.xmin
        h = self.ymax - self.ymin
        # bottom, right and top edge; the left edge otherwise
        edge = [s < w, s < w + h, s < 2 * w + h]
        x = np.select(edge, [self.xmin + s, self.xmax, self.xmax - (s - w - h)], self.xmin)
        y = np.select(edge, [self.ymin, self.ymin + (s - w), self.ymax], self.ymax - (s - 2 * w - h))
        return np.stack([x, y], axis=-1)

    def project_to_boundary(self, points: np.ndarray) -> np.ndarray:
        p = np.asarray(points, dtype=float)
        inside = self.contains(p)
        # outside: clamp; inside: push to the nearest edge
        x = np.clip(p[..., 0], self.xmin, self.xmax)
        y = np.clip(p[..., 1], self.ymin, self.ymax)
        # bottom, right, top, left: the first nearest edge wins, as min does
        gaps = np.stack([y - self.ymin, self.xmax - x, self.ymax - y, x - self.xmin])
        edge = np.where(inside, np.argmin(gaps, axis=0), -1)
        x = np.where(edge == 1, self.xmax, np.where(edge == 3, self.xmin, x))
        y = np.where(edge == 0, self.ymin, np.where(edge == 2, self.ymax, y))
        return np.stack([x, y], axis=-1)

    def chord_endpoints(self, omega: np.ndarray, z):
        omega, px, py = _line_origins(omega, z, self.center)
        # Liang-Barsky clip of the infinite lines against the box
        shape = px.shape
        t_lo = np.full(shape, -np.inf)
        t_hi = np.full(shape, np.inf)
        hit = np.ones(shape, dtype=bool)
        for o, p, lo, hi in [(omega[..., 0], px, self.xmin, self.xmax),
                             (omega[..., 1], py, self.ymin, self.ymax)]:
            d = np.broadcast_to(o, shape)
            across = np.abs(d) >= 1e-15
            hit &= across | ((p > lo) & (p < hi))
            with np.errstate(divide="ignore", invalid="ignore"):
                t1, t2 = (lo - p) / d, (hi - p) / d
            # ties keep the first operand, as Python's min and max do
            near = np.where(t2 < t1, t2, t1)
            far = np.where(t2 > t1, t2, t1)
            t_lo = np.where(across & (near > t_lo), near, t_lo)
            t_hi = np.where(across & (far < t_hi), far, t_hi)
        hit &= t_hi - t_lo > 1e-12
        x, y = (np.stack([px + t * omega[..., 0], py + t * omega[..., 1]], axis=-1)
                for t in (np.where(hit, t_lo, np.nan), np.where(hit, t_hi, np.nan)))
        return x, y, hit

    def boundary_crossing(self, p, q):
        p = np.asarray(p, dtype=float)
        d = np.asarray(q, dtype=float) - p
        # the edges x = xmin, x = xmax, y = ymin, y = ymax, in tie-break order
        axis = [0, 0, 1, 1]
        edges = np.array([self.xmin, self.xmax, self.ymin, self.ymax])
        pe, de = p[..., axis], d[..., axis]
        with np.errstate(divide="ignore", invalid="ignore"):
            theta = (edges - pe) / de
        ok = (np.abs(de) >= 1e-15) & (theta >= 0.0) & (theta <= 1.0 + 1e-12)
        if not np.all(ok.any(axis=-1)):
            raise GeometryError("segment does not cross the rectangle boundary")
        # the first smallest crossing wins (a -0.0 / 0.0 tie keeps its sign)
        first = np.argmin(np.where(ok, theta, np.inf), axis=-1)
        theta = np.minimum(np.take_along_axis(theta, first[..., None], axis=-1)[..., 0], 1.0)
        return p + theta[..., None] * d, theta


# ---------------------------------------------------------------------------
# Sampling and interpolation
# ---------------------------------------------------------------------------


def sample_scalar(f, grid: Grid) -> ScalarField:
    """Sample a pointwise function f(x, y) on every node."""
    X, Y = grid.nodes()
    vals = np.asarray(f(X, Y), dtype=np.float64)
    if vals.shape != grid.shape:
        vals = np.broadcast_to(vals, grid.shape).copy()
    if not np.all(np.isfinite(vals)):
        i, j = np.argwhere(~np.isfinite(vals))[0]
        raise DataError(f"sampled function is not finite at node ({i}, {j}) = "
                        f"({grid.x0 + i * grid.dx:.6g}, {grid.y0 + j * grid.dy:.6g})")
    return ScalarField(grid, vals)


def interp(field: ScalarField, points: np.ndarray, mode: str = "strict") -> np.ndarray:
    """Bilinear interpolation at points (..., 2).

    mode: "strict" raises outside the grid extent, "zero" extends by zero.
    """
    g = field.grid
    p = np.asarray(points, dtype=float)
    scalar_in = p.ndim == 1
    p = np.atleast_2d(p)
    fx = (p[..., 0] - g.x0) / g.dx
    fy = (p[..., 1] - g.y0) / g.dy
    eps = 1e-9
    inside = (fx >= -eps) & (fx <= g.nx - 1 + eps) & (fy >= -eps) & (fy <= g.ny - 1 + eps)
    if mode == "strict":
        if not np.all(inside):
            bad = p[~inside][0]
            raise GeometryError(f"point ({bad[0]:.6g}, {bad[1]:.6g}) outside grid extent")
    elif mode != "zero":
        raise ValueError(f"unknown interp mode {mode!r}")
    fxc = np.clip(fx, 0, g.nx - 1)
    fyc = np.clip(fy, 0, g.ny - 1)
    ix = np.clip(np.floor(fxc).astype(np.int64), 0, g.nx - 2)
    iy = np.clip(np.floor(fyc).astype(np.int64), 0, g.ny - 2)
    tx = fxc - ix
    ty = fyc - iy
    v = field.values
    out = (
        v[ix, iy] * (1 - tx) * (1 - ty)
        + v[ix + 1, iy] * tx * (1 - ty)
        + v[ix, iy + 1] * (1 - tx) * ty
        + v[ix + 1, iy + 1] * tx * ty
    )
    if mode == "zero":
        out = np.where(inside, out, 0.0)
    return out[0] if scalar_in else out


# ---------------------------------------------------------------------------
# Finite-difference operators
# ---------------------------------------------------------------------------


def _d1(v: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Central differences inside, second-order one-sided at the edges."""
    v = np.moveaxis(v, axis, 0)
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2 * h)
    # difference form of the one-sided stencils: exact on constants
    out[0] = (4 * (v[1] - v[0]) - (v[2] - v[0])) / (2 * h)
    out[-1] = -(4 * (v[-2] - v[-1]) - (v[-3] - v[-1])) / (2 * h)
    return np.moveaxis(out, 0, axis)


def _d2(v: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Three-point second derivative; zero (masked) on the outermost ring."""
    v = np.moveaxis(v, axis, 0)
    out = np.zeros_like(v)
    out[1:-1] = (v[2:] - 2 * v[1:-1] + v[:-2]) / (h * h)
    return np.moveaxis(out, 0, axis)


def gradient(field: ScalarField) -> VectorField:
    g = field.grid
    if g.nx < 3 or g.ny < 3:
        raise DataError("gradient needs at least 3 nodes per axis")
    gx = _d1(field.values, g.dx, 0)
    gy = _d1(field.values, g.dy, 1)
    return VectorField(g, np.stack([gx, gy], axis=-1))


def laplacian(field: ScalarField) -> ScalarField:
    g = field.grid
    if g.nx < 3 or g.ny < 3:
        raise DataError("laplacian needs at least 3 nodes per axis")
    lap = _d2(field.values, g.dx, 0) + _d2(field.values, g.dy, 1)
    return ScalarField(g, lap)


def mixed_derivative(field: ScalarField) -> ScalarField:
    """Cross derivative by the 4-point centered stencil; zero on the ring."""
    g = field.grid
    v = field.values
    out = np.zeros_like(v)
    out[1:-1, 1:-1] = (v[2:, 2:] - v[2:, :-2] - v[:-2, 2:] + v[:-2, :-2]) / (4 * g.dx * g.dy)
    return ScalarField(g, out)


def potential_from_psi(psi: ScalarField, a: DiffusionField) -> ScalarField:
    """V = 1/2 a:D2 psi + 1/2 <a grad psi, grad psi>, of 1/2 a:D2 u = V u for
    u = exp(psi): a constant a has div(a grad psi) = a:D2 psi, no first-order term."""
    g = psi.grid
    pxx = _d2(psi.values, g.dx, 0)
    pyy = _d2(psi.values, g.dy, 1)
    grad = gradient(psi).values
    gx, gy = grad[..., 0], grad[..., 1]
    quad = a.a11 * gx * gx + 2.0 * a.a12 * gx * gy + a.a22 * gy * gy
    v = 0.5 * (a.a11 * pxx + a.a22 * pyy) + 0.5 * quad
    if a.a12 != 0.0:
        pxy = mixed_derivative(psi).values
        v = v + a.a12 * pxy
    return ScalarField(g, v)


# ---------------------------------------------------------------------------
# DGF1 binary field format
# ---------------------------------------------------------------------------


def write_dgf(path, field: ScalarField) -> None:
    g = field.grid
    header = _DGF_MAGIC + struct.pack("<II", g.nx, g.ny) + struct.pack("<4d", g.x0, g.y0, g.dx, g.dy)
    data = np.ascontiguousarray(field.values, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data)


def read_dgf(path) -> ScalarField:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != _DGF_MAGIC:
        raise DataError(f"{path}: not a DGF1 file (bad magic {raw[:4]!r})")
    if len(raw) < 44:
        raise DataError(f"{path}: truncated DGF1 file ({len(raw)} bytes, its header has 44)")
    nx, ny = struct.unpack("<II", raw[4:12])
    x0, y0, dx, dy = struct.unpack("<4d", raw[12:44])
    expected = 44 + 8 * nx * ny
    if len(raw) != expected:
        raise DataError(f"{path}: truncated DGF1 file ({len(raw)} bytes, expected {expected})")
    vals = np.frombuffer(raw[44:], dtype="<f8").reshape(nx, ny)
    return ScalarField(Grid(x0, y0, dx, dy, nx, ny), vals)
