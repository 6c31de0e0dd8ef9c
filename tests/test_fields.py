import re

import numpy as np
import pytest

from driftscope.errors import DataError, GeometryError
from driftscope.fields import (
    DiffusionField,
    DiscDomain,
    Grid,
    RectangleDomain,
    ScalarField,
    gradient,
    interp,
    laplacian,
    mixed_derivative,
    potential_from_psi,
    read_dgf,
    sample_scalar,
    write_dgf,
)


def grid_square(n, half=2.0):
    return Grid.from_extent(-half, -half, half, half, n, n)


class TestSampling:
    def test_zero_function(self):
        f = sample_scalar(lambda x, y: 0.0 * x, grid_square(9))
        assert np.all(f.values == 0.0)

    def test_coordinate_function(self):
        g = Grid(0.0, 0.0, 1.0, 1.0, 3, 3)
        f = sample_scalar(lambda x, y: x, g)
        assert np.array_equal(f.values[:, 0], [0.0, 1.0, 2.0])
        assert np.array_equal(f.values[:, 2], [0.0, 1.0, 2.0])

    def test_gaussian_values(self):
        f = sample_scalar(lambda x, y: np.exp(-(x**2 + y**2)), grid_square(65))
        assert f.values[32, 32] == 1.0
        assert f.values[0, 0] == pytest.approx(np.exp(-8.0), rel=1e-14)

    @pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
    def test_non_finite_rejected(self):
        with pytest.raises(DataError, match="node"):
            sample_scalar(lambda x, y: 1.0 / (x - 2.0), grid_square(5))


class TestInterp:
    def test_node_exactness(self):
        g = grid_square(17)
        rng = np.random.default_rng(0)
        f = ScalarField(g, rng.standard_normal(g.shape))
        pts = g.node_points()
        assert np.array_equal(interp(f, pts), f.values.ravel())

    def test_affine_exact(self):
        g = grid_square(9)
        f = sample_scalar(lambda x, y: 2 * x + 3 * y, g)
        rng = np.random.default_rng(1)
        pts = rng.uniform(-2, 2, size=(100, 2))
        expected = 2 * pts[:, 0] + 3 * pts[:, 1]
        assert interp(f, pts) == pytest.approx(expected, abs=1e-13)

    def test_bilinear_cell_center(self):
        # unit cell with f = x*y: corners 0, 0, 0, 1 so the center is 1/4
        g = Grid(0.0, 0.0, 1.0, 1.0, 2, 2)
        f = sample_scalar(lambda x, y: x * y, g)
        assert interp(f, np.array([0.5, 0.5])) == pytest.approx(0.25, abs=1e-15)

    def test_out_of_bounds(self):
        f = sample_scalar(lambda x, y: x, grid_square(5))
        with pytest.raises(GeometryError, match="outside"):
            interp(f, np.array([2.5, 0.0]))

    def test_zero_extension(self):
        f = sample_scalar(lambda x, y: x + 1.0, grid_square(5))
        out = interp(f, np.array([[2.5, 0.0], [0.0, 0.0]]), mode="zero")
        assert out[0] == 0.0 and out[1] == 1.0


class TestDerivatives:
    def test_gradient_constant(self):
        f = sample_scalar(lambda x, y: 0 * x + 3.7, grid_square(9))
        assert np.abs(gradient(f).values).max() == 0.0

    def test_gradient_quadratic_interior(self):
        g = grid_square(33)
        f = sample_scalar(lambda x, y: x**2 + y**2, g)
        gv = gradient(f).values
        X, Y = g.nodes()
        err = np.abs(gv[1:-1, 1:-1, 0] - 2 * X[1:-1, 1:-1]).max()
        assert err < 1e-12
        err = np.abs(gv[1:-1, 1:-1, 1] - 2 * Y[1:-1, 1:-1]).max()
        assert err < 1e-12

    def test_gradient_sine_taylor_bound(self):
        g = grid_square(65)
        f = sample_scalar(lambda x, y: np.sin(x), g)
        gv = gradient(f).values[1:-1, 1:-1, 0]
        X, _ = g.nodes()
        err = np.abs(gv - np.cos(X[1:-1, 1:-1])).max()
        # central-difference remainder: h^2/6 * max|f'''|, f''' = -cos
        assert err <= g.dx**2 / 6 * 1.0000001

    def test_laplacian_quadratic(self):
        f = sample_scalar(lambda x, y: x**2 + y**2, grid_square(17))
        lap = laplacian(f).values
        assert np.abs(lap[1:-1, 1:-1] - 4.0).max() < 1e-11

    def test_laplacian_affine(self):
        f = sample_scalar(lambda x, y: 1.5 * x - 2.5 * y + 1, grid_square(17))
        assert np.abs(laplacian(f).values[1:-1, 1:-1]).max() < 1e-12

    def test_laplacian_product_sine(self):
        g = grid_square(129)
        f = sample_scalar(lambda x, y: np.sin(x) * np.sin(y), g)
        X, Y = g.nodes()
        expected = -2 * np.sin(X) * np.sin(Y)
        err = np.abs(laplacian(f).values[1:-1, 1:-1] - expected[1:-1, 1:-1]).max()
        assert err <= 2.0 / 6.0 * g.dx**2  # h^2/6 per axis, two axes

    def test_linearity(self):
        g = grid_square(17)
        rng = np.random.default_rng(2)
        f1 = ScalarField(g, rng.standard_normal(g.shape))
        f2 = ScalarField(g, rng.standard_normal(g.shape))
        al, be = 1.3, -0.7
        comb = ScalarField(g, al * f1.values + be * f2.values)
        for op in (lambda f: gradient(f).values, lambda f: laplacian(f).values):
            lhs = op(comb)
            rhs = al * op(f1) + be * op(f2)
            assert np.abs(lhs - rhs).max() < 1e-12

    @pytest.mark.parametrize("op", ["gradient", "laplacian"])
    def test_second_order_convergence(self, op):
        def err(n):
            g = grid_square(n, half=1.0)
            f = sample_scalar(lambda x, y: np.sin(1.3 * x) * np.cos(0.7 * y), g)
            X, Y = g.nodes()
            if op == "gradient":
                got = gradient(f).values[1:-1, 1:-1, 0]
                want = 1.3 * np.cos(1.3 * X) * np.cos(0.7 * Y)
            else:
                got = laplacian(f).values[1:-1, 1:-1]
                want = -(1.3**2 + 0.7**2) * np.sin(1.3 * X) * np.cos(0.7 * Y)
            return np.abs(got - want[1:-1, 1:-1]).max()

        ratio = err(33) / err(65)
        assert 3.5 <= ratio <= 4.5


class TestPotential:
    def test_zero_psi(self):
        g = grid_square(17)
        psi = ScalarField(g, np.zeros(g.shape))
        assert np.all(potential_from_psi(psi, DiffusionField(2.0, 0.4, 1.5)).values == 0.0)

    def test_quadratic_psi_identity_diffusion(self):
        g = grid_square(33)
        psi = sample_scalar(lambda x, y: -(x**2 + y**2) / 2, g)
        V = potential_from_psi(psi, DiffusionField()).values
        X, Y = g.nodes()
        expected = (X**2 + Y**2 - 2) / 2
        assert np.abs(V[1:-1, 1:-1] - expected[1:-1, 1:-1]).max() < 1e-12

    def test_gaussian_psi_symbolic_oracle(self):
        al, sig = 0.8, 1.1

        def psi_fn(x, y):
            return al * np.exp(-(x**2 + y**2) / sig**2)

        def v_exact(x, y):
            r2 = x**2 + y**2
            e = np.exp(-r2 / sig**2)
            lap = al * e * (4 * r2 / sig**4 - 4 / sig**2)
            grad2 = (2 * al / sig**2) ** 2 * r2 * e**2
            return 0.5 * (lap + grad2)

        def err(n):
            g = grid_square(n)
            psi = sample_scalar(psi_fn, g)
            V = potential_from_psi(psi, DiffusionField()).values
            X, Y = g.nodes()
            return np.abs(V[1:-1, 1:-1] - v_exact(X, Y)[1:-1, 1:-1]).max()

        assert 3.2 <= err(65) / err(129) <= 4.8

    def test_matches_half_lap_plus_gradsq(self):
        g = grid_square(33)
        rng = np.random.default_rng(4)
        psi = ScalarField(g, rng.standard_normal(g.shape))
        V = potential_from_psi(psi, DiffusionField()).values
        ref = 0.5 * (laplacian(psi).values + np.sum(gradient(psi).values**2, axis=-1))
        scale = np.abs(ref).max()
        assert np.abs(V - ref).max() <= 1e-14 * scale

    def test_general_coefficients_oracle(self):
        A11, A12, A22 = 2.0, 0.5, 1.3
        al, be = 0.9, -0.5

        def psi_fn(x, y):
            return np.sin(al * x) * np.cos(be * y)

        def v_exact(x, y):
            s, c = np.sin(al * x), np.cos(al * x)
            sy, cy = np.sin(be * y), np.cos(be * y)
            px, py = al * c * cy, -be * s * sy
            pxx, pyy, pxy = -(al**2) * s * cy, -(be**2) * s * cy, -al * be * c * sy
            quad = A11 * px**2 + 2 * A12 * px * py + A22 * py**2
            return 0.5 * (A11 * pxx + 2 * A12 * pxy + A22 * pyy) + 0.5 * quad

        def err(n):
            g = grid_square(n)
            psi = sample_scalar(psi_fn, g)
            V = potential_from_psi(psi, DiffusionField(A11, A12, A22)).values
            X, Y = g.nodes()
            return np.abs(V[1:-1, 1:-1] - v_exact(X, Y)[1:-1, 1:-1]).max()

        assert 3.2 <= err(65) / err(129) <= 4.8


class TestDiffusionField:
    def test_default_is_identity(self):
        a = DiffusionField()
        assert (a.a11, a.a12, a.a22) == (1.0, 0.0, 1.0)
        assert all(type(entry) is float for entry in (a.a11, a.a12, a.a22))

    def test_spd_validation(self):
        with pytest.raises(DataError, match="SPD"):
            DiffusionField(1.0, 2.0, 1.0)  # det < 0

    @pytest.mark.parametrize("entries, match", [
        ((float("nan"), 0.0, 1.0), "non-finite"),
        ((1.0, float("inf"), 1.0), "non-finite"),
        ((1.0, 0.0, -float("inf")), "non-finite"),
        ((0.0, 0.0, 1.0), "SPD"),
        ((-1.0, 0.0, -1.0), "SPD"),  # det > 0, a11 < 0: negative definite
        ((1.0, 1.0, 1.0), "SPD"),  # det = 0
        ((1.0, 0.5, 0.2), "SPD"),  # det < 0
    ], ids=["nan-a11", "inf-a12", "inf-a22", "a11-zero", "a11-negative", "det-zero",
            "det-negative"])
    def test_refused_entries_raise_data_error(self, entries, match):
        with pytest.raises(DataError, match=match):
            DiffusionField(*entries)

    def test_immutability(self):
        a = DiffusionField()
        with pytest.raises(AttributeError):
            a.a11 = 5.0


class TestDomains:
    def test_domain_must_fit_in_grid(self):
        g = grid_square(17, half=1.0)
        with pytest.raises(GeometryError, match="strictly inside"):
            DiscDomain(g, 0.0, 0.0, 1.0)
        with pytest.raises(GeometryError, match="strictly inside"):
            RectangleDomain(g, -1.0, -0.5, 1.0, 0.5)

    def test_rectangle_checked_by_its_corners(self):
        # circumradius 1.27 exceeds the grid's half-width, the corners do not
        g = grid_square(17, half=1.0)
        dom = RectangleDomain(g, -0.9, -0.9, 0.9, 0.9)
        assert dom.circumradius > 1.0
        lo, hi = dom.bounds
        assert lo.tolist() == [-0.9, -0.9] and hi.tolist() == [0.9, 0.9]
        lo, hi = DiscDomain(g, 0.25, -0.5, 0.25).bounds
        assert lo.tolist() == [0.0, -0.75] and hi.tolist() == [0.5, -0.25]

    def test_shrunk_about_center(self):
        g = grid_square(17, half=1.5)
        disc = DiscDomain(g, 0.25, -0.25, 1.0).shrunk(0.75)
        assert (disc.center_x, disc.center_y, disc.radius) == (0.25, -0.25, 0.75)
        rect = RectangleDomain(g, 0.0, 0.0, 1.0, 0.5).shrunk(0.5)
        assert (rect.xmin, rect.ymin, rect.xmax, rect.ymax) == (0.25, 0.125, 0.75, 0.375)

    def test_disc_chord_endpoints(self):
        g = grid_square(17, half=1.5)
        dom = DiscDomain(g, 0.0, 0.0, 1.0)
        omega = np.array([1.0, 0.0])
        x, y, hit = dom.chord_endpoints(omega, 0.5)
        assert hit
        for p in (x, y):
            assert np.hypot(*p) == pytest.approx(1.0, abs=1e-12)
        assert np.hypot(*(y - x)) == pytest.approx(np.sqrt(3.0), abs=1e-12)
        x, y, hit = dom.chord_endpoints(omega, 1.1)
        assert not hit and np.all(np.isnan(x)) and np.all(np.isnan(y))

    def test_boundary_crossing_disc(self):
        g = grid_square(17, half=1.5)
        dom = DiscDomain(g, 0.0, 0.0, 1.0)
        p, q = np.array([0.9, 0.0]), np.array([1.3, 0.0])
        cross, theta = dom.boundary_crossing(p, q)
        assert cross == pytest.approx([1.0, 0.0], abs=1e-12)
        assert theta == pytest.approx(0.25, abs=1e-12)

    def test_interior_drops_sliver_nodes(self):
        # the rectangle's left edge lies 1e-5 grid steps left of a grid line
        g = grid_square(17, half=2.0)
        dom = RectangleDomain(g, -1.0 - 1e-5 * g.dx, -1.1, 1.1, 1.1)
        inside = dom.contains(g.node_points()).reshape(g.shape)
        interior = dom.interior(g)
        assert np.array_equal(inside & ~interior, inside & (np.arange(17) == 4)[:, None])
        assert interior[5:13, 4:13].all() and interior.sum() == 8 * 9
        assert dom.interior(g) is interior  # computed once per domain
        assert not interior.flags.writeable

    def test_interior_equals_inside_away_from_the_edge(self):
        g = grid_square(33, half=1.2)
        dom = DiscDomain(g, 0.05, -0.1, 1.0)
        assert np.array_equal(dom.interior(g), dom.contains(g.node_points()).reshape(g.shape))

    @pytest.mark.parametrize("make", [
        lambda: DiscDomain(DiscDomain.default_grid(0.0, 0.0, 1.0, 33, 1.15), 0.0, 0.0, 1.0),
        lambda: DiscDomain(DiscDomain.default_grid(0.0, 0.0, 1.0, 129, 1.15), 0.0, 0.0, 1.0),
        lambda: DiscDomain(DiscDomain.default_grid(0.0, 0.0, 1.0, 257, 1.15), 0.0, 0.0, 1.0),
        lambda: DiscDomain(grid_square(129, half=1.5), 0.237, -0.311, 0.9),
        lambda: RectangleDomain(RectangleDomain.default_grid(-1.0, -0.7, 1.0, 0.7, 129, 1.15),
                                -1.0, -0.7, 1.0, 0.7),
        # the sliver rectangle of test_interior_drops_sliver_nodes (dx = 0.25),
        # and its sliver along y: a node can have both x neighbours inside
        lambda: RectangleDomain(grid_square(17), -1.0 - 1e-5 * 0.25, -1.1, 1.1, 1.1),
        lambda: RectangleDomain(grid_square(17), -1.1, -1.0 - 1e-5 * 0.25, 1.1, 1.1),
    ], ids=["disc-33", "disc-129", "disc-257", "disc-off-centre", "rectangle", "rect-sliver-x",
            "rect-sliver-y"])
    def test_interior_equals_the_five_probe_mask(self, make):
        """Probing only the nodes next to an outside node gives the mask of
        probing every node at the node and its four `_SLIVER` shifts."""
        from driftscope.fields import _SLIVER

        dom = make()
        g = dom.grid
        pts = np.stack(g.nodes(), axis=-1)
        want = dom.contains(pts)
        for step in _SLIVER * np.array([[-g.dx, 0.0], [g.dx, 0.0], [0.0, -g.dy], [0.0, g.dy]]):
            want &= dom.contains(pts + step)
        assert np.array_equal(dom.interior(g), want)

    def test_interior_on_another_grid_is_data_error(self):
        dom = DiscDomain(grid_square(17, half=1.5), 0.0, 0.0, 1.0)
        with pytest.raises(DataError, match="domain's grid"):
            dom.interior(grid_square(33, half=1.5))

    def test_rectangle_param_roundtrip(self):
        g = grid_square(17, half=3.0)
        dom = RectangleDomain(g, -1.0, -2.0, 1.0, 2.0)
        s = np.linspace(0, dom.param_length, 40, endpoint=False)
        pts = dom.boundary_point(s)
        s2 = dom.boundary_param(pts)
        assert s2 == pytest.approx(s, abs=1e-9)


# ---------------------------------------------------------------------------
# Oracles: the per-point domain geometry before it took arrays
# ---------------------------------------------------------------------------


def oracle_boundary_crossing(domain, p, q):
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    d = q - p
    if isinstance(domain, DiscDomain):
        f = p - domain.center
        a = float(d @ d)
        b = float(f @ d)
        c = float(f @ f) - domain.radius**2
        disc = b * b - a * c
        if a == 0 or disc < 0:
            raise GeometryError("segment does not cross the disc boundary")
        theta = (-b + np.sqrt(disc)) / a
        if not (0.0 <= theta <= 1.0 + 1e-12):
            raise GeometryError("segment does not cross the disc boundary")
        theta = min(theta, 1.0)
        return p + theta * d, theta
    best = None
    for axis, (lo, hi) in enumerate([(domain.xmin, domain.xmax), (domain.ymin, domain.ymax)]):
        if abs(d[axis]) < 1e-15:
            continue
        for edge in (lo, hi):
            theta = (edge - p[axis]) / d[axis]
            if 0.0 <= theta <= 1.0 + 1e-12 and (best is None or theta < best):
                best = min(theta, 1.0)
    if best is None:
        raise GeometryError("segment does not cross the rectangle boundary")
    return p + best * d, best


def oracle_project_to_boundary(rect, points):
    p = np.atleast_2d(np.asarray(points, dtype=float)).copy()
    inside = rect.contains(p)
    p[:, 0] = np.clip(p[:, 0], rect.xmin, rect.xmax)
    p[:, 1] = np.clip(p[:, 1], rect.ymin, rect.ymax)
    for k in np.nonzero(inside)[0]:
        x, y = p[k]
        d = [
            (y - rect.ymin, (x, rect.ymin)),
            (rect.xmax - x, (rect.xmax, y)),
            (rect.ymax - y, (x, rect.ymax)),
            (x - rect.xmin, (rect.xmin, y)),
        ]
        p[k] = min(d, key=lambda e: e[0])[1]
    return p


def oracle_boundary_point(rect, s):
    s = np.mod(np.atleast_1d(np.asarray(s, dtype=float)), rect.param_length)
    w = rect.xmax - rect.xmin
    h = rect.ymax - rect.ymin
    pts = np.empty((len(s), 2))
    for k, sk in enumerate(s):
        if sk < w:
            pts[k] = (rect.xmin + sk, rect.ymin)
        elif sk < w + h:
            pts[k] = (rect.xmax, rect.ymin + (sk - w))
        elif sk < 2 * w + h:
            pts[k] = (rect.xmax - (sk - w - h), rect.ymax)
        else:
            pts[k] = (rect.xmin, rect.ymax - (sk - 2 * w - h))
    return pts


def oracle_boundary_param(domain, points):
    """boundary_param as it stood: np.mod of the polar angle on a disc; on a
    rectangle the side is the np.argmin of the four edge distances."""
    p = np.asarray(points, dtype=float)
    if isinstance(domain, DiscDomain):
        d = p - domain.center
        return np.mod(np.arctan2(d[..., 1], d[..., 0]), 2.0 * np.pi)
    w = domain.xmax - domain.xmin
    h = domain.ymax - domain.ymin
    x = np.clip(p[..., 0], domain.xmin, domain.xmax) - domain.xmin
    y = np.clip(p[..., 1], domain.ymin, domain.ymax) - domain.ymin
    side = np.argmin(np.stack([np.abs(p[..., 1] - domain.ymin), np.abs(p[..., 0] - domain.xmax),
                               np.abs(p[..., 1] - domain.ymax), np.abs(p[..., 0] - domain.xmin)]),
                     axis=0)
    s = np.where(side == 0, x, np.where(side == 1, w + y,
                                        np.where(side == 2, w + h + (w - x), 2 * w + h + (h - y))))
    return np.mod(s, domain.param_length)


def same_bits(a, b):
    """Equal values with equal signs of zero, shape included."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def crossing_segments(domain, rng, n=400):
    """Segments from inside to outside: random ones, ones ending a hair
    before the boundary (theta just above 1, clamped) and, on a rectangle,
    ones through a corner and ones parallel to an axis."""
    lo, hi = domain.bounds
    center = domain.center
    p = center + (rng.uniform(lo, hi, (n, 2)) - center) * 0.9
    p = p[domain.contains(p)]
    q = p + rng.normal(size=p.shape) * rng.uniform(0.05, 2.0, (len(p), 1))
    far = p + (q - p) / np.linalg.norm(q - p, axis=1, keepdims=True) * 4.0 * domain.circumradius
    keep = ~domain.contains(q)
    p, q = np.concatenate([p[keep], p]), np.concatenate([q[keep], far])
    # theta just above 1: the end point stops short of the crossing
    cross, theta = domain.boundary_crossing(p[:50], q[:50])
    short = p[:50] + (cross - p[:50]) / (1.0 + 4e-13)
    p, q = np.concatenate([p, p[:50]]), np.concatenate([q, short])
    if isinstance(domain, RectangleDomain):
        inner = p[:40]
        corners = np.array([[domain.xmin, domain.ymin], [domain.xmax, domain.ymin],
                            [domain.xmax, domain.ymax], [domain.xmin, domain.ymax]])
        through = inner + 2.0 * (corners[np.arange(40) % 4] - inner)
        horizontal = np.stack([inner[:, 0] + 5.0 * np.sign(inner[:, 0] + 0.01), inner[:, 1]], axis=1)
        vertical = np.stack([inner[:, 0], inner[:, 1] - 5.0], axis=1)
        nearly = np.stack([inner[:, 0] + 3e-16, inner[:, 1] + 5.0], axis=1)
        # from a corner outward: theta is -0.0 at one edge and 0.0 at the other
        outward = corners + np.array([[-1.0, -0.5], [1.0, -0.5], [1.0, 0.5], [-1.0, 0.5]])
        sideways = corners + np.array([[-1.0, 0.5], [0.5, -1.0], [1.0, -0.5], [-0.5, 1.0]])
        p = np.concatenate([p, inner, inner, inner, inner, corners, corners])
        q = np.concatenate([q, through, horizontal, vertical, nearly, outward, sideways])
    return p, q


GEOMETRY_DOMAINS = {
    "disc": lambda: DiscDomain(grid_square(17, half=1.5), 0.25, -0.2, 1.0),
    "rectangle": lambda: RectangleDomain(grid_square(17, half=1.5), -1.0, -0.6, 0.75, 0.5),
    "square": lambda: RectangleDomain(grid_square(17, half=1.5), -1.0, -1.0, 1.0, 1.0),
}


class TestArrayGeometry:
    @pytest.mark.parametrize("name", list(GEOMETRY_DOMAINS))
    def test_boundary_crossing_matches_per_segment_oracle(self, name):
        domain = GEOMETRY_DOMAINS[name]()
        p, q = crossing_segments(domain, np.random.default_rng(11))
        assert len(p) > 300
        cross, theta = domain.boundary_crossing(p, q)
        assert cross.shape == p.shape and theta.shape == (len(p),)
        for k in range(len(p)):
            want_cross, want_theta = oracle_boundary_crossing(domain, p[k], q[k])
            assert same_bits(cross[k], want_cross), k
            assert same_bits(theta[k], want_theta), k
            # one segment at a time, as the Shortley-Weller legs use it
            one_cross, one_theta = domain.boundary_crossing(p[k], q[k])
            assert same_bits(one_cross, want_cross) and same_bits(one_theta, want_theta), k
        assert np.any(theta == 1.0)  # the clamped ones
        # a (2, 3, 2) batch gives the same rows
        cross6, theta6 = domain.boundary_crossing(p[:6].reshape(2, 3, 2), q[:6].reshape(2, 3, 2))
        assert same_bits(cross6.reshape(6, 2), cross[:6]) and same_bits(theta6.ravel(), theta[:6])

    @pytest.mark.parametrize("name", list(GEOMETRY_DOMAINS))
    def test_boundary_crossing_rejects_any_miss(self, name):
        domain = GEOMETRY_DOMAINS[name]()
        p, q = crossing_segments(domain, np.random.default_rng(12), n=40)
        c = domain.center
        misses = [(c, c + 0.01),  # ends inside
                  (c, c),  # no length
                  (c, c + (q[0] - c) * 1e-3)]
        for a, b in misses:
            with pytest.raises(GeometryError, match="does not cross"):
                oracle_boundary_crossing(domain, a, b)
            with pytest.raises(GeometryError, match="does not cross"):
                domain.boundary_crossing(np.vstack([p, a]), np.vstack([q, b]))

    @pytest.mark.parametrize("name", ["rectangle", "square"])
    def test_rectangle_projection_and_boundary_point_match_oracles(self, name):
        domain = GEOMETRY_DOMAINS[name]()
        rng = np.random.default_rng(13)
        lo, hi = domain.bounds
        pts = rng.uniform(lo - 0.4, hi + 0.4, (500, 2))
        # ties: equidistant from two or more edges, and points on the boundary
        mid = domain.center
        ties = np.array([mid, mid + [0.05, 0.05], mid - [0.05, 0.05], mid + [0.05, -0.05],
                         [domain.xmin + 0.2, domain.ymin + 0.2], [domain.xmax - 0.2, domain.ymax - 0.2],
                         [domain.xmin, mid[1]], [mid[0], domain.ymax], lo, hi])
        pts = np.vstack([pts, ties])
        assert same_bits(domain.project_to_boundary(pts), oracle_project_to_boundary(domain, pts))
        assert same_bits(domain.project_to_boundary(pts[3]), oracle_project_to_boundary(domain, pts[3])[0])
        w, h = domain.xmax - domain.xmin, domain.ymax - domain.ymin
        L = domain.param_length
        s = np.concatenate([rng.uniform(-L, 2 * L, 500), [0.0, w, w + h, 2 * w + h, L, -1e-17]])
        assert same_bits(domain.boundary_point(s), oracle_boundary_point(domain, s))
        assert same_bits(domain.boundary_point(s[7]), oracle_boundary_point(domain, s[7])[0])


    @pytest.mark.parametrize("name", list(GEOMETRY_DOMAINS))
    def test_boundary_param_takes_any_leading_shape(self, name):
        # a (2, 3, 2) batch of boundary points gives the 2-D call's values,
        # reshaped, and one point the 2-D call's value
        domain = GEOMETRY_DOMAINS[name]()
        pts = domain.boundary_point(np.linspace(0.0, domain.param_length, 6, endpoint=False))
        flat = domain.boundary_param(pts)
        assert flat.shape == (6,)
        assert same_bits(domain.boundary_param(pts.reshape(2, 3, 2)), flat.reshape(2, 3))
        assert same_bits(domain.boundary_param(pts[4]), flat[4])

    def test_rectangle_boundary_param_of_a_batch_of_edge_points(self):
        # (1, 0), (0, 0.7) and (-1, 0) as a (1, 3, 2) array: one value each
        domain = RectangleDomain(grid_square(17, half=1.5), -1.0, -0.7, 1.0, 0.7)
        edge = np.array([[1.0, 0.0], [0.0, 0.7], [-1.0, 0.0]])
        got = domain.boundary_param(edge[None])
        assert got.shape == (1, 3) and same_bits(got[0], domain.boundary_param(edge))
        assert got[0] == pytest.approx([2.7, 4.4, 6.1], abs=1e-12)

    @pytest.mark.parametrize("corners, want", [
        ((-1.0, -1.0, 1.0, 1.0), 0.0),
        ((-1.0, -0.5, 1.0, 0.5), 0.0),
        # the left edge's 2w + h + h rounds to one ulp above L = 6.8
        ((-1.0, -0.7, 1.0, 0.7), 6.800000000000001 - 6.8),
    ])
    def test_rectangle_boundary_param_folds_L_onto_0(self, corners, want):
        # below the bottom-left corner but nearest the left edge: the left
        # edge's value at y = ymin is L, or L and a rounding, which folds
        # onto 0 as np.mod folds it
        domain = RectangleDomain(grid_square(17, half=1.5), *corners)
        got = domain.boundary_param(np.array([[corners[0] - 0.1, corners[1] - 1.0]]))
        assert got.tolist() == [want] and not np.signbit(got[0])

    @pytest.mark.parametrize("name", [*GEOMETRY_DOMAINS, "centred disc", "centred rectangle",
                                      "rectangle at the origin"])
    def test_boundary_param_matches_the_argmin_and_mod_oracle(self, name):
        # at the origin, x = -0.0 clips to -0.0 on the bottom edge, which np.mod
        # turns into +0.0
        domain = {**GEOMETRY_DOMAINS,
                  "centred disc": lambda: DiscDomain(grid_square(17, half=1.5), 0.0, 0.0, 1.0),
                  "centred rectangle": lambda: RectangleDomain(grid_square(17, half=1.5),
                                                               -1.0, -0.5, 1.0, 0.5),
                  "rectangle at the origin": lambda: RectangleDomain(grid_square(17, half=1.5),
                                                                     0.0, 0.0, 1.0, 1.0)}[name]()
        rng = np.random.default_rng(14)
        lo, hi = domain.bounds
        c = domain.center
        corners = np.array([lo, [hi[0], lo[1]], hi, [lo[0], hi[1]]])
        # equidistant from two edges: along the diagonals from the corners
        along = np.array([0.0, 0.125, 0.25, 0.5])[:, None, None]
        ties = (corners + along * (c - corners)).reshape(-1, 2)
        zero = np.array([0.0, -0.0])
        signed = np.array([[a, b] for a in (*zero, 1.0, -1.0, 0.5) for b in (*zero, 1.0, -1.0)])
        # tiny negative angles round up to 2 pi
        tiny = c + np.array([[1.0, -1e-17], [0.5, -1e-300], [0.75, -5e-324], [1.0, -1e-15]])
        pts = np.vstack([rng.uniform(lo - 0.4, hi + 0.4, (500, 2)),
                         domain.boundary_point(rng.uniform(0.0, domain.param_length, 200)),
                         corners, ties, signed, c + signed, tiny])
        got = domain.boundary_param(pts)
        assert same_bits(got, oracle_boundary_param(domain, pts))
        assert same_bits(domain.boundary_param(pts.reshape(-1, 2, 2)), got.reshape(-1, 2))
        assert not np.any(np.signbit(got))
        if name == "centred disc":  # off the origin, c + tiny rounds to c
            assert np.count_nonzero(got == 2 * np.pi) >= 3
        if isinstance(domain, RectangleDomain):
            d = np.abs(np.stack([pts[:, 1] - lo[1], pts[:, 0] - hi[0], pts[:, 1] - hi[1],
                                 pts[:, 0] - lo[0]]))
            assert np.count_nonzero(np.sum(d == d.min(axis=0), axis=0) > 1) >= 8


def test_scalar_field_refuses_values_of_another_shape():
    # a (4, 3) array on a 3 x 4 grid has the grid's size, but reshaped, its
    # first column [0, 3, 6, 9] would read as the row [0, 1, 2, 3]
    g = Grid(0.0, 0.0, 1.0, 1.0, 3, 4)
    for values in (np.arange(12.0).reshape(4, 3), np.arange(12.0)):
        with pytest.raises(DataError, match=re.escape(f"values shape {values.shape} does not "
                                                      "match grid (3, 4)")):
            ScalarField(g, values)
    assert ScalarField(g, np.arange(12.0).reshape(3, 4)).values[:, 0].tolist() == [0, 4, 8]


class TestDgf:
    def test_roundtrip_bytes(self, tmp_path):
        g = Grid(-1.0, 0.5, 0.25, 0.125, 7, 9)
        rng = np.random.default_rng(7)
        f = ScalarField(g, rng.standard_normal((7, 9)))
        p1, p2 = tmp_path / "a.dgf", tmp_path / "b.dgf"
        write_dgf(p1, f)
        f2 = read_dgf(p1)
        assert f2.grid == g
        assert np.array_equal(f2.values, f.values)
        write_dgf(p2, f2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_layout(self, tmp_path):
        g = Grid(0.0, 0.0, 1.0, 1.0, 2, 3)
        f = ScalarField(g, np.arange(6.0).reshape(2, 3))
        path = tmp_path / "f.dgf"
        write_dgf(path, f)
        raw = path.read_bytes()
        assert raw[:4] == b"DGF1"
        assert np.frombuffer(raw[4:12], dtype="<u4").tolist() == [2, 3]
        # row-major values: node (i, j) at index i*ny + j
        vals = np.frombuffer(raw[44:], dtype="<f8")
        assert vals.tolist() == [0, 1, 2, 3, 4, 5]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.dgf"
        path.write_bytes(b"NOPE" + b"\0" * 40)
        with pytest.raises(DataError, match="magic"):
            read_dgf(path)


def test_mixed_derivative_bilinear_exact():
    g = grid_square(17)
    f = sample_scalar(lambda x, y: 2.0 * x * y, g)
    pxy = mixed_derivative(f).values
    assert np.abs(pxy[1:-1, 1:-1] - 2.0).max() < 1e-12
    assert np.all(pxy[0, :] == 0.0)  # masked ring
