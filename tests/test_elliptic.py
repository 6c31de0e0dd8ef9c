import dataclasses
import gc
import tracemalloc
import typing

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from driftscope import elliptic, multigrid
from driftscope.diffusion import McConfig, feynman_kac_exit
from driftscope.elliptic import (
    CsrMatrix,
    LinearSystem,
    assemble_dirichlet_system,
    boundary_psi_from_fits,
    boundary_values_from_psi,
    solve_bvp,
)
from driftscope.errors import DataError, SolverError
from driftscope.fields import (
    DiffusionField,
    DiscDomain,
    Grid,
    RectangleDomain,
    ScalarField,
    interp,
    sample_scalar,
)
from driftscope.smalltime import ChordTable, FitTable, make_parallel_chords


def chord_fit_table(xs, ys, delta_psi, se_delta_psi):
    """The fit table, on a table of the chords xs -> ys, of synthetic
    boundary-psi equations."""
    n = len(xs)
    zero = np.zeros(n)
    return FitTable(ChordTable(np.array(xs), np.array(ys)), np.asarray(delta_psi, dtype=float),
                    zero, zero, np.full(n, se_delta_psi), np.full(n, 1e-4), np.full(n, 4),
                    np.ones(n, dtype=bool))


def fine_level(system):
    """The system's finest multigrid level and its unknowns' positions."""
    return multigrid.fine_level(system.matrix, system.node_index)


def to_scipy(matrix):
    """The system's CSR arrays as a scipy matrix, for the oracles."""
    return sp.csr_matrix((matrix.data, matrix.indices, matrix.indptr), shape=matrix.shape)


def disc_setup(n, half=1.2, radius=1.0):
    g = Grid.from_extent(-half, -half, half, half, n, n)
    return g, DiscDomain(g, 0.0, 0.0, radius)


def zeros(g):
    return ScalarField(g, np.zeros(g.shape))


def ones(g):
    return ScalarField(g, np.ones(g.shape))


class TestAssembly:
    def test_constant_solution_disc(self):
        g, dom = disc_setup(33)
        system = assemble_dirichlet_system(DiffusionField(), zeros(g), dom,
                                           lambda p: np.ones(len(p)))
        sol = solve_bvp(system, tol=1e-12)
        mask = system.node_index >= 0
        assert np.abs(sol.u.values[mask] - 1.0).max() < 1e-9

    def test_manufactured_residual_second_order_rectangle(self):
        # rows applied to the sampled exact solution shrink at O(h^2)
        def residual(n):
            g = Grid.from_extent(-2.0, -2.0, 2.0, 2.0, n, n)
            dom = RectangleDomain(g, -1.0, -1.0, 1.0, 1.0)
            u_star = sample_scalar(lambda x, y: np.exp(x + y), g)
            system = assemble_dirichlet_system(
                DiffusionField(), ones(g), dom, lambda p: np.exp(p[:, 0] + p[:, 1])
            )
            mask = system.node_index >= 0
            x = u_star.values[mask][np.argsort(system.node_index[mask])]
            return np.abs(system.matrix @ x - system.rhs).max()

        assert 3.0 <= residual(33) / residual(65) <= 5.0

    def test_manufactured_residual_diagonal_a(self):
        def residual(n):
            g = Grid.from_extent(-2.0, -2.0, 2.0, 2.0, n, n)
            dom = RectangleDomain(g, -1.0, -1.0, 1.0, 1.0)
            a = DiffusionField(1.0, 0.0, 4.0)
            al, be = 0.8, 0.3
            # V chosen so u* = exp(al x + be y) solves the equation
            v_val = 0.5 * (1.0 * al**2 + 4.0 * be**2)
            V = ScalarField(g, np.full((n, n), v_val))
            u_star = sample_scalar(lambda x, y: np.exp(al * x + be * y), g)
            system = assemble_dirichlet_system(
                a, V, dom, lambda p: np.exp(al * p[:, 0] + be * p[:, 1])
            )
            mask = system.node_index >= 0
            x = u_star.values[mask][np.argsort(system.node_index[mask])]
            return np.abs(system.matrix @ x - system.rhs).max()

        assert 3.0 <= residual(33) / residual(65) <= 5.0

    def test_spd_violation_rejected(self):
        # a matrix that is not SPD never reaches assembly
        with pytest.raises(DataError, match="SPD"):
            DiffusionField(1.0, 1.5, 1.0)

    def test_symmetric_matrix_on_aligned_rectangle(self):
        g = Grid.from_extent(-2.0, -2.0, 2.0, 2.0, 33, 33)
        dom = RectangleDomain(g, -1.0, -1.0, 1.0, 1.0)
        system = assemble_dirichlet_system(DiffusionField(2.0, 0.0, 2.0), ones(g), dom,
                                           lambda p: np.ones(len(p)))
        assert system.symmetric
        A = to_scipy(system.matrix)
        assert (A != A.T).nnz == 0

    def test_negative_potential_warns(self):
        g, dom = disc_setup(17)
        V = ScalarField(g, np.full((17, 17), -0.5))
        with pytest.warns(UserWarning, match="negative"):
            assemble_dirichlet_system(DiffusionField(), V, dom, lambda p: np.ones(len(p)))


def per_leg_arm(domain, p, step, neighbor_inside):
    """Oracle: one stencil leg at a time, as assembly found them before the
    crossings were batched."""
    if neighbor_inside:
        return 1.0, None
    bp, theta = domain.boundary_crossing(p, p + step)
    return max(theta, elliptic._ARM_FLOOR), bp


# an off-center disc and a rectangle whose edges fall between grid lines, on
# a grid with dx != dy
LEG_DOMAINS = [
    DiscDomain(Grid.from_extent(-1.2, -1.1, 1.3, 1.2, 29, 33), 0.05, 0.0, 1.0),
    RectangleDomain(Grid.from_extent(-1.2, -1.1, 1.3, 1.2, 29, 33), -0.93, -0.71, 1.01, 0.87),
]


def inside_nodes(domain):
    """The domain's inside mask, its inside nodes and their unknown indices."""
    g = domain.grid
    inside = domain.contains(g.node_points()).reshape(g.shape)
    node_index = -np.ones(g.shape, dtype=np.int64)
    node_index[inside] = np.arange(inside.sum())
    return inside, np.argwhere(inside), node_index


@pytest.mark.parametrize("domain", LEG_DOMAINS, ids=["disc", "rectangle"])
def test_batched_leg_arms_match_per_leg_oracle(domain):
    g = domain.grid
    inside, nodes, node_index = inside_nodes(domain)  # every inside node: the grid's edge legs too
    legs = elliptic._AXIS_LEGS + elliptic._DIAGONAL_LEGS
    nbr, arm, bp = elliptic._leg_arms(domain, node_index, nodes, legs)
    crossings = iter(bp)
    n_cut = 0
    for m, (di, dj) in enumerate(legs):
        for k, (i, j) in enumerate(nodes.tolist()):
            ni, nj = i + di, j + dj
            nb_in = 0 <= ni < g.nx and 0 <= nj < g.ny and inside[ni, nj]
            step = np.array([di * g.dx, dj * g.dy])
            want_theta, want_bp = per_leg_arm(domain, np.array([g.xs()[i], g.ys()[j]]), step, nb_in)
            theta = arm[m, k]
            assert theta == want_theta and np.signbit(theta) == np.signbit(want_theta)
            if want_bp is None:
                assert nbr[m, k] == node_index[ni, nj]
            else:
                n_cut += 1
                assert nbr[m, k] == -1
                assert next(crossings).tobytes() == want_bp.tobytes()
    assert n_cut == len(bp) > 50


# ---------------------------------------------------------------------------
# Oracle: the two-path assembly before every inside node shared one array
# stencil (a vectorized block for nodes with four inside neighbours, then a
# loop over the rest with one g call per crossing leg)
# ---------------------------------------------------------------------------


def oracle_second_coeffs(h_minus, h_plus):
    return (
        2.0 / (h_minus * (h_minus + h_plus)),
        -2.0 / (h_minus * h_plus),
        2.0 / (h_plus * (h_minus + h_plus)),
    )


def oracle_cross_weights(lams, dx, dy):
    sx = np.array([1.0, -1.0, -1.0, 1.0])
    sy = np.array([1.0, 1.0, -1.0, -1.0])
    A = np.stack([lams * sx * dx, lams * sy * dy, lams * lams, lams * lams * sx * sy * dx * dy])
    return np.linalg.solve(A, np.array([0.0, 0.0, 0.0, 1.0]))


ORACLE_AXIS_LEGS = {"E": (1, 0), "W": (-1, 0), "N": (0, 1), "S": (0, -1)}
ORACLE_DIAGONAL_LEGS = ((1, 1), (-1, 1), (-1, -1), (1, -1))


def oracle_leg_arms(domain, inside, nodes, legs):
    grid = domain.grid
    keys, starts, ends = [], [], []
    for di, dj in legs:
        outside = nodes[~inside[nodes[:, 0] + di, nodes[:, 1] + dj]]
        p = np.stack([grid.xs()[outside[:, 0]], grid.ys()[outside[:, 1]]], axis=-1)
        starts.append(p)
        ends.append(p + np.array([di * grid.dx, dj * grid.dy]))
        keys += [(i, j, di, dj) for i, j in outside.tolist()]
    if not keys:
        return {}
    bp, theta = domain.boundary_crossing(np.concatenate(starts), np.concatenate(ends))
    return dict(zip(keys, zip(np.maximum(theta, elliptic._ARM_FLOOR).tolist(), bp)))


def oracle_assemble(a, V, domain, g):
    """(matrix, rhs) of the two-path assembly."""
    grid = domain.grid
    dx, dy = grid.dx, grid.dy
    inside, nodes, node_index = inside_nodes(domain)
    pad = np.zeros((grid.nx + 2, grid.ny + 2), dtype=bool)
    pad[1:-1, 1:-1] = inside
    nbr_out = (~pad[:-2, 1:-1]) | (~pad[2:, 1:-1]) | (~pad[1:-1, :-2]) | (~pad[1:-1, 2:])
    n = len(nodes)
    a11, a12, a22 = (np.full(grid.shape, entry) for entry in (a.a11, a.a12, a.a22))
    has_cross = bool(np.any(a12 != 0.0))
    rows, cols, vals = [], [], []
    rhs = np.zeros(n)

    def add(r, c, v):
        rows.append(r)
        cols.append(c)
        vals.append(v)

    is_reg = inside & ~nbr_out
    if has_cross:
        is_reg &= pad[2:, 2:] & pad[:-2, 2:] & pad[:-2, :-2] & pad[2:, :-2]
    ri, rj = np.nonzero(is_reg)
    k = node_index[ri, rj]
    cxx = a11[ri, rj] * 0.5
    cyy = a22[ri, rj] * 0.5
    center = -2.0 * cxx / dx**2 - 2.0 * cyy / dy**2 - V.values[ri, rj]
    entries = [
        (ri, rj, center),
        (ri + 1, rj, cxx / dx**2),
        (ri - 1, rj, cxx / dx**2),
        (ri, rj + 1, cyy / dy**2),
        (ri, rj - 1, cyy / dy**2),
    ]
    if has_cross:
        cxy = a12[ri, rj] / (4.0 * dx * dy)
        entries += [(ri + 1, rj + 1, cxy), (ri - 1, rj - 1, cxy),
                    (ri + 1, rj - 1, -cxy), (ri - 1, rj + 1, -cxy)]
    for ii, jj, vv in entries:
        rows.extend(k.tolist())
        cols.extend(node_index[ii, jj].tolist())
        vals.extend(vv)

    special = np.argwhere(inside & ~is_reg)
    arms = oracle_leg_arms(domain, inside, special, ORACLE_AXIS_LEGS.values())
    if has_cross:
        arms.update(oracle_leg_arms(domain, inside, special[a12[special[:, 0], special[:, 1]] != 0.0],
                                    ORACLE_DIAGONAL_LEGS))
    for i, j in special.tolist():
        k = int(node_index[i, j])
        legs = {}
        for name, (di, dj) in ORACLE_AXIS_LEGS.items():
            theta, bp = arms.get((i, j, di, dj), (1.0, None))
            legs[name] = (theta, bp, i + di, j + dj)

        def put(name, coef):
            theta, bp, ni, nj = legs[name]
            if bp is None:
                add(k, int(node_index[ni, nj]), coef)
            else:
                rhs[k] -= coef * float(g(bp[None, :])[0])

        hw, he = legs["W"][0] * dx, legs["E"][0] * dx
        hs, hn = legs["S"][0] * dy, legs["N"][0] * dy
        cm, cc, cp = oracle_second_coeffs(hw, he)
        axx = 0.5 * a11[i, j]
        put("W", axx * cm)
        put("E", axx * cp)
        center = axx * cc
        cm, cc, cp = oracle_second_coeffs(hs, hn)
        ayy = 0.5 * a22[i, j]
        put("S", ayy * cm)
        put("N", ayy * cp)
        center += ayy * cc
        add(k, k, center - V.values[i, j])

        if has_cross and a12[i, j] != 0.0:
            lams = np.ones(4)
            bps = [None] * 4
            for m, (di, dj) in enumerate(ORACLE_DIAGONAL_LEGS):
                lams[m], bps[m] = arms.get((i, j, di, dj), (1.0, None))
            wts = oracle_cross_weights(lams, dx, dy)
            coef = a12[i, j]
            for m, (di, dj) in enumerate(ORACLE_DIAGONAL_LEGS):
                if bps[m] is None:
                    add(k, int(node_index[i + di, j + dj]), coef * wts[m])
                else:
                    rhs[k] -= coef * wts[m] * float(g(bps[m][None, :])[0])
            add(k, k, -coef * wts.sum())

    A = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    A.sum_duplicates()
    return A, rhs


def wavy_potential(g):
    return sample_scalar(lambda x, y: 1.0 + 0.5 * np.sin(3 * x) * np.cos(2 * y), g)


def wavy_boundary(p):
    return np.exp(0.4 * p[:, 0] - 0.3 * p[:, 1] + 0.2 * np.sin(2 * p[:, 0]))


# a disc a few cells wide: rows with three and four crossing legs, whose
# right-hand sides round by the order the legs are subtracted in
SMALL_DISC = DiscDomain(LEG_DOMAINS[0].grid, 0.05, -0.1, 0.1)
OFF_CENTRE_DISC = DiscDomain(DiscDomain.default_grid(0.3, -0.2, 0.8, 65, 1.3), 0.3, -0.2, 0.8)


# the matrix is written straight into CSR arrays, each row's legs sorted by
# (di, dj): its data, indices and indptr must be those of the oracle's COO
# triplets after scipy's COO -> CSR conversion
@pytest.mark.parametrize("domain", [*LEG_DOMAINS, SMALL_DISC, OFF_CENTRE_DISC],
                         ids=["disc", "rectangle", "small-disc", "off-centre-disc"])
def test_assembly_matches_two_path_oracle_bitwise_for_identity_a(domain):
    V = wavy_potential(domain.grid)
    system = assemble_dirichlet_system(DiffusionField(), V, domain, wavy_boundary)
    A, rhs = oracle_assemble(DiffusionField(), V, domain, wavy_boundary)
    for name in ("data", "indices", "indptr"):
        assert getattr(system.matrix, name).tobytes() == getattr(A, name).tobytes(), name
    assert system.rhs.tobytes() == rhs.tobytes()


@pytest.mark.parametrize("domain", [*LEG_DOMAINS, OFF_CENTRE_DISC],
                         ids=["disc", "rectangle", "off-centre-disc"])
def test_assembly_matches_two_path_oracle_for_general_a(domain):
    a = DiffusionField(1.5, 0.3, 1.0)
    V = wavy_potential(domain.grid)
    system = assemble_dirichlet_system(a, V, domain, wavy_boundary)
    A, rhs = oracle_assemble(a, V, domain, wavy_boundary)
    for name in ("data", "indices", "indptr"):
        assert getattr(system.matrix, name).tobytes() == getattr(A, name).tobytes(), name
    assert system.rhs.tobytes() == rhs.tobytes()


def wavy_disc_system(n=129):
    """Unit disc, identity a: Shortley-Weller rows make it nonsymmetric."""
    g, dom = disc_setup(n)
    return assemble_dirichlet_system(DiffusionField(), wavy_potential(g), dom, wavy_boundary)


def aligned_rectangle_system(n=65):
    """The aligned rectangle of test_symmetric_matrix_on_aligned_rectangle: symmetric."""
    g = Grid.from_extent(-2.0, -2.0, 2.0, 2.0, n, n)
    dom = RectangleDomain(g, -1.0, -1.0, 1.0, 1.0)
    return assemble_dirichlet_system(DiffusionField(2.0, 0.0, 2.0), wavy_potential(g), dom,
                                     wavy_boundary)


def general_disc_system(n=129):
    """Centered disc with a cross term: its cut arms make it nonsymmetric."""
    g, dom = disc_setup(n)
    return assemble_dirichlet_system(DiffusionField(1.0, 0.3, 0.8), wavy_potential(g), dom,
                                     wavy_boundary)


def sliver_disc():
    """A disc centered at (0.1, 0) on a 129^2 grid over [-1.2, 1.2]^2: node
    (16, 64) at (-0.9, 0) lies on its boundary and inside only by rounding."""
    return DiscDomain(Grid.from_extent(-1.2, -1.2, 1.2, 1.2, 129, 129), 0.1, 0.0, 1.0)


def sliver_disc_system(boundary=wavy_boundary):
    dom = sliver_disc()
    return assemble_dirichlet_system(DiffusionField(), wavy_potential(dom.grid), dom, boundary)


def direct_u(system):
    """u on the inside nodes, in grid order, from a sparse direct solve."""
    x = spla.spsolve(to_scipy(system.matrix).tocsc(), system.rhs)
    return x[system.node_index[system.node_index >= 0]]


class TestSolve:
    def test_manufactured_convergence_disc(self):
        # u* = e^{x+y} solves (1/2) lap u = u, so V = 1
        errs = []
        for n in (33, 65, 129):
            g, dom = disc_setup(n)
            system = assemble_dirichlet_system(
                DiffusionField(), ones(g), dom, lambda p: np.exp(p[:, 0] + p[:, 1])
            )
            sol = solve_bvp(system, tol=1e-11)
            X, Y = g.nodes()
            mask = system.node_index >= 0
            errs.append(np.abs(sol.u.values[mask] - np.exp(X + Y)[mask]).max())
        assert 3.2 <= errs[0] / errs[1] <= 4.8
        assert 3.2 <= errs[1] / errs[2] <= 4.8

    @pytest.mark.parametrize("kind", ["disc", "rectangle"])
    def test_manufactured_convergence_cross_term(self, kind):
        # u* = exp(phi), phi = 0.8 x + 0.3 y, solves 1/2 a^{ij} u_ij = V u with
        # V = 1/2 a grad(phi).grad(phi); a12 != 0 exercises the diagonal legs
        a_mat, grad_phi = np.array([[1.5, 0.3], [0.3, 1.0]]), np.array([0.8, 0.3])
        errs = []
        for n in (33, 65):
            if kind == "disc":
                g, dom = disc_setup(n)
            else:
                g = Grid.from_extent(-1.2, -1.1, 1.3, 1.2, n, n)
                dom = RectangleDomain(g, -0.93, -0.71, 1.01, 0.87)
            a = DiffusionField(1.5, 0.3, 1.0)
            V = ScalarField(g, np.full(g.shape, 0.5 * grad_phi @ a_mat @ grad_phi))
            system = assemble_dirichlet_system(a, V, dom, lambda p: np.exp(p @ grad_phi))
            sol = solve_bvp(system, tol=1e-12)
            X, Y = g.nodes()
            mask = system.node_index >= 0
            errs.append(np.abs(sol.u.values[mask] - np.exp(0.8 * X + 0.3 * Y)[mask]).max())
        assert 3.0 <= errs[0] / errs[1] <= 5.0

    def test_harmonic_extension(self):
        g, dom = disc_setup(65)
        system = assemble_dirichlet_system(
            DiffusionField(), zeros(g), dom, lambda p: p[:, 0] ** 2 - p[:, 1] ** 2
        )
        with pytest.warns(UserWarning, match="solution minimum .* is not positive"):
            sol = solve_bvp(system, tol=1e-11)  # x^2 - y^2 changes sign
        X, Y = g.nodes()
        mask = system.node_index >= 0
        assert np.abs(sol.u.values[mask] - (X**2 - Y**2)[mask]).max() < 5e-4

    def test_matches_feynman_kac_at_points(self):
        g, dom = disc_setup(65)
        system = assemble_dirichlet_system(DiffusionField(), ones(g), dom,
                                           lambda p: np.ones(len(p)))
        sol = solve_bvp(system, tol=1e-11)
        rng = np.random.default_rng(2)
        h = 1e-3
        for _ in range(5):
            x = rng.uniform(-0.6, 0.6, 2)
            est = feynman_kac_exit(lambda p: np.ones(p.shape[:-1]),
                                   lambda p: np.ones(len(p)), dom, x,
                                   McConfig(8000, 1, seed=int(rng.integers(1 << 30))), h)
            fd = float(interp(sol.u, x))
            assert abs(est.value - fd) <= 3 * est.stderr + 1.0 * np.sqrt(h)

    def test_positivity_preserved(self):
        g, dom = disc_setup(65)
        V = sample_scalar(lambda x, y: 1.0 + 0.5 * np.sin(3 * x) * np.cos(2 * y), g)
        system = assemble_dirichlet_system(
            DiffusionField(), V, dom, lambda p: np.exp(0.3 * p[:, 0])
        )
        sol = solve_bvp(system, tol=1e-10)
        assert sol.min_u > 0.0

    def test_gauge_covariance(self):
        g, dom = disc_setup(65)
        kappa = 0.7
        g1 = lambda p: np.exp(0.2 * p[:, 0] + 0.1 * p[:, 1])
        g2 = lambda p: np.exp(kappa) * g1(p)
        s1 = assemble_dirichlet_system(DiffusionField(), ones(g), dom, g1)
        s2 = assemble_dirichlet_system(DiffusionField(), ones(g), dom, g2)
        u1 = solve_bvp(s1, tol=1e-13)
        u2 = solve_bvp(s2, tol=1e-13)
        mask = s1.node_index >= 0
        ratio = u2.u.values[mask] / u1.u.values[mask]
        assert np.abs(ratio - np.exp(kappa)).max() < 1e-9

    def test_nonconvergence_raises(self):
        g, dom = disc_setup(65)
        system = assemble_dirichlet_system(DiffusionField(), ones(g), dom,
                                           lambda p: np.exp(p[:, 0]))
        with pytest.raises(SolverError, match="convergence|iterations"):
            solve_bvp(system, tol=1e-13, max_iter=2)

    def test_zero_rhs_gives_zero(self):
        g, dom = disc_setup(33)
        system = assemble_dirichlet_system(DiffusionField(), ones(g), dom,
                                           lambda p: np.zeros(len(p)))
        with pytest.warns(UserWarning, match="solution minimum .* is not positive"):
            sol = solve_bvp(system, tol=1e-11)
        assert np.all(sol.u.values == 0.0)

    @pytest.mark.parametrize("n", [129, 257])
    def test_multigrid_iterations_do_not_grow_with_grid(self, n):
        assert solve_bvp(wavy_disc_system(n)).iterations <= 10

    @pytest.mark.parametrize("build, symmetric", [
        (wavy_disc_system, False),
        (aligned_rectangle_system, True),
        (general_disc_system, False),
        (sliver_disc_system, False),
    ], ids=["disc", "rectangle-cg", "general-disc", "sliver-disc"])
    def test_matches_direct_solve(self, build, symmetric):
        system = build()
        assert system.symmetric == symmetric
        sol = solve_bvp(system)
        want = direct_u(system)
        got = sol.u.values[system.node_index >= 0]
        assert np.abs(got - want).max() <= 1e-8 * np.abs(want).max()

    def test_v_cycle_symmetric_for_symmetric_matrix(self):
        # the hand-built symmetric part of the wavy disc's matrix: a system
        # assembly never makes, on the same grid
        system = symmetric_disc_system()
        assert system.symmetric
        sol = solve_bvp(system)
        A = to_scipy(system.matrix)
        x = sol.u.values[system.node_index >= 0][np.argsort(system.node_index[system.node_index >= 0])]
        assert np.linalg.norm(A @ x - system.rhs) <= 1e-10 * np.linalg.norm(system.rhs)
        fine, pos = fine_level(system)
        levels, coarsest = multigrid.hierarchy(fine)
        assert len(levels) > 1
        x, y = np.zeros((2, fine.coefs.shape[1]))
        x[pos], y[pos] = np.random.default_rng(7).standard_normal((2, system.dimension))
        xMy = x @ multigrid.v_cycle(levels, coarsest, y)
        Mxy = multigrid.v_cycle(levels, coarsest, x) @ y
        assert abs(xMy - Mxy) <= 1e-13 * abs(xMy)

    def test_coarsest_size_system_solved_directly(self):
        system = aligned_rectangle_system(29)  # 13^2 unknowns
        assert system.dimension <= multigrid._COARSEST_SIZE
        levels, _ = multigrid.hierarchy(fine_level(system)[0])
        assert len(levels) == 1
        sol = solve_bvp(system)
        # the exact preconditioner converges at BiCGStab's first half step,
        # which counts no full iteration
        assert sol.iterations == 0
        want = direct_u(system)
        assert np.abs(sol.u.values[system.node_index >= 0] - want).max() <= 1e-12 * np.abs(want).max()

    def test_linear_system_type_hints_resolve(self):
        hints = typing.get_type_hints(LinearSystem)
        assert hints["rhs"] is np.ndarray and hints["node_index"] is np.ndarray

    def test_singular_system_raises_solver_error(self):
        g = Grid.from_extent(0.0, 0.0, 1.0, 1.0, 2, 2)
        ones = CsrMatrix(np.ones(4), np.array([0, 1, 0, 1], dtype=np.int32),
                         np.array([0, 2, 4], dtype=np.int32), (2, 2))
        system = LinearSystem(ones, np.array([1.0, 2.0]), np.array([[0, 1], [-1, -1]]), g)
        with pytest.raises(SolverError, match="singular"):
            solve_bvp(system)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_boundary_values_are_data_errors(self, bad):
        # exp of a boundary potential above ~709 overflows: the data are at
        # fault, not the solver
        g, dom = disc_setup(33)
        with pytest.raises(DataError, match="Dirichlet boundary values are not finite"):
            assemble_dirichlet_system(DiffusionField(), ones(g), dom,
                                      lambda p: np.where(p[:, 0] > 0.5, bad, 1.0))

    def test_non_finite_system_stops_at_first_iterate(self):
        g, dom = disc_setup(33)
        system = assemble_dirichlet_system(DiffusionField(), ones(g), dom,
                                           lambda p: np.exp(p[:, 0]))
        A = system.matrix
        data = A.data.copy()
        data[5] = np.nan
        bad = LinearSystem(CsrMatrix(data, A.indices, A.indptr, A.shape), system.rhs,
                           system.node_index, g)
        with pytest.raises(SolverError, match="non-finite iterate at iteration 1$"):
            solve_bvp(bad)


def level_matrix(level):
    """A level's operator on its padded vectors, from its stencil arrays."""
    width, size = level.shape[1], level.coefs.shape[1]
    rows, cols, vals = [], [], []
    for (di, dj), c in zip(level.legs, level.coefs):
        row = np.flatnonzero(c)
        rows.append(row)
        cols.append(row + di * width + dj)
        vals.append(c[row])
    return sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(size, size))


def bilinear_prolongation(fine, coarse):
    """Oracle: P from a coarse level's padded vectors to the fine level's,
    entry by entry: coarse node K to fine node 2K + a with weight
    w(a0) w(a1), w(0) = 1 and w(+-1) = 1/2, where 2K + a is a fine unknown."""
    (mx, my), wf, wc = fine.unknown.shape, fine.shape[1], coarse.shape[1]
    rows, cols, vals = [], [], []
    for I in range((mx + 1) // 2):
        for J in range((my + 1) // 2):
            for ai in (-1, 0, 1):
                for aj in (-1, 0, 1):
                    i, j = 2 * I + ai, 2 * J + aj
                    if 0 <= i < mx and 0 <= j < my and fine.unknown[i, j]:
                        rows.append((i + 1) * wf + j + 1)
                        cols.append((I + 1) * wc + J + 1)
                        vals.append((1.0 if ai == 0 else 0.5) * (1.0 if aj == 0 else 0.5))
    return sp.csr_matrix((vals, (rows, cols)), shape=(fine.coefs.shape[1], coarse.coefs.shape[1]))


def even_box_system(n=65):
    """A rectangle whose unknowns, grid nodes 17..47 x 17..46 of 65^2, lie in
    a box of 32 x 31 nodes from the even node 16: the finest level adds a
    node past its even x side, and the next one (16 nodes along y) one past
    its y side, as a grid of 91 nodes coarsens to 46 + 1 and then 24."""
    g = Grid.from_extent(-2.0, -2.0, 2.0, 2.0, n, n)
    dom = RectangleDomain(g, -1.0, -1.0, 1.0, 0.9)
    return assemble_dirichlet_system(DiffusionField(), wavy_potential(g), dom, wavy_boundary)


def strip_system():
    """Probe A's strip [0, 1] x [-3, 3] on a 65 x 257 grid, 1.15 times its
    box: cells 0.018 by 0.027."""
    g = Grid.from_extent(-0.075, -3.45, 1.075, 3.45, 65, 257)
    dom = RectangleDomain(g, 0.0, -3.0, 1.0, 3.0)
    return assemble_dirichlet_system(DiffusionField(), wavy_potential(g), dom, wavy_boundary)


class TestMultigrid:
    @pytest.mark.parametrize("build", [lambda: wavy_disc_system(65), lambda: general_disc_system(65),
                                       even_box_system],
                             ids=["5-point", "9-point", "even-box"])
    def test_levels_are_bilinear_galerkin_products(self, build):
        # every pair of levels against an entry-by-entry P: restriction is
        # P^T / 4, prolongation is P, the coarse unknowns are P's nonzero
        # columns and the coarse stencil is R A P
        fine, _ = fine_level(build())
        levels, _ = multigrid.hierarchy(fine)
        assert len(levels) >= 3
        rng = np.random.default_rng(3)
        for fine, coarse in zip(levels, levels[1:]):
            P = bilinear_prolongation(fine, coarse)
            assert all(side % 2 == 1 for side in fine.unknown.shape + coarse.unknown.shape)
            active = np.zeros(coarse.coefs.shape[1], dtype=bool)
            active[np.unique(P.indices)] = True
            assert np.array_equal(active.reshape(coarse.shape)[1:-1, 1:-1], coarse.unknown)
            r = rng.standard_normal(fine.coefs.shape[1]) * (fine.sweep != 0.0)
            e = rng.standard_normal(coarse.coefs.shape[1]) * (coarse.sweep != 0.0)
            assert np.allclose(multigrid._restrict(fine, coarse, r), P.T @ r / 4, rtol=0, atol=1e-14)
            x = np.zeros(fine.coefs.shape[1])
            multigrid._prolong_add(fine, coarse, e, x)
            assert np.allclose(x, P @ e, rtol=0, atol=1e-14)
            want = (P.T @ level_matrix(fine) @ P / 4).toarray()
            got = level_matrix(coarse).toarray()
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_even_box_side_gains_a_node(self):
        system = even_box_system()
        ii, jj = np.nonzero(system.node_index >= 0)
        assert (ii.min(), ii.max(), jj.min(), jj.max()) == (17, 47, 17, 46)
        fine, _ = fine_level(system)
        levels, _ = multigrid.hierarchy(fine)
        assert [level.unknown.shape for level in levels] == [(33, 31), (17, 17), (9, 9)]
        # the added nodes are no unknowns
        assert not levels[0].unknown[-1].any() and not levels[1].unknown[:, -1].any()
        sol = solve_bvp(system)
        want = direct_u(system)
        assert np.abs(sol.u.values[system.node_index >= 0] - want).max() <= 1e-8 * np.abs(want).max()

    def test_strip_grid(self):
        system = strip_system()
        sol = solve_bvp(system)
        assert sol.iterations <= 10
        want = direct_u(system)
        assert np.abs(sol.u.values[system.node_index >= 0] - want).max() <= 1e-8 * np.abs(want).max()

    def test_solve_creates_no_reference_cycles(self):
        # a cycle among the levels would hold their arrays until a full
        # collection, and the process's peak memory would creep
        system = general_disc_system(65)
        gc.collect()
        gc.disable()
        try:
            solve_bvp(system)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_entry_beyond_the_neighbourhood_is_solver_error(self):
        # unknowns 0, 1, 2 on one grid line: 0 and 2 are two nodes apart
        g = Grid.from_extent(0.0, 0.0, 1.0, 1.0, 2, 3)
        matrix = CsrMatrix(np.array([-4.0, 1.0, -4.0, -4.0]), np.array([0, 2, 1, 2], dtype=np.int32),
                           np.array([0, 2, 3, 4], dtype=np.int32), (3, 3))
        system = LinearSystem(matrix, np.ones(3), np.array([[0, 1, 2], [-1, -1, -1]]), g)
        with pytest.raises(SolverError, match="outside its 3x3 neighbourhood"):
            solve_bvp(system)


def symmetric_disc_system(n=65):
    """The symmetric part of the wavy disc's matrix, with its right-hand side."""
    system = wavy_disc_system(n)
    A = to_scipy(system.matrix)
    S = ((A + A.T) * 0.5).tocsr()
    return LinearSystem(CsrMatrix(S.data, S.indices, S.indptr, S.shape), system.rhs,
                        system.node_index, system.grid)


def general_rectangle_system(n=65):
    """A rectangle whose sides fall between grid lines, with a cross term:
    cut arms, straight and diagonal, make it nonsymmetric."""
    g = Grid.from_extent(-1.2, -1.1, 1.3, 1.2, n, n)
    dom = RectangleDomain(g, -0.93, -0.71, 1.01, 0.87)
    return assemble_dirichlet_system(DiffusionField(1.5, 0.3, 1.0), wavy_potential(g), dom,
                                     wavy_boundary)


def scipy_bicgstab(matvec, b, psolve, tol, max_iter):
    """Oracle: x, info and the number of callbacks of
    scipy.sparse.linalg.bicgstab for the operator matvec with the
    preconditioner psolve."""
    calls = []
    shape = (len(b), len(b))
    A = spla.LinearOperator(shape, matvec=matvec, dtype=float)
    M = spla.LinearOperator(shape, matvec=psolve, dtype=float)
    x, info = spla.bicgstab(A, b, rtol=tol, atol=0.0, maxiter=max_iter, M=M,
                            callback=calls.append)
    return x, info, len(calls)


class TestKrylovMatchesScipy:
    """`_bicgstab` repeats scipy's bicgstab step for step, on symmetric and
    nonsymmetric systems: the same bits of x, the same exit code and the
    same number of iterations."""

    @pytest.mark.parametrize("max_iter", [20000, 2], ids=["converged", "exhausted"])
    # an id ending "-cg" marks a symmetric system, one conjugate gradients could solve
    @pytest.mark.parametrize("build, symmetric", [
        (symmetric_disc_system, True),
        (aligned_rectangle_system, True),
        (lambda: general_disc_system(65), False),
        (general_rectangle_system, False),
    ], ids=["disc-cg", "rectangle-cg", "disc-bicgstab", "rectangle-bicgstab"])
    def test_v_cycle_preconditioned(self, build, symmetric, max_iter):
        system = build()
        assert system.symmetric == symmetric
        fine, pos = fine_level(system)
        levels, coarsest = multigrid.hierarchy(fine)
        assert len(levels) > 1
        b = np.zeros(fine.coefs.shape[1])
        b[pos] = system.rhs

        def matvec(v):
            return multigrid.product(fine, v)

        def psolve(v):
            return multigrid.v_cycle(levels, coarsest, v)

        args = (matvec, b, psolve, 1e-10, max_iter)
        x, info, iterations = elliptic._bicgstab(*args)
        want_x, want_info, want_calls = scipy_bicgstab(*args)
        assert (info, iterations) == (want_info, want_calls)
        if max_iter == 2:
            assert (info, iterations) == (2, 2)
        else:
            assert info == 0 and iterations > 2
        assert x.tobytes() == want_x.tobytes()

    def test_bicgstab_breakdown_on_skew_matrix(self):
        # rtilde . A rtilde = 0 for a skew A: scipy returns info -11
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        b = np.array([1.0, 0.0])
        got = elliptic._bicgstab(lambda v: A @ v, b, lambda v: v, 1e-10, 100)
        want = scipy_bicgstab(lambda v: A @ v, b, lambda v: v, 1e-10, 100)
        assert got[1:] == want[1:] == (-11, 0)
        assert got[0].tobytes() == want[0].tobytes()


class TestSliverNode:
    """A node inside the domain only by rounding is a boundary node."""

    def test_not_an_unknown(self):
        dom = sliver_disc()
        g = dom.grid
        assert dom.contains(np.array([g.xs()[16], g.ys()[64]]))
        system = sliver_disc_system()
        assert system.node_index[16, 64] == -1 and system.node_index[17, 64] >= 0
        # its floored arm gave a row diagonal of -4.5e15 before
        assert np.abs(to_scipy(system.matrix).diagonal()).max() < 1e6

    def test_leg_toward_it_ends_there_with_g_at_it(self):
        dom = sliver_disc()
        node = [dom.grid.xs()[16], dom.grid.ys()[64]]
        points = []

        def boundary(p):
            points.append(p)
            return wavy_boundary(p)

        system = sliver_disc_system(boundary)
        # the west leg of its east neighbour (17, 64) ends at it
        nbr, arm, bp = elliptic._leg_arms(dom, system.node_index, np.array([[17, 64]]),
                                          elliptic._AXIS_LEGS)
        assert nbr[0, 0] == -1 and arm[0, 0] == 1.0
        assert bp[0] == pytest.approx(node, abs=1e-15)
        (points,) = points
        assert np.sum(np.all(np.abs(points - node) <= 1e-15, axis=1)) == 1


class TestBoundaryPsi:
    def circle(self, n=33):
        g = Grid.from_extent(-1.3, -1.3, 1.3, 1.3, n, n)
        return DiscDomain(g, 0.0, 0.0, 1.0)

    def synth_fits(self, dom, psi_fn, n=2000, seed=0, se=1e-6):
        rng = np.random.default_rng(seed)
        xs, ys, dpsi = [], [], []
        while len(xs) < n:
            t1, t2 = rng.uniform(0, 2 * np.pi, 2)
            x, y = dom.boundary_point(t1), dom.boundary_point(t2)
            if np.linalg.norm(x - y) < 0.05:
                continue
            xs.append(x)
            ys.append(y)
            dpsi.append(float(psi_fn(y) - psi_fn(x)))
        return chord_fit_table(xs, ys, dpsi, se)

    def test_constant_psi_gives_unit_g(self):
        dom = self.circle()
        fits = self.synth_fits(dom, lambda p: 1.7, n=500)
        bp = boundary_psi_from_fits(fits, dom, n_knots=64)
        gfun = boundary_values_from_psi(bp)
        pts = dom.boundary_point(np.linspace(0, 2 * np.pi, 50, endpoint=False))
        assert gfun(pts) == pytest.approx(np.ones(50), abs=1e-9)

    def test_quadratic_psi_on_circle_gives_unit_g(self):
        # psi = -|x|^2/2 is constant on the unit circle
        dom = self.circle()
        fits = self.synth_fits(dom, lambda p: -0.5 * float(p @ p), n=500)
        bp = boundary_psi_from_fits(fits, dom, n_knots=64)
        gfun = boundary_values_from_psi(bp)
        pts = dom.boundary_point(np.linspace(0, 2 * np.pi, 50, endpoint=False))
        assert gfun(pts) == pytest.approx(np.ones(50), abs=1e-9)

    def test_gaussian_psi_pointwise(self):
        dom = self.circle()

        def psi_fn(p):
            p = np.asarray(p)
            return 0.4 * np.exp(-((p[..., 0] - 0.3) ** 2 + (p[..., 1] + 0.2) ** 2) / 0.5)

        fits = self.synth_fits(dom, lambda p: float(psi_fn(p)), n=4000, seed=1)
        bp = boundary_psi_from_fits(fits, dom, n_knots=256)
        gfun = boundary_values_from_psi(bp)
        s = np.linspace(0, 2 * np.pi, 200, endpoint=False)
        pts = dom.boundary_point(s)
        want = np.exp(psi_fn(pts) - psi_fn(dom.boundary_point(0.0)))
        assert np.abs(gfun(pts) - want).max() < 2e-4

    def test_sparse_coverage_rejected(self):
        dom = self.circle()
        rng = np.random.default_rng(3)
        xs, ys = [], []
        for _ in range(200):
            t1, t2 = rng.uniform(0.0, np.pi / 2, 2)  # only a quarter of the circle
            if abs(t1 - t2) < 0.05:
                continue
            xs.append(dom.boundary_point(t1))
            ys.append(dom.boundary_point(t2))
        fits = chord_fit_table(xs, ys, np.zeros(len(xs)), 1e-6)
        with pytest.raises(DataError, match="coverage"):
            boundary_psi_from_fits(fits, dom, n_knots=128)

    @pytest.mark.parametrize("chunk", [5, 8192])
    def test_missing_knots_are_those_no_term_touches(self, chunk, monkeypatch):
        # an endpoint between knots touches both, one on a knot (t = 0: the
        # points (1, 0) and (-1, 0)) that knot only
        monkeypatch.setattr(elliptic, "_CHORDS_PER_CHUNK", chunk)
        dom, n_knots = self.circle(), 64
        rng = np.random.default_rng(8)
        xs = [*dom.boundary_point(rng.uniform(0.0, 2 * np.pi, 12)), np.array([1.0, 0.0])]
        ys = [*dom.boundary_point(rng.uniform(0.0, 2 * np.pi, 12)), np.array([-1.0, 0.0])]
        touched = set()
        for p in (*xs, *ys):
            pos = float(dom.boundary_param(p)) / (2 * np.pi / n_knots)
            t = pos - np.floor(pos)
            touched |= {k % n_knots for k, coef in ((int(pos), 1.0 - t), (int(pos) + 1, t))
                        if coef != 0.0}
        assert [float(dom.boundary_param(p)) / (2 * np.pi / n_knots)
                for p in (xs[-1], ys[-1])] == [0.0, 32.0]
        fits = chord_fit_table(xs, ys, np.zeros(len(xs)), 1e-6)
        with pytest.raises(DataError, match=f"^{n_knots - len(touched)} of {n_knots} boundary"):
            boundary_psi_from_fits(fits, dom, n_knots=n_knots)

    def test_normal_matrix_is_exactly_symmetric(self, monkeypatch):
        # C + C^T is symmetric, and each band sum goes on both sides of the
        # diagonal; the regulariser and the mean pin keep it so
        dom = self.circle()
        fits = self.synth_fits(dom, lambda p: float(p[0] - 0.5 * p[1] ** 2), n=800)
        matrices = []
        solve = np.linalg.solve

        def keep(N, rhs):
            matrices.append(N.copy())
            return solve(N, rhs)

        monkeypatch.setattr(np.linalg, "solve", keep)
        boundary_psi_from_fits(fits, dom, n_knots=48)
        (N,) = matrices
        assert N.tobytes() == N.T.copy().tobytes()

    def test_parameter_L_folds_onto_knot_zero(self):
        # (1, -1e-17) is at angle -1e-17, whose parameter rounds up to 2 pi:
        # the same equation as at (1, 0), whose parameter is 0
        dom = self.circle()
        assert dom.boundary_param(np.array([1.0, -1e-17])) == 2 * np.pi
        fits = self.synth_fits(dom, lambda p: float(p[0] * p[1]), n=600, seed=5)
        knots = []
        for y in ([1.0, -1e-17], [1.0, 0.0]):
            ys = fits.chords.y.copy()
            ys[:3] = y
            moved = dataclasses.replace(fits, chords=ChordTable(fits.chords.x, ys))
            bp = boundary_psi_from_fits(moved, dom, n_knots=32)
            knots.append(bp.knot_values)
        assert knots[0].tobytes() == knots[1].tobytes()

    @pytest.mark.parametrize("kind", ["disc", "rectangle"])
    def test_value_at_matches_folded_parameter(self, kind):
        # boundary_param lies in [0, L] and np.interp reads s = L on the
        # closing knot: the same bits as folding s with np.mod first
        if kind == "disc":
            dom = self.circle()
            extra = np.array([[1.0, -1e-17], [1.0, 0.0]])  # s = L and s = 0
        else:
            dom = RectangleDomain(Grid.from_extent(-1.3, -1.0, 1.3, 1.0, 33, 25), -1.0, -0.7, 1.0, 0.7)
            extra = np.array([[-1.0, -0.7], [1.0, 0.7]])  # s = 0 and a corner
        L = dom.param_length
        rng = np.random.default_rng(9)
        x, y = (dom.boundary_point(rng.uniform(0.0, L, 800)) for _ in range(2))
        fits = chord_fit_table(x, y, np.sin(y[:, 0]) - np.sin(x[:, 0]) + y[:, 1] - x[:, 1], 1e-6)
        bp = boundary_psi_from_fits(fits, dom, n_knots=64)
        points = np.concatenate([dom.boundary_point(rng.uniform(0.0, L, 500)),
                                 dom.project_to_boundary(rng.uniform(-1.5, 1.5, (500, 2))), extra])
        s = dom.boundary_param(points)
        assert s.min() == 0.0 and (kind == "rectangle" or s.max() == L)
        want = np.interp(np.mod(s, L), np.append(bp.knot_params, L),
                         np.append(bp.knot_values, bp.knot_values[0]))
        assert bp.value_at(points).tobytes() == want.tobytes()

    def test_coverage_checked_before_large_arrays(self, monkeypatch):
        """Above `_KNOTS_COVERED_FIRST` knots the coverage pass runs before
        the n_knots^2 arrays exist (4096 knots: 134 MB each); below it, the
        one pass gives the same error."""
        dom = self.circle()
        rng = np.random.default_rng(3)
        t1, t2 = rng.uniform(0.0, np.pi / 2, (2, 300))  # only a quarter of the circle
        fits = chord_fit_table(dom.boundary_point(t1), dom.boundary_point(t2),
                               np.zeros(300), 1e-6)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            with pytest.raises(DataError, match="coverage") as big:
                boundary_psi_from_fits(fits, dom, n_knots=4096)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        monkeypatch.setattr(elliptic, "_KNOTS_COVERED_FIRST", 10**6)
        with pytest.raises(DataError, match="coverage") as one_pass:
            boundary_psi_from_fits(fits, dom, n_knots=4096)
        assert str(one_pass.value) == str(big.value)

    def test_temporaries_do_not_grow_with_the_table(self):
        """360 x 361 chords of the unit disc (129,960 fits): ~2.3 MB of
        traced memory above the inputs, bounded by one chunk of chords; ~8.6
        MB when the endpoint parameters, weights and dpsi of the whole table
        were arrays."""
        g = Grid.from_extent(-1.15, -1.15, 1.15, 1.15, 65, 65)
        dom = DiscDomain(g, 0.0, 0.0, 1.0)
        chords, _ = make_parallel_chords(dom, 360, 361)
        n = len(chords)
        assert n > 125_000
        dpsi = np.sin(3.0 * chords.y[:, 0]) - np.sin(3.0 * chords.x[:, 0])
        fits = FitTable(chords, dpsi, np.zeros(n), np.zeros(n), np.full(n, 1e-3),
                        np.full(n, 1e-4), np.full(n, 4), np.ones(n, dtype=bool))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            bp = boundary_psi_from_fits(fits, dom, n_knots=256)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(bp.knot_values)) and peak <= 3e6

    def test_few_missing_knots_interpolated(self):
        dom = self.circle()
        rng = np.random.default_rng(4)
        xs, ys = [], []
        # leave a small angular gap uncovered (~3% of knots)
        for _ in range(3000):
            t1, t2 = rng.uniform(0.1, 2 * np.pi, 2)
            if abs(t1 - t2) < 0.05:
                continue
            xs.append(dom.boundary_point(t1))
            ys.append(dom.boundary_point(t2))
        fits = chord_fit_table(xs, ys, np.zeros(len(xs)), 1e-6)
        with pytest.warns(UserWarning, match="interpolated"):
            bp = boundary_psi_from_fits(fits, dom, n_knots=256)
        assert np.all(np.isfinite(bp.knot_values))
