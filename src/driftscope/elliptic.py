"""Finite-difference Dirichlet solver for 1/2 a^{ij} u_{x_i x_j} + b^i u_{x_i} = V u
on a bounded domain, with curved boundaries handled by unequal-arm
(Shortley-Weller) stencils that place the boundary data at the exact
intersection of each stencil leg with the domain boundary.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import DataError, GeometryError, SolverError
from .fields import (
    DiffusionField,
    Domain,
    INTERIOR,
    ScalarField,
    VectorField,
)

_ARM_FLOOR = 1e-10


@dataclass(frozen=True)
class LinearSystem:
    matrix: sp.csr_matrix
    rhs: np.ndarray
    node_index: np.ndarray  # (nx, ny) -> unknown index or -1
    nodes: np.ndarray  # (n_unknowns, 2) int node coordinates
    grid: object
    peclet_max: float
    symmetric: bool
    diagnostics: dict = dc_field(default_factory=dict)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class BvpSolution:
    u: ScalarField
    interior_mask: np.ndarray
    residual_norm: float
    iterations: int
    min_u: float


def _second_coeffs(h_minus: float, h_plus: float):
    """Coefficients (c_minus, c_center, c_plus) for u'' with unequal arms."""
    return (
        2.0 / (h_minus * (h_minus + h_plus)),
        -2.0 / (h_minus * h_plus),
        2.0 / (h_plus * (h_minus + h_plus)),
    )


def _first_coeffs(h_minus: float, h_plus: float):
    """Second-order first derivative with unequal arms."""
    denom = h_minus * h_plus * (h_minus + h_plus)
    return (
        -h_plus * h_plus / denom,
        (h_plus * h_plus - h_minus * h_minus) / denom,
        h_minus * h_minus / denom,
    )


def _cross_weights(lams: np.ndarray, dx: float, dy: float) -> np.ndarray:
    """Weights for u_xy from four diagonal points scaled by lams in directions
    (+,+), (-,+), (-,-), (+,-).  Solves the 4x4 moment system: first-order
    terms vanish, pure second derivatives vanish, mixed term is 1.
    """
    sx = np.array([1.0, -1.0, -1.0, 1.0])
    sy = np.array([1.0, 1.0, -1.0, -1.0])
    A = np.stack(
        [
            lams * sx * dx,
            lams * sy * dy,
            lams * lams,
            lams * lams * sx * sy * dx * dy,
        ]
    )
    rhs = np.array([0.0, 0.0, 0.0, 1.0])
    try:
        return np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise GeometryError(f"degenerate diagonal stencil (arms {lams})") from exc


_AXIS_LEGS = {"E": (1, 0), "W": (-1, 0), "N": (0, 1), "S": (0, -1)}
_DIAGONAL_LEGS = ((1, 1), (-1, 1), (-1, -1), (1, -1))


def _leg_arms(domain: Domain, inside: np.ndarray, nodes: np.ndarray, legs) -> dict:
    """Arm fraction in (0, 1] and boundary point of each stencil leg (di, dj)
    in `legs` from each node (i, j) in `nodes` whose neighbour lies outside,
    keyed by (i, j, di, dj); a leg not listed has arm 1.  One
    boundary_crossing call finds every crossing."""
    grid = domain.grid
    keys, starts, ends = [], [], []
    for di, dj in legs:
        # the domain's closure lies strictly inside the grid, so every
        # neighbour of an inside node is a grid node
        outside = nodes[~inside[nodes[:, 0] + di, nodes[:, 1] + dj]]
        p = np.stack([grid.xs()[outside[:, 0]], grid.ys()[outside[:, 1]]], axis=-1)
        starts.append(p)
        ends.append(p + np.array([di * grid.dx, dj * grid.dy]))
        keys += [(i, j, di, dj) for i, j in outside.tolist()]
    if not keys:
        return {}
    bp, theta = domain.boundary_crossing(np.concatenate(starts), np.concatenate(ends))
    return dict(zip(keys, zip(np.maximum(theta, _ARM_FLOOR).tolist(), bp)))


def assemble_dirichlet_system(
    a: DiffusionField,
    b: VectorField,
    V: ScalarField,
    domain: Domain,
    g,
    nondegeneracy_check: bool = False,
) -> LinearSystem:
    """Assemble rows of (1/2 a^{ij} d_ij + b^i d_i - V) u = 0 over interior
    nodes; legs that cross the boundary put g at the exact crossing point and
    move its contribution to the right-hand side.
    """
    grid = domain.grid
    if a.grid != grid or b.grid != grid or V.grid != grid:
        raise DataError("fields must live on the domain's grid")
    dx, dy = grid.dx, grid.dy
    cls = domain.classify_nodes()
    inside = cls != 0
    nodes = np.argwhere(inside)
    n = len(nodes)
    if n == 0:
        raise DataError("domain contains no grid nodes")
    node_index = -np.ones(grid.shape, dtype=np.int64)
    node_index[inside] = np.arange(n)

    a11, a12, a22 = a.a11, a.a12, a.a22
    b1, b2 = b.values[..., 0], b.values[..., 1]
    has_cross = bool(np.any(a12 != 0.0))

    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    rhs = np.zeros(n)

    def add(r, c, v):
        rows.append(r)
        cols.append(c)
        vals.append(v)

    # regular interior nodes (full arms, full diagonals): vectorized stencil
    is_reg = cls == INTERIOR
    if has_cross:
        pad = np.zeros((grid.nx + 2, grid.ny + 2), dtype=bool)
        pad[1:-1, 1:-1] = inside
        diag_ok = (
            pad[2:, 2:] & pad[:-2, 2:] & pad[:-2, :-2] & pad[2:, :-2]
        )
        is_reg = is_reg & diag_ok
    ri, rj = np.nonzero(is_reg)
    if len(ri):
        k = node_index[ri, rj]
        cxx = a11[ri, rj] * 0.5
        cyy = a22[ri, rj] * 0.5
        be1 = b1[ri, rj]
        be2 = b2[ri, rj]
        center = -2.0 * cxx / dx**2 - 2.0 * cyy / dy**2 - V.values[ri, rj]
        entries = [
            (ri, rj, center),
            (ri + 1, rj, cxx / dx**2 + be1 / (2 * dx)),
            (ri - 1, rj, cxx / dx**2 - be1 / (2 * dx)),
            (ri, rj + 1, cyy / dy**2 + be2 / (2 * dy)),
            (ri, rj - 1, cyy / dy**2 - be2 / (2 * dy)),
        ]
        if has_cross:
            cxy = a12[ri, rj] / (4.0 * dx * dy)
            entries += [
                (ri + 1, rj + 1, cxy),
                (ri - 1, rj - 1, cxy),
                (ri + 1, rj - 1, -cxy),
                (ri - 1, rj + 1, -cxy),
            ]
        for ii, jj, vv in entries:
            rows.extend(k.tolist())
            cols.extend(node_index[ii, jj].tolist())
            vals.extend(vv if np.ndim(vv) else np.full(len(k), vv))

    # boundary-adjacent nodes (and, with a cross term, nodes with clipped
    # diagonals): per-node unequal-arm stencils
    special = np.argwhere(inside & ~is_reg)
    arms = _leg_arms(domain, inside, special, _AXIS_LEGS.values())
    if has_cross:
        arms.update(_leg_arms(domain, inside, special[a12[special[:, 0], special[:, 1]] != 0.0],
                              _DIAGONAL_LEGS))
    for i, j in special.tolist():
        k = int(node_index[i, j])
        legs = {}
        for name, (di, dj) in _AXIS_LEGS.items():
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
        cm, cc, cp = _second_coeffs(hw, he)
        fm, fc, fp = _first_coeffs(hw, he)
        axx = 0.5 * a11[i, j]
        put("W", axx * cm + b1[i, j] * fm)
        put("E", axx * cp + b1[i, j] * fp)
        center = axx * cc + b1[i, j] * fc
        cm, cc, cp = _second_coeffs(hs, hn)
        fm, fc, fp = _first_coeffs(hs, hn)
        ayy = 0.5 * a22[i, j]
        put("S", ayy * cm + b2[i, j] * fm)
        put("N", ayy * cp + b2[i, j] * fp)
        center += ayy * cc + b2[i, j] * fc
        add(k, k, center - V.values[i, j])

        if has_cross and a12[i, j] != 0.0:
            lams = np.ones(4)
            bps: list = [None] * 4
            targets: list = [None] * 4
            for m, (di, dj) in enumerate(_DIAGONAL_LEGS):
                lams[m], bps[m] = arms.get((i, j, di, dj), (1.0, None))
                targets[m] = (i + di, j + dj)
            wts = _cross_weights(lams, dx, dy)
            coef = a12[i, j]
            for m in range(4):
                if bps[m] is None:
                    add(k, int(node_index[targets[m]]), coef * wts[m])
                else:
                    rhs[k] -= coef * wts[m] * float(g(bps[m][None, :])[0])
            add(k, k, -coef * wts.sum())

    A = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    A.sum_duplicates()

    ii, jj = nodes[:, 0], nodes[:, 1]
    peclet = np.maximum(
        np.abs(b1[ii, jj]) * dx / np.maximum(0.5 * a11[ii, jj], 1e-300),
        np.abs(b2[ii, jj]) * dy / np.maximum(0.5 * a22[ii, jj], 1e-300),
    )
    peclet_max = float(peclet.max()) if len(peclet) else 0.0
    if peclet_max > 2.0:
        warnings.warn(
            f"cell Peclet number {peclet_max:.2f} exceeds 2; central differencing "
            "of the first-order term may oscillate",
            stacklevel=2,
        )

    diff = A - A.T
    symmetric = diff.nnz == 0 or float(abs(diff).max()) == 0.0

    diagnostics: dict = {"n_unknowns": n, "peclet_max": peclet_max}
    vmin = float(V.values[ii, jj].min())
    diagnostics["v_min"] = vmin
    if vmin < 0.0:
        warnings.warn(
            f"potential takes negative values (min {vmin:.3e}); uniqueness is "
            "not guaranteed a priori",
            stacklevel=2,
        )
        if nondegeneracy_check:
            diagnostics["ritz_nearest_zero"] = _nearest_eigenvalue(A)

    return LinearSystem(
        matrix=A,
        rhs=rhs,
        node_index=node_index,
        nodes=nodes,
        grid=grid,
        peclet_max=peclet_max,
        symmetric=symmetric,
        diagnostics=diagnostics,
    )


def _nearest_eigenvalue(A: sp.csr_matrix) -> float | None:
    """Magnitude of the symmetrized operator's eigenvalue nearest zero
    (shift-invert Lanczos); a practical nondegeneracy margin, or None when
    the estimate does not converge.
    """
    S = (A + A.T) * 0.5
    try:
        w = spla.eigsh(S.tocsc(), k=1, sigma=0.0, which="LM", return_eigenvectors=False)
        return float(abs(w[0]))
    except Exception:
        return None


def solve_bvp(system: LinearSystem, tol: float = 1e-10, max_iter: int = 20000) -> BvpSolution:
    """Krylov solve: conjugate gradients when the matrix is symmetric,
    BiCGStab otherwise, both with diagonal (Jacobi) preconditioning.
    """
    if tol <= 0:
        raise DataError("tol must be positive")
    A, rhs = system.matrix, system.rhs
    n = A.shape[0]
    diag = A.diagonal()
    if np.any(diag == 0.0):
        raise SolverError("zero diagonal entry; system is not Jacobi-preconditionable")
    M = spla.LinearOperator((n, n), matvec=lambda v: v / diag)
    count = {"it": 0}

    def cb(_):
        count["it"] += 1

    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        x = np.zeros(n)
        info = 0
    else:
        solver = spla.cg if system.symmetric else spla.bicgstab
        x, info = solver(A, rhs, rtol=tol, atol=0.0, maxiter=max_iter, M=M, callback=cb)
    if info < 0:
        raise SolverError(f"Krylov breakdown (info={info})")
    resid = float(np.linalg.norm(A @ x - rhs)) / max(rhs_norm, 1e-300)
    if info > 0 or resid > tol * 1.001:
        raise SolverError(
            f"no convergence in {max_iter} iterations (relative residual {resid:.3e})"
        )

    grid = system.grid
    u_vals = np.zeros(grid.shape)
    mask = system.node_index >= 0
    u_vals[mask] = x[system.node_index[mask]]
    min_u = float(x.min()) if n else 0.0
    if min_u <= 0.0:
        warnings.warn(
            f"solution minimum {min_u:.3e} is not positive; its logarithm is undefined there",
            stacklevel=2,
        )
    return BvpSolution(
        u=ScalarField(grid, u_vals),
        interior_mask=mask,
        residual_norm=resid,
        iterations=count["it"],
        min_u=min_u,
    )


# ---------------------------------------------------------------------------
# Boundary values of the drift potential from chord fits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundaryPsi:
    """Periodic piecewise-linear boundary potential, gauged to a reference
    parameter where it vanishes."""

    domain: Domain
    knot_params: np.ndarray
    knot_values: np.ndarray
    gauge_param: float
    n_missing: int = 0

    def value_at_param(self, s) -> np.ndarray:
        L = self.domain.param_length
        s = np.mod(np.asarray(s, dtype=float), L)
        params = np.concatenate([self.knot_params, [L]])
        vals = np.concatenate([self.knot_values, [self.knot_values[0]]])
        return np.interp(s, params, vals)

    def value_at(self, points) -> np.ndarray:
        return self.value_at_param(self.domain.boundary_param(points))


# chords per np.add.at batch of boundary_psi_from_fits: bounds its memory
_CHORDS_PER_CHUNK = 8192


def boundary_psi_from_fits(
    chords,
    fits,
    domain: Domain,
    n_knots: int = 256,
    gauge_param: float = 0.0,
    max_missing_fraction: float = 0.05,
) -> BoundaryPsi:
    """Least-squares boundary potential from pairwise differences.

    chords (ChordTable) and fits (FitTable) are row-aligned tables.  Each ok
    fit contributes one equation psi(s_y) - psi(s_x) = dpsi in the knot
    values (piecewise-linear interpolation along the boundary parameter),
    weighted by the fit's precision.  The normal equations N = A^T W A are
    accumulated with np.add.at, chord by chord in the order of the table,
    so every entry sums in a fixed order.  Knots not touched by any chord
    are an error above max_missing_fraction, otherwise interpolated
    periodically with a warning.  The result is gauged to vanish at
    gauge_param.
    """
    L = domain.param_length
    knots = np.arange(n_knots) * (L / n_knots)
    N = np.zeros((n_knots, n_knots))
    rhs = np.zeros(n_knots)
    touched = np.zeros(n_knots, dtype=bool)

    ok = fits.ok
    n_used = int(ok.sum())
    if n_used == 0:
        raise DataError("no usable chord fits for the boundary potential")
    se = np.maximum(fits.se_delta_psi[ok], 1e-9)
    w = 1.0 / (se * se)
    dpsi = fits.delta_psi[ok]

    def interp_rows(points):
        pos = np.mod(domain.boundary_param(points), L) / (L / n_knots)
        k0 = np.floor(pos).astype(np.int64) % n_knots
        t = pos - np.floor(pos)
        return k0, (k0 + 1) % n_knots, 1.0 - t, t

    # per chord, the equation's four (knot, coefficient) terms: y's two
    # with +, then x's two with -
    ky0, ky1, cy0, cy1 = interp_rows(chords.y[ok])
    kx0, kx1, cx0, cx1 = interp_rows(chords.x[ok])
    idx = np.stack([ky0, ky1, kx0, kx1], axis=1)
    coef = np.stack([cy0, cy1, -cx0, -cx1], axis=1)
    touched[idx[coef != 0.0]] = True
    wc = w[:, None] * coef
    np.add.at(rhs, idx.ravel(), (wc * dpsi[:, None]).ravel())
    flat = N.reshape(-1)
    for lo in range(0, n_used, _CHORDS_PER_CHUNK):
        hi = min(lo + _CHORDS_PER_CHUNK, n_used)
        cells = idx[lo:hi, :, None] * n_knots + idx[lo:hi, None, :]
        np.add.at(flat, cells.ravel(), (wc[lo:hi, :, None] * coef[lo:hi, None, :]).ravel())

    n_missing = int((~touched).sum())
    if n_missing > max_missing_fraction * n_knots:
        raise DataError(
            f"{n_missing} of {n_knots} boundary knots have no chord coverage "
            f"(more than {max_missing_fraction:.0%})"
        )

    # gentle periodic-difference regularization fixes the gauge direction and
    # any untouched knots without biasing covered ones
    scale = max(np.trace(N) / n_knots, 1.0)
    lam = 1e-9 * scale
    for k in range(n_knots):
        k2 = (k + 1) % n_knots
        N[k, k] += lam
        N[k2, k2] += lam
        N[k, k2] -= lam
        N[k2, k] -= lam
    # pin the mean to make N definite
    N += (1e-9 * scale / n_knots) * np.ones((n_knots, n_knots))

    psi = np.linalg.solve(N, rhs)
    if n_missing:
        warnings.warn(f"interpolated {n_missing} uncovered boundary knots", stacklevel=2)

    bp = BoundaryPsi(domain, knots, psi, gauge_param, n_missing)
    shift = float(bp.value_at_param(gauge_param))
    return BoundaryPsi(domain, knots, psi - shift, gauge_param, n_missing)


def boundary_values_from_psi(boundary_psi: BoundaryPsi, y0_param: float | None = None):
    """Dirichlet data g(x) = exp(psi(x) - psi(y0)) with the gauge psi(y0) = 0."""
    s0 = boundary_psi.gauge_param if y0_param is None else float(y0_param)
    shift = float(boundary_psi.value_at_param(s0))

    def g(points):
        return np.exp(boundary_psi.value_at(points) - shift)

    return g
