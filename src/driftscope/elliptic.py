"""Finite-difference Dirichlet solver for 1/2 a:D2 u = V u on a bounded
domain, and the boundary data it needs from chord fits.  This is the forward
equation 1/2 div(a grad(u)) = V u of u = exp(psi); a is one constant SPD
matrix, so div(a grad(u)) = a:D2 u and no first-order term appears.

Every node of `Domain.interior` is an unknown and gets the same
Shortley-Weller (1938) unequal-arm stencil, built for all nodes at once from
arrays of arm fractions.  A leg whose neighbour is an unknown has arm 1, and
there the stencil is the regular central one.  A leg that crosses the
boundary is cut at the exact crossing point, where the Dirichlet data are
placed.  A node inside the domain but within `fields._SLIVER` grid steps of
the boundary along an axis is a boundary node instead, the usual remedy for
an arm that rounding shrinks to nothing: a leg to it ends there, with arm 1
and the Dirichlet data taken at the node.

Every system is solved by BiCGStab, preconditioned by one
smoothed-aggregation multigrid V-cycle per application: the cut arms make
the rows next to a curved or off-grid boundary unequal, so the matrices the
pipeline builds are not symmetric.  The aggregates are 2x2 blocks of the
grid nodes, so the iteration count stays nearly flat as the grid is
refined.  The Krylov loop (`_bicgstab`) is plain numpy and repeats
`scipy.sparse.linalg.bicgstab` step for step, so it gives the same bits
without loading `scipy.sparse.linalg` and the LAPACK of `scipy.linalg` that
it imports.

scipy is imported on first use, not with this module: `scipy.sparse`, and
nothing else of scipy, by `assemble_dirichlet_system` and `_sa_hierarchy`.
Runs that never assemble a system (the exit sampler, the stages before
solve) do not load it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError, GeometryError, SolverError
from .fields import DiffusionField, Domain, ScalarField
from .smalltime import _CHORDS_PER_CHUNK

_ARM_FLOOR = 1e-10
_COARSEST_SIZE = 200  # unknowns at or below which the multigrid inverts densely
_SMOOTHER_WEIGHT = 2.0 / 3.0  # damped-Jacobi sweep weight in the V-cycle


@dataclass(frozen=True)
class LinearSystem:
    matrix: object  # scipy.sparse.csr_matrix, imported only where it is built
    rhs: np.ndarray
    node_index: np.ndarray  # (nx, ny) -> unknown index or -1
    grid: object

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    @property
    def symmetric(self) -> bool:
        # the benchmark's tracer (perfbench/tracing.py) reads it; the solver
        # takes one path whatever the matrix
        diff = self.matrix - self.matrix.T
        return diff.nnz == 0 or float(abs(diff).max()) == 0.0


@dataclass(frozen=True)
class BvpSolution:
    u: ScalarField
    residual_norm: float
    iterations: int
    min_u: float


def _second_coeffs(h_minus: np.ndarray, h_plus: np.ndarray):
    """Coefficients (c_minus, c_center, c_plus) for u'' with unequal arms."""
    return (
        2.0 / (h_minus * (h_minus + h_plus)),
        -2.0 / (h_minus * h_plus),
        2.0 / (h_plus * (h_minus + h_plus)),
    )


def _cross_weights(lams: np.ndarray, dx: float, dy: float) -> np.ndarray:
    """Weights (4, n) for u_xy at n nodes from their four diagonal points,
    scaled by lams (4, n) in directions (+,+), (-,+), (-,-), (+,-).  Solves
    each node's 4x4 moment system: first-order terms vanish, pure second
    derivatives vanish, mixed term is 1.
    """
    sx = np.array([1.0, -1.0, -1.0, 1.0])[:, None]
    sy = np.array([1.0, 1.0, -1.0, -1.0])[:, None]
    A = np.stack(
        [
            lams * sx * dx,
            lams * sy * dy,
            lams * lams,
            lams * lams * sx * sy * dx * dy,
        ]
    )
    try:
        return np.linalg.solve(A.transpose(2, 0, 1), np.array([0.0, 0.0, 0.0, 1.0])).T
    except np.linalg.LinAlgError as exc:
        raise GeometryError("degenerate diagonal stencil") from exc


# Stencil legs (di, dj): the axis legs W, E, S, N, then the diagonals of the
# cross term.  Each row subtracts its crossing legs' boundary terms from the
# right-hand side in this order.
_AXIS_LEGS = ((-1, 0), (1, 0), (0, -1), (0, 1))
_DIAGONAL_LEGS = ((1, 1), (-1, 1), (-1, -1), (1, -1))


def _leg_arms(domain: Domain, node_index: np.ndarray, nodes: np.ndarray, legs):
    """The stencil legs (di, dj) in `legs` from each node (i, j) in `nodes`:
    arrays (n_legs, n_nodes) of the neighbour's unknown index (-1 where it
    is not an unknown) and of the arm fraction in (0, 1], and the points
    (n_cut, 2) where the legs to non-unknowns end, leg by leg in the C order
    of those arrays.  A leg to a boundary node inside the domain ends at the
    node, with arm 1; one boundary_crossing call finds where the others
    cross the boundary."""
    grid = domain.grid
    steps = np.array(legs)[:, None, :]
    # the domain's closure lies strictly inside the grid, so every
    # neighbour of an inside node is a grid node
    ij = nodes + steps
    nbr = node_index[ij[..., 0], ij[..., 1]]
    cut = nbr < 0
    p = np.stack([grid.xs()[nodes[:, 0]], grid.ys()[nodes[:, 1]]], axis=-1)
    q = p + steps * np.array([grid.dx, grid.dy])
    bp, theta = q[cut], np.ones(cut.sum())
    cross = ~domain.contains(bp)
    bp[cross], theta[cross] = domain.boundary_crossing(np.broadcast_to(p, q.shape)[cut][cross],
                                                       bp[cross])
    arm = np.ones(cut.shape)
    arm[cut] = np.maximum(theta, _ARM_FLOOR)
    return nbr, arm, bp


def assemble_dirichlet_system(
    a: DiffusionField,
    V: ScalarField,
    domain: Domain,
    g,
) -> LinearSystem:
    """Assemble rows of (1/2 a:D2 - V) u = 0 over the domain's unknowns
    (`Domain.interior`), all through one unequal-arm stencil; a constant a
    has div(a grad(u)) = a:D2 u, so the rows hold no first-order term.

    Each axis second derivative uses `_second_coeffs` on the node's arms (at
    full arms, the regular central stencil); where a12 is nonzero, the
    cross term's four diagonal weights come from `_cross_weights`.  A leg that crosses the boundary
    ends at the crossing point, and one to a boundary node at the node; g
    (called once on all those points) gives the value there, and the leg's
    coef * g moves to the right-hand side (a g that is not finite there is a
    DataError).  Floating-point sums depend on their order, so the legs are
    subtracted in one fixed order, W, E, S, N, then the diagonals: that
    fixes how each row's right-hand side rounds.
    """
    import scipy.sparse as sp

    grid = domain.grid
    if V.grid != grid:
        raise DataError("fields must live on the domain's grid")
    dx, dy = grid.dx, grid.dy
    inside = domain.interior(grid)
    nodes = np.argwhere(inside)
    n = len(nodes)
    if n == 0:
        raise DataError("domain contains no grid nodes")
    node_index = -np.ones(grid.shape, dtype=np.int64)
    node_index[inside] = np.arange(n)
    V_in = V.values[inside]  # in the unknowns' order, as nodes
    has_cross = a.a12 != 0.0

    legs = _AXIS_LEGS + _DIAGONAL_LEGS if has_cross else _AXIS_LEGS
    nbr, arm, bp = _leg_arms(domain, node_index, nodes, legs)
    axx, ayy = 0.5 * a.a11, 0.5 * a.a22
    cm, cc, cp = _second_coeffs(arm[0] * dx, arm[1] * dx)
    coefs = [axx * cm, axx * cp]
    center = axx * cc
    cm, cc, cp = _second_coeffs(arm[2] * dy, arm[3] * dy)
    coefs += [ayy * cm, ayy * cp]
    center = center + ayy * cc - V_in
    if has_cross:
        wts = _cross_weights(arm[4:], dx, dy)
        coefs += list(a.a12 * wts)
        center = center - a.a12 * wts.sum(axis=0)
    coef = np.stack(coefs)

    # the unknowns are numbered in the C order of (i, j), so each row's
    # entries in column order are its legs sorted by (di, dj), with the
    # center at (0, 0): the CSR arrays are written in that order
    steps = legs + ((0, 0),)
    order = sorted(range(len(steps)), key=steps.__getitem__)
    entries = np.concatenate([coef, center[None]])[order].T
    columns = np.concatenate([nbr, np.arange(n)[None]])[order].T
    kept = columns >= 0
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(kept.sum(axis=1), out=indptr[1:])
    A = sp.csr_matrix((entries[kept], columns[kept].astype(np.int32), indptr), shape=(n, n))
    stay = nbr >= 0
    g_cut = np.zeros(nbr.shape)
    g_cut[~stay] = g(bp)
    if not np.all(np.isfinite(g_cut)):
        raise DataError("Dirichlet boundary values are not finite")
    rhs = np.zeros(n)
    # a leg that stays inside has g_cut 0 and leaves its row's rhs as it is
    for leg_coef, leg_g in zip(coef, g_cut):
        rhs -= leg_coef * leg_g

    vmin = float(V_in.min())
    if vmin < 0.0:
        warnings.warn(
            f"potential takes negative values (min {vmin:.3e}); uniqueness is "
            "not guaranteed a priori",
            stacklevel=2,
        )

    return LinearSystem(matrix=A, rhs=rhs, node_index=node_index, grid=grid)


def _sa_hierarchy(A, node_index: np.ndarray):
    """Smoothed-aggregation levels [(A, 1/diag A, P, R = P^T), ...] down to
    at most `_COARSEST_SIZE` unknowns, and the coarsest operator's dense
    inverse.

    Each aggregate is a 2x2 block of grid nodes, keyed (i//2, j//2); the keys
    are the next level's nodes.  The tentative 0/1 prolongator T is smoothed
    by one damped-Jacobi step, P = (I - omega D^-1 A) T with omega = 4/(3 rho)
    and rho the Gershgorin bound of D^-1 A, and the coarse operator is
    R A P (Vanek, Mandel & Brezina 1996).
    """
    import scipy.sparse as sp

    nodes = np.argwhere(node_index >= 0)  # unknown order
    levels = []
    while A.shape[0] > _COARSEST_SIZE:
        n = A.shape[0]
        dinv = 1.0 / A.diagonal()
        rho = float(np.max(np.abs(dinv) * (abs(A) @ np.ones(n))))
        width = int(nodes[:, 1].max()) // 2 + 1
        keys, agg = np.unique((nodes[:, 0] // 2) * width + nodes[:, 1] // 2, return_inverse=True)
        T = sp.csr_matrix((np.ones(n), (np.arange(n), agg)), shape=(n, len(keys)))
        P = T - sp.diags((4.0 / (3.0 * rho)) * dinv) @ (A @ T)
        R = P.T.tocsr()
        levels.append((A, dinv, P, R))
        A = R @ (A @ P)
        nodes = np.column_stack(np.divmod(keys, width))
    try:
        coarsest_inverse = np.linalg.inv(A.toarray())
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"coarsest multigrid level is singular ({exc})") from exc
    return levels, coarsest_inverse


def _v_cycle(levels, coarsest_inverse: np.ndarray, b: np.ndarray, depth: int = 0) -> np.ndarray:
    """One V-cycle from a zero guess: a damped-Jacobi pre-sweep, the coarse
    correction, and a damped-Jacobi post-sweep.  The same sweep on both sides
    and the restriction R = P^T keep the cycle symmetric when A is."""
    if depth == len(levels):
        return coarsest_inverse @ b
    A, dinv, P, R = levels[depth]
    x = _SMOOTHER_WEIGHT * dinv * b
    x += P @ _v_cycle(levels, coarsest_inverse, R @ (b - A @ x), depth + 1)
    x += _SMOOTHER_WEIGHT * dinv * (b - A @ x)
    return x


def _bicgstab(A, b: np.ndarray, psolve, tol: float, max_iter: int):
    """Preconditioned BiCGStab (van der Vorst 1992) for A x = b from x = 0,
    stopping once |r| < tol |b|.  Returns (x, info, iterations): info 0 on
    convergence, max_iter when the iterations run out, -10 (rho) or -11
    (omega, or rtilde . v = 0) on breakdown; iterations counts the full
    iterations done, so a half step that converges is not counted.  A
    non-finite iterate after a full iteration raises SolverError.

    The steps, products, in-place updates and breakdown tests are those of
    scipy 1.17's `scipy.sparse.linalg.bicgstab` with rtol=tol, atol=0, so x
    has its bits, and iterations is the number of times scipy calls its
    callback."""
    x = np.zeros_like(b)
    r = b.copy()
    atol = max(0.0, tol * float(np.linalg.norm(b)))
    tiny = np.finfo(b.dtype).eps ** 2
    rtilde = r.copy()
    for iteration in range(max_iter):
        if np.linalg.norm(r) < atol:
            return x, 0, iteration
        rho = np.dot(rtilde, r)
        if np.abs(rho) < tiny:
            return x, -10, iteration
        if iteration > 0:
            if np.abs(omega) < tiny:
                return x, -11, iteration
            beta = (rho / rho_prev) * (alpha / omega)
            p -= omega * v
            p *= beta
            p += r
        else:
            s = np.empty_like(r)
            p = r.copy()
        phat = psolve(p)
        v = A @ phat
        rv = np.dot(rtilde, v)
        if rv == 0:
            return x, -11, iteration
        alpha = rho / rv
        r -= alpha * v
        s[:] = r
        if np.linalg.norm(s) < atol:
            x += alpha * phat
            return x, 0, iteration
        shat = psolve(s)
        t = A @ shat
        omega = np.dot(t, s) / np.dot(t, t)
        x += alpha * phat
        x += omega * shat
        r -= omega * t
        rho_prev = rho
        if not np.all(np.isfinite(x)):
            raise SolverError(f"non-finite iterate at iteration {iteration + 1}")
    return x, max_iter, max_iter


def solve_bvp(system: LinearSystem, tol: float = 1e-10, max_iter: int = 20000) -> BvpSolution:
    """Krylov solve by BiCGStab (`_bicgstab`), preconditioned by one
    smoothed-aggregation multigrid V-cycle (`_sa_hierarchy`, `_v_cycle`).

    A singular coarsest level, a Krylov breakdown, a non-finite iterate or a
    residual above `tol` ends in `SolverError`.
    """
    if tol <= 0:
        raise DataError("tol must be positive")
    A, rhs = system.matrix, system.rhs
    n = A.shape[0]
    if np.any(A.diagonal() == 0.0):
        raise SolverError("zero diagonal entry; the Jacobi smoother needs a nonzero diagonal")
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        x, info, iterations = np.zeros(n), 0, 0
    else:
        levels, coarsest_inverse = _sa_hierarchy(A, system.node_index)
        x, info, iterations = _bicgstab(A, rhs, lambda v: _v_cycle(levels, coarsest_inverse, v),
                                        tol, max_iter)
    if info < 0:
        raise SolverError(f"Krylov breakdown (info={info})")
    resid = float(np.linalg.norm(A @ x - rhs)) / max(rhs_norm, 1e-300)
    if info > 0 or not resid <= tol * 1.001:
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
        residual_norm=resid,
        iterations=iterations,
        min_u=min_u,
    )


# ---------------------------------------------------------------------------
# Boundary values of the drift potential from chord fits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundaryPsi:
    """Periodic piecewise-linear boundary potential."""

    domain: Domain
    knot_params: np.ndarray
    knot_values: np.ndarray
    n_missing: int = 0

    def value_at_param(self, s) -> np.ndarray:
        L = self.domain.param_length
        s = np.mod(np.asarray(s, dtype=float), L)
        params = np.concatenate([self.knot_params, [L]])
        vals = np.concatenate([self.knot_values, [self.knot_values[0]]])
        return np.interp(s, params, vals)

    def value_at(self, points) -> np.ndarray:
        return self.value_at_param(self.domain.boundary_param(points))


# largest share of boundary knots with no chord that boundary_psi_from_fits
# fills in by interpolation rather than refusing
_MAX_MISSING_FRACTION = 0.05


def boundary_psi_from_fits(
    chords,
    fits,
    domain: Domain,
    n_knots: int = 256,
) -> BoundaryPsi:
    """Least-squares boundary potential from pairwise differences.

    chords (ChordTable) and fits (FitTable) are row-aligned tables.  Each ok
    fit contributes one equation psi(s_y) - psi(s_x) = dpsi in the knot
    values (piecewise-linear interpolation along the boundary parameter),
    weighted by the fit's precision w.  An endpoint in knot interval k at
    fraction t (u = 1 - t) has coefficient u at knot k and t at knot k + 1,
    signed + for y and - for x.

    The normal equations N psi = b are built from sums per knot interval
    rather than from the 16 products of each chord's row with itself:

    - the y-y and x-x blocks are three sums over the endpoints in each
      interval, S_uu = sum w*u*u, S_ut = sum w*u*t and S_tt = sum w*t*t,
      which go on N's diagonal (S_uu[k] + S_tt[k - 1]) and on both periodic
      off-diagonals (S_ut[k] at (k, k + 1) and (k + 1, k));
    - b is two more such sums, of w*u*(+-dpsi) and w*t*(+-dpsi), at k and
      k + 1;
    - the y-x block C is the one scatter: 4 terms (w*c_y)*c_x per chord, at
      (k_y + a, k_x + b), and N = bands - (C + C^T).

    N is exactly symmetric: C + C^T is, and the bands put one sum on both
    sides.  Each sum is accumulated with np.add.at, `_CHORDS_PER_CHUNK`
    chords at a time (so the temporaries do not grow with the table), chord
    by chord in the order of the table and, within a chord, y before x:
    that order fixes every sum's bits, whatever the chunk size.

    Knots not touched by any chord are an error above
    _MAX_MISSING_FRACTION, checked before the n_knots^2 arrays are
    allocated, otherwise interpolated periodically with a warning.  A
    parameter s = L folds onto knot 0 through k mod n_knots.  The result is
    gauged to vanish at knot 0.
    """
    L = domain.param_length
    knots = np.arange(n_knots) * (L / n_knots)
    ok = fits.ok
    n_used = int(ok.sum())
    if n_used == 0:
        raise DataError("no usable chord fits for the boundary potential")
    se = np.maximum(fits.se_delta_psi[ok], 1e-9)
    w = 1.0 / (se * se)
    dpsi = fits.delta_psi[ok]
    # each used chord's endpoints in knot units along the boundary: y, then x
    pos = np.stack([domain.boundary_param(p)[ok] / (L / n_knots) for p in (chords.y, chords.x)],
                   axis=1)

    def intervals(part):
        """Each endpoint's knot interval k, the next knot k + 1 and the
        fraction t of the interval, (m, 2) arrays with y's column first.
        The parameter lies in [0, L], so only s = L folds onto knot 0."""
        k0 = np.floor(pos[part])
        k = k0.astype(np.int64)
        k[k == n_knots] = 0
        nxt = k + 1
        nxt[nxt == n_knots] = 0
        return k, nxt, pos[part] - k0

    parts = [slice(lo, lo + _CHORDS_PER_CHUNK) for lo in range(0, n_used, _CHORDS_PER_CHUNK)]
    # coverage first: C and N are n_knots^2 floats.  An endpoint touches its
    # knot k, with coefficient u > 0, and k + 1 where t is not 0
    touched = np.zeros(n_knots, dtype=bool)
    for part in parts:
        k, nxt, t = intervals(part)
        touched[k] = True
        touched[nxt[t != 0.0]] = True
    n_missing = int((~touched).sum())
    if n_missing > _MAX_MISSING_FRACTION * n_knots:
        raise DataError(
            f"{n_missing} of {n_knots} boundary knots have no chord coverage "
            f"(more than {_MAX_MISSING_FRACTION:.0%})"
        )

    sums = np.zeros((5, n_knots))  # S_uu, S_ut, S_tt, and b's u and t parts
    C = np.zeros((n_knots, n_knots))
    for part in parts:
        k, nxt, t = intervals(part)
        m = len(t)
        u = 1.0 - t
        wp = np.repeat(w[part], 2).reshape(m, 2)
        wu, wt = wp * u, wp * t
        dp = np.repeat(dpsi[part], 2).reshape(m, 2)
        np.negative(dp[:, 1], out=dp[:, 1])  # x's coefficients are negative
        for row, value in zip(sums, (wu * u, wu * t, wt * t, wu * dp, wt * dp)):
            np.add.at(row, k.ravel(), value.ravel())
        # the y-x block: (w*c_y)*c_x at (k_y + a, k_x + b), in the C order of (a, b)
        cells, values = np.empty((m, 4), dtype=np.int64), np.empty((m, 4))
        ry, ry1 = k[:, 0] * n_knots, nxt[:, 0] * n_knots
        for j, (r, wc_y, c, c_x) in enumerate([(ry, wu, k, u), (ry, wu, nxt, t),
                                               (ry1, wt, k, u), (ry1, wt, nxt, t)]):
            np.add(r, c[:, 1], out=cells[:, j])
            np.multiply(wc_y[:, 0], c_x[:, 1], out=values[:, j])
        np.add.at(C.reshape(-1), cells.ravel(), values.ravel())
    N = C + C.T
    del C
    np.negative(N, out=N)
    s_uu, s_ut, s_tt, b_u, b_t = sums
    diag = np.arange(n_knots)
    nxt = (diag + 1) % n_knots
    # each S_ut on (k, k + 1) and then (k + 1, k), so both sides add alike
    band = np.concatenate([diag * (n_knots + 1),
                           np.stack([diag * n_knots + nxt, nxt * n_knots + diag], axis=1).ravel()])
    np.add.at(N.reshape(-1), band, np.concatenate([s_uu + np.roll(s_tt, 1), np.repeat(s_ut, 2)]))
    rhs = b_u + np.roll(b_t, 1)

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

    return BoundaryPsi(domain, knots, psi - psi[0], n_missing)


def boundary_values_from_psi(boundary_psi: BoundaryPsi):
    """Dirichlet data g(x) = exp(psi(x)) of a boundary potential psi."""

    def g(points):
        return np.exp(boundary_psi.value_at(points))

    return g
