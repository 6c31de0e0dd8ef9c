"""Forward machinery: bridge functionals, density representation, a
Fokker-Planck solver, and a Feynman-Kac exit solver.

Monte Carlo reproducibility: all randomness comes from counter-based Philox
streams keyed by (seed, block index) over fixed-size path blocks, and block
results are reduced in index order.  Outputs are therefore bit-identical
across runs and across worker counts.  The bridge functional maps its blocks
over the worker pool; the Feynman-Kac exit sampler steps all its blocks in
lockstep in one thread, each block drawing from its own stream, so it uses
no workers at all; it scores the paths that left the domain after the walk,
one path block at a time.

scipy is imported on first use, only by the Fokker-Planck solver:
`scipy.sparse` by `_forward_operator` and `FokkerPlanckStepper`, and
`splu` by the stepper's first factorization.  The bridge functional and the
exit sampler run on numpy alone.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import parallel
from .errors import DataError, SimulationError, SolverError
from .fields import DiffusionField, Domain, Grid, ScalarField, VectorField, interp
from .kernels import Kernel

_MASK64 = (1 << 64) - 1


def substream(seed: int, index: int) -> np.random.Generator:
    """Independent generator for one path block: Philox keyed by (seed, index)."""
    key = np.array([seed & _MASK64, index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class McConfig:
    n_paths: int
    n_steps: int
    seed: int = 0

    def __post_init__(self):
        if self.n_paths < 1 or self.n_steps < 1:
            raise DataError("n_paths and n_steps must be at least 1")


@dataclass(frozen=True)
class McEstimate:
    value: float
    stderr: float
    n_paths: int
    n_capped: int = 0


def _mean_stderr(samples: np.ndarray) -> tuple[float, float]:
    """Sample mean and standard error; exactly zero spread for bit-identical
    samples (np.std would report one-ulp noise from the mean subtraction).
    """
    if len(samples) > 1 and np.ptp(samples) == 0.0:
        return float(samples[0]), 0.0
    value = float(samples.mean())
    stderr = float(samples.std(ddof=1) / np.sqrt(len(samples))) if len(samples) > 1 else 0.0
    return value, stderr


def _scalar_eval(V, pts):
    if isinstance(V, ScalarField):
        # zero extension outside the grid: the potential enters all path
        # functionals only through its restriction to the bounded region
        return interp(V, pts, mode="zero")
    return np.asarray(V(pts), dtype=float)


def _bridge_block(x, y, t, n_steps, seed, block_index, block_size) -> np.ndarray:
    """Brownian bridges for one path block, shape (block_size, n_steps+1, 2).

    Sequential conditional-Gaussian construction; endpoints exact.
    """
    rng = substream(seed, block_index)
    xi = rng.standard_normal((block_size, n_steps, 2))
    times = np.linspace(0.0, t, n_steps + 1)
    states = np.empty((block_size, n_steps + 1, 2))
    states[:, 0, :] = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    cur = states[:, 0, :].copy()
    for k in range(n_steps):
        remain = t - times[k]
        dt = times[k + 1] - times[k]
        frac = dt / remain
        var = dt * (remain - dt) / remain
        cur = cur + (yv - cur) * frac + np.sqrt(max(var, 0.0)) * xi[:, k, :]
        states[:, k + 1, :] = cur
    states[:, n_steps, :] = yv
    return states


def bridge_functional(V, x, y, t: float, cfg: McConfig) -> McEstimate:
    """Monte Carlo estimate of E[exp(-int_0^t V(bridge_s) ds)] over Brownian
    bridges pinned at (x, 0) and (y, t); trapezoid time integral.
    """
    if t <= 0:
        raise DataError("bridge horizon t must be positive")
    n_steps = cfg.n_steps
    times = np.linspace(0.0, t, n_steps + 1)
    dt = np.diff(times)
    w = np.zeros(n_steps + 1)
    w[:-1] += 0.5 * dt
    w[1:] += 0.5 * dt

    blocks = parallel.block_ranges(cfg.n_paths, parallel.MC_BLOCK)

    def run_block(args):
        bi, (lo, hi) = args
        states = _bridge_block(x, y, t, n_steps, cfg.seed, bi, hi - lo)
        vals = _scalar_eval(V, states.reshape(-1, 2)).reshape(hi - lo, n_steps + 1)
        # ufunc reduction, not BLAS: rows with identical integrands must give
        # bit-identical results (a constant potential has zero sample variance)
        expo = -(vals * w).sum(axis=1)
        if np.any(expo > 700.0):
            raise DataError(
                "exp overflow in bridge functional; use a smaller t or a potential bounded below"
            )
        return np.exp(expo)

    samples = np.concatenate(parallel.map_blocks(run_block, list(enumerate(blocks))))
    value, stderr = _mean_stderr(samples)
    return McEstimate(value, stderr, len(samples))


def density_via_representation(pb: Kernel, psi, V, x, y, t: float, cfg: McConfig) -> McEstimate:
    """Synthesize p(x, t, y) for drift a*grad(psi) on top of the reference
    kernel pb:  pb(x,t,y) * exp(psi(y) - psi(x)) * E[exp(-int V)] over bridges.
    """
    pb_val = float(pb.density(x, t, y))
    if isinstance(psi, ScalarField):
        dpsi = float(interp(psi, np.asarray(y, dtype=float)) - interp(psi, np.asarray(x, dtype=float)))
    else:
        dpsi = float(psi(np.asarray(y, dtype=float)) - psi(np.asarray(x, dtype=float)))
    bridge = bridge_functional(V, x, y, t, cfg)
    scale = pb_val * np.exp(dpsi)
    return McEstimate(scale * bridge.value, scale * bridge.stderr, bridge.n_paths)


# ---------------------------------------------------------------------------
# Fokker-Planck forward solver (Crank-Nicolson on the divergence form)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FokkerPlanckResult:
    slices: list
    times: list
    mass_drift: list
    boundary_mass: list
    mollifier_sigma: float


def _forward_operator(c: VectorField, a: DiffusionField, grid: Grid) -> sp.csr_matrix:
    """Conservative discretization of p -> div( 1/2 grad.(a p) - c p ).

    Fluxes live at cell faces; boundary faces carry zero flux, so total mass
    is conserved to round-off.
    """
    import scipy.sparse as sp

    nx, ny = grid.nx, grid.ny
    dx, dy = grid.dx, grid.dy
    n = nx * ny

    def idx(i, j):
        return i * ny + j

    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []

    def add(r, c_, v):
        rows.append(r.ravel())
        cols.append(c_.ravel())
        vals.append(v.ravel())

    I, J = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    a11, a12, a22 = a.a11, a.a12, a.a22
    c1, c2 = c.values[..., 0], c.values[..., 1]

    # F^x at face (i+1/2, j), for i in [0, nx-2]:
    #   0.5 * ((a11 p)_{i+1} - (a11 p)_i)/dx            diffusive, normal part
    # + 0.25 * (dy(a12 p)_i + dy(a12 p)_{i+1})          diffusive, cross part
    # - 0.5 * ((c1 p)_i + (c1 p)_{i+1})                 advective
    # and (A p)_i += (F^x_{i+1/2} - F^x_{i-1/2}) / dx.
    # The cross part uses centered y-derivatives, one-sided at j-edges.
    def dy_coeffs(j):
        """(j_lo, j_hi, coeff) triplets for d/dy at column j."""
        if j == 0:
            return [(0, -1.0 / dy), (1, 1.0 / dy)]
        if j == ny - 1:
            return [(ny - 2, -1.0 / dy), (ny - 1, 1.0 / dy)]
        return [(j - 1, -0.5 / dy), (j + 1, 0.5 / dy)]

    def dx_coeffs(i):
        if i == 0:
            return [(0, -1.0 / dx), (1, 1.0 / dx)]
        if i == nx - 1:
            return [(nx - 2, -1.0 / dx), (nx - 1, 1.0 / dx)]
        return [(i - 1, -0.5 / dx), (i + 1, 0.5 / dx)]

    # x-direction faces
    iw, jw = np.meshgrid(np.arange(nx - 1), np.arange(ny), indexing="ij")
    rec_lo = idx(iw, jw)      # cell left of the face
    rec_hi = idx(iw + 1, jw)  # cell right of the face
    # each face contributes +F/dx to its left cell's row... sign: (Ap)_i gets
    # (F_{i+1/2} - F_{i-1/2})/dx, so face (i+1/2) adds +1/dx to row i and
    # -1/dx to row i+1.
    for sign, rec in ((1.0 / dx, rec_lo), (-1.0 / dx, rec_hi)):
        # normal diffusive part
        add(rec, rec_hi, sign * 0.5 * a11[iw + 1, jw] / dx)
        add(rec, rec_lo, -sign * 0.5 * a11[iw, jw] / dx)
        # advective part
        add(rec, rec_lo, -sign * 0.5 * c1[iw, jw])
        add(rec, rec_hi, -sign * 0.5 * c1[iw + 1, jw])
    if np.any(a12 != 0):
        for j in range(ny):
            for jj, cc in dy_coeffs(j):
                ii = np.arange(nx - 1)
                for di in (0, 1):
                    col = idx(ii + di, np.full(nx - 1, jj))
                    coef = 0.25 * cc * a12[ii + di, jj]
                    add(idx(ii, np.full(nx - 1, j)), col, coef / dx)
                    add(idx(ii + 1, np.full(nx - 1, j)), col, -coef / dx)

    # y-direction faces
    iw, jw = np.meshgrid(np.arange(nx), np.arange(ny - 1), indexing="ij")
    rec_lo = idx(iw, jw)
    rec_hi = idx(iw, jw + 1)
    for sign, rec in ((1.0 / dy, rec_lo), (-1.0 / dy, rec_hi)):
        add(rec, rec_hi, sign * 0.5 * a22[iw, jw + 1] / dy)
        add(rec, rec_lo, -sign * 0.5 * a22[iw, jw] / dy)
        add(rec, rec_lo, -sign * 0.5 * c2[iw, jw])
        add(rec, rec_hi, -sign * 0.5 * c2[iw, jw + 1])
    if np.any(a12 != 0):
        for i in range(nx):
            for ii, cc in dx_coeffs(i):
                jj = np.arange(ny - 1)
                for dj in (0, 1):
                    col = idx(np.full(ny - 1, ii), jj + dj)
                    coef = 0.25 * cc * a12[ii, jj + dj]
                    add(idx(np.full(ny - 1, i), jj), col, coef / dy)
                    add(idx(np.full(ny - 1, i), jj + 1), col, -coef / dy)

    A = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    )
    return A.tocsr()


class FokkerPlanckStepper:
    """Crank-Nicolson marcher for the forward equation; build once, then
    propagate from many initial points (the factorized time-step operators
    are cached and shared across runs).
    """

    def __init__(self, c: VectorField, a: DiffusionField, grid: Grid, dt: float):
        if dt <= 0:
            raise DataError("dt must be positive")
        import scipy.sparse as sp

        self.grid = grid
        self.dt = float(dt)
        self.A = _forward_operator(c, a, grid)
        self._eye = sp.identity(self.A.shape[0], format="csr")
        self._lu: dict[float, object] = {}
        self._rhs: dict[float, sp.csr_matrix] = {}
        rim = np.zeros(grid.shape, dtype=bool)
        rim[0, :] = rim[-1, :] = rim[:, 0] = rim[:, -1] = True
        self._rim = rim.ravel()

    def _ops(self, dt_loc: float):
        from scipy.sparse.linalg import splu

        key = round(dt_loc, 15)
        if key not in self._lu:
            self._lu[key] = splu((self._eye - 0.5 * dt_loc * self.A).tocsc())
            self._rhs[key] = (self._eye + 0.5 * dt_loc * self.A).tocsr()
        return self._lu[key], self._rhs[key]

    def propagate(self, x0, t_out) -> FokkerPlanckResult:
        grid = self.grid
        t_out = sorted(float(t) for t in t_out)
        if len(t_out) == 0 or t_out[0] <= 0:
            raise DataError("output times must be positive")
        x0 = np.asarray(x0, dtype=float)
        sigma = 2.0 * max(grid.dx, grid.dy)
        X, Y = grid.nodes()
        p = np.exp(-((X - x0[0]) ** 2 + (Y - x0[1]) ** 2) / (2 * sigma**2)).ravel()
        p /= p.sum() * grid.cell_area

        slices, drifts, bdry = [], [], []
        t_now = 0.0
        area = grid.cell_area
        for t_target in t_out:
            gap = t_target - t_now
            if gap <= 1e-14:
                raise DataError("output times must be strictly increasing")
            n_sub = max(1, int(np.ceil(gap / self.dt - 1e-12)))
            lu, M2 = self._ops(gap / n_sub)
            for _ in range(n_sub):
                p = lu.solve(M2 @ p)
                if not np.all(np.isfinite(p)):
                    raise SolverError(f"Fokker-Planck blow-up near t={t_now:.6g}")
            t_now = t_target
            mass = p.sum() * area
            neg = p.min()
            if neg < -1e-8 * max(p.max(), 1e-300) or abs(mass - 1.0) > 1e-3:
                raise SolverError(
                    f"Fokker-Planck instability at t={t_now:.6g}: mass={mass:.6g}, min={neg:.3g}"
                )
            q = np.clip(p, 0.0, None)
            bmass = float(q[self._rim].sum() * area)
            if bmass > 1e-6:
                warnings.warn(
                    f"boundary mass {bmass:.2e} at t={t_now:.6g} exceeds 1e-6; enlarge the grid",
                    stacklevel=2,
                )
            qmass = q.sum() * area
            slices.append(ScalarField(grid, (q / qmass).reshape(grid.shape)))
            drifts.append(float(mass - 1.0))
            bdry.append(bmass)

        return FokkerPlanckResult(slices, t_out, drifts, bdry, sigma)


def fokker_planck_forward(
    c: VectorField,
    a: DiffusionField,
    x0,
    t_out,
    grid: Grid,
    dt: float,
) -> FokkerPlanckResult:
    """March the forward (Fokker-Planck) equation from a mollified point mass.

    The point initial condition is replaced by a Gaussian of standard
    deviation 2h (h = max grid spacing).  Returns renormalized density slices
    at the requested times together with per-slice mass drift and
    boundary-mass diagnostics.
    """
    return FokkerPlanckStepper(c, a, grid, dt).propagate(x0, t_out)


# ---------------------------------------------------------------------------
# Feynman-Kac exit solver
# ---------------------------------------------------------------------------


def feynman_kac_exit(
    V,
    f,
    domain: Domain,
    x,
    cfg: McConfig,
    h: float,
    max_steps: int | None = None,
) -> McEstimate:
    """Estimate u(x) = E[exp(-int_0^tau V(w_s) ds) f(w_tau)] with w Brownian
    motion started at x and tau its first exit from the domain.

    Paths step with Euler increments of size h; the boundary crossing is
    located by linear interpolation of the exiting segment.  Paths running
    beyond max_steps are capped (counted; more than 1% is an error) and
    scored at their projection onto the boundary.

    All paths step in lockstep in one loop.  Path i belongs to block
    i // parallel.MC_BLOCK, and at each step every block draws the normals
    of its live paths, in index order, from its own stream
    substream(seed, block).  A path that exits keeps, by its index, the two
    ends of its exiting segment and its integral and V at the inside end;
    after the walk the exited paths are scored one block at a time, so the
    boundary crossing, V and f see at most MC_BLOCK points per call.  Each
    score depends only on its own path, so the estimate is the same, bit for
    bit, as stepping and scoring each block on its own, and no worker pool
    is used: the worker count does not matter.
    """
    x = np.asarray(x, dtype=float)
    if not bool(domain.contains(x[None, :])[0]):
        raise DataError("start point must lie inside the domain")
    if h <= 0:
        raise DataError("step size h must be positive")
    if max_steps is None:
        max_steps = max(1000, int(50.0 * domain.circumradius**2 / h))
    sq_h, half_h = np.sqrt(h), 0.5 * h
    n = cfg.n_paths

    blocks = parallel.block_ranges(n, parallel.MC_BLOCK)
    streams = [substream(cfg.seed, bi) for bi in range(len(blocks))]
    starts = [lo for lo, _ in blocks] + [n]  # block bi: paths starts[bi]:starts[bi + 1]
    # Two position buffers take turns: a step's normals are drawn into the
    # one not holding the positions and turned into the new positions in
    # place, so no (n, 2) array is allocated per step.
    buffers = np.empty((2, n, 2))
    held = 0  # the buffer holding pos
    pos = buffers[held]
    pos[:] = x
    alive = np.arange(n)  # live paths, ascending, so each block's are contiguous
    # each block that has live paths: its stream and its live paths' span in alive
    draws = [(rng, lo, hi) for rng, (lo, hi) in zip(streams, blocks)]
    integ = np.zeros(n)
    v_prev = _scalar_eval(V, pos)
    trapezoid = np.empty(n)
    # How each exited path left, by path id: its last point inside, its
    # first point outside, and the integral and V at the point inside.
    last_in, first_out = np.empty((n, 2)), np.empty((n, 2))
    integ_in, v_in = np.empty(n), np.empty(n)
    for _ in range(max_steps):
        m = alive.size
        if m == 0:
            break
        new_pos = buffers[1 - held, :m]
        for rng, lo, hi in draws:
            rng.standard_normal(out=new_pos[lo:hi])
        new_pos *= sq_h  # then + pos: the same bits as pos + sq_h * normal
        new_pos += pos
        inside = domain.contains(new_pos)
        if np.count_nonzero(inside) == m:
            pos, held = new_pos, 1 - held
        else:
            gone = np.flatnonzero(~inside)
            ids = alive[gone]
            last_in[ids], first_out[ids] = pos[gone], new_pos[gone]
            integ_in[ids], v_in[ids] = integ[gone], v_prev[gone]
            # before the compress below: V may return a view of its points
            alive, integ, v_prev = alive[inside], integ[inside], v_prev[inside]
            m = alive.size
            # the survivors' new positions overwrite the old ones
            pos = np.compress(inside, new_pos, axis=0, out=buffers[held, :m])
            cuts = np.searchsorted(alive, starts).tolist()
            draws = [(rng, lo, hi) for rng, lo, hi in zip(streams, cuts, cuts[1:]) if hi > lo]
        v_new = _scalar_eval(V, pos)
        area = np.add(v_prev, v_new, out=trapezoid[:m])
        area *= half_h
        integ += area
        v_prev = v_new
    n_capped = alive.size
    if n_capped > 0.01 * n:
        raise SimulationError(f"{n_capped} of {n} paths exceeded the {max_steps}-step cap")
    samples = np.empty(n)
    exited = np.ones(n, dtype=bool)
    exited[alive] = False
    for lo, hi in blocks:
        ids = lo + np.flatnonzero(exited[lo:hi])
        if ids.size == 0:
            continue
        cross, theta = domain.boundary_crossing(last_in[ids], first_out[ids])
        itotal = integ_in[ids] + 0.5 * theta * h * (v_in[ids] + _scalar_eval(V, cross))
        samples[ids] = np.exp(-itotal) * np.asarray(f(cross), dtype=float)
    if n_capped:
        samples[alive] = np.exp(-integ) * np.asarray(f(domain.project_to_boundary(pos)), dtype=float)
    value, stderr = _mean_stderr(samples)
    return McEstimate(value, stderr, n, n_capped)
