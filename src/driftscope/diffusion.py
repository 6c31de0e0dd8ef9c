"""Forward machinery: bridge functionals, density representation and a
Feynman-Kac exit solver.

Monte Carlo reproducibility: all randomness comes from SFC64 streams, one
per (seed, block index) over fixed-size path blocks, and block results are
reduced in index order.  Outputs are therefore bit-identical across runs and
across worker counts.  The bridge functional maps its blocks over the worker
pool; the Feynman-Kac exit sampler walks all its blocks in lockstep in one
thread, in windows of steps for which each block draws its live paths'
normals from its own stream in one call, so it uses no workers at all.  It
scores the paths that left the domain after the walk, one path block at a
time.  Everything here runs on numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import parallel
from .errors import DataError, SimulationError
from .fields import Domain, ScalarField, interp
from .kernels import DRIFTLESS

_MASK32 = (1 << 32) - 1

# The walk's windows: with m paths alive it takes k = clamp(_WINDOW_POINTS
# // m, 1, _WINDOW_STEPS) steps at once, so a window holds at most
# max(_WINDOW_POINTS, m) points, and each window takes one draw per block,
# one `contains` and one V call.  A numpy call costs some microseconds
# whatever its size, and most of a run's steps have few paths alive.
_WINDOW_POINTS = 16384
_WINDOW_STEPS = 128
# Prefix sums along a window's steps: one np.cumsum below this many live
# paths, a row of np.add calls, one per step, from it on.  Both add in the
# same order.  Along the step axis np.cumsum takes ~5 ns an element and a
# row add ~2.5 us a call, so with k = 16384 // m steps the two cost the same
# at some 300 paths.
_CUMSUM_PATHS = 256


def substream(seed: int, index: int) -> np.random.Generator:
    """Independent generator for one path block: SFC64 seeded by a
    SeedSequence keyed by (seed, index), each taken modulo 2^64.

    The key is the four 32-bit words of the pair, low word first.  A list
    [seed, index] would not do: SeedSequence splits each int into as many
    words as it needs and pads short entropy with zeros, so (2^32, 0) would
    draw the stream of (0, 1).

    SFC64 is the fastest of numpy's bit generators here: 26 M standard
    normals drawn in blocks of 8,192 take 0.29 s, against 0.34 s for
    PCG64DXSM, 0.35 s for PCG64, 0.41 s for Philox and 0.43 s for MT19937
    (minimum of five runs, one vCPU of an Intel Xeon VM).
    """
    key = [(k >> shift) & _MASK32 for k in (seed, index) for shift in (0, 32)]
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(key)))


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


def density_via_representation(psi, V, x, y, t: float, cfg: McConfig) -> McEstimate:
    """Synthesize p(x, t, y) for drift grad(psi) on top of p0 = `DRIFTLESS`,
    the OU kernel at theta = 0, whose bridges `bridge_functional` draws:
    p0(x,t,y) * exp(psi(y) - psi(x)) * E[exp(-int V)] over Brownian bridges.
    """
    p0 = float(DRIFTLESS.density(x, t, y))
    if isinstance(psi, ScalarField):
        dpsi = float(interp(psi, np.asarray(y, dtype=float)) - interp(psi, np.asarray(x, dtype=float)))
    else:
        dpsi = float(psi(np.asarray(y, dtype=float)) - psi(np.asarray(x, dtype=float)))
    bridge = bridge_functional(V, x, y, t, cfg)
    scale = p0 * np.exp(dpsi)
    return McEstimate(scale * bridge.value, scale * bridge.stderr, bridge.n_paths)


# ---------------------------------------------------------------------------
# Feynman-Kac exit solver
# ---------------------------------------------------------------------------


def _prefix_sum(rows: np.ndarray) -> None:
    """rows[s] += rows[s - 1] for s = 1, 2, ... in place: the additions of
    a step loop, in its order, whichever of the two forms runs."""
    if rows.shape[1] < _CUMSUM_PATHS:
        np.cumsum(rows, axis=0, out=rows)
    else:
        for s in range(1, len(rows)):
            np.add(rows[s - 1], rows[s], out=rows[s])


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

    All paths walk in lockstep, in windows of k steps: with m paths alive,
    k = clamp(_WINDOW_POINTS // m, 1, _WINDOW_STEPS), capped by the steps
    left.  Path i belongs to block i // parallel.MC_BLOCK, and at the start
    of a window every block draws the (k, m_b, 2) normals of its m_b live
    paths, step by step and in index order, from its own stream
    substream(seed, block).  Prefix sums along the steps form the positions
    and trapezoid integrals, with the additions of a step loop in its
    order.  A path's first point outside ends it: it keeps, by its index,
    the two ends of its exiting segment and its integral and V at the
    inside end, and stands at its last point inside for the rest of the
    window, so V sees no point outside the closed domain; the normals drawn
    for it after its exit go unused.  After the walk the exited paths are
    scored one block at a time, so the boundary crossing, V and f see at
    most MC_BLOCK points per call.  k depends on how many paths of all
    blocks are alive, so a block's draws depend on the others; no worker
    pool is used, and the worker count does not matter.
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
    alive = np.arange(n)  # live paths, ascending, so each block's are contiguous
    # each block that has live paths: its index and its live paths' span in alive
    draws = [(bi, lo, hi) for bi, (lo, hi) in enumerate(blocks)]
    # Buffers, reused for the whole walk: the live paths' positions, integrals
    # and V in alive's order, and a window's positions and integrals, of at
    # most max(_WINDOW_POINTS, n) points.  Fresh arrays for each window, of
    # sizes that change from window to window, fragment the heap: fk-exit's
    # peak RSS read ~1 MB higher with them.
    pos_buf, integ_buf, v_buf = np.empty((n, 2)), np.zeros(n), np.empty(n)
    walk_buf, sums_buf = np.empty(2 * max(_WINDOW_POINTS, n)), np.empty(max(_WINDOW_POINTS, n))
    pos, integ, v_prev = pos_buf, integ_buf, v_buf
    pos[:] = x
    v_prev[:] = _scalar_eval(V, pos)
    # How each exited path left, by path id: its last point inside, its
    # first point outside, and the integral and V at the point inside.
    last_in, first_out = np.empty((n, 2)), np.empty((n, 2))
    integ_in, v_in = np.empty(n), np.empty(n)
    steps = 0
    while steps < max_steps and alive.size:
        m = alive.size
        k = min(max(_WINDOW_POINTS // m, 1), _WINDOW_STEPS, max_steps - steps)
        steps += k
        walk = walk_buf[:2 * k * m].reshape(k, m, 2)  # walk[s]: the positions after s + 1 steps
        for bi, lo, hi in draws:
            np.multiply(streams[bi].standard_normal((k, hi - lo, 2)), sq_h, out=walk[:, lo:hi])
        np.add(pos, walk[0], out=walk[0])
        _prefix_sum(walk)
        inside = domain.contains(walk)
        stay = inside.all(axis=0)
        gone = (~stay).nonzero()[0]
        if gone.size:
            out = inside[:, gone].argmin(axis=0)  # each leaving path's first step outside
            first = out == 0  # the paths that leave on the window's first step
            ids = alive[gone]
            last_in[ids] = np.where(first[:, None], pos[gone], walk[out - 1, gone])
            first_out[ids] = walk[out, gone]
            # from its exit on a leaving path stands at its last point inside
            tail = walk[:, gone]
            np.copyto(tail, last_in[ids], where=(np.arange(k)[:, None] >= out)[..., None])
            walk[:, gone] = tail
        v = _scalar_eval(V, walk.reshape(-1, 2)).reshape(k, m)
        sums = sums_buf[:k * m].reshape(k, m)  # the trapezoid areas, then the integrals
        np.add(v_prev, v[0], out=sums[0])
        np.add(v[:-1], v[1:], out=sums[1:])
        sums *= half_h
        sums[0] += integ
        _prefix_sum(sums)
        if gone.size:
            integ_in[ids] = np.where(first, integ[gone], sums[out - 1, gone])
            v_in[ids] = np.where(first, v_prev[gone], v[out - 1, gone])
            keep = stay.nonzero()[0]
            alive, m = alive.take(keep), keep.size
            pos = walk[-1].take(keep, axis=0, out=pos_buf[:m])
            integ = sums[-1].take(keep, out=integ_buf[:m])
            v_prev = v[-1].take(keep, out=v_buf[:m])
            cuts = np.searchsorted(alive, starts).tolist()
            draws = [(bi, lo, hi) for bi, (lo, hi) in enumerate(zip(cuts, cuts[1:])) if hi > lo]
        else:
            pos[:], integ[:], v_prev[:] = walk[-1], sums[-1], v[-1]
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
