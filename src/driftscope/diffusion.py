"""Forward machinery: bridge functionals, density representation and a
Feynman-Kac exit solver.

Monte Carlo reproducibility: all randomness comes from SFC64 streams, one
per (seed, block index) over fixed-size path blocks, and block results are
reduced in index order.  Outputs are therefore bit-identical across runs and
across worker counts.  The bridge functional maps its blocks over the worker
pool; the Feynman-Kac exit sampler steps all its blocks in lockstep in one
thread, each block drawing from its own stream, so it uses no workers at
all.  Once few of its paths are alive it draws their next steps ahead and
takes all those before the first exit at once; it scores the paths that
left the domain after the walk, one path block at a time.  Everything here
runs on numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import parallel
from .errors import DataError, SimulationError
from .fields import Domain, ScalarField, interp
from .kernels import DRIFTLESS

_MASK32 = (1 << 32) - 1

# The walk's tail.  Once at most _LOOKAHEAD_PATHS paths are alive, a step
# costs some 40 us of numpy call overhead whatever its size, and most of a
# run's steps are taken there (on fk-exit, 13,745 of 21,431 at one seed).
# The walk then draws up to `span` steps of the live paths at once and takes
# those before the first exit in one batch of numpy calls.  span doubles
# after a batch without an exit, up to _LOOKAHEAD_STEPS, and falls back to
# the batch's gap to its exit after one, so a batch holds at most 128 x 128
# points.  Above 128 paths an exit comes every one to three steps, and
# thresholds of 192 and 256 paths ran fk-exit slower.
_LOOKAHEAD_PATHS = 128
_LOOKAHEAD_STEPS = 128


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


def _draw_ahead(rng, queued: np.ndarray, shape) -> tuple[np.ndarray, np.ndarray]:
    """One block's next standard normals, in stream order: first those of
    `queued`, drawn before and not used, then fresh ones from rng.  Returns
    the array of `shape` and what is left of `queued`."""
    z = np.empty(shape)
    flat = z.reshape(-1)
    k = min(queued.size, flat.size)
    flat[:k] = queued[:k]
    rng.standard_normal(out=flat[k:])
    return z, queued[k:]


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

    Once at most _LOOKAHEAD_PATHS paths are alive, each block draws the
    normals of its live paths for up to `span` steps at once, as many as
    those steps would draw one by one.  Cumulative sums form the positions
    and, after one call of V on the steps before the first exit, the
    integrals, with the additions of the step loop in its order.  The exit
    step then runs as any other step, and the normals drawn for the steps
    after it go back to their block's queue, to be drawn first next time.
    So the lookahead computes the same normals, points, integrals and scores
    as the step loop, and never evaluates V at a point past an exit.
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
    queued = [np.empty(0)] * len(blocks)  # per block: normals drawn ahead, not yet used
    starts = [lo for lo, _ in blocks] + [n]  # block bi: paths starts[bi]:starts[bi + 1]
    # Two position buffers take turns: a step's normals are drawn into the
    # one not holding the positions and turned into the new positions in
    # place, so no (n, 2) array is allocated per step.
    buffers = np.empty((2, n, 2))
    held = 0  # the buffer holding pos
    pos = buffers[held]
    pos[:] = x
    alive = np.arange(n)  # live paths, ascending, so each block's are contiguous
    # each block that has live paths: its index and its live paths' span in alive
    draws = [(bi, lo, hi) for bi, (lo, hi) in enumerate(blocks)]
    integ = np.zeros(n)
    v_prev = _scalar_eval(V, pos)
    trapezoid = np.empty(n)
    # How each exited path left, by path id: its last point inside, its
    # first point outside, and the integral and V at the point inside.
    last_in, first_out = np.empty((n, 2)), np.empty((n, 2))
    integ_in, v_in = np.empty(n), np.empty(n)
    steps, span = 0, 1
    while steps < max_steps and alive.size:
        m = alive.size
        if m > _LOOKAHEAD_PATHS:
            new_pos = buffers[1 - held, :m]
            for bi, lo, hi in draws:
                streams[bi].standard_normal(out=new_pos[lo:hi])
            new_pos *= sq_h  # then + pos: the same bits as pos + sq_h * normal
            new_pos += pos
            inside = domain.contains(new_pos)
        else:
            k = min(span, max_steps - steps)
            walk = np.empty((k + 1, m, 2))  # walk[s]: the positions after s more steps
            walk[0] = pos
            drawn = []
            for bi, lo, hi in draws:
                z, queued[bi] = _draw_ahead(streams[bi], queued[bi], (k, hi - lo, 2))
                walk[1:, lo:hi] = z
                drawn.append(z)
            walk[1:] *= sq_h
            np.cumsum(walk, axis=0, out=walk)
            inside_ahead = domain.contains(walk[1:])
            clear = inside_ahead.all(axis=1)
            free = k if clear.all() else int(clear.argmin())  # the steps before the first exit
            if free:
                v_ahead = _scalar_eval(V, walk[1:free + 1].reshape(-1, 2)).reshape(free, m)
                sums = np.empty((free + 1, m))  # integ, then the trapezoid areas
                sums[0] = integ
                np.add(v_prev, v_ahead[0], out=sums[1])
                np.add(v_ahead[:-1], v_ahead[1:], out=sums[2:])
                sums[1:] *= half_h
                np.cumsum(sums, axis=0, out=sums)
                pos, integ, v_prev = walk[free], sums[free], v_ahead[free - 1]
                steps += free
            if free == k:
                span = min(2 * span, _LOOKAHEAD_STEPS)
                continue
            span = free + 1
            for (bi, _, _), z in zip(draws, drawn):
                queued[bi] = np.concatenate([z[free + 1:].reshape(-1), queued[bi]])
            new_pos, inside = walk[free + 1], inside_ahead[free]
        steps += 1
        if np.count_nonzero(inside) == m:
            pos, held = new_pos, 1 - held
        else:
            gone = (~inside).nonzero()[0]
            ids = alive[gone]
            last_in[ids], first_out[ids] = pos.take(gone, axis=0), new_pos.take(gone, axis=0)
            integ_in[ids], v_in[ids] = integ[gone], v_prev[gone]
            # before the compress below: V may return a view of its points
            alive, integ, v_prev = alive[inside], integ[inside], v_prev[inside]
            m = alive.size
            # the survivors' new positions overwrite the old ones
            pos = np.compress(inside, new_pos, axis=0, out=buffers[held, :m])
            cuts = np.searchsorted(alive, starts).tolist()
            draws = [(bi, lo, hi) for bi, (lo, hi) in enumerate(zip(cuts, cuts[1:])) if hi > lo]
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
