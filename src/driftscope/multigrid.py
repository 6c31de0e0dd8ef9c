"""Geometric multigrid for the Dirichlet systems of `elliptic`: the
preconditioner of its BiCGStab solve, one V-cycle per application
(Trottenberg, Oosterlee & Schüller, Multigrid, 2001, ch. 2 and 7).

The finest level is the system's matrix itself, as stencil arrays on the
box of grid nodes that holds the unknowns: a 5-point stencil, or 9-point
where a12 is nonzero.  Each coarser level is the grid of every other node,
with bilinear prolongation P, restriction R = P^T / 4 and the Galerkin
operator R A P, down to a level of at most `_COARSEST_SIZE` unknowns, which
is inverted densely.  The cycle smooths with two damped-Jacobi sweeps on
each side of the coarse correction.

`elliptic.solve_bvp` imports this module when it first solves, so runs that
never solve (the stages before solve, the exit sampler) do not compile it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverError

_COARSEST_SIZE = 200  # unknowns at or below which the multigrid inverts densely
_SMOOTHER_WEIGHT = 0.8  # damped-Jacobi sweep weight in the V-cycle
# the legs (di, dj) of a node's 3x3 neighbourhood, in C order: the legs a
# stencil on a multigrid level may have, (0, 0) the centre
_NEIGHBOURHOOD = tuple((di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1))
# bilinear prolongation's weight, per axis, of a fine node 0 or 1 fine step
# from a coarse one
_BILINEAR = (1.0, 0.5)


@dataclass(frozen=True, eq=False)
class Level:
    """One multigrid level: a stencil on a box of mx x my grid nodes, both
    odd.  Its vectors are flat arrays over the box padded by a ring of
    zeros, (mx + 2) x (my + 2) in C order, and are 0 off the unknowns; its
    rows off the unknowns are 0."""

    unknown: np.ndarray  # (mx, my) bool
    legs: tuple  # the stencil's legs (di, dj) from `_NEIGHBOURHOOD`, (0, 0) among them
    coefs: np.ndarray  # (len(legs), padded size): each row's coefficient on each leg
    sweep: np.ndarray  # padded: _SMOOTHER_WEIGHT / the diagonal on the unknowns, 0 elsewhere

    @property
    def shape(self) -> tuple[int, int]:
        return (self.unknown.shape[0] + 2, self.unknown.shape[1] + 2)


def _odd(mask: np.ndarray) -> np.ndarray:
    """mask with a row or column of False added past each side of even
    length, so that every other node of it ends on its last node."""
    out = np.zeros((mask.shape[0] | 1, mask.shape[1] | 1), dtype=bool)
    out[:mask.shape[0], :mask.shape[1]] = mask
    return out


def _level(unknown: np.ndarray, legs: tuple, coefs: np.ndarray) -> Level:
    """The level of the padded (len(legs), mx + 2, my + 2) coefficients; a
    zero diagonal entry on an unknown is a SolverError."""
    diag = coefs[legs.index((0, 0)), 1:-1, 1:-1]
    if np.any(diag[unknown] == 0.0):
        raise SolverError("zero diagonal entry; the Jacobi smoother needs a nonzero diagonal")
    sweep = np.zeros(coefs.shape[1:])
    np.divide(_SMOOTHER_WEIGHT, diag, out=sweep[1:-1, 1:-1], where=unknown)
    return Level(unknown, legs, coefs.reshape(len(legs), -1), sweep.reshape(-1))


def fine_level(A, node_index: np.ndarray):
    """The CSR matrix A (`elliptic.CsrMatrix`) of the unknowns node_index
    numbers as the finest level, on the box of grid nodes that holds them,
    and each unknown's position in the level's padded vectors.  The box
    starts on an even node, so the next level's nodes are the grid's even
    nodes.  An entry that couples a node to one outside its 3x3
    neighbourhood is a SolverError."""
    ii, jj = np.nonzero(node_index >= 0)
    i0, j0 = ii.min() & ~1, jj.min() & ~1
    unknown = _odd(node_index[i0:ii.max() + 1, j0:jj.max() + 1] >= 0)
    width = unknown.shape[1] + 2
    size = (unknown.shape[0] + 2) * width
    pos = np.empty(A.shape[0], dtype=np.int64)
    pos[node_index[ii, jj]] = (ii - i0 + 1) * width + (jj - j0 + 1)
    rows = np.repeat(pos, np.diff(A.indptr))
    # each entry's leg, read off its column's offset in a table of the
    # offsets -width - 2 .. width + 2, whose ends and gaps hold "no leg" (9)
    table = np.full(2 * width + 5, len(_NEIGHBOURHOOD))
    table[[di * width + dj + width + 2 for di, dj in _NEIGHBOURHOOD]] = range(9)
    leg = np.take(table, pos[A.indices] - rows + (width + 2), mode="clip")
    if np.any(leg == len(_NEIGHBOURHOOD)):
        raise SolverError("a matrix entry couples a node to one outside its 3x3 neighbourhood")
    present = np.bincount(leg, minlength=len(_NEIGHBOURHOOD)) > 0
    present[_NEIGHBOURHOOD.index((0, 0))] = True
    slot = np.cumsum(present) - 1
    coefs = np.zeros((int(present.sum()), size))
    coefs.reshape(-1)[slot[leg] * size + rows] = A.data
    legs = tuple(step for step, there in zip(_NEIGHBOURHOOD, present) if there)
    return _level(unknown, legs, coefs.reshape(len(legs), -1, width)), pos


def _coarse_level(fine: Level) -> Level:
    """The next level: every other node of the fine box, which ends on its
    last node (`_odd`).  Bilinear prolongation P, kept on the fine unknowns
    m, takes a coarse node K to the fine nodes 2K + a, a in the 3x3
    neighbourhood, with weight w(a) (`_BILINEAR`, per axis); the coarse
    unknowns are the nodes it takes to some fine unknown.  The stencil is
    the Galerkin operator R A P with R = P^T / 4.  It is formed from the
    fine stencil arrays, without a sparse product: with leg s of A and
    d = a + s,

        (R A P)[K, K + o] = 1/4 sum over a, s of w(a) A_s[2K + a] m[2K + d] w(d - 2o).

    The terms are first summed over the (a, s) with one d, and each such
    sum then adds to the 1, 2 or 4 legs o that d reaches."""
    mx, my = fine.unknown.shape
    nx, ny = (mx + 1) // 2, (my + 1) // 2

    def at(array, pad, di, dj):
        """array[2K + (di, dj)] over the coarse nodes K; pad is the
        array's margin around the box."""
        return array[pad + di:pad + di + 2 * nx - 1:2, pad + dj:pad + dj + 2 * ny - 1:2]

    sums = np.zeros((5, 5, nx, ny))  # by d + 2
    for (ai, aj) in _NEIGHBOURHOOD:
        wa = _BILINEAR[abs(ai)] * _BILINEAR[abs(aj)]
        for (si, sj), c in zip(fine.legs, fine.coefs.reshape(len(fine.legs), mx + 2, my + 2)):
            sums[ai + si + 2, aj + sj + 2] += wa * at(c, 1, ai, aj)
    m = np.zeros((mx + 4, my + 4))
    m[2:-2, 2:-2] = fine.unknown
    # the legs o that an offset d reaches along one axis, with w(d - 2o)
    reach = {d: [(o, _BILINEAR[abs(d - 2 * o)]) for o in (-1, 0, 1) if abs(d - 2 * o) <= 1]
             for d in range(-2, 3)}
    coefs = np.zeros((3, 3, (nx | 1) + 2, (ny | 1) + 2))
    for di in range(-2, 3):
        for dj in range(-2, 3):
            term = sums[di + 2, dj + 2]
            term *= at(m, 2, di, dj)
            for oi, wi in reach[di]:
                for oj, wj in reach[dj]:
                    coefs[oi + 1, oj + 1, 1:nx + 1, 1:ny + 1] += (0.25 * wi * wj) * term
    unknown = np.zeros((nx, ny), dtype=bool)
    for a in _NEIGHBOURHOOD:
        unknown |= at(m, 2, *a) > 0.0
    return _level(_odd(unknown), _NEIGHBOURHOOD, coefs.reshape(9, *coefs.shape[2:]))


def hierarchy(fine: Level):
    """The levels from `fine` down to one of at most `_COARSEST_SIZE`
    unknowns, and that level's dense inverse with its unknowns' padded
    positions."""
    levels = [fine]
    while np.count_nonzero(levels[-1].unknown) > _COARSEST_SIZE:
        levels.append(_coarse_level(levels[-1]))
    last = levels[-1]
    width = last.shape[1]
    ii, jj = np.nonzero(last.unknown)
    pos = (ii + 1) * width + jj + 1
    index = np.full(last.coefs.shape[1], -1)
    index[pos] = np.arange(len(pos))
    dense = np.zeros((len(pos), len(pos)))
    for (di, dj), c in zip(last.legs, last.coefs):
        col = index[pos + di * width + dj]
        row = np.flatnonzero(col >= 0)
        dense[row, col[row]] = c[pos[row]]
    try:
        inverse = np.linalg.inv(dense)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"coarsest multigrid level is singular ({exc})") from exc
    return levels, (inverse, pos)


def _residual(level: Level, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """b - A x for padded vectors of the level."""
    width = level.shape[1]
    lo, hi = width + 1, len(x) - width - 1
    r = b.copy()
    inner = r[lo:hi]
    term = np.empty_like(inner)
    for (di, dj), c in zip(level.legs, level.coefs):
        step = di * width + dj
        np.multiply(c[lo:hi], x[lo + step:hi + step], out=term)
        inner -= term
    return r


def product(level: Level, x: np.ndarray) -> np.ndarray:
    """A x: the residual for b = 0, negated (rounding is symmetric in sign)."""
    r = _residual(level, np.zeros_like(x), x)
    return np.negative(r, out=r)


def _restrict(fine: Level, coarse: Level, r: np.ndarray) -> np.ndarray:
    """R r = P^T r / 4 as a padded coarse vector, for a padded fine vector r
    that is 0 off the fine unknowns: each coarse node gathers its 3x3 fine
    neighbourhood with the bilinear weights, one axis at a time."""
    r = r.reshape(fine.shape)
    half = r[0:-1:2] + r[2::2]
    half *= 0.5
    half += r[1::2]
    full = half[:, 0:-1:2] + half[:, 2::2]
    full *= 0.5
    full += half[:, 1::2]
    out = np.zeros(coarse.shape)
    np.multiply(full, 0.25, out=out[1:full.shape[0] + 1, 1:full.shape[1] + 1])
    return out.reshape(-1)


def _prolong_add(fine: Level, coarse: Level, e: np.ndarray, x: np.ndarray) -> None:
    """x += P e for a padded coarse vector e: bilinear interpolation, one
    axis at a time, kept on the fine unknowns."""
    mx, my = fine.unknown.shape
    e = e.reshape(coarse.shape)[1:(mx + 3) // 2, 1:(my + 3) // 2]
    half = np.empty((mx, e.shape[1]))
    half[0::2] = e
    np.add(e[:-1], e[1:], out=half[1::2])
    half[1::2] *= 0.5
    full = np.empty((mx, my))
    full[:, 0::2] = half
    np.add(half[:, :-1], half[:, 1:], out=full[:, 1::2])
    full[:, 1::2] *= 0.5
    full *= fine.unknown
    x.reshape(fine.shape)[1:-1, 1:-1] += full


def v_cycle(levels: list, coarsest: tuple, b: np.ndarray, depth: int = 0) -> np.ndarray:
    """One V-cycle from a zero guess on padded vectors: two damped-Jacobi
    sweeps, the coarse correction, and two more sweeps.  The same sweeps on
    both sides, R = P^T / 4 and the Galerkin coarse operator keep the cycle
    symmetric when A is."""
    level = levels[depth]
    if depth == len(levels) - 1:
        inverse, pos = coarsest
        x = np.zeros_like(b)
        x[pos] = inverse @ b[pos]
        return x
    x = level.sweep * b
    x += level.sweep * _residual(level, b, x)
    coarse = levels[depth + 1]
    e = v_cycle(levels, coarsest, _restrict(level, coarse, _residual(level, b, x)), depth + 1)
    _prolong_add(level, coarse, e, x)
    for _ in range(2):
        x += level.sweep * _residual(level, b, x)
    return x
