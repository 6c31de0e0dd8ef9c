"""Built-in self-verification: quick comparisons of each subsystem against an
independent oracle (closed forms, manufactured solutions, round trips).
Heavier, tolerance-pinned verification lives in the test suite.
"""

from __future__ import annotations

import tempfile
import warnings
from pathlib import Path

import numpy as np


def run_checks() -> list[tuple[str, bool, str]]:
    results: list[tuple[str, bool, str]] = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for fn in (
            _check_heat_kernel,
            _check_ou_product,
            _check_bridge_constant,
            _check_bridge_zero,
            _check_fit_affine,
            _check_fbp_roundtrip,
            _check_elliptic_convergence,
            _check_feynman_kac,
            _check_dgf_roundtrip,
        ):
            try:
                results.append(fn())
            except Exception as exc:  # a crashed check is a failed check
                results.append((fn.__name__.replace("_check_", ""), False, f"raised {exc!r}"))
    return results


def _check_heat_kernel():
    from .kernels import DRIFTLESS

    got = DRIFTLESS.density(np.array([0.3, -0.1]), 1.0, np.array([0.3, -0.1]))
    want = 1.0 / (2.0 * np.pi)
    ok = abs(got - want) < 1e-14
    return ("heat kernel at zero separation", ok, f"{got:.12f} vs {want:.12f}")


def _check_ou_product():
    from .kernels import OrnsteinUhlenbeckKernel, ProductKernel

    k = ProductKernel(1.3, 1.3)
    x = np.array([0.4, -0.7])
    y = np.array([-0.2, 0.5])
    got = float(k.density(x, 0.37, y))
    want = float(OrnsteinUhlenbeckKernel(1.3).density(x, 0.37, y))
    ok = abs(got - want) <= 1e-12 * want
    return ("product of 1-D OU kernels equals planar OU", ok, f"rel diff {abs(got - want) / want:.2e}")


def _check_bridge_constant():
    from .diffusion import McConfig, bridge_functional

    kappa, t = 0.9, 0.25
    est = bridge_functional(lambda p: np.full(p.shape[:-1], kappa),
                            np.array([0.0, 0.0]), np.array([1.0, -1.0]), t,
                            McConfig(512, 24, seed=11))
    want = float(np.exp(-kappa * t))
    ok = abs(est.value - want) <= 1e-12 * want and est.stderr == 0.0
    return ("constant-potential bridge identity", ok,
            f"value {est.value:.12f}, stderr {est.stderr:.1e}")


def _check_bridge_zero():
    from .diffusion import McConfig, density_via_representation
    from .kernels import DRIFTLESS

    x = np.array([0.2, 0.1])
    y = np.array([-0.4, 0.6])
    est = density_via_representation(lambda p: np.zeros(p.shape[:-1]),
                                     lambda p: np.zeros(p.shape[:-1]),
                                     x, y, 0.15, McConfig(256, 16, seed=5))
    want = float(DRIFTLESS.density(x, 0.15, y))
    ok = est.value == want
    return ("zero-drift representation returns the reference", ok,
            f"{float(est.value)!r} vs {want!r}")


def _check_fit_affine():
    from .smalltime import fit_small_time

    t = np.array([0.02, 0.01, 0.005, 0.0025])
    fit = fit_small_time(t, 0.7 - 1.9 * t)
    ok = abs(fit.delta_psi - 0.7) < 1e-12 and abs(fit.F - 1.9) < 1e-10 and fit.residual < 1e-12
    return ("affine small-time fit is exact", ok,
            f"dpsi {fit.delta_psi:.12f}, F {fit.F:.12f}, residual {fit.residual:.1e}")


def _check_fbp_roundtrip():
    from .fields import DiscDomain, Grid
    from .xray import fbp_invert, radial_gaussian, sinogram_of_field

    grid = Grid.from_extent(-1.15, -1.15, 1.15, 1.15, 65, 65)
    dom = DiscDomain(grid, 0.0, 0.0, 1.0)
    V = radial_gaussian(grid, np.sqrt(0.04))
    sino = sinogram_of_field(V, dom, 96, 97, n_quad=200)
    rec = fbp_invert(sino, grid, "ram-lak", dom)
    inside = dom.contains(grid.node_points()).reshape(grid.shape)
    err = float(np.sqrt(np.sum((rec.values - V.values)[inside] ** 2)
                        / np.sum(V.values[inside] ** 2)))
    return ("filtered back-projection round trip", err <= 0.05, f"rel L2 {err:.2%}")


def _unit_disc_solve(n: int, boundary):
    """The unit disc on an n^2 grid over [-1.2, 1.2]^2, and the solution of
    1/2 lap u = u there with u = boundary on its edge."""
    from .elliptic import assemble_dirichlet_system, solve_bvp
    from .fields import DiffusionField, DiscDomain, Grid, ScalarField

    g = Grid.from_extent(-1.2, -1.2, 1.2, 1.2, n, n)
    dom = DiscDomain(g, 0.0, 0.0, 1.0)
    system = assemble_dirichlet_system(DiffusionField(), ScalarField(g, np.ones((n, n))), dom,
                                       boundary)
    return dom, solve_bvp(system, tol=1e-11)


def _check_elliptic_convergence():
    errs = []
    for n in (33, 65):
        dom, sol = _unit_disc_solve(n, lambda p: np.exp(p[:, 0] + p[:, 1]))
        X, Y = dom.grid.nodes()
        mask = dom.interior(dom.grid)
        errs.append(float(np.abs(sol.u.values[mask] - np.exp(X + Y)[mask]).max()))
    ratio = errs[0] / errs[1]
    return ("manufactured-solution convergence", 3.0 <= ratio <= 5.0, f"ratio {ratio:.2f}")


def _check_feynman_kac():
    from .diffusion import McConfig, feynman_kac_exit
    from .fields import interp

    dom, sol = _unit_disc_solve(65, lambda p: np.ones(len(p)))
    center_fd = float(interp(sol.u, np.array([0.0, 0.0])))
    h = 2e-3
    est = feynman_kac_exit(lambda p: np.ones(p.shape[:-1]), lambda p: np.ones(len(p)),
                           dom, np.array([0.0, 0.0]), McConfig(4000, 1, seed=9), h)
    band = 3.0 * est.stderr + 2.0 * np.sqrt(h)
    ok = abs(est.value - center_fd) <= band
    return ("exit-time sampler vs finite differences", ok,
            f"|{est.value:.4f} - {center_fd:.4f}| <= {band:.4f}")


def _check_dgf_roundtrip():
    from .diffusion import substream
    from .fields import Grid, ScalarField, read_dgf, write_dgf

    g = Grid.from_extent(-1.0, 0.5, 2.0, 3.5, 7, 9)
    f = ScalarField(g, substream(0, 0).standard_normal((7, 9)))
    with tempfile.TemporaryDirectory() as td:
        path = Path(td) / "f.dgf"
        write_dgf(path, f)
        f2 = read_dgf(path)
    ok = f2.grid == g and np.array_equal(f2.values, f.values)
    return ("DGF1 round trip", ok, "bit-identical" if ok else "mismatch")
