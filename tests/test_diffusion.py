import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import driftscope
from driftscope import parallel
from driftscope.diffusion import (
    McConfig,
    bridge_functional,
    density_via_representation,
    feynman_kac_exit,
    _bridge_block,
)
from driftscope.errors import DataError, SimulationError
from driftscope.kernels import (
    DRIFTLESS,
    OrnsteinUhlenbeckKernel,
    ProductKernel,
    kernel_from_config,
)
from driftscope.fields import (
    DiffusionField,
    DiscDomain,
    Grid,
    ScalarField,
    sample_scalar,
)

ORIGIN = np.array([0.0, 0.0])
HEAT = DRIFTLESS
LOG_2PI = float(np.log(2.0 * np.pi))


class TestKernels:
    def test_gaussian_coincident(self):
        assert HEAT.density(ORIGIN, 1.0, ORIGIN) == pytest.approx(1 / (2 * np.pi), rel=1e-14)

    def test_gaussian_unit_sqdist(self):
        y = np.array([1.0, 1.0])  # |y|^2 = 2, t = 1
        assert HEAT.density(ORIGIN, 1.0, y) == pytest.approx(np.exp(-1) / (2 * np.pi), rel=1e-14)

    def test_gaussian_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x, y = rng.standard_normal(2), rng.standard_normal(2)
            t = rng.uniform(0.01, 2.0)
            assert HEAT.density(x, t, y) == HEAT.density(y, t, x)

    def test_gaussian_normalization(self):
        g = Grid.from_extent(-6, -6, 6, 6, 601, 601)
        X, Y = g.nodes()
        pts = np.stack([X, Y], axis=-1)
        vals = HEAT.density(ORIGIN, 0.5, pts)
        mass = np.trapezoid(np.trapezoid(vals, g.ys(), axis=1), g.xs())
        assert abs(mass - 1.0) < 1e-6

    def test_time_domain_error(self):
        with pytest.raises(DataError):
            HEAT.density(ORIGIN, 0.0, ORIGIN)
        with pytest.raises(DataError):
            OrnsteinUhlenbeckKernel(1.0).density(ORIGIN, -1.0, ORIGIN)
        with pytest.raises(DataError):
            ProductKernel(1.0, 0.0).density(ORIGIN, 0.0, ORIGIN)

    def test_zero_rate_is_driftless(self):
        assert OrnsteinUhlenbeckKernel(theta=0.0) == DRIFTLESS
        assert np.all(DRIFTLESS.drift(np.array([[0.5, -2.0], [3.0, 0.0]])) == 0.0)

    @pytest.mark.parametrize("make", [
        lambda bad: OrnsteinUhlenbeckKernel(bad),
        lambda bad: ProductKernel(bad, 0.0),
        lambda bad: ProductKernel(1.0, bad),
    ], ids=["ou", "product-theta1", "product-theta2"])
    @pytest.mark.parametrize("bad", [-1.0, -1e-300, -np.inf, np.nan])
    def test_negative_or_nan_rate_raises(self, make, bad):
        with pytest.raises(DataError, match="must not be negative"):
            make(bad)

    def test_driftless_is_the_brownian_heat_kernel_bit_for_bit(self):
        # the heat kernel's own expression, with d = y - x and variance t
        rng = np.random.default_rng(7)
        x, y = rng.standard_normal((50, 2)), rng.standard_normal((50, 2))
        for t in (0.37, 1e-4, rng.uniform(1e-3, 2.0, 50)):
            d2 = np.sum((y - x) ** 2, axis=-1)
            want = -0.5 * 2 * (LOG_2PI + np.log(t)) - d2 / (2.0 * t)
            assert np.array_equal(DRIFTLESS.log_density(x, t, y), want)

    @pytest.mark.parametrize("theta1, theta2", [(1.0, 0.5), (0.0, 1.3), (2.0, 0.0), (0.0, 0.0)])
    def test_product_is_the_per_axis_closed_form_bit_for_bit(self, theta1, theta2):
        rng = np.random.default_rng(3)
        x, y = rng.standard_normal((50, 2)), rng.standard_normal((50, 2))
        offset = (0.1, -0.2)
        kernel = ProductKernel(theta1, theta2, offset)

        def axis(theta, xi, t, yi):
            if theta == 0:  # 1-D Brownian motion: variance t
                return -0.5 * 1 * (LOG_2PI + np.log(t)) - (yi - xi) ** 2 / (2.0 * t)
            var = -np.expm1(-2.0 * theta * t) / (2.0 * theta)
            d2 = (yi - xi * np.exp(-theta * t)) ** 2
            return -0.5 * 1 * (LOG_2PI + np.log(var)) - d2 / (2.0 * var)

        for t in (0.25, rng.uniform(1e-3, 2.0, 50)):
            want = (axis(theta1, x[:, 0] + offset[0], t, y[:, 0] + offset[0])
                    + axis(theta2, x[:, 1] + offset[1], t, y[:, 1] + offset[1]))
            assert np.array_equal(kernel.log_density(x, t, y), want)

    def test_brownian_kind_is_driftless(self):
        assert kernel_from_config({"kind": "brownian"}) is DRIFTLESS

    def test_ou_closed_form_at_origin(self):
        sigma2 = (1 - np.exp(-2.0)) / 2
        assert OrnsteinUhlenbeckKernel(1.0).density(ORIGIN, 1.0, ORIGIN) == pytest.approx(
            1 / (2 * np.pi * sigma2), rel=1e-14
        )

    def test_ou_stationary_limit(self):
        x = np.array([3.0, -1.0])
        theta = 2.0
        got = OrnsteinUhlenbeckKernel(theta).density(x, 40.0, ORIGIN)
        stationary_peak = theta / np.pi  # N(0, 1/(2 theta) I) at the origin
        assert got == pytest.approx(stationary_peak, rel=1e-10)

    def test_ou_small_rate_matches_brownian(self):
        x, y = np.array([0.4, 0.1]), np.array([0.2, 0.6])
        for theta in (1e-4, 1e-6):
            ratio = OrnsteinUhlenbeckKernel(theta).density(x, 0.3, y) / HEAT.density(x, 0.3, y)
            assert abs(ratio - 1.0) < 50 * theta

    def test_ou_to_gaussian_uniform_on_compact(self):
        g = Grid.from_extent(-2, -2, 2, 2, 41, 41)
        X, Y = g.nodes()
        pts = np.stack([X, Y], axis=-1)
        x = np.array([0.5, -0.3])
        diff = np.abs(
            OrnsteinUhlenbeckKernel(1e-7).density(x, 0.4, pts) - HEAT.density(x, 0.4, pts)
        ).max()
        assert diff < 1e-5

    @pytest.mark.parametrize("spec", [
        {"kind": "brownian"},
        {"kind": "ou", "theta": 1.3},
        {"kind": "product_ou", "theta1": 1.0, "theta2": 0.5, "offset": [0.1, -0.2]},
    ], ids=lambda spec: spec["kind"])
    def test_drift_is_the_small_time_mean_displacement(self, spec):
        """drift(x) is the limit of (E[X_t | X_0 = x] - x) / t: the mean of
        the kernel's own density, by quadrature over x +- 10 sqrt(t), agrees
        with it to O(t) at t = 1e-3."""
        kernel, t = kernel_from_config(spec), 1e-3
        s = np.linspace(-10.0, 10.0, 401) * np.sqrt(t)
        for x in ([0.0, 0.0], [0.7, -0.4], [-0.9, 0.3]):
            x = np.array(x)
            y = np.stack(np.meshgrid(x[0] + s, x[1] + s, indexing="ij"), axis=-1)
            p = kernel.density(x, t, y)[..., None]
            mean = np.trapezoid(np.trapezoid(p * y, s, axis=1), s, axis=0)
            assert np.abs((mean - x) / t - kernel.drift(x)).max() <= 2 * t


class TestBrownianBridge:
    def test_single_step_is_endpoints(self):
        x, y = np.array([0.3, -0.2]), np.array([1.5, 2.0])
        states = _bridge_block(x, y, 0.7, 1, seed=0, block_index=0, block_size=3)
        assert np.array_equal(states, np.broadcast_to([x, y], states.shape))

    def test_endpoints_exact_many_steps(self):
        x, y = np.array([0.3, -0.2]), np.array([1.5, 2.0])
        states = _bridge_block(x, y, 0.7, 64, seed=4, block_index=0, block_size=3)
        assert np.array_equal(states[:, 0], np.broadcast_to(x, (3, 2)))
        assert np.array_equal(states[:, -1], np.broadcast_to(y, (3, 2)))

    def test_midpoint_mean_and_variance(self):
        x, y = np.array([-1.0, 0.5]), np.array([1.0, -0.5])
        t, n = 0.8, 4000
        states = _bridge_block(x, y, t, 2, seed=42, block_index=0, block_size=n)
        mid = states[:, 1, :]
        want_mean = (x + y) / 2
        sig = np.sqrt(t / 4)
        for axis in range(2):
            assert abs(mid[:, axis].mean() - want_mean[axis]) < 4 * sig / np.sqrt(n)
            var_se = (t / 4) * np.sqrt(2.0 / n)
            assert abs(mid[:, axis].var() - t / 4) < 4 * var_se


class TestBridgeFunctional:
    def test_zero_potential_is_one(self):
        est = bridge_functional(lambda p: np.zeros(p.shape[:-1]), ORIGIN,
                                np.array([1.0, 1.0]), 0.5, McConfig(300, 16, seed=1))
        assert est.value == 1.0
        assert est.stderr == 0.0

    def test_constant_potential_identity(self):
        kappa, t = 1.7, 0.35
        est = bridge_functional(lambda p: np.full(p.shape[:-1], kappa), ORIGIN,
                                np.array([0.5, -0.5]), t, McConfig(1000, 40, seed=2))
        assert est.value == pytest.approx(np.exp(-kappa * t), rel=1e-12)
        assert est.stderr == 0.0

    def test_small_time_chord_quadrature(self):
        # at small t the bridge hugs the straight chord, so the functional
        # approaches exp(-t * avg of V along the chord)
        x, y = np.array([-1.0, 0.0]), np.array([1.0, 0.0])
        t = 0.005

        def V(p):
            return np.exp(-np.sum(np.asarray(p) ** 2, axis=-1) / 0.32)

        est = bridge_functional(V, x, y, t, McConfig(20000, 64, seed=3))
        chord_avg, _ = quad(lambda s: float(V(x + s * (y - x))), 0.0, 1.0, limit=200)
        want = np.exp(-t * chord_avg)
        assert abs(est.value - want) <= 3 * est.stderr + 1e-4

    def test_monotone_in_potential_with_common_seed(self):
        x, y = np.array([-0.5, 0.2]), np.array([0.6, -0.1])
        cfg = McConfig(500, 32, seed=9)

        def v1(p):
            return np.exp(-np.sum(np.asarray(p) ** 2, axis=-1))

        def v2(p):
            return v1(p) + 0.3

        e1 = bridge_functional(v1, x, y, 0.4, cfg)
        e2 = bridge_functional(v2, x, y, 0.4, cfg)
        assert e1.value >= e2.value

    def test_overflow_guard(self):
        with pytest.raises(DataError, match="bounded below"):
            bridge_functional(lambda p: np.full(p.shape[:-1], -1e5), ORIGIN,
                              np.array([1.0, 0.0]), 0.5, McConfig(100, 8, seed=0))

    def test_seed_reproducibility_across_workers(self):
        x, y = np.array([-0.5, 0.2]), np.array([0.6, -0.1])

        def V(p):
            return np.sum(np.asarray(p) ** 2, axis=-1)

        cfg = McConfig(3 * parallel.MC_BLOCK + 17, 16, seed=77)
        parallel.set_workers(1)
        e1 = bridge_functional(V, x, y, 0.3, cfg)
        parallel.set_workers(4)
        e2 = bridge_functional(V, x, y, 0.3, cfg)
        parallel.set_workers(None)
        assert e1.value == e2.value and e1.stderr == e2.stderr


class TestDensityRepresentation:
    def test_zero_drift_bit_exact(self):
        x, y = np.array([0.3, 0.1]), np.array([-0.2, 0.8])
        est = density_via_representation(lambda p: np.zeros(p.shape[:-1]),
                                         lambda p: np.zeros(p.shape[:-1]),
                                         x, y, 0.2, McConfig(100, 8, seed=5))
        assert est.value == float(DRIFTLESS.density(x, 0.2, y))

    def test_matches_ou_kernel(self):
        rng = np.random.default_rng(11)
        cfg = McConfig(10000, 64, seed=13)
        for _ in range(3):
            x = rng.uniform(-1, 1, 2)
            y = rng.uniform(-1, 1, 2)
            t = rng.choice([0.05, 0.1, 0.2])
            est = density_via_representation(
                lambda p: -0.5 * np.sum(np.asarray(p) ** 2, axis=-1),
                lambda p: 0.5 * (np.sum(np.asarray(p) ** 2, axis=-1) - 2.0),
                x, y, t, cfg,
            )
            want = float(OrnsteinUhlenbeckKernel(1.0).density(x, t, y))
            assert abs(est.value - want) <= 3 * est.stderr

    def test_log_ratio_converges_to_dpsi(self):
        # log(p_c / p_0) approaches psi(y) - psi(x) as t -> 0
        x, y = np.array([0.8, 0.0]), np.array([0.0, 0.6])
        dpsi = 0.5 * (x @ x - y @ y)
        errs = []
        for t in (0.2, 0.05, 0.0125):
            est = density_via_representation(
                lambda p: -0.5 * np.sum(np.asarray(p) ** 2, axis=-1),
                lambda p: 0.5 * (np.sum(np.asarray(p) ** 2, axis=-1) - 2.0),
                x, y, t, McConfig(8000, 48, seed=21),
            )
            errs.append(abs(np.log(est.value / float(DRIFTLESS.density(x, t, y))) - dpsi))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 0.015


class TestFeynmanKac:
    def domain(self, n=33):
        g = Grid.from_extent(-1.2, -1.2, 1.2, 1.2, n, n)
        return DiscDomain(g, 0.0, 0.0, 1.0)

    def test_no_potential_unit_boundary(self):
        dom = self.domain()
        est = feynman_kac_exit(lambda p: np.zeros(p.shape[:-1]), lambda p: np.ones(len(p)),
                               dom, ORIGIN, McConfig(500, 1, seed=3), h=1e-3)
        assert est.value == 1.0
        assert est.stderr == 0.0

    def test_harmonic_boundary_function(self):
        # u(x) = x1^2 - x2^2 is harmonic: the exit average reproduces it
        dom = self.domain()
        h = 5e-4

        def f(p):
            p = np.asarray(p)
            return p[..., 0] ** 2 - p[..., 1] ** 2

        for x in (np.array([0.3, 0.0]), np.array([-0.2, 0.4])):
            est = feynman_kac_exit(lambda p: np.zeros(p.shape[:-1]), f, dom, x,
                                   McConfig(20000, 1, seed=8), h=h)
            assert abs(est.value - f(x)) <= 3 * est.stderr + 1.5 * np.sqrt(h)

    def test_constant_potential_vs_fd(self):
        from driftscope.elliptic import assemble_dirichlet_system, solve_bvp
        from driftscope.fields import interp

        n = 65
        g = Grid.from_extent(-1.2, -1.2, 1.2, 1.2, n, n)
        dom = DiscDomain(g, 0.0, 0.0, 1.0)
        V = ScalarField(g, np.ones((n, n)))
        system = assemble_dirichlet_system(DiffusionField(), V, dom, lambda p: np.ones(len(p)))
        sol = solve_bvp(system, tol=1e-11)
        center = float(interp(sol.u, ORIGIN))
        h = 1e-3
        est = feynman_kac_exit(lambda p: np.ones(p.shape[:-1]), lambda p: np.ones(len(p)),
                               dom, ORIGIN, McConfig(20000, 1, seed=17), h=h)
        assert abs(est.value - center) <= 3 * est.stderr + 1.0 * np.sqrt(h)

    def test_start_outside_rejected(self):
        dom = self.domain()
        with pytest.raises(DataError, match="inside"):
            feynman_kac_exit(lambda p: np.zeros(p.shape[:-1]), lambda p: np.ones(len(p)),
                             dom, np.array([1.5, 0.0]), McConfig(10, 1, seed=0), h=1e-3)

    def test_step_cap_error(self):
        dom = self.domain()
        with pytest.raises(SimulationError, match="cap"):
            feynman_kac_exit(lambda p: np.zeros(p.shape[:-1]), lambda p: np.ones(len(p)),
                             dom, ORIGIN, McConfig(200, 1, seed=1), h=1e-6, max_steps=50)

    def test_worker_count_invariance(self):
        dom = self.domain()
        cfg = McConfig(2 * parallel.MC_BLOCK + 5, 1, seed=23)
        parallel.set_workers(1)
        e1 = feynman_kac_exit(lambda p: np.ones(p.shape[:-1]), lambda p: np.ones(len(p)),
                              dom, ORIGIN, cfg, h=5e-3)
        parallel.set_workers(3)
        e2 = feynman_kac_exit(lambda p: np.ones(p.shape[:-1]), lambda p: np.ones(len(p)),
                              dom, ORIGIN, cfg, h=5e-3)
        parallel.set_workers(None)
        assert (e1.value, e1.stderr, e1.n_capped) == (e2.value, e2.stderr, e2.n_capped)

    def test_uses_no_worker_pool(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("feynman_kac_exit must not map blocks over workers")

        monkeypatch.setattr(parallel, "map_blocks", refuse)
        est = feynman_kac_exit(lambda p: np.zeros(p.shape[:-1]), lambda p: np.ones(len(p)),
                               self.domain(), ORIGIN, McConfig(parallel.MC_BLOCK + 7, 1, seed=2),
                               h=1e-2)
        assert est.value == 1.0 and est.n_paths == parallel.MC_BLOCK + 7

    def test_scores_exits_once_per_path_block(self, monkeypatch):
        dom = self.domain()
        rows = []
        crossing = type(dom).boundary_crossing

        def counting(self, p, q):
            rows.append(len(p))
            return crossing(self, p, q)

        monkeypatch.setattr(type(dom), "boundary_crossing", counting)
        n = 2 * parallel.MC_BLOCK + 5
        est = feynman_kac_exit(lambda p: np.zeros(p.shape[:-1]), lambda p: np.ones(len(p)),
                               dom, ORIGIN, McConfig(n, 1, seed=4), h=1e-2)
        assert len(rows) <= -(-n // parallel.MC_BLOCK)
        assert max(rows) <= parallel.MC_BLOCK and sum(rows) == n - est.n_capped

    def test_exit_sampler_runs_without_scipy(self):
        """The library path of the exit sampler never loads scipy; the first
        Dirichlet solve loads scipy.sparse but not the scipy linalg packages."""
        src = str(Path(driftscope.__file__).resolve().parent.parent)
        script = f"""
import sys
sys.path.insert(0, {src!r})
import numpy as np
import driftscope.diffusion, driftscope.kernels, driftscope.recover
from driftscope import diffusion, elliptic
from driftscope.fields import DiffusionField, DiscDomain, Grid, ScalarField
from driftscope.recover import config_from_dict

cfg = config_from_dict({{
    "domain": {{"kind": "rectangle", "corners": [[-1.0, -0.7], [1.0, 0.7]]}},
    "kernels": {{"observed": {{"kind": "ou", "theta": 1.0}}, "reference": {{"kind": "brownian"}}}},
}})
est = diffusion.feynman_kac_exit(lambda p: np.zeros(p.shape[:-1]), lambda p: np.ones(len(p)),
                                 cfg.resolved_domain(), np.array([0.5, 0.0]),
                                 diffusion.McConfig(500, 1, seed=1), h=5e-4)
assert est.value == 1.0 and est.n_paths == 500
print("scipy" in sys.modules)
g = Grid.from_extent(-1.2, -1.2, 1.2, 1.2, 9, 9)
system = elliptic.assemble_dirichlet_system(
    DiffusionField(), ScalarField(g, np.ones((9, 9))), DiscDomain(g, 0.0, 0.0, 1.0),
    lambda p: np.ones(len(p)))
elliptic.solve_bvp(system)
print("scipy" in sys.modules, "scipy.sparse" in sys.modules,
      "scipy.sparse.linalg" in sys.modules or "scipy.linalg" in sys.modules)
"""
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "True", "True", "False"]


def per_block_feynman_kac_exit(V, f, domain, x, cfg, h, max_steps=None):
    """Oracle: feynman_kac_exit as it stood when each path block ran its own
    loop and scored its exits one at a time (blocks run here in order)."""
    from driftscope.diffusion import McEstimate, _mean_stderr, _scalar_eval, substream

    x = np.asarray(x, dtype=float)
    if max_steps is None:
        max_steps = max(1000, int(50.0 * domain.circumradius**2 / h))
    sq_h = np.sqrt(h)

    def run_block(bi, lo, hi):
        m = hi - lo
        rng = substream(cfg.seed, bi)
        pos = np.tile(x, (m, 1))
        integ = np.zeros(m)
        v_prev = _scalar_eval(V, pos)
        out_vals = np.empty(m)
        alive_idx = np.arange(m)
        capped = 0
        for _ in range(max_steps):
            if alive_idx.size == 0:
                break
            step = sq_h * rng.standard_normal((alive_idx.size, 2))
            new_pos = pos + step
            inside = domain.contains(new_pos)
            for r in np.nonzero(~inside)[0]:
                cross, theta = domain.boundary_crossing(pos[r], new_pos[r])
                v_cross = float(_scalar_eval(V, cross[None, :])[0])
                itotal = integ[r] + 0.5 * theta * h * (v_prev[r] + v_cross)
                out_vals[alive_idx[r]] = np.exp(-itotal) * float(f(cross[None, :])[0])
            v_new = _scalar_eval(V, new_pos)
            integ = integ + 0.5 * h * (v_prev + v_new)
            keep = np.nonzero(inside)[0]
            alive_idx = alive_idx[keep]
            pos = new_pos[keep]
            integ = integ[keep]
            v_prev = v_new[keep]
        if alive_idx.size:
            capped = alive_idx.size
            proj = domain.project_to_boundary(pos)
            out_vals[alive_idx] = np.exp(-integ) * np.asarray(f(proj), dtype=float)
        return out_vals, capped

    results = [run_block(bi, lo, hi)
               for bi, (lo, hi) in enumerate(parallel.block_ranges(cfg.n_paths, parallel.MC_BLOCK))]
    samples = np.concatenate([r[0] for r in results])
    value, stderr = _mean_stderr(samples)
    return McEstimate(value, stderr, len(samples), sum(r[1] for r in results))


def _lockstep_case(name):
    """(V, f, domain, start, h, max_steps) for one lockstep-vs-oracle case."""
    from driftscope.fields import RectangleDomain

    g = Grid.from_extent(-1.2, -1.2, 1.2, 1.2, 33, 33)
    disc = DiscDomain(g, 0.1, 0.0, 1.0)
    rect = RectangleDomain(g, -1.0, -0.6, 0.9, 0.8)
    ramp = ScalarField(g, np.add.outer(np.linspace(0.0, 1.0, 33), np.linspace(0.5, 2.0, 33)))

    def harmonic(p):
        return p[..., 0] ** 2 - p[..., 1] ** 2

    return {
        "disc-zero-V": (lambda p: np.zeros(p.shape[:-1]), harmonic, disc, [0.5, 0.4], 2e-3, None),
        "rect-field-V": (ramp, harmonic, rect, [0.3, 0.2], 2e-3, None),
        "disc-callable-V": (lambda p: 1.0 + p[..., 0] ** 2, harmonic, disc, [-0.3, 0.5], 2e-3, None),
        "disc-capped": (ramp, harmonic, disc, [0.1, 0.0], 5e-3, 400),
        "rect-capped": (lambda p: 0.5 + p[..., 1], harmonic, rect, [-0.05, 0.1], 5e-3, 300),
        # many paths leave on the first step, with integral 0 and V of the start
        "rect-edge-start": (ramp, harmonic, rect, [0.899, 0.1], 5e-3, None),
        # V returns a view of the points it is given
        "disc-view-V": (lambda p: p[..., 1], harmonic, disc, [0.2, -0.3], 2e-3, None),
    }[name]


class TestFeynmanKacLockstep:
    """Lockstep stepping and batched scoring change no bit of the estimate."""

    @pytest.mark.parametrize("case", ["disc-zero-V", "rect-field-V", "disc-callable-V",
                                      "disc-capped", "rect-capped", "rect-edge-start",
                                      "disc-view-V"])
    def test_bit_equal_to_per_block_oracle(self, case):
        V, f, dom, x, h, max_steps = _lockstep_case(case)
        cfg = McConfig(2 * parallel.MC_BLOCK + 5, 1, seed=31)  # a short last block
        got = feynman_kac_exit(V, f, dom, np.array(x), cfg, h=h, max_steps=max_steps)
        want = per_block_feynman_kac_exit(V, f, dom, x, cfg, h, max_steps)
        assert (got.value, got.stderr, got.n_paths, got.n_capped) == (
            want.value, want.stderr, want.n_paths, want.n_capped)
        if max_steps is not None:  # capped paths, under the 1% cap
            assert 0 < got.n_capped <= 0.01 * cfg.n_paths


class TestPathAndConfig:
    def test_mc_config_validation(self):
        with pytest.raises(DataError):
            McConfig(0, 1)
        with pytest.raises(DataError):
            McConfig(1, 0)

