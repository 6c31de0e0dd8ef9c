import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

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
    substream,
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

    @pytest.mark.parametrize("theta", [1.0, 0.3, 7.5])
    def test_ou_is_the_closed_form_bit_for_bit(self, theta):
        # the OU kernel's own expression with numpy's sum over the point axis,
        # for a scalar time and for one time per point (decay[..., None])
        rng = np.random.default_rng(5)
        kernel = OrnsteinUhlenbeckKernel(theta)
        for shape in ((50, 2), (3, 40, 2)):
            x, y = rng.standard_normal(shape), rng.standard_normal(shape)
            for t in (0.37, 1e-4, rng.uniform(1e-3, 2.0, shape[:-1])):
                decay = np.exp(-theta * np.asarray(t))
                var = -np.expm1(-2.0 * theta * np.asarray(t)) / (2.0 * theta)
                d = y - x * (decay[..., None] if np.ndim(t) else decay)
                d2 = np.sum(d**2, axis=-1)
                want = -0.5 * 2 * (LOG_2PI + np.log(var)) - d2 / (2.0 * var)
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


class TestSubstream:
    """Every random draw comes from substream(seed, index): one SFC64 stream
    per (seed, index), each taken modulo 2^64.  The per-block oracle below
    draws from substream too, so this is the test that pins the generator."""

    @staticmethod
    def draw(seed, index):
        return substream(seed, index).standard_normal(64)

    def test_is_sfc64_keyed_by_the_four_words_of_the_pair(self):
        seed, index = 0x0123456789ABCDEF, 0xFEDCBA9876543210
        words = [0x89ABCDEF, 0x01234567, 0x76543210, 0xFEDCBA98]
        want = np.random.Generator(np.random.SFC64(np.random.SeedSequence(words)))
        assert isinstance(substream(seed, index).bit_generator, np.random.SFC64)
        assert np.array_equal(self.draw(seed, index), want.standard_normal(64))

    def test_same_key_same_stream(self):
        assert np.array_equal(self.draw(31, 2), self.draw(31, 2))

    @pytest.mark.parametrize("a, b", [
        ((1, 2), (2, 1)),
        ((31, 2), (31, 3)),
        ((31, 2), (32, 2)),
        ((0, 0), (0, 1)),
        # a list [seed, index] handed to SeedSequence would give these one stream
        ((1 << 32, 0), (0, 1)),
        ((5, 1 << 32), (5, 0)),
    ])
    def test_distinct_keys_distinct_streams(self, a, b):
        assert not np.array_equal(self.draw(*a), self.draw(*b))

    @pytest.mark.parametrize("seed", [(1 << 64) + 7, (5 << 64) + 7, 7 - (1 << 64)])
    def test_seed_taken_modulo_2_64(self, seed):
        assert np.array_equal(self.draw(seed, 3), self.draw(7, 3))
        assert np.array_equal(self.draw(3, seed), self.draw(3, 7))


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

    def test_no_call_of_V_sees_more_than_a_window(self):
        """A window holds at most max(_WINDOW_POINTS, live paths) points, so
        the walk's memory does not grow with the window's steps."""
        from driftscope.diffusion import _WINDOW_POINTS

        sizes = []

        def V(p):
            sizes.append(len(p))
            return np.zeros(p.shape[:-1])

        n = 20000
        est = feynman_kac_exit(V, lambda p: np.ones(len(p)), self.domain(), ORIGIN,
                               McConfig(n, 1, seed=6), h=2e-3)
        assert est.value == 1.0
        assert max(sizes) <= max(_WINDOW_POINTS, n)

    def test_near_edge_points_of_the_rectangle_benchmark(self):
        """The fk-exit benchmark's setting: four start points near the edges
        of the rectangle (-1, -0.7)-(1, 0.7) at h = 5e-4, where the exit-time
        bias is largest; each estimate of the harmonic f meets the bound."""
        from driftscope.fields import RectangleDomain

        g = Grid.from_extent(-1.2, -0.9, 1.2, 0.9, 33, 25)
        rect = RectangleDomain(g, -1.0, -0.7, 1.0, 0.7)
        h = 5e-4

        def f(p):
            return p[..., 0] ** 2 - p[..., 1] ** 2

        for i, x in enumerate([(0.93, 0.0), (-0.9, 0.45), (0.0, 0.63), (0.5, -0.62)]):
            x = np.array(x)
            est = feynman_kac_exit(lambda p: np.zeros(p.shape[:-1]), f, rect, x,
                                   McConfig(4000, 1, seed=40 + i), h=h)
            assert est.n_capped == 0
            assert abs(est.value - f(x)) <= 3 * est.stderr + 1.5 * np.sqrt(h)

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


def per_step_feynman_kac_exit(V, f, domain, x, cfg, h, max_steps=None):
    """Oracle: feynman_kac_exit's window draw layout taken one step at a
    time.  At the start of each window every block draws the (k, m_b, 2)
    normals of its live paths; the walk then takes them step by step and
    scores each exit on the spot with a one-row boundary crossing."""
    from driftscope.diffusion import (
        _WINDOW_POINTS, _WINDOW_STEPS, McEstimate, _mean_stderr, _scalar_eval,
    )

    x = np.asarray(x, dtype=float)
    n = cfg.n_paths
    if max_steps is None:
        max_steps = max(1000, int(50.0 * domain.circumradius**2 / h))
    sq_h = np.sqrt(h)
    blocks = parallel.block_ranges(n, parallel.MC_BLOCK)
    streams = [substream(cfg.seed, bi) for bi in range(len(blocks))]
    alive = np.arange(n)
    pos = np.tile(x, (n, 1))
    integ = np.zeros(n)
    v_prev = np.array(_scalar_eval(V, pos))  # V may return a view of pos
    samples = np.empty(n)
    steps = 0
    while steps < max_steps and alive.size:
        m = alive.size
        k = min(max(_WINDOW_POINTS // m, 1), _WINDOW_STEPS, max_steps - steps)
        z = np.empty((k, m, 2))
        for bi in range(len(blocks)):
            cols = np.flatnonzero(alive // parallel.MC_BLOCK == bi)
            if cols.size:
                z[:, cols] = streams[bi].standard_normal((k, cols.size, 2))
        live = np.ones(m, dtype=bool)  # not yet exited in this window
        for s in range(k):
            rows = np.flatnonzero(live)
            new_pos = pos[rows] + sq_h * z[s, rows]
            inside = domain.contains(new_pos)
            for r, q in zip(rows[~inside], new_pos[~inside]):
                cross, theta = domain.boundary_crossing(pos[r], q)
                v_cross = float(_scalar_eval(V, cross[None, :])[0])
                itotal = integ[r] + 0.5 * theta * h * (v_prev[r] + v_cross)
                samples[alive[r]] = np.exp(-itotal) * float(f(cross[None, :])[0])
            live[rows[~inside]] = False
            rows, new_pos = rows[inside], new_pos[inside]
            v_new = _scalar_eval(V, new_pos)
            integ[rows] = integ[rows] + 0.5 * h * (v_prev[rows] + v_new)
            pos[rows], v_prev[rows] = new_pos, v_new
        steps += k
        alive, pos, integ, v_prev = alive[live], pos[live], integ[live], v_prev[live]
    if alive.size:
        proj = domain.project_to_boundary(pos)
        samples[alive] = np.exp(-integ) * np.asarray(f(proj), dtype=float)
    value, stderr = _mean_stderr(samples)
    return McEstimate(value, stderr, n, alive.size)


class LockstepCase(NamedTuple):
    V: object
    f: object
    domain: object
    start: list
    h: float
    max_steps: int | None = None
    n_paths: int = 2 * parallel.MC_BLOCK + 5  # a short last block
    oracle_V: object = None  # the oracle's V, where the walk's refuses points outside


def _closed_domain_only(V, domain):
    """V, raising on any point outside the closed domain, to rounding: the
    walk may evaluate V at its start, at points inside and at the boundary
    crossings, and nowhere else."""
    grown = domain.shrunk(1.0 + 1e-12)

    def guarded(p):
        if not np.all(grown.contains(p)):
            raise AssertionError("V evaluated outside the closed domain")
        return V(p)
    return guarded


def _lockstep_case(name):
    """The LockstepCase of one lockstep-vs-oracle case."""
    from driftscope.diffusion import _CUMSUM_PATHS
    from driftscope.fields import RectangleDomain

    g = Grid.from_extent(-1.2, -1.2, 1.2, 1.2, 33, 33)
    disc = DiscDomain(g, 0.1, 0.0, 1.0)
    rect = RectangleDomain(g, -1.0, -0.6, 0.9, 0.8)
    ramp = ScalarField(g, np.add.outer(np.linspace(0.0, 1.0, 33), np.linspace(0.5, 2.0, 33)))

    def harmonic(p):
        return p[..., 0] ** 2 - p[..., 1] ** 2

    def tilt(p):
        return 0.5 + p[..., 1]

    return {
        "disc-zero-V": LockstepCase(lambda p: np.zeros(p.shape[:-1]), harmonic, disc, [0.5, 0.4],
                                    2e-3),
        "rect-field-V": LockstepCase(ramp, harmonic, rect, [0.3, 0.2], 2e-3),
        "disc-callable-V": LockstepCase(lambda p: 1.0 + p[..., 0] ** 2, harmonic, disc, [-0.3, 0.5],
                                        2e-3),
        "disc-capped": LockstepCase(ramp, harmonic, disc, [0.1, 0.0], 5e-3, 400),
        "rect-capped": LockstepCase(tilt, harmonic, rect, [-0.05, 0.1], 5e-3, 300),
        # many paths leave on the first step, with integral 0 and V of the start
        "rect-edge-start": LockstepCase(ramp, harmonic, rect, [0.899, 0.1], 5e-3),
        # V returns a view of the points it is given
        "disc-view-V": LockstepCase(lambda p: p[..., 1], harmonic, disc, [0.2, -0.3], 2e-3),
        # the live count falls through the row-add / np.cumsum switch
        "disc-cumsum-switch": LockstepCase(ramp, harmonic, disc, [0.2, 0.1], 2e-3,
                                           n_paths=2 * _CUMSUM_PATHS),
        # 15 paths run to the cap, which cuts a window of 128 steps to 25
        "disc-capped-in-batch": LockstepCase(tilt, harmonic, disc, [0.1, 0.0], 2e-3, 1250),
        # 128 paths walk in windows of 128 steps from the start; the cap cuts
        # the eleventh window to 20 steps, with one path alive
        "disc-window-cut": LockstepCase(tilt, harmonic, disc, [0.1, 0.0], 2e-3, 1300, n_paths=128),
        # V refuses points outside: the walk never evaluates it past an exit
        "rect-closed-V": LockstepCase(_closed_domain_only(tilt, rect), harmonic, rect, [0.3, 0.2],
                                      2e-3, oracle_V=tilt),
    }[name]


class TestFeynmanKacLockstep:
    """Windows of steps, prefix sums and batched scoring change no bit of
    the estimate."""

    @pytest.mark.parametrize("case", ["disc-zero-V", "rect-field-V", "disc-callable-V",
                                      "disc-capped", "rect-capped", "rect-edge-start",
                                      "disc-view-V", "disc-cumsum-switch",
                                      "disc-capped-in-batch", "disc-window-cut",
                                      "rect-closed-V"])
    def test_bit_equal_to_per_block_oracle(self, case):
        c = _lockstep_case(case)
        cfg = McConfig(c.n_paths, 1, seed=31)
        got = feynman_kac_exit(c.V, c.f, c.domain, np.array(c.start), cfg, h=c.h,
                               max_steps=c.max_steps)
        oracle_V = c.V if c.oracle_V is None else c.oracle_V
        want = per_step_feynman_kac_exit(oracle_V, c.f, c.domain, c.start, cfg, c.h, c.max_steps)
        assert (got.value, got.stderr, got.n_paths, got.n_capped) == (
            want.value, want.stderr, want.n_paths, want.n_capped)
        if c.max_steps is not None:  # capped paths, under the 1% cap
            assert 0 < got.n_capped <= 0.01 * cfg.n_paths

    def test_closed_domain_guard_refuses_points_outside(self):
        c = _lockstep_case("rect-closed-V")
        with pytest.raises(AssertionError, match="outside the closed domain"):
            c.V(np.array([[0.3, 0.2], [0.9 + 1e-9, 0.2]]))


class TestPathAndConfig:
    def test_mc_config_validation(self):
        with pytest.raises(DataError):
            McConfig(0, 1)
        with pytest.raises(DataError):
            McConfig(1, 0)



@pytest.mark.parametrize("bad", [0.0, -0.1, float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("sampler", ["bridge_functional", "density_via_representation",
                                     "feynman_kac_exit"])
def test_step_and_horizon_must_be_positive_and_finite(sampler, bad):
    """A step size or horizon that is not in (0, inf) is a DataError before
    any path is drawn: not a bare ValueError from the step count, a
    GeometryError from an infinite step or a NaN estimate."""
    g = Grid.from_extent(-1.2, -1.2, 1.2, 1.2, 17, 17)
    zero = lambda p: np.zeros(np.shape(p)[:-1])  # noqa: E731
    x, y, cfg = np.array([0.3, 0.1]), np.array([-0.2, 0.5]), McConfig(64, 8, seed=1)
    calls = {
        "bridge_functional": lambda: bridge_functional(zero, x, y, bad, cfg),
        "density_via_representation": lambda: density_via_representation(zero, zero, x, y, bad, cfg),
        "feynman_kac_exit": lambda: feynman_kac_exit(zero, zero, DiscDomain(g, 0.0, 0.0, 1.0),
                                                     x, cfg, bad),
    }
    with pytest.raises(DataError, match="positive and finite"):
        calls[sampler]()


def test_worker_count_ignores_the_environment(monkeypatch):
    # the count is the one set_workers set, else one per CPU: no environment
    # variable sets it
    monkeypatch.setattr(parallel, "_worker_override", None)
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 3)
    monkeypatch.setenv("DRIFTSCOPE_WORKERS", "7")
    assert parallel.worker_count() == 3
    parallel.set_workers(2)
    assert parallel.worker_count() == 2
