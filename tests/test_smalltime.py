import numpy as np
import pytest
from scipy.integrate import quad

from driftscope.errors import DataError
from driftscope.fields import DiffusionField, DiscDomain, Grid, RectangleDomain, VectorField
from driftscope.kernels import BrownianKernel, OrnsteinUhlenbeckKernel, TabulatedKernel
from driftscope.smalltime import (
    BoundaryDataset,
    Chord,
    build_boundary_dataset,
    chord_offsets,
    fit_dataset,
    fit_small_time,
    log_ratio,
    make_parallel_chords,
    read_dataset_csv,
    read_fits_csv,
    write_dataset_csv,
    write_fits_csv,
)

# wide geometric ladder: the affine model's own O(t^2) error stays below the
# fitted standard errors (a ratio-2 ladder leaves the bias above them)
WIDE_LADDER = np.array([0.02, 0.005, 0.00125, 0.0003125])

OU = OrnsteinUhlenbeckKernel(1.0, dim=2)
BM = BrownianKernel(dim=2)


def ou_potential(p):
    p = np.asarray(p)
    return 0.5 * (np.sum(p**2, axis=-1) - 2.0)


def circle_point(angle):
    return np.array([np.cos(angle), np.sin(angle)])


def ou_logratio(x, y, times):
    return np.array([float(OU.log_density(x, t, y) - BM.log_density(x, t, y)) for t in times])


class TestLogRatio:
    def test_equal_densities(self):
        assert log_ratio(0.5, 0.5) == 0.0

    def test_factor_e(self):
        assert log_ratio(np.e * 0.3, 0.3) == pytest.approx(1.0, rel=1e-14)

    def test_floor_violation(self):
        with pytest.raises(DataError, match="floor"):
            log_ratio(0.0, 0.5)
        with pytest.raises(DataError, match="floor"):
            log_ratio(0.5, 1e-31)

    def test_ou_expansion(self):
        # log ratio = dpsi - t*F + o(t) with both terms matching closed forms
        x, y = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        t = 1e-4
        lr = float(OU.log_density(x, t, y) - BM.log_density(x, t, y))
        dpsi = 0.0  # |x| = |y| on the circle
        F, _ = quad(lambda s: float(ou_potential(x + s * (y - x))), 0, 1)
        assert lr == pytest.approx(dpsi - t * F, abs=5e-8)


class TestFit:
    def test_exact_affine(self):
        t = np.array([0.03, 0.015, 0.0075, 0.00375, 0.001875])
        fit = fit_small_time(t, 1.2 - 0.8 * t)
        assert fit.delta_psi == pytest.approx(1.2, abs=1e-12)
        assert fit.F == pytest.approx(0.8, abs=1e-10)
        assert fit.residual == pytest.approx(0.0, abs=1e-12)

    def test_zero_drift_data(self):
        t = np.array([0.02, 0.01, 0.005])
        fit = fit_small_time(t, np.zeros(3))
        assert fit.delta_psi == 0.0 and fit.F == 0.0 and fit.residual == 0.0

    def test_ou_chord_accuracy(self):
        # the pinned ladder must give F within 1% and dpsi within 1e-3
        ladder = np.array([0.02, 0.01, 0.005, 0.0025])
        rng = np.random.default_rng(5)
        for _ in range(10):
            a1, a2 = rng.uniform(0, 2 * np.pi, 2)
            x, y = circle_point(a1), circle_point(a2)
            if np.linalg.norm(x - y) < 0.2:
                continue
            fit = fit_small_time(ladder, ou_logratio(x, y, ladder))
            F_true, _ = quad(lambda s: float(ou_potential(x + s * (y - x))), 0, 1)
            assert abs(fit.F - F_true) <= 0.01 * abs(F_true)
            assert abs(fit.delta_psi - 0.5 * (x @ x - y @ y)) <= 1e-3

    def test_rank_deficient(self):
        with pytest.raises(DataError, match="rank"):
            fit_small_time(np.array([0.01, 0.01, 0.01]), np.array([1.0, 1.0, 1.0]))

    def test_too_few_times(self):
        with pytest.raises(DataError, match="3"):
            fit_small_time(np.array([0.02, 0.01]), np.array([0.0, 0.0]))

    def test_antisymmetry(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            a1, a2 = rng.uniform(0, 2 * np.pi, 2)
            x, y = circle_point(a1), circle_point(a2)
            if np.linalg.norm(x - y) < 0.2:
                continue
            f_xy = fit_small_time(WIDE_LADDER, ou_logratio(x, y, WIDE_LADDER))
            f_yx = fit_small_time(WIDE_LADDER, ou_logratio(y, x, WIDE_LADDER))
            se = np.hypot(f_xy.se_delta_psi, f_yx.se_delta_psi)
            assert abs(f_xy.delta_psi + f_yx.delta_psi) <= 2 * se
            se_f = np.hypot(f_xy.se_F, f_yx.se_F)
            assert abs(f_xy.F - f_yx.F) <= 2 * se_f + 1e-9

    def test_cycle_consistency(self):
        rng = np.random.default_rng(7)
        n_ok, n_tot = 0, 0
        while n_tot < 10:
            angles = rng.uniform(0, 2 * np.pi, 3)
            pts = [circle_point(a) for a in angles]
            if min(np.linalg.norm(pts[i] - pts[(i + 1) % 3]) for i in range(3)) < 0.2:
                continue
            n_tot += 1
            total, var = 0.0, 0.0
            for i in range(3):
                x, y = pts[i], pts[(i + 1) % 3]
                f = fit_small_time(WIDE_LADDER, ou_logratio(x, y, WIDE_LADDER))
                total += f.delta_psi
                var += f.se_delta_psi**2
            if abs(total) <= 3 * np.sqrt(var):
                n_ok += 1
        assert n_ok >= 0.95 * n_tot

    def test_ratio_scaling_invariance(self):
        # fits depend on the density ratio only
        t = np.array([0.02, 0.01, 0.005, 0.0025])
        x, y = circle_point(0.3), circle_point(2.1)
        p_obs = np.exp(ou_logratio(x, y, t)) * 0.123
        p_ref = np.full(4, 0.123)
        lr1 = np.array([log_ratio(po, pr) for po, pr in zip(p_obs, p_ref)])
        lr2 = np.array([log_ratio(7.7 * po, 7.7 * pr) for po, pr in zip(p_obs, p_ref)])
        f1 = fit_small_time(t, lr1)
        f2 = fit_small_time(t, lr2)
        assert f1.delta_psi == pytest.approx(f2.delta_psi, abs=1e-12)
        assert f1.F == pytest.approx(f2.F, abs=1e-9)


class TestGeometry:
    def test_offset_spacing_includes_half_unit(self):
        # three offsets over (-1, 1) sit at -1/2, 0, 1/2
        assert chord_offsets(1.0, 3) == pytest.approx([-0.5, 0.0, 0.5], abs=1e-15)

    def test_disc_chord_lengths(self):
        g = Grid.from_extent(-1.3, -1.3, 1.3, 1.3, 17, 17)
        dom = DiscDomain(g, 0.0, 0.0, 1.0)
        chords, skipped = make_parallel_chords(dom, 1, 3)
        assert not skipped
        lengths = sorted(c.length for c in chords)
        assert lengths == pytest.approx([np.sqrt(3), np.sqrt(3), 2.0], abs=1e-12)

    @pytest.mark.parametrize("shape", ["disc", "rectangle"])
    def test_off_center_chords_are_translated(self, shape):
        # offsets are measured from the domain's center: moving the domain
        # moves every chord with it and keeps its raster indices
        g = Grid.from_extent(-2, -2, 2, 2, 17, 17)
        c = np.array([0.5, -0.25])
        if shape == "disc":
            doms = DiscDomain(g, 0.0, 0.0, 1.0), DiscDomain(g, *c, 1.0)
        else:
            doms = (RectangleDomain(g, -1.0, -0.7, 1.0, 0.7),
                    RectangleDomain(g, -1.0 + c[0], -0.7 + c[1], 1.0 + c[0], 0.7 + c[1]))
        (chords, skipped), (moved, moved_skipped) = (make_parallel_chords(d, 12, 13) for d in doms)
        assert moved_skipped == skipped
        assert np.array_equal(moved.angle_index, chords.angle_index)
        assert np.array_equal(moved.offset_index, chords.offset_index)
        assert np.abs(moved.x - c - chords.x).max() <= 1e-14
        assert np.abs(moved.y - c - chords.y).max() <= 1e-14

    def test_chord_fields(self):
        c = Chord(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert c.length == pytest.approx(np.sqrt(2))
        r = Chord(c.y, c.x)
        assert r.length == c.length


class TestDataset:
    def grid_domain(self):
        g = Grid.from_extent(-1.3, -1.3, 1.3, 1.3, 33, 33)
        return DiscDomain(g, 0.0, 0.0, 1.0)

    def test_equal_kernels_all_zero(self):
        dom = self.grid_domain()
        ds = build_boundary_dataset(BM, BM, dom, (6, 5), [0.02, 0.01, 0.005])
        assert np.all(ds.log_ratios == 0.0)
        fits, excluded = fit_dataset(ds)
        assert not excluded
        for f in fits:
            assert f.delta_psi == 0.0 and f.F == 0.0

    def test_ou_dataset_fits(self):
        dom = self.grid_domain()
        ds = build_boundary_dataset(OU, BM, dom, (8, 7), [0.02, 0.01, 0.005, 0.0025])
        fits, excluded = fit_dataset(ds)
        assert not excluded
        for c, f in zip(ds.chords, fits):
            F_true, _ = quad(lambda s: float(ou_potential(c.x + s * (c.y - c.x))), 0, 1)
            assert abs(f.F - F_true) <= 0.01 * abs(F_true)

    def test_exact_log_evaluation_survives_underflow(self):
        # diameter chords at t = 0.0025 have densities ~ exp(-800): only the
        # log-space path can use them
        dom = self.grid_domain()
        ds = build_boundary_dataset(OU, BM, dom, (2, 3), [0.02, 0.01, 0.005, 0.0025])
        diam = [i for i, c in enumerate(ds.chords) if abs(c.length - 2.0) < 1e-9]
        assert np.all(np.isfinite(ds.log_ratios[diam]))
        assert np.any(ds.p_obs[diam] == 0.0)  # raw density underflowed

    def test_tabulated_kernel_dataset(self):
        from driftscope.diffusion import fokker_planck_forward
        from driftscope.fields import interp

        g = Grid.from_extent(-1.6, -1.6, 1.6, 1.6, 49, 49)
        dom = DiscDomain(g, 0.0, 0.0, 0.6)
        chords, _ = make_parallel_chords(dom, 2, 3)
        ladder = [0.08, 0.04, 0.02]
        c0 = VectorField(g, np.zeros((*g.shape, 2)))
        a0 = DiffusionField.identity(g)
        sources = []
        for c in chords:
            res = fokker_planck_forward(c0, a0, c.x, ladder[::-1], g, dt=0.004)
            sources.append((c.x, dict(zip(res.times, res.slices))))
        tab = TabulatedKernel(tuple(sources))
        ds = build_boundary_dataset(tab, tab, dom, (2, 3), ladder, floor=1e-30)
        # entries equal the tabulated slice interpolated at y (by construction)
        for i, c in enumerate(ds.chords):
            for x0, table in sources:
                if np.allclose(x0, c.x):
                    for k, t in enumerate(ds.times):
                        want = float(interp(table[float(t)], c.y, mode="zero"))
                        assert ds.p_obs[i, k] == pytest.approx(want, rel=1e-12)
        assert np.all(ds.log_ratios[np.isfinite(ds.log_ratios)] == 0.0)
        # a floor above half the densities drops them, and counts them
        with pytest.warns(UserWarning, match="sub-floor"):
            high = build_boundary_dataset(tab, tab, dom, (2, 3), ladder,
                                          floor=float(np.median(ds.p_obs)))
        assert high.n_dropped == np.isnan(high.log_ratios).sum() > 0

    def test_ladder_validation(self):
        dom = self.grid_domain()
        with pytest.raises(DataError, match="decreasing"):
            BoundaryDataset(
                chords=(Chord(np.array([1.0, 0]), np.array([-1.0, 0])),),
                times=np.array([0.005, 0.01, 0.02]),
                log_ratios=np.zeros((1, 3)),
                p_obs=np.zeros((1, 3)),
                p_ref=np.zeros((1, 3)),
            )


class TestCsv:
    def test_dataset_roundtrip_exact(self, tmp_path):
        g = Grid.from_extent(-1.3, -1.3, 1.3, 1.3, 17, 17)
        dom = DiscDomain(g, 0.0, 0.0, 1.0)
        ds = build_boundary_dataset(OU, BM, dom, (4, 3), [0.02, 0.01, 0.005, 0.0025])
        path = tmp_path / "dataset.csv"
        write_dataset_csv(path, ds)
        back = read_dataset_csv(path)
        assert np.array_equal(back.times, ds.times)
        assert np.array_equal(back.log_ratios, ds.log_ratios)
        fits1, _ = fit_dataset(ds)
        fits2, _ = fit_dataset(back)
        for f1, f2 in zip(fits1, fits2):
            assert f1.delta_psi == f2.delta_psi and f1.F == f2.F

    def test_fits_roundtrip(self, tmp_path):
        g = Grid.from_extent(-1.3, -1.3, 1.3, 1.3, 17, 17)
        dom = DiscDomain(g, 0.0, 0.0, 1.0)
        ds = build_boundary_dataset(OU, BM, dom, (4, 3), [0.02, 0.01, 0.005])
        fits, _ = fit_dataset(ds)
        path = tmp_path / "fits.csv"
        write_fits_csv(path, ds.chords, fits)
        table = read_fits_csv(path, ds.chords)
        for f, back in zip(fits, table):
            assert back.delta_psi == f.delta_psi
            assert back.F == f.F
            assert back.se_delta_psi == pytest.approx(f.se_delta_psi, rel=1e-12)

    def test_bad_density_row_names_chord(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "angle_index,offset_index,x1,x2,y1,y2,t,p_obs,p_ref\n"
            "3,7,1.0,0.0,-1.0,0.0,0.01,0.0,0.5\n"
        )
        with pytest.raises(DataError) as exc:
            read_dataset_csv(path)
        assert "angle=3" in str(exc.value) and "offset=7" in str(exc.value)
