import numpy as np
import pytest
from scipy.integrate import quad

from driftscope.errors import DataError
from driftscope.fields import DiscDomain, Grid, RectangleDomain
from driftscope.kernels import DRIFTLESS, OrnsteinUhlenbeckKernel
from driftscope.smalltime import (
    BoundaryDataset,
    ChordTable,
    FitTable,
    build_boundary_dataset,
    chord_offsets,
    fit_dataset,
    fit_small_time,
    make_parallel_chords,
    read_dataset_csv,
    read_fits_csv,
    write_dataset_csv,
    write_fits_csv,
)

# wide geometric ladder: the affine model's own O(t^2) error stays below the
# fitted standard errors (a ratio-2 ladder leaves the bias above them)
WIDE_LADDER = np.array([0.02, 0.005, 0.00125, 0.0003125])

OU = OrnsteinUhlenbeckKernel(1.0)
BM = DRIFTLESS


def ou_potential(p):
    p = np.asarray(p)
    return 0.5 * (np.sum(p**2, axis=-1) - 2.0)


def circle_point(angle):
    return np.array([np.cos(angle), np.sin(angle)])


def ou_logratio(x, y, times):
    return np.array([float(OU.log_density(x, t, y) - BM.log_density(x, t, y)) for t in times])


class TestLogRatio:
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

    @pytest.mark.parametrize("bad", [np.inf, np.nan, 0.0])
    def test_non_finite_or_nonpositive_time(self, bad):
        with pytest.raises(DataError, match="finite and positive"):
            fit_small_time(np.array([bad, 0.01, 0.005]), np.zeros(3))

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
        lr1 = np.log(p_obs) - np.log(p_ref)
        lr2 = np.log(7.7 * p_obs) - np.log(7.7 * p_ref)
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
        assert skipped.shape == (0, 2)
        lengths = sorted(chords.length)
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
        assert np.array_equal(moved_skipped, skipped)
        assert np.array_equal(moved.angle_index, chords.angle_index)
        assert np.array_equal(moved.offset_index, chords.offset_index)
        assert np.abs(moved.x - c - chords.x).max() <= 1e-14
        assert np.abs(moved.y - c - chords.y).max() <= 1e-14

    def test_chord_fields(self):
        table = ChordTable([[1.0, 0.0], [0.0, 2.0]], [[0.0, 1.0], [0.0, -2.0]], [3, 4], [7, 8],
                           (5, 9))
        assert table.length.tolist() == pytest.approx([np.sqrt(2), 4.0])
        assert table.angle_index.tolist() == [3, 4] and table.offset_index.tolist() == [7, 8]
        assert table.raster == (5, 9)
        assert np.array_equal(table.x, [[1.0, 0.0], [0.0, 2.0]])
        assert not any(getattr(table, name).flags.writeable
                       for name in ("x", "y", "angle_index", "offset_index", "length"))
        # a slice, mask or index array gives a sub-table on the same raster
        for sub in (table[1:], table[np.array([False, True])], table[[1]]):
            assert sub.angle_index.tolist() == [4] and sub.length.tolist() == [4.0]
            assert sub.raster == (5, 9)
        # bare endpoints: the (n, 1) raster of the table's own rows
        reversed_ = ChordTable(table.y, table.x)
        assert np.array_equal(reversed_.length, table.length)
        assert reversed_.raster == (2, 1)
        assert reversed_.angle_index.tolist() == [0, 1]
        assert reversed_.offset_index.tolist() == [0, 0]

    @pytest.mark.parametrize("cell, message", [
        ((-1, 0), r"\(-1, 0\) outside the 3 x 4 raster"),
        ((3, 0), r"\(3, 0\) outside the 3 x 4 raster"),
        ((0, -1), r"\(0, -1\) outside the 3 x 4 raster"),
        ((0, 4), r"\(0, 4\) outside the 3 x 4 raster"),
        ((1, 2), r"two chords share the raster cell \(1, 2\)"),
    ], ids=["angle -1", "angle past the end", "offset -1", "offset past the end", "shared cell"])
    def test_cell_off_the_raster_or_shared_is_data_error(self, cell, message):
        # a -1 index once wrote into the raster's last row; two rows in one
        # cell once wrote one fit over the other
        x = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]
        y = [[0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]
        with pytest.raises(DataError, match=message):
            ChordTable(x, y, [0, 1, cell[0]], [0, 2, cell[1]], (3, 4))
        assert ChordTable(x, y, [0, 1, 2], [0, 2, 3], (3, 4)).raster == (3, 4)

    def test_indices_come_with_their_raster(self):
        x, y = [[1.0, 0.0]], [[0.0, 1.0]]
        for given in ([[0], [0], None], [[0], None, (1, 1)], [None, None, (1, 1)]):
            with pytest.raises(DataError, match="raster indices come with its raster"):
                ChordTable(x, y, *given)


class TestDataset:
    def grid_domain(self):
        g = Grid.from_extent(-1.3, -1.3, 1.3, 1.3, 33, 33)
        return DiscDomain(g, 0.0, 0.0, 1.0)

    def test_equal_kernels_all_zero(self):
        dom = self.grid_domain()
        ds = build_boundary_dataset(BM, make_parallel_chords(dom, 6, 5)[0], [0.02, 0.01, 0.005])
        assert np.all(ds.log_ratios == 0.0)
        fits, excluded = fit_dataset(ds)
        assert not excluded
        for f in fits:
            assert f.delta_psi == 0.0 and f.F == 0.0

    def test_reference_is_driftless(self):
        # gen-data's p0 is DRIFTLESS, bit for bit, at every time of the ladder
        chords = make_parallel_chords(self.grid_domain(), 6, 5)[0]
        ds = build_boundary_dataset(OU, chords, [0.02, 0.01, 0.005])
        x, y = ds.chords.x, ds.chords.y
        for k, t in enumerate(ds.times):
            want = OU.log_density(x, float(t), y) - DRIFTLESS.log_density(x, float(t), y)
            assert np.array_equal(ds.log_ratios[:, k], want)

    def test_ou_dataset_fits(self):
        dom = self.grid_domain()
        ds = build_boundary_dataset(OU, make_parallel_chords(dom, 8, 7)[0],
                                    [0.02, 0.01, 0.005, 0.0025])
        fits, excluded = fit_dataset(ds)
        assert not excluded
        for x, y, f in zip(ds.chords.x, ds.chords.y, fits):
            F_true, _ = quad(lambda s: float(ou_potential(x + s * (y - x))), 0, 1)
            assert abs(f.F - F_true) <= 0.01 * abs(F_true)

    def test_exact_log_evaluation_survives_underflow(self):
        # diameter chords at t = 0.0025 have densities ~ exp(-800): only the
        # log-space path can use them
        dom = self.grid_domain()
        ds = build_boundary_dataset(OU, make_parallel_chords(dom, 2, 3)[0],
                                    [0.02, 0.01, 0.005, 0.0025])
        diam = np.nonzero(np.abs(ds.chords.length - 2.0) < 1e-9)[0]
        assert np.all(np.isfinite(ds.log_ratios[diam]))
        c = ds.chords[diam]
        # the raw density underflows
        assert np.all(OU.log_density(c.x, ds.times[-1], c.y) < np.log(np.finfo(float).tiny))

    def test_ladder_validation(self):
        dom = self.grid_domain()
        with pytest.raises(DataError, match="decreasing"):
            BoundaryDataset(
                chords=ChordTable([[1.0, 0]], [[-1.0, 0]]),
                times=np.array([0.005, 0.01, 0.02]),
                log_ratios=np.zeros((1, 3)),
            )


class TestCsv:
    def test_dataset_roundtrip_exact(self, tmp_path):
        g = Grid.from_extent(-1.3, -1.3, 1.3, 1.3, 17, 17)
        dom = DiscDomain(g, 0.0, 0.0, 1.0)
        ds = build_boundary_dataset(OU, make_parallel_chords(dom, 4, 3)[0],
                                    [0.02, 0.01, 0.005, 0.0025])
        path = tmp_path / "dataset.npz"
        write_dataset_csv(path, ds)
        back = read_dataset_csv(path, ds.chords)
        assert np.array_equal(back.times, ds.times)
        assert np.array_equal(back.log_ratios, ds.log_ratios)
        fits1, _ = fit_dataset(ds)
        fits2, _ = fit_dataset(back)
        for f1, f2 in zip(fits1, fits2):
            assert f1.delta_psi == f2.delta_psi and f1.F == f2.F

    def test_fits_roundtrip(self, tmp_path):
        g = Grid.from_extent(-1.3, -1.3, 1.3, 1.3, 17, 17)
        dom = DiscDomain(g, 0.0, 0.0, 1.0)
        ds = build_boundary_dataset(OU, make_parallel_chords(dom, 4, 3)[0], [0.02, 0.01, 0.005])
        fits, _ = fit_dataset(ds)
        path = tmp_path / "fits.npy"
        write_fits_csv(path, fits)
        table = read_fits_csv(path, ds.chords)
        assert table.chords is ds.chords
        for f, back in zip(fits, table):
            assert back == f

    def test_bare_endpoint_fits_roundtrip_row_by_row(self, tmp_path):
        # a table of bare endpoints is the (n, 1) raster of its own rows, so
        # each row keeps its own cell of fits.npy; with a -1 index for every
        # row, both once went to the last cell and read back as 0.1
        chords = ChordTable([[1.0, 0.0], [0.0, 1.0]], [[-1.0, 0.0], [0.0, -1.0]])
        fits = FitTable(chords, [0.7, 0.1], [1.0, 2.0], [0.0, 0.0], [1e-3, 2e-3], [1e-2, 2e-2],
                        [4, 4], [True, True])
        path = tmp_path / "fits.npy"
        write_fits_csv(path, fits)
        back = read_fits_csv(path, chords)
        assert back.delta_psi.tolist() == [0.7, 0.1] and back.F.tolist() == [1.0, 2.0]
        assert list(back) == list(fits)

    def test_fit_table_holds_one_row_per_chord(self):
        chords = ChordTable([[1.0, 0.0], [0.0, 1.0]], [[-1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(DataError, match="3 fits for 2 chords"):
            FitTable(chords, *np.zeros((5, 3)), [4, 4, 4], [True, True, True])
