import io
import re
import tracemalloc
import zipfile

import numpy as np
import pytest

from driftscope import parallel, xray
from driftscope.errors import DataError
from driftscope.fields import DiscDomain, Grid, RectangleDomain, ScalarField, sample_scalar
from driftscope.smalltime import (
    FitTable,
    chord_angles,
    chord_offsets,
    make_parallel_chords,
)
from driftscope.xray import (
    Sinogram,
    disc_indicator,
    disc_indicator_sinogram,
    fbp_invert,
    forward_xray,
    radial_gaussian,
    radial_gaussian_sinogram,
    read_sinogram_csv,
    sinogram_from_fits,
    sinogram_of_field,
    write_sinogram_csv,
)


def unit_disc(n=65, half=1.15):
    g = Grid.from_extent(-half, -half, half, half, n, n)
    return g, DiscDomain(g, 0.0, 0.0, 1.0)


def fit_table(chords, F, ok=None):
    """Ok fits (or those `ok` marks) of the chords with chord averages F and
    zero intercepts and standard errors."""
    F = np.asarray(F, dtype=float)
    zero = np.zeros_like(F)
    ok = np.ones(F.shape, dtype=bool) if ok is None else ok
    return FitTable(chords, zero, F, zero, zero, zero, np.full(F.shape, 4), ok)


class TestForward:
    def test_constant_integrand_gives_chord_length(self):
        g, dom = unit_disc()
        ones = ScalarField(g, np.ones(g.shape))
        omega = np.array([1.0, 0.0])
        for z, want in ((0.5, np.sqrt(3.0)), (0.0, 2.0)):
            ends = dom.chord_endpoints(omega, z)
            got = forward_xray(ones, ends[0], ends[1], n_quad=64)
            assert got == pytest.approx(want, rel=1e-12)

    def test_zero_field(self):
        g, dom = unit_disc()
        zero = ScalarField(g, np.zeros(g.shape))
        ends = dom.chord_endpoints(np.array([0.0, 1.0]), 0.3)
        assert forward_xray(zero, ends[0], ends[1]) == 0.0

    def test_radial_gaussian_closed_form(self):
        # callable integrand: pure quadrature, matches sqrt(pi) e^{-z^2}
        # (the chord must be long enough that the truncated tail < 1e-7)
        _, dom = unit_disc(half=5.5)
        dom = DiscDomain(dom.grid, 0.0, 0.0, 4.6)

        def V(p):
            p = np.asarray(p)
            return np.exp(-np.sum(p**2, axis=-1))

        for phi, z in ((0.0, 0.25), (1.1, -0.6), (2.5, 0.0)):
            omega = np.array([np.cos(phi), np.sin(phi)])
            ends = dom.chord_endpoints(omega, z)
            got = forward_xray(V, ends[0], ends[1], n_quad=8000)
            assert abs(got - np.sqrt(np.pi) * np.exp(-(z**2))) < 1e-6

    def test_sampled_field_matches_at_grid_accuracy(self):
        g, dom = unit_disc(n=129)
        w = np.sqrt(0.1)
        V = radial_gaussian(g, w)
        sino = sinogram_of_field(V, dom, 8, 9, n_quad=300)
        want = radial_gaussian_sinogram(sino.offsets, sino.angles, w)
        # bilinear interpolation of the integrand is O(h^2)
        assert np.abs(sino.values - want).max() < 5.0 * g.dx**2

    def test_linearity(self):
        g, dom = unit_disc()
        rng = np.random.default_rng(0)
        f1 = ScalarField(g, rng.standard_normal(g.shape))
        f2 = ScalarField(g, rng.standard_normal(g.shape))
        al, be = 0.7, -1.9
        comb = ScalarField(g, al * f1.values + be * f2.values)
        x, y, _ = dom.chord_endpoints(np.array([0.6, 0.8]), 0.2)
        lhs = forward_xray(comb, x, y, 128)
        rhs = al * forward_xray(f1, x, y, 128) + be * forward_xray(f2, x, y, 128)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_rotational_symmetry(self):
        g, dom = unit_disc(n=129)
        V = radial_gaussian(g, 0.5)
        sino = sinogram_of_field(V, dom, 12, 15, n_quad=400)
        spread = np.abs(sino.values - sino.values[0]).max()
        assert spread < 5e-4

    def test_mass_consistency(self):
        g, dom = unit_disc(n=129)
        V = radial_gaussian(g, 0.4)
        sino = sinogram_of_field(V, dom, 10, 201, n_quad=300)
        masses = np.trapezoid(sino.values, sino.offsets, axis=1)
        total = V.values.sum() * g.cell_area  # support well inside the disc
        assert np.abs(masses - total).max() <= 0.01 * total

    def test_evenness_reversed_chords(self):
        g, dom = unit_disc(n=129)
        V = sample_scalar(lambda x, y: np.exp(-(x - 0.2) ** 2 - 2 * (y + 0.1) ** 2), g)
        chords, _ = make_parallel_chords(dom, 6, 5)
        for x, y in zip(chords.x[:10], chords.y[:10]):
            a = forward_xray(V, x, y, 200)
            b = forward_xray(V, y, x, 200)
            assert a == pytest.approx(b, rel=1e-10)

    def test_chord_outside_grid(self):
        g, dom = unit_disc()
        V = ScalarField(g, np.ones(g.shape))
        with pytest.raises(Exception, match="outside"):
            forward_xray(V, [-3.0, 0.0], [3.0, 0.0], 64)

    def test_min_quadrature_nodes(self):
        g, dom = unit_disc()
        V = ScalarField(g, np.ones(g.shape))
        ends = dom.chord_endpoints(np.array([1.0, 0.0]), 0.0)
        with pytest.raises(DataError, match="n_quad"):
            forward_xray(V, ends[0], ends[1], n_quad=8)


class TestSinogramFromFits:
    def test_zero_fits(self):
        g, dom = unit_disc()
        chords, _ = make_parallel_chords(dom, 4, 5)
        sino = sinogram_from_fits(fit_table(chords, np.zeros(len(chords))), dom)
        assert np.all(sino.values == 0.0)
        assert np.all(sino.mask)

    def test_unit_average_gives_chord_length(self):
        g, dom = unit_disc()
        chords, _ = make_parallel_chords(dom, 3, 7)
        sino = sinogram_from_fits(fit_table(chords, np.ones(len(chords))), dom)
        want = 2.0 * np.sqrt(1.0 - sino.offsets**2)
        for row in sino.values:
            assert row == pytest.approx(want, rel=1e-12)

    def test_roundtrip_against_forward(self):
        g, dom = unit_disc(n=129)
        V = radial_gaussian(g, 0.5)
        chords, _ = make_parallel_chords(dom, 6, 9)
        fits = fit_table(chords, [forward_xray(V, x, y, 300) / length
                                  for x, y, length in zip(chords.x, chords.y, chords.length)])
        sino = sinogram_from_fits(fits, dom)
        direct = sinogram_of_field(V, dom, 6, 9, n_quad=300)
        assert np.abs(sino.values - direct.values).max() < 1e-12

    def test_missing_fit_masked(self):
        g, dom = unit_disc()
        chords, _ = make_parallel_chords(dom, 4, 5)
        ok = np.ones(len(chords), dtype=bool)
        ok[3] = False
        fits = fit_table(chords, np.ones(len(chords)), ok)
        assert fits[3] is None
        sino = sinogram_from_fits(fits, dom)
        ia, io = chords.angle_index[3], chords.offset_index[3]
        assert not sino.mask[ia, io]
        assert sino.mask.sum() == sino.mask.size - 1


    def test_rectangle_table_zero_off_chords_and_masks_failed_fits(self):
        # on the rectangle's whole chord table, the raster cells without a
        # chord (lines that miss it) are zero and valid, and the masked
        # cells are exactly the chords whose fit is not ok
        g = Grid.from_extent(-1.15, -0.805, 1.15, 0.805, 33, 25)
        dom = RectangleDomain(g, -1.0, -0.7, 1.0, 0.7)
        chords, _ = make_parallel_chords(dom, 12, 13)
        has_chord = np.zeros((12, 13), dtype=bool)
        has_chord[chords.angle_index, chords.offset_index] = True
        assert 0 < has_chord.sum() < has_chord.size
        ok = np.random.default_rng(3).random(len(chords)) > 0.1
        fits = fit_table(chords, np.full(len(chords), 2.0), ok)
        sino = sinogram_from_fits(fits, dom)
        failed = np.zeros((12, 13), dtype=bool)
        failed[chords.angle_index[~ok], chords.offset_index[~ok]] = True
        assert failed.any() and np.array_equal(sino.mask, ~failed)
        assert np.all(sino.values[~has_chord] == 0.0) and np.all(sino.mask[~has_chord])
        assert np.array_equal(sino.values[chords.angle_index[ok], chords.offset_index[ok]],
                              2.0 * chords.length[ok])
        assert np.all(sino.values[failed] == 0.0)


class TestSinogram:
    @pytest.mark.parametrize("shape, radius", [((1, 1), 1.0), ((12, 13), 1.25),
                                               ((360, 361), 1.2206555615733703)])
    def test_axes_are_the_chord_raster(self, shape, radius):
        sino = Sinogram(np.zeros(shape), np.ones(shape, dtype=bool), radius)
        assert sino.angles.tobytes() == chord_angles(shape[0]).tobytes()
        assert sino.offsets.tobytes() == chord_offsets(radius, shape[1]).tobytes()
        assert (sino.n_angles, sino.n_offsets) == shape

    @pytest.mark.parametrize("values, mask, radius", [
        (np.zeros((0, 4)), np.ones((0, 4), dtype=bool), 1.0),
        (np.zeros((3, 0)), np.ones((3, 0), dtype=bool), 1.0),
        (np.zeros(12), np.ones(12, dtype=bool), 1.0),
        (np.zeros((2, 3, 2)), np.ones((2, 3, 2), dtype=bool), 1.0),
        (np.zeros((3, 4)), np.ones((4, 3), dtype=bool), 1.0),
        (np.zeros((3, 4)), np.ones((3, 4), dtype=bool), 0.0),
        (np.zeros((3, 4)), np.ones((3, 4), dtype=bool), -1.0),
        (np.zeros((3, 4)), np.ones((3, 4), dtype=bool), float("nan")),
        (np.zeros((3, 4)), np.ones((3, 4), dtype=bool), float("inf")),
    ], ids=["no-angles", "no-offsets", "1-D", "3-D", "mask-shape", "zero-radius",
            "negative-radius", "nan-radius", "inf-radius"])
    def test_off_raster_sinogram_is_data_error(self, values, mask, radius):
        with pytest.raises(DataError, match="sinogram"):
            Sinogram(values, mask, radius)

class TestFbp:
    def test_zero_sinogram(self):
        g, dom = unit_disc()
        sino = Sinogram(np.zeros((16, 17)), np.ones((16, 17), dtype=bool), 1.0)
        rec = fbp_invert(sino, g, "ram-lak", dom)
        assert np.all(rec.values == 0.0)

    def test_radial_gaussian_roundtrip(self):
        g, dom = unit_disc(n=129)
        w = np.sqrt(0.02)
        V = radial_gaussian(g, w)
        sino = sinogram_of_field(V, dom, 128, 128, n_quad=300)
        rec = fbp_invert(sino, g, "ram-lak", dom)
        inside = dom.contains(g.node_points()).reshape(g.shape)
        err = np.sqrt(np.sum((rec.values - V.values)[inside] ** 2)
                      / np.sum(V.values[inside] ** 2))
        assert err <= 0.03

    def test_clamped_outside_domain(self):
        g, dom = unit_disc(n=65)
        V = radial_gaussian(g, 0.3)
        sino = sinogram_of_field(V, dom, 32, 33, n_quad=100)
        rec = fbp_invert(sino, g, "ram-lak", dom)
        outside = ~dom.contains(g.node_points()).reshape(g.shape)
        assert np.all(rec.values[outside] == 0.0)

    def test_disc_phantom_plateau(self):
        g, dom = unit_disc(n=129)
        V = disc_indicator(g, 0.8)
        vals = disc_indicator_sinogram(chord_offsets(1.0, 181), chord_angles(180), 0.8)
        sino = Sinogram(vals, np.ones_like(vals, dtype=bool), 1.0)
        rec = fbp_invert(sino, g, "ram-lak", dom)
        X, Y = g.nodes()
        plateau = X**2 + Y**2 < 0.55**2  # away from the jump at r = 0.8
        assert np.abs(rec.values[plateau] - 1.0).max() <= 0.05

    def test_hann_filter_smooths(self):
        g, dom = unit_disc(n=65)
        V = radial_gaussian(g, 0.3)
        sino = sinogram_of_field(V, dom, 64, 65, n_quad=200)
        rec_rl = fbp_invert(sino, g, "ram-lak", dom)
        rec_h = fbp_invert(sino, g, "hann", dom)
        assert not np.array_equal(rec_rl.values, rec_h.values)
        inside = dom.contains(g.node_points()).reshape(g.shape)
        err_h = np.sqrt(np.sum((rec_h.values - V.values)[inside] ** 2)
                        / np.sum(V.values[inside] ** 2))
        assert err_h < 0.15  # apodization trades blur for noise robustness

    def test_masked_bins_infilled_with_warning(self):
        g, dom = unit_disc(n=65)
        V = radial_gaussian(g, 0.4)
        sino = sinogram_of_field(V, dom, 32, 65, n_quad=100)
        mask = sino.mask.copy()
        rng = np.random.default_rng(1)
        bad = rng.choice(mask.size, size=int(0.05 * mask.size), replace=False)
        mask.ravel()[bad] = False
        damaged = Sinogram(sino.values, mask, sino.radius)
        with pytest.warns(UserWarning, match="in-filling"):
            rec = fbp_invert(damaged, g, "ram-lak", dom)
        assert np.all(np.isfinite(rec.values))

    def test_too_many_masked_is_error(self):
        g, dom = unit_disc(n=65)
        mask = np.ones((8, 9), dtype=bool)
        mask[:, :2] = False  # 22% masked
        sino = Sinogram(np.zeros((8, 9)), mask, 1.0)
        with pytest.raises(DataError, match="90%"):
            fbp_invert(sino, g, "ram-lak", dom)

    def test_fully_masked_angle_is_error(self):
        g, dom = unit_disc(n=65)
        mask = np.ones((40, 9), dtype=bool)
        mask[3, :] = False  # one dead angle, 2.5% masked overall
        sino = Sinogram(np.zeros((40, 9)), mask, 1.0)
        with pytest.warns(UserWarning):
            with pytest.raises(DataError, match="angle"):
                fbp_invert(sino, g, "ram-lak", dom)

    def test_angle_refinement_monotone(self):
        g, dom = unit_disc(n=129)
        V = radial_gaussian(g, np.sqrt(0.02))
        sino = sinogram_of_field(V, dom, 256, 256, n_quad=300)
        inside = dom.contains(g.node_points()).reshape(g.shape)
        errs = []
        for n_ang in (64, 128, 256):
            step = 256 // n_ang
            sub = Sinogram(sino.values[::step], sino.mask[::step], sino.radius)
            rec = fbp_invert(sub, g, "ram-lak", dom)
            errs.append(np.sqrt(np.sum((rec.values - V.values)[inside] ** 2)
                                / np.sum(V.values[inside] ** 2)))
        assert errs[0] > errs[1] > errs[2]

    @pytest.mark.filterwarnings("ignore:in-filling")
    def test_matches_all_node_pooled_oracle(self, monkeypatch):
        """Inside nodes only, in one thread, match the all-node, block-pooled
        back-projection to rounding (`assert_matches_oracle`), on a disc grid
        the pool once took and on a rectangle grid it did not; one sinogram
        has in-filled bins."""
        disc_grid, disc = unit_disc(n=182)  # 33,124 nodes: above the old pool switch
        rect_grid = Grid.from_extent(-1.15, -0.805, 1.15, 0.805, 129, 91)
        rect = RectangleDomain(rect_grid, -1.0, -0.7, 1.0, 0.7)
        cases = []
        for g, dom, filter_name, masked in ((disc_grid, disc, "hann", 0.05),
                                            (rect_grid, rect, "ram-lak", 0.0)):
            sino = sinogram_of_field(radial_gaussian(g, 0.4), dom, 72, 73, n_quad=64)
            mask = sino.mask.copy()
            bad = np.random.default_rng(5).choice(mask.size, int(masked * mask.size),
                                                  replace=False)
            mask.ravel()[bad] = False
            sino = Sinogram(sino.values, mask, sino.radius)
            want = all_node_pooled_fbp(sino, g, filter_name, dom)
            cases.append((g, dom, filter_name, sino, want))

        def refuse(*args, **kwargs):
            raise AssertionError("fbp_invert must not map blocks over workers")

        monkeypatch.setattr(parallel, "map_blocks", refuse)
        for g, dom, filter_name, sino, want in cases:
            assert_matches_oracle(fbp_invert(sino, g, filter_name, dom), want, dom)


@pytest.mark.parametrize("n_angles", [90, 45])
def test_axis_aware_node_order_keeps_the_oracle_bits(n_angles):
    """Each 16-angle block back-projects with x or y fastest, whichever moves
    the offset least from node to node.  On grids with dx != dy and angle
    counts that are no multiple of 16, so that blocks straddle 45 and 135
    degrees, V_hat matches the all-node oracle to rounding: node pairs
    round otherwise (`assert_matches_oracle`), and the order changes no
    bit (`test_node_order_changes_no_bit`)."""
    disc_grid = Grid.from_extent(-1.2, -1.2, 1.2, 1.2, 97, 61)
    rect_grid = Grid.from_extent(-1.15, -0.805, 1.15, 0.805, 61, 101)
    cases = ((disc_grid, DiscDomain(disc_grid, 0.0, 0.0, 1.0)),
             (rect_grid, RectangleDomain(rect_grid, -1.0, -0.7, 1.0, 0.7)))
    rng = np.random.default_rng(n_angles)
    for g, dom in cases:
        assert g.dx != g.dy
        values = rng.standard_normal((n_angles, 91))
        sino = Sinogram(values, np.ones_like(values, dtype=bool), dom.circumradius)
        for filter_name in ("hann", "ram-lak"):
            want = all_node_pooled_fbp(sino, g, filter_name, dom)
            assert_matches_oracle(fbp_invert(sino, g, filter_name, dom), want, dom)


def masked_sinogram(n_angles, n_offsets, radius, seed, masked=0.05):
    """Standard normal values with a share `masked` of the bins masked."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n_angles, n_offsets))
    mask = np.ones(values.shape, dtype=bool)
    mask.ravel()[rng.choice(mask.size, int(masked * mask.size), replace=False)] = False
    return Sinogram(values, mask, radius)


@pytest.mark.parametrize("n_angles, n_offsets", [(360, 361), (180, 181), (120, 121)])
@pytest.mark.parametrize("block", [1, 7, 16])
def test_per_block_filter_gives_the_whole_sinograms_bits(n_angles, n_offsets, block):
    # n_pad is 1024, 512 and 256; the last block of 7 or 16 angles is short
    sino = masked_sinogram(n_angles, n_offsets, 1.0, n_angles, masked=0.0)
    dz = float(sino.offsets[1] - sino.offsets[0])
    n_pad = 1 << int(np.ceil(np.log2(2 * n_offsets)))
    padded = np.zeros((n_angles, n_pad))
    padded[:, :n_offsets] = sino.values
    H = np.fft.rfft(xray._ramp_kernel(n_pad, dz))
    hann = 0.5 * (1.0 + np.cos(np.pi * np.fft.rfftfreq(n_pad, d=dz) / (0.5 / dz)))
    for spectrum in (H, H * hann):
        whole = xray._filtered(padded, spectrum, n_offsets, dz)
        blocks = [xray._filtered(padded[lo:lo + block], spectrum, n_offsets, dz)
                  for lo in range(0, n_angles, block)]
        assert np.concatenate(blocks).tobytes() == whole.tobytes()


@pytest.mark.filterwarnings("ignore:in-filling")
@pytest.mark.parametrize("filter_name", ["hann", "ram-lak"])
def test_grid_not_centered_on_the_domain_has_no_pairs(filter_name):
    """An off-center disc on a grid centered elsewhere: no node has a mirror,
    every node takes a real np.interp at its own z, and V_hat keeps the
    bits of the all-node oracle.  Pairs by index alone would miss here."""
    g = Grid.from_extent(-1.2, -1.2, 1.2, 1.2, 81, 73)
    dom = DiscDomain(g, 0.15, -0.1, 0.95)
    assert xray._node_layouts(dom, g)[1] == 0
    sino = masked_sinogram(45, 61, dom.circumradius, 3)
    with pytest.warns(UserWarning, match="in-filling"):
        got = fbp_invert(sino, g, filter_name, dom).values
    want = all_node_pooled_fbp(sino, g, filter_name, dom).values
    inside = dom.interior(g)
    assert np.array_equal(got[inside], want[inside]) and not got[~inside].any()


def test_center_node_has_no_pair():
    """On a centered disc grid with odd node counts, the center node is its
    own mirror: it keeps the oracle's bits, and every other unknown is a pair
    node or the mirror of one."""
    g, dom = unit_disc(n=65)
    inside = dom.interior(g)
    assert inside[32, 32]
    dest, n_pairs, _, back = xray._node_layouts(dom, g)
    assert 2 * n_pairs + 1 == inside.sum() == len(dest) == len(back)
    assert np.array_equal(np.sort(dest), np.flatnonzero(inside))
    assert dest[-1] == 32 * 65 + 32  # the one single node
    assert np.array_equal(dest[n_pairs:2 * n_pairs], g.nx * g.ny - 1 - dest[:n_pairs])
    sino = masked_sinogram(60, 61, 1.0, 7, masked=0.0)
    for filter_name in ("hann", "ram-lak"):
        got = fbp_invert(sino, g, filter_name, dom)
        want = all_node_pooled_fbp(sino, g, filter_name, dom)
        assert_matches_oracle(got, want, dom)
        assert got.values[32, 32] == want.values[32, 32]


@pytest.mark.filterwarnings("ignore:in-filling")
@pytest.mark.parametrize("n_angles", [90, 45])
@pytest.mark.parametrize("filter_name", ["hann", "ram-lak"])
def test_pairs_match_the_oracle_with_in_filled_bins(n_angles, filter_name):
    # a centered disc grid and a centered rectangle grid, dx != dy
    disc_grid = Grid.from_extent(-1.2, -1.2, 1.2, 1.2, 97, 61)
    rect_grid = Grid.from_extent(-1.15, -0.805, 1.15, 0.805, 60, 101)
    for g, dom in ((disc_grid, DiscDomain(disc_grid, 0.0, 0.0, 1.0)),
                   (rect_grid, RectangleDomain(rect_grid, -1.0, -0.7, 1.0, 0.7))):
        assert xray._node_layouts(dom, g)[1] > 0.45 * dom.interior(g).sum()
        sino = masked_sinogram(n_angles, 91, dom.circumradius, n_angles)
        with pytest.warns(UserWarning, match="in-filling"):
            got = fbp_invert(sino, g, filter_name, dom)
        assert_matches_oracle(got, all_node_pooled_fbp(sino, g, filter_name, dom), dom)


def test_node_order_changes_no_bit(monkeypatch):
    """Every block x fastest, every block y fastest, or each its own way:
    pair nodes, mirrors and single nodes keep their bits."""
    g = Grid.from_extent(-1.2, -1.2, 1.2, 1.2, 97, 61)
    dom = DiscDomain(g, 0.0, 0.0, 1.0)
    sino = masked_sinogram(45, 91, 1.0, 11, masked=0.0)
    want = fbp_invert(sino, g, "hann", dom).values
    for x_fastest in (False, True):
        monkeypatch.setattr(xray, "_x_fastest", lambda phis, grid: x_fastest)
        assert fbp_invert(sino, g, "hann", dom).values.tobytes() == want.tobytes()


def test_fbp_temporaries_do_not_hold_the_whole_sinogram():
    """360 x 361 bins onto a 257^2 disc grid: ~3.4 MB of traced memory above
    the inputs; ~10 MB when the padded, spectral and filtered sinograms were
    whole arrays."""
    g, dom = unit_disc(n=257)
    sino = masked_sinogram(360, 361, 1.0, 2, masked=0.0)
    # the mask of unknowns, the angles and the offsets are cached on the
    # inputs, as the pipeline's are
    _ = dom.interior(g), sino.angles, sino.offsets
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        rec = fbp_invert(sino, g, "hann", dom)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert rec.values.any() and peak <= 5e6


def test_off_center_raster_is_measured_from_the_center():
    """V(. - c) on the unit disc centered at c has the sinogram of V on the
    centered disc, and its inversion is V_hat translated by c."""
    g, dom = unit_disc(n=65)
    c = np.array([0.5, -0.25])
    g_c = Grid(g.x0 + c[0], g.y0 + c[1], g.dx, g.dy, g.nx, g.ny)
    dom_c = DiscDomain(g_c, *c, 1.0)

    def V(p):
        return np.exp(-((p[:, 0] - 0.2) ** 2 + (p[:, 1] + 0.1) ** 2) / 0.3)

    sino = sinogram_of_field(V, dom, 32, 33, n_quad=64)
    sino_c = sinogram_of_field(lambda p: V(p - c), dom_c, 32, 33, n_quad=64)
    assert np.abs(sino_c.values - sino.values).max() <= 1e-12 * np.abs(sino.values).max()
    assert np.array_equal(dom_c.interior(g_c), dom.interior(g))
    rec, rec_c = fbp_invert(sino, g, "hann", dom), fbp_invert(sino_c, g_c, "hann", dom_c)
    assert np.abs(rec_c.values - rec.values).max() <= 1e-12 * np.abs(rec.values).max()


def assert_matches_oracle(got, want, domain):
    """got is `all_node_pooled_fbp`'s want to 1e-13 of max|want| on the
    unknowns, and exactly 0 elsewhere.  A node and its mirror take one
    complex np.interp, which forms its slopes as dp * (1/dz), and the mirror
    reads -z rather than its own z: both round otherwise."""
    inside = domain.interior(got.grid)  # the oracle also fills nodes within a sliver of the edge
    assert np.abs(got.values - want.values)[inside].max() <= 1e-13 * np.abs(want.values).max()
    assert not got.values[~inside].any()


def all_node_pooled_fbp(sino, out_grid, filter_name, domain):
    """Oracle: fbp_invert as it stood when it back-projected every grid node,
    measured from the domain's center, in 16-angle blocks on a two-thread
    pool, summed the blocks in order and then zeroed the nodes outside the
    domain."""
    values = sino.values.copy()
    for ia in range(sino.n_angles):
        bad = ~sino.mask[ia]
        if bad.any():
            values[ia, bad] = np.interp(sino.offsets[bad], sino.offsets[~bad], values[ia, ~bad])
    n = sino.n_offsets
    dz = float(sino.offsets[1] - sino.offsets[0])
    n_pad = 1 << int(np.ceil(np.log2(max(2 * n, 4))))
    H = np.fft.rfft(xray._ramp_kernel(n_pad, dz))
    if filter_name == "hann":
        freqs = np.fft.rfftfreq(n_pad, d=dz)
        H = H * 0.5 * (1.0 + np.cos(np.pi * freqs / (0.5 / dz)))
    padded = np.zeros((sino.n_angles, n_pad))
    padded[:, :n] = values
    filtered = np.fft.irfft(np.fft.rfft(padded, axis=1) * H[None, :], axis=1)[:, :n] * dz

    X, Y = out_grid.nodes()
    Xf, Yf = X.ravel() - domain.center[0], Y.ravel() - domain.center[1]

    def backproject(block):
        lo, hi = block
        acc = np.zeros(Xf.shape)
        for ia in range(lo, hi):
            phi = sino.angles[ia]
            z = -np.sin(phi) * Xf + np.cos(phi) * Yf
            acc += np.interp(z, sino.offsets, filtered[ia], left=0.0, right=0.0)
        return acc

    total = np.zeros(Xf.shape)
    for p in parallel.map_blocks(backproject, parallel.block_ranges(sino.n_angles, 16), 2):
        total += p
    out = (np.pi / sino.n_angles) * total.reshape(X.shape)
    inside = domain.contains(out_grid.node_points()).reshape(X.shape)
    return ScalarField(out_grid, np.where(inside, out, 0.0))


def npy_bytes(array) -> bytes:
    buf = io.BytesIO()
    np.lib.format.write_array(buf, np.asarray(array), allow_pickle=False)
    return buf.getvalue()


def npy_claiming(array, shape_text: str) -> bytes:
    """The .npy bytes of `array` with its header's shape replaced by
    `shape_text`, padded to the header's old length."""
    data = npy_bytes(array)
    n = int.from_bytes(data[8:10], "little")
    header = re.sub(r"'shape': \([^)]*\)", f"'shape': {shape_text}",
                    data[10:10 + n].decode("latin1").rstrip())
    return data[:10] + header.ljust(n - 1).encode("latin1") + b"\n" + data[10 + n:]


class TestSinogramCsv:
    """sinogram.npz, which `write_sinogram_csv` and `read_sinogram_csv` write
    and read whatever their names say."""

    def test_roundtrip(self, tmp_path):
        g, dom = unit_disc(n=65)
        V = radial_gaussian(g, 0.4)
        sino = sinogram_of_field(V, dom, 6, 7, n_quad=64)
        mask = sino.mask.copy()
        mask[2, 3] = False
        sino = Sinogram(sino.values, mask, sino.radius)
        path = tmp_path / "sino.npz"
        write_sinogram_csv(path, sino)
        back = read_sinogram_csv(path)
        for name in ("angles", "offsets", "values", "mask"):
            assert getattr(back, name).tobytes() == getattr(sino, name).tobytes(), name
        assert back.radius == sino.radius

    @pytest.mark.parametrize("sizes", ["2.5,3,1.0", "2,x,1.0", "0,3,1.0", "2,3,nan", "2,3,-1"])
    def test_malformed_header_is_data_error(self, tmp_path, sizes):
        # n_angles and n_offsets are the shape in the values and valid
        # headers, R the radius member
        n_angles, n_offsets, radius = sizes.split(",")
        shape = f"({n_angles}, {n_offsets})"
        path = tmp_path / "sino.npz"
        with zipfile.ZipFile(path, "w") as archive:
            archive.writestr("values.npy", npy_claiming(np.ones((2, 3)), shape))
            archive.writestr("valid.npy", npy_claiming(np.ones((2, 3), dtype=bool), shape))
            archive.writestr("radius.npy", npy_claiming(np.float64(radius), "()"))
        with pytest.raises(DataError, match=re.escape(f"{path}: ")):
            read_sinogram_csv(path)

    @pytest.mark.parametrize("sizes", [
        pytest.param("2,3,1.0", id="2,3,1.0-5 of the 6 bins of the 2 x 3 raster are listed"),
        pytest.param("1000000000,1000000000,1.0",
                     id="1000000000,1000000000,1.0-5 of the 1000000000000000000 bins"),
        pytest.param("4294967296,4294967296,1.0", id="4294967296,4294967296,1.0-bad raster header"),
    ])
    def test_every_bin_must_be_listed(self, tmp_path, sizes):
        # the values and valid headers claim the raster `sizes` gives, but
        # their bodies hold 5 bins of a 2 x 3 one, bin (1, 2) left out; a
        # huge claimed raster is refused without being allocated
        n_angles, n_offsets, radius = sizes.split(",")
        shape = f"({n_angles}, {n_offsets})"
        path = tmp_path / "sino.npz"
        with zipfile.ZipFile(path, "w") as archive:
            archive.writestr("values.npy", npy_claiming(np.ones((2, 3)), shape)[:-8])
            archive.writestr("valid.npy", npy_claiming(np.ones((2, 3), dtype=bool), shape)[:-1])
            archive.writestr("radius.npy", npy_bytes(np.float64(radius)))
        with pytest.raises(DataError, match=re.escape(f"{path}: values: truncated")):
            read_sinogram_csv(path)

    def test_non_finite_valid_bin_names_the_file(self, tmp_path):
        # a NaN on a masked bin is allowed, and on a valid one a DataError
        values = np.array([[1.0, np.nan, 1.0], [1.0, 1.0, np.nan]])
        path = tmp_path / "sino.npz"
        for valid in (~np.isnan(values), np.ones((2, 3), dtype=bool)):
            with zipfile.ZipFile(path, "w") as archive:
                for name, array in (("values", values), ("valid", valid),
                                    ("radius", np.float64(1.0))):
                    archive.writestr(f"{name}.npy", npy_bytes(array))
            if not valid.all():
                assert read_sinogram_csv(path).mask.sum() == 4
        with pytest.raises(DataError, match=re.escape(f"{path}: sinogram has non-finite values")):
            read_sinogram_csv(path)
