"""The chord and fit tables pinned to the per-object code they replaced.

The oracles below are the per-line `chord_endpoints`, the per-chord
`make_parallel_chords` loop, the per-chord `fit_small_time` and
`fit_ladder_batch`, and the double loop of `boundary_psi_from_fits`, as
they stood before the tables; the array paths must reproduce them bit for
bit (partial-ladder fits to 1e-12 relative, since those rows now share the
batch's summation).  `boundary_psi_from_fits` now sums its normal equations
per knot interval: its bits are pinned to a per-chord loop of those sums,
and the double loop checks the least squares it solves.
"""

import dataclasses

import numpy as np
import pytest

from driftscope import elliptic, smalltime
from driftscope.elliptic import BoundaryPsi, boundary_psi_from_fits
from driftscope.errors import DataError, GeometryError
from driftscope.fields import DiscDomain, Grid, RectangleDomain, sample_scalar
from driftscope.kernels import OrnsteinUhlenbeckKernel
from driftscope.smalltime import (
    BoundaryDataset,
    ChordTable,
    build_boundary_dataset,
    chord_angles,
    chord_offsets,
    fit_dataset,
    fit_ladder_batch,
    make_parallel_chords,
)
from driftscope.xray import forward_xray, sinogram_of_field

LADDER = [0.02, 0.01, 0.005, 0.0025]


def disc(n=33, half=1.3):
    return DiscDomain(Grid.from_extent(-half, -half, half, half, n, n), 0.0, 0.0, 1.0)


def rectangle(hx=1.0, hy=0.7, n=33):
    g = Grid.from_extent(-1.2 * hx, -1.2 * hy, 1.2 * hx, 1.2 * hy, n, n)
    return RectangleDomain(g, -hx, -hy, hx, hy)


DOMAINS = {"disc": disc, "rectangle": rectangle, "square": lambda: rectangle(1.0, 1.0)}


def bare_chords(n):
    """n chords of bare endpoints, (1, 0) -> (-1, 0): the (n, 1) raster of
    a table's own rows, for fits whose endpoints do not enter."""
    return ChordTable(np.tile([1.0, 0.0], (n, 1)), np.tile([-1.0, 0.0], (n, 1)))


# ---------------------------------------------------------------------------
# Oracles: the per-object code before the tables
# ---------------------------------------------------------------------------


def oracle_chord_endpoints(domain, omega, z):
    perp = np.array([-omega[1], omega[0]])
    p0 = z * perp
    if isinstance(domain, DiscDomain):
        d = p0 - domain.center
        b = float(d @ omega)
        cterm = float(d @ d) - domain.radius**2
        disc_ = b * b - cterm
        if disc_ <= 0:
            return None
        s = np.sqrt(disc_)
        return p0 + (-b - s) * omega, p0 + (-b + s) * omega
    t_lo, t_hi = -np.inf, np.inf
    for axis, (lo, hi) in enumerate([(domain.xmin, domain.xmax), (domain.ymin, domain.ymax)]):
        d = omega[axis]
        p = p0[axis]
        if abs(d) < 1e-15:
            if p <= lo or p >= hi:
                return None
        else:
            t1, t2 = (lo - p) / d, (hi - p) / d
            t_lo = max(t_lo, min(t1, t2))
            t_hi = min(t_hi, max(t1, t2))
    if not (t_hi - t_lo > 1e-12):
        return None
    return p0 + t_lo * omega, p0 + t_hi * omega


def oracle_parallel_chords(domain, n_angles, n_offsets):
    xs, ys, idx, skipped = [], [], [], []
    for ia, phi in enumerate(chord_angles(n_angles)):
        omega = np.array([np.cos(phi), np.sin(phi)])
        for io, z in enumerate(chord_offsets(domain.circumradius, n_offsets)):
            ends = oracle_chord_endpoints(domain, omega, float(z))
            if ends is None:
                skipped.append((ia, io))
                continue
            xs.append(ends[0])
            ys.append(ends[1])
            idx.append((ia, io))
    return np.array(xs), np.array(ys), np.array(idx), skipped


def oracle_fit_small_time(t, r):
    w = 1.0 / t
    s0, s1, s2 = w.sum(), (w * t).sum(), (w * t * t).sum()
    det = s0 * s2 - s1 * s1
    b0, b1 = (w * r).sum(), (w * t * r).sum()
    dpsi = (s2 * b0 - s1 * b1) / det
    slope = (s0 * b1 - s1 * b0) / det
    resid = r - (dpsi + slope * t)
    sigma2 = max(float((w * resid * resid).sum()), 0.0) / (len(t) - 2)
    cov = sigma2 / det * np.array([[s2, s1], [s1, s0]])
    return dpsi, -slope, np.sqrt(sigma2), cov


def oracle_fit_ladder_batch(t, r):
    w = 1.0 / t
    s0, s1, s2 = w.sum(), (w * t).sum(), (w * t * t).sum()
    det = s0 * s2 - s1 * s1
    b0, b1 = r @ w, r @ (w * t)
    dpsi = (s2 * b0 - s1 * b1) / det
    slope = (s0 * b1 - s1 * b0) / det
    resid = r - (dpsi[:, None] + slope[:, None] * t[None, :])
    sigma2 = np.maximum((resid * resid) @ w, 0.0) / (len(t) - 2)
    return dpsi, -slope, np.sqrt(sigma2), sigma2 * s2 / det, sigma2 * s0 / det


def oracle_masked_fit_ladder_batch(t, table):
    """fit_ladder_batch as it stood with numpy's row sums (`sum(axis=1)`),
    on the whole table at once: (n_times, the five value columns)."""
    w = 1.0 / t
    seen = np.isfinite(table)
    n = seen.sum(axis=1)
    W = np.where(seen, w, 0.0)
    r = np.where(seen, table, 0.0)
    s0, s1, s2 = W.sum(axis=1), (W * t).sum(axis=1), (W * t * t).sum(axis=1)
    det = s0 * s2 - s1 * s1
    b0, b1 = r @ w, r @ (w * t)
    with np.errstate(divide="ignore", invalid="ignore"):
        dpsi = (s2 * b0 - s1 * b1) / det
        slope = (s0 * b1 - s1 * b0) / det
        resid = np.where(seen, r - (dpsi[:, None] + slope[:, None] * t[None, :]), 0.0)
        sigma2 = np.maximum((resid * resid) @ w, 0.0) / (n - 2)
        cols = (dpsi, -slope, np.sqrt(sigma2), np.sqrt(np.maximum(sigma2 * s2 / det, 0.0)),
                np.sqrt(np.maximum(sigma2 * s0 / det, 0.0)))
    return n, np.where(n >= 3, cols, np.nan)


def oracle_boundary_psi(chords, fits, domain, n_knots):
    L = domain.param_length
    N = np.zeros((n_knots, n_knots))
    rhs = np.zeros(n_knots)

    def interp_row(s):
        pos = (s % L) / (L / n_knots)
        k0 = int(np.floor(pos)) % n_knots
        t = pos - np.floor(pos)
        return [(k0, 1.0 - t), ((k0 + 1) % n_knots, t)]

    for x, y, f in zip(chords.x, chords.y, fits):
        if f is None:
            continue
        sx = float(domain.boundary_param(x))
        sy = float(domain.boundary_param(y))
        se = max(f.se_delta_psi, 1e-9)
        w = 1.0 / (se * se)
        row = [(k, coef) for k, coef in interp_row(sy)] + [
            (k, -coef) for k, coef in interp_row(sx)
        ]
        for k, coef in row:
            rhs[k] += w * coef * f.delta_psi
            for k2, coef2 in row:
                N[k, k2] += w * coef * coef2
    return _regularised_solve(N, rhs, L, n_knots)


def oracle_interval_sums_boundary_psi(chords, fits, domain, n_knots):
    """boundary_psi_from_fits's summation, one chord at a time in table
    order: each endpoint (y, then x) adds w*u*u, w*u*t, w*t*t, w*u*dp and
    w*t*dp to the sums of its knot interval k (u = 1 - t, dp = +-dpsi), and
    the chord adds (w*c_y)*c_x to C at (k_y + a, k_x + b); then
    N = bands - (C + C^T) and b = b_u + b_t shifted one knot on."""
    L = domain.param_length
    s_uu, s_ut, s_tt, b_u, b_t = (np.zeros(n_knots) for _ in range(5))
    C = np.zeros((n_knots, n_knots))

    def interval(p):
        pos = float(domain.boundary_param(p)) / (L / n_knots)
        return int(np.floor(pos)) % n_knots, pos - np.floor(pos)

    for x, y, f in zip(chords.x, chords.y, fits):
        if f is None:
            continue
        se = max(f.se_delta_psi, 1e-9)
        w = 1.0 / (se * se)
        (ky, ty), (kx, tx) = interval(y), interval(x)
        for k, t, dp in ((ky, ty, f.delta_psi), (kx, tx, -f.delta_psi)):
            u = 1.0 - t
            s_uu[k] += w * u * u
            s_ut[k] += w * u * t
            s_tt[k] += w * t * t
            b_u[k] += w * u * dp
            b_t[k] += w * t * dp
        for a, c_y in enumerate((1.0 - ty, ty)):
            for b, c_x in enumerate((1.0 - tx, tx)):
                C[(ky + a) % n_knots, (kx + b) % n_knots] += w * c_y * c_x
    N = -(C + C.T)
    rhs = np.zeros(n_knots)
    for k in range(n_knots):
        k2 = (k + 1) % n_knots
        N[k, k] += s_uu[k] + s_tt[k - 1]
        N[k, k2] += s_ut[k]
        N[k2, k] += s_ut[k]
        rhs[k] = b_u[k] + b_t[k - 1]
    return _regularised_solve(N, rhs, L, n_knots)


def _regularised_solve(N, rhs, L, n_knots):
    """The knot values from the normal equations, as boundary_psi_from_fits
    regularises, pins and gauges them."""
    scale = max(np.trace(N) / n_knots, 1.0)
    lam = 1e-9 * scale
    for k in range(n_knots):
        k2 = (k + 1) % n_knots
        N[k, k] += lam
        N[k2, k2] += lam
        N[k, k2] -= lam
        N[k2, k] -= lam
    N += (1e-9 * scale / n_knots) * np.ones((n_knots, n_knots))
    psi = np.linalg.solve(N, rhs)
    L_params = np.concatenate([np.arange(n_knots) * (L / n_knots), [L]])
    return psi - np.interp(0.0, L_params, np.concatenate([psi, [psi[0]]]))


# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(DOMAINS))
@pytest.mark.parametrize("geometry", [(36, 37), (17, 40), (8, 9)])
def test_chord_table_matches_per_line_loop(name, geometry):
    domain = DOMAINS[name]()
    chords, skipped = make_parallel_chords(domain, *geometry)
    xs, ys, idx, want_skipped = oracle_parallel_chords(domain, *geometry)
    assert np.array_equal(chords.x, xs) and np.array_equal(chords.y, ys)
    assert np.array_equal(chords.angle_index, idx[:, 0])
    assert np.array_equal(chords.offset_index, idx[:, 1])
    assert np.array_equal(skipped, np.reshape(want_skipped, (-1, 2)))
    assert np.array_equal(chords.length, [np.hypot(*(y - x)) for x, y in zip(xs, ys)])
    if name != "disc":
        assert len(skipped)  # the raster's corner lines miss a rectangle


@pytest.mark.parametrize("name", sorted(DOMAINS))
@pytest.mark.parametrize("chunk", [37, 8192])
def test_knot_values_match_double_loop(name, chunk, monkeypatch):
    # small chunks: the interval sums and C add up across chunks in chord order
    monkeypatch.setattr(elliptic, "_CHORDS_PER_CHUNK", chunk)
    domain = DOMAINS[name]()
    ds = build_boundary_dataset(OrnsteinUhlenbeckKernel(1.0),
                                make_parallel_chords(domain, 16, 17)[0], LADDER)
    fits, _ = fit_dataset(ds)
    used = fits.ok
    dpsi_max = np.abs(fits.delta_psi[used]).max()
    for n_knots in (32, 64):
        bp = boundary_psi_from_fits(fits, domain, n_knots=n_knots)
        want = oracle_interval_sums_boundary_psi(ds.chords, fits, domain, n_knots)
        assert np.array_equal(bp.knot_values, want)
        # the 16-term double loop solves the same least squares: the fitted
        # chord differences agree to rounding.  Its knot values may move
        # further along the direction only the 1e-9 regulariser fixes
        double_loop = BoundaryPsi(domain, bp.knot_params,
                                  oracle_boundary_psi(ds.chords, fits, domain, n_knots))
        y, x = ds.chords.y[used], ds.chords.x[used]
        got = bp.value_at(y) - bp.value_at(x)
        assert np.abs(got - (double_loop.value_at(y) - double_loop.value_at(x))).max() \
            <= 1e-12 * dpsi_max


@pytest.mark.parametrize("name", sorted(DOMAINS))
@pytest.mark.parametrize("covered_first", [0, 1024])
def test_knot_values_skip_fits_that_are_not_ok(name, covered_first, monkeypatch):
    # chunks of 37 table rows hold from 0 to 37 ok fits; with covered_first
    # 0 a coverage pass of its own runs first and changes no bit
    monkeypatch.setattr(elliptic, "_CHORDS_PER_CHUNK", 37)
    monkeypatch.setattr(elliptic, "_KNOTS_COVERED_FIRST", covered_first)
    domain = DOMAINS[name]()
    ds = build_boundary_dataset(OrnsteinUhlenbeckKernel(1.0),
                                make_parallel_chords(domain, 16, 17)[0], LADDER)
    fits, _ = fit_dataset(ds)
    ok = fits.ok & (np.random.default_rng(6).random(len(fits)) < 0.7)
    ok[37:74] = False  # one chunk without an ok fit
    columns = {f: np.where(ok, getattr(fits, f), np.nan)
               for f in ("delta_psi", "F", "residual", "se_delta_psi", "se_F")}
    fits = dataclasses.replace(fits, ok=ok, **columns)
    for n_knots in (32, 64):
        bp = boundary_psi_from_fits(fits, domain, n_knots=n_knots)
        want = oracle_interval_sums_boundary_psi(ds.chords, fits, domain, n_knots)
        assert np.array_equal(bp.knot_values, want)


def test_full_ladder_fits_match_batch_oracle():
    ds = build_boundary_dataset(OrnsteinUhlenbeckKernel(1.0),
                                make_parallel_chords(disc(), 12, 13)[0], LADDER)
    fits, excluded = fit_dataset(ds)
    assert not excluded and fits.ok.all()
    dpsi, F, resid, var_dpsi, var_F = oracle_fit_ladder_batch(ds.times, ds.log_ratios)
    # the standard errors are the roots the old table's se properties took
    want = (dpsi, F, resid, *(np.sqrt(np.maximum(v, 0.0)) for v in (var_dpsi, var_F)))
    got = (fits.delta_psi, fits.F, fits.residual, fits.se_delta_psi, fits.se_F)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


@pytest.mark.parametrize("n", [1, 2, 37, 38, 75, 112, 149, 186, 223, 400])
def test_fit_chunks_give_the_bits_of_one_batch(n, monkeypatch):
    # rows fitted in 37-row chunks equal the whole table fitted at once,
    # also when the last chunk would hold a single row (n = 37k + 1)
    rng = np.random.default_rng(n)
    times = np.array([0.04, 0.02, 0.01, 0.005, 0.0025])
    lr = rng.normal(0.3, 0.2, (n, 1)) - rng.normal(1.0, 0.5, (n, 1)) * times + \
        rng.normal(0.0, 1e-3, (n, len(times)))
    lr[rng.random(lr.shape) < 0.2] = np.nan
    columns = ("delta_psi", "F", "residual", "se_delta_psi", "se_F", "n_times", "ok")
    monkeypatch.setattr(smalltime, "_CHORDS_PER_CHUNK", 10**6)
    whole = fit_ladder_batch(bare_chords(n), times, lr)
    monkeypatch.setattr(smalltime, "_CHORDS_PER_CHUNK", 37)
    chunked = fit_ladder_batch(bare_chords(n), times, lr)
    for name in columns:
        assert getattr(chunked, name).tobytes() == getattr(whole, name).tobytes(), name


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7])
@pytest.mark.parametrize("n", [1, 8192, 8193])
def test_masked_fits_match_the_row_sum_oracle(m, n):
    # ladders of up to 7 times: the column sums add each row in numpy's own
    # order, so the bits equal the row sums'; 8193 rows fit as one chunk
    rng = np.random.default_rng(100 * m + n)
    times = 0.04 * 0.5 ** np.arange(m) * rng.uniform(0.9, 1.1, m)
    lr = rng.normal(0.3, 0.2, (n, 1)) - rng.normal(1.0, 0.5, (n, 1)) * times + \
        rng.normal(0.0, 1e-3, (n, m)) * np.exp(rng.uniform(-20.0, 5.0, (n, m)))
    lr[rng.random(lr.shape) < 0.15] = np.nan
    fits = fit_ladder_batch(bare_chords(n), times, lr)
    n_obs, want = oracle_masked_fit_ladder_batch(times, lr)
    assert np.array_equal(fits.n_times, n_obs)
    got = (fits.delta_psi, fits.F, fits.residual, fits.se_delta_psi, fits.se_F)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("m", [8, 12])
def test_long_ladder_fits_match_the_row_sum_oracle_closely(m):
    # from 8 columns numpy sums a row pairwise: the sums differ in the last
    # place, and the slope's cancellation carries that to ~1e-11
    rng = np.random.default_rng(m)
    times = 0.04 * 0.5 ** np.arange(m) * rng.uniform(0.9, 1.1, m)
    lr = rng.normal(0.3, 0.2, (500, 1)) - rng.normal(1.0, 0.5, (500, 1)) * times + \
        rng.normal(0.0, 1e-3, (500, m))
    lr[rng.random(lr.shape) < 0.15] = np.nan
    fits = fit_ladder_batch(bare_chords(500), times, lr)
    n_obs, want = oracle_masked_fit_ladder_batch(times, lr)
    assert np.array_equal(fits.n_times, n_obs)
    got = (fits.delta_psi, fits.F, fits.residual, fits.se_delta_psi, fits.se_F)
    for g, w in zip(got, want):
        assert np.allclose(g, w, rtol=1e-9, atol=0.0, equal_nan=True)


def test_partial_ladder_fits_match_per_chord_fit():
    rng = np.random.default_rng(11)
    times = np.array([0.04, 0.02, 0.01, 0.005, 0.0025])
    n = 400
    lr = rng.normal(0.3, 0.2, (n, 1)) - rng.normal(1.0, 0.5, (n, 1)) * times + \
        rng.normal(0.0, 1e-3, (n, len(times)))
    lr[rng.random(lr.shape) < 0.3] = np.nan
    ds = BoundaryDataset(bare_chords(n), times, lr)
    fits, excluded = fit_dataset(ds)
    n_obs = np.isfinite(lr).sum(axis=1)
    assert excluded == np.nonzero(n_obs < 3)[0].tolist() and excluded
    assert 0 < np.count_nonzero((n_obs >= 3) & (n_obs < len(times)))
    for i, fit in enumerate(fits):
        if n_obs[i] < 3:
            assert fit is None
            continue
        ok = np.isfinite(lr[i])
        dpsi, F, resid, cov = oracle_fit_small_time(times[ok], lr[i, ok])
        se_dpsi, se_F = np.sqrt(np.diag(cov))
        assert fit.n_times == n_obs[i]
        for g, w in ((fit.delta_psi, dpsi), (fit.F, F), (fit.residual, resid),
                     (fit.se_delta_psi, se_dpsi), (fit.se_F, se_F)):
            assert g == pytest.approx(w, rel=1e-12, abs=1e-300)


def test_non_finite_endpoints_raise():
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    y = np.array([[-1.0, 0.0], [0.0, np.nan]])
    with pytest.raises(DataError, match="finite"):
        ChordTable(x, y)
    with pytest.raises(DataError, match="finite"):
        ChordTable(x, np.where(np.isnan(y), np.inf, y))


def test_coincident_endpoints_raise_with_allclose_tolerance():
    x = np.array([[1.0, 0.0], [0.5, 0.5]])
    # within 1e-8 + 1e-5 * |y| of the other end on both coordinates
    near = x + np.array([[0.0, 0.0], [0.5e-5, 0.5e-5]])
    with pytest.raises(GeometryError, match="coincide"):
        ChordTable(x, np.array([[-1.0, 0.0], near[1]]))
    apart = x[1] + 2e-5
    table = ChordTable(x, np.array([[-1.0, 0.0], apart]))
    assert len(table) == 2 and table.length[1] == pytest.approx(np.hypot(2e-5, 2e-5))


def test_coincidence_is_measured_against_the_table_extent():
    # chords 2e-6 long about (1, 0) are kept, though np.allclose measured
    # from the origin (1e-5 * |y|) takes the first one's ends for one point
    x = np.array([[1.0 - 1e-6, 0.0], [1.0, -1e-6]])
    y = np.array([[1.0 + 1e-6, 0.0], [1.0, 1e-6]])
    assert np.allclose(x[0], y[0])
    assert ChordTable(x, y).length.tolist() == pytest.approx([2e-6, 2e-6], rel=1e-9)
    # ends that truly coincide, or lie within 1e-8 s + 1e-5 s of each other
    # for half the table's longest chord s = 1e-6, still raise
    for end in ([1.0, 0.0], [1.0 + 5e-12, 5e-12]):
        with pytest.raises(GeometryError, match="coincide"):
            ChordTable(np.vstack([x, [[1.0, 0.0]]]), np.vstack([y, [end]]))
    assert len(ChordTable(np.vstack([x, [[1.0, 0.0]]]), np.vstack([y, [[1.0 + 2e-11, 0.0]]]))) == 3


@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_sinogram_of_field_matches_forward_xray(name):
    domain = DOMAINS[name]()
    V = sample_scalar(lambda x, y: np.exp(-(x - 0.2) ** 2 - 2 * (y + 0.1) ** 2), domain.grid)
    sino = sinogram_of_field(V, domain, 9, 10, n_quad=64)
    chords, skipped = make_parallel_chords(domain, 9, 10)
    for x, y, ia, io in zip(chords.x, chords.y, chords.angle_index, chords.offset_index):
        want = forward_xray(V, x, y, 64)
        assert sino.values[ia, io] == pytest.approx(want, rel=1e-12)
    for ia, io in skipped:
        assert sino.values[ia, io] == 0.0


def test_sinogram_of_callable_matches_forward_xray():
    domain = disc()

    def V(p):
        return np.exp(-np.sum(np.asarray(p) ** 2, axis=-1))

    sino = sinogram_of_field(V, domain, 5, 6, n_quad=32)
    chords, _ = make_parallel_chords(domain, 5, 6)
    for x, y, ia, io in zip(chords.x, chords.y, chords.angle_index, chords.offset_index):
        want = forward_xray(V, x, y, 32)
        assert sino.values[ia, io] == pytest.approx(want, rel=1e-12)
