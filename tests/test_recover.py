import contextlib
import io
import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import quad

from driftscope.cli import run_command
from driftscope.elliptic import BoundaryPsi
from driftscope.errors import ConfigError, DataError
from driftscope.fields import (
    DiffusionField,
    DiscDomain,
    Grid,
    RectangleDomain,
    ScalarField,
    VectorField,
    read_dgf,
    sample_scalar,
)
from driftscope.kernels import (
    DRIFTLESS,
    OrnsteinUhlenbeckKernel,
    ProductKernel,
    kernel_from_config,
)
from driftscope.recover import (
    STAGES,
    config_from_dict,
    default_grid,
    default_ladder,
    drift_from_psi,
    drift_metrics,
    gradient_consistency,
    psi_from_u,
    run_pipeline,
    run_stages,
)


def flat_boundary_psi(dom, value=0.0):
    knots = np.arange(16) * (dom.param_length / 16)
    return BoundaryPsi(dom, knots, np.full(16, value))


def disc_setup(n=33, half=1.2):
    g = Grid.from_extent(-half, -half, half, half, n, n)
    return g, DiscDomain(g, 0.0, 0.0, 1.0)


def small_ou_config(**overrides):
    raw = {
        "domain": {"kind": "disc", "center": [0.0, 0.0], "radius": 1.0},
        "grid": {"x0": -1.15, "y0": -1.15, "x1": 1.15, "y1": 1.15, "nx": 65, "ny": 65},
        "geometry": {"n_angles": 90, "n_offsets": 91},
        "ladder": [0.02, 0.01, 0.005, 0.0025],
        "kernels": {"observed": {"kind": "ou", "theta": 1.0},
                    "reference": {"kind": "brownian"}},
        "ground_truth": {"kind": "ou", "theta": 1.0},
    }
    raw.update(overrides)
    return config_from_dict(raw)


class TestPsiFromU:
    def test_unit_solution(self):
        g, dom = disc_setup()
        u = ScalarField(g, np.ones(g.shape))
        psi = psi_from_u(u, flat_boundary_psi(dom), dom)
        inside = dom.contains(g.node_points()).reshape(g.shape)
        assert np.all(psi.values[inside] == 0.0)

    def test_log_inverts_exp(self):
        g, dom = disc_setup()
        psi_star = sample_scalar(lambda x, y: 0.3 * x - 0.2 * y**2, g)
        u = ScalarField(g, np.exp(psi_star.values))
        psi = psi_from_u(u, flat_boundary_psi(dom), dom)
        inside = dom.contains(g.node_points()).reshape(g.shape)
        assert np.abs(psi.values[inside] - psi_star.values[inside]).max() < 1e-13

    def test_nonpositive_rejected_with_min(self):
        g, dom = disc_setup()
        vals = np.ones(g.shape)
        vals[16, 16] = -0.25
        u = ScalarField(g, vals)
        with pytest.raises(DataError, match="-0.25"):
            psi_from_u(u, flat_boundary_psi(dom), dom)


class TestDriftFromPsi:
    def test_constant_psi(self):
        g, dom = disc_setup()
        psi = ScalarField(g, np.full(g.shape, 2.2))
        c = drift_from_psi(psi, DiffusionField())
        assert np.abs(c.values).max() == 0.0

    def test_quadratic_psi_identity(self):
        g, dom = disc_setup(n=65)
        psi = sample_scalar(lambda x, y: -(x**2 + y**2) / 2, g)
        c = drift_from_psi(psi, DiffusionField())
        X, Y = g.nodes()
        want = -np.stack([X, Y], axis=-1)
        assert np.abs(c.values[1:-1, 1:-1] - want[1:-1, 1:-1]).max() < 1e-12

    def test_anisotropic_linear(self):
        g, _ = disc_setup()
        psi = sample_scalar(lambda x, y: x + y, g)
        a = DiffusionField(1.0, 0.0, 4.0)
        c = drift_from_psi(psi, a)
        assert np.abs(c.values[1:-1, 1:-1, 0] - 1.0).max() < 1e-12
        assert np.abs(c.values[1:-1, 1:-1, 1] - 4.0).max() < 1e-12

    def test_zeroed_outside_domain(self):
        g, dom = disc_setup(n=65)
        psi = sample_scalar(lambda x, y: x, g)
        c = drift_from_psi(psi, DiffusionField(), dom)
        outside = ~dom.contains(g.node_points()).reshape(g.shape)
        assert np.all(c.values[outside] == 0.0)


class TestDriftMetrics:
    @pytest.mark.parametrize("center_x", [0.0, 0.1])
    def test_scores_only_the_solve_unknowns(self, center_x):
        """OU drift recovered from its exact psi on a 129^2 grid: the metrics
        at fraction 1.0 score only Domain.interior, where c_hat is not
        zeroed.  The disc centered at (0.1, 0) has node (16, 64) on its
        boundary, inside only by rounding, where c_hat is 0 and |c| is 0.9."""
        g = Grid.from_extent(-1.2, -1.2, 1.2, 1.2, 129, 129)
        dom = DiscDomain(g, center_x, 0.0, 1.0)
        psi = sample_scalar(lambda x, y: -(x**2 + y**2) / 2, g)
        c_hat = drift_from_psi(psi, DiffusionField(), dom)
        metrics = drift_metrics(c_hat, lambda p: -np.asarray(p), dom, 1.0)
        assert metrics["n_metric_nodes"] == dom.interior(g).sum()
        assert metrics["max_abs"] < 1e-12


class TestGradientConsistency:
    def test_gradient_field_small_and_refining(self):
        # c sampled from the analytic product a * grad(psi): the curl of the
        # recovered gradient carries the O(h^2) stencil error, which refines
        def curl_norm(n):
            g, dom = disc_setup(n=n)
            a = DiffusionField(1.5, 0.3, 1.0)

            def grad_psi(x, y):
                return (1.3 * np.cos(1.3 * x) * np.cos(0.9 * y),
                        -0.9 * np.sin(1.3 * x) * np.sin(0.9 * y))

            X, Y = g.nodes()
            px, py = grad_psi(X, Y)
            c = VectorField(g, np.stack([1.5 * px + 0.3 * py, 0.3 * px + 1.0 * py], axis=-1))
            return gradient_consistency(c, a, dom)

        c65, c129 = curl_norm(65), curl_norm(129)
        assert c65 < 0.01
        assert c129 < 0.5 * c65

    def test_rotational_field_flagged(self):
        g, dom = disc_setup(n=65)
        X, Y = g.nodes()
        rot = VectorField(g, np.stack([-Y, X], axis=-1))
        a = DiffusionField()
        val = gradient_consistency(rot, a, dom)
        # |curl| = 2 over the disc: norm ~ 2 sqrt(area), shrunk by the
        # 2-cell edge erosion of the evaluation region
        assert 0.85 * 2.0 * np.sqrt(np.pi) <= val <= 2.0 * np.sqrt(np.pi)

    def test_zero_field(self):
        g, dom = disc_setup()
        zero = VectorField(g, np.zeros((*g.shape, 2)))
        assert gradient_consistency(zero, DiffusionField(), dom) == 0.0


class TestLift1d:
    """The paper's d = 1 case in the plane: a product of 1-D kernels on a
    strip, x2 driftless."""

    def test_driftless_product_is_planar_brownian(self):
        product = ProductKernel(0.0, 0.0)
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.uniform(-0.5, 0.5, 2)
            y = rng.uniform(-0.5, 0.5, 2)
            t = rng.uniform(0.01, 0.5)
            got = float(product.density(x, t, y))
            want = float(DRIFTLESS.density(x, t, y))
            assert got == pytest.approx(want, rel=1e-12)

    def test_ou_product_is_planar_ou(self):
        th = 1.0
        product = ProductKernel(th, th)
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.uniform(-0.5, 0.5, 2)
            y = rng.uniform(-0.5, 0.5, 2)
            t = rng.uniform(0.01, 0.5)
            got = float(product.density(x, t, y))
            want = float(OrnsteinUhlenbeckKernel(th).density(x, t, y))
            assert got == pytest.approx(want, rel=1e-12)

    def test_marginalization_recovers_1d(self):
        product = ProductKernel(1.0, 1.0)
        t = 0.2
        x1, y1 = 0.8, 0.4
        y2 = np.linspace(-8, 8, 4001)
        x = np.tile([x1, 0.0], (len(y2), 1))
        y = np.stack([np.full(len(y2), y1), y2], axis=-1)
        joint = product.density(x, t, y)
        marginal = np.trapezoid(joint, y2)
        var = (1.0 - np.exp(-2.0 * t)) / 2.0  # the 1-D OU kernel at theta = 1
        want = np.exp(-((y1 - x1 * np.exp(-t)) ** 2) / (2.0 * var)) / np.sqrt(2.0 * np.pi * var)
        assert abs(marginal - want) < 1e-4

    @pytest.mark.filterwarnings("ignore:potential takes negative values")
    def test_strip_recovers_the_1d_drift(self):
        # OU in x1, Brownian in x2, on the strip [0, 1] x [-3, 3] truncated
        # from [0, 1] x R; the truth is the kernel's drift, (-x1, 0)
        cfg = config_from_dict({
            "domain": {"kind": "rectangle", "corners": [[0.0, -3.0], [1.0, 3.0]]},
            "grid": {"x0": -0.15, "y0": -3.45, "x1": 1.15, "y1": 3.45, "nx": 65, "ny": 257},
            "kernels": {"observed": {"kind": "product_ou", "theta1": 1.0},
                        "reference": {"kind": "brownian"}},
            "ground_truth": True,
        })
        rep = run_pipeline(cfg, persist=False)
        assert rep.metrics["rel_l2"] == pytest.approx(0.013192, abs=1e-5)


class TestConfig:
    def test_defaults(self):
        cfg = config_from_dict({
            "domain": {"kind": "disc", "radius": 1.0},
            "kernels": {"observed": {"kind": "ou", "theta": 1.0},
                        "reference": {"kind": "brownian"}},
        })
        assert cfg.n_angles == 180
        assert cfg.filter_name == "hann"
        assert cfg.resolved_ladder() == pytest.approx([0.02, 0.01, 0.005, 0.0025])

    def test_default_ladder_scales_with_radius(self):
        assert default_ladder(2.0)[0] == pytest.approx(0.08)
        assert len(default_ladder(1.0)) == 4

    def test_increasing_ladder_rejected(self):
        with pytest.raises(ConfigError, match="decreasing"):
            small_ou_config(ladder=[0.005, 0.01, 0.02])

    def test_zero_offsets_rejected(self):
        with pytest.raises(ConfigError, match="n_offsets"):
            small_ou_config(geometry={"n_angles": 10, "n_offsets": 0})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="tolerance_typo"):
            config_from_dict({
                "domain": {"kind": "disc", "radius": 1.0},
                "kernels": {"observed": {"kind": "brownian"},
                            "reference": {"kind": "brownian"}},
                "tolerance_typo": 1e-3,
            })

    @pytest.mark.parametrize("path, value", [
        (("domain",), None),
        (("domain", "radius"), -1.0),
        (("domain", "center"), [0.0]),
        (("kernels", "observed"), "ou"),
        (("kernels", "observed", "kind"), "levy"),
        (("kernels", "observed", "theta"), "fast"),
        (("ladder",), 0.02),
        (("density_floor",), 10**400),
        (("grid", "nx"), 2),
        (("grid", "x1"), -2.0),
        (("ground_truth", "theta"), [1.0]),
        # a key that the section's kind does not take
        (("domain", "corners"), [[-1.0, -1.0], [1.0, 1.0]]),
        (("domain",), {"kind": "rectangle", "corners": [[-1.0, -0.7], [1.0, 0.7]], "radius": 1.0}),
        (("kernels", "reference", "theta"), 1.0),
        (("kernels", "reference", "theta1"), 1.0),
        (("kernels", "reference", "theta2"), 1.0),
        (("kernels", "reference", "offset"), [0.0, 0.0]),
        (("kernels", "observed", "theta1"), 1.0),
        (("kernels", "observed", "theta2"), 1.0),
        (("kernels", "observed", "offset"), [0.0, 0.0]),
        (("ground_truth",), {"kind": "zero", "theta": 1.0}),
    ])
    def test_malformed_values_are_config_errors(self, path, value):
        raw = json.loads(json.dumps(VALID_CONFIGS[0]))
        parent = raw
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        with pytest.raises(ConfigError):
            config_from_dict(raw)

    @pytest.mark.parametrize("key, text", [
        ("corners", [["-1.0", "-0.7"], ["1.0", "0.7"]]),
        ("center", ["0.5", "0"]),
    ])
    def test_numeric_strings_give_the_same_default_grid(self, key, text):
        # the config accepts numeric strings wherever it takes a number
        raw = {"domain": {"kind": "rectangle", "corners": [[-1.0, -0.7], [1.0, 0.7]]}
               if key == "corners" else {"kind": "disc", "center": [0.5, 0.0], "radius": 1.0},
               "kernels": {"observed": {"kind": "brownian"}, "reference": {"kind": "brownian"}}}
        want = config_from_dict(raw).resolved_grid()
        raw["domain"][key] = text
        assert config_from_dict(raw).resolved_grid() == want

    def test_stages_read_the_objects_the_config_resolved(self):
        # the stages are given no values but their own: they read the grid
        # from the config, and V_hat lies on it; the dataset and the
        # sinogram, which no later stage of the run reads, are dropped
        cfg = small_ou_config(geometry={"n_angles": 24, "n_offsets": 25})
        values, report = {}, {}
        assert run_stages(list(STAGES)[:4], cfg, values, report) == []
        assert values["V_hat"].grid is cfg.resolved_grid()
        assert sorted(values) == ["V_hat", "chords"]
        assert report["n_chords"] == 24 * 25

    @pytest.mark.parametrize("truth", [False, True, {"kind": "ou", "theta": "1"}])
    def test_ground_truth_forms_accepted(self, truth):
        assert small_ou_config(ground_truth=truth).ground_truth == truth

    @pytest.mark.parametrize("truth, message", [
        ({"kind": "ou", "theta": 3.0}, "disagrees with kernels.observed"),
        ({"kind": "brownian"}, "disagrees with kernels.observed"),
        ({"kind": "zero"}, "unknown ground_truth kind 'zero'"),
        (1, "ground_truth must be a JSON object"),
    ])
    def test_ground_truth_that_is_not_the_observed_kernel_rejected(self, truth, message):
        with pytest.raises(ConfigError, match=message) as info:
            small_ou_config(ground_truth=truth)
        assert "give ground_truth true" in str(info.value)

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError, match="radius_typo"):
            config_from_dict({
                "domain": {"kind": "disc", "radius_typo": 1.0},
                "kernels": {"observed": {"kind": "brownian"},
                            "reference": {"kind": "brownian"}},
            })


VALID_CONFIGS = [
    {
        "domain": {"kind": "disc", "center": [0.0, 0.0], "radius": 1.0},
        "grid": {"x0": -1.15, "y0": -1.15, "x1": 1.15, "y1": 1.15, "nx": 33, "ny": 33},
        "geometry": {"n_angles": 24, "n_offsets": 25},
        "ladder": [0.02, 0.01, 0.005, 0.0025],
        "kernels": {"observed": {"kind": "ou", "theta": 1.0}, "reference": {"kind": "brownian"}},
        "filter": "hann",
        "solver": {"tol": 1e-10, "max_iter": 500},
        "seed": 3,
        "boundary_knots": 64,
        "metric_fraction": 0.8,
        "output_dir": "out",
        "workers": 1,
        "ground_truth": {"kind": "ou", "theta": 1.0},
    },
    {
        "domain": {"kind": "rectangle", "corners": [[-1.0, -0.7], [1.0, 0.7]]},
        "kernels": {"observed": {"kind": "product_ou", "theta1": 1.0, "theta2": 0.5, "offset": [0.0, 0.0]},
                    "reference": {"kind": "brownian"}},
        "filter": "ram-lak",
        "workers": None,
        "ground_truth": True,
    },
    {
        "domain": {"kind": "disc", "center": [0.5, -0.25], "radius": 1.0},
        "grid": {"x0": -0.65, "y0": -1.4, "x1": 1.65, "y1": 0.9, "nx": 33, "ny": 33},
        "geometry": {"n_angles": 24, "n_offsets": 25},
        "kernels": {"observed": {"kind": "ou", "theta": 1.0}, "reference": {"kind": "brownian"}},
        "solver": {"tol": 1e-10, "max_iter": 500},
        "workers": 1,
        "ground_truth": {"kind": "ou", "theta": 1.0},
    },
    {
        "domain": {"kind": "rectangle", "corners": [[0.0, 0.0], [2.0, 1.4]]},
        "grid": {"x0": -0.15, "y0": -0.15, "x1": 2.15, "y1": 1.55, "nx": 33, "ny": 25},
        "geometry": {"n_angles": 24, "n_offsets": 25},
        "kernels": {"observed": {"kind": "product_ou", "theta1": 1.0, "theta2": 0.5},
                    "reference": {"kind": "brownian"}},
        "ground_truth": True,
    },
]


def _paths(node, prefix=()):
    """Every key path into a nested config, containers included."""
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, prefix + (i,))


# any JSON value: scalars of every kind, and short lists and objects of them
_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
            | st.sampled_from(["disc", "rectangle", "ou", "product_ou", "zero", "hann", "null"]))
JSON_VALUES = (_SCALARS | st.lists(_SCALARS, max_size=3)
               | st.dictionaries(st.text(max_size=6), _SCALARS, max_size=3))


def _mutate(raw, data):
    """One random edit of a copy of raw: a value replaced by any JSON value, a
    key deleted, or an unknown key added."""
    raw = json.loads(json.dumps(raw))
    path = data.draw(st.sampled_from(list(_paths(raw))[1:]))
    parent = raw
    for key in path[:-1]:
        parent = parent[key]
    action = data.draw(st.sampled_from(["replace", "delete", "add"]))
    if action == "replace":
        parent[path[-1]] = data.draw(JSON_VALUES)
    elif action == "delete":
        del parent[path[-1]]
    elif isinstance(parent, dict):
        parent[data.draw(st.text(max_size=6))] = data.draw(JSON_VALUES)
    else:
        parent.append(data.draw(JSON_VALUES))
    return raw


@settings(max_examples=250, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_config_mutations_return_or_raise_config_error(data):
    """Up to three edits of a valid config dict are either accepted or refused
    with a ConfigError, never another exception; an accepted config's
    reference, given or left out, is the driftless kernel."""
    raw = data.draw(st.sampled_from(VALID_CONFIGS))
    for _ in range(data.draw(st.integers(1, 3))):
        raw = _mutate(raw, data)
    try:
        cfg = config_from_dict(raw)
    except ConfigError:
        return
    reference = cfg.kernels.get("reference", {"kind": "brownian"})
    assert kernel_from_config(reference) == DRIFTLESS


def test_valid_configs_accepted():
    for raw in VALID_CONFIGS:
        config_from_dict(raw)


def _small_domains():
    """(grid spec, domain spec, domain) for discs and rectangles on grids of
    3 to 17 nodes per axis over [-1, 1]^2: centered on a node, between
    nodes and off the lattice, from clear of every node to a boundary
    through nodes; those that do not fit in the grid are left out."""
    for nx, ny in ((3, 3), (4, 4), (5, 3), (5, 5), (6, 7), (9, 9), (17, 17)):
        grid = Grid.from_extent(-1.0, -1.0, 1.0, 1.0, nx, ny)
        spec = {"x0": -1.0, "y0": -1.0, "x1": 1.0, "y1": 1.0, "nx": nx, "ny": ny}
        dx, dy = grid.dx, grid.dy
        for cx, cy in ((0.0, 0.0), (dx / 2, 0.0), (dx / 2, dy / 2), (0.13, -0.07)):
            for r in (0.2, 0.5, 0.6, 0.5 ** 0.5, 0.75, 1.0, 1.3):
                r *= min(dx, dy)
                if max(abs(cx), abs(cy)) + r < 1.0:
                    yield spec, {"kind": "disc", "center": [cx, cy], "radius": r}, \
                        DiscDomain(grid, cx, cy, r)
            for hx in (0.4 * dx, 0.5 * dx, dx, 1.001 * dx):
                for hy in (0.4 * dy, 0.5 * dy, dy, 1.001 * dy):
                    lo, hi = [cx - hx, cy - hy], [cx + hx, cy + hy]
                    if max(abs(cx) + hx, abs(cy) + hy) < 1.0:
                        yield spec, {"kind": "rectangle", "corners": [lo, hi]}, \
                            RectangleDomain(grid, *lo, *hi)


def test_parse_refuses_a_grid_exactly_when_the_solve_has_no_unknown():
    outcomes = {True: 0, False: 0}
    for grid_spec, domain_spec, domain in _small_domains():
        empty = not domain.interior(domain.grid).any()
        raw = {"domain": domain_spec, "grid": grid_spec,
               "kernels": {"observed": {"kind": "ou", "theta": 1.0}}}
        try:
            config_from_dict(raw)
            refused = False
        except ConfigError as exc:
            assert "the solve has no unknown" in str(exc), exc
            refused = True
        assert refused == empty, (grid_spec, domain_spec)
        outcomes[refused] += 1
    assert min(outcomes.values()) >= 50, outcomes


def _smoke_size(raw):
    """A copy of raw at 24 x 25 chords on 33 grid nodes across, where it sets no size."""
    raw = json.loads(json.dumps(raw))
    raw.setdefault("geometry", {"n_angles": 24, "n_offsets": 25})
    if "grid" not in raw:
        g = default_grid(raw["domain"], 33)
        raw["grid"] = {"x0": g.x0, "y0": g.y0, "x1": g.x1, "y1": g.y1, "nx": g.nx, "ny": g.ny}
    return raw


def _nudge(raw, data):
    """A copy of raw with one of its numbers scaled by 0.7 to 1.3 and moved
    by up to 0.3 (integers rounded)."""
    raw = json.loads(json.dumps(raw))
    leaves = []
    for path in list(_paths(raw))[1:]:
        parent = raw
        for key in path[:-1]:
            parent = parent[key]
        if type(parent[path[-1]]) in (int, float):
            leaves.append((parent, path[-1]))
    parent, key = data.draw(st.sampled_from(leaves))
    value = parent[key] * data.draw(st.floats(0.7, 1.3)) + data.draw(st.floats(-0.3, 0.3))
    parent[key] = round(value) if type(parent[key]) is int else value
    return raw


def _runs_at_smoke_size(raw) -> bool:
    """Whether a config that parses stays within the smoke size: at most
    24 x 25 chords, 33^2 grid nodes, 256 boundary knots, 500 solver
    iterations and 2 workers.  One that does not parse exits at once."""
    try:
        cfg = config_from_dict(raw)
    except ConfigError:
        return True
    grid = cfg.resolved_grid()
    return (cfg.n_angles * cfg.n_offsets <= 24 * 25 and grid.nx * grid.ny <= 33 * 33
            and cfg.boundary_knots <= 256 and cfg.solver_max_iter <= 500
            and (cfg.workers or 1) <= 2)


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_mutated_configs_run_every_stage_or_exit_cleanly(data):
    """Up to two edits (`_mutate` or `_nudge`) of a valid config at smoke
    size, then the six CLI stages in order: each exits 0, 2, 3 or 4, and
    none raises or prints a traceback."""
    raw = _smoke_size(data.draw(st.sampled_from(VALID_CONFIGS)))
    for _ in range(data.draw(st.integers(0, 2))):
        raw = data.draw(st.sampled_from([_mutate, _nudge]))(raw, data)
    assume(_runs_at_smoke_size(raw))
    with tempfile.TemporaryDirectory() as out:
        config = Path(out) / "config.json"
        config.write_text(json.dumps(raw))
        for stage in STAGES:
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = run_command([stage, "--config", str(config), "--out", out])
            assert code in (0, 2, 3, 4), (stage, code, err.getvalue())
            assert "Traceback" not in err.getvalue(), stage


# the OU potential 0.5 |x|^2 - 1 is negative near the center, and assembly
# warns that uniqueness is then not guaranteed a priori
@pytest.mark.filterwarnings("ignore:potential takes negative values")
class TestPipeline:
    def test_zero_drift_fixed_point(self):
        cfg = small_ou_config(kernels={"observed": {"kind": "brownian"},
                                       "reference": {"kind": "brownian"}},
                              ground_truth=True)
        rep = run_pipeline(cfg, persist=False)
        assert np.abs(rep.V_hat.values).max() <= 1e-8
        assert np.abs(rep.c_hat.values).max() <= 1e-6

    def test_ou_small_scale(self):
        with pytest.warns(UserWarning, match="potential takes negative values"):
            rep = run_pipeline(small_ou_config(), persist=False)
        assert rep.metrics["rel_l2"] <= 0.05
        assert rep.diagnostics["min_u"] > 0

    def test_deterministic_artifacts(self, tmp_path):
        cfg = small_ou_config(geometry={"n_angles": 24, "n_offsets": 25})
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        run_pipeline(cfg, out_dir=d1)
        run_pipeline(cfg, out_dir=d2)
        for name in ("V_hat.dgf", "psi_hat.dgf", "c_hat_x.dgf", "c_hat_y.dgf", "u.dgf"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
        r1 = json.loads((d1 / "report.json").read_text())
        r2 = json.loads((d2 / "report.json").read_text())
        r1.pop("meta"), r2.pop("meta")
        assert r1 == r2

    def test_artifact_layout(self, tmp_path):
        cfg = small_ou_config(geometry={"n_angles": 24, "n_offsets": 25})
        run_pipeline(cfg, out_dir=tmp_path / "out")
        expected = {"dataset.npz", "fits.npy", "sinogram.npz", "V_hat.dgf", "u.dgf",
                    "psi_hat.dgf", "c_hat_x.dgf", "c_hat_y.dgf", "report.json"}
        assert expected.issubset({p.name for p in (tmp_path / "out").iterdir()})
        V = read_dgf(tmp_path / "out" / "V_hat.dgf")
        assert V.grid == cfg.resolved_grid()

    def test_peak_memory_does_not_grow_with_the_chord_table(self):
        """At 180x181 chords on a 129^2 grid one run peaks ~10 MB of traced
        memory above its start; ~16 MB when the fit and the boundary-psi
        equations built whole-table temporaries and the dataset was held until
        the pipeline returned."""
        grid = {"x0": -1.15, "y0": -1.15, "x1": 1.15, "y1": 1.15, "nx": 129, "ny": 129}
        cfg = small_ou_config(geometry={"n_angles": 180, "n_offsets": 181}, grid=grid)
        run_pipeline(small_ou_config(geometry={"n_angles": 24, "n_offsets": 25}),
                     persist=False)  # the imports a first run makes are not its working set
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            run_pipeline(cfg, persist=False)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 13e6

    def test_report_metrics_only_with_ground_truth(self):
        for truth in (None, False):
            cfg = small_ou_config(ground_truth=truth, geometry={"n_angles": 24, "n_offsets": 25})
            rep = run_pipeline(cfg, persist=False)
            assert rep.metrics is None
            assert "curl_norm" in rep.diagnostics

    def test_each_stage_sets_only_the_report_keys_it_declares(self):
        # the runner drops a re-run stage's entries, and every later stage's,
        # by these keys: an entry no stage declares would outlive a re-run
        cfg = small_ou_config(geometry={"n_angles": 24, "n_offsets": 25})
        values = {}
        for name, stage in STAGES.items():
            assert set(stage.run(cfg, values)) <= set(stage.keys), name
            assert set(stage.settings) <= set(cfg.echo()), name
        assert set(values["metrics"]) == set(STAGES["recover"].keys)
        keys = [key for stage in STAGES.values() for key in stage.keys]
        assert len(keys) == len(set(keys))

    def test_kernels_override_is_scored_against_the_kernel_it_ran(self):
        # the stages run the config's own kernels, which report.json echoes:
        # an OU theta = 2 pair under a theta = 1 config is refused before a
        # stage runs, not run and scored against theta = 2
        cfg = small_ou_config(geometry={"n_angles": 24, "n_offsets": 25})
        with pytest.raises(ConfigError, match="are not the config's own"):
            run_pipeline(cfg, persist=False, kernels=(OrnsteinUhlenbeckKernel(2.0), DRIFTLESS))

    def test_kernels_override_takes_only_the_driftless_reference(self):
        # the pair the benchmark passes runs as the config does; any other
        # reference is refused before a stage runs
        cfg = small_ou_config(geometry={"n_angles": 24, "n_offsets": 25})
        with pytest.raises(ConfigError, match="are not the config's own"):
            run_pipeline(cfg, persist=False,
                         kernels=(OrnsteinUhlenbeckKernel(1.0), OrnsteinUhlenbeckKernel(1.0)))
        pair = tuple(kernel_from_config(cfg.kernels[side]) for side in ("observed", "reference"))
        assert pair[1] is DRIFTLESS
        assert (run_pipeline(cfg, persist=False, kernels=pair).metrics
                == run_pipeline(cfg, persist=False).metrics)

    def test_stage_error_tagging(self):
        cfg = small_ou_config(geometry={"n_angles": 2, "n_offsets": 3},
                              boundary_knots=256)
        with pytest.raises(DataError, match=r"\[stage solve\]"):
            run_pipeline(cfg, persist=False)
