"""End-to-end drift recovery: the stage table (dataset -> chord fits ->
sinogram -> filtered back-projection -> Dirichlet solve -> log -> gradient)
that both `run_pipeline` and the CLI's stage subcommands run, the artifacts
each stage reads and writes, and error metrics against an optional ground
truth.  Also provides the product construction that lifts a 1-D
reconstruction problem to the planar pipeline.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .elliptic import (
    BoundaryPsi,
    assemble_dirichlet_system,
    boundary_psi_from_fits,
    boundary_values_from_psi,
    solve_bvp,
)
from .errors import ConfigError, DataError, DriftscopeError
from .fields import (
    DiffusionField,
    Domain,
    Grid,
    RectangleDomain,
    ScalarField,
    VectorField,
    domain_from_config,
    gradient,
    read_dgf,
    write_dgf,
)
from .kernels import BrownianKernel, Kernel, ProductKernel, kernel_from_config
from .smalltime import (
    build_boundary_dataset,
    fit_dataset,
    make_parallel_chords,
    read_dataset_csv,
    read_fits_csv,
    write_dataset_csv,
    write_fits_csv,
)
from .xray import fbp_invert, read_sinogram_csv, sinogram_from_fits, write_sinogram_csv

_CONFIG_KEYS = {
    "domain",
    "grid",
    "geometry",
    "ladder",
    "kernels",
    "filter",
    "solver",
    "seed",
    "density_floor",
    "boundary_knots",
    "gauge_param",
    "metric_fraction",
    "output_dir",
    "workers",
    "ground_truth",
}


@dataclass(frozen=True)
class PipelineConfig:
    domain_spec: dict
    kernels: dict
    grid_spec: dict | None = None
    n_angles: int = 180
    n_offsets: int = 181
    ladder: tuple | None = None
    filter_name: str = "hann"
    solver_tol: float = 1e-10
    solver_max_iter: int = 20000
    seed: int = 0
    density_floor: float = 1e-30
    boundary_knots: int = 256
    gauge_param: float = 0.0
    metric_fraction: float = 0.8
    output_dir: str = "out"
    workers: int | None = None
    ground_truth: dict | None = None

    def resolved_grid(self) -> Grid:
        if self.grid_spec is not None:
            s = self.grid_spec
            return Grid.from_extent(
                float(s["x0"]), float(s["y0"]), float(s["x1"]), float(s["y1"]),
                int(s["nx"]), int(s["ny"]),
            )
        return default_grid(self.domain_spec)

    def resolved_domain(self) -> Domain:
        return domain_from_config(self.domain_spec, self.resolved_grid())

    def resolved_ladder(self) -> np.ndarray:
        if self.ladder is not None:
            return np.asarray(self.ladder, dtype=float)
        return default_ladder(self.resolved_domain().circumradius)

    def echo(self) -> dict:
        grid = self.resolved_grid()
        return {
            "domain": self.domain_spec,
            "grid": {"x0": grid.x0, "y0": grid.y0, "x1": grid.x1, "y1": grid.y1,
                     "nx": grid.nx, "ny": grid.ny},
            "geometry": {"n_angles": self.n_angles, "n_offsets": self.n_offsets},
            "ladder": [float(t) for t in self.resolved_ladder()],
            "kernels": self.kernels,
            "filter": self.filter_name,
            "solver": {"tol": self.solver_tol, "max_iter": self.solver_max_iter},
            "seed": self.seed,
            "density_floor": self.density_floor,
            "boundary_knots": self.boundary_knots,
            "gauge_param": self.gauge_param,
            "metric_fraction": self.metric_fraction,
            "output_dir": self.output_dir,
        }


def default_ladder(radius: float, m: int = 4) -> np.ndarray:
    """Geometric ladder t_k = t1 / 2^{k-1} with t1 = 0.02 * radius^2."""
    t1 = 0.02 * radius * radius
    return t1 * 0.5 ** np.arange(m)


def default_grid(domain_spec: dict, n: int = 129, margin: float = 1.15) -> Grid:
    kind = domain_spec.get("kind")
    if kind == "disc":
        cx, cy = domain_spec.get("center", (0.0, 0.0))
        r = float(domain_spec["radius"]) * margin
        return Grid.from_extent(cx - r, cy - r, cx + r, cy + r, n, n)
    if kind == "rectangle":
        (x0, y0), (x1, y1) = domain_spec["corners"]
        mx = 0.5 * (margin - 1.0) * (x1 - x0)
        my = 0.5 * (margin - 1.0) * (y1 - y0)
        aspect = (y1 - y0 + 2 * my) / (x1 - x0 + 2 * mx)
        ny = max(3, int(round((n - 1) * aspect)) + 1)
        if ny % 2 == 0:
            ny += 1
        return Grid.from_extent(x0 - mx, y0 - my, x1 + mx, y1 + my, n, ny)
    raise ConfigError(f"unknown domain kind {kind!r}")


def _require_keys(d: dict, allowed: set, required: set, where: str) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(d).__name__}")
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown key {sorted(unknown)[0]!r} in {where}")
    missing = required - set(d)
    if missing:
        raise ConfigError(f"missing required key {sorted(missing)[0]!r} in {where}")


def _integer(value, where: str, minimum: int | None = None) -> int:
    """An integral config value (integral floats and digit strings pass)."""
    try:
        out = int(value)
        integral = not isinstance(value, bool) and out == float(value)
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral:
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    if minimum is not None and out < minimum:
        raise ConfigError(f"{where} must be at least {minimum}, got {out}")
    return out


def _finite(value, where: str) -> float:
    try:
        out = float(value)
    except (TypeError, ValueError, OverflowError):
        out = float("nan")
    if isinstance(value, bool) or not np.isfinite(out):
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    return out


def _finite_list(value, where: str, length: int | None = None) -> tuple:
    """A JSON list of finite numbers (of the given length)."""
    if not isinstance(value, (list, tuple)) or length not in (None, len(value)):
        size = "a list" if length is None else f"a list of {length}"
        raise ConfigError(f"{where} must be {size} numbers, got {value!r}")
    return tuple(_finite(v, where) for v in value)


def config_from_dict(raw: dict) -> PipelineConfig:
    """Strict parse: unknown keys are rejected, numbers are checked to be
    integral or finite and in range, defaults are filled."""
    _require_keys(raw, _CONFIG_KEYS, {"domain", "kernels"}, "config")
    dom = raw["domain"]
    _require_keys(dom, {"kind", "center", "radius", "corners"}, {"kind"}, "domain")
    if dom["kind"] not in ("disc", "rectangle"):
        raise ConfigError(f"unknown domain kind {dom['kind']!r}")
    if dom["kind"] == "disc":
        if "radius" not in dom:
            raise ConfigError("missing required key 'radius' in domain")
        if not _finite(dom["radius"], "domain.radius") > 0:
            raise ConfigError(f"domain.radius must be positive, got {dom['radius']!r}")
        _finite_list(dom.get("center", [0.0, 0.0]), "domain.center", 2)
    else:
        if "corners" not in dom:
            raise ConfigError("missing required key 'corners' in domain")
        corners = dom["corners"]
        if not isinstance(corners, (list, tuple)) or len(corners) != 2:
            raise ConfigError(f"domain.corners must be two points, got {corners!r}")
        for corner in corners:
            _finite_list(corner, "domain.corners", 2)
    kern = raw["kernels"]
    _require_keys(kern, {"observed", "reference"}, {"observed", "reference"}, "kernels")
    for side in ("observed", "reference"):
        spec, where = kern[side], f"kernels.{side}"
        _require_keys(spec, {"kind", "theta", "theta1", "theta2", "offset"}, {"kind"}, where)
        if spec["kind"] not in ("brownian", "ou", "product_ou"):
            raise ConfigError(f"unknown kernel kind {spec['kind']!r} in {where}")
        if spec["kind"] == "ou" and "theta" not in spec:
            raise ConfigError(f"missing required key 'theta' in {where}")
        for key in ("theta", "theta1", "theta2"):
            if key in spec:
                _finite(spec[key], f"{where}.{key}")
        if "offset" in spec:
            _finite_list(spec["offset"], f"{where}.offset", 2)
    geometry = raw.get("geometry", {})
    _require_keys(geometry, {"n_angles", "n_offsets"}, set(), "geometry")
    n_angles = _integer(geometry.get("n_angles", 180), "geometry.n_angles", 2)
    n_offsets = _integer(geometry.get("n_offsets", 181), "geometry.n_offsets", 1)
    grid_spec = raw.get("grid")
    if grid_spec is not None:
        _require_keys(grid_spec, {"x0", "y0", "x1", "y1", "nx", "ny"},
                      {"x0", "y0", "x1", "y1", "nx", "ny"}, "grid")
        x0, y0, x1, y1 = (_finite(grid_spec[k], f"grid.{k}") for k in ("x0", "y0", "x1", "y1"))
        if not (x1 > x0 and y1 > y0):
            raise ConfigError("grid extent must satisfy x0 < x1 and y0 < y1")
        for key in ("nx", "ny"):  # finite differences need three nodes per axis
            _integer(grid_spec[key], f"grid.{key}", 3)
    ladder = raw.get("ladder")
    if ladder is not None:
        ladder = _finite_list(ladder, "ladder")
        if len(ladder) < 3:
            raise ConfigError("ladder must hold at least 3 times")
        if any(t <= 0 for t in ladder):
            raise ConfigError("ladder times must be positive")
        if any(b >= a for a, b in zip(ladder, ladder[1:])):
            raise ConfigError("ladder times must be decreasing")
    filter_name = raw.get("filter", "hann")
    if filter_name not in ("hann", "ram-lak"):
        raise ConfigError(f"unknown filter {filter_name!r}")
    solver = raw.get("solver", {})
    _require_keys(solver, {"tol", "max_iter"}, set(), "solver")
    density_floor = _finite(raw.get("density_floor", 1e-30), "density_floor")
    if density_floor < 0:
        raise ConfigError(f"density_floor must be nonnegative, got {density_floor!r}")
    metric_fraction = _finite(raw.get("metric_fraction", 0.8), "metric_fraction")
    if not 0.0 < metric_fraction <= 1.0:
        raise ConfigError(f"metric_fraction must lie in (0, 1], got {metric_fraction!r}")
    solver_tol = _finite(solver.get("tol", 1e-10), "solver.tol")
    if solver_tol <= 0:
        raise ConfigError(f"solver.tol must be positive, got {solver_tol!r}")
    workers = raw.get("workers")
    gt = raw.get("ground_truth")
    if gt is not None:
        _require_keys(gt, {"kind", "theta"}, {"kind"}, "ground_truth")
        if gt["kind"] not in ("ou", "zero"):
            raise ConfigError(f"unknown ground_truth kind {gt['kind']!r}")
        if "theta" in gt:
            _finite(gt["theta"], "ground_truth.theta")
    return PipelineConfig(
        domain_spec=dom,
        kernels=kern,
        grid_spec=grid_spec,
        n_angles=n_angles,
        n_offsets=n_offsets,
        ladder=ladder,
        filter_name=filter_name,
        solver_tol=solver_tol,
        solver_max_iter=_integer(solver.get("max_iter", 20000), "solver.max_iter", 1),
        seed=_integer(raw.get("seed", 0), "seed"),
        density_floor=density_floor,
        boundary_knots=_integer(raw.get("boundary_knots", 256), "boundary_knots", 1),
        gauge_param=_finite(raw.get("gauge_param", 0.0), "gauge_param"),
        metric_fraction=metric_fraction,
        output_dir=str(raw.get("output_dir", "out")),
        workers=None if workers in (None, "null") else _integer(workers, "workers", 1),
        ground_truth=gt,
    )


def ground_truth_from_config(gt: dict | None):
    if gt is None:
        return None
    if gt["kind"] == "zero":
        return {"c": lambda p: np.zeros_like(np.asarray(p, dtype=float))}
    theta = float(gt.get("theta", 1.0))
    return {
        "c": lambda p: -theta * np.asarray(p, dtype=float),
        "psi": lambda p: -0.5 * theta * np.sum(np.asarray(p, dtype=float) ** 2, axis=-1),
        "V": lambda p: 0.5 * (theta**2 * np.sum(np.asarray(p, dtype=float) ** 2, axis=-1) - 2 * theta),
    }


# ---------------------------------------------------------------------------
# Recovery operations
# ---------------------------------------------------------------------------


def psi_from_u(u: ScalarField, boundary_psi: BoundaryPsi, domain: Domain,
               min_u: float | None = None) -> ScalarField:
    """Drift potential log(u) inside the domain, gauged at the boundary
    reference point; outside, the boundary data extended along the projection
    onto the boundary (keeps finite differences sane near the edge).
    """
    inside = domain.contains(u.grid.node_points()).reshape(u.grid.shape)
    interior_vals = u.values[inside]
    lowest = float(interior_vals.min()) if min_u is None else min_u
    if lowest <= 0.0:
        raise DataError(
            f"cannot take log of the solution: min_u = {lowest:.6g} is not positive"
        )
    psi = np.empty(u.grid.shape)
    psi[inside] = np.log(u.values[inside])
    pts = u.grid.node_points().reshape(*u.grid.shape, 2)
    outside_pts = pts[~inside]
    proj = domain.project_to_boundary(outside_pts)
    psi[~inside] = boundary_psi.value_at(proj)
    return ScalarField(u.grid, psi)


def drift_from_psi(psi: ScalarField, a: DiffusionField, domain: Domain | None = None) -> VectorField:
    """Drift c = a * grad(psi); zeroed outside the domain when one is given."""
    if a.grid != psi.grid:
        raise DataError("drift_from_psi requires a shared grid")
    grad = gradient(psi).values
    cx = a.a11 * grad[..., 0] + a.a12 * grad[..., 1]
    cy = a.a12 * grad[..., 0] + a.a22 * grad[..., 1]
    c = np.stack([cx, cy], axis=-1)
    if domain is not None:
        inside = domain.contains(psi.grid.node_points()).reshape(psi.grid.shape)
        c = np.where(inside[..., None], c, 0.0)
    return VectorField(psi.grid, c)


def _erode(mask: np.ndarray, n: int) -> np.ndarray:
    out = mask.copy()
    for _ in range(n):
        nxt = out.copy()
        nxt[1:, :] &= out[:-1, :]
        nxt[:-1, :] &= out[1:, :]
        nxt[:, 1:] &= out[:, :-1]
        nxt[:, :-1] &= out[:, 1:]
        nxt[0, :] = nxt[-1, :] = nxt[:, 0] = nxt[:, -1] = False
        out = nxt
    return out


def gradient_consistency(c: VectorField, a: DiffusionField, domain: Domain,
                         erode: int = 2) -> float:
    """L2 norm over the domain of d_y (a^{-1} c)_1 - d_x (a^{-1} c)_2: the
    discrete test that a^{-1} c is a gradient field (zero for exact data).
    """
    if a.grid != c.grid:
        raise DataError("gradient_consistency requires a shared grid")
    g = c.grid
    det = a.a11 * a.a22 - a.a12**2
    w1 = (a.a22 * c.values[..., 0] - a.a12 * c.values[..., 1]) / det
    w2 = (-a.a12 * c.values[..., 0] + a.a11 * c.values[..., 1]) / det
    from .fields import _d1  # shared stencils with gradient()

    curl = _d1(w1, g.dy, 1) - _d1(w2, g.dx, 0)
    region = _erode(domain.contains(g.node_points()).reshape(g.shape), erode)
    return float(np.sqrt(np.sum(curl[region] ** 2) * g.cell_area))


# The report.json keys of the error metrics: drift_metrics' and the recover
# stage's curl_norm.  A stage that sets the metrics replaces all of them.
METRIC_KEYS = ("rel_l2", "max_abs", "n_metric_nodes", "curl_norm")


def drift_metrics(c_hat: VectorField, c_true_fn, domain: Domain, fraction: float) -> dict:
    region = domain.shrunk(fraction)
    g = c_hat.grid
    inside = region.contains(g.node_points()).reshape(g.shape)
    pts = g.node_points().reshape(*g.shape, 2)[inside]
    truth = np.asarray(c_true_fn(pts), dtype=float)
    diff = c_hat.values[inside] - truth
    err2 = float(np.sum(diff**2))
    ref2 = float(np.sum(truth**2))
    return {
        "rel_l2": float(np.sqrt(err2 / ref2)) if ref2 > 0 else None,
        "max_abs": float(np.sqrt((diff**2).sum(axis=-1)).max()),
        "n_metric_nodes": int(inside.sum()),
    }


# ---------------------------------------------------------------------------
# 1-D lifting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LiftedProblem:
    observed: Kernel
    reference: Kernel
    domain: Domain
    x1_shift: float  # planar x1 = original coordinate - x1_shift


def lift_1d(
    p1: Kernel,
    c2_kernel: Kernel,
    interval: tuple[float, float] = (0.0, 1.0),
    half_width: float = 3.0,
    grid: Grid | None = None,
    ny: int = 513,
    nx: int = 129,
) -> LiftedProblem:
    """Lift a 1-D reconstruction problem on an interval to the plane by
    pairing it with an independent second component.

    The planar observed kernel is the product p1 (x1) x p2 (x2); the
    reference is the product of the matching driftless kernels.  The strip
    interval x (-inf, inf) is truncated to a rectangle of the given
    half-width, and the whole problem is shifted so the rectangle is centered
    at the origin (the parallel-beam raster assumes a centered domain).
    """
    if p1.dim != 1 or c2_kernel.dim != 1:
        raise DataError("lift_1d needs one-dimensional kernels")
    lo, hi = float(interval[0]), float(interval[1])
    if hi <= lo:
        raise DataError("empty interval")
    shift = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    observed = ProductKernel(p1, c2_kernel, offset=(shift, 0.0))
    reference = ProductKernel(BrownianKernel(dim=1), BrownianKernel(dim=1), offset=(shift, 0.0))
    if grid is None:
        mx = 0.3 * half
        my = 0.15 * half_width
        grid = Grid.from_extent(-half - mx, -half_width - my, half + mx, half_width + my, nx, ny)
    domain = RectangleDomain(grid, -half, -half_width, half, half_width)
    return LiftedProblem(observed, reference, domain, shift)


# ---------------------------------------------------------------------------
# Stages and artifacts
# ---------------------------------------------------------------------------
#
# A stage reads named values (artifacts and the stage_context) from a dict,
# adds its outputs and returns its report.json entries.  Table entries call
# functions by their module-level names, so wrappers installed on those names
# (the benchmark's tracer) see every call.


def stage_context(cfg: PipelineConfig, ground_truth: dict | None = None,
                  kernels: tuple[Kernel, Kernel] | None = None) -> dict:
    """Values every stage may read besides the artifacts; ground_truth and
    kernels, when given, take precedence over the config's."""
    if ground_truth is None:
        ground_truth = ground_truth_from_config(cfg.ground_truth)
    return {"grid": cfg.resolved_grid(), "domain": cfg.resolved_domain(),
            "kernels": kernels, "ground_truth": ground_truth}


def _gen_data(cfg: PipelineConfig, v: dict) -> dict:
    observed, reference = v["kernels"] or (kernel_from_config(cfg.kernels["observed"]),
                                           kernel_from_config(cfg.kernels["reference"]))
    dataset = v["dataset"] = build_boundary_dataset(
        observed, reference, v["domain"], (cfg.n_angles, cfg.n_offsets),
        cfg.resolved_ladder(), floor=cfg.density_floor,
    )
    return {"n_chords": dataset.n_chords,
            "n_lines_skipped": len(dataset.skipped),
            "n_dropped_observations": dataset.provenance.get("n_dropped", 0)}


def _fit(cfg: PipelineConfig, v: dict) -> dict:
    fits, excluded = fit_dataset(v["dataset"])
    v["fits"], v["chords"] = fits, v["dataset"].chords
    residuals = fits.residual[fits.ok]
    return {"n_chords_excluded": len(excluded),
            "fit_residual_median": float(np.median(residuals)) if len(residuals) else 0.0,
            "fit_residual_max": float(residuals.max()) if len(residuals) else 0.0}


def _sinogram(cfg: PipelineConfig, v: dict) -> dict:
    sino = v["sinogram"] = sinogram_from_fits(v["fits"], v["chords"],
                                              (cfg.n_angles, cfg.n_offsets), v["domain"])
    return {"sinogram_masked_bins": int((~sino.mask).sum())}


def _invert(cfg: PipelineConfig, v: dict) -> dict:
    v["V_hat"] = fbp_invert(v["sinogram"], v["grid"], cfg.filter_name, v["domain"])
    return {}


def _solve(cfg: PipelineConfig, v: dict) -> dict:
    """Dirichlet solve plus potential-log extraction.

    The system is always solved in the canonical gauge (boundary potential
    vanishing at parameter 0); the configured gauge is applied afterwards as
    an exact scaling of the solution.  The boundary data enter linearly, so
    this is the same solution the requested gauge would give, and the
    recovered drift is bit-independent of the gauge choice.
    """
    V_hat, domain = v["V_hat"], v["domain"]
    grid = V_hat.grid
    bpsi0 = boundary_psi_from_fits(v["chords"], v["fits"], domain, n_knots=cfg.boundary_knots,
                                   gauge_param=0.0)
    g = boundary_values_from_psi(bpsi0)
    a = DiffusionField.identity(grid)
    b = VectorField(grid, np.zeros((*grid.shape, 2)))
    system = assemble_dirichlet_system(a, b, V_hat, domain, g)
    solution = solve_bvp(system, tol=cfg.solver_tol, max_iter=cfg.solver_max_iter)
    shift = float(bpsi0.value_at_param(cfg.gauge_param))
    u, min_u, bpsi = solution.u, solution.min_u, bpsi0
    if shift != 0.0:
        scale = float(np.exp(-shift))
        u, min_u = ScalarField(grid, u.values * scale), min_u * scale
        bpsi = BoundaryPsi(domain, bpsi0.knot_params, bpsi0.knot_values - shift,
                           cfg.gauge_param, bpsi0.n_missing)
    v["u"], v["psi_hat"] = u, psi_from_u(u, bpsi, domain, min_u=min_u)
    return {"solver_residual": solution.residual_norm,
            "solver_iterations": solution.iterations,
            "min_u": min_u,
            "peclet_max": system.peclet_max,
            "boundary_knots_missing": bpsi.n_missing}


def _recover(cfg: PipelineConfig, v: dict) -> dict:
    """Drift and its curl; error metrics (v["metrics"]) when the ground truth
    has a drift, else None."""
    psi_hat, domain, truth = v["psi_hat"], v["domain"], v["ground_truth"]
    a = DiffusionField.identity(psi_hat.grid)
    c_hat = v["c_hat"] = drift_from_psi(psi_hat, a, domain)
    curl = gradient_consistency(c_hat, a, domain)
    v["metrics"] = None
    if truth is not None and "c" in truth:
        v["metrics"] = drift_metrics(c_hat, truth["c"], domain, cfg.metric_fraction)
        v["metrics"]["curl_norm"] = curl
    return {"curl_norm": curl}


class Stage(NamedTuple):
    run: Callable[[PipelineConfig, dict], dict]
    inputs: tuple[str, ...]  # ARTIFACTS it reads
    outputs: tuple[str, ...]  # ARTIFACTS it adds


# In chain order: each stage's inputs are outputs of earlier ones.
STAGES = {
    "gen-data": Stage(_gen_data, (), ("dataset",)),
    "fit": Stage(_fit, ("dataset",), ("fits",)),
    "sinogram": Stage(_sinogram, ("fits",), ("sinogram",)),
    "invert": Stage(_invert, ("sinogram",), ("V_hat",)),
    "solve": Stage(_solve, ("V_hat", "fits"), ("u", "psi_hat")),
    "recover": Stage(_recover, ("psi_hat",), ("c_hat",)),
}


def _read_fits(cfg: PipelineConfig, v: dict, path) -> dict:
    """Fits row-aligned to the chord table rebuilt from the config geometry."""
    chords, _ = make_parallel_chords(v["domain"], cfg.n_angles, cfg.n_offsets)
    return {"chords": chords, "fits": read_fits_csv(path, chords)}


def _write_c_hat(v: dict, path_x, path_y) -> None:
    c_hat = v["c_hat"]
    write_dgf(path_x, ScalarField(c_hat.grid, c_hat.values[..., 0]))
    write_dgf(path_y, ScalarField(c_hat.grid, c_hat.values[..., 1]))


class Artifact(NamedTuple):
    files: tuple[str, ...]
    option: str | None  # CLI option naming the file a stage reads; None: never read
    read: Callable[[PipelineConfig, dict, Path], dict] | None  # -> values to add
    write: Callable[..., None]  # (values, *paths)


ARTIFACTS = {
    "dataset": Artifact(
        ("dataset.csv",), "--data",
        lambda cfg, v, p: {"dataset": read_dataset_csv(p, floor=cfg.density_floor)},
        lambda v, p: write_dataset_csv(p, v["dataset"])),
    "fits": Artifact(("fits.csv",), "--fits", _read_fits,
                     lambda v, p: write_fits_csv(p, v["chords"], v["fits"])),
    "sinogram": Artifact(("sinogram.csv",), "--sinogram",
                         lambda cfg, v, p: {"sinogram": read_sinogram_csv(p)},
                         lambda v, p: write_sinogram_csv(p, v["sinogram"])),
    "V_hat": Artifact(("V_hat.dgf",), "--vhat", lambda cfg, v, p: {"V_hat": read_dgf(p)},
                      lambda v, p: write_dgf(p, v["V_hat"])),
    "u": Artifact(("u.dgf",), None, None, lambda v, p: write_dgf(p, v["u"])),
    "psi_hat": Artifact(("psi_hat.dgf",), "--psi", lambda cfg, v, p: {"psi_hat": read_dgf(p)},
                        lambda v, p: write_dgf(p, v["psi_hat"])),
    "c_hat": Artifact(("c_hat_x.dgf", "c_hat_y.dgf"), None, None, _write_c_hat),
}


def run_stage(name: str, cfg: PipelineConfig, values: dict, inputs: dict | None = None) -> dict:
    """Run one stage on `values`, which it extends; returns its report entries.

    inputs (optional) maps the stage's input artifacts to the files to read
    them from first; a missing file is a DataError.  A DriftscopeError from
    reading or running is tagged `[stage <name>]`.
    """
    try:
        for artifact, path in (inputs or {}).items():
            if not Path(path).is_file():
                raise DataError(f"input file not found: {path}")
            values.update(ARTIFACTS[artifact].read(cfg, values, path))
        return STAGES[name].run(cfg, values)
    except DriftscopeError as exc:
        exc.args = (f"[stage {name}] {exc.args[0] if exc.args else ''}",)
        raise


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReconstructionReport:
    psi_hat: ScalarField
    V_hat: ScalarField
    c_hat: VectorField
    u: ScalarField
    metrics: dict | None
    diagnostics: dict
    config: dict = dc_field(default_factory=dict)


def run_pipeline(cfg: PipelineConfig, ground_truth: dict | None = None,
                 out_dir: str | Path | None = None, persist: bool = True,
                 kernels: tuple[Kernel, Kernel] | None = None) -> ReconstructionReport:
    """Run every stage in memory and persist all artifacts.

    ground_truth (optional): dict with callables "c" (and optionally "psi",
    "V") on (n, 2) point arrays; overrides any ground truth in the config.
    kernels (optional): (observed, reference) kernel objects that take
    precedence over the config's kernel section (for tabulated sources).
    """
    from . import parallel

    if cfg.workers is not None:
        parallel.set_workers(cfg.workers)
    values = stage_context(cfg, ground_truth, kernels)
    diagnostics: dict = {}
    for name in STAGES:
        diagnostics.update(run_stage(name, cfg, values))
    report = ReconstructionReport(
        psi_hat=values["psi_hat"], V_hat=values["V_hat"], c_hat=values["c_hat"],
        u=values["u"], metrics=values["metrics"], diagnostics=diagnostics, config=cfg.echo(),
    )
    if persist:
        write_artifacts(Path(out_dir if out_dir is not None else cfg.output_dir), report, values)
    return report


def write_outputs(out: Path, artifacts, values: dict) -> list[Path]:
    """Write the named artifacts from `values` into `out`; returns the paths."""
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name in artifacts:
        paths = [out / f for f in ARTIFACTS[name].files]
        ARTIFACTS[name].write(values, *paths)
        written += paths
    return written


def write_artifacts(out: Path, report: ReconstructionReport, values: dict) -> None:
    """Every artifact present in `values`, then report.json, into `out`."""
    out = Path(out)
    write_outputs(out, [name for name in ARTIFACTS if name in values], values)
    write_report_json(out / "report.json", report.diagnostics, report.metrics, report.config)


def write_report_json(path, diagnostics: dict, metrics: dict | None, config: dict) -> None:
    payload: dict = dict(diagnostics)
    if metrics is not None:
        payload.update(metrics)
    payload["config"] = config
    payload["meta"] = {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
                       "version": __version__}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
