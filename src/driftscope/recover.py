"""End-to-end drift recovery: the stage table (dataset -> chord fits ->
sinogram -> filtered back-projection -> Dirichlet solve -> log -> gradient),
the artifacts each stage reads and writes, the one runner, `run_stages`,
that runs, writes and reports any run of consecutive stages for both
`run_pipeline` (all of them) and the CLI's stage subcommands (one each),
and error metrics against an optional ground truth.

A config is parsed and resolved once (`config_from_dict`, `PipelineConfig`):
its grid, domain, time ladder and observed kernel are built when it is made,
and it is every stage's only context: a stage reads those objects from the
config, and from its values only what earlier stages added.  The keys each
domain and kernel kind takes are declared in one table per section:
`DOMAIN_KINDS` and `kernels.KERNEL_KINDS`.  The ground truth is the
observed kernel's `drift`.
The reference kernel is not a setting: it is `kernels.DRIFTLESS`, the
driftless kernel of the observed diffusion, which gen-data evaluates itself.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field as dc_field, fields
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
    DiscDomain,
    Domain,
    Grid,
    RectangleDomain,
    ScalarField,
    VectorField,
    gradient,
    read_dgf,
    write_dgf,
)
from .kernels import DRIFTLESS, KERNEL_KINDS, Kernel, kernel_from_config
from .smalltime import (
    build_boundary_dataset,
    fit_dataset,
    make_parallel_chords,
    read_dataset_csv,
    read_fits_csv,
    write_dataset_csv,
    write_fits_csv,
)
from .specs import Kind, build, finite, finite_list, integer, require_keys
from .xray import fbp_invert, read_sinogram_csv, sinogram_from_fits, write_sinogram_csv


def _disc(spec: dict, where: str) -> tuple:
    radius = finite(spec["radius"], f"{where}.radius")
    if not radius > 0:
        raise ConfigError(f"{where}.radius must be positive, got {spec['radius']!r}")
    return DiscDomain, (*finite_list(spec.get("center", (0.0, 0.0)), f"{where}.center", 2), radius)


def _rectangle(spec: dict, where: str) -> tuple:
    corners = spec["corners"]
    if not isinstance(corners, (list, tuple)) or len(corners) != 2:
        raise ConfigError(f"{where}.corners must be two points, got {corners!r}")
    (x0, y0), (x1, y1) = (finite_list(corner, f"{where}.corners", 2) for corner in corners)
    if not (x1 > x0 and y1 > y0):
        raise ConfigError("rectangle corners must satisfy xmin < xmax, ymin < ymax")
    return RectangleDomain, (x0, y0, x1, y1)


# The domain kinds a config may name.  Each builds a Domain class and the
# numbers it takes after the grid: the domain is cls(grid, *numbers), and
# cls.default_grid(*numbers, n, margin) is the grid of a config without one.
DOMAIN_KINDS = {
    "disc": Kind(("center", "radius"), ("radius",), _disc),
    "rectangle": Kind(("corners",), ("corners",), _rectangle),
}


def _check_ground_truth(spec, observed: Kernel) -> None:
    """`ground_truth` is true, false, null or a kernel spec that, built
    through `KERNEL_KINDS`, equals the observed kernel."""
    if spec is None or isinstance(spec, bool):
        return
    hint = "give ground_truth true to score against kernels.observed"
    try:
        truth = build(KERNEL_KINDS, spec, "ground_truth")
    except ConfigError as exc:
        raise ConfigError(f"{exc}; {hint}") from exc
    if truth != observed:
        raise ConfigError(f"ground_truth {truth} disagrees with kernels.observed {observed}; {hint}")


def default_grid(domain_spec: dict, n: int = 129, margin: float = 1.15) -> Grid:
    """The grid of a config that gives none: the domain's bounding box
    widened `margin` times about its center, with n nodes along x."""
    cls, numbers = build(DOMAIN_KINDS, domain_spec, "domain")
    return cls.default_grid(*numbers, n, margin)


def _grid_from_spec(spec: dict) -> Grid:
    require_keys(spec, ("x0", "y0", "x1", "y1", "nx", "ny"),
                 ("x0", "y0", "x1", "y1", "nx", "ny"), "grid")
    x0, y0, x1, y1 = (finite(spec[k], f"grid.{k}") for k in ("x0", "y0", "x1", "y1"))
    if not (x1 > x0 and y1 > y0):
        raise ConfigError("grid extent must satisfy x0 < x1 and y0 < y1")
    # finite differences need three nodes per axis
    nx, ny = (integer(spec[k], f"grid.{k}", 3) for k in ("nx", "ny"))
    return Grid.from_extent(x0, y0, x1, y1, nx, ny)


def _domain_from_spec(spec, grid: Grid) -> Domain:
    """The domain a config's `domain` section describes, on `grid`."""
    cls, numbers = build(DOMAIN_KINDS, spec, "domain")
    return cls(grid, *numbers)


def _kernels_from_spec(spec) -> tuple[Kernel, Kernel]:
    """The (observed, reference) kernels a config's `kernels` section
    describes; a reference left out is the driftless `{"kind": "brownian"}`."""
    require_keys(spec, ("observed", "reference"), ("observed",), "kernels")
    return (kernel_from_config(spec["observed"], "kernels.observed"),
            kernel_from_config(spec.get("reference", {"kind": "brownian"}), "kernels.reference"))


def default_ladder(radius: float, m: int = 4) -> np.ndarray:
    """Geometric ladder t_k = t1 / 2^{k-1} with t1 = 0.02 * radius^2."""
    t1 = 0.02 * radius * radius
    return t1 * 0.5 ** np.arange(m)


@dataclass(frozen=True)
class PipelineConfig:
    """A pipeline config, resolved once: making it builds and stores the
    grid, the domain, the time ladder and the observed kernel from the
    specs; a spec that cannot be built, a domain with no unknown
    (`Domain.has_unknown`), a ground truth unequal to the observed kernel,
    or a `kernels.reference` other than the driftless `{"kind": "brownian"}`,
    is a ConfigError.  `kernels` stays the section as given, the reference
    left out or not.  The defaults are `config_from_dict`'s, its maker's."""

    domain_spec: dict
    kernels: dict
    grid_spec: dict | None
    n_angles: int
    n_offsets: int
    ladder: tuple | None
    filter_name: str
    solver_tol: float
    solver_max_iter: int
    seed: int
    boundary_knots: int
    metric_fraction: float
    output_dir: str
    workers: int | None
    ground_truth: bool | dict | None
    _grid: Grid = dc_field(init=False, repr=False, compare=False)
    _domain: Domain = dc_field(init=False, repr=False, compare=False)
    _ladder: np.ndarray = dc_field(init=False, repr=False, compare=False)
    _observed: Kernel = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # the objects' own checks (a grid that holds the domain) refuse here
        # what the pipeline cannot run
        try:
            grid = (default_grid(self.domain_spec) if self.grid_spec is None
                    else _grid_from_spec(self.grid_spec))
            domain = _domain_from_spec(self.domain_spec, grid)
            # the time ladder and the FBP filter scale with the circumradius
            # squared: outside the normal floats they overflow or divide by 0
            r = domain.circumradius
            if not np.finfo(float).tiny <= r * r < np.inf:
                raise ConfigError(f"domain circumradius {r!r} is out of range: its square "
                                  "must be a positive normal float")
            if not domain.has_unknown():
                raise ConfigError(f"no node of the {grid.nx}x{grid.ny} grid lies inside the "
                                  "domain, clear of its boundary: the solve has no unknown")
            ladder = (default_ladder(domain.circumradius) if self.ladder is None
                      else np.array(self.ladder, dtype=float))
            ladder.setflags(write=False)
            observed, reference = _kernels_from_spec(self.kernels)
            # p0 of log(p / p0) = dpsi - t F is DRIFTLESS, the OU kernel at theta = 0
            if reference != DRIFTLESS:
                raise ConfigError("kernels.reference must be the driftless kernel of the observed "
                                  f'diffusion, {{"kind": "brownian"}}, or be left out; got {reference}')
            _check_ground_truth(self.ground_truth, observed)
        except DataError as exc:
            raise ConfigError(str(exc)) from exc
        for name, value in (("_grid", grid), ("_domain", domain), ("_ladder", ladder),
                            ("_observed", observed)):
            object.__setattr__(self, name, value)

    def resolved_grid(self) -> Grid:
        return self._grid

    def resolved_domain(self) -> Domain:
        return self._domain

    def resolved_ladder(self) -> np.ndarray:
        return self._ladder

    def echo(self) -> dict:
        grid = self._grid
        return {
            "domain": self.domain_spec,
            "grid": {"x0": grid.x0, "y0": grid.y0, "x1": grid.x1, "y1": grid.y1,
                     "nx": grid.nx, "ny": grid.ny},
            "geometry": {"n_angles": self.n_angles, "n_offsets": self.n_offsets},
            "ladder": [float(t) for t in self._ladder],
            "kernels": self.kernels,
            "filter": self.filter_name,
            "solver": {"tol": self.solver_tol, "max_iter": self.solver_max_iter},
            "seed": self.seed,
            "boundary_knots": self.boundary_knots,
            "metric_fraction": self.metric_fraction,
            "output_dir": self.output_dir,
        }


def config_from_dict(raw: dict, output_dir: str | None = None) -> PipelineConfig:
    """Strict parse: unknown keys are rejected, numbers are checked to be
    integral or finite and in range, defaults are filled, and `output_dir`
    (--out), when given, replaces the checked `output_dir` of `raw`.

    The config is resolved once, when the PipelineConfig is made.  The keys
    each domain and kernel kind takes, and the checks of its numbers, are
    declared in one table per section: `DOMAIN_KINDS` and
    `kernels.KERNEL_KINDS`; `specs.build` refuses a key its kind does not
    take.  `ground_truth` true, or a kernel spec equal to kernels.observed,
    scores the run against that kernel's drift; false, null or none, not.
    """
    require_keys(raw, raw, ("domain", "kernels"), "config")
    raw = dict(raw)  # each key is popped as it is read: the keys left are unknown
    geometry = raw.pop("geometry", {})
    require_keys(geometry, ("n_angles", "n_offsets"), (), "geometry")
    ladder = raw.pop("ladder", None)
    if ladder is not None:
        ladder = finite_list(ladder, "ladder")
        if len(ladder) < 3:
            raise ConfigError("ladder must hold at least 3 times")
        if any(t <= 0 for t in ladder):
            raise ConfigError("ladder times must be positive")
        if any(b >= a for a, b in zip(ladder, ladder[1:])):
            raise ConfigError("ladder times must be decreasing")
    filter_name = raw.pop("filter", "hann")
    if filter_name not in ("hann", "ram-lak"):
        raise ConfigError(f"unknown filter {filter_name!r}")
    solver = raw.pop("solver", {})
    require_keys(solver, ("tol", "max_iter"), (), "solver")
    metric_fraction = finite(raw.pop("metric_fraction", 0.8), "metric_fraction")
    if not 0.0 < metric_fraction <= 1.0:
        raise ConfigError(f"metric_fraction must lie in (0, 1], got {metric_fraction!r}")
    solver_tol = finite(solver.get("tol", 1e-10), "solver.tol")
    if solver_tol <= 0:
        raise ConfigError(f"solver.tol must be positive, got {solver_tol!r}")
    workers = raw.pop("workers", None)
    own_dir = raw.pop("output_dir", "out")
    if not isinstance(own_dir, str) or not own_dir:
        raise ConfigError(f"output_dir must be a non-empty string, got {own_dir!r}")
    fields = dict(
        domain_spec=raw.pop("domain"),
        kernels=raw.pop("kernels"),
        grid_spec=raw.pop("grid", None),
        n_angles=integer(geometry.get("n_angles", 180), "geometry.n_angles", 2),
        n_offsets=integer(geometry.get("n_offsets", 181), "geometry.n_offsets", 1),
        ladder=ladder,
        filter_name=filter_name,
        solver_tol=solver_tol,
        solver_max_iter=integer(solver.get("max_iter", 20000), "solver.max_iter", 1),
        seed=integer(raw.pop("seed", 0), "seed"),
        boundary_knots=integer(raw.pop("boundary_knots", 256), "boundary_knots", 1),
        metric_fraction=metric_fraction,
        output_dir=own_dir if output_dir is None else output_dir,
        workers=None if workers is None else integer(workers, "workers", 1),
        ground_truth=raw.pop("ground_truth", None),
    )
    require_keys(raw, (), (), "config")
    return PipelineConfig(**fields)


# ---------------------------------------------------------------------------
# Recovery operations
# ---------------------------------------------------------------------------


def psi_from_u(u: ScalarField, boundary_psi: BoundaryPsi, domain: Domain) -> ScalarField:
    """Drift potential log(u) at the solve's unknowns (`Domain.interior`);
    elsewhere, the boundary data extended along the projection onto the
    boundary (keeps finite differences sane near the edge).
    """
    inside = domain.interior(u.grid)
    lowest = float(u.values[inside].min())
    if lowest <= 0.0:
        raise DataError(
            f"cannot take log of the solution: min_u = {lowest:.6g} is not positive"
        )
    psi = np.empty(u.grid.shape)
    psi[inside] = np.log(u.values[inside])
    outside = u.grid.node_points().reshape(*u.grid.shape, 2)[~inside]
    psi[~inside] = boundary_psi.value_at(domain.project_to_boundary(outside))
    return ScalarField(u.grid, psi)


def drift_from_psi(psi: ScalarField, a: DiffusionField, domain: Domain | None = None) -> VectorField:
    """Drift c = a * grad(psi); zeroed off the solve's unknowns
    (`Domain.interior`) when a domain is given."""
    grad = gradient(psi).values
    cx = a.a11 * grad[..., 0] + a.a12 * grad[..., 1]
    cy = a.a12 * grad[..., 0] + a.a22 * grad[..., 1]
    c = np.stack([cx, cy], axis=-1)
    if domain is not None:
        c = np.where(domain.interior(psi.grid)[..., None], c, 0.0)
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


def gradient_consistency(c: VectorField, a: DiffusionField, domain: Domain) -> float:
    """L2 norm over the solve's unknowns, less their two outermost rings, of
    d_y (a^{-1} c)_1 - d_x (a^{-1} c)_2: the discrete test that a^{-1} c is
    a gradient field (zero for exact data).
    """
    g = c.grid
    det = a.a11 * a.a22 - a.a12**2
    w1 = (a.a22 * c.values[..., 0] - a.a12 * c.values[..., 1]) / det
    w2 = (-a.a12 * c.values[..., 0] + a.a11 * c.values[..., 1]) / det
    from .fields import _d1  # shared stencils with gradient()

    curl = _d1(w1, g.dy, 1) - _d1(w2, g.dx, 0)
    region = _erode(domain.interior(g), 2)
    return float(np.sqrt(np.sum(curl[region] ** 2) * g.cell_area))


# The report.json keys of the error metrics: drift_metrics' and the recover
# stage's curl_norm.
METRIC_KEYS = ("rel_l2", "max_abs", "n_metric_nodes", "curl_norm")


def drift_metrics(c_hat: VectorField, c_true_fn, domain: Domain, fraction: float) -> dict:
    """Error of c_hat against the true drift over the solve's unknowns
    (`Domain.interior`; c_hat is zero elsewhere) inside the domain shrunk
    by `fraction`."""
    region = domain.shrunk(fraction)
    g = c_hat.grid
    inside = region.contains(g.node_points()).reshape(g.shape) & domain.interior(g)
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
# Stages and artifacts
# ---------------------------------------------------------------------------
#
# A stage reads the config (its resolved grid, domain and observed kernel,
# and its (n_angles, n_offsets) raster) and the values earlier stages added
# to a dict, adds its outputs there and returns its report.json entries;
# `run_stages` runs, writes and reports a run of stages, for `run_pipeline`
# and for the CLI's stage subcommands alike.  Table entries, and the
# artifact readers that rebuild the chords (`_config_chords`), call
# functions by their module-level names at call time, with the file path
# first, so wrappers installed on those names (the benchmark's tracer, which
# reads the file size from that path) see every call.


def _gen_data(cfg: PipelineConfig, v: dict) -> dict:
    dataset = v["dataset"] = build_boundary_dataset(
        cfg._observed, cfg._domain, (cfg.n_angles, cfg.n_offsets), cfg._ladder)
    return {"n_chords": dataset.n_chords,
            "n_lines_skipped": cfg.n_angles * cfg.n_offsets - dataset.n_chords}


def _fit(cfg: PipelineConfig, v: dict) -> dict:
    fits, excluded = fit_dataset(v["dataset"])
    v["fits"], v["chords"] = fits, v["dataset"].chords
    residuals = fits.residual[fits.ok]
    return {"n_chords_excluded": len(excluded),
            "fit_residual_median": float(np.median(residuals)) if len(residuals) else 0.0,
            "fit_residual_max": float(residuals.max()) if len(residuals) else 0.0}


def _sinogram(cfg: PipelineConfig, v: dict) -> dict:
    sino = v["sinogram"] = sinogram_from_fits(v["fits"], v["chords"],
                                              (cfg.n_angles, cfg.n_offsets), cfg._domain)
    return {"sinogram_masked_bins": int((~sino.mask).sum())}


def _invert(cfg: PipelineConfig, v: dict) -> dict:
    v["V_hat"] = fbp_invert(v["sinogram"], cfg._grid, cfg.filter_name, cfg._domain)
    return {}


def _solve(cfg: PipelineConfig, v: dict) -> dict:
    """Dirichlet solve of 1/2 a:D2 u = V_hat u, u = exp(psi) on the boundary,
    for psi_hat = log(u); a = I, every kernel's, is constant, so
    div(a grad(u)) = a:D2 u and there is no first-order term."""
    domain = cfg._domain
    # no later step reads the chord and fit tables: free them once read
    bpsi = boundary_psi_from_fits(v.pop("chords"), v.pop("fits"), domain,
                                  n_knots=cfg.boundary_knots)
    system = assemble_dirichlet_system(DiffusionField(), v["V_hat"], domain,
                                       boundary_values_from_psi(bpsi))
    solution = solve_bvp(system, tol=cfg.solver_tol, max_iter=cfg.solver_max_iter)
    v["u"], v["psi_hat"] = solution.u, psi_from_u(solution.u, bpsi, domain)
    return {"solver_residual": solution.residual_norm,
            "solver_iterations": solution.iterations,
            "min_u": solution.min_u,
            "boundary_knots_missing": bpsi.n_missing}


def _recover(cfg: PipelineConfig, v: dict) -> dict:
    """Drift and its curl; error metrics (v["metrics"]) against the observed
    kernel's drift when the config asks for them, else None."""
    domain, a = cfg._domain, DiffusionField()
    c_hat = v["c_hat"] = drift_from_psi(v["psi_hat"], a, domain)
    curl = gradient_consistency(c_hat, a, domain)
    v["metrics"] = None
    if cfg.ground_truth:
        v["metrics"] = drift_metrics(c_hat, cfg._observed.drift, domain, cfg.metric_fraction)
        v["metrics"]["curl_norm"] = curl
    return {"curl_norm": curl}


class Stage(NamedTuple):
    run: Callable[[PipelineConfig, dict], dict]
    inputs: tuple[str, ...]  # ARTIFACTS it reads
    outputs: tuple[str, ...]  # ARTIFACTS it adds
    keys: tuple[str, ...]  # report.json entries it sets
    settings: tuple[str, ...] = ()  # config keys that no earlier stage reads


# In chain order: each stage's inputs are outputs of earlier ones.
STAGES = {
    "gen-data": Stage(_gen_data, (), ("dataset",), ("n_chords", "n_lines_skipped")),
    "fit": Stage(_fit, ("dataset",), ("fits",),
                 ("n_chords_excluded", "fit_residual_median", "fit_residual_max")),
    "sinogram": Stage(_sinogram, ("fits",), ("sinogram",), ("sinogram_masked_bins",)),
    "invert": Stage(_invert, ("sinogram",), ("V_hat",), (), ("filter",)),
    "solve": Stage(_solve, ("V_hat", "fits"), ("u", "psi_hat"),
                   ("solver_residual", "solver_iterations", "min_u", "boundary_knots_missing"),
                   ("solver", "boundary_knots")),
    "recover": Stage(_recover, ("psi_hat",), ("c_hat",), METRIC_KEYS, ("metric_fraction",)),
}


def _config_chords(cfg: PipelineConfig):
    """The chord table of the config's raster, on which dataset.npz (the
    chain's handoff), fits.npy and dataset.csv (--data's text) place chords."""
    return make_parallel_chords(cfg._domain, cfg.n_angles, cfg.n_offsets)[0]


def _read_fits(cfg: PipelineConfig, path) -> dict:
    chords = _config_chords(cfg)
    return {"chords": chords, "fits": read_fits_csv(path, chords, (cfg.n_angles, cfg.n_offsets))}


def _write_c_hat(cfg: PipelineConfig, v: dict, path_x, path_y) -> None:
    c_hat = v["c_hat"]
    write_dgf(path_x, ScalarField(c_hat.grid, c_hat.values[..., 0]))
    write_dgf(path_y, ScalarField(c_hat.grid, c_hat.values[..., 1]))


class Artifact(NamedTuple):
    files: tuple[str, ...]
    option: str | None  # CLI option naming the file a stage reads; None: never read
    read: Callable[[PipelineConfig, Path], dict] | None  # -> values to add
    write: Callable[..., None]  # (cfg, values, *paths)


ARTIFACTS = {
    "dataset": Artifact(
        ("dataset.npz",), "--data",
        lambda cfg, p: {"dataset": read_dataset_csv(p, _config_chords(cfg),
                                                    (cfg.n_angles, cfg.n_offsets))},
        lambda cfg, v, p: write_dataset_csv(p, v["dataset"], (cfg.n_angles, cfg.n_offsets))),
    "fits": Artifact(("fits.npy",), "--fits", _read_fits,
                     lambda cfg, v, p: write_fits_csv(p, v["chords"], v["fits"],
                                                      (cfg.n_angles, cfg.n_offsets))),
    "sinogram": Artifact(("sinogram.npz",), "--sinogram",
                         lambda cfg, p: {"sinogram": read_sinogram_csv(p)},
                         lambda cfg, v, p: write_sinogram_csv(p, v["sinogram"])),
    "V_hat": Artifact(("V_hat.dgf",), "--vhat", lambda cfg, p: {"V_hat": read_dgf(p)},
                      lambda cfg, v, p: write_dgf(p, v["V_hat"])),
    "u": Artifact(("u.dgf",), None, None, lambda cfg, v, p: write_dgf(p, v["u"])),
    "psi_hat": Artifact(("psi_hat.dgf",), "--psi", lambda cfg, p: {"psi_hat": read_dgf(p)},
                        lambda cfg, v, p: write_dgf(p, v["psi_hat"])),
    "c_hat": Artifact(("c_hat_x.dgf", "c_hat_y.dgf"), None, None, _write_c_hat),
}


def make_output_dir(path: Path) -> Path:
    """Create the output directory (and its parents) before any stage runs;
    a path that cannot be a directory is a config error."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc.strerror}") from exc
    return path


@contextmanager
def writing(path):
    """An OSError while writing output files is a config error naming the
    file (`path` when the error names none)."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {exc.filename or path}: {exc.strerror or exc}") from exc


def _section_differs(cfg: PipelineConfig, key: str, old, new) -> bool:
    """Whether an earlier run's config section `old` differs from this
    config's `new`.  Domain and kernels compare by what they resolve to on
    the config's grid, not as written; one that does not resolve differs."""
    resolve = {"domain": lambda spec: _domain_from_spec(spec, cfg._grid),
               "kernels": _kernels_from_spec}.get(key)
    if resolve is None:
        return old != new
    try:
        return resolve(old) != resolve(new)
    except DriftscopeError:
        return True


def _earlier_stage_seconds(report: dict, first: str) -> dict:
    """The stage times an earlier run's report.json holds for the stages
    before `first`."""
    meta = report.get("meta")
    old = meta.get("stages") if isinstance(meta, dict) else None
    if not isinstance(old, dict):
        return {}
    earlier = list(STAGES)[:list(STAGES).index(first)]
    return {name: old[name] for name in earlier
            if isinstance(old.get(name), (int, float)) and not isinstance(old[name], bool)}


def run_stages(names, cfg: PipelineConfig, values: dict, report: dict,
               out: Path | None = None, inputs: dict | None = None) -> list[Path]:
    """Run the consecutive stages `names` on `values`, which they extend,
    after reading `inputs` (artifact -> file; a missing file is a DataError)
    into it; a DriftscopeError from reading or running is tagged
    `[stage <name>]`.  A `report` that holds a `config` (an earlier run's
    report.json) must hold `cfg.echo()` but for `output_dir` and the
    settings of the first stage and later ones: else a ConfigError names
    the first key that differs.  Domain and kernels compare by what they
    resolve to (`_section_differs`), so a kernels.reference left out
    equals the driftless one given, and a rate "1" equals 1.0.  After
    each stage: the entries of it and of every later stage are dropped from
    `report`, report.json less config and meta, and its own merged in; with
    `out`, made first, the files of every later stage's outputs are removed
    and its outputs and report.json written there (an OSError is a
    ConfigError naming the file), with the wall time of each stage so far,
    reading its inputs to writing its outputs, under meta.stages (a stage
    keeps the earlier stages' times of `report`'s meta and drops the later
    ones'); and every artifact that no later stage reads and a
    ReconstructionReport does not return is dropped.  Returns the paths
    written."""
    from . import parallel

    if cfg.workers is not None:
        parallel.set_workers(cfg.workers)
    if out is not None:
        make_output_dir(out)
    names, written = list(names), []
    seconds = _earlier_stage_seconds(report, names[0])
    for i, name in enumerate(names):
        later = list(STAGES)[list(STAGES).index(name):]  # this stage and every later one
        start = time.perf_counter()
        try:
            if i == 0 and "config" in report:  # an earlier run's
                old = report["config"] if isinstance(report["config"], dict) else {}
                ignored = {"output_dir", *(key for stage in later for key in STAGES[stage].settings)}
                for key, value in cfg.echo().items():
                    if key not in ignored and _section_differs(cfg, key, old.get(key), value):
                        raise ConfigError(f"{out / 'report.json' if out else 'report.json'} holds a "
                                          f"run of another config: {key!r} differs; gen-data "
                                          "starts a new run")
            for artifact, path in (inputs or {}).items():
                if not Path(path).is_file():
                    raise DataError(f"input file not found: {path}")
                values.update(ARTIFACTS[artifact].read(cfg, path))
            inputs = None  # read once, before the first stage
            entries = STAGES[name].run(cfg, values)
        except DriftscopeError as exc:
            exc.args = (f"[stage {name}] {exc.args[0] if exc.args else ''}",)
            raise
        for key in (key for stage in later for key in STAGES[stage].keys):
            report.pop(key, None)
        report.update(entries)
        if out is not None:
            with writing(out):
                for artifact in (a for stage in later[1:] for a in STAGES[stage].outputs):
                    for file in ARTIFACTS[artifact].files:
                        (out / file).unlink(missing_ok=True)
                written += write_artifacts(out, STAGES[name].outputs, values, cfg)
                seconds[name] = time.perf_counter() - start
                write_report_json(out / "report.json", report, values.get("metrics"), cfg.echo(),
                                  seconds)
        kept = {a for stage in names[i + 1:] for a in STAGES[stage].inputs}
        kept |= {f.name for f in fields(ReconstructionReport)}  # V_hat, u, psi_hat, c_hat
        for artifact in ARTIFACTS.keys() - kept:
            values.pop(artifact, None)
    return written if out is None else written + [out / "report.json"]


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


def run_pipeline(cfg: PipelineConfig, out_dir: str | Path | None = None, persist: bool = True,
                 kernels: tuple[Kernel, Kernel] | None = None) -> ReconstructionReport:
    """Run every stage in memory, in chain order, through `run_stages`.

    With persist, each stage's output artifacts and report.json are written
    into out_dir (default cfg.output_dir) as soon as the stage finishes, as
    the CLI's stage subcommands write them: a stage that fails leaves the
    earlier stages' files and their report behind, as the chain does.  The
    dataset and the sinogram are dropped once read, and solve frees the
    chord and fit tables once boundary-psi has read them.

    kernels (optional): the (observed, reference) pair of kernel objects a
    caller has built from the config.  The stages run the config's own
    kernels, which report.json echoes, so any pair but (the config's
    observed kernel, `DRIFTLESS`) is a ConfigError.
    """
    if kernels is not None and tuple(kernels) != (cfg._observed, DRIFTLESS):
        raise ConfigError(f"kernels {tuple(kernels)} are not the config's own (observed, "
                          f"reference) pair ({cfg._observed}, {DRIFTLESS})")
    values, diagnostics = {}, {}
    run_stages(STAGES, cfg, values, diagnostics,
               Path(out_dir if out_dir is not None else cfg.output_dir) if persist else None)
    return ReconstructionReport(
        psi_hat=values["psi_hat"], V_hat=values["V_hat"], c_hat=values["c_hat"],
        u=values["u"], metrics=values["metrics"], diagnostics=diagnostics, config=cfg.echo(),
    )


def write_artifacts(out: Path, artifacts, values: dict, cfg: PipelineConfig) -> list[Path]:
    """Write the named artifacts from `values` into `out`; returns the paths."""
    written = []
    for name in artifacts:
        paths = [out / f for f in ARTIFACTS[name].files]
        ARTIFACTS[name].write(cfg, values, *paths)
        written += paths
    return written


def write_report_json(path, diagnostics: dict, metrics: dict | None, config: dict,
                      stage_seconds: dict) -> None:
    payload: dict = dict(diagnostics)
    if metrics is not None:
        payload.update(metrics)
    payload["config"] = config
    payload["meta"] = {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
                       "version": __version__, "stages": dict(stage_seconds)}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
