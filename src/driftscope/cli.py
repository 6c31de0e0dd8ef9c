"""Command-line front end.

Each pipeline stage is a subcommand whose outputs are sufficient inputs for
the next one; `pipeline` composes them all in-process.  Artifacts are plain
CSV and DGF1 files.  Exit codes: 0 success, 2 config error, 3 data error,
4 solver/simulation error.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from . import parallel
from .errors import ConfigError, DataError, DriftscopeError, SimulationError, SolverError
from .fields import DiffusionField, Grid, ScalarField, VectorField, read_dgf, write_dgf
from .recover import (
    PipelineConfig,
    boundary_psi_from_fits,
    config_from_dict,
    drift_from_psi,
    drift_metrics,
    gradient_consistency,
    ground_truth_from_config,
    psi_from_u,
    run_pipeline,
    write_report_json,
)
from .elliptic import assemble_dirichlet_system, boundary_values_from_psi, solve_bvp
from .kernels import kernel_from_config
from .smalltime import (
    build_boundary_dataset,
    fit_dataset,
    make_parallel_chords,
    read_dataset_csv,
    read_fits_csv,
    write_dataset_csv,
    write_fits_csv,
)
from .xray import (
    Sinogram,
    fbp_invert,
    read_sinogram_csv,
    sinogram_from_fits,
    write_sinogram_csv,
)


def parse_config(path) -> PipelineConfig:
    """Load and strictly validate a JSON pipeline configuration."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{p}: config must be a JSON object")
    return config_from_dict(raw)


def _apply_overrides(cfg: PipelineConfig, args) -> PipelineConfig:
    import dataclasses

    updates = {}
    if getattr(args, "out", None):
        updates["output_dir"] = args.out
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
    if getattr(args, "workers", None) is not None:
        if args.workers < 1:
            raise ConfigError(f"--workers must be at least 1, got {args.workers}")
        updates["workers"] = args.workers
    return dataclasses.replace(cfg, **updates) if updates else cfg


def _outdir(cfg: PipelineConfig) -> Path:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _aligned_fits(cfg: PipelineConfig, fits_path):
    """Chord table rebuilt from the config geometry, with the fits read
    row-aligned to it."""
    domain = cfg.resolved_domain()
    chords, _ = make_parallel_chords(domain, cfg.n_angles, cfg.n_offsets)
    return domain, chords, read_fits_csv(fits_path, chords)


def cmd_gen_data(cfg: PipelineConfig, args) -> int:
    out = _outdir(cfg)
    observed = kernel_from_config(cfg.kernels["observed"])
    reference = kernel_from_config(cfg.kernels["reference"])
    dataset = build_boundary_dataset(
        observed, reference, cfg.resolved_domain(), (cfg.n_angles, cfg.n_offsets),
        cfg.resolved_ladder(), floor=cfg.density_floor,
    )
    write_dataset_csv(out / "dataset.csv", dataset)
    print(f"wrote {out / 'dataset.csv'} ({dataset.n_chords} chords x {len(dataset.times)} times)")
    return 0


def cmd_fit(cfg: PipelineConfig, args) -> int:
    out = _outdir(cfg)
    data_path = Path(args.data) if args.data else out / "dataset.csv"
    dataset = read_dataset_csv(data_path, floor=cfg.density_floor)
    fits, excluded = fit_dataset(dataset)
    write_fits_csv(out / "fits.csv", dataset.chords, fits)
    print(f"wrote {out / 'fits.csv'} ({int(fits.ok.sum())} fits, "
          f"{len(excluded)} chords excluded)")
    return 0


def cmd_sinogram(cfg: PipelineConfig, args) -> int:
    out = _outdir(cfg)
    fits_path = Path(args.fits) if args.fits else out / "fits.csv"
    domain, chords, fits = _aligned_fits(cfg, fits_path)
    sino = sinogram_from_fits(fits, chords, (cfg.n_angles, cfg.n_offsets), domain)
    write_sinogram_csv(out / "sinogram.csv", sino)
    print(f"wrote {out / 'sinogram.csv'} ({sino.n_angles} x {sino.n_offsets})")
    return 0


def cmd_invert(cfg: PipelineConfig, args) -> int:
    out = _outdir(cfg)
    sino_path = Path(args.sinogram) if args.sinogram else out / "sinogram.csv"
    sino = read_sinogram_csv(sino_path)
    V_hat = fbp_invert(sino, cfg.resolved_grid(), cfg.filter_name, cfg.resolved_domain())
    write_dgf(out / "V_hat.dgf", V_hat)
    print(f"wrote {out / 'V_hat.dgf'}")
    return 0


def cmd_solve(cfg: PipelineConfig, args) -> int:
    from .recover import solve_stage

    out = _outdir(cfg)
    vhat_path = Path(args.vhat) if args.vhat else out / "V_hat.dgf"
    fits_path = Path(args.fits) if args.fits else out / "fits.csv"
    V_hat = read_dgf(vhat_path)
    domain, chords, fits = _aligned_fits(cfg, fits_path)
    solution, system, psi_hat, _ = solve_stage(cfg, V_hat, chords, fits, domain)
    write_dgf(out / "u.dgf", solution.u)
    write_dgf(out / "psi_hat.dgf", psi_hat)
    with open(out / "solve_diagnostics.csv", "w") as fh:
        fh.write("residual,iterations,min_u,peclet_max\n")
        fh.write(f"{solution.residual_norm!r},{solution.iterations},"
                 f"{solution.min_u!r},{system.peclet_max!r}\n")
    print(f"wrote {out / 'u.dgf'}, {out / 'psi_hat.dgf'} "
          f"(residual {solution.residual_norm:.2e}, min_u {solution.min_u:.4g})")
    return 0


def cmd_recover(cfg: PipelineConfig, args) -> int:
    out = _outdir(cfg)
    psi_path = Path(args.psi) if args.psi else out / "psi_hat.dgf"
    psi_hat = read_dgf(psi_path)
    domain = cfg.resolved_domain()
    a = DiffusionField.identity(psi_hat.grid)
    c_hat = drift_from_psi(psi_hat, a, domain)
    curl = gradient_consistency(c_hat, a, domain)
    write_dgf(out / "c_hat_x.dgf", ScalarField(psi_hat.grid, c_hat.values[..., 0]))
    write_dgf(out / "c_hat_y.dgf", ScalarField(psi_hat.grid, c_hat.values[..., 1]))
    diagnostics = {"curl_norm": curl}
    metrics = None
    gt = ground_truth_from_config(cfg.ground_truth)
    if gt is not None:
        metrics = drift_metrics(c_hat, gt["c"], domain, cfg.metric_fraction)
        metrics["curl_norm"] = curl
    write_report_json(out / "report.json", diagnostics, metrics, cfg.echo())
    print(f"wrote {out / 'c_hat_x.dgf'}, {out / 'c_hat_y.dgf'}, {out / 'report.json'}")
    return 0


def cmd_pipeline(cfg: PipelineConfig, args) -> int:
    report = run_pipeline(cfg)
    out = Path(cfg.output_dir)
    if report.metrics is not None:
        print(f"rel_l2: {report.metrics['rel_l2']}")
    print(f"wrote artifacts to {out}/ (report.json, V_hat.dgf, c_hat_*.dgf, ...)")
    return 0


def cmd_phantom(args) -> int:
    from .fields import DiscDomain
    from .smalltime import chord_angles, chord_offsets
    from .xray import disc_indicator, disc_indicator_sinogram, radial_gaussian, radial_gaussian_sinogram

    out = Path(args.out or "out")
    out.mkdir(parents=True, exist_ok=True)
    n = args.n
    grid = Grid.from_extent(-1.15, -1.15, 1.15, 1.15, n, n)
    angles = chord_angles(args.angles)
    offsets = chord_offsets(1.0, args.offsets)
    if args.kind == "radial-gaussian":
        field = radial_gaussian(grid, args.width, args.amplitude)
        sino_vals = radial_gaussian_sinogram(offsets, angles, args.width, args.amplitude)
    elif args.kind == "disc":
        field = disc_indicator(grid, args.width, args.amplitude)
        sino_vals = disc_indicator_sinogram(offsets, angles, args.width, args.amplitude)
    else:
        raise ConfigError(f"unknown phantom kind {args.kind!r}")
    write_dgf(out / "phantom.dgf", field)
    sino = Sinogram(angles, offsets, sino_vals, np.ones_like(sino_vals, dtype=bool), 1.0)
    write_sinogram_csv(out / "phantom_sinogram.csv", sino)
    print(f"wrote {out / 'phantom.dgf'} and {out / 'phantom_sinogram.csv'}")
    return 0


def cmd_check(args) -> int:
    """Built-in self verification against independent oracles."""
    from .check import run_checks

    results = run_checks()
    width = max(len(name) for name, _, _ in results)
    all_ok = True
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        all_ok &= ok
        print(f"{name:<{width}}  {status}  {detail}")
    print(f"{'overall':<{width}}  {'PASS' if all_ok else 'FAIL'}")
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="driftscope",
                                 description="Drift reconstruction from exterior transition densities.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p, config_required=True):
        p.add_argument("--config", required=config_required, help="JSON config file")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--seed", type=int, help="seed override")
        p.add_argument("--workers", type=int, help="worker count override")
        p.add_argument("-v", "--verbose", action="store_true")

    for name in ("gen-data", "pipeline"):
        add_common(sub.add_parser(name))
    p = sub.add_parser("fit")
    add_common(p)
    p.add_argument("--data", help="dataset CSV (default <out>/dataset.csv)")
    p = sub.add_parser("sinogram")
    add_common(p)
    p.add_argument("--fits", help="fits CSV (default <out>/fits.csv)")
    p = sub.add_parser("invert")
    add_common(p)
    p.add_argument("--sinogram", help="sinogram CSV (default <out>/sinogram.csv)")
    p = sub.add_parser("solve")
    add_common(p)
    p.add_argument("--vhat", help="potential DGF1 (default <out>/V_hat.dgf)")
    p.add_argument("--fits", help="fits CSV (default <out>/fits.csv)")
    p = sub.add_parser("recover")
    add_common(p)
    p.add_argument("--psi", help="potential-log DGF1 (default <out>/psi_hat.dgf)")

    p = sub.add_parser("phantom")
    p.add_argument("--kind", default="radial-gaussian", choices=["radial-gaussian", "disc"])
    p.add_argument("--width", type=float, default=0.45)
    p.add_argument("--amplitude", type=float, default=1.0)
    p.add_argument("--n", type=int, default=129)
    p.add_argument("--angles", type=int, default=180)
    p.add_argument("--offsets", type=int, default=181)
    p.add_argument("--out")
    p.add_argument("-v", "--verbose", action="store_true")

    p = sub.add_parser("check")
    p.add_argument("-v", "--verbose", action="store_true")
    return ap


_STAGE_COMMANDS = {
    "gen-data": cmd_gen_data,
    "fit": cmd_fit,
    "sinogram": cmd_sinogram,
    "invert": cmd_invert,
    "solve": cmd_solve,
    "recover": cmd_recover,
    "pipeline": cmd_pipeline,
}


def run_command(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if not getattr(args, "verbose", False):
            warnings.simplefilter("ignore")
        if args.command == "phantom":
            return cmd_phantom(args)
        if args.command == "check":
            return cmd_check(args)
        cfg = _apply_overrides(parse_config(args.config), args)
        if cfg.workers is not None:
            parallel.set_workers(cfg.workers)
        return _STAGE_COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (SolverError, SimulationError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 4
    except DriftscopeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
