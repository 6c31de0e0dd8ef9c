"""Command-line front end.

Each stage of the reconstruction (`recover.STAGES`: gen-data, fit, sinogram,
invert, solve, recover) is a subcommand that takes --config, --out (in
place of the config's output_dir), -v and an option per input file.  It
reads its inputs from <out> (or the files its options name) and
<out>/report.json, and runs through `recover.run_stages`, as `pipeline`
runs every stage: the runner writes the stage's outputs there, removes
later stages' files and merges its diagnostics into report.json in place
of theirs.  gen-data starts a new report, so the chain's final report
equals the one `pipeline` writes, and a failing `pipeline` leaves the
chain's files.  dataset.npz, fits.npy and sinogram.npz are numpy binaries
on the (angle, offset) raster; `fit --data` also takes dataset.csv,
observed data as CSV text naming each chord by its (angle_index,
offset_index), told by its first bytes.  fit, sinogram and solve rebuild
the config's chord table, which knows its raster, and read their files
against it, ignoring rows and cells off its chords.  Grids are DGF1
files.  Exit codes: 0 success, 2 config error (sizes too large for the
memory, a domain too large or too small for floats, an output directory
that cannot be created, an output file that cannot be written and a
report.json of another config's run included), 3 data error (a missing
input file included), 4 solver/simulation error.

scipy is loaded only by the subcommands that solve (solve, pipeline and
check), and of it only `scipy.sparse`: the Krylov loop is numpy, so no
subcommand loads `scipy.sparse.linalg` or `scipy.linalg`.  gen-data, fit,
sinogram, invert, recover and phantom start without scipy.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, DriftscopeError, SimulationError, SolverError
from .fields import Grid, write_dgf
from .recover import (
    ARTIFACTS,
    STAGES,
    PipelineConfig,
    config_from_dict,
    make_output_dir,
    run_pipeline,
    run_stages,
    writing,
)
from .xray import Sinogram, write_sinogram_csv


def _json_object(path: Path, error: type[DriftscopeError]) -> dict:
    """The JSON object a file holds; `error` when it holds anything else."""
    try:
        raw = json.loads(path.read_text())
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON or nested too deep
        raise error(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise error(f"{path}: must hold a JSON object")
    return raw


def parse_config(path, output_dir: str | None = None) -> PipelineConfig:
    """Load and strictly validate a JSON pipeline configuration (`config_from_dict`)."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    return config_from_dict(_json_object(p, ConfigError), output_dir)


def _run_stage(name: str, cfg: PipelineConfig, args) -> int:
    """Run one stage on the files its options name (default <out>/<file>)
    and on <out>/report.json, which gen-data, reading no input, starts anew."""
    out = Path(cfg.output_dir)
    inputs = {artifact: Path(getattr(args, ARTIFACTS[artifact].option.lstrip("-"))
                             or out / ARTIFACTS[artifact].files[0])
              for artifact in STAGES[name].inputs}
    report_path = out / "report.json"
    report = _json_object(report_path, DataError) if inputs and report_path.is_file() else {}
    written = run_stages([name], cfg, {}, report, out, inputs)
    print("wrote " + ", ".join(map(str, written)))
    return 0


def cmd_gen_data(cfg: PipelineConfig, args) -> int:
    return _run_stage("gen-data", cfg, args)


def cmd_fit(cfg: PipelineConfig, args) -> int:
    return _run_stage("fit", cfg, args)


def cmd_sinogram(cfg: PipelineConfig, args) -> int:
    return _run_stage("sinogram", cfg, args)


def cmd_invert(cfg: PipelineConfig, args) -> int:
    return _run_stage("invert", cfg, args)


def cmd_solve(cfg: PipelineConfig, args) -> int:
    return _run_stage("solve", cfg, args)


def cmd_recover(cfg: PipelineConfig, args) -> int:
    return _run_stage("recover", cfg, args)


def cmd_pipeline(cfg: PipelineConfig, args) -> int:
    report = run_pipeline(cfg)
    out = Path(cfg.output_dir)
    if report.metrics is not None:
        print(f"rel_l2: {report.metrics['rel_l2']}")
    print(f"wrote artifacts to {out}/ (report.json, V_hat.dgf, c_hat_*.dgf, ...)")
    return 0


def cmd_phantom(args) -> int:
    from .smalltime import chord_angles, chord_offsets
    from .xray import disc_indicator, disc_indicator_sinogram, radial_gaussian, radial_gaussian_sinogram

    for option, value, least in (("--n", args.n, 2), ("--angles", args.angles, 1),
                                 ("--offsets", args.offsets, 1)):
        if value < least:
            raise ConfigError(f"{option} must be at least {least}, got {value}")
    if not args.width > 0:  # a disc's field would use |width|, its sinogram width
        raise ConfigError(f"--width must be positive, got {args.width}")
    if not np.finfo(float).tiny <= args.width * args.width < np.inf:  # the fields use width**2
        raise ConfigError(f"--width {args.width!r} is out of range: its square must be a "
                          "positive normal float")
    if not np.isfinite(args.amplitude):
        raise ConfigError(f"--amplitude must be finite, got {args.amplitude}")
    make_field, make_sinogram = {"radial-gaussian": (radial_gaussian, radial_gaussian_sinogram),
                                 "disc": (disc_indicator, disc_indicator_sinogram)}[args.kind]
    angles = chord_angles(args.angles)
    offsets = chord_offsets(1.0, args.offsets)
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        sino_vals = make_sinogram(offsets, angles, args.width, args.amplitude)
    # the field's values are at most |amplitude|, but its line integrals
    # grow with the width and may leave the float range
    if not np.all(np.isfinite(sino_vals)):
        raise ConfigError(f"--amplitude {args.amplitude!r} with --width {args.width!r} gives "
                          "line integrals beyond the float range")
    out = make_output_dir(Path(args.out or "out"))
    grid = Grid.from_extent(-1.15, -1.15, 1.15, 1.15, args.n, args.n)
    sino = Sinogram(sino_vals, np.ones_like(sino_vals, dtype=bool), 1.0)
    with writing(out):
        write_dgf(out / "phantom.dgf", make_field(grid, args.width, args.amplitude))
        write_sinogram_csv(out / "phantom_sinogram.npz", sino)
    print(f"wrote {out / 'phantom.dgf'} and {out / 'phantom_sinogram.npz'}")
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


@functools.cache  # built once per process, however many commands it runs
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="driftscope",
                                 description="Drift reconstruction from exterior transition densities.")
    sub = ap.add_subparsers(dest="command", required=True)

    for name in (*STAGES, "pipeline"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("-v", "--verbose", action="store_true")
        for artifact in STAGES[name].inputs if name in STAGES else ():
            option, file = ARTIFACTS[artifact].option, ARTIFACTS[artifact].files[0]
            also = ", or observed data as dataset.csv text" if artifact == "dataset" else ""
            p.add_argument(option, help=f"input {file}{also} (default <out>/{file})")

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
    with warnings.catch_warnings():
        if not getattr(args, "verbose", False):
            warnings.simplefilter("ignore")
        try:
            if getattr(args, "out", None) == "":  # as "output_dir": "" is
                raise ConfigError("--out must name a directory, got ''")
            if args.command == "phantom":
                return cmd_phantom(args)
            if args.command == "check":
                return cmd_check(args)
            cfg = parse_config(args.config, args.out)
            return _STAGE_COMMANDS[args.command](cfg, args)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        except MemoryError as exc:  # sizes in the config that no memory holds
            print(f"config error: out of memory: {str(exc) or 'MemoryError'}", file=sys.stderr)
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
