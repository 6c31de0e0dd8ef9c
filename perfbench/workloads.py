"""The benchmark's workloads: inputs, one operation each, and output checks.

Every workload uses the OU(theta=1) observed kernel against a Brownian
reference, OU ground truth, the default time ladder and the `hann` filter.
Nothing here imports numpy or driftscope at module level: `setup` does, so
the set-up time it reports includes those imports.

A workload has `setup(size, seed, workers) -> state`, `op(state, k) ->
Outcome`, `warmup_state(state)` and `warmup(warm_state) -> Outcome` for the
one untimed operation before timing, and `check(state, outcome, reference)`,
which raises `CheckFailed` when the output is wrong.  `reference` is the
seed value of rel_l2 for the state's size.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

KERNELS = {"observed": {"kind": "ou", "theta": 1.0}, "reference": {"kind": "brownian"}}
GROUND_TRUTH = {"kind": "ou", "theta": 1.0}
DISC = {"kind": "disc", "radius": 1.0}
RECTANGLE = {"kind": "rectangle", "corners": [[-1.0, -0.7], [1.0, 0.7]]}

# Reconstructions are deterministic: a rel_l2 above the seed value by more
# than this share is a changed answer, not an ulp-level drift.
RECON_REL_TOL = 1e-3
# fk-exit's rel_l2 is a Monte Carlo error: it may exceed the seed value by
# this share plus three times the operation's own sampling error of rel_l2.
FK_REL_TOL = 0.25

STAGES = ("gen-data", "fit", "sinogram", "invert", "solve", "recover")

# fk-exit start points sit near the rectangle's boundary, where the
# O(sqrt(h)) exit-time bias is about six times the sampling error of 20,000
# paths, so rel_l2 tracks the method's error rather than the seed's noise.
FK_POINTS = ((0.93, 0.0), (-0.9, 0.45), (0.0, 0.63), (0.5, -0.62))
FK_H = 5e-4


class CheckFailed(Exception):
    """An operation's output failed its check."""


@dataclass
class Outcome:
    rel_l2: float
    detail: dict = field(default_factory=dict)


def _check_rel_l2(value: float, reference: float, tol: float, slack: float = 0.0) -> None:
    if not math.isfinite(value):
        raise CheckFailed(f"rel_l2 is {value}")
    if value > reference * (1.0 + tol) + slack:
        raise CheckFailed(f"rel_l2 {value!r} exceeds the seed value {reference!r} "
                          f"by more than {tol:.1%} + {slack:.3g}")


def _recon_setup(domain: dict, sizes: dict, size: str, seed: int, workers: int) -> dict:
    """Parse and validate a pipeline config, resolve its grid, domain and
    ladder and build its kernels.  sizes[size] is (angles, grid nodes across
    the domain's long side); the grid is the default one at that count."""
    from driftscope.kernels import kernel_from_config
    from driftscope.recover import config_from_dict, default_grid

    chords, grid_n = sizes[size]
    g = default_grid(domain, grid_n)
    raw = {
        "domain": domain,
        "kernels": KERNELS,
        "grid": {"x0": g.x0, "y0": g.y0, "x1": g.x1, "y1": g.y1, "nx": g.nx, "ny": g.ny},
        "geometry": {"n_angles": chords, "n_offsets": chords + 1},
        "filter": "hann",
        "ground_truth": GROUND_TRUTH,
        "seed": seed,
        "workers": workers,
    }
    cfg = config_from_dict(raw)
    cfg.resolved_grid()
    cfg.resolved_ladder()
    return {
        "size": size,
        "raw": raw,
        "cfg": cfg,
        "domain": cfg.resolved_domain(),
        "kernels": (kernel_from_config(cfg.kernels["observed"]),
                    kernel_from_config(cfg.kernels["reference"])),
    }


def _run_pipeline(state) -> float:
    from driftscope import recover

    report = recover.run_pipeline(state["cfg"], persist=False, kernels=state["kernels"])
    return report.metrics["rel_l2"]


class Pipeline:
    """In-process `recover.run_pipeline(persist=False)` on one domain."""

    def __init__(self, name: str, domain: dict, sizes: dict):
        self.name, self.domain, self.sizes = name, domain, sizes

    def setup(self, size, seed, workers):
        return _recon_setup(self.domain, self.sizes, size, seed, workers)

    def warmup_state(self, state):
        # one operation at the smoke size loads the lazy imports and runs
        # every code path of a full one
        return self.setup("smoke", state["cfg"].seed, state["cfg"].workers)

    def warmup(self, warm_state):
        return self.op(warm_state, 0)

    def op(self, state, k):
        return Outcome(_run_pipeline(state))

    def check(self, state, outcome, reference):
        _check_rel_l2(outcome.rel_l2, reference, RECON_REL_TOL)


class Stages:
    """The six stage subcommands through `cli.run_command`, in order, each
    reading the previous one's files from a fresh, empty directory."""

    def __init__(self, name: str, sizes: dict, work_dir: Path):
        self.name, self.sizes, self.work_dir = name, sizes, work_dir

    def setup(self, size, seed, workers):
        import driftscope.cli  # noqa: F401  (the entry point is part of set-up)

        return _recon_setup(DISC, self.sizes, size, seed, workers)

    def warmup_state(self, state):
        return state

    def warmup(self, state):
        # the in-process pipeline on the same config warms the compute path
        # and gives the rel_l2 that the chain's report.json must equal
        state["pipeline_rel_l2"] = _run_pipeline(state)
        return Outcome(state["pipeline_rel_l2"])

    def op(self, state, k):
        from driftscope import cli

        out = self.work_dir / f"op{k}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        try:
            config_path = out / "config.json"
            config_path.write_text(json.dumps(state["raw"]))
            with contextlib.redirect_stdout(io.StringIO()):
                for stage in STAGES:
                    code = cli.run_command([stage, "--config", str(config_path), "--out", str(out)])
                    if code != 0:
                        raise CheckFailed(f"stage {stage} exited with code {code}")
            report = json.loads((out / "report.json").read_text())
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return Outcome(report["rel_l2"])

    def check(self, state, outcome, reference):
        _check_rel_l2(outcome.rel_l2, reference, RECON_REL_TOL)
        if outcome.rel_l2 != state["pipeline_rel_l2"]:
            raise CheckFailed(f"report.json rel_l2 {outcome.rel_l2!r} differs from "
                              f"run_pipeline's {state['pipeline_rel_l2']!r}")


class FeynmanKac:
    """`diffusion.feynman_kac_exit` with zero potential and the harmonic
    boundary function f = x1^2 - x2^2, so the exact answer is f(x)."""

    def __init__(self, name: str, sizes: dict):
        self.name, self.sizes = name, sizes

    def setup(self, size, seed, workers):
        import numpy as np

        import driftscope.diffusion  # noqa: F401
        from driftscope import parallel

        # the rectangle of rect-coarse; only its domain is used
        state = _recon_setup(RECTANGLE, {size: (180, 129)}, size, seed, workers)
        parallel.set_workers(workers)
        points = np.array(FK_POINTS)
        state.update(points=points, exact=_harmonic(points), n_paths=self.sizes[size], seed=seed)
        return state

    def warmup_state(self, state):
        return dict(state, size="smoke", n_paths=self.sizes["smoke"])

    def warmup(self, warm_state):
        return self.op(warm_state, -1)

    def op(self, state, k):
        import numpy as np

        from driftscope import diffusion

        # operation k draws its paths from its own stream of the run's seed
        mc = diffusion.McConfig(state["n_paths"], 1, seed=(state["seed"] << 16) + k + 1)
        estimates = [diffusion.feynman_kac_exit(_zero, _harmonic, state["domain"], x, mc, h=FK_H)
                     for x in state["points"]]
        errors = np.array([e.value for e in estimates]) - state["exact"]
        stderrs = np.array([e.stderr for e in estimates])
        bound = 3.0 * stderrs + 1.5 * math.sqrt(FK_H)
        norm = np.linalg.norm(state["exact"])
        return Outcome(float(np.linalg.norm(errors) / norm),
                       {"errors": errors.tolist(), "bound": bound.tolist(),
                        "rel_l2_stderr": float(np.linalg.norm(stderrs) / norm)})

    def check(self, state, outcome, reference):
        # the bound tests/test_diffusion.py uses for the same estimator
        for x, err, bound in zip(FK_POINTS, outcome.detail["errors"], outcome.detail["bound"]):
            if not abs(err) <= bound:
                raise CheckFailed(f"estimate at {x} misses f(x) by {err:.4g} > {bound:.4g}")
        _check_rel_l2(outcome.rel_l2, reference, FK_REL_TOL,
                      slack=3.0 * outcome.detail["rel_l2_stderr"])


def _zero(p):
    import numpy as np

    return np.zeros(np.shape(p)[:-1])


def _harmonic(p):
    import numpy as np

    p = np.asarray(p, dtype=float)
    return p[..., 0] ** 2 - p[..., 1] ** 2


def make_workloads(work_dir: Path) -> dict:
    """The workloads by name (see BENCHMARK.json and README.md for why each).
    Sizes are (angles, grid nodes) for reconstructions, paths for fk-exit."""
    recon_smoke = (36, 33)
    workloads = [
        Pipeline("disc-fine", DISC, {"full": (360, 257), "smoke": recon_smoke}),
        Pipeline("rect-coarse", RECTANGLE, {"full": (180, 129), "smoke": recon_smoke}),
        Stages("disc-stages", {"full": (180, 129), "smoke": recon_smoke}, work_dir),
        FeynmanKac("fk-exit", {"full": 20000, "smoke": 1000}),
    ]
    return {w.name: w for w in workloads}
