"""Benchmark of driftscope's drift-recovery chain.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all [--size smoke] [--seconds <s>]

Run from the repository root.  One workload runs in this process: set-up
(timed), one checked warm-up operation, then checked operations until
--seconds have passed.  The last stdout line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
`--workload all` runs every workload in its own fresh process and prints a
table.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import CheckFailed, make_workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5  # this process's own set-up plus four in fresh child processes
WORKLOADS = tuple(make_workloads(OUT_DIR))
# Inclusive span per column of the ROADMAP baseline table.
STAGE_COLUMNS = {
    "total": "recover.run_pipeline",
    "gen-data": "smalltime.build_boundary_dataset",
    "fit": "smalltime.fit_dataset",
    "sinogram": "xray.sinogram_from_fits",
    "invert": "xray.fbp_invert",
    "boundary-psi": "elliptic.boundary_psi_from_fits",
    "assemble": "elliptic.assemble_dirichlet_system",
    "solve": "elliptic.solve_bvp",
}


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_environment() -> int:
    """Pin pool workers and BLAS threads before numpy loads; returns workers."""
    workers = min(2, _nproc())
    os.environ["DRIFTSCOPE_WORKERS"] = str(workers)
    for var in BLAS_ENV:
        os.environ[var] = "1"
    return workers


def environment(workers: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "driftscope_workers": workers,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
        "nproc": _nproc(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
    }


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree (read from .git, since
    running git could find a repository above the checkout)."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """One process's operations with their attempted / failed counts."""

    def __init__(self, workload, state, reference: dict):
        self.workload, self.state, self.reference = workload, state, reference
        self.attempted = self.failed = 0

    def fail(self, error: str) -> None:
        self.failed += 1
        print(f"operation failed: {error}", file=sys.stderr)

    def attempt(self, state, fn):
        """Run fn() -> Outcome and check it against the seed value for the
        state's size; returns (seconds, outcome), outcome None on failure."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            outcome = fn()
            seconds = time.perf_counter() - start
            self.workload.check(state, outcome, self.reference[state["size"]])
            return seconds, outcome
        except CheckFailed as exc:
            self.fail(f"check failed: {exc}")
        except Exception as exc:  # an operation that raises counts as failed
            self.fail(f"raised {type(exc).__name__}: {exc}")
        return time.perf_counter() - start, None

    def op(self, k: int):
        return self.attempt(self.state, lambda: self.workload.op(self.state, k))


def measure(run: Run, seconds: float) -> dict:
    """Untraced operations until `seconds` have passed."""
    times, rel = [], []
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < seconds:
        elapsed, outcome = run.op(k)
        times.append(elapsed)
        if outcome is not None:
            rel.append(outcome.rel_l2)
        k += 1
    return {"op_s": statistics.median(times),
            "rel_l2": statistics.median(rel) if rel else None}


def measure_traced(run: Run, seconds: float, names: list[str]):
    """Pairs of one untraced and one traced operation on the same input
    until `seconds` have passed.  Returns the per-layer metrics and the
    traced operations' records."""
    from tracing import Tracer, layer_value

    tracer = Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < seconds:
        elapsed, untraced_out = run.op(k)
        plain.append(elapsed)
        tracer.install()
        try:
            elapsed, traced_out = run.op(k)
        finally:
            tracer.uninstall()
        tracer.finish_op()
        traced.append(elapsed)
        # wrapping must not change the program: same input, same bits
        if untraced_out and traced_out and untraced_out.rel_l2 != traced_out.rel_l2:
            run.fail(f"traced rel_l2 {traced_out.rel_l2!r} differs from untraced "
                     f"{untraced_out.rel_l2!r} on operation {k}")
        k += 1
    metrics = {name: statistics.median(layer_value(op, name) for op in tracer.ops)
               for name in names if name != "trace.overhead_s"}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return metrics, tracer.ops


def stage_table(ops: list[dict]) -> dict:
    """Median inclusive seconds per ROADMAP baseline column."""
    return {col: statistics.median(op["total_s"].get(span, 0.0) for op in ops)
            for col, span in STAGE_COLUMNS.items()}


def setup_in_child(args) -> float:
    """Set-up time measured inside a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_workload(args, spec: dict) -> int:
    workers = pin_environment()
    work_dir = OUT_DIR / f"work-{os.getpid()}"
    workload = make_workloads(work_dir)[args.workload]
    start = time.perf_counter()
    state = workload.setup(args.size, args.seed, workers)
    setup_s = time.perf_counter() - start
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if not args.trace:
        setup_samples = [setup_s] + [setup_in_child(args) for _ in range(SETUP_SAMPLES - 1)]

    seed_values = json.loads((HERE / "baseline.json").read_text())["rel_l2_seed_value"]
    run = Run(workload, state, seed_values[workload.name])
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    metrics: dict = {}
    ops: list = []
    try:
        warm_state = workload.warmup_state(state)
        _, warm = run.attempt(warm_state, lambda: workload.warmup(warm_state))
        if warm is not None:
            if args.trace:
                metrics, ops = measure_traced(run, args.seconds, list(units))
            else:
                metrics = measure(run, args.seconds)
                metrics["setup_s"] = statistics.median(setup_samples)
                metrics["peak_rss_mb"] = _peak_rss_mb()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(f"workload {workload.name}  size {args.size}  seed {args.seed}  "
          f"trace {args.trace}  operations {run.attempted} (1 warm-up)  failed {run.failed}")
    for name, unit in units.items():
        print(f"  {name:<40} {metrics.get(name)!r} {unit}")
    print(f"  {'fail_frac':<40} {run.failed / run.attempted!r}")
    env = environment(workers)
    print("env " + json.dumps(env))
    if args.trace:
        stages = stage_table(ops) if ops else {}
        print("stages_s " + json.dumps(stages))
        OUT_DIR.mkdir(exist_ok=True)
        trace_file = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"workload": workload.name, "seed": args.seed,
                                          "env": env, "stages_s": stages, "ops": ops}))
        print(f"trace written to {trace_file.relative_to(ROOT)}")

    correct = run.failed == 0 and all(metrics.get(name) is not None for name in units)
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics.get(name), "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own fresh process; prints one row each."""
    cols = ("op_s", "setup_s", "peak_rss_mb", "rel_l2")
    print(f"{'workload':<12} " + " ".join(f"{c:>12}" for c in cols) + f" {'fail_frac':>10}")
    results, status = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name:<12} failed with exit code {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = results[name] = json.loads(lines[-1])
        values = result["metrics"]
        row = " ".join(f"{values[c]['value']:>12.6g}" if c in values else f"{'-':>12}" for c in cols)
        print(f"{name:<12} {row} {result['failed'] / result['attempted']:>10.3g}")
    print(json.dumps(results))
    return status


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: reduced inputs for the smoke test")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "driftscope" / "__init__.py").is_file():
        print(f"perfbench: no driftscope sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
