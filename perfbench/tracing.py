"""In-memory span and count recording around driftscope's public functions.

The tracer wraps, from outside the package, the public functions and
`Domain` / kernel methods that the benchmark's entry points reach.  Every
module-level name that refers to a wrapped function is swapped, including
the `from x import f` copies and the CLI's dispatch table, so calls made
inside the package are recorded too.  `uninstall` puts the originals back,
so untraced operations run the program exactly as shipped.

A span is (id, name, start, end, parent id).  Each block that
`parallel.map_blocks` runs, on whichever pool thread, is a `<caller>#block`
span under the `map_blocks` span; its self time counts to the layer that
called `map_blocks`, so `parallel.map_blocks.s` is the pool's own cost.  Per-call `Domain` methods (`chord_endpoints`,
`boundary_param`, `boundary_crossing`) are counted but not timed: they run
up to ~10^5 times per operation and a span each would swamp the layer that
calls them, whose self time already holds their cost.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from collections import Counter, defaultdict

# (module, function, span name) for every traced public function.
SPANS = [
    ("smalltime", "make_parallel_chords", "smalltime.make_parallel_chords"),
    ("smalltime", "build_boundary_dataset", "smalltime.build_boundary_dataset"),
    ("smalltime", "fit_dataset", "smalltime.fit_dataset"),
    ("smalltime", "write_dataset_csv", "smalltime.write_dataset_csv"),
    ("smalltime", "read_dataset_csv", "smalltime.read_dataset_csv"),
    ("smalltime", "write_fits_csv", "smalltime.write_fits_csv"),
    ("smalltime", "read_fits_csv", "smalltime.read_fits_csv"),
    ("xray", "sinogram_from_fits", "xray.sinogram_from_fits"),
    ("xray", "fbp_invert", "xray.fbp_invert"),
    ("xray", "write_sinogram_csv", "xray.write_sinogram_csv"),
    ("xray", "read_sinogram_csv", "xray.read_sinogram_csv"),
    ("fields", "write_dgf", "fields.write_dgf"),
    ("fields", "read_dgf", "fields.read_dgf"),
    ("elliptic", "boundary_psi_from_fits", "elliptic.boundary_psi_from_fits"),
    ("elliptic", "assemble_dirichlet_system", "elliptic.assemble_dirichlet_system"),
    ("elliptic", "solve_bvp", "elliptic.solve_bvp"),
    ("recover", "run_pipeline", "recover.run_pipeline"),
    ("recover", "psi_from_u", "recover.psi_from_u"),
    ("recover", "drift_from_psi", "recover.drift_from_psi"),
    ("recover", "gradient_consistency", "recover.gradient_consistency"),
    ("recover", "drift_metrics", "recover.drift_metrics"),
    ("recover", "write_artifacts", "recover.write_artifacts"),
    ("recover", "write_report_json", "recover.write_report_json"),
    ("cli", "parse_config", "cli.parse_config"),
    ("cli", "cmd_gen_data", "cli.gen-data"),
    ("cli", "cmd_fit", "cli.fit"),
    ("cli", "cmd_sinogram", "cli.sinogram"),
    ("cli", "cmd_invert", "cli.invert"),
    ("cli", "cmd_solve", "cli.solve"),
    ("cli", "cmd_recover", "cli.recover"),
    ("diffusion", "feynman_kac_exit", "diffusion.feynman_kac_exit"),
]

# Per-call Domain methods: counted as fields.<method>.calls, not timed.
COUNTED_METHODS = ("chord_endpoints", "boundary_param", "boundary_crossing")

# Artifact readers and writers whose file sizes make up cli.bytes_read / _written.
READERS = {"read_dataset_csv", "read_fits_csv", "read_sinogram_csv", "read_dgf", "parse_config"}
WRITERS = {"write_dataset_csv", "write_fits_csv", "write_sinogram_csv", "write_dgf",
           "write_report_json"}

# The four post-solve extraction steps that make up recover.post.s.
POST_SPANS = ("recover.psi_from_u", "recover.drift_from_psi",
              "recover.gradient_consistency", "recover.drift_metrics")

# Pool blocks are spans named after the caller of map_blocks plus this suffix;
# their self time counts to the caller (summed over threads: busy time).
BLOCK_SUFFIX = "#block"

SPAN_NAMES = {name for *_, name in SPANS} | {"kernels.log_density", "parallel.map_blocks"}

# Every count the wrappers record; a workload that never reaches one reads 0.
COUNT_NAMES = {f"fields.{m}.calls" for m in COUNTED_METHODS} | {
    "smalltime.chords", "smalltime.fits_ok", "smalltime.fits_attempted",
    "xray.masked_bins", "xray.bp_node_angles", "elliptic.solver_iterations",
    "elliptic.unknowns", "elliptic.nnz", "elliptic.spmv_bytes", "cli.bytes_written",
    "cli.bytes_read", "diffusion.paths", "parallel.workers"}


def _spmv_bytes(matrix) -> int:
    """Bytes one CSR product A @ x moves: values, column indices and row
    pointers of A, one read of x and one write of y (computed, not measured)."""
    n = matrix.shape[0]
    return (matrix.nnz * (matrix.data.itemsize + matrix.indices.itemsize)
            + (n + 1) * matrix.indptr.itemsize + 2 * n * 8)


def _on_return(func: str, counts: Counter, args, result) -> None:
    """Counts taken from a traced call's arguments and result."""
    if func in READERS:
        counts["cli.bytes_read"] += os.path.getsize(args[0])
    elif func in WRITERS:
        counts["cli.bytes_written"] += os.path.getsize(args[0])
    elif func == "make_parallel_chords":
        counts["smalltime.chords"] += len(result[0])
    elif func == "fit_dataset":
        fits = result[0]
        counts["smalltime.fits_ok"] += sum(f is not None for f in fits)
        counts["smalltime.fits_attempted"] += len(fits)
    elif func == "sinogram_from_fits":
        counts["xray.masked_bins"] += int((~result.mask).sum())
    elif func == "fbp_invert":
        sino, grid = args[0], args[1]
        counts["xray.bp_node_angles"] += sino.n_angles * grid.nx * grid.ny
    elif func == "solve_bvp":
        system = args[0]
        per_iteration = 1 if system.symmetric else 2  # CG: one SpMV, BiCGStab: two
        counts["elliptic.solver_iterations"] += result.iterations
        counts["elliptic.unknowns"] += system.dimension
        counts["elliptic.nnz"] += system.matrix.nnz
        counts["elliptic.spmv_bytes"] += (result.iterations * per_iteration
                                          * _spmv_bytes(system.matrix))
    elif func == "feynman_kac_exit":
        counts["diffusion.paths"] += args[4].n_paths


class Tracer:
    """Spans and counts of traced operations, kept in memory."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.ops: list[dict] = []  # one record per traced operation
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list = []

    # -- spans ---------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, fn, args, kwargs):
        stack = self._stack()  # (span id, name) of the open spans
        span_id = next(self._ids)
        parent = stack[-1][0] if stack else 0
        stack.append((span_id, name))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent))

    def _count(self, key: str) -> None:
        with self._lock:  # pool threads count too
            self.counts[key] += 1

    # -- wrappers ------------------------------------------------------
    def _span_wrapper(self, func: str, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self._call(name, fn, args, kwargs)
            with self._lock:
                _on_return(func, self.counts, args, result)
            return result
        return wrapper

    def _count_wrapper(self, key: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._count(key)
            return fn(*args, **kwargs)
        return wrapper

    def _map_blocks_wrapper(self, fn):
        from driftscope import parallel

        @functools.wraps(fn)
        def wrapper(block_fn, items, workers=None):
            n = parallel.worker_count() if workers is None else max(1, workers)
            with self._lock:
                self.counts["parallel.workers"] = max(self.counts["parallel.workers"], n)
            dispatch_stack = []

            def in_block(item):
                # a block is work of the layer that called map_blocks: it is
                # a "<caller>#block" span under the map_blocks span, on
                # whichever thread runs it
                saved = getattr(self._local, "stack", None)
                self._local.stack = dispatch_stack[-1:]
                caller = dispatch_stack[-2][1] if len(dispatch_stack) > 1 else "parallel.map_blocks"
                try:
                    return self._call(caller + BLOCK_SUFFIX, block_fn, (item,), {})
                finally:
                    self._local.stack = saved

            def dispatch(*a):
                dispatch_stack.extend(self._stack())
                return fn(*a)

            return self._call("parallel.map_blocks", dispatch, (in_block, items, workers), {})
        return wrapper

    # -- installation --------------------------------------------------
    def _swap_everywhere(self, modules, original, replacement) -> None:
        """Replace every module-level reference to `original`, including
        values of module-level dicts (the CLI's command table)."""
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, replacement)
                    self._undo.append((setattr, mod, key, original))
                elif isinstance(value, dict) and not key.startswith("__"):
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            value[dkey] = replacement
                            self._undo.append((dict.__setitem__, value, dkey, original))

    def install(self) -> None:
        import driftscope.cli as cli
        import driftscope.diffusion as diffusion
        import driftscope.elliptic as elliptic
        import driftscope.fields as fields
        import driftscope.kernels as kernels
        import driftscope.parallel as parallel
        import driftscope.recover as recover
        import driftscope.smalltime as smalltime
        import driftscope.xray as xray

        mods = {"cli": cli, "diffusion": diffusion, "elliptic": elliptic, "fields": fields,
                "kernels": kernels, "parallel": parallel, "recover": recover,
                "smalltime": smalltime, "xray": xray}
        modules = list(mods.values())
        for mod_name, func, name in SPANS:
            original = getattr(mods[mod_name], func)
            self._swap_everywhere(modules, original, self._span_wrapper(func, name, original))
        original = parallel.map_blocks
        self._swap_everywhere(modules, original, self._map_blocks_wrapper(original))

        def patch_method(cls, attr, replacement):
            self._undo.append((setattr, cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, replacement)

        for cls in vars(fields).values():
            if isinstance(cls, type) and issubclass(cls, fields.Domain) and cls is not fields.Domain:
                for attr in COUNTED_METHODS:
                    if attr in cls.__dict__:
                        patch_method(cls, attr, self._count_wrapper(
                            f"fields.{attr}.calls", cls.__dict__[attr]))
        for cls in vars(kernels).values():
            if (isinstance(cls, type) and issubclass(cls, kernels.Kernel)
                    and "log_density" in cls.__dict__):
                patch_method(cls, "log_density", self._span_wrapper(
                    "log_density", "kernels.log_density", cls.__dict__["log_density"]))

    def uninstall(self) -> None:
        while self._undo:
            op, owner, key, original = self._undo.pop()
            op(owner, key, original)

    # -- per-operation summaries ---------------------------------------
    def finish_op(self) -> dict:
        """Close the current operation: derive self times and counts, keep
        its raw spans for the trace file and reset for the next one."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        record = {
            "self_s": self_times(spans),
            "total_s": total_times(spans),
            "calls": dict(Counter(name for _, name, *_ in spans)),
            "counts": dict(counts),
            "spans": [list(s) for s in spans],
        }
        self.ops.append(record)
        return record


def total_times(spans) -> dict:
    """Inclusive wall time per span name (sum of span durations; pool
    blocks lie inside their caller's span and are not added again)."""
    out: dict = defaultdict(float)
    for _, name, start, end, _ in spans:
        if not name.endswith(BLOCK_SUFFIX):
            out[name] += end - start
    return dict(out)


def self_times(spans) -> dict:
    """Self time per span name: each span's duration minus the part of its
    interval covered by its children (overlapping pool-thread children are
    merged before subtracting).  Pool blocks count to their caller's name."""
    children: dict = defaultdict(list)
    for span_id, _, start, end, parent in spans:
        children[parent].append((start, end))
    out: dict = defaultdict(float)
    for span_id, name, start, end, _ in spans:
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[name.removesuffix(BLOCK_SUFFIX)] += (end - start) - covered
    return dict(out)


def layer_value(op: dict, name: str):
    """One per-layer metric of one traced operation (see README.md)."""
    counts = op["counts"]
    if name == "recover.post.s":
        return sum(op["self_s"].get(s, 0.0) for s in POST_SPANS)
    if name == "smalltime.fit_ok_ratio":
        attempted = counts.get("smalltime.fits_attempted", 0)
        return counts.get("smalltime.fits_ok", 0) / attempted if attempted else 0.0
    if name in COUNT_NAMES:
        return counts.get(name, 0)
    base, _, kind = name.rpartition(".")
    if base in SPAN_NAMES and kind == "s":
        return op["self_s"].get(base, 0.0)
    if base in SPAN_NAMES and kind == "calls":
        return op["calls"].get(base, 0)
    raise KeyError(f"no rule for per-layer metric {name!r}")
