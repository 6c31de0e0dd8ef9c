"""Every top-level function, class and constant of the package is reached
from somewhere else in the package, or is named here as a test oracle.

The scan reads the ASTs of src/driftscope/*.py.  A name counts as reached
when another top-level statement refers to it: as a bare name, as an
attribute (`module.name`) or in a `from module import name`.  A use inside
the name's own definition or assignment does not count.  Constants are the
names bound by a top-level `NAME = ...` or `NAME: type = ...`; no constant
may be a test oracle.

A second scan keeps scipy off the import path: no module imports it outside
a function body, so only the runs that assemble or solve a sparse system
load it, and no module imports `scipy.sparse.linalg` or `scipy.linalg`
anywhere: the Krylov loop is the package's own, and those two modules
would add ~80 modules and LAPACK to every solving run.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "driftscope"

# Names that no program path reaches but tests use as independent oracles.
TEST_ORACLES = {
    "forward_xray": "one chord's line integral, checked against the batched sinogram",
    "sample_scalar": "builds test fields from pointwise functions",
    "laplacian": "checks the Dirichlet solve and the potential identity",
    "potential_from_psi": "manufactures V from a known psi for end-to-end tests",
}


def _bound_names(stmt: ast.stmt) -> list[str]:
    """The names a top-level statement defines or assigns."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else (
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name)]


def _definitions_and_reached():
    """Top-level definitions and constants (name -> (file, is_constant)),
    and every name that some top-level statement other than its own
    definition or assignment refers to."""
    defined: dict[str, tuple[str, bool]] = {}
    reached: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            owners = _bound_names(stmt)
            is_constant = isinstance(stmt, (ast.Assign, ast.AnnAssign))
            defined.update((name, (path.name, is_constant)) for name in owners)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, ast.ImportFrom):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                reached.update(n for n in names if n not in owners)
    return defined, reached


def test_every_definition_is_reached_or_an_oracle():
    defined, reached = _definitions_and_reached()
    unreached = sorted(f"{file}:{name}" for name, (file, is_constant) in defined.items()
                       if not is_constant and name not in reached and name not in TEST_ORACLES)
    stale = sorted(name for name in TEST_ORACLES if name not in defined or name in reached)
    assert not unreached, f"defined but never referenced under src/: {unreached}"
    assert not stale, f"TEST_ORACLES entries that are gone or now reached: {stale}"


def test_every_constant_is_reached():
    defined, reached = _definitions_and_reached()
    constants = {name: file for name, (file, is_constant) in defined.items() if is_constant}
    unreached = sorted(f"{file}:{name}" for name, file in constants.items()
                       if name not in reached)
    assert constants, "the scan found no module-level constants"
    assert not unreached, f"constants never referenced elsewhere under src/: {unreached}"


def _import_time_modules(tree: ast.Module):
    """The absolute modules a file imports outside every function body, that
    is, when the file itself is imported."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
        stack.extend(ast.iter_child_nodes(node))


def test_scipy_is_imported_only_inside_functions():
    found = sorted(f"{path.name}:{name}" for path in SRC.glob("*.py")
                   for name in _import_time_modules(ast.parse(path.read_text()))
                   if name.split(".")[0] == "scipy")
    assert not found, f"scipy imported when the module loads: {found}"


def _imported_modules(tree: ast.Module):
    """Every absolute module a file imports, function bodies included; a
    `from package import name` yields package.name as well."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_scipy_linalg_is_never_imported():
    banned = ("scipy.linalg", "scipy.sparse.linalg")
    found = sorted(f"{path.name}:{name}" for path in SRC.glob("*.py")
                   for name in _imported_modules(ast.parse(path.read_text()))
                   if any(name == b or name.startswith(b + ".") for b in banned))
    assert not found, f"modules that import a scipy linalg package: {found}"


TRACER = SRC.parent.parent / "perfbench" / "tracing.py"


def _tracer_constant(name: str):
    """The literal value of a module-level constant of the benchmark's tracer,
    read from its source."""
    for stmt in ast.parse(TRACER.read_text()).body:
        if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in stmt.targets):
            return ast.literal_eval(stmt.value)
    raise AssertionError(f"{TRACER} defines no {name}")


def test_benchmark_tracer_names_resolve():
    """Every function the benchmark's tracer wraps by name, and every Domain
    method it counts, exists: a rename cannot break `run.py --trace 1`."""
    import importlib

    from driftscope.fields import Domain, DiscDomain, RectangleDomain

    spans = _tracer_constant("SPANS")
    assert spans
    missing = [f"{module}.{func}" for module, func, _ in spans
               if not callable(getattr(importlib.import_module(f"driftscope.{module}"), func, None))]
    assert not missing, f"traced functions not found in driftscope: {missing}"
    methods = _tracer_constant("COUNTED_METHODS")
    assert methods
    for method in methods:
        assert callable(getattr(Domain, method, None)), method
        assert all(method in cls.__dict__ for cls in (DiscDomain, RectangleDomain)), method


def test_benchmark_setup_runs(tmp_path, monkeypatch):
    """Every benchmark workload's setup runs at the smoke size, without an
    operation: the config, grid, ladder, kernel and worker calls that
    perfbench/workloads.py makes cannot break unnoticed by the fast tests."""
    import importlib

    from driftscope import parallel

    monkeypatch.setattr(parallel, "_worker_override", parallel._worker_override)
    monkeypatch.syspath_prepend(str(TRACER.parent))
    workloads = importlib.import_module("workloads")
    for name, workload in workloads.make_workloads(tmp_path).items():
        assert workload.setup("smoke", 1, 1), name


def test_benchmark_tracer_counts_the_ok_fits(monkeypatch):
    """The benchmark's tracer counts a `fit_dataset` result's ok fits as the
    rows its FitTable iterates as not None: that must be `fits.ok.sum()`."""
    import importlib
    from collections import Counter

    import numpy as np

    from driftscope.smalltime import BoundaryDataset, ChordTable, fit_dataset

    monkeypatch.syspath_prepend(str(TRACER.parent))
    tracing = importlib.import_module("tracing")
    n, times = 9, np.array([0.04, 0.02, 0.01, 0.005])
    log_ratios = 0.3 - np.outer(np.linspace(0.5, 1.5, n), times)
    log_ratios[::3, :2] = np.nan  # two of four times left: not ok
    log_ratios[1::3, 0] = np.nan  # three left: ok
    chords = ChordTable(np.tile([1.0, 0.0], (n, 1)), np.tile([-1.0, 0.0], (n, 1)))
    dataset = BoundaryDataset(chords, times, log_ratios)
    result = fit_dataset(dataset)
    fits = result[0]
    assert 0 < fits.ok.sum() < len(fits)
    counts = Counter()
    tracing._on_return("fit_dataset", counts, (dataset,), result)
    assert counts["smalltime.fits_ok"] == fits.ok.sum() == 6
    assert counts["smalltime.fits_attempted"] == len(fits) == n


def test_benchmark_tracer_counts_a_solve(monkeypatch):
    """The benchmark's tracer reads a `solve_bvp` call's system (`symmetric`,
    `dimension`, `matrix.nnz`) and its result's `iterations`: losing any of
    them breaks `run.py --trace 1`."""
    import importlib
    from collections import Counter

    import numpy as np

    from driftscope.elliptic import assemble_dirichlet_system, solve_bvp
    from driftscope.fields import DiffusionField, DiscDomain, Grid, ScalarField, VectorField

    monkeypatch.syspath_prepend(str(TRACER.parent))
    tracing = importlib.import_module("tracing")
    grid = Grid.from_extent(-1.2, -1.2, 1.2, 1.2, 33, 33)
    system = assemble_dirichlet_system(
        DiffusionField.identity(grid), VectorField(grid, np.zeros((*grid.shape, 2))),
        ScalarField(grid, np.ones(grid.shape)), DiscDomain(grid, 0.0, 0.0, 1.0),
        lambda p: np.exp(p[:, 0]))
    result = solve_bvp(system)
    counts = Counter()
    tracing._on_return("solve_bvp", counts, (system,), result)
    assert counts["elliptic.solver_iterations"] == result.iterations > 0
    assert counts["elliptic.unknowns"] == system.dimension
    assert counts["elliptic.nnz"] == system.matrix.nnz
    # BiCGStab: two products with A per iteration
    assert counts["elliptic.spmv_bytes"] == (2 * result.iterations
                                             * tracing._spmv_bytes(system.matrix))


def test_artifact_readers_call_the_traced_names(tmp_path, monkeypatch):
    """The fit and sinogram stages read their files through
    `recover.make_parallel_chords`, `recover.read_dataset_csv` and
    `recover.read_fits_csv`, looked up when called and with the file path
    first: the benchmark's tracer swaps those names and reads the file size
    from that path, so a reader that held a function object of its own would
    drop the `--trace 1` reader spans and `cli.bytes_read` unnoticed."""
    from collections import Counter

    from driftscope import recover

    cfg = recover.config_from_dict({
        "domain": {"kind": "disc", "radius": 1.0},
        "grid": {"x0": -1.15, "y0": -1.15, "x1": 1.15, "y1": 1.15, "nx": 33, "ny": 33},
        "geometry": {"n_angles": 12, "n_offsets": 13},
        "kernels": {"observed": {"kind": "ou", "theta": 1.0}, "reference": {"kind": "brownian"}},
    })
    values = recover.stage_context(cfg)
    for name in ("gen-data", "fit"):
        recover.run_stage(name, cfg, values)
    recover.write_artifacts(tmp_path, ("dataset", "fits"), values)
    calls = Counter()
    paths = []

    def counting(name):
        original = getattr(recover, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name != "make_parallel_chords":
                paths.append(args[0])
            return original(*args, **kwargs)
        return wrapper

    for name in ("make_parallel_chords", "read_dataset_csv", "read_fits_csv"):
        monkeypatch.setattr(recover, name, counting(name))
    recover.run_stage("fit", cfg, recover.stage_context(cfg),
                      {"dataset": tmp_path / "dataset.csv"})
    recover.run_stage("sinogram", cfg, recover.stage_context(cfg),
                      {"fits": tmp_path / "fits.csv"})
    assert calls == {"make_parallel_chords": 2, "read_dataset_csv": 1, "read_fits_csv": 1}
    assert paths == [tmp_path / "dataset.csv", tmp_path / "fits.csv"]
