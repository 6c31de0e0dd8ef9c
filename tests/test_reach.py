"""Every top-level function, class and constant of the package is reached
from somewhere else in the package, or is named here as a test oracle.

The scan reads the ASTs of src/driftscope/*.py.  A name counts as reached
when another top-level statement refers to it: as a bare name, as an
attribute (`module.name`) or in a `from module import name`.  A use inside
the name's own definition or assignment does not count.  Constants are the
names bound by a top-level `NAME = ...` or `NAME: type = ...`; no constant
may be a test oracle.

A second scan does the same for the public methods and properties of the
package's classes: each is read as an attribute somewhere under src/,
outside its own definition, or is named here as a test oracle or as a hook
that the benchmark reads, with the file under perfbench/ that reads it.
The scan sees only names read as attributes: it cannot see dunder methods
(`__iter__`, `__len__`, `__getitem__`), which syntax calls, and skips
them; that is how `ChordTable.__iter__` outlived its last reader.

A third scan keeps scipy off the import path: no module imports it outside
a function body, so only the runs that assemble or solve a sparse system
load it, and no module imports `scipy.sparse.linalg` or `scipy.linalg`
anywhere: the Krylov loop is the package's own, and those two modules
would add ~80 modules and LAPACK to every solving run.

A fourth scan finds imports that nothing in their module uses.

A fifth scan keeps every random draw keyed by (seed, block): no module
reaches numpy.random or the random module outside `diffusion.substream`, so
no other generator or bit generator is built and no global state is drawn
from.

A sixth scan keeps the binary artifacts safe to read and written where
asked: every `np.load` passes `allow_pickle=False`, so no file can make a
reader unpickle an object array, and every numpy writer of .npy / .npz data
is given a file handle, bound by an enclosing `with ... open(...) as
handle`: given a path, np.save and np.savez append .npy or .npz to it.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "driftscope"
BENCH = SRC.parent.parent / "perfbench"

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


# Public methods and properties that no program path reads but tests use as
# independent oracles.
METHOD_ORACLES = {
    "boundary_point": "a boundary point from its parameter: the boundary-psi tests' oracle, "
                      "and the exact boundary psi of ROADMAP item 9",
}

# Public methods and properties that only the benchmark reads: name -> (the
# file under perfbench/ that reads it, what for).
BENCHMARK_HOOKS = {
    "dimension": ("tracing.py", "elliptic.unknowns of a traced solve"),
    "symmetric": ("tracing.py", "one or two SpMVs per iteration in elliptic.spmv_bytes"),
    "resolved_grid": ("workloads.py", "resolves the grid in the workloads' set-up"),
    "resolved_domain": ("workloads.py", "the domain of the workloads' set-up"),
    "resolved_ladder": ("workloads.py", "resolves the ladder in the workloads' set-up"),
}


def _attributes_read(tree: ast.AST, own=frozenset()) -> set[str]:
    """Every name the code reads as an attribute (`x.name`), except inside a
    method of the same name: a method's use of itself does not count."""
    found = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                inner = own | {item.name} if isinstance(item, ast.FunctionDef) else own
                found |= _attributes_read(item, inner)
            continue
        if isinstance(node, ast.Attribute) and node.attr not in own:
            found.add(node.attr)
        found |= _attributes_read(node, own)
    return found


def _methods_and_reached(paths):
    """Public methods and properties of every class in the files (name ->
    ["file:Class", ...]), and every name the files read as an attribute."""
    methods: dict[str, list[str]] = {}
    reached: set[str] = set()
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            for item in cls.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    methods.setdefault(item.name, []).append(f"{path.name}:{cls.name}")
        reached |= _attributes_read(tree)
    return methods, reached


def test_every_method_is_reached_or_listed():
    methods, reached = _methods_and_reached(sorted(SRC.glob("*.py")))
    listed = METHOD_ORACLES.keys() | BENCHMARK_HOOKS.keys()
    unreached = sorted(f"{owner}.{name}" for name, owners in methods.items()
                       if name not in reached and name not in listed for owner in owners)
    stale = sorted(name for name in listed if name not in methods or name in reached)
    assert not unreached, f"methods never read under src/: {unreached}"
    assert not stale, f"METHOD_ORACLES or BENCHMARK_HOOKS entries gone or now reached: {stale}"
    unread = sorted(f"{file}:{name}" for name, (file, _) in BENCHMARK_HOOKS.items()
                    if name not in _attributes_read(ast.parse((BENCH / file).read_text())))
    assert not unread, f"BENCHMARK_HOOKS that their perfbench file no longer reads: {unread}"


def test_method_scan_sees_unread_methods(tmp_path):
    """The scan flags a public method or property read nowhere, or only by
    itself, and passes one read elsewhere, private ones and dunders."""
    (tmp_path / "a.py").write_text(
        "import functools\n"
        "class A:\n"
        "    def used(self):\n        return self.prop\n"
        "    @property\n    def prop(self):\n        return 1\n"
        "    @functools.cached_property\n    def cached(self):\n        return 2\n"
        "    def recursive(self, n):\n        return self.recursive(n - 1) if n else 0\n"
        "    def _private(self):\n        return 0\n"
        "    def __iter__(self):\n        return iter(())\n"
        "def recursive(a):\n    return a.used()\n")
    methods, reached = _methods_and_reached([tmp_path / "a.py"])
    assert sorted(methods) == ["cached", "prop", "recursive", "used"]
    assert sorted(name for name in methods if name not in reached) == ["cached", "recursive"]

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


def test_no_unused_import():
    """Every name a module imports, at the top or in a function, is read
    somewhere in that module; `from __future__` imports are directives."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [f"{path.name}:{node.lineno} {name}" for name in bound if name not in used]
    assert not unused, f"imported but never used: {unused}"


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


# The one function that may build a generator: (module file, function name).
RANDOM_HOME = ("diffusion.py", "substream")


def _random_uses(path: Path) -> list[str]:
    """Where a module reaches numpy.random (`np.random.<name>`, an import of
    numpy.random or of a name from it) or imports the random module, outside
    RANDOM_HOME, as "file:line"."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (path.name, function) == RANDOM_HOME:
            return
        if isinstance(node, ast.Attribute):
            hit = (node.attr == "random" and isinstance(node.value, ast.Name)
                   and node.value.id in ("np", "numpy"))
        elif isinstance(node, ast.Import):
            hit = any(alias.name == "random" or alias.name.startswith("numpy.random")
                      for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            hit = (node.module == "random" or node.module.startswith("numpy.random")
                   or (node.module == "numpy" and any(a.name == "random" for a in node.names)))
        else:
            hit = False
        if hit:
            found.append(f"{path.name}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return found


def test_random_draws_come_from_substream_only():
    found = sorted(use for path in SRC.glob("*.py") for use in _random_uses(path))
    assert not found, f"numpy.random or random reached outside diffusion.substream: {found}"


def test_random_scan_sees_generators(tmp_path):
    """The scan flags the ways a module builds a generator or draws from
    global state, and passes the one home of the generator."""
    sources = {
        "a.py": "import numpy as np\nrng = np.random.default_rng(0)\n",
        "b.py": "from numpy.random import SFC64\n",
        "c.py": "import numpy\ndef f():\n    return numpy.random.Generator(numpy.random.Philox(1))\n",
        "d.py": "import random\n",
        "e.py": "from numpy import random\n",
        "f.py": "import numpy.random\n",
        "diffusion.py": ("import numpy as np\ndef substream(seed, index):\n"
                         "    return np.random.Generator(np.random.SFC64(seed))\n"),
    }
    for name, text in sources.items():
        (tmp_path / name).write_text(text)
    found = {name: _random_uses(tmp_path / name) for name in sources}
    assert found == {"a.py": ["a.py:2"], "b.py": ["b.py:1"], "c.py": ["c.py:3", "c.py:3"],
                     "d.py": ["d.py:1"], "e.py": ["e.py:1"], "f.py": ["f.py:1"],
                     "diffusion.py": []}


# numpy's writers of .npy and .npz data, by their last name
NPY_WRITERS = {"save", "savez", "savez_compressed", "write_array"}


def _dotted(node) -> str:
    """The dotted name of a chain of attributes of a name, such as
    `np.lib.format.write_array`; "" for any other expression."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else ""


def _npy_io(path: Path) -> tuple[int, list[str]]:
    """The number of np.load and numpy writer calls in a module, and, as
    "file:line", those that load without `allow_pickle=False` or write to
    anything but a name bound by an enclosing `with ... open(...) as name`."""
    calls, found = 0, []

    def visit(node, handles):
        nonlocal calls
        if isinstance(node, (ast.With, ast.AsyncWith)):
            handles = handles | {item.optional_vars.id for item in node.items
                                 if isinstance(item.optional_vars, ast.Name)
                                 and isinstance(item.context_expr, ast.Call)
                                 and _dotted(item.context_expr.func).endswith("open")}
        if isinstance(node, ast.Call):
            name = _dotted(node.func)
            root, last = name.split(".")[0], name.split(".")[-1]
            if name in ("np.load", "numpy.load"):
                calls += 1
                bad = not any(k.arg == "allow_pickle" and isinstance(k.value, ast.Constant)
                              and k.value.value is False for k in node.keywords)
            elif root in ("np", "numpy") and last in NPY_WRITERS:
                calls += 1
                bad = not (node.args and isinstance(node.args[0], ast.Name)
                           and node.args[0].id in handles)
            else:
                bad = False
            if bad:
                found.append(f"{path.name}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, handles)

    visit(ast.parse(path.read_text(), filename=str(path)), frozenset())
    return calls, found


def test_npy_files_load_without_pickle_and_write_through_handles():
    scans = {path.name: _npy_io(path) for path in SRC.glob("*.py")}
    found = sorted(use for _, uses in scans.values() for use in uses)
    assert not found, f"np.load without allow_pickle=False, or a numpy writer given a path: {found}"
    # the scan sees the fits and sinogram writers
    assert scans["smalltime.py"][0] >= 1 and scans["xray.py"][0] >= 1


def test_npy_scan_sees_pickling_loads_and_path_writes(tmp_path):
    sources = {
        "a.py": "import numpy as np\nx = np.load('f.npy')\n",
        "b.py": "import numpy\nx = numpy.load(p, allow_pickle=True)\n",
        "c.py": "import numpy as np\nnp.save('f.npy', x)\nnp.savez(p, a=x)\n",
        "d.py": "import numpy as np\ndef f(p, x):\n    np.lib.format.write_array(p, x)\n",
        "e.py": "import numpy as np\nfh = open(p, 'wb')\nnp.save(fh, x)\n",
        "ok.py": ("import numpy as np\n"
                  "def f(p, z, x):\n"
                  "    with open(p, 'wb') as fh:\n"
                  "        np.save(fh, x, allow_pickle=False)\n"
                  "    with z.open('x.npy', 'w') as member:\n"
                  "        np.lib.format.write_array(member, x)\n"
                  "    return np.load(p, allow_pickle=False)\n"),
    }
    for name, text in sources.items():
        (tmp_path / name).write_text(text)
    found = {name: _npy_io(tmp_path / name) for name in sources}
    assert found == {"a.py": (1, ["a.py:2"]), "b.py": (1, ["b.py:2"]),
                     "c.py": (2, ["c.py:2", "c.py:3"]), "d.py": (1, ["d.py:3"]),
                     "e.py": (1, ["e.py:3"]), "ok.py": (3, [])}


TRACER = BENCH / "tracing.py"


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
    from driftscope.fields import DiffusionField, DiscDomain, Grid, ScalarField

    monkeypatch.syspath_prepend(str(TRACER.parent))
    tracing = importlib.import_module("tracing")
    grid = Grid.from_extent(-1.2, -1.2, 1.2, 1.2, 33, 33)
    system = assemble_dirichlet_system(
        DiffusionField(), ScalarField(grid, np.ones(grid.shape)), DiscDomain(grid, 0.0, 0.0, 1.0),
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
    recover.run_stages(("gen-data", "fit"), cfg, {}, {}, tmp_path)
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
    recover.run_stages(["fit"], cfg, {}, {}, inputs={"dataset": tmp_path / "dataset.npz"})
    recover.run_stages(["sinogram"], cfg, {}, {}, inputs={"fits": tmp_path / "fits.npy"})
    assert calls == {"make_parallel_chords": 2, "read_dataset_csv": 1, "read_fits_csv": 1}
    assert paths == [tmp_path / "dataset.npz", tmp_path / "fits.npy"]


# the first bytes of every file the stage chain hands on: a DGF1 grid, an
# .npy array or an .npz (zip) archive
BINARY_MAGICS = (b"DGF1", b"\x93NUMPY", b"PK\x03\x04")


def test_stage_chain_hands_on_binary_files_only(tmp_path):
    """After the six stage subcommands, every file in <out> but report.json
    is a DGF1 grid or a numpy binary: no intermediate goes back to text,
    whose writing and parsing once took most of a stage chain's run."""
    import json

    from driftscope.cli import run_command
    from driftscope.recover import STAGES

    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "domain": {"kind": "disc", "radius": 1.0},
        "grid": {"x0": -1.15, "y0": -1.15, "x1": 1.15, "y1": 1.15, "nx": 33, "ny": 33},
        "geometry": {"n_angles": 12, "n_offsets": 13},
        "kernels": {"observed": {"kind": "ou", "theta": 1.0}},
    }))
    out = tmp_path / "out"
    for stage in STAGES:
        assert run_command([stage, "--config", str(config), "--out", str(out)]) == 0, stage
    handed_on = sorted(p.name for p in out.iterdir() if p.name != "report.json")
    assert "dataset.npz" in handed_on and len(handed_on) == 8, handed_on
    text = [name for name in handed_on if not (out / name).read_bytes().startswith(BINARY_MAGICS)]
    assert not text, text
