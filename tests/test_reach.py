"""Every top-level function, class and constant of the package is reached
from somewhere else in the package, or is named here as a test oracle.

The scan reads the ASTs of src/driftscope/*.py.  A name counts as reached
when another top-level statement refers to it: as a bare name, as an
attribute (`module.name`) or in a `from module import name`.  A use inside
the name's own definition or assignment does not count.  Constants are the
names bound by a top-level `NAME = ...` or `NAME: type = ...`; no constant
may be a test oracle.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "driftscope"

# Names that no program path reaches but tests use as independent oracles.
TEST_ORACLES = {
    "fokker_planck_forward": "forward density slices checked against closed-form kernels",
    "TabulatedKernel": "kernel built from Fokker-Planck slices for drifts without a closed form",
    "forward_xray": "one chord's line integral, checked against the batched sinogram",
    "sample_scalar": "builds test fields from pointwise functions",
    "laplacian": "checks the Dirichlet solve and the potential identity",
    "potential_from_psi": "manufactures V from a known psi for end-to-end tests",
    "log_ratio": "scalar reference for the batched log ratio of build_boundary_dataset",
    "lift_1d": "1-D lifting of the small-time expansion, checked against its 2-D kernels",
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
