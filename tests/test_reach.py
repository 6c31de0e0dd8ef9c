"""Every top-level function and class of the package is reached from
somewhere else in the package, or is named here as a test oracle.

The scan reads the ASTs of src/driftscope/*.py.  A name counts as reached
when another definition, or module-level code, refers to it: as a bare name,
as an attribute (`module.name`) or in a `from module import name`.  A use
inside the name's own definition does not count.
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


def _definitions_and_reached():
    """Top-level function and class names (name -> file), and every name
    that some top-level statement other than its own definition refers to."""
    defined: dict[str, str] = {}
    reached: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = stmt.name
                defined[owner] = path.name
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, ast.ImportFrom):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                reached.update(n for n in names if n != owner)
    return defined, reached


def test_every_definition_is_reached_or_an_oracle():
    defined, reached = _definitions_and_reached()
    unreached = sorted(f"{defined[name]}:{name}" for name in defined
                       if name not in reached and name not in TEST_ORACLES)
    stale = sorted(name for name in TEST_ORACLES if name not in defined or name in reached)
    assert not unreached, f"defined but never referenced under src/: {unreached}"
    assert not stale, f"TEST_ORACLES entries that are gone or now reached: {stale}"
