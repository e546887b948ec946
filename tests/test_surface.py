"""The package's surface: every module-level function and class is named by
the program (src/ or perfbench/) outside its own definition.  The only
exceptions are the oracles that README-mapped acceptance tests call."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "epsoliton"

# oracle -> (test file, the README-mapped acceptance test that calls it)
ORACLES = {
    "A_infinity": ("test_evans.py", "test_march_constant_for_zero_potential"),
    "apply_Lc_adjoint": ("test_linearized.py", "test_Lc_adjoint_kernel"),
    "kdv_residual": ("test_profile.py", "test_kdv_residual_scaling"),
    "rectangle_contour": ("test_evans.py", "test_evans_scan_segment_and_rectangle"),
    "xi_big": ("test_evans.py", "test_xi_big_solves_lambda_zero_system"),
}


def _names(node):
    """How often each identifier is named in a subtree: variables, attributes
    and string constants (perfbench names its span targets by string)."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out[n.value] += 1
    return out


def _unnamed_definitions():
    """Module-level definitions of the package that no program file names
    outside the definition itself."""
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    trees = {f: ast.parse(f.read_text(), filename=str(f)) for f in files}
    named = sum((_names(t) for t in trees.values()), Counter())
    return {node.name for f, tree in trees.items() if f.parent == PACKAGE
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and named[node.name] == _names(node)[node.name]}


def test_every_definition_is_named_by_the_program():
    unnamed = _unnamed_definitions()
    extra = sorted(unnamed - set(ORACLES))
    assert not extra, f"reached by no program file, only by tests: {extra}"
    stale = sorted(set(ORACLES) - unnamed)
    assert not stale, f"now named by the program, no longer test-only: {stale}"


@pytest.mark.parametrize("oracle", sorted(ORACLES))
def test_oracle_serves_a_readme_acceptance_test(oracle):
    file, test = ORACLES[oracle]
    tree = ast.parse((ROOT / "tests" / file).read_text())
    defs = {n.name: n for n in tree.body
            if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    assert test in defs, f"{file} has no {test}"
    # the test calls the oracle itself or through a helper of its file
    named = _names(defs[test])
    reach = named + sum((_names(defs[h]) for h in named if h in defs), Counter())
    assert reach[oracle] > 0, f"{test} does not call {oracle}"
    module = file.removeprefix("test_").removesuffix(".py")
    assert f"{module}::{test}" in (ROOT / "README.md").read_text()


def _scipy_importers():
    """Modules of the package that import SciPy anywhere in their source."""
    out = set()
    for f in PACKAGE.glob("*.py"):
        for n in ast.walk(ast.parse(f.read_text(), filename=str(f))):
            mods = ([a.name for a in n.names] if isinstance(n, ast.Import)
                    else [n.module or ""] if isinstance(n, ast.ImportFrom) else [])
            if any(m.split(".")[0] == "scipy" for m in mods):
                out.add(f.stem)
    return out


def test_no_module_imports_scipy():
    # the profile's DOP853 march, its brentq and the Evans coefficient spline
    # are NumPy ports (ode); SciPy is a test oracle only
    assert _scipy_importers() == set()


def test_importing_the_cli_loads_no_scipy():
    code = ("import sys, epsoliton.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
