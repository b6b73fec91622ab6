"""Caller gate: every public top-level function or class of the package is
referenced somewhere in src/ outside its own definition, so that API which
only tests reach cannot build up without an edit to this file."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "hardyball"

# independent oracles that only tests call, all of them in the acceptance
# gate
ORACLES = ("plant_bubbles", "rate_check", "bubble_weighted_integrals",
           "hyperbolic_scaling", "residual_equivalence_check",
           "hardy_sobolev_check", "radial_hardy_ode_residual")


def _public_names_without_caller() -> dict:
    """Public top-level def/class name -> its module, for every name that
    no Name or Attribute node in src/ refers to, a definition's references
    to itself not counted."""
    defined, used = {}, set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                own = stmt.name
                if not own.startswith("_"):
                    defined[own] = path.name
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:
                    used.add(name)
    return {name: mod for name, mod in defined.items() if name not in used}


def test_every_public_name_has_a_src_caller():
    uncalled = _public_names_without_caller()
    assert sorted(uncalled) == sorted(ORACLES), (
        "public names with no caller in src/ (delete them, or give them a "
        f"caller): {uncalled}")
