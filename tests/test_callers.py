"""Caller gate: every public top-level function or class of the package is
referenced somewhere in src/ outside its own definition, so that API which
only tests reach cannot build up without an edit to this file."""

import ast
import math
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


TESTS = pathlib.Path(__file__).resolve().parent


def _calls() -> dict:
    """Called name -> (the most positional arguments of any call, the
    keywords passed), over src/ and tests/.  A Name or Attribute call
    counts under its last name; a call that unpacks *args or **kwargs
    counts as passing everything."""
    calls = {}
    for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name) else
                    func.attr if isinstance(func, ast.Attribute) else None)
            count, keywords = calls.setdefault(name, (0, set()))
            if (any(isinstance(arg, ast.Starred) for arg in node.args)
                    or any(kw.arg is None for kw in node.keywords)):
                count = math.inf
            calls[name] = (max(count, len(node.args)),
                           keywords | {kw.arg for kw in node.keywords})
    return calls


def _knobs() -> list:
    """'module.function(parameter)' for every defaulted parameter of a
    function or method in src/ that no call passes, by position or by
    keyword.  A method's calls are offset by its self; a class's calls
    are those of its __init__; other dunder methods are called by syntax,
    not by name, and are left out."""
    calls = _calls()
    knobs = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        methods = {id(fn): cls.name for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) for fn in cls.body
                   if isinstance(fn, ast.FunctionDef)}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            name, offset = fn.name, 0
            if id(fn) in methods:
                offset = 1
                if name == "__init__":
                    name = methods[id(fn)]
                elif name.startswith("__"):
                    continue
            count, keywords = calls.get(name, (0, set()))
            args = fn.args.posonlyargs + fn.args.args
            defaulted = list(zip(args[len(args) - len(fn.args.defaults):],
                                 fn.args.defaults))
            defaulted += [(arg, d) for arg, d in zip(fn.args.kwonlyargs,
                                                     fn.args.kw_defaults)
                          if d is not None]
            for arg, _ in defaulted:
                index = args.index(arg) if arg in args else math.inf
                if index - offset >= count and arg.arg not in keywords:
                    knobs.append(f"{path.stem}.{fn.name}({arg.arg})")
    return knobs


def test_every_default_is_passed_somewhere():
    assert _knobs() == [], (
        "defaulted parameters that no call in src/ or tests/ passes (make "
        "them constants, or pass them): " + ", ".join(_knobs()))


def _takes_params_and_problem() -> list:
    """'module.function' for every function or method in src/ with one
    parameter annotated ProblemParams and another EuclideanProblem."""
    both = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, ast.FunctionDef):
                continue
            args = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
            kinds = {ast.unparse(arg.annotation) for arg in args
                     if arg.annotation is not None}
            if {"ProblemParams", "EuclideanProblem"} <= kinds:
                both.append(f"{path.stem}.{fn.name}")
    return both


def test_no_function_takes_both_the_params_and_the_problem():
    # the problem carries its params: a function handed both could read n,
    # s and gamma from one and h0 and b from the other, built from another
    assert _takes_params_and_problem() == [], (
        "functions taking both a ProblemParams and an EuclideanProblem "
        "(read problem.params): " + ", ".join(_takes_params_and_problem()))
