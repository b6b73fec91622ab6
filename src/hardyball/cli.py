"""Command-line entry point: configuration ingestion, run orchestration,
deterministic persistence, and sweep parallelism.

Only the commands that solve (solve, continue, sweep) import the solver
and its integrator, and only those that audit (blowup, verify, sweep)
import their module; no command loads scipy.

Exit codes: 0 success, 1 configuration error, 2 inadmissible parameters,
3 solver failure."""

from __future__ import annotations

import atexit
import dataclasses
import gc
import hashlib
import itertools
import json
import math
import os
import pickle
import random
import sys
import warnings
from types import SimpleNamespace

import numpy as np

from .bridge import (EuclideanProblem, b_origin, b_weight, coercivity_lambda0,
                     euclidean_potential, h_conformal, CoercivityFailure)
from .constants import (AdmissibilityError, ProblemParams, admissibility,
                        best_constant_estimate, beta_pm, check_defect,
                        critical_exponent)
from .grids import ProfileData
from .kernel import green_density, green_G, sphere_area, weight_V_p
from .profiles import EntireBubble, SolutionProfile, SolverError

__version__ = "0.1.0"

# exit-time collections then skip the import-time heap, which the OS frees
atexit.register(gc.freeze)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INADMISSIBLE = 2
EXIT_SOLVER = 3


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# deterministic serialization

def format17(x: float) -> str:
    """Floating-point text with 17 significant digits (round-trip exact)."""
    return format(float(x), ".17g")


def dumps17(obj, indent: int = 0) -> str:
    """Canonical JSON: sorted keys, floats at 17 significant digits."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f'{pad}  {json.dumps(str(k))}: {dumps17(obj[k], indent + 1)}'
                for k in sorted(obj, key=str)]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        rows = [f"{pad}  {dumps17(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format17(obj) if math.isfinite(obj) else "null"
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _cell(val) -> str:
    if isinstance(val, (float, np.floating)):
        return format17(val)
    if isinstance(val, (int, np.integer, np.bool_)):    # bools as 0/1
        return str(int(val))
    text = str(val)
    return json.dumps(text) if "," in text else text


def csv_text(header, rows) -> str:
    """CSV text of a header and rows: floats at 17 significant digits,
    bools as 0/1, and strings quoted only when they hold a comma.  A 2-D
    float array is formatted in one pass, "%.17g" writing what format17
    writes."""
    if isinstance(rows, np.ndarray):
        line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
        return (",".join(header) + "\n"
                + (line * len(rows)) % tuple(rows.ravel().tolist()))
    lines = [",".join(header)]
    lines += [",".join(_cell(val) for val in row) for row in rows]
    return "\n".join(lines) + "\n"


def read_profile_csv(source) -> ProfileData:
    """The r,v,dv samples of a CSV, given by its path or as an open file."""
    raw = np.loadtxt(source, delimiter=",", skiprows=1)
    return ProfileData(r=raw[:, 0], v=raw[:, 1], dv=raw[:, 2])


def update_manifest(outdir: str, files: dict, config_text: str,
                    seed: int) -> None:
    """Record every output file, name -> the text written to it, with its
    checksum; entries from earlier commands in the same directory are
    preserved."""
    try:
        entries = _stored(outdir, "manifest.json", json.load).get("files", {})
    except ConfigError:         # none yet, or unreadable: start afresh
        entries = {}
    for name, text in files.items():
        blob = text.encode("utf-8")     # the bytes write_text wrote
        entries[name] = {"sha256": hashlib.sha256(blob).hexdigest(),
                         "bytes": len(blob)}
    manifest = {
        "version": __version__,
        "config_sha256": hashlib.sha256(
            config_text.encode("utf-8")).hexdigest(),
        "seed": int(seed),
        "files": entries,
    }
    write_text(os.path.join(outdir, "manifest.json"), dumps17(manifest) + "\n")


# ---------------------------------------------------------------------------
# configuration

def _check_keys(block, allowed, name: str, required=()) -> None:
    """A ConfigError unless block is an object whose keys include required
    and lie in the set allowed (any keys, for allowed None)."""
    if not isinstance(block, dict):
        raise ConfigError(f"{name} must be an object")
    for kind, keys in (("unknown", set(block) - set(allowed or block)),
                       ("missing required", set(required) - set(block))):
        if keys:
            raise ConfigError(f"{kind} key(s) in {name}: "
                              + ", ".join(sorted(keys)))


def _number(key: str, value, low: float = 0.0, high: float = math.inf,
            integer: bool = False):
    """A finite JSON number in (low, high) as a float, or an integral one
    >= low as an int; anything else, an integer beyond float range
    included, is a ConfigError."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max
            or not (low <= value == int(value) if integer
                    else low < value < high)):
        kind = (("an integer" if integer else "a finite number")
                if low == -math.inf else f"an integer >= {low:g}" if integer
                else f"a number in ({low:g}, {high:g})")
        raise ConfigError(f"{key} must be {kind}, not {value!r}")
    return int(value) if integer else float(value)


def _num(**bounds):
    """The rule of a number that _number types within bounds."""
    return lambda key, value, section: _number(key, value, **bounds)


def _optional(rule, null=None):
    """rule, or null for a null value."""
    return lambda key, value, section: (
        null if value is None else rule(key, value, section))


def _kind(test, kind: str):
    """The rule of a value that test accepts, which kind describes."""
    def rule(key, value, section):
        if not test(value):
            raise ConfigError(f"{key} must be {kind}, not {value!r}")
        return value
    return rule


def _list(item, decreasing: bool = False):
    """The rule of a non-empty list of values, each typed by the rule item,
    as a tuple, and strictly decreasing if decreasing."""
    def rule(key, value, section):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{key} must be a non-empty list")
        out = tuple(item(key, x, section) for x in value)
        if decreasing and any(b >= a for a, b in zip(out, out[1:])):
            raise ConfigError(f"{key} must be strictly decreasing")
        return out
    return rule


def _interval(key: str, value, section) -> tuple:
    """[lo, hi] with 0 < lo < hi, as a tuple of floats."""
    pair = _list(_num())(key, value, section)
    if len(pair) != 2 or not pair[0] < pair[1]:
        raise ConfigError(f"{key} must be [lo, hi] with 0 < lo < hi")
    return pair


def _node_target(key: str, value, solver: dict) -> int:
    """A node count, 0 for the variational method (ground states only)."""
    target = _number(key, value, integer=True)
    if target and solver["method"] == "variational":
        raise ConfigError("solver.node_target must be 0 for the "
                          "variational method (ground states only)")
    return target


_FINITE = _num(low=-math.inf)
# every key of a config's params and solver sections, as (its default, its
# rule); a params key without a default in ProblemParams is required.  A
# rule types the value of one key, rule(key, value, section), or raises a
# ConfigError naming key; section holds the keys typed before it.
_CONFIG = {
    "params": {field.name: (field.default, _num(
        low=-math.inf, integer=field.name == "n"))
        for field in dataclasses.fields(ProblemParams)},
    "solver": {
        "domain_radius": (0.5, _num(high=1.0)),
        "method": ("shooting", _kind(
            lambda v: v in ("shooting", "variational"),
            "shooting or variational")),
        "grid_num": (1600, _num(low=4, integer=True)),
        "r0": (None, _optional(lambda key, value, solver: _number(
            key, value, high=solver["domain_radius"]))),
        "node_target": (0, _node_target),
        "K_range": ([1e-4, 1e6], _interval),
        "boundary_tol": (1e-8, _num()),
        "rtol": (1e-11, _num()),
        "schedule": ([0.4, 0.2, 0.1, 0.05, 0.025, 0.0125, 0.0],
                     _list(_FINITE, decreasing=True)),
        "annulus": (None, _optional(_interval)),     # pohozaev annulus
        "fit_window": (None, _optional(_interval)),  # exponent-fit window
        # the bubble's 4001 radii, 10^(+-decades/2), stay finite and apart
        "bubble_decades": (8.0, _num(
            low=1e-6, high=2.0 * math.log10(sys.float_info.max))),
        "coercivity": (False, _kind(lambda v: isinstance(v, bool),
                                    "true or false")),
    },
}
# each sweep axis, in axis order, and the section of the key it overrides
_SWEEP_AXES = {"gamma": "params", "s": "params", "lam": "params",
               "p_defect": "params", "node_target": "solver"}


def _typed(section: str, block, name: str) -> dict:
    """block, an object of _CONFIG[section]'s keys, with the defaults of
    those it lacks, each typed by its rule; name labels the keys."""
    table = _CONFIG[section]
    _check_keys(block, set(table), name, [
        key for key in table if table[key][0] is dataclasses.MISSING])
    typed = {}
    for key, (default, rule) in table.items():
        typed[key] = rule(f"{name}.{key}", block.get(key, default), typed)
    return typed


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except ValueError as exc:       # not JSON, not UTF-8, or a huge integer
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _check_keys(cfg, {"params", "solver", "sweep"}, "config", ["params"])
    typed = {name: _typed(name, cfg.get(name, {}), name) for name in _CONFIG}
    sweep = cfg.get("sweep")
    _check_keys({} if sweep is None else sweep, set(_SWEEP_AXES), "sweep")
    for key, grid in (sweep or {}).items():    # a list of the key's values
        section = _SWEEP_AXES[key]
        sweep[key] = _list(_CONFIG[section][key][1])(f"sweep.{key}", grid,
                                                     typed[section])
    return {**typed, "sweep": sweep}


def make_params(cfg: dict) -> ProblemParams:
    return ProblemParams(**cfg["params"])


def make_problem(cfg: dict, params: ProblemParams) -> EuclideanProblem:
    return EuclideanProblem(params, cfg["solver"]["domain_radius"])


def _outdir(args) -> str:
    out = args.out or "out"
    os.makedirs(out, exist_ok=True)
    return out


def emit(cfg: dict, args, files: dict, summary) -> int:
    """Write each output file, name -> text or a JSON document (written by
    dumps17), record them all in the manifest, and print the summary."""
    out = _outdir(args)
    texts = {name: body if isinstance(body, str) else dumps17(body) + "\n"
             for name, body in files.items()}
    for name, text in texts.items():
        write_text(os.path.join(out, name), text)
    update_manifest(out, texts, dumps17({"config": cfg, "seed": args.seed}),
                    args.seed)
    print(dumps17(summary))
    return EXIT_OK


def _sidecar(stem: str, profile: SolutionProfile,
             problem: EuclideanProblem) -> dict:
    """The two files of a stored profile: its samples and its sidecar."""
    d = profile.data
    doc = {
        "params": profile.params.as_dict(),
        "p_defect": profile.params.p_defect,
        "K0": profile.K0,
        "node_count": d.node_count(),
        "energy": profile.energy,
        "residual_norm": profile.residual_norm,
        "meta": profile.meta,
        "domain_radius": problem.domain_radius,
    }
    table = csv_text(("r", "v", "dv"), np.column_stack((d.r, d.v, d.dv)))
    return {stem + ".csv": table, stem + ".json": doc}


def _stored(outdir: str, name: str, read):
    """read(file) of the file name that an earlier command wrote to outdir;
    a missing file, or one that read cannot parse, is a ConfigError."""
    try:
        with open(os.path.join(outdir, name), encoding="utf-8") as fh:
            return read(fh)
    except FileNotFoundError:
        raise ConfigError(f"no stored {name} in {outdir}") from None
    except (ValueError, IndexError) as exc:     # JSON, loadtxt, ProfileData
        raise ConfigError(f"stored {name} in {outdir} is malformed: "
                          f"{exc}") from exc


def _stored_run(outdir: str, name: str, rules: dict) -> tuple:
    """(its values of the keys of rules, key -> rule, each typed by its
    rule, and the ProblemParams of its params) of the JSON file name that
    an earlier command wrote to outdir, which must hold params and keys."""
    doc = _stored(outdir, name, json.load)
    missing = {"params", *rules} - set(doc if isinstance(doc, dict) else ())
    if missing:
        raise ConfigError(f"stored {name} in {outdir} lacks key(s): "
                          + ", ".join(sorted(missing)))
    params = _typed("params", doc["params"], f"{name} params")
    return ({key: rule(f"{name} {key}", doc[key], None)
             for key, rule in rules.items()}, ProblemParams(**params))


def _steps(key: str, steps, section) -> list:
    """A stored continuation's steps: objects of a string stem, a p_defect,
    the schedule that ran, and a sup_increment, a finite number or, on the
    first step only, null; other keys, as older runs wrote, are ignored."""
    _kind(lambda v: isinstance(v, list), "a list")(key, steps, None)
    for i, step in enumerate(steps):
        _check_keys(step, None, f"{key}[{i}]",
                    ("stem", "p_defect", "sup_increment"))
        _kind(lambda v: isinstance(v, str), "a string")(
            f"{key}[{i}].stem", step["stem"], None)
        (_FINITE if i else _optional(_FINITE))(
            f"{key}[{i}].sup_increment", step["sup_increment"], None)
    ps = [step["p_defect"] for step in steps]
    if ps:
        _list(_FINITE, decreasing=True)(key + "' p_defect", ps, None)
    return steps


def read_profile(outdir: str, stem: str) -> tuple:
    """Rebuild (SolutionProfile, domain radius) from a CSV + sidecar
    written by an earlier command in the same directory: the samples give
    the node count, the sidecar's params the defect."""
    doc, params = _stored_run(outdir, stem + ".json", {
        "K0": _FINITE, "energy": _optional(_FINITE, math.nan),
        "residual_norm": _optional(_FINITE, math.nan),
        "meta": _kind(lambda v: isinstance(v, dict), "an object"),
        "domain_radius": _CONFIG["solver"]["domain_radius"][1]})
    data = _stored(outdir, stem + ".csv", read_profile_csv)
    radius = doc.pop("domain_radius")
    return SolutionProfile(data=data, params=params, **doc), radius


# ---------------------------------------------------------------------------
# subcommands

def cmd_constants(cfg: dict, args) -> int:
    params = make_params(cfg)
    n, gamma = params.n, params.gamma
    bm, bp = beta_pm(n, gamma)
    doc = {
        "params": params.as_dict(),
        "exponents": {
            "beta_minus": bm, "beta_plus": bp,
            "alpha_minus": 0.5 - math.sqrt(0.25 - gamma / (n - 2.0) ** 2),
            "two_star_s": critical_exponent(n, params.s),
            "tau_range": [bm, (bm + bp) / 2.0]},
        "admissibility": admissibility(params),
        "best_constant": best_constant_estimate(n, params.s, gamma),
    }
    if args.out:
        return emit(cfg, args, {"constants.json": doc}, doc)
    print(dumps17(doc))
    return EXIT_OK


def cmd_weights(cfg: dict, args) -> int:
    params = make_params(cfg)
    n, s = params.n, params.s
    q = critical_exponent(n, s)
    r = np.geomspace(1e-6, 1.0 - 1e-6, cfg["solver"]["grid_num"])
    V2 = weight_V_p(r, n, 2.0)
    table = csv_text(("r", "f", "G", "V2", "Vq"), np.column_stack((
        r, green_density(r, n), green_G(r, n), V2, weight_V_p(r, n, q))))
    doc = {"n": n, "s": s, "critical_exponent": q,
           "origin_limit_4r2_V2": float(V2[0] * 4.0 * r[0] ** 2),
           "surface_constant": sphere_area(n)}
    return emit(cfg, args, {"weights.csv": table, "weights.json": doc}, doc)


def cmd_bridge(cfg: dict, args) -> int:
    params = make_params(cfg)
    problem = make_problem(cfg, params)
    R = problem.domain_radius
    r = np.geomspace(1e-6, R, cfg["solver"]["grid_num"])
    table = csv_text(("r", "b", "W"), np.column_stack((
        r, problem.b(r),
        euclidean_potential(r, params.n, params.gamma, params.lam))))
    doc = {
        "h0": problem.h0,
        "b_origin": b_origin(params.n, params.s),
        "h_exact_at_R_half": h_conformal(R * 0.5, params.n, params.gamma,
                                         params.lam),
        "b_at_origin_weight": b_weight(1e-8, params.n, params.s),
        "domain_radius": R,
    }
    if cfg["solver"]["coercivity"]:
        doc["coercivity_lambda0"] = coercivity_lambda0(problem)
    return emit(cfg, args, {"bridge.csv": table, "bridge.json": doc}, doc)


def _solve_one(cfg: dict, problem: EuclideanProblem, p: float,
               K_start: float = None) -> SolutionProfile:
    """The solve at p that the config's solver section sets, from K_start
    if given: the one map of that section to the solvers."""
    from .solver import solve_dirichlet_shooting, solve_variational
    sol = cfg["solver"]
    if sol["method"] == "variational":
        return solve_variational(problem, p, r0=sol["r0"],
                                 num=sol["grid_num"])
    return solve_dirichlet_shooting(
        problem, p, node_target=sol["node_target"], K_range=sol["K_range"],
        boundary_tol=sol["boundary_tol"], r0=sol["r0"], rtol=sol["rtol"],
        K_start=K_start)


def cmd_solve(cfg: dict, args) -> int:
    params = make_params(cfg)
    problem = make_problem(cfg, params)
    prof = _solve_one(cfg, problem, params.p_defect)
    return emit(cfg, args, _sidecar("profile", prof, problem),
                {"energy": prof.energy, "K0": prof.K0,
                 "node_count": prof.data.node_count(),
                 "residual_norm": prof.residual_norm})


def cmd_bubble(cfg: dict, args) -> int:
    params = make_params(cfg)
    bub = EntireBubble(params.n, params.s, params.gamma,
                       b_origin(params.n, params.s),
                       cfg["solver"]["bubble_decades"])
    doc = {"n": bub.n, "s": bub.s, "gamma": bub.gamma, "b0": bub.b0,
           "K": bub.K, "psi_peak": bub.psi_peak}
    d = bub.data
    table = csv_text(("r", "v", "dv"), np.column_stack((d.r, d.v, d.dv)))
    return emit(cfg, args, {"bubble.csv": table, "bubble.json": doc}, doc)


def cmd_continue(cfg: dict, args) -> int:
    from .solver import continuation_to_critical
    if cfg["solver"]["method"] != "shooting":
        raise ConfigError("solver.method must be shooting for continue")
    params = make_params(cfg)
    problem = make_problem(cfg, params)
    schedule = cfg["solver"]["schedule"]
    for p in schedule:                  # every step is admissible, or none runs
        check_defect(params.n, params.s, p)
    profiles, failure = continuation_to_critical(
        problem, schedule,
        lambda p, K_start: _solve_one(cfg, problem, p, K_start=K_start))
    files, steps = {}, []
    for idx, prof in enumerate(profiles):
        stem = f"continuation_{idx:02d}"
        files.update(_sidecar(stem, prof, problem))
        steps.append({"p_defect": prof.params.p_defect, "stem": stem,
                      "sup_increment": prof.meta.get("sup_increment")})
    summary = {"params": profiles[-1].params.as_dict(), "steps": steps,
               "completed": failure is None, "failure": failure}
    files["continuation.json"] = summary
    return emit(cfg, args, files,
                {"steps": len(steps), "completed": summary["completed"]})


def cmd_blowup(cfg: dict, args) -> int:
    from . import blowup as blowup_mod
    make_params(cfg)            # the config is checked like any other
    out = _outdir(args)
    run, params = _stored_run(out, "continuation.json", {"steps": _steps})
    steps = run["steps"]
    if not steps:
        raise ConfigError(f"no steps in the stored continuation in {out}")
    # the verdict judges the stored run, by its params and its steps; the
    # scales are read off the last step's samples
    last = read_profile(out, steps[-1]["stem"])[0]
    verdict = blowup_mod.compactness_verdict(steps, params)
    scales = blowup_mod.detect_scales(last)
    verdict["detected_scales"] = [list(pair) for pair in scales]
    files = {}
    if scales:
        worst, annuli = blowup_mod.envelope_check(last,
                                                  [mu for mu, _ in scales])
        verdict["envelope_constant"] = worst
        files["envelope.csv"] = csv_text(("r_lo", "r_hi", "max_ratio"),
                                         np.reshape(annuli, (-1, 3)))
    files["blowup.json"] = verdict
    return emit(cfg, args, files,
                {"verdict": verdict["verdict"], "scales": len(scales)})


def cmd_verify(cfg: dict, args) -> int:
    from .verify import (VerificationError, audit_profile, hardy_check,
                         hardy_sharpness_error)
    make_params(cfg)            # the config is checked like any other
    out = _outdir(args)
    prof, radius = read_profile(out, "profile")
    problem = EuclideanProblem(prof.params, domain_radius=radius)
    provenance = {"stem": "profile", "directory": out, "seed": int(args.seed)}
    checks = []

    def add(name, value, tolerance, passed=None):
        checks.append({"name": name, "value": float(value),
                       "tolerance": float(tolerance),
                       "passed": bool(abs(value) <= tolerance
                                      if passed is None else passed)})

    try:
        *_, audits = audit_profile(prof, problem, cfg["solver"]["annulus"],
                                   cfg["solver"]["fit_window"])
    except VerificationError as exc:        # the annulus misses the grid
        raise ConfigError(f"solver.annulus: {exc}") from exc
    for audit in audits:
        add(*audit)
    add("energy_positive", prof.energy, math.inf, passed=prof.energy > 0.0)
    # sampled hyperbolic Hardy margins, and the margins of near-extremal
    # profiles against their exact values
    rng = random.Random(int(args.seed))
    r = np.geomspace(1e-6, 0.99, 600)
    # 20 compactly supported bumps, one (center, width) draw each: their tails
    # clear the clipping level inside the grid, or the truncated singular mass
    # is meaningless.  Numerical warnings are recorded in the report.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        draws = np.array([(rng.uniform(math.log(1e-3), math.log(0.05)),
                           rng.uniform(0.2, 0.5)) for _ in range(20)])
        vals = np.exp(-((np.log(r) - draws[:, :1]) / draws[:, 1:]) ** 2)
        vals[vals < 1e-14] = 0.0
        bumps = [ProfileData(r, row) for row in vals]
        worst_rel = min(math.inf, *hardy_check(bumps, prof.params.n))
        sharpness = hardy_sharpness_error(prof.params.n)
    provenance["hardy_warnings"] = len(caught)
    provenance["hardy_first_warning"] = (
        " ".join(str(caught[0].message).split()) if caught else None)
    add("hardy_margin_min_relative", worst_rel, math.inf,
        passed=worst_rel >= -1e-8)
    add("hardy_sharpness_relative_error", sharpness, 1e-4)
    passed = all(check["passed"] for check in checks)
    doc = {"provenance": provenance, "checks": checks, "passed": passed}
    return emit(cfg, args, {"verify.json": doc},
                {"passed": passed, "checks": len(checks)})


# ---------------------------------------------------------------------------
# sweep

def _sweep_row(task: tuple) -> dict:
    """One sweep cell, solved and audited as verify audits it; a row that
    fails either audit is failed, with the failed checks named."""
    from .verify import VerificationError, audit_profile
    index, base_cfg, overrides = task
    params, solver = dict(base_cfg["params"]), dict(base_cfg["solver"])
    cfg, row = dict(base_cfg, params=params, solver=solver), {"index": index}
    for key, section in _SWEEP_AXES.items():
        cfg[section][key] = row[key] = overrides.get(key, cfg[section][key])
    try:
        problem_params = make_params(cfg)
        problem = make_problem(cfg, problem_params)
        prof = _solve_one(cfg, problem, problem_params.p_defect)
        row["shoots"] = prof.meta.get("shoots", 0)
        po, slope, stderr, target, checks = audit_profile(
            prof, problem, solver["annulus"], solver["fit_window"])
        row.update({"energy": prof.energy, "K0": prof.K0,
                    "node_count": prof.data.node_count(), "slope": slope,
                    "slope_target": target, "slope_stderr": stderr,
                    "pohozaev_relative": po.relative})
        failed = [name for name, value, tolerance in checks
                  if not abs(value) <= tolerance]
        if failed:
            raise VerificationError("audit failed: " + ", ".join(failed))
        row.update({"status": "ok", "message": ""})
    except (AdmissibilityError, SolverError, VerificationError) as exc:
        inadmissible = isinstance(exc, AdmissibilityError)
        row.update({"status": "inadmissible" if inadmissible else "failed",
                    "message": str(exc), "error_class": type(exc).__name__,
                    "shoots": getattr(exc, "shoots", row.get("shoots", 0))})
    return row


_SWEEP_COLUMNS = ["index", *_SWEEP_AXES, "status", "energy", "K0",
                  "node_count", "slope", "slope_target", "slope_stderr",
                  "pohozaev_relative", "message", "error_class", "shoots"]


def _fork_map(fn, tasks: list, workers: int) -> list:
    """``[fn(task) for task in tasks]``, run by w = min(workers, len(tasks))
    forked children (in this process when that is 1).  Child i runs
    tasks[i::w] in order, stops at its first exception, and sends back its
    results, pickled, through its own pipe.  An exception of fn is raised
    here, the one of the lowest index, as the serial map raises it; a child
    that dies is a SolverError."""
    workers = min(workers, len(tasks))
    if workers <= 1:
        return [fn(task) for task in tasks]
    # a child that flushed would otherwise write the parent's buffered text
    sys.stdout.flush()
    sys.stderr.flush()
    pipes = {}              # pid -> its result pipe's read end, in fork order
    try:
        for first in range(workers):
            result_r, result_w = os.pipe()
            pid = os.fork()
            if pid == 0:                    # the child, which never returns
                status = 1
                try:
                    for fd in (result_r, *pipes.values()):
                        os.close(fd)
                    done = []
                    for task in tasks[first::workers]:
                        try:
                            done.append((True, fn(task)))
                        except Exception as exc:
                            done.append((False, exc))
                            break
                    with open(result_w, "wb") as fh:
                        pickle.dump(done, fh)
                    status = 0
                finally:
                    os._exit(status)
            os.close(result_w)
            pipes[pid] = result_r
        results = [None] * len(tasks)
        for first, pid in enumerate(list(pipes)):
            with open(pipes[pid], "rb", closefd=False) as fh:
                blob = fh.read()
            status = os.waitpid(pid, 0)[1]
            os.close(pipes.pop(pid))
            if status:
                raise SolverError(f"sweep worker {pid} died "
                                  f"(wait status {status})")
            for index, result in zip(range(first, len(tasks), workers),
                                     pickle.loads(blob)):
                results[index] = result
        # a task no child ran comes after every failed one
        for ok, value in results:
            if not ok:
                raise value
        return [value for _, value in results]
    finally:
        if pipes:                   # left only by an error or an interrupt
            import signal           # ~1 ms that no other path should pay
            for pid in pipes:
                os.kill(pid, signal.SIGTERM)
                os.waitpid(pid, 0)
        for fd in pipes.values():
            os.close(fd)


def cmd_sweep(cfg: dict, args) -> int:
    if not cfg["sweep"]:
        raise ConfigError("missing required section: sweep")
    keys = [key for key in _SWEEP_AXES if key in cfg["sweep"]]
    grid = itertools.product(*(cfg["sweep"][key] for key in keys))
    tasks = [(index, cfg, dict(zip(keys, combo)))
             for index, combo in enumerate(grid)]
    # the solver and verify are imported before the fork, so that the
    # workers inherit them instead of each importing them again
    from . import solver, verify  # noqa: F401
    rows = _fork_map(_sweep_row, tasks, args.workers)
    table = csv_text(_SWEEP_COLUMNS, ([row.get(col, "") for col in
                                       _SWEEP_COLUMNS] for row in rows))
    ok = sum(1 for row in rows if row["status"] == "ok")
    inadmissible = sum(1 for row in rows if row["status"] == "inadmissible")
    doc = {"rows": len(rows), "succeeded": ok, "failed": len(rows) - ok}
    emit(cfg, args, {"sweep.csv": table, "sweep.json": doc}, doc)
    # the files are written either way; the exit code says why no cell solved
    if not ok and inadmissible == len(rows):
        raise AdmissibilityError(rows[0]["message"])
    if not ok:
        raise SolverError(f"no sweep cell solved ({len(rows) - inadmissible} "
                          f"failed, {inadmissible} inadmissible)")
    return EXIT_OK


# ---------------------------------------------------------------------------

_COMMANDS = {
    "constants": cmd_constants,
    "weights": cmd_weights,
    "bridge": cmd_bridge,
    "solve": cmd_solve,
    "bubble": cmd_bubble,
    "continue": cmd_continue,
    "blowup": cmd_blowup,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
}


_OPTIONS = ("--config", "--out", "--workers", "--seed")
_USAGE = ("usage: hardyball {" + ",".join(_COMMANDS) + "} --config PATH "
          "[--out DIR] [--workers N] [--seed U64]")


def parse_args(argv: list) -> SimpleNamespace:
    """One command of _COMMANDS and the options, each followed by its value,
    in any order: --config PATH (required), --out DIR, --workers N (default
    1) and --seed U64 (default 0).  Anything else is a ConfigError."""
    args, words = {"out": None, "workers": "1", "seed": "0"}, iter(argv)
    for word in words:
        key = word[2:] if word in _OPTIONS else "command"
        value = next(words, "--") if word in _OPTIONS else word
        if key == "command" and (word not in _COMMANDS or key in args):
            raise ConfigError(f"unexpected argument {word!r}; {_USAGE}")
        if value.startswith("--"):
            raise ConfigError(f"{word} needs a value")
        args[key] = value
    if not {"command", "config"} <= set(args):
        raise ConfigError(f"a command and --config are required; {_USAGE}")
    for key, low in (("workers", 1), ("seed", 0)):
        word = args[key]
        if not (word.isdecimal() and len(word) <= 20
                and low <= int(word) < 2 ** 64):
            raise ConfigError(f"--{key} must be an integer from {low} to "
                              f"2^64 - 1, not {word!r}")
        args[key] = int(word)
    if args["workers"] > 1 and not hasattr(os, "fork"):
        raise ConfigError("--workers above 1 needs os.fork, which this "
                          "platform lacks")
    return SimpleNamespace(**args)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        print(_USAGE)
        return EXIT_OK
    try:
        args = parse_args(argv)
        return _COMMANDS[args.command](load_config(args.config), args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AdmissibilityError as exc:
        print(f"inadmissible parameters: {exc}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    except (SolverError, CoercivityFailure) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
