"""Command-line entry point: configuration ingestion, run orchestration,
deterministic persistence, and sweep parallelism.

Only the commands that solve (solve, continue, sweep) import the solver
and its integrator, and only those that audit (blowup, verify, sweep)
import their module; no command loads scipy.

Exit codes: 0 success, 1 configuration error, 2 inadmissible parameters,
3 solver failure."""

from __future__ import annotations

import argparse
import atexit
import dataclasses
import gc
import hashlib
import itertools
import json
import math
import os
import pickle
import sys
import warnings

import numpy as np

from .bridge import (EuclideanProblem, b_origin, b_weight, coercivity_lambda0,
                     euclidean_potential, h_conformal, CoercivityFailure)
from .constants import (AdmissibilityError, ProblemParams, admissibility,
                        best_constant_estimate, beta_pm, critical_exponent,
                        exponent_set)
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
        x = float(obj)
        if math.isnan(x) or math.isinf(x):
            return "null"
        return format17(x)
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


def read_profile_csv(path: str) -> ProfileData:
    raw = np.loadtxt(path, delimiter=",", skiprows=1)
    return ProfileData(r=raw[:, 0], v=raw[:, 1], dv=raw[:, 2])


def update_manifest(outdir: str, files: dict, config_text: str,
                    seed: int) -> None:
    """Record every output file, name -> the text written to it, with its
    checksum; entries from earlier commands in the same directory are
    preserved."""
    path = os.path.join(outdir, "manifest.json")
    entries = {}
    if os.path.exists(path):
        try:
            with open(path) as fh:
                entries = json.load(fh).get("files", {})
        except (json.JSONDecodeError, OSError):
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
    write_text(path, dumps17(manifest) + "\n")


# ---------------------------------------------------------------------------
# configuration

_PARAM_KEYS = {field.name for field in dataclasses.fields(ProblemParams)}
_PARAM_REQUIRED = {"n", "s", "gamma"}
_SOLVER_DEFAULTS = {
    "domain_radius": 0.5,
    "method": "shooting",        # shooting | variational
    "grid_num": 1600,
    "r0": None,
    "node_target": 0,
    "K_range": [1e-4, 1e6],
    "boundary_tol": 1e-8,
    "rtol": 1e-11,
    "schedule": [0.4, 0.2, 0.1, 0.05, 0.025, 0.0125, 0.0],
    "annulus": None,             # pohozaev annulus for verify
    "fit_window": None,          # exponent-fit window for verify
    "bubble_decades": 8.0,
    "coercivity": False,
}
_OUTPUT_DEFAULTS = {"directory": "out"}
_SWEEP_KEYS = ("gamma", "s", "lam", "p_defect", "node_target")  # axis order


def _check_keys(block, allowed: set, name: str) -> None:
    if not isinstance(block, dict):
        raise ConfigError(f"{name} must be an object")
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {name}: "
                          + ", ".join(sorted(unknown)))


def _number(key: str, value, low: float = 0.0, high: float = math.inf,
            integer: bool = False):
    """A finite JSON number in (low, high) as a float, or an integral one
    >= low as an int; anything else is a ConfigError."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)
            or not (low <= value == int(value) if integer
                    else low < value < high)):
        kind = (("an integer" if integer else "a finite number")
                if low == -math.inf else f"an integer >= {low:g}" if integer
                else f"a number in ({low:g}, {high:g})")
        raise ConfigError(f"{key} must be {kind}, not {value!r}")
    return int(value) if integer else float(value)


def _interval(key: str, value) -> tuple:
    """[lo, hi] with 0 < lo < hi, as a tuple of floats."""
    pair = (tuple(_number(key, x) for x in value)
            if isinstance(value, list) else ())
    if len(pair) != 2 or not pair[0] < pair[1]:
        raise ConfigError(f"{key} must be [lo, hi] with 0 < lo < hi")
    return pair


def _type_solver(sol: dict) -> None:
    """Convert every value of the solver section to its type, in place,
    and check it against its range, so that the commands read it as it
    is."""
    if sol["method"] not in ("shooting", "variational"):
        raise ConfigError("solver.method must be shooting or variational")
    if not isinstance(sol["coercivity"], bool):
        raise ConfigError("solver.coercivity must be true or false")
    for key, bounds in (("domain_radius", {"high": 1.0}),
                        ("grid_num", {"low": 4, "integer": True}),
                        ("node_target", {"integer": True}),
                        ("boundary_tol", {}), ("rtol", {}),
                        ("bubble_decades", {})):
        sol[key] = _number("solver." + key, sol[key], **bounds)
    if sol["r0"] is not None:
        sol["r0"] = _number("solver.r0", sol["r0"], high=sol["domain_radius"])
    for key in ("K_range", "annulus", "fit_window"):
        if key == "K_range" or sol[key] is not None:
            sol[key] = _interval("solver." + key, sol[key])
    if not isinstance(sol["schedule"], list) or not sol["schedule"]:
        raise ConfigError("solver.schedule must be a non-empty list")
    ps = tuple(_number("solver.schedule", p, low=-math.inf)
               for p in sol["schedule"])
    if any(b >= a for a, b in zip(ps, ps[1:])):
        raise ConfigError("solver.schedule must be strictly decreasing")
    sol["schedule"] = ps


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _check_keys(cfg, {"params", "solver", "output", "sweep"}, "config")
    params = cfg.get("params")
    if not isinstance(params, dict):
        raise ConfigError("missing required section: params")
    _check_keys(params, _PARAM_KEYS, "params")
    missing = _PARAM_REQUIRED - set(params)
    if missing:
        raise ConfigError("missing required params key(s): "
                          + ", ".join(sorted(missing)))
    # the ranges are ProblemParams' own checks (exit code 2)
    params = {key: _number("params." + key, value, low=-math.inf,
                           integer=key == "n")
              for key, value in params.items()}
    solver = dict(_SOLVER_DEFAULTS)
    _check_keys(cfg.get("solver", {}), set(_SOLVER_DEFAULTS), "solver")
    solver.update(cfg.get("solver", {}))
    _type_solver(solver)
    output = dict(_OUTPUT_DEFAULTS)
    _check_keys(cfg.get("output", {}), set(_OUTPUT_DEFAULTS), "output")
    output.update(cfg.get("output", {}))
    sweep = cfg.get("sweep")
    if sweep is not None:
        _check_keys(sweep, set(_SWEEP_KEYS), "sweep")
        for key, grid in sweep.items():
            if not isinstance(grid, list) or not grid:
                raise ConfigError(f"sweep.{key} must be a non-empty list")
        sweep = {key: [_number("sweep." + key, value, integer=True)
                       if key == "node_target" else
                       _number("sweep." + key, value, low=-math.inf)
                       for value in grid]
                 for key, grid in sweep.items()}
    return {"params": params, "solver": solver, "output": output,
            "sweep": sweep}


def make_params(cfg: dict) -> ProblemParams:
    return ProblemParams(**cfg["params"])


def make_problem(cfg: dict, params: ProblemParams) -> EuclideanProblem:
    return EuclideanProblem(params, cfg["solver"]["domain_radius"])


def _outdir(cfg: dict, args) -> str:
    out = args.out if args.out else cfg["output"]["directory"]
    os.makedirs(out, exist_ok=True)
    return out


def emit(cfg: dict, args, files: dict, summary) -> int:
    """Write each output file, name -> text or a JSON document (written by
    dumps17), record them all in the manifest, and print the summary."""
    out = _outdir(cfg, args)
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
        "boundary_value": d.v[-1],
        "meta": {k: v for k, v in profile.meta.items()
                 if isinstance(v, (int, float, str, bool))},
        "domain_radius": problem.domain_radius,
    }
    table = csv_text(("r", "v", "dv"), np.column_stack((d.r, d.v, d.dv)))
    return {stem + ".csv": table, stem + ".json": doc}


def _stored(outdir: str, name: str) -> str:
    """The path of a file that an earlier command wrote to outdir."""
    path = os.path.join(outdir, name)
    if not os.path.exists(path):
        raise ConfigError(f"no stored {name} in {outdir}")
    return path


def _stored_json(outdir: str, name: str) -> dict:
    with open(_stored(outdir, name)) as fh:
        return json.load(fh)


def read_profile(outdir: str, stem: str) -> tuple:
    """Rebuild (SolutionProfile, EuclideanProblem) from a CSV + sidecar
    written by an earlier command in the same directory: the samples give
    the node count and boundary value, the sidecar's params the defect."""
    doc = _stored_json(outdir, stem + ".json")
    _check_keys(doc["params"], _PARAM_KEYS, f"{stem}.json params")
    data = read_profile_csv(_stored(outdir, stem + ".csv"))
    params = ProblemParams(**doc["params"])
    problem = EuclideanProblem(params,
                               domain_radius=doc.get("domain_radius",
                                                     float(data.r[-1])))
    prof = SolutionProfile(
        data=data, params=params, K0=doc["K0"], energy=doc["energy"],
        residual_norm=(doc["residual_norm"]
                       if doc["residual_norm"] is not None else math.nan),
        meta=dict(doc.get("meta", {})))
    return prof, problem


# ---------------------------------------------------------------------------
# subcommands

def cmd_constants(cfg: dict, args) -> int:
    params = make_params(cfg)
    exps = exponent_set(params.n, params.s, params.gamma)
    doc = {
        "params": params.as_dict(),
        "exponents": exps.as_dict(),
        "admissibility": admissibility(params),
        "best_constant": best_constant_estimate(params.n, params.s,
                                                params.gamma),
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
    beta_pm(params.n, params.gamma)     # raises above the threshold
    problem = make_problem(cfg, params)
    R = problem.domain_radius
    r = np.geomspace(1e-6, R, cfg["solver"]["grid_num"])
    table = csv_text(("r", "h", "b", "W"), np.column_stack((
        r, np.full_like(r, problem.h0), problem.b(r),
        euclidean_potential(r, params.n, params.gamma, params.lam))))
    doc = {
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
        if sol["node_target"] != 0:
            raise ConfigError("solver.node_target must be 0 for the "
                              "variational method (ground states only)")
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
           "K_minus": bub.K, "K_plus": bub.K, "psi_peak": bub.psi_peak}
    d = bub.data
    table = csv_text(("r", "v", "dv"), np.column_stack((d.r, d.v, d.dv)))
    return emit(cfg, args, {"bubble.csv": table, "bubble.json": doc}, doc)


def cmd_continue(cfg: dict, args) -> int:
    from .solver import ContinuationSchedule, continuation_to_critical
    if cfg["solver"]["method"] != "shooting":
        raise ConfigError("solver.method must be shooting for continue")
    params = make_params(cfg)
    problem = make_problem(cfg, params)
    schedule = ContinuationSchedule(cfg["solver"]["schedule"])
    profiles = continuation_to_critical(
        problem, schedule,
        lambda p, K_start: _solve_one(cfg, problem, p, K_start=K_start))
    if not profiles:
        raise SolverError("continuation produced no profiles")
    files = {}
    steps = []
    for idx, prof in enumerate(profiles):
        stem = f"continuation_{idx:02d}"
        files.update(_sidecar(stem, prof, problem))
        steps.append({"p_defect": prof.params.p_defect, "stem": stem,
                      "energy": prof.energy,
                      "weighted_sup": prof.meta.get("weighted_sup"),
                      "sup_increment": prof.meta.get("sup_increment"),
                      "h1_norm_sq": prof.meta.get("h1_norm_sq")})
    summary = {"params": params.as_dict(), "steps": steps,
               "domain_radius": problem.domain_radius,
               "completed": len(profiles) == len(schedule.p_values)}
    files["continuation.json"] = summary
    return emit(cfg, args, files,
                {"steps": len(steps), "completed": summary["completed"]})


def cmd_blowup(cfg: dict, args) -> int:
    from . import blowup as blowup_mod
    params = make_params(cfg)
    out = _outdir(cfg, args)
    steps = _stored_json(out, "continuation.json")["steps"]
    if not steps:
        raise ConfigError(f"no steps in the stored continuation in {out}")
    # the verdict reads the stored steps, the scales the last step's samples
    last = read_profile(out, steps[-1]["stem"])[0]
    verdict = blowup_mod.compactness_verdict(steps, params)
    scales = blowup_mod.detect_scales(last)
    verdict["detected_scales"] = [list(pair) for pair in scales]
    files = {}
    if scales:
        fam = blowup_mod.BubbleFamily([mu for mu, _ in scales], last.params)
        rep = blowup_mod.envelope_check(last, fam)
        verdict["envelope_constant"] = rep.worst_ratio
        files["envelope.csv"] = csv_text(("r_lo", "r_hi", "max_ratio"),
                                         np.reshape(rep.annuli, (-1, 3)))
    files["blowup.json"] = verdict
    return emit(cfg, args, files,
                {"verdict": verdict["verdict"], "scales": len(scales)})


def cmd_verify(cfg: dict, args) -> int:
    from .verify import (VerificationError, VerificationReport, audit_profile,
                         hardy_check, hardy_sharpness_error)
    params = make_params(cfg)
    out = _outdir(cfg, args)
    prof, problem = read_profile(out, "profile")
    report = VerificationReport(
        provenance={"stem": "profile", "directory": out,
                    "seed": int(args.seed)})
    try:
        *_, checks = audit_profile(prof, problem, cfg["solver"]["annulus"],
                                   cfg["solver"]["fit_window"])
    except VerificationError as exc:        # the annulus misses the grid
        raise ConfigError(f"solver.annulus: {exc}") from exc
    for check in checks:
        report.add(*check)
    report.add("energy_positive", prof.energy, math.inf,
               passed=prof.energy > 0.0)
    # sampled hyperbolic Hardy margins, and the margins of near-extremal
    # profiles against their exact values
    rng = np.random.default_rng(int(args.seed))
    r = np.geomspace(1e-6, 0.99, 600)
    # compactly supported samples: tails must clear the clipping level
    # inside the grid, otherwise the truncated singular mass is meaningless.
    # Numerical warnings are recorded in the report, not printed.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        bumps = []
        for _ in range(20):
            center = rng.uniform(math.log(1e-3), math.log(0.05))
            width = rng.uniform(0.2, 0.5)
            vals = np.exp(-((np.log(r) - center) / width) ** 2)
            vals[vals < 1e-14] = 0.0
            bumps.append(ProfileData(r, vals))
        worst_rel = min(math.inf, *hardy_check(bumps, params.n))
        sharpness = hardy_sharpness_error(params.n)
    report.provenance["hardy_warnings"] = len(caught)
    report.provenance["hardy_first_warning"] = (
        " ".join(str(caught[0].message).split()) if caught else None)
    report.add("hardy_margin_min_relative", worst_rel, math.inf,
               passed=worst_rel >= -1e-8)
    report.add("hardy_sharpness_relative_error", sharpness, 1e-4)
    doc = report.as_dict()
    columns = ("name", "value", "tolerance", "passed")
    table = csv_text(columns, ([check[col] for col in columns]
                               for check in doc["checks"]))
    return emit(cfg, args, {"verify.json": doc, "verify.csv": table},
                {"passed": doc["passed"], "checks": len(doc["checks"])})


# ---------------------------------------------------------------------------
# sweep

def _sweep_row(task: tuple) -> dict:
    """One sweep cell, solved and audited as verify audits it; a row that
    fails either audit is failed, with the failed checks named."""
    from .verify import VerificationError, audit_profile
    index, base_cfg, overrides = task
    params, solver = dict(base_cfg["params"]), dict(base_cfg["solver"])
    for key, val in overrides.items():
        (solver if key == "node_target" else params)[key] = val
    cfg = dict(base_cfg, params=params, solver=solver)
    row = {"index": index, "gamma": params["gamma"], "s": params["s"],
           "lam": params.get("lam", 0.0),
           "p_defect": params.get("p_defect", 0.0),
           "node_target": solver["node_target"]}
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


_SWEEP_COLUMNS = ["index", "gamma", "s", "lam", "p_defect", "node_target",
                  "status", "energy", "K0", "node_count", "slope",
                  "slope_target", "slope_stderr", "pohozaev_relative",
                  "message", "error_class", "shoots"]


def _fork_map(fn, tasks: list, workers: int) -> list:
    """``[fn(task) for task in tasks]``, run by min(workers, len(tasks))
    forked children (in this process when that is 1).  Each child pulls
    the next task index from one shared pipe as it comes free, and sends
    back its results, pickled, when the pipe runs dry.  An exception of fn
    is raised here, the one of the lowest index, as the serial map raises
    it; a child that dies is a SolverError."""
    workers = min(workers, len(tasks))
    if workers <= 1:
        return [fn(task) for task in tasks]
    # a child that flushed would otherwise write the parent's buffered text
    sys.stdout.flush()
    sys.stderr.flush()
    index_r, index_w = os.pipe()
    pipes = {}              # pid -> read end of the child's result pipe
    try:
        for _ in range(workers):
            result_r, result_w = os.pipe()
            pid = os.fork()
            if pid == 0:                    # the child, which never returns
                status = 1
                try:
                    for fd in (index_w, result_r, *pipes.values()):
                        os.close(fd)
                    done = []
                    # the indices are written whole, 4 bytes each, so every
                    # read of 4 returns one index (or b"" at EOF)
                    while chunk := os.read(index_r, 4):
                        index = int.from_bytes(chunk, "little")
                        try:
                            done.append((index, True, fn(tasks[index])))
                        except Exception as exc:
                            done.append((index, False, exc))
                            break
                    with open(result_w, "wb") as fh:
                        pickle.dump(done, fh)
                    status = 0
                finally:
                    os._exit(status)
            os.close(result_w)
            pipes[pid] = result_r
        # without a read end here, a write that no child reads fails at once
        os.close(index_r)
        index_r = None
        view = memoryview(np.arange(len(tasks), dtype="<u4").tobytes())
        try:
            while view:
                view = view[os.write(index_w, view):]
        except BrokenPipeError:     # every child is gone; their statuses say
            pass
        os.close(index_w)           # EOF, once each child has closed its copy
        index_w = None
        results = [None] * len(tasks)
        for pid in list(pipes):
            with open(pipes[pid], "rb", closefd=False) as fh:
                blob = fh.read()
            status = os.waitpid(pid, 0)[1]
            os.close(pipes.pop(pid))
            if status:
                raise SolverError(f"sweep worker {pid} died "
                                  f"(wait status {status})")
            for index, ok, value in pickle.loads(blob):
                results[index] = ok, value
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
        for fd in (index_r, index_w, *pipes.values()):
            if fd is not None:
                os.close(fd)


def cmd_sweep(cfg: dict, args) -> int:
    if not cfg["sweep"]:
        raise ConfigError("missing required section: sweep")
    keys = [key for key in _SWEEP_KEYS if key in cfg["sweep"]]
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
    doc = {"rows": len(rows), "succeeded": ok,
           "failed": len(rows) - ok}
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hardyball",
        description="Radial laboratory for a singular Dirichlet problem "
                    "and its conformal reduction.")
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", required=True,
                        help="path to the JSON run configuration")
    parser.add_argument("--out", default=None,
                        help="output directory (overrides the config)")
    parser.add_argument("--workers", type=int, default=1,
                        help="forked worker processes for sweeps "
                             "(at least 1; above 1 needs os.fork)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized checks (u64)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if not (0 <= args.seed < 2 ** 64):
            raise ConfigError("--seed must fit in an unsigned 64-bit value")
        if args.workers < 1:
            raise ConfigError(f"--workers must be at least 1, not "
                              f"{args.workers}")
        if args.workers > 1 and not hasattr(os, "fork"):
            raise ConfigError("--workers above 1 needs os.fork, which this "
                              "platform lacks")
        return _COMMANDS[args.command](cfg, args)
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
