"""The three workloads: their inputs, made from the seed, the CLI commands a
single user would run on them, and the oracle that checks every output.

An operation is one CLI command or one sweep cell.  ``check`` returns, per
operation, one of

* ``ok``     the exit code and the output match the expected outcome;
* ``failed`` the program reported an error where the mathematics expects a
  result (a known solver gap, say); its outputs are not wrong, only absent;
* ``wrong``  the program returned a result that the oracle rejects.

``failed`` and ``wrong`` both count as failed operations; only ``wrong``
makes the run incorrect.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random

import numpy as np
from scipy.linalg import LinAlgError, cholesky_banded

REF_PARAMS = {"n": 5, "s": 1.0, "gamma": -2.0, "lam": 10.0}
SCHEDULE = [0.4, 0.2, 0.1, 0.05, 0.025, 0.0125, 0.0]

# Relative tolerance against the values recorded in reference.json.  It
# admits the ~1e-9 shifts a faster kernel or root finder makes and rejects
# a wrong solve, which moves K0 and the energy by far more.
REF_RTOL = 1e-6

POHOZAEV_MAX = 1e-4
SLOPE_RTOL = 0.02
NON_COERCIVE_GAMMA = 2.2
DEFECT_S, DEFECT_P = 1.9, 0.03      # valid cell that ends in BracketNotFound

# verify's seed draws its 20 random Hardy test profiles, and with them moves
# the quadrature work by +-15 %, more than the run-to-run bound allows; the
# audit therefore always verifies with seed 0, the ROADMAP baseline.
VERIFY_SEED = 0


class Op:
    """Outcome of one operation."""

    def __init__(self, name, status, detail=""):
        self.name, self.status, self.detail = name, status, detail

    def __repr__(self):
        return f"{self.name}: {self.status} {self.detail}".rstrip()


def cli(command, config, out, seed, workers=1):
    return [command, "--config", config, "--out", out, "--seed", str(seed),
            "--workers", str(workers)]


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _close(value, ref, rtol=REF_RTOL):
    return (value is not None and math.isfinite(value)
            and abs(value - ref) <= rtol * abs(ref))


# ---------------------------------------------------------------------------
# the mathematics the sweep oracle rests on (independent of hardyball)

def critical_exponent(n, s):
    return 2.0 * (n - s) / (n - 2.0)


def beta_minus(n, gamma):
    return (n - 2.0) / 2.0 - math.sqrt((n - 2.0) ** 2 / 4.0 - gamma)


def coercive(n, gamma, lam, margin=0.02, R=0.5, depth=30.0, num=3000):
    """Whether the flat quadratic form with the paper's constant potential
    h0 (n >= 5) is coercive, i.e. Lambda0 = min Q/D > 0, decided with a
    margin: True if Lambda0 > margin, False if Lambda0 < -margin.

    With t = log r and v = r^{-(n-2)/2} w both forms lose their weights:
      Q(w) = int w_t^2 + (nu^2 - gamma) w^2 - h0 e^{2t} w^2 dt,
      D(w) = int w_t^2 + nu^2 w^2 dt.
    Lambda0 > mu iff Q - mu D is positive definite.  Finite differences with
    Dirichlet ends on [log R - depth, log R] make Q - mu D tridiagonal, and
    a banded Cholesky factorisation succeeds iff it is positive definite."""
    nu2 = (n - 2.0) ** 2 / 4.0
    h0 = 4.0 * (n - 2.0) / (n - 4.0) * gamma + 4.0 * lam - n * (n - 2.0)
    t = np.linspace(math.log(R) - depth, math.log(R), num + 2)[1:-1]
    dt = t[1] - t[0]

    def definite(mu):
        band = np.empty((2, num))
        band[0] = -(1.0 - mu) / dt ** 2
        band[1] = (2.0 * (1.0 - mu) / dt ** 2 + (1.0 - mu) * nu2 - gamma
                   - h0 * np.exp(2.0 * t))
        try:
            cholesky_banded(band)
        except LinAlgError:
            return False
        return True

    if definite(margin):
        return True
    if not definite(-margin):
        return False
    raise ValueError(f"gamma={gamma} sits on the coercivity threshold")


# ---------------------------------------------------------------------------
# inputs

def make_inputs(name, seed, root):
    """Write the workload's config file under ``root`` and return its
    description: the config path, the number of solve requests and, for the
    sweep, every cell with its expected outcome."""
    if name == "continuation":
        cfg = {"params": dict(REF_PARAMS), "solver": {"schedule": SCHEDULE}}
        path = os.path.join(root, "continuation.json")
        _write_json(path, cfg)
        return {"config": path, "solve_requests": len(SCHEDULE)}
    if name == "audit":
        cfg = {"params": dict(REF_PARAMS, p_defect=0.2),
               "solver": {"coercivity": True}}
        path = os.path.join(root, "audit.json")
        _write_json(path, cfg)
        return {"config": path, "solve_requests": 0}
    if name == "sweep":
        rng = random.Random(seed)
        # the ordinary cells stay near the reference config, inside the
        # region where a ground state exists and the fixed K scan brackets
        # it; cells nearer gamma = -0.5 cost more, so the draw is kept to
        # the middle of that region, where the work moves little by seed
        gamma = round(rng.uniform(-2.0, -1.0), 4)
        p_draw = round(rng.uniform(0.15, 0.25), 4)
        # the slowest cell (gamma = 2.2, s = 1, p = 0.03) comes first, so
        # that two workers finish together whatever the draws
        grid = {"gamma": [NON_COERCIVE_GAMMA, gamma],
                "s": [REF_PARAMS["s"], DEFECT_S],
                "p_defect": [DEFECT_P, p_draw]}
        cfg = {"params": dict(REF_PARAMS), "sweep": grid}
        path = os.path.join(root, "sweep.json")
        _write_json(path, cfg)
        cells = [{"gamma": g, "s": s, "p_defect": p} for g in grid["gamma"]
                 for s in grid["s"] for p in grid["p_defect"]]
        for cell in cells:
            cell["expected"] = expected_outcome(cell)
        return {"config": path, "cells": cells,
                "solve_requests": sum(c["expected"] != "inadmissible"
                                      for c in cells)}
    raise ValueError(f"unknown workload {name!r}")


def expected_outcome(cell):
    """What the mathematics says a sweep cell must give."""
    n = REF_PARAMS["n"]
    if cell["p_defect"] >= critical_exponent(n, cell["s"]) - 2.0:
        return "inadmissible"
    return "ok" if coercive(n, cell["gamma"], REF_PARAMS["lam"]) else "failed"


def commands(name, inputs, out, seed, workers):
    """CLI argument lists for one repeat of the workload."""
    cfg = inputs["config"]
    if name == "continuation":
        return [cli("continue", cfg, out, seed), cli("blowup", cfg, out, seed)]
    if name == "audit":
        return [cli("weights", cfg, out, seed), cli("bridge", cfg, out, seed),
                cli("verify", cfg, out, VERIFY_SEED)]
    return [cli("sweep", cfg, out, seed, workers)]


def prepare_command(name, inputs, out, seed):
    """Untimed command whose output every repeat starts from, or None."""
    if name == "audit":
        return cli("solve", inputs["config"], out, seed)
    return None


# ---------------------------------------------------------------------------
# oracle

def check(name, inputs, out, exit_codes, reference):
    """Operations of one repeat with their outcome (see module docstring)."""
    if name == "continuation":
        return _check_continuation(out, exit_codes, reference)
    if name == "audit":
        return _check_audit(out, exit_codes, reference)
    return _check_sweep(inputs, out, exit_codes)


def command_op(name, code, problems):
    if code != 0:
        return Op(name, "failed", f"exit code {code}")
    if problems:
        return Op(name, "wrong", "; ".join(problems))
    return Op(name, "ok")


def check_profile(doc, ref):
    problems = []
    for key in ("K0", "energy"):
        if not _close(doc.get(key), ref[key]):
            problems.append(f"{key} {doc.get(key)!r} != {ref[key]!r}")
    if doc.get("node_count") != 0:
        problems.append(f"node_count {doc.get('node_count')!r}")
    return problems


def _check_continuation(out, codes, reference):
    ref = reference["continuation"]
    problems = []
    if codes[0] == 0:
        summary = _read_json(os.path.join(out, "continuation.json"))
        steps = summary["steps"]
        if not summary["completed"] or len(steps) != len(ref["steps"]):
            problems.append(f"{len(steps)} of {len(ref['steps'])} steps")
        for step, want in zip(steps, ref["steps"]):
            doc = _read_json(os.path.join(out, step["stem"] + ".json"))
            if not _close(doc["p_defect"], want["p_defect"], 0.0):
                problems.append(f"p_defect {doc['p_defect']}")
            problems += [f"{step['stem']}: {p}"
                         for p in check_profile(doc, want)]
    ops = [command_op("continue", codes[0], problems)]
    problems = []
    if codes[1] == 0:
        verdict = _read_json(os.path.join(out, "blowup.json"))["verdict"]
        if verdict != ref["verdict"]:
            problems.append(f"verdict {verdict}")
    ops.append(command_op("blowup", codes[1], problems))
    return ops


def _green_G_n5(r):
    """G for n = 5 in closed form: the integral of (1-t^2)^3 t^-4 over
    [r, 1]."""
    return 16.0 / 3.0 + r ** -3 / 3.0 - 3.0 / r - 3.0 * r + r ** 3 / 3.0


def _check_audit(out, codes, reference):
    ref = reference["audit"]
    n, s = REF_PARAMS["n"], REF_PARAMS["s"]
    ops = []
    problems = []
    if codes[0] == 0:
        doc = _read_json(os.path.join(out, "weights.json"))
        if not _close(doc["critical_exponent"], critical_exponent(n, s), 1e-15):
            problems.append("critical exponent")
        if not _close(doc["surface_constant"], 8.0 * math.pi ** 2 / 3.0,
                      1e-14):
            problems.append("surface constant")
        with open(os.path.join(out, "weights.csv"), encoding="utf-8") as fh:
            rows = [[float(x) for x in row[:3]]
                    for row in list(csv.reader(fh))[1:]]
        r, f, G = (np.array(col) for col in zip(*rows))
        inner = r <= 0.9
        f_exact = (1.0 - r * r) ** (n - 2) / r ** (n - 1)
        if np.max(np.abs(f / f_exact - 1.0)) > 1e-12:
            problems.append("green density off its closed form")
        err = np.max(np.abs(G[inner] / _green_G_n5(r[inner]) - 1.0))
        if err > 1e-8:
            problems.append(f"G off its closed form by {err:.1e}")
    ops.append(command_op("weights", codes[0], problems))
    problems = []
    if codes[1] == 0:
        doc = _read_json(os.path.join(out, "bridge.json"))
        b0 = (n - 2.0) ** ((2.0 - s) / (n - 2.0)) / 2.0 ** (2.0 - s)
        if not _close(doc["b_origin"], b0, 1e-14):
            problems.append("b_origin")
        if not _close(doc.get("coercivity_lambda0"), ref["lambda0"]):
            problems.append(f"lambda0 {doc.get('coercivity_lambda0')!r}")
    ops.append(command_op("bridge", codes[1], problems))
    problems = []
    if codes[2] == 0:
        doc = _read_json(os.path.join(out, "verify.json"))
        checks = {c["name"]: c for c in doc["checks"]}
        if doc["passed"] is not True:
            problems.append("verify did not pass")
        if not abs(checks["pohozaev_relative_residual"]["value"]) <= POHOZAEV_MAX:
            problems.append("pohozaev residual")
    ops.append(command_op("verify", codes[2], problems))
    return ops


def _float(text):
    return float(text) if text not in ("", "nan") else math.nan


def _check_sweep(inputs, out, codes):
    cells = inputs["cells"]
    n = REF_PARAMS["n"]
    ops = []
    rows = []
    if os.path.exists(os.path.join(out, "sweep.csv")):
        with open(os.path.join(out, "sweep.csv"), encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
    problems = [] if len(rows) == len(cells) else [f"{len(rows)} rows"]
    # the command itself succeeds whenever one cell solves
    ops.append(command_op("sweep", codes[0], problems))
    for idx, cell in enumerate(cells):
        label = (f"cell gamma={cell['gamma']} s={cell['s']} "
                 f"p={cell['p_defect']}")
        if idx >= len(rows):
            ops.append(Op(label, "failed", "missing row"))
            continue
        row = rows[idx]
        got, want = row["status"], cell["expected"]
        if (_float(row["gamma"]) != cell["gamma"] or _float(row["s"]) != cell["s"]
                or _float(row["p_defect"]) != cell["p_defect"]):
            ops.append(Op(label, "wrong", "row does not match its cell"))
        elif got == "ok" and want != "ok":
            ops.append(Op(label, "wrong", f"solved a cell expected {want}"))
        elif got != want:
            ops.append(Op(label, "failed", f"status {got}: {row['message']}"))
        elif got == "ok":
            target = -beta_minus(n, cell["gamma"])
            bad = []
            if not _float(row["pohozaev_relative"]) <= POHOZAEV_MAX:
                bad.append(f"pohozaev {row['pohozaev_relative']}")
            if not abs(_float(row["slope"]) - target) <= SLOPE_RTOL * abs(target):
                bad.append(f"slope {row['slope']} vs {target}")
            if row["node_count"] != "0":
                bad.append(f"node_count {row['node_count']}")
            ops.append(Op(label, "wrong", "; ".join(bad)) if bad
                       else Op(label, "ok"))
        else:
            ops.append(Op(label, "ok"))
    return ops


def record_reference(continuation_out, prepared_profile, audit_out):
    """Reference values for check(), read from outputs of this commit."""
    summary = _read_json(os.path.join(continuation_out, "continuation.json"))
    steps = []
    for step in summary["steps"]:
        doc = _read_json(os.path.join(continuation_out, step["stem"] + ".json"))
        steps.append({k: doc[k] for k in ("p_defect", "K0", "energy")})
    verdict = _read_json(os.path.join(continuation_out, "blowup.json"))
    profile = _read_json(prepared_profile)
    bridge = _read_json(os.path.join(audit_out, "bridge.json"))
    return {
        "continuation": {"steps": steps, "verdict": verdict["verdict"]},
        "audit": {"lambda0": bridge["coercivity_lambda0"],
                  "profile": {k: profile[k] for k in ("K0", "energy")}},
    }
