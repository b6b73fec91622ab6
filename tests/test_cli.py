"""End-to-end command tests: configuration validation, exit codes,
deterministic artifacts, and sweep parallelism."""

import csv
import dataclasses
import hashlib
import json
import math
import os
import pathlib
import random
import re
import signal
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import hardyball
from hardyball import cli, ode, solver
from hardyball.blowup import plant_bubbles
from hardyball.bridge import EuclideanProblem
from hardyball.cli import (csv_text, dumps17, format17, load_config, main,
                           read_profile_csv, ConfigError)
from hardyball.constants import critical_exponent
from hardyball.profiles import SolverError
from hardyball.solver import ProfileData
from hardyball.verify import hardy_check

REF_PARAMS = {"n": 5, "s": 1.0, "gamma": -2.0, "lam": 10.0, "p_defect": 0.2}


def _json(path):
    return json.loads(pathlib.Path(path).read_text(encoding="utf-8"))


def _bytes(path):
    return pathlib.Path(path).read_bytes()


def _write_cfg(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return str(path)


@pytest.fixture()
def cfg_path(tmp_path):
    return _write_cfg(tmp_path / "run.json", {"params": dict(REF_PARAMS)})


# ----------------------------------------------------------- serialization

def test_format17_round_trip():
    for x in (1.0 / 3.0, 1e-300, -2.5, 4.0 * np.arctan(1.0)):
        assert float(format17(x)) == x


def test_dumps17_canonical():
    doc = {"b": [1.0 / 3.0, float("nan")], "a": {"z": True, "y": None}}
    text = dumps17(doc)
    assert text == dumps17(doc)                  # deterministic
    parsed = json.loads(text)
    assert parsed["b"][0] == 1.0 / 3.0           # 17 digits round-trip
    assert parsed["b"][1] is None                # nan maps to null
    assert text.index('"a"') < text.index('"b"')  # sorted keys


def test_profile_csv_round_trip(tmp_path):
    r = np.geomspace(1e-6, 0.5, 50)
    data = ProfileData(r=r, v=np.sin(r) / 3.0, dv=np.cos(r) / 7.0)
    path = str(tmp_path / "p.csv")
    cli.write_text(path, csv_text(("r", "v", "dv"),
                                  np.column_stack((data.r, data.v, data.dv))))
    with open(path) as fh:
        assert fh.readline().strip() == "r,v,dv"
    back = read_profile_csv(path)
    assert np.array_equal(back.r, data.r)
    assert np.array_equal(back.v, data.v)
    assert np.array_equal(back.dv, data.dv)


def test_profile_csv_matches_the_cell_rule(rng):
    # a 2-D float array is formatted in one pass, with the bytes of the
    # per-cell rule
    cols = [np.concatenate([[-0.0, 0.0, 1e-300, -1e-300, math.nan, math.inf,
                             5e-324, 1.0 / 3.0],
                            rng.standard_normal(200) * 10.0 ** rng.integers(
                                -20, 20, 200)])
            for _ in range(3)]
    table = np.column_stack((cols[0], cols[1][::-1], -cols[2]))
    assert csv_text(("r", "v", "dv"), table) == csv_text(
        ("r", "v", "dv"), [list(row) for row in table])
    # no rows, and one column
    assert csv_text(("a", "b"), np.empty((0, 2))) == csv_text(("a", "b"), [])
    assert csv_text(("a",), table[:, :1]) == csv_text(
        ("a",), [[x] for x in table[:, 0]])


def test_csv_text_cell_rule():
    text = csv_text(["a", "b", "c", "d", "e"],
                    [[True, 1.0 / 3.0, 7, "ok", "x, y"],
                     [np.bool_(False), np.float64(0.5), np.int64(-2), "", 2]])
    assert text == ('a,b,c,d,e\n'
                    '1,0.33333333333333331,7,ok,"x, y"\n'
                    '0,0.5,-2,,2\n')


# ----------------------------------------------------------- configuration

def test_load_config_rejects_unknown_keys(tmp_path):
    with pytest.raises(ConfigError):
        load_config(_write_cfg(tmp_path / "a.json",
                               {"params": dict(REF_PARAMS), "extra": {}}))
    with pytest.raises(ConfigError):
        load_config(_write_cfg(tmp_path / "b.json",
                               {"params": {**REF_PARAMS, "mystery": 1}}))
    with pytest.raises(ConfigError):
        load_config(_write_cfg(tmp_path / "c.json",
                               {"params": dict(REF_PARAMS),
                                "solver": {"stepsize": 0.1}}))
    with pytest.raises(ConfigError):
        load_config(_write_cfg(tmp_path / "d.json",
                               {"params": dict(REF_PARAMS),
                                "sweep": {"gamma": []}}))
    # the output section is gone: --out sets the directory
    with pytest.raises(ConfigError):
        load_config(_write_cfg(tmp_path / "e.json",
                               {"params": dict(REF_PARAMS),
                                "output": {"formats": ["csv"]}}))
    # a section that is not an object
    for i, extra in enumerate(({"solver": [1, 2]}, {"output": 5},
                               {"sweep": [1]}, {"solver": None})):
        with pytest.raises(ConfigError):
            load_config(_write_cfg(tmp_path / f"f{i}.json",
                                   {"params": dict(REF_PARAMS), **extra}))


def test_load_config_requires_core_params(tmp_path):
    with pytest.raises(ConfigError):
        load_config(_write_cfg(tmp_path / "a.json",
                               {"params": {"n": 5, "s": 1.0}}))
    with pytest.raises(ConfigError):
        load_config(_write_cfg(tmp_path / "b.json", {"solver": {}}))


def test_exit_code_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["constants", "--config", str(bad)]) == 1
    # bytes that are not UTF-8, and an integer too long for int()
    for raw in (b"\xff\xfe", b'{"params": {"lam": 1' + b"0" * 5000 + b"}}"):
        bad.write_bytes(raw)
        assert main(["constants", "--config", str(bad)]) == 1
    assert main(["constants", "--config", str(tmp_path / "missing.json")]) == 1
    cfg = _write_cfg(tmp_path / "k.json",
                     {"params": dict(REF_PARAMS), "unknown": 1})
    assert main(["constants", "--config", cfg]) == 1
    ok = _write_cfg(tmp_path / "ok.json", {"params": dict(REF_PARAMS)})
    assert main(["constants", "--config", ok, "--seed", "-1"]) == 1
    capsys.readouterr()
    # malformed values and sections exit cleanly, not with a traceback,
    # before the command reads them
    def solver(**values):
        return {"params": dict(REF_PARAMS), "solver": values}

    for i, (command, doc) in enumerate((
            ("constants", {"params": {**REF_PARAMS, "n": "five"}}),
            ("constants", {"params": {**REF_PARAMS, "gamma": "x"}}),
            ("constants", {"params": {**REF_PARAMS, "n": math.inf}}),
            ("constants", {"params": {**REF_PARAMS, "n": 5.9}}),
            # params and sweep values are numbers, not strings or booleans
            ("constants", {"params": {**REF_PARAMS, "n": "5", "s": "1.0"}}),
            ("constants", {"params": {**REF_PARAMS, "lam": True}}),
            ("constants", {"params": {**REF_PARAMS, "lam": None}}),
            # the potential has no r^-theta factor and c is h(0)
            ("constants", {"params": {**REF_PARAMS, "theta": 0.0}}),
            ("constants", {"params": {**REF_PARAMS, "c": 1.0}}),
            ("sweep", {"params": dict(REF_PARAMS),
                       "sweep": {"gamma": [True, "-2"]}}),
            ("sweep", {"params": dict(REF_PARAMS),
                       "sweep": {"p_defect": [0.1, math.nan]}}),
            ("constants", {"params": dict(REF_PARAMS), "solver": [1, 2]}),
            ("constants", {"params": dict(REF_PARAMS), "output": 5}),
            ("constants", {"params": dict(REF_PARAMS), "sweep": [1]}),
            ("bridge", solver(domain_radius="x")),
            ("bridge", solver(domain_radius=1.5)),
            ("solve", solver(K_range=[1e6, 1e-4])),
            ("solve", solver(r0=0.7)),
            ("solve", solver(rtol=0)),
            ("bridge", solver(coercivity="yes")),
            ("continue", solver(schedule=[0.1, 0.2])),
            ("sweep", {"params": dict(REF_PARAMS),
                       "sweep": {"node_target": [-1]}}),
            # an integer beyond float range
            ("constants", {"params": {**REF_PARAMS, "lam": 10 ** 400}}),
            # --out sets the output directory; there is no output section
            ("weights", {"params": dict(REF_PARAMS),
                         "output": {"directory": str(tmp_path / "o")}}))):
        cfg = _write_cfg(tmp_path / f"m{i}.json", doc)
        out = tmp_path / f"out{i}"
        assert main([command, "--config", cfg, "--out", str(out)]) == 1, doc
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1, err
        assert not (out / "manifest.json").exists()
    # the solver has no method to choose, the audits' windows follow r0,
    # the grids and the bubble's span are fixed, and r0 reads the bound of
    # the domain radius whatever its value
    for i, (doc, message) in enumerate((
            (solver(method="shooting"), "unknown key(s) in solver: method"),
            (solver(annulus=[1e-3, 0.5]), "unknown key(s) in solver: annulus"),
            (solver(fit_window=[1e-4, 1e-3]),
             "unknown key(s) in solver: fit_window"),
            (solver(grid_num=200), "unknown key(s) in solver: grid_num"),
            (solver(bubble_decades=8.0),
             "unknown key(s) in solver: bubble_decades"),
            (solver(r0=1.5),
             "solver.r0 must be a number in (0, 0.5), not 1.5"),
            (solver(r0="x"),
             "solver.r0 must be a number in (0, 0.5), not 'x'"))):
        cfg = _write_cfg(tmp_path / f"pinned{i}.json", doc)
        out = tmp_path / f"pinned{i}"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["solve", "--out", "{out}"],
    ["frobnicate", "--config", "{cfg}", "--out", "{out}"],
    ["solve", "--config", "{cfg}", "--out", "{out}", "--verbose"],
    ["solve", "--out", "{out}", "--config"],
    ["solve", "--config", "{cfg}", "--out", "{out}", "--workers", "two"],
    ["solve", "--config", "{cfg}", "--out", "{out}", "--seed", "x"],
], ids=["no-config", "unknown-command", "unknown-option", "no-value",
        "workers-two", "seed-x"])
def test_usage_errors_exit_1_and_write_nothing(tmp_path, capsys, cfg_path,
                                               argv):
    # a malformed command line is a configuration error, as a malformed
    # config is: exit 1, its cause on stderr, and no output directory
    out = tmp_path / "out"
    assert main([word.format(cfg=cfg_path, out=out) for word in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ")
    assert not out.exists()


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_prints_the_usage_line(tmp_path, capsys, cfg_path, flag):
    out = tmp_path / "out"
    assert main(["solve", flag, "--config", cfg_path, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert printed == ("usage: hardyball {constants,weights,bridge,solve,"
                       "bubble,continue,blowup,verify,sweep} --config PATH "
                       "[--out DIR] [--workers N] [--seed U64]\n")
    assert not out.exists()


def test_exit_code_inadmissible(tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "sup.json",
                     {"params": {"n": 5, "s": 1.0, "gamma": 2.25}})
    assert main(["constants", "--config", cfg]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command, node_target", [
    ("constants", 0), ("weights", 0), ("bridge", 0), ("bubble", 0),
    ("solve", 0), ("solve", 1), ("continue", 0), ("verify", 0),
    ("blowup", 0), ("sweep", 0)])
def test_the_hardy_threshold_exits_2_everywhere(tmp_path, capsys, command,
                                                node_target):
    # gamma = 3 lies above (n-2)^2/4 = 2.25 at n = 5: ProblemParams refuses
    # it, so every command exits 2 with the cause before it writes a file
    # (a sweep writes its rows, each inadmissible)
    cfg = _write_cfg(tmp_path / "run.json", {
        "params": dict(REF_PARAMS, gamma=3.0),
        "solver": {"node_target": node_target},
        "sweep": {"gamma": [3.0]}})
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "inadmissible parameters: gamma must be strictly below the Hardy "
        "threshold (n-2)^2/4\n")
    if command != "sweep":
        assert not out.exists()
        return
    with open(out / "sweep.csv", encoding="utf-8") as fh:
        (row,) = list(csv.DictReader(fh))
    assert (row["status"], row["error_class"], row["shoots"]) == (
        "inadmissible", "AdmissibilityError", "0")


def test_continue_checks_its_schedule_before_it_solves(tmp_path, monkeypatch,
                                                       capsys):
    # p = -0.1 is the third step: the run exits 2 before its first shoot,
    # and writes nothing
    def refuse(*args, **kwargs):
        raise AssertionError("shoot called")

    monkeypatch.setattr(solver, "shoot", refuse)
    cfg = _write_cfg(tmp_path / "run.json", {
        "params": dict(REF_PARAMS), "solver": {"schedule": [0.4, 0.2, -0.1]}})
    out = tmp_path / "out"
    assert main(["continue", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("inadmissible parameters: subcritical "
                                       "defect must lie in [0, 0.666667)\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "bridge", "continue"])
def test_flat_problem_below_n_5_exits_2(tmp_path, capsys, command):
    # at n = 4 h is singular at the origin: the commands that build the
    # flat problem refuse it, and say why
    cfg = _write_cfg(tmp_path / "n4.json",
                     {"params": dict(REF_PARAMS, n=4)})
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("inadmissible parameters:") and "n >= 5" in err
    assert not (out / "manifest.json").exists()


def test_sweep_below_n_5_writes_inadmissible_rows(tmp_path, capsys):
    # every row inadmissible: the files are written, and the sweep exits as
    # solve does, with the first row's cause on stderr
    cfg = _write_cfg(tmp_path / "n4.json", {
        "params": dict(REF_PARAMS, n=4), "sweep": {"gamma": [-2.0, -3.0]}})
    out = str(tmp_path / "out")
    assert main(["sweep", "--config", cfg, "--out", out]) == 2
    with open(os.path.join(out, "sweep.csv"), encoding="utf-8") as fh:
        table = list(csv.DictReader(fh))
    assert [row["status"] for row in table] == ["inadmissible"] * 2
    assert all(row["error_class"] == "AdmissibilityError"
               and "n >= 5" in row["message"] and row["shoots"] == "0"
               for row in table)
    assert capsys.readouterr().err == \
        f"inadmissible parameters: {table[0]['message']}\n"


@pytest.mark.parametrize("command", ["constants", "weights", "bubble"])
def test_commands_without_the_flat_problem_run_at_n_3(tmp_path, capsys,
                                                      command):
    cfg = _write_cfg(tmp_path / "n3.json", {
        "params": {"n": 3, "s": 1.0, "gamma": -1.0, "lam": 10.0}})
    out = str(tmp_path / "out")
    assert main([command, "--config", cfg, "--out", out]) == 0
    capsys.readouterr()


def test_exit_code_solver_failure(tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "fail.json", {
        "params": dict(REF_PARAMS),
        "solver": {"K_range": [1e-4, 2e-4], "rtol": 1e-8},
    })
    assert main(["solve", "--config", cfg,
                 "--out", str(tmp_path / "out")]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("jump, cause", [
    (True, "no convergence in 100 steps"), (False, "no sign change")])
def test_brent_failure_exits_3(tmp_path, monkeypatch, capsys, jump, cause):
    # Brent's method on the solve's bracket, given a jump (which never
    # converges at xtol = rtol = 0) or a function of one sign
    def brent(f, a, b, xtol):
        mid = 0.5 * (a + b)
        return ode._brent(lambda x: 1.0 if x > mid or not jump else -1.0,
                          a, b, xtol=0.0, rtol=0.0)

    monkeypatch.setattr(solver, "_brent", brent)
    cfg = _write_cfg(tmp_path / "run.json", {"params": dict(REF_PARAMS)})
    assert main(["solve", "--config", cfg,
                 "--out", str(tmp_path / "out")]) == 3
    assert cause in capsys.readouterr().err


def test_exit_code_not_coercive(tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "nc.json", {
        "params": dict(REF_PARAMS, gamma=2.2, p_defect=0.03)})
    assert main(["solve", "--config", cfg,
                 "--out", str(tmp_path / "out")]) == 3
    assert "not coercive" in capsys.readouterr().err


def test_bridge_coercivity_reports_negative_lambda0(tmp_path, capsys):
    # gamma = 2.2 is admissible but not coercive: bridge reports Lambda0 < 0
    cfg = _write_cfg(tmp_path / "nc.json", {
        "params": dict(REF_PARAMS, gamma=2.2), "solver": {"coercivity": True}})
    out = str(tmp_path / "out")
    assert main(["bridge", "--config", cfg, "--out", out]) == 0
    doc = _json(os.path.join(out, "bridge.json"))
    assert doc["coercivity_lambda0"] < 0.0
    capsys.readouterr()


def test_bridge_coercivity_failure_exits_3(tmp_path, capsys):
    # lam = 1e308 overflows h to inf, so the discretized form is not finite
    # and coercivity_lambda0 raises CoercivityFailure
    cfg = _write_cfg(tmp_path / "inf.json", {
        "params": dict(REF_PARAMS, gamma=2.2, lam=1e308),
        "solver": {"coercivity": True}})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main(["bridge", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == \
        "solver failure: non-finite discretized form\n"


# ------------------------------------------------------- import footprint

def _launch(script, argv):
    """Start a Python script with the CLI arguments in a fresh interpreter
    (pytest itself has scipy loaded)."""
    src_dir = os.path.dirname(os.path.dirname(hardyball.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src_dir, os.environ.get("PYTHONPATH")])))
    return subprocess.Popen([sys.executable, "-c", script, *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)


def _finish(proc):
    """Exit code and the JSON document on the last line of output."""
    out, err = proc.communicate(timeout=300)
    assert out, err
    return proc.returncode, json.loads(out.splitlines()[-1])


_SCIPY_AFTER_MAIN = """
import json, sys
from hardyball.cli import main
code = main(sys.argv[1:])
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] in ("scipy", "argparse", "gettext")
                        or m.startswith(("numpy.polynomial", "numpy.random")))))
sys.exit(code)
"""


def test_no_command_loads_scipy(tmp_path):
    # all nine commands, the shooting ones included, run on numpy alone,
    # and none imports numpy.polynomial (kernel holds its Gauss-Legendre
    # rules as literals), numpy.random (verify draws its bumps with the
    # standard library's random), or argparse and the gettext it loads
    # (main reads argv itself)
    cfg = _write_cfg(tmp_path / "run.json", {
        "params": dict(REF_PARAMS),
        "solver": {"coercivity": True, "schedule": [0.05]},
        "sweep": {"p_defect": [0.05]}})

    def launch(command, out):
        return _launch(_SCIPY_AFTER_MAIN, [command, "--config", cfg,
                                           "--out", str(tmp_path / out)])

    first = [(c, launch(c, c)) for c in ("solve", "continue", "bubble",
                                         "sweep", "weights", "bridge",
                                         "constants")]
    finished = [(command, *_finish(proc)) for command, proc in first]
    # verify reads the solved profile, blowup the stored continuation
    later = [("verify", launch("verify", "solve")),
             ("blowup", launch("blowup", "continue"))]
    finished += [(command, *_finish(proc)) for command, proc in later]
    assert finished == [(command, 0, []) for command, _ in first + later]


_FORK_PROBE = """
import json, os, sys
seen = []
fork = os.fork

def loaded():
    return ["hardyball.solver" in sys.modules,
            "hardyball.verify" in sys.modules]

def probe():
    seen.append(loaded())
    return fork()

os.fork = probe
from hardyball.cli import main
before = loaded()
code = main(sys.argv[1:])
print(json.dumps([before, seen, [m for m in ("concurrent.futures",
                                             "multiprocessing")
                                 if m in sys.modules]]))
sys.exit(code)
"""


def test_sweep_imports_solver_before_the_pool(tmp_path):
    # the forked workers inherit the solver and verify instead of importing
    # them, and the sweep loads no process pool
    cfg = _write_cfg(tmp_path / "run.json", {
        "params": dict(REF_PARAMS), "sweep": {"p_defect": [0.9, 1.0]}})
    code, (before, seen, pools) = _finish(_launch(
        _FORK_PROBE, ["sweep", "--config", cfg, "--out",
                      str(tmp_path / "out"), "--workers", "2"]))
    assert code == 2                    # both cells are inadmissible
    assert before == [False, False]
    assert seen == [[True, True]] * 2
    assert pools == []


def _loaded_after_main(*modules):
    """A script that runs the CLI and prints which of the modules it has
    loaded."""
    return f"""
import json, sys
from hardyball.cli import main
code = main(sys.argv[1:])
print(json.dumps([m for m in {modules!r} if m in sys.modules]))
sys.exit(code)
"""


_AUDITS_AFTER_MAIN = _loaded_after_main("hardyball.verify", "hardyball.blowup")


def test_only_the_audits_import_verify_and_blowup(tmp_path):
    cfg = _write_cfg(tmp_path / "run.json", {
        "params": dict(REF_PARAMS),
        "solver": {"coercivity": True, "schedule": [0.05]}})
    commands = ("solve", "continue", "bubble", "weights", "bridge",
                "constants")
    procs = [(c, _launch(_AUDITS_AFTER_MAIN, [c, "--config", cfg, "--out",
                                             str(tmp_path / c)]))
             for c in commands]
    finished = [(command, *_finish(proc)) for command, proc in procs]
    assert finished == [(command, 0, []) for command in commands]


def test_only_the_solves_import_the_solver_and_ode(tmp_path):
    # solve, continue and sweep integrate; the closed-form bubble and the
    # audits of stored profiles load neither the solver nor its integrator
    script = _loaded_after_main("hardyball.solver", "hardyball.ode")
    cfg = _write_cfg(tmp_path / "run.json", {
        "params": dict(REF_PARAMS),
        "solver": {"coercivity": True, "schedule": [0.05]},
        "sweep": {"p_defect": [0.2]}})

    def run(runs):
        procs = [(c, _launch(script, [c, "--config", config, "--out",
                                      str(tmp_path / out)]))
                 for c, config, out in runs]
        return [(command, *_finish(proc)) for command, proc in procs]

    solves = (("solve", cfg, "solve"), ("continue", cfg, "continue"),
              ("sweep", cfg, "sweep"))
    assert run(solves) == [(command, 0, ["hardyball.solver", "hardyball.ode"])
                           for command, *_ in solves]
    others = (("bubble", cfg, "bubble"), ("weights", cfg, "weights"),
              ("bridge", cfg, "bridge"), ("constants", cfg, "constants"),
              ("verify", cfg, "solve"), ("blowup", cfg, "continue"))
    assert run(others) == [(command, 0, []) for command, *_ in others]


def _check_manifest(out):
    """The manifest's entries: one for every file in ``out``, each with the
    checksum and size of the file on disk."""
    manifest = _json(os.path.join(out, "manifest.json"))
    assert set(manifest["files"]) == set(os.listdir(out)) - {"manifest.json"}
    for name, entry in manifest["files"].items():
        blob = _bytes(os.path.join(out, name))
        assert entry == {"sha256": hashlib.sha256(blob).hexdigest(),
                         "bytes": len(blob)}, name
    return manifest["files"]


_FREEZE_AT_EXIT = """
import atexit, contextlib, gc, io, json, sys
# registered before the CLI's own hook, so it runs after it (atexit runs
# its handlers last in, first out)
atexit.register(lambda: print(json.dumps([summary.getvalue(),
                                          gc.get_freeze_count()])))
from hardyball.cli import main
summary = io.StringIO()
with contextlib.redirect_stdout(summary):
    code = main(sys.argv[1:])
sys.exit(code)
"""


def test_exit_freezes_the_heap_and_keeps_the_outputs(tmp_path):
    # the exit hook moves the import-time heap (~22,000 objects with numpy)
    # out of the final collections; the command's output is unchanged
    cfg = _write_cfg(tmp_path / "run.json", {"params": dict(REF_PARAMS)})
    out = str(tmp_path / "out")
    code, (summary, frozen) = _finish(_launch(
        _FREEZE_AT_EXIT, ["weights", "--config", cfg, "--out", out]))
    assert code == 0
    assert frozen > 10_000
    assert json.loads(summary) == _json(os.path.join(out, "weights.json"))
    assert set(_check_manifest(out)) == {"weights.csv", "weights.json"}


# ----------------------------------------------------- solve/verify cycle

@pytest.fixture(scope="module")
def solved_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("solve")
    cfg = _write_cfg(tmp / "run.json", {"params": dict(REF_PARAMS)})
    out = str(tmp / "out")
    assert main(["solve", "--config", cfg, "--out", out]) == 0
    return cfg, out


def test_solve_writes_checked_artifacts(solved_dir, tmp_path, capsys):
    cfg, out = solved_dir
    assert {"profile.csv", "profile.json"} <= set(_check_manifest(out))
    # continue writes 15 files in one call: 7 profiles of two files each,
    # and the summary
    assert main(["continue", "--config", cfg, "--out",
                 str(tmp_path / "continue")]) == 0
    assert len(_check_manifest(str(tmp_path / "continue"))) == 15
    doc = _json(os.path.join(out, "profile.json"))
    assert doc["node_count"] == 0 and doc["energy"] > 0.0
    assert doc["meta"]["shoots"] == 8
    capsys.readouterr()


def test_solve_rerun_is_byte_identical(solved_dir, tmp_path, capsys):
    cfg, out = solved_dir
    out2 = str(tmp_path / "again")
    assert main(["solve", "--config", cfg, "--out", out2]) == 0
    for name in ("profile.csv", "profile.json"):
        assert _bytes(os.path.join(out, name)) == \
            _bytes(os.path.join(out2, name))
    capsys.readouterr()


def test_verify_on_stored_profile(solved_dir, capsys):
    cfg, out = solved_dir
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["verify", "--config", cfg, "--out", out,
                     "--seed", "42"]) == 0
    # numerical warnings go into the report, not to stderr
    assert [str(w.message) for w in caught] == []
    doc = _json(os.path.join(out, "verify.json"))
    assert doc["passed"] is True
    assert doc["provenance"]["hardy_warnings"] == 0
    assert doc["provenance"]["hardy_first_warning"] is None
    names = [c["name"] for c in doc["checks"]]
    assert "pohozaev_relative_residual" in names
    assert "hardy_margin_min_relative" in names
    assert "hardy_sharpness_relative_error" in names
    # one report: the checks are written once, in verify.json
    assert set(_check_manifest(out)) == {"profile.csv", "profile.json",
                                         "verify.json"}
    capsys.readouterr()


def test_verify_draws_its_bumps_from_the_seed(solved_dir, tmp_path, capsys):
    # the Hardy margin is the least over 20 bumps, each from one (center,
    # width) draw of random.Random(seed), against a bump-by-bump loop
    cfg, out = solved_dir
    directory = tmp_path / "out"
    directory.mkdir()
    for name in ("profile.csv", "profile.json"):
        (directory / name).write_bytes(_bytes(os.path.join(out, name)))
    assert main(["verify", "--config", cfg, "--out", str(directory),
                 "--seed", "3"]) == 0
    checks = _json(directory / "verify.json")["checks"]
    rng = random.Random(3)
    r = np.geomspace(1e-6, 0.99, 600)
    bumps = []
    for _ in range(20):
        center = rng.uniform(math.log(1e-3), math.log(0.05))
        width = rng.uniform(0.2, 0.5)
        vals = np.exp(-((np.log(r) - center) / width) ** 2)
        vals[vals < 1e-14] = 0.0
        bumps.append(ProfileData(r, vals))
    assert [c["value"] for c in checks
            if c["name"] == "hardy_margin_min_relative"] == \
        [min(hardy_check(bumps, REF_PARAMS["n"]))]
    capsys.readouterr()


def test_verify_judges_the_stored_profile_by_its_own_params(
        solved_dir, tmp_path, capsys):
    # the n = 5 profile verified through an n = 7 config: every check, the
    # Hardy margins included, is the one its own config reads
    cfg, out = solved_dir
    other = tmp_path / "other"
    other.mkdir()
    for name in ("profile.csv", "profile.json"):
        (other / name).write_bytes(_bytes(os.path.join(out, name)))
    seven = _write_cfg(tmp_path / "seven.json",
                       {"params": dict(REF_PARAMS, n=7)})
    checks = []
    for config, directory in ((cfg, out), (seven, str(other))):
        assert main(["verify", "--config", config, "--out", directory,
                     "--seed", "42"]) == 0
        checks.append(_json(os.path.join(directory, "verify.json"))["checks"])
    assert checks[0] == checks[1]
    capsys.readouterr()


def test_verify_reports_a_window_or_annulus_off_the_grid(solved_dir, tmp_path,
                                                        capsys):
    # a stored profile too coarse for the annulus (max(1e-3 R, r0), R) and
    # the window (10 r0, 100 r0) fails both audits with a NaN, without a
    # traceback
    cfg, solved = solved_dir
    out = tmp_path / "out"
    out.mkdir()
    (out / "profile.json").write_bytes(
        _bytes(os.path.join(solved, "profile.json")))
    lines = _bytes(os.path.join(solved, "profile.csv")).decode().splitlines(
        keepends=True)
    # the header, every 500th of the 3000 samples from r0, and R
    (out / "profile.csv").write_text("".join(lines[:1] + lines[1::500]
                                             + lines[-1:]))
    capsys.readouterr()
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    doc = _json(out / "verify.json")
    audits = [c for c in doc["checks"] if c["name"] in (
        "pohozaev_relative_residual", "asymptotic_slope_error")]
    assert audits == [
        {"name": "pohozaev_relative_residual", "value": None,
         "tolerance": 1e-4, "passed": False},
        {"name": "asymptotic_slope_error", "value": None,
         "tolerance": None, "passed": False}]
    assert doc["passed"] is False
    capsys.readouterr()


def test_constants_and_weights_and_bridge(tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "run.json", {"params": dict(REF_PARAMS)})
    out = str(tmp_path / "out")
    assert main(["constants", "--config", cfg, "--out", out]) == 0
    assert main(["weights", "--config", cfg, "--out", out]) == 0
    assert main(["bridge", "--config", cfg, "--out", out]) == 0
    cdoc = _json(os.path.join(out, "constants.json"))
    assert cdoc["admissibility"] == {"multiplicity_regime": True,
                                     "lambda_threshold_met": True}
    wdoc = _json(os.path.join(out, "weights.json"))
    assert wdoc["origin_limit_4r2_V2"] == pytest.approx(1.0, rel=1e-10)
    bdoc = _json(os.path.join(out, "bridge.json"))
    assert bdoc["b_origin"] == pytest.approx(3.0 ** (1.0 / 3.0) / 2.0,
                                             rel=1e-12)
    # h is the constant h(0) = 12 gamma + 4 lam - 15: one key, no column
    assert bdoc["h0"] == 1.0
    with open(os.path.join(out, "bridge.csv")) as fh:
        assert fh.readline() == "r,b,W\n"
    # the manifest accumulates entries from all three commands
    manifest = _json(os.path.join(out, "manifest.json"))
    for name in ("constants.json", "weights.csv", "bridge.csv"):
        assert name in manifest["files"]
    capsys.readouterr()


def test_constants_without_out_prints_and_writes_nothing(
        tmp_path, monkeypatch, capsys):
    cfg = _write_cfg(tmp_path / "run.json", {"params": dict(REF_PARAMS)})
    monkeypatch.chdir(tmp_path)
    assert main(["constants", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["params"]["n"] == 5 and doc["best_constant"]["value"] > 0.0
    assert os.listdir(tmp_path) == ["run.json"]


def test_manifest_bytes_identical_across_reruns(tmp_path, capsys):
    # two clean directories, and directories whose stored manifest is not
    # an object or holds no object of files: each is started afresh
    cfg = _write_cfg(tmp_path / "run.json", {"params": dict(REF_PARAMS)})
    blobs = []
    for tag, stale in (("a", None), ("b", None), ("list", "[]"), ("int", "7"),
                       ("files-int", '{"files": 5}'),
                       ("files-list", '{"files": []}')):
        out = tmp_path / tag
        if stale is not None:
            out.mkdir()
            (out / "manifest.json").write_text(stale)
        assert main(["weights", "--config", cfg, "--out", str(out)]) == 0
        blobs.append(_bytes(out / "manifest.json"))
    assert blobs == [blobs[0]] * len(blobs)
    capsys.readouterr()


def test_bubble_command(tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "run.json", {"params": dict(REF_PARAMS)})
    out = str(tmp_path / "out")
    assert main(["bubble", "--config", cfg, "--out", out]) == 0
    doc = _json(os.path.join(out, "bubble.json"))
    assert doc["psi_peak"] > 0.0
    # the exact indicial limits of the closed form
    q = critical_exponent(doc["n"], doc["s"])
    K = doc["psi_peak"] * 2.0 ** (2.0 / (q - 2.0))
    assert doc["K"] == pytest.approx(K, rel=1e-14)
    assert "K_minus" not in doc and "K_plus" not in doc
    data = read_profile_csv(os.path.join(out, "bubble.csv"))
    assert np.all(np.diff(data.r) > 0.0)
    capsys.readouterr()


def test_continue_then_blowup(tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "run.json",
                     {"params": dict(REF_PARAMS),
                      "solver": {"schedule": [0.05, 0.025, 0.0125]}})
    out = str(tmp_path / "out")
    assert main(["continue", "--config", cfg, "--out", out]) == 0
    summary = _json(os.path.join(out, "continuation.json"))
    assert summary["completed"] is True and summary["failure"] is None
    assert "domain_radius" not in summary
    assert len(summary["steps"]) == 3
    # the stored params are those of the last step solved, not the
    # config's p_defect = 0.2
    assert summary["params"] == dict(REF_PARAMS, p_defect=0.0125)
    # each sidecar's params carry the defect its profile was solved for,
    # not the config's p_defect = 0.2
    for step in summary["steps"]:
        doc = _json(os.path.join(out, step["stem"] + ".json"))
        assert doc["params"]["p_defect"] == doc["p_defect"] == step["p_defect"]
    # blowup judges the stored run at lam = 10, not the config it is given
    other = _write_cfg(tmp_path / "other.json",
                       {"params": dict(REF_PARAMS, lam=9.0)})
    assert main(["blowup", "--config", other, "--out", out]) == 0
    verdict = _json(os.path.join(out, "blowup.json"))
    assert verdict["verdict"] in ("COMPACT", "BLOWUP", "INCONCLUSIVE")
    assert verdict["flags"] == {"multiplicity_regime": True,
                                "lambda_threshold_met": True}
    assert verdict["theory_compact"] is True
    capsys.readouterr()


def test_a_continuation_step_holds_what_blowup_reads(tmp_path, capsys):
    # a step of continuation.json holds its defect, the stem of its two
    # files and its sup increment; its energy is in its sidecar alone
    cfg = _write_cfg(tmp_path / "run.json",
                     {"params": dict(REF_PARAMS),
                      "solver": {"schedule": [0.05, 0.025]}})
    out = tmp_path / "out"
    assert main(["continue", "--config", cfg, "--out", str(out)]) == 0
    steps = _json(out / "continuation.json")["steps"]
    assert [sorted(step) for step in steps] == \
        [["p_defect", "stem", "sup_increment"]] * 2
    assert steps[0]["sup_increment"] is None and steps[1]["sup_increment"] > 0
    for step in steps:
        sidecar = _json(out / (step["stem"] + ".json"))
        assert step["p_defect"] == sidecar["p_defect"]
        assert step["sup_increment"] == sidecar["meta"].get("sup_increment")
        assert sidecar["energy"] > 0.0
    capsys.readouterr()


def test_continue_writes_the_library_continuation(tmp_path, continuation,
                                                 ref_problem, capsys):
    # the reference config's solver section maps onto the solvers'
    # defaults: each step's two files are those of the library's
    # continuation, byte for byte
    cfg = _write_cfg(tmp_path / "run.json", {"params": dict(REF_PARAMS)})
    out = tmp_path / "out"
    assert main(["continue", "--config", cfg, "--out", str(out)]) == 0
    for idx, prof in enumerate(continuation):
        stem = f"continuation_{idx:02d}"
        files = cli._sidecar(stem, prof, ref_problem)
        files[stem + ".json"]["meta"].pop("fixture_build_seconds", None)
        assert (out / (stem + ".csv")).read_text() == files[stem + ".csv"]
        assert (out / (stem + ".json")).read_text() == \
            dumps17(files[stem + ".json"]) + "\n"
    capsys.readouterr()


@pytest.mark.parametrize("solved", ["ground_shoot", "ground_var",
                                    "continuation"])
def test_a_stored_profile_reads_back_equal(tmp_path, request, ref_problem,
                                          solved):
    # a shooting solve, a variational solve and a continue step: each
    # field of the profile is what read_profile rebuilds from the two files
    # that _sidecar writes (arrays bit for bit, a NaN residual as NaN)
    prof = request.getfixturevalue(solved)
    if solved == "continuation":
        prof = prof[1]
    for name, body in cli._sidecar("stored", prof, ref_problem).items():
        (tmp_path / name).write_text(
            body if isinstance(body, str) else dumps17(body) + "\n")
    back, radius = cli.read_profile(str(tmp_path), "stored")
    assert radius == ref_problem.domain_radius
    for field in dataclasses.fields(prof):
        mine, theirs = getattr(prof, field.name), getattr(back, field.name)
        if field.name == "data":
            assert all(np.array_equal(getattr(mine, key), getattr(theirs, key))
                       for key in ("r", "v", "dv"))
        elif isinstance(mine, float) and math.isnan(mine):
            assert math.isnan(theirs)
        else:
            assert mine == theirs, field.name


def test_continue_reads_the_solver_settings(tmp_path, ref_problem, capsys):
    # r0, rtol and boundary_tol reach every step, as they reach solve, and
    # the warm starts' scaling estimate uses the same r0
    settings = {"r0": 5e-7, "rtol": 1e-10, "boundary_tol": 1e-9}
    cfg = _write_cfg(tmp_path / "run.json", {
        "params": dict(REF_PARAMS),
        "solver": dict(settings, schedule=[0.4, 0.2])})
    out = tmp_path / "out"
    assert main(["continue", "--config", cfg, "--out", str(out)]) == 0
    steps, _ = solver.continuation_to_critical(
        ref_problem, (0.4, 0.2),
        lambda p, K_start: solver.solve_dirichlet_shooting(
            ref_problem, p, boundary_tol=1e-9, r0=5e-7, rtol=1e-10,
            K_start=K_start))
    for idx, prof in enumerate(steps):
        doc = _json(out / f"continuation_{idx:02d}.json")
        assert doc["meta"]["r0"] == 5e-7
        assert doc["meta"]["boundary_tol"] == 1e-9
        assert doc["K0"] == prof.K0
        assert doc["meta"]["K_shoot"] == prof.meta["K_shoot"]
    capsys.readouterr()


def test_a_truncated_continuation_keeps_its_steps(tmp_path, capsys):
    # above K = 3000 the range holds p = 0.2's root but not p = 0.1's: the
    # first step is written, and continuation.json says why the run stopped
    cfg = _write_cfg(tmp_path / "run.json", {
        "params": dict(REF_PARAMS),
        "solver": {"schedule": [0.2, 0.1], "K_range": [3000, 1e6]}})
    out = tmp_path / "out"
    assert main(["continue", "--config", cfg, "--out", str(out)]) == 0
    summary = _json(out / "continuation.json")
    assert summary["completed"] is False
    assert [step["stem"] for step in summary["steps"]] == ["continuation_00"]
    # the walk starts at the estimate clamped into the range, K = 3000
    assert summary["failure"] == ("no sign change of theta(R) - 1 pi from "
                                  "K = 3000 within the range")
    sidecar = _json(out / "continuation_00.json")
    assert "truncated_at" not in sidecar["meta"]
    assert "failure" not in sidecar["meta"]
    assert "boundary_value" not in sidecar
    assert main(["blowup", "--config", cfg, "--out", str(out)]) == 0
    assert _json(out / "blowup.json")["verdict"] == "INCONCLUSIVE"
    # a run whose first step fails has nothing to write, and names the cause
    first = _write_cfg(tmp_path / "first.json", {
        "params": dict(REF_PARAMS),
        "solver": {"schedule": [0.1], "K_range": [3000, 1e6]}})
    capsys.readouterr()
    assert main(["continue", "--config", first,
                 "--out", str(tmp_path / "first")]) == 3
    assert capsys.readouterr().err == ("solver failure: no sign change of "
                                       "theta(R) - 1 pi from K = 3000 within "
                                       "the range\n")
    assert not (tmp_path / "first").exists()
    # a non-coercive form fails the first step as it fails solve
    coercive = _write_cfg(tmp_path / "coercive.json", {
        "params": dict(REF_PARAMS, gamma=2.2)})
    assert main(["continue", "--config", coercive,
                 "--out", str(tmp_path / "coercive")]) == 3
    assert capsys.readouterr().err.startswith(
        "solver failure: the quadratic form is not coercive")
    assert not (tmp_path / "coercive").exists()


def test_blowup_flags_below_the_lambda_threshold(tmp_path, capsys):
    # lam = 9 gives h(0) = -3: no flag may claim h(0) > 0, and the compact
    # ground-state family outside the sufficient conditions is consistent
    cfg = _write_cfg(tmp_path / "run.json",
                     {"params": dict(REF_PARAMS, lam=9.0)})
    out = str(tmp_path / "out")
    assert main(["continue", "--config", cfg, "--out", out]) == 0
    assert main(["blowup", "--config", cfg, "--out", out]) == 0
    verdict = _json(os.path.join(out, "blowup.json"))
    assert verdict["flags"] == {"multiplicity_regime": True,
                                "lambda_threshold_met": False}
    assert verdict["theory_compact"] is False
    assert verdict["verdict"] == "COMPACT"
    assert verdict["consistent_with_theory"] is True
    capsys.readouterr()


@pytest.mark.parametrize("lam, expected", [(-5.0, "BLOWUP"),
                                           (3.0, "COMPACT")])
def test_ground_state_families_either_side_of_lambda_zero(
        tmp_path, capsys, lam, expected):
    # n = 5, s = 1, gamma = -2: below lam = 0 the ground state concentrates
    # at the origin as p -> 0, and its increments per unit p climb; above it
    # the family converges
    cfg = _write_cfg(tmp_path / "run.json", {
        "params": {"n": 5, "s": 1.0, "gamma": -2.0, "lam": lam},
        "solver": {"schedule": [0.2 * 2.0 ** -k for k in range(7)],
                   "K_range": [1e-4, 1e40]}})
    out = str(tmp_path / "out")
    assert main(["continue", "--config", cfg, "--out", out]) == 0
    assert _json(os.path.join(out, "continuation.json"))["completed"] is True
    assert main(["blowup", "--config", cfg, "--out", out]) == 0
    verdict = _json(os.path.join(out, "blowup.json"))
    assert verdict["verdict"] == expected
    # the family that blows up concentrates at one scale, and blowup writes
    # its envelope; the family that converges has no core
    blows_up = expected == "BLOWUP"
    assert len(verdict["detected_scales"]) == blows_up
    assert os.path.exists(os.path.join(out, "envelope.csv")) is blows_up
    capsys.readouterr()


def test_blowup_reads_the_samples_of_the_last_step_only(
        tmp_path, continuation, continuation_steps, ref_problem, capsys):
    # the verdict reads the steps of continuation.json, the scales the last
    # step's samples
    out = tmp_path / "out"
    out.mkdir()
    keys = ("p_defect", "sup_increment")
    files = {"continuation.json": {"params": dict(REF_PARAMS), "steps": [
        {"stem": f"continuation_{idx:02d}",
         **{key: step.get(key) for key in keys}}
        for idx, step in enumerate(continuation_steps)]}}
    for idx, prof in enumerate(continuation):
        files.update(cli._sidecar(f"continuation_{idx:02d}", prof,
                                  ref_problem))
    for name, body in files.items():
        (out / name).write_text(
            body if isinstance(body, str) else dumps17(body) + "\n")
    cfg = _write_cfg(tmp_path / "run.json", {"params": dict(REF_PARAMS)})
    argv = ["blowup", "--config", cfg, "--out", str(out)]
    assert main(argv) == 0
    before = (out / "blowup.json").read_bytes()
    assert json.loads(before)["verdict"] == "COMPACT"
    for idx in range(6):
        for ext in ("csv", "json"):
            (out / f"continuation_{idx:02d}.{ext}").unlink()
    assert main(argv) == 0
    assert (out / "blowup.json").read_bytes() == before
    # the last step's samples and sidecar are still required
    for name in ("continuation_06.csv", "continuation_06.json"):
        os.rename(out / name, out / "moved")
        assert main(argv) == 1
        os.rename(out / "moved", out / name)
    capsys.readouterr()


def test_only_verify_builds_the_problem_of_a_stored_profile(
        tmp_path, monkeypatch, capsys):
    # blowup reads the stored samples and never evaluates b, so it builds
    # no EuclideanProblem (nor its b table); verify builds one and runs
    cfg = _write_cfg(tmp_path / "run.json", {
        "params": dict(REF_PARAMS), "solver": {"schedule": [0.05, 0.025]}})
    out = str(tmp_path / "out")
    for command in ("continue", "solve"):
        assert main([command, "--config", cfg, "--out", out]) == 0

    def refuse(problem):
        raise AssertionError("an EuclideanProblem was built")

    with monkeypatch.context() as patch:
        patch.setattr(EuclideanProblem, "__post_init__", refuse)
        assert main(["blowup", "--config", cfg, "--out", out]) == 0
    assert main(["verify", "--config", cfg, "--out", out]) == 0
    assert _json(os.path.join(out, "verify.json"))["passed"] is True
    capsys.readouterr()


def test_a_stale_sidecar_is_a_config_error(solved_dir, tmp_path, capsys):
    # a sidecar written while params still carried theta and c
    cfg, out = solved_dir
    stale = tmp_path / "stale"
    stale.mkdir()
    doc = _json(os.path.join(out, "profile.json"))
    doc["params"].update(theta=0.0, c=1.0)
    (stale / "profile.json").write_text(dumps17(doc) + "\n")
    (stale / "profile.csv").write_bytes(
        _bytes(os.path.join(out, "profile.csv")))
    assert main(["verify", "--config", cfg, "--out", str(stale)]) == 1
    assert capsys.readouterr().err == \
        "config error: unknown key(s) in profile.json params: c, theta\n"
    assert not (stale / "verify.json").exists()


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


def test_a_malformed_stored_file_is_a_config_error(solved_dir, tmp_path,
                                                   capsys):
    # each stored file that verify or blowup reads back, broken one way at
    # a time: the command exits 1 naming the file, with no traceback
    cfg, out = solved_dir
    sidecar = _json(os.path.join(out, "profile.json"))
    samples = _bytes(os.path.join(out, "profile.csv"))
    steps = [{"stem": "profile", "p_defect": 0.2, "sup_increment": None},
             {"stem": "profile", "p_defect": 0.1, "sup_increment": 0.01}]
    run = {"params": dict(REF_PARAMS), "steps": steps}

    def stored(doc, **values):
        return dumps17(dict(doc, **values))

    def step(i, **values):
        return stored(run, steps=[dict(s, **values) if j == i else s
                                  for j, s in enumerate(steps)])

    cases = [
        ("verify", {"profile.json": dumps17(_without(sidecar, "K0"))},
         "stored profile.json in {} lacks key(s): K0"),
        ("verify", {"profile.json": dumps17(dict(
            sidecar, params=_without(sidecar["params"], "n")))},
         "missing required key(s) in profile.json params: n"),
        ("verify", {"profile.csv": "r,v,dv\n1,2\n"},
         "stored profile.csv in {} is malformed: "),
        ("verify", {"profile.csv": "r,v,dv\nx,y,z\n"},
         "stored profile.csv in {} is malformed: "),
        ("blowup", {"continuation.json": "{\"steps\": ["},
         "stored continuation.json in {} is malformed: "),
        ("blowup", {"continuation.json": dumps17(_without(run, "params"))},
         "stored continuation.json in {} lacks key(s): params"),
        # each value read back is typed as the config's is
        ("verify", {"profile.json": stored(sidecar, energy="x")},
         "profile.json energy must be a finite number, not 'x'\n"),
        ("verify", {"profile.json": stored(sidecar, domain_radius="0.5")},
         "profile.json domain_radius must be a number in (0, 1), "
         "not '0.5'\n"),
        ("verify", {"profile.json": stored(sidecar, domain_radius=2.0)},
         "profile.json domain_radius must be a number in (0, 1), not 2\n"),
        ("verify", {"profile.json": stored(sidecar, K0=None)},
         "profile.json K0 must be a finite number, not None\n"),
        ("verify", {"profile.json": stored(sidecar, meta=5)},
         "profile.json meta must be an object, not 5\n"),
        ("verify", {"profile.json": stored(sidecar, params=dict(
            sidecar["params"], n="five"))},
         "profile.json params.n must be an integer, not 'five'\n"),
        ("blowup", {"continuation.json": stored(run, params=dict(
            REF_PARAMS, n="five"))},
         "continuation.json params.n must be an integer, not 'five'\n"),
        ("blowup", {"continuation.json": stored(run, params=dict(
            REF_PARAMS, n=5.5))},
         "continuation.json params.n must be an integer, not 5.5\n"),
        ("blowup", {"continuation.json": stored(run, steps=5)},
         "continuation.json steps must be a list, not 5\n"),
        ("blowup", {"continuation.json": stored(run, steps=[5])},
         "continuation.json steps[0] must be an object\n"),
        ("blowup", {"continuation.json": stored(run, steps=[
            _without(steps[0], "stem"), steps[1]])},
         "missing required key(s) in continuation.json steps[0]: stem\n"),
        ("blowup", {"continuation.json": stored(run, steps=[
            steps[0], _without(steps[1], "sup_increment")])},
         "missing required key(s) in continuation.json steps[1]: "
         "sup_increment\n"),
        ("blowup", {"continuation.json": step(0, stem=5)},
         "continuation.json steps[0].stem must be a string, not 5\n"),
        ("blowup", {"continuation.json": step(1, sup_increment=None)},
         "continuation.json steps[1].sup_increment must be a finite "
         "number, not None\n"),
        ("blowup", {"continuation.json": step(0, p_defect="0.2")},
         "continuation.json steps' p_defect must be a finite number, "
         "not '0.2'\n"),
        ("blowup", {"continuation.json": step(1, p_defect=0.2)},
         "continuation.json steps' p_defect must be strictly "
         "decreasing\n"),
    ]
    for idx, (command, broken, message) in enumerate(cases):
        case = tmp_path / f"case{idx}"
        case.mkdir()
        (case / "profile.json").write_text(dumps17(sidecar) + "\n")
        (case / "profile.csv").write_bytes(samples)
        (case / "continuation.json").write_text(dumps17(run) + "\n")
        for name, text in broken.items():
            (case / name).write_text(text)
        assert main([command, "--config", cfg, "--out", str(case)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: " + message.format(case)), err
        assert err.count("\n") == 1
        assert not (case / "manifest.json").exists()


def test_blowup_on_an_empty_continuation_is_a_config_error(tmp_path,
                                                            capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / "continuation.json").write_text(
        dumps17({"params": dict(REF_PARAMS), "steps": []}) + "\n")
    cfg = _write_cfg(tmp_path / "run.json", {"params": dict(REF_PARAMS)})
    assert main(["blowup", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        f"config error: no steps in the stored continuation in {out}\n"
    assert not (out / "blowup.json").exists()


def test_blowup_writes_the_envelope(tmp_path, bubble, ref_params, capsys):
    # a stored one-step continuation that carries one planted bubble, so
    # that blowup detects a scale and writes the per-decade envelope
    out = tmp_path / "out"
    out.mkdir()
    prof = plant_bubbles(bubble, [1e-3], ref_params,
                         np.geomspace(1e-7, 0.5, 3000))
    files = cli._sidecar("continuation_00", prof,
                         EuclideanProblem(ref_params, domain_radius=0.5))
    # its one step also holds the energy that older runs wrote, which is
    # ignored
    files["continuation.json"] = {"params": dict(REF_PARAMS), "steps": [
        {"stem": "continuation_00", "p_defect": 0.0, "sup_increment": None,
         "energy": 1.0}]}
    for name, body in files.items():
        (out / name).write_text(
            body if isinstance(body, str) else dumps17(body) + "\n")
    cfg = _write_cfg(tmp_path / "run.json", {"params": dict(REF_PARAMS)})
    assert main(["blowup", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "envelope.csv", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["r_lo", "r_hi", "max_ratio"]
    decades = [round(np.log10(float(row[0]))) for row in rows[1:]]
    assert decades == list(range(-7, 0))         # one row per decade
    verdict = _json(out / "blowup.json")
    assert len(verdict["detected_scales"]) == 1
    assert verdict["envelope_constant"] == max(float(row[2])
                                               for row in rows[1:])
    manifest = _json(out / "manifest.json")
    blob = (out / "envelope.csv").read_bytes()
    assert manifest["files"]["envelope.csv"] == {
        "sha256": hashlib.sha256(blob).hexdigest(), "bytes": len(blob)}
    capsys.readouterr()


def test_every_write_goes_through_write_text(tmp_path, monkeypatch, capsys):
    # the benchmark counts the bytes a command writes by wrapping
    # cli.write_text, so no command may write a file any other way
    written = []
    real = cli.write_text

    def record(path, text):
        written.append(os.path.realpath(path))
        return real(path, text)

    monkeypatch.setattr(cli, "write_text", record)
    cfg = _write_cfg(tmp_path / "run.json", {
        "params": dict(REF_PARAMS),
        "solver": {"schedule": [0.05]},
        "sweep": {"p_defect": [0.9, 1.0]}})
    out = tmp_path / "out"
    for command, code in [("solve", 0), ("verify", 0), ("weights", 0),
                          ("bridge", 0), ("continue", 0), ("blowup", 0),
                          ("sweep", 2)]:
        # age every file, so that any file the command writes is new or
        # carries a fresh modification time
        for path in out.glob("*") if out.exists() else []:
            os.utime(path, ns=(0, 0))
        written.clear()
        assert main([command, "--config", cfg, "--out", str(out)]) == code
        touched = {str(path.resolve()) for path in out.glob("*")
                   if path.stat().st_mtime_ns != 0}
        assert touched, command
        assert touched <= set(written), (command, touched - set(written))
    capsys.readouterr()


# ------------------------------------------------------------------ sweep

@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_grid_and_determinism(tmp_path, capsys, workers):
    cfg = _write_cfg(tmp_path / "run.json", {
        "params": dict(REF_PARAMS),
        "solver": {"rtol": 1e-9},
        "sweep": {"gamma": [-2.0, -3.0, 2.2], "p_defect": [0.2, 0.3]},
    })
    outs = []
    for tag in ("a", "b"):
        out = str(tmp_path / tag)
        assert main(["sweep", "--config", cfg, "--out", out,
                     "--workers", workers]) == 0
        outs.append(out)
    rows = _bytes(os.path.join(outs[0], "sweep.csv")).decode().splitlines()
    assert len(rows) == 7                       # header + 3x2 grid
    assert rows[0].split(",")[0] == "index"
    statuses = [line.split(",")[6] for line in rows[1:]]
    assert statuses == ["ok"] * 4 + ["failed"] * 2
    # why each row failed and how many shoots it made
    with open(os.path.join(outs[0], "sweep.csv"), encoding="utf-8") as fh:
        table = list(csv.DictReader(fh))
    assert [row["error_class"] for row in table] == [""] * 4 + \
        ["NotCoercive"] * 2
    assert all(int(row["shoots"]) > 0 for row in table[:4])
    assert [row["shoots"] for row in table[4:]] == ["0", "0"]
    # rerun in a fresh directory is byte-identical
    assert _bytes(os.path.join(outs[0], "sweep.csv")) == \
        _bytes(os.path.join(outs[1], "sweep.csv"))
    capsys.readouterr()
    (tmp_path / "keep_sweep.csv").write_bytes(
        _bytes(os.path.join(outs[0], "sweep.csv")))


def test_sweep_worker_count_does_not_change_bytes(tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "run.json", {
        "params": dict(REF_PARAMS),
        "solver": {"rtol": 1e-9},
        "sweep": {"gamma": [-2.0, -3.0]},
    })
    blobs = []
    for workers in ("1", "2", "3"):
        out = str(tmp_path / f"w{workers}")
        assert main(["sweep", "--config", cfg, "--out", out,
                     "--workers", workers]) == 0
        blobs.append(_bytes(os.path.join(out, "sweep.csv")))
    assert blobs[0] == blobs[1] == blobs[2]
    capsys.readouterr()


def test_sweep_audits_on_the_config_window(tmp_path, capsys):
    # the sweep's audit fits on (10 r0, 100 r0), the config's r0: at
    # r0 = 0.06 that window lies beyond R = 0.5 and holds no node, and the
    # NaN slope fails the slope audit as in verify, so the solved row is
    # failed and the sweep exits as a solver failure
    cfg = _write_cfg(tmp_path / "run.json", {
        "params": dict(REF_PARAMS),
        "solver": {"r0": 0.06},
        "sweep": {"p_defect": [0.2]}})
    out = str(tmp_path / "out")
    assert main(["sweep", "--config", cfg, "--out", out]) == 3
    with open(os.path.join(out, "sweep.csv"), encoding="utf-8") as fh:
        (row,) = list(csv.DictReader(fh))
    assert row["status"] == "failed"
    assert row["error_class"] == "VerificationError"
    assert row["message"] == "audit failed: asymptotic_slope_error"
    assert row["slope"] == row["slope_stderr"] == "nan"
    capsys.readouterr()


def test_a_large_r0_is_audited_on_its_own_grid(tmp_path, capsys):
    # at r0 = 0.001 = 2e-3 R the annulus starts at r0, on the stored grid,
    # and the balance passes; the window (0.01, 0.1) lies far from the
    # origin, where the slope reads 0.430 against -beta_- = 0.562, so the
    # sweep row fails that audit alone and keeps its audit numbers
    cfg = _write_cfg(tmp_path / "run.json", {
        "params": dict(REF_PARAMS), "solver": {"r0": 0.001},
        "sweep": {"p_defect": [0.2]}})
    out = str(tmp_path / "solve")
    assert main(["solve", "--config", cfg, "--out", out]) == 0
    assert main(["verify", "--config", cfg, "--out", out]) == 0
    checks = {c["name"]: c for c in
              _json(os.path.join(out, "verify.json"))["checks"]}
    assert checks["pohozaev_relative_residual"]["value"] < 1e-8
    assert checks["pohozaev_relative_residual"]["passed"]
    assert not checks["asymptotic_slope_error"]["passed"]
    out = str(tmp_path / "sweep")
    assert main(["sweep", "--config", cfg, "--out", out]) == 3
    with open(os.path.join(out, "sweep.csv"), encoding="utf-8") as fh:
        (row,) = list(csv.DictReader(fh))
    assert row["status"] == "failed"
    assert row["message"] == "audit failed: asymptotic_slope_error"
    assert float(row["pohozaev_relative"]) == \
        checks["pohozaev_relative_residual"]["value"]
    assert float(row["slope"]) == pytest.approx(0.430, abs=1e-3)
    assert float(row["slope_target"]) == pytest.approx(0.562, abs=1e-3)
    capsys.readouterr()


def test_sweep_fails_a_row_above_the_pohozaev_tolerance(tmp_path, capsys,
                                                        monkeypatch):
    # a residual above verify's 1e-4 fails the row, whose audit numbers
    # are still written
    from hardyball import verify
    residual = verify.pohozaev_residual

    def loose(*args):
        po = residual(*args)
        po.relative = 2e-4
        return po

    monkeypatch.setattr(verify, "pohozaev_residual", loose)
    cfg = _write_cfg(tmp_path / "run.json", {
        "params": dict(REF_PARAMS), "sweep": {"p_defect": [0.2]}})
    out = str(tmp_path / "out")
    assert main(["sweep", "--config", cfg, "--out", out]) == 3
    with open(os.path.join(out, "sweep.csv"), encoding="utf-8") as fh:
        (row,) = list(csv.DictReader(fh))
    assert (row["status"], row["error_class"], row["message"]) == (
        "failed", "VerificationError",
        "audit failed: pohozaev_relative_residual")
    assert float(row["pohozaev_relative"]) == 2e-4
    capsys.readouterr()


def test_sweep_requires_section(cfg_path, tmp_path, capsys):
    assert main(["sweep", "--config", cfg_path,
                 "--out", str(tmp_path / "out")]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("workers, fork", [("0", True), ("-3", True),
                                           ("2", False)])
def test_workers_are_checked_at_the_entry_point(tmp_path, monkeypatch, capsys,
                                                workers, fork):
    # below 1, or above 1 on a platform without os.fork
    if not fork:
        monkeypatch.delattr(os, "fork")
    cfg = _write_cfg(tmp_path / "run.json", {
        "params": dict(REF_PARAMS), "sweep": {"p_defect": [0.9, 1.0]}})
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out),
                 "--workers", workers]) == 1
    assert capsys.readouterr().err.startswith("config error: --workers")
    assert not out.exists()


# ------------------------------------------------------- forked sweep map

@pytest.fixture()
def deadline():
    """Fail, instead of hanging, a test whose fork map has not returned
    within 60 s; the map's own cleanup then stops its children."""
    def expire(signum, frame):
        raise TimeoutError("the fork map ran for 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_worker_exception_exits_as_the_serial_sweep(tmp_path, monkeypatch,
                                                      capsys, deadline):
    # an exception that escapes _sweep_row in a child is raised in the
    # parent, the one of the lowest cell, as the serial loop raises it
    def fail(task):
        raise SolverError(f"no form at p = {task[2]['p_defect']}")

    monkeypatch.setattr(cli, "_sweep_row", fail)
    cfg = _write_cfg(tmp_path / "run.json", {
        "params": dict(REF_PARAMS), "sweep": {"p_defect": [0.1, 0.2]}})
    seen = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}"
        seen.append(main(["sweep", "--config", cfg, "--out", str(out),
                          "--workers", workers]))
        captured = capsys.readouterr()
        seen.append(captured.err)
        assert captured.out == "" and not out.exists()
    assert seen == [3, "solver failure: no form at p = 0.1\n"] * 2
    _no_children_left()


def test_a_dead_worker_is_a_typed_failure(tmp_path, monkeypatch, capsys,
                                          deadline):
    monkeypatch.setattr(cli, "_sweep_row", lambda task: os._exit(7))
    cfg = _write_cfg(tmp_path / "run.json", {
        "params": dict(REF_PARAMS), "sweep": {"p_defect": [0.1, 0.2]}})
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out),
                 "--workers", "2"]) == 3
    err = capsys.readouterr().err
    assert re.fullmatch(r"solver failure: sweep worker \d+ died "
                        r"\(wait status 1792\)\n", err), err   # exit 7
    assert not (out / "sweep.csv").exists()
    _no_children_left()


@pytest.mark.parametrize("failing", [(), (0,), (5,), (2, 5), (6,)])
@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_fork_map_is_the_serial_map(deadline, workers, failing):
    # each child takes its stride of the 7 tasks; the rows, or the error of
    # the lowest failing task, are those of the serial map
    def fn(task):
        if task in failing:
            raise ValueError(f"task {task} failed")
        return task * task

    def outcome(run):
        try:
            return run()
        except ValueError as exc:
            return type(exc), str(exc)

    tasks = list(range(7))
    assert (outcome(lambda: cli._fork_map(fn, tasks, workers))
            == outcome(lambda: [fn(task) for task in tasks]))
    _no_children_left()


def test_fork_map_returns_20000_tasks_in_order(deadline):
    # each child pickles 10,000 results of 100 bytes, ~1 MB, far more than a
    # 64 KiB pipe holds: the parent reads each pipe to EOF before it reaps
    def fn(task):
        return task.to_bytes(100, "little")

    tasks = list(range(20_000))
    fds = os.listdir("/proc/self/fd")
    assert cli._fork_map(fn, tasks, 2) == [fn(task) for task in tasks]
    assert os.listdir("/proc/self/fd") == fds          # every pipe closed
    _no_children_left()


def test_an_interrupted_fork_map_stops_its_children():
    def interrupt(signum, frame):
        raise TimeoutError("interrupted")

    # the children are terminated, not waited for through their 60 s tasks
    previous = signal.signal(signal.SIGALRM, interrupt)
    signal.setitimer(signal.ITIMER_REAL, 0.5)
    start = time.monotonic()
    try:
        with pytest.raises(TimeoutError):
            cli._fork_map(time.sleep, [60, 60], 2)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 10
    _no_children_left()
