"""End-to-end and per-layer benchmark of the hardyball CLI.

    python3 perfbench/run.py --workload continuation|audit|sweep|all \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  One client runs a workload's CLI commands one after another, each
in a fresh interpreter (a closed loop).  Every output is checked by the
oracle in ``workloads.py``.  Scratch output goes to ``.perfbench_runs/``.

``--trace 0`` measures the end-to-end metrics.  The workload repeats while
the next repeat is predicted to end within ``--seconds`` (at least once);
then set-up is sampled SETUP_SAMPLES times, and the medians are reported.
Times are scaled to a reference host speed read by the probes in
``probe.py`` (see Probes).  ``--trace 1`` runs the workload once untraced and once under the
tracer in ``child.py``, reports the per-layer metrics and the tracing
overhead, and runs the tracer self-checks.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--record-reference`` rewrites ``reference.json`` from the current source.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".perfbench_runs")
CHILD = os.path.join(HERE, "child.py")
PROBE = os.path.join(HERE, "probe.py")
REFERENCE = os.path.join(HERE, "reference.json")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")

WORKLOADS = ("continuation", "audit", "sweep")
SETUP_SAMPLES = 5
SWEEP_WORKERS = 2
# CPU seconds of one probe chunk at the reference speed: the fast state of a
# 2-vCPU Intel Xeon host under Python 3.11 (see Probes)
PROBE_REF_S = 0.00062
# --workers is the only parallelism: every BLAS / OpenMP pool gets one thread
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")

sys.path.insert(0, HERE)
import workloads  # noqa: E402


def child_env():
    env = dict(os.environ, PYTHONPATH=SRC)
    env.update({var: "1" for var in THREAD_VARS})
    return env


class Proc:
    """One finished child: exit code, wall, user+sys CPU of it and of the
    children it reaped (pool workers), max RSS over all of them, the
    monotonic clock at its start and end, and the processors it was pinned
    to (None: any)."""

    def __init__(self, code, wall, cpu, rss_mb, span, pinned):
        self.code, self.wall, self.cpu, self.rss_mb = code, wall, cpu, rss_mb
        self.span, self.pinned = span, pinned


def spawn(args, log_stem, cwd=ROOT, pinned=None):
    """Run child.py with ``args`` in a fresh interpreter, pinned to the
    processors ``pinned`` unless it is None, and wait for it."""
    preexec = None
    if pinned is not None:
        def preexec():
            os.sched_setaffinity(0, pinned)
    with open(log_stem + ".out", "wb") as out, \
            open(log_stem + ".err", "wb") as err:
        start = time.monotonic()
        # a session of its own, so that an interrupted run can stop the
        # child together with its pool workers
        proc = subprocess.Popen([sys.executable, CHILD] + args, cwd=cwd,
                                env=child_env(), stdout=out, stderr=err,
                                start_new_session=True,
                                preexec_fn=preexec)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, end - start, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0, (start, end), pinned)


def data_digest(out):
    """sha256 of every data file in an output directory.  manifest.json is
    left out: it records the time it was written."""
    digest = {}
    for name in sorted(os.listdir(out)):
        if name != "manifest.json":
            with open(os.path.join(out, name), "rb") as fh:
                digest[name] = hashlib.sha256(fh.read()).hexdigest()
    return digest


def src_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "hardyball")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def provenance(seed):
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"seed": seed, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_commit": commit,
            "src_sha256": src_digest()}


class Probes:
    """The host-speed probes (``probe.py``), one pinned to each processor in
    ``cpus``, running beside a measurement.

    On a shared host the speed at which a processor runs instructions moves
    in steps of up to 1.7x, which last from seconds to minutes, and each
    processor moves on its own; CPU time moves with wall time.  A probe on
    the other processor does not track these steps, so every command is
    pinned to processors that have a probe (see Run).  Each probe times a
    fixed chunk of work every 40 ms.  ``speed(proc)`` is the mean, over the
    chunks inside the process's span, of PROBE_REF_S / chunk CPU seconds,
    averaged over the processors it was pinned to.  A time multiplied by it
    reads as if the host had run at the reference speed throughout."""

    def __init__(self, stem, cpus):
        self.paths, self.outs, self.procs = {}, [], []
        for cpu in cpus:
            path = f"{stem}.cpu{cpu}.txt"
            out = open(path, "wb")
            self.outs.append(out)
            self.paths[cpu] = path
            # a probe stops when its stdin closes, also if this process dies
            self.procs.append(subprocess.Popen(
                [sys.executable, PROBE, str(cpu)], cwd=ROOT, env=child_env(),
                stdin=subprocess.PIPE, stdout=out))

    def close(self):
        for proc in self.procs:
            proc.stdin.close()
        for proc in self.procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        for out in self.outs:
            out.close()

    def speed(self, proc):
        return statistics.fmean(self._speed(self.paths[c], proc.span)
                                for c in proc.pinned)

    @staticmethod
    def _speed(path, span):
        with open(path, encoding="utf-8") as fh:
            rows = [line.split() for line in fh if line.endswith("\n")]
        times = [float(r[0]) for r in rows]
        raw = [float(r[1]) for r in rows]
        # a running median of 5 drops a chunk hit by an interrupt and keeps
        # every step of the host's speed that lasts longer than that
        cost = [statistics.median(raw[max(0, i - 2):i + 3])
                for i in range(len(raw))]
        lo = bisect.bisect_left(times, span[0])
        hi = bisect.bisect_right(times, span[1])
        if hi - lo < 3:
            # a short span: the chunks nearest to it
            mid = bisect.bisect_left(times, 0.5 * (span[0] + span[1]))
            lo, hi = max(0, mid - 2), min(len(cost), mid + 2)
        if lo >= hi:
            raise SystemExit(f"the host-speed probe gave no samples ({path})")
        return statistics.fmean(PROBE_REF_S / c for c in cost[lo:hi])


# ---------------------------------------------------------------------------
# one workload

class Run:
    """Scratch directory, inputs and bookkeeping of one benchmark run.
    Unless ``cpus`` is None, single-process commands are pinned to its first
    processor and commands with more workers to all of them."""

    def __init__(self, name, seed, tag, cpus=None):
        self.name, self.seed, self.cpus = name, seed, cpus
        self.dir = os.path.join(RUNS, f"{name}-seed{seed}-{tag}-{os.getpid()}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.inputs = workloads.make_inputs(name, seed, self.dir)
        self.ops = []
        self.problems = []
        self.prepared = None
        self.count = 0

    def command(self, argv, stem, trace, cwd):
        log = os.path.join(self.dir, stem)
        args = ["run"] + (["--trace", log + ".trace.json"] if trace else [])
        workers = int(argv[argv.index("--workers") + 1])
        return (spawn(args + ["--"] + argv, log, cwd, self.pinned(workers)),
                log + ".trace.json")

    def pinned(self, workers=1):
        if self.cpus is None:
            return None
        return self.cpus[:1] if workers == 1 else self.cpus

    def warm_up(self):
        """Fill the bytecode cache; check that hardyball comes from src/."""
        log = os.path.join(self.dir, "warmup")
        proc = spawn(["setup", self.inputs["config"]], log)
        with open(log + ".out", encoding="utf-8") as fh:
            origin = fh.read().strip()
        if proc.code != 0 or not origin.startswith(SRC + os.sep):
            raise SystemExit(f"hardyball does not import from {SRC}: "
                             f"exit {proc.code}, module {origin!r}")

    def setup_samples(self):
        return [spawn(["setup", self.inputs["config"]],
                      os.path.join(self.dir, f"setup{k}"),
                      pinned=self.pinned())
                for k in range(SETUP_SAMPLES)]

    def prepare(self, reference, trace=False):
        """Untimed command that repeats start from (the audit profile)."""
        argv = workloads.prepare_command(self.name, self.inputs, "prepared",
                                         self.seed)
        if argv is None:
            return None
        out = os.path.join(self.dir, "prepared")
        proc, trace_path = self.command(argv, "prepare", trace, self.dir)
        problems = []
        if proc.code == 0 and reference is not None:
            with open(os.path.join(out, "profile.json"), encoding="utf-8") as fh:
                problems = workloads.check_profile(
                    json.load(fh), reference["audit"]["profile"])
        self.ops.append(workloads.command_op("solve (prepared)", proc.code,
                                             problems))
        self.prepared = out
        return trace_path

    def repeat(self, reference, workers=SWEEP_WORKERS, trace=False, keep=False):
        """One timed repeat: every command of the workload, in order.  Each
        repeat writes to ``out`` under a directory of its own, so that the
        output directory recorded in the files is the same for all."""
        self.count += 1
        tag = f"rep{self.count}"
        cwd = os.path.join(self.dir, tag)
        out = os.path.join(cwd, "out")
        os.makedirs(out)
        if self.prepared is not None:
            for name in ("profile.csv", "profile.json"):
                shutil.copy(os.path.join(self.prepared, name), out)
        procs, traces = [], []
        for k, argv in enumerate(workloads.commands(self.name, self.inputs,
                                                    "out", self.seed, workers)):
            proc, trace_path = self.command(argv, f"{tag}.{k}.{argv[0]}",
                                            trace, cwd)
            procs.append(proc)
            traces.append(trace_path)
        if reference is not None:
            self.ops += workloads.check(self.name, self.inputs, out,
                                        [p.code for p in procs], reference)
        result = {"wall": sum(p.wall for p in procs),
                  "cpu": sum(p.cpu for p in procs),
                  "rss_mb": max(p.rss_mb for p in procs), "procs": procs,
                  "digest": data_digest(out), "traces": traces, "out": out}
        if not keep:
            shutil.rmtree(cwd)
        return result

    def same_data(self, runs, what):
        first = runs[0]["digest"]
        for other in runs[1:]:
            if other["digest"] != first:
                diff = sorted(k for k in set(first) | set(other["digest"])
                              if first.get(k) != other["digest"].get(k))
                self.problems.append(f"{what}: data files differ: {diff}")

    def summary(self):
        failed = [op for op in self.ops if op.status != "ok"]
        wrong = [op for op in self.ops if op.status == "wrong"]
        return {"correct": not wrong and not self.problems,
                "attempted": len(self.ops), "failed": len(failed)}


def measure(name, seed, seconds, reference):
    """End-to-end metrics of one workload (tracing off).  Times are at the
    probes' reference speed: each command's time is multiplied by the speed
    the probes read over that command (see Probes)."""
    # one processor per sweep worker, so that a many-processor host runs no
    # more probes than a 2-processor one
    cpus = sorted(os.sched_getaffinity(0))[:SWEEP_WORKERS]
    run = Run(name, seed, "e2e", cpus)
    probes = Probes(os.path.join(run.dir, "probe"), cpus)
    try:
        run.warm_up()
        run.prepare(reference)
        reps = []
        spent = 0.0
        while not reps or \
                spent + statistics.mean(r["wall"] for r in reps) <= seconds:
            reps.append(run.repeat(reference))
            spent += reps[-1]["wall"]
        # set-up last: by then the probes have run long enough to be steady
        setup = run.setup_samples()
    finally:
        probes.close()
    run.same_data(reps, "repeats")

    def at_ref(procs, what):
        return sum(getattr(p, what) * probes.speed(p) for p in procs)

    walls = [at_ref(r["procs"], "wall") for r in reps]
    cpus = [at_ref(r["procs"], "cpu") for r in reps]
    setups = [at_ref([p], "wall") for p in setup]
    ok = sum(op.status == "ok" for op in run.ops)
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(r["rss_mb"] for r in reps),
        "success_frac": ok / len(run.ops),
    }
    samples = {"wall_s": walls, "cpu_s": cpus, "setup_s": setups,
               "measured": {"wall_s": [r["wall"] for r in reps],
                            "cpu_s": [r["cpu"] for r in reps],
                            "setup_s": [p.wall for p in setup]},
               "speed": [probes.speed(p) for r in reps
                         for p in r["procs"]]}
    return run, metrics, samples


def trace_run(name, seed, reference):
    """Per-layer metrics from one traced repeat, next to untraced ones."""
    run = Run(name, seed, "trace")
    run.warm_up()
    prep_trace = run.prepare(reference, trace=True)
    untraced = run.repeat(reference)
    runs = [untraced]
    serial = None
    if name == "sweep":
        # the single-worker baseline, and the untraced twin of the traced run
        serial = run.repeat(reference, workers=1)
        runs.append(serial)
    traced = run.repeat(reference, workers=1, trace=True)
    runs.append(traced)
    run.same_data(runs, "traced vs untraced")
    # a command that dies before main() returns leaves no trace
    docs = [_load(path) for path in traced["traces"] if os.path.exists(path)]
    if len(docs) != len(traced["traces"]):
        run.problems.append("a traced command left no trace")
    prep_doc = _load(prep_trace) if prep_trace and os.path.exists(prep_trace) \
        else None
    metrics = layer_metrics(docs, run.inputs, untraced, serial, traced)
    checks = self_checks(name, metrics, docs, prep_doc, reference)
    for label, passed in checks:
        if not passed:
            run.problems.append(f"tracer self-check failed: {label}")
    return run, metrics, {"self_checks": checks}


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Trace:
    """Totals over the trace documents of one repeat's commands."""

    def __init__(self, docs):
        self.docs = docs
        self.rows = [row for doc in docs for row in doc["agg"]]

    def calls(self, name, parent=None):
        return sum(r[2] for r in self.rows
                   if r[0] == name and (parent is None or r[1] == parent))

    def raised(self, name):
        return sum(r[5] for r in self.rows if r[0] == name)

    def busy(self, name, inside=()):
        """Inclusive seconds in ``name``, skipping calls nested in itself or
        in the names ``inside`` (already counted there)."""
        return sum(r[3] for r in self.rows
                   if r[0] == name and r[1] != name and r[1] not in inside)

    def durations(self, name):
        return sorted(s[2] - s[1] for doc in self.docs for s in doc["spans"]
                      if s[0] == name)

    def useful_shoot_frac(self):
        useful = total = 0
        for doc in self.docs:
            spans = doc["spans"]
            for name, _, _, parent, _ in spans:
                if name == "solver.shoot":
                    total += 1
                    if parent >= 0 and spans[parent][0] == \
                            "solver.solve_dirichlet_shooting" \
                            and not spans[parent][4]:
                        useful += 1
        return useful / total if total else 0.0

    def warnings(self, key):
        return sum(doc["warnings"].get(key, 0) for doc in self.docs)


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(docs, inputs, untraced, serial, traced):
    t = Trace(docs)
    # the traced sweep runs one worker, so its untraced twin is the serial one
    twin = serial or untraced
    solve = "solver.solve_dirichlet_shooting"
    shoot = "solver.shoot"
    b = "bridge.EuclideanProblem.b"
    solves, shoots = t.calls(solve), t.calls(shoot)
    rhs = t.calls(b, parent=shoot)
    solve_s = t.durations(solve)
    writes = ("cli.write_profile_csv", "cli.update_manifest")
    return {
        "cli.import_s": (statistics.median(d["import_s"] for d in docs)
                         if docs else 0.0),
        "cli.write_s": sum(t.busy(w) for w in writes)
        + t.busy("cli.write_text", inside=writes),
        "cli.bytes_written": sum(d["bytes_written"] for d in docs),
        "cli.sweep_serial_s": serial["wall"] if serial else 0.0,
        "cli.parallel_eff": (_ratio(serial["wall"],
                                    SWEEP_WORKERS * untraced["wall"])
                             if serial else 0.0),
        "cli.resource_warnings": t.warnings("cli:ResourceWarning"),
        "solver.solves": solves,
        "solver.solve_s": statistics.median(solve_s) if solve_s else 0.0,
        "solver.solve_s.p90": (statistics.quantiles(solve_s, n=10,
                                                    method="inclusive")[-1]
                               if len(solve_s) > 1 else sum(solve_s)),
        "solver.shoots": shoots,
        "solver.shoots_per_solve": _ratio(t.calls(shoot, parent=solve), solves),
        "solver.shoot_s": t.busy(shoot),
        "solver.rhs_evals": rhs,
        "solver.rhs_evals_per_shoot": _ratio(rhs, shoots),
        "solver.solves_per_step": _ratio(solves, inputs["solve_requests"]),
        "solver.failed_solves": t.raised(solve),
        "solver.useful_shoot_frac": t.useful_shoot_frac(),
        "bridge.b_calls": t.calls(b),
        "bridge.b_s": t.busy(b),
        "bridge.b_weight_s": t.busy("bridge.b_weight"),
        "bridge.coercivity_s": t.busy("bridge.coercivity_lambda0"),
        "bridge.potential_s": t.busy("bridge.h_conformal")
        + t.busy("bridge.euclidean_potential", inside=("bridge.h_conformal",)),
        "kernel.green_G_calls": t.calls("kernel.green_G"),
        "kernel.green_G_s": t.busy("kernel.green_G"),
        "kernel.green_density_calls": t.calls("kernel.green_density"),
        "kernel.quad_calls": t.calls("kernel.quad"),
        "kernel.weight_V_p_s": t.busy("kernel.weight_V_p"),
        "kernel.hyperbolic_integral_s": t.busy("kernel.hyperbolic_integral"),
        "kernel.dirichlet_energy_s":
            t.busy("kernel.hyperbolic_dirichlet_energy"),
        "kernel.integration_warnings": t.warnings("kernel:IntegrationWarning"),
        "constants.best_constant_s":
            t.busy("constants.best_constant_estimate"),
        "verify.pohozaev_s": t.busy("verify.pohozaev_residual"),
        "verify.hardy_check_s": t.busy("verify.hardy_check"),
        "verify.exponent_fit_s": t.busy("verify.asymptotic_exponent"),
        "blowup.verdict_s": t.busy("blowup.compactness_verdict"),
        "blowup.detect_scales_s": t.busy("blowup.detect_scales"),
        "grids.log_derivative_calls":
            t.calls("grids.log_derivative_matrix_apply"),
        "grids.log_derivative_s": t.busy("grids.log_derivative_matrix_apply"),
        "trace.overhead_s": traced["wall"] - twin["wall"],
        "trace.overhead_frac": _ratio(traced["wall"] - twin["wall"],
                                      twin["wall"]),
    }


def self_checks(name, metrics, docs, prep_doc, reference):
    """Tracer self-checks.  Byte identity is checked in trace_run.  The
    counts recorded in reference.json belong to one version of the program,
    so they are compared only while src/ is that version."""
    checks = []
    pinned = reference["trace"]
    same_src = src_digest() == pinned["src_sha256"]
    if name == "audit":
        checks.append(("zero shoots on audit", metrics["solver.shoots"] == 0))
    if prep_doc is not None and same_src:
        shoots = Trace([prep_doc]).calls("solver.shoot")
        checks.append((f"reference solve makes {pinned['ref_solve_shoots']} "
                       f"shoots (traced {shoots})",
                       shoots == pinned["ref_solve_shoots"]))
    if name == "audit" and same_src:
        verify = [d for d in docs if d["argv"][0] == "verify"]
        calls = Trace(verify).calls("kernel.green_density")
        want = pinned["verify_seed0_green_density_calls"]
        checks.append((f"verify (seed {workloads.VERIFY_SEED}) makes {want} "
                       f"green_density calls "
                       f"(traced {calls})", calls == want))
    return checks


# ---------------------------------------------------------------------------

def record_reference():
    """Rewrite reference.json from the program in src/ (seed 0)."""
    cont = Run("continuation", 0, "reference")
    cont_out = cont.repeat(None, keep=True)["out"]
    audit = Run("audit", 0, "reference")
    prep_doc = _load(audit.prepare(None, trace=True))
    rep = audit.repeat(None, trace=True, keep=True)
    verify = [doc for doc in map(_load, rep["traces"])
              if doc["argv"][0] == "verify"]
    ref = workloads.record_reference(
        cont_out, os.path.join(audit.prepared, "profile.json"), rep["out"])
    ref["trace"] = {
        "src_sha256": src_digest(),
        "ref_solve_shoots": Trace([prep_doc]).calls("solver.shoot"),
        "verify_seed0_green_density_calls":
            Trace(verify).calls("kernel.green_density"),
    }
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(json.dumps(ref["trace"]))


def report(name, run, metrics, units, extra, prov):
    if set(metrics) != set(units):
        raise SystemExit(f"metrics do not match {BENCHMARK}: "
                         f"{sorted(set(metrics) ^ set(units))}")
    summary = run.summary()
    doc = dict(summary, workload=name, metrics=metrics, extra=extra,
               provenance=prov, problems=run.problems,
               operations=[repr(op) for op in run.ops])
    with open(os.path.join(run.dir, "result.json"), "w",
              encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    print(f"== {name} (seed {prov['seed']})")
    for key, value in metrics.items():
        print(f"  {key:32s} {value:>14.6g} {units[key]}")
    print(f"  {'fail_frac':32s} "
          f"{summary['failed'] / summary['attempted']:>14.6g} ratio"
          f"  ({summary['failed']} of {summary['attempted']} operations)")
    for op in run.ops:
        if op.status != "ok":
            print(f"  {op!r}")
    for problem in run.problems:
        print(f"  problem: {problem}")
    for label, passed in extra.get("self_checks", []):
        print(f"  self-check {'ok  ' if passed else 'FAIL'} {label}")
    sys.stdout.flush()
    return summary, {k: {"value": v, "unit": units[k]}
                     for k, v in metrics.items()}


def main(argv=None):
    # a terminated run unwinds, and spawn() stops the child it waits for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hardyball", "cli.py")):
        print(f"no hardyball source under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(RUNS, exist_ok=True)
    if args.record_reference:
        record_reference()
        return 0
    reference = _load(REFERENCE)
    declared = _load(BENCHMARK)
    units = {m["name"]: m["unit"] for m in
             declared["per_layer" if args.trace else "end_to_end"]}
    prov = provenance(args.seed)
    print("provenance " + json.dumps(prov))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        if args.trace:
            run, metrics, extra = trace_run(name, args.seed, reference)
        else:
            run, metrics, samples = measure(name, args.seed, args.seconds,
                                            reference)
            extra = {"samples": samples}
        summary, shown = report(name, run, metrics, units, extra, prov)
        total["correct"] = total["correct"] and summary["correct"]
        total["attempted"] += summary["attempted"]
        total["failed"] += summary["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        total["metrics"].update({prefix + k: v for k, v in shown.items()})
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
