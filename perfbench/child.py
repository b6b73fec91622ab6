"""Bootstrap that runs one hardyball CLI command in a fresh interpreter.

    python3 child.py run   [--trace OUT.json] -- <cli arguments>
    python3 child.py setup CONFIG.json

``run`` imports ``hardyball.cli`` and calls ``main(argv)``, as the installed
``hardyball`` script does.  With ``--trace`` it first wraps the public
functions and methods of every ``hardyball`` module (at every module binding,
because the package imports names with ``from .kernel import green_G``),
records warnings with the ``"always"`` filter, and writes the trace to
OUT.json when the command ends.

``setup`` pays the fixed cost of every CLI call and nothing else: import
``hardyball.cli``, load the config, build its ``EuclideanProblem`` and make
one ``problem.b`` call, which builds the b table.  It prints the path of
the imported ``hardyball.cli``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
import time
import warnings

# Every call is counted and timed in aggregate, keyed by (name, parent name).
# Only the first SPAN_CAP calls of each name are kept as individual spans, so
# that the ~10^6 scalar b calls of a continuation do not exhaust memory.
SPAN_CAP = 20000

# Per-value formatting helpers are not layer boundaries; wrapping them would
# multiply the cost of the very writes that cli.write_s measures.
UNWRAPPED = {"hardyball.cli.format17", "hardyball.cli.dumps17"}


class Tracer:
    """In-memory span recorder.  A span is (name, start, end, parent index);
    the aggregates hold [calls, inclusive s, self s, raised] per
    (name, parent name), where self time excludes traced children."""

    def __init__(self):
        self.spans = []
        self.per_name = {}
        self.agg = {}
        # frames: [name, span index or -1, child seconds]
        self.stack = [["<root>", -1, 0.0]]

    def wrap(self, name, fn):
        clock = time.perf_counter
        stack = self.stack
        spans = self.spans
        per_name = self.per_name
        agg = self.agg

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            seen = per_name.get(name, 0)
            per_name[name] = seen + 1
            idx = -1
            if seen < SPAN_CAP:
                idx = len(spans)
                spans.append(None)
            frame = [name, idx, 0.0]
            stack.append(frame)
            raised = 0
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = 1
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                parent[2] += dur
                if idx >= 0:
                    spans[idx] = (name, start, end, parent[1], raised)
                key = (name, parent[0])
                row = agg.get(key)
                if row is None:
                    agg[key] = [1, dur, dur - frame[2], raised]
                else:
                    row[0] += 1
                    row[1] += dur
                    row[2] += dur - frame[2]
                    row[3] += raised
        return traced

    def install(self, package):
        """Wrap the public functions and public methods defined in every
        submodule of ``package``, plus the ``quad`` that ``kernel`` calls."""
        modules = [importlib.import_module(f"{package.__name__}.{info.name}")
                   for info in pkgutil.iter_modules(package.__path__)]
        wrapped = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and not meth.startswith("_"):
                            setattr(obj, meth, self.wrap(
                                f"{short}.{obj.__name__}.{meth}", fn))
                elif (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                      and not attr.startswith("_")
                      and f"{mod.__name__}.{attr}" not in UNWRAPPED):
                    wrapped[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
        kernel = sys.modules[f"{package.__name__}.kernel"]
        wrapped[id(kernel.quad)] = (kernel.quad,
                                    self.wrap("kernel.quad", kernel.quad))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    # scipy's quad is shared with constants; only kernel's
                    # binding counts as a kernel quadrature call
                    if obj is kernel.quad and mod is not kernel:
                        continue
                    setattr(mod, attr, hit[1])

    def dump(self):
        return {
            "spans": [list(s) for s in self.spans if s is not None],
            "agg": [[name, parent] + row
                    for (name, parent), row in self.agg.items()],
        }


def run_command(argv, trace_path):
    if trace_path is None:
        import hardyball.cli
        return hardyball.cli.main(argv)

    # a warning belongs to the layer of the innermost span open when it is
    # issued (its reported file may be a wrapper frame)
    tracer = Tracer()
    warnings.simplefilter("always")
    caught = {}
    shown = warnings.showwarning

    def record(message, category, filename, lineno, file=None, line=None):
        layer = tracer.stack[-1][0].split(".", 1)[0]
        key = f"{layer}:{category.__name__}"
        caught[key] = caught.get(key, 0) + 1
        shown(message, category, filename, lineno, file, line)

    warnings.showwarning = record
    start = time.perf_counter()
    import hardyball
    import hardyball.cli
    import_s = time.perf_counter() - start
    tracer.install(hardyball)
    written = [0]
    cli = hardyball.cli
    write_text = cli.write_text

    def counting_write_text(path, text):
        written[0] += len(text.encode("utf-8"))
        return write_text(path, text)

    cli.write_text = counting_write_text
    start = time.perf_counter()
    code = cli.main(argv)
    main_s = time.perf_counter() - start
    doc = tracer.dump()
    doc.update({"argv": argv, "exit_code": code, "import_s": import_s,
                "main_s": main_s, "bytes_written": written[0],
                "warnings": caught})
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return code


def run_setup(config_path):
    import hardyball.cli as cli
    cfg = cli.load_config(config_path)
    problem = cli.make_problem(cfg, cli.make_params(cfg))
    problem.b(0.5 * problem.domain_radius)
    print(cli.__file__)
    return 0


def main(argv):
    if len(argv) == 2 and argv[0] == "setup":
        return run_setup(argv[1])
    if not argv or argv[0] != "run" or "--" not in argv:
        print("usage: child.py run [--trace OUT] -- ARGS | setup CONFIG",
              file=sys.stderr)
        return 64
    split = argv.index("--")
    opts, cli_argv = argv[1:split], argv[split + 1:]
    trace_path = opts[1] if opts[:1] == ["--trace"] and len(opts) == 2 else None
    return run_command(cli_argv, trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
