"""Run one avec command with spans around calls into the package's modules.

    python tracer.py SPANS_OUT RUN_ID AVEC_ARGS...

behaves like ``python -m avec AVEC_ARGS...`` (same stdout, files and
exit code) and also writes SPANS_OUT, a JSON list of spans
``[name, start, end, parent, size]`` and ``overhead_s``, the time the
tracer spent on its own bookkeeping: installing the wrappers, the work
each wrapper does around the wrapped call, and encoding the spans.
Times are `time.perf_counter` readings, which on Linux are
CLOCK_MONOTONIC and so comparable with the parent's clock.  Spans are
kept in memory and written once, at exit.

Each public function is wrapped by rebinding the name in every module
that looks it up, so calls between the package's own modules are
traced too.  The package attribute ``avec.replay`` is the function, so
the replay module is reached through ``sys.modules``.
"""

import json
import sys
from time import perf_counter

TRACED = {
    "graph": (
        "eccentricity_profile", "forbidden_cycle_scan", "ball", "distances_from",
        "line_graph", "power_graph", "induced_subgraph", "weighted_avec",
        "build_graph", "is_connected",
    ),
    "io": ("read_graph", "parse_edgelist", "from_graph6", "write_graph"),
    "generators": ("reiman", "chain"),
    "gf": ("make_field",),
    "bounds": ("analyze", "audit_balls"),
    "replay": ("build_matching", "build_tree", "compute_weights", "trace_json", "replay"),
}

# Sizes recorded at a boundary: span name -> (metric name, size of the call).
SIZES = {
    "graph.eccentricity_profile": ("graph.eccentricity_profile.vertices", lambda a, r: a[0].n),
    "graph.forbidden_cycle_scan": ("graph.forbidden_cycle_scan.edges", lambda a, r: a[0].m),
    "graph.line_graph": ("graph.line_graph.out_edges", lambda a, r: r[0].m),
    "graph.power_graph": ("graph.power_graph.out_edges", lambda a, r: r.m),
    "bounds.audit_balls": ("bounds.audit_balls.items", lambda a, r: len(r.items)),
    "replay.build_matching": ("replay.matching_size", lambda a, r: len(r.edges)),
}


class Tracer:
    """Span recorder; spans are [name, start, end, parent index, size].

    `overhead` sums, over calls, the wrapper's time minus the wrapped
    call's time, so it is never negative.
    """

    def __init__(self):
        self.spans = []
        self.overhead = 0.0
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        entered = perf_counter()
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()
        if name in SIZES:
            span[4] = SIZES[name][1](args, result)
        self.overhead += perf_counter() - entered - (span[2] - span[1])
        return result

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced


def install(tracer):
    """Rebind every traced function in every avec module that names it."""
    import avec.cli  # noqa: F401  (imports every module below)

    modules = [sys.modules[f"avec.{short}"] for short in TRACED] + [sys.modules["avec.cli"]]
    wrappers = {}
    for short, names in TRACED.items():
        mod = sys.modules[f"avec.{short}"]
        for fname in names:
            fn = getattr(mod, fname)
            wrappers[id(fn)] = tracer.wrap(f"{short}.{fname}", fn)
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if id(value) in wrappers:
                setattr(mod, attr, wrappers[id(value)])


def layer_totals(doc, spawned_at):
    """Per-layer sums for the spans file of one process.

    `spawned_at` is the parent's clock just before it started the
    process; the time until the top-level span starts is start-up.
    """
    spans = doc["spans"]
    children = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    out = {"trace.overhead_s": doc["overhead_s"]}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for i, (name, start, end, parent, size) in enumerate(spans):
        add(f"{name}.s", end - start)
        add(f"{name}.self_s", end - start - children[i])
        add(f"{name}.calls", 1)
        if name in SIZES:
            add(SIZES[name][0], size)
        if parent < 0:
            add("cli.startup_s", start - spawned_at)
    return out


def main(argv):
    spans_out, run_id, args = argv[0], argv[1], argv[2:]
    from avec.cli import main as avec_main

    started = perf_counter()
    tracer = Tracer()
    install(tracer)
    tracer.overhead += perf_counter() - started
    try:
        rc = tracer.call(f"cli.{args[0]}", avec_main, args)
    finally:
        started = perf_counter()
        spans = json.dumps(tracer.spans)
        overhead = tracer.overhead + perf_counter() - started
        with open(spans_out, "w", encoding="ascii") as fh:
            fh.write(f'{{"run": {json.dumps(run_id)}, "overhead_s": {overhead!r}, "spans": {spans}}}')
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
