"""Per-layer tracing for the benchmark's traced run.

The tracer wraps the public functions of each wcell layer from outside the
program, by replacing module attributes, and restores the originals on
``uninstall``.  Each call records a span (name, start, end, parent span) in
memory; the per-layer counts, inclusive seconds and self seconds are
computed from the spans of one pass.  A function that no longer exists is
skipped and its metrics are absent.
"""

from __future__ import annotations

import importlib
import time
from bisect import bisect_left
from collections import Counter


def _cli_name(args, kwargs):
    argv = args[0] if args else kwargs.get("argv", ())
    return f"cli.run.{argv[0] if argv else 'none'}"


def _polygon_name(args, kwargs):
    return f"wgraph.check_polygon.r{args[1] if len(args) > 1 else kwargs.get('r')}"


def _count_pairs(tracer, result):
    tracer.counts["builder.probable_pairs.pairs"] += len(result)


def _count_weight(tracer, result):
    if result:
        tracer.counts["builder.mu_probable.nonzero"] += 1
        tracer.counts["builder.mu_probable.max_weight"] = max(
            tracer.counts["builder.mu_probable.max_weight"], abs(result)
        )


def _count_table(tracer, table):
    if id(table) in tracer.tables:
        return
    tracer.tables[id(table)] = table
    tracer.counts["hecke.kl_table.misses"] += 1
    try:
        tracer.counts["hecke.kl_table.h_entries"] += sum(len(col) for col in table.h.values())
        tracer.counts["hecke.kl_table.mu_pairs"] += len(table.mu_pairs)
    except (AttributeError, TypeError):
        pass


def _count_graph(tracer, g):
    try:
        counts = (g.num_vertices, len(g.mu), len(g.arcs()))
    except (AttributeError, TypeError):
        return
    for key, value in zip(("graph.vertices", "graph.weights", "graph.arcs"), counts):
        tracer.counts[key] += value


# (module, attribute, span name or function of the call's arguments, hook on the result)
SPANS = (
    ("wcell.cli", "run", _cli_name, None),
    ("wcell.builder", "build_cell_graph", "builder.build_cell_graph", _count_graph),
    ("wcell.builder", "probable_pairs", "builder.probable_pairs", _count_pairs),
    ("wcell.builder", "mu_probable", "builder.mu_probable", _count_weight),
    ("wcell.knuth", "favourable_rep", "knuth.favourable_rep", None),
    ("wcell.knuth", "dk_moves_from", "knuth.dk_moves_from", None),
    ("wcell.tableaux", "enumerate_std", "tableaux.enumerate_std", None),
    ("wcell.tableaux", "extended_dominance_leq", "tableaux.extended_dominance_leq", None),
    ("wcell.wgraph", "check_admissible", "wgraph.check_admissible", None),
    ("wcell.wgraph", "check_compatibility", "wgraph.check_compatibility", None),
    ("wcell.wgraph", "check_simplicity", "wgraph.check_simplicity", None),
    ("wcell.wgraph", "check_bonding", "wgraph.check_bonding", None),
    ("wcell.wgraph", "check_polygon", _polygon_name, None),
    ("wcell.wgraph", "check_ordered", "wgraph.check_ordered", None),
    ("wcell.wgraph", "to_json_str", "wgraph.to_json_str", None),
    ("wcell.wgraph", "from_json_str", "wgraph.from_json_str", None),
    ("wcell.hecke", "verify_hecke_relations", "hecke.verify_hecke_relations", None),
    ("wcell.hecke", "kl_table", "hecke.kl_table", _count_table),
    ("wcell.hecke", "kl_left_cell_graph", "hecke.kl_left_cell_graph", None),
    ("wcell.hecke", "graphs_equal_under", "hecke.graphs_equal_under", None),
)

# Span names produced by the name functions above.
DYNAMIC_NAMES = {
    _cli_name: ("cli.run.build", "cli.run.verify", "cli.run.oracle"),
    _polygon_name: ("wgraph.check_polygon.r2", "wgraph.check_polygon.r3"),
}

# Called about a million times per pass, so counted without spans.
COUNTED = (
    ("wcell.laurent", "LaurentPolynomial.__mul__", "laurent.mul.calls"),
    ("wcell.laurent", "LaurentPolynomial.__rmul__", "laurent.mul.calls"),
)

# Counters set by the hooks, reported as zero when nothing moved them.
HOOK_COUNTERS = {
    "builder.build_cell_graph": ("graph.vertices", "graph.weights", "graph.arcs"),
    "builder.probable_pairs": ("builder.probable_pairs.pairs",),
    "builder.mu_probable": ("builder.mu_probable.nonzero", "builder.mu_probable.max_weight"),
    "hecke.kl_table": ("hecke.kl_table.misses", "hecke.kl_table.h_entries", "hecke.kl_table.mu_pairs"),
}


def _resolve(module: str, attr: str):
    """(owner, name, current value) for a dotted attribute, or None if absent."""
    try:
        owner = importlib.import_module(module)
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        return owner, name, getattr(owner, name)
    except (ImportError, AttributeError):
        return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.tables: dict = {}  # kl tables seen this pass, kept alive so ids stay unique
        self.installed: list = []  # (owner, name, original, owned) for uninstall
        self.span_names: list[str] = []  # names of the spans that could be installed
        self.counter_names: list[str] = []  # names of the counters that could be installed

    def reset(self) -> None:
        """Forget the spans and counts of the previous pass."""
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()
        self.tables.clear()

    def install(self) -> None:
        self.reset()
        self.span_names = []
        for module, attr, name, hook in SPANS:
            found = _resolve(module, attr)
            if found is None:
                continue
            self._replace(found, self._span_wrapper(found[2], name, hook))
            self.span_names += DYNAMIC_NAMES.get(name, (name,))
            for counter in HOOK_COUNTERS.get(name, ()):
                self.counts[counter] += 0
        for module, attr, name in COUNTED:
            found = _resolve(module, attr)
            if found is not None:
                self._replace(found, self._count_wrapper(found[2], name))
        self.counter_names = list(self.counts)

    def uninstall(self) -> None:
        while self.installed:
            owner, name, original, owned = self.installed.pop()
            if owned:
                setattr(owner, name, original)
            else:
                delattr(owner, name)

    def _replace(self, found, wrapper) -> None:
        owner, name, original = found
        owned = name in vars(owner)
        setattr(owner, name, wrapper)
        self.installed.append((owner, name, original, owned))

    def _span_wrapper(self, fn, name, hook):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        fixed = isinstance(name, str)

        def traced(*args, **kwargs):
            rec = [name if fixed else name(args, kwargs), clock(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, fn, name):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        counts[name] += 0
        return counted

    def snapshot(self) -> dict:
        return {key: self.counts[key] for key in self.counter_names}

    def moved(self, before: dict) -> dict:
        """How much each counter moved since ``snapshot`` returned ``before``."""
        return {key: self.counts[key] - value for key, value in before.items()}

    def metrics(self, samples=()) -> dict[str, float]:
        """Per-layer metrics of the spans and counts recorded since ``reset``.

        ``samples`` are the (start, end) seconds of the speed samples taken
        while the spans ran; a sample interrupts the program between two
        bytecodes, so it lies wholly inside or outside each span, and its
        time is left out of every span that holds it.
        """
        spans = self.spans
        starts = [a * 1e9 for a, _ in samples]
        taken = [0.0]
        for a, b in samples:
            taken.append(taken[-1] + (b - a) * 1e9)
        duration = [
            end - start - taken[bisect_left(starts, end)] + taken[bisect_left(starts, start)]
            for _, start, end, _ in spans
        ]
        child_ns = [0.0] * len(spans)
        calls: Counter = Counter({name: 0 for name in self.span_names})
        incl: Counter = Counter({name: 0 for name in self.span_names})
        self_ns: Counter = Counter({name: 0 for name in self.span_names})
        dominance_in_scan = 0
        for i, (_, _, _, parent) in enumerate(spans):
            if parent >= 0:
                child_ns[parent] += duration[i]
        for i, (name, _, _, parent) in enumerate(spans):
            calls[name] += 1
            incl[name] += duration[i]
            self_ns[name] += duration[i] - child_ns[i]
            if name == "tableaux.extended_dominance_leq" and parent >= 0:
                dominance_in_scan += spans[parent][0] == "builder.probable_pairs"
        out: dict[str, float] = {}
        for name in calls:
            out[f"{name}.s"] = incl[name] / 1e9
            out[f"{name}.self_s"] = self_ns[name] / 1e9
            out[f"{name}.calls"] = calls[name]
        for key in self.counter_names:
            out[key] = self.counts[key]
        if "builder.probable_pairs.pairs" in out and "tableaux.extended_dominance_leq.calls" in out:
            out["builder.probable_pairs.hit_ratio"] = (
                out["builder.probable_pairs.pairs"] / dominance_in_scan if dominance_in_scan else 0.0
            )
        if "builder.mu_probable.nonzero" in out:
            tried = out["builder.mu_probable.calls"]
            out["builder.mu_probable.useful_ratio"] = out["builder.mu_probable.nonzero"] / tried if tried else 0.0
        # Time attributed to the layers below the CLI entry point.
        out["trace.layer_self_s"] = sum(
            (duration[i] - child_ns[i]) / 1e9 for i, (name, *_) in enumerate(spans) if not name.startswith("cli.")
        )
        return out

    def write_spans(self, path) -> None:
        """Write the spans of the last pass as tab-separated lines."""
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{name}\t{start / 1e9:.9f}\t{end / 1e9:.9f}\n")
