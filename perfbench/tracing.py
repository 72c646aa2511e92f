"""Outside-in tracing of coarse_menger, installed from the benchmark's files.

``Tracer.install`` wraps every public function defined in each layer module
and rebinds it in every ``coarse_menger`` namespace that imported it by name
(``packing`` and ``covering`` import from ``graph``, for instance); on the
``Graph`` class it wraps ``__init__`` and ``dist_from``.  Each wrapped call
counts towards its name's calls and self time (duration minus the time of
wrapped calls beneath it).

Calls into the layers above ``graph`` are kept in memory as spans: name,
start, end, parent span and op id.  ``graph`` calls are primitives made
millions of times per pass; they are aggregated per enclosing span (count
and seconds) instead of stored one by one.  ``write_spans`` writes them out
at the end.

The wrappers cost time, so traced ``self_s`` figures are for attribution
only; the counts are exact and repeat from run to run.
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import Counter, defaultdict
from time import perf_counter

#: the package's modules, bottom layer first (ROADMAP L0-L5)
LAYERS = (
    "graph", "paths", "packing", "covering", "trees", "tangles", "transfer",
    "generators", "acceptance", "cli",
)

PRIMITIVE_LAYER = "graph"

#: scalar comparisons inside distance loops, called twice per `leq`; wrapping
#: them would dominate the traced pass and they mark no layer boundary
UNWRAPPED = {"graph.leq", "graph.is_exact"}


# Observers see a wrapped call's positional arguments (every call site in the
# library passes these positionally) and its result.


def _observe_dist_from(t, args, result):
    g, source = args[0], args[1]
    # keep the graph referenced so that its id is not reused in this pass
    _, sources = t.graphs.setdefault(id(g), (g, set()))
    if source not in sources:
        sources.add(source)
        t.counts["graph.dist_from.distinct"] += 1


def _observe_chordless(t, args, result):
    g, l, x, y = args[:4]
    t.chordless_inputs.add((g, l, frozenset(x), frozenset(y)))
    t.counts["paths.enumerate_chordless_paths.items"] += len(result.paths)


def _observe_mis(t, args, result):
    t.counts["packing.conflict_edges"] += sum(len(s) for s in args[0]) // 2
    t.counts["packing.max_independent_set.nodes"] += result[1]


def _observe_set_cover(t, args, result):
    t.counts["covering.min_set_cover.nodes"] += result[1]


def _observe_sweep(t, args, result):
    cells = list(result.packing_by_r.values()) + list(result.cover_by_radius.values())
    t.counts["covering.duality_sweep.greedy_cells"] += sum(not c.exact for c in cells)


def _observe_separations(t, args, result):
    t.counts["tangles.enumerate_separations.items"] += len(result)


#: counts the observers keep, reported as zero when nothing was observed
COUNTS = (
    "paths.enumerate_chordless_paths.items", "packing.conflict_edges",
    "packing.max_independent_set.nodes", "covering.min_set_cover.nodes",
    "covering.duality_sweep.greedy_cells", "tangles.enumerate_separations.items",
)

OBSERVERS = {
    "graph.dist_from": _observe_dist_from,
    "paths.enumerate_chordless_paths": _observe_chordless,
    "packing.max_independent_set": _observe_mis,
    "covering.min_set_cover": _observe_set_cover,
    "covering.duality_sweep": _observe_sweep,
    "tangles.enumerate_separations": _observe_separations,
}


class Tracer:
    def __init__(self):
        self.t0 = perf_counter()
        self.op = "setup"
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.errors = Counter()
        self.counts = Counter()
        #: stored spans: [name, start, end, parent span id (-1: none), op id]
        self.spans = []
        #: (enclosing span id, primitive name) -> [calls, seconds]
        self.primitives = defaultdict(lambda: [0, 0.0])
        self.wrapped = []
        self.graphs = {}
        self.chordless_inputs = set()
        self._current = -1
        self._child_s = []

    # -- installation -----------------------------------------------------

    def install(self, package):
        """Wrap the layer modules of ``package`` (an imported coarse_menger)."""
        from importlib import import_module

        errors = import_module(f"{package.__name__}.errors")
        self._base_error = errors.CoarseMengerError
        self._capacity_error = errors.CapacityError
        modules = {m: import_module(f"{package.__name__}.{m}") for m in LAYERS}
        namespaces = [package] + list(modules.values())
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in UNWRAPPED
                        or not inspect.isfunction(fn) or fn.__module__ != mod.__name__):
                    continue
                wrapped = self._wrap(name, fn, layer == PRIMITIVE_LAYER)
                for ns in namespaces:
                    if vars(ns).get(attr) is fn:
                        setattr(ns, attr, wrapped)
        graph_cls = modules["graph"].Graph
        graph_cls.__init__ = self._wrap("graph.Graph.__init__", graph_cls.__init__, True)
        graph_cls.dist_from = self._wrap("graph.dist_from", graph_cls.dist_from, True)

    def _wrap(self, name, fn, primitive):
        self.wrapped.append(name)
        observe = OBSERVERS.get(name)
        stack = self._child_s
        calls, self_s, errors, counts = self.calls, self.self_s, self.errors, self.counts
        spans, primitives = self.spans, self.primitives
        capacity_key = name + ".capacity_errors"
        base_error, capacity_error = self._base_error, self._capacity_error

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._current
            start = perf_counter()
            if not primitive:
                sid = len(spans)
                spans.append([name, start - self.t0, None, parent, self.op])
                self._current = sid
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            except base_error as exc:
                errors[name] += 1
                if isinstance(exc, capacity_error):
                    counts[capacity_key] += 1
                raise
            finally:
                end = perf_counter()
                duration = end - start
                child = stack.pop()
                if stack:
                    stack[-1] += duration
                calls[name] += 1
                self_s[name] += duration - child
                if primitive:
                    entry = primitives[(parent, name)]
                    entry[0] += 1
                    entry[1] += duration
                else:
                    spans[sid][2] = end - self.t0
                    self._current = parent
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    # -- results ----------------------------------------------------------

    def _built_under(self, span_name: str) -> int:
        """Graph objects built inside spans named ``span_name``."""
        built = [0] * len(self.spans)
        for (sid, name), (n, _) in self.primitives.items():
            if name == "graph.Graph.__init__" and sid >= 0:
                built[sid] += n
        # children are stored after their parents
        for sid in range(len(self.spans) - 1, -1, -1):
            parent = self.spans[sid][3]
            if parent >= 0:
                built[parent] += built[sid]
        return sum(built[sid] for sid, s in enumerate(self.spans) if s[0] == span_name)

    def metrics(self) -> dict:
        """Per-layer figures: calls, self_s and errors per module and per
        wrapped function (zero when not called), plus the counts above."""
        out = {}
        for layer in LAYERS:
            prefix = layer + "."
            out[f"{layer}.calls"] = sum(n for k, n in self.calls.items() if k.startswith(prefix))
            out[f"{layer}.self_s"] = sum(s for k, s in self.self_s.items() if k.startswith(prefix))
            out[f"{layer}.errors"] = sum(n for k, n in self.errors.items() if k.startswith(prefix))
        for name in self.wrapped:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
            out[f"{name}.capacity_errors"] = self.counts[f"{name}.capacity_errors"]
        for key in COUNTS:
            out[key] = self.counts[key]
        dist_calls = self.calls["graph.dist_from"]
        out["graph.dist_from.hit_ratio"] = (
            1 - self.counts["graph.dist_from.distinct"] / dist_calls if dist_calls else 0.0
        )
        out["graph.Graph.built"] = self.calls["graph.Graph.__init__"]
        chordless = self.calls["paths.enumerate_chordless_paths"]
        out["paths.enumerate_chordless_paths.reuse_ratio"] = (
            len(self.chordless_inputs) / chordless if chordless else 0.0
        )
        out["trees.min_transversal_blocker.tries"] = self._built_under(
            "trees.min_transversal_blocker"
        )
        return out

    def write_spans(self, path: str, header: dict):
        by_span = defaultdict(dict)
        for (sid, name), (n, s) in self.primitives.items():
            by_span[sid][name] = [n, s]
        with open(path, "w") as fh:
            fh.write(json.dumps({**header, "unattributed_graph_calls": by_span.get(-1, {})}) + "\n")
            for sid, (name, start, end, parent, op) in enumerate(self.spans):
                rec = {"id": sid, "name": name, "start": start, "end": end,
                       "parent": parent, "op": op}
                if sid in by_span:
                    rec["graph_calls"] = by_span[sid]
                fh.write(json.dumps(rec) + "\n")
