"""Spans around the public functions of each coresat module.

The tracer wraps functions from outside the program: each wrapper is
installed on the module attribute through which its caller looks the
function up, since some modules import functions by name (``cli`` and
``verification`` from ``graphs``, ``spectra`` from ``oracle``).
Nothing under ``src/`` changes.

A span is (name, layer, start, end, parent, measure).  Spans stay in
memory; at the end of each round of operations they are folded into
per-round totals, and the first round's spans are kept for the trace
file.  A span's self time is its duration minus the durations of its
direct children; spans nest properly because the benchmark is a single
caller in one thread.
"""
from __future__ import annotations

import statistics
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name, layer, measure)
#   measure: how the span's size is taken, or None
#     "result.m": edges of the returned graph
#     "arg.m": edges of the graph passed in
#     "result.len": length of the returned string or list
#     "result.n": side of the returned square matrix
SPAN_POINTS = (
    ("graphs", "generalized_core_satellite", "graphs.build", "graphs", "result.m"),
    ("cli", "generalized_core_satellite", "graphs.build", "graphs", "result.m"),
    ("verification", "core_satellite", "graphs.build", "graphs", "result.m"),
    ("verification", "generalized_core_satellite", "graphs.build", "graphs", "result.m"),
    ("metrics", "compute_metrics", "metrics.direct", "metrics", "arg.m"),
    ("metrics", "assortativity", "metrics.direct", "metrics", "arg.m"),
    ("metrics", "assortativity_estrada", "metrics.direct", "metrics", "arg.m"),
    ("metrics", "analytic_metrics", "metrics.closed", "metrics", None),
    ("spectra", "adjacency_spectrum_gcs", "spectra.adjacency", "spectra", None),
    ("spectra", "adjacency_spectrum_cs", "spectra.adjacency", "spectra", None),
    ("spectra", "laplacian_spectrum_gcs", "spectra.laplacian", "spectra", None),
    ("spectra", "spectral_radius", "spectra.radius", "spectra", None),
    ("spectra", "spectral_radius_bounds", "spectra.radius", "spectra", None),
    ("spectra", "principal_eigenvector", "spectra.radius", "spectra", None),
    ("spectra", "spectral_indices", "spectra.radius", "spectra", None),
    ("spectra", "max_spectrum_deviation", "spectra.compare", "spectra", None),
    # the quotient eigensolve: oracle code, called from spectra
    ("spectra", "eigenvalues_symmetric", "spectra.quotient_eig", "oracle", None),
    ("oracle", "adjacency_matrix", "oracle.matrix", "oracle", "result.n"),
    ("oracle", "laplacian_matrix", "oracle.matrix", "oracle", "result.n"),
    ("oracle", "eigenvalues_symmetric", "oracle.eig", "oracle", None),
    ("oracle", "exhaustive_subgraph_counts", "oracle.enum", "oracle", None),
    ("verification", "run_checks", "verification.run", "verification", "result.len"),
    ("cli", "format_graph", "io.format", "io", "result.len"),
    ("cli", "main", "cli.main", "cli", None),
)

# calls counted without a span: these run many times inside one span
COUNT_POINTS = (("metrics", "triangle_count", "metrics.triangle_count"),)

# per-layer metrics: name -> (unit, better)
PER_LAYER = {
    "graphs.build_s": ("s", "lower"),
    "graphs.build_calls": ("count", "lower"),
    "graphs.edges_per_s": ("1/s", "higher"),
    "metrics.direct_s": ("s", "lower"),
    "metrics.direct_calls": ("count", "lower"),
    "metrics.direct_edges_per_s": ("1/s", "higher"),
    "metrics.triangle_count_calls": ("count", "lower"),
    "metrics.closed_s": ("s", "lower"),
    "metrics.closed_calls": ("count", "lower"),
    "spectra.adjacency_s": ("s", "lower"),
    "spectra.laplacian_s": ("s", "lower"),
    "spectra.radius_s": ("s", "lower"),
    "spectra.quotient_eig_s": ("s", "lower"),
    "spectra.calls": ("count", "lower"),
    "oracle.matrix_s": ("s", "lower"),
    "oracle.eig_s": ("s", "lower"),
    "oracle.enum_s": ("s", "lower"),
    "oracle.dense_mb": ("MiB", "lower"),
    "verification.run_s": ("s", "lower"),
    "verification.checks": ("count", "higher"),
    "io.format_s": ("s", "lower"),
    "io.bytes_out": ("bytes", "lower"),
    "cli.self_s": ("s", "lower"),
    "params.self_s": ("s", "lower"),
    "params.calls": ("count", "lower"),
    "bench.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# metric -> the span name whose self time it sums per round
_SELF_TIME = {
    "graphs.build_s": "graphs.build",
    "metrics.direct_s": "metrics.direct",
    "metrics.closed_s": "metrics.closed",
    "spectra.adjacency_s": "spectra.adjacency",
    "spectra.laplacian_s": "spectra.laplacian",
    "spectra.radius_s": "spectra.radius",
    "spectra.quotient_eig_s": "spectra.quotient_eig",
    "oracle.matrix_s": "oracle.matrix",
    "oracle.eig_s": "oracle.eig",
    "oracle.enum_s": "oracle.enum",
    "verification.run_s": "verification.run",
    "io.format_s": "io.format",
    "cli.self_s": "cli.main",
    "params.self_s": "params.init",
    "bench.self_s": "bench.op",
}

_NAME, _LAYER, _START, _END, _PARENT, _SIZE = range(6)


class Tracer:
    """Records spans and counts for one process; install, run, fold, report."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.first_round: list[list] = []
        self.rounds: list[dict] = []
        self._restore: list[tuple[object, str, object]] = []
        self.untraced_walls: list[float] = []

    # -- wrappers -----------------------------------------------------
    def wrap(self, fn, name: str, layer: str, measure: str | None = None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            rec = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[_START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[_END] = perf_counter()
                stack.pop()
            if measure == "result.m":
                rec[_SIZE] = result.m
            elif measure == "arg.m":
                rec[_SIZE] = args[0].m
            elif measure == "result.len":
                rec[_SIZE] = len(result)
            elif measure == "result.n":
                rec[_SIZE] = result.shape[0]
            return result

        return traced

    def open_root(self, name: str, layer: str) -> list:
        """Open a root span whose start and end the caller times itself."""
        rec = [name, layer, 0.0, 0.0, -1, 0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close_root(self, rec: list, start: float, end: float) -> None:
        rec[_START], rec[_END] = start, end
        self.stack.pop()

    def counter(self, fn, name: str):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, mods: dict) -> None:
        """Wrap the span and count points of the coresat modules in ``mods``."""
        for module, attr, name, layer, measure in SPAN_POINTS:
            owner = mods[module]
            self._patch(owner, attr, self.wrap(getattr(owner, attr), name, layer, measure))
        for module, attr, name in COUNT_POINTS:
            owner = mods[module]
            self._patch(owner, attr, self.counter(getattr(owner, attr), name))
        cls = mods["params"].GeneralizedParams
        self._patch(cls, "__init__", self.wrap(cls.__init__, "params.init", "params"))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- rounds -------------------------------------------------------
    def fold_round(self, wall_s: float) -> dict:
        """Turn the spans and counts of one finished round into totals."""
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[_PARENT] >= 0:
                child[rec[_PARENT]] += rec[_END] - rec[_START]
        by_name: dict[str, float] = defaultdict(float)
        by_layer: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        top: dict[str, int] = defaultdict(int)
        sizes: dict[str, list[int]] = defaultdict(list)
        root_s = 0.0
        for i, rec in enumerate(spans):
            duration = rec[_END] - rec[_START]
            name, layer, parent = rec[_NAME], rec[_LAYER], rec[_PARENT]
            if parent < 0:
                root_s += duration
            by_name[name] += duration - child[i]
            by_layer[layer] += duration - child[i]
            calls[name] += 1
            nested_in_same = parent >= 0 and spans[parent][_NAME] == name
            in_layer = parent >= 0 and spans[parent][_LAYER] == layer
            if not nested_in_same:
                top[name] += 1
                if rec[_SIZE]:
                    sizes[name].append(rec[_SIZE])
            if not in_layer:
                top["layer:" + layer] += 1
        folded = {
            "wall_s": wall_s,
            "root_s": root_s,
            "spans": len(spans),
            "self_by_name": dict(by_name),
            "self_by_layer": dict(by_layer),
            "calls": dict(calls),
            "top_calls": dict(top),
            "sizes": dict(sizes),
            "counts": dict(self.counts),
        }
        if not self.rounds:
            self.first_round = [list(rec) for rec in spans]
        self.rounds.append(folded)
        spans.clear()
        self.counts.clear()
        return folded

    def per_layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics: medians over rounds, counts per round, rates over the run."""
        rounds = self.rounds

        def med(fn):
            return statistics.median(fn(r) for r in rounds)

        out: dict[str, float] = {}
        for metric, name in _SELF_TIME.items():
            out[metric] = med(lambda r: r["self_by_name"].get(name, 0.0))
        out["graphs.build_calls"] = med(lambda r: r["top_calls"].get("graphs.build", 0))
        out["metrics.direct_calls"] = med(lambda r: r["top_calls"].get("metrics.direct", 0))
        out["metrics.closed_calls"] = med(lambda r: r["top_calls"].get("metrics.closed", 0))
        out["metrics.triangle_count_calls"] = med(
            lambda r: r["counts"].get("metrics.triangle_count", 0)
        )
        out["spectra.calls"] = med(lambda r: r["top_calls"].get("layer:spectra", 0))
        out["params.calls"] = med(lambda r: r["calls"].get("params.init", 0))
        out["verification.checks"] = med(lambda r: sum(r["sizes"].get("verification.run", [])))
        out["io.bytes_out"] = med(lambda r: sum(r["sizes"].get("io.format", [])))
        out["oracle.dense_mb"] = max(
            (max(r["sizes"].get("oracle.matrix", [0])) ** 2 * 8 / 2**20 for r in rounds),
            default=0.0,
        )
        out["graphs.edges_per_s"] = _rate(rounds, "graphs.build")
        out["metrics.direct_edges_per_s"] = _rate(rounds, "metrics.direct")
        out["trace.wall_s"] = med(lambda r: r["wall_s"])
        out["trace.spans"] = med(lambda r: r["spans"])
        out["trace.overhead_s"] = out["trace.wall_s"] - statistics.median(self.untraced_walls)
        return {name: float(out[name]) for name in PER_LAYER}

    def trace_document(self) -> dict:
        """What the trace file holds: the first round's spans and every round's totals."""
        return {
            "fields": ["name", "layer", "start", "end", "parent", "size"],
            "first_round_spans": self.first_round,
            "rounds": self.rounds,
            "untraced_round_wall_s": self.untraced_walls,
        }


def _rate(rounds: list[dict], name: str) -> float:
    """Edges per second of self time over the whole run; 0 when unused."""
    edges = sum(sum(r["sizes"].get(name, [])) for r in rounds)
    busy = sum(r["self_by_name"].get(name, 0.0) for r in rounds)
    return edges / busy if busy > 0 else 0.0
