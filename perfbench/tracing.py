"""Spans around the program's public functions, and the per-layer metrics they give.

The benchmark records spans from outside the program: it swaps the names
that `claims` and `cli` bound at import for timing wrappers and puts the
originals back afterwards.  A span is [name, start, end, parent index]; the
benchmark opens one root span per CLI call.  A span's self time is its
duration minus the durations of its children, so the self times of one pass
add up to the time spent inside its root spans by construction.  Work of
functions that have no probe lands in the self time of the nearest probed
caller: in `claims.self_s` for a claim verifier's own helpers, in
`cli.<command>.self_s` for what `cli` does itself (`wiener_polynomial`,
`reduce` and `enestrom_kakeya` in `compute`, `ReducedPolynomial` and the sort
in `scatter`).  `trace.probed_frac` is the share of the pass outside those
`cli` root self times.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from math import ceil, comb
from statistics import median
from time import perf_counter

# Public functions as `claims` and `cli` bind them -> the span (layer.function).
PROBES = {
    "enumerate_trees": "graph_core.enumerate_trees",
    "distance_distribution": "graph_core.distance_distribution",
    "enumerate_connected_distributions": "graph_core.enumerate_connected_distributions",
    "parse_graph6": "graph_core.parse_graph6",
    "roots": "polynomial.roots",
    "purely_imaginary_roots": "polynomial.purely_imaginary_roots",
    "family_polynomial": "families.family_polynomial",
}
GENERATORS = {"enumerate_trees"}  # one span per tree yielded

# Claims the workloads verify; each gets a claims.<id>.s metric on every workload.
CLAIM_IDS = ("tree_root_bound", "tn_extremal", "purely_imaginary", "path_annulus",
             "tn_interval", "broom_asymptotics", "half_plane")
COMMANDS = ("verify", "scatter", "compute")


class Tracer:
    """Spans kept in memory, plus counters recorded at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def add(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, fn, name: str, observe=None):
        """`fn` recording one span per call; `observe(tracer, args, result)` after."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.add(name + ".errors")
                raise
            finally:
                self._close(rec)
            if observe is not None:
                observe(self, args, result)
            return result
        return traced

    def wrap_iter(self, fn, name: str):
        """Generator `fn` recording one span per item it produces."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                rec = self._open(name)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    self._close(rec)
                self.add(name + ".count")
                yield item
        return traced


def _observe_roots(tracer: Tracer, args, result) -> None:
    worst = max((r.residual for r in result), default=0.0)
    key = "polynomial.roots.max_residual"
    tracer.counts[key] = max(tracer.counts.get(key, 0.0), worst)


def _observe_imaginary(tracer: Tracer, args, result) -> None:
    tracer.add("polynomial.purely_imaginary_roots.hits", len(result))


def _observe_sweep(tracer: Tracer, args, result) -> None:
    dists, stats = result
    name = "graph_core.enumerate_connected_distributions"
    tracer.add(name + ".masks", 2 ** comb(args[0], 2))
    tracer.add(name + ".instances", stats.instances_examined)
    tracer.add(name + ".distinct", len(dists))


_OBSERVERS = {
    "roots": _observe_roots,
    "purely_imaginary_roots": _observe_imaginary,
    "enumerate_connected_distributions": _observe_sweep,
}


@contextmanager
def instrumented(tracer: Tracer, modules, names, claim_table: dict | None = None):
    """Within the block, `names` in each module and every claim verifier record spans."""
    saved_attrs, saved_claims = [], dict(claim_table or {})
    try:
        for module in modules:
            for attr in names:
                if not hasattr(module, attr):
                    continue
                fn = getattr(module, attr)
                saved_attrs.append((module, attr, fn))
                if attr in GENERATORS:
                    setattr(module, attr, tracer.wrap_iter(fn, PROBES[attr]))
                else:
                    setattr(module, attr, tracer.wrap(fn, PROBES[attr],
                                                      _OBSERVERS.get(attr)))
        for claim_id, fn in saved_claims.items():
            claim_table[claim_id] = tracer.wrap(fn, f"claims.{claim_id}")
        yield
    finally:
        for module, attr, fn in reversed(saved_attrs):
            setattr(module, attr, fn)
        if claim_table is not None:
            claim_table.update(saved_claims)


def span_cost() -> float:
    """Seconds one recorded span adds to a call: a wrapped no-op against a bare
    one, the median of five timings of 20,000 calls each."""
    def noop():
        return None

    calls, costs = 20000, []
    for _ in range(5):
        wrapped = Tracer().wrap(noop, "noop")
        start = perf_counter()
        for _ in range(calls):
            noop()
        bare = perf_counter() - start
        start = perf_counter()
        for _ in range(calls):
            wrapped()
        costs.append((perf_counter() - start - bare) / calls)
    return median(costs)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 when there are no values."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(1, ceil(len(sorted_values) * q)) - 1]


def layer_metrics(tracer: Tracer, wall: float,
                  root_set_info: tuple[int, int]) -> dict[str, float]:
    """Per-layer metrics of one traced pass that took `wall` seconds."""
    own = self_times(tracer.spans)
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    micros: dict[str, list[float]] = {}
    for (name, start, end, _), mine in zip(tracer.spans, own):
        self_s[name] = self_s.get(name, 0.0) + mine
        total_s[name] = total_s.get(name, 0.0) + (end - start)
        micros.setdefault(name, []).append((end - start) * 1e6)
    for values in micros.values():
        values.sort()
    count = tracer.counts.get
    m: dict[str, float] = {}

    def timed(layer: str, *, latency: bool = False) -> None:
        m[layer + ".s"] = self_s.get(layer, 0.0)
        m[layer + ".calls"] = len(micros.get(layer, ()))
        if latency:
            m[layer + ".us_p50"] = _percentile(micros.get(layer, []), 0.50)
            m[layer + ".us_p99"] = _percentile(micros.get(layer, []), 0.99)

    sweep = "graph_core.enumerate_connected_distributions"
    m["graph_core.enumerate_trees.s"] = self_s.get("graph_core.enumerate_trees", 0.0)
    m["graph_core.enumerate_trees.count"] = count("graph_core.enumerate_trees.count", 0)
    timed("graph_core.distance_distribution", latency=True)
    m[sweep + ".s"] = self_s.get(sweep, 0.0)
    m[sweep + ".instances"] = count(sweep + ".instances", 0)
    m[sweep + ".distinct"] = count(sweep + ".distinct", 0)
    m[sweep + ".masks_per_s"] = count(sweep + ".masks", 0) / m[sweep + ".s"] \
        if m[sweep + ".s"] else 0.0
    timed("graph_core.parse_graph6")
    timed("polynomial.roots", latency=True)
    m["polynomial.roots.max_residual"] = count("polynomial.roots.max_residual", 0.0)
    m["polynomial.roots.errors"] = count("polynomial.roots.errors", 0)
    timed("polynomial.purely_imaginary_roots")
    m["polynomial.purely_imaginary_roots.hits"] = count(
        "polynomial.purely_imaginary_roots.hits", 0)
    timed("families.family_polynomial")
    for claim_id in CLAIM_IDS:
        m[f"claims.{claim_id}.s"] = total_s.get(f"claims.{claim_id}", 0.0)
    m["claims.self_s"] = sum(s for name, s in self_s.items() if name.startswith("claims."))
    hits, misses = root_set_info
    m["claims.root_set.hits"] = hits
    m["claims.root_set.misses"] = misses
    m["claims.root_set.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    for command in COMMANDS:
        m[f"cli.{command}.self_s"] = self_s.get(f"cli.{command}", 0.0)
    m["trace.wall_s"] = wall
    cli_self = sum(m[f"cli.{command}.self_s"] for command in COMMANDS)
    m["trace.probed_frac"] = (sum(own) - cli_self) / wall if wall else 0.0
    m["trace.spans"] = len(tracer.spans)
    return m
