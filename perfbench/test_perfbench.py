"""Tests of the benchmark's own machinery: digests, graph6, the oracle, exact
counts, spans and the metric names in BENCHMARK.json."""

import inspect
import json
from math import comb
from pathlib import Path
from types import SimpleNamespace

import pytest

import graphgen
import run
import tracing
import workloads
from wiener_roots import cli
from wiener_roots.graph_core import distance_distribution, enumerate_trees, from_edge_list, \
    parse_graph6

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def test_report_digest_drops_only_the_runtime(tmp_path):
    report = {"claim_id": "x", "params": {"n_lo": 5}, "verdict": "pass",
              "witnesses": [["n=5", "ok"]], "counterexamples": [], "runtime_seconds": 1.5}
    path = tmp_path / "r.json"
    path.write_text(json.dumps(report, indent=2))
    first = workloads.report_digest(path)
    path.write_text(json.dumps(dict(report, runtime_seconds=99.0), indent=2))
    assert workloads.report_digest(path) == first
    path.write_text(json.dumps(dict(report, witnesses=[["n=5", "OK"]]), indent=2))
    assert workloads.report_digest(path) != first


def test_graph6_encoder_known_records():
    assert graphgen.graph6(4, [(u, v) for v in range(4) for u in range(v)]) == "C~"
    assert graphgen.graph6(3, [(0, 1), (1, 2)]) == "Bg"
    with pytest.raises(ValueError):
        graphgen.graph6(63, [])


def test_generated_graphs_round_trip_and_are_seeded():
    graphs = graphgen.graphs(2024)
    cells = len(graphgen.ORDERS) * len(graphgen.REACHES) * len(graphgen.CHORDS)
    assert len(graphs) == cells
    assert graphs == graphgen.graphs(2024) and graphs != graphgen.graphs(2025)
    sample = [(graphgen.graph6(n, edges), n, edges) for n, edges in graphs[::40]]
    oracle, problems = workloads.oracle(sample, parse_graph6)
    assert problems == []
    for (token, n, edges), (_, d) in zip(sample, oracle):
        assert 30 <= n <= 62
        assert d == distance_distribution(from_edge_list(n, edges)).d
    token, n, edges = sample[0]
    chord = next((u, v) for v in range(n) for u in range(v) if (u, v) not in edges)
    _, problems = workloads.oracle([(token, n, sorted(edges + [chord]))], parse_graph6)
    assert len(problems) == 1


def test_compute_oracle_accepts_the_program_and_flags_changes(tmp_path):
    n, edges = graphgen.graphs(7)[0]
    token = graphgen.graph6(n, edges)
    d = graphgen.distance_counts(n, edges)
    (tmp_path / "in.g6").write_text(token + "\n")
    out = tmp_path / "out.jsonl"
    assert cli.main(["compute", str(tmp_path / "in.g6"), "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert graphgen.record_problem(record, token, d) is None
    bad_coeffs = dict(record, coefficients=[record["coefficients"][0] + 1]
                      + record["coefficients"][1:])
    assert "coefficients" in graphgen.record_problem(bad_coeffs, token, d)
    assert "roots" in graphgen.record_problem(dict(record, roots=record["roots"][1:]), token, d)
    moved = [dict(r, re=r["re"] + 1e-3) for r in record["roots"]]
    assert "residual" in graphgen.record_problem(dict(record, roots=moved), token, d)


def _connected_labeled(n: int) -> int:
    """Labeled connected graphs by the exponential-formula recurrence."""
    c = [0, 1]
    for m in range(2, n + 1):
        c.append(2 ** comb(m, 2) - sum(comb(m - 1, k - 1) * c[k] * 2 ** comb(m - k, 2)
                                       for k in range(1, m)))
    return c[n]


def test_exact_count_constants():
    assert _connected_labeled(7) == workloads.CONNECTED_7
    dists = [distance_distribution(g).d for g in enumerate_trees(15)]
    assert len(dists) == workloads.TREES_15
    assert len(set(dists)) == workloads.TREE_DISTRIBUTIONS_15


def test_graph_count_gate_flags_wrong_counts(tmp_path):
    [op] = workloads.ops("graphs-7", tmp_path)
    op.out.write_text("re,im\n" + "0,0\n" * workloads.GRAPH_DISTRIBUTIONS_7)
    sweep = "graph_core.enumerate_connected_distributions"
    counts = {sweep + ".instances": workloads.CONNECTED_7,
              sweep + ".distinct": workloads.GRAPH_DISTRIBUTIONS_7}
    assert workloads.count_problems("graphs-7", None, counts, [op]) == []
    counts[sweep + ".instances"] -= 1
    assert len(workloads.count_problems("graphs-7", None, counts, [op])) == 1


def test_self_times_subtract_direct_children():
    spans = [["root", 0.0, 10.0, -1], ["a", 1.0, 4.0, 0], ["a.inner", 2.0, 3.0, 1],
             ["b", 5.0, 9.0, 0]]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert sum(tracing.self_times(spans)) == 10.0


def test_tracer_records_nesting_generators_and_errors():
    tracer = tracing.Tracer()
    leaf = tracer.wrap(lambda x: x * 2, "leaf")
    outer = tracer.wrap(lambda xs: [leaf(x) for x in xs], "outer")
    items = tracer.wrap_iter(lambda n: iter(range(n)), "items")

    def fail():
        raise ArithmeticError("boom")

    with tracer.span("root"):
        assert outer(items(3)) == [0, 2, 4]
        with pytest.raises(ArithmeticError):
            tracer.wrap(fail, "fail")()
    names = [s[0] for s in tracer.spans]
    parents = {s[0]: tracer.spans[s[3]][0] for s in tracer.spans if s[3] >= 0}
    assert names.count("items") == 4 and tracer.counts["items.count"] == 3
    assert names.count("leaf") == 3 and parents["leaf"] == "outer"
    assert parents["outer"] == "root" and parents["items"] == "outer"
    assert tracer.counts["fail.errors"] == 1


def test_instrumented_restores_bindings_and_signatures():
    def verify(n_lo: int, n_hi: int | None = None):
        return n_lo

    module = SimpleNamespace(roots=lambda p: (), parse_graph6=lambda s: s)
    table = {"claim": verify}
    original = module.roots
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer, [module], tracing.PROBES, table):
        assert module.roots is not original
        assert list(inspect.signature(table["claim"]).parameters) == ["n_lo", "n_hi"]
        assert table["claim"](3) == 3
    assert module.roots is original and table["claim"] is verify
    assert [s[0] for s in tracer.spans] == ["claims.claim"]


def test_traced_pass_accounts_for_its_wall_time(tmp_path):
    out = tmp_path / "report.json"
    op = workloads.Op("verify tree_root_bound n=9",
                      ("verify", "tree_root_bound", "n=9", "--jobs", "1", "--out", str(out)),
                      out)
    roots = cli.roots
    wall, outcomes, tracer = run.run_pass(cli, [op], traced=True)
    assert outcomes == [0] and cli.roots is roots
    metrics = tracing.layer_metrics(tracer, wall, workloads.root_set_info(cli.claims))
    assert metrics["graph_core.enumerate_trees.count"] == 47
    assert metrics["polynomial.roots.calls"] == metrics["claims.root_set.misses"] > 0
    own = tracing.self_times(tracer.spans)
    assert 0.9 < sum(own) / wall <= 1.0
    assert 0.5 < metrics["trace.probed_frac"] < sum(own) / wall


def test_span_cost_is_small_and_positive():
    assert 0 < tracing.span_cost() < 1e-4


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads(BENCHMARK.read_text())
    passes = [{"wall_s": 1.0, "layers": tracing.layer_metrics(tracing.Tracer(), 1.0, (0, 0))}]
    assert list(run.summarize(passes, 0.1, None)) == [m["name"] for m in spec["end_to_end"]]
    assert list(run.summarize(passes, 0.1, 1e-6)) == [m["name"] for m in spec["per_layer"]]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    verified = {op.argv[1] for w in workloads.WORKLOADS for op in workloads.ops(w, Path())
                if op.argv[0] == "verify"}
    assert verified == set(tracing.CLAIM_IDS)
