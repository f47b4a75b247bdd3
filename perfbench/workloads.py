"""The three workloads: the CLI calls one pass makes, and the checks on its outputs.

trees-15      verify tree_root_bound, tn_extremal and purely_imaginary at tree
              order 15, sharing the claims caches: root finding on 6,832
              distinct low-degree polynomials dominates.
graphs-7      scatter over all 2^21 labeled graphs of order 7: the numpy sweep
              in graph_core dominates and almost no root work is done.
large-degree  few inputs of high degree or huge coefficients with no sharing:
              path_annulus up to degree 98, exact signs in tn_interval, broom
              and half-plane closed forms, and `compute` on seeded graphs of
              orders 30..62.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import graphgen

WORKLOADS = ("trees-15", "graphs-7", "large-degree")

# Free trees of order 15 (OEIS A000055) and their distinct distance vectors.
TREES_15, TREE_DISTRIBUTIONS_15 = 7741, 6832
# Labeled connected graphs of order 7 (OEIS A001187) and their distinct vectors.
CONNECTED_7, GRAPH_DISTRIBUTIONS_7 = 1866256, 98
# Caches in `claims` that every pass empties before it starts.
CACHES = ("connected_distributions", "tree_instances", "root_set")


@dataclass(frozen=True)
class Op:
    """One CLI call of a pass; `out` is the file it writes."""

    label: str
    argv: tuple[str, ...]
    out: Path


def _verify(work: Path, claim_id: str, *params: str) -> Op:
    label = " ".join(("verify", claim_id) + params)
    out = work / (label.replace(" ", "_").replace("=", "-").replace(".", "_") + ".json")
    return Op(label, ("verify", claim_id, *params, "--jobs", "1", "--out", str(out)), out)


def ops(workload: str, work: Path) -> list[Op]:
    if workload == "trees-15":
        return [_verify(work, "tree_root_bound", "n=15"),
                _verify(work, "tn_extremal", "n=15"),
                _verify(work, "purely_imaginary", "kind=trees", "order=15")]
    if workload == "graphs-7":
        out = work / "scatter.csv"
        return [Op("scatter graphs 7", ("scatter", "--class", "graphs", "--order", "7",
                                        "--jobs", "1", "--out", str(out)), out)]
    if workload == "large-degree":
        out = work / "compute.jsonl"
        return [_verify(work, "path_annulus", "n=3..100"),
                _verify(work, "tn_interval", "n=6..1000"),
                _verify(work, "broom_asymptotics", "which=imag", "n_max=1000000"),
                _verify(work, "broom_asymptotics", "which=real", "n_max=1000000"),
                _verify(work, "half_plane"),
                Op("compute", ("compute", str(input_path(work)), "--out", str(out)), out)]
    raise ValueError(f"unknown workload {workload!r}; have {', '.join(WORKLOADS)}")


def input_path(work: Path) -> Path:
    return work / "graphs.g6"


def make_inputs(workload: str, seed: int, work: Path) -> list[tuple[str, int, list]]:
    """Write the workload's input file; returns its (graph6, order, edges) records."""
    if workload != "large-degree":
        return []
    records = [(graphgen.graph6(n, edges), n, edges) for n, edges in graphgen.graphs(seed)]
    input_path(work).write_text("".join(token + "\n" for token, _, _ in records))
    return records


def oracle(records, parse_graph6) -> tuple[list[tuple[str, tuple[int, ...]]], list[str]]:
    """Each input's graph6 and BFS distance vector, and the records that fail to
    round-trip through the program's graph6 parser."""
    expected, problems = [], []
    for token, n, edges in records:
        g = parse_graph6(token)
        if (g.n, g.adj) != (n, graphgen.adjacency_rows(n, edges)):
            problems.append(f"{token} does not round-trip through parse_graph6")
        expected.append((token, graphgen.distance_counts(n, edges)))
    return expected, problems


def clear_caches(claims) -> None:
    for name in CACHES:
        getattr(claims, name).cache_clear()


def report_digest(path: Path) -> str:
    """Digest of a claim report with its runtime removed."""
    report = json.loads(path.read_text())
    report.pop("runtime_seconds", None)
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def output_digest(op: Op) -> str:
    return report_digest(op.out) if op.argv[0] == "verify" else file_digest(op.out)


def compute_problems(path: Path, oracle: list[tuple[str, tuple[int, ...]]]) -> list[str]:
    """Disagreements between `compute` output and the oracle, one per bad record."""
    lines = path.read_text().splitlines()
    if len(lines) != len(oracle):
        return [f"{len(lines)} records for {len(oracle)} inputs"]
    problems = []
    for line, (token, d) in zip(lines, oracle):
        problem = graphgen.record_problem(json.loads(line), token, d)
        if problem:
            problems.append(problem)
    return problems


@dataclass(frozen=True)
class Reference:
    """What one run's outputs are checked against."""

    digests: dict[str, str]        # op label -> digest recorded at the reference commit
    compute_digest: str | None     # recorded `compute` digest for this seed, if any
    oracle: list[tuple[str, tuple[int, ...]]]
    input_problems: list[str]      # inputs that failed the graph6 round trip


def op_problems(op: Op, outcome, ref: Reference) -> list[str]:
    """Everything wrong with one CLI call: exit code, exception, output."""
    if isinstance(outcome, BaseException):
        return [f"raised {type(outcome).__name__}: {outcome}"]
    if outcome != 0:
        return [f"exit code {outcome}"]
    if not op.out.exists():
        return [f"wrote no {op.out.name}"]
    if op.argv[0] == "compute":
        # Inputs depend on the seed: the oracle always, a digest where one is recorded.
        problems = ref.input_problems + compute_problems(op.out, ref.oracle)
        want = ref.compute_digest
    else:
        problems = []
        want = ref.digests.get(op.label)
        if want is None:
            return [f"no recorded digest for {op.label!r}"]
    if want is not None and output_digest(op) != want:
        problems.append(f"{op.out.name} digest differs from the recorded one")
    return problems


def count_problems(workload: str, claims, counts: dict[str, float],
                   ops_: list[Op]) -> list[str]:
    """Exact-count gates, counted from outside the program after a pass."""
    problems = []

    def expect(what: str, got, want) -> None:
        if got != want:
            problems.append(f"{what}: {got}, expected {want}")

    if workload == "trees-15":
        trees = claims.tree_instances(15)
        expect("free trees of order 15", len(trees), TREES_15)
        expect("distinct tree distributions", len({d for d, _ in trees}),
               TREE_DISTRIBUTIONS_15)
    elif workload == "graphs-7":
        sweep = "graph_core.enumerate_connected_distributions"
        expect("connected labeled graphs of order 7", counts.get(sweep + ".instances"),
               CONNECTED_7)
        expect("distinct graph distributions", counts.get(sweep + ".distinct"),
               GRAPH_DISTRIBUTIONS_7)
        if ops_[0].out.exists():
            zero_rows = ops_[0].out.read_text().splitlines().count("0,0")
            expect("scatter rows at the origin", zero_rows, GRAPH_DISTRIBUTIONS_7)
    return problems


def pass_problems(workload: str, claims, ops_: list[Op], outcomes, counts: dict[str, float],
                  ref: Reference) -> list[list[str]]:
    """The problems of each op of one pass; the count gates go with the first op."""
    problems = [op_problems(op, outcome, ref) for op, outcome in zip(ops_, outcomes)]
    problems[0] += count_problems(workload, claims, counts, ops_)
    return problems


def root_set_info(claims) -> tuple[int, int]:
    info = claims.root_set.cache_info()
    return info.hits, info.misses
