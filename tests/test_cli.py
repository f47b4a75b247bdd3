"""Command-line interface: formats, determinism, and the exit-code contract."""

import csv
import hashlib
import json
import random
from pathlib import Path

import pytest

from wiener_roots import polynomial
from wiener_roots.cli import EXIT_OK, EXIT_USAGE, EXIT_VERIFICATION, main
from wiener_roots.families import family_graph, parse_family_spec
from wiener_roots.graph_core import fixture_names, from_edge_list, load_fixture
from conftest import GRAPH6_MALFORMED, graph6_encode


@pytest.fixture
def k4_minus_edge_line():
    g = from_edge_list(4, [(u, v) for v in range(4) for u in range(v)
                           if (u, v) != (0, 1)])
    return graph6_encode(g)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Digests of the quick-profile reports without runtime_seconds, keyed by file
# name, and of summary.csv without its runtime column; recorded at 995a6c8,
# before claims were declared through the registration decorator.
QUICK_DIGESTS = Path(__file__).with_name("quick_profile_digests.json")
# Digests, by the same scheme, keyed by the verify arguments: of the
# full-profile tree_root_bound and tn_extremal reports at tree orders 5..17,
# recorded at 54614c0, while both scans still found every root set; and of the
# purely_imaginary reports at tree orders 5..17 and graph orders 2..7,
# recorded at 0b62d20, while every distribution still took the exact gcd; and
# of the full-profile extremal_real_part report, recorded at 046078f while
# every root set was still solved, and checked by acceptance criterion 11.
FULL_TREE_DIGESTS = Path(__file__).with_name("full_tree_digests.json")


def _report_digest(path: Path) -> str:
    """sha256 of a claim report with its runtime removed, keys sorted."""
    report = json.loads(path.read_text())
    report.pop("runtime_seconds")
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def _summary_digest(path: Path) -> str:
    """sha256 of summary.csv with its last (runtime) column dropped."""
    with open(path, newline="") as fh:
        rows = [row[:-1] for row in csv.reader(fh)]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def test_seed_env_rejected(capsys, monkeypatch):
    monkeypatch.setenv("WIENER_ROOTS_SEED", "42")
    code, _, err = run_cli(capsys, "family", "star:5")
    assert code == EXIT_USAGE and "deterministic" in err


def test_compute_json(tmp_path, capsys, k4_minus_edge_line):
    src = tmp_path / "in.g6"
    src.write_text(k4_minus_edge_line + "\n")
    code, out, _ = run_cli(capsys, "compute", str(src))
    assert code == EXIT_OK
    record = json.loads(out.strip())
    assert record["coefficients"] == [5, 1]
    assert record["wiener_index"] == 7
    assert record["annulus"] == {"r": "5", "R": "5"}
    (root,) = record["roots"]
    assert root["re"] == -5.0 and root["exact"] == "-5"


def test_compute_csv(tmp_path, capsys, k4_minus_edge_line):
    src = tmp_path / "in.g6"
    src.write_text(k4_minus_edge_line + "\n")
    code, out, _ = run_cli(capsys, "compute", str(src), "--format", "csv")
    assert code == EXIT_OK
    assert out.splitlines() == [f"{k4_minus_edge_line},0,0", f"{k4_minus_edge_line},-5,0"]


def test_compute_handles_disconnected_and_parse_errors(tmp_path, capsys):
    two_k2 = from_edge_list(4, [(0, 1), (2, 3)])
    src = tmp_path / "in.g6"
    src.write_text(graph6_encode(two_k2) + "\n")
    code, out, _ = run_cli(capsys, "compute", str(src))
    assert code == EXIT_OK  # disconnected is reported per line, not fatal
    assert "disconnected" in json.loads(out.strip())["error"]

    src.write_text("thisisnotgraph6atall\n")
    code, out, _ = run_cli(capsys, "compute", str(src))
    assert code == EXIT_USAGE
    assert "error" in json.loads(out.strip())

    # an order past GRAPH_MAX_ORDER is refused before any bit row exists
    src.write_text("1000000000000\n0 1\n")
    code, out, _ = run_cli(capsys, "compute", str(src), "--edge-list")
    assert code == EXIT_USAGE
    assert json.loads(out) == {
        "graph": str(src),
        "error": f"{src}: order 1000000000000 is above the supported 16384"}


def test_compute_reports_an_order_one_graph_per_record(tmp_path, capsys):
    # a single vertex has no distance distribution: an error line, like a
    # disconnected graph, and the records after it are still computed
    src = tmp_path / "in.g6"
    src.write_text("@\nA_\n")
    code, out, err = run_cli(capsys, "compute", str(src))
    first, second = (json.loads(ln) for ln in out.strip().splitlines())
    assert code == EXIT_OK and err == ""
    assert first == {"graph": "line 1: @",
                     "error": "distance distribution needs order >= 2"}
    assert second["coefficients"] == [1]

    src = tmp_path / "k1.edges"
    src.write_text("1\n")
    code, out, err = run_cli(capsys, "compute", str(src), "--edge-list")
    assert code == EXIT_OK and err == ""
    assert json.loads(out) == {"graph": str(src),
                               "error": "distance distribution needs order >= 2"}


def test_compute_reports_a_degree_past_the_root_bound_per_record(tmp_path, capsys,
                                                                 monkeypatch):
    # the path of order 1100 has a W/x of degree 1098 > ROOTS_MAX_DEGREE
    n = 1100
    src = tmp_path / "path.edges"
    src.write_text(f"{n}\n" + "".join(f"{v - 1} {v}\n" for v in range(1, n)))
    code, out, err = run_cli(capsys, "compute", str(src), "--edge-list")
    assert (code, err) == (EXIT_OK, "")
    assert json.loads(out) == {
        "graph": str(src),
        "error": "roots are found for W/x of degree at most 1024, not 1098"}
    # graph6 stops at order 62, so among several records a lower bound is
    # passed: the path of order 5 gets an error line in its place, and the
    # records around it are still computed
    monkeypatch.setattr(polynomial, "ROOTS_MAX_DEGREE", 2)
    path5 = graph6_encode(from_edge_list(5, [(v - 1, v) for v in range(1, 5)]))
    src = tmp_path / "in.g6"
    src.write_text(f"Bg\n{path5}\nC~\n")
    code, out, err = run_cli(capsys, "compute", str(src))
    first, second, third = (json.loads(ln) for ln in out.strip().splitlines())
    assert (code, err) == (EXIT_OK, "")
    assert second == {"graph": f"line 2: {path5}",
                      "error": "roots are found for W/x of degree at most 2, not 3"}
    assert first["coefficients"] == [2, 1] and len(first["roots"]) == 1
    assert third["coefficients"] == [6] and third["roots"] == []


def test_a_root_failure_is_one_error_line(tmp_path, capsys):
    # order 512, W/x square-free of degree 16: its roots are too ill-conditioned
    # for Aberth's step test, so roots raises RootFindingError
    spec = "leaf_augmented:2,8"
    message = "Aberth-Ehrlich did not converge within 500 sweeps"
    code, out, err = run_cli(capsys, "family", spec)
    assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")
    g = family_graph(parse_family_spec(spec))
    src = tmp_path / "leaf_augmented.edges"
    src.write_text(f"{g.n}\n" + "".join(f"{u} {v}\n" for u, v in g.edges()))
    code, out, err = run_cli(capsys, "compute", str(src), "--edge-list")
    assert (code, err) == (EXIT_OK, "")
    assert json.loads(out) == {"graph": str(src), "error": message}


def test_compute_edge_list_and_stdin(tmp_path, capsys, monkeypatch):
    src = tmp_path / "p4.edges"
    src.write_text("4\n0 1\n1 2\n2 3\n")
    code, out, _ = run_cli(capsys, "compute", str(src), "--edge-list")
    assert code == EXIT_OK
    record = json.loads(out.strip())
    assert record["coefficients"] == [3, 2, 1]
    assert record["wiener_index"] == 10
    assert {round(r["im"], 6) for r in record["roots"]} == {1.414214, -1.414214}

    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("A_\nA?\n"))
    code, out, _ = run_cli(capsys, "compute", "-")
    lines = out.strip().splitlines()
    assert code == EXIT_OK
    assert json.loads(lines[0])["coefficients"] == [1]
    assert "error" in json.loads(lines[1])  # edgeless pair is disconnected


def test_compute_edge_list_reports_a_disconnected_graph_and_grows_past_one_word(
        tmp_path, capsys):
    # a disconnected edge list is its record's error, not an unreadable input
    src = tmp_path / "two_paths.edges"
    src.write_text("5\n0 1\n1 2\n3 4\n")
    for fmt in ("json", "csv"):
        code, out, err = run_cli(capsys, "compute", str(src), "--edge-list",
                                 "--format", fmt)
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(out) == {
            "graph": str(src),
            "error": "distance distribution undefined for disconnected graphs"}
    # order 70, past one uint64 word per ball; the roots' digest was recorded
    # while edge lists still went through the batched ball growth
    n = 70
    src = tmp_path / "path70.edges"
    src.write_text(f"{n}\n" + "".join(f"{v - 1} {v}\n" for v in range(1, n)))
    code, out, err = run_cli(capsys, "compute", str(src), "--edge-list")
    assert (code, err) == (EXIT_OK, "")
    record = json.loads(out)
    assert record["graph"] == str(src)
    assert record["coefficients"] == list(range(n - 1, 0, -1))
    assert record["wiener_index"] == 57155
    assert record["annulus"] == {"r": "69/68", "R": "2"}
    assert len(record["roots"]) == n - 2
    assert hashlib.sha256(json.dumps(record["roots"]).encode()).hexdigest() == \
        "8efc1741a1b033d8a341e4529a6797737214df9d2a8430a795c7d9cfe79953c6"


def test_scatter_order3_exact_bytes(tmp_path, capsys):
    out_path = tmp_path / "roots.csv"
    code, _, _ = run_cli(capsys, "scatter", "--order", "3", "--out", str(out_path))
    assert code == EXIT_OK
    assert out_path.read_text() == "re,im\n-2,0\n0,0\n0,0\n"


def test_scatter_deterministic_and_tree_mode(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run_cli(capsys, "scatter", "--order", "8", "--class", "trees",
                             "--out", str(path))
        assert code == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    rows = a.read_text().splitlines()
    assert rows[0] == "re,im"
    # 23 order-8 trees, all with distinct distributions: 23 zero rows
    assert rows.count("0,0") == 23


# sha256 of the scatter CSV, recorded at 7221f40, before the distance
# distribution, Wiener polynomial and reduced polynomial became one type.
SCATTER_DIGESTS = {
    ("--class", "trees", "--order", "12"):
        "6a31e3291175258023bb76a6bae8b2320db1385ba7b5ac7ad17576dc39257924",
    ("--order", "6"):
        "3fd5f8dfbb5f71c1c70ca42ed1a138a842d8fb344daab50e0b42cf67652d15b4",
}


@pytest.mark.parametrize("argv", SCATTER_DIGESTS, ids=("trees-12", "graphs-6"))
def test_scatter_bytes_pinned(tmp_path, capsys, argv):
    out_path = tmp_path / "roots.csv"
    code, _, _ = run_cli(capsys, "scatter", *argv, "--out", str(out_path))
    assert code == EXIT_OK
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == SCATTER_DIGESTS[argv]


def _compute_digest_graphs() -> list[str]:
    """The four shipped fixtures, then 120 seeded graphs of orders 4..44:
    random trees of varying reach plus 0..3 chords (long diameters, so high
    degrees), random dense graphs (short ones, closed forms) and sparse ones,
    some of them disconnected."""
    lines = [graph6_encode(load_fixture(name)) for name in fixture_names()]
    rng = random.Random(1729)
    for i in range(120):
        n = rng.randrange(4, 45)
        if i % 3 == 0:
            p = rng.choice((0.08, 0.3, 0.6))
            edges = [(u, v) for v in range(n) for u in range(v) if rng.random() < p]
        else:
            reach = rng.choice((1, 2, 3, 6, n))
            edges = [(rng.randrange(max(0, v - reach), v), v) for v in range(1, n)]
            for _ in range(rng.randrange(4)):
                u, v = rng.sample(range(n), 2)
                edges.append((u, v))
        lines.append(graph6_encode(from_edge_list(n, edges)))
    return lines


# sha256 of `compute` JSON output on _compute_digest_graphs, recorded at
# 21bb38a, before the distances grew every ball at once and conjugate roots
# shared one residual: every root's repr is pinned.
COMPUTE_DIGEST = "12d2e89c0d4e1566dc696428d70fdfa2d3d0646bb4baf6b9ff4cbb827d2f4a0e"


def test_compute_output_bytes_pinned(tmp_path, capsys):
    src = tmp_path / "in.g6"
    src.write_text("\n".join(_compute_digest_graphs()) + "\n")
    code, out, _ = run_cli(capsys, "compute", str(src))
    assert code == EXIT_OK
    records = [json.loads(ln) for ln in out.splitlines()]
    assert len(records) == 124 and any("error" in r for r in records)
    assert hashlib.sha256(out.encode()).hexdigest() == COMPUTE_DIGEST


def test_compute_reports_each_malformed_record_and_exits_2(tmp_path, capsys):
    src = tmp_path / "in.g6"
    for record, message in GRAPH6_MALFORMED.items():
        src.write_text(f"A_\n{record}\nA_\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "compute", str(src))
        first, bad, last = (json.loads(ln) for ln in out.splitlines())
        assert code == EXIT_USAGE and err == ""
        assert bad == {"graph": f"line 2: {record}", "error": message}
        assert first == {**last, "graph": "A_"} and last["coefficients"] == [1]


def _mixed_graph6_lines() -> list[str]:
    """Malformed records of every kind, disconnected graphs, single vertices,
    complete graphs and random connected graphs of orders 2..62, some with
    the graph6 header, blank lines and surrounding blanks, in a seeded order."""
    rng = random.Random(25)
    lines = list(GRAPH6_MALFORMED) * 2 + ["@", ">>graph6<<@", "", "   ", "C~"]
    for _ in range(160):
        n = rng.randrange(2, 63)
        edges = [(rng.randrange(max(0, v - rng.choice((2, 5, n))), v), v) for v in range(1, n)]
        edges += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randrange(3))]
        if rng.random() < 0.15:  # cut off the last vertex
            edges = [(u, v) for u, v in edges if n - 1 not in (u, v)]
        record = graph6_encode(from_edge_list(n, edges))
        lines.append(rng.choice(("", "", ">>graph6<<", " ")) + record + rng.choice(("", "\t")))
    lines.append(graph6_encode(from_edge_list(62, [(u, v) for v in range(62) for u in range(v)])))
    rng.shuffle(lines)
    return lines


# sha256 of `compute` JSON and CSV output on _mixed_graph6_lines, recorded at
# 19c8a66, while each record was parsed into a Graph on its own.
MIXED_COMPUTE_DIGESTS = {
    "json": "25f5e424230355d51980ab7ca09849f92e17359d54fbc100996e07382827b26a",
    "csv": "076d15f4fce96fda75d61adc7ea404cc005e40e18087c1fd79e05b65e314712c",
}


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_compute_output_on_mixed_records_is_pinned(tmp_path, capsys, fmt):
    src = tmp_path / "in.g6"
    src.write_text("\n".join(_mixed_graph6_lines()) + "\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "compute", str(src), "--format", fmt)
    assert code == EXIT_USAGE and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == MIXED_COMPUTE_DIGESTS[fmt]


def test_scatter_order8_graphs_gated(capsys):
    code, _, err = run_cli(capsys, "scatter", "--order", "8")
    assert code == EXIT_USAGE and "--long" in err


def test_family_command(capsys):
    code, out, _ = run_cli(capsys, "family", "t_n:9")
    assert code == EXIT_OK
    record = json.loads(out)
    assert record["coefficients"] == [8, 17, 10, 1]
    code, out, _ = run_cli(capsys, "family", "g_n:6")
    roots = json.loads(out)["roots"]
    assert {round(r["re"], 6) for r in roots} == {-2.0}
    assert {round(abs(r["im"]), 6) for r in roots} == {2.449490}
    code, out, _ = run_cli(capsys, "family", "star:5", "--format", "csv")
    assert out.splitlines() == ["star:5,0,0", "star:5,-0.66666666666666663,0"]
    code, _, err = run_cli(capsys, "family", "star:-1")
    assert code == EXIT_USAGE
    # closed forms have no order bound
    code, out, _ = run_cli(capsys, "family", "broom:5,1000000")
    assert code == EXIT_OK and json.loads(out)["coefficients"][0] == 999999


def test_family_graphs_above_the_order_bound_exit_2_before_building(capsys):
    # no closed form: each would need its graph, of 10^12 or 2^41 vertices
    for spec in ("broom:3,1000000000000", "path_with_pendants:2,1,1000000000000",
                 "leaf_augmented:2,40"):
        code, out, err = run_cli(capsys, "family", spec)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == (f"error: {spec} has more than 16384 vertices; "
                       "only closed forms go past that order\n")


def test_leaf_augment_depth_above_the_order_bound_exits_2(capsys):
    # depth 13 would augment the three-vertex path to order 3 * 2^13 = 24576
    code, out, err = run_cli(capsys, "verify", "leaf_augment_identity", "depth=13")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: need 3 << depth <= 16384, so depth <= 12\n"


def test_verify_command_exit_codes(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify", "max_modulus", "n=5",
                           "--out", str(report_path))
    assert code == EXIT_OK and "pass" in out
    payload = json.loads(report_path.read_text())
    assert payload["params"] == {"n_lo": 5, "n_hi": 5}
    assert any("(9, 1)" in w[0] for w in payload["witnesses"])

    code, out, _ = run_cli(capsys, "verify", "tn_interval", "n=6..40")
    assert code == EXIT_OK

    code, _, err = run_cli(capsys, "verify", "unknown_claim")
    assert code == EXIT_USAGE and "unknown claim" in err

    code, _, err = run_cli(capsys, "verify", "max_modulus", "bogus=3")
    assert code == EXIT_USAGE

    # malformed claim parameters: one error line each
    for token, message in (
            ("a_hi", "claim parameter 'a_hi' must look like key=value"),
            ("a_hi=2..3", "parameter 'a_hi' does not take a range"),
            ("a_hi=x", "parameter 'a_hi' takes int values, not 'x'")):
        code, out, err = run_cli(capsys, "verify", "density", token)
        assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")

    # the knowingly false identity comes back as a verification failure
    code, out, _ = run_cli(capsys, "verify", "leaf_augment_identity", "samples=5")
    assert code == EXIT_VERIFICATION and "fail" in out

    # float parameters arrive as floats: the final deviation at ell_max=80 is
    # 6.4e-3, above a 1e-12 share of the limit and below a 5% share
    code, out, _ = run_cli(capsys, "verify", "tree_density_limit", "a=1", "b=2",
                           "ell_max=80", "rel_tol=1e-12")
    assert code == EXIT_VERIFICATION and "final deviation 6.410e-03" in out
    code, out, _ = run_cli(capsys, "verify", "tree_density_limit", "a=1", "b=2",
                           "ell_max=80", "rel_tol=0.05")
    assert code == EXIT_OK and "pass" in out


def test_verify_rejects_a_parameter_given_twice(capsys):
    # n= gives both n_lo and n_hi, so it clashes with either
    for argv in (("density", "a_hi=2", "b_hi=2", "a_hi=3"),
                 ("tree_root_bound", "n=5", "n_lo=6"),
                 ("tree_root_bound", "n_hi=6", "n=5"),
                 ("tree_root_bound", "n=5", "n=6..7")):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: parameter ") and err.endswith(
            " is given more than once\n")
    code, out, _ = run_cli(capsys, "verify", "tree_root_bound", "n_lo=5", "n_hi=6")
    assert code == EXIT_OK and "{'n_lo': 5, 'n_hi': 6}" in out


def test_verify_bool_parameters_take_only_0_or_1(capsys):
    for value in ("7", "-1", "true", "01"):
        code, out, err = run_cli(capsys, "verify", "purely_imaginary", "kind=graphs",
                                 "order=5", f"long_running={value}")
        assert (code, out, err) == (
            EXIT_USAGE, "",
            f"error: parameter 'long_running' takes 0 or 1, not {value!r}\n")
    for value in ("0", "1"):
        code, _, _ = run_cli(capsys, "verify", "purely_imaginary", "kind=graphs",
                             "order=5", f"long_running={value}")
        assert code == EXIT_OK


def test_extremal_real_part_bounds_graph_hi_from_both_sides(capsys):
    message = "error: supported graph order bound is 3..7; orders above 7 are gated\n"
    for graph_hi in (-5, 2, 8):
        code, out, err = run_cli(capsys, "verify", "extremal_real_part",
                                 f"graph_hi={graph_hi}")
        assert (code, out, err) == (EXIT_USAGE, "", message)
    code, out, _ = run_cli(capsys, "verify", "extremal_real_part", "tree_hi=7",
                           "graph_hi=3")
    assert code == EXIT_OK and "graphs order 3" in out


def test_verify_all_quick(tmp_path, capsys):
    outdir = tmp_path / "reports"
    code, out, _ = run_cli(capsys, "verify-all", "--profile", "quick",
                           "--out", str(outdir))
    assert code == EXIT_VERIFICATION  # exactly one claim is honestly red
    assert (outdir / "summary.csv").exists()
    rows = (outdir / "summary.csv").read_text().splitlines()
    fails = [row for row in rows if ",fail," in row]
    assert len(fails) == 1 and fails[0].startswith("leaf_augment_identity")
    assert len(list(outdir.glob("*.json"))) == len(rows) - 1
    digests = {path.name: _report_digest(path) for path in outdir.glob("*.json")}
    digests["summary.csv"] = _summary_digest(outdir / "summary.csv")
    assert digests == json.loads(QUICK_DIGESTS.read_text())


def _check_full_digests(tmp_path, capsys, claim_ids):
    """Run every pinned label of the given claims and compare its digest."""
    pinned = {label: digest for label, digest in
              json.loads(FULL_TREE_DIGESTS.read_text()).items()
              if label.split()[0] in claim_ids}
    assert pinned
    digests = {}
    for label in pinned:
        path = tmp_path / f"{label.split()[0]}.json"
        code, _, _ = run_cli(capsys, "verify", *label.split(), "--out", str(path))
        assert code == EXIT_OK
        digests[label] = _report_digest(path)
    assert digests == pinned


def test_full_tree_modulus_reports_match_the_exhaustive_scan(tmp_path, capsys):
    _check_full_digests(tmp_path, capsys, ("tree_root_bound", "tn_extremal"))


def test_purely_imaginary_reports_match_the_exact_scan(tmp_path, capsys):
    _check_full_digests(tmp_path, capsys, ("purely_imaginary",))


def test_usage_errors(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "scatter", "--order", "notanint")
    assert code == EXIT_USAGE
    code, _, _ = run_cli(capsys)
    assert code == EXIT_USAGE
    # out-of-range orders and unreadable inputs: one error line, no traceback
    for argv in (("scatter", "--order", "0"), ("scatter", "--order", "9"),
                 ("scatter", "--class", "trees", "--order", "25"),
                 ("compute", str(tmp_path / "missing.g6")),
                 ("compute", str(tmp_path)),
                 ("verify", "tree_density_limit", "a=0", "b=1"),
                 ("verify", "tree_density_limit", "a=1", "b=0"),
                 ("verify", "leaf_augment_identity", "order_lo=1", "order_hi=2"),
                 ("verify", "path_annulus", "n=3..10", "--tol", "nan"),
                 ("verify", "extremal_real_part", "--tol", "-1"),
                 ("verify", "density", "a_hi=2", "b_hi=2", "--tol", "nan"),
                 ("verify", "tree_density_limit", "a=1", "b=2", "ell_max=80",
                  "rel_tol=nan"),
                 ("verify", "tree_density_limit", "a=1", "b=2", "ell_max=80",
                  "rel_tol=0"),
                 # closed forms whose pair counts (about 10^400) pass the float range
                 ("family", f"broom:5,{10 ** 200}"),
                 ("family", f"complete_minus_edge:{10 ** 200}"),
                 ("verify", "broom_asymptotics", "which=real", f"n_max={10 ** 200}"),
                 # a closed form listing one count per vertex, past GRAPH_MAX_ORDER
                 ("family", f"path:{10 ** 200}"),
                 # a W/x of degree 16382, past ROOTS_MAX_DEGREE
                 ("family", "path:16384")):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    for argv in (("verify", "purely_imaginary", "kind=trees", "order=1"),
                 ("scatter", "--class", "trees", "--order", "1")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == \
            (EXIT_USAGE, "", "error: distance distribution needs order >= 2\n")
    for order in (0, 19):
        for argv in (("verify", "purely_imaginary", "kind=trees", f"order={order}"),
                     ("scatter", "--class", "trees", "--order", str(order))):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out, err) == \
                (EXIT_USAGE, "", f"error: supported orders are 1..18, got {order}\n")
