"""Command-line front end: compute, family queries, verification, scatter data.

Exit codes are stable across commands: 0 for success (all verdicts pass),
1 for a verification failure, 2 for usage or parse errors and for a family
whose roots are not found.  The tool has no randomness; setting
WIENER_ROOTS_SEED is rejected so nobody relies on it.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import claims
from .families import parse_family_spec, family_polynomial
from .graph_core import (
    Graph6Error,
    distance_distribution,
    graph6_distributions,
    load_edge_list,
    parse_graph6,  # noqa: F401  (kept as cli.parse_graph6 for its callers)
)
from .polynomial import (
    Annulus,
    ComplexRoot,
    RootFindingError,
    WienerPolynomial,
    enestrom_kakeya,
    roots,
    roots_batch,
    wiener_index,
)

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2


def _fmt(x: float) -> str:
    return format(x, ".17g")


@dataclass
class OutputRecord:
    """One computed graph: coefficients, nonzero roots, annulus, index."""

    graph_desc: str
    coefficients: tuple[int, ...]
    roots: tuple[ComplexRoot, ...]
    annulus: Annulus | None
    wiener_index: int

    def to_json_dict(self) -> dict:
        return {
            "graph": self.graph_desc,
            "coefficients": list(self.coefficients),
            "roots": [r.to_json_dict() for r in self.roots],
            "annulus": None if self.annulus is None else
            {"r": str(self.annulus.r), "R": str(self.annulus.R)},
            "wiener_index": self.wiener_index,
        }

    def csv_rows(self) -> list[str]:
        rows = [f"{self.graph_desc},0,0"]
        rows += [f"{self.graph_desc},{_fmt(r.re)},{_fmt(r.im)}" for r in self.roots]
        return rows


def _record_for(desc: str, w: WienerPolynomial,
                rts: tuple[ComplexRoot, ...]) -> OutputRecord:
    ann = enestrom_kakeya(w) if w.degree >= 2 else None
    return OutputRecord(desc, w.d, rts, ann, wiener_index(w))


def _emit(lines: list[str], out: str | None) -> None:
    """Write the lines to out, or to stdout, each ended by a newline (a lone
    newline for no lines), without joining them into one more copy of the
    whole output."""
    ended = (line + "\n" for line in lines or [""])
    if out is None:
        sys.stdout.writelines(ended)
    else:
        with open(out, "w") as fh:
            fh.writelines(ended)


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------


def cmd_compute(args: argparse.Namespace) -> int:
    if args.input == "-":
        source = sys.stdin.read().splitlines()
    else:
        try:
            source = Path(args.input).read_text().splitlines()
        except (OSError, UnicodeDecodeError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            print(f"error: cannot read {args.input}: {reason}", file=sys.stderr)
            return EXIT_USAGE
    # One block of output lines per input.  The graph6 records are decoded
    # together (graph6_distributions), the roots of every connected graph
    # come from one roots_batch call, and each result fills its block.
    unreadable = 0
    if args.edge_list:
        tokens = descs = [args.input]
        try:
            g = load_edge_list(source, name=args.input)
        except ValueError as exc:
            dists, unreadable = [exc], 1
        else:
            try:
                dists = [distance_distribution(g)]
            except ValueError as exc:  # disconnected, or a single vertex
                dists = [exc]
    else:
        lines = [(i + 1, ln.strip()) for i, ln in enumerate(source) if ln.strip()]
        tokens = [token for _, token in lines]
        descs = [f"line {lineno}: {token}" for lineno, token in lines]
        dists = graph6_distributions(tokens)
        unreadable = sum(isinstance(w, Graph6Error) for w in dists)
    # disconnected, a single vertex or unreadable: an error line
    blocks = [[json.dumps({"graph": desc, "error": str(w)})] if isinstance(w, ValueError)
              else [] for desc, w in zip(descs, dists)]
    solvable = [j for j, w in enumerate(dists) if not isinstance(w, ValueError)]
    solved = roots_batch([dists[j] for j in solvable], return_exceptions=True)
    for j, rts in zip(solvable, solved):
        if isinstance(rts, Exception):  # past ROOTS_MAX_DEGREE, or no convergence
            blocks[j] = [json.dumps({"graph": descs[j], "error": str(rts)})]
        elif args.format == "json":
            blocks[j] = [json.dumps(_record_for(tokens[j], dists[j], rts).to_json_dict())]
        else:
            blocks[j] = _record_for(tokens[j], dists[j], rts).csv_rows()
    _emit([line for block in blocks for line in block], args.out)
    return EXIT_USAGE if unreadable else EXIT_OK


# ---------------------------------------------------------------------------
# scatter
# ---------------------------------------------------------------------------


def cmd_scatter(args: argparse.Namespace) -> int:
    if args.klass == "graphs" and args.order == 8 and not args.long:
        print("order-8 graph sweeps are long-running; pass --long to opt in",
              file=sys.stderr)
        return EXIT_USAGE
    claims.set_jobs(args.jobs)
    try:
        dvecs = claims.distinct_distributions(args.klass, args.order, args.long)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    points = [(0.0, 0.0)] * len(dvecs)  # zero is a root of every Wiener polynomial
    for rts in roots_batch([WienerPolynomial(dvec) for dvec in dvecs if len(dvec) > 1]):
        points.extend((r.re, r.im) for r in rts)
    points.sort()
    lines = ["re,im"] + [f"{_fmt(re)},{_fmt(im)}" for re, im in points]
    _emit(lines, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# family
# ---------------------------------------------------------------------------


def cmd_family(args: argparse.Namespace) -> int:
    try:
        spec = parse_family_spec(args.spec)
        w = family_polynomial(spec)
        record = _record_for(str(spec), w, roots(w))
    except (ValueError, RootFindingError) as exc:  # a bad spec, or no roots for it
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.format == "json":
        _emit([json.dumps(record.to_json_dict(), indent=2)], args.out)
    else:
        _emit(record.csv_rows(), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify / verify-all
# ---------------------------------------------------------------------------


def _parse_claim_params(tokens: list[str], accepted: dict[str, type]) -> dict:
    """Turn 'n=5', 'n=6..100', 'rel_tol=0.05', 'which=imag' tokens into claim
    arguments of the types the claim declares; a bool is written 0 or 1.
    No parameter may be given twice, and n= counts as both n_lo and n_hi."""
    params: dict = {}
    given: set[str] = set()
    for token in tokens:
        key, sep, value = token.partition("=")
        if not sep:
            raise ValueError(f"claim parameter {token!r} must look like key=value")
        ranged = key == "n" and ("n_lo" in accepted or "n_hi" in accepted)
        names = {"n_lo", "n_hi"} if ranged else {key}
        if names & given:
            raise ValueError(f"parameter {key!r} is given more than once")
        given |= names
        if ranged:
            if ".." in value:
                lo, hi = value.split("..", 1)
                params["n_lo"], params["n_hi"] = int(lo), int(hi)
            else:
                params["n_lo"] = int(value)
            continue
        if key not in accepted:
            raise ValueError(f"claim does not take a parameter named {key!r}")
        if ".." in value:
            raise ValueError(f"parameter {key!r} does not take a range")
        kind = accepted[key]
        if kind is bool and value not in ("0", "1"):
            raise ValueError(f"parameter {key!r} takes 0 or 1, not {value!r}")
        try:
            params[key] = value == "1" if kind is bool else kind(value)
        except ValueError:
            raise ValueError(f"parameter {key!r} takes {kind.__name__} values, "
                             f"not {value!r}") from None
    return params


def _report_lines(report: claims.ClaimReport) -> list[str]:
    head = f"{report.claim_id} {report.params} -> {report.verdict} " \
           f"({report.runtime:.2f}s)"
    lines = [head]
    for desc, value in report.witnesses[:8]:
        lines.append(f"  witness: {desc}: {value}")
    for desc, value in report.counterexamples[:8]:
        lines.append(f"  counterexample: {desc}: {value}")
    extra = len(report.counterexamples) - 8
    if extra > 0:
        lines.append(f"  ... and {extra} more counterexamples")
    return lines


def cmd_verify(args: argparse.Namespace) -> int:
    if args.claim not in claims.claim_ids():
        print(f"error: unknown claim {args.claim!r}; known: "
              f"{', '.join(claims.claim_ids())}", file=sys.stderr)
        return EXIT_USAGE
    func = claims.CLAIMS[args.claim]
    try:
        params = _parse_claim_params(args.params, func.spec.types)
        if args.tol is not None:
            if "tol" not in func.spec.types:
                raise ValueError(f"claim {args.claim!r} takes no --tol")
            params["tol"] = args.tol
        claims.set_jobs(args.jobs)
        report = func(**params)
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print("\n".join(_report_lines(report)))
    if args.out:
        Path(args.out).write_text(json.dumps(report.to_json_dict(), indent=2) + "\n")
    return EXIT_OK if report.verdict == "pass" else EXIT_VERIFICATION


def cmd_verify_all(args: argparse.Namespace) -> int:
    claims.set_jobs(args.jobs)
    try:
        reports = claims.run_all(args.profile)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    outdir = Path(args.out) if args.out else None
    if outdir:
        outdir.mkdir(parents=True, exist_ok=True)
    summary = [("claim_id", "params", "verdict", "runtime_seconds")]
    all_pass = True
    for i, report in enumerate(reports):
        print("\n".join(_report_lines(report)))
        summary.append((report.claim_id, json.dumps(report.params),
                        report.verdict, f"{report.runtime:.3f}"))
        all_pass &= report.verdict == "pass"
        if outdir:
            path = outdir / f"{i:02d}_{report.claim_id}.json"
            path.write_text(json.dumps(report.to_json_dict(), indent=2) + "\n")
    if outdir:
        with open(outdir / "summary.csv", "w", newline="") as fh:
            csv.writer(fh).writerows(summary)
    print(f"\n{sum(r.verdict == 'pass' for r in reports)}/{len(reports)} "
          f"claims pass")
    return EXIT_OK if all_pass else EXIT_VERIFICATION


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wiener-roots",
        description="Wiener polynomials of connected graphs: coefficients, "
                    "roots, exhaustive claim verification, scatter data.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="Wiener data for graph6 or edge-list input")
    p.add_argument("input", help="file of graph6 lines, '-' for stdin")
    p.add_argument("--edge-list", action="store_true",
                   help="treat the input file as one 'n then u v lines' graph")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("scatter", help="CSV of all roots at one order")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--class", dest="klass", choices=("graphs", "trees"),
                   default="graphs")
    p.add_argument("--out", default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--long", action="store_true",
                   help="allow the order-8 labeled graph sweep")
    p.set_defaults(func=cmd_scatter)

    p = sub.add_parser("family", help="closed-form family data, e.g. 'broom:4,12'")
    p.add_argument("spec")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("verify", help="run one claim verifier")
    p.add_argument("claim")
    p.add_argument("params", nargs="*",
                   help="claim parameters like n=5, n=6..100, rel_tol=0.05, which=imag")
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("verify-all", help="run the whole claim suite")
    p.add_argument("--profile", choices=("quick", "full"), default="quick")
    p.add_argument("--out", default=None, help="directory for reports + summary.csv")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_verify_all)
    return parser


_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    if "WIENER_ROOTS_SEED" in os.environ:
        print("error: WIENER_ROOTS_SEED is rejected; this tool is deterministic "
              "and takes no seed", file=sys.stderr)
        return EXIT_USAGE
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    return args.func(args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
