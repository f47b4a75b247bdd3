"""Benchmark of wiener-roots: one workload per run, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload trees-15 --seed 1 --seconds 36 --trace 0

The program is imported from ./src of the checkout this file sits in and
driven through `wiener_roots.cli.main` in this process, with --jobs 1, one
cold-cache pass after another for --seconds (a pass starts only if it is
expected to end in time).  Every pass is
checked: exit codes, output digests recorded at the reference commit
(expected.json), an independent oracle for `compute`, and exact counts.

--trace 0 reports wall_s (median seconds per pass), setup_s (median of
several imports of the program plus input generation) and peak_rss_mb.
--trace 1 makes traced passes only and reports per-layer metrics (medians over
those passes, with their count) and the tracing overhead, estimated as the
measured cost of one span times the spans of a pass.

The last line of standard output is one JSON object.  A readable summary goes
to standard error; the environment, every pass and the spans of the last
traced pass go to .perfbench/result-<workload>-<seed>-<trace>.json.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
EXPECTED = Path(__file__).with_name("expected.json")
SPEC = ROOT / "BENCHMARK.json"
SETUP_REPEATS = 11
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Untraced passes wrap only the sweep, once per pass, to read its counts.
UNTRACED_PROBES = ("enumerate_connected_distributions",)


def units() -> dict[str, str]:
    """Unit of every metric, as BENCHMARK.json lists it."""
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def pin_environment() -> dict:
    """Cap BLAS/OpenMP threads at the usable cores, drop WIENER_ROOTS_SEED, load numpy."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    os.environ.pop("WIENER_ROOTS_SEED", None)  # the CLI rejects it
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": nproc, "cpu": cpu_model(), "platform": platform.platform()}


def import_program():
    """A fresh import of the package from ./src; returns its cli module."""
    for name in [m for m in sys.modules if m.split(".")[0] == "wiener_roots"]:
        del sys.modules[name]
    return importlib.import_module("wiener_roots.cli")


def work_dir(workload: str) -> Path:
    path = WORK / workload
    path.mkdir(parents=True, exist_ok=True)
    return path


def set_up(workload: str, seed: int, work: Path):
    """Median time of SETUP_REPEATS fresh imports plus input generation."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        cli = import_program()
        records = workloads.make_inputs(workload, seed, work)
        times.append(perf_counter() - start)
    return statistics.median(times), cli, records


def call(cli, argv) -> int | Exception:
    """Exit code of one CLI call, or the exception it raised (traceback on stderr).

    The call's own output is dropped."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(list(argv))
        except Exception as exc:  # a crash is a failed operation, not a failed run
            failure, trace = exc, traceback.format_exc()
    print(trace, file=sys.stderr, end="")
    return failure


def run_pass(cli, ops: list[workloads.Op], traced: bool):
    """One cold-cache pass: (wall seconds, outcome per op, tracer)."""
    claims = cli.claims
    workloads.clear_caches(claims)
    for op in ops:
        op.out.unlink(missing_ok=True)
    tracer = tracing.Tracer()
    names = tracing.PROBES if traced else UNTRACED_PROBES
    with tracing.instrumented(tracer, (claims, cli), names,
                              claims.CLAIMS if traced else None):
        outcomes = []
        start = perf_counter()
        for op in ops:
            with tracer.span("cli." + op.argv[0]):
                outcomes.append(call(cli, op.argv))
        wall = perf_counter() - start
    return wall, outcomes, tracer


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wiener_roots").is_dir():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    env = pin_environment()
    sys.path.insert(0, str(SRC))
    work = work_dir(args.workload)
    setup_s, cli, records = set_up(args.workload, args.seed, work)
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported {cli.__file__}, not the checkout's sources", file=sys.stderr)
        return 2
    expected = json.loads(EXPECTED.read_text())
    ref = workloads.Reference(expected["digests"], expected["compute"].get(str(args.seed)),
                              *workloads.oracle(records, cli.parse_graph6))
    ops = workloads.ops(args.workload, work)

    traced = bool(args.trace)
    passes, first_root_set = [], None
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        wall, outcomes, tracer = run_pass(cli, ops, traced)
        root_set = workloads.root_set_info(cli.claims)
        problems = workloads.pass_problems(args.workload, cli.claims, ops, outcomes,
                                           tracer.counts, ref)
        first_root_set = first_root_set or root_set
        if root_set != first_root_set:
            problems[0].append(f"root_set hits/misses {root_set} differ from "
                               f"the first pass's {first_root_set}")
        passes.append({
            "wall_s": wall, "root_set": root_set,
            "problems": {op.label: p for op, p in zip(ops, problems) if p},
            "layers": tracing.layer_metrics(tracer, wall, root_set) if traced else None,
            "spans": tracer.spans if traced else None,
        })
        # Start another pass only if one as long as the last still fits.
        now = perf_counter()
        if (now - start) + (now - pass_start) > args.seconds:
            break

    attempted = len(passes) * len(ops)
    failed = sum(len(p["problems"]) for p in passes)
    metrics = summarize(passes, setup_s, tracing.span_cost() if traced else None)
    spans = None
    for p in passes:
        spans = p.pop("spans") or spans
    record = {"args": vars(args), "environment": env, "setup_s": setup_s,
              "compute_digest_recorded": ref.compute_digest is not None,
              "passes": passes, "metrics": metrics, "spans": spans}
    (WORK / f"result-{args.workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps(record) + "\n")
    print_summary(args, env, passes, metrics, failed, attempted)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def summarize(passes: list[dict], setup_s: float, span_cost: float | None) -> dict:
    """End-to-end metrics, or per-layer medians over traced passes when the
    cost of one span is given."""
    if span_cost is None:
        values = {"wall_s": statistics.median(p["wall_s"] for p in passes),
                  "setup_s": setup_s,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    else:
        layers = [p["layers"] for p in passes]
        values = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        values["trace.passes"] = len(layers)
        values["trace.overhead_s"] = span_cost * values["trace.spans"]
    unit = units()
    return {name: {"value": v, "unit": unit[name]} for name, v in values.items()}


def print_summary(args, env: dict, passes: list[dict], metrics: dict, failed: int,
                  attempted: int) -> None:
    kind = "traced" if args.trace else "untraced"
    print(f"{args.workload} seed {args.seed}: {len(passes)} {kind} passes; "
          f"python {env['python']}, numpy {env['numpy']}, "
          f"nproc {env['nproc']}, {env['cpu']}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(f"  fail_frac = {failed / attempted:.6g} ({failed} of {attempted} operations)",
          file=sys.stderr)
    for p in passes:
        for label, problems in p["problems"].items():
            print(f"  FAILED {label}: {'; '.join(problems[:3])}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
