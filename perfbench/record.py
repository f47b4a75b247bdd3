"""Record the reference output digests into perfbench/expected.json.

    python3 perfbench/record.py

Run from the root of a checkout of the commit whose outputs are the
reference.  Every workload makes one cold pass; `compute` is digested for
seeds 0..COMPUTE_SEEDS-1 and only after its output agrees with the oracle.
"""

from __future__ import annotations

import json
import sys

import run
import workloads

COMPUTE_SEEDS = 64


def main() -> int:
    run.pin_environment()
    sys.path.insert(0, str(run.SRC))
    cli = run.import_program()
    digests, compute = {}, {}
    for workload in workloads.WORKLOADS:
        work = run.work_dir(workload)
        workloads.make_inputs(workload, 0, work)
        ops = workloads.ops(workload, work)
        _, outcomes, _ = run.run_pass(cli, ops, traced=False)
        for op, outcome in zip(ops, outcomes):
            if outcome != 0:
                raise SystemExit(f"{op.label}: {outcome!r}")
            if op.argv[0] != "compute":
                digests[op.label] = workloads.output_digest(op)
    work = run.work_dir("large-degree")
    op = workloads.ops("large-degree", work)[-1]
    for seed in range(COMPUTE_SEEDS):
        records = workloads.make_inputs("large-degree", seed, work)
        oracle, problems = workloads.oracle(records, cli.parse_graph6)
        outcome = run.call(cli, op.argv)
        problems += [repr(outcome)] if outcome != 0 else \
            workloads.compute_problems(op.out, oracle)
        if problems:
            raise SystemExit(f"compute, seed {seed}: {problems[:3]}")
        compute[str(seed)] = workloads.file_digest(op.out)
        print(f"compute seed {seed} recorded", file=sys.stderr)
    run.EXPECTED.write_text(json.dumps({"digests": digests, "compute": compute},
                                       indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
