"""qmc benchmark: end-to-end timings of `qmc check` / `qmc reach --verify`
jobs, and a traced per-layer breakdown.

    python3 perfbench/run.py --workload ghz-noisy --seed 1 --seconds 40 --trace 0

Run from the repository root.  The benchmark generates the workload's inputs
from --seed, checks them once through `qmc.cli.main` (exit codes), against
the independent path oracle (smallest job) and on a second seed (verdict
classes), then runs the whole job list round after round, one job at a
time, for --seconds.  The last line of standard output is a JSON object
{"correct", "attempted", "failed", "metrics"}: end-to-end metrics with
--trace 0, per-layer metrics with --trace 1.  See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# One BLAS thread.  With OpenBLAS's default of one thread per core, its
# threads contend with qmc's own frontier pool on a small machine: the
# qec-branching medians spread twice as wide from run to run.
BLAS_THREADS = "1"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qmc", "__init__.py")):
        print(f"perfbench: no qmc sources under {SRC}; run from a qmc checkout",
              file=sys.stderr)
        return 2
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS  # before numpy loads
    sys.path[:0] = [SRC, HERE]
    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    bench = harness.Bench(args.workload, args.seed)
    env = harness.environment(bench)
    print("env " + json.dumps(env))
    workdir = tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT)
    try:
        bench.cli_checks(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    bench.oracle_check()
    bench.second_seed_check()

    metrics, trace = harness.measure(bench, args.seconds, bool(args.trace))
    if trace is not None:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"env": env, **trace}, fh)
        print(f"spans written to {os.path.relpath(path, ROOT)}")

    for problem in bench.problems:
        print(f"perfbench: INCORRECT {problem}", file=sys.stderr)
    failed, attempted = len(bench.failed_jobs), len(bench.jobs)
    print(f"failed_frac {failed}/{attempted} = {failed / attempted:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
