"""Run one swarmflow benchmark workload and print its metrics.

    python3 perfbench/run.py --workload show-512 --seed 0 --seconds 20 --trace 0

Run it from the root of a swarmflow checkout: the program is imported from
``./src`` and nothing is installed.  The last line of standard output is
the result, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics of BENCHMARK.json, or with
``--trace 1`` its per-layer metrics).  The line before it records the
seeds, sample counts, machine and environment.  The exit code is 0 only
when every operation and output check passed.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("train-fixture", "show-512", "goal-2048")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0,
                   help="0 gives the fixture seeds (data 20, train 0, sample 1)")
    p.add_argument("--seconds", type=float, default=20.0,
                   help="how long to repeat the timed part")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: per-layer metrics from an extra traced repeat")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "swarmflow", "__init__.py")):
        print("perfbench: no src/swarmflow here; run from the root of a "
              "swarmflow checkout", file=sys.stderr)
        return 2
    # one BLAS thread, set before numpy loads; metrics' own pool stays off
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("SWARMFLOW_THREADS", None)
    sys.path[:0] = [src, HERE]
    import swarmflow
    if not os.path.abspath(swarmflow.__file__).startswith(src + os.sep):
        print(f"perfbench: imported swarmflow from {swarmflow.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    import bench

    result, context = bench.run_workload(
        args.workload, bench.Seeds(args.seed), args.seconds, bool(args.trace))
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
