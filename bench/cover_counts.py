"""
Per-knot cover counts of the exceptional scan, for the benchmark README.
They are a record, not a gate: the run checks certificates and the known
covers instead.

    python3 bench/cover_counts.py                 # full box |p| <= 36, q <= 4
    python3 bench/cover_counts.py --seed 1        # the exceptional-scan input of seed 1
"""
import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads
from dehncover.core import TorusKnot


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, help="count on the workload input of this seed instead of the box")
    args = ap.parse_args()
    if args.seed is not None:
        inp = workloads.exceptional_inputs(args.seed, "full")
    else:
        box = workloads.slope_box(*workloads.EXC_SIZES["full"]["box"])
        pairs = workloads.ordered_pairs(box)
        inp = workloads.ScanInputs([(TorusKnot(r, s), pairs) for r, s in workloads.EXC_KNOTS])
    results = workloads.exceptional_round(inp, workloads.Clock())
    errors = workloads.exceptional_check(inp, results)
    for knot, count in workloads.covers_per_knot(results).items():
        print(f"{knot}\t{count}")
    print(f"{len(results)} ordered pairs, {len(errors)} check errors")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
