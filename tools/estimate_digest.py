"""Print every Monte Carlo estimate of the benchmark's workloads, one line each.

    python3 tools/estimate_digest.py --root DIR --seeds 9101 9102 9103

Imports the package from ``DIR/src`` and the workloads from ``DIR/sphbench``,
builds the operations of ``acceptance-mc`` and ``large-arrangements`` for each
seed and runs them in order.  Each line holds the workload, the seed, the
operation's label, ``repr`` of the mean and of the stderr, the reps and the
redraws, tab-separated; an operation that raises prints its error instead.

A change meant to keep every estimate bit-identical is checked by running
this on a checkout of the parent commit (``git worktree add``) and on the
change, and diffing the two outputs.
"""

from __future__ import annotations

import argparse
import os
import sys

WORKLOADS = ("acceptance-mc", "large-arrangements")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--root", required=True, help="root of the source tree to digest")
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    args = p.parse_args(argv)
    root = os.path.abspath(args.root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "sphbench")]
    import workloads

    for workload in WORKLOADS:
        for seed in args.seeds:
            for op in workloads.build_ops(workload, seed):
                try:
                    out = workloads.run_op(op)
                except Exception as exc:  # a failing operation is part of the digest
                    fields = [f"error {type(exc).__name__}: {exc}"]
                else:
                    fields = [repr(out["mean"]), repr(out["stderr"]), str(out["reps"]), str(out["redraws"])]
                print("\t".join([workload, str(seed), op.label] + fields), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
