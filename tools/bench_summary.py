"""Fold benchmark run records of a parent and a change into one summary file.

    python3 tools/bench_summary.py --parent P/.sphbench-runs/*.json --change .sphbench-runs/*.json

Each record is one ``sphbench/run.py --trace 0`` run.  The summary holds, per
workload and end-to-end metric, the runs of both sides with their median and
quartiles, the change's median over the parent's, the seeds, the operations
attempted and failed, and the machine facts of the records.  It is written
to ``BENCH_<UTC date>.json`` at the root of the repository, or, when that
exists, to the first free ``BENCH_<UTC date>-<N>.json`` (N = 2, 3, ...), so
no summary is overwritten; the path written is printed.  Traced records
are skipped, since their wall times include the tracer.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def side(records):
    return {
        "seeds": sorted({r["seed"] for r in records}),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "all_correct": all(r["correct"] for r in records),
    }


def summarize(parent, change) -> dict:
    machines = {json.dumps(r["machine"], sort_keys=True) for r in parent + change}
    out = {"date": time.strftime("%Y-%m-%d", time.gmtime()), "machine": [json.loads(m) for m in sorted(machines)]}
    workloads = {}
    for name in sorted({r["workload"] for r in parent + change}):
        sides = {label: [r for r in recs if r["workload"] == name] for label, recs in (("parent", parent), ("change", change))}
        entry = {label: side(recs) for label, recs in sides.items() if recs}
        metrics = {}
        for metric in sorted({m for recs in sides.values() for r in recs for m in r["metrics"]}):
            row = {label: spread([r["metrics"][metric] for r in recs]) for label, recs in sides.items() if recs}
            if len(row) == 2:
                row["change_over_parent"] = row["change"]["median"] / row["parent"]["median"]
            metrics[metric] = row
        entry["metrics"] = metrics
        workloads[name] = entry
    out["workloads"] = workloads
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--parent", nargs="+", required=True, help="run records of the parent commit")
    p.add_argument("--change", nargs="+", required=True, help="run records of the change")
    args = p.parse_args(argv)

    def load(paths):
        records = [json.loads(Path(path).read_text()) for path in paths]
        return [r for r in records if not r["trace"]]

    summary = summarize(load(args.parent), load(args.change))
    path, n = ROOT / f"BENCH_{summary['date']}.json", 2
    while path.exists():
        path, n = ROOT / f"BENCH_{summary['date']}-{n}.json", n + 1
    path.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
