"""Benchmark for sphtess: one command, every workload, every metric.

    python3 sphbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Workloads: ``acceptance-mc``,
``large-arrangements``, ``exact-reproduction`` (see README.md).

Each round of a workload runs in a fresh interpreter (``child.py``), so the
exact engine's memo caches start empty as they do for every ``sphtess``
call.  Before and after the rounds, ``SETUP_PROBES`` interpreters each only
import the package and build the round's operations; ``setup_s`` is the
median set-up time over the probes and the rounds.  Probing at both ends
spreads the samples over the run, since a shared host's speed can drift over
tens of seconds.  Rounds repeat while another
one is expected to finish within ``--seconds``; there is always at least
one.  With ``--trace 0`` the end-to-end metrics are printed; with
``--trace 1`` a single traced round gives the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run record with
the machine facts, the seed, every metric and every failed operation is
written under ``.sphbench-runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
RECORDS = ROOT / ".sphbench-runs"

WORKLOADS = ("acceptance-mc", "large-arrangements", "exact-reproduction")
SETUP_PROBES = 3  # before the rounds, and again after them
RUN_LIMIT_S = 170.0  # a run ends, whatever --seconds says, well inside 180 s

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}
COUNT_METRICS = ("cells_sampled", "batches", "values", "arith_ops", "spans")
RATIO_METRICS = ("draw_yield", "intersect_yield", "coeff_hit_ratio")


class RunError(RuntimeError):
    pass


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    last = name.rsplit(".", 1)[-1]
    if last == "per_s":
        return "1/s"
    if last in COUNT_METRICS:
        return "count"
    if last in RATIO_METRICS:
        return "ratio"
    return "s"


def spawn(mode: str, workload: str, seed: int, trace: int, timeout: float, spans=None) -> dict:
    if timeout <= 0:
        raise RunError(f"no time left for a {mode} interpreter")
    cmd = [sys.executable, str(CHILD), mode, "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    cmd += ["--spawned", repr(time.time())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise RunError(f"{mode} interpreter exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise RunError(f"{mode} interpreter exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine_facts() -> dict:
    facts = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }
    try:
        import numpy

        facts["numpy"] = numpy.__version__
    except ImportError:
        facts["numpy"] = None
    return facts


def end_to_end(rounds, setups, ops) -> dict:
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "work_per_s": sum(op["work"] for op in ops) / sum(op["seconds"] for op in ops),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }


def op_percentiles_ms(ops) -> dict:
    """Median operation time, and the 90th percentile where at least ten
    operations lie beyond it.  Recorded and printed, not gated: see README."""
    seconds = [op["seconds"] for op in ops]
    out = {"op_p50_ms": 1000.0 * statistics.median(seconds)}
    if len(seconds) >= 100:
        out["op_p90_ms"] = 1000.0 * statistics.quantiles(seconds, n=10)[8]
    return out


def untraced_wall_median(workload: str):
    walls = []
    for path in RECORDS.glob(f"*-{workload}-seed*-trace0.json"):
        try:
            walls.append(json.loads(path.read_text())["metrics"]["wall_s"])
        except (OSError, ValueError, KeyError):
            continue
    return statistics.median(walls) if walls else None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = p.parse_args(argv)
    if not (ROOT / "src" / "sphtess" / "__init__.py").is_file():
        print(f"error: no sphtess sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run_start = time.monotonic()
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    stem = f"{stamp}-{os.getpid()}-{args.workload}-seed{args.seed}-trace{args.trace}"
    RECORDS.mkdir(exist_ok=True)
    spans_path = RECORDS / f"{stem}-spans.csv.gz" if args.trace else None

    def left() -> float:
        return RUN_LIMIT_S - (time.monotonic() - run_start)

    def probe() -> float:
        return spawn("setup", args.workload, args.seed, 0, left())["setup_s"]

    try:
        setups = [probe() for _ in range(SETUP_PROBES)]
        rounds = []
        measure_start = time.monotonic()
        while True:
            rounds.append(spawn("round", args.workload, args.seed, args.trace, left(), spans_path))
            setups.append(rounds[-1]["setup_s"])
            elapsed = time.monotonic() - measure_start
            per_round = elapsed / len(rounds)
            if args.trace or elapsed + per_round > args.seconds or per_round > left() - 5.0:
                break
        setups += [probe() for _ in range(SETUP_PROBES)]
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    ops = [op for r in rounds for op in r["ops"]]
    failures = [{"label": op["label"], "problems": op["problems"]} for op in ops if op["problems"]]
    round_problems = [msg for r in rounds for msg in r["round_problems"]]
    if args.trace:
        metrics = rounds[0]["per_layer"]
    else:
        metrics = end_to_end(rounds, setups, ops)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_facts(),
        "attempted": len(ops),
        "failed": len(failures),
        "correct": not round_problems,
        "metrics": metrics,
        "op_percentiles_ms": op_percentiles_ms(ops),
        "op_seconds": {op["label"]: op["seconds"] for op in rounds[0]["ops"]},
        "setup_samples_s": setups,
        "rounds": [
            {k: r[k] for k in ("setup_s", "wall_s", "peak_rss_mb", "round_problems")} | {"ops": len(r["ops"])}
            for r in rounds
        ],
        "failures": failures,
    }
    if args.trace:
        untraced = untraced_wall_median(args.workload)
        record["self_times_s"] = rounds[0]["self_times"]
        record["spans_file"] = spans_path.name
        record["untraced_wall_median_s"] = untraced
        record["traced_minus_untraced_wall_s"] = (
            None if untraced is None else metrics["trace.wall_s"] - untraced
        )
    (RECORDS / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))

    for name, value in metrics.items():
        print(f"{name:44s} {value:14.6g} {unit_of(name)}")
    for name, value in record["op_percentiles_ms"].items():
        print(f"{name:44s} {value:14.6g} ms ({len(ops)} operations, not gated)")
    if args.trace and record["traced_minus_untraced_wall_s"] is not None:
        print(f"{'traced minus untraced wall':44s} {record['traced_minus_untraced_wall_s']:14.6g} s")
    print(f"operations: {len(ops)} attempted, {len(failures)} failed, {len(rounds)} round(s)")
    for failure in failures[:10]:
        print(f"FAILED {failure['label']}: {'; '.join(failure['problems'])}")
    for msg in round_problems:
        print(f"ROUND CHECK FAILED: {msg}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
