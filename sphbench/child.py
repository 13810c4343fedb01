"""One round of a workload in a fresh interpreter (started by ``run.py``).

    python3 sphbench/child.py {setup|round} --workload W --seed S
        --spawned <time.time() at spawn> [--trace 0|1] [--spans PATH]

``setup`` imports every layer, builds the round's operations and reports the
time since spawn.  ``round`` does the same, then runs every operation,
checks the outputs and prints one JSON object.  With ``--trace 1`` the round
runs under the span tracer and the kernel rates are measured after it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]


def _setup(workload: str, seed: int):
    import sphtess.cli  # noqa: F401  (every sphtess command loads the CLI module)
    import workloads

    return workloads, workloads.build_ops(workload, seed)


def _install_tracer():
    from sphtess import combinat, exactnum, figures, geom, mckernels, moments, simulate, tables
    from tracer import Tracer

    def count_cells(t, cells):
        t.counts["cells"] += cells.B
        t.counts["draws"] += cells.B + cells.degenerate

    def count_isect(t, result):
        hit, near = result
        t.counts["isect_tested"] += len(hit)
        t.counts["isect_decided"] += len(hit) - int(near.sum())

    after = {
        "sample_typical_cells": count_cells,
        "sample_weighted_cells": count_cells,
        "cones_intersect_batch": count_isect,
    }
    spanned = {
        mckernels: (
            "sample_typical_cells", "sample_weighted_cells", "fvec_values", "solid_fractions",
            "polar_fractions", "subspace_hits", "subspace_hits_paired", "project_batch",
            "statdim_values", "cones_intersect_batch", "run_estimate", "run_isect",
            "run_consistency", "finalize",
        ),
        simulate: ("compare", "estimate", "estimate_isect", "consistency_checks"),
        geom: ("sample_vmf_mixture",),
        moments: (
            "ef_typical", "ef_weighted", "hk_typical_mean", "u_typical", "u_weighted",
            "v_typical", "v_weighted", "v_minus1_weighted", "statdim", "statdim_closed",
            "euclid_v", "euclid_f_weighted", "euclid_limit_gap", "isect_prob_weighted",
            "isect_prob_typical", "isect_prob_typical_printed", "isect_prob_fixed",
            "identity_suite", "evaluate_query",
        ),
        combinat: (
            "cells_count", "faces_count", "qpoly", "hyp_series", "coeff_A",
            "coeff_A_dd_closed", "coeff_B", "coeff_B_oracle", "b_closed_form",
        ),
        exactnum: (
            "sp_eval", "sp_format", "sp_parse", "pi_decimal", "bernoulli", "gamma_half",
            "sphere_surface",
        ),
        tables: ("render_table", "rows_to_csv", "format_float15"),
        figures: ("figure_csv",),
    }
    caches = (combinat.coeff_A, combinat.coeff_B)
    t = Tracer()
    for module, names in spanned.items():
        layer = module.__name__.rsplit(".", 1)[-1]
        for name in names:
            t.rebind(module, name, lambda fn, n=f"{layer}.{name}", a=after.get(name): t.span(n, fn, a))
    t.rebind(mckernels, "batch_rng", lambda fn: t.counter("batches", fn))
    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__neg__", "__truediv__", "__pow__", "scale"):
        t.patch_attr(exactnum.SqrtPiPoly, op, lambda fn: t.counter("arith", fn))
    return t, caches


def layer_metrics(t, caches) -> dict:
    st = t.self_times()
    c = t.counts

    def self_s(*names):
        return sum(st.get(n, 0.0) for n in names)

    def layer_s(layer):
        return sum((v for k, v in st.items() if k.startswith(layer + ".")), 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    hits = sum(f.cache_info().hits for f in caches)
    misses = sum(f.cache_info().misses for f in caches)
    mk = "mckernels."
    return {
        "mckernels.sample_typical_s": self_s(mk + "sample_typical_cells"),
        "mckernels.sample_weighted_s": self_s(mk + "sample_weighted_cells"),
        "mckernels.cells_sampled": c["cells"],
        "mckernels.draw_yield": ratio(c["cells"], c["draws"]),
        "mckernels.project_s": self_s(mk + "project_batch", mk + "statdim_values"),
        "mckernels.intersect_s": self_s(mk + "cones_intersect_batch"),
        "mckernels.intersect_yield": ratio(c["isect_decided"], c["isect_tested"]),
        "mckernels.subspace_hits_s": self_s(mk + "subspace_hits", mk + "subspace_hits_paired"),
        "mckernels.fvec_s": self_s(mk + "fvec_values"),
        "mckernels.solid_s": self_s(mk + "solid_fractions"),
        "mckernels.polar_s": self_s(mk + "polar_fractions"),
        "mckernels.runner_s": self_s(mk + "run_estimate", mk + "run_isect", mk + "run_consistency", mk + "finalize"),
        "mckernels.batches": c["batches"],
        "simulate.self_s": layer_s("simulate"),
        "geom.vmf_s": self_s("geom.sample_vmf_mixture"),
        "moments.self_s": layer_s("moments"),
        "moments.values": t.root_calls("moments."),
        "combinat.coeff_s": self_s("combinat.coeff_A", "combinat.coeff_B"),
        "combinat.self_s": layer_s("combinat"),
        "combinat.coeff_hit_ratio": ratio(hits, hits + misses),
        "exactnum.arith_ops": c["arith"],
        "exactnum.sp_eval_s": self_s("exactnum.sp_eval", "exactnum.pi_decimal"),
        "exactnum.text_s": self_s("exactnum.sp_format", "exactnum.sp_parse"),
        "tables.render_s": layer_s("tables"),
        "figures.render_s": layer_s("figures"),
    }


def run_ops(ops, run_op):
    """Run every operation in order and time each; one that raises counts as failed."""
    outs, errors, seconds = [], [], []
    round_start = time.perf_counter()
    for op in ops:
        start = time.perf_counter()
        try:
            out, err = run_op(op), None
        except Exception as exc:
            out, err = None, f"{type(exc).__name__}: {exc}"
        seconds.append(time.perf_counter() - start)
        outs.append(out)
        errors.append(err)
    return outs, errors, seconds, time.perf_counter() - round_start


def judge(ops, outs, errors, seconds, check_op, check_round):
    """Per-operation records with their problems, and the round-level problems."""
    records, zs = [], []
    for op, out, err, sec in zip(ops, outs, errors, seconds):
        if err is None:
            problems, z = check_op(op, out)
        else:
            problems, z = [err], math.inf
        zs.append(z)
        records.append({
            "label": op.label,
            "kind": op.kind,
            "seconds": sec,
            "work": 0 if out is None else out["work"],
            "z": None if math.isinf(z) else z,
            "problems": problems,
        })
    return records, check_round(ops, zs)


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=["setup", "round"])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--spawned", type=float, required=True)
    p.add_argument("--trace", type=int, default=0, choices=[0, 1])
    p.add_argument("--spans", help="gzipped CSV path for the traced round's spans")
    args = p.parse_args(argv)

    workloads, ops = _setup(args.workload, args.seed)
    setup_s = time.time() - args.spawned
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = caches = None
    if args.trace:
        tracer, caches = _install_tracer()
    outs, errors, seconds, wall_s = run_ops(ops, workloads.run_op)
    if tracer is not None:
        tracer.uninstall()
    records, round_problems = judge(ops, outs, errors, seconds, workloads.check_op, workloads.check_round)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "ops": records,
        "round_problems": round_problems,
        "peak_rss_mb": _peak_rss_mb(),
    }
    if tracer is not None:
        import kernels
        from tracer import calibrate

        per_span = calibrate()
        result["per_layer"] = layer_metrics(tracer, caches)
        result["per_layer"].update({
            "trace.wall_s": wall_s,
            "trace.spans": len(tracer.spans),
            "trace.overhead_s": len(tracer.spans) * per_span["span"]
            + sum(tracer.counts[k] for k in ("batches", "arith")) * per_span["count"],
        })
        result["self_times"] = tracer.self_times()
        if args.spans:
            tracer.write(args.spans)
        result["per_layer"].update(kernels.kernel_rates(args.seed))
    print(json.dumps(result))
    return 0


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


if __name__ == "__main__":
    sys.exit(main())
