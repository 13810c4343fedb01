"""Command-line front end.

Subcommands: ``eval`` (exact evaluation), ``table`` (appendix reproduction
with discrepancy verdicts), ``simulate`` (Monte Carlo), ``compare`` (exact
vs MC), ``limit`` (Euclidean-limit sweeps), ``figure`` (plot-data CSVs) and
``coeffs`` (A/B coefficient dump).

Every command exits nonzero iff a hard verdict is "fail"; known
discrepancies exit zero with a warning on stderr.  ``SPHTESS_SEED``
overrides the seed from flags or config files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import List, Optional

from . import figures
from .exactnum import sp_format
from .geom import DegenerateInput, KappaFamily
from .mckernels import SampleAssertionError
from .moments import (
    FLAVORS,
    GAMMA_STAR,
    QUANTITIES,
    EuclidQuery,
    ExpectationQuery,
    euclid_f_weighted,
    euclid_limit_gap,
    euclid_v,
    evaluate_query,
)
from .simulate import REDRAW_RATE_LIMIT, ExperimentConfig, compare, estimate
from .tables import TableSpec, format_float15, render_table, rows_to_csv

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="sphtess", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="exact evaluation of one expectation")
    p_eval.add_argument("--quantity", required=True, choices=[*QUANTITIES, "euclid-v", "euclid-f"])
    p_eval.add_argument("--flavor", default="typical", choices=FLAVORS)
    p_eval.add_argument("--n", type=int)
    p_eval.add_argument("--m", type=int)
    p_eval.add_argument("--d", type=int, required=True)
    p_eval.add_argument("--k", type=int)
    p_eval.add_argument("--l", type=int)
    p_eval.add_argument("--gamma", help="positive rational p/q or 'star' (the default; euclid-v only)")
    p_eval.set_defaults(run=_cmd_eval)

    p_table = sub.add_parser("table", help="reproduce an appendix table")
    p_table.add_argument("--which", required=True)
    p_table.add_argument("--out", help="CSV output path (stdout if omitted)")
    p_table.add_argument("--n-min", type=int)
    p_table.add_argument("--n-max", type=int)
    p_table.set_defaults(run=_cmd_table)

    for name in ("simulate", "compare"):
        p = sub.add_parser(name)
        p.set_defaults(run=_cmd_sim)
        p.add_argument("--quantity", required=True, choices=list(QUANTITIES))
        p.add_argument("--flavor", default="typical", choices=FLAVORS)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--m", type=int)
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--k", type=int)
        p.add_argument("--l", type=int)
        p.add_argument("--reps", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--kappa", default=None, help="iso or pole:BETA")
        p.add_argument("--subspace-reps", type=int)
        p.add_argument("--config", help="JSON object with any of reps, seed, kappa, subspace_reps")
        if name == "compare":
            p.add_argument("--csv", action="store_true", help="emit CSV instead of JSON")

    p_limit = sub.add_parser("limit", help="Euclidean-limit sweep")
    p_limit.add_argument("--d", type=int, required=True)
    p_limit.add_argument("--k", type=int, required=True)
    p_limit.add_argument("--l", type=int, required=True)
    p_limit.add_argument("--flavor", default="typical", choices=FLAVORS)
    p_limit.add_argument("--n", default="25,50,100,200", help="comma-separated intensities")
    p_limit.set_defaults(run=_cmd_limit)

    p_fig = sub.add_parser("figure", help="emit plot-data CSV for one figure")
    p_fig.add_argument("--which", required=True, choices=figures.FIGURES)
    p_fig.add_argument("--d", type=int)
    p_fig.add_argument("--k", type=int)
    p_fig.add_argument("--n", help="comma-separated intensities (figure default if omitted)")
    p_fig.add_argument("--out", help="CSV output path (stdout if omitted)")
    p_fig.set_defaults(run=_cmd_figure)

    p_coef = sub.add_parser("coeffs", help="dump the A and B coefficient tables as CSV")
    p_coef.add_argument("--max-m", type=int, default=8)
    p_coef.add_argument("--out")
    p_coef.set_defaults(run=_cmd_coeffs)

    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, KeyError, DegenerateInput) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SampleAssertionError as exc:
        print(f"error: per-sample assertion failed: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a pass too large for memory, such as numpy's failed allocation
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 2


def _parse_gamma(text: Optional[str]):
    if text is None or text in ("star", "gamma_star"):
        return GAMMA_STAR
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"--gamma {text!r} has a zero denominator") from None
    except ValueError:
        raise ValueError(f"--gamma must be a fraction p/q or 'star', got {text!r}") from None


def _cmd_eval(args) -> int:
    if args.quantity == "euclid-v":
        _reject_unread(args, ("n", "m"))
        q = EuclidQuery(d=args.d, k=_req(args.k, "k"), l=_req(args.l, "l"), gamma=_parse_gamma(args.gamma))
        value = euclid_v(args.flavor, q)
    elif args.quantity == "euclid-f":
        _reject_unread(args, ("n", "m", "gamma"))
        if args.flavor != "weighted":
            raise ValueError("euclid-f is only provided for weighted faces (--flavor weighted)")
        q = EuclidQuery(d=args.d, k=_req(args.k, "k"), l=_req(args.l, "l"))
        q.validate()
        value = euclid_f_weighted(q.k, q.l)
    else:
        _reject_unread(args, ("gamma",))
        value = evaluate_query(_query(args))
    print(sp_format(value))
    print(format_float15(value))
    return 0


def _query(args) -> ExpectationQuery:
    k = args.k if args.k is not None else args.d
    return ExpectationQuery(args.quantity, args.flavor, _req(args.n, "n"), args.d, k, args.l, args.m)


def _reject_unread(args, names) -> None:
    for name in names:
        if getattr(args, name) is not None:
            raise ValueError(f"--quantity {args.quantity} does not read --{name}")


def _req(v, name):
    if v is None:
        raise ValueError(f"--{name} is required for this quantity")
    return v


def _emit(text: str, out: Optional[str]) -> None:
    """Write ``text`` to the file ``out``, or to stdout if ``out`` is not given."""
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {out!r}: {exc.strerror}") from exc


def _cmd_table(args) -> int:
    n_range = None
    if args.n_min is not None or args.n_max is not None:
        if args.n_min is None or args.n_max is None:
            raise ValueError("--n-min and --n-max must be given together")
        n_range = (args.n_min, args.n_max)
    rows = render_table(TableSpec(which=args.which, n_range=n_range))
    csv = rows_to_csv(rows)
    _emit(csv, args.out)
    n_disc = sum(1 for r in rows if r.verdict == "known-discrepancy")
    n_fail = sum(1 for r in rows if r.verdict == "fail")
    if n_disc:
        print(
            f"warning: {n_disc} known-discrepancy cells (documented printed-table errors)",
            file=sys.stderr,
        )
    if n_fail:
        print(f"error: {n_fail} cells FAILED symbolic match", file=sys.stderr)
        return 1
    return 0


CONFIG_KEYS = ("reps", "seed", "kappa", "subspace_reps")


def _load_config(args) -> ExperimentConfig:
    """The config file's keys, then the given flags over them, then ``SPHTESS_SEED``;
    ExperimentConfig's defaults fill the rest."""
    values = {}
    if args.config:
        try:
            with open(args.config) as fh:
                values = json.load(fh)
        except OSError as exc:
            raise ValueError(f"config file {args.config!r} cannot be read: {exc.strerror}") from exc
        _check_config(values)
    values.update((key, getattr(args, key)) for key in CONFIG_KEYS if getattr(args, key) is not None)
    if "kappa" in values:
        values["kappa"] = _parse_kappa(values["kappa"])
    env_seed = os.environ.get("SPHTESS_SEED")
    if env_seed is not None:
        try:
            values["seed"] = int(env_seed)
        except ValueError:
            raise ValueError(f"SPHTESS_SEED must be an integer, got {env_seed!r}") from None
    return ExperimentConfig(**values)


def _check_config(base) -> None:
    """A config file holds a JSON object with some of CONFIG_KEYS, integer
    reps, seed and subspace_reps and a string kappa."""
    if not isinstance(base, dict):
        raise ValueError("config file must hold a JSON object")
    unknown = sorted(set(base) - set(CONFIG_KEYS))
    if unknown:
        raise ValueError(f"config file has unknown keys {unknown}; expected some of {list(CONFIG_KEYS)}")
    for key, value in base.items():
        kind = str if key == "kappa" else int
        if type(value) is not kind:
            raise ValueError(f"config file key {key!r} must be of type {kind.__name__}, got {value!r}")


def _parse_kappa(text: str) -> KappaFamily:
    if text in ("iso", "isotropic"):
        return KappaFamily()
    if text.startswith("pole:"):
        try:
            return KappaFamily("pole_concentrated", float(text.split(":", 1)[1]))
        except ValueError:
            pass
    raise ValueError(f"--kappa (or config key 'kappa') must be 'iso' or 'pole:BETA', got {text!r}")


def _cmd_sim(args) -> int:
    config = _load_config(args)
    q = _query(args)
    if args.command == "simulate":
        est = estimate(q, config)
        _warn_redraws(est)
        print(
            json.dumps(
                {
                    "estimate": est.mean,
                    "stderr": est.stderr,
                    "reps": est.reps,
                    "seed": est.seed,
                    "degenerate_redraws": est.degenerate_redraws,
                }
            )
        )
        return 0
    report = compare(q, config)
    _warn_redraws(report.estimate)
    if args.csv:
        d = report.to_dict()
        keys = list(d)
        print(",".join(keys))
        print(",".join(str(d[k]) for k in keys))
    else:
        print(json.dumps(report.to_dict()))
    return 0 if report.verdict != "fail" else 1


def _warn_redraws(est) -> None:
    if est.degenerate_redraws > est.reps * REDRAW_RATE_LIMIT:
        print(
            f"warning: {est.degenerate_redraws} degenerate redraws in {est.reps} replications"
            f" exceed the accepted rate of {REDRAW_RATE_LIMIT:g} per replication;"
            " the estimate is conditioned on non-degenerate draws",
            file=sys.stderr,
        )


def _n_list(text: str) -> List[int]:
    """The intensities of a comma-separated ``--n`` list."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise ValueError(f"--n needs comma-separated integers, got {text!r}") from None


def _cmd_limit(args) -> int:
    limit = euclid_v(args.flavor, EuclidQuery(d=args.d, k=args.k, l=args.l))
    lines = ["n,prelimit_float,gap_exact,gap_float,rel_gap"]
    for n in _n_list(args.n):
        gap = euclid_limit_gap(args.d, args.k, args.l, args.flavor, n)
        pre = gap + limit
        gap_f = float(gap)
        lim_f = float(limit)
        rel = abs(gap_f) / abs(lim_f) if lim_f else 0.0
        lines.append(f'{n},{format_float15(pre)},"{sp_format(gap)}",{gap_f:.6e},{rel:.6e}')
    print("\n".join(lines))
    return 0


def _cmd_figure(args) -> int:
    ns = _n_list(args.n) if args.n is not None else None
    csv = figures.figure_csv(args.which, d=args.d, k=args.k, ns=ns)
    _emit(csv, args.out)
    return 0


def _cmd_coeffs(args) -> int:
    from .combinat import coeff_A, coeff_B

    if args.max_m < 0:
        raise ValueError(f"--max-m must be >= 0, got {args.max_m}")
    lines = ["family,m,l,exact,float64"]
    for m in range(0, args.max_m + 1):
        for l in range(-1, m + 1):
            a = coeff_A(m, l)
            lines.append(f'A,{m},{l},"{sp_format(a)}",{format_float15(a)}')
    for m in range(1, args.max_m + 1):
        for l in range(0, m + 1):
            b = coeff_B(m, l)
            lines.append(f'B,{m},{l},"{sp_format(b)}",{format_float15(b)}')
    _emit("\n".join(lines + [""]), args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
