"""Each output check of the benchmark rejects a wrong answer.

Run from the repository root:  python3 -m pytest sphbench/tests -q
"""

import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE.parent)]

import checks  # noqa: E402
import child  # noqa: E402
import workloads  # noqa: E402
from sphtess import appendix_data, figures, moments, tables  # noqa: E402
from sphtess.exactnum import sp_format, sp_parse  # noqa: E402
from sphtess.moments import ExpectationQuery  # noqa: E402
from sphtess.simulate import ExperimentConfig  # noqa: E402


def _perturb(text: str, line_no: int, delta: str = "1") -> str:
    """Add ``delta`` to the exact value on one data line of a figure CSV."""
    lines = text.splitlines()
    head, exact, tail = lines[line_no].split('"')
    lines[line_no] = f'{head}"{sp_format(sp_parse(exact) + sp_parse(delta))}"{tail}'
    return "\n".join(lines) + "\n"


# -- Monte Carlo estimates ----------------------------------------------------


def test_estimate_within_gate_passes_and_shifted_estimate_fails():
    assert checks.check_estimate(1.02, 0.01, 1024, 0, 1.0) == []
    assert checks.check_estimate(1.07, 0.01, 1024, 0, 1.0)
    assert checks.check_estimate(0.93, 0.01, 1024, 0, 1.0)


def test_zero_spread_estimate_must_hit_exactly():
    assert checks.check_estimate(2.0, 0.0, 1024, 0, 2.0) == []
    assert checks.check_estimate(2.0 + 1e-12, 0.0, 1024, 0, 2.0)


def test_redraws_beyond_rate_fail():
    assert checks.check_estimate(1.0, 0.01, 1024, 1, 1.0) == []
    assert checks.check_estimate(1.0, 0.01, 1024, 2, 1.0)


def test_grid_share_gate():
    assert checks.check_grid([0.5] * 95 + [4.5] * 5) == []
    assert checks.check_grid([0.5] * 94 + [4.5] * 6)
    assert checks.check_grid([])


def _compare_op(q):
    cfg = ExperimentConfig(reps=1024, seed=11, subspace_reps=16)
    return workloads.Op("compare", workloads._label(q), (q, cfg))


def test_real_estimate_passes_and_shifted_one_fails():
    op = _compare_op(ExpectationQuery("f", "typical", 5, 2, 2, 0))
    out = workloads.run_op(op)
    problems, z = workloads.check_op(op, out)
    assert problems == [] and abs(z) <= checks.Z_FAIL
    shifted = dict(out, mean=out["mean"] + 7 * out["stderr"])
    assert workloads.check_op(op, shifted)[0]


def test_wrong_exact_value_in_report_fails():
    op = _compare_op(ExpectationQuery("f", "weighted", 4, 2, 2, 0))
    out = workloads.run_op(op)
    wrong = dict(out, exact=out["exact"] + sp_parse("1/1000"))
    problems, _ = workloads.check_op(op, wrong)
    assert any("closed form" in p for p in problems)


@pytest.mark.parametrize("kind", ["kappa", "sizebias"])
def test_consistency_cells_reject_shift(kind):
    op = next(o for o in workloads.build_ops("acceptance-mc", 3) if o.kind == kind)
    exact = checks.exact_float(sp_parse(op.args[-1]))
    good = {"mean": exact + 0.01, "stderr": 0.01, "reps": 1024, "redraws": 0, "work": 1024}
    assert workloads.check_op(op, good)[0] == []
    bad = dict(good, mean=exact + 0.05)  # |z| = 5: within criterion 8's 6, beyond 4
    assert workloads.check_op(op, bad)[0]


def test_raising_operation_counts_as_failed():
    ops = [workloads.Op("compare", "ok", ()), workloads.Op("compare", "boom", ())]

    def run_op(op):
        if op.label == "boom":
            raise ZeroDivisionError("broken")
        return {"work": 1}

    outs, errors, seconds, _ = child.run_ops(ops, run_op)
    records, round_problems = child.judge(
        ops, outs, errors, seconds, lambda op, out: ([], 0.0), workloads.check_round
    )
    assert [bool(r["problems"]) for r in records] == [False, True]
    assert "ZeroDivisionError" in records[1]["problems"][0]
    # the raised cell counts as beyond |z| = 4, so half the grid misses the 95% gate
    assert round_problems


# -- exact tables -----------------------------------------------------------------


@pytest.mark.parametrize("table", tables.TABLE_NAMES)
def test_rendered_tables_pass(table):
    assert checks.check_table(table, tables.render_table(tables.TableSpec(table))) == []


def test_perturbed_table_value_fails():
    rows = tables.render_table(tables.TableSpec("appB_d2"))
    rows[3] = replace(rows[3], exact=sp_format(sp_parse(rows[3].exact) + sp_parse("1/7")))
    assert checks.check_table("appB_d2", rows)


def test_discrepancy_verdicts_must_match_the_list():
    rows = tables.render_table(tables.TableSpec("appA_d3"))
    i = next(i for i, r in enumerate(rows) if r.verdict == "known-discrepancy")
    relabelled = list(rows)
    relabelled[i] = replace(rows[i], verdict="match")
    assert checks.check_table("appA_d3", relabelled)
    # a discrepancy the list does not name, and a listed one that is not reproduced
    assert checks.check_table("appA_d3", rows, known=set())
    extra = set(appendix_data.KNOWN_DISCREPANCIES) | {("appA_d3", ("W", 0, 5))}
    assert checks.check_table("appA_d3", rows, known=extra)
    failed = list(rows)
    failed[0] = replace(rows[0], verdict="fail")
    assert checks.check_table("appA_d3", failed)


# -- figures ----------------------------------------------------------------------


def test_euler_relation_holds_and_broken_sum_fails():
    text = figures.figure_csv("fvec_fig3", d=5, ns=[9, 12])
    assert checks.check_euler(text) == []
    assert checks.check_euler(_perturb(text, 3))
    dropped = "\n".join(line for i, line in enumerate(text.splitlines()) if i != 2) + "\n"
    assert checks.check_euler(dropped)


def test_quermass_checks():
    text = figures.figure_csv("quermass_fig4", d=3, ns=[6, 8])
    assert checks.check_quermass(text) == []
    assert checks.check_quermass(_perturb(text, 1, "1/100"))  # U_0 != 1/2
    assert checks.check_quermass(_perturb(text, 3, "1"))  # U_2 > U_1


def test_intvol_checks():
    text = figures.figure_csv("intvol_fig5", d=3, ns=[6, 8])
    assert checks.check_intvol(text) == []
    assert checks.check_intvol(_perturb(text, 2, "1/1000"))  # typical closure broken
    last = len(text.splitlines()) - 1
    assert checks.check_intvol(_perturb(text, last, "-10"))  # weighted v_l < 0


def test_statdim_checks():
    text = figures.figure_csv("statdim_fig6")
    assert checks.check_statdim(text) == []
    assert checks.check_statdim(_perturb(text, 4, "1/1000000000"))


def test_isect_checks():
    text = figures.figure_csv("isect_fig8", d=3, ns=[5, 6])
    assert checks.check_isect(text) == []
    lines = text.splitlines()
    # swap the flavors: now weighted < typical
    swapped = [lines[0]] + [
        line.replace(",typical,", ",TMP,").replace(",weighted,", ",typical,").replace(",TMP,", ",weighted,")
        for line in lines[1:]
    ]
    assert checks.check_isect("\n".join(swapped) + "\n")
    assert checks.check_isect(_perturb(text, 1, "2"))  # probability > 1


# -- suites and sweeps ------------------------------------------------------------


def test_identity_suite_checks():
    results = moments.identity_suite([(4, 2, 2, 1), (5, 3, 2, 0)], mono_n_max_offset=3)
    assert checks.check_identities(results) == []
    results[0] = moments.IdentityCheck("efron", (4, 2, 2, 1), ok=False)
    assert checks.check_identities(results)
    assert checks.check_identities([])


def test_limit_sweep_checks():
    assert checks.check_limit_sweep([0.4, 0.2, 0.1, 0.05], 10.0) == []
    assert checks.check_limit_sweep([0.0] * 4, 1.0) == []
    assert checks.check_limit_sweep([0.4, 0.2, 0.2, 0.05], 10.0)  # not strictly decreasing
    assert checks.check_limit_sweep([0.4, 0.3, 0.2, 0.1], 1.0)  # 10% gap at the last n
    assert math.isinf(checks.z_score(1.0, 0.0, 2.0))
