"""Appendix-table reproduction, figure CSVs, and the CLI surface."""

import json
import os
import subprocess
import sys

import pytest

from sphtess import appendix_data as app
from sphtess.exactnum import sp_parse
from sphtess.figures import figure_csv
from sphtess.moments import ef_typical
from sphtess.tables import TABLE_NAMES, TableSpec, format_float15, render_table, rows_to_csv


def verdicts(which):
    rows = render_table(TableSpec(which))
    return rows, {r.verdict for r in rows}


def test_all_tables_have_no_fail_verdicts():
    for which in TABLE_NAMES:
        rows, vs = verdicts(which)
        assert "fail" not in vs, which


def test_known_discrepancy_cells_are_exactly_the_documented_ones():
    got = set()
    for which in TABLE_NAMES:
        rows, _ = verdicts(which)
        for r in rows:
            if r.verdict == "known-discrepancy":
                key = (r.flavor, r.l, r.n) if r.m is None else (r.n, r.m)
                got.add((r.table, key))
    assert got == app.KNOWN_DISCREPANCIES


def test_appA_d2_typical_shift():
    # the printed row equals the formula value at n-1 (duplicated leading 3)
    for n, printed in app.APP_A_D2_Z_PRINTED.items():
        ref = ef_typical(n - 1 if n >= 4 else n, 2, 2, 0)
        assert sp_parse(printed) == ref, n
    seq = [str(s) for s in app.APP_A_D2_Z_SEQUENCE]
    for i, n in enumerate(range(3, 10)):
        assert ef_typical(n, 2, 2, 0) == sp_parse(seq[i])


def test_table_output_byte_stable():
    a = rows_to_csv(render_table(TableSpec("appB_d2")))
    b = rows_to_csv(render_table(TableSpec("appB_d2")))
    assert a == b
    assert a.splitlines()[0].startswith("table,quantity,flavor")


def test_table_range_extension_marks_computed():
    rows = render_table(TableSpec("appE_d2", n_range=(9, 10)))
    assert all(r.verdict == "computed" for r in rows)


def test_format_float15():
    assert format_float15(sp_parse("1/2")) == "0.5"
    v = format_float15(sp_parse("13/8 - 9*pi^-2"))
    assert v == "0.713109347218960"


def test_figures_deterministic_and_sane():
    for which, kwargs in [
        ("fvec_fig3", dict(ns=[40])),
        ("quermass_fig4", dict(ns=[20])),
        ("intvol_fig5", dict(ns=[20])),
        ("statdim_fig6", dict()),
        ("isect_fig8", dict()),
    ]:
        a = figure_csv(which, **kwargs)
        b = figure_csv(which, **kwargs)
        assert a == b
        assert len(a.splitlines()) > 3


def test_fig3_unimodal_shape_at_d19():
    csv = figure_csv("fvec_fig3", ns=[80])
    vals = {}
    for line in csv.splitlines()[1:]:
        parts = line.split(",")
        if parts[1] == "W" and parts[3] == "80":
            vals[int(parts[4])] = float(parts[-2])
    seq = [vals[l] for l in sorted(vals)]
    assert all(v > 0 for v in seq)
    peak = seq.index(max(seq))
    assert all(seq[i] < seq[i + 1] for i in range(peak))
    assert all(seq[i] > seq[i + 1] for i in range(peak, len(seq) - 1))


def test_fig8_weighted_dominates_typical():
    csv = figure_csv("isect_fig8", d=5)
    typ, wt = {}, {}
    for line in csv.splitlines()[1:]:
        parts = line.split(",")
        (typ if parts[1] == "typical" else wt)[int(parts[3])] = float(parts[-1])
    assert set(typ) == set(wt)
    for n in typ:
        assert wt[n] >= typ[n], n


def run_cli(*args, env=None):
    cmd = [sys.executable, "-m", "sphtess.cli", *args]
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(cmd, capture_output=True, text=True, env=full_env, timeout=120)


def test_cli_eval():
    res = run_cli("eval", "--quantity", "f", "--flavor", "weighted", "--n", "6", "--d", "2", "--k", "2", "--l", "0")
    assert res.returncode == 0
    assert res.stdout.splitlines()[0] == "15 - 180*pi^-2 + 720*pi^-4"


def test_cli_eval_euclid():
    res = run_cli("eval", "--quantity", "euclid-v", "--flavor", "typical", "--d", "2", "--k", "2", "--l", "2", "--gamma", "1/2")
    assert res.returncode == 0
    assert res.stdout.splitlines()[0] == "4*pi^1"


def test_cli_table_exit_codes(tmp_path):
    out = tmp_path / "e2.csv"
    res = run_cli("table", "--which", "appE_d2", "--out", str(out))
    assert res.returncode == 0
    assert out.read_text().count("\n") == 37  # header + 36 rows
    res = run_cli("table", "--which", "appC_d2")
    assert res.returncode == 0  # known discrepancies exit zero...
    assert "known-discrepancy" in res.stderr  # ...with a warning
    res = run_cli("table", "--which", "nope")
    assert res.returncode == 2


def test_cli_simulate_json_and_env_seed():
    args = ["simulate", "--quantity", "v", "--flavor", "weighted", "--n", "4",
            "--d", "2", "--k", "2", "--l", "1", "--reps", "2000", "--seed", "5"]
    r1 = run_cli(*args)
    r2 = run_cli(*args)
    assert r1.returncode == 0 and r1.stdout == r2.stdout
    d = json.loads(r1.stdout)
    assert d["reps"] == 2000 and d["seed"] == 5
    r3 = run_cli(*args, env={"SPHTESS_SEED": "77"})
    assert json.loads(r3.stdout)["seed"] == 77
    assert run_cli(*args, "--threads", "2").returncode == 2  # estimates run in one thread


def test_cli_compare_and_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"reps": 2000, "seed": 12, "subspace_reps": 8}))
    res = run_cli("compare", "--quantity", "U", "--flavor", "typical", "--n", "3",
                  "--d", "2", "--k", "2", "--l", "1", "--config", str(cfg))
    assert res.returncode == 0
    d = json.loads(res.stdout)
    assert d["reps"] == 2000 and d["verdict"] == "pass"
    assert d["exact"] == "3/8"


def test_cli_kappa_at_large_beta():
    res = run_cli("compare", "--quantity", "f", "--flavor", "typical", "--n", "4", "--d", "2",
                  "--k", "2", "--l", "0", "--kappa", "pole:1e8")
    assert res.returncode == 0 and json.loads(res.stdout)["verdict"] == "pass"
    # cutters that coincide in floating point are redrawn until the rounds
    # run out, and end in an error line, not a traceback
    res = run_cli("simulate", "--quantity", "f", "--flavor", "typical", "--n", "5", "--d", "3",
                  "--k", "1", "--l", "0", "--kappa", "pole:1e20", "--reps", "200")
    assert res.returncode == 2
    assert res.stderr.startswith("error: ") and "redraw rounds" in res.stderr
    # a hypersphere that nearly contains the subsphere in one draw: that draw is redrawn
    res = run_cli("simulate", "--quantity", "f", "--flavor", "typical", "--n", "5", "--d", "3",
                  "--k", "1", "--l", "0", "--kappa", "pole:1e15", "--reps", "200")
    assert res.returncode == 0
    assert json.loads(res.stdout)["degenerate_redraws"] == 1
    # every draw grazes: the redraw rounds run out instead of looping forever
    res = run_cli("simulate", "--quantity", "f", "--flavor", "typical", "--n", "4", "--d", "2",
                  "--k", "2", "--l", "0", "--kappa", "pole:1e20", "--reps", "200")
    assert res.returncode == 2
    assert res.stderr.startswith("error: ") and "redraw rounds" in res.stderr


def test_cli_warns_on_high_redraw_rate():
    for command in ("simulate", "compare"):
        res = run_cli(command, "--quantity", "f", "--flavor", "typical", "--n", "4", "--d", "2",
                      "--k", "2", "--l", "0", "--kappa", "pole:1e17", "--reps", "200")
        assert res.returncode == 0
        assert json.loads(res.stdout)["degenerate_redraws"] == 624
        assert res.stderr.startswith("warning: 624 degenerate redraws")
    res = run_cli("simulate", "--quantity", "f", "--flavor", "typical", "--n", "4", "--d", "2",
                  "--k", "2", "--l", "0", "--reps", "200")
    assert res.returncode == 0 and res.stderr == ""


def test_cli_limit():
    res = run_cli("limit", "--d", "2", "--k", "2", "--l", "2", "--flavor", "typical",
                  "--n", "25,50,100,200")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert lines[0].startswith("n,")
    rels = [float(line.split(",")[-1]) for line in lines[1:]]
    assert rels == sorted(rels, reverse=True) and rels[-1] < 0.05


def test_cli_figure_and_coeffs(tmp_path):
    out = tmp_path / "fig.csv"
    res = run_cli("figure", "--which", "statdim_fig6", "--out", str(out))
    assert res.returncode == 0 and out.exists()
    res = run_cli("coeffs", "--max-m", "4")
    assert res.returncode == 0
    assert res.stdout.splitlines()[0] == "family,m,l,exact,float64"
    assert any(line.startswith('A,2,1,"1/2*pi^1"') for line in res.stdout.splitlines())
