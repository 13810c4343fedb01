"""Appendix-table reproduction, figure CSVs, and the CLI surface."""

import hashlib
import json
import os
import subprocess
import sys
from decimal import ROUND_HALF_EVEN, localcontext

import pytest

from sphtess import appendix_data as app
from sphtess import cli, mckernels
from sphtess.combinat import coeff_A, coeff_B
from sphtess.exactnum import sp_eval, sp_format, sp_parse
from sphtess.figures import FIGURES, figure_csv
from sphtess.moments import ef_typical, ef_weighted
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


# sha256 of the CSV text of every table at its default range and at an
# extended one, and of every figure at its defaults and at non-default
# arguments; pins each layout's columns, row order and flavor labels.
EXTENDED_N_RANGE = (4, 12)
TABLE_SHA256 = {
    ("appA_d2", None): "30fb56e1c0361717b8e61a552784178ad71e1883f263532b185649a6f7e41022",
    ("appA_d2", EXTENDED_N_RANGE): "852a195efb51abc2c759b4cab4e3a87889c5b9f71da4eb68f6c79d206489e0bf",
    ("appA_d3", None): "069d76756efca029c4f84a438376c9686b17e5bd678897f8b5f073aacf81a7f9",
    ("appA_d3", EXTENDED_N_RANGE): "95ae40bfc6d90579142709d9055421aaabbfd8dcf3e49fd5f8c1a3802214d392",
    ("appB_d2", None): "a2b6055760ef05bd6a21c8ce86a26a218be68ad63a96a917426fb2e4ecc5d217",
    ("appB_d2", EXTENDED_N_RANGE): "07a5607f80482df8cf9fbac3322943ce96f63c2d5a6e38598c46663b087e250c",
    ("appB_d3", None): "11db8a07a1ce009c2fc360042896163628bf5b8499cd4e17abcae2a8192fd862",
    ("appB_d3", EXTENDED_N_RANGE): "ed8f63c75502f524dede3335fce7d39b2901e0953e74b4eed726a6763cf6df87",
    ("appC_d2", None): "85e8d6ecc4d902085bb4d0aca8f592beb29741cf4796794ea2be51642ba15c83",
    ("appC_d2", EXTENDED_N_RANGE): "d4f203a2cc1eba75e230d7bc2b68f33fcdc15e74a57b9fb1859364d6fd536234",
    ("appC_d3", None): "5c8bb364dbfe59963d5f978e917509bacd3c5073a4551649cd16318e2d3f9e1e",
    ("appC_d3", EXTENDED_N_RANGE): "0720b735702d32e8b9fc67a69f09919f8f3e73884db732526ac8fdf3da4a4c5c",
    ("appD", None): "fde3b940e8abe8839129c6e030c60c07114de41387202e74d1773cb9124bb6df",
    ("appD", EXTENDED_N_RANGE): "51c5c31fccc2f76447a44a6dcd43dc867c02f13dffa5d56d31e6f838b0acca48",
    ("appE_d2", None): "fdca602192030c66c960a495f35f9555a84ab35ed41a608e8120857a92783cd7",
    ("appE_d2", EXTENDED_N_RANGE): "ed69889c2de4b5c83d13f5a12313383328bdc62ac059a14936864e497d216869",
    ("appE_d3", None): "2cb06cb1013067b50e6c68725ab24aa342969f549f4cde5aee0baac659328d43",
    ("appE_d3", EXTENDED_N_RANGE): "9601458da0c0c8d979911185e40367b30875a9cf6e1e00b8c041ff2920ab2baf",
}
FIGURE_SHA256 = [
    ("fvec_fig3", {}, "c962b2cf2f56f636c1685f813dab78be0a7e360edb4e468dfb907db393a69eb1"),
    ("quermass_fig4", {}, "dbf3e6d525de64ee6cd1f148a6331dac965b91fe31841da1379f4f8acde98ee3"),
    ("intvol_fig5", {}, "9d72aed2f682915d6aeeae0a0f8b9dfc0cd92953560f1711fc277382ac1381ea"),
    ("statdim_fig6", {}, "87db7156db9c810036582cf4f75d3f7acb2bb28bc67efcb4808a58dd24f719b9"),
    ("isect_fig8", {}, "3f49808debd96bdabda16267185f41557be2ee08242b13b4b616dfeae7f066e3"),
    ("statdim_fig6", dict(d=3, k=1), "e6e851ae7348b8771f6d8dd77d0d9a50d58ee526daa2c0ef03980ac65373c769"),
    ("fvec_fig3", dict(d=4, ns=[6, 9]), "690f4d80c516af4af9ad2a167a07958ba3cd9562655fd84579c0fdc7b43949e7"),
    ("quermass_fig4", dict(d=4, ns=[6, 9]), "64c23bbd0282fa570d70e4e8a9f12a58e51eb8e5393620f0aa644c97271994b5"),
    ("intvol_fig5", dict(d=4, ns=[6, 9]), "aefdc7934303c00453aaded69a061dc0d4271185f90b347cc2a68ebdf212b8c2"),
]


def test_table_and_figure_csv_bytes_are_pinned():
    sha = lambda text: hashlib.sha256(text.encode()).hexdigest()
    assert {spec[0] for spec in TABLE_SHA256} == set(TABLE_NAMES)
    assert {which for which, _, _ in FIGURE_SHA256} == set(FIGURES)
    for (which, n_range), digest in TABLE_SHA256.items():
        assert sha(rows_to_csv(render_table(TableSpec(which, n_range)))) == digest, (which, n_range)
    for which, kwargs, digest in FIGURE_SHA256:
        assert sha(figure_csv(which, **kwargs)) == digest, (which, kwargs)


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


def test_cli_eval_deep_rows():
    # B{1001, 2} and B{1002, 3}: far deeper than the Fig. 3 rows
    res = run_cli("eval", "--quantity", "v", "--flavor", "weighted", "--n", "1000", "--d", "2", "--k", "2", "--l", "1")
    assert res.returncode == 0, res.stderr
    # a value whose numerators run past the interpreter's 4300-digit int-to-str limit
    res = run_cli("eval", "--quantity", "f", "--flavor", "weighted", "--n", "400", "--d", "30", "--k", "30", "--l", "0")
    assert res.returncode == 0, res.stderr
    exact = res.stdout.splitlines()[0]
    assert sp_parse(exact) == ef_weighted(400, 30, 30, 0)
    assert sp_format(sp_parse(exact)) == exact


def test_cli_eval_euclid():
    res = run_cli("eval", "--quantity", "euclid-v", "--flavor", "typical", "--d", "2", "--k", "2", "--l", "2", "--gamma", "1/2")
    assert res.returncode == 0
    assert res.stdout.splitlines()[0] == "4*pi^1"
    res = run_cli("eval", "--quantity", "euclid-f", "--flavor", "weighted", "--d", "2", "--k", "2", "--l", "1")
    assert res.returncode == 0
    assert res.stdout.splitlines()[0] == "1/2*pi^2"


SIM_F = ("simulate", "--quantity", "f", "--n", "4", "--d", "2", "--k", "2", "--l", "0", "--reps", "200")


@pytest.mark.parametrize(
    "args,env,needle",
    [
        (("eval", "--quantity", "euclid-v", "--d", "2", "--k", "1", "--l", "0", "--gamma", "1/0"), None, "gamma"),
        (("eval", "--quantity", "euclid-v", "--d", "2", "--k", "1", "--l", "0", "--gamma", "abc"), None, "--gamma"),
        (SIM_F + ("--kappa", "pole:nan"), None, "beta"),
        (SIM_F + ("--kappa", "pole:inf"), None, "beta"),
        (SIM_F + ("--kappa", "pole:abc"), None, "--kappa"),
        (SIM_F, {"SPHTESS_SEED": "x"}, "SPHTESS_SEED"),
        # Philox is keyed by the seed's low 64 bits: -1 would alias 2**64 - 1
        (SIM_F + ("--flavor", "weighted", "--seed", "-1"), None, "seed must be in 0 <= seed < 2**64"),
        (SIM_F + ("--flavor", "weighted"), {"SPHTESS_SEED": "-1"}, "seed must be in 0 <= seed < 2**64"),
        (("eval", "--quantity", "euclid-v", "--d", "0", "--k", "0", "--l", "0"), None, "d >= 1"),
        (("eval", "--quantity", "euclid-v", "--d", "0", "--k", "0", "--l", "0", "--gamma", "1"), None, "d >= 1"),
        (("limit", "--d", "0", "--k", "0", "--l", "0"), None, "d >= 1"),
        (
            ("simulate", "--quantity", "f", "--flavor", "typical", "--n", "3", "--d", "4", "--k", "4", "--l", "1",
             "--reps", "200"),
            None,
            "typical faces needs n >= d+1",
        ),
        (
            ("simulate", "--quantity", "f", "--flavor", "typical", "--n", "64", "--d", "1", "--k", "1", "--l", "0",
             "--reps", "100"),
            None,
            "m <= 63",
        ),
    ],
    ids=["gamma-zero-denominator", "gamma-not-a-number", "beta-nan", "beta-inf", "beta-not-a-number", "env-seed-not-a-number",
         "seed-negative", "env-seed-negative", "euclid-v-d0", "euclid-v-d0-gamma", "limit-d0",
         "typical-cell-not-pointed", "typical-cell-past-mask-width"],
)
def test_cli_bad_numbers_are_error_lines(args, env, needle):
    # a bad number is an error line that names its source, never a
    # traceback or an endless sampling loop
    res = run_cli(*args, env=env)
    assert res.returncode == 2
    assert res.stderr.startswith("error: ") and "Traceback" not in res.stderr
    assert needle in res.stderr


def test_cli_seeds_at_both_ends_of_the_range_run():
    outs = []
    for seed in ("0", str(2**64 - 1)):
        res = run_cli(*SIM_F, "--flavor", "weighted", "--seed", seed)
        assert res.returncode == 0, res.stderr
        outs.append(json.loads(res.stdout))
    assert [out["seed"] for out in outs] == [0, 2**64 - 1]


@pytest.mark.parametrize(
    "args",
    [
        ("figure", "--which", "statdim_fig6", "--d", "0", "--n", "3"),
        ("figure", "--which", "isect_fig8", "--d", "0", "--n", "6"),
        ("eval", "--quantity", "euclid-f", "--flavor", "typical", "--d", "2", "--k", "2", "--l", "1"),
        ("eval", "--quantity", "euclid-f", "--d", "2", "--k", "2", "--l", "1"),
        ("eval", "--quantity", "euclid-f", "--flavor", "weighted", "--d", "2", "--k", "5", "--l", "1"),
        ("table", "--which", "appA_d2", "--n-min", "5", "--n-max", "3"),
        ("figure", "--which", "quermass_fig4", "--d", "2", "--n", "4", "--k", "7"),
        ("coeffs", "--max-m", "-1"),
    ],
    ids=["fig6-d0", "fig8-d0", "euclid-f-typical", "euclid-f-default-flavor", "euclid-f-k-past-d",
         "table-empty-n-range", "figure-k-unread", "coeffs-negative-max-m"],
)
def test_cli_inputs_it_would_ignore_are_error_lines(args):
    # each of these once printed output for other inputs than asked, with exit 0
    res = run_cli(*args)
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr.startswith("error: ") and "Traceback" not in res.stderr


LIMIT = ("limit", "--d", "2", "--k", "2", "--l", "1", "--flavor", "weighted", "--n")
FIG6 = ("figure", "--which", "statdim_fig6", "--n")


@pytest.mark.parametrize(
    "args,needle",
    [(LIMIT + ("25,2",), "n >= d+1"), (LIMIT + ("40,x",), "--n"), (LIMIT + ("25,,50",), "--n"),
     (FIG6 + ("40,x",), "--n"), (FIG6 + ("25,,50",), "--n"), (FIG6 + ("",), "--n")],
    ids=["limit-fails-at-second-n", "limit-n-letter", "limit-n-empty-item", "figure-n-letter",
         "figure-n-empty-item", "figure-n-empty"],
)
def test_cli_bad_n_lists_print_nothing(capsys, args, needle):
    # limit once printed the rows before the failing n; a malformed --n list
    # once gave an error that did not name the option, or the default figure
    assert cli.main(list(args)) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and needle in err


READS = {
    "f": ("--n", "5", "--d", "2", "--k", "2", "--l", "1"),
    "statdim": ("--n", "5", "--d", "2", "--k", "2"),
    "hk": ("--flavor", "weighted", "--n", "5", "--d", "2", "--k", "2"),
    "isect": ("--n", "4", "--m", "4", "--d", "2"),
    "euclid-v": ("--d", "2", "--k", "2", "--l", "2"),
    "euclid-f": ("--flavor", "weighted", "--d", "2", "--k", "2", "--l", "1"),
}
UNREAD = [("f", "--m", "9"), ("statdim", "--l", "1"), ("hk", "--l", "0"), ("isect", "--k", "1"),
          ("isect", "--l", "0")]
UNREAD_CASES = (
    [("eval", *case) for case in UNREAD]
    + [("eval", "f", "--gamma", "1/2"), ("eval", "euclid-v", "--n", "4"), ("eval", "euclid-v", "--m", "4"),
       ("eval", "euclid-f", "--n", "4"), ("eval", "euclid-f", "--m", "4"), ("eval", "euclid-f", "--gamma", "1/2")]
    + [(command, *case) for command in ("simulate", "compare")
       for case in UNREAD + [("isect", "--kappa", "pole:50")]]
)


@pytest.mark.parametrize("command,quantity,option,value", UNREAD_CASES,
                         ids=["-".join(case[:3]).replace("--", "") for case in UNREAD_CASES])
def test_cli_unread_options_are_error_lines(capsys, command, quantity, option, value):
    # every option is read or rejected: none is silently ignored
    args = [command, "--quantity", quantity, *READS[quantity]] + (["--reps", "200"] if command != "eval" else [])
    assert cli.main(args) == 0
    capsys.readouterr()
    assert cli.main(args + [option, value]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and option.lstrip("-") in err


def test_cli_csv_is_a_compare_option():
    args = ("--quantity", "U", "--n", "3", "--d", "2", "--k", "2", "--l", "1", "--reps", "200", "--csv")
    res = run_cli("simulate", *args)
    assert res.returncode == 2 and "unrecognized arguments: --csv" in res.stderr
    res = run_cli("compare", *args)
    assert res.returncode == 0
    header, row = res.stdout.splitlines()
    assert header.startswith("quantity,flavor,n,d,k,l,m,exact,") and row.startswith("U,typical,3,2,2,1,")


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
    # a hypersphere that nearly contains the subsphere in two draws: those draws are redrawn
    res = run_cli("simulate", "--quantity", "f", "--flavor", "typical", "--n", "5", "--d", "3",
                  "--k", "1", "--l", "0", "--kappa", "pole:1e15", "--reps", "400")
    assert res.returncode == 0
    assert json.loads(res.stdout)["degenerate_redraws"] == 2
    # every draw grazes: the redraw rounds run out instead of looping forever
    res = run_cli("simulate", "--quantity", "f", "--flavor", "typical", "--n", "4", "--d", "2",
                  "--k", "2", "--l", "0", "--kappa", "pole:1e20", "--reps", "200")
    assert res.returncode == 2
    assert res.stderr.startswith("error: ") and "redraw rounds" in res.stderr


@pytest.mark.parametrize("message", ["Unable to allocate 11.7 GiB for an array with shape (1024, 1313400, 4)", ""])
def test_cli_out_of_memory_is_an_error_line(monkeypatch, capsys, message):
    # a pass too large for memory ends in an error line, not a traceback;
    # the kernel raises as numpy does, with no real allocation
    def too_large(*args, **kwargs):
        raise MemoryError(message) if message else MemoryError()

    monkeypatch.setattr(mckernels, "_extreme_rays", too_large)
    code = cli.main(["simulate", "--quantity", "f", "--flavor", "weighted", "--n", "200", "--d", "3",
                     "--k", "3", "--l", "0", "--reps", "100", "--seed", "1"])
    assert code == 2
    assert capsys.readouterr() == ("", "error: out of memory" + (f": {message}" if message else "") + "\n")


def test_cli_sample_assertion_is_an_error_line(monkeypatch, capsys):
    # a failed per-sample assertion is an error line, not a traceback
    def broken(*args, **kwargs):
        raise mckernels.SampleAssertionError("Gauss-Bonnet: v_3 or 1/2 - v_2 below -1e-12")

    monkeypatch.setattr(mckernels, "ivol_vector", broken)
    code = cli.main(["simulate", "--quantity", "statdim", "--flavor", "typical", "--n", "4", "--d", "2",
                     "--k", "2", "--reps", "200"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: per-sample assertion failed: Gauss-Bonnet: v_3 or 1/2 - v_2 below -1e-12\n"
    )
    # nearly parallel pole-concentrated normals, which broke the Moreau
    # assertion of the cone projections statdim once used at dim >= 5: the
    # samplers redraw the grazing draws (see KappaFamily)
    res = run_cli("simulate", "--quantity", "statdim", "--flavor", "typical", "--n", "5", "--d", "4",
                  "--k", "4", "--kappa", "pole:1e8", "--reps", "1100", "--seed", "99")
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["degenerate_redraws"] == 206


@pytest.mark.parametrize(
    "args",
    [
        ("--quantity", "U", "--n", "4", "--d", "2", "--k", "2"),
        ("--quantity", "v", "--n", "4", "--d", "2", "--k", "2", "--l", "5"),
        ("--quantity", "f", "--n", "4", "--d", "2", "--k", "2"),
        ("--quantity", "f", "--n", "4", "--d", "2", "--k", "2", "--l", "2"),
    ],
    ids=["U-no-l", "v-l-too-large", "f-no-l", "f-l-equals-k"],
)
def test_cli_simulate_rejects_bad_l(args):
    res = run_cli("simulate", *args, "--reps", "200")
    assert res.returncode == 2
    assert res.stderr.startswith("error: quantity ") and "Traceback" not in res.stderr


@pytest.mark.parametrize(
    "config",
    [{"rep": 300, "subspace_rep": 2}, {"reps": "300"}, {"seed": 1.5}, {"subspace_reps": True},
     {"kappa": 4}, {"threads": 1}, {"z_fail": 3.0}, [300]],
    ids=["misspelled", "string-reps", "float-seed", "bool-subspace-reps", "number-kappa", "threads",
         "z-fail", "not-an-object"],
)
def test_cli_config_rejects_unknown_keys_and_types(tmp_path, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    res = run_cli("simulate", "--quantity", "U", "--n", "3", "--d", "2", "--k", "2", "--l", "1",
                  "--config", str(path))
    assert res.returncode == 2
    assert res.stderr.startswith("error: config ") and "Traceback" not in res.stderr


def test_cli_config_missing_file(tmp_path):
    res = run_cli("simulate", "--quantity", "U", "--n", "3", "--d", "2", "--k", "2", "--l", "1",
                  "--config", str(tmp_path / "missing.json"))
    assert res.returncode == 2
    assert res.stderr.startswith("error: config file ") and "Traceback" not in res.stderr


@pytest.mark.parametrize(
    "args",
    [("table", "--which", "appE_d2"), ("figure", "--which", "statdim_fig6"), ("coeffs", "--max-m", "2")],
    ids=["table", "figure", "coeffs"],
)
def test_cli_unwritable_out_is_an_error_line(tmp_path, args):
    res = run_cli(*args, "--out", str(tmp_path / "missing" / "x.csv"))
    assert res.returncode == 2
    assert res.stderr.startswith("error: cannot write ") and "Traceback" not in res.stderr


def test_cli_warns_on_high_redraw_rate():
    for command in ("simulate", "compare"):
        res = run_cli(command, "--quantity", "f", "--flavor", "typical", "--n", "4", "--d", "2",
                      "--k", "2", "--l", "0", "--kappa", "pole:1e17", "--reps", "200")
        assert res.returncode == 0
        assert json.loads(res.stdout)["degenerate_redraws"] == 596
        assert res.stderr.startswith("warning: 596 degenerate redraws")
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


def test_cli_coeffs_print_correctly_rounded_floats(capsys):
    # each float64 column is sp_eval(x, 120) rounded to 15 half-even digits, also
    # for the B{m, l} far below 1 (m >= 41) whose terms cancel some 30 digits
    assert cli.main(["coeffs", "--max-m", "60"]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    assert len(lines) == sum(m + 2 for m in range(61)) + sum(m + 1 for m in range(1, 61))
    for line in lines:
        family, m, l = line.split(",")[:3]
        value = (coeff_A if family == "A" else coeff_B)(int(m), int(l))
        with localcontext() as ctx:
            ctx.prec = 15
            ctx.rounding = ROUND_HALF_EVEN
            want = str(+sp_eval(value, 120))
        assert line.rsplit(",", 1)[1] == want, line[:12]
