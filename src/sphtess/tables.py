"""Reproduction of the printed appendix tables with symbolic match verdicts.

Each row carries the exact engine value, a 15-significant-digit float, the
printed golden (when one exists) and a verdict: ``match`` for symbolic
equality, ``known-discrepancy`` for the documented erroneous cells (both
values are shown), ``fail`` for anything else, and ``computed`` when the
requested range extends beyond the printed table.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, localcontext
from typing import List, Optional, Tuple

from . import appendix_data as app
from .exactnum import SqrtPiPoly, sp_eval, sp_format, sp_parse
from .moments import (
    ef_typical,
    ef_weighted,
    isect_prob_weighted,
    statdim,
    u_typical,
    u_weighted,
    v_typical,
    v_weighted,
)

__all__ = ["TableSpec", "TableRow", "render_table", "rows_to_csv", "format_float15", "TABLE_NAMES"]

TABLE_NAMES = (
    "appA_d2",
    "appA_d3",
    "appB_d2",
    "appB_d3",
    "appC_d2",
    "appC_d3",
    "appD",
    "appE_d2",
    "appE_d3",
)


@dataclass(frozen=True)
class TableSpec:
    which: str
    n_range: Optional[Tuple[int, int]] = None

    def validate(self) -> None:
        if self.which not in TABLE_NAMES:
            raise ValueError(f"unknown table {self.which!r}; choose from {TABLE_NAMES}")
        if self.n_range is not None and self.n_range[0] > self.n_range[1]:
            raise ValueError(f"empty n range: n_min {self.n_range[0]} > n_max {self.n_range[1]}")


@dataclass
class TableRow:
    table: str
    quantity: str
    flavor: str
    d: int
    n: int
    m: Optional[int]
    l: Optional[int]
    exact: str
    float64: str
    printed: Optional[str]
    verdict: str


def format_float15(x: SqrtPiPoly) -> str:
    """15 significant digits, round-half-even; deterministic across platforms."""
    d = sp_eval(x, 25)
    with localcontext() as ctx:
        ctx.prec = 15
        ctx.rounding = ROUND_HALF_EVEN
        return str(+d)


def _verdict(table: str, key, exact: SqrtPiPoly, printed: Optional[str]) -> str:
    if printed is None:
        return "computed"
    if sp_parse(printed) == exact:
        return "match"
    if (table, key) in app.KNOWN_DISCREPANCIES:
        return "known-discrepancy"
    return "fail"


def _row(table, quantity, flavor, d, n, m, l, value, printed) -> TableRow:
    key = ((flavor, l, n) if m is None else (n, m))
    return TableRow(
        table=table,
        quantity=quantity,
        flavor=flavor,
        d=d,
        n=n,
        m=m,
        l=l,
        exact=sp_format(value),
        float64=format_float15(value),
        printed=printed,
        verdict=_verdict(table, key, value, printed),
    )


def _rng(spec: TableSpec, default: Tuple[int, int]) -> range:
    lo, hi = spec.n_range or default
    return range(lo, hi + 1)


def render_table(spec: TableSpec) -> List[TableRow]:
    spec.validate()
    which = spec.which
    rows: List[TableRow] = []
    if which == "appA_d2":
        for n in _rng(spec, (3, 10)):
            printed = app.APP_A_D2_W.get(n)
            rows.append(_row(which, "f", "W", 2, n, None, 0, ef_weighted(n, 2, 2, 0), printed))
        for n in _rng(spec, (3, 10)):
            printed = app.APP_A_D2_Z_PRINTED.get(n)
            rows.append(_row(which, "f", "Z", 2, n, None, 0, ef_typical(n, 2, 2, 0), printed))
    elif which == "appA_d3":
        for flavor, fn, data in (
            ("W", ef_weighted, app.__dict__),
            ("Z", ef_typical, app.__dict__),
        ):
            for l in (0, 1, 2):
                table = data[f"APP_A_D3_{flavor}_l{l}"]
                for n in _rng(spec, (4, 10)):
                    rows.append(_row(which, "f", flavor, 3, n, None, l, fn(n, 3, 3, l), table.get(n)))
    elif which in ("appB_d2", "appB_d3"):
        d = 2 if which.endswith("d2") else 3
        default = (3, 9) if d == 2 else (4, 9)
        for flavor, fn in (("W", u_weighted), ("Z", u_typical)):
            for l in range(1, d + 1):
                table = getattr(app, f"APP_B_D{d}_{flavor}{l}")
                for n in _rng(spec, default):
                    rows.append(_row(which, "U", flavor, d, n, None, l, fn(n, d, d, l), table.get(n)))
    elif which in ("appC_d2", "appC_d3"):
        d = 2 if which.endswith("d2") else 3
        default = (3, 9) if d == 2 else (4, 9)
        for flavor, fn in (("W", v_weighted), ("Z", v_typical)):
            for l in range(0, d + 1):
                table = getattr(app, f"APP_C_D{d}_{flavor}{l}")
                for n in _rng(spec, default):
                    rows.append(_row(which, "v", flavor, d, n, None, l, fn(n, d, d, l), table.get(n)))
    elif which == "appD":
        for d, default in ((2, (3, 10)), (3, (4, 10))):
            for flavor, flav_name in (("W", "weighted"), ("Z", "typical")):
                table = getattr(app, f"APP_D_D{d}_{flavor}")
                for n in _rng(spec, default):
                    rows.append(
                        _row(which, "statdim", flavor, d, n, None, None, statdim(flav_name, n, d, d), table.get(n))
                    )
    elif which in ("appE_d2", "appE_d3"):
        d = 2 if which.endswith("d2") else 3
        default = (3, 8) if d == 2 else (4, 8)
        table = getattr(app, f"APP_E_D{d}")
        for n in _rng(spec, default):
            for m in _rng(spec, default):
                rows.append(
                    _row(which, "isect", "W", d, n, m, None, isect_prob_weighted(n, m, d), table.get((n, m)))
                )
    return rows


def rows_to_csv(rows: List[TableRow]) -> str:
    out = ["table,quantity,flavor,d,n,m,l,exact,float64,printed,verdict"]
    for r in rows:
        printed = "" if r.printed is None else r.printed
        m = "" if r.m is None else str(r.m)
        l = "" if r.l is None else str(r.l)
        out.append(
            f'{r.table},{r.quantity},{r.flavor},{r.d},{r.n},{m},{l},"{r.exact}","{r.float64}","{printed}",{r.verdict}'
        )
    return "\n".join(out) + "\n"
