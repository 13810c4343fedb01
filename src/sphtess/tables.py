"""Reproduction of the printed appendix tables with symbolic match verdicts.

Each row carries the exact engine value, a 15-significant-digit float, the
printed golden (when one exists) and a verdict: ``match`` for symbolic
equality, ``known-discrepancy`` for the documented erroneous cells (both
values are shown), ``fail`` for anything else, and ``computed`` when the
requested range extends beyond the printed table.

Each table is one entry of ``LAYOUTS`` (its quantity, and per block its d,
default n range and printed values per flavor and l), rendered by one loop
in which every value is one ``evaluate_query`` call.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, localcontext
from typing import List, Optional, Tuple

from . import appendix_data as app
from .exactnum import SqrtPiPoly, sp_eval, sp_format, sp_parse
from .moments import QUANTITIES, ExpectationQuery, evaluate_query

__all__ = ["TableSpec", "TableRow", "render_table", "rows_to_csv", "format_float15", "TABLE_NAMES"]

FLAVOR_NAMES = {"W": "weighted", "Z": "typical"}


def _printed(name: str, ls) -> dict:
    """{(flavor, l): the printed dict ``name`` names for it}, W before Z."""
    return {(f, l): getattr(app, name.format(f=f, l=l)) for f in "WZ" for l in ls}


# Per table, its quantity and its blocks: each block's d (= k), default n
# range and, in row order, the printed dict of each (flavor, l), keyed by n,
# or by (n, m) for isect, which runs over the n x m grid of the range.
LAYOUTS = {
    "appA_d2": ("f", [(2, (3, 10), {("W", 0): app.APP_A_D2_W, ("Z", 0): app.APP_A_D2_Z_PRINTED})]),
    "appA_d3": ("f", [(3, (4, 10), _printed("APP_A_D3_{f}_l{l}", range(3)))]),
    "appB_d2": ("U", [(2, (3, 9), _printed("APP_B_D2_{f}{l}", range(1, 3)))]),
    "appB_d3": ("U", [(3, (4, 9), _printed("APP_B_D3_{f}{l}", range(1, 4)))]),
    "appC_d2": ("v", [(2, (3, 9), _printed("APP_C_D2_{f}{l}", range(3)))]),
    "appC_d3": ("v", [(3, (4, 9), _printed("APP_C_D3_{f}{l}", range(4)))]),
    "appD": ("statdim", [(2, (3, 10), _printed("APP_D_D2_{f}", [None])),
                         (3, (4, 10), _printed("APP_D_D3_{f}", [None]))]),
    "appE_d2": ("isect", [(2, (3, 8), {("W", None): app.APP_E_D2})]),
    "appE_d3": ("isect", [(3, (4, 8), {("W", None): app.APP_E_D3})]),
}
TABLE_NAMES = tuple(LAYOUTS)


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
    """x to 15 significant digits, rounded half-even from 25 correct ones; deterministic across platforms."""
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


def _row(table: str, flavor: str, q: ExpectationQuery, printed_cells: dict) -> TableRow:
    value = evaluate_query(q)
    printed = printed_cells.get(q.n if q.m is None else (q.n, q.m))
    key = (flavor, q.l, q.n) if q.m is None else (q.n, q.m)
    return TableRow(
        table=table, quantity=q.quantity, flavor=flavor, d=q.d, n=q.n, m=q.m, l=q.l,
        exact=sp_format(value), float64=format_float15(value), printed=printed,
        verdict=_verdict(table, key, value, printed),
    )


def render_table(spec: TableSpec) -> List[TableRow]:
    spec.validate()
    quantity, blocks = LAYOUTS[spec.which]
    rows: List[TableRow] = []
    for d, default, printed in blocks:
        lo, hi = spec.n_range or default
        ns = range(lo, hi + 1)
        for (flavor, l), printed_cells in printed.items():
            for n in ns:
                for m in ns if "m" in QUANTITIES[quantity] else [None]:
                    q = ExpectationQuery(quantity, FLAVOR_NAMES[flavor], n, d, d, l, m)
                    rows.append(_row(spec.which, flavor, q, printed_cells))
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
