"""Plot-data generation for the paper-style figures (CSV only, no rendering).

All columns are exact-engine evaluations, so regenerating a figure CSV is
deterministic byte-for-byte.
"""

from __future__ import annotations

from typing import List, Optional

from .exactnum import sp_format
from .moments import (
    ef_typical,
    ef_weighted,
    isect_prob_typical,
    isect_prob_weighted,
    statdim,
    u_typical,
    u_weighted,
    v_typical,
    v_weighted,
)
from .tables import format_float15

FIGURES = ("fvec_fig3", "quermass_fig4", "intvol_fig5", "statdim_fig6", "isect_fig8")


def figure_csv(
    which: str,
    d: Optional[int] = None,
    k: Optional[int] = None,
    ns: Optional[List[int]] = None,
) -> str:
    if d is not None and d < 1:
        raise ValueError(f"figure {which!r} needs d >= 1, got d={d}")
    if k is not None and which != "statdim_fig6":
        raise ValueError(f"figure {which!r} does not read k; only statdim_fig6 does")
    if which == "fvec_fig3":
        d = 19 if d is None else d
        ns = ns or [40, 60, 80]
        lines = ["figure,flavor,d,n,l,exact,float64,normalized_1e7"]
        for flavor, fn in (("Z", ef_typical), ("W", ef_weighted)):
            for n in ns:
                for l in range(0, d):
                    val = fn(n, d, d, l)
                    f = format_float15(val)
                    norm = float(f) / 1e7
                    lines.append(f'{which},{flavor},{d},{n},{l},"{sp_format(val)}",{f},{norm!r}')
        return "\n".join(lines) + "\n"
    if which in ("quermass_fig4", "intvol_fig5"):
        d = 19 if d is None else d
        ns = ns or [20, 40, 60]
        pair = (
            (("Z", u_typical), ("W", u_weighted))
            if which == "quermass_fig4"
            else (("Z", v_typical), ("W", v_weighted))
        )
        lines = ["figure,flavor,d,n,l,exact,float64"]
        for flavor, fn in pair:
            for n in ns:
                for l in range(0, d + 1):
                    val = fn(n, d, d, l)
                    lines.append(f'{which},{flavor},{d},{n},{l},"{sp_format(val)}",{format_float15(val)}')
        return "\n".join(lines) + "\n"
    if which == "statdim_fig6":
        d = 2 if d is None else d
        k = k if k is not None else d
        ns = ns or list(range(d + 1, d + 21))
        lines = ["figure,flavor,d,k,n,exact,float64"]
        for flavor in ("typical", "weighted"):
            for n in ns:
                val = statdim(flavor, n, d, k)
                lines.append(f'{which},{flavor},{d},{k},{n},"{sp_format(val)}",{format_float15(val)}')
        return "\n".join(lines) + "\n"
    if which == "isect_fig8":
        d = 5 if d is None else d
        ns = ns or list(range(d + 1, d + 21))
        lines = ["figure,flavor,d,n,exact,float64"]
        for flavor, fn in (("typical", isect_prob_typical), ("weighted", isect_prob_weighted)):
            for n in ns:
                val = fn(n, n, d)
                lines.append(f'{which},{flavor},{d},{n},"{sp_format(val)}",{format_float15(val)}')
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown figure {which!r}; choose from {FIGURES}")
