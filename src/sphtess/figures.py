"""Plot-data generation for the paper-style figures (CSV only, no rendering).

Each figure is one entry of ``LAYOUTS`` and every value one
``evaluate_query`` call, so regenerating a figure CSV is deterministic
byte-for-byte.
"""

from __future__ import annotations

from typing import List, Optional

from .exactnum import sp_format
from .moments import FLAVORS, QUANTITIES, ExpectationQuery, evaluate_query, l_values
from .tables import format_float15

# Per figure: its quantity, default d, the labels of the typical and the
# weighted rows, its default ns at d and its CSV header.  A row runs over
# every l the quantity reads at k = d; isect takes m = n.  Only a figure
# whose header names k reads a k of its own (default d).
LAYOUTS = {
    "fvec_fig3": ("f", 19, ("Z", "W"), lambda d: [40, 60, 80], "figure,flavor,d,n,l,exact,float64,normalized_1e7"),
    "quermass_fig4": ("U", 19, ("Z", "W"), lambda d: [20, 40, 60], "figure,flavor,d,n,l,exact,float64"),
    "intvol_fig5": ("v", 19, ("Z", "W"), lambda d: [20, 40, 60], "figure,flavor,d,n,l,exact,float64"),
    "statdim_fig6": ("statdim", 2, FLAVORS, lambda d: range(d + 1, d + 21), "figure,flavor,d,k,n,exact,float64"),
    "isect_fig8": ("isect", 5, FLAVORS, lambda d: range(d + 1, d + 21), "figure,flavor,d,n,exact,float64"),
}
FIGURES = tuple(LAYOUTS)


def figure_csv(
    which: str,
    d: Optional[int] = None,
    k: Optional[int] = None,
    ns: Optional[List[int]] = None,
) -> str:
    if which not in LAYOUTS:
        raise ValueError(f"unknown figure {which!r}; choose from {FIGURES}")
    quantity, default_d, labels, default_ns, header = LAYOUTS[which]
    columns = header.split(",")
    if d is not None and d < 1:
        raise ValueError(f"figure {which!r} needs d >= 1, got d={d}")
    if k is not None and "k" not in columns:
        raise ValueError(f"figure {which!r} does not read k; only statdim_fig6 does")
    d = default_d if d is None else d
    k = d if k is None else k
    reads = QUANTITIES[quantity]
    lines = [header]
    for flavor, label in zip(FLAVORS, labels):
        for n in ns or default_ns(d):
            for l in l_values(quantity, k) if "l" in reads else [None]:
                val = evaluate_query(ExpectationQuery(quantity, flavor, n, d, k, l, n if "m" in reads else None))
                f = format_float15(val)
                row = dict(figure=which, flavor=label, d=d, k=k, n=n, l=l, exact=f'"{sp_format(val)}"', float64=f)
                row["normalized_1e7"] = repr(float(f) / 1e7)
                lines.append(",".join(str(row[c]) for c in columns))
    return "\n".join(lines) + "\n"
