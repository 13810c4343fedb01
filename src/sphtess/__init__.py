"""Exact-arithmetic engine and Monte Carlo simulator for spherical faces of
random great-hypersphere tessellations."""

from .exactnum import SqrtPiPoly, sp_eval, sp_format, sp_parse
from .moments import ExpectationQuery, EuclidQuery, evaluate_query

__all__ = [
    "SqrtPiPoly",
    "sp_eval",
    "sp_format",
    "sp_parse",
    "ExpectationQuery",
    "EuclidQuery",
    "evaluate_query",
]
__version__ = "0.1.0"
