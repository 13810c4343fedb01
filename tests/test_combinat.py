"""Counts, the Q polynomials, the hyperbolic series, and the A/B families."""

import math
from fractions import Fraction

import pytest

from sphtess.combinat import (
    b_closed_form,
    cells_count,
    coeff_A,
    coeff_A_dd_closed,
    coeff_B,
    coeff_B_oracle,
    faces_count,
    hyp_series,
    qpoly,
)
from sphtess.exactnum import SqrtPiPoly, sp_parse


def test_cells_count_values():
    assert cells_count(1, 2) == 2
    assert cells_count(4, 2) == 14
    assert cells_count(4, 3) == 16
    assert cells_count(0, 5) == 1  # untessellated sphere convention
    with pytest.raises(ValueError):
        cells_count(-1, 2)


def test_faces_count_values():
    assert faces_count(3, 2, 0) == 6
    assert faces_count(4, 2, 1) == 24
    for n, d in [(4, 2), (7, 3), (5, 4)]:
        assert faces_count(n, d, d) == cells_count(n, d)
    with pytest.raises(ValueError):
        faces_count(3, 2, 3)


def test_qpoly():
    one = {0: Fraction(1)}
    assert qpoly(0) == one and qpoly(1) == one
    assert qpoly(2) == {0: Fraction(1), 2: Fraction(1)}
    assert qpoly(3) == {0: Fraction(1), 2: Fraction(4)}
    assert qpoly(4) == {0: Fraction(1), 2: Fraction(10), 4: Fraction(9)}
    for m in range(13):
        assert all(type(c) is int for c in qpoly(m).values()), m


def _series_quotient(a, b):
    """Coefficients of the power series a / b by long division (b[0] != 0)."""
    q = []
    for j in range(len(a)):
        q.append((a[j] - sum(b[i] * q[j - i] for i in range(1, j + 1))) / b[0])
    return q


def test_hyp_series_coefficients():
    # independent route: tanh u = sinh u / cosh u and u coth u = cosh u / (sinh u / u)
    # as Fraction power series in u, mapped through u = pi/(2x), u^j = (pi/2)^j x^-j
    top = 42
    sinh = [Fraction(j % 2, math.factorial(j)) for j in range(top + 2)]
    cosh = [Fraction(1 - j % 2, math.factorial(j)) for j in range(top + 1)]
    tanh = _series_quotient(sinh[: top + 1], cosh)
    u_coth = _series_quotient(cosh, sinh[1:])
    for e in range(1, -42, -1):
        # x^e takes u^-e from tanh u and u^(1-e) from u coth u
        t = SqrtPiPoly.pi_power(-e, tanh[-e] / Fraction(2) ** -e) if e <= 0 else SqrtPiPoly()
        c = SqrtPiPoly.pi_power(-e, u_coth[1 - e] / Fraction(2) ** -e)
        assert hyp_series("tanh", e) == t, e
        assert hyp_series("coth", e) == c, e
    assert hyp_series("tanh", -1) == sp_parse("1/2*pi^1")
    assert hyp_series("tanh", -3) == sp_parse("-1/24*pi^3")
    assert hyp_series("coth", 1) == sp_parse("2*pi^-1")
    assert hyp_series("coth", 0).is_zero()
    assert hyp_series("coth", -1) == sp_parse("1/6*pi^1")
    with pytest.raises(ValueError):
        hyp_series("sinh", -1)


def test_coeff_A_values():
    assert coeff_A(2, 1) == sp_parse("1/2*pi^1")
    assert coeff_A(3, 1) == sp_parse("2*pi^-1 + 2/3*pi^1")
    assert coeff_A(5, 7).is_zero()
    assert coeff_A(2, 0) == sp_parse("1")
    assert coeff_A(2, 2) == sp_parse("1")
    assert coeff_A(1, 1) == sp_parse("2*pi^-1")
    assert coeff_A(2, -1) == sp_parse("1/2*pi^1 - 1/24*pi^3")
    assert coeff_A(0, -1) == sp_parse("1/2*pi^1")
    for m in range(0, 10):
        for l in range(m + 1, m + 4):
            assert coeff_A(m, l).is_zero()


def test_coeff_A_dd_closed_form():
    for d in range(1, 11):
        assert coeff_A(d, d) == coeff_A_dd_closed(d)
    assert coeff_A_dd_closed(3) == sp_parse("8*pi^-1")


def test_recurrence_A():
    for m in range(0, 13):
        for l in range(1, 15):
            lhs = coeff_A(m + 2, l) - coeff_A(m, l)
            assert lhs == coeff_A(m, l - 2).scale((m + 1) ** 2), (m, l)


def test_recurrence_B():
    # an identity of the generating-function route, down to the rows Fig. 3 reads at d = 30
    cases = [(n, k) for n in range(1, 13) for k in range(2, 9)]
    cases += [(n, k) for n in (100, 199, 200) for k in range(2, 32)]
    for n, k in cases:
        lhs = coeff_B(n, k - 2) - coeff_B(n, k)
        assert lhs == coeff_B(n + 2, k).scale((k - 1) ** 2), (n, k)


def test_coeff_B_keeps_its_cache():
    # the benchmark's tracer reads the hit ratio from the memo table by name
    coeff_B(7, 3)
    info = coeff_B.cache_info()
    assert info.hits + info.misses >= 1


def test_coeff_B_values():
    assert coeff_B(4, 2) == sp_parse("1/2*pi^2 - 2")
    assert coeff_B(4, 3) == sp_parse("1/8*pi^2")
    assert coeff_B(2, 5).is_zero()
    for m in range(1, 9):
        assert coeff_B(m, 0) == SqrtPiPoly.pi_power(m, Fraction(1, math.factorial(m)))
        assert coeff_B(m, 1) == coeff_B(m, 0)


def test_coeff_B_oracle_examples():
    assert coeff_B_oracle(3, 2) == sp_parse("pi^1")
    assert coeff_B_oracle(5, 2) == sp_parse("1/6*pi^3 - pi^1")
    assert coeff_B_oracle(3, 3) == sp_parse("1/4*pi^1")
    with pytest.raises(ValueError):
        coeff_B_oracle(3, 0)


def test_coeff_B_equals_oracle():
    cases = [(m, l) for m in range(1, 13) for l in range(1, m + 1)]
    # rows as deep as Fig. 3 at d = 30 reads them (m up to 230, l up to 31)
    cases += [(m, l) for m in (40, 101, 131, 230) for l in (2, 3, 16, 30, 31)]
    for m, l in cases:
        assert coeff_B(m, l) == coeff_B_oracle(m, l), (m, l)


def test_b_closed_forms():
    assert b_closed_form(4, "k2") == sp_parse("1/2*pi^2 - 2")
    assert b_closed_form(6, "k2") == sp_parse("1/24*pi^4 - 1/2*pi^2 + 2")
    assert b_closed_form(3, "k3") == coeff_B(3, 3)
    for n in range(2, 16):
        assert b_closed_form(n, "k2") == coeff_B(n, 2), n
    for n in range(3, 16):
        assert b_closed_form(n, "k3") == coeff_B(n, 3), n
    # deep enough that a climb recursing once per step would exhaust the interpreter's
    # stack; from an empty memo table, so no shallower entry shortens it
    coeff_B.cache_clear()
    assert coeff_B(1001, 2) == b_closed_form(1001, "k2")
    assert coeff_B(1002, 3) == b_closed_form(1002, "k3")
    with pytest.raises(ValueError):
        b_closed_form(1, "k2")
    with pytest.raises(ValueError):
        b_closed_form(4, "k9")
