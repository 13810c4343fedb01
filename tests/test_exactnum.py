"""Ring laws, numeric evaluation, special constants, and the text grammar."""

import hashlib
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sphtess import exactnum, figures
from sphtess.combinat import coeff_B
from sphtess.exactnum import (
    ONE,
    ZERO,
    ParseError,
    SqrtPiPoly,
    bernoulli,
    gamma_half,
    pi_decimal,
    sp_dot,
    sp_eval,
    sp_format,
    sp_parse,
    sphere_surface,
)

rationals = st.builds(
    Fraction,
    st.integers(min_value=-(10**6), max_value=10**6),
    st.integers(min_value=1, max_value=10**4),
)

polys = st.dictionaries(
    st.integers(min_value=-12, max_value=12), rationals, max_size=6
).map(SqrtPiPoly)


@settings(max_examples=150, deadline=None)
@given(polys, polys, polys)
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


monomials = st.builds(lambda e, c: SqrtPiPoly({e: c}), st.integers(min_value=-12, max_value=12), rationals)
factors = st.one_of(st.just(ZERO), monomials, polys)


def _dot_reference(pairs):
    """The sum of a*b over pairs, one Fraction product and sum per term pair."""
    out = {}
    for a, b in pairs:
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                out[e1 + e2] = out.get(e1 + e2, Fraction(0)) + c1 * c2
    return SqrtPiPoly(out)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(factors, factors), max_size=6), st.booleans())
@example([], False)
@example([(ZERO, ONE), (SqrtPiPoly({-3: Fraction(5, 6)}), ZERO)], False)
@example([(SqrtPiPoly({-3: Fraction(5, 6)}), SqrtPiPoly({1: Fraction(-2, 9)}))], True)
def test_sp_dot_matches_fraction_reference(pairs, cancel):
    if cancel:  # every product reappears negated, so the sum is ZERO
        pairs = pairs + [(-a, b) for a, b in pairs]
    got = sp_dot(pairs)
    assert got == _dot_reference(pairs)
    canon = SqrtPiPoly(dict(got.terms))
    assert got == canon and hash(got) == hash(canon)
    if cancel:
        assert got == ZERO and got.is_zero()


units = st.builds(
    lambda e, c: SqrtPiPoly({e: c}), st.integers(min_value=-12, max_value=12), rationals.filter(lambda c: c != 0)
)


def _fraction_terms(terms):
    """{s-exponent: Fraction} with the zero coefficients dropped."""
    return {e: c for e, c in terms.items() if c}


@settings(max_examples=200, deadline=None)
@given(factors, factors, units, rationals, st.integers(min_value=0, max_value=4), st.integers(min_value=-4, max_value=-1))
@example(ZERO, ZERO, SqrtPiPoly({3: Fraction(-2, 3)}), Fraction(0), 0, -3)
# a * b, scale and / with content from both gcds: (2s + 4)/3 against 3/2, 6/7 s^-1 and 2/3 s^2
@example(SqrtPiPoly({1: Fraction(2, 3), 0: Fraction(4, 3)}), SqrtPiPoly.rational(Fraction(3, 2)),
         SqrtPiPoly({2: Fraction(2, 3)}), Fraction(3, 2), 1, -1)
@example(SqrtPiPoly({-1: Fraction(6, 7)}), SqrtPiPoly({1: Fraction(2, 3), 0: Fraction(4, 3)}),
         SqrtPiPoly({0: Fraction(6, 7)}), Fraction(-7, 6), 2, -2)
def test_operators_match_fraction_reference(a, b, unit, x, n, neg):
    """Each operator against Fraction-by-Fraction arithmetic on ``terms``; each result is canonical."""
    ta, tb = a.terms, b.terms
    ((eu, cu),) = unit.terms.items()
    power = {0: Fraction(1)}
    for _ in range(n):
        nxt = {}
        for e1, c1 in power.items():
            for e2, c2 in ta.items():
                nxt[e1 + e2] = nxt.get(e1 + e2, 0) + c1 * c2
        power = nxt
    cases = [
        (a + b, {e: ta.get(e, 0) + tb.get(e, 0) for e in ta.keys() | tb.keys()}),
        (a * b, {e: sum(c1 * c2 for e1, c1 in ta.items() for e2, c2 in tb.items() if e1 + e2 == e)
                 for e in {e1 + e2 for e1 in ta for e2 in tb}}),
        (a - b, {e: ta.get(e, 0) - tb.get(e, 0) for e in ta.keys() | tb.keys()}),
        (-a, {e: -c for e, c in ta.items()}),
        (a.scale(x), {e: c * x for e, c in ta.items()}),
        (a / unit, {e - eu: c / cu for e, c in ta.items()}),
        (a**n, power),
        (unit**neg, {eu * neg: cu**neg}),
    ]
    for got, want in cases:
        assert got.terms == _fraction_terms(want)
        canon = SqrtPiPoly(got.terms)
        assert got == canon and hash(got) == hash(canon)


@settings(max_examples=60, deadline=None)
@given(polys, polys)
def test_eval_is_ring_homomorphism(a, b):
    digits = 25
    tol = Decimal(10) ** (3 - digits)
    with localcontext() as ctx:
        ctx.prec = 80  # compare exactly, not at the default context precision
        assert abs(sp_eval(a + b, digits) - (sp_eval(a, digits) + sp_eval(b, digits))) < tol
        prod = sp_eval(a * b, digits)
        approx = sp_eval(a, digits + 15) * sp_eval(b, digits + 15)
        scale = max(abs(approx), Decimal(1))
        assert abs(prod - approx) < tol * scale


@settings(max_examples=300, deadline=None)
@given(polys)
@example(SqrtPiPoly({1: -1}))  # leading '-sqrtpi^1': a sign token, no integer
@example(SqrtPiPoly({2: -1, 0: 3}))
def test_parse_format_round_trip(a):
    assert sp_parse(sp_format(a)) == a


def test_arith_examples():
    half_pi = SqrtPiPoly.pi_power(1, Fraction(1, 2))
    assert half_pi + half_pi == SqrtPiPoly.pi_power(1)
    one_minus = SqrtPiPoly({0: 1, -2: Fraction(-2)})  # 1 - 2/pi
    assert one_minus * SqrtPiPoly.pi_power(1) == sp_parse("pi^1 - 2")
    a = SqrtPiPoly.pi_power(2, Fraction(1, 2)) - 2
    scaled = a * SqrtPiPoly.pi_power(-4, 12)
    assert scaled == sp_parse("6*pi^-2 - 24*pi^-4")


def test_eval_examples():
    v = SqrtPiPoly({0: Fraction(13, 8), -4: Fraction(-9)})
    got = sp_eval(v, 10)
    assert abs(got - Decimal("0.7131093472")) < Decimal("1e-9")
    assert sp_eval(ZERO, 5) == 0
    assert abs(sp_eval(SqrtPiPoly.pi_power(1, Fraction(1, 2)), 12) - Decimal("1.5707963267949")) < Decimal("1e-11")


def test_eval_survives_heavy_cancellation():
    # n!/pi^n style magnitudes with a rational residue
    n = 120
    big = SqrtPiPoly.pi_power(n, Fraction(1, math.factorial(n)))
    x = big * SqrtPiPoly.pi_power(-n, math.factorial(n)) - 1 + Fraction(1, 3)
    assert abs(sp_eval(x, 20) - Decimal(1) / 3) < Decimal("1e-19")


def test_eval_precision_contract():
    cases = [
        SqrtPiPoly.pi_power(3, Fraction(7, 3)) - SqrtPiPoly.pi_power(-2, Fraction(2, 9)),
        SqrtPiPoly({9: 8644}),  # large magnitude: absolute bound must still hold
        SqrtPiPoly({-7: Fraction(1, 97)}),
        # about 4e-32 and 7e-30 from terms near 1: the sum cancels some 30 digits
        coeff_B(43, 2),
        coeff_B(41, 4),
    ]
    with localcontext() as ctx:
        ctx.prec = 120
        for val in cases:
            hi = sp_eval(val, 80)
            for digits in (1, 2, 5, 10, 30):
                err = abs(sp_eval(val, digits) - hi)
                assert err < Decimal(10) ** (1 - digits)
                assert err <= abs(hi) * Decimal(10) ** (1 - digits)


def _eval_reference(a, digits):
    """``a`` by sp_eval's Horner pass and cancellation loop, converting every numerator in full."""
    den_bits = a._den.bit_length()
    top = math.ceil(max((abs(n).bit_length() - den_bits) * math.log10(2) + 0.24857 * e for e, n in a._nums.items()))
    prec, need = 0, digits + 20 + max(0, top)
    while need > prec:
        prec = need
        with localcontext() as ctx:
            ctx.prec = prec
            pi = pi_decimal(prec)
            total = 0
            for odd in sorted({e % 2 for e in a._nums}):
                es = [e for e in a._nums if e % 2 == odd]
                lo, hi = min(es), max(es)
                acc = Decimal(a._nums[hi])
                for e in range(hi - 2, lo - 1, -2):
                    acc = acc * pi + a._nums.get(e, 0)
                if lo:
                    acc *= pi.sqrt() ** lo if odd else pi ** (lo // 2)
                total += acc
            total /= a._den
        need = top - total.adjusted() + digits + 10
    return total


def _large_values():
    """Weighted E f_l at d = k = 30, n = 200, B{200, c}, and E f_29 less a 33-digit rational near it."""
    from sphtess.moments import ef_weighted

    vals = [ef_weighted(200, 30, 30, l) for l in (0, 15, 29)] + [coeff_B(200, c) for c in (2, 31, 100)]
    return vals + [vals[2] - Fraction("171.884276456106648875796912899657")]  # about 2.5e-31


def test_eval_of_large_values_matches_the_full_conversion_reference(monkeypatch):
    """Values of 1,200-13,000-bit numerators whose terms cancel 130-310 digits: the truncated read-out."""
    shifts = []
    shift = exactnum._shift

    def recorded_shift(*args):
        shifts.append(shift(*args))
        return shifts[-1]

    monkeypatch.setattr(exactnum, "_shift", recorded_shift)
    with localcontext() as ctx:
        ctx.prec = 200
        for val in _large_values():
            for digits in (15, 25, 40):
                ref = _eval_reference(val, digits + 60)
                err = abs(sp_eval(val, digits) - ref)
                assert err < Decimal(10) ** (1 - digits)
                assert err <= abs(ref) * Decimal(10) ** (1 - digits)
    assert max(shifts) > 0  # the cases reach the truncated conversion


def test_figure_3_at_d30_is_pinned():
    csv = figures.figure_csv("fvec_fig3", d=30, ns=[100, 200]).encode()
    assert hashlib.sha256(csv).hexdigest() == "f46456d3d89ea10946e61420504ac553ddeda36873e05cb88935d015bcb3f2bd"


def test_bernoulli_values_and_recurrence():
    assert bernoulli(0) == 1
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    with pytest.raises(ValueError):
        bernoulli(3)
    # defining recurrence sum_j binom(m+1, j) B_j = 0 with B_1 = -1/2
    for m in range(2, 61, 2):
        total = Fraction(m + 1) * Fraction(-1, 2)  # B_1 term
        for j in range(0, m + 1, 2):
            total += math.comb(m + 1, j) * bernoulli(j)
        assert total == 0, m


def test_gamma_half():
    assert gamma_half(1) == SqrtPiPoly.sqrtpi_power(1)
    assert gamma_half(4) == ONE
    assert gamma_half(5) == SqrtPiPoly.sqrtpi_power(1, Fraction(3, 4))
    with pytest.raises(ValueError):
        gamma_half(0)
    # Gamma(z + 1) = z Gamma(z) exactly
    for two_j in range(1, 30):
        lhs = gamma_half(two_j + 2)
        rhs = gamma_half(two_j).scale(Fraction(two_j, 2))
        assert lhs == rhs


def test_sphere_surface():
    assert sphere_surface(0) == SqrtPiPoly.rational(2)
    assert sphere_surface(1) == SqrtPiPoly.pi_power(1, 2)
    assert sphere_surface(3) == SqrtPiPoly.pi_power(2, 2)
    # omega_{l+1} l!/2 = (2 sqrt(pi))^l Gamma(l/2 + 1)
    for l in range(0, 12):
        lhs = sphere_surface(l).scale(Fraction(math.factorial(l), 2))
        rhs = SqrtPiPoly.sqrtpi_power(l, 2**l) * gamma_half(l + 2)
        assert lhs == rhs
    with pytest.raises(ValueError):
        sphere_surface(-1)


def test_parse_grammar_cases():
    assert sp_parse("0").is_zero()
    assert sp_parse("3/4 - 3*pi^-2") == SqrtPiPoly({0: Fraction(3, 4), -4: -3})
    assert sp_parse("15 + 720*pi^-4 - 180*pi^-2") == SqrtPiPoly(
        {0: 15, -8: 720, -4: -180}
    )
    assert sp_parse(" 2 * pi ^ 1 ") == SqrtPiPoly.pi_power(1, 2)
    assert sp_parse("sqrtpi^3") == SqrtPiPoly.sqrtpi_power(3)
    assert sp_parse("-1*pi^2 + 1/2") == SqrtPiPoly({4: -1, 0: Fraction(1, 2)})


def test_format_order_and_style():
    s = sp_format(SqrtPiPoly({0: 15, -8: 720, -4: -180}))
    assert s == "15 - 180*pi^-2 + 720*pi^-4"  # descending exponent order
    assert sp_format(ZERO) == "0"
    assert sp_format(SqrtPiPoly.pi_power(1, Fraction(1, 2))) == "1/2*pi^1"


def test_parse_errors_have_positions():
    # the position is the first character the scanner cannot read
    cases = [("3 4", 2), ("3/4 - spam", 6), ("1/0", 2), ("3 +", 3), ("pi", 0), ("2**pi^1", 1),
             ("2 pi^1", 2), ("1/+2", 1), ("3 + -4", 4), ("- -1", 2), ("", 0), ("2*", 1)]
    for bad, pos in cases:
        with pytest.raises(ParseError, match=rf" at position {pos}$"):
            sp_parse(bad)


def test_format_and_parse_past_the_int_str_digit_limit():
    import sys

    limit = sys.get_int_max_str_digits()
    big = 7**6000  # 5071 digits, past the default limit of 4300
    v = SqrtPiPoly({4: Fraction(big, 3**9001), 0: -big, -3: Fraction(1, big + 2)})
    text = sp_format(v)
    assert text.startswith(str(Decimal(big)) + "/")
    assert sp_parse(text) == v
    with pytest.raises(ParseError, match=r" at position 2$"):
        sp_parse("1/" + "0" * 5000)
    assert sys.get_int_max_str_digits() == limit


def test_parse_reads_signs_next_to_digits():
    # whitespace is optional between tokens, also between a sign and digits
    assert sp_parse("1-3") == sp_parse("1 - 3") == SqrtPiPoly.rational(-2)
    assert sp_parse("pi^1+2") == SqrtPiPoly({2: 1, 0: 2})


def test_pi_decimal_known_digits():
    txt = str(pi_decimal(50))
    assert txt.startswith("3.14159265358979323846264338327950288419716939937510")


def test_division_rules():
    mono = SqrtPiPoly.pi_power(2, Fraction(3, 4))
    val = SqrtPiPoly({0: 1, 2: 2}) / mono
    assert val == SqrtPiPoly({-4: Fraction(4, 3), -2: Fraction(8, 3)})
    with pytest.raises(ValueError):
        SqrtPiPoly({0: 1}) / SqrtPiPoly({0: 1, 2: 1})
    with pytest.raises(ZeroDivisionError):
        SqrtPiPoly({0: 1}) / ZERO
    with pytest.raises(ZeroDivisionError):
        ZERO**-1
