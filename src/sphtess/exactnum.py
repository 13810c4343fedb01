"""Exact coefficient arithmetic in the Laurent ring Q[s, 1/s] with s = sqrt(pi).

Every closed-form expectation produced by this package is an element of this
ring: rational numbers are monomials with s-exponent 0, powers of pi carry
even s-exponents, and the Euclidean-limit formulas need odd exponents.
Numeric evaluation goes through ``decimal`` with guard digits, never through
hardware floats, so values can be compared both symbolically and numerically.

All values are immutable and stored in one form: a positive integer
denominator and the nonzero integer numerators over it, in lowest terms.
:func:`sp_dot`, the sum of products a*b over a sequence of pairs, is the one
kernel that combines stored forms: it accumulates integer numerators over a
running lcm of the denominators and divides out the content gcd once, at the
end.  Sums, differences, negations, products, ``scale`` and quotients are each
one ``sp_dot`` (over pairs with ``ONE`` or ``MINUS_ONE``, with a rational, or
with the inverse of a monomial divisor), and so are the mapping constructor and
:func:`sp_parse`, over one monomial per term.  Only ``terms`` builds Fraction
coefficients; :func:`sp_format` reduces each stored numerator against the
denominator with one gcd, and :func:`sp_eval` reads the stored form.

- Pair order: ``sp_dot`` sums its nonzero pairs by ascending denominator bit
  length, so each lift of the running lcm is a small factor.
- Monomial products: a single pair with a factor c/q s**e is reduced by two
  gcds, gcd(den, c) * gcd(q, numerators), the exact content for canonical operands.
- Truncated read-out: :func:`sp_eval` converts each numerator shifted right by
  one K per chain, ten digits below the working precision, and scales by 2**K once.

Values are printed and read in a small text grammar (see the comment above
:func:`sp_format`).  :func:`sp_parse` reads it with one compiled pattern per
term, matched from the start of the text to its end; a :class:`ParseError`
names the first character that no term can read.
"""

from __future__ import annotations

import math
import re
from decimal import Decimal, getcontext, localcontext
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Tuple, Union

__all__ = [
    "SqrtPiPoly",
    "ZERO",
    "ONE",
    "bernoulli",
    "gamma_half",
    "sphere_surface",
    "sp_parse",
    "sp_format",
    "sp_eval",
    "sp_dot",
    "pi_decimal",
    "ParseError",
]

RationalLike = Union[int, Fraction]


class ParseError(ValueError):
    """Raised by :func:`sp_parse` with the offending position in the message."""


def _ratio(x: RationalLike) -> Tuple[int, int]:
    """(numerator, denominator > 0) of an int or a Fraction, in lowest terms."""
    if isinstance(x, (int, Fraction)):
        return x.numerator, x.denominator
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


class SqrtPiPoly:
    """Element of Q[s, s^-1] with s = sqrt(pi), in canonical form.

    The value is sum(num * s**e) / den over ``_nums`` = {s-exponent e: num},
    with ``_den`` > 0, every num nonzero and gcd(den, *nums) = 1, so equal
    values store equal forms.  ``terms`` gives the same value as a map of
    s-exponents to reduced Fraction coefficients.  The exponent of pi is
    half the s-exponent, so rational multiples of integer powers of pi
    occupy the even exponents.
    """

    __slots__ = ("_den", "_nums", "_hash")

    def __init__(self, terms: Mapping[int, RationalLike] | None = None):
        value = sp_dot((SqrtPiPoly.sqrtpi_power(int(e), c), ONE) for e, c in (terms or {}).items())
        self._den, self._nums, self._hash = value._den, value._nums, None

    @classmethod
    def _canonical(cls, den: int, nums: Dict[int, int]) -> "SqrtPiPoly":
        """sum(num * s**e) / den for den > 0: drops zero numerators, divides out the content gcd."""
        nums = {e: n for e, n in nums.items() if n}
        g = math.gcd(den, *nums.values())
        if g != 1:
            den //= g
            nums = {e: n // g for e, n in nums.items()}
        return cls._reduced(den, nums)

    @classmethod
    def _reduced(cls, den: int, nums: Dict[int, int]) -> "SqrtPiPoly":
        """The stored form (den, nums), which must already be canonical."""
        out = object.__new__(cls)
        out._den = den
        out._nums = nums
        out._hash = None
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def rational(cls, x: RationalLike) -> "SqrtPiPoly":
        return cls.sqrtpi_power(0, x)

    @classmethod
    def pi_power(cls, j: int, coeff: RationalLike = 1) -> "SqrtPiPoly":
        """coeff * pi**j  (j may be negative)."""
        return cls.sqrtpi_power(2 * j, coeff)

    @classmethod
    def sqrtpi_power(cls, e: int, coeff: RationalLike = 1) -> "SqrtPiPoly":
        """coeff * s**e with s = sqrt(pi)."""
        num, den = _ratio(coeff)
        return cls._canonical(den, {e: num})

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> Dict[int, Fraction]:
        """{s-exponent: reduced Fraction coefficient}, built on each call."""
        return {e: Fraction(n, self._den) for e, n in self._nums.items()}

    def is_zero(self) -> bool:
        return not self._nums

    def is_monomial(self) -> bool:
        return len(self._nums) == 1

    # -- ring arithmetic ----------------------------------------------------

    def __add__(self, other: "SqrtPiPoly | RationalLike") -> "SqrtPiPoly":
        return sp_dot(((self, ONE), (_coerce(other), ONE)))

    __radd__ = __add__

    def __neg__(self) -> "SqrtPiPoly":
        return sp_dot(((self, MINUS_ONE),))

    def __sub__(self, other: "SqrtPiPoly | RationalLike") -> "SqrtPiPoly":
        return sp_dot(((self, ONE), (_coerce(other), MINUS_ONE)))

    def __rsub__(self, other: "SqrtPiPoly | RationalLike") -> "SqrtPiPoly":
        return sp_dot(((_coerce(other), ONE), (self, MINUS_ONE)))

    def __mul__(self, other: "SqrtPiPoly | RationalLike") -> "SqrtPiPoly":
        return sp_dot(((self, _coerce(other)),))

    __rmul__ = __mul__

    def scale(self, x: RationalLike) -> "SqrtPiPoly":
        return sp_dot(((self, SqrtPiPoly.rational(x)),))

    def __truediv__(self, other: "SqrtPiPoly | RationalLike") -> "SqrtPiPoly":
        """Division by a rational or by a monomial (the only invertibles)."""
        other = _coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero SqrtPiPoly")
        if not other.is_monomial():
            raise ValueError("SqrtPiPoly division only defined for monomials")
        ((e, c),) = other._nums.items()
        # 1 / (c / den * s**e) = den / c * s**-e, already in lowest terms
        inverse = SqrtPiPoly._canonical(abs(c), {-e: other._den if c > 0 else -other._den})
        return sp_dot(((self, inverse),))

    def __pow__(self, n: int) -> "SqrtPiPoly":
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n < 0:
            if self.is_zero():
                raise ZeroDivisionError("negative power of zero SqrtPiPoly")
            if not self.is_monomial():
                raise ValueError("negative power of a non-monomial")
            return (ONE / self) ** -n
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = SqrtPiPoly.rational(other)
        if not isinstance(other, SqrtPiPoly):
            return NotImplemented
        return self._den == other._den and self._nums == other._nums

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._den, frozenset(self._nums.items())))
        return self._hash

    def __repr__(self) -> str:
        return f"SqrtPiPoly({sp_format(self)!r})"

    # -- numeric evaluation --------------------------------------------------

    def __float__(self) -> float:
        """The float nearest to 25 correct significant digits of the value: every float read-out."""
        return float(sp_eval(self, 25))


def _coerce(x: "SqrtPiPoly | RationalLike") -> SqrtPiPoly:
    if isinstance(x, SqrtPiPoly):
        return x
    return SqrtPiPoly.rational(x)


def sp_dot(pairs: Iterable[Tuple[SqrtPiPoly, SqrtPiPoly]]) -> SqrtPiPoly:
    """The sum of a*b over ``pairs``, fraction-free.

    The nonzero pairs are summed in order of ascending denominator bit length
    (a stable sort), so that each lift of the running lcm ``den`` of the
    pairs' denominator products is a small factor.  Integer numerators
    accumulate over ``den``; the sum is reduced once, at the end.  A single
    pair with a monomial factor c/q s**e is reduced by its content, which for
    canonical operands is gcd(den_a, c) * gcd(q, numerators of a).
    """
    pairs = sorted(
        ((a, b) for a, b in pairs if a._nums and b._nums),
        key=lambda ab: ab[0]._den.bit_length() + ab[1]._den.bit_length(),
    )
    if len(pairs) == 1:
        ((a, b),) = pairs
        if len(a._nums) == 1:
            a, b = b, a
        if len(b._nums) == 1:
            ((eb, c),) = b._nums.items()
            q = b._den
            g1 = math.gcd(a._den, c)
            g2 = math.gcd(q, *a._nums.values())
            c //= g1
            return SqrtPiPoly._reduced(
                (a._den // g1) * (q // g2), {e + eb: n // g2 * c for e, n in a._nums.items()}
            )
    den = 1
    acc: Dict[int, int] = {}
    for a, b in pairs:
        ta, tb = a._nums, b._nums
        p = a._den * b._den
        up = p // math.gcd(den, p)
        if up != 1:
            for e in acc:
                acc[e] *= up
            den *= up
        f = den // p
        for e1, n1 in ta.items():
            n1 *= f
            for e2, n2 in tb.items():
                e = e1 + e2
                acc[e] = acc.get(e, 0) + n1 * n2
    return SqrtPiPoly._canonical(den, acc)


ZERO = SqrtPiPoly()
ONE = SqrtPiPoly.rational(1)
MINUS_ONE = SqrtPiPoly.rational(-1)


# ---------------------------------------------------------------------------
# High-precision pi.
# ---------------------------------------------------------------------------

_pi_cache: Tuple[int, Decimal] = (0, Decimal(0))


def pi_decimal(ndigits: int) -> Decimal:
    """pi to at least ``ndigits`` significant decimal digits (Machin's formula)."""
    global _pi_cache
    cached_digits, cached = _pi_cache
    if cached_digits >= ndigits:
        return cached
    prec = ndigits + 15
    with localcontext() as ctx:
        ctx.prec = prec
        pi = 16 * _atan_inv(5, prec) - 4 * _atan_inv(239, prec)
    _pi_cache = (ndigits, pi)
    return pi


def _atan_inv(x: int, prec: int) -> Decimal:
    """arctan(1/x) for integer x > 1, by the alternating Taylor series."""
    one = Decimal(1)
    term = one / x
    total = term
    x2 = x * x
    n = 1
    while term:
        term /= x2
        n += 2
        total += -term / n if (n // 2) % 2 else term / n
        if term.adjusted() < -prec:
            break
    return total


_LOG2_10 = math.log2(10)
_LOG2_S = math.log2(math.pi) / 2  # log2(sqrt(pi))


def _shift(top: int, prec: int, den_bits: int, hi: int, count: int) -> int:
    """A shift K >= 0, within a few bits of the largest, with count * 2**K * s**hi / den below 10**(top - prec - 10).

    Truncating each of ``count`` numerators of a parity chain, whose largest s-exponent is
    ``hi``, to its high bits (n >> K) moves the chain's value by less than that bound, ten
    digits below the working precision's rounding of a sum whose terms reach 10**top.
    """
    # den >= 2**(den_bits - 1) and count < 2**count.bit_length(); 2 bits cover the float logs
    bits = (top - prec - 10) * _LOG2_10 + den_bits - 1 - hi * _LOG2_S - count.bit_length() - 2
    return max(0, math.floor(bits))


def sp_eval(a: SqrtPiPoly, digits: int) -> Decimal:
    """``a`` to ``digits`` correct significant digits and an absolute error below 10**(1 - digits).

    One Horner pass in pi per parity of the s-exponents (the odd chain times s**min, the
    even one times pi**(min/2) unless it is rational), then one division by the denominator.
    The working precision is padded by the largest term magnitude, read roughly from the bit
    lengths, and by the shortfall when the sum cancels more digits than that pad covers.
    Each chain converts its numerators shifted right by one K of :func:`_shift` and scales by
    2**K once, so no step converts digits that the working precision would round away.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    if a.is_zero():
        return Decimal(0)
    den_bits = a._den.bit_length()
    # log10 magnitude of each term: log10(2) per bit, log10(sqrt(pi)) = 0.24857... per s-power
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
                k = _shift(top, prec, den_bits, hi, len(es))
                acc = Decimal(a._nums[hi] >> k)  # not Decimal(0), whose exponent would pad exact results
                for e in range(hi - 2, lo - 1, -2):
                    acc = acc * pi + (a._nums.get(e, 0) >> k)
                if k:
                    acc *= Decimal(2) ** k
                if lo:
                    acc *= pi.sqrt() ** lo if odd else pi ** (lo // 2)
                total += acc
            total /= a._den
        need = top - total.adjusted() + digits + 10  # the digits cancelled, plus 10 guard digits
    with localcontext() as ctx:
        ctx.prec = digits + max(0, top) + 5
        return +total


# ---------------------------------------------------------------------------
# Formatting / parsing.  Grammar (ASCII; whitespace is allowed between
# tokens, a signed-int is one token):
#   expr       := ('+'|'-')? term (('+'|'-') term)*
#   term       := rational ('*' atom)? | atom
#   atom       := 'pi' '^' signed-int | 'sqrtpi' '^' signed-int
#   rational   := digits ('/' digits)?        (nonzero denominator)
#   signed-int := ('+'|'-')? digits
# Every term after the first carries exactly one sign: '3 + -4' and '- -1'
# are errors.  'pi^t' carries s-exponent 2*t; odd s-exponents are emitted as
# 'sqrtpi^e'.  Terms are emitted in descending s-exponent order.
# ---------------------------------------------------------------------------


def _int_str(n: int) -> str:
    """str(n) at any size; past the interpreter's int-to-str digit limit, exactly through Decimal."""
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def _str_int(digits: str) -> int:
    """int(digits) at any size, the inverse of :func:`_int_str`."""
    try:
        return int(digits)
    except ValueError:
        return int(Decimal(digits))


def sp_format(a: SqrtPiPoly) -> str:
    if a.is_zero():
        return "0"
    parts = []
    for e in sorted(a._nums, reverse=True):
        n = a._nums[e]
        g = math.gcd(n, a._den)  # the text shows each coefficient in lowest terms
        mag = _int_str(abs(n) // g)
        if a._den != g:
            mag = f"{mag}/{_int_str(a._den // g)}"
        if e == 0:
            body = mag
        else:
            atom = f"pi^{e // 2}" if e % 2 == 0 else f"sqrtpi^{e}"
            body = atom if mag == "1" else f"{mag}*{atom}"
        if not parts:
            parts.append(body if n > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if n > 0 else f"- {body}")
    return " ".join(parts)


# one term with its sign and the whitespace around it; '*' is read only
# between a rational and an atom, so '2*' and '2 pi^1' stop after the '2'
_TERM = re.compile(
    r"\s*(?P<sign>[+-]?)\s*"
    r"(?:(?P<num>\d+)\s*(?:/\s*(?P<den>\d+)\s*)?)?"
    r"(?:(?(num)\*\s*)(?P<atom>sqrtpi|pi)\s*\^\s*(?P<exp>[+-]?\d+)\s*)?"
)


def sp_parse(text: str) -> SqrtPiPoly:
    """Parse the grammar above; a ParseError names the first position it cannot read."""
    monomials = []
    pos = 0
    while True:
        m = _TERM.match(text, pos)
        if pos and not m["sign"]:
            raise ParseError(f"expected '+' or '-' at position {pos}")
        if not (m["num"] or m["atom"]):
            raise ParseError(f"expected a term at position {m.end()}")
        if m["den"] and not m["den"].strip("0"):
            raise ParseError(f"zero denominator at position {m.start('den')}")
        num = _str_int(m["num"] or "1")
        e = int(m["exp"]) * (2 if m["atom"] == "pi" else 1) if m["atom"] else 0
        monomials.append(SqrtPiPoly._canonical(_str_int(m["den"] or "1"), {e: -num if m["sign"] == "-" else num}))
        pos = m.end()
        if pos == len(text):
            return sp_dot((t, ONE) for t in monomials)


# ---------------------------------------------------------------------------
# Special-function constants.
# ---------------------------------------------------------------------------

_bern_even: list[Fraction] = [Fraction(1)]  # B_0, B_2, B_4, ...


def bernoulli(two_n: int) -> Fraction:
    """Bernoulli number B_{two_n} for even two_n >= 0 (memoized).

    Computed from the binomial recurrence over even indices only; odd
    Bernoulli numbers beyond B_1 vanish and B_1 never enters our series.
    """
    if two_n < 0 or two_n % 2 != 0:
        raise ValueError(f"bernoulli index must be even and >= 0, got {two_n}")
    k = two_n // 2
    while len(_bern_even) <= k:
        m = len(_bern_even)
        n = 2 * m
        s = Fraction(0)
        for j in range(m):
            s += math.comb(n + 1, 2 * j) * _bern_even[j]
        s += Fraction(n + 1) * Fraction(-1, 2)  # B_1 = -1/2 term
        _bern_even.append(-s / (n + 1))
    return _bern_even[k]


def gamma_half(two_j: int) -> SqrtPiPoly:
    """Exact Gamma(two_j / 2) as rational * s^{0 or 1}."""
    if two_j < 1:
        raise ValueError(f"gamma_half argument must be positive, got {two_j}")
    if two_j % 2 == 0:
        return SqrtPiPoly.rational(math.factorial(two_j // 2 - 1))
    # Gamma(n + 1/2) = (2n)! / (4^n n!) * sqrt(pi)
    n = (two_j - 1) // 2
    coeff = Fraction(math.factorial(2 * n), 4**n * math.factorial(n))
    return SqrtPiPoly.sqrtpi_power(1, coeff)


def sphere_surface(k: int) -> SqrtPiPoly:
    """k-dimensional Hausdorff measure of the unit k-sphere.

    omega_{k+1} = 2 pi^{(k+1)/2} / Gamma((k+1)/2); always lands in Q[pi].
    """
    if k < 0:
        raise ValueError(f"sphere dimension must be >= 0, got {k}")
    numer = SqrtPiPoly.sqrtpi_power(k + 1, 2)
    return numer / gamma_half(k + 1)
