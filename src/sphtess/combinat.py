"""Combinatorial constants and the two exact coefficient families.

``cells_count``/``faces_count`` are the almost-sure cell and face counts of a
tessellation by random great hyperspheres in general position.  The A family
reads Laurent coefficients of the integer polynomials Q_m times tanh/cotanh,
each tanh/cotanh coefficient in its Bernoulli closed form; the B family is a
table of sine-moment integrals, each read off its generating function.  Both
are computed by one route and checked against independent routes in the test
suite (closed-form series coefficients vs. power-series division and
recurrence for A; generating function vs. recurrence identity vs. symbolic
integral vs. printed closed forms for B).

Everything here is a pure function over memo tables.  ``coeff_B`` reads one
cached series R_p per l, extended in place as deeper rows ask for it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Literal, Tuple

from .exactnum import ZERO, SqrtPiPoly, bernoulli, sp_dot

__all__ = [
    "cells_count",
    "faces_count",
    "qpoly",
    "hyp_series",
    "coeff_A",
    "coeff_A_dd_closed",
    "coeff_B",
    "coeff_B_oracle",
    "b_closed_form",
]


# ---------------------------------------------------------------------------
# Schlaefli counts.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def cells_count(n: int, d: int) -> Fraction:
    """Number of cells cut out of the d-sphere by n great hyperspheres.

    C(n,d) = 2 * sum_{r=0}^{d} binom(n-1, r); by convention C(0,d) = 1
    (no hyperspheres leave the whole sphere as a single cell).  d = 0 is
    allowed so that the k = 0 corner of the face-count recursion works:
    C(m, 0) = 2 for m >= 1.
    """
    if n < 0 or d < 0:
        raise ValueError(f"cells_count requires n >= 0, d >= 0, got ({n}, {d})")
    if n == 0:
        return Fraction(1)
    return Fraction(2 * sum(math.comb(n - 1, r) for r in range(d + 1)))


@lru_cache(maxsize=None)
def faces_count(n: int, d: int, k: int) -> Fraction:
    """Number C(n,d,k) of k-faces of the tessellation: binom(n,d-k)*C(n-d+k,k)."""
    if not 0 <= k <= d:
        raise ValueError(f"need 0 <= k <= d, got k={k}, d={d}")
    if n < d - k:
        raise ValueError(f"need n >= d-k = {d - k}, got n={n}")
    return Fraction(math.comb(n, d - k)) * cells_count(n - d + k, k)


# ---------------------------------------------------------------------------
# The Q_m polynomials and the Laurent series of tanh(pi/2x), cotanh(pi/2x).
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def qpoly(m: int) -> Dict[int, int]:
    """Q_m as a map {even x-exponent: integer coefficient}.

    Q_0 = Q_1 = 1 and Q_m = prod of (1 + (m-1-2j)^2 x^2) with the last factor
    1 + x^2 (m even) or 1 + 4 x^2 (m odd).
    """
    if m < 0:
        raise ValueError(f"qpoly index must be >= 0, got {m}")
    poly: Dict[int, int] = {0: 1}
    for j in range(m - 1, 0, -2):
        nxt: Dict[int, int] = {}
        for e, c in poly.items():
            nxt[e] = nxt.get(e, 0) + c
            nxt[e + 2] = nxt.get(e + 2, 0) + c * j * j
        poly = nxt
    return poly


@lru_cache(maxsize=None)
def hyp_series(kind: Literal["tanh", "coth"], e: int) -> SqrtPiPoly:
    """The x^e coefficient of tanh(pi/(2x)) or cotanh(pi/(2x)) around x = inf.

    With u = pi/(2x):
      tanh u = sum_{n>=1} 2^{2n}(2^{2n}-1) B_{2n} u^{2n-1} / (2n)!
      coth u = 1/u + sum_{n>=1} 2^{2n} B_{2n} u^{2n-1} / (2n)!
    so at odd e <= -1, with n = (1 - e)/2, tanh gives
    2 (4^n - 1) B_{2n} / (2n)! * pi^(2n-1) and coth gives 2 B_{2n} / (2n)! *
    pi^(2n-1); coth adds 2/pi at e = 1, and every other exponent is zero.
    """
    if kind not in ("tanh", "coth"):
        raise ValueError(f"kind must be 'tanh' or 'coth', got {kind!r}")
    if e == 1 and kind == "coth":
        return SqrtPiPoly.pi_power(-1, 2)
    if e > -1 or e % 2 == 0:
        return ZERO
    n = (1 - e) // 2
    coeff = Fraction(2, math.factorial(2 * n)) * bernoulli(2 * n)
    if kind == "tanh":
        coeff *= 4**n - 1
    return SqrtPiPoly.pi_power(2 * n - 1, coeff)


# ---------------------------------------------------------------------------
# A[m, l] from Q_m and the closed-form series coefficients.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def coeff_A(m: int, l: int) -> SqrtPiPoly:
    """A[m, l]: the x^l coefficient of Q_m, tanh(pi/2x) Q_m, or cotanh(pi/2x) Q_m.

    Even l reads Q_m directly; odd l sums Q_m's terms against the tanh
    (m even) or cotanh (m odd) series coefficients that land on x^l, each
    read in closed form by :func:`hyp_series`.  Zero whenever l > m.  The
    sentinel product 0^2 * A[-1,-1] that appears in the face-number formulas
    is handled by the callers, never here.
    """
    if m < 0:
        raise ValueError(f"coeff_A row index must be >= 0, got {m}")
    if l < -1:
        raise ValueError(f"coeff_A column index must be >= -1, got {l}")
    if l > m:
        return ZERO
    q = qpoly(m)
    if l % 2 == 0:
        return SqrtPiPoly.rational(q[l]) if l in q else ZERO
    kind = "tanh" if m % 2 == 0 else "coth"
    return sp_dot((hyp_series(kind, l - e), SqrtPiPoly.rational(c)) for e, c in q.items())


def coeff_A_dd_closed(d: int) -> SqrtPiPoly:
    """Closed form A[d,d] = (d!)^2 / (2^d Gamma(d/2+1)^2); used as a test oracle."""
    from .exactnum import gamma_half

    g = gamma_half(d + 2)  # Gamma(d/2 + 1)
    numer = SqrtPiPoly.rational(Fraction(math.factorial(d) ** 2, 2**d))
    return numer / (g * g)


# ---------------------------------------------------------------------------
# B{m, l} from its generating function, and its two independent oracles.
# ---------------------------------------------------------------------------

# p -> (P, L, nums): the series of R_p(t) = 1 / prod(t^2 + a^2) over
# a = p, p-2, ... > 0, whose t^(2j) coefficient is nums[j] / (P * L**j) with
# P = prod(a^2) and L = lcm(a^2).  Each list is extended in place.
_R_SERIES: Dict[int, Tuple[int, int, List[int]]] = {}


def _r_series(p: int, n: int) -> Tuple[int, int, List[int]]:
    """R_p's (P, L, nums) with at least n numerators, for p >= 1.

    R_p = R_{p-2} / (t^2 + p^2) with R_0 = R_{-1} = 1 gives, fraction-free,
    nums[j] = nums'[j] (L / L')**j - nums[j-1] L / p^2 over R_{p-2}'s
    (P', L', nums'), so each chain climbs from a = 1 or 2 to p.
    """
    P, L, nums = 1, 1, [1]
    for a in range(2 - p % 2, p + 1, 2):
        prev_L, prev = L, nums
        if a not in _R_SERIES:
            _R_SERIES[a] = (P * a * a, math.lcm(L, a * a), [])
        P, L, nums = _R_SERIES[a]
        f, g = L // prev_L, L // (a * a)
        for j in range(len(nums), n):
            below = prev[j] * f**j if j < len(prev) else 0
            nums.append(below - nums[j - 1] * g if j else below)
    return P, L, nums


@lru_cache(maxsize=None)
def coeff_B(m: int, l: int) -> SqrtPiPoly:
    """B{m, l} = (1/((l-1)!(m-l)!)) * integral of x^(m-l) sin^(l-1) x over [0, pi].

    With p = l - 1 and q = m - l, B{m, l} = [t^q] F_p(t), where
    F_p(t) = (1/p!) * integral of e^(tx) sin^p x over [0, pi] is
    (1 + e^(pi t)) R_p(t) for odd p and ((e^(pi t) - 1)/t) R_p(t) for even p,
    with R_p as in ``_R_SERIES``.  So the pi^s coefficient is r_{q-s}/s!
    (odd p, plus r_q at s = 0) or r_{q-s+1}/s! (even p), where r_i is R_p's
    t^i coefficient, zero at odd i.  The R_p series are cached per p, so an
    entry costs O(q) terms built fraction-free over the one denominator
    P * L**(q//2) * q! (or (q+1)!) and reduced once.  The l = 0 and l = 1
    columns are pi^m / m!.  Always lands in Q[pi].
    """
    if m < 0 or l < 0:
        raise ValueError(f"coeff_B indices must be >= 0, got ({m}, {l})")
    if l >= 1 and m < 1:
        raise ValueError("coeff_B requires m >= 1 when l >= 1")
    if l > m:
        return ZERO
    if l <= 1:
        # integral of x^{m-1} over [0, pi] / (m-1)! = pi^m / m!
        return SqrtPiPoly.pi_power(m, Fraction(1, math.factorial(m)))
    p, q = l - 1, m - l
    h, u = q // 2, 1 - p % 2  # even p: (e^(pi t) - 1)/t raises each pi power by u = 1
    P, L, nums = _r_series(p, h + 1)
    lpow = [1]
    for _ in range(h):
        lpow.append(lpow[-1] * L)
    nums_out: Dict[int, int] = {}
    fac = 1  # (q+u)! / (s+u)!
    for s in range(q, -1, -2):
        k = s + u
        nums_out[2 * k] = nums[(q - s) // 2] * lpow[s // 2] * fac
        fac *= k * (k - 1) or 1
    if not u and q % 2 == 0:
        nums_out[0] *= 2  # the 1 in 1 + e^(pi t)
    return SqrtPiPoly._canonical(P * lpow[h] * math.factorial(q + u), nums_out)


def coeff_B_oracle(m: int, l: int) -> SqrtPiPoly:
    """B{m, l} by exact symbolic evaluation of the defining integral.

    Expands sin^{l-1} x into a rational combination of 1, cos(jx), sin(jx)
    and integrates x^{m-l} against each by exact repeated integration by
    parts.  Entirely independent of the generating-function route.
    """
    if not 1 <= l <= m:
        raise ValueError(f"oracle requires 1 <= l <= m, got ({m}, {l})")
    p = l - 1  # power of sin
    q = m - l  # power of x
    total = ZERO
    for is_cos, j, c in _sin_power_expansion(p):
        if j == 0:
            # integral of c * x^q over [0, pi]
            total = total + SqrtPiPoly.pi_power(q + 1, c * Fraction(1, q + 1))
        elif is_cos:
            total = total + _moment_cos(q, j).scale(c)
        else:
            total = total + _moment_sin(q, j).scale(c)
    return total.scale(Fraction(1, math.factorial(l - 1) * math.factorial(m - l)))


def _sin_power_expansion(p: int):
    """sin^p x as [(is_cos, frequency j, rational coeff)]; j = 0 means constant."""
    out = []
    if p == 0:
        return [(True, 0, Fraction(1))]
    if p % 2 == 0:
        h = p // 2
        out.append((True, 0, Fraction(math.comb(p, h), 2**p)))
        for j in range(1, h + 1):
            c = Fraction(2 * math.comb(p, h - j), 2**p) * (-1) ** j
            out.append((True, 2 * j, c))
    else:
        h = (p - 1) // 2
        for j in range(0, h + 1):
            c = Fraction(math.comb(p, h - j), 2 ** (p - 1)) * (-1) ** j
            out.append((False, 2 * j + 1, c))
    return out


@lru_cache(maxsize=None)
def _moment_cos(q: int, j: int) -> SqrtPiPoly:
    """Exact integral of x^q cos(jx) over [0, pi], j >= 1."""
    if q == 0:
        return ZERO  # sin(j pi)/j = 0
    return _moment_sin(q - 1, j).scale(Fraction(-q, j))


@lru_cache(maxsize=None)
def _moment_sin(q: int, j: int) -> SqrtPiPoly:
    """Exact integral of x^q sin(jx) over [0, pi], j >= 1."""
    if q == 0:
        # (1 - cos(j pi)) / j
        return SqrtPiPoly.rational(Fraction(1 - (-1) ** j, j))
    boundary = Fraction(-((-1) ** j), j)  # -pi^q cos(j pi)/j, pi-power q
    value = SqrtPiPoly.pi_power(q, boundary)
    return value + _moment_cos(q - 1, j).scale(Fraction(q, j))


def b_closed_form(n: int, which: Literal["k2", "k3"]) -> SqrtPiPoly:
    """The printed alternating-sum closed forms for B{n,2} and B{n,3}."""
    if which == "k2":
        if n < 2:
            raise ValueError("B{n,2} closed form needs n >= 2")
        total = ZERO
        for k in range(0, n - 1):
            if (n - k) % 2 != 0:
                continue
            sgn = (-1) ** ((n - k) // 2)
            total = total - SqrtPiPoly.pi_power(k, Fraction(sgn, math.factorial(k)))
        if n % 2 == 0:
            total = total - SqrtPiPoly.rational((-1) ** (n // 2))
        return total
    if which == "k3":
        if n < 3:
            raise ValueError("B{n,3} closed form needs n >= 3")
        total = ZERO
        for k in range(0, n - 1):
            if (n - k) % 2 != 0:
                continue
            sgn = (-1) ** ((n - k) // 2)
            total = total - SqrtPiPoly.pi_power(
                k, Fraction(sgn, math.factorial(k) * 2 ** (n - k))
            )
        if n % 2 == 0:
            total = total + SqrtPiPoly.rational(Fraction((-1) ** (n // 2), 2**n))
        return total
    raise ValueError(f"which must be 'k2' or 'k3', got {which!r}")
