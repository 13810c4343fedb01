"""Exact expectations for typical and weighted typical spherical k-faces.

All operations return :class:`~sphtess.exactnum.SqrtPiPoly` values.  The
typical-face formulas hold for every non-degenerate directional distribution
and are purely combinatorial; the weighted-face formulas hold in the
isotropic case only and are expressed through the A/B coefficient families
of :mod:`sphtess.combinat`.

The statistical dimension, the expected k-content H^k and the intersection
probabilities are functionals of the expected intrinsic volumes
E v_0..E v_k of the flavor: statdim = sum (j+1) E v_j, H^k = omega_{k+1} E v_k,
and every intersection probability is one spherical kinematic sum
2 sum_{k, i >= 2k} E v_{d-i+2k} E v'_i (``_kinematic``).

Conventions used throughout:
  * N = n - d + k is the reduced intensity after sectioning to S^k;
  * U_{l} = 0 for l > k, so v_k = U_k and v_{k-1} = U_{k-1};
  * U_0 = 1/2 holds almost surely and is returned directly (the weighted
    series formula is only valid for l >= 1);
  * the summand 0^2 * A[-1,-1] in the weighted formulas stands for 2/pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Iterable, List, Literal, Optional, Sequence, Tuple, Union

from .combinat import cells_count, coeff_A, coeff_B
from .exactnum import ONE, ZERO, SqrtPiPoly, gamma_half, sp_dot, sp_eval, sphere_surface

__all__ = [
    "ExpectationQuery",
    "EuclidQuery",
    "GAMMA_STAR",
    "ef_typical",
    "ef_weighted",
    "hk_typical_mean",
    "hk_weighted_mean",
    "u_typical",
    "u_weighted",
    "v_typical",
    "v_weighted",
    "v_minus1_typical",
    "v_minus1_weighted",
    "statdim",
    "statdim_closed",
    "euclid_v",
    "euclid_f_weighted",
    "euclid_limit_gap",
    "isect_prob_weighted",
    "isect_prob_typical",
    "isect_prob_typical_printed",
    "isect_prob_fixed",
    "identity_suite",
    "IdentityCheck",
    "evaluate_query",
]

Flavor = Literal["typical", "weighted"]
FLAVORS = ("typical", "weighted")

# The optional ExpectationQuery fields each quantity reads; every quantity
# reads n, d and k and has an exact value for both flavors.
QUANTITIES = {"f": ("l",), "U": ("l",), "v": ("l",), "vminus1": (), "statdim": (), "hk": (), "isect": ("m",)}


@dataclass(frozen=True)
class ExpectationQuery:
    """Shared request type for exact evaluation, simulation and comparison."""

    quantity: str
    flavor: Flavor
    n: int
    d: int
    k: int
    l: Optional[int] = None
    m: Optional[int] = None

    def validate(self) -> None:
        if self.quantity not in QUANTITIES:
            raise ValueError(f"unknown quantity {self.quantity!r}")
        exact_function(self.quantity, self.flavor)  # rejects an unknown flavor
        _check_face_indices(self.n, self.d, self.k, weighted=self.flavor == "weighted")
        reads = QUANTITIES[self.quantity]
        for name in ("l", "m"):
            if (getattr(self, name) is None) == (name in reads):
                verb = "needs" if name in reads else "does not read"
                raise ValueError(f"quantity {self.quantity!r} {verb} {name}")
        ls = l_values(self.quantity, self.k)
        if self.l is not None and self.l not in ls:
            raise ValueError(f"quantity {self.quantity!r} needs 0 <= l <= {len(ls) - 1} at k={self.k}, got l={self.l}")
        if "m" in reads and not 1 <= self.k == self.d < min(self.n, self.m):
            raise ValueError(f"quantity {self.quantity!r} needs k = d and n, m > d >= 1, got {self}")


def l_values(quantity: str, k: int) -> range:
    """The l a quantity that reads l takes at k: 0 <= l < k for f, 0 <= l <= k for U and v."""
    return range(k if quantity == "f" else k + 1)


GAMMA_STAR = "gamma_star"


@dataclass(frozen=True)
class EuclidQuery:
    d: int
    k: int
    l: int
    gamma: Union[Fraction, str] = GAMMA_STAR

    def validate(self) -> None:
        if not 0 <= self.l <= self.k <= self.d:
            raise ValueError(f"need 0 <= l <= k <= d, got {self}")
        if self.gamma != GAMMA_STAR:
            if not isinstance(self.gamma, (int, Fraction)) or self.gamma <= 0:
                raise ValueError("gamma must be a positive rational or gamma_star")


def _check_face_indices(
    n: int, d: int, k: int, weighted: bool, l: Optional[int] = None, ls: Optional[range] = None
) -> int:
    """N = n - d + k, after checking 0 <= k <= d, n against the flavor's minimum and,
    given the range ``ls`` of l (range(k) or range(k + 1)), l."""
    if not 0 <= k <= d:
        raise ValueError(f"need 0 <= k <= d, got k={k}, d={d}")
    if weighted and n < d + 1:
        raise ValueError(f"weighted formulas need n >= d+1, got n={n}")
    if not weighted and n < d - k:
        raise ValueError(f"typical formulas need n >= d-k, got n={n}")
    if ls is not None and not ls.start <= l < ls.stop:
        raise ValueError(f"need 0 <= l {'<' if ls.stop == k else '<='} k, got l={l}, k={k}")
    return n - d + k


def _weighted_prefactor(N: int) -> SqrtPiPoly:
    """pi^-N N!/2, the prefactor of the weighted formulas at reduced intensity N."""
    return SqrtPiPoly.pi_power(-N, Fraction(math.factorial(N), 2))


def _ba_series(M: int, cs: Iterable[int], L: int) -> SqrtPiPoly:
    """The weighted formulas' sum over c in cs of c^2 B{M, c+1} A[c-1, L].

    The c = 0 summand, 0^2 B{M, 1} A[-1, -1], stands for 2/pi B{M, 1}.
    """
    return sp_dot(
        (coeff_B(M, c + 1), coeff_A(c - 1, L).scale(c * c) if c else SqrtPiPoly.pi_power(-1, 2))
        for c in cs
    )


# ---------------------------------------------------------------------------
# Expected f-vectors.
# ---------------------------------------------------------------------------


def ef_typical(n: int, d: int, k: int, l: int) -> SqrtPiPoly:
    """Expected number of l-faces of the typical spherical k-face (any kappa)."""
    N = _check_face_indices(n, d, k, weighted=False, l=l, ls=range(k))
    if n < d - l:
        return ZERO  # an l-face lies on d - l of the n great hyperspheres
    val = (
        Fraction(2 ** (k - l))
        * math.comb(N, k - l)
        * cells_count(n - d + l, l)
        / cells_count(N, k)
    )
    return SqrtPiPoly.rational(val)


def ef_weighted(n: int, d: int, k: int, l: int) -> SqrtPiPoly:
    """Expected number of l-faces of the weighted typical k-face (isotropic)."""
    N = _check_face_indices(n, d, k, weighted=True, l=l, ls=range(k))
    pref = SqrtPiPoly.pi_power(
        d - l - n, Fraction(math.factorial(N), math.factorial(k - l))
    )
    return pref * _ba_series(N, (k - 2 * s - 1 for s in range(l // 2 + 1)), k - l - 2)


def hk_typical_mean(n: int, d: int, k: int) -> SqrtPiPoly:
    """Expected k-content of the typical k-face: omega_{k+1} E v_k(Z)."""
    return v_typical(n, d, k, k) * sphere_surface(k)  # v first: its index check raises first


def hk_weighted_mean(n: int, d: int, k: int) -> SqrtPiPoly:
    """Expected k-content of the weighted typical k-face: omega_{k+1} E v_k(W)."""
    return v_weighted(n, d, k, k) * sphere_surface(k)  # v first: its index check raises first


# ---------------------------------------------------------------------------
# Spherical Quermass integrals.
# ---------------------------------------------------------------------------


def u_typical(n: int, d: int, k: int, l: int) -> SqrtPiPoly:
    N = _check_face_indices(n, d, k, weighted=False, l=l, ls=range(k + 1))
    return SqrtPiPoly.rational(cells_count(N, k - l) / (2 * cells_count(N, k)))


def u_weighted(n: int, d: int, k: int, l: int) -> SqrtPiPoly:
    N = _check_face_indices(n, d, k, weighted=True, l=l, ls=range(k + 1))
    if l == 0:
        # U_0 = 1/2 almost surely; the series below only covers l >= 1.
        return SqrtPiPoly.rational(Fraction(1, 2))
    pref = _weighted_prefactor(N)
    return pref * _ba_series(N + l, (k - 2 * s - 1 for s in range((k - l) // 2 + 1)), l - 2)


# ---------------------------------------------------------------------------
# Spherical intrinsic volumes.
# ---------------------------------------------------------------------------


def v_typical(n: int, d: int, k: int, l: int) -> SqrtPiPoly:
    N = _check_face_indices(n, d, k, weighted=False, l=l, ls=range(k + 1))
    return SqrtPiPoly.rational(Fraction(math.comb(N, k - l)) / cells_count(N, k))


def v_weighted(n: int, d: int, k: int, l: int) -> SqrtPiPoly:
    N = _check_face_indices(n, d, k, weighted=True, l=l, ls=range(k + 1))
    pref = _weighted_prefactor(N)
    return pref * coeff_B(N + l, k) * coeff_A(k, l)


def _v_vector(flavor: Flavor, n: int, d: int, k: int) -> List[SqrtPiPoly]:
    """[E v_0, ..., E v_k] of the flavor's k-face."""
    vf = exact_function("v", flavor)
    _check_face_indices(n, d, k, weighted=flavor == "weighted")  # k < 0 would give no v to check it
    return [vf(n, d, k, j) for j in range(k + 1)]


def v_minus1_typical(n: int, d: int, k: int) -> SqrtPiPoly:
    """E v_{-1}(Z) = binom(N-1, k) / C(N, k): content of the polar of the typical face."""
    N = _check_face_indices(n, d, k, weighted=False)
    # at N = 0 the face is the whole S^k, whose polar is {0}
    return SqrtPiPoly.rational(Fraction(math.comb(N - 1, k) if N else 0) / cells_count(N, k))


def v_minus1_weighted(n: int, d: int, k: int) -> SqrtPiPoly:
    """E v_{-1}(W): content of the polar of the weighted face (isotropic)."""
    N = _check_face_indices(n, d, k, weighted=True)
    pref = _weighted_prefactor(N)
    return pref * _ba_series(N + 1, range(k + 1, N + 1, 2), -1)


# ---------------------------------------------------------------------------
# Statistical dimension.
# ---------------------------------------------------------------------------


def statdim(flavor: Flavor, n: int, d: int, k: int) -> SqrtPiPoly:
    """Expected statistical dimension of the cone spanned by the k-face: sum_j (j+1) E v_j."""
    return sp_dot((v, SqrtPiPoly.rational(j + 1)) for j, v in enumerate(_v_vector(flavor, n, d, k)))


def statdim_closed(flavor: Flavor, d: int, n: int) -> SqrtPiPoly:
    """Printed closed forms for the statistical dimension at k = d."""
    if flavor == "typical":
        polys = {
            2: ((1, 3, 6), (2, -2, 4)),
            3: ((1, 3, 14, 24), (2, -6, 16, 0)),
            4: ((1, 2, 23, 70, 120), (2, -12, 46, -36, 48)),
            5: ((1, 0, 35, 120, 444, 720), (2, -20, 110, -220, 368, 0)),
        }
        if d not in polys:
            raise ValueError(f"typical closed form only for d in 2..5, got {d}")
        if n < d + 1:
            raise ValueError(f"need n >= d+1, got n={n}")
        num_c, den_c = polys[d]
        num = sum(c * n ** (d - i) for i, c in enumerate(num_c))
        den = sum(c * n ** (d - i) for i, c in enumerate(den_c))
        return SqrtPiPoly.rational(Fraction(num, den))
    if flavor == "weighted":
        if n < d + 1:
            raise ValueError(f"need n >= d+1, got n={n}")
        if d == 2:
            return _statdim_weighted_d2(n)
        if d == 3:
            return _statdim_weighted_d3(n)
        raise ValueError(f"weighted closed form only for d in {{2, 3}}, got {d}")
    raise ValueError(f"unknown flavor {flavor!r}")


def _statdim_weighted_d2(n: int) -> SqrtPiPoly:
    bracket = ZERO
    for k in range(0, n + 1):
        if (n - k) % 2 != 0:
            continue
        sgn = (-1) ** ((n - k) // 2)
        bracket = bracket + SqrtPiPoly.pi_power(k, Fraction(sgn * (k + 2), math.factorial(k)))
    if n % 2 == 0:
        bracket = bracket + SqrtPiPoly.rational(2 * (-1) ** (n // 2))
    else:
        bracket = bracket + SqrtPiPoly.pi_power(1, (-1) ** ((n - 1) // 2))
    return SqrtPiPoly.rational(Fraction(1, 2)) + _weighted_prefactor(n) * bracket


def _statdim_weighted_d3(n: int) -> SqrtPiPoly:
    from .combinat import b_closed_form

    a31_twice = SqrtPiPoly.pi_power(-1, 4) + SqrtPiPoly.pi_power(1, Fraction(4, 3))
    combo = (
        b_closed_form(n, "k3")
        + a31_twice * b_closed_form(n + 1, "k3")
        + b_closed_form(n + 2, "k3").scale(12)
        + SqrtPiPoly.pi_power(-1, 32) * b_closed_form(n + 3, "k3")
    )
    return _weighted_prefactor(n) * combo


# ---------------------------------------------------------------------------
# Euclidean counterparts and the n -> infinity limit.
# ---------------------------------------------------------------------------


def _gamma_ratio(d: int) -> SqrtPiPoly:
    """Gamma((d+1)/2) / Gamma(d/2); always a monomial in sqrt(pi)."""
    return gamma_half(d + 1) / gamma_half(d)


def _gamma_value(q: EuclidQuery) -> SqrtPiPoly:
    if q.gamma == GAMMA_STAR:
        return _gamma_ratio(q.d) / SqrtPiPoly.sqrtpi_power(1)
    return SqrtPiPoly.rational(Fraction(q.gamma))


def euclid_v(flavor: Flavor, q: EuclidQuery) -> SqrtPiPoly:
    """Expected l-th Euclidean intrinsic volume of the typical / weighted
    typical k-face of a stationary isotropic Poisson hyperplane tessellation."""
    q.validate()
    if q.d < 1:
        raise ValueError(f"euclid_v needs d >= 1, got {q}")
    k, l = q.k, q.l
    # (2/gamma Gamma((d+1)/2)/Gamma(d/2))^l Gamma(l/2 + 1), times binom(k, l) or E f_{k-l}
    common = ((SqrtPiPoly.rational(2) / _gamma_value(q) * _gamma_ratio(q.d)) ** l) * gamma_half(l + 2)
    if flavor == "typical":
        return common.scale(math.comb(k, l))
    if flavor == "weighted":
        return common * euclid_f_weighted(k, l)
    raise ValueError(f"unknown flavor {flavor!r}")


def euclid_f_weighted(k: int, l: int) -> SqrtPiPoly:
    """E f_{k-l} of the weighted typical Euclidean k-face: pi^l / l! A[k,l]."""
    if not 0 <= l <= k:
        raise ValueError(f"need 0 <= l <= k, got l={l}, k={k}")
    return SqrtPiPoly.pi_power(l, Fraction(1, math.factorial(l))) * coeff_A(k, l)


def euclid_limit_gap(d: int, k: int, l: int, flavor: Flavor, n: int) -> SqrtPiPoly:
    """Exact prelimit gap n^l omega_{l+1} E v_l(face at n) minus the Euclidean value."""
    spherical = exact_function("v", flavor)(n, d, k, l).scale(Fraction(n**l)) * sphere_surface(l)
    limit = euclid_v(flavor, EuclidQuery(d=d, k=k, l=l, gamma=GAMMA_STAR))
    return spherical - limit


# ---------------------------------------------------------------------------
# Intersection probabilities.
# ---------------------------------------------------------------------------


def _kinematic(va: Sequence[SqrtPiPoly], vb: Sequence[SqrtPiPoly], d: int) -> SqrtPiPoly:
    """The spherical kinematic sum 2 sum_{k <= d/2, 2k <= i <= d} va[d-i+2k] vb[i]."""
    return sp_dot((va[d - i + 2 * k], vb[i]) for k in range(d // 2 + 1) for i in range(2 * k, d + 1)).scale(2)


def _isect_prob(flavor: Flavor, n: int, m: int, d: int) -> SqrtPiPoly:
    if d < 1 or n <= d or m <= d:
        raise ValueError(f"need n, m > d >= 1, got n={n}, m={m}, d={d}")
    return _kinematic(_v_vector(flavor, n, d, d), _v_vector(flavor, m, d, d), d)


def isect_prob_weighted(n: int, m: int, d: int) -> SqrtPiPoly:
    """P(weighted cells of two independent isotropic tessellations intersect)."""
    return _isect_prob("weighted", n, m, d)


def isect_prob_typical(n: int, m: int, d: int) -> SqrtPiPoly:
    """Same intersection probability for typical cells."""
    return _isect_prob("typical", n, m, d)


def isect_prob_typical_printed(n: int, m: int, d: int) -> SqrtPiPoly:
    """The printed d = 2, 3 rational functions; used as an independent oracle."""
    if d == 2:
        num = m * m + 2 * m * n - m + n * n - n + 2
        den = (m * m - m + 2) * (n * n - n + 2)
        return SqrtPiPoly.rational(Fraction(num, den))
    if d == 3:
        num = 3 * (m + n) * (m * m + 2 * m * n - 3 * m + n * n - 3 * n + 8)
        den = m * (m * m - 3 * m + 8) * n * (n * n - 3 * n + 8)
        return SqrtPiPoly.rational(Fraction(num, den))
    raise ValueError(f"printed forms exist for d in {{2, 3}}, got {d}")


def isect_prob_fixed(v: Sequence[SqrtPiPoly], n: int, d: int) -> SqrtPiPoly:
    """P(fixed polytope with intrinsic volumes v_0..v_d meets a weighted cell)."""
    if len(v) != d + 1:
        raise ValueError(f"need d+1 = {d + 1} intrinsic volumes, got {len(v)}")
    if n < d + 1:
        raise ValueError(f"need n >= d+1, got n={n}")
    return _kinematic(_v_vector("weighted", n, d, d), v, d)


# ---------------------------------------------------------------------------
# Exact identity suite.
# ---------------------------------------------------------------------------


@dataclass
class IdentityCheck:
    name: str
    params: Tuple
    ok: bool
    skipped: bool = False
    detail: str = ""


def identity_suite(
    grid: Iterable[Tuple[int, int, int, int]],
    mono_n_max_offset: int = 10,
) -> List[IdentityCheck]:
    """Exact verification of the Efron, U-v, monotonicity and closure identities.

    ``grid`` yields (n, d, k, l) tuples; entries outside a particular
    identity's precondition are reported as skipped rather than failed.
    """
    out: List[IdentityCheck] = []
    seen_ndk = set()
    for n, d, k, l in grid:
        if not (0 <= l <= k <= d) or n < d + 1:
            out.append(IdentityCheck("grid", (n, d, k, l), ok=True, skipped=True))
            continue

        # (i) Efron-type: E f_{k-l}(W_{n,d}^{(k)}) = 2 binom(n-d+k, l) E U_l(W_{n-l,d}^{(k)})
        if l >= 1 and n - l >= d + 1:
            lhs = ef_weighted(n, d, k, k - l)
            rhs = u_weighted(n - l, d, k, l).scale(2 * math.comb(n - d + k, l))
            out.append(IdentityCheck("efron", (n, d, k, l), ok=lhs == rhs))
        else:
            out.append(IdentityCheck("efron", (n, d, k, l), ok=True, skipped=True))

        # (ii) v = U - U_shift with U_{k+1} = U_{k+2} = 0
        for flavor, uf, vf in (
            ("typical", u_typical, v_typical),
            ("weighted", u_weighted, v_weighted),
        ):
            u_hi = uf(n, d, k, l + 2) if l + 2 <= k else ZERO
            ok = vf(n, d, k, l) == uf(n, d, k, l) - u_hi
            out.append(IdentityCheck(f"u_minus_v_{flavor}", (n, d, k, l), ok=ok))

        if (n, d, k) in seen_ndk:
            continue
        seen_ndk.add((n, d, k))

        # (iii) equality at n = d+1 plus strict numeric inequality beyond
        if k >= 1:
            eq = ef_weighted(d + 1, d, k, 0) == ef_typical(d + 1, d, k, 0)
            out.append(IdentityCheck("monotone_f0_equality", (d, k), ok=eq))
            mono_ok = True
            for nn in range(d + 2, d + 2 + mono_n_max_offset):
                pref = cells_count(nn - d + k, k) / (
                    Fraction(2**k) * cells_count(nn - d, k)
                )
                lhs_v = sp_eval(ef_weighted(nn, d, k, 0), 30)
                rhs_v = sp_eval(ef_typical(nn, d, k, 0).scale(pref), 30)
                if not lhs_v > rhs_v:
                    mono_ok = False
            out.append(IdentityCheck("monotone_f0_strict", (d, k), ok=mono_ok))

        # (iv), (v) sum_{i=-1}^{k} E v_i = 1, for W and for Z
        for flavor in ("weighted", "typical"):
            vminus1 = exact_function("vminus1", flavor)(n, d, k)
            total = sp_dot((x, ONE) for x in [vminus1, *_v_vector(flavor, n, d, k)])
            out.append(IdentityCheck(f"v_closure_{flavor}", (n, d, k), ok=total == ONE))
    return out


# ---------------------------------------------------------------------------
# Query dispatcher (CLI surface).
# ---------------------------------------------------------------------------


# Per quantity, its exact value for typical and for weighted faces, each
# called with n, d, k and the fields QUANTITIES says it reads.
_EXACT = {
    "f": (ef_typical, ef_weighted),
    "U": (u_typical, u_weighted),
    "v": (v_typical, v_weighted),
    "vminus1": (v_minus1_typical, v_minus1_weighted),
    "statdim": (partial(statdim, "typical"), partial(statdim, "weighted")),
    "hk": (hk_typical_mean, hk_weighted_mean),
    "isect": (
        lambda n, d, k, m: isect_prob_typical(n, m, d),
        lambda n, d, k, m: isect_prob_weighted(n, m, d),
    ),
}


def exact_function(quantity: str, flavor: Flavor):
    """The exact function of ``quantity`` for ``flavor``, from ``_EXACT``."""
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}")
    return _EXACT[quantity][FLAVORS.index(flavor)]


def evaluate_query(q: ExpectationQuery) -> SqrtPiPoly:
    q.validate()
    exact = exact_function(q.quantity, q.flavor)
    return exact(q.n, q.d, q.k, *(getattr(q, name) for name in QUANTITIES[q.quantity]))
