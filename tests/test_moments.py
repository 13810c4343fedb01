"""Closed-form expectations against printed values and exact identities."""

import itertools
import math
from fractions import Fraction

import pytest

from sphtess.combinat import cells_count
from sphtess.exactnum import ONE, ZERO, SqrtPiPoly, sp_eval, sp_parse
from sphtess.moments import (
    FLAVORS,
    GAMMA_STAR,
    QUANTITIES,
    EuclidQuery,
    ExpectationQuery,
    ef_typical,
    ef_weighted,
    euclid_f_weighted,
    euclid_limit_gap,
    euclid_v,
    evaluate_query,
    hk_typical_mean,
    hk_weighted_mean,
    identity_suite,
    isect_prob_fixed,
    isect_prob_typical,
    isect_prob_typical_printed,
    isect_prob_weighted,
    statdim,
    statdim_closed,
    u_typical,
    u_weighted,
    v_minus1_typical,
    v_minus1_weighted,
    v_typical,
    v_weighted,
)


def test_ef_typical_examples():
    assert ef_typical(4, 2, 2, 0) == sp_parse("24/7")
    assert ef_typical(5, 3, 3, 2) == sp_parse("14/3")
    assert ef_typical(3, 2, 2, 0) == sp_parse("3")
    with pytest.raises(ValueError):
        ef_typical(4, 2, 2, 2)


def test_ef_weighted_examples():
    assert ef_weighted(4, 2, 2, 0) == sp_parse("6 - 24*pi^-2")
    assert ef_weighted(5, 3, 3, 0) == sp_parse("20/3 - 10*pi^-2")
    assert ef_weighted(3, 2, 2, 0) == sp_parse("3")
    with pytest.raises(ValueError):
        ef_weighted(2, 2, 2, 0)  # needs n >= d+1


def test_hk_typical_mean():
    assert hk_typical_mean(4, 2, 1) == sp_parse("1/3*pi^1")
    assert hk_typical_mean(3, 2, 0) == ONE
    for n, d in [(5, 2), (6, 3)]:
        expect = SqrtPiPoly.pi_power(0, Fraction(1) / cells_count(n, d))
        from sphtess.exactnum import sphere_surface

        assert hk_typical_mean(n, d, d) == sphere_surface(d) * expect


def test_u_values():
    assert u_typical(3, 2, 2, 1) == sp_parse("3/8")
    assert u_typical(4, 3, 3, 2) == sp_parse("1/4")
    assert u_weighted(3, 2, 2, 1) == sp_parse("3/4 - 3*pi^-2")
    assert u_weighted(4, 3, 3, 1) == sp_parse("8/15 - 1/2*pi^-2")
    assert u_weighted(4, 3, 3, 3) == sp_parse("1/5 + 3/2*pi^-4 - pi^-2")
    for n, d, k in [(5, 2, 2), (6, 3, 2), (7, 3, 3)]:
        assert u_typical(n, d, k, 0) == sp_parse("1/2")
        assert u_weighted(n, d, k, 0) == sp_parse("1/2")


def test_v_values():
    assert v_typical(3, 2, 2, 1) == sp_parse("3/8")
    assert v_typical(4, 3, 3, 0) == sp_parse("1/4")
    assert v_typical(3, 2, 2, 2) == sp_parse("1/8")
    assert v_weighted(4, 3, 3, 0) == sp_parse("3/2*pi^-2")
    assert v_weighted(4, 2, 2, 0) == sp_parse("6*pi^-2 - 24*pi^-4")
    # Relation v_l = U_l - U_{l+2} forces the Quermass value, not the printed
    # appendix C cell:
    assert v_weighted(3, 2, 2, 1) == u_weighted(3, 2, 2, 1)


def test_v_minus1():
    assert v_minus1_weighted(4, 2, 2) == sp_parse("6*pi^-2 - 1/2")
    with pytest.raises(ValueError):
        v_minus1_weighted(2, 2, 2)
    # closure picks up v_{-1} exactly
    total = v_minus1_weighted(5, 2, 2)
    for j in range(3):
        total = total + v_weighted(5, 2, 2, j)
    assert total == ONE
    # typical faces: binom(N-1, k) / C(N, k), and 0 when no hypersphere cuts S^k
    assert v_minus1_typical(4, 2, 2) == sp_parse("3/14")
    assert v_minus1_typical(6, 3, 2) == sp_parse("3/11")
    assert v_minus1_typical(2, 2, 0) == ZERO and v_typical(2, 2, 0, 0) == ONE


def test_statdim():
    assert statdim("typical", 3, 2, 2) == sp_parse("3/2")
    assert statdim("weighted", 3, 2, 2) == sp_parse("3 - 12*pi^-2")
    assert statdim("typical", 4, 3, 3) == sp_parse("2")


def test_unknown_flavor_is_rejected():
    # the weighted value was once returned for any flavor but "typical"
    with pytest.raises(ValueError, match="unknown flavor 'bogus'"):
        statdim("bogus", 4, 2, 2)
    with pytest.raises(ValueError, match="unknown flavor 'bogus'"):
        euclid_limit_gap(2, 2, 1, "bogus", 25)


def test_statdim_closed_matches_sum():
    assert statdim_closed("typical", 2, 3) == sp_parse("3/2")
    assert statdim_closed("weighted", 2, 3) == sp_parse("3 - 12*pi^-2")
    for d in (2, 3, 4, 5):
        for n in range(d + 1, d + 21):
            assert statdim_closed("typical", d, n) == statdim("typical", n, d, d)
    for d in (2, 3):
        for n in range(d + 1, d + 13):
            assert statdim_closed("weighted", d, n) == statdim("weighted", n, d, d)
    with pytest.raises(ValueError):
        statdim_closed("typical", 6, 8)
    with pytest.raises(ValueError):
        statdim_closed("weighted", 4, 6)


def test_euclid_v():
    assert euclid_v("typical", EuclidQuery(3, 2, 0, Fraction(7, 3))) == ONE
    got = euclid_v("typical", EuclidQuery(2, 2, 2, Fraction(1, 2)))
    assert got == sp_parse("4*pi^1")
    # weighted d=k=l against the classical zero-cell volume
    from sphtess.exactnum import gamma_half

    def kappa(j):
        return SqrtPiPoly.sqrtpi_power(j) / gamma_half(j + 2)

    for d in (1, 2, 3, 4):
        g = Fraction(3, 7)
        lhs = euclid_v("weighted", EuclidQuery(d, d, d, g))
        inner = kappa(d).scale(Fraction(d)) / (kappa(d - 1).scale(2 * g))
        assert lhs == kappa(d).scale(math.factorial(d)) * inner**d
    with pytest.raises(ValueError):
        euclid_v("typical", EuclidQuery(2, 2, 2, Fraction(-1)))


def test_euclid_f_weighted():
    assert euclid_f_weighted(2, 0) == ONE
    assert euclid_f_weighted(2, 1) == sp_parse("1/2*pi^2")
    assert euclid_f_weighted(2, 2) == sp_parse("1/2*pi^2")


def test_euclid_limit_gap_trend():
    for flavor in ("typical", "weighted"):
        for d in (1, 2, 3):
            for k in range(0, d + 1):
                for l in range(0, k + 1):
                    gaps = [
                        abs(float(sp_eval(euclid_limit_gap(d, k, l, flavor, n), 20)))
                        for n in (25, 50, 100, 200)
                    ]
                    if all(g == 0.0 for g in gaps):
                        continue  # prelimit equals the limit identically
                    assert all(gaps[i] > gaps[i + 1] for i in range(3)), (flavor, d, k, l)


def test_isect_probabilities():
    assert isect_prob_weighted(3, 3, 2) == sp_parse("13/8 - 9*pi^-2")
    assert isect_prob_weighted(4, 4, 3) == sp_parse(
        "16/15 + 9*pi^-6 - 3*pi^-4 - 3*pi^-2"
    )
    assert isect_prob_weighted(3, 4, 2) == sp_parse("2 + 144*pi^-6 - 15*pi^-2")
    assert isect_prob_typical(3, 3, 2) == sp_parse("1/2")
    for n in range(3, 13):
        for m in range(3, 13):
            assert isect_prob_typical(n, m, 2) == isect_prob_typical_printed(n, m, 2)
    for n in range(4, 13):
        for m in range(4, 13):
            assert isect_prob_typical(n, m, 3) == isect_prob_typical_printed(n, m, 3)
    with pytest.raises(ValueError):
        isect_prob_weighted(2, 3, 2)


def test_isect_symmetry_and_range():
    for d in (2, 3):
        for n in range(d + 1, d + 6):
            for m in range(d + 1, d + 6):
                w = isect_prob_weighted(n, m, d)
                assert w == isect_prob_weighted(m, n, d)
                x = float(sp_eval(w, 20))
                t = float(sp_eval(isect_prob_typical(n, m, d), 20))
                assert 0.0 < x <= 1.0 and 0.0 < t <= 1.0


def test_isect_weighted_equals_kinematic_recomposition():
    for d in (2, 3):
        for n in range(d + 1, d + 6):
            for m in range(d + 1, d + 6):
                total = ZERO
                for k in range(d // 2 + 1):
                    for i in range(2 * k, d + 1):
                        total = total + v_weighted(n, d, d, d - i + 2 * k) * v_weighted(
                            m, d, d, i
                        )
                assert total.scale(2) == isect_prob_weighted(n, m, d)


def test_isect_fixed_polytope():
    for n, m, d in [(3, 4, 2), (4, 5, 3), (5, 3, 2)]:
        v = [v_weighted(m, d, d, i) for i in range(d + 1)]
        assert isect_prob_fixed(v, n, d) == isect_prob_weighted(n, m, d)
    assert isect_prob_fixed([ZERO] * 3, 4, 2).is_zero()
    with pytest.raises(ValueError):
        isect_prob_fixed([ZERO] * 2, 4, 2)


def test_isect_fixed_octant_value():
    # spherical octant of S^2: v_0 = 3/8 - ... use exact conic values of the
    # nonnegative orthant cone in R^3: v = (1/8, 3/8, 3/8, 1/8) shifted to
    # spherical indices v_{-1..2}; here v_0..v_2 = (3/8, 3/8, 1/8).
    v = [sp_parse("3/8"), sp_parse("3/8"), sp_parse("1/8")]
    val = isect_prob_fixed(v, 3, 2)
    x = float(sp_eval(val, 20))
    assert 0.0 < x <= 1.0


def test_positivity_over_grid():
    for d in range(1, 6):
        for k in range(0, d + 1):
            for n in range(d + 1, d + 13):
                for l in range(0, k + 1):
                    for fn in (v_typical, v_weighted, u_typical, u_weighted):
                        x = float(sp_eval(fn(n, d, k, l), 20))
                        assert 0.0 < x <= 1.0, (fn.__name__, n, d, k, l)
                for l in range(0, k):
                    for fn in (ef_typical, ef_weighted):
                        assert float(sp_eval(fn(n, d, k, l), 20)) > 0.0


def test_hk_vs_uk_identity():
    # E H^k(Z^{(k)}) = omega_{k+1} E U_k(Z^{(k)}): C(N,0) = 2 absorbs the half
    from sphtess.exactnum import sphere_surface

    for d in (2, 3, 4):
        for k in range(1, d + 1):
            for n in range(d + 1, d + 6):
                lhs = sphere_surface(k) * u_typical(n, d, k, k).scale(2)
                N = n - d + k
                rhs = hk_typical_mean(n, d, k).scale(cells_count(N, 0))
                assert lhs == rhs


def test_identity_suite_green():
    grid = [
        (n, d, k, l)
        for d in range(1, 5)
        for k in range(0, d + 1)
        for l in range(0, k + 1)
        for n in range(d + 1, d + 9)
    ]
    results = identity_suite(grid)
    bad = [r for r in results if not r.ok]
    assert not bad, bad[:5]


def test_evaluate_query_dispatch():
    q = ExpectationQuery("f", "typical", 4, 2, 2, 0)
    assert evaluate_query(q) == sp_parse("24/7")
    q = ExpectationQuery("isect", "weighted", 3, 2, 2, m=3)
    assert evaluate_query(q) == sp_parse("13/8 - 9*pi^-2")
    with pytest.raises(ValueError):
        evaluate_query(ExpectationQuery("f", "typical", 4, 2, 2))  # missing l
    # every quantity has both flavors: E H^k(W) = omega_{k+1} E v_k(W)
    q = ExpectationQuery("hk", "weighted", 6, 3, 2)
    assert evaluate_query(q) == hk_weighted_mean(6, 3, 2) == sp_parse("2*pi^1 - 40*pi^-1 + 240*pi^-3")
    assert evaluate_query(ExpectationQuery("vminus1", "typical", 6, 3, 2)) == sp_parse("3/11")
    with pytest.raises(ValueError):
        evaluate_query(ExpectationQuery("nope", "typical", 4, 2, 2, 0))
    # a field the quantity does not read is an error, as is isect off k = d
    for bad, match in (
        (ExpectationQuery("statdim", "typical", 5, 2, 2, l=1), "does not read l"),
        (ExpectationQuery("f", "typical", 5, 2, 2, 1, m=9), "does not read m"),
        (ExpectationQuery("isect", "typical", 4, 2, 2, l=0, m=4), "does not read l"),
        (ExpectationQuery("isect", "weighted", 4, 2, 2), "needs m"),
        (ExpectationQuery("isect", "weighted", 4, 2, 1, m=4), "needs k = d"),
        (ExpectationQuery("isect", "typical", 4, 2, 2, m=2), "needs k = d and n, m > d"),
        (ExpectationQuery("isect", "typical", 2, 0, 0, m=2), "needs k = d and n, m > d >= 1"),
    ):
        with pytest.raises(ValueError, match=match):
            evaluate_query(bad)


def test_every_validated_query_has_an_exact_value():
    # validation decides the domain: a query it accepts never fails in its formula
    checked = 0
    for d in range(5):
        for n, k, quantity, flavor in itertools.product(range(d + 4), range(d + 1), QUANTITIES, FLAVORS):
            ls = range(-1, k + 2) if "l" in QUANTITIES[quantity] else [None]
            ms = range(d + 4) if "m" in QUANTITIES[quantity] else [None]
            for l, m in itertools.product(ls, ms):
                query = ExpectationQuery(quantity, flavor, n, d, k, l, m)
                try:
                    query.validate()
                except ValueError:
                    continue
                evaluate_query(query)
                checked += 1
    assert checked > 1000
    # an l-face lies on d - l hyperspheres: 3 great 3-spheres in S^4 leave no vertex
    fvec = [evaluate_query(ExpectationQuery("f", "typical", 3, 4, 4, l)) for l in range(4)]
    assert fvec == [SqrtPiPoly.rational(x) for x in (0, 1, 3, 3)]
