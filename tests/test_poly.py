from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mahlerfold.poly import (
    ExprError,
    Polynomial,
    RationalFunction,
    parse_poly,
    parse_rational,
)

P = Polynomial


def test_difference_of_squares():
    assert P([1, 0, 1]) * P([1, 0, -1]) == P([1, 0, 0, 0, -1])


def test_gcd_common_root():
    # q^2-1 and q^3-1 share the root q=1
    assert P([-1, 0, 1]).gcd(P([-1, 0, 0, 1])) == P([-1, 1])


def test_divmod_example():
    # (1+x+x^2+x^4+x^5) / (1+x^2+x^4): quotient x+1, remainder -x^3
    num = P([1, 1, 1, 0, 1, 1])
    den = P([1, 0, 1, 0, 1])
    q, r = divmod(num, den)
    assert q == P([1, 1])
    assert r == P([0, 0, 0, -1])
    assert q * den + r == num


def test_divmod_by_zero():
    with pytest.raises(ZeroDivisionError):
        divmod(P([1]), P.zero())


def test_substitute_power():
    assert P([1, 1]).substitute_power(2) == P([1, 0, 1])
    assert P([5]).substitute_power(7) == P([5])


def test_reverse():
    p = P([1, 2, 3])
    assert p.reverse(2) == P([3, 2, 1])
    assert p.reverse(4) == P([0, 0, 3, 2, 1])
    with pytest.raises(ValueError):
        p.reverse(1)


def test_evaluate_horner():
    p = P([1, -2, 3])
    assert p(Fraction(1, 2)) == 1 - 2 * Fraction(1, 2) + 3 * Fraction(1, 4)


coeffs = st.lists(st.integers(-30, 30), min_size=0, max_size=8)


@given(coeffs, coeffs, coeffs)
@settings(max_examples=150, deadline=None)
def test_ring_axioms(a, b, c):
    pa, pb, pc = P(a), P(b), P(c)
    assert pa + pb == pb + pa
    assert pa * pb == pb * pa
    assert (pa + pb) * pc == pa * pc + pb * pc
    assert (pa * pb) * pc == pa * (pb * pc)


@given(coeffs, coeffs)
@settings(max_examples=120, deadline=None)
def test_divmod_roundtrip(a, b):
    pa, pb = P(a), P(b)
    if not pb:
        return
    q, r = divmod(pa, pb)
    assert q * pb + r == pa
    assert r.degree < pb.degree or r.is_zero()


@given(coeffs, coeffs)
@settings(max_examples=100, deadline=None)
def test_gcd_divides_both(a, b):
    pa, pb = P(a), P(b)
    if not pa and not pb:
        return
    g = pa.gcd(pb)
    if pa:
        assert pa % g == P.zero()
    if pb:
        assert pb % g == P.zero()


def test_kronecker_matches_schoolbook():
    a = P([3, -7, 0, 11, -2])
    b = P([-5, 0, 4, 9])
    frac_a = P([Fraction(c) for c in a.coeffs])
    frac_b = P([Fraction(c) for c in b.coeffs])
    assert (a * b).coeffs == tuple(int(c) for c in (frac_a * frac_b).coeffs)


def test_rational_function_normalization():
    r = RationalFunction(P([0, 2]), P([0, 0, 2]))  # 2x / 2x^2 = 1/x
    assert r.num == P([1])
    assert r.den == P([0, 1])


def test_rational_function_field_ops():
    x = RationalFunction.x()
    one = RationalFunction.constant(1)
    v = one / (one + x) + one / (one - x)
    assert v == RationalFunction(P([2]), P([1, 0, -1]))


def test_rational_eval_pole():
    r = RationalFunction(P([1]), P([-1, 1]))
    with pytest.raises(ZeroDivisionError):
        r(Fraction(1))


def test_parse_rational():
    assert parse_poly("x^2-2") == P([-2, 0, 1])
    assert parse_rational("q/(1-q)^2") == RationalFunction(P([0, 1]), P([1, -2, 1]))
    assert parse_rational("1/(1-2*q)") == RationalFunction(P([1]), P([1, -2]))
    with pytest.raises(ExprError):
        parse_poly("x + y")
    with pytest.raises(ExprError):
        parse_poly("1/(1-x)")
    with pytest.raises(ExprError, match="unexpected end of expression"):
        parse_rational("x^")
