from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mahlerfold import poly
from mahlerfold.poly import (
    ExprError,
    Polynomial,
    RationalFunction,
    _list_mul,
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


def _convolution(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# coefficients at and beside the 1/2/4/8-byte slot edges, and one far past them
_EDGES = (2**7, 2**15, 2**31, 2**63 - 1, 2**63, 2**200)
_edge_ints = st.sampled_from(_EDGES).flatmap(lambda e: st.sampled_from([e, -e, e - 1, 1 - e]))
_coeffs = st.one_of(st.integers(-3, 3), st.integers(-(2**70), 2**70), _edge_ints)
# 9+ terms each, so both operands pass the schoolbook cutoff; some zero-tailed
_long_ints = st.tuples(st.lists(_coeffs, min_size=9, max_size=300), st.integers(0, 4)).map(
    lambda t: t[0] + [0] * t[1]
)


@given(_long_ints, _long_ints)
@settings(max_examples=150, deadline=None)
def test_kronecker_matches_schoolbook(a, b):
    out = _list_mul(a, b)
    assert out == _convolution(a, b)
    assert all(type(c) is int for c in out)


@pytest.mark.parametrize("k", [7, 15, 31, 63, 200])
@pytest.mark.parametrize("sign", [1, -1])
def test_kronecker_bounds_at_slot_edges(monkeypatch, k, sign):
    # 16 * m * 1 is the coefficient bound; with equal terms the middle
    # coefficient reaches it: 2^k - 16 still fits a k+1-bit slot, 2^k does not
    calls, kron = [], poly._kronecker_mul
    monkeypatch.setattr(poly, "_kronecker_mul", lambda a, b: calls.append(1) or kron(a, b))
    for m in (2 ** (k - 4) - 1, 2 ** (k - 4)):
        a, b = [sign * m] * 16, [1] * 16
        out = (P(a) * P(b)).coeffs
        assert list(out) == _convolution(a, b) and out[15] == sign * 16 * m
        assert all(type(c) is int for c in out)
    assert len(calls) == 2


@given(
    st.lists(st.integers(-50, 50), min_size=9, max_size=40),
    st.lists(st.fractions(-5, 5, max_denominator=6), min_size=9, max_size=40),
)
@settings(max_examples=60, deadline=None)
def test_fraction_operands_fall_through_to_schoolbook(ints, fracs):
    for a, b in ((ints, fracs), (fracs, ints), (fracs, fracs)):
        out = _list_mul(a, b)
        assert out == _convolution(a, b)
        assert all(type(c) is Fraction for c in out if c)
    two = (P([Fraction(2, 1)] * 9) * P(list(range(1, 10)))).coeffs
    assert all(type(c) is Fraction for c in two)


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
