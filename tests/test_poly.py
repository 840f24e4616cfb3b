import importlib.util
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mahlerfold import poly
from mahlerfold.identities import FOLD_CHECKS
from mahlerfold.poly import (
    ExprError,
    Polynomial,
    RationalFunction,
    _list_mul,
    parse_poly,
    parse_rational,
)
from mahlerfold.quadfield import GaussianRational, QuadNum, _Quadratic
from mahlerfold.series import TruncatedSeries

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


# coefficients at and beside the 1- to 8-byte slot edges, and one far past them
_EDGES = (2**7, 2**15, 2**23, 2**31, 2**39, 2**47, 2**55, 2**63 - 1, 2**63, 2**200)
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
    square = _list_mul(a, a)  # one operand twice: packed once and squared
    assert square == _convolution(a, a)
    assert all(type(c) is int for c in square)


@pytest.mark.parametrize("k", [7, 15, 23, 31, 39, 47, 55, 63, 200])
@pytest.mark.parametrize("sign", [1, -1])
def test_kronecker_bounds_at_slot_edges(monkeypatch, k, sign):
    # 16 * m * 1 is the coefficient bound (Cauchy-Schwarz is tight for equal
    # terms) and the middle coefficient reaches it: 2^k - 16 still fits a
    # k+1-bit slot, 2^k does not
    calls, kron = [], poly._kronecker_mul
    monkeypatch.setattr(poly, "_kronecker_mul", lambda a, b: calls.append(1) or kron(a, b))
    for m in (2 ** (k - 4) - 1, 2 ** (k - 4)):
        a, b = [sign * m] * 16, [1] * 16
        out = (P(a) * P(b)).coeffs
        assert list(out) == _convolution(a, b) and out[15] == sign * 16 * m
        assert all(type(c) is int for c in out)
    assert len(calls) == 2


@pytest.mark.parametrize("t", [2**15 - 1, 2**15])
def test_kronecker_bound_tight_on_sparse_operands(t):
    # a 0/1 list with t ones times its reversal: the middle coefficient is
    # sum a_i^2 = t, exactly the Cauchy-Schwarz bound, on the 2/3-byte edge
    ones = set(random.Random(t).sample(range(3 * t), t))
    a = [int(i in ones) for i in range(3 * t)]
    assert poly._slot_bytes(a, a[::-1]) == (2 if t < 2**15 else 3)
    out = _list_mul(a, a[::-1])
    assert out[len(a) - 1] == max(out) == t and min(out) == 0 and sum(out) == t * t


def test_fold_deep_products_follow_the_column_walk(monkeypatch):
    # the rho-theorem n = 16 check walks each rule from the right, so no
    # product has two operands of the top level's size (about 21845 terms);
    # its largest products pair a ~10923-term column with 0/1 coefficients
    # against one of at most 32769 terms, whose bound fits 1- or 2-byte slots
    widths, slot_bytes = [], poly._slot_bytes

    def spy(a, b):
        widths.append((min(len(a), len(b)), slot_bytes(a, b)))
        return widths[-1][1]

    monkeypatch.setattr(poly, "_slot_bytes", spy)
    assert FOLD_CHECKS["rho-theorem"].run(16).holds
    assert not [w for short, w in widths if short >= 21843]
    top = [w for short, w in widths if short >= 10920]
    assert top and max(top) <= 2


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


def _schoolbook(a, b):
    """The general path's loop: each nonzero x*y added onto an int 0, zeros left as int 0."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if x and y:
                out[i + j] = out[i + j] + x * y
    return out


def _same(out, ref):
    assert list(out) == list(ref)
    assert [type(c) for c in out] == [type(c) for c in ref]


_fields = st.one_of(
    st.integers(-3, 3),
    st.fractions(-3, 3, max_denominator=4),
    st.builds(QuadNum, st.fractions(-2, 2, max_denominator=3), st.integers(-2, 2)),
)
_dense = st.one_of(
    st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=40),
    st.lists(st.fractions(-3, 3, max_denominator=4), min_size=1, max_size=20),
    st.lists(_fields, min_size=1, max_size=20),
).map(lambda c: P(c).coeffs or (1,))
_terms = st.sampled_from([1, -1, 2, -2, Fraction(1), Fraction(-2, 3), QuadNum(1, 1), QuadNum(0, -1)])
_single = st.builds(lambda c, k: (0,) * k + (c,), _terms, st.integers(0, 40))


@given(_single, _dense, st.booleans())
@settings(max_examples=200, deadline=None)
def test_single_term_products_match_schoolbook(term, dense, term_first):
    # c*x^k times a polynomial is a shift: same values, same coefficient
    # types and no trailing zeros, whichever side the single term is on
    a, b = (term, dense) if term_first else (dense, term)
    ref = _schoolbook(a, b)
    _same(_list_mul(a, b), ref)
    product = (P(a) * P(b)).coeffs
    _same(product, ref)
    assert product[-1]


@given(_dense, _dense)
@settings(max_examples=100, deadline=None)
def test_dense_products_match_schoolbook(a, b):
    ref = _schoolbook(a, b)
    _same(_list_mul(a, b), ref)
    assert (P(a) * P(b)).coeffs[-1]


@given(_dense, st.sampled_from([0, 1, -1, 2, Fraction(1), Fraction(-1, 2), QuadNum(1, 1)]))
@settings(max_examples=100, deadline=None)
def test_scalar_products_match_termwise(coeffs, s):
    p = P(coeffs)
    ref = P([c * s for c in coeffs]).coeffs
    for product in (p * s, s * p):
        _same(product.coeffs, ref)
    if type(s) is int and s in (0, 1):
        assert (p * s is p) == (s == 1) and not (p * 0).coeffs


def test_single_term_operand_skips_kronecker(monkeypatch):
    def refuse(a, b):
        raise AssertionError(f"Kronecker product of {len(a)} x {len(b)} coefficients")

    monkeypatch.setattr(poly, "_kronecker_mul", refuse)
    dense = P(range(-20, 20))
    for k, c in ((0, -1), (30, 1), (50, -1), (9, 3)):
        expected = (0,) * k + tuple(c * v for v in dense.coeffs)
        assert (dense * P.monomial(k, c)).coeffs == expected == (P.monomial(k, c) * dense).coeffs


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


# -- the one exact-element protocol -------------------------------------------


def test_float_over_rational_function_is_type_error():
    # a float does not embed, so both operand orders decline cleanly
    with pytest.raises(TypeError):
        2.5 / RationalFunction.x()
    with pytest.raises(TypeError):
        RationalFunction.x() / 2.5


_RF = RationalFunction(P([1, 1]), P([1, 0, 1]))
_P = P([1, 2, 3])
_TS = TruncatedSeries([1, 2, 3, 4])


@pytest.mark.parametrize(
    "left, right, expected",
    [
        (2, P([0, 1]), P([2, -1])),
        (Fraction(1, 3), P([0, 1]), P([Fraction(1, 3), -1])),
        (_P, P([0, 1]), P([1, 1, 3])),
        (2, _RF, RationalFunction(P([1, -1, 2]), P([1, 0, 1]))),
        (Fraction(1, 3), _RF, RationalFunction(P([Fraction(-2, 3), -1, Fraction(1, 3)]), _RF.den)),
        # Polynomial's coercion declines a RationalFunction, so its reflected method runs
        (_P, _RF, RationalFunction(P([0, 1, 4, 2, 3]), P([1, 0, 1]))),
        (2, _TS, TruncatedSeries([1, -2, -3, -4])),
        (Fraction(1, 3), _TS, TruncatedSeries([Fraction(-2, 3), -2, -3, -4])),
        (_P, _TS, TruncatedSeries([0, 0, 0, -4])),
        (2, QuadNum(1, 2), QuadNum(1, -2)),
        (Fraction(1, 3), QuadNum(1, 2), QuadNum(Fraction(-2, 3), -2)),
        (_P, QuadNum(1, 2), P([QuadNum(0, -2), 2, 3])),
        (2, GaussianRational(3, 4), GaussianRational(-1, -4)),
        (Fraction(1, 3), GaussianRational(3, 4), GaussianRational(Fraction(-8, 3), -4)),
        (_P, GaussianRational(3, 4), P([GaussianRational(-2, -4), 2, 3])),
    ],
)
def test_reflected_subtraction(left, right, expected):
    result = left - right
    assert type(result) is type(expected) and result == expected


def test_subtraction_and_immutability_live_on_exact_base():
    classes = (P, RationalFunction, TruncatedSeries, _Quadratic, QuadNum, GaussianRational)
    for cls in classes:
        assert issubclass(cls, poly._Exact)
        assert not {"__sub__", "__rsub__", "__setattr__"} & set(vars(cls))
    for value in (P([1]), RationalFunction.x(), TruncatedSeries([1, 2])):
        with pytest.raises(AttributeError, match=f"{type(value).__name__} is immutable"):
            value.order = 3


def test_power_is_square_and_multiply():
    x = P([0, 1])
    assert (x + 1) ** 5 == P([1, 5, 10, 10, 5, 1])
    assert (x + 1) ** 0 == P.one()
    assert poly._power(Fraction(2, 3), 10, 1) == Fraction(2**10, 3**10)
    with pytest.raises(ValueError):
        x ** -1


@pytest.mark.parametrize("text, message", [
    ("x^99999999999", "power's coefficient count 100000000000 is over the cap of 2^24 = 16777216"),
    ("2^99999999999", "power's bits 99999999999 is over the cap of 2^20 = 1048576"),
    ("(1+x)^100000000", "power's coefficient count 100000001 is over the cap of 2^24 = 16777216"),
    ("1/(1-q^100000000)", "power's coefficient count 100000001 is over the cap of 2^24 = 16777216"),
    ("(x/3)^1048577", "power's bits 2097154 is over the cap of 2^20 = 1048576"),
    ("(1+x)^1000000", "power's bits 1000001000000 is over the cap of 2^20 = 1048576"),
])
def test_powers_past_a_cap_are_refused_before_any_product(text, message):
    with pytest.raises(ValueError) as info:
        parse_rational(text)
    assert str(info.value) == message


@given(st.lists(st.fractions(-40, 40, max_denominator=30), min_size=1, max_size=5), st.integers(0, 12))
@settings(max_examples=60, deadline=None)
def test_power_size_bound_holds(coeffs, n):
    # |c| <= 2^bound for every numerator and denominator c of p^n, with the
    # bound that __pow__ costs: n * ceil(log2 max(||P||_1, d)) for p = P/d
    p = P(coeffs)
    d = lcm(*(c.denominator for c in p.coeffs))
    bound = n * (max(int(sum(map(abs, p.coeffs)) * d), d) - 1).bit_length()
    for c in map(Fraction, (p**n).coeffs):
        assert max(c.numerator.bit_length(), c.denominator.bit_length()) <= bound + 1


def test_parser_nesting_is_bounded():
    deepest = poly.MAX_NESTING
    assert parse_poly("(" * deepest + "x" + ")" * deepest) == P([0, 1])
    assert parse_poly("-" * deepest + "x") == P([0, 1])
    for text in ("(" * (deepest + 1) + "x" + ")" * (deepest + 1), "-" * (deepest + 1) + "x",
                 "(" * 2000 + "x" + ")" * 2000, "-" * 5000 + "x"):
        with pytest.raises(ExprError, match=f"nested more than {deepest} deep"):
            parse_rational(text)


class _Counted:
    """A ring element that records each product it takes part in."""

    def __init__(self, log):
        self.log = log

    def __mul__(self, other):
        self.log.append(other)
        return self


@pytest.mark.parametrize("n, products", [(0, 0), (1, 0), (2, 1), (5, 3), (8, 3)])
def test_power_makes_fewest_products(n, products):
    log = []
    poly._power(_Counted(log), n, _Counted(log))
    assert len(log) == products


# -- Polynomial.gcd against sympy ----------------------------------------------


_needs_sympy = pytest.mark.skipif(
    importlib.util.find_spec("sympy") is None, reason="sympy is not installed"
)


def _to_sympy(p: Polynomial):
    import sympy

    return sympy.Poly(list(reversed(p.coeffs)) or [0], sympy.Symbol("x"), domain="QQ")


def _from_sympy(p) -> Polynomial:
    return P([Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs())])


def _sympy_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """The monic gcd over Q from sympy."""
    return _from_sympy(_to_sympy(a).gcd(_to_sympy(b)))


_gcd_ints = st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=14)
_gcd_fracs = st.lists(st.fractions(-20, 20, max_denominator=50), min_size=1, max_size=10)


@_needs_sympy
@given(_gcd_ints, _gcd_ints)
@settings(max_examples=80, deadline=None)
def test_gcd_matches_sympy_coprime(a, b):
    # random integer polynomials are almost always coprime: the mod-p shortcut
    pa, pb = P(a), P(b)
    if pa or pb:
        assert pa.gcd(pb) == _sympy_gcd(pa, pb)


@_needs_sympy
@given(_gcd_ints, _gcd_ints, st.lists(st.integers(-9, 9), min_size=2, max_size=6))
@settings(max_examples=80, deadline=None)
def test_gcd_matches_sympy_shared_factor(a, b, c):
    # a common factor of degree >= 1 defeats the shortcut: the PRS path
    pa, pb, pc = P(a), P(b), P(c)
    if pc.degree < 1 or not pa or not pb:
        return
    g = (pa * pc).gcd(pb * pc)
    assert g.degree >= 1
    assert g == _sympy_gcd(pa * pc, pb * pc)


@_needs_sympy
@given(_gcd_fracs, _gcd_fracs, _gcd_fracs)
@settings(max_examples=80, deadline=None)
def test_gcd_matches_sympy_fractions(a, b, c):
    pa, pb, pc = P(a), P(b), P(c)
    if pc and (pa or pb):
        assert (pa * pc).gcd(pb * pc) == _sympy_gcd(pa * pc, pb * pc)


@_needs_sympy
@given(_gcd_fracs, _gcd_fracs, _gcd_fracs)
@settings(max_examples=80, deadline=None)
def test_rational_function_reduction_matches_sympy(a, b, c):
    # num/den in lowest terms with monic den, equal to sympy's cancel of the input
    import sympy

    num, den = P(a) * P(c), P(b) * P(c)
    if not den:
        return
    rf = RationalFunction(num, den)
    assert sympy.gcd(_to_sympy(rf.num), _to_sympy(rf.den)) == 1
    assert rf.den.coeffs[-1] == 1
    cn, cd = _to_sympy(num).cancel(_to_sympy(den), include=True)
    assert (rf.num, rf.den) == (_from_sympy(cn.quo_ground(cd.LC())), _from_sympy(cd.monic()))
