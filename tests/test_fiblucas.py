from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mahlerfold.fiblucas import (
    CF_TABLE,
    IDENTITY_IDS,
    PoleHit,
    cf_identity_table,
    cf_row_entry_check,
    fib,
    fl_ratio_identity,
    good_identity,
    hideyuki_identity,
    lucas,
    run_identity,
    telescope_product_sum,
    telescope_sum,
)
from mahlerfold.poly import Polynomial, RationalFunction, parse_rational
from mahlerfold.quadfield import PHI, SQRT5, QuadNum
from reference import binet_residual, good_telescope_terms, lucas_binet_residual


def test_fib_lucas_values():
    assert [fib(n) for n in range(11)] == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
    assert [lucas(n) for n in range(7)] == [2, 1, 3, 4, 7, 11, 18]
    assert fib(10) == 55
    assert lucas(4) == 7


def test_fast_doubling_deep():
    # F_{2n} = F_n (2F_{n+1} - F_n) spot check against iteration
    a, b = 0, 1
    for _ in range(300):
        a, b = b, a + b
    assert fib(300) == a


def test_binet_residuals():
    for n in (0, 1, 2, 5, 13, 30, 64):
        assert not binet_residual(n)
        assert not lucas_binet_residual(n)


@given(st.integers(0, 60), st.integers(0, 60))
@settings(max_examples=60, deadline=None)
def test_quadnum_norm_and_conjugation(a, b):
    u = QuadNum(Fraction(a, 3), Fraction(b - 30, 7))
    v = QuadNum(Fraction(a - 30, 5), Fraction(b, 11))
    assert (u * v).conjugate() == u.conjugate() * v.conjugate()
    assert (u + v).conjugate() == u.conjugate() + v.conjugate()
    assert (u * v).norm() == u.norm() * v.norm()
    if u:
        assert u * u.inverse() == QuadNum(1, 0)


def test_phi_power_relation():
    # F_{2^n} = (1 - phi^(-2^(n+1))) / (sqrt5 phi^(-2^n)) for n >= 1
    for n in range(1, 11):
        lhs = QuadNum(fib(1 << n), 0)
        inv = PHI.inverse()
        rhs = (QuadNum(1, 0) - inv ** (1 << (n + 1))) / (SQRT5 * inv ** (1 << n))
        assert lhs == rhs


# -- telescoping --------------------------------------------------------------

def _below(value: QuadNum, bits: int) -> bool:
    """|value| < 2^-bits, decided exactly, as ``IdentityResult.within`` does."""
    eps = Fraction(1, 1 << bits)
    return (eps - value).sign() > 0 and (eps + value).sign() > 0


def _good_f():
    one = Polynomial.constant(QuadNum(1, 0))
    return RationalFunction(
        Polynomial.constant(SQRT5), one - Polynomial.monomial(1, QuadNum(1, 0))
    )


def test_telescope_sum_good():
    report = telescope_sum(_good_f(), 2, PHI.inverse(), 8)
    # closed form: f(phi^-1) - f(0) = sqrt5 * phi
    assert report.closed_form == SQRT5 * PHI
    assert report.residual == report.closed_form - report.partial
    assert _below(report.residual, 100)


def test_telescope_terms_are_fibonacci_reciprocals():
    terms = good_telescope_terms(8)
    assert terms[0] == SQRT5
    for n in range(1, 8):
        assert terms[n] == QuadNum(Fraction(1, fib(1 << n)), 0)


def test_telescope_monotone_partials():
    partials = [telescope_sum(_good_f(), 2, PHI.inverse(), t).partial for t in range(1, 9)]
    with mp.workprec(128):
        vals = [p.to_mp() for p in partials]
        assert all(vals[i] < vals[i + 1] for i in range(len(vals) - 1))


def test_telescope_constant_function():
    f = RationalFunction.constant(QuadNum(7, 0))
    report = telescope_sum(f, 2, PHI.inverse(), 6)
    assert not report.closed_form
    assert not report.partial


def test_telescope_pole_detection():
    # f = 1/(1-x) has a pole at the limit point... it does not; use 1/x
    f = RationalFunction(Polynomial.constant(QuadNum(1, 0)), Polynomial.monomial(1, QuadNum(1, 0)))
    with pytest.raises(PoleHit):
        telescope_sum(f, 2, PHI.inverse(), 4)


def test_good_identity():
    result = good_identity(10)
    assert result.expected == QuadNum(Fraction(7, 2), Fraction(-1, 2))
    assert result.delta_mp(256) < mp.mpf(10) ** -30


def test_fl_ratio_identity():
    result = fl_ratio_identity(10)
    assert result.expected == QuadNum(Fraction(1, 6), Fraction(1, 10))
    assert result.delta_mp(256) < mp.mpf(10) ** -30


def test_hideyuki_identity():
    result = hideyuki_identity(12)
    assert result.expected == QuadNum(Fraction(-3, 2), Fraction(1, 2))
    assert result.delta_mp(256) < mp.mpf(10) ** -30


def test_hideyuki_product_sum_form():
    # f = 1 - x^2 with g = -x^2/(1-x^4), h = 1: f = g f(x^2) + h
    f = parse_rational("1-x^2")
    g = parse_rational("-x^2/(1-x^4)")
    h = parse_rational("1")
    report = telescope_product_sum(f, g, h, 2, PHI.inverse(), 8)
    assert report.exact
    assert _below(report.value - report.partial, 64)


def test_product_sum_rejects_wrong_triple():
    with pytest.raises(ValueError):
        telescope_product_sum(
            parse_rational("1-x^2"),
            parse_rational("x"),
            parse_rational("1"),
            2,
            PHI.inverse(),
            4,
        )


def test_product_sum_g_zero():
    # g = 0 collapses to f = h at the first term
    f = parse_rational("(1+x)/(1-x)")
    report = telescope_product_sum(f, parse_rational("0"), f, 2, PHI.inverse(), 5)
    assert report.exact
    assert report.partial == report.value


# -- the CF table -------------------------------------------------------------

EXPECTED_ROWS = {
    "lucas": Fraction(7, 5),
    "table-1": Fraction(-9),
    "table-2": Fraction(-3),
    "table-3": Fraction(-1),
    "table-4": Fraction(11, 5),
    "table-5": Fraction(7),
    "table-6": Fraction(9),
}


@pytest.mark.parametrize("key", sorted(EXPECTED_ROWS))
def test_cf_rows(key):
    result = cf_identity_table(key, 12)
    assert result.expected == EXPECTED_ROWS[key]
    assert result.delta_mp(256) < mp.mpf(10) ** -20


def test_cf_rows_integer_rows():
    result = cf_identity_table(1, 12)
    assert result.expected == Fraction(-9)


@pytest.mark.parametrize("key", sorted(CF_TABLE))
def test_cf_row_binet_cross_check(key):
    # the catalogued f, g, h satisfy f = g + h/f(x^2) and reproduce the
    # integer entries via Binet evaluation at phi^(-2^n)
    assert cf_row_entry_check(key, levels=5)


def test_cf_requires_terms():
    with pytest.raises(ValueError):
        cf_identity_table(1, 3)


def test_h_equals_one_family_parity_splits():
    # the h(x) = 1 candidate with entries 2/(sqrt5 F(2^n)) oscillates between
    # two limits instead of converging, as observed for that family
    with mp.workprec(128):
        s5 = mp.sqrt(5)
        values = []
        for top in range(6, 14):
            acc = 2 / (s5 * fib(1 << top))
            for n in range(top - 1, -1, -1):
                acc = 2 / (s5 * fib(1 << n)) + 1 / acc
            values.append(acc)
        even, odd = values[0::2], values[1::2]
        assert all(abs(v - even[0]) < mp.mpf(10) ** -9 for v in even)
        assert all(abs(v - odd[0]) < mp.mpf(10) ** -9 for v in odd)
        assert abs(even[0] - odd[0]) > mp.mpf("0.5")


def test_run_identity_dispatch():
    for ident in IDENTITY_IDS:
        result = run_identity(ident, 10)
        assert result.delta_mp(256) < mp.mpf(10) ** -18
    with pytest.raises(ValueError):
        run_identity("nope", 8)


@pytest.mark.parametrize("identity", IDENTITY_IDS)
def test_delta_at_256_bits_is_the_true_delta(identity):
    # a + b*sqrt5 with a, b of opposite signs embeds as norm / conjugate, so
    # delta is not lost to cancellation at the default precision
    result = run_identity(identity, 10)
    true = result.delta_mp(4096)
    assert true > 0
    with mp.workprec(4096):
        assert abs(result.delta_mp(256) - true) <= true * mp.mpf(10) ** -50
    assert result.within(256)

