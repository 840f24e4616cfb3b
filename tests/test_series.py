from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mahlerfold.poly import Polynomial, RationalFunction
from mahlerfold.series import (
    MahlerEquation,
    MahlerSolveError,
    TruncatedSeries,
    baum_sweet,
    expand_named,
    fibbinary,
    membership,
    solve_mahler,
    truncated_partial,
)

P = Polynomial
TS = TruncatedSeries


# -- displayed prefixes, straight from the expansions in the source ---------

def test_H_prefix():
    assert expand_named("H", 10).coeffs == (1, 1, 1, 0, 1, 1, 0, 0, 1, 1, 1)


def test_I_prefix():
    assert expand_named("I", 9).coeffs == (1, 1, 0, 1, 1, 0, 0, 1, 0, 1)


def test_F_prefix():
    # 1+q+q^2+q^5+q^6+q^8+q^9+q^10
    f = expand_named("F", 10)
    assert [i for i, c in enumerate(f.coeffs) if c] == [0, 1, 2, 5, 6, 8, 9, 10]


def test_G_prefix():
    # 1+q+q^3+q^4+q^5+q^11+q^12+q^13
    g = expand_named("G", 13)
    assert [i for i, c in enumerate(g.coeffs) if c] == [0, 1, 3, 4, 5, 11, 12, 13]


def test_zero_one_property():
    for name in "FGHI":
        assert set(expand_named(name, 512).coeffs) <= {0, 1}


# -- membership oracles ------------------------------------------------------

def test_membership_examples():
    assert fibbinary(3) == 0  # binary 11
    assert baum_sweet(2) == 0  # binary 10
    assert baum_sweet(0) == 1
    assert membership("fibbinary", 3) == 0


def test_membership_agrees_with_series():
    h = expand_named("H", 4096).coeffs
    i = expand_named("I", 4096).coeffs
    for n in range(4097):
        assert h[n] == fibbinary(n)
        assert i[n] == baum_sweet(n)


# -- truncated partials ------------------------------------------------------

def test_truncated_partial_examples():
    assert truncated_partial("H", 2) == P([1, 1, 1])
    assert truncated_partial("H", 3) == P([1, 1, 1, 0, 1, 1])
    for name in "FGHI":
        assert truncated_partial(name, -1) == P.one()


# -- series arithmetic -------------------------------------------------------

def test_series_order_is_min():
    a = TS([1, 2, 3], 2)
    b = TS([1, 1, 1, 1, 1], 4)
    assert (a * b).order == 2
    assert (a + b).order == 2


def test_substitute_power_caps():
    h = expand_named("H", 8)
    h4 = h.substitute_power(4)
    assert h4.order == 8
    assert h4.coeffs == (1, 0, 0, 0, 1, 0, 0, 0, 1)


def test_from_rational_geometric():
    s = TS.from_rational(RationalFunction(P([1]), P([1, -2])), 6)
    assert s.coeffs == (1, 2, 4, 8, 16, 32, 64)


def test_series_division_requires_unit():
    with pytest.raises(ZeroDivisionError):
        TS([1, 1], 1) / TS([0, 1], 1)


# -- the Mahler solver -------------------------------------------------------

def _eq(k, coeffs, inhom=P.zero(), norm=None):
    return MahlerEquation(k=k, coeffs=tuple(coeffs), inhomogeneous=inhom, normalization=norm)


def test_solve_H():
    # f(q) = f(q^2) + q f(q^4), f(0) = 1
    eq = _eq(2, [P.one(), P([-1]), P([0, -1])], norm=1)
    assert solve_mahler(eq, 16).coeffs == expand_named("H", 16).coeffs


def test_solve_H_keeps_int_coefficients():
    # integral quotients come back as int, which keeps the re-substitution
    # residual on the integer multiplication path
    eq = _eq(2, [P.one(), P([-1]), P([0, -1])], norm=1)
    assert all(type(c) is int for c in solve_mahler(eq, 256).coeffs)


def test_solve_paperfolding():
    # (1+x^2) P(x) = (x+x^3) P(x^2) + 1
    eq = _eq(2, [P([1, 0, 1]), P([0, -1, 0, -1])], inhom=P([-1]))
    got = solve_mahler(eq, 15)
    assert got.coeffs == (1, 1, -1, 1, 1, -1, -1, 1, 1, 1, -1, -1, 1, -1, -1, 1)


def test_solve_powers_of_two():
    # f(q) = q + f(q^2): support = powers of 2
    eq = _eq(2, [P.one(), P([-1])], inhom=P([0, -1]), norm=0)
    assert solve_mahler(eq, 8).coeffs == (0, 1, 1, 0, 1, 0, 0, 0, 1)


def test_solve_requires_normalization():
    eq = _eq(2, [P.one(), P([-1]), P([0, -1])])
    with pytest.raises(MahlerSolveError):
        solve_mahler(eq, 4)


def test_solve_rejects_contradictory_normalization():
    # f = q + f(q^2) forces nothing at 0... but (1+q)f = 1 forces f(0) = 1
    eq = _eq(2, [P([1, 1]), P.zero(), P.one()], inhom=P([-1]), norm=5)
    with pytest.raises(MahlerSolveError):
        solve_mahler(eq, 4)


def test_solver_residual_property():
    import random

    rng = random.Random(7)
    for _ in range(25):
        d = rng.randint(1, 3)
        coeffs = [P([1] + [rng.randint(-2, 2) for _ in range(2)])]
        for _ in range(d):
            coeffs.append(P([rng.randint(-2, 2) for _ in range(3)]))
        if not any(coeffs[1:]):
            coeffs[-1] = P([1])
        inhom = P([rng.randint(-2, 2) for _ in range(3)])
        eq = _eq(2, coeffs, inhom=inhom)
        try:
            sol = solve_mahler(eq, 24)
        except MahlerSolveError:
            continue
        assert eq.residual(sol).is_zero()


def test_mahler_equation_validation():
    with pytest.raises(ValueError):
        _eq(1, [P.one()])
    with pytest.raises(ValueError):
        _eq(2, [P.zero(), P.zero()])


# -- invariants from the module contract ------------------------------------

@given(st.integers(0, 400))
@settings(max_examples=60, deadline=None)
def test_H_coefficient_is_fibbinary(n):
    assert expand_named("H", n).coeffs[n] == fibbinary(n)


def test_prefix_recursions_hold_to_12():
    x = P.x()
    for n in range(1, 13):
        assert truncated_partial("H", n) == truncated_partial("H", n - 1).substitute_power(
            2
        ) + x * truncated_partial("H", n - 2).substitute_power(4)


def test_all_prefix_recursions_to_12():
    from mahlerfold.identities import verify_series_identity

    report = verify_series_identity("hn-recursions", 1 << 12)
    assert report.holds and report.checked == 12
