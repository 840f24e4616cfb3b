import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mahlerfold.poly import Polynomial, RationalFunction, parse_rational
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


# -- differential tests of series arithmetic against dense references -------

def _dense_mul(a, b, n):
    """Coefficients 0..n of the product, by the literal convolution."""
    return [sum(a[j] * b[i - j] for j in range(i + 1)) for i in range(n + 1)]


def _dense_div(a, d, n):
    """Coefficients 0..n of a/d by the O(n^2) loop that visits every divisor
    slot, with the library's integral-quotient rule."""
    from mahlerfold.poly import _exact_div

    out = [0] * (n + 1)
    rem = list(a[: n + 1])
    for i in range(n + 1):
        c = rem[i] if d[0] == 1 else _exact_div(rem[i], d[0])
        out[i] = c
        if c:
            for j in range(1, n + 1 - i):
                if d[j]:
                    rem[i + j] = rem[i + j] - c * d[j]
    return out


ints = st.integers(-4, 4)
scalars = st.one_of(ints, st.fractions(-3, 3, max_denominator=4))


@st.composite
def series(draw, coeff=ints, max_order=24):
    """A series whose nonzero prefix may end well before its order."""
    order = draw(st.integers(0, max_order))
    head = draw(st.lists(coeff, max_size=order + 1))
    return TS(head, order)


@st.composite
def units(draw, sparse):
    """A divisor with nonzero constant term (often not 1), sparse or dense,
    sometimes with an order above the dividend's."""
    order = draw(st.integers(0, 40))
    d0 = draw(st.sampled_from([1, -1, 2, 3, Fraction(1, 2), Fraction(-2, 3)]))
    if sparse:
        d = [0] * (order + 1)
        for j in draw(st.lists(st.integers(1, max(order, 1)), max_size=3)):
            if j <= order:
                d[j] = draw(st.one_of(ints, st.just(Fraction(3, 2))))
    else:
        d = [0] + draw(st.lists(scalars, min_size=order, max_size=order))
    d[0] = d0
    return TS(d, order)


@given(series(), series())
@settings(max_examples=150, deadline=None)
def test_mul_matches_dense_convolution_on_zero_tailed_ints(a, b):
    n = min(a.order, b.order)
    prod = a * b
    assert prod.order == n
    assert list(prod.coeffs) == _dense_mul(a.coeffs, b.coeffs, n)
    assert all(type(c) is int for c in prod.coeffs)


@given(series(coeff=scalars), series(coeff=scalars))
@settings(max_examples=100, deadline=None)
def test_mul_matches_dense_convolution_on_fractions(a, b):
    n = min(a.order, b.order)
    assert list((a * b).coeffs) == _dense_mul(a.coeffs, b.coeffs, n)


@given(series(max_order=60), st.lists(scalars, max_size=15))
@settings(max_examples=100, deadline=None)
def test_mul_by_polynomial_plain_or_padded(s, coeffs):
    p = P(coeffs)
    padded = TS.from_poly(p, s.order)
    want = _dense_mul(s.coeffs, padded.coeffs, s.order)
    for prod in (s * p, p * s, s * padded, padded * s):
        assert prod.order == s.order
        assert list(prod.coeffs) == want


@given(series(coeff=scalars, max_order=40), st.data())
@settings(max_examples=150, deadline=None)
def test_div_by_sparse_unit_matches_dense_loop(a, data):
    d = data.draw(units(sparse=True))
    n = min(a.order, d.order)
    quo = a / d
    assert quo.order == n
    assert list(quo.coeffs) == _dense_div(a.coeffs, d.coeffs, n)
    assert (quo * d).coeffs == a.coeffs[: n + 1]


@given(series(coeff=scalars, max_order=40), st.data())
@settings(max_examples=100, deadline=None)
def test_div_by_dense_unit_matches_dense_loop(a, data):
    d = data.draw(units(sparse=False))
    n = min(a.order, d.order)
    assert list((a / d).coeffs) == _dense_div(a.coeffs, d.coeffs, n)


@given(series(max_order=30), st.lists(ints, min_size=1, max_size=50), st.integers(1, 3))
@settings(max_examples=100, deadline=None)
def test_div_by_polynomial_longer_than_order(a, tail, d0):
    d = P([d0] + tail)  # may be far longer than a's order; only its prefix counts
    padded = TS.from_poly(d, a.order)
    assert list((a / d).coeffs) == _dense_div(a.coeffs, padded.coeffs, a.order)


def test_div_keeps_int_coefficients_when_exact():
    quo = TS([1], 20) / P([1, -2])
    assert quo.coeffs == tuple(2**i for i in range(21))
    assert all(type(c) is int for c in quo.coeffs)
    assert (TS([2, 2], 5) / P([2])).coeffs == (1, 1, 0, 0, 0, 0)


@given(st.lists(ints, max_size=5), st.lists(ints, max_size=4), st.integers(1, 4),
       st.integers(0, 12))
@settings(max_examples=40, deadline=None)
def test_from_rational_matches_sympy(num, den_tail, d0, order):
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")
    rf = RationalFunction(P(num), P([d0] + den_tail))
    # num * den^-1 mod q^(order+1), by sympy's extended Euclid
    top = q ** (order + 1)
    sym = [sympy.Poly(list(reversed(c or [0])), q, domain="QQ") for c in (num, [d0] + den_tail)]
    taylor = sympy.rem(sym[0] * sympy.invert(sym[1], sympy.Poly(top, q, domain="QQ")), top)
    want = [sympy.Rational(taylor.coeff_monomial(q**i)) for i in range(order + 1)]
    got = TS.from_rational(rf, order).coeffs
    assert [sympy.Rational(c.numerator, c.denominator) for c in map(Fraction, got)] == want


# -- design pin: a series times a short polynomial never packs big integers --

def test_short_factor_products_skip_kronecker(monkeypatch):
    from mahlerfold import poly
    from mahlerfold.identities import verify_series_identity

    def refuse(a, b):
        raise AssertionError(f"Kronecker product of {len(a)} x {len(b)} coefficients")

    monkeypatch.setattr(poly, "_kronecker_mul", refuse)
    # the re-substitution residual multiplies by A_i with at most 2 terms
    eq = _eq(2, [P.one(), P([-1]), P([0, -1])], norm=1)
    assert solve_mahler(eq, 4096).coeffs == expand_named("H", 4096).coeffs
    assert verify_series_identity("mahler4-H", 4096).holds


# -- the per-coefficient loops, kept as references for the block fill and the
# -- term-list solver --------------------------------------------------------

def _expand_named_loops(name, order):
    """F, G, H, I coefficient by coefficient, one hand-written loop each."""
    if name in ("F", "G"):
        a = [0] * (order + 1)
        b = [0] * (order + 1)
        a[0] = b[0] = 1
        for n in range(1, order + 1):
            if n % 2 == 0:
                a[n] = b[n // 2]
            elif n % 4 == 1:
                a[n] = a[(n - 1) // 4]
            if n % 2 == 1:
                b[n] = a[(n - 1) // 2]
            elif n % 4 == 0:
                b[n] = b[n // 4]
        return a if name == "F" else b
    c = [0] * (order + 1)
    c[0] = 1
    for n in range(1, order + 1):
        if name == "H":
            if n % 2 == 0:
                c[n] = c[n // 2]
            elif n % 4 == 1:
                c[n] = c[(n - 1) // 4]
        elif n % 2 == 1:
            c[n] = c[(n - 1) // 2]
        elif n % 4 == 0:
            c[n] = c[n // 4]
    return c


def _assert_expands_like_loops(name, order):
    got = expand_named(name, order)
    want = _expand_named_loops(name, order)
    assert got.order == order
    assert list(got.coeffs) == want
    assert all(type(c) is int for c in got.coeffs)


@given(st.sampled_from("FGHI"), st.integers(0, 5000))
@settings(max_examples=200, deadline=None)
def test_expand_named_matches_loops(name, order):
    _assert_expands_like_loops(name, order)


def test_expand_named_matches_loops_at_block_edges():
    # the block fill's slice bounds change at powers of two
    for k in range(17):
        for order in {(1 << k) - 1, 1 << k, (1 << k) + 1}:
            for name in "FGHI":
                _assert_expands_like_loops(name, order)


def _solve_mahler_rescan(eq, order):
    """The solver that rescans every coefficient of every A_i at each order,
    tracking the determined prefix in a counter and a flag."""
    from mahlerfold.poly import _exact_div

    s = eq.coeffs[0].valuation()
    if s < 0:
        raise MahlerSolveError("A_0 is zero; coefficients cannot be isolated", 0)
    k, norm = eq.k, eq.normalization
    x = [None] * (order + 1)
    n_known = 0
    for m in range(order + s + 1):
        target = m - s
        total = eq.inhomogeneous.coeff(m)
        coef_target = 0
        ok = True
        for i, ai in enumerate(eq.coeffs):
            if not ai:
                continue
            ki = k**i
            for j, aij in enumerate(ai.coeffs):
                if not aij or j > m:
                    continue
                r = m - j
                if r % ki:
                    continue
                idx = r // ki
                if idx == target:
                    coef_target = coef_target + aij
                elif idx < n_known:
                    if x[idx]:
                        total = total + aij * x[idx]
                else:
                    ok = False
        if not ok:
            raise MahlerSolveError(
                f"equation at order {m} references an undetermined coefficient", m
            )
        if target < 0 or target > order:
            if total != 0:
                raise MahlerSolveError(f"inconsistent equation at order {m}", m)
            continue
        if coef_target == 0:
            if total != 0:
                raise MahlerSolveError(f"inconsistent equation for coefficient {target}", target)
            if norm is not None and target == 0:
                x[target] = norm
            else:
                raise MahlerSolveError(
                    f"coefficient {target} is not determined by the equation "
                    "(supply a normalization)",
                    target,
                )
        else:
            value = _exact_div(-total, coef_target) if total else 0
            if norm is not None and target == 0 and value != norm:
                raise MahlerSolveError(
                    f"normalization {norm} contradicts forced value {value} "
                    f"at index {target}",
                    target,
                )
            x[target] = value
        n_known = target + 1
    result = TS(x, order)
    if not eq.residual(result).is_zero():
        raise MahlerSolveError("re-substitution residual is nonzero", -1)
    return result


def _outcome(solve, eq, order):
    try:
        sol = solve(eq, order)
    except MahlerSolveError as exc:
        return "error", str(exc), exc.index
    return "solution", sol.coeffs, tuple(map(type, sol.coeffs))


def test_solve_mahler_matches_rescan_on_random_equations():
    import random

    rng = random.Random(14)
    entries = (0, 0, 0, 1, -1, 2, Fraction(1, 2))
    seen = set()
    checked = 0
    while checked < 2000:
        depth = rng.randint(0, 2)
        coeffs = [P([rng.choice(entries) for _ in range(rng.randint(0, 5))])
                  for _ in range(depth + 1)]
        if not any(coeffs):
            continue
        inhom = P([rng.choice((0, 0, 1, -1)) for _ in range(rng.randint(0, 5))])
        norm = rng.choice((None, 0, 1, 2, Fraction(1, 3)))
        eq = _eq(rng.choice((2, 3, 4)), coeffs, inhom=inhom, norm=norm)
        order = rng.randint(0, 40)
        want = _outcome(_solve_mahler_rescan, eq, order)
        assert _outcome(solve_mahler, eq, order) == want
        checked += 1
        seen.add(re.sub(r"-?[\d/]+", "#", want[1]) if want[0] == "error" else want[0])
    # every branch of the recursion ran, the two rarely reached ones included
    assert seen >= {
        "solution",
        "A_# is zero; coefficients cannot be isolated",
        "coefficient # is not determined by the equation (supply a normalization)",
        "equation at order # references an undetermined coefficient",
        "inconsistent equation at order #",
        "inconsistent equation for coefficient #",
        "normalization # contradicts forced value # at index #",
    }


# -- results built by the trusted constructor, and C-level comparisons -------

def _first_difference_walk(a, b):
    for i in range(min(a.order, b.order) + 1):
        if a.coeffs[i] != b.coeffs[i]:
            return i
    return None


@given(series(coeff=scalars), st.integers(0, 30), st.integers(-3, 3), st.data())
@settings(max_examples=150, deadline=None)
def test_first_difference_matches_a_walk(a, order, change, data):
    b = TS(a.coeffs, order)  # the same prefix, an order above, at or below a's
    if change and data.draw(st.booleans()):
        i = data.draw(st.integers(0, b.order))
        b = TS(b.coeffs[:i] + (b.coeffs[i] + change,) + b.coeffs[i + 1 :], b.order)
    for x, y in ((a, b), (b, a), (a, a)):
        assert x.first_difference(y) == _first_difference_walk(x, y)


def _rebuilt(s):
    """The same series through the public constructor."""
    return TS(list(s.coeffs), s.order)


@given(series(coeff=scalars), series(coeff=scalars), st.integers(0, 40), st.integers(1, 5))
@settings(max_examples=150, deadline=None)
def test_trusted_results_equal_public_ones(a, b, k, power):
    results = [a + b, -a, a * b, a * Fraction(3, 2), a * 0, a * P(b.coeffs), a.substitute_power(power),
               a.shift(k), a.shift(a.order + 1), a.shift(0), a / (b.shift(1) + 1)]
    for r in results:
        assert type(r.coeffs) is tuple and len(r.coeffs) == r.order + 1
        assert r == _rebuilt(r) and r.coeffs == _rebuilt(r).coeffs
    assert a.shift(0) == a
    assert a.shift(a.order + 7) == TS.zero(a.order)
    assert a.shift(k).coeffs == tuple(([0] * k + list(a.coeffs))[: a.order + 1])


def test_from_rational_clears_to_an_integer_divisor():
    # 1/(1-2q) is stored as (-1/2)/(q - 1/2); one scale makes den(0) = -1
    s = TS.from_rational(parse_rational("1/(1-2*q)"), 40)
    assert s.coeffs == tuple(2**n for n in range(41))
    assert all(type(c) is int for c in s.coeffs)


def test_from_rational_keeps_fraction_values_and_types():
    s = TS.from_rational(parse_rational("1/(2-q)"), 20)
    assert s.coeffs == tuple(Fraction(1, 2 ** (n + 1)) for n in range(21))
    assert all(type(c) is Fraction for c in s.coeffs)


def test_mahler_equation_is_a_plain_immutable_class():
    eq = MahlerEquation(2, [P.one(), P([-1])])  # a list of A_i is kept as a tuple
    assert eq.coeffs == (P.one(), P([-1])) and eq.inhomogeneous == P.zero()
    assert eq.normalization is None and eq.depth == 1
    assert eq == MahlerEquation(k=2, coeffs=(P.one(), P([-1])), inhomogeneous=P.zero())
    assert eq != MahlerEquation(2, (P.one(), P([-1])), P.zero(), 1)
    assert eq != MahlerEquation(4, (P.one(), P([-1])))
    assert not hasattr(eq, "__dict__")
    for change in (lambda: setattr(eq, "k", 3), lambda: delattr(eq, "coeffs")):
        with pytest.raises(AttributeError, match="MahlerEquation is immutable"):
            change()
    assert repr(eq) == ("MahlerEquation(k=2, coeffs=(Polynomial([1]), Polynomial([-1])), "
                        "inhomogeneous=Polynomial([]), normalization=None)")
