import importlib.util
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mahlerfold.contfrac import (
    ContinuantMatrix,
    DivisionByZero,
    IrregularCF,
    _unwind_rho,
    continuants,
    euclid_cf,
    eval_irregular,
    fold_matrix,
    regular_cf,
    rho_at_root_of_unity,
    rho_cf,
    rho_value,
)
from mahlerfold.poly import Polynomial, RationalFunction
from mahlerfold.quadfield import PHI, GaussianRational, QuadNum
from mahlerfold.series import TruncatedSeries, expand_named, truncated_partial
from reference import lambda_value, lambda_word, rho_sum_over_roots

P = Polynomial


def test_continuants_1_2_3():
    mat = continuants(regular_cf([1, 2, 3]))
    assert (mat.p, mat.q) == (10, 7)


def test_continuants_head_only():
    mat = continuants(regular_cf([Fraction(5)]))
    assert mat.p == 5 and mat.q == 1


def test_continuants_dragon_p3():
    # literal Key Lemma product for [1; p_3]; the convergent's reduced
    # denominator is x^7 as stated for the dragon construction
    mat = continuants(regular_cf([P.one(), *(P([0, s]) for s in (1, 1, -1, 1, 1, -1, -1))]))
    assert mat.p == P([1, 0, 0, 0, 1, 0, -1, -1])  # 1 + x^4 - x^6 - x^7
    assert mat.q == P.monomial(7, -1)
    ratio = mat.ratio()
    assert ratio.den == P.monomial(7)
    assert ratio.num == P([-1, 0, 0, 0, -1, 0, 1, 1])  # x^7 + x^6 - x^4 - 1


def test_recursion_p_n():
    full = continuants(regular_cf([Fraction(3), Fraction(2), Fraction(4), Fraction(6)]))
    shorter = continuants(regular_cf([Fraction(3), Fraction(2), Fraction(4)]))
    assert full.p == 6 * shorter.p + shorter.p_prev
    assert full.q == 6 * shorter.q + shorter.q_prev


@given(st.lists(st.integers(-8, 8).filter(bool), min_size=1, max_size=10),
       st.integers(-8, 8))
@settings(max_examples=120, deadline=None)
def test_determinant_law(entries, head):
    cf = regular_cf([Fraction(head), *map(Fraction, entries)])
    n = len(entries)  # index of the last symbol, head = index 0
    assert continuants(cf).det() == (-1) ** (n + 1)


def test_fold_value_scalar():
    from mahlerfold.folding import FoldEngine, iterate_fold

    cf = regular_cf([Fraction(1), *(Fraction(2 * s) for s in iterate_fold("rho", 4))])
    engine = FoldEngine("rho", Fraction(2))
    assert engine.with_head(4, Fraction(1)).ratio() == eval_irregular(cf)


@given(st.lists(st.integers(-6, 6).filter(bool), min_size=1, max_size=9))
@settings(max_examples=80, deadline=None)
def test_negation_law(entries):
    symbols = [Fraction(e) for e in entries]
    m = len(entries)
    mat = continuants(regular_cf(symbols))
    neg = continuants(regular_cf([-a for a in symbols]))
    sign = (-1) ** m
    assert neg.p == sign * mat.p
    assert neg.q == -sign * mat.q
    assert neg.p_prev == -sign * mat.p_prev
    assert neg.q_prev == sign * mat.q_prev


@given(st.lists(st.integers(1, 9), min_size=1, max_size=10), st.integers(-9, 9))
@settings(max_examples=100, deadline=None)
def test_eval_matches_continuants(entries, head):
    cf = regular_cf([Fraction(head), *map(Fraction, entries)])
    mat = continuants(cf)
    assert eval_irregular(cf) == Fraction(mat.p, mat.q)


@given(st.lists(st.integers(-5, 5).filter(bool), min_size=1, max_size=10),
       st.integers(-5, 5))
@settings(max_examples=120, deadline=None)
def test_eval_matches_continuants_mixed_signs(entries, head):
    # with negative entries intermediate denominators may vanish; whenever
    # they do not, the back-to-front value equals the continuant ratio
    cf = regular_cf([Fraction(head), *map(Fraction, entries)])
    mat = continuants(cf)
    try:
        value = eval_irregular(cf)
    except DivisionByZero:
        return
    if mat.q:
        assert value == Fraction(mat.p, mat.q)


# ---------------------------------------------------------------------------
# The kernel against literal references: Key Lemma products built from
# ContinuantMatrix.mul, and a back-to-front loop written out here.
# ---------------------------------------------------------------------------

_scalars = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-9, max_value=9, max_denominator=7),
)


def _factor(a, b=1):
    return ContinuantMatrix(a, 1, b, 0)


def _symbols(entries, head):
    """A word's partial quotients as ``cf eval`` reads them: with no head, the first entry heads."""
    return list(entries) if head is None else [head, *entries]


@given(st.lists(_scalars, min_size=1, max_size=10), st.one_of(st.none(), _scalars))
@settings(max_examples=150, deadline=None)
def test_continuants_equal_literal_product(entries, head):
    symbols = _symbols(entries, head)
    literal = ContinuantMatrix(1, 0, 0, 1)
    for a in symbols:
        literal = literal.mul(_factor(a))
    assert continuants(regular_cf(symbols)) == literal


@given(_scalars, st.lists(st.tuples(_scalars, _scalars), max_size=8))
@settings(max_examples=150, deadline=None)
def test_irregular_continuants_equal_literal_product(head, pairs):
    literal = _factor(head)
    for b, a in pairs:
        literal = literal.mul(_factor(a, b))
    assert continuants(IrregularCF(head, tuple(pairs))) == literal


def _literal_back_to_front(symbols):
    """("value", v) or ("undefined", depth) for [s_0; s_1, ..., s_n]."""
    acc = Fraction(symbols[-1])
    for depth in range(len(symbols) - 2, -1, -1):
        if acc == 0:
            return "undefined", depth + 1
        acc = symbols[depth] + 1 / acc
    return "value", acc


@given(st.lists(_scalars, min_size=1, max_size=10), st.one_of(st.none(), _scalars))
@settings(max_examples=200, deadline=None)
def test_eval_regular_matches_literal_loop(entries, head):
    symbols = _symbols(entries, head)
    try:
        got = "value", eval_irregular(regular_cf(symbols))
    except DivisionByZero as exc:
        got = "undefined", exc.depth
    assert got == _literal_back_to_front(symbols)


def test_integral_quotients_are_int():
    from mahlerfold.folding import FoldEngine

    for value, expected in [
        (RationalFunction(P([0, 2]))(3), 6),
        (eval_irregular(regular_cf([1, 1])), 2),
        (FoldEngine("dragon", 1).with_head(1, 1).ratio(), 2),
    ]:
        assert type(value) is int and value == expected
    assert continuants(regular_cf([2, 2])).ratio() == Fraction(5, 2)


def test_eval_regular_phi():
    value = eval_irregular(regular_cf([1] * 41))
    phi = (1 + mp.sqrt(5)) / 2
    assert abs(mp.mpf(value.numerator) / value.denominator - phi) < mp.mpf(10) ** -15


def test_eval_simple():
    # [1; x, x] at x=2 -> 1 + 1/(2 + 1/2) = 7/5
    assert eval_irregular(regular_cf([P.one(), P.x(), P.x()]), Fraction(2)) == Fraction(7, 5)


def test_lambda_division_by_zero_at_zeta12():
    # [x; x^2, x^4] at x = i (zeta_12^3): the tail x^2 + 1/x^4 evaluates to
    # -1 + 1 = 0 exactly, so the head's reciprocal does not exist
    i = GaussianRational(0, 1)
    with pytest.raises(DivisionByZero) as err:
        eval_irregular(lambda_word(2), i)
    assert err.value.depth == 1
    # one level deeper the evaluation goes through: i + 1/(-1 + 1/(1 + 1/1))
    assert eval_irregular(lambda_word(3), i) == GaussianRational(-2, 1)


def _neg_arg(p):
    return P([c if i % 2 == 0 else -c for i, c in enumerate(p.coeffs)])


def test_rho_cf_rational_form():
    # rho_3 = (1+x+x^2+x^4+x^5)/(1+x^2+x^4) = H_3(x)/H_2(x^2)
    r = eval_irregular(rho_cf(3))
    assert r.num == P([1, 1, 1, 0, 1, 1])
    assert r.den == P([1, 0, 1, 0, 1])
    for n in range(0, 7):
        expect = RationalFunction(
            truncated_partial("H", n),
            truncated_partial("H", n - 1).substitute_power(2),
        )
        assert eval_irregular(rho_cf(n)) == expect


def test_irregular_continuants_match_rho():
    # the convergent recurrence gives exactly (H_n(x), H_{n-1}(x^2))
    for n in range(0, 12):
        mat = continuants(rho_cf(n))
        assert mat.p == truncated_partial("H", n)
        assert mat.q == truncated_partial("H", n - 1).substitute_power(2)


def test_rho_plus_minus_two():
    # rho_n(x) + rho_n(-x) = 2, cross-multiplied to a polynomial identity
    for n in range(0, 11):
        mat = continuants(rho_cf(n))
        p_neg, q_neg = _neg_arg(mat.p), _neg_arg(mat.q)
        assert mat.p * q_neg + p_neg * mat.q == 2 * (mat.q * q_neg)


def test_lambda_equals_x_rho_xminus3():
    # lambda_n(x) = x * rho_n(x^-3) as rational functions; rho_n(x^-3) is
    # written (x^(3m) H_n(x^-3)) / (x^(3m) H_{n-1}(x^-6)) with the reversal
    # prefactor cleared, then compared by cross-multiplication
    for n in range(0, 9):
        lam = continuants(lambda_word(n))
        rho = continuants(rho_cf(n))
        m = max(rho.p.degree, rho.q.degree)
        num = rho.p.reverse(m).substitute_power(3)
        den = rho.q.reverse(m).substitute_power(3)
        assert lam.p * den == P.x() * num * lam.q


def test_lambda_plus_equals_I_quotient():
    for n in range(0, 9):
        lam = continuants(lambda_word(n, plus=True))
        i_n = truncated_partial("I", n)
        i_prev = truncated_partial("I", n - 1).substitute_power(2)
        assert lam.p * i_prev == i_n * lam.q


def _fold(entries, a0, t) -> ContinuantMatrix:
    """(a0, 1; 1, 0) times the Folding Lemma matrix of w = entries, checked
    against the Key Lemma product over the literal word [a0; w, t, -~w]."""
    m_w = ContinuantMatrix(1, 0, 0, 1)
    for e in entries:
        m_w = m_w.push(e)  # M(w), whose first column is (a, c)
    mat = ContinuantMatrix(a0, 1, 1, 0).mul(fold_matrix(m_w.p, m_w.q, len(entries), t))
    folded = regular_cf([a0, *entries, t, *(-e for e in reversed(entries))])
    assert mat == continuants(folded)
    return mat


def test_fold_lemma_small():
    # folding p_1 = [x] with t = x gives [1; x, x, -x]; by the Folding Lemma
    # its continuants are s (q1 p1 t + s) and s t q1^2 with s = (-1)^|w| = -1
    x = P.x()
    mat = _fold((x,), P.one(), x)
    assert mat.q == -P.monomial(3)
    assert mat.p == P([1, 0, -1, -1])  # -(x^3 + x^2 - 1)


def test_fold_one_step():
    mat = _fold((), Fraction(1), Fraction(3))
    assert eval_irregular(regular_cf([Fraction(1), Fraction(3)])) == Fraction(4, 3)
    assert mat.p == 4 and mat.q == 3


@given(st.lists(st.integers(-5, 5).filter(bool), min_size=0, max_size=8),
       st.integers(-5, 5), st.integers(-5, 5))
@settings(max_examples=100, deadline=None)
def test_folding_lemma_identity(entries, head, t):
    entries = tuple(Fraction(e) for e in entries)
    base = continuants(regular_cf([Fraction(head), *entries]))
    s = (-1) ** len(entries)
    mat = _fold(entries, Fraction(head), Fraction(t))
    assert mat.p == s * (base.q * base.p * t + s)
    assert mat.q == s * t * base.q * base.q


def test_folding_lemma_polynomial_words():
    import random

    rng = random.Random(3)
    x = P.x()
    for length in (*range(8), 31, 64):
        entries = tuple(x if rng.random() < 0.5 else -x for _ in range(length))
        base = continuants(regular_cf([P.one(), *entries]))
        s = (-1) ** length
        mat = _fold(entries, P.one(), x)
        assert mat.p == s * (base.q * base.p * x + s)
        assert mat.q == s * x * base.q * base.q


# -- euclid ------------------------------------------------------------------

def test_euclid_rho2():
    f = RationalFunction(truncated_partial("H", 2), truncated_partial("H", 1).substitute_power(2))
    word = euclid_cf(f)
    assert word.head == P.one()
    assert list(word.entries) == [P.x(), P.x()]


def test_euclid_rho3():
    f = RationalFunction(truncated_partial("H", 3), truncated_partial("H", 2).substitute_power(2))
    word = euclid_cf(f)
    assert word.head == P([1, 1])
    assert list(word.entries) == [-P.x(), -P.x(), P.x(), P.x()]


def test_euclid_constant():
    word = euclid_cf(RationalFunction.constant(Fraction(7)))
    assert word.head == P([7]) and not word.entries


@given(st.lists(st.integers(-4, 4), min_size=1, max_size=6),
       st.lists(st.integers(-4, 4), min_size=1, max_size=6))
@settings(max_examples=80, deadline=None)
def test_euclid_roundtrip(num, den):
    pnum, pden = P(num), P(den)
    if pden.is_zero():
        return
    f = RationalFunction(pnum, pden)
    word = euclid_cf(f)
    mat = continuants(word)
    assert mat.ratio() == f
    for q in word.entries:
        assert q.degree >= 1


# -- euclid_cf against sympy ---------------------------------------------------


@pytest.mark.skipif(importlib.util.find_spec("sympy") is None, reason="sympy is not installed")
@given(st.lists(st.fractions(-9, 9, max_denominator=6), min_size=1, max_size=7),
       st.lists(st.fractions(-9, 9, max_denominator=6), min_size=1, max_size=7),
       st.lists(st.integers(-3, 3), min_size=1, max_size=3))
@settings(max_examples=80, deadline=None)
def test_euclid_matches_sympy(num, den, common):
    # a common factor makes the input unreduced; Euclid's quotients ignore it
    import sympy

    x = sympy.Symbol("x")

    def to_sympy(p):
        return sympy.Poly(list(reversed(p.coeffs)) or [0], x, domain="QQ")

    pnum, pden = P(num) * P(common), P(den) * P(common)
    if pden.is_zero():
        return
    word = euclid_cf(RationalFunction(pnum, pden))
    a, b = to_sympy(pnum), to_sympy(pden)
    quotients = []
    while not b.is_zero:
        q, r = a.div(b)
        quotients.append(q)
        a, b = b, r
    assert [to_sympy(q) for q in (word.head, *word.entries)] == quotients
    mat = continuants(word)
    assert to_sympy(mat.p) * to_sympy(pden) == to_sympy(mat.q) * to_sympy(pnum)


# -- rho and lambda+ as Mahler quotients ------------------------------------

def _series_quotient(mat, order):
    """p/q of a continuant matrix as a power series to ``order``."""
    return TruncatedSeries.from_poly(mat.p, order) / TruncatedSeries.from_poly(mat.q, order)


def _mahler_quotient(name, k, order):
    """S(x)/S(x^k) for the named series S, to ``order``."""
    series = expand_named(name, order)
    return series / series.substitute_power(k)


def test_rho_cf_is_H_quotient_below_2_to_n_plus_1():
    # inside the disk rho = H(x)/H(x^2); rho_n agrees with it exactly below
    # index 2^(n+1) - 1 and not at that index
    for n in range(1, 9):
        order = (1 << (n + 1)) - 1
        rho = _series_quotient(continuants(rho_cf(n)), order)
        assert rho.first_difference(_mahler_quotient("H", 2, order)) == order


def test_rho_parity_limits_outside_disk():
    # for |x| > 1, x -> 1/x turns rho's functional equation into Dilcher and
    # Stolarsky's F and G: even levels tend to F(1/x)/G(1/x^2), odd levels to
    # x G(1/x)/F(1/x^2), and the two limits differ
    with mp.workprec(200):
        f, g = expand_named("F", 400), expand_named("G", 400)
        for x in (mp.mpf(2), mp.mpf(-3) / 2, mp.mpc("1.2", "0.7")):
            even, odd = f(1 / x) / g(x**-2), x * g(1 / x) / f(x**-2)
            assert abs(rho_value(20, x) - even) <= mp.mpf(10) ** -50
            assert abs(rho_value(21, x) - odd) <= mp.mpf(10) ** -50
            assert abs(even - odd) > mp.mpf(1) / 10


def test_negative_levels_raise_at_points():
    # a negative level has no continued fraction, as for rho_cf and lambda_value
    with pytest.raises(ValueError, match="n must be >= 0"):
        rho_value(-3, Fraction(1, 2))
    with pytest.raises(ValueError, match="n must be >= 0"):
        rho_value(-1, mp.mpf(2))


def test_lambda_plus_converges_to_I_quotient():
    # lambda_n^+ agrees with I(x)/I(x^2) exactly below index 2^n
    for n in range(2, 10):
        order = 1 << n
        lam = _series_quotient(continuants(lambda_word(n, plus=True)), order)
        assert lam.first_difference(_mahler_quotient("I", 2, order)) == order
    with mp.workprec(200):
        i_series = expand_named("I", 300)
        x = mp.mpf(1) / 2
        lam = lambda_value(15, Fraction(1, 2), plus=True)
        target = i_series(x) / i_series(x * x)
        assert abs(mp.mpf(lam.numerator) / lam.denominator - target) < mp.mpf(10) ** -20


# -- roots of unity ----------------------------------------------------------

def test_rho_at_one_is_phi():
    assert rho_at_root_of_unity(0) == PHI


def test_rho_at_minus_one():
    # forced by rho(x) + rho(-x) = 2: rho(-1) = 2 - phi = (3 - sqrt5)/2
    assert rho_at_root_of_unity(1, 1) == QuadNum(Fraction(3, 2), Fraction(-1, 2))


def test_rho_at_i_exact_vs_numeric():
    exact = rho_at_root_of_unity(2, 1)
    with mp.workprec(160):
        numeric = _unwind_rho(2, mp.mpc(0, 1), PHI.to_mp())
        assert abs(numeric - exact.to_mp()) < mp.mpf(10) ** -30


def test_rho_sum_over_roots():
    for n in range(2, 7):
        total = rho_sum_over_roots(n, precision=256)
        assert abs(total - (1 << (n - 1))) < mp.mpf(10) ** -20


# -- telescoping product -----------------------------------------------------

def _assert_telescopes(mat, name, order):
    """prod_{k<K} r(x^(2^k)) = S(x)/S(x^(2^K)) below ``order`` for K = 1..5,
    where r = p/q of ``mat`` agrees with S(x)/S(x^2) below ``order``."""
    quotient = _series_quotient(mat, order)
    prod = TruncatedSeries.one(order)
    for levels in range(1, 6):
        prod = prod * quotient.substitute_power(1 << (levels - 1))
        assert prod.first_difference(_mahler_quotient(name, 1 << levels, order)) == order


def test_product_to_H():
    _assert_telescopes(continuants(rho_cf(8)), "H", 511)


def test_product_to_I_lambda_analogue():
    # the + variant is the one that converges inside the disk
    _assert_telescopes(continuants(lambda_word(8, plus=True)), "I", 256)
