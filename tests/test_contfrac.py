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
    Word,
    _unwind_rho,
    continuants,
    euclid_cf,
    eval_irregular,
    eval_regular,
    fold,
    irregular_continuants,
    lambda_value,
    lambda_word,
    limit_classify,
    product_to_H,
    rho_at_root_of_unity,
    rho_cf,
    rho_rational,
    rho_sum_over_roots,
    rho_value,
)
from mahlerfold.poly import Polynomial, RationalFunction
from mahlerfold.quadfield import PHI, GaussianRational, QuadNum
from mahlerfold.series import expand_named, truncated_partial

P = Polynomial


def test_continuants_1_2_3():
    mat = continuants(Word((2, 3), head=1))
    assert (mat.p, mat.q) == (10, 7)


def test_continuants_head_only():
    mat = continuants(Word((), head=Fraction(5)))
    assert mat.p == 5 and mat.q == 1


def test_continuants_dragon_p3():
    # literal Key Lemma product for [1; p_3]; the convergent's reduced
    # denominator is x^7 as stated for the dragon construction
    word = Word(tuple(P([0, s]) for s in (1, 1, -1, 1, 1, -1, -1)), P.one())
    mat = continuants(word)
    assert mat.p == P([1, 0, 0, 0, 1, 0, -1, -1])  # 1 + x^4 - x^6 - x^7
    assert mat.q == P.monomial(7, -1)
    ratio = mat.ratio()
    assert ratio.den == P.monomial(7)
    assert ratio.num == P([-1, 0, 0, 0, -1, 0, 1, 1])  # x^7 + x^6 - x^4 - 1


def test_recursion_p_n():
    word = Word((Fraction(2), Fraction(4), Fraction(6)), head=Fraction(3))
    full = continuants(word)
    shorter = continuants(Word((Fraction(2), Fraction(4)), head=Fraction(3)))
    assert full.p == 6 * shorter.p + shorter.p_prev
    assert full.q == 6 * shorter.q + shorter.q_prev


@given(st.lists(st.integers(-8, 8).filter(bool), min_size=1, max_size=10),
       st.integers(-8, 8))
@settings(max_examples=120, deadline=None)
def test_determinant_law(entries, head):
    word = Word(tuple(Fraction(e) for e in entries), Fraction(head))
    n = len(entries)  # index of the last symbol, head = index 0
    assert continuants(word).det() == (-1) ** (n + 1)


@given(st.lists(st.integers(-6, 6).filter(bool), min_size=0, max_size=8), st.integers(-6, 6))
@settings(max_examples=60, deadline=None)
def test_negate_reverse_involutions_commute(entries, head):
    word = Word(tuple(entries), head)
    assert word.negate().negate() == word
    assert word.reverse().reverse() == word
    assert word.negate().reverse() == word.reverse().negate()


def test_fold_value_scalar():
    from mahlerfold.folding import fold_value, iterate_fold

    word = Word(
        tuple(Fraction(2 * s) for s in iterate_fold("rho", 4)), Fraction(1)
    )
    assert fold_value("rho", 4, Fraction(2), head=Fraction(1)) == eval_regular(word)


@given(st.lists(st.integers(-6, 6).filter(bool), min_size=1, max_size=9))
@settings(max_examples=80, deadline=None)
def test_negation_law(entries):
    word = Word(tuple(Fraction(e) for e in entries))
    m = len(entries)
    mat = continuants(word)
    neg = continuants(word.negate())
    sign = (-1) ** m
    assert neg.p == sign * mat.p
    assert neg.q == -sign * mat.q
    assert neg.p_prev == -sign * mat.p_prev
    assert neg.q_prev == sign * mat.q_prev


@given(st.lists(st.integers(1, 9), min_size=1, max_size=10), st.integers(-9, 9))
@settings(max_examples=100, deadline=None)
def test_eval_matches_continuants(entries, head):
    word = Word(tuple(Fraction(e) for e in entries), Fraction(head))
    mat = continuants(word)
    assert eval_regular(word) == Fraction(mat.p, mat.q)


@given(st.lists(st.integers(-5, 5).filter(bool), min_size=1, max_size=10),
       st.integers(-5, 5))
@settings(max_examples=120, deadline=None)
def test_eval_matches_continuants_mixed_signs(entries, head):
    # with negative entries intermediate denominators may vanish; whenever
    # they do not, the back-to-front value equals the continuant ratio
    word = Word(tuple(Fraction(e) for e in entries), Fraction(head))
    mat = continuants(word)
    try:
        value = eval_regular(word)
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


@given(st.lists(_scalars, min_size=1, max_size=10), st.one_of(st.none(), _scalars))
@settings(max_examples=150, deadline=None)
def test_continuants_equal_literal_product(entries, head):
    word = Word(tuple(entries), head)
    literal = ContinuantMatrix(1, 0, 0, 1)
    for a in word.symbols():
        literal = literal.mul(_factor(a))
    assert continuants(word) == literal


@given(_scalars, st.lists(st.tuples(_scalars, _scalars), max_size=8))
@settings(max_examples=150, deadline=None)
def test_irregular_continuants_equal_literal_product(a0, pairs):
    literal = _factor(a0)
    for b, a in pairs:
        literal = literal.mul(_factor(a, b))
    assert irregular_continuants(IrregularCF(a0, tuple(pairs))) == literal


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
    word = Word(tuple(entries), head)
    try:
        got = "value", eval_regular(word)
    except DivisionByZero as exc:
        got = "undefined", exc.depth
    assert got == _literal_back_to_front(word.symbols())


def test_integral_quotients_are_int():
    from mahlerfold.folding import fold_value

    for value, expected in [
        (RationalFunction(P([0, 2]))(3), 6),
        (eval_regular(Word((1,), head=1)), 2),
        (fold_value("dragon", 1, 1, head=1), 2),
    ]:
        assert type(value) is int and value == expected
    assert continuants(Word((2,), head=2)).ratio() == Fraction(5, 2)


def test_eval_regular_phi():
    word = Word((1,) * 40, head=1)
    value = eval_regular(word)
    phi = (1 + mp.sqrt(5)) / 2
    assert abs(mp.mpf(value.numerator) / value.denominator - phi) < mp.mpf(10) ** -15


def test_eval_simple():
    # [1; x, x] at x=2 -> 1 + 1/(2 + 1/2) = 7/5
    word = Word((P.x(), P.x()), P.one())
    assert eval_regular(word, Fraction(2)) == Fraction(7, 5)


def test_lambda_division_by_zero_at_zeta12():
    # [x; x^2, x^4] at x = i (zeta_12^3): the tail x^2 + 1/x^4 evaluates to
    # -1 + 1 = 0 exactly, so the head's reciprocal does not exist
    i = GaussianRational(0, 1)
    with pytest.raises(DivisionByZero) as err:
        eval_regular(lambda_word(2), i)
    assert err.value.depth == 1
    # one level deeper the evaluation goes through: i + 1/(-1 + 1/(1 + 1/1))
    assert eval_regular(lambda_word(3), i) == GaussianRational(-2, 1)


def _neg_arg(p):
    return P([c if i % 2 == 0 else -c for i, c in enumerate(p.coeffs)])


def test_rho_cf_rational_form():
    # rho_3 = (1+x+x^2+x^4+x^5)/(1+x^2+x^4) = H_3(x)/H_2(x^2)
    r = rho_rational(3)
    assert r.num == P([1, 1, 1, 0, 1, 1])
    assert r.den == P([1, 0, 1, 0, 1])
    for n in range(0, 7):
        expect = RationalFunction(
            truncated_partial("H", n),
            truncated_partial("H", n - 1).substitute_power(2),
        )
        assert rho_rational(n) == expect


def test_irregular_continuants_match_rho():
    # the convergent recurrence gives exactly (H_n(x), H_{n-1}(x^2))
    for n in range(0, 12):
        mat = irregular_continuants(rho_cf(n))
        assert mat.p == truncated_partial("H", n)
        assert mat.q == truncated_partial("H", n - 1).substitute_power(2)


def test_rho_plus_minus_two():
    # rho_n(x) + rho_n(-x) = 2, cross-multiplied to a polynomial identity
    for n in range(0, 11):
        mat = irregular_continuants(rho_cf(n))
        p_neg, q_neg = _neg_arg(mat.p), _neg_arg(mat.q)
        assert mat.p * q_neg + p_neg * mat.q == 2 * (mat.q * q_neg)


def test_lambda_equals_x_rho_xminus3():
    # lambda_n(x) = x * rho_n(x^-3) as rational functions; rho_n(x^-3) is
    # written (x^(3m) H_n(x^-3)) / (x^(3m) H_{n-1}(x^-6)) with the reversal
    # prefactor cleared, then compared by cross-multiplication
    for n in range(0, 9):
        lam = continuants(lambda_word(n))
        rho = irregular_continuants(rho_cf(n))
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


def test_fold_lemma_small():
    # fold of p_1 = [x] with t = x gives word [x, x, -x] and the
    # Folding Lemma continuants p = q1*p1*t + (-1)^1, q = t*q1^2
    x = P.x()
    word, mat = fold(Word((x,), P.one()), P.one(), x)
    assert [str(e) for e in word.entries] == ["x", "x", "-x"]
    assert mat.q == P.monomial(3)
    assert mat.p == P([-1, 0, 1, 1])  # x^3 + x^2 - 1


def test_fold_one_step():
    word, mat = fold(Word(()), Fraction(1), Fraction(3))
    assert eval_regular(word) == Fraction(4, 3)
    assert mat.p == 4 and mat.q == 3


@given(st.lists(st.integers(-5, 5).filter(bool), min_size=0, max_size=8),
       st.integers(-5, 5), st.integers(-5, 5).filter(bool))
@settings(max_examples=100, deadline=None)
def test_folding_lemma_identity(entries, head, t):
    word = Word(tuple(Fraction(e) for e in entries), Fraction(head))
    base = continuants(word)
    n = len(entries)  # index of the last symbol of [head; entries]
    folded, mat = fold(word, Fraction(head), Fraction(t))
    assert mat.p == base.q * base.p * t + (-1) ** n
    assert mat.q == t * base.q * base.q


def test_fold_rejects_zero_t():
    with pytest.raises(ValueError):
        fold(Word((Fraction(1),)), Fraction(1), Fraction(0))


def test_folding_lemma_polynomial_words():
    import random

    rng = random.Random(3)
    x = P.x()
    for _ in range(12):
        length = rng.randint(0, 64)
        entries = tuple(x if rng.random() < 0.5 else -x for _ in range(length))
        word = Word(entries, P.one())
        base = continuants(word)
        folded, mat = fold(word, P.one(), x)
        assert mat.p == base.q * base.p * x + (-1) ** length
        assert mat.q == x * base.q * base.q


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


# -- limit classification ----------------------------------------------------

def test_limit_classify_converged_inside_disk():
    with mp.workprec(256):
        vals = [rho_value(n, mp.mpf(1) / 2) for n in range(4, 25)]
        report = limit_classify(vals, tol=mp.mpf(10) ** -30, start_parity=0)
    assert report.kind == "converged"


def test_limit_classify_parity_partial_outside_disk():
    with mp.workprec(256):
        vals = [rho_value(n, mp.mpf(2)) for n in range(4, 25)]
        report = limit_classify(vals, tol=mp.mpf(10) ** -30, start_parity=0)
    assert report.kind == "parity_partial"
    assert abs(report.value_even - report.value_odd) > mp.mpf(10) ** -6


def test_negative_levels_raise_at_points():
    # a negative level has no continued fraction, as for rho_cf and lambda_value
    with pytest.raises(ValueError, match="n must be >= 0"):
        rho_value(-3, Fraction(1, 2))
    with pytest.raises(ValueError, match="n must be >= 0"):
        rho_value(-1, mp.mpf(2))


def test_limit_classify_needs_values():
    with pytest.raises(ValueError):
        limit_classify([1.0] * 7)


def test_limit_classify_divergent():
    with mp.workprec(64):
        values = [mp.mpf((-2) ** n) for n in range(12)]
        assert limit_classify(values, tol=mp.mpf(10) ** -10).kind == "divergent"


def test_lambda_plus_converges_to_I_quotient():
    with mp.workprec(200):
        i_series = expand_named("I", 300)
        x = mp.mpf(1) / 2
        target = i_series(x) / i_series(x * x)
        vals = [lambda_value(n, Fraction(1, 2), plus=True) for n in range(4, 16)]
        vals = [mp.mpf(v.numerator) / v.denominator for v in vals]
        report = limit_classify(vals, tol=mp.mpf(10) ** -25, start_parity=0)
        assert report.kind == "converged"
        assert abs(report.value - target) < mp.mpf(10) ** -20


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

def test_product_to_H():
    residual = product_to_H(mp.mpf(3) / 10, terms=12, order=64)
    assert residual < mp.mpf(10) ** -15


def test_product_to_H_at_zero():
    assert product_to_H(mp.mpf(0), terms=3, order=8) == 0


def test_product_to_I_lambda_analogue():
    residual = product_to_H(mp.mpf(1) / 2, terms=40, order=256, analogue="lambda")
    assert residual < mp.mpf(10) ** -10
