from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mahlerfold.hadamard import (
    becker_homogenize,
    hadamard_mahler_probe,
    hadamard_product,
    is_complete_hadamard_rational,
    k_kernel,
    recombine_becker,
)
from mahlerfold.poly import Polynomial, RationalFunction, parse_rational
from mahlerfold.series import MahlerEquation, TruncatedSeries, expand_named, solve_mahler

P = Polynomial
TS = TruncatedSeries


def _pow2_series(order):
    coeffs = [0] * (order + 1)
    j = 1
    while j <= order:
        coeffs[j] = 1
        j <<= 1
    return TS(coeffs, order)


def _geom(ratio, order):
    return TS.from_rational(parse_rational(ratio), order)


# -- hadamard product ---------------------------------------------------------

def test_counterexample_product():
    prod = hadamard_product(_pow2_series(64), _geom("1/(1-2*q)", 64))
    for n in range(65):
        expect = 2**n if n and n & (n - 1) == 0 else 0
        assert prod.coeffs[n] == expect


def test_identity_element():
    h = expand_named("H", 100)
    assert hadamard_product(h, _geom("1/(1-q)", 100)).coeffs == h.coeffs


def test_multiples_of_three_filter():
    # 1/(1-q^3) * (sum n q^n) keeps n at multiples of 3
    a = _geom("1/(1-q^3)", 30)
    b = _geom("q/(1-q)^2", 30)
    prod = hadamard_product(a, b)
    for n in range(31):
        assert prod.coeffs[n] == (n if n % 3 == 0 else 0)


series_lists = st.lists(st.integers(-9, 9), min_size=5, max_size=9)


@given(series_lists, series_lists, series_lists)
@settings(max_examples=80, deadline=None)
def test_hadamard_ring_laws(a, b, c):
    sa, sb, sc = TS(a, 4), TS(b, 4), TS(c, 4)
    assert hadamard_product(sa, sb) == hadamard_product(sb, sa)
    assert hadamard_product(hadamard_product(sa, sb), sc) == hadamard_product(
        sa, hadamard_product(sb, sc)
    )
    lhs = hadamard_product(sa, sb + sc)
    assert lhs == hadamard_product(sa, sb) + hadamard_product(sa, sc)


# -- complete Hadamard classifier ---------------------------------------------

FIXTURE = [
    # (rational, complete?, m or None)
    ("1/(1-q)", True, 1),
    ("q/(1-q)^2", True, 1),
    ("1/(1-q^5)", True, 5),
    ("1/(1-q^2)^3", True, 2),
    ("(1+q)/(1-q^3)", True, 3),
    ("1/((1-q)*(1+q+q^2))", True, 3),
    ("1/(1+q^2)", True, 4),
    ("1/(1+q+q^2)", True, 3),
    ("(3-q)/(1-q^6)^2", True, 6),
    ("1/((1+q)^4*(1-q^12))", True, 12),
    ("7", True, 1),
    ("q^3-5*q", True, 1),
    ("1/(1-2*q)", False, None),
    ("1/(2-q)", False, None),
    ("1/(1-q-q^2)", False, None),
    ("1/(1+q-q^3)", False, None),
    ("1/((1-q)*(1-2*q))", False, None),
    ("1/(1-3*q^2)", False, None),
    ("(1+q)/(4+q^5)", False, None),
    ("1/(1-q-q^4)", False, None),
]


@pytest.mark.parametrize("text,complete,m", FIXTURE)
def test_complete_hadamard_fixture(text, complete, m):
    result = is_complete_hadamard_rational(parse_rational(text))
    assert result.complete == complete
    if complete:
        assert result.m == m
    else:
        assert result.witness is not None and result.witness.degree >= 1


def test_complete_yes_denominator_divides():
    # yes verdict implies den | (1-q^m)^deg exactly
    for text, complete, m in FIXTURE:
        if not complete:
            continue
        rf = parse_rational(text)
        result = is_complete_hadamard_rational(rf)
        if rf.den.degree < 1:
            continue
        cyc = (P.one() - P.monomial(result.m)) ** rf.den.degree
        assert cyc % rf.den == P.zero()


def test_complete_witness_example():
    result = is_complete_hadamard_rational(parse_rational("1/(1-2*q)"))
    assert not result.complete
    assert result.witness == P([-1, 2]) or result.witness == P([1, -2])


def test_complete_rejects_pole_at_zero():
    with pytest.raises(ZeroDivisionError):
        is_complete_hadamard_rational(parse_rational("1/q"))


# -- k-kernel -----------------------------------------------------------------

def test_kernel_constant():
    report = k_kernel([1] * 1024, 2, 4)
    assert report.distinct == 1
    assert report.generators_estimate == 1


def test_kernel_linear():
    report = k_kernel(list(range(1024)), 2, 3)
    assert report.generators_estimate == 2


def test_kernel_powers_grow():
    seq = [0] * 4096
    j = 1
    while j < 4096:
        seq[j] = 2**j
        j <<= 1
    shallow = k_kernel(seq, 2, 2)
    deep = k_kernel(seq, 2, 6)
    assert deep.distinct > shallow.distinct
    assert deep.generators_estimate > shallow.generators_estimate


def test_kernel_automatic_stabilizes():
    from mahlerfold.folding import iterate_fold

    word = iterate_fold("dragon", 17)
    seq = [(1 + s) // 2 for s in word]  # map {-1,+1} -> {0,1}
    d6 = k_kernel(seq[: 1 << 16], 2, 6)
    d8 = k_kernel(seq[: 1 << 16], 2, 8)
    assert d6.distinct == d8.distinct


def test_kernel_monotone_in_depth():
    h = expand_named("H", 4095).coeffs
    counts = [k_kernel(h, 2, e).distinct for e in range(0, 5)]
    assert all(a <= b for a, b in zip(counts, counts[1:]))
    for e, c in enumerate(counts):
        assert c <= sum(2**i for i in range(e + 1))


def test_kernel_prefix_too_short():
    with pytest.raises(ValueError):
        k_kernel([1] * 64, 2, 4)


# -- Becker homogenization ----------------------------------------------------

def _becker_eq(coeffs, inhom, norm=None):
    return MahlerEquation(2, tuple(coeffs), inhom, norm)


def test_becker_requires_shape():
    eq = MahlerEquation(2, (P([2]), P([-1])), P.zero())
    with pytest.raises(ValueError):
        becker_homogenize(eq)


def test_becker_homogeneous_passthrough():
    eq = _becker_eq([P.one(), P([-1]), P([0, -1])], P.zero(), 1)
    pieces = becker_homogenize(eq)
    assert len(pieces) == 1
    assert pieces[0].homogeneous is eq


def test_becker_single_monomial():
    # f(q) = f(q^2) + q, i.e. f + (-1) f(q^2) + (-q) = 0
    eq = _becker_eq([P.one(), P([-1])], P([0, -1]), 0)
    pieces = becker_homogenize(eq)
    assert len(pieces) == 1
    piece = pieces[0]
    assert piece.shift == 1
    # constant equation: g - q g(q^2) - 1 = 0
    assert piece.constant_equation.coeffs == (P.one(), P([0, -1]))
    assert piece.constant_equation.inhomogeneous == P([-1])
    # step 3: g - (1+q) g(q^2) + q^2 g(q^4) = 0
    assert piece.homogeneous.inhomogeneous.is_zero()
    assert piece.homogeneous.coeffs == (P.one(), P([-1, -1]), P([0, 0, 1]))
    g = solve_mahler(piece.constant_equation, 64)
    assert piece.homogeneous.residual(g).is_zero()


def test_becker_constant_inhomogeneity_depth():
    # A(q) = c constant: single homogeneous equation, depth d+1
    eq = _becker_eq([P.one(), P([0, -1])], P([3]))
    pieces = becker_homogenize(eq)
    assert len(pieces) == 1
    assert pieces[0].shift == 0
    assert pieces[0].homogeneous.depth == eq.depth + 1
    assert pieces[0].homogeneous.inhomogeneous.is_zero()


def test_becker_recombination():
    # (paperfolding-flavoured) f + (-q - q^3) f(q^2)/(1+q^2)... use a Becker
    # shape equation with a two-monomial inhomogeneous part
    eq = _becker_eq([P.one(), P([0, -1, -1])], P([-1, 0, -2]), 1)
    f = solve_mahler(eq, 128)
    pieces = becker_homogenize(eq)
    assert len(pieces) == 2
    for piece in pieces:
        g = solve_mahler(piece.constant_equation, 128)
        assert piece.homogeneous.residual(g).is_zero()
    assert recombine_becker(eq, pieces, 128).coeffs == f.coeffs


# -- probe --------------------------------------------------------------------

def test_probe_counterexample_none():
    f = _pow2_series(256)
    result = hadamard_mahler_probe(f, parse_rational("1/(1-2*q)"), 2, 256, 3, 4)
    assert result.is_none_up_to


@pytest.mark.parametrize("k", [0, 1])
def test_probe_rejects_k_below_2(k):
    with pytest.raises(ValueError, match="k must be >= 2"):
        hadamard_mahler_probe(expand_named("H", 32), parse_rational("1/(1-q)"), k, 32, 1, 1)


def test_probe_finds_H_equation():
    h = expand_named("H", 128)
    result = hadamard_mahler_probe(h, parse_rational("1/(1-q)"), 2, 128, 2, 1)
    assert result.found is not None
    eq = result.found
    prod = hadamard_product(h, _geom("1/(1-q)", 128))
    assert eq.residual(prod).is_zero()


def test_probe_even_filter_stays_mahler():
    h = expand_named("H", 192)
    result = hadamard_mahler_probe(h, parse_rational("1/(1-q^2)"), 2, 192, 4, 6)
    assert result.found is not None
    prod = hadamard_product(h, _geom("1/(1-q^2)", 192))
    assert result.found.residual(prod).is_zero()
