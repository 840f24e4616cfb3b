"""Differential tests of the exact linear algebra against sympy."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mahlerfold.linalg import first_null_vector, rank, solve

sympy = pytest.importorskip("sympy")

scalars = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=5))


@st.composite
def matrices(draw):
    """An m x n matrix of ints and Fractions built as a product of m x r and
    r x n factors, so rank-deficient matrices are common."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    r = draw(st.integers(0, min(m, n)))
    b = draw(st.lists(st.lists(scalars, min_size=r, max_size=r), min_size=m, max_size=m))
    c = draw(st.lists(st.lists(scalars, min_size=n, max_size=n), min_size=r, max_size=r))
    return [[sum(b[i][t] * c[t][j] for t in range(r)) for j in range(n)] for i in range(m)]


def _sym(a):
    return sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row] for row in a])


def _copy(a):
    return [list(row) for row in a]


def _apply(a, x):
    return [sum(v * w for v, w in zip(row, x)) for row in a]


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_rank_matches_sympy(a):
    assert rank(_copy(a), len(a[0])) == _sym(a).rank()


@given(matrices(), st.data())
@settings(max_examples=150, deadline=None)
def test_solve_matches_sympy(a, data):
    n = len(a[0])
    if data.draw(st.booleans(), label="consistent by construction"):
        rhs = _apply(a, data.draw(st.lists(scalars, min_size=n, max_size=n)))
    else:
        rhs = data.draw(st.lists(scalars, min_size=len(a), max_size=len(a)))
    x = solve(_copy(a), list(rhs), n)
    try:
        sol, params = _sym(a).gauss_jordan_solve(_sym([[v] for v in rhs]))
    except ValueError:  # sympy: the system is inconsistent
        assert x is None
        return
    assert x is not None
    assert _apply(a, x) == list(rhs)
    # free unknowns are 0, which fixes the solution
    expect = sol.subs({p: 0 for p in params})
    assert [Fraction(int(e.p), int(e.q)) for e in expect] == x
    assert all(type(v) is int or v.denominator != 1 for v in x)


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_first_null_vector_matches_sympy(a):
    n = len(a[0])
    v = first_null_vector(_copy(a), n)
    basis = _sym(a).nullspace()
    if not basis:
        assert v is None
        return
    assert all(type(c) is int for c in v)
    assert _apply(a, v) == [0] * len(a)
    g = 0
    for c in v:
        g = gcd(g, c)
    assert g == 1
    # a positive multiple of sympy's basis vector for the first free column
    first = basis[0]
    i = next(j for j in range(n) if first[j] != 0)
    scale = Fraction(v[i]) / Fraction(int(first[i].p), int(first[i].q))
    assert scale > 0
    assert all(Fraction(v[j]) == scale * Fraction(int(first[j].p), int(first[j].q)) for j in range(n))


def test_empty_and_zero_systems():
    assert rank([], 3) == 0
    assert first_null_vector([[0, 0]], 2) == [1, 0]
    assert solve([[0, 0]], [0], 2) == [0, 0]
    assert solve([[0, 0]], [Fraction(1, 2)], 2) is None
