"""Differential tests of the exact linear algebra against sympy, and tests of
its modular front end."""

from fractions import Fraction
from math import gcd
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mahlerfold import hadamard, linalg
from mahlerfold.hadamard import hadamard_mahler_probe
from mahlerfold.linalg import first_null_vector, rank
from mahlerfold.poly import parse_rational
from mahlerfold.series import TruncatedSeries

P = (1 << 61) - 1  # the front end's prime

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
    sympy = pytest.importorskip("sympy")
    return sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row] for row in a])


def _copy(a):
    return [list(row) for row in a]


def _apply(a, x):
    return [sum(v * w for v, w in zip(row, x)) for row in a]


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_rank_matches_sympy(a):
    assert rank(_copy(a), len(a[0])) == _sym(a).rank()


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_first_null_vector_matches_sympy(a):
    n = len(a[0])
    v = first_null_vector(_copy(a), n)
    assert first_null_vector(iter(_copy(a)), n) == v  # rows on demand, same answer
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


def test_full_rank_rows_are_taken_only_until_the_rank_is_full():
    def rows(limit):
        for i in range(limit):
            yield [int(i == j) for j in range(3)]
        raise AssertionError(f"row {limit} was asked for")

    assert first_null_vector(rows(3), 3) is None


def test_probe_builds_rows_only_until_the_rank_is_full():
    # h = sum 2^n q^n over n = 2^j, the Hadamard product of pow2 and
    # 1/(1 - 2q); its d = 4, deg 8 system has full rank after rows that read
    # h to index 130, and a coefficient read past 256 raises
    class Guarded(list):
        def __getitem__(self, i):
            assert i <= 256, f"coefficient {i} was read"
            return list.__getitem__(self, i)

    order = 512
    coeffs = [1 << n if n and n & (n - 1) == 0 else 0 for n in range(order + 1)]
    h = SimpleNamespace(order=order, coeffs=Guarded(coeffs))
    assert hadamard._nullspace_first(h, 2, 4, 8) is None


def test_empty_and_zero_systems():
    assert rank([], 3) == 0
    assert first_null_vector([[0, 0]], 2) == [1, 0]


@pytest.mark.parametrize(
    "a",
    [
        [[1, 0], [0, P]],
        [[1, 0], [0, P], [P, 2 * P]],
        [[1, 2], [-1, P - 2]],  # determinant P
        [[Fraction(1, 3), 1], [2, 6 + P], [0, 0]],  # row 2 is 6 * row 1 mod P
    ],
)
def test_singular_mod_p_falls_back(a):
    # full rank over Q but singular mod P: the exact path must still answer
    assert linalg._rank_mod_p(_copy(a), 2) == 1
    assert rank(_copy(a), 2) == 2
    assert first_null_vector(_copy(a), 2) is None


def test_denominator_divisible_by_p_falls_back():
    a = [[Fraction(1, P), 1], [1, 1]]  # determinant 1/P - 1
    assert linalg._rank_mod_p(_copy(a), 2) is None
    assert rank(_copy(a), 2) == 2
    assert first_null_vector(_copy(a), 2) is None
    b = [[Fraction(1, P), 1], [1, P]]  # rank 1
    assert rank(_copy(b), 2) == 1
    assert first_null_vector(_copy(b), 2) == [-P, 1]


def test_full_rank_mod_p_skips_exact_elimination(monkeypatch):
    def no_rref(rows, ncols):
        raise AssertionError("exact elimination ran on a full-rank system")

    monkeypatch.setattr(linalg, "rref", no_rref)
    order = 1024
    pow2 = [0] * (order + 1)
    j = 1
    while j <= order:
        pow2[j] = 1
        j <<= 1
    probe = hadamard_mahler_probe(
        TruncatedSeries(pow2, order), parse_rational("1/(1-2*q)"), 2, 512, 4, 8
    )
    assert probe.is_none_up_to
