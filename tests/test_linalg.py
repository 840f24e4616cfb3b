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
from mahlerfold.linalg import first_null_vector, rank, rref
from mahlerfold.poly import _to_int_coeffs, parse_rational
from mahlerfold.series import TruncatedSeries, expand_named

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
    assert len(linalg._echelon_mod_p(_copy(a), 2)) == 1
    assert rank(_copy(a), 2) == 2
    assert first_null_vector(_copy(a), 2) is None


def test_denominator_divisible_by_p_falls_back():
    a = [[Fraction(1, P), 1], [1, 1]]  # determinant 1/P - 1
    assert linalg._echelon_mod_p(_copy(a), 2) is None
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


def _rref_null_vector(a, n):
    """The exact elimination's kernel vector for the first free column."""
    pivots = rref(_copy(a), n)
    free = next((c for c in range(n) if c not in pivots), None)
    if free is None:
        return None
    return _to_int_coeffs([-pivots[c][free] if c in pivots else int(c == free) for c in range(n)])


_big = st.integers(-(2**64), 2**64)


@st.composite
def planted(draw):
    """Rows with entries up to 2^64 whose column t is a combination of the
    others with coefficients from -3..3 (lifted mod p) up to 2^64 (past the
    lift's bound, so the exact elimination answers)."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(2, 6))
    a = draw(st.lists(st.lists(_big, min_size=n, max_size=n), min_size=m, max_size=m))
    t = draw(st.integers(0, n - 1))
    small = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))
    coeffs = draw(st.lists(st.one_of(small, _big), min_size=n, max_size=n))
    for row in a:
        row[t] = sum(c * row[j] for j, c in enumerate(coeffs) if j != t)
    return a


@given(planted())
@settings(max_examples=150, deadline=None)
def test_first_null_vector_matches_exact_elimination_on_planted_kernels(a):
    n = len(a[0])
    assert first_null_vector(_copy(a), n) == _rref_null_vector(a, n)


def test_kernel_entries_past_the_lift_bound_come_from_the_exact_elimination(monkeypatch):
    # the kernel is spanned by (2^40 + 1, -3, 1): its lift mod p fails, and the
    # exact elimination gives the same vector
    v = [2**40 + 1, -3, 1]
    a = [[1, 0, -v[0]], [0, 1, -v[1]], [2, 3, 9 - 2 * v[0]]]
    assert len(linalg._echelon_mod_p(_copy(a), 3)) == 2
    assert first_null_vector(_copy(a), 3) == v == _rref_null_vector(a, 3)
    calls = []
    monkeypatch.setattr(linalg, "rref", lambda rows, n: calls.append(n) or rref(rows, n))
    first_null_vector(_copy(a), 3)
    assert calls == [3]


def test_denominator_p_takes_the_exact_elimination():
    # an entry 1/P cannot be read mod P, so there is no echelon form to lift
    a = [[Fraction(1, P), 1, 2], [2, 2 * P, 4 * P]]  # row 2 is 2P * row 1
    assert linalg._echelon_mod_p(_copy(a), 3) is None
    assert first_null_vector(_copy(a), 3) == [-P, 1, 0] == _rref_null_vector(a, 3)


def test_found_recursion_is_lifted_without_exact_elimination(monkeypatch):
    # F's 4-Mahler recursion, found by the probe on its d = 2, deg 4 system
    def no_rref(rows, ncols):
        raise AssertionError("exact elimination ran on a kernel the lift finds")

    monkeypatch.setattr(linalg, "rref", no_rref)
    probe = hadamard_mahler_probe(expand_named("F", 1024), parse_rational("1/(1-q)"), 4, 1024, 2, 4)
    assert [str(c) for c in probe.found.coeffs] == ["1", "-1 - x - x^2", "x^4"]


@pytest.mark.parametrize("bad", [0, 1, 2])
def test_lifted_vector_is_checked_on_every_row(bad):
    # rows that agree mod P with a rank-2 system but have full rank over Q:
    # the vector lifted mod P fails the exact check on one row
    a = [[1, 0, 1], [0, 1, 1], [1, 1, 2]]
    a[bad][2] += P
    assert len(linalg._echelon_mod_p(_copy(a), 3)) == 2
    assert first_null_vector(_copy(a), 3) is None == _rref_null_vector(a, 3)
