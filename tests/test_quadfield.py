"""Differential tests of the a + b*sqrt(D) arithmetic.

The oracle is the regular representation: a + b*sqrt(D) acts on the basis
(1, sqrt(D)) by the matrix [[a, D*b], [b, a]], so the field operations become
matrix products over the rationals.  Gaussian-rational components are
themselves 2x2 blocks, which turns Q(i, sqrt5) into 4x4 rational matrices.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mahlerfold.quadfield import PHI, GaussianRational, QuadNum

# a field is a tower of quadratic extensions, outermost first
GAUSS = (GaussianRational,)
QUAD = (QuadNum,)
NESTED = (QuadNum, GaussianRational)
TOWERS = {"Q(i)": GAUSS, "Q(sqrt5)": QUAD, "Q(i, sqrt5)": NESTED}

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def elements(tower):
    if not tower:
        return rationals
    inner = elements(tower[1:])
    return st.builds(tower[0], inner, inner)


def rep(x, tower):
    """The matrix of multiplication by x, with rational entries."""
    if not tower:
        return [[Fraction(x)]]
    cls, inner = tower[0], tower[1:]
    a, b = (x.a, x.b) if isinstance(x, cls) else (x, 0)
    return block(rep(a, inner), rep(b, inner), cls.D)


def block(a, b, d):
    """[[A, d*B], [B, A]]."""
    top = [ra + [d * v for v in rb] for ra, rb in zip(a, b)]
    return top + [rb + ra for ra, rb in zip(a, b)]


def matmul(x, y):
    return [[sum(x[i][k] * y[k][j] for k in range(len(y))) for j in range(len(y[0]))]
            for i in range(len(x))]


def matsub(x, y):
    return [[u - v for u, v in zip(rx, ry)] for rx, ry in zip(x, y)]


def scaled(x, s):
    return [[s * v for v in row] for row in x]


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def matpow(x, k):
    out = identity(len(x))
    for _ in range(k):
        out = matmul(out, x)
    return out


def pairs(tower):
    return st.tuples(elements(tower), elements(tower))


@pytest.mark.parametrize("name", sorted(TOWERS))
def test_product_and_quotient_match_matrices(name):
    tower = TOWERS[name]

    @given(pairs(tower))
    @settings(max_examples=60, deadline=None)
    def check(uv):
        u, v = uv
        assert rep(u * v, tower) == matmul(rep(u, tower), rep(v, tower))
        if v:
            assert matmul(rep(u / v, tower), rep(v, tower)) == rep(u, tower)
        else:
            with pytest.raises(ZeroDivisionError):
                u / v

    check()


@pytest.mark.parametrize("name", sorted(TOWERS))
def test_negative_powers_invert_matrix_powers(name):
    tower = TOWERS[name]

    @given(elements(tower), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def check(u, k):
        m = rep(u, tower)
        assert rep(u**k, tower) == matpow(m, k)
        if u:
            assert matmul(rep(u**-k, tower), matpow(m, k)) == identity(len(m))
        else:
            with pytest.raises(ZeroDivisionError):
                u**-k

    check()


@pytest.mark.parametrize("name", sorted(TOWERS))
def test_norm_and_conjugate_match_matrices(name):
    tower = TOWERS[name]
    cls, inner = tower[0], tower[1:]

    @given(pairs(tower))
    @settings(max_examples=60, deadline=None)
    def check(uv):
        u, v = uv
        a, b = rep(u.a, inner), rep(u.b, inner)
        # the norm a^2 - D b^2, with components as matrices
        assert rep(u.norm(), inner) == matsub(matmul(a, a), scaled(matmul(b, b), cls.D))
        # the conjugate a - b*sqrt(D), and u times its conjugate is the norm
        assert rep(u.conjugate(), tower) == block(a, scaled(b, -1), cls.D)
        assert matmul(rep(u.conjugate(), tower), rep(u, tower)) == rep(u.norm(), tower)
        # conjugation is multiplicative
        assert rep((u * v).conjugate(), tower) == matmul(
            rep(u.conjugate(), tower), rep(v.conjugate(), tower))
        if not inner:  # the norm is the determinant of the 2x2 matrix
            (p, q), (r, s) = rep(u, tower)
            assert u.norm() == p * s - q * r

    check()


def test_str_and_repr_forms():
    g = GaussianRational(Fraction(1, 2), -3)
    assert (g.re, g.im) == (Fraction(1, 2), Fraction(-3))
    assert repr(g) == "GaussianRational(1/2, -3)"
    assert str(g) == "1/2-3i"
    assert repr(PHI) == "QuadNum(Fraction(1, 2), Fraction(1, 2))"
    assert str(PHI) == "1/2 + (1/2)*sqrt5"
    assert str(QuadNum(Fraction(7, 5))) == "7/5"
    i_unit = QuadNum(GaussianRational(0, 1), GaussianRational(0))
    assert repr(i_unit) == "QuadNum(GaussianRational(0, 1), GaussianRational(0, 0))"
    assert str(i_unit) == "0+1i"
    assert str(i_unit + QuadNum(0, GaussianRational(1, -1))) == "0+1i + (1-1i)*sqrt5"


def test_immutable_and_mixed_equality():
    with pytest.raises(AttributeError, match="GaussianRational is immutable"):
        GaussianRational(1, 1).a = 2
    with pytest.raises(AttributeError, match="QuadNum is immutable"):
        QuadNum(1, 1).b = 2
    assert GaussianRational(3) == 3 and QuadNum(Fraction(1, 2)) == Fraction(1, 2)
    assert GaussianRational(0, 1) == QuadNum(GaussianRational(0, 1), GaussianRational(0))
    assert QuadNum(1, 1) != "1+sqrt5"


@pytest.mark.parametrize(
    "value, scalar",
    [
        (GaussianRational(3), 3),
        (GaussianRational(Fraction(-5, 4)), Fraction(-5, 4)),
        (QuadNum(3), 3),
        (QuadNum(Fraction(1, 2)), Fraction(1, 2)),
        (QuadNum(GaussianRational(3), GaussianRational(0)), 3),
        (QuadNum(GaussianRational(Fraction(2, 7)), GaussianRational(0)), Fraction(2, 7)),
        (QuadNum(GaussianRational(0, 1), GaussianRational(0)), GaussianRational(0, 1)),
    ],
)
def test_embedded_scalars_hash_as_the_scalar(value, scalar):
    # equal values must hash equal, so set and dict lookups work both ways
    assert value == scalar and hash(value) == hash(scalar)
    assert scalar in {value} and value in {scalar}
    assert {scalar: "found"}[value] == "found" and {value: "found"}[scalar] == "found"


def test_irrational_values_stay_distinct_keys():
    keys = {QuadNum(1, 1), QuadNum(1, -1), GaussianRational(1, 1), 1}
    assert len(keys) == 4 and QuadNum(1) in keys and PHI * 2 in keys
