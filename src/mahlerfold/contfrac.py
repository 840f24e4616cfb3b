"""Continuant-matrix machinery for regular and irregular continued fractions:
evaluation, the Folding Lemma matrix, the Euclidean CF of a rational
function, the rho continued fraction and rho at 2^n-th roots of unity.

Everything is generic over the coefficient ring: exact rationals, polynomials,
rational functions, Q(sqrt5) elements or mpmath big-floats all work, since the
code only uses +, -, * (and / for evaluation).

``IrregularCF`` is the one continued-fraction type; a regular continued
fraction is one whose numerators are all 1 (``regular_cf``).
``ContinuantMatrix.push`` is the one place the three-term recurrence
p_n = a_n p_{n-1} + b_n p_{n-2} is applied, in the one front-to-back loop
``continuants``; ``eval_irregular`` is the one back-to-front evaluator.  Zero
tests are exact, and every scalar quotient goes through ``poly._exact_div``,
so an integral value comes back as an ``int``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .poly import MAX_RESULT_BITS_LOG2, NUMERIC_BITS, Polynomial, RationalFunction, _exact_div, check_size
from .quadfield import PHI, GaussianRational, QuadNum
from .series import TruncatedSeries


class DivisionByZero(ArithmeticError):
    """An intermediate denominator vanished.

    ``depth`` is the index of the subfraction whose value was zero at the
    moment its reciprocal was needed (the head sits at index 0).
    """

    def __init__(self, depth: int):
        super().__init__(f"continued fraction undefined: zero denominator at depth {depth}")
        self.depth = depth


class IrregularCF(NamedTuple):
    """head + b_1/(a_1 + b_2/(a_2 + ...)) as (b_i, a_i) pairs; regular if every b_i is 1."""

    head: object
    pairs: tuple  # ((b_1, a_1), (b_2, a_2), ...)

    @property
    def entries(self) -> tuple:
        """The partial denominators a_1, ..., a_n."""
        return tuple(a for _, a in self.pairs)


def regular_cf(symbols) -> IrregularCF:
    """[a_0; a_1, ..., a_n] = a_0 + 1/(a_1 + 1/(...)) from its partial quotients."""
    if not symbols:
        raise ValueError("cannot evaluate an empty continued fraction")
    return IrregularCF(symbols[0], tuple((1, a) for a in symbols[1:]))


class ContinuantMatrix(NamedTuple):
    """(p_n, p_{n-1}; q_n, q_{n-1}) for the word's convergents."""

    p: object
    p_prev: object
    q: object
    q_prev: object

    def det(self):
        return self.p * self.q_prev - self.p_prev * self.q

    def mul(self, other: ContinuantMatrix) -> ContinuantMatrix:
        return ContinuantMatrix(
            self.p * other.p + self.p_prev * other.q,
            self.p * other.p_prev + self.p_prev * other.q_prev,
            self.q * other.p + self.q_prev * other.q,
            self.q * other.p_prev + self.q_prev * other.q_prev,
        )

    def push(self, a, b=1) -> ContinuantMatrix:
        """Right-multiply by the Key Lemma factor (a, 1; b, 0).

        This is the recurrence p_n = a p_{n-1} + b p_{n-2} (likewise for q);
        with b = 1 it costs two ring products.
        """
        p_prev, q_prev = self.p_prev, self.q_prev
        if b != 1:
            p_prev, q_prev = p_prev * b, q_prev * b
        return ContinuantMatrix(self.p * a + p_prev, self.p, self.q * a + q_prev, self.q)

    def transpose(self) -> ContinuantMatrix:
        return ContinuantMatrix(self.p, self.q, self.p_prev, self.q_prev)

    def scale(self, s) -> ContinuantMatrix:
        return ContinuantMatrix(self.p * s, self.p_prev * s, self.q * s, self.q_prev * s)

    def conjugate_sign(self) -> ContinuantMatrix:
        """D M D for D = diag(1, -1): flips the off-diagonal entries."""
        return ContinuantMatrix(self.p, -self.p_prev, -self.q, self.q_prev)

    def ratio(self):
        """p/q as an exact quotient (RationalFunction for polynomial entries)."""
        return _divide(self.p, self.q)


def _identity_like(sample) -> ContinuantMatrix:
    zero = sample * 0
    one = zero + 1
    return ContinuantMatrix(one, zero, zero, one)


def continuants(cf: IrregularCF) -> ContinuantMatrix:
    """Convergents via p_n = a_n p_{n-1} + b_n p_{n-2} (likewise for q) in pure ring
    arithmetic, cheap for polynomial entries of large degree.  A regular CF
    [a_0; a_1, ..., a_n] satisfies the determinant law q_n p_{n-1} - p_n q_{n-1} = (-1)^n."""
    mat = _identity_like(cf.head).push(cf.head)
    for b, a in cf.pairs:
        mat = mat.push(a, b)
    return mat


def _at(a, point):
    if point is None:
        return a
    if isinstance(a, (Polynomial, RationalFunction, TruncatedSeries)):
        return a(point)
    return a


def _divide(b, v):
    """b / v exactly: a RationalFunction over a polynomial, else ``_exact_div``."""
    if isinstance(v, Polynomial):
        return RationalFunction(b, v)
    return _exact_div(b, v)


def eval_irregular(cf: IrregularCF, point=None):
    """Back-to-front value of a continued fraction.

    Entries may be ring constants, or Polynomial/RationalFunction values
    evaluated at ``point`` (pass point=None to keep symbolic entries as-is).
    DivisionByZero carries the level of the vanishing subfraction (the one
    starting at a_k has level k; the head is level 0); zero tests are exact.
    """
    partials = (cf.head, *cf.entries)
    acc = _at(partials[-1], point)
    for depth in range(len(cf.pairs), 0, -1):
        if not acc:
            raise DivisionByZero(depth)
        b = _at(cf.pairs[depth - 1][0], point)
        acc = _at(partials[depth - 1], point) + _divide(b, acc)
    return acc


def fold_matrix(a, c, length: int, t) -> ContinuantMatrix:
    """The Folding Lemma (van der Poorten and Shallit, 1992) from the first
    column (a, c) of M(w) and length = |w|, in two squares and one product:
    M(w, t, -~w) = s (t a^2, s - t a c; t a c + s, -t c^2), s = (-1)^|w| = det M(w)."""
    st = -t if length % 2 else t
    stac = st * (a * c)
    return ContinuantMatrix(st * (a * a), 1 - stac, stac + 1, -st * (c * c))


def euclid_cf(f: RationalFunction) -> IrregularCF:
    """Regular continued fraction of a rational function by polynomial Euclid.

    Partial quotients are the successive polynomial quotients; continuants
    reproduce f exactly.
    """
    num, den = f.num, f.den
    if den.is_zero():
        raise ZeroDivisionError("zero denominator")
    quotients = []
    while not num.is_zero() and not den.is_zero():
        q, r = divmod(num, den)
        quotients.append(q)
        num, den = den, r
        if r.is_zero():
            break
    return regular_cf(quotients or [Polynomial.zero()])


# ---------------------------------------------------------------------------
# The rho continued fraction.
# ---------------------------------------------------------------------------


def rho_cf(n: int) -> IrregularCF:
    """rho_n = 1 + x/1 + x^2/1 + x^4/1 + ... + x^(2^(n-1))/1 (n fraction bars)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    x = Polynomial.x()
    one = Polynomial.one()
    pairs = tuple((x.substitute_power(1 << i), one) for i in range(n))
    return IrregularCF(one, pairs)


def rho_value(n: int, x):
    """rho_n at a point, evaluated back-to-front without materializing the
    dense x^(2^i) monomials (exact for Fraction/QuadNum, numeric for mpf).

    Refused past 2^MAX_RESULT_BITS_LOG2 bits: the exponents 2^i take about n^2/2
    bits (an mpf keeps them), and at a rational point of b bits (numerator or
    denominator) the exact value has up to 2^n * b bits."""
    if n < 0:
        raise ValueError("n must be >= 0")
    check_size(f"rho_{n} at {x}: exponent bits", n * n // 2, MAX_RESULT_BITS_LOG2)
    if isinstance(x, (int, Fraction)):
        bits = max(x.numerator.bit_length(), x.denominator.bit_length())
        check_size(f"rho_{n} at {x}: exact value bits", bits << n, MAX_RESULT_BITS_LOG2)
    return _unwind_rho(n, x, x * 0 + 1)


def _unwind_rho(n: int, x, tail):
    """1 + x/(1 + x^2/(... 1 + x^(2^(n-1))/tail)): rho_n with its innermost
    1 replaced by ``tail``."""
    partials = [1] * n + [tail]
    pairs = tuple((x ** (1 << i), a) for i, a in enumerate(partials[1:]))
    return eval_irregular(IrregularCF(partials[0], pairs))


# ---------------------------------------------------------------------------
# rho at 2^n-th roots of unity.
# ---------------------------------------------------------------------------


def rho_at_root_of_unity(n: int, a: int = 1, precision: int = NUMERIC_BITS):
    """rho at zeta = exp(2*pi*i*a/2^n) for odd a.

    Unwinds rho(x) = 1 + x/rho(x^2) n times until the argument is 1, closes
    with rho(1) = phi.  Exact in Q(sqrt5) for n <= 1, exact in Q(i, sqrt5)
    for n = 2, numeric at the requested precision otherwise.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > 0 and a % 2 == 0:
        raise ValueError("a must be odd (primitive root required)")
    if n <= 2:
        if n == 2:
            zeta = QuadNum(GaussianRational(0, 1 if a % 4 == 1 else -1), GaussianRational(0))
        else:
            zeta = QuadNum(-1 if n else 1)
        return _unwind_rho(n, zeta, PHI)
    import mpmath as mp

    with mp.workprec(precision):
        zeta = mp.e ** (2j * mp.pi * a / (1 << n))
        return _unwind_rho(n, zeta, PHI.to_mp())
