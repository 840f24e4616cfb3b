"""Continuant-matrix machinery for regular and irregular continued fractions.

Everything is generic over the coefficient ring: exact rationals, polynomials,
rational functions, Q(sqrt5) elements or mpmath big-floats all work, since the
code only uses +, -, * (and / for evaluation).

``ContinuantMatrix.push`` is the one place the three-term recurrence
p_n = a_n p_{n-1} + b_n p_{n-2} is applied, in the one front-to-back loop
``irregular_continuants``; ``eval_irregular`` is the one back-to-front
evaluator (``continuants``, ``eval_regular``, ``rho_value`` and
``lambda_value`` only build partial quotients for them).  Zero tests are
exact, and every scalar quotient goes through ``poly._exact_div``, so an
integral value comes back as an ``int``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .poly import MAX_RESULT_BITS_LOG2, Polynomial, RationalFunction, _exact_div, _Record, check_size
from .quadfield import PHI, GaussianRational, QuadNum
from .series import TruncatedSeries, expand_named


class DivisionByZero(ArithmeticError):
    """An intermediate denominator vanished.

    ``depth`` is the index of the subfraction whose value was zero at the
    moment its reciprocal was needed (the head sits at index 0).
    """

    def __init__(self, depth: int):
        super().__init__(f"continued fraction undefined: zero denominator at depth {depth}")
        self.depth = depth


class Word(_Record):
    """A finite continued fraction [head; entries...]; head may be absent."""

    __slots__ = ("entries", "head")

    def __init__(self, entries: tuple, head=None):
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "head", head)

    def __len__(self) -> int:
        return len(self.entries)

    def negate(self) -> Word:
        head = None if self.head is None else -self.head
        return Word(tuple(-a for a in self.entries), head)

    def reverse(self) -> Word:
        """Reverse the entries (the head, when present, stays in front)."""
        return Word(tuple(reversed(self.entries)), self.head)

    def symbols(self) -> list:
        return ([self.head] if self.head is not None else []) + list(self.entries)


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


def continuants(word: Word) -> ContinuantMatrix:
    """Product of the (a_i, 1; 1, 0) matrices over head and entries.

    Satisfies p_n = a_n p_{n-1} + p_{n-2} and the determinant law
    q_n p_{n-1} - p_n q_{n-1} = (-1)^n.
    """
    return irregular_continuants(_unit_numerators(word))


def _unit_numerators(word: Word) -> IrregularCF:
    """[a_0; a_1, ..., a_n] as a_0 + 1/(a_1 + 1/(...)), the form both
    ``continuants`` and ``eval_regular`` read; an empty word has neither."""
    symbols = word.symbols()
    if not symbols:
        raise ValueError("cannot evaluate an empty continued fraction")
    return IrregularCF(symbols[0], tuple((1, a) for a in symbols[1:]))


def eval_regular(word: Word, point=None):
    """Back-to-front value of [a_0; a_1, ..., a_n].

    Entries may be ring constants, or Polynomial/RationalFunction values
    evaluated at ``point`` (pass point=None to keep symbolic entries as-is).
    Raises DivisionByZero carrying the index of the subfraction whose value
    vanished where its reciprocal was needed; zero tests are exact.
    """
    return eval_irregular(_unit_numerators(word), point)


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


class IrregularCF(NamedTuple):
    """a_0 + b_1/(a_1 + b_2/(a_2 + ...)) stored as (b_i, a_i) pairs."""

    a0: object
    pairs: tuple  # ((b_1, a_1), (b_2, a_2), ...)


def eval_irregular(cf: IrregularCF, point=None):
    """Back-to-front value of an irregular continued fraction.

    DivisionByZero carries the level of the vanishing subfraction (the one
    starting at a_k has level k; a_0 is level 0).
    """
    partials = (cf.a0,) + tuple(a for _, a in cf.pairs)
    acc = _at(partials[-1], point)
    for depth in range(len(cf.pairs), 0, -1):
        if not acc:
            raise DivisionByZero(depth)
        b = _at(cf.pairs[depth - 1][0], point)
        acc = _at(partials[depth - 1], point) + _divide(b, acc)
    return acc


def irregular_continuants(cf: IrregularCF) -> ContinuantMatrix:
    """Convergents of an irregular CF via p_n = a_n p_{n-1} + b_n p_{n-2}.

    Pure ring arithmetic (no quotient normalization), so it stays cheap for
    polynomial entries of large degree.
    """
    mat = _identity_like(cf.a0).push(cf.a0)
    for b, a in cf.pairs:
        mat = mat.push(a, b)
    return mat


def fold_matrix(a, c, length: int, t) -> ContinuantMatrix:
    """The Folding Lemma (van der Poorten and Shallit, 1992) from the first
    column (a, c) of M(w) and length = |w|, in two squares and one product:
    M(w, t, -~w) = s (t a^2, s - t a c; t a c + s, -t c^2), s = (-1)^|w| = det M(w)."""
    st = -t if length % 2 else t
    stac = st * (a * c)
    return ContinuantMatrix(st * (a * a), 1 - stac, stac + 1, -st * (c * c))


def fold(word: Word, a0, t) -> tuple[Word, ContinuantMatrix]:
    """One folding step: [a0; w, t, -reverse(w)] and its continuants.

    The matrix is (a0, 1; 1, 0) times ``fold_matrix`` of w, sign-normalized
    by (-1)^len(w) so that the Folding Lemma formulas p' = q p t + (-1)^n and
    q' = t q^2 (n = len(w), with (p, q) the continuants of [a0; w]) hold for
    odd-length words as well; the literal Key Lemma product differs from them
    by that global sign, which never affects the convergent.
    """
    if not t:
        raise ValueError("fold requires t != 0")
    folded = Word(tuple(word.entries) + (t,) + tuple(-a for a in reversed(word.entries)), a0)
    base = continuants(Word(word.entries, a0))  # (p, q) = (a0 a + c, a) for (a, c) of M(w)
    mat = _identity_like(a0).push(a0).mul(fold_matrix(base.q, base.p - a0 * base.q, len(word), t))
    return folded, mat.scale(-1) if len(word.entries) % 2 else mat


def euclid_cf(f: RationalFunction) -> Word:
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
    if not quotients:
        quotients = [Polynomial.zero()]
    return Word(tuple(quotients[1:]), quotients[0])


# ---------------------------------------------------------------------------
# The rho / lambda continued fractions.
# ---------------------------------------------------------------------------


def rho_cf(n: int) -> IrregularCF:
    """rho_n = 1 + x/1 + x^2/1 + x^4/1 + ... + x^(2^(n-1))/1 (n fraction bars)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    x = Polynomial.x()
    one = Polynomial.one()
    pairs = tuple((x.substitute_power(1 << i), one) for i in range(n))
    return IrregularCF(one, pairs)


def lambda_word(n: int, plus: bool = False) -> Word:
    """lambda_n = [x; x^2, x^4, ..., x^(2^n)]; with ``plus`` the last entry gains +1.

    Conventions follow the recursions lambda_n = x + 1/lambda_{n-1}(x^2) with
    lambda_0 = x, and lambda_n^+ = x + 1/lambda_{n-1}^+(x^2) with
    lambda_0^+ = 1 (so lambda_1^+ = [x+1] and lambda_n^+ tops out at
    exponent 2^(n-1)).
    """
    return _lambda(n, Polynomial.x(), plus, Polynomial.monomial)


def _lambda(n: int, x, plus: bool, power) -> Word:
    """The word of ``lambda_word`` with head x and entries ``power(2^i)``."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if plus and n < 2:
        return Word((), x + 1 if n else x * 0 + 1)
    entries = [power(1 << i) for i in range(1, n if plus else n + 1)]
    if plus:
        entries[-1] += 1
    return Word(tuple(entries), x)


def rho_rational(n: int) -> RationalFunction:
    """rho_n as a reduced rational function, equal to H_n(x)/H_{n-1}(x^2)."""
    return eval_irregular(rho_cf(n), RationalFunction.x())


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


def lambda_value(n: int, x, plus: bool = False):
    """lambda_n (or lambda_n^+) at a point, back-to-front."""
    return eval_regular(_lambda(n, x, plus, lambda e: x**e))


# ---------------------------------------------------------------------------
# Numeric limit classification.
# ---------------------------------------------------------------------------


class LimitReport(NamedTuple):
    kind: str  # "converged" | "parity_partial" | "divergent"
    value: object = None
    value_even: object = None
    value_odd: object = None


def limit_classify(values: Sequence, tol=None, start_parity: int = 0) -> LimitReport:
    """Classify a truncation sequence by Cauchy behaviour at tolerance tol.

    Converged: the full tail is Cauchy within tol.  Parity partial: the even
    and odd subsequences are each Cauchy and their limits differ by more than
    10*tol.  Anything else is divergent.  ``start_parity`` is the parity of
    the index that produced values[0] (so the even/odd labels line up with
    the caller's truncation levels).
    """
    values = list(values)
    if len(values) < 8:
        raise ValueError("need at least 8 values to classify a limit")
    if tol is None:
        import mpmath as mp

        tol = mp.mpf(10) ** -30
    tail = values[-6:]
    if _cauchy(tail, tol):
        return LimitReport("converged", value=tail[-1])
    even = values[start_parity % 2 :: 2]
    odd = values[1 - start_parity % 2 :: 2]
    if _cauchy(even[-3:], tol) and _cauchy(odd[-3:], tol):
        if abs(even[-1] - odd[-1]) > 10 * tol:
            return LimitReport("parity_partial", value_even=even[-1], value_odd=odd[-1])
        return LimitReport("converged", value=even[-1])
    return LimitReport("divergent")


def _cauchy(vals, tol) -> bool:
    return all(abs(vals[i + 1] - vals[i]) <= tol for i in range(len(vals) - 1))


# ---------------------------------------------------------------------------
# rho at 2^n-th roots of unity.
# ---------------------------------------------------------------------------


def rho_at_root_of_unity(n: int, a: int = 1, precision: int = 256):
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


def rho_sum_over_roots(n: int, precision: int = 256):
    """sum of rho over all primitive 2^n-th roots of unity (numeric, n >= 2)."""
    import mpmath as mp

    with mp.workprec(precision):
        total = mp.mpc(0)
        for a in range(1, 1 << n, 2):
            v = rho_at_root_of_unity(n, a, precision)
            if isinstance(v, QuadNum):
                v = v.to_mp()
            total += v
        return total


# ---------------------------------------------------------------------------
# The telescoping product to H (and the lambda+ analogue to I).
# ---------------------------------------------------------------------------


def product_to_H(x, terms: int, order: int, precision: int = 256, analogue: str = "rho"):
    """|prod_k rho(x^(2^k)) - H(x)| at a point inside the unit disk.

    ``analogue="lambda"`` checks prod lambda+(x^(2^k)) against I(x) instead
    (the + variant is the one that converges inside the disk).
    """
    import mpmath as mp

    with mp.workprec(precision):
        xv = mp.mpf(x) if not isinstance(x, (complex, mp.mpc)) else mp.mpc(x)
        if abs(xv) >= 1:
            raise ValueError("point must lie inside the unit disk")
        name = "H" if analogue == "rho" else "I"
        series = expand_named(name, order)
        target = series(xv)
        prod = mp.mpf(1)
        depth = max(24, order.bit_length() + 8)
        for k in range(terms):
            point = xv ** (1 << k)
            if analogue == "rho":
                prod *= rho_value(depth, point)
            else:
                prod *= lambda_value(depth, point, plus=True)
        return abs(prod - target)
