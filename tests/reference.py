"""Oracles and helpers that only tests use: the membership rules of H and I,
the literal continued fraction of a sign word, continuants in the series ring,
the digits of a specialized continued fraction, the numeric sum of rho over
the primitive 2^n-th roots of unity, the lambda continued fractions, the Binet
residuals and the terms of Good's telescoping sum.

No command reaches these, so they live beside the tests rather than in
``src/`` (``tests/test_reach.py``).
"""

import mpmath as mp

from mahlerfold.contfrac import ContinuantMatrix, IrregularCF, eval_irregular, regular_cf, rho_at_root_of_unity
from mahlerfold.fiblucas import _eval_rf, fib, lucas
from mahlerfold.folding import FoldEngine, iterate_fold, rho_head, specialize
from mahlerfold.poly import Polynomial, RationalFunction
from mahlerfold.quadfield import PHI, SQRT5, QuadNum
from mahlerfold.series import TruncatedSeries


def fibbinary(n: int) -> int:
    """1 when the binary expansion of n has no two adjacent ones.

    Computed directly from the bits, independent of the H recursion.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return 0 if n & (n >> 1) else 1


def baum_sweet(n: int) -> int:
    """1 when the binary expansion of n has no odd-length block of zeros.

    By convention baum_sweet(0) = 1.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 1
    for block in bin(n)[2:].split("1"):
        if len(block) % 2 == 1:
            return 0
    return 1


def word_to_cf(head: Polynomial, word: list[int]) -> IrregularCF:
    """[head; signs * x] as a regular continued fraction over Q[x]."""
    if not isinstance(head, Polynomial):
        head = Polynomial.constant(head)
    x = Polynomial.x()
    return regular_cf([head, *(x if s > 0 else -x for s in word)])


def fold_continuants_series(spec, n: int, order: int, head=None) -> ContinuantMatrix:
    """Continuants computed in the truncated-series ring (prefix-exact)."""
    engine = FoldEngine(spec, TruncatedSeries.x(order))
    return engine.matrix(n) if head is None else engine.with_head(n, head)


def specialized_digits(spec, n: int, x_value: int, count: int) -> list[int]:
    """First ``count`` integer partial quotients (head included) of the
    specialized CF of w_n evaluated at an integer x."""
    word = iterate_fold(spec, n)
    sp = specialize(rho_head(n), word)
    out = []
    for sym in (sp.head, *sp.entries):
        out.append(int(sym(x_value)))
        if len(out) >= count:
            break
    return out


def rho_sum_over_roots(n: int, precision: int = 256):
    """sum of rho over all primitive 2^n-th roots of unity (numeric, n >= 2)."""
    with mp.workprec(precision):
        total = mp.mpc(0)
        for a in range(1, 1 << n, 2):
            v = rho_at_root_of_unity(n, a, precision)
            if isinstance(v, QuadNum):
                v = v.to_mp()
            total += v
        return total


def lambda_word(n: int, plus: bool = False) -> IrregularCF:
    """lambda_n = [x; x^2, x^4, ..., x^(2^n)]; with ``plus`` the last entry gains +1.

    Conventions follow the recursions lambda_n = x + 1/lambda_{n-1}(x^2) with
    lambda_0 = x, and lambda_n^+ = x + 1/lambda_{n-1}^+(x^2) with
    lambda_0^+ = 1 (so lambda_1^+ = [x+1] and lambda_n^+ tops out at
    exponent 2^(n-1)).
    """
    return _lambda(n, Polynomial.x(), plus, Polynomial.monomial)


def _lambda(n: int, x, plus: bool, power) -> IrregularCF:
    """The continued fraction of ``lambda_word`` with head x and entries ``power(2^i)``."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if plus and n < 2:
        return regular_cf([x + 1 if n else x * 0 + 1])
    entries = [power(1 << i) for i in range(1, n if plus else n + 1)]
    if plus:
        entries[-1] += 1
    return regular_cf([x, *entries])


def lambda_value(n: int, x, plus: bool = False):
    """lambda_n (or lambda_n^+) at a point, back-to-front."""
    return eval_irregular(_lambda(n, x, plus, lambda e: x**e))


def binet_residual(n: int) -> QuadNum:
    """(phi^n - (-1/phi)^n)/sqrt5 - F_n, exactly; must be zero."""
    phi_n = PHI**n
    alt = (-(PHI.inverse())) ** n
    return (phi_n - alt) / SQRT5 - QuadNum(fib(n), 0)


def lucas_binet_residual(n: int) -> QuadNum:
    """phi^n + (-phi)^(-n) - L_n, exactly; must be zero."""
    return PHI**n + ((-PHI) ** n).inverse() - QuadNum(lucas(n), 0)


def good_telescope_terms(terms: int) -> list[QuadNum]:
    """g(phi^(-2^n)) for g = f - f(x^2), f = sqrt5/(1-x); equals 1/F(2^n)
    for n >= 1 (the n = 0 term is sqrt5, the head the display fixes up)."""
    one = Polynomial.constant(QuadNum(1, 0))
    f = RationalFunction(
        Polynomial.constant(SQRT5), one - Polynomial.monomial(1, QuadNum(1, 0))
    )
    out = []
    point = PHI.inverse()
    for n in range(terms):
        out.append(_eval_rf(f, point, n) - _eval_rf(f, point**2, n))
        point = point**2
    return out
