"""Oracles and helpers that only tests use: the membership rules of H and I,
the literal continued fraction of a sign word, continuants in the series ring
and the digits of a specialized continued fraction.

No command reaches these, so they live beside the tests rather than in
``src/`` (``tests/test_reach.py``).
"""

from mahlerfold.contfrac import ContinuantMatrix, Word
from mahlerfold.folding import FoldEngine, iterate_fold, rho_head, specialize
from mahlerfold.poly import Polynomial
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


def word_to_cf(head: Polynomial, word: list[int]) -> Word:
    """[head; signs * x] as a Word over Q[x]."""
    if not isinstance(head, Polynomial):
        head = Polynomial.constant(head)
    x = Polynomial.x()
    return Word(tuple(x if s > 0 else -x for s in word), head)


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
    for sym in sp.symbols():
        out.append(int(sym(x_value)))
        if len(out) >= count:
            break
    return out
