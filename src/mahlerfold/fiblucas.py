"""Fibonacci/Lucas arithmetic, telescoping identities and the CF table.

Everything exact: Fibonacci numbers by fast doubling, identity values in
Q(sqrt5) (``quadfield.QuadNum``), continued fraction rows evaluated over plain
rationals by ``contfrac.eval_irregular``.  Every identity, series or CF row,
reports one ``IdentityResult``, and ``IDENTITIES`` is the one table of ids.
Numerics enter only when a residual is embedded at a requested precision.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import NamedTuple

from .contfrac import IrregularCF, eval_irregular
from .poly import MAX_RESULT_BITS_LOG2, NUMERIC_BITS, Polynomial, RationalFunction, check_size, parse_rational
from .quadfield import PHI, QuadNum


def fib_pair(n: int) -> tuple[int, int]:
    """(F_n, F_{n+1}) by fast doubling."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 0, 1
    a, b = fib_pair(n >> 1)
    c = a * (2 * b - a)
    d = a * a + b * b
    if n & 1:
        return d, c + d
    return c, d


def fib(n: int) -> int:
    return fib_pair(n)[0]


def lucas(n: int) -> int:
    a, b = fib_pair(n)
    return 2 * b - a


class PoleHit(ArithmeticError):
    def __init__(self, term: int):
        super().__init__(f"rational function has a pole at x0^(k^{term})")
        self.term = term


def _eval_rf(f: RationalFunction, point: QuadNum, term: int) -> QuadNum:
    den = f.den(point)
    if not den:
        raise PoleHit(term)
    return f.num(point) / den


class TelescopeReport(NamedTuple):
    closed_form: QuadNum
    partial: QuadNum
    residual: QuadNum  # closed_form - partial, exact
    terms: int


def telescope_sum(f: RationalFunction, k: int, x0: QuadNum, terms: int) -> TelescopeReport:
    """closed = f(x0) - f(0) against partial = sum_{n<terms} g(x0^(k^n)) for
    g(x) = f(x) - f(x^k); the two agree in the limit since x0^(k^n) -> 0."""
    if k < 2:
        raise ValueError("k must be >= 2")
    f0 = _eval_rf(f, QuadNum(0, 0), -1)
    closed = _eval_rf(f, x0, 0) - f0
    partial = QuadNum(0, 0)
    point = x0
    for n in range(terms):
        nxt = point**k
        partial = partial + (_eval_rf(f, point, n) - _eval_rf(f, nxt, n + 1))
        point = nxt
    return TelescopeReport(closed, partial, closed - partial, terms)


class ProductSumReport(NamedTuple):
    value: QuadNum  # f(x0)
    partial: QuadNum  # sum_{n<terms} prod_{m<n} g(x0^(k^m)) * h(x0^(k^n))
    tail: QuadNum  # prod_{m<terms} g * f(x0^(k^terms))
    exact: bool  # value == partial + tail
    terms: int


def telescope_product_sum(
    f: RationalFunction,
    g: RationalFunction,
    h: RationalFunction,
    k: int,
    x0: QuadNum,
    terms: int,
) -> ProductSumReport:
    """Verify f(x) = g(x) f(x^k) + h(x) summed out to ``terms`` levels.

    The functional equation itself is checked symbolically first, so the
    exactness of partial + tail is a theorem, not luck.
    """
    if (g * f.substitute_power(k) + h) != f:
        raise ValueError("f(x) = g(x) f(x^k) + h(x) does not hold symbolically")
    value = _eval_rf(f, x0, 0)
    partial = QuadNum(0, 0)
    prod = QuadNum(1, 0)
    point = x0
    for n in range(terms):
        partial = partial + prod * _eval_rf(h, point, n)
        prod = prod * _eval_rf(g, point, n)
        point = point**k
    tail = prod * _eval_rf(f, point, terms)
    return ProductSumReport(value, partial, tail, value == partial + tail, terms)


# ---------------------------------------------------------------------------
# The identity catalogue: Good, the F/(L*L) ratio sum, Hideyuki's product
# sum, the 7/5 display and the six table rows.
# ---------------------------------------------------------------------------


class IdentityResult(NamedTuple):
    id: str
    expected: QuadNum
    computed: QuadNum
    terms: int

    def delta_mp(self, precision: int = NUMERIC_BITS):
        """|expected - computed| embedded numerically at ``precision`` bits."""
        import mpmath as mp

        with mp.workprec(precision):
            return abs((self.expected - self.computed).to_mp())

    def within(self, bits: int) -> bool:
        """|expected - computed| < 2^-bits, decided exactly."""
        delta, eps = self.expected - self.computed, Fraction(1, 1 << bits)
        return (eps - delta).sign() > 0 and (eps + delta).sign() > 0


class CFRow(NamedTuple):
    """Irregular CF with Binet-generated integer entries.

    head + num(1)/(den(1) + num(2)/(den(2) + ...)); ``value`` is the table's
    stated limit.  Its id is its key in ``CF_TABLE``.
    """

    head: Fraction
    num: object  # n -> Fraction, n >= 1
    den: object  # n -> Fraction, n >= 1
    value: Fraction
    fgh: tuple[str, str, str] | None = None  # f, g, h as text, parsed when checked

    def evaluate(self, terms: int) -> Fraction:
        if terms < 4:
            raise ValueError("need at least 4 terms")
        pairs = tuple((self.num(n), self.den(n)) for n in range(1, terms + 1))
        return eval_irregular(IrregularCF(self.head, pairs))


def _f2n(n: int) -> int:
    return fib(1 << n)


def _l2n(n: int) -> int:
    return lucas(1 << n)


CF_TABLE: dict[str, CFRow] = {
    "lucas": CFRow(
        Fraction(lucas(1)),
        lambda n: 2 * _l2n(n - 1) ** 2,
        lambda n: _l2n(n),
        Fraction(7, 5),
        ("(1+x)^2/x", "(1+x^2)/x", "2*(1+x^2)^2/x^2"),
    ),
    "table-1": CFRow(
        Fraction(lucas(1)),
        lambda n: -10 * _f2n(n - 1) ** 2,
        lambda n: _l2n(n),
        Fraction(-9),
        ("(1-x)^2/x", "(1+x^2)/x", "-2*(1-x^2)^2/x^2"),
    ),
    "table-2": CFRow(
        Fraction(lucas(1) ** 2),
        lambda n: -20 * _f2n(n) ** 2,
        lambda n: _l2n(n) ** 2,
        Fraction(-3),
        ("(1-x^2)^2/x^2", "(1+x^2)^2/x^2", "-4*(1-x^4)^2/x^4"),
    ),
    "table-3": CFRow(
        Fraction(lucas(1) ** 2),
        lambda n: -2 * _l2n(n + 1),
        lambda n: _l2n(n) ** 2,
        Fraction(-1),
        ("(1+x^4)/x^2", "(1+x^2)^2/x^2", "-2*(1+x^8)/x^4"),
    ),
    # the f column solves f = g + h/f(x^2) for the stated g and h
    "table-4": CFRow(
        Fraction(lucas(1) + 1),
        lambda n: _l2n(n - 1) ** 2,
        lambda n: 1 + _l2n(n),
        Fraction(11, 5),
        ("(1+x)^2/x", "1+(1+x^2)/x", "(1+x^2)^2/x^2"),
    ),
    "table-5": CFRow(
        Fraction(5 * fib(1) ** 2),
        lambda n: 2 * _l2n(n + 1),
        lambda n: 5 * _f2n(n) ** 2,
        Fraction(7),
        ("(1+x^4)/x^2", "(1-x^2)^2/x^2", "2*(1+x^8)/x^4"),
    ),
    "table-6": CFRow(
        Fraction(1 + 5 * fib(1) ** 2),
        lambda n: 3 * _l2n(n) ** 2,
        lambda n: 1 + 5 * _f2n(n) ** 2,
        Fraction(9),
        ("(1+x^2)^2/x^2", "1+(1-x^2)^2/x^2", "3*(1+x^4)^2/x^4"),
    ),
}


def cf_identity_table(row, terms: int) -> IdentityResult:
    """Evaluate one catalogued CF row at the given depth (exact rationals)."""
    key = f"table-{row}" if isinstance(row, int) else row
    try:
        entry = CF_TABLE[key]
    except KeyError:
        raise ValueError(f"unknown CF row {row!r}; known: {sorted(CF_TABLE)}") from None
    return IdentityResult(key, QuadNum(entry.value), QuadNum(entry.evaluate(terms)), terms)


def cf_row_entry_check(key: str, levels: int = 6) -> bool:
    """The Binet cross-check: the catalogued f, g, h satisfy
    f(x) = g(x) + h(x)/f(x^2), and g, h evaluated at phi^(-2^n) reproduce the
    integer CF entries for n >= 1."""
    entry = CF_TABLE[key]
    f, g, h = (parse_rational(text, var="x") for text in entry.fgh)
    lhs = f - g
    rhs = RationalFunction(Polynomial.constant(1)) / f.substitute_power(2) * h
    if lhs != rhs:
        return False
    point = PHI.inverse()
    for n in range(1, levels + 1):
        p = point ** (1 << n)
        if _eval_rf(g, p, n) != QuadNum(Fraction(entry.den(n)), 0):
            return False
        if _eval_rf(h, p, n) != QuadNum(Fraction(entry.num(n + 1)), 0):
            return False
    return True


def good_identity(terms: int) -> IdentityResult:
    """sum 1/F(2^n) = (7 - sqrt5)/2 (Good)."""
    total = QuadNum(sum(Fraction(1, _f2n(n)) for n in range(terms)))
    expected = QuadNum(Fraction(7, 2), Fraction(-1, 2))
    return IdentityResult("good", expected, total, terms)


def fl_ratio_identity(terms: int) -> IdentityResult:
    """sum F(2^n)/(L(2^n) L(2^(n+1))) = (3 sqrt5 + 5)/30."""
    total = QuadNum(sum(Fraction(_f2n(n), _l2n(n) * _l2n(n + 1)) for n in range(terms)))
    expected = QuadNum(Fraction(1, 6), Fraction(1, 10))
    return IdentityResult("fl-ratio", expected, total, terms)


def hideyuki_identity(terms: int) -> IdentityResult:
    """sum_{n>=1} 1/((-sqrt5)^n F_2 F_4 ... F_(2^n)) = (sqrt5 - 3)/2."""
    total = QuadNum(0, 0)
    denom = QuadNum(1, 0)
    for n in range(1, terms + 1):
        denom = denom * QuadNum(0, -1) * QuadNum(_f2n(n), 0)  # times -sqrt5 * F_{2^n}
        total = total + denom.inverse()
    expected = QuadNum(Fraction(-3, 2), Fraction(1, 2))
    return IdentityResult("hideyuki", expected, total, terms)


IDENTITIES = {
    "good": good_identity,
    "fl-ratio": fl_ratio_identity,
    "hideyuki": hideyuki_identity,
    **{key: partial(cf_identity_table, key) for key in CF_TABLE},
}
IDENTITY_IDS = tuple(IDENTITIES)


def run_identity(identity: str, terms: int):
    """Dispatch an identity id to its exact evaluation; refuse a ``terms``
    whose result would exceed 2^MAX_RESULT_BITS_LOG2 bits.

    Term n of every identity involves F(2^n) and L(2^n), about phi^(2^n), so
    the exact value at ``terms`` has numerators and denominators of under
    2^(terms + 2) bits.  The count's own cap keeps that power small."""
    check_size("terms", terms, 6)
    check_size(f"{terms} terms: exact value bits", 1 << (terms + 2), MAX_RESULT_BITS_LOG2)
    if identity not in IDENTITIES:
        raise ValueError(f"unknown identity {identity!r}; known: {IDENTITY_IDS}")
    return IDENTITIES[identity](terms)
