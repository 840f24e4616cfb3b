"""Truncated power series, the four named {0,1}-series and the Mahler solver.

A ``TruncatedSeries`` is a coefficient prefix c_0..c_N together with its
truncation order N.  Arithmetic never reads past the order and records the
minimum of the operand orders, so a result is exact as far as it goes.

The series layer only truncates; polynomial products go through the one
multiplication seam ``poly._list_mul``.  A product strips the zero tails of
its order-clipped operands first, so a zero tail costs no multiplication
work: a series times a polynomial of d+1 terms is O(N*d), whether the
polynomial comes as a ``Polynomial`` or as a padded series.  Division walks
only the divisor's nonzero terms, O(N * nnz).  Results already N + 1 long are
built by the trusted ``_of``, and zero and equality tests run at C speed.  An
order past 2^24 is refused before allocation, by ``poly.check_size``.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, neg
from typing import Sequence

from .poly import (Polynomial, RationalFunction, _coerced, _exact_div, _Exact, _list_mul, _Record,
                   _strip, _to_int_coeffs, check_size)


class TruncatedSeries(_Exact):
    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: Sequence, order: int | None = None):
        coeffs = list(coeffs)
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("order must be >= 0")
        coeffs += [0] * (order + 1 - len(coeffs))
        object.__setattr__(self, "coeffs", tuple(coeffs[: order + 1]))
        object.__setattr__(self, "order", order)

    @classmethod
    def _of(cls, coeffs: tuple, order: int) -> TruncatedSeries:
        """The trusted constructor: ``coeffs`` is a tuple of order + 1 terms."""
        s = object.__new__(cls)
        object.__setattr__(s, "coeffs", coeffs)
        object.__setattr__(s, "order", order)
        return s

    @classmethod
    def zero(cls, order: int) -> TruncatedSeries:
        return cls((), order)

    @classmethod
    def one(cls, order: int) -> TruncatedSeries:
        return cls((1,), order)

    @classmethod
    def x(cls, order: int) -> TruncatedSeries:
        return cls((0, 1), order)

    @classmethod
    def from_poly(cls, p: Polynomial, order: int) -> TruncatedSeries:
        return cls(p.coeffs, order)

    @classmethod
    def from_rational(cls, rf: RationalFunction, order: int) -> TruncatedSeries:
        """Expand num/den to the given order; den(0) must be nonzero."""
        num, den = rf.num, rf.den
        if not den.coeffs[0]:
            raise ZeroDivisionError("denominator vanishes at 0")
        ints = _to_int_coeffs(num.coeffs + den.coeffs)  # one scale, so den(0) = +-1 divides in int
        if ints is not None:
            num, den = Polynomial(ints[: len(num.coeffs)]), Polynomial(ints[len(num.coeffs) :])
        return cls.from_poly(num, order) / den

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def first_difference(self, other: TruncatedSeries) -> int | None:
        n = min(self.order, other.order) + 1
        a, b = self.coeffs[:n], other.coeffs[:n]
        return None if a == b else next(i for i, (x, y) in enumerate(zip(a, b)) if x != y)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    @_coerced
    def __add__(self, other) -> TruncatedSeries:
        return TruncatedSeries._of(tuple(map(add, self.coeffs, other.coeffs)), min(self.order, other.order))

    __radd__ = __add__

    def __neg__(self) -> TruncatedSeries:
        return TruncatedSeries._of(tuple(map(neg, self.coeffs)), self.order)

    def __mul__(self, other) -> TruncatedSeries:
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries._of(tuple([c * other for c in self.coeffs]), self.order)
        if isinstance(other, Polynomial):  # clipped, never padded to the order
            n = self.order
        elif isinstance(other, TruncatedSeries):
            n = min(self.order, other.order)
        else:
            return NotImplemented
        prod = _list_mul(_strip(self.coeffs[: n + 1]), _strip(other.coeffs[: n + 1]))[: n + 1]
        return TruncatedSeries._of(tuple(prod + [0] * (n + 1 - len(prod))), n)

    __rmul__ = __mul__

    @_coerced
    def __truediv__(self, other) -> TruncatedSeries:
        """Series division; the divisor must be a unit (nonzero constant term)."""
        n = min(self.order, other.order)
        d0 = other.coeffs[0]
        if not d0:
            raise ZeroDivisionError("series division by a non-unit")
        terms = [(j, d) for j, d in enumerate(other.coeffs[1 : n + 1], 1) if d]
        out = list(self.coeffs[: n + 1])
        for i, c in enumerate(out):  # out[i] is final when reached; push its quotient forward
            if d0 != 1:
                c = out[i] = -c if d0 == -1 else _exact_div(c, d0)
            if c:
                for j, d in terms:
                    if i + j > n:
                        break
                    out[i + j] = out[i + j] - d * c
        return TruncatedSeries._of(tuple(out), n)

    def _coerce(self, other):
        if isinstance(other, TruncatedSeries):
            return other
        if isinstance(other, Polynomial):
            return TruncatedSeries.from_poly(other, self.order)
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries([other], self.order)
        return NotImplemented

    def substitute_power(self, k: int) -> TruncatedSeries:
        """Return f(q^k), capped at the original order."""
        if k < 1:
            raise ValueError("k must be >= 1")
        out = [0] * (self.order + 1)
        out[::k] = self.coeffs[: self.order // k + 1]
        return TruncatedSeries._of(tuple(out), self.order)

    def truncate(self, order: int) -> TruncatedSeries:
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncatedSeries(self.coeffs[: order + 1], order)

    def shift(self, k: int) -> TruncatedSeries:
        """Multiply by q^k, capped at the order."""
        k = min(k, self.order + 1)  # k <= 0 leaves the series as it is
        return TruncatedSeries._of((0,) * k + self.coeffs[: self.order + 1 - k], self.order)

    def coeff(self, i: int):
        if i > self.order:
            raise IndexError(f"coefficient {i} beyond truncation order {self.order}")
        return self.coeffs[i]

    __call__ = Polynomial.__call__  # the truncation's value at a point

    def __repr__(self):
        head = list(self.coeffs[: min(8, self.order + 1)])
        return f"TruncatedSeries({head}..., order={self.order})"


# ---------------------------------------------------------------------------
# The four named series F, G, H, I and their combinatorial membership rules.
# ---------------------------------------------------------------------------

NAMED_SERIES = ("F", "G", "H", "I")

# S(q) = q^e A(q^2) + q^(1-e) B(q^4) with S(0) = 1: name -> (e, A, B)
_RULES = {"F": (0, "G", "F"), "G": (1, "F", "G"), "H": (0, "H", "H"), "I": (1, "I", "I")}


def expand_named(name: str, order: int) -> TruncatedSeries:
    """Coefficients 0..order of F, G, H or I via the coefficient recursions.

    All four are the unique power-series solutions with value 1 at 0 of

        F(q) = G(q^2) + q F(q^4)      G(q) = q F(q^2) + G(q^4)
        H(q) = H(q^2) + q H(q^4)      I(q) = q I(q^2) + I(q^4)

    one rule, tabled in ``_RULES``.  Index n >= 1 reads only indices <= n/2,
    so block [lo, 2 lo) of each 0/1 bytearray (F and G together, H or I
    alone) is filled in place from the blocks below by two slice copies.
    """
    if name not in _RULES:
        raise ValueError(f"unknown series {name!r}; expected one of {NAMED_SERIES}")
    check_size("order", order)
    coeffs = {s: bytearray(b"\1").ljust(order + 1, b"\0") for s in (name, _RULES[name][1])}
    lo = 1
    while lo <= order:
        hi = min(2 * lo, order + 1)
        for s, out in coeffs.items():
            e, a, b = _RULES[s]
            p = lo + (e - lo) % 2  # first n >= lo with n = e (mod 2)
            out[p:hi:2] = coeffs[a][(p - e) // 2 : (hi - e + 1) // 2]
            q = lo + (1 - e - lo) % 4  # first n >= lo with n = 1 - e (mod 4)
            out[q:hi:4] = coeffs[b][(q + e - 1) // 4 : (hi + e + 2) // 4]
        lo = hi
    return TruncatedSeries(coeffs[name], order)


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


MEMBERSHIP = {"fibbinary": fibbinary, "baum_sweet": baum_sweet}


def membership(name: str, n: int) -> int:
    try:
        return MEMBERSHIP[name](n)
    except KeyError:
        raise ValueError(f"unknown membership rule {name!r}") from None


def truncated_partial(name: str, n: int) -> Polynomial:
    """The degree < 2^n prefix polynomial F_n, G_n, H_n or I_n.

    For n < 0 the conventional value is the constant polynomial 1.
    """
    if n < 0:
        return Polynomial.one()
    return Polynomial(expand_named(name, (1 << n) - 1).coeffs)


# ---------------------------------------------------------------------------
# Mahler equations and the coefficient-recursion solver.
# ---------------------------------------------------------------------------


class MahlerEquation(_Record):
    """A(q) + A_0(q) f(q) + A_1(q) f(q^k) + ... + A_d(q) f(q^(k^d)) = 0.

    ``normalization``, when not None, is the value of f(0): it pins the
    solution when the equation leaves f(0) free.  Immutable, and equal to
    another when all four fields are.
    """

    __slots__ = ("k", "coeffs", "inhomogeneous", "normalization")

    def __init__(self, k: int, coeffs, inhomogeneous: Polynomial = Polynomial(), normalization=None):
        coeffs = tuple(coeffs)
        if k < 2:
            raise ValueError("k must be >= 2")
        if not any(coeffs):
            raise ValueError("all A_i are zero")
        for name, value in zip(self.__slots__, (k, coeffs, inhomogeneous, normalization)):
            object.__setattr__(self, name, value)

    @property
    def depth(self) -> int:
        return len(self.coeffs) - 1

    def residual(self, f: TruncatedSeries) -> TruncatedSeries:
        """A + sum A_i(q) f(q^(k^i)) truncated at f's order."""
        total = TruncatedSeries.from_poly(self.inhomogeneous, f.order)
        for i, ai in enumerate(self.coeffs):
            if ai:
                total = total + f.substitute_power(self.k**i) * ai
        return total


class MahlerSolveError(ValueError):
    """Raised when the recursion is underdetermined or inconsistent.

    The ``index`` attribute reports the offending coefficient index.
    """

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


def solve_mahler(eq: MahlerEquation, order: int) -> TruncatedSeries:
    """Solve for the power-series prefix via the coefficient recursion.

    Comparing the coefficient of q^m on both sides of the equation and
    isolating the highest-index unknown gives each x_n from lower ones; the
    term c q^j of A_i touches x_((m-j)/k^i) at order m.  The
    equation is rejected (never guessed through) when a coefficient's
    multiplier vanishes or an equation refers to a not-yet-determined index.
    """
    s = eq.coeffs[0].valuation()
    if s < 0:
        raise MahlerSolveError("A_0 is zero; coefficients cannot be isolated", 0)
    norm = eq.normalization
    terms = [(eq.k**i, j, c) for i, a in enumerate(eq.coeffs) for j, c in enumerate(a.coeffs) if c]
    x: list = []  # the determined prefix

    for m in range(order + s + 1):
        target = m - s
        total = eq.inhomogeneous.coeff(m)
        coef_target = 0
        for ki, j, c in terms:
            r = m - j
            if r < 0 or r % ki:
                continue
            idx = r // ki
            if idx == target:
                coef_target = coef_target + c
            elif idx > target:
                raise MahlerSolveError(
                    f"equation at order {m} references an undetermined coefficient", m
                )
            elif x[idx]:
                total = total + c * x[idx]
        if target < 0:
            if total != 0:
                raise MahlerSolveError(f"inconsistent equation at order {m}", m)
            continue
        if coef_target == 0:
            if total != 0:
                raise MahlerSolveError(
                    f"inconsistent equation for coefficient {target}", target
                )
            if norm is not None and target == 0:
                x.append(norm)
            else:
                raise MahlerSolveError(
                    f"coefficient {target} is not determined by the equation "
                    "(supply a normalization)",
                    target,
                )
        else:
            value = _exact_div(-total, coef_target) if total else 0
            if norm is not None and target == 0 and value != norm:
                raise MahlerSolveError(
                    f"normalization {norm} contradicts forced value {value} "
                    f"at index {target}",
                    target,
                )
            x.append(value)

    result = TruncatedSeries(x, order)
    if not eq.residual(result).is_zero():
        raise MahlerSolveError("re-substitution residual is nonzero", -1)
    return result
