"""Truncated power series, the four named {0,1}-series and the Mahler solver.

A ``TruncatedSeries`` is a coefficient prefix c_0..c_N together with its
truncation order N.  Arithmetic never reads past the order and records the
minimum of the operand orders, so a result is exact as far as it goes.

The series layer only truncates; polynomial products go through the one
multiplication seam ``poly._list_mul``.  A product strips the zero tails of
its order-clipped operands first, so a zero tail costs no multiplication
work: a series times a polynomial of d+1 terms is O(N*d), whether the
polynomial comes as a ``Polynomial`` or as a padded series.  Division walks
only the divisor's nonzero terms, O(N * nnz).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .poly import Polynomial, RationalFunction, _coerced, _exact_div, _Exact, _list_mul, _strip


class TruncatedSeries(_Exact):
    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: Sequence, order: int | None = None):
        coeffs = list(coeffs)
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("order must be >= 0")
        if len(coeffs) < order + 1:
            coeffs += [0] * (order + 1 - len(coeffs))
        object.__setattr__(self, "coeffs", tuple(coeffs[: order + 1]))
        object.__setattr__(self, "order", order)

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
        if not rf.den.coeffs[0]:
            raise ZeroDivisionError("denominator vanishes at 0")
        return cls.from_poly(rf.num, order) / rf.den

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    def __hash__(self):
        return hash((self.order, tuple(self.coeffs)))

    def first_difference(self, other: TruncatedSeries) -> int | None:
        n = min(self.order, other.order)
        for i in range(n + 1):
            if self.coeffs[i] != other.coeffs[i]:
                return i
        return None

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    @_coerced
    def __add__(self, other) -> TruncatedSeries:
        n = min(self.order, other.order)
        return TruncatedSeries(
            [self.coeffs[i] + other.coeffs[i] for i in range(n + 1)], n
        )

    __radd__ = __add__

    def __neg__(self) -> TruncatedSeries:
        return TruncatedSeries([-c for c in self.coeffs], self.order)

    def __mul__(self, other) -> TruncatedSeries:
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries([c * other for c in self.coeffs], self.order)
        if isinstance(other, Polynomial):  # clipped, never padded to the order
            n = self.order
        elif isinstance(other, TruncatedSeries):
            n = min(self.order, other.order)
        else:
            return NotImplemented
        prod = _list_mul(_strip(self.coeffs[: n + 1]), _strip(other.coeffs[: n + 1]))
        return TruncatedSeries(prod[: n + 1], n)

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
        for i in range(n + 1):
            c = out[i]
            for j, d in terms:
                if j > i:
                    break
                if out[i - j]:
                    c = c - d * out[i - j]
            out[i] = c if d0 == 1 else _exact_div(c, d0)
        return TruncatedSeries(out, n)

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
        return TruncatedSeries(out, self.order)

    def truncate(self, order: int) -> TruncatedSeries:
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncatedSeries(self.coeffs[: order + 1], order)

    def shift(self, k: int) -> TruncatedSeries:
        """Multiply by q^k, capped at the order."""
        return TruncatedSeries([0] * k + list(self.coeffs), self.order)

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


def expand_named(name: str, order: int) -> TruncatedSeries:
    """Coefficients 0..order of F, G, H or I via the coefficient recursions.

    All four are the unique power-series solutions with value 1 at 0 of

        F(q) = G(q^2) + q F(q^4)      G(q) = q F(q^2) + G(q^4)
        H(q) = H(q^2) + q H(q^4)      I(q) = q I(q^2) + I(q^4)
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if name in ("F", "G"):
        a = [0] * (order + 1)
        b = [0] * (order + 1)
        a[0] = b[0] = 1
        for n in range(1, order + 1):
            if n % 2 == 0:
                a[n] = b[n // 2]
            elif n % 4 == 1:
                a[n] = a[(n - 1) // 4]
            if n % 2 == 1:
                b[n] = a[(n - 1) // 2]
            elif n % 4 == 0:
                b[n] = b[n // 4]
        return TruncatedSeries(a if name == "F" else b, order)
    if name == "H":
        c = [0] * (order + 1)
        c[0] = 1
        for n in range(1, order + 1):
            if n % 2 == 0:
                c[n] = c[n // 2]
            elif n % 4 == 1:
                c[n] = c[(n - 1) // 4]
        return TruncatedSeries(c, order)
    if name == "I":
        d = [0] * (order + 1)
        d[0] = 1
        for n in range(1, order + 1):
            if n % 2 == 1:
                d[n] = d[(n - 1) // 2]
            elif n % 4 == 0:
                d[n] = d[n // 4]
        return TruncatedSeries(d, order)
    raise ValueError(f"unknown series {name!r}; expected one of {NAMED_SERIES}")


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


@dataclass(frozen=True)
class MahlerEquation:
    """A(q) + A_0(q) f(q) + A_1(q) f(q^k) + ... + A_d(q) f(q^(k^d)) = 0.

    ``normalization`` pins the solution when the equation leaves f(0) (or the
    first nonzero coefficient) free: either a bare value meaning f(0), or an
    (index, value) pair.
    """

    k: int
    coeffs: tuple[Polynomial, ...]
    inhomogeneous: Polynomial = field(default_factory=Polynomial.zero)
    normalization: object = None

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if not any(self.coeffs):
            raise ValueError("all A_i are zero")
        object.__setattr__(self, "coeffs", tuple(self.coeffs))

    @property
    def depth(self) -> int:
        return len(self.coeffs) - 1

    def normalization_pair(self):
        if self.normalization is None:
            return None
        if isinstance(self.normalization, tuple):
            return self.normalization
        return (0, self.normalization)

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
    isolating the highest-index unknown gives each x_n from lower ones.  The
    equation is rejected (never guessed through) when a coefficient's
    multiplier vanishes or an equation refers to a not-yet-determined index.
    """
    a0 = eq.coeffs[0]
    s = a0.valuation()
    if s < 0:
        raise MahlerSolveError("A_0 is zero; coefficients cannot be isolated", 0)
    k = eq.k
    norm = eq.normalization_pair()
    x: list = [None] * (order + 1)
    n_known = 0  # all indices < n_known are determined

    for m in range(order + s + 1):
        target = m - s
        total = eq.inhomogeneous.coeff(m)
        coef_target = 0
        ok = True
        for i, ai in enumerate(eq.coeffs):
            if not ai:
                continue
            ki = k**i
            for j, aij in enumerate(ai.coeffs):
                if not aij or j > m:
                    continue
                r = m - j
                if r % ki:
                    continue
                idx = r // ki
                if idx == target:
                    coef_target = coef_target + aij
                elif idx < n_known:
                    if x[idx]:
                        total = total + aij * x[idx]
                else:
                    ok = False
        if not ok:
            raise MahlerSolveError(
                f"equation at order {m} references an undetermined coefficient", m
            )
        if target < 0 or target > order:
            if total != 0:
                raise MahlerSolveError(f"inconsistent equation at order {m}", m)
            continue
        if coef_target == 0:
            if total != 0:
                raise MahlerSolveError(
                    f"inconsistent equation for coefficient {target}", target
                )
            if norm is not None and norm[0] == target:
                x[target] = norm[1]
            elif norm is not None and norm[0] > target:
                x[target] = 0
            else:
                raise MahlerSolveError(
                    f"coefficient {target} is not determined by the equation "
                    "(supply a normalization)",
                    target,
                )
        else:
            value = _exact_div(-total, coef_target) if total else 0
            if norm is not None and norm[0] == target and value != norm[1]:
                raise MahlerSolveError(
                    f"normalization {norm[1]} contradicts forced value {value} "
                    f"at index {target}",
                    target,
                )
            x[target] = value
        n_known = target + 1

    result = TruncatedSeries(x, order)
    if not eq.residual(result).is_zero():
        raise MahlerSolveError("re-substitution residual is nonzero", -1)
    return result
