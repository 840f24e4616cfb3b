"""Closed registry of the exact series and prefix-polynomial identities.

Series identities are checked coefficient-by-coefficient to a requested
order; prefix identities (the H_n family) are exact polynomial equalities
checked for every level n up to a bound derived from the same parameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .poly import Polynomial
from .series import TruncatedSeries, expand_named, truncated_partial


@dataclass(frozen=True)
class IdentityReport:
    identity: str
    holds: bool
    first_failure: int | None
    checked: int  # order for series identities, max level for prefix ones


@dataclass(frozen=True)
class Identity:
    id: str
    description: str
    kind: str  # "series" (exact to order N) or "prefix" (levels n <= bound(N))
    run: Callable[[int], IdentityReport]


def _series_report(ident: str, lhs: TruncatedSeries, rhs: TruncatedSeries) -> IdentityReport:
    bad = lhs.first_difference(rhs)
    n = min(lhs.order, rhs.order)
    return IdentityReport(ident, bad is None, bad, n)


def _check_prop_fgh(order: int) -> IdentityReport:
    f = expand_named("F", order)
    g = expand_named("G", order)
    i = expand_named("I", order)
    rhs = f.substitute_power(3).shift(1) + g.substitute_power(3)
    return _series_report("propFGH", i, rhs)


def _check_cross_gg(order: int) -> IdentityReport:
    f = expand_named("F", order)
    g = expand_named("G", order)
    lhs = g * g.substitute_power(2) - (f * f.substitute_power(2)).shift(1)
    return _series_report("cross-GG-qFF", lhs, TruncatedSeries.one(order))


def _check_cross_fg(order: int) -> IdentityReport:
    f = expand_named("F", order)
    g = expand_named("G", order)
    lhs = f * g.substitute_power(4) - (g * f.substitute_power(4)).shift(1)
    return _series_report("cross-FG4-qGF4", lhs, TruncatedSeries.one(order))


def _check_mahler4(name: str, order: int) -> IdentityReport:
    s = expand_named(name, order)
    s4, s16 = s.substitute_power(4), s.substitute_power(16)
    one_q_q2 = Polynomial([1, 1, 1])
    if name == "F":
        lhs = s
        rhs = one_q_q2 * s4 - s16.shift(4)
    elif name == "G":
        lhs = s.shift(1)
        rhs = one_q_q2 * s4 - s16
    elif name == "H":
        lhs = s
        rhs = one_q_q2 * s4 - s16.shift(6)
    elif name == "I":
        lhs = s.shift(3)
        rhs = Polynomial([1, 0, 0, 1, 0, 0, 1]) * s4 - s16
    else:
        raise ValueError(name)
    return _series_report(f"mahler4-{name}", lhs, rhs)


def _levels(order: int, cap: int = 12) -> int:
    """Prefix identities are checked for n <= min(cap, log2-ish of order)."""
    n = 1
    while (1 << (n + 1)) <= max(order, 2) and n < cap:
        n += 1
    return max(n, 2)


def _check_prefix_recursions(order: int) -> IdentityReport:
    top = _levels(order)
    for n in range(1, top + 1):
        fn = {nm: truncated_partial(nm, n) for nm in "FGHI"}
        fn1 = {nm: truncated_partial(nm, n - 1) for nm in "FGHI"}
        fn2 = {nm: truncated_partial(nm, n - 2) for nm in "FGHI"}
        x = Polynomial.x()
        ok = (
            fn["F"] == fn1["G"].substitute_power(2) + x * fn2["F"].substitute_power(4)
            and fn["G"] == (x * fn1["F"].substitute_power(2)) + fn2["G"].substitute_power(4)
            and fn["H"] == fn1["H"].substitute_power(2) + x * fn2["H"].substitute_power(4)
            and fn["I"] == x * fn1["I"].substitute_power(2) + fn2["I"].substitute_power(4)
        )
        if not ok:
            return IdentityReport("hn-recursions", False, n, top)
    return IdentityReport("hn-recursions", True, None, top)


def _check_hn_nonlinear(order: int) -> IdentityReport:
    top = _levels(order)
    for n in range(1, top + 1):
        lhs = truncated_partial("H", n - 2).substitute_power(2) * truncated_partial("H", n) \
            - truncated_partial("H", n - 1) * truncated_partial("H", n - 1).substitute_power(2)
        rhs = Polynomial.monomial((1 << n) - 1, (-1) ** (n - 1))
        if lhs != rhs:
            return IdentityReport("hn-nonlinear", False, n, top)
    return IdentityReport("hn-nonlinear", True, None, top)


def _check_hn_combinatorial(order: int) -> IdentityReport:
    top = _levels(order)
    for n in range(1, top + 1):
        lhs = truncated_partial("H", n)
        rhs = truncated_partial("H", n - 1) + Polynomial.monomial(1 << (n - 1)) * truncated_partial("H", n - 2)
        if lhs != rhs:
            return IdentityReport("hn-combinatorial", False, n, top)
    return IdentityReport("hn-combinatorial", True, None, top)


def _check_hn_reversal(order: int) -> IdentityReport:
    """H_n(x) = x^(2(2^n-1)/3) F_n(1/x) for even n, with G_n for odd n.

    The x^m prefactor is absorbed by Polynomial.reverse so the check stays in
    the polynomial ring.
    """
    top = _levels(order, cap=10)
    for n in range(0, top + 1):
        if n % 2 == 0:
            m = 2 * ((1 << n) - 1) // 3
            other = truncated_partial("F", n)
        else:
            m = ((1 << (n + 1)) - 1) // 3
            other = truncated_partial("G", n)
        if other.degree > m or other.reverse(m) != truncated_partial("H", n):
            return IdentityReport("hn-reversal", False, n, top)
    return IdentityReport("hn-reversal", True, None, top)


REGISTRY: dict[str, Identity] = {}


def _register(id: str, description: str, kind: str, run):
    REGISTRY[id] = Identity(id, description, kind, run)


_register("propFGH", "I(q) = q F(q^3) + G(q^3)", "series", _check_prop_fgh)
_register("cross-GG-qFF", "G(q)G(q^2) - q F(q)F(q^2) = 1", "series", _check_cross_gg)
_register("cross-FG4-qGF4", "F(q)G(q^4) - q G(q)F(q^4) = 1", "series", _check_cross_fg)
_register("mahler4-F", "F(q) = (1+q+q^2)F(q^4) - q^4 F(q^16)", "series",
          lambda N: _check_mahler4("F", N))
_register("mahler4-G", "q G(q) = (1+q+q^2)G(q^4) - G(q^16)", "series",
          lambda N: _check_mahler4("G", N))
_register("mahler4-H", "H(q) = (1+q+q^2)H(q^4) - q^6 H(q^16)", "series",
          lambda N: _check_mahler4("H", N))
_register("mahler4-I", "q^3 I(q) = (1+q^3+q^6)I(q^4) - I(q^16)", "series",
          lambda N: _check_mahler4("I", N))
_register("hn-recursions", "prefix recursions, e.g. H_n(x) = H_{n-1}(x^2) + x H_{n-2}(x^4)",
          "prefix", _check_prefix_recursions)
_register("hn-nonlinear",
          "H_{n-2}(x^2)H_n(x) - H_{n-1}(x)H_{n-1}(x^2) = (-1)^(n-1) x^(2^n-1)",
          "prefix", _check_hn_nonlinear)
_register("hn-combinatorial", "H_n(x) = H_{n-1}(x) + x^(2^(n-1)) H_{n-2}(x)",
          "prefix", _check_hn_combinatorial)
_register("hn-reversal", "x^(2(2^n-1)/3) F_n(1/x) = H_n(x) for even n (G_n for odd)",
          "prefix", _check_hn_reversal)


def verify_series_identity(identity: str, order: int) -> IdentityReport:
    """Run one registered identity at the given order / level budget."""
    try:
        ident = REGISTRY[identity]
    except KeyError:
        raise ValueError(
            f"unknown identity {identity!r}; known: {sorted(REGISTRY)}"
        ) from None
    return ident.run(order)


def identity_ids() -> list[str]:
    return list(REGISTRY)
