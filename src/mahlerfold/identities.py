"""Closed catalogue of the exact identities that ``verify`` checks.

Each entry's ``run(budget)`` returns an IdentityReport.  ``REGISTRY`` holds
the series identities, exact to an order, and the prefix (H_n) identities,
checked for every level up to a bound derived from the order; ``FOLD_CHECKS``
holds the fold-recursion results, whose budget is a level or an order.  Every
level check runs through one loop, ``_level_report``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

from . import folding
from .poly import MAX_RESULT_BITS_LOG2, Polynomial, check_size
from .series import TruncatedSeries, expand_named, truncated_partial


class IdentityReport(NamedTuple):
    identity: str
    holds: bool
    first_failure: int | None
    checked: int  # the order for series identities, the top level otherwise


@dataclass(frozen=True)
class Identity:
    id: str
    description: str
    kind: str  # "series" (exact to order N), "prefix" (levels n <= bound(N)) or "fold" (n <= N)
    run: Callable[[int], IdentityReport]


def _series_report(ident: str, lhs: TruncatedSeries, rhs: TruncatedSeries) -> IdentityReport:
    bad = lhs.first_difference(rhs)
    n = min(lhs.order, rhs.order)
    return IdentityReport(ident, bad is None, bad, n)


def _level_report(ident: str, first: int, top: int, holds: Callable[[int], bool]) -> IdentityReport:
    """Check holds(n) for n = first..top; report the first level where it fails."""
    bad = next((n for n in range(first, top + 1) if not holds(n)), None)
    return IdentityReport(ident, bad is None, bad, top)


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


# q^a S(q) = A(q) S(q^4) - q^b S(q^16): name -> (a, A, b, description)
_MAHLER4 = {
    "F": (0, Polynomial([1, 1, 1]), 4, "F(q) = (1+q+q^2)F(q^4) - q^4 F(q^16)"),
    "G": (1, Polynomial([1, 1, 1]), 0, "q G(q) = (1+q+q^2)G(q^4) - G(q^16)"),
    "H": (0, Polynomial([1, 1, 1]), 6, "H(q) = (1+q+q^2)H(q^4) - q^6 H(q^16)"),
    "I": (3, Polynomial([1, 0, 0, 1, 0, 0, 1]), 0, "q^3 I(q) = (1+q^3+q^6)I(q^4) - I(q^16)"),
}


def _check_mahler4(name: str, order: int) -> IdentityReport:
    left, factor, right, _ = _MAHLER4[name]
    s = expand_named(name, order)
    rhs = factor * s.substitute_power(4) - s.substitute_power(16).shift(right)
    return _series_report(f"mahler4-{name}", s.shift(left), rhs)


def _levels(order: int, cap: int = 12) -> int:
    """Prefix identities are checked for n <= min(cap, log2-ish of order)."""
    n = 1
    while (1 << (n + 1)) <= max(order, 2) and n < cap:
        n += 1
    return max(n, 2)


def _check_prefix_recursions(order: int) -> IdentityReport:
    x = Polynomial.x()

    def holds(n: int) -> bool:
        fn, fn1, fn2 = ({nm: truncated_partial(nm, n - k) for nm in "FGHI"} for k in range(3))
        return (
            fn["F"] == fn1["G"].substitute_power(2) + x * fn2["F"].substitute_power(4)
            and fn["G"] == (x * fn1["F"].substitute_power(2)) + fn2["G"].substitute_power(4)
            and fn["H"] == fn1["H"].substitute_power(2) + x * fn2["H"].substitute_power(4)
            and fn["I"] == x * fn1["I"].substitute_power(2) + fn2["I"].substitute_power(4)
        )

    return _level_report("hn-recursions", 1, _levels(order), holds)


def _check_hn_nonlinear(order: int) -> IdentityReport:
    def holds(n: int) -> bool:
        lhs = truncated_partial("H", n - 2).substitute_power(2) * truncated_partial("H", n) \
            - truncated_partial("H", n - 1) * truncated_partial("H", n - 1).substitute_power(2)
        return lhs == Polynomial.monomial((1 << n) - 1, (-1) ** (n - 1))

    return _level_report("hn-nonlinear", 1, _levels(order), holds)


def _check_hn_combinatorial(order: int) -> IdentityReport:
    def holds(n: int) -> bool:
        rhs = truncated_partial("H", n - 1) + Polynomial.monomial(1 << (n - 1)) * truncated_partial("H", n - 2)
        return truncated_partial("H", n) == rhs

    return _level_report("hn-combinatorial", 1, _levels(order), holds)


def _check_hn_reversal(order: int) -> IdentityReport:
    """H_n(x) = x^(2(2^n-1)/3) F_n(1/x) for even n, with G_n for odd n.

    The x^m prefactor is absorbed by Polynomial.reverse so the check stays in
    the polynomial ring.
    """
    def holds(n: int) -> bool:
        if n % 2 == 0:
            m = 2 * ((1 << n) - 1) // 3
            other = truncated_partial("F", n)
        else:
            m = ((1 << (n + 1)) - 1) // 3
            other = truncated_partial("G", n)
        return other.degree <= m and other.reverse(m) == truncated_partial("H", n)

    return _level_report("hn-reversal", 0, _levels(order, cap=10), holds)


def _check_rho_theorem(max_level: int) -> IdentityReport:
    """[s_n; w_n] has continuants (H_n, H_{n-1}(x^2)), |w_n| = (2^(n+1) + (-1)^n)/3 - 1."""
    check_size("rho-theorem level", max_level, 6)  # keeps 1 << max_level small
    check_size(f"rho-theorem at level {max_level}: coefficients", 1 << max_level, MAX_RESULT_BITS_LOG2)
    engine = folding.FoldEngine("rho", Polynomial.x())
    lengths = folding.word_lengths("rho", max_level)

    def holds(n: int) -> bool:
        mat = engine.with_head(n, folding.rho_head(n))
        return (
            lengths[n] == ((1 << (n + 1)) + (-1) ** n) // 3 - 1
            and mat.p == truncated_partial("H", n)
            and mat.q == truncated_partial("H", n - 1).substitute_power(2)
        )

    return _level_report("rho-theorem", 0, max_level, holds)


def _check_fg_mahler(order: int) -> IdentityReport:
    res_f, res_g = folding.rho_word_equations(order)
    first = None if res_f.is_zero() and res_g.is_zero() else next(
        i for i, pair in enumerate(zip(res_f.coeffs, res_g.coeffs)) if any(pair))
    return IdentityReport("fg-mahler", first is None, first, order)


def _check_ij_system(order: int) -> IdentityReport:
    bad = folding.ij_system_check(order).first_failure
    return IdentityReport("ij-system", bad is None, bad, order)


def _check_e_words(max_level: int) -> IdentityReport:
    """w_n = -e_(n+1) for even n and [1, w_n] = e_(n+1) for odd n; a level whose
    w_(n+1) would pass the sign words' letter cap is refused before any runs."""
    if folding._passes_letter_cap(folding.named_spec("rho"), max_level + 1):
        raise ValueError(f"e-words at level {max_level}: w_{max_level + 1} would pass the cap of "
                         f"{folding.MAX_SIGN_WORD_LETTERS} letters")

    def holds(n: int) -> bool:
        w = folding.iterate_fold("rho", n)
        e_next = folding.signed_even_subword(folding.iterate_fold("rho", n + 1))
        return list(w) == [-s for s in e_next] if n % 2 == 0 else [1, *w] == e_next

    return _level_report("e-words", 0, max_level, holds)


def _table(*entries) -> dict[str, Identity]:
    return {e[0]: Identity(*e) for e in entries}


REGISTRY: dict[str, Identity] = _table(
    ("propFGH", "I(q) = q F(q^3) + G(q^3)", "series", _check_prop_fgh),
    ("cross-GG-qFF", "G(q)G(q^2) - q F(q)F(q^2) = 1", "series", _check_cross_gg),
    ("cross-FG4-qGF4", "F(q)G(q^4) - q G(q)F(q^4) = 1", "series", _check_cross_fg),
    *((f"mahler4-{name}", row[-1], "series", partial(_check_mahler4, name))
      for name, row in _MAHLER4.items()),
    ("hn-recursions", "prefix recursions, e.g. H_n(x) = H_{n-1}(x^2) + x H_{n-2}(x^4)",
     "prefix", _check_prefix_recursions),
    ("hn-nonlinear", "H_{n-2}(x^2)H_n(x) - H_{n-1}(x)H_{n-1}(x^2) = (-1)^(n-1) x^(2^n-1)",
     "prefix", _check_hn_nonlinear),
    ("hn-combinatorial", "H_n(x) = H_{n-1}(x) + x^(2^(n-1)) H_{n-2}(x)",
     "prefix", _check_hn_combinatorial),
    ("hn-reversal", "x^(2(2^n-1)/3) F_n(1/x) = H_n(x) for even n (G_n for odd)",
     "prefix", _check_hn_reversal),
)

# Kept out of REGISTRY, whose entries perfbench/trace_shim.py wraps in its
# identities.run span; `fold check` offers only these.
FOLD_CHECKS: dict[str, Identity] = _table(
    ("rho-theorem", "[s_n; w_n] has continuants (H_n, H_{n-1}(x^2))", "fold", _check_rho_theorem),
    ("fg-mahler", "Mahler equations of rho's word generating functions F, G",
     "series", _check_fg_mahler),
    ("ij-system", "I(x) = J(x^2) + x/(1+x^6), J(x) = I(x^2) - x^5/(1+x^6)", "series",
     _check_ij_system),
    ("e-words", "w_n = -e_(n+1) (n even), [1, w_n] = e_(n+1) (n odd)", "fold", _check_e_words),
)

