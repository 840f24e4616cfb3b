"""Hadamard products, the complete-Hadamard classifier, k-kernels and the
bounded Mahler-recursion probe."""

from __future__ import annotations

from math import lcm
from typing import NamedTuple

from .linalg import first_null_vector, rank
from .poly import Polynomial, RationalFunction, _to_int_coeffs, check_size
from .series import MahlerEquation, TruncatedSeries


def hadamard_product(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Coefficient-wise product to the minimum order."""
    n = min(a.order, b.order)
    return TruncatedSeries([a.coeffs[i] * b.coeffs[i] for i in range(n + 1)], n)


# ---------------------------------------------------------------------------
# Complete Hadamard rational functions.
# ---------------------------------------------------------------------------


class CompleteHadamardResult(NamedTuple):
    complete: bool
    m: int | None = None  # lcm of the root orders when complete
    witness: Polynomial | None = None  # a denominator factor with a non-root-of-unity root


def _squarefree_radical(p: Polynomial) -> Polynomial:
    g = p.gcd(p.derivative())
    return (p // g).monic() if g.degree > 0 else p.monic()


def is_complete_hadamard_rational(f: RationalFunction) -> CompleteHadamardResult:
    """Classify r/s: complete Hadamard iff every root of s is a root of unity.

    Strategy: reduce to the squarefree radical h of s, then peel off
    gcd(h, x^d - 1) for candidate orders d.  Euler's phi satisfies
    phi(d) >= sqrt(d/2), so any root order d of a degree-e factor obeys
    d <= 2 e^2; enumerating d up to 2 deg(h)^2 is exhaustive.  x^d - 1 is
    never materialized: x^d mod h is x^(d-1) mod h shifted and reduced.
    """
    if f.den.coeff(0) == 0:
        raise ZeroDivisionError("denominator vanishes at 0")
    h = _squarefree_radical(f.den)
    if h.degree <= 0:
        return CompleteHadamardResult(True, m=1)
    bound = 2 * h.degree * h.degree
    m = 1
    power = Polynomial.one()  # x^d mod h, with deg h >= 1
    for d in range(1, bound + 1):
        power = power.shift(1) % h
        g = h.gcd(power - Polynomial.one())
        if g.degree > 0:
            h = (h // g).monic()
            m = lcm(m, d)
            if h.degree <= 0:
                return CompleteHadamardResult(True, m=m)
            power = power % h  # the new h divides the old one
    # h is monic, so its primitive integer multiple has a positive lead
    return CompleteHadamardResult(False, witness=Polynomial(_to_int_coeffs(h.coeffs)))


# ---------------------------------------------------------------------------
# Finite-depth k-kernel reports.
# ---------------------------------------------------------------------------


class KernelReport(NamedTuple):
    k: int
    depth: int
    distinct: int
    generators_estimate: int  # exact rank of the span of subsequence prefixes


def k_kernel(seq, k: int, depth: int) -> KernelReport:
    """Distinct count and rank of the subsequences (x_{k^e n + r}), e <= depth.

    Requires the prefix to show at least 16 terms of every subsequence at the
    maximum depth.  All rows are truncated to the shortest visible length so
    the comparison is deterministic.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    seq = list(seq)
    ke = k**depth if depth < len(seq).bit_length() else len(seq) + 1  # else k^depth > len(seq)
    max_len = (len(seq) - ke) // ke + 1 if len(seq) >= ke else 0
    if max_len < 16:
        raise ValueError(
            f"prefix of length {len(seq)} shows only {max_len} terms at depth {depth}; need >= 16"
        )
    distinct = {tuple(seq[r :: k**e][:max_len]) for e in range(depth + 1) for r in range(k**e)}
    return KernelReport(k, depth, len(distinct), rank([list(row) for row in distinct], max_len))


# ---------------------------------------------------------------------------
# Bounded search for a Mahler recursion of a Hadamard product.
# ---------------------------------------------------------------------------


class ProbeResult(NamedTuple):
    found: MahlerEquation | None
    d_max: int
    deg_max: int
    order: int

    @property
    def is_none_up_to(self) -> bool:
        return self.found is None


def hadamard_mahler_probe(
    f: TruncatedSeries,
    g: RationalFunction,
    k: int,
    order: int,
    d_max: int,
    deg_max: int,
) -> ProbeResult:
    """Search for polynomial A_0..A_d of degree <= deg_max annihilating the
    Hadamard product f * series(g) to the given order.

    Homogeneous relations only; a "none" answer is bounded-search evidence,
    not a proof of non-Mahlerness.  The first solution in the (d, then RREF
    free-column) enumeration order is returned after exact re-verification.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if order > f.order:
        raise ValueError("order exceeds the truncation order of f")
    check_size("the probe system's entry count", (order + 1) * (d_max + 1) * (deg_max + 1))
    h = hadamard_product(f, TruncatedSeries.from_rational(g, f.order)).truncate(order)
    for d in range(d_max + 1):
        sol = _nullspace_first(h, k, d, deg_max)
        if sol is not None:
            coeffs = tuple(
                Polynomial(sol[i * (deg_max + 1) : (i + 1) * (deg_max + 1)])
                for i in range(d + 1)
            )
            eq = MahlerEquation(k=k, coeffs=coeffs, inhomogeneous=Polynomial.zero())
            if eq.residual(h).is_zero():
                return ProbeResult(eq, d_max, deg_max, order)
    return ProbeResult(None, d_max, deg_max, order)


def _nullspace_first(h: TruncatedSeries, k: int, d: int, deg_max: int):
    """First nullspace vector (cleared to integers) of the annihilation
    system, or None when only the trivial solution exists; the rows are
    built as the solver asks for them."""
    ncols = (d + 1) * (deg_max + 1)

    def rows():
        for n in range(h.order + 1):
            row = [0] * ncols
            for i in range(d + 1):
                ki = k**i
                for j in range(min(deg_max, n) + 1):
                    if (n - j) % ki == 0:
                        row[i * (deg_max + 1) + j] = h.coeffs[(n - j) // ki]
            if any(row):
                yield row

    return first_null_vector(rows(), ncols)
