"""Hadamard products, the complete-Hadamard classifier, k-kernels and the
Becker homogenization rewrite."""

from __future__ import annotations

from math import lcm
from typing import NamedTuple

from .linalg import first_null_vector, rank
from .poly import Polynomial, RationalFunction, _to_int_coeffs, check_size
from .series import MahlerEquation, TruncatedSeries, solve_mahler


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
# Becker homogenization (inhomogeneous -> homogeneous pieces).
# ---------------------------------------------------------------------------


class BeckerPiece(NamedTuple):
    """One monomial piece c*q^n of the inhomogeneous term.

    ``constant_equation`` has constant inhomogeneity c and solves for
    g = f_piece / q^n; ``homogeneous`` is its Step-3 subtraction, of depth
    one more, satisfied by the same g.
    """

    shift: int
    constant: object
    constant_equation: MahlerEquation
    homogeneous: MahlerEquation


def becker_homogenize(eq: MahlerEquation) -> list[BeckerPiece]:
    """Split A by monomials, shift each piece into constant shape, then kill
    the constant with the q -> q^k image.  Requires Becker shape A_0 = 1.

    The input solution recombines as f = sum_j q^(n_j) g_j where g_j solves
    piece j's constant equation (and therefore also its homogeneous one).
    """
    if eq.coeffs[0] != Polynomial.one():
        raise ValueError("Becker shape requires A_0(q) = 1")
    if eq.inhomogeneous.is_zero():
        return [BeckerPiece(0, 0, eq, eq)]
    pieces = []
    k = eq.k
    for n, c in enumerate(eq.inhomogeneous.coeffs):
        if not c:
            continue
        shifted = tuple(ai.shift(n * k**i - n) for i, ai in enumerate(eq.coeffs))
        const_eq = MahlerEquation(
            k=k,
            coeffs=shifted,
            inhomogeneous=Polynomial.constant(c),
            normalization=eq.normalization if n == 0 else None,
        )
        pieces.append(BeckerPiece(n, c, const_eq, _step3(const_eq)))
    return pieces


def _step3(eq: MahlerEquation) -> MahlerEquation:
    """Subtract the q -> q^k image to remove a constant inhomogeneity."""
    k = eq.k
    old = eq.coeffs
    new = [*old, Polynomial.zero()]
    for i, ai in enumerate(old):
        new[i + 1] = new[i + 1] - ai.substitute_power(k)
    return MahlerEquation(
        k=k, coeffs=tuple(new), inhomogeneous=Polynomial.zero(), normalization=eq.normalization
    )


def recombine_becker(eq: MahlerEquation, pieces: list[BeckerPiece], order: int) -> TruncatedSeries:
    """Solve each piece's constant equation and reassemble sum q^n_j g_j."""
    total = TruncatedSeries.zero(order)
    for piece in pieces:
        ceq = piece.constant_equation
        if ceq is not eq and ceq.normalization is None:
            ceq = MahlerEquation(ceq.k, ceq.coeffs, ceq.inhomogeneous, _forced_or_zero(ceq))
        total = total + solve_mahler(ceq, order).shift(piece.shift)
    return total


def _forced_or_zero(eq: MahlerEquation):
    """Normalization for a shifted piece: g(0) is forced unless the constant
    column vanishes, in which case 0 is the natural choice."""
    return None if sum(ai.coeff(0) for ai in eq.coeffs) else 0  # None: the equation fixes g(0)


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
