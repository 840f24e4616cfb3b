"""Exact linear algebra over Q: one Gauss-Jordan elimination and the rank
and null-vector queries built on it.

Matrices are lists of rows whose entries are ``int`` or ``Fraction``;
``rref`` and ``rank`` reduce the rows they are given in place.

``first_null_vector`` first brings the rows to echelon form modulo the prime
p = 2^61 - 1.  A minor that is nonzero mod p is nonzero over Q, so when the
rank mod p equals the number of columns the kernel is trivial.  Otherwise
the columns before the first free column f mod p are independent mod p,
hence over Q.  The kernel vector mod p with support in [0, f] and v[f] = 1
is lifted entry by entry to fractions n/d with |n|, d <= sqrt(p/2)
(rational reconstruction, von zur Gathen and Gerhard, *Modern Computer
Algebra*, 5.10) and cleared to integers.  If A v = 0 then holds exactly on
every row, f is the first free column over Q and v, the one kernel vector
with support in [0, f] and v[f] > 0 up to scale, is the vector ``rref`` would
give: proven, not probable.  When the lift or the check fails, or a
denominator is divisible by p, the exact elimination runs instead.
"""

from __future__ import annotations

from math import isqrt
from operator import mul

from .poly import _exact_div, _to_int_coeffs


def rref(rows: list[list], ncols: int) -> dict[int, list]:
    """Reduce ``rows`` in place to reduced row echelon form in columns < ncols.

    Columns are taken in order and the pivot is the first remaining row with
    a nonzero entry there.  Returns {pivot column: its row}, whose pivot entry
    is 1; the rows are reordered so that the pivot rows come first.
    """
    pivot_cols = []
    for col in range(ncols):
        r = len(pivot_cols)
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = _exact_div(1, rows[r][col])
        if inv != 1:
            rows[r] = [v * inv for v in rows[r]]
        pivot = rows[r]
        for i, row in enumerate(rows):
            factor = row[col]
            if i != r and factor:
                rows[i] = [v - factor * w for v, w in zip(row, pivot)]
        pivot_cols.append(col)
    return dict(zip(pivot_cols, rows))


_P = (1 << 61) - 1  # a Mersenne prime


def _echelon_mod_p(rows, ncols: int) -> dict[int, list[int]] | None:
    """Echelon basis {pivot column: row with pivot entry 1} mod _P of the
    matrix ``rows`` with ``ncols`` columns, or None when some Fraction entry
    has a denominator divisible by _P.

    Rows are inserted one at a time, stopping once the basis holds ``ncols``
    rows; ``rows`` (any iterable) is left as it is.
    """
    basis = {}
    for row in rows:
        v = []
        for x in row[:ncols]:
            if type(x) is not int:
                den = x.denominator % _P
                if not den:
                    return None
                x = x.numerator * pow(den, -1, _P)
            v.append(x % _P)
        for col in range(ncols):
            c = v[col]
            if not c:
                continue
            pivot = basis.get(col)
            if pivot is None:
                inv = pow(c, -1, _P)
                basis[col] = [w * inv % _P for w in v]
                break
            v = [(w - c * u) % _P for w, u in zip(v, pivot)]
        if len(basis) == ncols:
            break
    return basis


def _lift(u: int):
    """The fraction n/d = u mod _P with |n|, d <= sqrt(_P/2), or None."""
    bound, r0, r1, t0, t1 = isqrt(_P // 2), _P, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    return _exact_div(r1, t1) if abs(t1) <= bound else None


def rank(rows: list[list], ncols: int) -> int:
    """Rank over Q of the matrix ``rows`` with ``ncols`` columns."""
    return len(rref(rows, ncols))


def first_null_vector(rows, ncols: int) -> list[int] | None:
    """Primitive integer kernel vector for the first free column, or None when
    the kernel is trivial.  ``rows`` may be an iterator: the echelon mod p takes
    rows only until it is full, and the rest are built only if it is not."""
    rows, seen = iter(rows), []
    basis = _echelon_mod_p((seen.append(row) or row for row in rows), ncols)
    if basis is not None and len(basis) == ncols:
        return None
    if basis is not None:  # every row was seen: lift the vector of the first free column mod p
        free = next(c for c in range(ncols) if c not in basis)
        vec = [0] * free + [1]
        for col in reversed(range(free)):  # each column < free is a pivot
            vec[col] = -sum(map(mul, basis[col][col + 1 : free + 1], vec[col + 1 :])) % _P
        vec = _to_int_coeffs([_lift(u) for u in vec])
        if vec is not None and not any(sum(map(mul, row, vec)) for row in seen):
            return vec + [0] * (ncols - free - 1)
    pivots = rref(seen + list(rows), ncols)
    free = next((c for c in range(ncols) if c not in pivots), None)
    if free is None:
        return None
    return _to_int_coeffs([-pivots[c][free] if c in pivots else int(c == free) for c in range(ncols)])
