"""Exact linear algebra over Q: one Gauss-Jordan elimination and the rank
and null-vector queries built on it.

Matrices are lists of rows whose entries are ``int`` or ``Fraction``; every
routine that eliminates reduces the rows it is given in place.

``first_null_vector`` first computes the rank modulo the prime p = 2^61 - 1.
A minor that is nonzero mod p is nonzero over Q, so the rank mod p is a lower
bound on the rank over Q; when it already equals the number of columns, it
proves the kernel trivial.  Only the other cases run the exact elimination.
"""

from __future__ import annotations

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


def _rank_mod_p(rows: list[list], ncols: int) -> int | None:
    """Rank mod _P of the matrix ``rows`` with ``ncols`` columns, or None when
    some Fraction entry has a denominator divisible by _P.

    Rows are inserted one at a time into an echelon basis {pivot column: row
    with pivot entry 1}, stopping once it holds ``ncols`` rows; ``rows`` is
    left as it is.
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
    return len(basis)


def rank(rows: list[list], ncols: int) -> int:
    """Rank over Q of the matrix ``rows`` with ``ncols`` columns."""
    return len(rref(rows, ncols))


def first_null_vector(rows: list[list], ncols: int) -> list[int] | None:
    """Primitive integer kernel vector for the first free column, or None when
    the kernel is trivial."""
    if _rank_mod_p(rows, ncols) == ncols:
        return None
    pivots = rref(rows, ncols)
    free = next((c for c in range(ncols) if c not in pivots), None)
    if free is None:
        return None
    vec = [0] * ncols
    vec[free] = 1
    for col, row in pivots.items():
        vec[col] = -row[free]
    return _to_int_coeffs(vec)
