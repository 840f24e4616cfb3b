"""Expected answers computed without mahlerfold.

Every job's output is compared against these.  Nothing here imports the
package under test: the sign words come from the paperfolding bit rule and
from the fold recursions written out by hand, the edge walk and the
continuant recursion are re-implemented, and polynomial text is parsed here.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction

PRIME = (1 << 61) - 1

_LEFT_TURN = {(1, 0): (0, 1), (0, 1): (-1, 0), (-1, 0): (0, -1), (0, -1): (1, 0)}


def dragon_word(n: int) -> list[int]:
    """Regular paperfolding signs s_1..s_(2^n - 1): with k = 2^v * m, m odd,
    s_k = +1 when m = 1 (mod 4) and -1 when m = 3 (mod 4)."""
    out = []
    for k in range(1, 1 << n):
        m = k >> ((k & -k).bit_length() - 1)
        out.append(1 if m % 4 == 1 else -1)
    return out


def _neg_rev(w: list[int]) -> list[int]:
    return [-s for s in reversed(w)]


def rho_word(n: int) -> list[int]:
    """w_0 = w_1 = [], w_n = w_(n-2), s, -~w_(n-2), s, w_(n-1), s = (-1)^n."""
    words = [[], []]
    for m in range(2, n + 1):
        s = 1 if m % 2 == 0 else -1
        prev2 = words[m - 2]
        words.append(prev2 + [s] + _neg_rev(prev2) + [s] + words[m - 1])
    return words[n]


def cubic_word(n: int) -> list[int]:
    """w_0 = [], w_n = w, w, +1, -~w, -~w with w = w_(n-1)."""
    w: list[int] = []
    for _ in range(n):
        r = _neg_rev(w)
        w = w + w + [1] + r + r
    return w


WORDS = {"dragon": dragon_word, "rho": rho_word, "cubic": cubic_word}


def steps(word: list[int]) -> list[tuple[int, int]]:
    """Unit steps of the lattice path: one step east, then a left turn for
    each +1 and a right turn for each -1, each followed by one step."""
    d = (1, 0)
    out = [d]
    for s in word:
        d = _LEFT_TURN[d] if s > 0 else (d[1], -d[0])
        out.append(d)
    return out


_OFFSET = 1 << 21  # keeps coordinates of paths shorter than 2^21 edges non-negative


@functools.cache
def walk(spec: str, n: int) -> tuple[int, int | None]:
    """(edge count, index of the first edge drawn twice or None)."""
    x = y = 0
    seen = set()
    path = steps(WORDS[spec](n))
    for i, (dx, dy) in enumerate(path):
        nx, ny = x + dx, y + dy
        lx, ly = (x, y) if (x, y) <= (nx, ny) else (nx, ny)
        key = ((lx + _OFFSET) << 23 | (ly + _OFFSET)) << 1 | (dx == 0)
        if key in seen:
            return len(path), i
        seen.add(key)
        x, y = nx, ny
    return len(path), None


def continuants_mod(word: list[int], head: list[int], t: int) -> tuple[int, int]:
    """(p, q) of [head; s_1 x, s_2 x, ...] at x = t, mod PRIME, from
    p_i = a_i p_(i-1) + p_(i-2) and the same recursion for q."""
    h = sum(c * pow(t, e, PRIME) for e, c in enumerate(head)) % PRIME
    p, p_prev, q, q_prev = h, 1, 1, 0
    for s in word:
        a = t if s > 0 else PRIME - t
        p, p_prev = (a * p + p_prev) % PRIME, p
        q, q_prev = (a * q + q_prev) % PRIME, q
    return p, q


_TERM = re.compile(r"^(?:(\d+(?:/\d+)?)\*)?x(?:\^(\d+))?$|^(\d+(?:/\d+)?)$")


def parse_poly_text(text: str) -> dict[int, Fraction]:
    """Exponent -> coefficient for text such as '1 - 3*x^2 + x^5'."""
    out: dict[int, Fraction] = {}
    for raw in text.strip().replace(" - ", " + -").split(" + "):
        sign = -1 if raw.startswith("-") else 1
        m = _TERM.match(raw.lstrip("-"))
        if m is None:
            raise ValueError(f"unreadable polynomial term {raw!r}")
        if m.group(3) is not None:
            exp, coeff = 0, Fraction(m.group(3))
        else:
            exp = int(m.group(2)) if m.group(2) else 1
            coeff = Fraction(m.group(1)) if m.group(1) else Fraction(1)
        if exp in out:
            raise ValueError(f"exponent {exp} appears twice")
        out[exp] = sign * coeff
    return {e: c for e, c in out.items() if c}


def eval_mod(poly: dict[int, Fraction], t: int) -> int:
    total = 0
    for e, c in poly.items():
        num = c.numerator * pow(t, e, PRIME)
        total += num * pow(c.denominator, -1, PRIME)
    return total % PRIME


_LINE = re.compile(rb'<line x1="(-?\d+)" y1="(-?\d+)" x2="(-?\d+)" y2="(-?\d+)"')


def svg_steps(svg: bytes, scale: int) -> list[tuple[int, int]]:
    """Unit steps of a chain of <line> elements, y pointing up; raises
    ValueError when a line is not one axis step of length ``scale`` or does
    not start where the previous one ended."""
    out = []
    prev_end = None
    for m in _LINE.finditer(svg):
        x1, y1, x2, y2 = map(int, m.groups())
        if prev_end is not None and (x1, y1) != prev_end:
            raise ValueError(f"line {len(out)} does not continue the previous one")
        dx, dy = x2 - x1, y1 - y2
        if (abs(dx), abs(dy)) not in ((scale, 0), (0, scale)):
            raise ValueError(f"line {len(out)} is not a step of length {scale}")
        out.append((dx // scale, dy // scale))
        prev_end = (x2, y2)
    return out
