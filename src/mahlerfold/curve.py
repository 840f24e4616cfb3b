"""Turn-sequence geometry: sign words as lattice paths, crossing tests, SVG.

A path keeps only its sign word; ``LatticePath.vertices()`` walks that word
whenever vertices are needed.  Convention: the path starts at the origin
heading +x and draws one unit edge before reading any sign; +1 turns left,
anything else turns right.  Negating the word reflects the path across the
x-axis, so crossing verdicts do not depend on the convention.
"""

from __future__ import annotations

import colorsys
from dataclasses import dataclass
from itertools import pairwise

# unit steps in counter-clockwise order: a left turn is +1, a right turn -1
_STEPS = ((1, 0), (0, 1), (-1, 0), (0, -1))


@dataclass(frozen=True)
class LatticePath:
    word: tuple

    @property
    def edge_count(self) -> int:
        return len(self.word) + 1

    def vertices(self):
        """Yield the len(word) + 2 vertices in drawing order."""
        x, y, d = 1, 0, 0
        yield 0, 0
        yield x, y
        for s in self.word:
            d = (d + 1) & 3 if s == 1 else (d - 1) & 3
            dx, dy = _STEPS[d]
            x += dx
            y += dy
            yield x, y


def path_from_signs(word) -> LatticePath:
    """Lattice path with len(word)+1 unit edges."""
    return LatticePath(tuple(word))


def self_crossing(path: LatticePath) -> int | None:
    """Index of the first repeated undirected unit edge, or None.

    Vertices may repeat (corner touching); only a doubly-drawn segment
    counts as a crossing.  An edge is keyed by its doubled midpoint
    (x0 + x1, y0 + y1), packed into one int; k exceeds twice every
    |x0 + x1|, so the packing is injective.
    """
    k = 4 * path.edge_count + 4
    seen = set()
    for i, ((x0, y0), (x1, y1)) in enumerate(pairwise(path.vertices())):
        key = x0 + x1 + (y0 + y1) * k
        if key in seen:
            return i
        seen.add(key)
    return None


def _rainbow(fraction: float) -> str:
    # purple (hue 0.78) fading to red (hue 0.0), like the figures
    hue = 0.78 * (1.0 - fraction)
    r, g, b = colorsys.hsv_to_rgb(hue, 1.0, 0.92)
    return f"#{round(r * 255):02x}{round(g * 255):02x}{round(b * 255):02x}"


def _two_tone(fraction: float) -> str:
    r = round(80 + fraction * (220 - 80))
    b = round(200 - fraction * 170)
    return f"#{r:02x}40{b:02x}"


PALETTES = {"rainbow": _rainbow, "two-tone": _two_tone}


def export_svg(paths, palette: str = "rainbow") -> str:
    """Deterministic SVG: one <line> per unit edge, colored by arc length.

    ``paths`` may be a single LatticePath or a list (overlays share the
    viewBox).  All coordinates are integers, so output is byte-stable.
    """
    if isinstance(paths, LatticePath):
        paths = [paths]
    if not paths:
        raise ValueError("nothing to render")
    color = PALETTES[palette]
    xs, ys = zip(*(v for p in paths for v in p.vertices()))
    minx, miny, maxx, maxy = min(xs), min(ys), max(xs), max(ys)
    pad, scale = 1, 8  # scale: SVG units per lattice step
    width = (maxx - minx + 2 * pad) * scale
    height = (maxy - miny + 2 * pad) * scale

    def sx(x: int) -> int:
        return (x - minx + pad) * scale

    def sy(y: int) -> int:
        # SVG y grows downward; flip so the math orientation is preserved
        return (maxy - y + pad) * scale

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}" '
        f'width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for path in paths:
        total = max(path.edge_count, 1)
        for i, (prev, cur) in enumerate(pairwise(path.vertices())):
            c = color(i / total)
            lines.append(
                f'<line x1="{sx(prev[0])}" y1="{sy(prev[1])}" '
                f'x2="{sx(cur[0])}" y2="{sy(cur[1])}" '
                f'stroke="{c}" stroke-width="{scale // 4}" '
                f'stroke-linecap="square"/>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
