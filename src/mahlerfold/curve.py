"""Turn-sequence geometry: sign words as lattice paths, crossing tests, SVG.

Convention: the path starts at the origin heading +x and draws one unit edge
before reading any sign; +1 turns left, -1 turns right.  Flipping the
convention reflects everything across the x-axis, so crossing verdicts are
convention independent.
"""

from __future__ import annotations

import colorsys
from dataclasses import dataclass


@dataclass(frozen=True)
class LatticePath:
    vertices: tuple[tuple[int, int], ...]

    @property
    def edge_count(self) -> int:
        return len(self.vertices) - 1

    def bounding_box(self) -> tuple[int, int, int, int]:
        xs = [v[0] for v in self.vertices]
        ys = [v[1] for v in self.vertices]
        return min(xs), min(ys), max(xs), max(ys)


_LEFT = {(1, 0): (0, 1), (0, 1): (-1, 0), (-1, 0): (0, -1), (0, -1): (1, 0)}
_RIGHT = {v: k for k, v in _LEFT.items()}


def path_from_signs(word, left: int = 1) -> LatticePath:
    """Lattice path with len(word)+1 unit edges; ``left`` picks which sign
    turns left (the default +1 = left)."""
    x, y = 0, 0
    dx, dy = 1, 0
    vertices = [(0, 0)]
    x, y = x + dx, y + dy
    vertices.append((x, y))
    for s in word:
        if s == left:
            dx, dy = _LEFT[(dx, dy)]
        else:
            dx, dy = _RIGHT[(dx, dy)]
        x, y = x + dx, y + dy
        vertices.append((x, y))
    return LatticePath(tuple(vertices))


def self_crossing(path: LatticePath) -> int | None:
    """Index of the first repeated undirected unit edge, or None.

    Vertices may repeat (corner touching); only a doubly-drawn segment
    counts as a crossing.
    """
    seen = set()
    prev = path.vertices[0]
    for i, cur in enumerate(path.vertices[1:]):
        edge = (prev, cur) if prev <= cur else (cur, prev)
        if edge in seen:
            return i
        seen.add(edge)
        prev = cur
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


def export_svg(paths, stroke_width: int = 1, palette: str = "rainbow", scale: int = 8) -> str:
    """Deterministic SVG: one <line> per unit edge, colored by arc length.

    ``paths`` may be a single LatticePath or a list (overlays share the
    viewBox).  All coordinates are integers, so output is byte-stable.
    """
    if isinstance(paths, LatticePath):
        paths = [paths]
    if not paths:
        raise ValueError("nothing to render")
    color = PALETTES[palette]
    boxes = [p.bounding_box() for p in paths]
    minx = min(b[0] for b in boxes)
    miny = min(b[1] for b in boxes)
    maxx = max(b[2] for b in boxes)
    maxy = max(b[3] for b in boxes)
    pad = 1
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
        prev = path.vertices[0]
        for i, cur in enumerate(path.vertices[1:]):
            c = color(i / total)
            lines.append(
                f'<line x1="{sx(prev[0])}" y1="{sy(prev[1])}" '
                f'x2="{sx(cur[0])}" y2="{sy(cur[1])}" '
                f'stroke="{c}" stroke-width="{stroke_width * scale / 4:g}" '
                f'stroke-linecap="square"/>'
            )
            prev = cur
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
