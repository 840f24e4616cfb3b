"""Turn-sequence geometry: sign words as lattice paths, crossing tests, SVG.

A path keeps only its sign word, one byte a letter, and walks it in C-level
iterators whenever vertices are needed.  Convention: the path starts at the
origin heading +x and draws one unit edge before reading any sign; +1 turns
left, anything else turns right.  Negating the word reflects the path across
the x-axis, so crossing verdicts do not depend on the convention.
"""

from __future__ import annotations

import colorsys
import io
from array import array
from collections import deque
from itertools import accumulate, chain, islice, pairwise, repeat, starmap
from operator import add, and_, setitem
from typing import NamedTuple

_TURNS = bytes(1 if b == 1 else 0xFF for b in range(256))  # a signed byte to its turn
# heading (0 east, 1 north, 2 west, 3 south) to its unit step's x and y
_UNIT_STEPS = [bytes.maketrans(b"\0\1\2\3", t) for t in (b"\1\0\xff\0", b"\0\1\0\xff")]
_TURN_BY = [(bytes(range(t, 4)) + bytes(range(t))) * 64 for t in range(4)]  # h to (h + t) & 3
_BLOCK = 1 << 10  # letters or headings walked once for each distinct block of a word
_GRID_BYTES_PER_EDGE = 16  # a fifth of what a set of int keys costs an edge
_PREFIX_LETTERS = 1 << 12  # a longer word's first sixteenth is checked first
_SET_BLOCK = 1 << 12  # keys a sparse box adds to its set at C level at a time
_SVG_LINES = 1 << 12  # lines export_svg joins into one string at a time


class LatticePath(NamedTuple):
    word: bytes  # one signed byte a letter: 0x01 turns left, 0xFF turns right

    @property
    def edge_count(self) -> int:
        return len(self.word) + 1

    def headings(self) -> bytearray:
        """Each edge's heading: the first heads east, each letter turns the next.
        A distinct block of _BLOCK letters is summed once, and turned where it recurs."""
        word, sums, heading, headings = self.word, {}, 0, bytearray(len(self.word) + 1)
        for start in range(0, len(word), _BLOCK):
            block = word[start : start + _BLOCK]
            if (local := sums.get(block)) is None:
                local = sums[block] = bytes(map(and_, accumulate(block), repeat(3)))
            headings[start + 1 : start + 1 + len(local)] = local.translate(_TURN_BY[heading])
            heading = headings[start + len(local)]
        return headings

    def vertices(self):
        """Iterate the len(word) + 2 vertices in drawing order."""
        return zip(*_axes(self.headings()))


def _axes(headings: bytes) -> list:
    """Iterators over the vertices' x and y coordinates, from the origin."""
    return [accumulate(memoryview(headings.translate(t)).cast("b"), initial=0) for t in _UNIT_STEPS]


def _extent(headings_of_paths) -> tuple[int, int, int, int]:
    """(minx, miny, maxx, maxy) of paths given by their headings.  Each distinct
    block of _BLOCK headings, turned to start east, is walked once for its reach
    east, north, west and south of its start and its step (x, y, -x, -y); a
    quarter turn left shifts both four-tuples one place on."""
    reach, walked = (0, 0, 0, 0), {}
    for headings in headings_of_paths:
        at = (0, 0, 0, 0)
        for start in range(0, len(headings), _BLOCK):
            turn = headings[start]
            block = bytes(headings[start : start + _BLOCK]).translate(_TURN_BY[-turn & 3])
            if (fours := walked.get(block)) is None:
                xs, ys = map(set, _axes(block))  # unit steps fill each axis's range
                x, y = block.count(0) - block.count(2), block.count(1) - block.count(3)
                fours = walked[block] = (max(xs), max(ys), -min(xs), -min(ys)), (x, y, -x, -y)
            far, step = (four[-turn:] + four[:-turn] for four in fours)
            reach = tuple(map(max, reach, map(add, at, far)))
            at = tuple(map(add, at, step))
    return -reach[2], -reach[3], reach[0], reach[1]


def path_from_signs(word) -> LatticePath:
    """Lattice path with len(word)+1 unit edges; each letter fits a signed byte."""
    return LatticePath(array("b", word).tobytes().translate(_TURNS))


def self_crossing(path: LatticePath) -> int | None:
    """Index of the first repeated undirected unit edge, or None.  Vertices may
    repeat (corner touching); only a doubly-drawn segment counts as a crossing."""
    return _first_repeat(path.word)


def _first_repeat(word: bytes) -> int | None:
    """self_crossing of the path of a word.  A word of more than
    _PREFIX_LETTERS letters checks its first sixteenth first, which draws the
    path's first edges: a repeat at edge r costs a walk of at most about 16r.

    In a box of width w and height h, vertex (x, y) is x + y(2w + 1) and an
    edge is keyed by half its ends' sum, rounded down.  Where a grid of the
    (2w + 1)(h + 1) keys costs at most _GRID_BYTES_PER_EDGE bytes an edge, a
    path that marks one grid byte an edge has no repeat.  Any other path
    fills a set of its keys _SET_BLOCK at a time, up to the first block that
    adds fewer keys than it has; that block holds the first repeat, which a
    key-by-key walk from a set of the earlier blocks' keys finds.
    """
    if len(word) > _PREFIX_LETTERS:
        hit = _first_repeat(word[: len(word) // 16])
        if hit is not None:
            return hit
    headings, edges = LatticePath(word).headings(), len(word) + 1
    minx, miny, maxx, maxy = _extent([headings])
    w, row = maxx - minx, 2 * (maxx - minx) + 1
    size = row * (maxy - miny + 1)
    # by heading: the step between vertex numbers, and the key's offset from
    # the start's number (lists, whose __getitem__ is fast)
    steps, offsets = [1, row, -1, -row], [0, w, -1, -w - 1]

    def keys():
        starts = accumulate(map(steps.__getitem__, headings), initial=-minx - miny * row)
        return map(add, starts, map(offsets.__getitem__, headings))

    if size <= _GRID_BYTES_PER_EDGE * edges:
        marks = bytearray(size)
        deque(map(setitem, repeat(marks), keys(), repeat(1)), maxlen=0)
        if marks.count(1) == edges:
            return None
    seen, walk = set(), keys()
    for start in range(0, edges, _SET_BLOCK):
        seen.update(islice(walk, _SET_BLOCK))
        if len(seen) < min(start + _SET_BLOCK, edges):
            seen.clear()
            walk = keys()
            seen.update(islice(walk, start))
            for i, key in enumerate(walk, start):
                if key in seen:
                    return i
                seen.add(key)
    return None


def _rainbow(fraction: float) -> str:
    # purple (hue 0.78) fading to red (hue 0.0), like the figures
    r, g, b = colorsys.hsv_to_rgb(0.78 * (1.0 - fraction), 1.0, 0.92)
    return f"#{round(r * 255):02x}{round(g * 255):02x}{round(b * 255):02x}"


def _two_tone(fraction: float) -> str:
    return f"#{round(80 + fraction * (220 - 80)):02x}40{round(200 - fraction * 170):02x}"


PALETTES = {"rainbow": _rainbow, "two-tone": _two_tone}


def _color_runs(color, edges: int) -> list:
    """color(i / edges) for i in range(edges), as [(color, edges in the run), ...].
    Each palette walks the RGB cube without coming back to a color it left, so
    a color fills one run.  Its end is sought where the last run's length puts
    it, galloping out from there and bisecting once both sides are bounded."""
    runs, start, length, c, after = [], 0, 1, color(0.0), None
    while start < edges:
        lo, hi, k, step = start, edges, start + length, 1  # edge lo is c, edge hi is not
        while hi - lo > 1:
            k = k if lo < k < hi else (lo + hi) // 2
            if (at := color(k / edges)) == c:
                lo, k, step = k, k + step, 2 * step
            else:  # the next run's color, if hi stays
                hi, k, step, after = k, k - step, 2 * step, at
        runs.append((c, hi - start))
        start, length, c = hi, hi - start, after
    return runs


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
    minx, miny, maxx, maxy = _extent(map(LatticePath.headings, paths))
    pad, scale = 1, 8  # scale: SVG units per lattice step
    width = (maxx - minx + 2 * pad) * scale
    height = (maxy - miny + 2 * pad) * scale

    # SVG y grows downward, so y flips.  Each axis's strings are indexed by the
    # coordinate: the box holds the origin, so negative ones count from the end.
    x0, y0 = (pad - minx) * scale, (maxy + pad) * scale
    tables = ([str(x0 + x * scale) for x in chain(range(maxx + 1), range(minx, 0))],
              [str(y0 - y * scale) for y in chain(range(maxy + 1), range(miny, 0))])
    out = io.StringIO()
    out.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}" '
        f'width="{width}" height="{height}">\n'
        f'<rect width="{width}" height="{height}" fill="white"/>\n'
    )
    for path in paths:
        xs, ys = (pairwise(map(t.__getitem__, a)) for t, a in zip(tables, _axes(path.headings())))
        strokes = chain.from_iterable(starmap(repeat, _color_runs(color, path.edge_count)))
        lines = (f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="{stroke}" '
                 f'stroke-width="{scale // 4}" stroke-linecap="square"/>\n'
                 for (x1, x2), (y1, y2), stroke in zip(xs, ys, strokes))
        while chunk := "".join(islice(lines, _SVG_LINES)):
            out.write(chunk)
    out.write("</svg>\n")
    return out.getvalue()
