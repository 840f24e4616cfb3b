import io
import random
from array import array
from itertools import accumulate, chain, pairwise, repeat, starmap
from operator import and_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mahlerfold import curve
from mahlerfold.curve import LatticePath, export_svg, path_from_signs, self_crossing
from mahlerfold.folding import NAMED_SPECS, iterate_fold, negated, parse_fold_spec, word_lengths

# -- reference: the vertex-tuple walk and the set-of-edge-tuples check ---------

_LEFT = {(1, 0): (0, 1), (0, 1): (-1, 0), (-1, 0): (0, -1), (0, -1): (1, 0)}
_RIGHT = {v: k for k, v in _LEFT.items()}


def reference_vertices(word) -> tuple:
    """Vertices of the path: one step east, then +1 turns left and any other
    letter turns right, each turn followed by one step."""
    x, y = 1, 0
    d = (1, 0)
    vertices = [(0, 0), (x, y)]
    for s in word:
        d = _LEFT[d] if s == 1 else _RIGHT[d]
        x, y = x + d[0], y + d[1]
        vertices.append((x, y))
    return tuple(vertices)


def reference_crossing(vertices) -> int | None:
    """Index of the first undirected edge drawn twice, or None."""
    seen = set()
    for i, (prev, cur) in enumerate(zip(vertices, vertices[1:])):
        edge = (prev, cur) if prev <= cur else (cur, prev)
        if edge in seen:
            return i
        seen.add(edge)
    return None


# -- reference: whole-word headings, the set-based box and the per-edge SVG -----


def reference_headings(word: bytes) -> bytes:
    """Each edge's heading, one running sum over the whole word."""
    return bytes(map(and_, accumulate(word, initial=0), repeat(3)))


def reference_extent(headings_of_paths) -> tuple[int, int, int, int]:
    """(minx, miny, maxx, maxy) from the sets of every vertex's x and y."""
    xs, ys = (set(chain.from_iterable(axis)) for axis in zip(*map(curve._axes, headings_of_paths)))
    return min(xs), min(ys), max(xs), max(ys)


def reference_svg(paths, palette: str = "rainbow") -> str:
    """One <line> per edge, each coordinate formatted and each color asked for."""
    color = curve.PALETTES[palette]
    minx, miny, maxx, maxy = reference_extent(reference_headings(path.word) for path in paths)
    pad, scale = 1, 8
    width = (maxx - minx + 2 * pad) * scale
    height = (maxy - miny + 2 * pad) * scale
    x0, y0 = (pad - minx) * scale, (maxy + pad) * scale
    out = io.StringIO()
    out.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}" '
        f'width="{width}" height="{height}">\n'
        f'<rect width="{width}" height="{height}" fill="white"/>\n'
    )
    for path in paths:
        vertices = reference_vertices(path.word)
        for i, ((xa, ya), (xb, yb)) in enumerate(pairwise(vertices)):
            out.write(
                f'<line x1="{x0 + xa * scale}" y1="{y0 - ya * scale}" '
                f'x2="{x0 + xb * scale}" y2="{y0 - yb * scale}" '
                f'stroke="{color(i / path.edge_count)}" stroke-width="{scale // 4}" '
                f'stroke-linecap="square"/>\n'
            )
    out.write("</svg>\n")
    return out.getvalue()


def assert_blocks_match_reference(*paths):
    """The block walk's headings and box against the whole-word oracles."""
    headings = [path.headings() for path in paths]
    assert headings == [reference_headings(path.word) for path in paths]
    for one in headings:
        assert curve._extent([one]) == reference_extent([one])
    assert curve._extent(headings) == reference_extent(headings)


def grid_bytes_per_edge(vertices) -> float:
    """Bytes of the crossing check's edge grid over the box, per edge."""
    xs, ys = zip(*vertices)
    return (2 * (max(xs) - min(xs)) + 1) * (max(ys) - min(ys) + 1) / (len(vertices) - 1)


def assert_matches_reference(word):
    for w in (list(word), [-s for s in word]):
        path = path_from_signs(w)
        same = path_from_signs(array("b", w))
        assert same == path and hash(same) == hash(path)
        vertices = reference_vertices(w)
        assert tuple(path.vertices()) == vertices
        assert path.edge_count == len(vertices) - 1
        assert self_crossing(path) == reference_crossing(vertices)
    assert_blocks_match_reference(path_from_signs(word), path_from_signs([-s for s in word]))


REFERENCE_LETTERS = 200_000


@pytest.mark.parametrize("name", sorted(NAMED_SPECS))
def test_walk_matches_reference_on_named_specs(name):
    n = 0
    while word_lengths(name, n)[-1] <= REFERENCE_LETTERS:
        assert_matches_reference(iterate_fold(name, n))
        n += 1
    assert n >= 8


@pytest.mark.parametrize("name", ["cubic-alt", "quintic", "rational-ex"])
def test_sparse_boxes_match_reference(name):
    # the largest level under the oracle's reach; its box would cost an edge
    # grid of more than _GRID_BYTES_PER_EDGE bytes an edge, so a set checks it
    n = 0
    while word_lengths(name, n + 1)[-1] <= REFERENCE_LETTERS:
        n += 1
    word = iterate_fold(name, n)
    assert grid_bytes_per_edge(reference_vertices(word)) > curve._GRID_BYTES_PER_EDGE
    assert_matches_reference(word)


@pytest.mark.parametrize("block", [None, 7], ids=["default-block", "block-7"])
@pytest.mark.parametrize("name", ["cubic-alt", "quintic", "rational-ex"])
def test_planted_repeats_in_sparse_boxes_match_reference(monkeypatch, name, block):
    # four left turns close a unit square, so edge p + 4 redraws edge p at the
    # latest; planted before the word's own first repeat, it moves that repeat
    # into any block of the set's fill, and a 7-key block puts it past many
    if block is not None:
        monkeypatch.setattr(curve, "_SET_BLOCK", block)
    n = 0
    while word_lengths(name, n + 1)[-1] <= 20_000:
        n += 1
    word = list(iterate_fold(name, n))
    assert grid_bytes_per_edge(reference_vertices(word)) > curve._GRID_BYTES_PER_EDGE
    own = reference_crossing(reference_vertices(word))
    rng = random.Random(name)
    for p in [0, *rng.sample(range((own or len(word)) - 4), 12)]:
        planted = word[:p] + [1, 1, 1, 1] + word[p + 4:]
        hit = self_crossing(path_from_signs(planted))
        assert hit is not None and hit <= p + 4
        assert hit == reference_crossing(reference_vertices(planted))


@pytest.mark.parametrize("tail", [[], [1, 1, 1, 1]], ids=["open", "closing-loop"])
def test_staircase_matches_reference(tail):
    # alternating turns walk a diagonal, so the box grows as the square of the
    # edge count; a grid over it would take 2*10^10 bytes
    word = [1, -1] * (REFERENCE_LETTERS // 2) + tail
    assert grid_bytes_per_edge(reference_vertices(word)) > curve._GRID_BYTES_PER_EDGE
    hit = self_crossing(path_from_signs(array("b", word)))
    assert hit == (None if not tail else REFERENCE_LETTERS + 4)
    assert_matches_reference(word)


def test_an_early_repeat_stops_the_walk(monkeypatch):
    # cubic repeats edge 46, so of its 349525 letters at level 10 only a
    # prefix of at most _PREFIX_LETTERS is walked
    walked = []
    headings = curve.LatticePath.headings
    monkeypatch.setattr(curve.LatticePath, "headings",
                        lambda path: walked.append(len(path.word)) or headings(path))
    assert self_crossing(path_from_signs(iterate_fold("cubic", 10))) == 46
    assert 0 < sum(walked) <= curve._PREFIX_LETTERS


@pytest.mark.parametrize("grid_bytes", [0, 10**6], ids=["set", "grid"])
def test_set_and_grid_agree_with_reference(monkeypatch, grid_bytes):
    # 0 sends every path to the set, 10^6 every path here to the grid; a
    # small _PREFIX_LETTERS checks prefixes of these short words first
    monkeypatch.setattr(curve, "_GRID_BYTES_PER_EDGE", grid_bytes)
    monkeypatch.setattr(curve, "_PREFIX_LETTERS", 16)
    for name in sorted(NAMED_SPECS):
        n = 0
        while word_lengths(name, n)[-1] <= 5000:
            assert_matches_reference(iterate_fold(name, n))
            n += 1
    rng = random.Random(0)
    for _ in range(200):
        assert_matches_reference([rng.choice((1, -1)) for _ in range(rng.randrange(300))])


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-2, 2), max_size=300))
def test_walk_matches_reference_on_random_words(word):
    assert_matches_reference(word)


_ITEMS = ("x", "-x", "s*x", "-s*x")


@st.composite
def dsl_specs(draw):
    """DSL text: one or two short bases, constants and references with ~/-."""
    bases = [
        draw(st.lists(st.sampled_from("+-"), max_size=2))
        for _ in range(draw(st.integers(1, 2)))
    ]
    refs = st.builds(
        lambda neg, rev, d: f"{neg}{rev}w{d}",
        st.sampled_from(("", "-")), st.sampled_from(("", "~")), st.integers(1, len(bases)),
    )
    rule = draw(st.lists(st.one_of(st.sampled_from(_ITEMS), refs), min_size=1, max_size=5))
    text = ",".join("[" + ",".join(b) + "]" for b in bases)
    return f"bases:{text} ; rule: {', '.join(rule)}"


@settings(max_examples=80, deadline=None)
@given(dsl_specs(), st.integers(0, 7))
def test_walk_matches_reference_on_random_specs(text, n):
    assert_matches_reference(iterate_fold(parse_fold_spec(text), n))


def test_empty_word_single_edge():
    path = path_from_signs([])
    assert tuple(path.vertices()) == ((0, 0), (1, 0))
    assert path.edge_count == 1


def test_all_left_square():
    path = path_from_signs([1, 1, 1])
    assert path.edge_count == 4
    assert tuple(path.vertices()) == ((0, 0), (1, 0), (1, 1), (0, 1), (0, 0))
    assert self_crossing(path) is None


def test_edge_count_matches_word():
    word = iterate_fold("dragon", 5)
    path = path_from_signs(word)
    assert path.edge_count == len(word) + 1
    vertices = tuple(path.vertices())
    for (x0, y0), (x1, y1) in zip(vertices, vertices[1:]):
        assert abs(x1 - x0) + abs(y1 - y0) == 1


def test_convention_flip_reflects():
    word = iterate_fold("dragon", 6)
    left = path_from_signs(word)
    right = path_from_signs([-s for s in word])
    assert tuple(right.vertices()) == tuple((x, -y) for x, y in left.vertices())
    assert (self_crossing(left) is None) == (self_crossing(right) is None)


def test_self_crossing_detects_revisit():
    # go east, north, west, south, then east again over the first edge
    path = path_from_signs([1, 1, 1, 1])
    hit = self_crossing(path)
    assert hit == 4


def test_vertex_touch_is_not_crossing():
    # dragon curves touch corners without redrawing an edge
    word = iterate_fold("dragon", 8)
    path = path_from_signs(word)
    assert self_crossing(path) is None
    vertices = tuple(path.vertices())
    assert len(set(vertices)) < len(vertices)


def test_dragon_not_crossing_deep():
    word = iterate_fold("dragon", 14)
    assert self_crossing(path_from_signs(word)) is None


def test_rho_curves_not_crossing():
    for n in (11, 12):
        word = iterate_fold("rho", n)
        assert self_crossing(path_from_signs(word)) is None


def test_cubic_curve_crosses():
    word = iterate_fold("cubic", 8)
    assert self_crossing(path_from_signs(word)) is not None


def test_crossing_invariant_under_translation():
    word = iterate_fold("cubic", 6)
    path = path_from_signs(word)
    moved = tuple((x + 17, y - 4) for x, y in path.vertices())
    hit = self_crossing(path)
    assert hit is not None
    assert reference_crossing(moved) == hit


def test_svg_deterministic_and_counts():
    word = iterate_fold("dragon", 9)
    path = path_from_signs(word)
    svg1 = export_svg(path)
    svg2 = export_svg(path)
    assert svg1 == svg2
    assert svg1.count("<line ") == path.edge_count == 1 << 9
    assert svg1.startswith("<svg ")
    assert svg1.rstrip().endswith("</svg>")


def test_svg_single_edge():
    svg = export_svg(path_from_signs([]))
    assert svg.count("<line ") == 1


def test_svg_overlay_two_paths():
    w14 = iterate_fold("rho", 8)
    w15 = iterate_fold("rho", 9)
    neg_rev = [-s for s in reversed(w14)]
    svg = export_svg([path_from_signs(neg_rev), path_from_signs(w15)])
    assert svg.count("<line ") == len(w14) + len(w15) + 2


def test_svg_palettes():
    path = path_from_signs(iterate_fold("dragon", 4))
    rainbow = export_svg(path, palette="rainbow")
    two_tone = export_svg(path, palette="two-tone")
    assert rainbow != two_tone
    with pytest.raises(KeyError):
        export_svg(path, palette="nope")


BLOCK_EDGE_LENGTHS = [0, 1, 1023, 1024, 1025, 2047, 2048, 2049, 4095, 4096, 4097, 65537]


@pytest.mark.parametrize("length", BLOCK_EDGE_LENGTHS)
def test_blocks_match_reference_at_block_edges(length):
    # random letters make every block distinct; fold-word prefixes repeat
    # blocks, which start from every heading
    rng = random.Random(length)
    random_word = [rng.choice((1, -1)) for _ in range(length)]
    prefixes = []
    for name in ("dragon", "rho", "cubic"):
        n = next(n for n in range(20) if word_lengths(name, n)[-1] >= length)
        prefixes.append(iterate_fold(name, n)[:length])
    assert all(len(word) == length for word in prefixes)
    assert_blocks_match_reference(*map(path_from_signs, [random_word, *prefixes]))
    for word in (random_word, *prefixes):
        assert_blocks_match_reference(path_from_signs(word))


@pytest.mark.parametrize("block", [1, 7, 12])
def test_small_blocks_match_reference(monkeypatch, block):
    # letters are odd turns, so a block of even length starts at an even
    # heading; blocks of 1 and 7 letters start at every heading
    monkeypatch.setattr(curve, "_BLOCK", block)
    rng = random.Random(block)
    for name in sorted(NAMED_SPECS):
        n = next(n for n in range(20) if word_lengths(name, n)[-1] >= 3000)
        assert_blocks_match_reference(path_from_signs(iterate_fold(name, n)))
    for length in range(0, 300, 7):
        assert_blocks_match_reference(path_from_signs([rng.choice((1, -1)) for _ in range(length)]))


@pytest.mark.parametrize("name,walks", [("dragon", 2), ("rho", 5)])
def test_each_distinct_block_is_walked_once(monkeypatch, name, walks):
    # at level 19, 5 of dragon's 512 and of rho's 342 aligned blocks of 1024
    # letters are distinct; turned to start east, their heading blocks are fewer
    word = path_from_signs(iterate_fold(name, 19)).word
    headings, box = reference_headings(word), reference_extent([reference_headings(word)])
    sums, walked, axes = [], [], curve._axes
    monkeypatch.setattr(curve, "accumulate", lambda *args, **kw: sums.append(args) or accumulate(*args, **kw))
    assert LatticePath(word).headings() == headings
    assert len(sums) == 5
    monkeypatch.setattr(curve, "_axes", lambda block: walked.append(block) or axes(block))
    assert curve._extent([headings]) == box
    assert len(walked) == walks


SVG_CASES = [("dragon", 1), ("dragon", 9), ("dragon", 12), ("rho", 4), ("rho", 11),
             ("cubic", 3), ("cubic", 7), ("quintic", 2), ("quintic", 5)]


@pytest.mark.parametrize("palette", sorted(curve.PALETTES))
@pytest.mark.parametrize("name,n", SVG_CASES, ids=[f"{name}-{n}" for name, n in SVG_CASES])
def test_svg_matches_per_edge_reference(name, n, palette):
    path = path_from_signs(iterate_fold(name, n))
    assert export_svg(path, palette) == reference_svg([path], palette)


@pytest.mark.parametrize("palette", sorted(curve.PALETTES))
def test_svg_overlay_matches_per_edge_reference(palette):
    # curve render --spec rho --n 9 --overlay rho:8:negrev
    paths = [path_from_signs(iterate_fold("rho", 9)),
             path_from_signs(negated(iterate_fold("rho", 8)[::-1]))]
    assert export_svg(paths, palette) == reference_svg(paths, palette)


@pytest.mark.parametrize("palette", sorted(curve.PALETTES))
def test_color_runs_match_every_edge(palette):
    # each size's colors are worked out edge by edge once; the run finder reads
    # them back by index, so that a size costs one pass of the palette
    color = curve.PALETTES[palette]
    assert curve._color_runs(color, 0) == []
    for edges in sorted({*range(1, 1025), *(2**k + d for k in range(1, 17) for d in (-1, 0, 1))}):
        colors = [color(i / edges) for i in range(edges)]
        runs = curve._color_runs(lambda f: colors[round(f * edges)], edges)
        assert list(chain.from_iterable(starmap(repeat, runs))) == colors
        assert all(a != b for (a, _), (b, _) in pairwise(runs))  # each run is a whole color
    assert curve._color_runs(color, edges) == runs  # the palette itself, at the largest size
