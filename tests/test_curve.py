import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mahlerfold import curve
from mahlerfold.curve import export_svg, path_from_signs, self_crossing
from mahlerfold.folding import NAMED_SPECS, iterate_fold, parse_fold_spec, word_lengths

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
