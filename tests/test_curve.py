import pytest

from mahlerfold.curve import LatticePath, export_svg, path_from_signs, self_crossing
from mahlerfold.folding import iterate_fold


def test_empty_word_single_edge():
    path = path_from_signs([])
    assert path.vertices == ((0, 0), (1, 0))
    assert path.edge_count == 1


def test_all_left_square():
    path = path_from_signs([1, 1, 1])
    assert path.edge_count == 4
    assert path.vertices == ((0, 0), (1, 0), (1, 1), (0, 1), (0, 0))
    assert self_crossing(path) is None


def test_edge_count_matches_word():
    word = iterate_fold("dragon", 5)
    path = path_from_signs(word)
    assert path.edge_count == len(word) + 1
    for (x0, y0), (x1, y1) in zip(path.vertices, path.vertices[1:]):
        assert abs(x1 - x0) + abs(y1 - y0) == 1


def test_convention_flip_reflects():
    word = iterate_fold("dragon", 6)
    left = path_from_signs(word, left=1)
    right = path_from_signs(word, left=-1)
    assert right.vertices == tuple((x, -y) for x, y in left.vertices)
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
    assert len(set(path.vertices)) < len(path.vertices)


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
    moved = LatticePath(tuple((x + 17, y - 4) for x, y in path.vertices))
    assert (self_crossing(path) is None) == (self_crossing(moved) is None)


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
