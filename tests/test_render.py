import random
import tracemalloc

import pytest

from heapdyck import bijections, heaps, multisets, paths, render

from oracles import (
    crossing_heavy,
    reference_animal_ascii,
    reference_heap_ascii,
    reference_multiset_ascii,
    reference_path_ascii,
    reference_path_svg,
    uniform_multiset,
)


def heap(*dimers):
    return heaps.Heap(dimers)


def animal(*points):
    return heaps.PointAnimal(frozenset(points))


class TestPathAscii:
    def test_dyck_peak(self):
        assert render.path_ascii("UUDD") == " /\\\n/  \\"

    def test_below_axis(self):
        assert render.path_ascii("UDDU") == "/\\\n  \\/"

    def test_single_step_pair(self):
        assert render.path_ascii("UD") == "/\\"


class TestHeapAscii:
    def test_stacked_column(self):
        assert render.heap_ascii(heap((0, 0), (0, 1))) == "[__]\n[__]"

    def test_shifted_upper(self):
        assert render.heap_ascii(heap((0, 0), (-1, 1))) == "[__]\n  [__]"

    def test_two_shoulders(self):
        art = render.heap_ascii(heap((0, 0), (-1, 1), (1, 1)))
        assert art == "[__][__]\n  [__]"


class TestAnimalAscii:
    def test_l_shape(self):
        assert render.animal_ascii(animal((0, 0), (1, 0), (1, 1))) == "  o\no o"

    def test_single_cell(self):
        assert render.animal_ascii(animal((0, 0))) == "o"


class TestMultisetAscii:
    def test_with_bound(self):
        art = render.multiset_ascii(multisets.Multiset((1, 3, 3), 3))
        assert art == "  o o\n  .\no"

    def test_dots_mark_free_diagonal(self):
        art = render.multiset_ascii(multisets.Multiset((2, 2), 2))
        assert art == "o o\n."


class TestSvg:
    def test_path_structure(self):
        svg = render.path_svg("UUDD")
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert "<polyline" in svg
        assert "stroke-dasharray" in svg

    def test_heap_structure(self):
        svg = render.heap_svg(heap((0, 0), (-1, 1)))
        assert svg.count("<rect") == 3
        assert 'width="40" height="20"' in svg
        assert "stroke-dasharray" in svg

    def test_heap_without_negative_columns_skips_origin_line(self):
        svg = render.heap_svg(heap((0, 0), (0, 1)))
        assert "stroke-dasharray" not in svg

    def test_animal_circles(self):
        svg = render.animal_svg(animal((0, 0), (1, 0), (1, 1)))
        assert svg.count("<circle") == 3

    def test_multiset_overlay(self):
        svg = render.multiset_svg(multisets.Multiset((2, 2), 2))
        assert "<polyline" in svg
        assert svg.count("<circle") == 2

    def test_deterministic(self):
        a = render.animal_svg(animal((0, 0), (0, 1), (1, 1)))
        b = render.animal_svg(animal((1, 1), (0, 0), (0, 1)))
        assert a == b


class TestDispatch:
    def test_routes_each_kind(self):
        assert render.render("path", "UD") == "/\\"
        assert render.render("heap", heap((0, 0))) == "[__]"
        assert render.render("animal", animal((0, 0))) == "o"
        assert "o" in render.render("multiset", multisets.Multiset((1, 1), 2))

    def test_svg_format(self):
        assert render.render("path", "UD", fmt="svg").startswith("<svg")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            render.render("graph", "UD")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            render.render("path", "UD", fmt="png")

    @pytest.mark.parametrize(
        "kind, fmt, message",
        [(["path"], "ascii", "unknown kind ['path']"), ("path", ["svg"], "unknown format ['svg']")],
        ids=["kind", "format"],
    )
    def test_an_unhashable_kind_or_format_is_unknown(self, kind, fmt, message):
        with pytest.raises(ValueError) as caught:
            render.render(kind, "UD", fmt)
        assert str(caught.value) == message


def _same_word_pictures(word):
    assert render.path_ascii(word) == reference_path_ascii(word), word
    assert render.path_svg(word) == reference_path_svg(word), word


def _same_pictures(word):
    """The word's pictures and its heap's, against the grid references."""
    _same_word_pictures(word)
    h = bijections.path_to_heap(word)
    assert render.heap_ascii(h) == reference_heap_ascii(h), word


class TestMatchesGridReference:
    """Row-by-row pictures are byte for byte the grid-filling ones."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_every_small_word_and_heap(self, n):
        for word in paths.enumerate_family("grand_dyck", n):
            _same_pictures(word)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_small_multiset(self, n):
        for k in (max(1, n - 2), n, n + 3):
            for m in multisets.enumerate_family("all", n, k):
                assert render.multiset_ascii(m) == reference_multiset_ascii(m), m

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_small_animal(self, n):
        for a in heaps.animal_enumerate_bruteforce(n, "triangular"):
            assert render.animal_ascii(a) == reference_animal_ascii(a), a

    @pytest.mark.parametrize("n", [100, 500, 2000])
    def test_seeded_uniform_words(self, n):
        rng = random.Random(n)
        for _ in range(3):
            m = multisets.validate(uniform_multiset(rng, n), n)
            _same_pictures(bijections.multiset_to_path(m))

    @pytest.mark.parametrize(
        "word",
        [
            "U" * 2000 + "D" * 2000,
            "UD" * 2000,
            crossing_heavy(random.Random(2000), 2000),
        ],
        ids=["nested", "arches", "crossing-heavy"],
    )
    def test_structured_words(self, word):
        _same_pictures(word)

    @pytest.mark.parametrize("word", ["D", "DU", "UUU"])
    def test_words_that_are_not_grand_dyck(self, word):
        _same_word_pictures(word)


def _peak_over_output(draw, obj):
    """Peak traced memory while drawing, over the length of the picture."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        picture = draw(obj)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak / len(picture)


class TestMemoryFollowsOutput:
    """At n = 2000 a width x height grid of cells takes 13-18 bytes of
    traced memory per output character; drawing row by row stays within 4."""

    N = 2000

    def test_staircase_heap(self):
        h = bijections.path_to_heap("U" * self.N + "D" * self.N)
        assert _peak_over_output(render.heap_ascii, h) <= 4

    def test_nested_word(self):
        assert _peak_over_output(render.path_ascii, "U" * self.N + "D" * self.N) <= 4

    def test_diagonal_multiset(self):
        m = multisets.validate(range(1, self.N + 1), self.N)
        assert _peak_over_output(render.multiset_ascii, m) <= 4
