import random
from math import comb

import pytest
from hypothesis import given, strategies as st

from itertools import product

from heapdyck import bijections, heaps, multisets, paths
from heapdyck.paths import BadCharError, EmptyWordError, NotGrandDyckError

from oracles import (
    balanced_words,
    catalan,
    classify,
    crossing_heavy,
    crossings,
    filtered_words,
    listed_count,
    modified_heights,
    motzkin,
    pattern_count,
    reference_heap_stats,
    reference_height_stats,
    reverse,
    uniform_multiset,
)

EXAMPLE_WORD = "UUDDDUUDDUUUDDDU"


def grand_dyck_words(max_n=7):
    """Arbitrary grand-Dyck words, generated through the staircase encoding."""
    return st.lists(st.integers(1, max_n), min_size=1, max_size=max_n).map(
        lambda vs: bijections.multiset_to_path(
            multisets.validate(sorted(min(v, len(vs)) for v in vs), len(vs))
        )
    )


class TestParse:
    def test_accepts_ud(self):
        assert paths.parse("UUDD") == "UUDD"

    def test_rejects_empty(self):
        with pytest.raises(EmptyWordError):
            paths.parse("")

    @pytest.mark.parametrize("bad", ["UDx", "ud", "U D"])
    def test_rejects_other_chars(self, bad):
        with pytest.raises(BadCharError):
            paths.parse(bad)


class TestClassify:
    def test_dyck(self):
        flags = classify("UUDD")
        assert flags.balanced and flags.dyck and flags.grand_dyck

    def test_grand_dyck_not_dyck(self):
        flags = classify("UDDU")
        assert flags.grand_dyck and not flags.dyck

    def test_starts_with_d(self):
        flags = classify("DUUD")
        assert flags.balanced and not flags.grand_dyck

    def test_unbalanced(self):
        assert not classify("UUD").balanced


class TestCrossings:
    def test_example_word(self):
        assert crossings(EXAMPLE_WORD) == (4, 6, 8, 10, 14)

    def test_touch_is_not_crossing(self):
        assert crossings("UDUD") == ()

    def test_dyck_words_never_cross(self):
        for w in paths.enumerate_family("dyck", 5):
            assert crossings(w) == ()

    def test_modified_heights_example(self):
        assert modified_heights(EXAMPLE_WORD) == [
            0, 1, 2, 1, 0, 0, -1, -1, -2, -2, -3, -3, -2, -3, -4, -4, -5,
        ]


class TestHeightStats:
    def test_uudd(self):
        s = paths.height_stats("UUDD")
        assert s.semilength == 2
        assert s.cross == 0
        assert s.height_max == 2
        assert s.nbu_profile == {1: 1, 2: 1}
        assert s.d_end_heights == (1, 0)
        assert s.dud_count == 0
        assert s.udu_count == 0

    def test_uddu(self):
        s = paths.height_stats("UDDU")
        assert s.cross == 1
        assert s.height_max == 1
        assert s.d_end_heights == (0, 0)
        assert s.nbu_profile == {1: 1, -1: 1}

    def test_example_word(self):
        s = paths.height_stats(EXAMPLE_WORD)
        assert s.cross == 5
        assert s.d_end_heights == (1, 0, 0, -2, -2, -3, -4, -4)

    def test_rejects_non_grand_dyck(self):
        with pytest.raises(NotGrandDyckError):
            paths.height_stats("DUUD")
        with pytest.raises(NotGrandDyckError):
            paths.height_stats("UUD")

    @pytest.mark.parametrize(
        "word,error,message",
        [
            ("DUUD", NotGrandDyckError, "need a balanced word starting with U: 'DUUD'"),
            ("UUD", NotGrandDyckError, "need a balanced word starting with U: 'UUD'"),
            ("", NotGrandDyckError, "need a balanced word starting with U: ''"),
            ("DXU", BadCharError, "steps must be U or D, found ['X']"),
        ],
    )
    def test_one_shape_check_for_stats_and_drops(self, word, error, message):
        # a bad letter is reported before the shape, by every caller alike
        for check in (paths.check_grand_dyck, paths.height_stats, bijections.drop_sequence):
            with pytest.raises(error) as info:
                check(word)
            assert str(info.value) == message

    def test_shape_check_returns_semilength(self):
        assert paths.check_grand_dyck("UD") == 1
        assert paths.check_grand_dyck(EXAMPLE_WORD) == len(EXAMPLE_WORD) // 2

    @given(grand_dyck_words())
    def test_profile_sizes(self, w):
        s = paths.height_stats(w)
        assert sum(s.nbu_profile.values()) == s.semilength
        assert len(s.d_end_heights) == s.semilength
        assert s.height_max >= 1


class _CountedWord(str):
    """A word that counts how often it is iterated step by step."""

    scans = 0

    def __iter__(self):
        self.scans += 1
        return super().__iter__()


class TestOneHeightScan:
    @pytest.mark.parametrize(
        "word",
        ["UD", EXAMPLE_WORD, "UUUDDD" * 40, "UDDU" * 50],
        ids=["UD", "example", "(UUUDDD)^40", "(UDDU)^50"],
    )
    @pytest.mark.parametrize(
        "fn", [paths.height_stats, bijections.path_to_heap], ids=["height_stats", "path_to_heap"]
    )
    def test_heights_runs_at_most_once(self, fn, word):
        # the one heights scan is the one step-by-step pass over the word;
        # letter counts and pattern counts are str methods and do not iterate
        counted = _CountedWord(word)
        fn(counted)
        assert counted.scans == 1

    @pytest.mark.parametrize(
        "fn", [paths.height_stats, bijections.path_to_heap], ids=["height_stats", "path_to_heap"]
    )
    def test_rejects_exactly_what_classify_rejects(self, fn):
        words = [""] + ["".join(w) for n in range(1, 11) for w in product("UD", repeat=n)]

        def rejects(word):
            try:
                fn(word)
            except NotGrandDyckError:
                return True
            return False

        for word in words:
            assert rejects(word) == (not classify(word).grand_dyck), word
        for word in ("UX", "XU", "UXUD"):
            for check in (classify, fn):
                with pytest.raises(BadCharError):
                    check(word)


def _seeded_words(n):
    rng = random.Random(n)
    return [
        bijections.multiset_to_path(multisets.validate(uniform_multiset(rng, n), n))
        for _ in range(5)
    ]


class TestStatsMatchReference:
    """The one-scan statistics kernels against the multi-pass references,
    on a word and on its heap."""

    @staticmethod
    def _same(words):
        for w in words:
            assert paths.height_stats(w) == reference_height_stats(w), w
            h = bijections.path_to_heap(w)
            assert heaps.heap_stats(h) == reference_heap_stats(h), w

    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_small_word(self, n):
        self._same(paths.enumerate_family("grand_dyck", n))

    @pytest.mark.parametrize("n", [100, 500, 2000])
    def test_seeded_uniform_words(self, n):
        self._same(_seeded_words(n))

    @pytest.mark.parametrize(
        "word",
        [
            "U" * 2000 + "D" * 2000,
            "UD" * 2000,
            "UDDU" * 1000,
            crossing_heavy(random.Random(2000), 2000),
        ],
        ids=["nested", "arches", "crossings", "crossing-heavy"],
    )
    def test_structured_words_at_2000(self, word):
        assert len(word) == 4000
        self._same([word])


class TestPatterns:
    def test_overlapping_udu(self):
        assert pattern_count("UDUDUD", "UDU") == 2

    def test_dud(self):
        assert pattern_count("UDUD", "DUD") == 1

    @given(grand_dyck_words())
    def test_patterns_survive_reversal(self, w):
        r = reverse(w)
        assert pattern_count(w, "DUD") == pattern_count(r, "DUD")
        assert pattern_count(w, "UDU") == pattern_count(r, "UDU")

    @given(grand_dyck_words())
    def test_reverse_involution(self, w):
        assert reverse(reverse(w)) == w


class TestEnumerate:
    def test_grand_dyck_2(self):
        assert list(paths.enumerate_family("grand_dyck", 2)) == [
            "UUDD",
            "UDUD",
            "UDDU",
        ]

    def test_grand_dyck_star_4_count(self):
        assert paths.count_family("grand_dyck_star", 4) == 13
        assert listed_count(paths, "grand_dyck_star", 4) == 13

    @pytest.mark.parametrize("n", range(1, 9))
    def test_counts(self, n):
        for family, want in (
            ("dyck", catalan(n)),
            ("dyck_star", motzkin(n - 1)),
            ("grand_dyck", comb(2 * n - 1, n - 1)),
        ):
            assert paths.count_family(family, n) == want, family
            assert listed_count(paths, family, n) == want, family

    @pytest.mark.parametrize("n", range(1, 9))
    def test_star_and_udu_free_agree(self, n):
        assert paths.count_family("grand_dyck_star", n) == paths.count_family(
            "grand_dyck_udu_free", n
        )

    def test_families_are_filters(self):
        everything = set(paths.enumerate_family("grand_dyck", 4))
        star = set(paths.enumerate_family("grand_dyck_star", 4))
        assert star == {w for w in everything if "DUD" not in w}
        dyck = set(paths.enumerate_family("dyck", 4))
        assert dyck == {w for w in everything if min(paths.heights(w)) >= 0}

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            list(paths.enumerate_family("nope", 2))

    def test_deterministic_order(self):
        a = list(paths.enumerate_family("grand_dyck", 5))
        b = list(paths.enumerate_family("grand_dyck", 5))
        assert a == b
        assert len(set(a)) == len(a)

    @pytest.mark.parametrize("family", paths.FAMILIES)
    def test_lexicographic_order(self, family):
        words = list(paths.enumerate_family(family, 6))
        assert words == sorted(words, key=lambda w: w.replace("U", "0").replace("D", "1"))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_filtered_reference(self, n):
        words = balanced_words(n)
        for family in paths.FAMILIES:
            assert list(paths.enumerate_family(family, n)) == filtered_words(family, words), family

    @pytest.mark.parametrize("family", paths.FAMILIES)
    def test_first_word_at_600_needs_no_recursion(self, family):
        # 1200 steps deep: a generator that recursed once per step would hit the limit
        words = paths.enumerate_family(family, 600)
        first, second = next(words), next(words)
        assert first == "U" * 600 + "D" * 600
        assert len(second) == 1200 and second != first
        assert filtered_words(family, [second]) == [second]


class TestCountFamily:
    """The transfer count against the listing it replaced, and at sizes no listing reaches."""

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("family", paths.FAMILIES)
    def test_matches_listing(self, family, n):
        assert paths.count_family(family, n) == listed_count(paths, family, n)

    def test_formulas_at_150(self):
        assert paths.count_family("grand_dyck", 150) == comb(299, 149)
        assert paths.count_family("dyck", 150) == catalan(150)
        assert paths.count_family("dyck_star", 150) == motzkin(149)
        assert paths.count_family("grand_dyck_star", 150) == paths.count_family(
            "grand_dyck_udu_free", 150
        )

    @pytest.mark.parametrize("family,n", [("nope", 2), ("dyck", 0), ("grand_dyck", -1)])
    def test_rejects_what_enumerate_rejects(self, family, n):
        with pytest.raises(ValueError):
            paths.count_family(family, n)
        with pytest.raises(ValueError):
            list(paths.enumerate_family(family, n))
        with pytest.raises(ValueError):
            paths.enumerate_family(family, n)  # at the call, not at the first word
