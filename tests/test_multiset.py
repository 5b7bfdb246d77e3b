from math import comb

import pytest
from hypothesis import given, strategies as st

from heapdyck import multisets
from heapdyck.multisets import (
    EmptyMultisetError,
    Multiset,
    MultisetParseError,
    NotSortedError,
    OutOfRangeError,
)

from oracles import classify_multiset, filtered_multisets, listed_count, multiset_families

LARGE_EXAMPLE = (3, 4, 5, 5, 5, 5, 5, 6, 6, 8, 8, 8, 8, 12, 15, 16, 17, 17, 17, 19, 19, 19)


def msets(max_n=8, max_k=9):
    """Hypothesis strategy for valid multisets."""
    return st.lists(
        st.integers(1, max_k), min_size=1, max_size=max_n
    ).map(lambda vs: multisets.validate(sorted(vs), max(max(vs), len(vs))))


class TestValidate:
    def test_accepts_example_values(self):
        m = multisets.validate((2, 2, 2, 4, 4, 7, 7, 7), 8)
        assert len(m.values) == 8
        assert m.bound == 8

    def test_singleton(self):
        m = multisets.validate((1,), 1)
        assert m == Multiset((1,), 1)

    def test_bound_defaults_to_length(self):
        assert multisets.validate((1, 2)).bound == 2
        with pytest.raises(OutOfRangeError):
            multisets.validate((1, 3))

    def test_rejects_unsorted(self):
        with pytest.raises(NotSortedError):
            multisets.validate((2, 1), 2)

    def test_rejects_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            multisets.validate((0, 1), 2)
        with pytest.raises(OutOfRangeError):
            multisets.validate((1, 3), 2)

    def test_rejects_empty(self):
        with pytest.raises(EmptyMultisetError):
            multisets.validate((), 1)


class TestClassify:
    def test_superdiagonal(self):
        flags = classify_multiset(multisets.validate((2, 5, 5, 7, 7, 7, 8, 8), 8))
        assert flags.superdiagonal

    def test_adjacent_pair_is_not_star(self):
        assert not classify_multiset(multisets.validate((1, 2), 2)).star

    def test_no_single_except_bound(self):
        flags = classify_multiset(multisets.validate((1, 1, 3, 3), 4))
        assert flags.no_single_except_bound

    def test_lone_small_value_fails_no_single(self):
        flags = classify_multiset(multisets.validate((1, 3, 3), 4))
        assert not flags.no_single_except_bound

    def test_lone_bound_value_allowed(self):
        flags = classify_multiset(multisets.validate((1, 1, 4), 4))
        assert flags.no_single_except_bound


class TestAdjacency:
    @pytest.mark.parametrize(
        "values,bound,expected",
        [((1, 2), 2, 1), ((2, 2), 2, 0), (LARGE_EXAMPLE, 22, 5)],
    )
    def test_counts(self, values, bound, expected):
        m = multisets.validate(values, bound)
        assert multisets.adjacency_count(m) == expected


class TestStats:
    def test_two_twos(self):
        s = multisets.stats(multisets.validate((2, 2), 2))
        assert s.cross == 0
        assert s.adj == 0
        assert s.gap_profile == (1, 0)
        assert s.gap == 1

    def test_two_ones(self):
        s = multisets.stats(multisets.validate((1, 1), 2))
        assert s.cross == 1
        assert s.gap_profile == (0, 0)
        assert s.gap == 0

    def test_example_gap_profile(self):
        s = multisets.stats(multisets.validate((2, 2, 2, 4, 4, 7, 7, 7), 8))
        assert s.cross == 5
        assert s.gap_profile == (1, 0, 0, -2, -2, -3, -4, -4)
        assert s.gap == 1

    @given(msets())
    def test_gap_is_profile_max(self, m):
        s = multisets.stats(m)
        assert s.gap == max(s.gap_profile)
        assert s.length == len(m.values)

    @given(msets())
    def test_cross_counts_delta_changes(self, m):
        s = multisets.stats(m)
        changes = sum(
            1
            for a, b in zip(s.delta_profile, s.delta_profile[1:])
            if a != b
        )
        assert s.cross == changes

    def test_superdiagonal_has_no_crossings(self):
        for m in multisets.enumerate_family("super", 5):
            assert multisets.stats(m).cross == 0


class TestEnumerate:
    def test_all_3_2(self):
        got = [m.values for m in multisets.enumerate_family("all", 3, 2)]
        assert got == [(1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2)]

    def test_star_2_2(self):
        got = [m.values for m in multisets.enumerate_family("star", 2, 2)]
        assert got == [(1, 1), (2, 2)]

    def test_super_3_3_count(self):
        assert multisets.count_family("super", 3) == 5
        assert listed_count(multisets, "super", 3) == 5

    def test_star_4_4_count(self):
        assert multisets.count_family("star", 4) == 13
        assert listed_count(multisets, "star", 4) == 13

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("k", range(1, 7))
    def test_total_count_is_binomial(self, n, k):
        assert multisets.count_family("all", n, k) == comb(n + k - 1, n)
        assert listed_count(multisets, "all", n, k) == comb(n + k - 1, n)

    def test_lexicographic_order(self):
        seen = [m.values for m in multisets.enumerate_family("all", 4)]
        assert seen == sorted(seen)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_matches_filtered_reference(self, n):
        for k in (0, 1, n - 1, n, n + 2):
            for family, want in filtered_multisets(n, k).items():
                assert list(multisets.enumerate_family(family, n, k)) == want, (family, k)

    @pytest.mark.parametrize("family", multisets.FAMILIES)
    def test_first_members_at_600_need_no_recursion(self, family):
        # 600 values deep: a generator that recursed once per value would hit the limit
        members = multisets.enumerate_family(family, 600)
        first, second = next(members), next(members)
        assert first.values < second.values
        for m in (first, second):
            assert len(m.values) == 600 and m.bound == 600
            assert family in multiset_families(m), m.values

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            list(multisets.enumerate_family("nope", 2))

    def test_families_nest(self):
        everything = set(multisets.enumerate_family("all", 5))
        for family in ("star", "super", "super_star", "no_single_except_k"):
            assert set(multisets.enumerate_family(family, 5)) <= everything
        both = set(multisets.enumerate_family("super_star", 5))
        assert both == set(multisets.enumerate_family("super", 5)) & set(
            multisets.enumerate_family("star", 5)
        )



class TestCountFamily:
    """The transfer count against the listing it replaced, and at sizes no listing reaches."""

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("family", multisets.FAMILIES)
    def test_matches_listing(self, family, n):
        for k in range(10):
            assert multisets.count_family(family, n, k) == listed_count(multisets, family, n, k), k

    def test_bound_defaults_to_size(self):
        for family in multisets.FAMILIES:
            assert multisets.count_family(family, 6) == multisets.count_family(family, 6, 6)

    def test_formulas_at_300(self):
        assert multisets.count_family("all", 300, 250) == comb(549, 300)
        # a superdiagonal multiset over 1..n is a Dyck word by the staircase map
        assert multisets.count_family("super", 300) == comb(600, 300) // 301

    @pytest.mark.parametrize("family", multisets.FAMILIES)
    def test_zero_bound_counts_nothing(self, family):
        assert multisets.count_family(family, 3, 0) == 0 == listed_count(multisets, family, 3, 0)

    @pytest.mark.parametrize("family,n,k", [("nope", 2, 2), ("star", 0, 2), ("star", 2, -1)])
    def test_rejects_what_enumerate_rejects(self, family, n, k):
        with pytest.raises(ValueError):
            multisets.count_family(family, n, k)
        with pytest.raises(ValueError):
            list(multisets.enumerate_family(family, n, k))
        with pytest.raises(ValueError):
            multisets.enumerate_family(family, n, k)  # at the call, not at the first multiset

class TestText:
    def test_parse_with_bound(self):
        m = multisets.parse("2,2,2|k=5")
        assert m.values == (2, 2, 2)
        assert m.bound == 5

    def test_parse_default_bound(self):
        assert multisets.parse("1,3,3").bound == 3

    def test_to_text_omits_default_bound(self):
        assert multisets.to_text(multisets.validate((1, 3, 3), 3)) == "1,3,3"
        assert multisets.to_text(multisets.validate((1, 3), 5)) == "1,3|k=5"

    @pytest.mark.parametrize("bad", ["", "a,b", "1;2", "1,2|k=x", "1,2|j=3"])
    def test_parse_rejects_garbage(self, bad):
        with pytest.raises(MultisetParseError):
            multisets.parse(bad)

    @given(msets())
    def test_round_trip(self, m):
        assert multisets.parse(multisets.to_text(m)) == m
