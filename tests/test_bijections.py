import gc
import random
import sys
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from heapdyck import bijections, counting, heaps, multisets, paths, series
from heapdyck.bijections import (
    FactorizationFailedError,
    GrammarDuplicateError,
    NotStartingUError,
)
from heapdyck.errors import HeapdyckError
from heapdyck.heaps import Heap

from oracles import (
    arch_path_to_heap,
    catalan,
    decoded,
    encoded_grammar,
    motzkin,
    run_components,
    square_animals,
    subset_factorize,
    subset_heap_to_path,
    uniform_multiset,
)

EXAMPLE_A = ((2, 2, 2, 4, 4, 7, 7, 7), "UUDDDUUDDUUUDDDU")
EXAMPLE_B = ((2, 5, 5, 7, 7, 7, 8, 8), "UUDUUUDDUUDDDUDD")


def heap_of(*pairs):
    return Heap(pairs)


class TestStaircase:
    @pytest.mark.parametrize("values,word", [EXAMPLE_A, EXAMPLE_B])
    def test_pinned_pairs(self, values, word):
        m = multisets.validate(values, 8)
        assert bijections.multiset_to_path(m) == word
        assert bijections.path_to_multiset(word) == m

    def test_word_shape(self):
        m = multisets.validate((1, 1), 2)
        assert bijections.multiset_to_path(m) == "UDDU"

    def test_rejects_words_starting_with_d(self):
        with pytest.raises(NotStartingUError):
            bijections.path_to_multiset("DUUD")

    def test_rejects_bad_chars(self):
        with pytest.raises(ValueError):
            bijections.path_to_multiset("UXDD")

    @pytest.mark.parametrize("n", range(1, 9))
    def test_bijective_onto_grand_dyck(self, n):
        words = {
            bijections.multiset_to_path(m)
            for m in multisets.enumerate_family("all", n)
        }
        assert words == set(paths.enumerate_family("grand_dyck", n))

    @pytest.mark.parametrize(
        "family,target",
        [
            ("super", "dyck"),
            ("star", "grand_dyck_star"),
            ("super_star", "dyck_star"),
            ("no_single_except_k", "grand_dyck_udu_free"),
        ],
    )
    @pytest.mark.parametrize("n", range(1, 7))
    def test_family_transport(self, family, target, n):
        got = {
            bijections.multiset_to_path(m)
            for m in multisets.enumerate_family(family, n)
        }
        assert got == set(paths.enumerate_family(target, n))

    @given(
        st.lists(st.integers(1, 8), min_size=1, max_size=8).map(
            lambda vs: multisets.validate(
                sorted(min(v, len(vs)) for v in vs), len(vs)
            )
        )
    )
    def test_round_trip(self, m):
        assert bijections.path_to_multiset(bijections.multiset_to_path(m)) == m

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_the_validating_constructor_on_grand_dyck_words(self, n):
        """path_to_multiset builds its multisets without multisets.validate, so check them here."""
        for word in paths.enumerate_family("grand_dyck", n):
            _assert_validated(word)

    def test_matches_the_validating_constructor_on_random_words(self):
        rng = random.Random(41)
        for length in [*range(2, 40), *(rng.randint(40, 600) for _ in range(200)), 600]:
            word = "U" + "".join(rng.choice("UD") for _ in range(length - 1))
            if "D" in word:
                _assert_validated(word)

    @pytest.mark.parametrize("word", ["U", "UUU", "U" * 600])
    def test_a_word_with_no_d_is_an_empty_multiset(self, word):
        with pytest.raises(multisets.EmptyMultisetError, match="^multiset needs at least one value$"):
            bijections.path_to_multiset(word)


def _assert_validated(word):
    """path_to_multiset(word) is, field for field, what multisets.validate makes of the
    U counts before each D, bounded by all the U steps."""
    values = [word.count("U", 0, i) for i, step in enumerate(word) if step == "D"]
    want = multisets.validate(values, word.count("U"))
    got = bijections.path_to_multiset(word)
    assert type(got) is multisets.Multiset and type(got.values) is tuple, word
    assert (got.values, got.bound) == (want.values, want.bound), word
    assert got == want, word


class TestRunDecomposition:
    def test_example_components(self):
        comps = run_components(EXAMPLE_A[1])
        assert [(c.start, c.end, c.below) for c in comps] == [
            (0, 4, False),
            (4, 6, True),
            (6, 8, False),
            (8, 10, True),
            (10, 14, False),
            (14, 16, True),
        ]
        assert [c.dyck_word for c in comps] == ["UUDD", "UD", "UD", "UD", "UUDD", "UD"]
        assert [c.shift for c in comps] == [0, -1, -2, -3, -4, -5]

    def test_dyck_word_is_single_component(self):
        comps = run_components("UUDUDD")
        assert len(comps) == 1
        assert not comps[0].below


class TestPathToHeap:
    @pytest.mark.parametrize(
        "word,pairs",
        [
            ("UD", ((0, 0),)),
            ("UDUD", ((0, 0), (0, 1))),
            ("UUDD", ((0, 0), (1, 1))),
            ("UDDU", ((0, 0), (-1, 1))),
            ("UUDUDD", ((0, 0), (1, 1), (1, 2))),
            (
                EXAMPLE_A[1],
                (
                    (0, 0), (1, 1), (-1, 1), (-2, 2), (-3, 3),
                    (-4, 4), (-3, 5), (-5, 5),
                ),
            ),
        ],
    )
    def test_pinned_heaps(self, word, pairs):
        assert bijections.path_to_heap(word) == heap_of(*pairs)

    def test_rejects_non_grand_dyck(self):
        with pytest.raises(ValueError):
            bijections.path_to_heap("DUUD")

    def test_inverse_rejects_non_heap(self):
        with pytest.raises(heaps.NotAHeapError, match="^expected a Heap, got str$"):
            bijections.heap_to_path("(0,0)")

    @pytest.mark.parametrize("n", range(1, 8))
    def test_round_trip(self, n):
        for w in paths.enumerate_family("grand_dyck", n):
            assert bijections.heap_to_path(bijections.path_to_heap(w)) == w

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_arch_references(self, n):
        for w in paths.enumerate_family("grand_dyck", n):
            h = bijections.path_to_heap(w)
            assert h == arch_path_to_heap(w), w
            assert bijections.heap_to_path(h) == subset_heap_to_path(h) == w

    @pytest.mark.parametrize("n", [100, 500, 2000])
    def test_seeded_large_round_trips(self, n):
        rng = random.Random(n)
        for _ in range(5):
            m = multisets.validate(uniform_multiset(rng, n), n)
            w = bijections.multiset_to_path(m)
            back = bijections.heap_to_path(bijections.path_to_heap(w))
            assert back == w
            assert bijections.path_to_multiset(back) == m

    @pytest.mark.parametrize(
        "word",
        ["U" * 2000 + "D" * 2000, "UD" * 2000, "UDDU" * 1000],
        ids=["nested", "arches", "crossings"],
    )
    def test_structured_round_trips_at_2000(self, word):
        h = bijections.path_to_heap(word)
        assert len(h) == 2000
        assert bijections.heap_to_path(h) == word

    @pytest.mark.parametrize("n", range(1, 8))
    def test_image_is_grammar_t(self, n):
        image = {
            bijections.path_to_heap(w)
            for w in paths.enumerate_family("grand_dyck", n)
        }
        assert image == bijections.grammar_enumerate(n, "T")

    @pytest.mark.parametrize("n", range(1, 8))
    def test_dyck_lands_in_subdiagonal(self, n):
        image = {
            bijections.path_to_heap(w) for w in paths.enumerate_family("dyck", n)
        }
        assert image == bijections.grammar_enumerate(n, "Ts")

    @pytest.mark.parametrize("n", range(1, 8))
    def test_dud_free_lands_in_strict(self, n):
        # DUD-free words onto Q, and the Dyck ones among them onto Qs
        for family, klass in (("grand_dyck_star", "Q"), ("dyck_star", "Qs")):
            image = {bijections.path_to_heap(w) for w in paths.enumerate_family(family, n)}
            assert image == bijections.grammar_enumerate(n, klass), family


class TestDropSequence:
    def test_pinned_sequence(self):
        # runs UUDD, DU, UD, DU, UUDD, DU, each one column further left
        assert bijections.drop_sequence(EXAMPLE_A[1]) == [0, 1, -1, -2, -3, -4, -3, -5]

    @staticmethod
    def by_runs(word):
        """The runs' own drop sequences, each shifted by its run's shift, joined in run order."""
        return [
            x + c.shift
            for c in run_components(word)
            for x in bijections.drop_sequence(c.dyck_word)
        ]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_splits_into_run_sequences(self, n):
        for w in paths.enumerate_family("grand_dyck", n):
            assert bijections.drop_sequence(w) == self.by_runs(w), w

    def test_splits_into_run_sequences_at_300(self):
        rng = random.Random(300)
        for _ in range(50):
            w = bijections.multiset_to_path(multisets.validate(uniform_multiset(rng, 300), 300))
            assert bijections.drop_sequence(w) == self.by_runs(w), w


class TestFactorize:
    def test_ground(self):
        f = bijections.factorize(heap_of((0, 0)))
        assert f.case == "i"
        assert f.parts == ()

    def test_case_ii(self):
        f = bijections.factorize(heap_of((0, 0), (1, 1)))
        assert f.case == "ii"
        assert f.parts == (heap_of((0, 0)),)

    def test_case_iii(self):
        f = bijections.factorize(heap_of((0, 0), (0, 1)))
        assert f.case == "iii"
        assert f.parts == (heap_of((0, 0)),)

    def test_case_iv(self):
        f = bijections.factorize(heap_of((0, 0), (1, 1), (0, 2)))
        assert f.case == "iv"
        assert f.parts == (heap_of((0, 0)), heap_of((0, 0)))

    def test_case_v(self):
        f = bijections.factorize(heap_of((0, 0), (-1, 1)))
        assert f.case == "v"
        assert f.parts == (heap_of((0, 0)), heap_of((0, 0)))

    def test_rejects_non_heap(self):
        with pytest.raises(ValueError):
            bijections.factorize(((0, 0),))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_compose_inverts_factorize(self, n):
        for h in bijections.grammar_enumerate(n, "T"):
            f = bijections.factorize(h)
            assert bijections.compose(f.case, f.parts) == h

    @pytest.mark.parametrize("n", range(1, 9))
    def test_word_reading_matches_subset_search(self, n):
        for h in bijections.grammar_enumerate(n, "T"):
            f = bijections.factorize(h)
            assert (f.case, f.parts) == subset_factorize(h), h

    @pytest.mark.parametrize("klass", ["T", "Q"])
    @pytest.mark.parametrize("n", [200, 500])
    def test_seeded_large_heaps(self, klass, n):
        # T heaps from uniform words; Q heaps from DUD-free words, the images of
        # star multisets, whose values climb by 0 or by 2 or more
        rng = random.Random(n)
        for _ in range(5):
            if klass == "T":
                values = uniform_multiset(rng, n)
            else:
                values = [rng.randint(1, 3)]
                while len(values) < n:
                    step = rng.choice((0, 0, 2, 3))
                    values.append(values[-1] + (step if values[-1] + step <= n else 0))
            h = bijections.path_to_heap(
                bijections.multiset_to_path(multisets.validate(values, n))
            )
            assert klass == "T" or heaps.heap_stats(h).diag == 0
            # the heap and its parts, so that the cases below v are met too
            for g in (h, *bijections.factorize(h).parts):
                f = bijections.factorize(g)
                assert bijections.compose(f.case, f.parts) == g
                assert sum(map(len, f.parts)) == (len(g) if f.case == "v" else len(g) - 1)
                assert (f.case == "v") == (g.min_column() < 0)

    def test_compose_and_factorize_read_the_case_table_at_the_call(self, monkeypatch):
        # cases ii and iii trade offsets: the part straight above is now case ii's
        monkeypatch.setitem(counting.CASES, "ii", (0,))
        monkeypatch.setitem(counting.CASES, "iii", (1,))
        h = heap_of((0, 0), (0, 1))
        assert bijections.compose("ii", (heap_of((0, 0)),)) == h
        assert bijections.factorize(h) == ("ii", (heap_of((0, 0)),))

    def test_compose_rejects_unknown_case(self):
        with pytest.raises(ValueError):
            bijections.compose("vi", ())

    @pytest.mark.parametrize("case,takes", [("v", 2), ("i", 0)])
    def test_compose_checks_part_count(self, case, takes):
        with pytest.raises(HeapdyckError, match=f"^case {case} takes {takes} parts, got 1$"):
            bijections.compose(case, (heap_of((0, 0)),))

    def test_compose_rejects_non_heap_part(self):
        with pytest.raises(heaps.NotAHeapError, match="^expected a Heap, got str$"):
            bijections.compose("ii", ("x",))

    def test_strict_heaps_factor_without_case_iii(self):
        for n in range(2, 7):
            for h in bijections.grammar_enumerate(n, "Q"):
                f = bijections.factorize(h)
                if f.case == "v":
                    f = bijections.factorize(f.parts[0])
                assert f.case != "iii"


class TestGrammar:
    def test_smallest_classes(self):
        assert bijections.grammar_enumerate(1, "T") == {heap_of((0, 0))}
        assert bijections.grammar_enumerate(2, "T") == {
            heap_of((0, 0), (1, 1)),
            heap_of((0, 0), (0, 1)),
            heap_of((0, 0), (-1, 1)),
        }
        assert bijections.grammar_enumerate(2, "Qs") == {heap_of((0, 0), (1, 1))}
        assert bijections.grammar_enumerate(2, "Q") == {
            heap_of((0, 0), (1, 1)),
            heap_of((0, 0), (-1, 1)),
        }

    def test_subdiagonal_classes_stay_right_of_origin(self):
        for n in range(1, 7):
            for h in bijections.grammar_enumerate(n, "Ts"):
                assert h.min_column() == 0
            for h in bijections.grammar_enumerate(n, "Qs"):
                assert heaps.heap_stats(h).diag == 0

    def test_strict_class_is_diagonal_free(self):
        for n in range(1, 8):
            for h in bijections.grammar_enumerate(n, "Q"):
                assert heaps.heap_stats(h).diag == 0

    def test_counts_match_series_to_order_12(self):
        """Exhaustive grammar enumeration against the four closed forms."""
        order = 12
        named = {name: series.closed_form(name, order) for name in ("T", "Ts", "Q", "Qs")}
        memo = {}
        for name, ser in named.items():
            for n in range(1, order + 1):
                assert len(encoded_grammar(name, n, memo)) == ser[n], (name, n)
                assert bijections.grammar_count(n, name) == ser[n], (name, n)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_brute_force_animals(self, n):
        tri = {
            heaps.animal_to_heap(a)
            for a in heaps.animal_enumerate_bruteforce(n, "triangular")
        }
        assert tri == bijections.grammar_enumerate(n, "T")
        sq = {
            heaps.animal_to_heap(a)
            for a in heaps.animal_enumerate_bruteforce(n, "square")
        }
        assert sq == bijections.grammar_enumerate(n, "Q")

    def test_unknown_class(self):
        with pytest.raises(ValueError):
            bijections.grammar_enumerate(2, "X")

    def test_clear_caches_keeps_results_stable(self):
        before = bijections.grammar_enumerate(4, "T")
        bijections.clear_caches()
        assert bijections.grammar_enumerate(4, "T") == before

    @pytest.mark.parametrize("klass", counting.CLASSES)
    def test_heaps_match_encoded_reference(self, klass):
        # the walk's order is its own, but each heap must come out exactly once
        memo = {}
        for n in range(1, 9):
            want = Counter(decoded(blob) for blob in encoded_grammar(klass, n, memo))
            assert Counter(bijections._grammar_heaps(klass, n)) == want, n

    def test_duplicate_build_raises(self, monkeypatch):
        # case iii's part dropped one column right, where case ii's goes
        monkeypatch.setitem(counting.CASES, "iii", (1,))
        with pytest.raises(GrammarDuplicateError):
            bijections.grammar_enumerate(2, "Ts")

    def test_walk_peak_memory_stays_per_heap(self):
        # about 256 bytes per heap at the peak: the heaps, the list of them and the
        # frozenset; the stored drop-sequence rows of every size, which the walk
        # replaced, peaked at about 374
        gc.collect()
        tracemalloc.start()
        try:
            built = bijections.grammar_enumerate(8, "T")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / len(built) <= 300

    def test_grammar_keeps_no_module_state(self):
        bijections.clear_caches()  # so that no earlier test has filled what this call would fill
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "heapdyck"]
        assert bijections in modules

        def sizes():
            return {
                (m.__name__, name): len(value)
                for m in modules
                for name, value in vars(m).items()
                if not name.startswith("__") and type(value) in (dict, list, set)
            }

        before = sizes()
        assert bijections.grammar_enumerate(8, "T")
        assert sizes() == before

    @pytest.mark.parametrize("klass", counting.CLASSES)
    def test_heaps_share_one_tuple_per_distinct_dimer(self, klass):
        for n in range(1, 9):
            dimers = [d for h in bijections.grammar_enumerate(n, klass) for d in h.dimers]
            assert len(set(map(id, dimers))) == len(set(dimers)), n

    def test_heaps_retain_little_memory(self):
        # about 226 bytes per heap with shared dimers and no cached hash; 270 with a
        # cached hash, 715 with a tuple per dimer per heap
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            built = bijections.grammar_enumerate(8, "T")
            gc.collect()  # the free lists go too, so that only what the heaps hold is left
            retained = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert retained / len(built) <= 250

    def test_a_dropped_class_is_freed_without_the_cycle_collector(self):
        # the walk's closure reaches itself; while that cycle stood, it kept the list of
        # heaps, and so every heap, alive after the call until the collector ran
        def live_heaps():
            return sum(type(o) is Heap for o in gc.get_objects())

        gc.collect()
        gc.disable()
        try:
            before = live_heaps()
            bijections.grammar_enumerate(6, "T")
            after = live_heaps()
        finally:
            gc.enable()
        assert after == before

    def test_the_animal_brute_force_leaves_no_cycle(self):
        # its scan's closure reaches itself; while that cycle stood, it kept the candidates
        # and the found subsets alive after the call until the collector ran
        gc.collect()
        gc.disable()
        try:
            assert len(heaps.animal_enumerate_bruteforce(5, "triangular")) == 126
            garbage = gc.collect()
        finally:
            gc.enable()
        assert garbage == 0

    def test_encoded_reference_raises_on_a_duplicate_build(self):
        (ground,) = encoded_grammar("Ts", 1)
        with pytest.raises(GrammarDuplicateError):
            encoded_grammar("Ts", 2, {("Ts", 1): (ground, ground)})
