import gc
import random
import re
from functools import partial
from itertools import combinations, combinations_with_replacement
from types import SimpleNamespace
from typing import NamedTuple

import pytest
from hypothesis import example, given, strategies as st

from heapdyck import bijections, counting, heaps, multisets, paths, render
from heapdyck.errors import HeapdyckError
from heapdyck.heaps import (
    Heap,
    HeapParseError,
    MissingOriginError,
    NotAHeapError,
    NotAnAnimalError,
    PointAnimal,
    TooLargeError,
)

from oracles import (
    BadGroundError,
    catalan,
    crossing_heavy,
    drop,
    motzkin,
    reachable_animal,
    reference_check_heap,
    reference_drop_columns,
    reference_parse_pairs,
    square_animals,
    superpose,
    uniform_multiset,
)

STACK = ((0, 0), (0, 1))


class _Pair(NamedTuple):
    """A tuple subclass, which Heap converts to a plain pair."""

    column: int
    level: int


def heap_of(*pairs):
    return Heap(pairs)


class TestHeapValidation:
    def test_ground_alone(self):
        assert len(heap_of((0, 0))) == 1

    def test_stacked_pair(self):
        h = heap_of(*STACK)
        assert heaps.heap_stats(h).diag == 1

    @pytest.mark.parametrize(
        "pairs",
        [
            (),
            ((1, 0),),
            ((0, 0), (0, 0)),
            ((0, 0), (2, 0)),
            ((0, 0), (1, 0)),
            ((0, 0), (2, 1)),
            ((0, 0), (0, 2)),
        ],
    )
    def test_rejects_invalid(self, pairs):
        with pytest.raises(NotAHeapError):
            heap_of(*pairs)

    def test_immutable(self):
        h = heap_of((0, 0))
        with pytest.raises(AttributeError):
            h.dimers = ()

    def test_equality_ignores_input_order(self):
        a = Heap(((0, 0), (1, 1)))
        b = Heap(((1, 1), (0, 0)))
        assert a == b
        assert hash(a) == hash(b)

    @pytest.mark.parametrize(
        "item",
        [(0.0, 0), (0, 0.0), (True, 0), (0, 0, 0), (0,), 5, [0, 0.0], _Pair(0, 0.0)],
        ids=repr,
    )
    def test_rejects_items_that_are_not_integer_pairs(self, item):
        # a float or a bool would print under "%d" as another heap's text
        with pytest.raises(NotAHeapError, match=f"^{re.escape(repr(item))} is not a pair"):
            Heap([item])

    @pytest.mark.parametrize(
        "call",
        [
            heaps.heap_stats,
            heaps.to_text,
            heaps.heap_to_animal,
            partial(render.render, "heap"),
            partial(render.render, "heap", fmt="svg"),
        ],
        ids=["heap_stats", "to_text", "heap_to_animal", "render-ascii", "render-svg"],
    )
    def test_heap_functions_reject_a_non_heap(self, call):
        # the error bijections raises, not an AttributeError on the text
        with pytest.raises(NotAHeapError, match="^expected a Heap, got str$"):
            call("(0,0)")


def _plain(dimers) -> bool:
    return all(type(d) is tuple and len(d) == 2 and {type(x) for x in d} == {int} for d in dimers)


class TestPlainPairs:
    """Every way of building a heap leaves exact int pairs, which the collector untracks."""

    BUILDS = {
        "drop_columns": lambda: Heap(heaps.drop_columns([0, 1, -1, 0, 2])),
        "parse_heap": lambda: heaps.parse_heap("(0,0);(1,1); ( -1 , 1 );(0,2)"),
        "lists": lambda: Heap([[0, 0], [1, 1], [-1, 1]]),
        "tuple-subclass": lambda: Heap([_Pair(0, 0), _Pair(1, 1), _Pair(-1, 1)]),
        "compose": lambda: bijections.compose("iv", (heap_of((0, 0)), heap_of(*STACK))),
        "grammar_enumerate": lambda: max(bijections.grammar_enumerate(5, "T"), key=heaps.to_text),
        "animal_to_heap": lambda: heaps.animal_to_heap(
            PointAnimal(frozenset({(0, 0), (1, 0), (1, 1), (0, 1)}))
        ),
        "path_to_heap": lambda: bijections.path_to_heap("UUDUDDDUUDDU"),
    }

    @pytest.mark.parametrize("build", sorted(BUILDS))
    def test_dimers_are_untracked_int_pairs(self, build):
        h = self.BUILDS[build]()
        assert len(h) > 1
        assert _plain(h.dimers)
        gc.collect()
        assert not any(map(gc.is_tracked, h.dimers))

    def test_drop_columns_gives_plain_pairs(self):
        assert _plain(heaps.drop_columns([0, 1, -1, 0, 2, 7]))


def _verdict(pairs):
    """The breach message Heap gives for these dimers, or None when it accepts them."""
    try:
        Heap(pairs)
    except NotAHeapError as exc:
        return str(exc)
    return None


class TestSweepMatchesReference:
    """Heap's one-sweep check gives the multi-pass reference's verdict and first message."""

    CELLS = sorted(
        ((c, l) for c in range(-2, 3) for l in range(-1, 3)),
        key=lambda d: (d[1], d[0]),
    )

    def test_every_small_tuple(self):
        # the 21 700 sets of at most 5 of these 20 dimers, then the 4 430
        # multisets of at most 4 that repeat one; fed in reverse
        tuples = [t for k in range(6) for t in combinations(self.CELLS, k)]
        assert len(tuples) == 21_700
        tuples += [
            t
            for k in range(5)
            for t in combinations_with_replacement(self.CELLS, k)
            if len(set(t)) < k
        ]
        messages = set()
        for t in tuples:
            expected = reference_check_heap(t)
            assert _verdict(t[::-1]) == expected, t
            messages.add(expected and expected.split(" ")[0])
        assert messages == {None, "empty", "repeated", "need", "overlapping", "dimer"}

    @pytest.mark.parametrize("klass", counting.CLASSES)
    def test_grammar_heaps_and_their_one_dimer_removals(self, klass):
        for n in range(1, 9):
            for h in bijections.grammar_enumerate(n, klass):
                assert reference_check_heap(h.dimers) is None
                for i in range(n):
                    rest = h.dimers[:i] + h.dimers[i + 1 :]
                    assert _verdict(rest) == reference_check_heap(rest), rest


def _anchored(steps):
    """Column 0, then per (k, step) an earlier column, chosen by k, moved by step: a heap."""
    columns = [0]
    for k, step in steps:
        columns.append(columns[k % len(columns)] + step)
    return columns


class TestDrop:
    def test_first_dimer_must_be_at_origin(self):
        with pytest.raises(BadGroundError):
            drop(None, 1)

    def test_drop_sequence(self):
        h = drop(None, 0)
        h = drop(h, 1)
        h = drop(h, 0)
        assert h == heap_of((0, 0), (1, 1), (0, 2))

    def test_drop_lands_on_nearest_support(self):
        h = drop(drop(None, 0), -1)
        assert h == heap_of((0, 0), (-1, 1))

    def test_detached_column_is_rejected(self):
        with pytest.raises(NotAHeapError):
            drop(drop(None, 0), 5)

    @given(
        st.lists(st.tuples(st.integers(0, 10**6), st.integers(-1, 1)), max_size=12),
        st.lists(st.integers(-20, 20), max_size=40),
        st.booleans(),
    )
    def test_matches_the_per_dimer_loop(self, anchors, columns, grounded):
        # no base, or a heap dropped from column 0 with each later column next
        # to an earlier one, as its canonical columns; then columns anywhere,
        # with repeats and gaps
        base = Heap(reference_drop_columns(_anchored(anchors))).dimers if grounded else ()
        sequence = [col for col, _ in base] + columns
        got = heaps.drop_columns(iter(sequence))
        assert got == reference_drop_columns(sequence)
        assert got[: len(base)] == list(base)  # the canonical columns rebuild the base
        assert all(type(d) is tuple for d in got)

    def test_superpose_matches_repeated_drops(self):
        base = ((0, 0), (1, 1))
        part = ((0, 0), (0, 1))
        merged = superpose(base, part, -1)
        expect = drop(drop(heap_of(*base), -1), -1)
        assert Heap(merged) == expect


def _outcome(build, columns):
    """The heap build makes of the columns dropped, or the message of its NotAHeapError."""
    try:
        return build(heaps.drop_columns(columns))
    except NotAHeapError as exc:
        return str(exc)


# column lists from anywhere, empty, off column 0 or with a second dimer on the
# ground; and the column lists of heaps
_ANY_COLUMNS = st.lists(st.integers(-8, 8), max_size=24)
_HEAP_COLUMNS = st.lists(
    st.tuples(st.integers(0, 10**6), st.integers(-1, 1)), max_size=24
).map(_anchored)


class TestFallen:
    """`fallen` checks the ground alone and agrees with Heap's full check on dropped dimers."""

    @given(st.one_of(_ANY_COLUMNS, _HEAP_COLUMNS))
    @example([])
    @example([1, 0])
    @example([0, 2])
    @example([0, -1, 1, -3])
    def test_agrees_with_the_full_check(self, columns):
        got, want = _outcome(heaps.fallen, columns), _outcome(Heap, columns)
        if isinstance(want, str):
            assert got == want
        else:
            assert type(got) is Heap and got == want and got.dimers == want.dimers

    def test_mapped_composed_and_factored_heaps_pass_the_full_check(self):
        for n in range(1, 9):
            for word in paths.enumerate_family("grand_dyck", n):
                h = bijections.path_to_heap(word)
                case, parts = bijections.factorize(h)
                composed = bijections.compose(case, parts)
                animal = heaps.animal_to_heap(heaps.heap_to_animal(h))
                for built in (h, composed, *parts, animal):
                    assert heaps._check_heap(built.dimers) is None, (word, built)


class TestStats:
    def test_small_pyramid(self):
        h = heap_of((0, 0), (-1, 1), (1, 1), (0, 2))
        s = heaps.heap_stats(h)
        assert s.area == 4
        assert s.lw == 1
        assert s.rw == 2
        assert s.width == 3
        assert s.diag == 0
        assert s.nbp_profile == {0: 1, 1: 2, 2: 1}

    def test_stack_diag(self):
        assert heaps.heap_stats(heap_of(*STACK)).diag == 1

    def test_width_splits(self):
        for h in _all_heaps(5):
            s = heaps.heap_stats(h)
            assert s.width == s.lw + s.rw
            assert s.area == sum(s.nbp_profile.values())
            assert s.rw >= 1 and s.lw >= 0


def _all_heaps(n):
    from heapdyck import bijections

    return bijections.grammar_enumerate(n, "T")


class TestAnimals:
    def test_validate_requires_origin(self):
        with pytest.raises(MissingOriginError):
            heaps.animal_validate({(1, 0)})

    def test_validate_rejects_negative(self):
        with pytest.raises(ValueError):
            heaps.animal_validate({(0, 0), (-1, 0)})

    def test_triangular_uses_diagonal_moves(self):
        assert heaps.animal_validate({(0, 0), (1, 1)}, "triangular")
        assert not heaps.animal_validate({(0, 0), (1, 1)}, "square")

    @pytest.mark.parametrize("lattice", heaps.LATTICES)
    def test_predecessor_rule_matches_reachability(self, lattice):
        """Every subset of {0..3}^2 that holds the origin, against a search from it."""
        grid = [(x, y) for x in range(4) for y in range(4)][1:]
        for r in range(len(grid) + 1):
            for rest in combinations(grid, r):
                pts = {(0, 0), *rest}
                assert heaps.animal_validate(pts, lattice) is reachable_animal(pts, lattice), pts

    def test_point_animal_checks_connectivity(self):
        with pytest.raises(ValueError):
            PointAnimal(frozenset({(0, 0), (2, 2)}))

    @pytest.mark.parametrize(
        "points, message",
        [
            ({(0, 0), (2, 2)}, "points are not connected to the origin"),
            ({(0, 0), (-1, 0)}, "animal coordinates must be non-negative"),
            ({(0, 0), (1.0, 0)}, "animal coordinates must be integers"),
            ({(0, 0), (0, 1), (1, 1.5)}, "animal coordinates must be integers"),
            ({(0, 0), (True, 0)}, "animal coordinates must be integers"),
            ({(0.0, 0)}, "animal coordinates must be integers"),
            ({(0, 0), (-1.0, 0)}, "animal coordinates must be integers"),
        ],
    )
    def test_point_animal_refusal_is_a_library_error(self, points, message):
        with pytest.raises(NotAnAnimalError, match=f"^{message}$") as info:
            PointAnimal(frozenset(points))
        assert isinstance(info.value, HeapdyckError) and isinstance(info.value, ValueError)

    def test_to_heap_single_point(self):
        a = PointAnimal(frozenset({(0, 0)}))
        assert heaps.animal_to_heap(a) == heap_of((0, 0))

    def test_to_heap_column_is_x_minus_y(self):
        a = PointAnimal(frozenset({(0, 0), (1, 0), (1, 1)}))
        h = heaps.animal_to_heap(a)
        assert {col for col, _ in h.dimers} == {0, 1}
        assert heaps.heap_stats(h).area == 3

    def test_reflect(self):
        a = PointAnimal(frozenset({(0, 0), (1, 0)}))
        assert heaps.animal_reflect(a).points == frozenset({(0, 0), (0, 1)})

    def test_reflect_involution(self):
        for a in heaps.animal_enumerate_bruteforce(4, "triangular"):
            assert heaps.animal_reflect(heaps.animal_reflect(a)) == a

    @pytest.mark.parametrize("n", range(1, 8))
    def test_reflection_passes_the_animal_check(self, n):
        """animal_reflect builds its animals without PointAnimal's check, so check them here."""
        for a in heaps.animal_enumerate_bruteforce(n, "triangular"):
            b = heaps.animal_reflect(a)
            assert type(b) is PointAnimal and type(b.points) is frozenset, a
            assert PointAnimal(b.points) == b, a

    @pytest.mark.parametrize(
        "arg",
        [
            frozenset({(0, 0), (1, 0)}),
            "(0,0);(1,0)",
            None,
            Heap(STACK),
            SimpleNamespace(points=frozenset({(0, 0), (1, 0)})),
        ],
        ids=["frozenset", "text", "none", "heap", "has-points"],
    )
    def test_reflect_refuses_what_is_not_an_animal(self, arg):
        with pytest.raises(NotAnAnimalError, match="^expected a PointAnimal, got "):
            heaps.animal_reflect(arg)


class TestBruteForce:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_triangular_counts(self, n):
        got = len(heaps.animal_enumerate_bruteforce(n, "triangular"))
        assert got == _central(n)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_square_counts(self, n):
        got = len(heaps.animal_enumerate_bruteforce(n, "square"))
        assert got == square_animals(n)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_subdiagonal_counts(self, n):
        tri = len(heaps.animal_enumerate_bruteforce(n, "triangular", subdiagonal=True))
        sq = len(heaps.animal_enumerate_bruteforce(n, "square", subdiagonal=True))
        assert tri == catalan(n)
        assert sq == motzkin(n - 1)

    @pytest.mark.parametrize("lattice", heaps.LATTICES)
    @pytest.mark.parametrize("n", range(1, 6))
    def test_pruned_scan_equals_naive_filter(self, lattice, n):
        """The support-pruned scan must reproduce the plain subset filter."""
        cands = heaps._candidates(n, lattice, False)
        naive = set()
        for rest in combinations(cands[1:], n - 1):
            pts = {(0, 0), *rest}
            if reachable_animal(pts, lattice):
                naive.add(frozenset(pts))
        got = {a.points for a in heaps.animal_enumerate_bruteforce(n, lattice)}
        assert got == naive

    @pytest.mark.parametrize("subdiagonal", [False, True])
    @pytest.mark.parametrize("lattice", heaps.LATTICES)
    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_animal_is_connected_on_its_lattice(self, n, lattice, subdiagonal):
        """The scan builds its animals without PointAnimal's check, so check them here."""
        for a in heaps.animal_enumerate_bruteforce(n, lattice, subdiagonal):
            assert type(a) is PointAnimal and type(a.points) is frozenset
            assert len(a) == n and reachable_animal(a.points, lattice)
            assert not subdiagonal or all(y <= x for x, y in a.points)

    def test_rejects_large_n(self):
        with pytest.raises(TooLargeError):
            heaps.animal_enumerate_bruteforce(heaps.BRUTE_FORCE_BOUND + 1)

    def test_every_animal_maps_to_valid_heap(self):
        for a in heaps.animal_enumerate_bruteforce(5, "triangular"):
            h = heaps.animal_to_heap(a)
            assert isinstance(h, Heap)
            assert len(h) == 5


class TestHeapToAnimal:
    """The lowest embedding inverts animal_to_heap, and animal_to_heap inverts it."""

    def test_lowest_points(self):
        # a dimer on top of another rises by 2 in x + y, one beside it by 1
        assert heaps.heap_to_animal(heap_of(*STACK)).points == {(0, 0), (1, 1)}
        pyramid = heap_of((0, 0), (-1, 1), (1, 1), (0, 2))
        assert heaps.heap_to_animal(pyramid).points == {(0, 0), (0, 1), (1, 0), (1, 1)}
        # a dimer far from column 0 sits at x + y = |column|, on an axis
        far = heap_of((0, 0), (1, 1), (2, 2), (3, 3))
        assert heaps.heap_to_animal(far).points == {(0, 0), (1, 0), (2, 0), (3, 0)}

    @pytest.mark.parametrize("subdiagonal", [False, True], ids=["full", "subdiagonal"])
    @pytest.mark.parametrize("lattice", heaps.LATTICES)
    @pytest.mark.parametrize("n", range(1, 9))
    def test_inverts_animal_to_heap(self, n, lattice, subdiagonal):
        for a in heaps.animal_enumerate_bruteforce(n, lattice, subdiagonal):
            assert heaps.heap_to_animal(heaps.animal_to_heap(a)) == a, a

    @pytest.mark.parametrize("n", range(1, 9))
    def test_animal_to_heap_inverts_it(self, n):
        for h in bijections.grammar_enumerate(n, "T"):
            assert heaps.animal_to_heap(heaps.heap_to_animal(h)) == h, h

    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_embedding_passes_the_animal_check(self, n):
        """heap_to_animal builds its animals without PointAnimal's check, so check them here."""
        for h in bijections.grammar_enumerate(n, "T"):
            a = heaps.heap_to_animal(h)
            assert type(a) is PointAnimal and type(a.points) is frozenset, h
            assert PointAnimal(a.points) == a, h

    def test_round_trips_at_n_1000(self):
        rng = random.Random(1000)
        for _ in range(5):
            m = multisets.validate(uniform_multiset(rng, 1000), 1000)
            h = bijections.path_to_heap(bijections.multiset_to_path(m))
            a = heaps.heap_to_animal(h)
            assert len(a) == 1000
            assert heaps.animal_to_heap(a) == h
            assert heaps.heap_to_animal(heaps.animal_to_heap(a)) == a


def _central(n):
    from math import comb

    return comb(2 * n - 1, n)


class TestText:
    def test_heap_round_trip(self):
        h = heap_of((0, 0), (-1, 1), (1, 1))
        assert heaps.parse_heap(heaps.to_text(h)) == h

    def test_heap_text_sorted(self):
        h = heap_of((1, 1), (0, 0), (-1, 1))
        assert heaps.to_text(h) == "(0,0);(-1,1);(1,1)"

    def test_points_round_trip(self):
        a = PointAnimal(frozenset({(0, 0), (1, 1), (1, 0)}))
        assert heaps.parse_points(heaps.points_to_text(a)) == a

    @pytest.mark.parametrize("bad", ["", "(0,0);", "0,0", "(a,0)", "(0,0)(1,1)"])
    def test_parse_rejects_garbage(self, bad):
        with pytest.raises(HeapParseError):
            heaps.parse_heap(bad)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_text_is_the_per_dimer_format(self, n):
        for h in bijections.grammar_enumerate(n, "T"):
            assert heaps.to_text(h) == ";".join(f"({c},{l})" for c, l in h.dimers)

    def test_crossing_heap_round_trip_at_n_2000(self):
        h = bijections.path_to_heap(crossing_heavy(random.Random(2000), 2000))
        assert h.min_column() < 0
        assert heaps.parse_heap(heaps.to_text(h)) == h


# pieces of heap text: marks, blanks (one of them not ASCII), signs, digits
# (one of them not ASCII), underscores and letters
_PIECES = ["(", ")", ",", ";", " ", "\t", "\u00a0", "+", "-", "_", "0", "1", "7", "\u0663", "a"]


def _number():
    digits = st.text("0179\u0663", min_size=1, max_size=3)
    return st.tuples(st.sampled_from(["", "+", "-"]), digits, st.sampled_from(["", "_0"])).map(
        "".join
    )


def _token():
    blank = st.sampled_from(["", " ", "  ", "\t"])
    return st.tuples(blank, blank, _number(), blank, blank, _number(), blank, blank).map(
        lambda p: f"{p[0]}({p[1]}{p[2]}{p[3]},{p[4]}{p[5]}{p[6]}){p[7]}"
    )


@st.composite
def _heap_texts(draw):
    """Well-formed texts, some with one piece inserted or deleted; or pieces at random."""
    if draw(st.integers(0, 3)) == 0:
        return "".join(draw(st.lists(st.sampled_from(_PIECES), max_size=20)))
    text = ";".join(draw(st.lists(_token(), min_size=1, max_size=5)))
    edit = draw(st.sampled_from(["none", "insert", "insert", "delete"]))
    # half the edits land on either side of a mark, where the blanks are
    if draw(st.booleans()):
        marks = [i for i, c in enumerate(text) if c in "(),;"]
        at = draw(st.sampled_from(marks)) + draw(st.integers(0, 1))
    else:
        at = draw(st.integers(0, len(text)))
    if edit == "insert":
        text = text[:at] + draw(st.sampled_from(_PIECES)) + text[at:]
    elif edit == "delete":
        text = text[:at] + text[at + 1 :]
    return text


def _parsed(parse, text):
    """The pairs a parser reads from the text, or its HeapParseError message."""
    try:
        return parse(text, "dimer")
    except HeapParseError as exc:
        return str(exc)


@given(_heap_texts())
@example("")
@example("(0,0);")
@example("((0,0))")
@example("(1,2,3)")
@example("(a,b)")
@example(" ( +0 , -1_0 ) ;(-3,\t2) ")
@example("(0,0),(1,1)")
@example("a(0,0)")
@example("(0,0) 7;(1,1)")
def test_parse_pairs_matches_the_per_token_loop(text):
    assert _parsed(heaps._parse_pairs, text) == _parsed(reference_parse_pairs, text)
