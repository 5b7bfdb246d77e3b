"""Verification suites behind the command line `verify` verb.

Each suite is one row of `_SUITES`, at the end of this module: its cap,
also its default bound, a function that records one result per named
check on a `_Recorder`, and the detail of a passing check that noted
nothing.  `run_suite` checks the bound, makes the recorder, runs the
suite, turns any exception that escapes it into the single
`suite-execution` failure and builds the report.

The bijections, statistics and symmetry suites walk every object up to a
size bound; the counts suite lists nothing, and compares transfer
counts, formulas, series and recurrences up to that bound.  In the
walking suites, a library error raised on one object, or while the
grammar builds a class, fails the checks being computed, with the object
or class named, where it is raised, and the walk carries on: one try per
object, in `_Recorder.images` or `_Recorder.holds`.  A map of objects to
images holds only the images found; a later check reads it, and maps
again only an object that failed, so each multiset and word is mapped
once per size.  The bijections suite runs one size at a time, and a size
in phases (the staircase maps, the word -> heap map, the animals), each
of which frees what it lists before the next phase or size runs.  The
statistics suite does not assume the two empirical index relations it
watches; it detects the constants from the data, fails if they drift
anywhere in range, and reports what it found.

The counts and symmetry suites also have a counting tier, which compares
the constructor recurrences of `counting` with independent formulas at
the fixed orders COUNT_ORDER and WIDTH_ORDER, whatever the size bound.
"""

from __future__ import annotations

from collections import Counter
from functools import cache, partial
from itertools import islice
from math import comb
from operator import add, mul
from typing import Callable, Iterable, NamedTuple, Sequence

from . import bijections, counting, heaps, multisets, paths, series
from .errors import HeapdyckError

ANIMAL_ORACLE_CAP = 7
FACTORIZE_CAP = 6  # of factorize-recomposes: 637 heaps, 0.02 s CPU; 8 788 and 0.3 s at 8
COUNT_ORDER = 300  # sizes of the counts suite's recurrence totals
WIDTH_ORDER = 60  # sizes of the symmetry suite's width tables
_CLASS_ROWS = [row for row in bijections.DIAGRAM if row.klass]
_FULL_ROWS = [row for row in _CLASS_ROWS if not row.subdiagonal]


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str

    def format_line(self) -> str:
        status = "OK" if self.ok else "FAIL"
        return f"{status} {self.name}: {self.detail}"


class VerifyReport(NamedTuple):
    suite: str
    max_n: int
    checks: list[CheckResult]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def format_lines(self) -> list[str]:
        return [c.format_line() for c in self.checks]

    def to_payload(self) -> dict:
        return {
            "suite": self.suite,
            "maxN": self.max_n,
            "ok": self.ok,
            "checks": [
                {"name": c.name, "ok": c.ok, "detail": c.detail} for c in self.checks
            ],
        }


class _Recorder:
    """Collects at most one failure per check, keeping the first detail."""

    def __init__(self) -> None:
        self.order: dict[str, None] = {}  # the check names, in the order first seen
        self.failures: dict[str, str] = {}
        self.notes: dict[str, str] = {}

    def require(self, name: str, ok: bool, detail: str, *args: object) -> None:
        """Fail check name unless ok; given args, the detail is detail % args,
        formatted only when it is recorded."""
        self.order.setdefault(name)
        if not ok and name not in self.failures:
            self.failures[name] = detail % args if args else detail

    def fail(self, name: str, where: str, exc: HeapdyckError) -> None:
        self.require(name, False, f"{where}: {type(exc).__name__}: {exc}")

    def images(self, name: str, fn: Callable, objects: Iterable, where: str) -> dict:
        """fn(x) for each of the objects that fn maps; a library error fn raises on x
        fails check name at where x, and leaves x out."""
        out = {}
        for x in objects:
            try:
                out[x] = fn(x)
            except HeapdyckError as exc:
                self.fail(name, f"{where} {x}", exc)
        return out

    def holds(self, name: str, pred: Callable, objects: Iterable, where: str) -> None:
        """Require pred(x) of each of the objects, in order; a False, or a library error
        pred raises on x, fails check name at where x, formatted only then."""
        for x in objects:
            try:
                self.require(name, pred(x), "%s %s", where, x)
            except HeapdyckError as exc:
                self.fail(name, f"{where} {x}", exc)

    def note(self, name: str, detail: str) -> None:
        self.order.setdefault(name)
        self.notes[name] = detail

    def results(self, default_detail: str) -> list[CheckResult]:
        out = []
        for name in self.order:
            if name in self.failures:
                out.append(CheckResult(name, False, self.failures[name]))
            else:
                out.append(CheckResult(name, True, self.notes.get(name, default_detail)))
        return out


def _catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def _motzkin_row(n: int) -> list[int]:
    """Motzkin numbers M_0..M_n, by their P-recurrence (m + 2) M_m = (2m + 1) M_(m-1) +
    3(m - 1) M_(m-2), whose division is exact: a route apart from the Qs convolution."""
    row = [1, 1]
    for m in range(2, n + 1):
        row.append(((2 * m + 1) * row[-1] + 3 * (m - 1) * row[-2]) // (m + 2))
    return row[: n + 1]


# --- counts -------------------------------------------------------------


def _suite_counts(rec: _Recorder, max_n: int) -> None:
    closed = {row.klass: series.closed_form(row.klass, max_n) for row in _CLASS_ROWS}
    motzkin = _motzkin_row(COUNT_ORDER)
    for n in range(1, max_n + 1):
        star = multisets.count_family("star", n)
        dud_free = paths.count_family("grand_dyck_star", n)
        udu_free = paths.count_family("grand_dyck_udu_free", n)
        identities = (
            ("dyck-count-is-catalan", paths.count_family("dyck", n), _catalan(n)),
            ("dyck-star-count-is-motzkin", paths.count_family("dyck_star", n), motzkin[n - 1]),
            (
                "grand-dyck-count-is-central-binomial",
                paths.count_family("grand_dyck", n),
                comb(2 * n - 1, n - 1),
            ),
            ("multiset-count-is-binomial", multisets.count_family("all", n), comb(2 * n - 1, n)),
            ("star-multisets-match-dud-free-words", star, dud_free),
            ("dud-free-matches-udu-free-count", dud_free, udu_free),
            (
                "no-single-multisets-match-udu-free-words",
                multisets.count_family("no_single_except_k", n),
                udu_free,
            ),
            ("star-count-matches-series-Q", star, closed["Q"][n]),
        )
        for name, got, want in identities:
            rec.require(name, got == want, "n=%d: %s vs %s", n, got, want)
        for klass, ser in closed.items():
            rec.require(
                "grammar-counts-match-series",
                bijections.grammar_count(n, klass) == ser[n],
                f"class {klass}, n={n}",
            )
    _count_tier(rec, motzkin)


def _first_difference(got: Sequence[int], want: Sequence[int]) -> int | None:
    """The smallest size n >= 1 at which two count lists differ, or None."""
    return next((n for n in range(1, len(want)) if got[n] != want[n]), None)


def _count_tier(rec: _Recorder, motzkin: list[int]) -> None:
    name = "grammar-counts-match-binomial-formulas"
    sizes = range(1, COUNT_ORDER + 1)
    central = [comb(k, k // 2) for k in range(COUNT_ORDER)]
    directed = [0]  # sum over k of C(n - 1, k) C(k, k // 2)
    pascal = [1]  # row n - 1 of Pascal's triangle
    for _ in sizes:
        directed.append(sum(map(mul, pascal, central)))
        pascal = [1, *map(add, pascal, pascal[1:]), 1]
    formulas = {
        "Ts": [0, *map(_catalan, sizes)],
        "T": [0, *(comb(2 * n - 1, n) for n in sizes)],
        "Qs": [0, *motzkin[:COUNT_ORDER]],
        "Q": directed,
    }
    for klass, want in formulas.items():
        n = _first_difference(counting.totals(klass, COUNT_ORDER), want)
        rec.require(name, n is None, f"class {klass}, n={n}")
    rec.note(name, f"recurrence totals of T, Ts, Q, Qs, sizes 1..{COUNT_ORDER}")


# --- bijections ---------------------------------------------------------


def _suite_bijections(rec: _Recorder, max_n: int) -> None:
    """Size by size, and within a size phase by phase, so that what a phase lists is
    freed before the next phase or size runs: the peak is one phase of the largest size."""
    for n in range(1, max_n + 1):
        _bijections_at(rec, n)
    # the animal checks run against the brute force, to its cap
    oracle_n = min(max_n, ANIMAL_ORACLE_CAP)
    for name, animals in (
        ("grammar-matches-brute-force-animals", "triangular and square animals"),
        ("grammar-matches-subdiagonal-animals", "subdiagonal triangular and square animals"),
        ("square-animals-are-diagonal-free-heaps", "every triangular animal"),
    ):
        rec.note(name, f"{animals}, sizes 1..{oracle_n}")
    animal_n = min(max_n, ANIMAL_ORACLE_CAP - 1)
    rec.note("animal-round-trip", f"every triangular animal, sizes 1..{animal_n}")
    factorize_n = min(max_n, FACTORIZE_CAP)
    rec.note("factorize-recomposes", f"every run-heap image, sizes 1..{factorize_n}")


def _bijections_at(rec: _Recorder, n: int) -> None:
    """The checks at size n, phase by phase, then each listed family against its count."""
    listed, targets = _staircase_phase(rec, n)
    # built on first use, so that a library error fails only the checks against its class
    grammar = cache(partial(bijections.grammar_enumerate, n))
    _word_heap_phase(rec, n, targets, grammar)
    del targets  # the animal phase maps no word
    if n <= ANIMAL_ORACLE_CAP:
        _animal_phase(rec, n, grammar)
    for (module, family), size in listed.items():
        counted = module.count_family(family, n)
        rec.require(
            "listed-families-match-counts",
            size == counted,
            f"n={n}, {module.__name__} {family}: {size} listed, {counted} counted",
        )


def _staircase_phase(rec: _Recorder, n: int) -> tuple[dict, dict[str, list[str]]]:
    """The multiset <-> word round trips and the four subfamily images at size n.

    Returns the number of distinct members listed per (module, family), and the
    distinct grand-Dyck words and each target family's words, in listing order, so
    that a failure names the same word under any hash seed."""
    words = dict.fromkeys(paths.enumerate_family("grand_dyck", n))
    targets = {"grand_dyck": list(words)}
    every = list(multisets.enumerate_family("all", n))
    listed = {(paths, "grand_dyck"): len(words), (multisets, "all"): len(set(every))}
    word_of = {}  # each multiset's word, mapped once for every check below

    def round_trip(m: multisets.Multiset) -> bool:
        w = word_of[m] = bijections.multiset_to_path(m)
        return bijections.path_to_multiset(w) == m

    rec.holds("staircase-round-trip", round_trip, every, f"n={n}, multiset")
    image = set(word_of.values())
    rec.require(
        "staircase-is-bijective",
        image == words.keys(),
        f"n={n}: image size {len(image)}, target {len(words)}",
    )
    for row in bijections.DIAGRAM[1:]:  # the first row, every multiset and word, is above
        name = f"staircase-{row.multisets.replace('_', '-')}-image"
        members = dict.fromkeys(multisets.enumerate_family(row.multisets, n))
        # a multiset multiset_to_path failed on is mapped again, to fail this check too
        found = rec.images(
            name,
            lambda m: word_of[m] if m in word_of else bijections.multiset_to_path(m),
            members,
            f"n={n}, multiset",
        )
        got = set(found.values())
        targets[row.words] = list(paths.enumerate_family(row.words, n))
        want = set(targets[row.words])
        rec.require(name, got == want, f"n={n}: {len(got)} words vs {len(want)}")
        listed[multisets, row.multisets] = len(members)
        listed[paths, row.words] = len(want)
    return listed, targets


def _word_heap_phase(
    rec: _Recorder, n: int, targets: dict[str, list[str]], grammar: Callable[[str], frozenset]
) -> None:
    """The run-heap round trips at size n, their heaps factorized and composed back up
    to FACTORIZE_CAP, and the images of the grand-Dyck words and of three target families
    against the grammar's T, Ts, Q and Qs."""
    top, *rows = _CLASS_ROWS  # the first row's words are every word
    words = targets[top.words]
    word_heaps = rec.images("run-heap-round-trip", bijections.path_to_heap, words, f"n={n}, word")
    rec.holds(
        "run-heap-round-trip",
        lambda w: bijections.heap_to_path(word_heaps[w]) == w,
        word_heaps,
        f"n={n}, word",
    )
    if n <= FACTORIZE_CAP:
        rec.holds(
            "factorize-recomposes",
            lambda w: bijections.compose(*bijections.factorize(word_heaps[w])) == word_heaps[w],
            word_heaps,
            f"n={n}, word",
        )
    heaps_seen = set(word_heaps.values())
    name, where = top.image_check, f"n={n}: {len(heaps_seen)} heaps"
    try:
        rec.require(name, len(heaps_seen) == len(words) and heaps_seen == grammar(top.klass), where)
    except HeapdyckError as exc:
        rec.fail(name, where, exc)
    for row in rows:
        name = row.image_check
        # a word path_to_heap failed on is mapped again, to fail this check too
        images = rec.images(
            name,
            lambda w: word_heaps[w] if w in word_heaps else bijections.path_to_heap(w),
            targets[row.words],
            f"n={n}, word",
        )
        try:
            rec.require(name, set(images.values()) == grammar(row.klass), f"n={n}")
        except HeapdyckError as exc:
            rec.fail(name, f"n={n}", exc)


def _animal_phase(rec: _Recorder, n: int, grammar: Callable[[str], frozenset]) -> None:
    """The brute-force and subdiagonal animals at size n against the grammar, the square
    ones as the diagonal-free triangular ones, and, below the cap, the animal round trip."""
    animals, animal_heaps = {}, {}  # by class: the brute force's animals, and their heaps
    for row in _CLASS_ROWS:
        name = f"grammar-matches-{'subdiagonal' if row.subdiagonal else 'brute-force'}-animals"
        where = f"{row.lattice}{' subdiagonal' if row.subdiagonal else ''}, n={n}"
        animals[row.klass] = heaps.animal_enumerate_bruteforce(n, row.lattice, row.subdiagonal)
        images = rec.images(name, heaps.animal_to_heap, animals[row.klass], f"{where}, animal")
        try:
            rec.require(name, set(images.values()) == grammar(row.klass), where)
        except HeapdyckError as exc:
            rec.fail(name, where, exc)
        animal_heaps[row.klass] = images
    # the images above, not a second enumeration; a failed animal is mapped again here
    name = "square-animals-are-diagonal-free-heaps"
    square, triangular = animal_heaps["Q"], animal_heaps["T"]
    failed = [a for a in animals["Q"] if a not in square]
    rec.images(name, heaps.animal_to_heap, failed, f"square, n={n}, animal")
    square_heaps = set(square.values())

    def diagonal_free_iff_square(a: heaps.PointAnimal) -> bool:
        h = triangular[a] if a in triangular else heaps.animal_to_heap(a)
        return (heaps.heap_stats(h).diag == 0) == (h in square_heaps)

    rec.holds(name, diagonal_free_iff_square, animals["T"], f"n={n}, animal")
    # every square and subdiagonal animal is a triangular one
    if n <= ANIMAL_ORACLE_CAP - 1:
        rec.holds(
            "animal-round-trip",
            lambda a: heaps.heap_to_animal(triangular[a]) == a,
            triangular,
            f"n={n}, animal",
        )


# --- statistics ---------------------------------------------------------


def _run_u_heights(word: str) -> list[tuple[int, bool, list[int]]]:
    """Per sign run of a grand-Dyck word: where it starts, whether it lies
    below the axis, and the modified heights its U steps end at.

    One scan; a crossing starts the next run.  A point's modified height is
    |y| minus the crossings at or left of the step that ends there.
    """
    runs: list[tuple[int, bool, list[int]]] = [(0, False, [])]
    y = cross = 0
    prev = ""
    for x, step in enumerate(word):
        if not y and step == prev:
            cross += 1
            runs.append((x, step == "D", []))
        if step == "U":
            y += 1
            runs[-1][2].append(abs(y) - cross)
        else:
            y -= 1
        prev = step
    return runs


# per grand-Dyck word, a relation between its heap's, path's and multiset's statistics
_WORD_RELATIONS = (
    ("area-equals-semilength-equals-length", lambda h, p, m: h.area == p.semilength == m.length),
    ("left-width-equals-crossings", lambda h, p, m: h.lw == p.cross == m.cross),
    ("right-width-equals-height", lambda h, p, m: h.rw == p.height_max),
    ("diagonal-pairs-equal-dud-equal-adjacency", lambda h, p, m: h.diag == p.dud_count == m.adj),
    ("width-splits-into-crossings-plus-height", lambda h, p, m: h.width == p.cross + p.height_max),
    ("gap-profile-equals-d-end-heights", lambda h, p, m: m.gap_profile == p.d_end_heights),
    (
        "u-count-per-height-totals-semilength",
        lambda h, p, m: sum(p.nbu_profile.values()) == m.length,
    ),
)


def _suite_statistics(rec: _Recorder, max_n: int) -> None:
    gap_offsets: dict[int, int] = {}
    dyck_offsets: set[int] = set()
    above_offsets: set[int] = set()
    below_offsets: set[int] = set()
    at_word = "n=%d, word %s"
    at_run = at_word + ", run at %d"
    for n in range(1, max_n + 1):
        for word in paths.enumerate_family("grand_dyck", n):
            # a library error while computing the word's statistics fails the
            # first check that reads them, and skips the word's other checks
            try:
                ms = multisets.stats(bijections.path_to_multiset(word))
                ps = paths.height_stats(word)
                seq = bijections.drop_sequence(word)
                hs = heaps.heap_stats(heaps.fallen(heaps.drop_columns(seq)))
                for name, holds in _WORD_RELATIONS:
                    rec.require(name, holds(hs, ps, ms), at_word, n, word)
                off = ps.height_max - ms.gap
                gap_offsets[off] = gap_offsets.get(off, 0) + 1
                if ps.cross == 0:
                    dyck_offsets.add(off)
                # seq holds the runs' columns in run order, each run's shift included
                drops = iter(seq)
                for start, below, u_heights in _run_u_heights(word):
                    cols = sorted(islice(drops, len(u_heights)))
                    diffs = {uh - c for uh, c in zip(sorted(u_heights), cols)}
                    rec.require(
                        "u-heights-track-dimer-columns", len(diffs) == 1, at_run, n, word, start
                    )
                    if len(diffs) == 1:
                        (below_offsets if below else above_offsets).add(diffs.pop())
            except HeapdyckError as exc:
                rec.fail(_WORD_RELATIONS[0][0], at_word % (n, word), exc)
    bounded = set(gap_offsets) <= {0, 1}
    rec.require(
        "gap-stays-within-one-of-height",
        bounded,
        f"offsets seen: {sorted(gap_offsets)}",
    )
    rec.require(
        "gap-is-height-minus-one-on-crossing-free-words",
        dyck_offsets == {1},
        f"offsets on crossing-free words: {sorted(dyck_offsets)}",
    )
    if bounded:
        rec.note(
            "gap-stays-within-one-of-height",
            "detected Height - Gap in {0, 1}: offset 1 on "
            f"{gap_offsets.get(1, 0)} words (all crossing-free words among "
            f"them), offset 0 on {gap_offsets.get(0, 0)}, n <= {max_n}",
        )
    rec.require(
        "u-height-column-offsets-are-constant",
        len(above_offsets) == 1 and len(below_offsets) <= 1,
        f"above {sorted(above_offsets)}, below {sorted(below_offsets)}",
    )
    if len(above_offsets) == 1 and len(below_offsets) == 1:
        ua = next(iter(above_offsets))
        ub = next(iter(below_offsets))
        rec.note(
            "u-height-column-offsets-are-constant",
            f"per run, sorted U heights = sorted dimer columns + {ua} above "
            f"the axis and + {ub} below, stable for n <= {max_n}",
        )


# --- series -------------------------------------------------------------


def _suite_series(rec: _Recorder, max_n: int) -> None:
    try:
        identities = series.check_identities(max_n)
    except HeapdyckError as exc:  # such as a quotient left inexact by a wrong root
        rec.fail("series-identities", f"order {max_n}", exc)
        identities = []
    for check in identities:
        name = f"series-identity: {check.name}"
        rec.note(name, check.detail)
        rec.require(name, check.ok, "coefficients differ, %s", check.detail)
    sizes = range(1, max_n + 1)
    for name, family, check in (
        ("f", "star", "table-f-counts-star-multisets"),
        ("h", "no_single_except_k", "table-h-counts-no-single-multisets"),
    ):
        table = series.bivariate(name, max_n, max_n)
        got = ((n, k, table.coefficient(n, k), multisets.count_family(family, n, k))
               for n in sizes for k in sizes)
        wrong = next(((n, k, t, c) for n, k, t, c in got if t != c), None)
        rec.note(check, f"{name}(n, k) against the {family} transfer count, n, k <= {max_n}")
        rec.require(check, wrong is None, "n=%s, k=%s: table %s, count %s", *(wrong or ()))
        # the same table, multiplied back by the denominator its recurrence was read off
        check = f"table-{name}-matches-its-rational-function"
        wrong = series.cross_check(name, table)
        rec.note(check, f"{name}(n, k) times its denominator is its numerator, n, k <= {max_n}")
        rec.require(check, wrong is None, "n=%s, k=%s: product %s, numerator %s", *(wrong or ()))


# --- symmetry -----------------------------------------------------------


def _suite_symmetry(rec: _Recorder, max_n: int) -> None:
    for n in range(1, max_n + 1):
        for klass in (row.klass for row in _FULL_ROWS):
            name, where = "left-plus-one-matches-right-width", f"class {klass}, n={n}"
            try:
                stats = [heaps.heap_stats(h) for h in bijections.grammar_enumerate(n, klass)]
                ok = Counter(s.lw + 1 for s in stats) == Counter(s.rw for s in stats)
                rec.require(name, ok, where)
            except HeapdyckError as exc:
                rec.fail(name, where, exc)
        for family in (row.words for row in _FULL_ROWS):
            stats = [paths.height_stats(w) for w in paths.enumerate_family(family, n)]
            rec.require(
                "crossings-plus-one-matches-height",
                Counter(s.cross + 1 for s in stats) == Counter(s.height_max for s in stats),
                f"family {family}, n={n}",
            )
        if n <= ANIMAL_ORACLE_CAP - 1:
            rec.holds(
                "reflection-swaps-widths",
                _reflection_swaps_widths,
                heaps.animal_enumerate_bruteforce(n, "triangular"),
                f"n={n}, animal",
            )
    animal_n = min(max_n, ANIMAL_ORACLE_CAP - 1)
    rec.note("reflection-swaps-widths", f"every triangular animal, sizes 1..{animal_n}")
    _width_tier(rec)


def _reflection_swaps_widths(a: heaps.PointAnimal) -> bool:
    sa = heaps.heap_stats(heaps.animal_to_heap(a))
    sb = heaps.heap_stats(heaps.animal_to_heap(heaps.animal_reflect(a)))
    return sb.lw + 1 == sa.rw and sb.rw == sa.lw + 1 and sb.area == sa.area


def _width_tier(rec: _Recorder) -> None:
    name = "left-width-counts-match-right-width-counts"
    left = {row.klass: counting.by_left_width(row.klass, WIDTH_ORDER) for row in _FULL_ROWS}
    for klass, by_lw in left.items():
        by_rw = counting.by_right_width(klass, WIDTH_ORDER)
        for a in range(WIDTH_ORDER):
            n = _first_difference(by_lw[a], by_rw[a + 1])
            rec.require(name, n is None, f"class {klass}, n={n}, lw <= {a}")
    rec.note(name, f"#(lw <= a) = #(rw <= a + 1) in T and Q, sizes 1..{WIDTH_ORDER}")

    # lw is the number of crossings, and a word with c crossings is c + 1 nonempty Dyck runs
    name = "left-width-counts-match-crossing-counts"
    runs = series.Series([0, *(_catalan(k) for k in range(1, WIDTH_ORDER + 1))])
    power, upto = runs, runs
    for a in range(WIDTH_ORDER):
        n = _first_difference(left["T"][a], upto.coeffs)
        rec.require(name, n is None, f"class T, n={n}, lw <= {a}")
        power = power * runs
        upto = upto + power
    rec.note(name, f"#(lw <= a) in T against words by crossings, sizes 1..{WIDTH_ORDER}")


# --- the runner ---------------------------------------------------------


class _Suite(NamedTuple):
    cap: int  # the largest size bound, and the default
    run: Callable[[_Recorder, int], None]
    passing: str  # the detail of a passing check that noted nothing; {} is the bound


_SUITES = {
    "counts": _Suite(10, _suite_counts, "all sizes 1..{}"),
    "bijections": _Suite(8, _suite_bijections, "all sizes 1..{}"),
    "statistics": _Suite(8, _suite_statistics, "all grand-Dyck words, sizes 1..{}"),
    "series": _Suite(30, _suite_series, "n, k <= {}"),
    "symmetry": _Suite(7, _suite_symmetry, "all sizes 1..{}"),
}
SUITES = tuple(_SUITES)
SUITE_CAPS = {name: suite.cap for name, suite in _SUITES.items()}


def run_suite(suite: str, max_n: int | None = None) -> VerifyReport:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    cap, run, passing = _SUITES[suite]
    bound = cap if max_n is None else max_n
    if not 1 <= bound <= cap:
        raise ValueError(f"suite {suite} accepts bounds 1..{cap}, got {bound}")
    rec = _Recorder()
    try:
        run(rec, bound)
        checks = rec.results(passing.format(bound))
    except Exception as exc:  # surface bugs as failures, not crashes
        checks = [CheckResult("suite-execution", False, f"{type(exc).__name__}: {exc}")]
    return VerifyReport(suite, bound, checks)


def run_all(max_n: int | None = None) -> list[VerifyReport]:
    """Every suite, each at max_n clamped down to its own cap, or at its cap.

    A max_n below 1 is not clamped, so the first suite rejects it.
    """
    return [
        run_suite(name, None if max_n is None else min(max_n, SUITE_CAPS[name]))
        for name in SUITES
    ]
