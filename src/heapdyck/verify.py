"""Verification suites behind the command line `verify` verb.

Each suite records one result per named check.  The bijections,
statistics and symmetry suites walk every object up to a size bound; the
counts suite lists nothing, and compares transfer counts, formulas,
series and recurrences up to that bound.  In the walking suites, a
library error raised on one object, or while the grammar builds a class,
fails the checks being computed, with the object or class named, and the
walk carries on.  The statistics suite does not assume the two empirical
index relations it watches; it detects the constants from the data,
fails if they drift anywhere in range, and reports what it found.

The counts and symmetry suites also have a counting tier, which compares
the constructor recurrences of `counting` with independent formulas at
the fixed orders COUNT_ORDER and WIDTH_ORDER, whatever the size bound.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from functools import cache, partial
from itertools import islice
from math import comb
from operator import add, mul
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from . import bijections, counting, heaps, multisets, paths, series
from .errors import HeapdyckError

SUITES = ("counts", "bijections", "statistics", "series", "symmetry")
SUITE_CAPS = {
    "counts": 10,
    "bijections": 8,
    "statistics": 8,
    "series": 30,
    "symmetry": 7,
}
ANIMAL_ORACLE_CAP = 7
COUNT_ORDER = 300  # sizes of the counts suite's recurrence totals
WIDTH_ORDER = 60  # sizes of the symmetry suite's width tables


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
        self.order: list[str] = []
        self.failures: dict[str, str] = {}
        self.notes: dict[str, str] = {}

    def declare(self, *names: str) -> None:
        for name in names:
            if name not in self.order:
                self.order.append(name)

    def require(self, name: str, ok: bool, detail: str, *args: object) -> None:
        """Fail check name unless ok; given args, the detail is detail % args,
        formatted only when it is recorded."""
        self.declare(name)
        if not ok and name not in self.failures:
            self.failures[name] = detail % args if args else detail

    @contextmanager
    def guard(self, name: str, where: str, *args: object) -> Iterator[None]:
        """Record a library error raised inside as a failure of check name at
        where, or at where % args, formatted only then."""
        try:
            yield
        except HeapdyckError as exc:
            self.fail(name, where % args if args else where, exc)

    def fail(self, name: str, where: str, exc: HeapdyckError) -> None:
        self.require(name, False, f"{where}: {type(exc).__name__}: {exc}")

    def images(self, name: str, fn: Callable, objects: Iterable, where: str) -> dict:
        """fn(x) for each of the objects, or the library error it raised, which fails check name."""
        out = {}
        for x in objects:
            try:
                out[x] = fn(x)
            except HeapdyckError as exc:
                out[x] = exc
                self.fail(name, f"{where} {x}", exc)
        return out

    def image(self, name: str, fn: Callable, objects: Iterable, where: str) -> set:
        """The set of fn(x) over the objects; a library error on an x fails check name."""
        return _found(self.images(name, fn, objects, where))

    def note(self, name: str, detail: str) -> None:
        self.declare(name)
        self.notes[name] = detail

    def results(self, default_detail: str) -> list[CheckResult]:
        out = []
        for name in self.order:
            if name in self.failures:
                out.append(CheckResult(name, False, self.failures[name]))
            else:
                out.append(CheckResult(name, True, self.notes.get(name, default_detail)))
        return out


def _found(images: dict) -> set:
    """The images that are not library errors."""
    return {y for y in images.values() if not isinstance(y, HeapdyckError)}


def _catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def _motzkin_row(n: int) -> list[int]:
    """Motzkin numbers M_0..M_n."""
    row = [1]
    for _ in range(n):
        nxt = row[-1] + sum(row[i] * row[-2 - i] for i in range(len(row) - 1))
        row.append(nxt)
    return row


def _wrap(fn: Callable[[int], list[CheckResult]], max_n: int) -> list[CheckResult]:
    try:
        return fn(max_n)
    except Exception as exc:  # surface bugs as failures, not crashes
        return [CheckResult("suite-execution", False, f"{type(exc).__name__}: {exc}")]


def run_suite(suite: str, max_n: int | None = None) -> VerifyReport:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    cap = SUITE_CAPS[suite]
    bound = cap if max_n is None else max_n
    if not 1 <= bound <= cap:
        raise ValueError(f"suite {suite} accepts bounds 1..{cap}, got {bound}")
    fn = {
        "counts": _suite_counts,
        "bijections": _suite_bijections,
        "statistics": _suite_statistics,
        "series": _suite_series,
        "symmetry": _suite_symmetry,
    }[suite]
    return VerifyReport(suite, bound, _wrap(fn, bound))


def run_all(max_n: int | None = None) -> list[VerifyReport]:
    """Every suite, each at max_n clamped down to its own cap, or at its cap.

    A max_n below 1 is not clamped, so the first suite rejects it.
    """
    return [
        run_suite(name, None if max_n is None else min(max_n, SUITE_CAPS[name]))
        for name in SUITES
    ]


# --- counts -------------------------------------------------------------


def _suite_counts(max_n: int) -> list[CheckResult]:
    rec = _Recorder()
    q = series.closed_form("Q", max_n)
    ts = series.closed_form("Ts", max_n)
    t = series.closed_form("T", max_n)
    qs = series.closed_form("Qs", max_n)
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
            ("star-count-matches-series-Q", star, q[n]),
        )
        for name, got, want in identities:
            rec.require(name, got == want, "n=%d: %s vs %s", n, got, want)
        for klass, ser in (("T", t), ("Ts", ts), ("Q", q), ("Qs", qs)):
            rec.require(
                "grammar-counts-match-series",
                bijections.grammar_count(n, klass) == ser[n],
                f"class {klass}, n={n}",
            )
    _count_tier(rec, motzkin)
    return rec.results(f"all sizes 1..{max_n}")


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


def _suite_bijections(max_n: int) -> list[CheckResult]:
    rec = _Recorder()
    for n in range(1, max_n + 1):
        # walked in listing order, so that a failure names the same word under any hash seed
        words = list(paths.enumerate_family("grand_dyck", n))
        unique = set(words)
        every = list(multisets.enumerate_family("all", n))
        # the distinct members of each family listed below, by module and family
        listed = {(paths, "grand_dyck"): len(unique), (multisets, "all"): len(set(every))}
        images = {}
        at_multiset = "n=%d, multiset %s"
        for m in every:
            with rec.guard("staircase-round-trip", at_multiset, n, m):
                w = bijections.multiset_to_path(m)
                images[w] = m
                rec.require(
                    "staircase-round-trip", bijections.path_to_multiset(w) == m, at_multiset, n, m
                )
        rec.require(
            "staircase-is-bijective",
            images.keys() == unique,
            f"n={n}: image size {len(images)}, target {len(unique)}",
        )
        targets = {}  # each target family's words, in listing order
        for family, target in (
            ("super", "dyck"),
            ("star", "grand_dyck_star"),
            ("no_single_except_k", "grand_dyck_udu_free"),
            ("super_star", "dyck_star"),
        ):
            name = f"staircase-{family.replace('_', '-')}-image"
            members = rec.images(
                name,
                bijections.multiset_to_path,
                multisets.enumerate_family(family, n),
                f"n={n}, multiset",
            )
            got = _found(members)
            targets[target] = list(paths.enumerate_family(target, n))
            want = set(targets[target])
            rec.require(name, got == want, f"n={n}: {len(got)} words vs {len(want)}")
            listed[multisets, family] = len(members)
            listed[paths, target] = len(want)
        # built on first use, so that a library error fails only the checks against its class
        grammar = cache(partial(bijections.grammar_enumerate, n))
        # word -> its heap, or the library error path_to_heap raised
        word_heaps = rec.images(
            "run-heap-round-trip", bijections.path_to_heap, words, f"n={n}, word"
        )
        for w, h in word_heaps.items():
            if not isinstance(h, HeapdyckError):
                where = f"n={n}, word {w}"
                with rec.guard("run-heap-round-trip", where):
                    rec.require("run-heap-round-trip", bijections.heap_to_path(h) == w, where)
        heaps_seen = _found(word_heaps)
        name, where = "run-heap-image-is-grammar-T", f"n={n}: {len(heaps_seen)} heaps"
        with rec.guard(name, where):
            rec.require(name, len(heaps_seen) == len(unique) and heaps_seen == grammar("T"), where)
        for family, name, klass in (
            ("dyck", "dyck-image-is-grammar-Ts", "Ts"),
            ("grand_dyck_star", "dud-free-image-is-grammar-Q", "Q"),
            ("dyck_star", "dud-free-dyck-image-is-grammar-Qs", "Qs"),
        ):
            image = rec.image(
                name, partial(_mapped_heap, word_heaps), targets[family], f"n={n}, word"
            )
            with rec.guard(name, f"n={n}"):
                rec.require(name, image == grammar(klass), f"n={n}")
        if n <= ANIMAL_ORACLE_CAP:
            animal_heaps = {}
            for lattice, klass in (("triangular", "T"), ("square", "Q")):
                name, where = "grammar-matches-brute-force-animals", f"{lattice}, n={n}"
                animal_heaps[lattice] = rec.images(
                    name,
                    heaps.animal_to_heap,
                    heaps.animal_enumerate_bruteforce(n, lattice),
                    f"{where}, animal",
                )
                with rec.guard(name, where):
                    rec.require(name, _found(animal_heaps[lattice]) == grammar(klass), where)
            for lattice, klass in (("triangular", "Ts"), ("square", "Qs")):
                name, where = "grammar-matches-subdiagonal-animals", f"{lattice} subdiagonal, n={n}"
                brute = rec.image(
                    name,
                    heaps.animal_to_heap,
                    heaps.animal_enumerate_bruteforce(n, lattice, subdiagonal=True),
                    f"{where}, animal",
                )
                with rec.guard(name, where):
                    rec.require(name, brute == grammar(klass), where)
            # the images above, not a second enumeration; an animal the map failed on fails here too
            name = "square-animals-are-diagonal-free-heaps"
            for a, h in animal_heaps["square"].items():
                if isinstance(h, HeapdyckError):
                    rec.fail(name, f"square, n={n}, animal {a}", h)
            square_heaps = _found(animal_heaps["square"])
            at_animal = "n=%d, animal %s"
            for a, h in animal_heaps["triangular"].items():
                if isinstance(h, HeapdyckError):
                    rec.fail(name, at_animal % (n, a), h)
                    continue
                with rec.guard(name, at_animal, n, a):
                    diagonal_free = heaps.heap_stats(h).diag == 0
                    rec.require(name, diagonal_free == (h in square_heaps), at_animal, n, a)
            # every square and subdiagonal animal is a triangular one
            if n <= ANIMAL_ORACLE_CAP - 1:
                name = "animal-round-trip"
                for a, h in animal_heaps["triangular"].items():
                    if not isinstance(h, HeapdyckError):
                        with rec.guard(name, at_animal, n, a):
                            rec.require(name, heaps.heap_to_animal(h) == a, at_animal, n, a)
        for (module, family), size in listed.items():
            counted = module.count_family(family, n)
            rec.require(
                "listed-families-match-counts",
                size == counted,
                f"n={n}, {module.__name__} {family}: {size} listed, {counted} counted",
            )
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
    return rec.results(f"all sizes 1..{max_n}")


def _mapped_heap(word_heaps: dict, word: str) -> heaps.Heap:
    """The word's heap from a word -> heap map, raising the error stored for it;
    a word the map lacks is mapped afresh."""
    h = word_heaps[word] if word in word_heaps else bijections.path_to_heap(word)
    if isinstance(h, HeapdyckError):
        raise h
    return h


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


def _suite_statistics(max_n: int) -> list[CheckResult]:
    rec = _Recorder()
    gap_offsets: dict[int, int] = {}
    dyck_offsets: set[int] = set()
    above_offsets: set[int] = set()
    below_offsets: set[int] = set()
    for n in range(1, max_n + 1):
        for word in paths.enumerate_family("grand_dyck", n):
            where = f"n={n}, word {word}"
            # a library error while computing the word's statistics fails the
            # first check that reads them, and skips the word's other checks
            with rec.guard(_WORD_RELATIONS[0][0], where):
                ms = multisets.stats(bijections.path_to_multiset(word))
                ps = paths.height_stats(word)
                seq = bijections.drop_sequence(word)
                hs = heaps.heap_stats(heaps.Heap(heaps.drop_columns(seq)))
                for name, holds in _WORD_RELATIONS:
                    rec.require(name, holds(hs, ps, ms), where)
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
                        "u-heights-track-dimer-columns",
                        len(diffs) == 1,
                        f"{where}, run at {start}",
                    )
                    if len(diffs) == 1:
                        (below_offsets if below else above_offsets).add(diffs.pop())
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
    return rec.results(f"all grand-Dyck words, sizes 1..{max_n}")


# --- series -------------------------------------------------------------


def _suite_series(max_n: int) -> list[CheckResult]:
    rec = _Recorder()
    for check in series.check_identities(max_n):
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
    return rec.results(f"n, k <= {max_n}")


# --- symmetry -----------------------------------------------------------


def _suite_symmetry(max_n: int) -> list[CheckResult]:
    rec = _Recorder()
    for n in range(1, max_n + 1):
        for klass in ("T", "Q"):
            name, where = "left-plus-one-matches-right-width", f"class {klass}, n={n}"
            with rec.guard(name, where):
                stats = [heaps.heap_stats(h) for h in bijections.grammar_enumerate(n, klass)]
                rec.require(
                    name,
                    Counter(s.lw + 1 for s in stats) == Counter(s.rw for s in stats),
                    where,
                )
        for family in ("grand_dyck", "grand_dyck_star"):
            stats = [
                paths.height_stats(w) for w in paths.enumerate_family(family, n)
            ]
            rec.require(
                "crossings-plus-one-matches-height",
                Counter(s.cross + 1 for s in stats) == Counter(s.height_max for s in stats),
                f"family {family}, n={n}",
            )
        if n <= ANIMAL_ORACLE_CAP - 1:
            name = "reflection-swaps-widths"
            for a in heaps.animal_enumerate_bruteforce(n, "triangular"):
                where = f"n={n}, animal {a}"
                with rec.guard(name, where):
                    sa = heaps.heap_stats(heaps.animal_to_heap(a))
                    sb = heaps.heap_stats(heaps.animal_to_heap(heaps.animal_reflect(a)))
                    rec.require(
                        name,
                        sb.lw + 1 == sa.rw and sb.rw == sa.lw + 1 and sb.area == sa.area,
                        where,
                    )
    animal_n = min(max_n, ANIMAL_ORACLE_CAP - 1)
    rec.note("reflection-swaps-widths", f"every triangular animal, sizes 1..{animal_n}")
    _width_tier(rec)
    return rec.results(f"all sizes 1..{max_n}")


def _width_tier(rec: _Recorder) -> None:
    name = "left-width-counts-match-right-width-counts"
    left = {klass: counting.by_left_width(klass, WIDTH_ORDER) for klass in ("T", "Q")}
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
