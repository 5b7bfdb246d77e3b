"""End-to-end gate: eight numbered criteria, one printed line each.

Run with `pytest tests/test_acceptance.py -s` to see the PASS/FAIL lines
and the detector-reported statistic relations.
"""

import time
from collections import Counter
from contextlib import contextmanager
from math import comb

from heapdyck import bijections, cli, heaps, multisets, paths, series, verify
from oracles import listed_count, motzkin

TABLE1 = [
    "1 1 1 1 1 1 1 1 1",
    "2 2 2 2 2 2 2 2 2",
    "3 4 5 6 7 8 9 10 11",
    "4 7 10 13 16 19 22 25 28",
    "5 11 18 26 35 45 56 68 81",
    "6 16 30 48 70 96 126 160 198",
]

WORKED_PAIRS = [
    ((2, 2, 2, 4, 4, 7, 7, 7), "UUDDDUUDDUUUDDDU"),
    ((2, 5, 5, 7, 7, 7, 8, 8), "UUDUUUDDUUDDDUDD"),
]

LARGE_EXAMPLE = (
    3, 4, 5, 5, 5, 5, 5, 6, 6, 8, 8, 8, 8, 12, 15, 16, 17, 17, 17, 19, 19, 19,
)


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {label}")
        raise
    print(f"PASS criterion {num}: {label}")


@contextmanager
def budget(seconds):
    started = time.perf_counter()
    yield
    elapsed = time.perf_counter() - started
    assert elapsed < seconds, f"took {elapsed:.1f}s, budget {seconds}s"


def coeffs(name, order):
    return list(series.closed_form(name, order).coeffs)


def test_criterion_1_table_reproduction():
    with criterion(1, "bounded-star table matches on all 54 entries"):
        with budget(5):
            assert list(cli.table1_lines(9, 6)) == TABLE1
            table = series.bivariate("f", 9, 6)
            for k, row in enumerate(TABLE1, start=1):
                for n, entry in enumerate(row.split(), start=1):
                    expected = int(entry)
                    assert table.coefficient(n, k) == expected
                    assert multisets.count_family("star", n, k) == expected
                    assert listed_count(multisets, "star", n, k) == expected


def test_criterion_2_four_way_count_agreement():
    with criterion(2, "star counts agree across four computations, n <= 10"):
        with budget(60):
            q = coeffs("Q", 10)
            diag = series.bivariate("f", 6, 6)
            assert [q[n] for n in range(1, 7)] == [1, 2, 5, 13, 35, 96]
            for n in range(1, 7):
                assert diag.coefficient(n, n) == q[n]
            for n in range(1, 11):
                stars = multisets.count_family("star", n)
                by_dud = listed_count(paths, "grand_dyck_star", n)
                by_udu = listed_count(paths, "grand_dyck_udu_free", n)
                grammar = bijections.grammar_count(n, "Q")
                assert stars == by_dud == by_udu == grammar == q[n]
                assert listed_count(multisets, "star", n) == stars


def test_criterion_3_classical_counts():
    with criterion(3, "Catalan, Motzkin, and binomial counts, n <= 8"):
        ts, qs, t = coeffs("Ts", 8), coeffs("Qs", 8), coeffs("T", 8)
        for n in range(1, 9):
            dyck = sum(1 for _ in paths.enumerate_family("dyck", n))
            assert dyck == comb(2 * n, n) // (n + 1) == ts[n]
            dyck_star = sum(1 for _ in paths.enumerate_family("dyck_star", n))
            assert dyck_star == motzkin(n - 1) == qs[n]
            grand = sum(1 for _ in paths.enumerate_family("grand_dyck", n))
            assert grand == comb(2 * n - 1, n - 1)
            assert bijections.grammar_count(n, "T") == comb(2 * n - 1, n) == t[n]


def test_criterion_4_bijection_suites():
    with criterion(4, "staircase and run-heap bijections with transports"):
        with budget(60):
            for n in range(1, 11):
                words = set(paths.enumerate_family("grand_dyck", n))
                image = set()
                for m in multisets.enumerate_family("all", n):
                    word = bijections.multiset_to_path(m)
                    assert bijections.path_to_multiset(word) == m
                    image.add(word)
                assert image == words
                stars = {
                    bijections.multiset_to_path(m)
                    for m in multisets.enumerate_family("star", n)
                }
                assert stars == set(
                    paths.enumerate_family("grand_dyck_star", n)
                )
                supers = {
                    bijections.multiset_to_path(m)
                    for m in multisets.enumerate_family("super", n)
                }
                assert supers == set(paths.enumerate_family("dyck", n))
            for n in range(1, 9):
                heaps_t = bijections.grammar_enumerate(n, "T")
                image = set()
                for word in paths.enumerate_family("grand_dyck", n):
                    h = bijections.path_to_heap(word)
                    assert bijections.heap_to_path(h) == word
                    image.add(h)
                assert image == heaps_t
                star_image = {
                    bijections.path_to_heap(word)
                    for word in paths.enumerate_family("grand_dyck_star", n)
                }
                assert star_image == bijections.grammar_enumerate(n, "Q")
            for n in range(1, 8):
                brute = {
                    heaps.animal_to_heap(a)
                    for a in heaps.animal_enumerate_bruteforce(n, "triangular")
                }
                assert brute == bijections.grammar_enumerate(n, "T")


def test_criterion_5_statistic_transport():
    with criterion(5, "statistic equalities and detector-stable relations"):
        detected = {}
        for bound in (2, 5, 8):
            report = verify.run_suite("statistics", bound)
            assert report.ok, report.format_lines()
            by_name = {c.name: c.detail for c in report.checks}
            gap = by_name["gap-stays-within-one-of-height"]
            nbu = by_name["u-height-column-offsets-are-constant"]
            relation = (
                gap.split(": offset 1 on")[0],
                nbu.split(", stable for")[0],
            )
            detected.setdefault(relation, []).append(bound)
        assert len(detected) == 1, f"relation drifted: {detected}"
        final = verify.run_suite("statistics", 8)
        for check in final.checks:
            if check.name in (
                "gap-stays-within-one-of-height",
                "u-height-column-offsets-are-constant",
            ):
                print(f"  detector: {check.detail}")


def test_criterion_6_series_identities():
    with criterion(6, "constructor equations and diagonals exact to order 30"):
        with budget(2):
            checks = series.check_identities(30)
            assert len(checks) == 10
            assert all(c.ok for c in checks), [c.name for c in checks if not c.ok]
            t = series.closed_form("T", 30)
            ts = series.closed_form("Ts", 30)
            one = series.polynomial([1], 30)
            ratio = t / (one + t)
            assert ratio.coeffs == ts.coeffs
            assert all(type(c) is int for c in t.coeffs)


def test_criterion_7_worked_examples():
    with criterion(7, "worked example pairs map exactly"):
        for values, word in WORKED_PAIRS:
            m = multisets.Multiset(values, 8)
            assert bijections.multiset_to_path(m) == word
            assert bijections.path_to_multiset(word) == m
        m = multisets.Multiset(LARGE_EXAMPLE, 22)
        assert multisets.stats(m).adj == 5
        word = bijections.multiset_to_path(m)
        h = bijections.path_to_heap(word)
        assert len(h) == 22
        assert heaps.heap_stats(h).area == 22
        assert heaps.heap_stats(h).lw == paths.height_stats(word).cross


def test_criterion_8_symmetry_distributions():
    with criterion(8, "width and crossing-height distributions coincide"):
        for klass in ("T", "Q"):
            for n in range(1, 8):
                lw = Counter()
                rw = Counter()
                for h in bijections.grammar_enumerate(n, klass):
                    s = heaps.heap_stats(h)
                    lw[s.lw + 1] += 1
                    rw[s.rw] += 1
                assert lw == rw, (klass, n)
        for family in ("grand_dyck", "grand_dyck_star"):
            for n in range(1, 8):
                cross = Counter()
                height = Counter()
                for word in paths.enumerate_family(family, n):
                    s = paths.height_stats(word)
                    cross[s.cross + 1] += 1
                    height[s.height_max] += 1
                assert cross == height, (family, n)
