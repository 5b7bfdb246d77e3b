"""Layer timings outside the benchmark harness, one fresh interpreter per run.

    python3 tools/layers.py --label change
    python3 tools/layers.py --label parent --src ../parent/src
    python3 tools/layers.py --label mdiag --rows 'closed_form.*' --reps 10

Each row is one library call at each of its sizes, or n calls of one
command line.  A run imports heapdyck from --src and times every call by
one rule: it makes the call, at least once, until the calls' CPU times
add up to REPEAT_S, and records their mean, and the process's max RSS
after the first call, which includes the interpreter and its imports.
A call's result is checked, and freed, after its timer stops, so that
freeing a listed class of heaps is not part of the call's time.
Every row runs --reps times per size (REPS unless given), in a new
process each time; a metric is the median over the runs.  --rows, which
may be given more than once, runs only the rows whose names match one of
its shell-style patterns, in their usual order; a pattern that matches no
row is an error.  A run fails when the call's result
is wrong: the word -> heap row's heap against the heap that
`heap_to_path` maps back to its word; a listing row's number of objects
against `grammar_count(n, "T")`, which every listed family but Q's matches, or
against `grammar_count(n, "Q")`, or a CLI exit other than 0; the
command-line row's number of calls that print their heap against n; the
table1 row's number of lines against n and its last entry against the
closed sum over the number of distinct values; a
series row's last coefficient against its closed formula; a table row's
entry (n, n) against the directed-animal sum; a counting row's last
total against C(2n - 1, n) or the directed-animal sum; a width row's
entry [n][n], which counts every T heap, against C(2n - 1, n); an
identity row when any of its checks fails; an animal row's number of
points against n; a verify row when any check fails or its default cap
is not n.

The result goes to BENCH_layers-<label>.json at the repository root, with
the top-level keys of the line benchmarks/run.py prints: correct,
attempted, failed and metrics of {value, unit}, and argv, the arguments
the tool was run with.  The lines printed before it are for people.  The
tool exits 1 when a run's result is wrong.

    python3 tools/layers.py --label pair --parent ../parent/src

With --parent, each row and size runs from --src (the change) and from
the parent's tree in alternation, --reps times each, and the side that runs
first alternates from one pair to the next, so that both sides meet the
same drift of a shared machine.  A ratio's quartiles need two pairs, so
--parent takes --reps 2 or more.  Besides the change's metrics, the result
then holds the parent's, named parent.<row>.n<N>.*, and per row and size
the median change/parent CPU ratio over the pairs, <row>.n<N>.cpu_ratio,
with its quartiles.
"""

from __future__ import annotations

import argparse
import fnmatch
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from functools import cache, partial
from math import comb, isqrt

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LISTING_SIZES = (9, 10)
WORD_SIZES = (2000, 10_000)  # semilengths of the word -> heap row's word
WORD_SEED = 11
SERIES_ORDERS = (1000, 2000, 5000)
# one row of f at a time; its time sets series' Mdiag reach
MDIAG_ORDERS = (1000, 1500, 2000, 2500, 3000)
IDENTITY_ORDERS = (100, 300)
TABLE_ORDERS = (150, 300)
ANIMAL_SIZES = (5050, 20100)  # the triangles x + y < 100 and x + y < 200
MAP_CALLS = (1000,)  # in-process command lines per run
MAP_ARGV = ["map", "--from", "path", "--to", "heap", "--input", "UUDDDUUD"]
MAP_HEAP = "(0,0);(-1,1);(1,1);(-2,2)\n"  # what MAP_ARGV prints
TABLE1_SIZES = (1000, 1600)  # 1600 is cli.TABLE1_REACH
WIDTH_SIZES = (60, 200)
COUNT_SIZES = (300, 1000)
REPS = 3  # fresh processes per row and size
REPEAT_S = 0.5  # a run makes its call until the calls add up to this much CPU time


class _Lines:
    """A stdout that counts the lines written to it and keeps only the last text written
    before a newline."""

    def __init__(self) -> None:
        self.count = 0
        self.last = ""

    def write(self, text: str) -> int:
        self.count += text.count("\n")
        if text != "\n":
            self.last = text
        return len(text)

    def flush(self) -> None:
        pass


@cache
def _word(n: int) -> str:
    """A grand-Dyck word of semilength n: U, then n - 1 U and n D steps in a seeded shuffle."""
    steps = ["U"] * (n - 1) + ["D"] * n
    random.Random(WORD_SEED).shuffle(steps)
    return "U" + "".join(steps)


def _path_to_heap(n: int):
    from heapdyck import bijections

    return bijections.path_to_heap(_word(n))


def _inverted_heap(n: int):
    """The heap of _word(n) when `heap_to_path` maps it back to the word, else None."""
    from heapdyck import bijections

    h = _path_to_heap(n)
    return h if bijections.heap_to_path(h) == _word(n) else None


def _grammar_enumerate(klass: str, n: int) -> frozenset:
    """The class itself, so that freeing it falls after the timer; `child` checks its length."""
    from heapdyck import bijections

    return bijections.grammar_enumerate(n, klass)


def _verify(suite: str, n: int) -> int:
    """The suite's bound at its default cap if every check passes, else -1."""
    from heapdyck import verify

    report = verify.run_suite(suite)
    return report.max_n if report.ok else -1


def _cli_enumerate(family: str, n: int) -> int:
    from heapdyck import cli

    sink, sys.stdout = sys.stdout, _Lines()
    try:
        code = cli.main(["enumerate", "--family", family, "--n", str(n)])
        lines = sys.stdout.count
    finally:
        sys.stdout = sink
    return lines if code == 0 else -1


def _cli_table1(n: int) -> tuple[int, int] | int:
    """The number of lines `table1` prints at n x n, and its last entry; -1 if it fails."""
    from heapdyck import cli

    sink, sys.stdout = sys.stdout, _Lines()
    try:
        code = cli.main(["table1", "--max-n", str(n), "--max-k", str(n)])
        lines, last = sys.stdout.count, sys.stdout.last
    finally:
        sys.stdout = sink
    return (lines, int(last.rpartition(" ")[2])) if code == 0 else -1


def _cli_map(calls: int) -> int:
    """The number of calls of MAP_ARGV that exit 0 and print MAP_HEAP."""
    from heapdyck import cli

    right = 0
    sink = sys.stdout
    try:
        for _ in range(calls):
            sys.stdout = io.StringIO()
            right += cli.main(MAP_ARGV) == 0 and sys.stdout.getvalue() == MAP_HEAP
    finally:
        sys.stdout = sink
    return right


def _closed_form(name: str, order: int) -> int:
    from heapdyck import series

    return series.closed_form(name, order)[order]


def _check_identities(order: int) -> bool:
    from heapdyck import series

    return all(check.ok for check in series.check_identities(order))


def _bivariate_diagonal(name: str, order: int) -> int:
    from heapdyck import series

    return series.bivariate(name, order, order).coefficient(order, order)


def _triangle_animal(n: int) -> int:
    from heapdyck.heaps import PointAnimal

    m = isqrt(2 * n)  # n = m(m + 1)/2 points
    return len(PointAnimal(frozenset((x, y) for x in range(m) for y in range(m - x))))


def _heaps(klass: str, n: int) -> int:
    from heapdyck import bijections

    return bijections.grammar_count(n, klass)


_t_heaps = partial(_heaps, "T")


def _totals(klass: str, n: int) -> int:
    from heapdyck import counting

    return counting.totals(klass, n)[n]


def _widths(table: str, n: int) -> int:
    from heapdyck import counting

    return getattr(counting, table)("T", n)[n][n]


def _directed_animals(n: int) -> int:
    return sum(comb(n - 1, k) * comb(k, k // 2) for k in range(n))


def _star(n: int, k: int) -> int:
    """n-multisets of 1..k with no two consecutive values: d distinct values, no two
    adjacent, and their multiplicities a composition of n."""
    return sum(comb(n - 1, d - 1) * comb(k - d + 1, d) for d in range(1, (k + 1) // 2 + 1))


# row name -> (the call, its sizes, the result it must give at size n).  The word -> heap
# row maps one seeded grand-Dyck word of semilength n, and its heap must be the one that
# heap_to_path maps back to the word.  Each listing
# row but grammar_enumerate.Q lists C(2n - 1, n) objects: the T heaps, the triangular
# animals, the grand-Dyck words and the multisets over {1..n}; the Q row lists the Q
# heaps, which a run frees only after its timer stops.  A verify row runs one suite at
# its default cap, which must be n (10, 8, 8, 30 and 7 in verify.SUITE_CAPS), and gives n
# when every check passes.  A series row gives its last coefficient:
# T_n = C(2n - 1, n), and Q_n and Mdiag_n, the directed animals of size n (OEIS
# A005773).  A table row gives entry (n, n) of its table to order n, which is Q_n for
# both f and h.  The animal row checks a triangle of n points, x + y < m, through
# PointAnimal's validation.  The command-line row makes n calls of one `map`, each
# parsed afresh, and counts the ones that print the right heap; the table1 row prints
# the n x n table and gives its number of lines and its last entry, the star multisets
# of n values from 1..n.  A counting row gives
# the recurrences' total of T or Q at n, and a width row entry [n][n] of T's table by
# rw or lw, which counts every T heap of size n
ROWS = {
    "bijections.path_to_heap": (_path_to_heap, WORD_SIZES, _inverted_heap),
    "grammar_enumerate.T": (partial(_grammar_enumerate, "T"), LISTING_SIZES, _t_heaps),
    "grammar_enumerate.Q": (partial(_grammar_enumerate, "Q"), LISTING_SIZES, partial(_heaps, "Q")),
    "verify.counts": (partial(_verify, "counts"), (10,), lambda n: n),
    "verify.bijections": (partial(_verify, "bijections"), (8,), lambda n: n),
    "verify.statistics": (partial(_verify, "statistics"), (8,), lambda n: n),
    "verify.series": (partial(_verify, "series"), (30,), lambda n: n),
    "verify.symmetry": (partial(_verify, "symmetry"), (7,), lambda n: n),
    "cli.enumerate.heap-T": (partial(_cli_enumerate, "heap-T"), LISTING_SIZES, _t_heaps),
    "cli.enumerate.animal-triangular": (
        partial(_cli_enumerate, "animal-triangular"), LISTING_SIZES, _t_heaps
    ),
    "cli.enumerate.grand-dyck": (partial(_cli_enumerate, "grand-dyck"), LISTING_SIZES, _t_heaps),
    "cli.enumerate.multiset-all": (partial(_cli_enumerate, "multiset-all"), LISTING_SIZES, _t_heaps),
    "cli.main.map": (_cli_map, MAP_CALLS, lambda n: n),
    "cli.table1": (_cli_table1, TABLE1_SIZES, lambda n: (n, _star(n, n))),
    "closed_form.T": (partial(_closed_form, "T"), SERIES_ORDERS, lambda n: comb(2 * n - 1, n)),
    "closed_form.Q": (partial(_closed_form, "Q"), SERIES_ORDERS, _directed_animals),
    "closed_form.Mdiag": (partial(_closed_form, "Mdiag"), MDIAG_ORDERS, _directed_animals),
    "check_identities": (_check_identities, IDENTITY_ORDERS, lambda n: True),
    "bivariate.f": (partial(_bivariate_diagonal, "f"), TABLE_ORDERS, _directed_animals),
    "bivariate.h": (partial(_bivariate_diagonal, "h"), TABLE_ORDERS, _directed_animals),
    "PointAnimal.triangle": (_triangle_animal, ANIMAL_SIZES, lambda n: n),
    "counting.totals.T": (partial(_totals, "T"), COUNT_SIZES, lambda n: comb(2 * n - 1, n)),
    "counting.totals.Q": (partial(_totals, "Q"), COUNT_SIZES, _directed_animals),
    "counting.by_right_width.T": (
        partial(_widths, "by_right_width"), WIDTH_SIZES, lambda n: comb(2 * n - 1, n)
    ),
    "counting.by_left_width.T": (
        partial(_widths, "by_left_width"), WIDTH_SIZES, lambda n: comb(2 * n - 1, n)
    ),
}


def child(row: str, n: int, src: str) -> None:
    """One run in this process: the calls, then their mean CPU time, the max RSS after the
    first call, whether every call was right and the number of calls."""
    sys.path.insert(0, src)
    import heapdyck.cli  # noqa: F401  (imports are not part of the call's time)

    call, _, expected = ROWS[row]
    want = expected(n)  # out of the timed region: some cost more than the call

    def timed() -> tuple[float, bool]:
        """One call's CPU time and whether it was right; the result is checked, and
        freed, after the timer stops."""
        start = time.process_time()
        got = call(n)
        cpu_s = time.process_time() - start
        return cpu_s, _result(got) == want

    spent, ok = timed()
    calls = 1
    # before any repeat: each one can raise the peak, and a faster call fits more of them
    max_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while spent < REPEAT_S:
        cpu_s, right = timed()
        spent += cpu_s
        ok &= right
        calls += 1
    print(json.dumps({"cpu_s": spent / calls, "max_rss_mb": max_rss_mb, "ok": ok, "calls": calls}))


def _result(got: object) -> object:
    """What a call's result is checked by: a listed class by its length, else itself."""
    return len(got) if isinstance(got, frozenset) else got


def _one_run(row: str, n: int, src: str) -> dict:
    done = subprocess.run(
        [sys.executable, "-I", os.path.abspath(__file__), "--child", row, str(n), "--src", src],
        capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise SystemExit(f"{row} at n = {n} did not run from {src}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def run(src: str, parent: str | None = None, rows: list[str] | None = None,
        reps: int | None = None) -> dict:
    """The rows named (all of ROWS by default) at each size, reps times (REPS by default)
    from src and, when given, from parent in pairs."""
    reps = REPS if reps is None else reps
    sides = {"": src} if parent is None else {"": src, "parent.": parent}
    attempted = failed = 0
    metrics = {}
    for row in ROWS if rows is None else rows:
        for n in ROWS[row][1]:
            runs = {side: [] for side in sides}
            for rep in range(reps):
                for side in list(sides)[:: -1 if rep % 2 else 1]:  # who goes first alternates
                    runs[side].append(_one_run(row, n, sides[side]))
                    attempted += 1
                    failed += not runs[side][-1]["ok"]
            for side, got in runs.items():
                cpu_s = statistics.median(r["cpu_s"] for r in got)
                rss = statistics.median(r["max_rss_mb"] for r in got)
                print(f"{side}{row} n={n}: cpu {cpu_s:.4f} s per call, max rss {rss:.1f} MB"
                      f" (median of {reps})")
                metrics[f"{side}{row}.n{n}.cpu_s"] = {"value": cpu_s, "unit": "s"}
                metrics[f"{side}{row}.n{n}.max_rss_mb"] = {"value": rss, "unit": "MB"}
            if parent is not None:
                ratios = [c["cpu_s"] / p["cpu_s"] for c, p in zip(runs[""], runs["parent."])]
                q1, mid, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
                print(f"{row} n={n}: change/parent cpu {mid:.3f} [{q1:.3f}, {q3:.3f}]")
                metrics[f"{row}.n{n}.cpu_ratio"] = {
                    "value": mid, "unit": "ratio", "quartiles": [q1, q3]
                }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--label", help="names the output file BENCH_layers-<label>.json")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="the source tree to import heapdyck from")
    parser.add_argument("--parent", help="a second source tree, run in pairs with --src")
    parser.add_argument("--rows", action="append", metavar="PATTERN",
                        help="run only the rows that match this shell-style pattern; repeatable")
    parser.add_argument("--reps", type=int, default=REPS,
                        help=f"fresh processes per row and size (default {REPS})")
    parser.add_argument("--child", nargs=2, metavar=("ROW", "N"), help=argparse.SUPPRESS)
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(argv)
    if args.child:
        child(args.child[0], int(args.child[1]), args.src)
        return 0
    if not args.label:
        parser.error("--label is required")
    least = 2 if args.parent else 1  # a ratio's quartiles need two pairs
    if args.reps < least:
        parser.error(f"--reps must be at least {least}" + " with --parent" * bool(args.parent))
    patterns = args.rows or ["*"]
    for pattern in patterns:
        if not fnmatch.filter(ROWS, pattern):
            parser.error(f"--rows {pattern!r} matches no row")
    rows = [row for row in ROWS if any(fnmatch.fnmatch(row, p) for p in patterns)]
    parent = os.path.abspath(args.parent) if args.parent else None
    result = run(os.path.abspath(args.src), parent, rows, args.reps)
    result["argv"] = argv
    with open(os.path.join(ROOT, f"BENCH_layers-{args.label}.json"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(result) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
