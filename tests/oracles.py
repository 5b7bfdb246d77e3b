"""Reference values computed by routes independent of the code under test.

The word <-> heap references share only `compose` and the gravity of
`heaps.drop_columns` with the library code they check.  The grammar
reference, `encoded_grammar`, builds heaps as byte strings with a gravity
of its own, so it shares nothing with `drop_columns`.  `mutated` is the
mutation tests' tool: a library function compiled again with one piece
of its source replaced.
"""

import inspect
import textwrap
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations, combinations_with_replacement
from math import comb

from heapdyck import multisets, paths
from heapdyck.bijections import GrammarDuplicateError, compose
from heapdyck.heaps import (
    AnimalStats,
    Heap,
    HeapParseError,
    MissingOriginError,
    NotAHeapError,
    Pair,
    PointAnimal,
    drop_columns,
)
from heapdyck.series import Series


def mutated(fn, old, new):
    """fn compiled again in its module with one piece of its source replaced."""
    source = textwrap.dedent(inspect.getsource(fn))
    assert source.count(old) == 1, f"{old!r} is not a unique piece of {fn.__name__}"
    namespace = dict(vars(inspect.getmodule(fn)))
    exec(source.replace(old, new), namespace)
    return namespace[fn.__name__]


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def motzkin(n: int) -> int:
    row = [1]
    while len(row) <= n:
        m = len(row) - 1
        row.append(row[m] + sum(row[i] * row[m - 1 - i] for i in range(m)))
    return row[n]


def square_animals(n: int) -> int:
    """Convolution recurrence q_n = qs_n + sum qs_a q_{n-a}, qs from Motzkin."""
    qs = [0] + [motzkin(i - 1) for i in range(1, n + 1)]
    q = [0] * (n + 1)
    for m in range(1, n + 1):
        q[m] = qs[m] + sum(qs[a] * q[m - a] for a in range(1, m))
    return q[n]


def directed_animals(n: int) -> int:
    """Q_n in closed form, sum_k C(n-1, k) C(k, floor(k/2)) (OEIS A005773)."""
    total, choose, central = 0, 1, 1  # C(n-1, k) and C(k, floor(k/2)) at k
    for k in range(n):
        total += choose * central
        choose = choose * (n - 1 - k) // (k + 1)
        central = central * 2 if k % 2 else central * (k + 1) // (k // 2 + 1)
    return total


def uniform_multiset(rng, n: int) -> list[int]:
    """Sorted values of a uniform random multiset of n values over 1..n.

    Stars and bars: an n-subset of 2n-1 slots is such a multiset, so its
    staircase word is uniform among grand-Dyck words of semilength n.
    """
    slots = sorted(rng.sample(range(2 * n - 1), n))
    return [s - j + 1 for j, s in enumerate(slots)]


def crossing_heavy(rng, n: int) -> str:
    """Blocks U^a D^a and D^a U^a in turn, a from 1 to 3: every block boundary is a crossing."""
    out, left = [], n
    while left:
        a = min(left, rng.randint(1, 3))
        out.append("U" * a + "D" * a if len(out) % 2 == 0 else "D" * a + "U" * a)
        left -= a
    return "".join(out)


def binomial_sqrt(a: int, order: int) -> list[Fraction]:
    """Coefficients of (1 + a z)^(1/2) from the generalized binomial series."""
    out = [Fraction(1)]
    c = Fraction(1)
    for k in range(1, order + 1):
        c = c * (Fraction(1, 2) - (k - 1)) / k * a
        out.append(c)
    return out


def convolve(xs: list[Fraction], ys: list[Fraction]) -> list[Fraction]:
    order = min(len(xs), len(ys)) - 1
    return [
        sum((xs[i] * ys[k - i] for i in range(k + 1)), Fraction(0))
        for k in range(order + 1)
    ]


# --- helpers only the tests use --------------------------------------------


class BadGroundError(ValueError):
    pass


def reverse(word: str) -> str:
    """Read the steps right to left, each keeping its letter."""
    return word[::-1]


def drop(heap: Heap | None, column: int) -> Heap:
    """Add one dimer released above the column; it falls until supported."""
    if heap is None:
        if column != 0:
            raise BadGroundError("first dimer must land in column 0")
        return Heap(((0, 0),))
    return Heap(drop_columns([*(col for col, _ in heap.dimers), column]))


def _by_level(dimers) -> tuple[Pair, ...]:
    return tuple(sorted(dimers, key=lambda d: (d[1], d[0])))


def superpose(base: tuple[Pair, ...], part: tuple[Pair, ...], shift: int) -> tuple[Pair, ...]:
    """Drop the dimers of part, columns shifted, onto base; (level, column) order.

    The base enters as its columns in (level, column) order, which rebuild it.
    """
    columns = [col for col, _ in _by_level(base)]
    columns += (col + shift for col, _ in _by_level(part))
    return _by_level(drop_columns(columns))


def listed_count(module, *args) -> int:
    """How many objects module.enumerate_family(*args) yields: the count by listing them."""
    return sum(1 for _ in module.enumerate_family(*args))


@dataclass(frozen=True)
class PathFlags:
    balanced: bool
    starts_with_u: bool
    dyck: bool
    grand_dyck: bool


def classify(word: str) -> PathFlags:
    """The word classes a step word belongs to, read off its heights."""
    ys = paths.heights(word)
    balanced = ys[-1] == 0
    starts_u = word[:1] == "U"
    return PathFlags(balanced, starts_u, balanced and min(ys) >= 0, balanced and starts_u)


@dataclass(frozen=True)
class MultisetFlags:
    superdiagonal: bool
    star: bool
    no_single_except_bound: bool


def classify_multiset(m: multisets.Multiset) -> MultisetFlags:
    """The multiset families m belongs to, each read off its values by its definition."""
    v = m.values
    super_ = all(v[i] >= i + 1 for i in range(len(v)))
    star = multisets.adjacency_count(m) == 0
    counts: dict[int, int] = {}
    for x in v:
        counts[x] = counts.get(x, 0) + 1
    no_single = all(c != 1 for x, c in counts.items() if x != m.bound)
    return MultisetFlags(super_, star, no_single)


def crossings(word: str) -> tuple[int, ...]:
    """Interior x positions where the path changes sign through the axis."""
    ys = paths.heights(word)
    return tuple(x for x in range(1, len(word)) if ys[x] == 0 and word[x - 1] == word[x])


def modified_heights(word: str) -> list[int]:
    """Per point: |y_x| minus the number of crossings strictly left of x."""
    cross_at = crossings(word)
    return [abs(y) - bisect_left(cross_at, x) for x, y in enumerate(paths.heights(word))]


@dataclass(frozen=True)
class RunComponent:
    start: int
    end: int
    below: bool
    dyck_word: str
    shift: int


def run_components(word: str) -> list[RunComponent]:
    """Split a grand-Dyck word at its crossings into alternating sign runs.

    A below-axis run's Dyck word is the run reversed, and the j-th run is
    shifted j columns left.
    """
    bounds = [0, *crossings(word), len(word)]
    comps = []
    for j, (a, b) in enumerate(zip(bounds, bounds[1:])):
        run = word[a:b]
        below = run[0] == "D"
        comps.append(RunComponent(a, b, below, run[::-1] if below else run, -j))
    return comps


def pattern_count(word: str, pattern: str) -> int:
    """Occurrences of a step pattern as consecutive letters, overlaps allowed."""
    k = len(pattern)
    return sum(1 for i in range(len(word) - k + 1) if word[i : i + k] == pattern)


def from_ints(values) -> Series:
    return Series(tuple(values))


# --- series arithmetic ------------------------------------------------------
#
# Series arithmetic as plain Fraction loops, one normalised Fraction
# multiply-subtract per step.  They take int or Fraction coefficient
# tuples and return Fractions, so they share no code with the integer
# kernels they check, and a quotient or root that leaves the integers
# shows as a Fraction.

Coeffs = tuple[int | Fraction, ...]


def reference_mul(xs: Coeffs, ys: Coeffs) -> tuple[Fraction, ...]:
    n = min(len(xs), len(ys)) - 1
    out = [Fraction(0)] * (n + 1)
    for i, a in enumerate(xs[: n + 1]):
        if a == 0:
            continue
        for j in range(n + 1 - i):
            b = ys[j]
            if b != 0:
                out[i + j] += a * b
    return tuple(out)


def reference_div(xs: Coeffs, ys: Coeffs) -> tuple[Fraction, ...]:
    n = min(len(xs), len(ys)) - 1
    inv0 = 1 / Fraction(ys[0])
    out: list[Fraction] = []
    for k in range(n + 1):
        acc = Fraction(xs[k])
        for j in range(1, k + 1):
            acc -= ys[j] * out[k - j]
        out.append(acc * inv0)
    return tuple(out)


def reference_sqrt(xs: Coeffs) -> tuple[Fraction, ...]:
    """Square root of a series with constant term 1."""
    out = [Fraction(1)]
    for k in range(1, len(xs)):
        acc = Fraction(xs[k])
        for j in range(1, k):
            acc -= out[j] * out[k - j]
        out.append(acc / 2)
    return tuple(out)


def reference_divide_table(
    numerator: dict[tuple[int, int], int],
    denominator: dict[tuple[int, int], int],
    z_order: int,
    u_order: int,
) -> tuple[tuple[Fraction, ...], ...]:
    """Rows n of the coefficients of z^n u^k in numerator / denominator."""
    d00 = Fraction(denominator[0, 0])
    rows = [[Fraction(0)] * (u_order + 1) for _ in range(z_order + 1)]
    for n in range(z_order + 1):
        for k in range(u_order + 1):
            acc = Fraction(numerator.get((n, k), 0))
            for (i, j), c in denominator.items():
                if (i, j) == (0, 0) or i > n or j > k:
                    continue
                acc -= c * rows[n - i][k - j]
            rows[n][k] = acc / d00
    return tuple(tuple(row) for row in rows)


# --- animals ----------------------------------------------------------------

_STEPS = {"square": ((1, 0), (0, 1)), "triangular": ((1, 0), (0, 1), (1, 1))}


def reachable_animal(points, lattice: str) -> bool:
    """True when every point is reachable from the origin by lattice steps.

    A depth-first search from the origin, with a step table of its own, so
    it leans neither on the library's predecessor rule nor on the brute
    force's predecessor masks, which rest on the same lemma.
    """
    pts = set(points)
    if (0, 0) not in pts:
        raise MissingOriginError("animal must contain (0, 0)")
    if any(x < 0 or y < 0 for x, y in pts):
        raise ValueError("animal coordinates must be non-negative")
    moves = _STEPS[lattice]
    seen = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        x, y = frontier.pop()
        for dx, dy in moves:
            nxt = (x + dx, y + dy)
            if nxt in pts and nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return len(seen) == len(pts)


# --- heap validation --------------------------------------------------------


def reference_check_heap(dimers: tuple[Pair, ...]) -> str | None:
    """The heap rules checked one at a time over the canonical dimers, in the
    library's priority order; the breach message, or None for a valid heap."""
    if not dimers:
        return "empty heap"
    cells = set(dimers)
    if len(cells) != len(dimers):
        seen = set()
        for col, level in dimers:
            if (col, level) in seen:
                return f"repeated dimer ({col},{level})"
            seen.add((col, level))
    ground = [col for col, level in dimers if level == 0]
    if ground != [0]:
        return "need exactly one level-0 dimer, in column 0"
    by_level: dict[int, list[int]] = {}
    for col, level in dimers:
        by_level.setdefault(level, []).append(col)
    for level, cols in by_level.items():
        cols.sort()
        if any(b - a <= 1 for a, b in zip(cols, cols[1:])):
            return f"overlapping dimers at level {level}"
    for col, level in dimers:
        if level and not any((c, level - 1) in cells for c in (col - 1, col, col + 1)):
            return f"dimer ({col},{level}) has no support"
    return None


# --- heap kernels, one Python step per dimer or token -------------------------


def _drop_level(tops: dict[int, int], column: int) -> int:
    """Level a dimer dropped at this column lands on, given column tops."""
    best = -1
    for c in (column - 1, column, column + 1):
        lvl = tops.get(c, -1)
        if lvl > best:
            best = lvl
    return best + 1


def reference_drop_columns(columns) -> list[Pair]:
    """`heaps.drop_columns` as one `_drop_level` call and one pair per dimer."""
    out = []
    tops: dict[int, int] = {}
    for col in columns:
        level = _drop_level(tops, col)
        tops[col] = level
        out.append((col, level))
    return out


def reference_parse_pairs(text: str, what: str) -> list[tuple[int, int]]:
    """`heaps._parse_pairs` as a loop over the ";"-separated tokens."""
    pairs = []
    for chunk in text.strip().split(";"):
        chunk = chunk.strip()
        if not (chunk.startswith("(") and chunk.endswith(")")):
            raise HeapParseError(f"bad {what} token {chunk!r}")
        try:
            a, b = (int(part) for part in chunk[1:-1].split(","))
        except ValueError as exc:
            raise HeapParseError(f"bad {what} token {chunk!r}") from exc
        pairs.append((a, b))
    return pairs


# --- statistics references --------------------------------------------------
#
# The word and heap statistics the multi-pass way: a heights scan, then the
# crossings and modified heights from it, patterns by slicing, and a heap's
# diagonal pairs by looking each dimer's upper neighbour up in a set.


def reference_height_stats(word: str) -> paths.PathStats:
    ys = paths.heights(word)
    if not (ys[-1] == 0 and word[:1] == "U"):
        raise paths.NotGrandDyckError(f"need a balanced word starting with U: {word!r}")
    modified = modified_heights(word)
    nbu: dict[int, int] = {}
    d_ends = []
    for i, step in enumerate(word):
        h = modified[i + 1]
        if step == "U":
            nbu[h] = nbu.get(h, 0) + 1
        else:
            d_ends.append(h)
    return paths.PathStats(
        semilength=word.count("U"),
        cross=len(crossings(word)),
        height_max=max(modified),
        nbu_profile=nbu,
        d_end_heights=tuple(d_ends),
        dud_count=pattern_count(word, "DUD"),
        udu_count=pattern_count(word, "UDU"),
    )


def reference_heap_stats(h: Heap) -> AnimalStats:
    cols = [col for col, _ in h.dimers]
    lo, hi = min(cols), max(cols)
    profile: dict[int, int] = {}
    for c in cols:
        profile[c + 1] = profile.get(c + 1, 0) + 1
    occupied = set(h.dimers)
    diag = sum(1 for col, level in h.dimers if (col, level + 1) in occupied)
    return AnimalStats(
        area=len(h.dimers),
        lw=-lo,
        rw=hi + 1,
        width=hi + 1 - lo,
        diag=diag,
        nbp_profile=profile,
    )


# --- word <-> heap references ----------------------------------------------
#
# The constructor grammar read directly: an arch-recursive builder, and a
# split found by trying every up-closed set of dimers, neither relying on
# the drop-sequence argument the library uses.  Both recurse and the
# split tries 2^k subsets, so they serve only at small n.


def _runs(word: str) -> list[str]:
    """Maximal same-sign runs of a grand-Dyck word, cut at axis crossings."""
    runs, start, y = [], 0, 0
    for x, step in enumerate(word, 1):
        y += 1 if step == "U" else -1
        if y == 0 and x < len(word) and word[x] == step:
            runs.append(word[start:x])
            start = x
    return runs + [word[start:]]


def arch_heap(word: str) -> Heap:
    """Heap of a nonempty Dyck word, built from its last arch by the constructors."""
    if word == "UD":
        return compose("i", ())
    ys = list(accumulate((1 if s == "U" else -1 for s in word), initial=0))
    last = max(x for x in range(len(word)) if ys[x] == 0)
    if last == 0:
        return compose("ii", (arch_heap(word[1:-1]),))
    if word[last:] == "UD":
        return compose("iii", (arch_heap(word[:last]),))
    return compose("iv", (arch_heap(word[last + 1 : -1]), arch_heap(word[:last])))


def arch_path_to_heap(word: str) -> Heap:
    """Superpose the runs' arch heaps, each one column further left."""
    acc: tuple[Pair, ...] = ()
    for j, run in enumerate(_runs(word)):
        part = arch_heap(run[::-1] if j % 2 else run).dimers
        acc = part if j == 0 else superpose(acc, part, -j)
    return Heap(acc)


def _redrop(pieces, shift: int) -> Heap | None:
    """The pieces dropped afresh in level order, columns shifted, if that makes a heap."""
    try:
        return Heap(superpose((), tuple((c + shift, l) for c, l in pieces), 0))
    except NotAHeapError:
        return None


def _up_sets(pieces: set, forced: set):
    """Every up-closed subset of pieces holding forced, trying each set of extras."""
    def above(p, q):
        return abs(q[0] - p[0]) <= 1 and q[1] > p[1]

    top = set(forced)
    while more := {q for q in pieces for p in top if above(p, q)} - top:
        top |= more
    optional = sorted(pieces - top)
    for r in range(len(optional) + 1):
        for extra in combinations(optional, r):
            candidate = top | set(extra)
            if all(q in candidate for p in candidate for q in pieces if above(p, q)):
                yield candidate


def _only(matches: list, what: str):
    if len(matches) != 1:
        raise AssertionError(f"{len(matches)} {what} splits, expected exactly one")
    return matches[0]


def subset_factorize(h: Heap) -> tuple[str, tuple[Heap, ...]]:
    """The constructor case and parts of h, the two-part splits found by search."""
    dims = set(h.dimers)
    if h.min_column() < 0:
        matches = []
        for top in _up_sets(dims, {d for d in dims if d[0] < 0}):
            try:
                base = Heap(dims - top)
            except NotAHeapError:
                continue
            c = _redrop(top, 1)
            if c is not None and compose("v", (base, c)) == h:
                matches.append((base, c))
        return "v", _only(matches, "left")
    rest = dims - {(0, 0)}
    if not rest:
        return "i", ()
    if all(col >= 1 for col, _ in rest):
        return "ii", (_redrop(rest, -1),)
    if (0, 1) in rest:
        return "iii", (_redrop(rest, 0),)
    matches = []
    for top in _up_sets(rest, {d for d in rest if d[0] == 0}):
        b, c = _redrop(rest - top, -1), _redrop(top, 0)
        if b is not None and c is not None and compose("iv", (b, c)) == h:
            matches.append((b, c))
    return "iv", _only(matches, "two-part")


def _subset_dyck_word(h: Heap) -> str:
    case, parts = subset_factorize(h)
    if case == "i":
        return "UD"
    if case == "ii":
        return "U" + _subset_dyck_word(parts[0]) + "D"
    if case == "iii":
        return _subset_dyck_word(parts[0]) + "UD"
    b, c = parts
    return _subset_dyck_word(c) + "U" + _subset_dyck_word(b) + "D"


def subset_heap_to_path(h: Heap) -> str:
    """Split off left components by search, then read each by its constructors."""
    words = []
    while h.min_column() < 0:
        _, (base, h) = subset_factorize(h)
        words.append(_subset_dyck_word(base))
    words.append(_subset_dyck_word(h))
    return "".join(w[::-1] if j % 2 else w for j, w in enumerate(words))


# --- families by generate-and-filter, the grammar as bytes -------------------
#
# The family references build every multiset, or every balanced word, and
# keep the ones that pass the family's test.  They do the work that the
# library's pruned generators avoid, and share no code with them.  The
# grammar reference builds each heap as a byte string and drops parts on
# bases by column tops kept in a bytearray, not by `heaps.drop_columns`.


def multiset_families(m: multisets.Multiset) -> set[str]:
    """The names in multisets.FAMILIES of the families m belongs to."""
    flags = classify_multiset(m)
    keep = {
        "all": True,
        "star": flags.star,
        "super": flags.superdiagonal,
        "super_star": flags.superdiagonal and flags.star,
        "no_single_except_k": flags.no_single_except_bound,
    }
    return {family for family, kept in keep.items() if kept}


def filtered_multisets(n: int, k: int) -> dict[str, list[multisets.Multiset]]:
    """Each family's multisets in lexicographic order, by classifying every multiset."""
    out: dict[str, list[multisets.Multiset]] = {family: [] for family in multisets.FAMILIES}
    for values in combinations_with_replacement(range(1, k + 1), n):
        m = multisets.Multiset(values, k)
        for family in multiset_families(m):
            out[family].append(m)
    return out


def balanced_words(n: int) -> list[str]:
    """Every balanced word of semilength n starting with U, in lexicographic order.

    Words are listed by the positions of their U steps; where two words
    first differ, the one with the U there has the smaller position tuple.
    """
    out = []
    for ups in combinations(range(1, 2 * n), n - 1):
        word = ["U"] + ["D"] * (2 * n - 1)
        for x in ups:
            word[x] = "U"
        out.append("".join(word))
    return out


def filtered_words(family: str, words: list[str]) -> list[str]:
    """The words of a family among balanced words starting with U, by testing each."""
    if family.startswith("dyck"):
        words = [w for w in words if min(accumulate(1 if s == "U" else -1 for s in w)) >= 0]
    pattern = {"dyck_star": "DUD", "grand_dyck_star": "DUD", "grand_dyck_udu_free": "UDU"}.get(family)
    return [w for w in words if pattern is None or pattern not in w]


# A heap as a blob: one 2-byte (level, column + 64) chunk per dimer, in
# (level, column) order, so that sorting the chunks puts a heap in order.
GROUND_BLOB = bytes((0, 64))


def decoded(blob: bytes) -> Heap:
    return Heap((blob[i + 1] - 64, blob[i]) for i in range(0, len(blob), 2))


def _tops(blob: bytes) -> bytearray:
    """One byte per column byte: one above the column's top level, 0 if empty.

    The spare byte at the end keeps the neighbours of column bytes 0 and 255 in range.
    """
    tops = bytearray(257)
    for i in range(0, len(blob), 2):
        tops[blob[i + 1]] = blob[i] + 1  # levels ascend, so a column's last dimer is its top
    return tops


def _chunks(blob: bytes) -> list[bytes]:
    return [blob[i : i + 2] for i in range(0, len(blob), 2)]


def _dropped(tops: bytearray, chunks: list[bytes], part: bytes, shift: int) -> bytes:
    """The blob of a base heap, given by its tops and chunks, with part dropped on it.

    The part's columns, read off its blob in canonical order and shifted,
    fall one by one onto the tallest of the three columns under each.
    """
    tops = tops[:]
    out = chunks[:]
    for col in part[1::2]:
        col += shift
        level = tops[col - 1]  # one above the highest top beside it
        if tops[col] > level:
            level = tops[col]
        if tops[col + 1] > level:
            level = tops[col + 1]
        tops[col] = level + 1
        out.append(bytes((level, col)))
    out.sort()
    return b"".join(out)


def encoded_grammar(klass: str, n: int, memo: dict | None = None) -> tuple[bytes, ...]:
    """Every size-n heap of a class as a blob, in the grammar's order.

    Raises GrammarDuplicateError if two builds at any size up to n give one heap.
    """
    memo = {} if memo is None else memo

    def build(klass: str, n: int) -> tuple[bytes, ...]:
        if (klass, n) in memo:
            return memo[klass, n]
        ground_tops, ground_chunks = _tops(GROUND_BLOB), [GROUND_BLOB]
        if klass in ("Ts", "Qs") and n == 1:
            out = [GROUND_BLOB]
        elif klass in ("Ts", "Qs"):
            out = []
            for b in build(klass, n - 1):
                out.append(_dropped(ground_tops, ground_chunks, b, 1))  # case ii
                if klass == "Ts":
                    out.append(_dropped(ground_tops, ground_chunks, b, 0))  # case iii
            for a in range(1, n - 1):
                for b in build(klass, a):
                    base = _dropped(ground_tops, ground_chunks, b, 1)
                    tops, chunks = _tops(base), _chunks(base)
                    for c in build(klass, n - 1 - a):
                        out.append(_dropped(tops, chunks, c, 0))  # case iv
        else:
            base_class = "Ts" if klass == "T" else "Qs"
            out = list(build(base_class, n))
            for a in range(1, n):
                for b in build(base_class, a):
                    tops, chunks = _tops(b), _chunks(b)
                    for c in build(klass, n - a):
                        out.append(_dropped(tops, chunks, c, -1))  # case v
        if len(set(out)) != len(out):
            raise GrammarDuplicateError(f"constructor overlap while building {klass} at size {n}")
        memo[klass, n] = tuple(out)
        return memo[klass, n]

    return build(klass, n)


# --- pictures ---------------------------------------------------------------
#
# The renderers that fill a width x height grid of one-character cells and
# join it, cell by cell, as the library did before it drew row by row.


REF_CELL = 20
REF_PAD = 10


def _grid(width: int, height: int) -> list[list[str]]:
    return [[" "] * width for _ in range(height)]


def _rows_to_text(rows: list[list[str]]) -> str:
    return "\n".join("".join(r).rstrip() for r in rows)


def reference_path_ascii(word: str) -> str:
    ys = paths.heights(word)
    cells = [ys[i] if step == "U" else ys[i + 1] for i, step in enumerate(word)]
    top, bottom = max(cells), min(cells)
    rows = _grid(len(word), top - bottom + 1)
    for i, (step, cell) in enumerate(zip(word, cells)):
        rows[top - cell][i] = "/" if step == "U" else "\\"
    return _rows_to_text(rows)


def reference_path_svg(word: str) -> str:
    ys = paths.heights(word)
    top, bottom = max(ys), min(ys)
    height = (top - bottom) * REF_CELL

    def xy(x, y):
        return REF_PAD + x * REF_CELL, REF_PAD + height - y * REF_CELL

    w = len(word) * REF_CELL + 2 * REF_PAD
    h = height + 2 * REF_PAD
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect x="0" y="0" width="{w}" height="{h}" fill="white"/>',
    ]
    ax0 = xy(0, -bottom)
    ax1 = xy(len(word), -bottom)
    out.append(
        f'<line x1="{ax0[0]}" y1="{ax0[1]}" x2="{ax1[0]}" y2="{ax1[1]}" '
        'stroke="#999" stroke-dasharray="4 4"/>'
    )
    pts = " ".join("{},{}".format(*xy(x, y - bottom)) for x, y in enumerate(ys))
    out.append(f'<polyline points="{pts}" fill="none" stroke="black" stroke-width="2"/>')
    out.append("</svg>")
    return "\n".join(out)


def reference_heap_ascii(h: Heap) -> str:
    lo = min(col for col, _ in h.dimers)
    hi = max(col for col, _ in h.dimers)
    top = max(level for _, level in h.dimers)
    rows = _grid(2 * (hi - lo) + 4, top + 1)
    for col, level in h.dimers:
        at = 2 * (col - lo)
        rows[top - level][at : at + 4] = list("[__]")
    return _rows_to_text(rows)


def reference_animal_ascii(a: PointAnimal) -> str:
    top = max(y for _, y in a.points)
    wide = max(x for x, _ in a.points)
    rows = _grid(2 * wide + 1, top + 1)
    for x, y in a.points:
        rows[top - y][2 * x] = "o"
    return _rows_to_text(rows)


def reference_multiset_ascii(m: multisets.Multiset) -> str:
    n = len(m.values)
    k = m.bound
    rows = _grid(2 * n - 1, k)
    for i, v in enumerate(m.values, start=1):
        rows[k - v][2 * (i - 1)] = "o"
    for i in range(1, min(n, k) + 1):
        if rows[k - i][2 * (i - 1)] == " ":
            rows[k - i][2 * (i - 1)] = "."
    return _rows_to_text(rows)
