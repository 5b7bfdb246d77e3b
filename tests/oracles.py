"""Reference values computed by routes independent of the code under test.

The word <-> heap references share only the public constructors
(`compose`, `heaps.superpose`) with the library code they check.
"""

from fractions import Fraction
from itertools import accumulate, combinations, combinations_with_replacement
from math import comb

from heapdyck import multisets
from heapdyck.bijections import compose
from heapdyck.heaps import Dimer, Heap, NotAHeapError, superpose


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


def uniform_multiset(rng, n: int) -> list[int]:
    """Sorted values of a uniform random multiset of n values over 1..n.

    Stars and bars: an n-subset of 2n-1 slots is such a multiset, so its
    staircase word is uniform among grand-Dyck words of semilength n.
    """
    slots = sorted(rng.sample(range(2 * n - 1), n))
    return [s - j + 1 for j, s in enumerate(slots)]


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


# --- series arithmetic ------------------------------------------------------
#
# Series arithmetic as plain Fraction loops, one normalised Fraction
# multiply-subtract per step.  They take and return coefficient tuples, so
# they share no code with the integer kernels they check.


def reference_mul(xs: tuple[Fraction, ...], ys: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
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


def reference_div(xs: tuple[Fraction, ...], ys: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    n = min(len(xs), len(ys)) - 1
    inv0 = 1 / ys[0]
    out: list[Fraction] = []
    for k in range(n + 1):
        acc = xs[k]
        for j in range(1, k + 1):
            acc -= ys[j] * out[k - j]
        out.append(acc * inv0)
    return tuple(out)


def reference_sqrt(xs: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    """Square root of a series with constant term 1."""
    out = [Fraction(1)]
    for k in range(1, len(xs)):
        acc = xs[k]
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


# --- heap validation --------------------------------------------------------


def reference_check_heap(dimers: tuple[Dimer, ...]) -> str | None:
    """The heap rules checked one at a time over the canonical dimers, in the
    library's priority order; the breach message, or None for a valid heap."""
    if not dimers:
        return "empty heap"
    cells = set(dimers)
    if len(cells) != len(dimers):
        return "repeated dimer"
    ground = [d for d in dimers if d.level == 0]
    if len(ground) != 1 or ground[0].column != 0:
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
    acc: tuple[Dimer, ...] = ()
    for j, run in enumerate(_runs(word)):
        part = arch_heap(run[::-1] if j % 2 else run).dimers
        acc = part if j == 0 else superpose(acc, part, -j)
    return Heap(acc)


def _redrop(pieces, shift: int) -> Heap | None:
    """The pieces dropped afresh in level order, columns shifted, if that makes a heap."""
    try:
        return Heap(superpose((), tuple(Dimer(c + shift, l) for c, l in pieces), 0))
    except NotAHeapError:
        return None


def _up_sets(pieces: set, forced: set):
    """Every up-closed subset of pieces holding forced, trying each set of extras."""
    def above(p, q):
        return abs(q.column - p.column) <= 1 and q.level > p.level

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
        for top in _up_sets(dims, {d for d in dims if d.column < 0}):
            try:
                base = Heap(dims - top)
            except NotAHeapError:
                continue
            c = _redrop(top, 1)
            if c is not None and compose("v", (base, c)) == h:
                matches.append((base, c))
        return "v", _only(matches, "left")
    rest = dims - {Dimer(0, 0)}
    if not rest:
        return "i", ()
    if all(d.column >= 1 for d in rest):
        return "ii", (_redrop(rest, -1),)
    if Dimer(0, 1) in rest:
        return "iii", (_redrop(rest, 0),)
    matches = []
    for top in _up_sets(rest, {d for d in rest if d.column == 0}):
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


# --- families by generate-and-filter, the grammar by superpose ---------------
#
# The family references build every multiset, or every balanced word, and
# keep the ones that pass the family's test.  The grammar reference
# superposes dimer tuples with heaps.superpose and encodes them at the end.
# They do the work that the library's pruned generators and its bytes-level
# grammar builder avoid, and share no code with them.


def filtered_multisets(n: int, k: int) -> dict[str, list[multisets.Multiset]]:
    """Each family's multisets in lexicographic order, by classifying every multiset."""
    out: dict[str, list[multisets.Multiset]] = {family: [] for family in multisets.FAMILIES}
    for values in combinations_with_replacement(range(1, k + 1), n):
        m = multisets.Multiset(values, k)
        flags = multisets.classify(m)
        keep = {
            "all": True,
            "star": flags.star,
            "super": flags.superdiagonal,
            "super_star": flags.superdiagonal and flags.star,
            "no_single_except_k": flags.no_single_except_bound,
        }
        for family, kept in keep.items():
            if kept:
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


GROUND = (Dimer(0, 0),)


def _blob(dims) -> bytes:
    """(level, column + 64) per dimer, in (level, column) order."""
    ordered = sorted(dims, key=lambda d: (d.level, d.column))
    return bytes(b for col, level in ordered for b in (level, col + 64))


def superposed_grammar(klass: str, n: int, memo: dict | None = None) -> list[bytes]:
    """Every size-n heap of a class as a blob, in the grammar's order, built by superpose."""
    memo = {} if memo is None else memo

    def build(klass: str, n: int) -> list[tuple[Dimer, ...]]:
        if (klass, n) in memo:
            return memo[klass, n]
        if klass in ("Ts", "Qs") and n == 1:
            out = [GROUND]
        elif klass in ("Ts", "Qs"):
            out = []
            for b in build(klass, n - 1):
                out.append(superpose(GROUND, b, 1))
                if klass == "Ts":
                    out.append(superpose(GROUND, b, 0))
            for a in range(1, n - 1):
                for b in build(klass, a):
                    for c in build(klass, n - 1 - a):
                        out.append(superpose(superpose(GROUND, b, 1), c, 0))
        else:
            base = "Ts" if klass == "T" else "Qs"
            out = list(build(base, n))
            for a in range(1, n):
                for b in build(base, a):
                    for c in build(klass, n - a):
                        out.append(superpose(b, c, -1))
        memo[klass, n] = out
        return out

    return [_blob(dims) for dims in build(klass, n)]
