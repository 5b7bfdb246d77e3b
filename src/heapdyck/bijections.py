"""Bijections between multisets, step words, and heaps of dimers.

The multiset side is a staircase encoding: a multiset over {1..k} with n
values becomes the word U^{v1} D U^{v2-v1} D ... D U^{k-vn}, one D per
value and one U per unit of growth.  With k = n this lands exactly on the
balanced words starting with U, and the subfamilies line up: superdiagonal
multisets give Dyck words, star multisets give DUD-free words, and
multisets repeating every value below the bound give UDU-free words.

The heap side peels a word into maximal same-sign runs, each read as a
Dyck word (below-axis runs are reversed first) and shifted one column
further left than the run before it.  The word's drop sequence lists
each run's D steps, read right to left, at their heights plus the run's
shift, and the heap is that sequence fallen under gravity.  The inverse
peels the heap bottom-up; at each step exactly one of the dimers free to
leave can continue a drop sequence of that shape, so the peel recovers
the columns and with them the word.

The constructor grammar is `counting.CASES`, read as trees: a node,
then its parts at their column offsets (cases i-iv), and for T and Q a
forest whose next tree stands one column left (case v).
`grammar_enumerate` lists the trees in one depth-first walk that drops
each node's dimer onto a list of column tops as it reaches it and
restores that top on the way back, so a dimer shared by a common prefix
is dropped once for all the heaps below it; the walk holds O(n) state
besides the heaps it returns.  A heap is the same whatever linear
extension of it is dropped, so `compose` drops its parts' columns at the
case's offsets, and `factorize` cuts its word's drop sequence back up.

The maps check their input and trust what they build from it.
`path_to_multiset` wraps the values it reads off a checked word without
`multisets.validate`, and the heaps that `path_to_heap`, `compose`,
`factorize` and the grammar drop get `heaps.fallen`'s ground check alone.
The tests, and CI past their sizes, hold each one to the validating
constructor.
"""

from __future__ import annotations

from typing import NamedTuple

from . import counting, heaps, multisets, paths
from .errors import HeapdyckError
from .heaps import Heap, Pair


class NotStartingUError(HeapdyckError, ValueError):
    pass


class FactorizationFailedError(HeapdyckError, RuntimeError):
    pass


class GrammarDuplicateError(HeapdyckError, RuntimeError):
    pass


class Factorization(NamedTuple):
    case: str
    parts: tuple[Heap, ...]


# --- multiset <-> word -------------------------------------------------


def multiset_to_path(m: multisets.Multiset) -> str:
    """Staircase word: one D per value, U runs filling the gaps up to the bound."""
    pieces = []
    prev = 0
    for v in m.values:
        pieces.append("U" * (v - prev))
        pieces.append("D")
        prev = v
    pieces.append("U" * (m.bound - prev))
    return "".join(pieces)


def path_to_multiset(word: str) -> multisets.Multiset:
    """Each D records how many U steps precede it; the U total is the bound.

    The word is checked, not the multiset: in a word of U and D steps that
    starts with U, the U counts before its D steps never fall and lie in
    1..ups, so the values are a multiset by construction.
    """
    if not word.startswith("U"):
        raise NotStartingUError(f"word must start with U: {word!r}")
    paths.check_steps(word)
    ups = 0
    values = []
    for step in word:
        if step == "U":
            ups += 1
        else:
            values.append(ups)
    if not values:
        raise multisets.EmptyMultisetError("multiset needs at least one value")
    return multisets.Multiset(tuple(values), ups)


# --- word -> heap ------------------------------------------------------


def drop_sequence(word: str) -> list[int]:
    """The columns the word's D steps drop at, in order: run by run, each with its run's shift.

    One scan finds the crossings as it goes; the k-th crossing starts a
    run shifted k columns left.  An above-axis run is a Dyck word, and its
    D steps drop right to left, each at the height it ends at.  A
    below-axis run reversed is a Dyck word too, and it is read in place:
    its D steps drop left to right, each at the height |y| it starts from.
    """
    paths.check_grand_dyck(word)
    columns: list[int] = []
    above: list[int] = []  # columns of the current above-axis run, left to right
    y = shift = 0
    prev = ""
    for step in word:
        if not y and step == prev:  # a crossing ends the run
            columns.extend(reversed(above))
            above.clear()
            shift -= 1
        if step == "U":
            y += 1
        else:
            y -= 1
            if y >= 0:
                above.append(y + shift)
            else:
                columns.append(shift - y - 1)
        prev = step
    columns.extend(reversed(above))
    return columns


def path_to_heap(word: str) -> Heap:
    """Drop the word's drop sequence under gravity."""
    return heaps.fallen(heaps.drop_columns(drop_sequence(word)))


# --- constructors and their inversion ----------------------------------


def factorize(h: Heap) -> Factorization:
    """The constructor case of h and its parts, cut from the drop sequence of its word.

    The first negative column starts case v's second part, and the base
    before it has none.  With none, the sequence is the node's 0, then its
    first part (all positive) up to the next 0, then its second.  Every
    drop sequence starts at 0, so the pieces' first columns are their
    parts' offsets, which name the case in `counting.CASES`.
    """
    seq = drop_sequence(heap_to_path(h))
    cut = next((i for i, x in enumerate(seq) if x < 0), None)
    if cut is not None:
        pieces = (seq[:cut], seq[cut:])
    else:
        cut = next((i for i, x in enumerate(seq) if i and not x), len(seq))
        pieces = tuple(filter(None, (seq[1:cut], seq[cut:])))
    offsets = tuple(piece[0] for piece in pieces)
    case = next((c for c, drops in counting.CASES.items() if drops == offsets), None)
    if case is None:
        raise FactorizationFailedError(f"no constructor case drops parts at {offsets} in {h}")
    parts = tuple(
        heaps.fallen(heaps.drop_columns([x - piece[0] for x in piece])) for piece in pieces
    )
    if compose(case, parts) != h:
        raise FactorizationFailedError(f"case {case} split of {h} does not recompose")
    return Factorization(case, parts)


def compose(case: str, parts: tuple[Heap, ...]) -> Heap:
    """Rebuild a heap from a factorization; inverse of factorize.

    A node case drops the ground column 0 first; then each part's canonical
    columns, which rebuild it, drop shifted by its offset in `counting.CASES`.
    """
    offsets = counting.CASES.get(case)
    if offsets is None:
        raise ValueError(f"unknown case {case!r}")
    if len(parts) != len(offsets):
        raise FactorizationFailedError(f"case {case} takes {len(offsets)} parts, got {len(parts)}")
    for p in parts:
        heaps.require_heap(p)
    seq = [0] * (case != "v") + [col + d for p, d in zip(parts, offsets) for col, _ in p.dimers]
    return heaps.fallen(heaps.drop_columns(seq))


# --- heap -> word ------------------------------------------------------


def heap_to_path(h: Heap) -> str:
    """Peel the heap bottom-up in the order path_to_heap dropped it.

    A dimer is free to leave when it is the lowest left in its column and
    lies below the lowest left in both neighbouring columns.  The next
    column lies in [floor - 1, prev + 1], prev being the column taken last
    and floor the smallest so far, and floor - 1 starts the next run.  Of
    the free columns there, only the largest can be next: the drops after
    a smaller one climb by at most one column at a time, so they would put
    a dimer below the larger one before it leaves.

    Columns are list indices, shifted so that two empty columns pad each
    side; an empty column's lowest level is the dimer count, above all.
    """
    heaps.require_heap(h)
    dims = h.dimers
    off = min(dims)[0] - 2  # the tuples' order puts the extreme columns first and last
    empty = len(dims)
    left: list[list[int]] = [[] for _ in range(max(dims)[0] - off + 3)]
    for col, level in reversed(dims):
        left[col - off].append(level)  # each column's lowest level comes last
    lowest = [levels[-1] if levels else empty for levels in left]
    words: list[str] = []
    run: list[str] = []  # the current run's Dyck word in pieces, right to left
    prev, floor = -1 - off, 1 - off
    y = 0  # the height the last D peeled ends at, within its run
    for _ in dims:
        col = prev + 1
        while col >= floor - 1 and (
            lowest[col] >= lowest[col - 1] or lowest[col] >= lowest[col + 1]
        ):
            col -= 1
        if col < floor - 1:
            raise FactorizationFailedError(
                f"no dimer of {h} can be peeled after column {prev + off}"
            )
        levels = left[col]
        levels.pop()
        lowest[col] = levels[-1] if levels else empty
        if col < floor:
            if run:
                _close_run(words, run, y)
            floor = col
        else:
            run.append("U" * (y + 1 - (col - floor)))  # the U steps up to the D peeled before
        run.append("D")
        y = col - floor
        prev = col
    _close_run(words, run, y)
    return "".join(words)


def _close_run(words: list[str], run: list[str], y: int) -> None:
    """Append a run, given right to left in pieces and ending at height y, to the words."""
    run.append("U" * (y + 1))
    # an above-axis run is its Dyck word, a below-axis run that word reversed,
    # and each piece reads the same both ways
    words.append("".join(run if len(words) % 2 else reversed(run)))
    run.clear()


# --- grammar enumeration ------------------------------------------------


def _grammar_heaps(klass: str, n: int) -> list[Heap]:
    """The size-n heaps of a class, one per constructor tree (or forest, for T and Q).

    One depth-first walk visits the trees in preorder, each node dropped
    as the walk reaches it and lifted on the way back, so a prefix shared
    by many heaps is dropped once.  A pattern is kept only while every
    open slot can still get a node, which needs the node cases in ascending
    arity; T and Q start their next tree by case v once the slots run out.
    """
    patterns = [counting.CASES[case] for case in counting.NODE_CASES[klass[0]]]
    forest = not klass.endswith("s")
    step = counting.CASES["v"][1]  # the next tree's root column, from the last one's
    # equal dimers of different heaps share one tuple: a class has few distinct dimers
    # (81 among the 218 790 of the T heaps at n = 9), so a heap keeps little but its pointers
    share = {}.setdefault
    tops = [-1] * (2 * n + 1)  # column + n -> level of its highest dimer
    pending: list[int] = []  # the columns of the subtrees still to visit, next last
    dimers: list[Pair] = []
    out: list[Heap] = []

    def grow(col: int, left: int, root: int) -> None:
        """Drop a node at col, then each pattern's subtrees; left counts this node too."""
        i = col + n
        below = tops[i]
        level = max(tops[i - 1], below, tops[i + 1]) + 1
        tops[i] = level
        dimer = (col, level)
        dimers.append(share(dimer, dimer))
        left -= 1
        if not left:
            out.append(heaps.fallen(dimers))
        else:
            open_slots = len(pending)
            for pattern in patterns:
                slots = open_slots + len(pattern)
                if slots > left:
                    break
                if slots:
                    pending.extend([col + d for d in reversed(pattern)])
                    nxt = pending.pop()
                    grow(nxt, left, root)
                    pending.append(nxt)
                    del pending[open_slots:]
                elif forest:
                    grow(root + step, left, root + step)
        dimers.pop()
        tops[i] = below

    grow(0, n, 0)
    del grow  # it reaches itself through its closure, a cycle that would keep out alive
    return out


def grammar_enumerate(n: int, klass: str) -> frozenset[Heap]:
    """All size-n heaps of a class, built by the constructor grammar.

    Classes: Ts = no negative column, T = all heaps, Qs and Q = the same
    with no dimer directly on top of another (square-lattice animals).
    """
    if klass not in counting.CLASSES:
        raise ValueError(f"unknown class {klass!r}")
    if n < 1:
        raise ValueError("n must be positive")
    built = _grammar_heaps(klass, n)
    out = frozenset(built)
    if len(out) != len(built):
        raise GrammarDuplicateError(f"constructor overlap while building {klass} at size {n}")
    return out


def grammar_count(n: int, klass: str) -> int:
    """The number of size-n heaps of a class, from the constructor cases' recurrences."""
    if n < 1:
        raise ValueError("n must be positive")
    return counting.totals(klass, n)[n]


def clear_caches() -> None:
    """Nothing to clear: the grammar keeps no state between calls."""
