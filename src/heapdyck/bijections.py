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

The constructor grammar is read as trees: a node is dropped, then its b
part one column to the right, then its c part in the same column (cases
ii-iv), and a T or Q heap is a forest whose tree j stands at column -j
(case v).  That is `_sequence`'s column rule read node by node.
`grammar_enumerate` lists the trees in one depth-first walk that keeps
the column tops in a list, drops each node's dimer as it reaches it and
restores the one top it changed on the way back, so a dimer shared by a
common prefix is dropped once for all the heaps below it; the walk holds
O(n) state besides the heaps it returns, and its recursion is n deep.
A heap is the same whatever linear extension of it is dropped, so
`factorize` cuts its word's drop sequence by `_sequence`'s case table.
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
    """Each D records how many U steps precede it; the U total is the bound."""
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
    return multisets.validate(values, ups)


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
    return Heap(heaps.drop_columns(drop_sequence(word)))


# --- constructors and their inversion ----------------------------------


def factorize(h: Heap) -> Factorization:
    """The constructor case of h and its parts, cut from the drop sequence of its word.

    The cuts follow `_sequence`.  The first negative column starts case v's
    part c - 1, and the base b before it has no negative column.  With none,
    the sequence is 0, then b + 1 (all positive) up to the next 0, then c;
    which of b and c are empty names case i, ii, iii or iv.
    """
    seq = drop_sequence(heap_to_path(h))
    cut = next((i for i, x in enumerate(seq) if x < 0), None)
    if cut is not None:
        case, seqs = "v", (seq[:cut], [x + 1 for x in seq[cut:]])
    else:
        cut = next((i for i, x in enumerate(seq) if i and not x), len(seq))
        b, c = [x - 1 for x in seq[1:cut]], seq[cut:]
        case, seqs = ("i", "iii", "ii", "iv")[2 * bool(b) + bool(c)], tuple(filter(None, (b, c)))
    parts = tuple(Heap(heaps.drop_columns(s)) for s in seqs)
    if compose(case, parts) != h:
        raise FactorizationFailedError(f"case {case} split of {h} does not recompose")
    return Factorization(case, parts)


_ARITY = {"i": 0, "ii": 1, "iii": 1, "iv": 2, "v": 2}  # parts per constructor case


def _sequence(case: str, b: tuple[int, ...] = (), c: tuple[int, ...] = ()) -> tuple[int, ...]:
    """The drop sequence of a constructor case, given its parts' drop sequences.

    Case i is the ground column 0 alone, ii adds b one column to the right,
    iii b straight above, iv b as in ii and then c straight above, and v is
    b followed by c one column to the left.
    """
    if case == "v":
        return (*b, *[x - 1 for x in c])
    if case in ("ii", "iv"):
        return (0, *[x + 1 for x in b], *c)
    return (0, *b, *c)


def compose(case: str, parts: tuple[Heap, ...]) -> Heap:
    """Rebuild a heap from a factorization; inverse of factorize.

    Each part enters the case's drop sequence as its canonical columns, which rebuild it.
    """
    if case not in _ARITY:
        raise ValueError(f"unknown case {case!r}")
    if len(parts) != _ARITY[case]:
        raise FactorizationFailedError(f"case {case} takes {_ARITY[case]} parts, got {len(parts)}")
    for p in parts:
        heaps.require_heap(p)
    seq = _sequence(case, *(tuple(col for col, _ in p.dimers) for p in parts))
    return Heap(heaps.drop_columns(seq))


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


# child column offsets of each node pattern, b (one column right) before c
# (straight above); a square-lattice node has no c without b
_TRIANGULAR = ((), (1,), (0,), (1, 0))
_SQUARE = ((), (1,), (1, 0))
_PATTERNS = {"Ts": _TRIANGULAR, "T": _TRIANGULAR, "Qs": _SQUARE, "Q": _SQUARE}


def _grammar_heaps(klass: str, n: int) -> list[Heap]:
    """The size-n heaps of a class, one per constructor tree (or forest, for T and Q).

    One depth-first walk visits the trees in preorder, each node dropped
    as the walk reaches it and lifted on the way back, so a prefix shared
    by many heaps is dropped once.  A pattern is kept only while every
    open slot can still get a node; T and Q start tree j at column -j
    once the slots run out.
    """
    patterns = _PATTERNS[klass]
    forest = not klass.endswith("s")
    # equal dimers of different heaps share one tuple: a class has few distinct dimers
    # (81 among the 218 790 of the T heaps at n = 9), so a heap keeps little but its pointers
    share = {}.setdefault
    tops = [-1] * (2 * n + 1)  # column + n -> level of its highest dimer
    pending: list[int] = []  # the columns of the subtrees still to visit, next last
    dimers: list[Pair] = []
    out: list[Heap] = []

    def grow(col: int, left: int, trees: int) -> None:
        """Drop a node at col, then each pattern's subtrees; left counts this node too."""
        i = col + n
        below = tops[i]
        level = max(tops[i - 1], below, tops[i + 1]) + 1
        tops[i] = level
        dimer = (col, level)
        dimers.append(share(dimer, dimer))
        left -= 1
        if not left:
            out.append(Heap(dimers))
        else:
            open_slots = len(pending)
            for pattern in patterns:
                slots = open_slots + len(pattern)
                if slots > left:
                    break
                if slots:
                    pending.extend([col + d for d in reversed(pattern)])
                    nxt = pending.pop()
                    grow(nxt, left, trees)
                    pending.append(nxt)
                    del pending[open_slots:]
                elif forest:
                    grow(-trees, left, trees + 1)
        dimers.pop()
        tops[i] = below

    grow(0, n, 1)
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
