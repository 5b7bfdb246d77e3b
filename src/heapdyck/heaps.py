"""Heaps of dimers and directed lattice animals.

A dimer occupies the two cells (column, column+1) of one level.  A heap
is a finite set of dimers where every dimer above level 0 rests on some
dimer one or more levels below within one column of it, no two dimers of
a level overlap, and exactly one dimer sits at level 0, in column 0.
`Heap` checks all of that in one sweep, for dimers from anywhere.  A
heap built by letting dimers fall, as the word map, the grammar and the
animal map build theirs, is made by `fallen`, which checks the ground
alone: a fallen dimer always rests on a support and never overlaps one
(Viennot, LNM 1234, 1986).

A dimer is a plain ``(column, level)`` tuple of two ints, not a
NamedTuple.  The garbage collector stops tracking a tuple of ints at its
first collection, but never a tuple subclass, so a NamedTuple dimer
would keep every dimer of every live heap on the collector's lists.
The heaps of one `bijections.grammar_enumerate` call share their dimer
tuples, one object per distinct dimer; a dimer is its value, and that
sharing is not part of the contract.  A heap holds only its dimers and
caches nothing, its hash included.

Directed animals are point sets on the quarter plane grown from the
origin by steps (1,0), (0,1) and, on the triangular lattice, (1,1).
Each step raises x + y, so by induction on x + y a set holding the
origin is an animal exactly when every other point has a predecessor,
a point one step back, in the set; that rule checks an animal in one
pass over its points.
Rotating an animal 45 degrees and letting each point fall as a dimer in
column x - y turns animals into heaps; square-lattice animals give the
heaps with no dimer directly on top of another.  The inverse sets each
dimer as low as its supports allow, the lowest embedding (Viennot, LNM
1234, 1986; Betrema & Penaud, 1993).

`PointAnimal(points)` and `parse_points` check every point set from
outside by that rule.  An animal the library builds connected is made by
`_connected_animal` and not checked again: the brute-force scan keeps
only supported points, a heap's lowest embedding is an animal, and
swapping x and y maps the triangular steps onto themselves.  The tests,
and CI past their sizes, hold `heap_to_animal` and `animal_reflect` to
`PointAnimal`'s check, as they hold `fallen` to `Heap`'s.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
from typing import Iterable, NamedTuple

from .errors import HeapdyckError
from .value import Value

BRUTE_FORCE_BOUND = 8
LATTICES = ("square", "triangular")


class NotAHeapError(HeapdyckError, ValueError):
    pass


class MissingOriginError(HeapdyckError, ValueError):
    pass


class TooLargeError(HeapdyckError, ValueError):
    pass


class HeapParseError(HeapdyckError, ValueError):
    pass


class NotAnAnimalError(HeapdyckError, ValueError):
    pass


Pair = tuple[int, int]  # a dimer, (column, level)

_BY_LEVEL = itemgetter(1, 0)  # (level, column)
_TUPLE = {tuple}
_TWO = {2}
_INT = {int}


def _dimer(item: object) -> Pair:
    """The item as a plain (column, level) pair, or the NotAHeapError that names it."""
    try:
        col, level = item
    except (TypeError, ValueError):
        col = level = None
    if type(col) is not int or type(level) is not int:
        raise NotAHeapError(f"{item!r} is not a pair of integers")
    return (col, level)


def _check_heap(dimers: tuple[Pair, ...]) -> str | None:
    """Return a breach description, or None for a valid heap.

    One sweep over the canonical dimers.  Levels ascend, so a repeat or an
    overlap lies between neighbours on one level, and a dimer's support is
    in the column set of the level just below.  A repeat ends the sweep;
    the other breaches are kept, the first of each, and reported in the
    order ground, overlap, support.
    """
    if not dimers:
        return "empty heap"
    grounds = 0  # level-0 dimers
    ground_col = None
    overlap = unsupported = None
    level = prev = None
    below: set[int] = set()  # columns of level - 1
    here: set[int] = set()  # columns of level
    for col, lvl in dimers:
        if lvl != level:
            below = here if lvl - 1 == level else set()
            here = set()
            level = lvl
        elif col - prev <= 1:
            if col == prev:
                return f"repeated dimer ({col},{lvl})"
            if overlap is None:
                overlap = f"overlapping dimers at level {lvl}"
        here.add(col)
        prev = col
        if not lvl:
            grounds += 1
            ground_col = col
        elif (
            unsupported is None
            and col not in below
            and col - 1 not in below
            and col + 1 not in below
        ):
            unsupported = f"dimer ({col},{lvl}) has no support"
    if grounds != 1 or ground_col != 0:
        return "need exactly one level-0 dimer, in column 0"
    return overlap or unsupported


class Heap(Value):
    """Immutable validated heap of dimers, kept sorted by (level, column).

    `Heap(dimers)` accepts any iterable of pairs and checks them all:
    their types, then `_check_heap`'s sweep.  Heaps of dropped dimers come
    from `fallen` instead, which checks only their ground.

    `dimers` is a tuple of plain ``(column, level)`` int pairs: exact
    tuples, which the garbage collector untracks, not a NamedTuple, which
    it would walk at every collection for as long as the heap lives.  Pairs
    that already are such tuples are kept as given, so heaps built from the
    same pair objects share them, as grammar heaps do; `Value`'s equality
    and hashing read only their values, never their identity, at each call.
    """

    __slots__ = ("dimers",)

    def __init__(self, dimers: Iterable[Pair]):
        items = list(dimers)
        # Exact tuples of two exact ints pass in three C-level sweeps;
        # anything else is converted, or named in the error, one item at a time
        if not (
            _TUPLE.issuperset(map(type, items))
            and _TWO.issuperset(map(len, items))
            and _INT.issuperset(map(type, chain.from_iterable(items)))
        ):
            items = [_dimer(d) for d in items]
        items.sort(key=_BY_LEVEL)
        canon = tuple(items)
        breach = _check_heap(canon)
        if breach is not None:
            raise NotAHeapError(breach)
        object.__setattr__(self, "dimers", canon)

    def __repr__(self) -> str:
        return f"Heap({to_text(self)!r})"

    def __len__(self) -> int:
        return len(self.dimers)

    def min_column(self) -> int:
        return min(self.dimers)[0]

    def max_column(self) -> int:
        return max(self.dimers)[0]


class AnimalStats(NamedTuple):
    area: int
    lw: int
    rw: int
    width: int
    diag: int
    nbp_profile: dict[int, int]


def drop_columns(columns: Iterable[int]) -> list[Pair]:
    """Drop one dimer per column, in order, onto the ground; the dimers in drop order.

    A dimer dropped at a column lands one level above the highest top of
    that column and its two neighbours.
    """
    tops: dict[int, int] = {}  # column -> level of its highest dimer
    cols = list(columns)
    levels = []
    get = tops.get
    for col in cols:
        level = get(col - 1, -1)
        mid = get(col, -1)
        right = get(col + 1, -1)
        if mid > level:
            level = mid
        if right > level:
            level = right
        level += 1
        tops[col] = level
        levels.append(level)
    return list(zip(cols, levels))


def fallen(dimers: Iterable[Pair]) -> Heap:
    """The heap of dimers that fell under gravity, checked at the ground only.

    The dimers are exact int pairs that `drop_columns`, or a walk keeping
    column tops the same way, dropped.  Each landed one level above the
    tops of its column and both neighbours, so it rests on a dimer one
    level below and no dimer of its level lies within one column of it:
    only the ground can be wrong.  In (level, column) order, the ground
    holds the one dimer (0, 0) exactly when the first dimer is (0, 0) and
    the second, if any, lies above level 0.
    """
    canon = tuple(sorted(dimers, key=_BY_LEVEL))
    if not canon:
        raise NotAHeapError("empty heap")
    if canon[0] != (0, 0) or len(canon) > 1 and not canon[1][1]:
        raise NotAHeapError("need exactly one level-0 dimer, in column 0")
    heap = object.__new__(Heap)
    object.__setattr__(heap, "dimers", canon)
    return heap


def require_heap(h: object) -> None:
    """Raise the NotAHeapError that names h's type unless h is a Heap."""
    if not isinstance(h, Heap):
        raise NotAHeapError(f"expected a Heap, got {type(h).__name__}")


def heap_stats(h: Heap) -> AnimalStats:
    """Widths, diagonal pairs and the per-column profile, in one loop over the dimers."""
    require_heap(h)
    dims = h.dimers
    occupied = set(dims)
    profile: dict[int, int] = {}
    diag = 0
    for col, level in dims:
        if (col, level + 1) in occupied:
            diag += 1
        profile[col + 1] = profile.get(col + 1, 0) + 1
    lo, hi = min(profile) - 1, max(profile) - 1
    return AnimalStats(
        area=len(dims),
        lw=-lo,
        rw=hi + 1,
        width=hi + 1 - lo,
        diag=diag,
        nbp_profile=profile,
    )


# --- animals -----------------------------------------------------------

Point = tuple[int, int]


def _steps(lattice: str) -> tuple[Point, ...]:
    if lattice == "square":
        return ((1, 0), (0, 1))
    if lattice == "triangular":
        return ((1, 0), (0, 1), (1, 1))
    raise ValueError(f"unknown lattice {lattice!r}")


def animal_validate(points: Iterable[Point], lattice: str = "triangular") -> bool:
    """True when every point other than the origin has a predecessor in the set.

    A predecessor is a point one lattice step back.  Each step raises
    x + y, so by induction on x + y this is the same as every point being
    reachable from the origin, and one pass over the points decides it.
    Coordinates must be exact ints: a float or a bool equals an int and
    hashes as one, so the set alone would not refuse it.
    """
    pts = set(points)
    if (0, 0) not in pts:
        raise MissingOriginError("animal must contain (0, 0)")
    if not _INT.issuperset(map(type, chain.from_iterable(pts))):
        raise NotAnAnimalError("animal coordinates must be integers")
    if any(x < 0 or y < 0 for x, y in pts):
        raise NotAnAnimalError("animal coordinates must be non-negative")
    moves = _steps(lattice)
    reached = {(x + dx, y + dy) for x, y in pts for dx, dy in moves}
    return pts - reached == {(0, 0)}


class PointAnimal(Value):
    """Finite point set containing the origin, connected on the triangular lattice."""

    __slots__ = ("points",)

    def __init__(self, points: frozenset[Point]):
        if not animal_validate(points, "triangular"):
            raise NotAnAnimalError("points are not connected to the origin")
        object.__setattr__(self, "points", points)

    def __len__(self) -> int:
        return len(self.points)

    def sorted_points(self) -> tuple[Point, ...]:
        return tuple(sorted(self.points))

    def __str__(self) -> str:
        return points_to_text(self)


def _connected_animal(points: frozenset[Point]) -> PointAnimal:
    """The animal of points built connected to the origin, without checking them again.

    For the maps whose construction makes an animal: the brute-force
    scan, the lowest embedding of a heap and the reflection of an animal.
    """
    animal = object.__new__(PointAnimal)
    object.__setattr__(animal, "points", points)
    return animal


def animal_to_heap(a: PointAnimal) -> Heap:
    """Drop one dimer per point, column x - y, in non-decreasing x + y order."""
    points = sorted(a.points, key=lambda p: (p[0] + p[1], p[0]))
    return fallen(drop_columns(x - y for x, y in points))


def heap_to_animal(h: Heap) -> PointAnimal:
    """The lowest embedding of h as an animal, the inverse of `animal_to_heap`.

    Each dimer, in (level, column) order, takes the least diagonal sum
    s = x + y that is at least |c| and lies above its column's top (by 2)
    and its neighbours' tops (by 1), and becomes the point ((s + c)/2, (s - c)/2).
    The embedding of a heap is a directed animal (Viennot, LNM 1234, 1986;
    Betrema & Penaud, 1993), so its points are not checked again.
    """
    require_heap(h)
    tops: dict[int, int] = {}  # column -> diagonal sum of its highest dimer so far
    get = tops.get
    points = []
    for col, _ in h.dimers:
        s = max(abs(col), get(col - 1, -2) + 1, get(col + 1, -2) + 1, get(col, -2) + 2)
        tops[col] = s
        points.append(((s + col) // 2, (s - col) // 2))
    return _connected_animal(frozenset(points))


def animal_reflect(a: PointAnimal) -> PointAnimal:
    """The animal with x and y swapped; the swap maps the triangular steps onto
    themselves, so the points are not checked again."""
    if not isinstance(a, PointAnimal):
        raise NotAnAnimalError(f"expected a PointAnimal, got {type(a).__name__}")
    return _connected_animal(frozenset((y, x) for x, y in a.points))


def _candidates(n: int, lattice: str, subdiagonal: bool) -> list[Point]:
    if lattice == "square":
        region = [(x, y) for x in range(n) for y in range(n - x)]
    else:
        # diagonal steps reach sums up to 2(n-1), so only max(x, y) is bounded
        region = [(x, y) for x in range(n) for y in range(n)]
    if subdiagonal:
        region = [(x, y) for x, y in region if y <= x]
    region.sort(key=lambda p: (p[0] + p[1], p[0]))
    return region


def animal_enumerate_bruteforce(
    n: int, lattice: str = "triangular", subdiagonal: bool = False
) -> frozenset[PointAnimal]:
    """All n-point animals, by scanning origin-containing candidate subsets.

    Candidates are ordered by (x + y, x), so every predecessor of a point
    precedes it.  A subset is an animal exactly when each chosen point has
    a chosen predecessor, which lets the scan discard a subset the moment
    an unsupported point is added and skip its extensions wholesale.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > BRUTE_FORCE_BOUND:
        raise TooLargeError(f"brute force capped at n = {BRUTE_FORCE_BOUND}")
    moves = _steps(lattice)
    cands = _candidates(n, lattice, subdiagonal)
    index = {p: i for i, p in enumerate(cands)}
    pred_mask = []
    for x, y in cands:
        mask = 0
        for dx, dy in moves:
            j = index.get((x - dx, y - dy))
            if j is not None:
                mask |= 1 << j
        pred_mask.append(mask)
    m = len(cands)
    found: list[frozenset[Point]] = []
    chosen: list[int] = [0]

    def extend(start: int, reach: int) -> None:
        if len(chosen) == n:
            found.append(frozenset(cands[i] for i in chosen))
            return
        remaining = n - len(chosen)
        for idx in range(start, m - remaining + 1):
            if pred_mask[idx] & reach:
                chosen.append(idx)
                extend(idx + 1, reach | (1 << idx))
                chosen.pop()

    extend(1, 1)
    del extend  # it reaches itself through its closure, a cycle that would keep found alive
    return frozenset(map(_connected_animal, found))


# --- text formats ------------------------------------------------------


_MARKS = str.maketrans("();", ",,,")


def _pairs(text: str) -> list[tuple[int, int]] | None:
    """The pairs of a text "(a,b);(a,b);...", blanks allowed around marks and
    numbers, or None when the text is not one.

    The text is cut at its marks all at once.  It is well formed when the
    fields, glued back with "(", ",", ")" and ";" in turn, give the text
    again, the fields outside the parentheses are blank, and `int` reads
    the ones inside.
    """
    fields = text.translate(_MARKS).split(",")
    pre, cols, levels, post = fields[0::4], fields[1::4], fields[2::4], fields[3::4]
    if (
        len(fields) % 4 == 0
        and not "".join(pre + post).strip()
        and ";".join(["%s(%s,%s)%s"] * len(pre)) % tuple(fields) == text
    ):
        try:
            return list(zip(map(int, cols), map(int, levels)))
        except ValueError:
            pass
    return None


def _parse_pairs(text: str, what: str) -> list[tuple[int, int]]:
    """The pairs of the text, or the HeapParseError naming its first bad token.

    A text whose ";"-tokens are each one pair is well formed, its fields
    being theirs in order, so a text `_pairs` rejects has a token it rejects.
    """
    pairs = _pairs(text)
    if pairs is None:
        bad = next(token for token in text.split(";") if _pairs(token) is None)
        raise HeapParseError(f"bad {what} token {bad.strip()!r}")
    return pairs


def parse_heap(text: str) -> Heap:
    return Heap(_parse_pairs(text, "dimer"))


def to_text(h: Heap) -> str:
    require_heap(h)
    dims = h.dimers
    return ";".join(["(%d,%d)"] * len(dims)) % tuple(chain.from_iterable(dims))


def parse_points(text: str) -> PointAnimal:
    points: set[Point] = set()
    for x, y in _parse_pairs(text, "point"):
        if (x, y) in points:
            raise HeapParseError(f"repeated point ({x},{y})")
        points.add((x, y))
    return PointAnimal(frozenset(points))


def points_to_text(a: PointAnimal) -> str:
    return ";".join(f"({x},{y})" for x, y in a.sorted_points())
