"""Heap counts by size, read off the five constructor cases without building a heap.

Ts heaps are the ground dimer alone (case i), with a Ts heap dropped one
column to its right (ii) or straight on top (iii), or both (iv); Qs heaps
are the same without iii.  A T (Q) heap is a Ts (Qs) heap, alone or with
a T (Q) heap dropped one column to its left (case v).  The grammar is
unambiguous, so each case adds the product of its parts' counts.

Dropping takes the union of the parts' shifted columns, so a column range
passes through every case.  A Ts (Qs) heap has rw <= b when its case ii
part and the first part of case iv have rw <= b - 1, and its case iii
part and the second part of case iv have rw <= b.  A T (Q) heap has
rw <= b when its base does and its case v part has rw <= b + 1.  On the
left, only case v moves a part, so lw <= a asks lw <= a - 1 of that part.

Every list below is indexed by size 0..n and holds exact integers.
"""

from __future__ import annotations

from operator import mul

CLASSES = ("T", "Ts", "Q", "Qs")


def _strict_row(n: int, with_iii: bool, narrower: list[int] | None = None) -> list[int]:
    """Ts (with case iii) or Qs counts by size whose case ii part and first
    case iv part are counted by `narrower`, or are any such heap when it is None."""
    row = [0] * (n + 1)
    lower = row if narrower is None else narrower
    for m in range(1, n + 1):
        row[m] = (m == 1) + lower[m - 1] + with_iii * row[m - 1]  # cases i, ii, iii
        row[m] += sum(map(mul, lower[1 : m - 1], row[m - 2 : 0 : -1]))  # case iv
    return row


def _full_row(strict: list[int], wider: list[int] | None = None) -> list[int]:
    """T or Q counts by size: a strict heap alone, or with a heap counted by
    `wider` (any T or Q heap when it is None) dropped one column left of it."""
    row = strict[:]
    upper = row if wider is None else wider
    for m in range(2, len(row)):
        row[m] += sum(map(mul, strict[1:m], upper[m - 1 : 0 : -1]))
    return row


def _check(klass: str, n: int, classes: tuple[str, ...] = CLASSES) -> None:
    if klass not in classes:
        raise ValueError(f"unknown class {klass!r}")
    if n < 0:
        raise ValueError("n must not be negative")


def totals(klass: str, n: int) -> list[int]:
    """The number of heaps of the class of each size 0..n."""
    _check(klass, n)
    strict = _strict_row(n, klass.startswith("T"))
    return strict if klass.endswith("s") else _full_row(strict)


def by_right_width(klass: str, n: int) -> list[list[int]]:
    """table[b][m] is the number of size-m heaps of the class with rw <= b, for b = 0..n."""
    _check(klass, n)
    with_iii = klass.startswith("T")
    strict = [[0] * (n + 1)]
    for _ in range(n):
        strict.append(_strict_row(n, with_iii, strict[-1]))
    if klass.endswith("s"):
        return strict
    table = [_full_row(strict[n])]  # no heap of size m <= n reaches rw > n
    for b in range(n - 1, -1, -1):
        table.append(_full_row(strict[b], table[-1]))
    return table[::-1]


def by_left_width(klass: str, n: int) -> list[list[int]]:
    """table[a][m] is the number of size-m T or Q heaps with lw <= a, for a = 0..n."""
    _check(klass, n, ("T", "Q"))
    strict = _strict_row(n, klass == "T")
    table = [strict]
    for _ in range(n):
        table.append(_full_row(strict, table[-1]))
    return table
