"""Heap counts by size, read off the constructor cases without building a heap.

`CASES` is the heap grammar, written once for the counts here and for
the listing walk, `compose` and `factorize` in `bijections`.  Cases i-iv
are a node: the ground dimer at column 0, then the case's parts at their
column offsets.  Case v is a strict heap at offset 0 with a heap of the
full class at offset -1.  A Ts (Qs) heap is a node of one of the T (Q)
lattice's `NODE_CASES`; a T (Q) heap is a Ts (Qs) heap, alone or in case
v.  The grammar is unambiguous, so each case adds the product of its
parts' counts.

Dropping takes the union of the parts' shifted columns, so a heap has
rw <= b and lw <= a when its ground dimer, if any, does (b >= 1) and
each part, at offset d, has rw <= b - d and lw <= a + d.

Every list below is indexed by size 0..n and holds exact integers.
"""

from __future__ import annotations

from operator import mul

CLASSES = ("T", "Ts", "Q", "Qs")
# case -> the column offsets its parts drop at, in the order they drop
CASES = {"i": (), "ii": (1,), "iii": (0,), "iv": (1, 0), "v": (0, -1)}
# lattice -> its node cases in ascending arity, the order the listing walk prunes by
NODE_CASES = {"T": ("i", "ii", "iii", "iv"), "Q": ("i", "ii", "iv")}


def _strict_row(n: int, lattice: str, narrower: list[int] | None = None) -> list[int]:
    """Ts or Qs counts by size, from the lattice's node cases: a part at offset 0
    is counted by this row, one at offset 1 by `narrower` (this row when it is None)."""
    row = [0] * (n + 1)
    by_offset = {0: row, 1: row if narrower is None else narrower}
    cases = [[by_offset[d] for d in CASES[case]] for case in NODE_CASES[lattice]]
    leaves = cases.count([])
    singles = [parts[0] for parts in cases if len(parts) == 1]
    pairs = [parts for parts in cases if len(parts) > 1]
    for m in range(1, n + 1):  # a node's parts share m - 1 dimers
        total = leaves * (m == 1)
        for part in singles:
            total += part[m - 1]
        for b, c in pairs:
            total += sum(map(mul, b[1 : m - 1], c[m - 2 : 0 : -1]))
        row[m] = total
    return row


def _full_row(strict: list[int], wider: list[int] | None = None) -> list[int]:
    """T or Q counts by size: a strict heap alone, or in case v with a heap counted
    by `wider` (any T or Q heap when it is None) at offset -1."""
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
    strict = _strict_row(n, klass[0])
    return strict if klass.endswith("s") else _full_row(strict)


def by_right_width(klass: str, n: int) -> list[list[int]]:
    """table[b][m] is the number of size-m heaps of the class with rw <= b, for b = 0..n."""
    _check(klass, n)
    strict = [[0] * (n + 1)]
    for _ in range(n):
        strict.append(_strict_row(n, klass[0], strict[-1]))
    if klass.endswith("s"):
        return strict
    table = [_full_row(strict[n])]  # no heap of size m <= n reaches rw > n
    for b in range(n - 1, -1, -1):
        table.append(_full_row(strict[b], table[-1]))
    return table[::-1]


def by_left_width(klass: str, n: int) -> list[list[int]]:
    """table[a][m] is the number of size-m T or Q heaps with lw <= a, for a = 0..n."""
    _check(klass, n, ("T", "Q"))
    strict = _strict_row(n, klass)
    table = [strict]
    for _ in range(n):
        table.append(_full_row(strict, table[-1]))
    return table
