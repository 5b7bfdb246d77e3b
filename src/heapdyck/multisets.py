"""Non-decreasing multisets over {1, ..., k}.

A multiset is kept as its sorted value sequence together with the ambient
bound k.  The subfamilies of interest:

* ``star``: no value is followed by its successor (no i with
  values[i+1] == values[i] + 1),
* ``super``: superdiagonal, values[i] >= i (positions counted from 1),
* ``super_star``: both of the above,
* ``no_single_except_k``: every value below the bound occurs zero times
  or at least twice.

Every family, ``all`` included, is one rule over the sorted values (see
``_rule``): after v comes v again or a climb of at least 1, or at least 2
in the star families; the superdiagonal families place no value below its
position; and in ``no_single_except_k`` only a repeated value may climb,
and only k may end the sequence on a single value.  ``count_family``
counts that rule and ``enumerate_family`` lists it.

Statistics are driven by the indicator delta(i) = [values[i] >= i]: the
number of sign changes of delta, the adjacency count, and a per-position
gap profile that discounts each |values[i] - i| by the number of delta
changes seen so far.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

from .errors import HeapdyckError
from .value import Value

FAMILIES = ("all", "star", "super", "super_star", "no_single_except_k")


class EmptyMultisetError(HeapdyckError, ValueError):
    pass


class NotSortedError(HeapdyckError, ValueError):
    pass


class OutOfRangeError(HeapdyckError, ValueError):
    pass


class MultisetParseError(HeapdyckError, ValueError):
    pass


class Multiset(Value):
    """Sorted values drawn from {1, ..., bound}, possibly with repeats."""

    __slots__ = ("values", "bound")

    def __init__(self, values: tuple[int, ...], bound: int):
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "bound", bound)

    def __str__(self) -> str:
        return to_text(self)

    @property
    def size(self) -> int:
        return len(self.values)


class MultisetStats(NamedTuple):
    length: int
    cross: int
    adj: int
    gap_profile: tuple[int, ...]
    gap: int
    delta_profile: tuple[int, ...]


def validate(raw: Sequence[int], bound: int | None = None) -> Multiset:
    """Check a value sequence and wrap it; bound defaults to the length."""
    values = tuple(raw)
    if not values:
        raise EmptyMultisetError("multiset needs at least one value")
    k = len(values) if bound is None else bound
    if any(values[i] > values[i + 1] for i in range(len(values) - 1)):
        raise NotSortedError(f"values must be non-decreasing: {values}")
    if values[0] < 1 or values[-1] > k:
        raise OutOfRangeError(f"values must lie in 1..{k}: {values}")
    return Multiset(values, k)


def adjacency_count(m: Multiset) -> int:
    """Number of positions whose successor holds the next integer up."""
    v = m.values
    return sum(1 for a, b in zip(v, v[1:]) if b == a + 1)


def stats(m: Multiset) -> MultisetStats:
    delta: list[int] = []
    profile: list[int] = []
    cross = 0  # the changes of delta so far, which each later gap discounts
    for i, v in enumerate(m.values, start=1):
        d = 1 if v >= i else 0
        if delta and d != delta[-1]:
            cross += 1
        delta.append(d)
        profile.append(abs(v - i) - cross)
    return MultisetStats(
        length=len(delta),
        cross=cross,
        adj=adjacency_count(m),
        gap_profile=tuple(profile),
        gap=max(profile),
        delta_profile=tuple(delta),
    )


def _rule(family: str, n: int, k: int | None) -> tuple[int, int, bool, bool]:
    """The family's transition, once family, n and k are checked.

    The bound k (n by default), the smallest climb, whether a value seen
    once may climb, and whether no value may fall below its position.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if n < 1:
        raise ValueError("n must be positive")
    if k is not None and k < 0:
        raise ValueError(f"k must be at least 0, got {k}")
    bound = n if k is None else k
    gap = 2 if "star" in family else 1
    return bound, gap, family != "no_single_except_k", family.startswith("super")


def _depth_first(
    n: int, k: int, gap: int, single_climbs: bool, superdiagonal: bool
) -> Iterator[tuple[int, ...]]:
    """Every length-n sequence over 1..k the transition allows, in lexicographic order.

    After v comes v again or a climb of at least gap, and in the
    superdiagonal families no value below its position.  Without single
    climbs a climb starts only from a repeated value, and only k may end
    the sequence on a single value.
    """
    if superdiagonal and n > k:
        return  # position n would need a value above k
    if k == 1:
        yield (1,) * n  # the only candidate, in every family
        return
    values: list[int] = []
    stack = [iter(range(1, k + 1))]
    while stack:
        v = next(stack[-1], None)
        if v is None:
            stack.pop()
            if values:
                values.pop()
            continue
        repeated = bool(values) and values[-1] == v
        if len(values) == n - 1:
            if single_climbs or repeated or v == k:
                yield (*values, v)
            continue
        values.append(v)
        least = len(values) + 1 if superdiagonal else 1
        climbs = range(max(v + gap, least), k + 1) if single_climbs or repeated else ()
        stack.append(iter([v, *climbs] if v >= least else climbs))


def enumerate_family(family: str, n: int, k: int | None = None) -> Iterator[Multiset]:
    """The family members of size n over {1..k} in lexicographic order.

    Family, n and k are checked at the call.  Every family is grown value
    by value by the transition count_family counts, and a value that
    breaks the family's condition is never placed, so no multiset outside
    the family is built.
    """
    bound, gap, single_climbs, superdiagonal = _rule(family, n, k)
    tuples = _depth_first(n, bound, gap, single_climbs, superdiagonal)
    return (Multiset(tup, bound) for tup in tuples)


def count_family(family: str, n: int, k: int | None = None) -> int:
    """The number of multisets enumerate_family yields, by a transfer count over the positions.

    A state is the last value and whether it is already repeated.  The next
    value repeats the last one or climbs past it: by two or more in the
    star families, and in no_single_except_k only from a repeated value.
    The superdiagonal families place no value below its position.  One
    running sum serves every climb, so the count takes O(nk) steps.
    """
    bound, gap, single_climbs, superdiagonal = _rule(family, n, k)
    if not bound or superdiagonal and n > bound:
        return 0  # no value to place, or position n would need one above k
    if bound == 1:
        return 1  # 1, ..., 1, in every family
    once = [0, *[1] * bound]  # index v: prefixes ending at value v once
    more = [0] * (bound + 1)  # index v: prefixes ending at value v twice or more
    for i in range(2, n + 1):
        least = i if superdiagonal else 1
        climbers = 0  # prefixes that may climb to w: those ending at a value up to w - gap
        grown_once, grown_more = [0] * (bound + 1), [0] * (bound + 1)
        for w in range(1, bound + 1):
            if w > gap:
                v = w - gap
                climbers += more[v] + (once[v] if single_climbs else 0)
            if w >= least:
                grown_once[w] = climbers
                grown_more[w] = once[w] + more[w]
        once, more = grown_once, grown_more
    if single_climbs:
        return sum(once) + sum(more)
    return sum(more) + once[bound]  # only the bound may end on a single value


def parse(text: str) -> Multiset:
    """Read the "v1,v2,...,vn|k=K" form; the |k= part may be omitted."""
    body, sep, tail = text.strip().partition("|")
    bound: int | None = None
    if sep:
        if not tail.startswith("k="):
            raise MultisetParseError(f"expected |k=NUMBER, got {tail!r}")
        try:
            bound = int(tail[2:])
        except ValueError as exc:
            raise MultisetParseError(f"bad bound in {text!r}") from exc
    try:
        values = [int(part) for part in body.split(",")]
    except ValueError as exc:
        raise MultisetParseError(f"bad value list in {text!r}") from exc
    return validate(values, bound)


def to_text(m: Multiset) -> str:
    body = ",".join(str(v) for v in m.values)
    return body if m.bound == len(m.values) else f"{body}|k={m.bound}"
