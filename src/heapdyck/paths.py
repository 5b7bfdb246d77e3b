"""Words over {U, D} viewed as lattice paths with unit up and down steps.

A word of length L traces the points (x, y_x) for x = 0..L.  Grand-Dyck
words are balanced and start with U; Dyck words additionally never dip
below the axis.  The signed statistics treat axis crossings specially: a
crossing is an interior zero where the incoming and outgoing steps agree,
and each crossing lowers the "modified height" of everything to its right
by one.
"""

from __future__ import annotations

from operator import add
from typing import Iterator, NamedTuple

from .errors import HeapdyckError

FAMILIES = ("dyck", "dyck_star", "grand_dyck", "grand_dyck_star", "grand_dyck_udu_free")


class EmptyWordError(HeapdyckError, ValueError):
    pass


class BadCharError(HeapdyckError, ValueError):
    pass


class NotGrandDyckError(HeapdyckError, ValueError):
    pass


class PathStats(NamedTuple):
    semilength: int
    cross: int
    height_max: int
    nbu_profile: dict[int, int]
    d_end_heights: tuple[int, ...]
    dud_count: int
    udu_count: int


def parse(text: str) -> str:
    word = text.strip()
    if not word:
        raise EmptyWordError("empty step word")
    check_steps(word)
    return word


def check_steps(word: str) -> None:
    """Raise BadCharError unless every letter of the word is U or D."""
    if word.count("U") + word.count("D") != len(word):
        bad = sorted(set(word) - {"U", "D"})
        raise BadCharError(f"steps must be U or D, found {bad}")


def check_grand_dyck(word: str) -> int:
    """The semilength of a grand-Dyck word.

    Raises BadCharError on a letter other than U or D, first, and
    NotGrandDyckError unless the word is balanced and starts with U.
    """
    check_steps(word)
    semilength = word.count("U")
    if not (word[:1] == "U" and 2 * semilength == len(word)):
        raise NotGrandDyckError(f"need a balanced word starting with U: {word!r}")
    return semilength


def heights(word: str) -> list[int]:
    """Points y_0..y_L visited by the word, starting at 0."""
    check_steps(word)
    y = 0
    ys = [0]
    for step in word:
        y += 1 if step == "U" else -1
        ys.append(y)
    return ys


def height_stats(word: str) -> PathStats:
    """The word's statistics, from one scan that finds crossings as it goes.

    A step ends at modified height |y| minus the crossings seen so far,
    one at its start included.  Every point after the first is the end
    of a step, and the first step climbs to 1 from 0, so the largest end
    height is height_max.
    """
    semilength = check_grand_dyck(word)
    nbu: dict[int, int] = {}
    d_ends = []
    y = cross = 0
    prev = ""
    for step in word:
        if step == "U":
            if not y and prev == "U":
                cross += 1
            y += 1
            h = abs(y) - cross
            nbu[h] = nbu.get(h, 0) + 1
        else:
            if not y and prev == "D":
                cross += 1
            y -= 1
            d_ends.append(abs(y) - cross)
        prev = step
    return PathStats(
        semilength=semilength,
        cross=cross,
        height_max=max(max(nbu), max(d_ends)),
        nbu_profile=nbu,
        d_end_heights=tuple(d_ends),
        # doubling one letter lets adjacent matches share it, so the
        # non-overlapping count finds the overlapping ones
        dud_count=word.replace("D", "DD").count("DUD"),
        udu_count=word.replace("U", "UU").count("UDU"),
    )


_AVOIDS = {"dyck_star": "DUD", "grand_dyck_star": "DUD", "grand_dyck_udu_free": "UDU"}


def _rule(family: str, n: int) -> tuple[str | None, bool]:
    """The family's pattern (or None) and whether it keeps to Dyck words, once checked."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if n < 1:
        raise ValueError("n must be positive")
    return _AVOIDS.get(family), family.startswith("dyck")


def _depth_first(n: int, pattern: str | None, dyck_only: bool) -> Iterator[str]:
    """Balanced words starting with U that never contain the pattern, U before D.

    A step is taken only if it leaves room for the rest of the word (a
    letter past n, or a Dyck word below the axis, does not) and does not
    complete the pattern.  A prefix with no step left, or a whole word,
    backs up to its last U and tries D in its place.
    """
    word = ["U"]
    ups, downs = 1, 0
    tail = "U"  # the last two steps
    tried_u = False  # whether U was already tried at the next position
    while True:
        if ups + downs < 2 * n:
            if not tried_u and ups < n and tail + "U" != pattern:
                word.append("U")
                ups += 1
                tail = tail[-1] + "U"
                continue
            if downs < (ups if dyck_only else n) and tail + "D" != pattern:
                word.append("D")
                downs += 1
                tail = tail[-1] + "D"
                tried_u = False
                continue
        else:
            yield "".join(word)
        while word.pop() == "D":
            downs -= 1
        if not word:
            return
        ups -= 1
        tail = "".join(word[-2:])
        tried_u = True


def enumerate_family(family: str, n: int) -> Iterator[str]:
    """The words of semilength n in lexicographic order with U < D.

    Family and n are checked at the call.  The words are grown step by
    step, and a word that contains the family's pattern is never built.
    """
    return _depth_first(n, *_rule(family, n))


def count_family(family: str, n: int) -> int:
    """The number of words enumerate_family yields, by a transfer count over the steps.

    There is one list of prefix counts per tail (the last two steps),
    indexed by the U count, and every word starts with U.  A step is
    taken unless it overdraws the word (a letter past n, or a Dyck word
    below the axis) or completes the family's pattern, so each of the 2n
    steps moves a few whole lists and no word is built.
    """
    pattern, dyck_only = _rule(family, n)
    states = {"U": [0, 1] + [0] * (n - 1)}  # tail -> prefixes by U count
    for length in range(1, 2 * n):
        # D keeps the length - ups D steps below n, and below ups in a Dyck
        # word, so it is open to the prefixes with least_d U steps or more
        least_d = length // 2 + 1 if dyck_only else max(length - n + 1, 0)
        grown: dict[str, list[int]] = {}
        for tail, ways in states.items():
            for step in "UD":
                if tail + step != pattern:
                    if step == "U":
                        moved = [0, *ways[:-1]]  # the prefixes with n U steps take none
                    else:
                        moved = [0] * least_d + ways[least_d:]
                    key = tail[-1] + step
                    grown[key] = list(map(add, grown[key], moved)) if key in grown else moved
        states = grown
    return sum(map(sum, states.values()))
