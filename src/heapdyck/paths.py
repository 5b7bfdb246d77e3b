"""Words over {U, D} viewed as lattice paths with unit up and down steps.

A word of length L traces the points (x, y_x) for x = 0..L.  Grand-Dyck
words are balanced and start with U; Dyck words additionally never dip
below the axis.  The signed statistics treat axis crossings specially: a
crossing is an interior zero where the incoming and outgoing steps agree,
and each crossing lowers the "modified height" of everything to its right
by one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import HeapdyckError

FAMILIES = ("dyck", "dyck_star", "grand_dyck", "grand_dyck_star", "grand_dyck_udu_free")


class EmptyWordError(HeapdyckError, ValueError):
    pass


class BadCharError(HeapdyckError, ValueError):
    pass


class NotGrandDyckError(HeapdyckError, ValueError):
    pass


@dataclass(frozen=True)
class PathStats:
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


def _gen_balanced(n: int, dyck_only: bool) -> Iterator[str]:
    """Balanced words starting with U, in lexicographic order (U < D), from U^n D^n.

    The next word turns into D the rightmost U after the first step that
    has a D after it (for Dyck words, also one starting at height 1 or
    more), and then puts all the U steps after it before all the D steps.
    """
    if n < 1:
        raise ValueError("n must be positive")
    word = ["U"] * n + ["D"] * n
    while True:
        yield "".join(word)
        ups = downs = 0  # steps right of i
        for i in range(2 * n - 1, 0, -1):
            if word[i] == "D":
                downs += 1
            elif downs and (not dyck_only or downs - ups > 1):
                word[i:] = ["D"] + ["U"] * (ups + 1) + ["D"] * (downs - 1)
                break
            else:
                ups += 1
        else:
            return


def _gen_avoiding(n: int, pattern: str, dyck_only: bool) -> Iterator[str]:
    """Balanced words starting with U that never contain a three-step pattern.

    Depth first, U before D, so in lexicographic order.  A step that
    completes the pattern is never taken.  A prefix can still end where
    the one letter left would complete it; the search backs up from there
    at once, one step deep.
    """
    if n < 1:
        raise ValueError("n must be positive")
    word: list[str] = []
    ups = downs = 0

    def allowed(step: str) -> bool:
        if step == "U":
            if ups == n:
                return False
        elif not word or downs == (ups if dyck_only else n):
            return False
        return "".join(word[-2:]) + step != pattern

    while True:
        while len(word) < 2 * n:
            step = "U" if allowed("U") else "D" if allowed("D") else None
            if step is None:
                break
            word.append(step)
            if step == "U":
                ups += 1
            else:
                downs += 1
        else:
            yield "".join(word)
        # back up to the last U that may turn into a D
        while word:
            if word.pop() == "D":
                downs -= 1
                continue
            ups -= 1
            if allowed("D"):
                word.append("D")
                downs += 1
                break
        else:
            return


_AVOIDS = {"dyck_star": "DUD", "grand_dyck_star": "DUD", "grand_dyck_udu_free": "UDU"}


def enumerate_family(family: str, n: int) -> Iterator[str]:
    """Yield the words of semilength n in lexicographic order with U < D.

    The pattern-avoiding families are grown step by step and never build
    a word that contains the pattern.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    dyck_only = family.startswith("dyck")
    if family in _AVOIDS:
        yield from _gen_avoiding(n, _AVOIDS[family], dyck_only)
    else:
        yield from _gen_balanced(n, dyck_only)


def count_family(family: str, n: int) -> int:
    """The number of words enumerate_family yields, by a transfer count over the steps.

    A state is the U count so far and the last two steps, and every word
    starts with U.  A step is taken unless it overdraws the word (a letter
    past n, or a Dyck word below the axis) or completes the family's
    pattern, so the count walks O(n^2) states and builds no word.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if n < 1:
        raise ValueError("n must be positive")
    pattern = _AVOIDS.get(family)
    dyck_only = family.startswith("dyck")
    states = {(1, "U"): 1}  # (U steps, last two steps) -> prefixes
    for length in range(1, 2 * n):
        grown: dict[tuple[int, str], int] = {}
        for (ups, tail), ways in states.items():
            downs = length - ups
            for step, room in (("U", ups < n), ("D", downs < (ups if dyck_only else n))):
                if room and tail + step != pattern:
                    key = (ups + (step == "U"), tail[-1] + step)
                    grown[key] = grown.get(key, 0) + ways
        states = grown
    return sum(states.values())
