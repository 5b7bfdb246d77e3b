"""Reference values for the benchmark, computed without the code under test.

Counts come from closed formulas; word statistics come from one direct
scan of the step word.  Nothing here imports heapdyck.
"""

from __future__ import annotations

from math import comb


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def motzkin(limit: int) -> list[int]:
    """Motzkin numbers M_0..M_limit by their three-term recurrence."""
    out = [1, 1]
    for n in range(2, limit + 1):
        out.append(((2 * n + 1) * out[-1] + (3 * n - 3) * out[-2]) // (n + 2))
    return out[: limit + 1]


def triangular_animals(n: int) -> int:
    """Directed animals of area n on the triangular lattice."""
    return comb(2 * n - 1, n)


def square_animals(n: int) -> int:
    """Directed animals of area n on the square lattice."""
    return sum(comb(n - 1, k) * comb(k, k // 2) for k in range(n))


def star_multisets(n: int, k: int) -> int:
    """Size-n multisets over {1..k} with no two consecutive values.

    Choose j distinct values with no two adjacent, C(k-j+1, j) ways, then
    give them multiplicities summing to n, C(n-1, j-1) ways.
    """
    if n == 0:
        return 0
    return sum(comb(k - j + 1, j) * comb(n - 1, j - 1) for j in range(1, min(n, k + 1) + 1))


def no_single_multisets(n: int, k: int) -> int:
    """Size-n multisets over {1..k} where each value below k occurs 0 or >= 2 times.

    Choose the j values below k that occur, C(k-1, j) ways; each takes two
    copies and the n-2j leftovers spread over those j values and k,
    C(n-j, j) ways.
    """
    if k == 0:
        return 0
    return sum(comb(k - 1, j) * comb(n - j, j) for j in range(n // 2 + 1))


def staircase(values: tuple[int, ...], bound: int) -> str:
    """U^{v1} D U^{v2-v1} D ... D U^{bound-vn}."""
    out = []
    prev = 0
    for v in values:
        out.append("U" * (v - prev) + "D")
        prev = v
    out.append("U" * (bound - prev))
    return "".join(out)


def staircase_values(word: str) -> tuple[int, ...]:
    """Inverse of staircase: each D records how many U steps precede it."""
    ups = 0
    values = []
    for step in word:
        if step == "U":
            ups += 1
        else:
            values.append(ups)
    return tuple(values)


def multiset_text(values: tuple[int, ...], bound: int) -> str:
    body = ",".join(map(str, values))
    return body if bound == len(values) else f"{body}|k={bound}"


def word_profile(word: str) -> dict:
    """Statistics of a grand-Dyck word from a single left-to-right scan.

    A crossing is an interior zero whose two neighbouring steps agree; the
    modified height of a point is |y| minus the crossings strictly left of it.
    """
    y = 0
    low = 0
    crossings = 0
    height_max = 0
    for x, step in enumerate(word):
        y += 1 if step == "U" else -1
        low = min(low, y)
        height_max = max(height_max, abs(y) - crossings)
        if y == 0 and x + 1 < len(word) and word[x + 1] == step:
            crossings += 1
    return {
        "semilength": word.count("U"),
        "cross": crossings,
        "height_max": height_max,
        "dud": sum(1 for i in range(len(word) - 2) if word[i : i + 3] == "DUD"),
        "udu": sum(1 for i in range(len(word) - 2) if word[i : i + 3] == "UDU"),
        "dyck": low >= 0,
    }


def transport_problems(ref: dict, heap_stats, path_stats, multiset_stats) -> list[str]:
    """Compare the three statistics records with the word's reference values.

    area = semilength = length, lw = cross, diag = DUD = adj,
    rw = height_max, and width = cross + height_max.
    """
    expect = {
        "area": (heap_stats.area, ref["semilength"]),
        "semilength": (path_stats.semilength, ref["semilength"]),
        "length": (multiset_stats.length, ref["semilength"]),
        "lw": (heap_stats.lw, ref["cross"]),
        "path cross": (path_stats.cross, ref["cross"]),
        "multiset cross": (multiset_stats.cross, ref["cross"]),
        "diag": (heap_stats.diag, ref["dud"]),
        "dud": (path_stats.dud_count, ref["dud"]),
        "adj": (multiset_stats.adj, ref["dud"]),
        "rw": (heap_stats.rw, ref["height_max"]),
        "height_max": (path_stats.height_max, ref["height_max"]),
        "width": (heap_stats.width, ref["cross"] + ref["height_max"]),
    }
    return [f"{name} {got} != {want}" for name, (got, want) in expect.items() if got != want]
