"""Plain-text and SVG pictures of the four object kinds.

Output is deterministic: fixed colours, fixed ordering, no timestamps.
An ASCII picture is drawn one row at a time, from the (position, glyph)
pairs gathered for each row in one pass over the object: the work done in
Python is linear in the object, and the joins that pad the rows with
blanks are linear in the output, whatever the bounding box.
SVG uses 20-unit cells with the mathematical origin at the bottom left.
"""

from __future__ import annotations

from . import bijections, heaps, multisets, paths

CELL = 20
PAD = 10

Cells = list[tuple[int, str]]  # (position, glyph) pairs of one row, left to right


def _picture(rows: list[Cells]) -> str:
    """Rows given bottom first, drawn top first, each with no trailing blanks."""
    lines = []
    for cells in reversed(rows):
        parts = []
        at = 0
        for x, glyph in cells:
            parts.append(" " * (x - at))
            parts.append(glyph)
            at = x + len(glyph)
        lines.append("".join(parts))
    return "\n".join(lines)


def _svg_open(width: int, height: int) -> list[str]:
    w = width + 2 * PAD
    h = height + 2 * PAD
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect x="0" y="0" width="{w}" height="{h}" fill="white"/>',
    ]


def _xy(x: float, y: float, height: int) -> tuple[float, float]:
    # flip: svg y grows downward, ours grows upward
    return PAD + x * CELL, PAD + height - y * CELL


def path_ascii(word: str) -> str:
    paths.check_steps(word)
    rows: dict[int, Cells] = {}  # by the height of the cell a step crosses
    y = 0
    for x, step in enumerate(word):
        if step == "U":
            rows.setdefault(y, []).append((x, "/"))
            y += 1
        else:
            y -= 1
            rows.setdefault(y, []).append((x, "\\"))
    return _picture([rows[y] for y in range(min(rows), max(rows) + 1)])


def path_svg(word: str) -> str:
    ys = paths.heights(word)
    top, bottom = max(ys), min(ys)
    height = (top - bottom) * CELL
    out = _svg_open(len(word) * CELL, height)
    ax0 = _xy(0, -bottom, height)
    ax1 = _xy(len(word), -bottom, height)
    out.append(
        f'<line x1="{ax0[0]}" y1="{ax0[1]}" x2="{ax1[0]}" y2="{ax1[1]}" '
        'stroke="#999" stroke-dasharray="4 4"/>'
    )
    pts = " ".join([f"{PAD + x * CELL},{PAD + (top - y) * CELL}" for x, y in enumerate(ys)])
    out.append(f'<polyline points="{pts}" fill="none" stroke="black" stroke-width="2"/>')
    out.append("</svg>")
    return "\n".join(out)


def heap_ascii(h: heaps.Heap) -> str:
    heaps.require_heap(h)
    lo = h.min_column()
    rows: list[Cells] = []
    for col, level in h.dimers:  # by (level, column), and no level is empty
        if level == len(rows):
            rows.append([])
        rows[level].append((2 * (col - lo), "[__]"))
    return _picture(rows)


def heap_svg(h: heaps.Heap) -> str:
    heaps.require_heap(h)
    lo = h.min_column()
    hi = h.max_column()
    top = h.dimers[-1][1]  # the dimers are in (level, column) order
    height = (top + 1) * CELL
    out = _svg_open((hi - lo + 2) * CELL, height)
    for col, level in sorted(h.dimers):
        x, y = _xy(col - lo, level + 1, height)
        out.append(
            f'<rect x="{x}" y="{y}" width="{2 * CELL}" height="{CELL}" '
            'fill="#ddd" stroke="black"/>'
        )
    if lo < 0:
        x, y0 = _xy(-lo, 1, height)
        _, y1 = _xy(-lo, 0, height)
        out.append(
            f'<line x1="{x}" y1="{y0}" x2="{x}" y2="{y1}" '
            'stroke="#999" stroke-dasharray="4 4"/>'
        )
    out.append("</svg>")
    return "\n".join(out)


def animal_ascii(a: heaps.PointAnimal) -> str:
    rows: list[Cells] = [[] for _ in range(max(y for _, y in a.points) + 1)]
    for x, y in sorted(a.points):
        rows[y].append((2 * x, "o"))
    return _picture(rows)


def animal_svg(a: heaps.PointAnimal) -> str:
    top = max(y for _, y in a.points)
    wide = max(x for x, _ in a.points)
    height = (top + 1) * CELL
    out = _svg_open((wide + 1) * CELL, height)
    r = CELL // 3
    for x, y in sorted(a.points):
        cx, cy = _xy(x + 0.5, y + 0.5, height)
        out.append(f'<circle cx="{cx}" cy="{cy}" r="{r}" fill="black"/>')
    out.append("</svg>")
    return "\n".join(out)


def multiset_ascii(m: multisets.Multiset) -> str:
    rows: list[Cells] = [[] for _ in range(m.bound)]  # rows[v - 1] holds value v
    for i, v in enumerate(m.values, start=1):
        x = 2 * (i - 1)
        if v != i and i <= m.bound:
            rows[i - 1].append((x, "."))  # the diagonal cell (i, i), left free
        rows[v - 1].append((x, "o"))
    return _picture(rows)


def multiset_svg(m: multisets.Multiset) -> str:
    n = len(m.values)
    k = m.bound
    height = k * CELL
    out = _svg_open(n * CELL, height)
    for gx in range(n + 1):
        x0, y0 = _xy(gx, 0, height)
        _, y1 = _xy(gx, k, height)
        out.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="#eee"/>')
    for gy in range(k + 1):
        x0, y0 = _xy(0, gy, height)
        x1, _ = _xy(n, gy, height)
        out.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="#eee"/>')
    word = bijections.multiset_to_path(m)
    x = y = 0
    pts = ["{},{}".format(*_xy(0, 0, height))]
    for step in word:
        if step == "U":
            y += 1
        else:
            x += 1
        pts.append("{},{}".format(*_xy(x, y, height)))
    out.append(
        f'<polyline points="{" ".join(pts)}" fill="none" stroke="#999" '
        'stroke-width="2"/>'
    )
    for i, v in enumerate(m.values, start=1):
        cx, cy = _xy(i, v, height)
        out.append(f'<circle cx="{cx}" cy="{cy}" r="4" fill="black"/>')
    out.append("</svg>")
    return "\n".join(out)


FORMATS = ("ascii", "svg")
# kind -> its drawing in each of the FORMATS
_DRAW = {
    "multiset": (multiset_ascii, multiset_svg),
    "path": (path_ascii, path_svg),
    "heap": (heap_ascii, heap_svg),
    "animal": (animal_ascii, animal_svg),
}
KINDS = tuple(_DRAW)


def render(kind: str, obj, fmt: str = "ascii") -> str:
    # tuple membership, so that an unhashable kind or format is unknown, not a TypeError
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    return _DRAW[kind][FORMATS.index(fmt)](obj)
