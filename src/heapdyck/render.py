"""Plain-text and SVG pictures of the four object kinds.

Output is deterministic: fixed colours, fixed ordering, no timestamps.
SVG uses 20-unit cells with the mathematical origin at the bottom left.
"""

from __future__ import annotations

from . import bijections, heaps, multisets, paths

KINDS = ("multiset", "path", "heap", "animal")

CELL = 20
PAD = 10


def _grid(width: int, height: int) -> list[list[str]]:
    return [[" "] * width for _ in range(height)]


def _rows_to_text(rows: list[list[str]]) -> str:
    return "\n".join("".join(r).rstrip() for r in rows)


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
    ys = paths.heights(word)
    cells = [ys[i] if step == "U" else ys[i + 1] for i, step in enumerate(word)]
    top, bottom = max(cells), min(cells)
    rows = _grid(len(word), top - bottom + 1)
    for i, (step, cell) in enumerate(zip(word, cells)):
        rows[top - cell][i] = "/" if step == "U" else "\\"
    return _rows_to_text(rows)


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
    pts = " ".join(
        "{},{}".format(*_xy(x, y - bottom, height)) for x, y in enumerate(ys)
    )
    out.append(f'<polyline points="{pts}" fill="none" stroke="black" stroke-width="2"/>')
    out.append("</svg>")
    return "\n".join(out)


def heap_ascii(h: heaps.Heap) -> str:
    lo = h.min_column()
    hi = h.max_column()
    top = max(d.level for d in h.dimers)
    rows = _grid(2 * (hi - lo) + 4, top + 1)
    for d in h.dimers:
        at = 2 * (d.column - lo)
        rows[top - d.level][at : at + 4] = list("[__]")
    return _rows_to_text(rows)


def heap_svg(h: heaps.Heap) -> str:
    lo = h.min_column()
    hi = h.max_column()
    top = max(d.level for d in h.dimers)
    height = (top + 1) * CELL
    out = _svg_open((hi - lo + 2) * CELL, height)
    for d in sorted(h.dimers):
        x, y = _xy(d.column - lo, d.level + 1, height)
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
    top = max(y for _, y in a.points)
    wide = max(x for x, _ in a.points)
    rows = _grid(2 * wide + 1, top + 1)
    for x, y in a.points:
        rows[top - y][2 * x] = "o"
    return _rows_to_text(rows)


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
    n = len(m.values)
    k = m.bound
    rows = _grid(2 * n - 1, k)
    for i, v in enumerate(m.values, start=1):
        rows[k - v][2 * (i - 1)] = "o"
    for i in range(1, min(n, k) + 1):
        if rows[k - i][2 * (i - 1)] == " ":
            rows[k - i][2 * (i - 1)] = "."
    return _rows_to_text(rows)


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


_ASCII = {
    "multiset": multiset_ascii,
    "path": path_ascii,
    "heap": heap_ascii,
    "animal": animal_ascii,
}
_SVG = {
    "multiset": multiset_svg,
    "path": path_svg,
    "heap": heap_svg,
    "animal": animal_svg,
}


def render(kind: str, obj, fmt: str = "ascii") -> str:
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if fmt == "ascii":
        return _ASCII[kind](obj)
    if fmt == "svg":
        return _SVG[kind](obj)
    raise ValueError(f"unknown format {fmt!r}")
