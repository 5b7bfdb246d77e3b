"""Command-line surface.

Exit codes: 0 on success, 1 when a verification check fails, 2 on
usage or parse errors, on an output file that cannot be written and on
every other library error (a HeapdyckError), such as a heap the grammar
cannot factor or builds twice.  Data goes to stdout, diagnostics to
stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bijections, counting, heaps, multisets, paths, render, series, verify
from .errors import HeapdyckError

_MS_FAMILIES = {f"multiset-{f}".replace("_", "-"): f for f in multisets.FAMILIES}
_PATH_FAMILIES = {f.replace("_", "-"): f for f in paths.FAMILIES}
_HEAP_FAMILIES = {f"heap-{klass}": klass for klass in counting.CLASSES}
_ANIMAL_FAMILIES = {f"animal-{lattice}": lattice for lattice in heaps.LATTICES}
# (lattice, subdiagonal) -> the heap class its animals map onto
_ANIMAL_CLASSES = {
    ("triangular", False): "T",
    ("triangular", True): "Ts",
    ("square", False): "Q",
    ("square", True): "Qs",
}
FAMILIES = (
    *_MS_FAMILIES,
    *_PATH_FAMILIES,
    *_HEAP_FAMILIES,
    *_ANIMAL_FAMILIES,
)
REPRESENTATIONS = ("multiset", "path", "heap")
STAT_KINDS = ("multiset", "path", "heap", "animal")


class TableCheckError(HeapdyckError, RuntimeError):
    """A table1 entry is not an integer or disagrees with the star-multiset count."""


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="heapdyck")
    sub = top.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("enumerate", help="list every object of a family at size n")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--k", type=int, help="value bound, multiset families only")
    p.add_argument("--count-only", action="store_true")
    p.add_argument(
        "--subdiagonal", action="store_true", help="animal families only"
    )

    p = sub.add_parser("map", help="convert an object between representations")
    p.add_argument("--from", dest="src", required=True, choices=REPRESENTATIONS)
    p.add_argument("--to", dest="dst", required=True, choices=REPRESENTATIONS)
    p.add_argument("--input", required=True)

    p = sub.add_parser("stats", help="statistics of one object")
    p.add_argument("--kind", required=True, choices=STAT_KINDS)
    p.add_argument("--input", required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("series", help="print coefficients of a named series")
    p.add_argument("--name", required=True, choices=series.CLOSED_FORMS)
    p.add_argument("--order", required=True, type=int)

    p = sub.add_parser("table1", help="counts of star multisets by size and bound")
    p.add_argument("--max-n", type=int, default=9)
    p.add_argument("--max-k", type=int, default=6)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=(*verify.SUITES, "all"))
    p.add_argument("--max-n", type=int)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("render", help="draw one object")
    p.add_argument("--kind", required=True, choices=render.KINDS)
    p.add_argument("--format", dest="fmt", choices=("ascii", "svg"), default="ascii")
    p.add_argument("--input", required=True)
    p.add_argument("--output", help="write to a file instead of stdout")

    return top


def _parse_object(kind: str, token: str):
    if kind == "multiset":
        return multisets.parse(token)
    if kind == "path":
        return paths.parse(token)
    if kind == "heap":
        return heaps.parse_heap(token)
    return heaps.parse_points(token)


def _object_text(kind: str, obj) -> str:
    if kind == "multiset":
        return multisets.to_text(obj)
    if kind == "path":
        return obj
    if kind == "heap":
        return heaps.to_text(obj)
    return heaps.points_to_text(obj)


def _convert(src: str, dst: str, obj):
    if src == dst:
        return obj
    if src == "multiset":
        word = bijections.multiset_to_path(obj)
        return word if dst == "path" else bijections.path_to_heap(word)
    if src == "heap":
        word = bijections.heap_to_path(obj)
        return word if dst == "path" else bijections.path_to_multiset(word)
    return (
        bijections.path_to_multiset(obj)
        if dst == "multiset"
        else bijections.path_to_heap(obj)
    )


def _profile_text(profile: dict[int, int]) -> str:
    return " ".join(f"{k}:{profile[k]}" for k in sorted(profile))


def _stats_payload(kind: str, obj) -> dict:
    if kind == "multiset":
        s = multisets.stats(obj)
        return {
            "length": s.length,
            "cross": s.cross,
            "adj": s.adj,
            "gapProfile": list(s.gap_profile),
            "gap": s.gap,
            "deltaProfile": list(s.delta_profile),
        }
    if kind == "path":
        s = paths.height_stats(obj)
        return {
            "semilength": s.semilength,
            "cross": s.cross,
            "heightMax": s.height_max,
            "nbuProfile": dict(sorted(s.nbu_profile.items())),
            "dEndHeights": list(s.d_end_heights),
            "dudCount": s.dud_count,
            "uduCount": s.udu_count,
        }
    h = obj if kind == "heap" else heaps.animal_to_heap(obj)
    s = heaps.heap_stats(h)
    return {
        "area": s.area,
        "lw": s.lw,
        "rw": s.rw,
        "width": s.width,
        "diag": s.diag,
        "nbpProfile": dict(sorted(s.nbp_profile.items())),
    }


def _stats_lines(payload: dict) -> list[str]:
    out = []
    for key, value in payload.items():
        if isinstance(value, dict):
            out.append(f"{key}\t{_profile_text(value)}")
        elif isinstance(value, list):
            out.append(f"{key}\t{','.join(str(v) for v in value)}")
        else:
            out.append(f"{key}\t{value}")
    return out


def _do_enumerate(args) -> int:
    if args.k is not None and args.family not in _MS_FAMILIES:
        raise ValueError("--k applies to multiset families only")
    if args.subdiagonal and args.family not in _ANIMAL_FAMILIES:
        raise ValueError("--subdiagonal applies to animal families only")
    if args.family in _MS_FAMILIES:
        family = _MS_FAMILIES[args.family]
        if args.count_only:
            print(multisets.count_family(family, args.n, args.k))
            return 0
        items = [multisets.to_text(m) for m in multisets.enumerate_family(family, args.n, args.k)]
    elif args.family in _PATH_FAMILIES:
        family = _PATH_FAMILIES[args.family]
        if args.count_only:
            print(paths.count_family(family, args.n))
            return 0
        items = list(paths.enumerate_family(family, args.n))
    elif args.family in _HEAP_FAMILIES:
        klass = _HEAP_FAMILIES[args.family]
        if args.count_only:
            print(bijections.grammar_count(args.n, klass))
            return 0
        items = sorted(heaps.to_text(h) for h in bijections.grammar_enumerate(args.n, klass))
    else:
        lattice = _ANIMAL_FAMILIES[args.family]
        if args.count_only:
            print(bijections.grammar_count(args.n, _ANIMAL_CLASSES[lattice, args.subdiagonal]))
            return 0
        found = heaps.animal_enumerate_bruteforce(args.n, lattice, subdiagonal=args.subdiagonal)
        items = sorted(heaps.points_to_text(a) for a in found)
    for item in items:
        print(item)
    return 0


def _do_map(args) -> int:
    obj = _parse_object(args.src, args.input)
    print(_object_text(args.dst, _convert(args.src, args.dst, obj)))
    return 0


def _do_stats(args) -> int:
    payload = _stats_payload(args.kind, _parse_object(args.kind, args.input))
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in _stats_lines(payload):
            print(line)
    return 0


def _do_series(args) -> int:
    if args.order < 1:
        raise ValueError("--order must be at least 1")
    print(series.closed_form(args.name, args.order).format_terms(start=1))
    return 0


def table1_lines(max_n: int, max_k: int) -> list[str]:
    """Rows k = 1..max_k of star-multiset counts, columns n = 1..max_n.

    Entries come from the bivariate table and are cross-checked against
    the transfer count of star multisets at n, k <= 9.
    """
    if max_n < 1 or max_k < 1:
        raise ValueError("table bounds must be at least 1")
    table = series.bivariate("f", max_n, max_k)
    lines = []
    for k in range(1, max_k + 1):
        row = []
        for n in range(1, max_n + 1):
            c = table.coefficient(n, k)
            if c.denominator != 1:
                raise TableCheckError(f"non-integer table entry at n={n}, k={k}")
            value = int(c)
            if n <= 9 and k <= 9 and multisets.count_family("star", n, k) != value:
                raise TableCheckError(
                    f"table entry n={n}, k={k} disagrees with the star-multiset count"
                )
            row.append(str(value))
        lines.append(" ".join(row))
    return lines


def _do_table1(args) -> int:
    for line in table1_lines(args.max_n, args.max_k):
        print(line)
    return 0


def _do_verify(args) -> int:
    if args.suite == "all":
        reports = verify.run_all(args.max_n)
    else:
        reports = [verify.run_suite(args.suite, args.max_n)]
    code = 0 if all(r.ok for r in reports) else 1
    if args.json:
        payload = {"reports": [r.to_payload() for r in reports], "exitCode": code}
        print(json.dumps(payload, sort_keys=True))
    else:
        for r in reports:
            print(f"suite {r.suite} (n <= {r.max_n})")
            for line in r.format_lines():
                print(line)
    return code


def _do_render(args) -> int:
    obj = _parse_object(args.kind, args.input)
    text = render.render(args.kind, obj, args.fmt)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        print(text)
    return 0


_DISPATCH = {
    "enumerate": _do_enumerate,
    "map": _do_map,
    "stats": _do_stats,
    "series": _do_series,
    "table1": _do_table1,
    "verify": _do_verify,
    "render": _do_render,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _DISPATCH[args.verb](args)
    except (ValueError, HeapdyckError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
