"""Command-line surface.

Each verb is one row of `_VERBS`: its help line, the function that adds
its arguments and its handler.  A command builds only its own verb's
parser.  Help, an unknown verb, an option before the verb and stray
arguments go through the full parser, built from the same rows, so that
usage lines, help and error messages are the full parser's.

Exit codes: 0 on success, 1 when a verification check fails, 2 on
usage or parse errors, on a size past its reach, on output that cannot
be written (a file, or a stdout its reader closed), on running out of
memory and on every other library error (a HeapdyckError).  Data goes to
stdout, as it is made, and diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import namedtuple
from typing import Iterator

from . import bijections, heaps, multisets, paths, render, series, verify
from .errors import HeapdyckError

_MS_FAMILIES = {f"multiset-{f}".replace("_", "-"): f for f in multisets.FAMILIES}
# family -> the kind it lists, the word family whose images it lists, and the
# heap class it counts as (None: it counts its words); animal families in name order
_WORD_FAMILIES = {
    **{f.replace("_", "-"): ("path", f, None) for f in paths.FAMILIES},
    **{f"heap-{r.klass}": ("heap", r.words, r.klass) for r in bijections.DIAGRAM if r.klass},
    **dict(sorted(
        (f"animal-{r.lattice}{'-subdiagonal' * r.subdiagonal}", ("animal", r.words, r.klass))
        for r in bijections.DIAGRAM if r.klass
    )),
}
# a word family or heap class -> the base b of the bound b^n on its counts at size n
_BASES = {key: r.base for r in bijections.DIAGRAM for key in (r.words, r.klass) if key}
FAMILIES = (*_MS_FAMILIES, *_WORD_FAMILIES)
# how the command line reads, prints and measures a kind, and maps it through its word
_Kind = namedtuple("_Kind", "parse text stats to_word from_word")
# A path is its own word.  The bijections are looked up at the call, so
# that a patched one is the one that runs.
_KINDS = {
    "multiset": _Kind(
        multisets.parse, multisets.to_text, multisets.stats,
        lambda m: bijections.multiset_to_path(m), lambda w: bijections.path_to_multiset(w),
    ),
    "path": _Kind(paths.parse, str, paths.height_stats, str, str),
    "heap": _Kind(
        heaps.parse_heap, heaps.to_text, heaps.heap_stats,
        lambda h: bijections.heap_to_path(h), lambda w: bijections.path_to_heap(w),
    ),
    "animal": _Kind(
        heaps.parse_points, heaps.points_to_text,
        lambda a: heaps.heap_stats(heaps.animal_to_heap(a)),
        lambda a: bijections.heap_to_path(heaps.animal_to_heap(a)),
        lambda w: heaps.heap_to_animal(bijections.path_to_heap(w)),
    ),
}


def _camel(name: str) -> str:
    head, *rest = name.split("_")
    return head + "".join(part.capitalize() for part in rest)


def _stats_payload(kind: str, obj) -> dict:
    """The kind's stats record, keyed by its camel-cased field names in field order."""
    payload = {}
    for name, value in _KINDS[kind].stats(obj)._asdict().items():
        if isinstance(value, dict):
            value = dict(sorted(value.items()))
        elif isinstance(value, tuple):
            value = list(value)
        payload[_camel(name)] = value
    return payload


def _stats_lines(payload: dict) -> list[str]:
    out = []
    for key, value in payload.items():
        if isinstance(value, dict):
            value = " ".join(f"{k}:{v}" for k, v in value.items())
        elif isinstance(value, list):
            value = ",".join(str(v) for v in value)
        out.append(f"{key}\t{value}")
    return out


def _enumerate_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True, choices=FAMILIES)
    limit = _digit_reach(10)
    reach = (
        f"{_digit_reach(4)} for dyck, grand-dyck and their heaps and animals, "
        f"{_digit_reach(3)} for the other word, heap and animal families; multisets "
        f"while C(n + k - 1, n) has at most {limit} digits" if limit else "unlimited"
    )
    p.add_argument("--n", required=True, type=int, help=f"size, listed or counted; reach: {reach}")
    p.add_argument("--k", type=int, help="value bound, multiset families only")
    p.add_argument("--count-only", action="store_true", help="print the count")


def _check_count_reach(family: str, n: int, k: int | None) -> None:
    """Refuse a count that may not print, and a listing of as many objects, which
    would not end, before any work.  The words of a family, and the heaps and animals
    counted as them, number less than base^n, their base in `bijections.DIAGRAM` (4 for
    dyck and grand-dyck, else 3), and the multisets of n values from 1..k at most
    C(n + k - 1, n), whose digits lgamma estimates."""
    limit = _digit_reach(10)
    if not limit:
        return
    if family in _MS_FAMILIES:
        k = n if k is None else k
        if n >= 1 and k >= 1:
            log10 = (math.lgamma(n + k) - math.lgamma(n + 1) - math.lgamma(k)) / math.log(10)
            if log10 >= limit:
                raise ValueError(
                    f"--n {n} is beyond the count reach of {family} at k = {k}: "
                    f"C(n + k - 1, n) has {int(log10) + 1} digits, past the limit of {limit}"
                )
        return
    reach = _digit_reach(_BASES[_WORD_FAMILIES[family][1]])
    if n > reach:
        raise ValueError(f"--n {n} is beyond the count reach of {family} ({reach})")


def _do_enumerate(args) -> int:
    if args.k is not None and args.family not in _MS_FAMILIES:
        raise ValueError("--k applies to multiset families only")
    _check_count_reach(args.family, args.n, args.k)
    if args.family in _MS_FAMILIES:
        family = _MS_FAMILIES[args.family]
        if args.count_only:
            print(multisets.count_family(family, args.n, args.k))
            return 0
        items = map(multisets.to_text, multisets.enumerate_family(family, args.n, args.k))
    else:
        kind, words, klass = _WORD_FAMILIES[args.family]
        if args.count_only:
            if klass is None:
                print(paths.count_family(words, args.n))
            else:
                print(bijections.grammar_count(args.n, klass))
            return 0
        text, from_word = _KINDS[kind].text, _KINDS[kind].from_word
        items = map(text, map(from_word, paths.enumerate_family(words, args.n)))
    for item in items:
        print(item)
    return 0


def _map_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--from", dest="src", required=True, choices=tuple(_KINDS))
    p.add_argument("--to", dest="dst", required=True, choices=tuple(_KINDS))
    p.add_argument("--input", required=True)


def _do_map(args) -> int:
    src, dst = args.src, args.dst
    obj = _KINDS[src].parse(args.input)
    if src != dst:
        obj = _KINDS[dst].from_word(_KINDS[src].to_word(obj))
    print(_KINDS[dst].text(obj))
    return 0


def _stats_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", required=True, choices=tuple(_KINDS))
    p.add_argument("--input", required=True)
    p.add_argument("--json", action="store_true")


def _do_stats(args) -> int:
    payload = _stats_payload(args.kind, _KINDS[args.kind].parse(args.input))
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in _stats_lines(payload):
            print(line)
    return 0


def _digit_reach(base: int) -> int | None:
    """The largest n at which every int below base^n prints within the int-to-str digit
    limit: the limit itself for base 10.  None when this interpreter has no limit."""
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return int(digits / math.log10(base)) if digits else None


def _series_reach(name: str) -> int | None:
    """The largest order `series` prints: Ts_n, T_n < 4^n and Qs_n, Q_n = Mdiag_n < 3^n
    (`bijections.DIAGRAM`) print within their digit reach, and Mdiag's table rows, computed
    one at a time in about 20 MB, one prefix sum and one whole-row pass each, take about
    2 s at order 3000: their time sets that reach."""
    reach = _digit_reach(_BASES["Q" if name == "Mdiag" else name])
    return min(reach or 3000, 3000) if name == "Mdiag" else reach


def _series_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--name", required=True, choices=series.CLOSED_FORMS)
    reach = ", ".join(f"{x} {_series_reach(x) or 'unlimited'}" for x in series.CLOSED_FORMS)
    p.add_argument("--order", required=True, type=int, help=f"reach: {reach}")


def _do_series(args) -> int:
    if args.order < 1:
        raise ValueError("--order must be at least 1")
    reach = _series_reach(args.name)
    if reach is not None and args.order > reach:
        raise ValueError(f"--order {args.order} is beyond the reach of {args.name} ({reach})")
    print(series.closed_form(args.name, args.order).format_terms(start=1))
    return 0


TABLE1_REACH = 1600  # of --max-n and --max-k: 1600 x 1600 took 7.4 s CPU, 0.47 GB (2 cores)


def table1_lines(max_n: int, max_k: int) -> Iterator[str]:
    """Rows k = 1..max_k of star-multiset counts, columns n = 1..max_n.

    The bounds are checked and the bivariate table f is expanded at the call;
    line k is made from column k of the table's rows when it is read.
    """
    if max_n < 1 or max_k < 1:
        raise ValueError("table bounds must be at least 1")
    for flag, bound in (("--max-n", max_n), ("--max-k", max_k)):
        if bound > TABLE1_REACH:
            raise ValueError(f"{flag} {bound} is beyond the reach of table1 ({TABLE1_REACH})")
    rows = series.bivariate("f", max_n, max_k).rows[1:]
    return (" ".join(str(row[k]) for row in rows) for k in range(1, max_k + 1))


def _table1_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-n", type=int, default=9, help=f"reach: {TABLE1_REACH}")
    p.add_argument("--max-k", type=int, default=6, help=f"reach: {TABLE1_REACH}")


def _do_table1(args) -> int:
    for line in table1_lines(args.max_n, args.max_k):
        print(line)
    return 0


def _verify_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("suite", choices=(*verify.SUITES, "all"))
    p.add_argument("--max-n", type=int)
    p.add_argument("--json", action="store_true")


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


def _render_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", required=True, choices=render.KINDS)
    p.add_argument("--format", dest="fmt", choices=render.FORMATS, default="ascii")
    p.add_argument("--input", required=True)
    p.add_argument("--output", help="write to a file instead of stdout")


def _do_render(args) -> int:
    obj = _KINDS[args.kind].parse(args.input)
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


# verb -> its help line, the function that adds its arguments to a parser, and its handler
_Verb = namedtuple("_Verb", "help add_arguments run")
_VERBS = {
    "enumerate": _Verb(
        "list every object of a family at size n", _enumerate_arguments, _do_enumerate
    ),
    "map": _Verb("convert an object between representations", _map_arguments, _do_map),
    "stats": _Verb("statistics of one object", _stats_arguments, _do_stats),
    "series": _Verb("print coefficients of a named series", _series_arguments, _do_series),
    "table1": _Verb(
        "counts of star multisets by size and bound", _table1_arguments, _do_table1
    ),
    "verify": _Verb("run a verification suite", _verify_arguments, _do_verify),
    "render": _Verb("draw one object", _render_arguments, _do_render),
}


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="heapdyck")
    sub = top.add_subparsers(dest="verb", required=True)
    for verb, (help_line, add_arguments, _) in _VERBS.items():
        add_arguments(sub.add_parser(verb, help=help_line))
    return top


def _parse(argv: list[str]) -> tuple[str, argparse.Namespace]:
    """The verb and its arguments.  A command that starts with a verb is parsed by a
    parser of that verb alone, the same as the full parser's subparser for it.
    Anything else, and a command that leaves an argument over, goes through the full
    parser, whose usage, help and errors are then the ones printed."""
    if argv and argv[0] in _VERBS:
        verb = argv[0]
        parser = argparse.ArgumentParser(prog=f"heapdyck {verb}")
        _VERBS[verb].add_arguments(parser)
        args, rest = parser.parse_known_args(argv[1:])
        if not rest:
            return verb, args
    args = _build_parser().parse_args(argv)
    return args.verb, args


def main(argv: list[str] | None = None) -> int:
    try:
        verb, args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code = _VERBS[verb].run(args)
        sys.stdout.flush()  # a closed stdout shows here, not at exit
        return code
    except (ValueError, OverflowError, HeapdyckError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader is gone: send what is left, and the flush at exit, to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2


if __name__ == "__main__":
    sys.exit(main())
