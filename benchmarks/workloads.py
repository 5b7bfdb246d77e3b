"""The four benchmark workloads: seeded inputs, the calls each op makes, and its checks.

Every workload turns a seed into a fixed job list.  For each job,
`execute` makes the library calls (this part is timed) and `check`
compares what came back with the reference values in `oracles` (not
timed).  The library is reached only through a `Lib`, whose functions
are wrapped in spans on a traced run and bare otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from collections import Counter

import oracles
from heapdyck import bijections, cli, heaps, multisets, paths, render, series, verify


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


class Lib:
    """The public functions the workloads call, each under its layer's span name."""

    def __init__(self, tracer) -> None:
        w = tracer.wrap
        self.multiset_to_path = w("bijections.multiset_to_path", bijections.multiset_to_path)
        self.path_to_multiset = w("bijections.path_to_multiset", bijections.path_to_multiset)
        self.path_to_heap = w("bijections.path_to_heap", bijections.path_to_heap)
        self.heap_to_path = w("bijections.heap_to_path", bijections.heap_to_path)
        self.grammar_enumerate = w("bijections.grammar_enumerate", bijections.grammar_enumerate)
        self.grammar_count = w("bijections.grammar_count", bijections.grammar_count)
        self.heap_to_text = w("heaps.to_text", heaps.to_text)
        self.parse_heap = w("heaps.parse_heap", heaps.parse_heap)
        self.heap_stats = w("heaps.heap_stats", heaps.heap_stats)
        self.animal_enumerate_bruteforce = w(
            "heaps.animal_enumerate_bruteforce", heaps.animal_enumerate_bruteforce
        )
        self.height_stats = w("paths.height_stats", paths.height_stats)
        self.multiset_stats = w("multisets.stats", multisets.stats)
        # enumerate_family returns a generator: the span covers drawing it out
        self.enumerate_multisets = w(
            "multisets.enumerate_family",
            lambda family, n: list(multisets.enumerate_family(family, n)),
        )
        self.enumerate_paths = w(
            "paths.enumerate_family", lambda family, n: list(paths.enumerate_family(family, n))
        )
        self.render = w("render.render", render.render)
        self.closed_form = w("series.closed_form", series.closed_form)
        self.check_identities = w("series.check_identities", series.check_identities)
        self.bivariate = w("series.bivariate", series.bivariate)
        self.run_suite = w("verify.run_suite", verify.run_suite, case=lambda suite, max_n=None: suite)
        self.cli = w("cli.main", _run_cli, case=lambda argv: argv[0])


def _share(flags) -> float:
    flags = list(flags)
    return round(sum(flags) / len(flags), 4)


def _histogram(values) -> dict[str, int]:
    return {str(k): v for k, v in sorted(Counter(values).items())}


def _word_properties(jobs: list[dict]) -> dict:
    return {
        "dyck_share": _share(j["ref"]["dyck"] for j in jobs),
        "dud_free_share": _share(j["ref"]["dud"] == 0 for j in jobs),
        # a heap reaches a negative column, and so goes through _factor_v
        # on the way back, exactly when its word crosses the axis; every
        # op checks that, so this is also the negative-column share
        "crossing_share": _share(j["ref"]["cross"] > 0 for j in jobs),
    }


class Workload:
    """What the worker drives: jobs(rng, size), then per job prepare, execute, check."""

    def prepare(self, job) -> None:
        """Untimed set-up before each job."""


# No measured traffic mix says how often users go through cli.main rather
# than the library, so its calls are not mixed into the per-object ops,
# where a guessed share would set op_p50_ms and op_p99_ms.  Instead
# roundtrip and forward end with a fixed set of their own: CLI_OBJECTS of
# the workload's objects, drawn by the seed, each put through map, stats
# and render with the caches cleared first, as a command-line call starts
# cold.  The set counts in wall_s and in the cli.main spans only.  Fifty
# objects give each verb at least 0.03 s of busy time, far above timer
# noise, while the set stays near 1 % of roundtrip's wall_s and under a
# tenth of forward's, where mapping a long word cold is most of it.
CLI_OBJECTS = 50


class ObjectWorkload(Workload):
    """Per-object ops on seeded words, then the fixed command-line set."""

    def jobs(self, rng: random.Random, size: str) -> list[dict]:
        objects = self.objects(rng, self.SIZES[size])
        cli_set = rng.sample(objects, min(CLI_OBJECTS, len(objects)))
        return objects + [dict(job, cli=True) for job in cli_set]

    def properties(self, jobs: list[dict]) -> dict:
        objects = [j for j in jobs if not j.get("cli")]
        return {
            **self.object_properties(objects),
            **_word_properties(objects),
            "cli_objects": len(jobs) - len(objects),
        }

    def prepare(self, job: dict) -> None:
        if job.get("cli"):
            bijections.clear_caches()

    def execute(self, lib: Lib, job: dict) -> dict:
        return self.execute_cli(lib, job) if job.get("cli") else self.execute_object(lib, job)

    def check(self, job: dict, out: dict) -> list[str]:
        return self.check_cli(job, out) if job.get("cli") else self.check_object(job, out)


class CallList(Workload):
    """A fixed list of jobs, each one call {"call": Lib attribute, "args": ...}."""

    def properties(self, jobs: list[dict]) -> dict:
        return {"jobs": [f"{j['call']}{j['args']}" for j in jobs]}

    def execute(self, lib: Lib, job: dict):
        return getattr(lib, job["call"])(*job["args"])


# --- roundtrip ------------------------------------------------------------


class Roundtrip(ObjectWorkload):
    """multiset -> word -> heap -> word -> multiset on uniform grand-Dyck words.

    The words are staircase images of uniform random multisets, so they are
    uniform among grand-Dyck words of their semilength.  heap_to_path does
    most of the work here, through its 2^k subset search.
    """

    SIZES = {
        # n stops at 16: the inverse's cost grows about 2x per unit of n, and
        # from n = 17 on the few slowest words decide the total, so two seeds
        # no longer agree (see BASELINE.md)
        "full": {"ops": 12000, "n": (4, 16)},
        "quick": {"ops": 1000, "n": (4, 8)},
    }

    def objects(self, rng: random.Random, cfg: dict) -> list[dict]:
        lo, hi = cfg["n"]
        out = []
        for i in range(cfg["ops"]):
            # every n gets the same number of words, so the n histogram
            # does not vary with the seed
            n = lo + i % (hi - lo + 1)
            # stars and bars: an n-subset of 2n-1 slots is a multiset over 1..n
            slots = sorted(rng.sample(range(2 * n - 1), n))
            values = tuple(s - j + 1 for j, s in enumerate(slots))
            word = oracles.staircase(values, n)
            out.append({
                "multiset": multisets.validate(values, n),
                "values": values,
                "n": n,
                "word": word,
                "ref": oracles.word_profile(word),
            })
        rng.shuffle(out)
        return out

    def object_properties(self, objects: list[dict]) -> dict:
        return {"n_histogram": _histogram(j["n"] for j in objects)}

    def execute_object(self, lib: Lib, job: dict) -> dict:
        word = lib.multiset_to_path(job["multiset"])
        heap = lib.path_to_heap(word)
        back = lib.heap_to_path(heap)
        out = {
            "word": word,
            "heap": heap,
            "back": back,
            "multiset": lib.path_to_multiset(back),
            "heap_stats": lib.heap_stats(heap),
            "path_stats": lib.height_stats(back),
        }
        out["multiset_stats"] = lib.multiset_stats(out["multiset"])
        return out

    def execute_cli(self, lib: Lib, job: dict) -> dict:
        word = job["word"]
        text = oracles.multiset_text(job["values"], job["n"])
        return {
            "map": lib.cli(["map", "--from", "multiset", "--to", "path", "--input", text]),
            "stats": lib.cli(["stats", "--kind", "path", "--json", "--input", word]),
            "render": lib.cli(["render", "--kind", "path", "--input", word]),
        }

    def check_cli(self, job: dict, out: dict) -> list[str]:
        bad = (
            _check_cli_map(out["map"], job["word"])
            + _check_cli_path_stats(out["stats"], job["ref"])
            + _check_cli_path_picture(out["render"], job["n"])
        )
        return [f"word {job['word']} on the command line: {b}" for b in bad]

    def check_object(self, job: dict, out: dict) -> list[str]:
        n, ref, word = job["n"], job["ref"], job["word"]
        bad = []
        if out["word"] != word:
            bad.append("multiset_to_path is not the staircase word")
        if out["back"] != word:
            bad.append("heap_to_path does not invert path_to_heap")
        if (out["multiset"].values, out["multiset"].bound) != (job["values"], n):
            bad.append("path_to_multiset does not invert multiset_to_path")
        if len(out["heap"]) != n:
            bad.append(f"heap has {len(out['heap'])} dimers, want {n}")
        if (out["heap"].min_column() < 0) != (ref["cross"] > 0):
            bad.append("negative heap columns disagree with axis crossings")
        bad += oracles.transport_problems(
            ref, out["heap_stats"], out["path_stats"], out["multiset_stats"]
        )
        return [f"word {word}: {b}" for b in bad]


# --- forward ------------------------------------------------------------


def _crossing_heavy(rng: random.Random, n: int) -> str:
    """Blocks U^a D^a and D^a U^a in turn: every block boundary is a crossing."""
    out = []
    left = n
    above = True
    while left:
        a = min(left, rng.randint(1, 4))
        out.append("U" * a + "D" * a if above else "D" * a + "U" * a)
        left -= a
        above = not above
    return "".join(out)


class Forward(ObjectWorkload):
    """word -> heap, the heap text round trip, statistics and pictures; no inverse.

    It loads path_to_heap and Heap validation at n in the hundreds while
    bypassing heap_to_path.
    """

    # one op in ten of each structured shape; the rest are uniform words
    SHAPES = ("nested", "arches", "crossing", *["uniform"] * 7)
    SIZES = {
        # n stops at 400: the recursive word -> heap builder raises
        # RecursionError near n = 500 on nested words and arches
        "full": {"ops": 1000, "n": (100, 400)},
        "quick": {"ops": 30, "n": (10, 40)},
    }

    def objects(self, rng: random.Random, cfg: dict) -> list[dict]:
        lo, hi = cfg["n"]
        rounds = cfg["ops"] // len(self.SHAPES)
        out = []
        for i in range(rounds * len(self.SHAPES)):
            # each shape gets the same evenly spaced sizes, so the slowest
            # ops, nested words and arches near n = 400, are the same words
            # for every seed and op_p99_ms does not depend on the seed
            n = lo + (i // len(self.SHAPES)) * (hi - lo) // (rounds - 1)
            shape = self.SHAPES[i % len(self.SHAPES)]
            if shape == "nested":
                word = "U" * n + "D" * n
            elif shape == "arches":
                word = "UD" * n
            elif shape == "crossing":
                word = _crossing_heavy(rng, n)
            else:
                slots = sorted(rng.sample(range(2 * n - 1), n))
                word = oracles.staircase(tuple(s - j + 1 for j, s in enumerate(slots)), n)
            out.append({
                "word": word,
                "n": n,
                "shape": shape,
                "ref": oracles.word_profile(word),
            })
        rng.shuffle(out)
        return out

    def object_properties(self, objects: list[dict]) -> dict:
        return {
            "n_histogram": _histogram(f"{min(j['n'] // 50, 7) * 50}+" for j in objects),
            "shape_share": {
                s: _share(j["shape"] == s for j in objects) for s in sorted(set(self.SHAPES))
            },
        }

    def execute_object(self, lib: Lib, job: dict) -> dict:
        word = job["word"]
        heap = lib.path_to_heap(word)
        text = lib.heap_to_text(heap)
        reparsed = lib.parse_heap(text)
        multiset = lib.path_to_multiset(word)
        out = {
            "heap": heap,
            "reparsed": reparsed,
            "heap_stats": lib.heap_stats(reparsed),
            "path_stats": lib.height_stats(word),
            "multiset": multiset,
            "multiset_stats": lib.multiset_stats(multiset),
            "word": lib.multiset_to_path(multiset),
            "heap_picture": lib.render("heap", heap, "ascii"),
            "path_picture": lib.render("path", word, "svg"),
        }
        return out

    def execute_cli(self, lib: Lib, job: dict) -> dict:
        # word -> heap text, then that text's statistics and picture, as a
        # user would chain the three commands
        mapped = lib.cli(["map", "--from", "path", "--to", "heap", "--input", job["word"]])
        text = mapped[1].strip()
        return {
            "map": mapped,
            "stats": lib.cli(["stats", "--kind", "heap", "--json", "--input", text]),
            "render": lib.cli(["render", "--kind", "heap", "--input", text]),
        }

    def check_cli(self, job: dict, out: dict) -> list[str]:
        n = job["n"]
        # the mapped heap is checked through the statistics and the picture
        # of the text it printed
        bad = [] if out["map"][0] == 0 else ["cli map path to heap failed"]
        bad += _check_cli_heap_stats(out["stats"], job["ref"])
        code, picture = out["render"]
        if code != 0 or picture.count("[__]") != n:
            bad.append("cli render heap does not show n dimers")
        return [f"{job['shape']} word of semilength {n} on the command line: {b}" for b in bad]

    def check_object(self, job: dict, out: dict) -> list[str]:
        n, ref, word = job["n"], job["ref"], job["word"]
        values = oracles.staircase_values(word)
        bad = []
        if out["reparsed"] != out["heap"] or len(out["heap"]) != n:
            bad.append("heap text round trip changed the heap")
        if (out["heap"].min_column() < 0) != (ref["cross"] > 0):
            bad.append("negative heap columns disagree with axis crossings")
        if (out["multiset"].values, out["multiset"].bound) != (values, n):
            bad.append("path_to_multiset is not the staircase inverse")
        if out["word"] != word:
            bad.append("multiset_to_path does not invert path_to_multiset")
        bad += oracles.transport_problems(
            ref, out["heap_stats"], out["path_stats"], out["multiset_stats"]
        )
        if out["heap_picture"].count("[__]") != n:
            bad.append("heap picture does not show n dimers")
        if _svg_points(out["path_picture"]) != 2 * n + 1:
            bad.append("path picture does not have 2n + 1 points")
        return [f"{job['shape']} word of semilength {n}: {b}" for b in bad]


def _svg_points(svg: str) -> int:
    start = svg.find('points="') + len('points="')
    return len(svg[start : svg.find('"', start)].split())


def _check_cli_map(result: tuple[int, str], want: str) -> list[str]:
    code, text = result
    return [] if code == 0 and text.strip() == want else [f"cli map printed {text.strip()!r}, want {want!r}"]


def _check_cli_json(result: tuple[int, str], want: dict, what: str) -> list[str]:
    code, text = result
    got = json.loads(text) if code == 0 else {}
    return [] if all(got.get(k) == v for k, v in want.items()) else [f"cli {what} {got}"]


def _check_cli_path_stats(result: tuple[int, str], ref: dict) -> list[str]:
    want = {
        "semilength": ref["semilength"],
        "cross": ref["cross"],
        "heightMax": ref["height_max"],
        "dudCount": ref["dud"],
        "uduCount": ref["udu"],
    }
    return _check_cli_json(result, want, "path stats")


def _check_cli_heap_stats(result: tuple[int, str], ref: dict) -> list[str]:
    want = {
        "area": ref["semilength"],
        "lw": ref["cross"],
        "rw": ref["height_max"],
        "diag": ref["dud"],
        "width": ref["cross"] + ref["height_max"],
    }
    return _check_cli_json(result, want, "heap stats")


def _check_cli_path_picture(result: tuple[int, str], n: int) -> list[str]:
    code, text = result
    ok = code == 0 and text.count("/") == n and text.count("\\") == n
    return [] if ok else ["cli render path does not show n up and n down steps"]


# --- exhaustive ---------------------------------------------------------


def _all_star(ms: list) -> bool:
    return all(
        all(b - a != 1 for a, b in zip(m.values, m.values[1:])) for m in ms
    )


def _all_dud_free_grand_dyck(words: list[str], n: int) -> bool:
    return len(set(words)) == len(words) and all(
        len(w) == 2 * n and w[0] == "U" and w.count("U") == n and "DUD" not in w
        for w in words
    )


class Exhaustive(CallList):
    """Exhaustive enumeration and counting, then the verify suites, caches cleared per job.

    It is what a user runs to check the paper, and it is built on
    generate-and-filter and the grammar memo, which the conversion
    workloads never touch.  It has no random inputs, and its jobs run in
    a fixed order, so it is the same for every seed: shuffling them moved
    peak memory by 10 % from seed to seed.
    """

    SIZES = {
        "full": {"family_n": 11, "enumerate_n": 9, "count_n": 10, "animal_n": 7, "suite_n": None},
        "quick": {"family_n": 5, "enumerate_n": 4, "count_n": 5, "animal_n": 4, "suite_n": 3},
    }
    SUITES = ("counts", "bijections", "statistics", "symmetry")

    def jobs(self, rng: random.Random, size: str) -> list[dict]:
        cfg = self.SIZES[size]
        fam, enum, count, animal = (cfg[k] for k in ("family_n", "enumerate_n", "count_n", "animal_n"))
        motzkin = oracles.motzkin(max(count, animal))
        jobs = [
            {"call": "enumerate_multisets", "args": ("star", fam), "want": oracles.square_animals(fam)},
            {"call": "enumerate_paths", "args": ("grand_dyck_star", fam), "want": oracles.square_animals(fam)},
            {"call": "grammar_enumerate", "args": (enum, "T"), "want": oracles.triangular_animals(enum)},
            {"call": "grammar_count", "args": (count, "T"), "want": oracles.triangular_animals(count)},
            {"call": "grammar_count", "args": (count, "Ts"), "want": oracles.catalan(count)},
            {"call": "grammar_count", "args": (count, "Q"), "want": oracles.square_animals(count)},
            {"call": "grammar_count", "args": (count, "Qs"), "want": motzkin[count - 1]},
            {"call": "animal_enumerate_bruteforce", "args": (animal, "triangular", False),
             "want": oracles.triangular_animals(animal)},
            {"call": "animal_enumerate_bruteforce", "args": (animal, "square", False),
             "want": oracles.square_animals(animal)},
            {"call": "animal_enumerate_bruteforce", "args": (animal, "triangular", True),
             "want": oracles.catalan(animal)},
            {"call": "animal_enumerate_bruteforce", "args": (animal, "square", True),
             "want": motzkin[animal - 1]},
        ]
        return jobs + [{"call": "run_suite", "args": (s, cfg["suite_n"]), "want": None} for s in self.SUITES]

    def prepare(self, job: dict) -> None:
        bijections.clear_caches()

    def check(self, job: dict, out) -> list[str]:
        call, args, want = job["call"], job["args"], job["want"]
        if call == "run_suite":
            failed = [c.name for c in out.checks if not c.ok]
            return [f"verify {args[0]} failed: {failed}"] if not out.ok else []
        got = out if call == "grammar_count" else len(out)
        bad = [] if got == want else [f"{call}{args} counted {got}, want {want}"]
        if call == "enumerate_multisets" and not _all_star(out):
            bad.append("enumerate_family('star') yielded a multiset with consecutive values")
        if call == "enumerate_paths" and not _all_dud_free_grand_dyck(out, args[1]):
            bad.append("enumerate_family('grand_dyck_star') yielded a bad or repeated word")
        if call == "grammar_enumerate" and any(len(h) != args[0] for h in out):
            bad.append("grammar_enumerate yielded a heap of the wrong size")
        return bad


# --- series -------------------------------------------------------------


class SeriesExpansion(CallList):
    """Closed forms, identity checks and bivariate tables in exact Fraction arithmetic.

    The only workload where the series layer does more than 1 % of the
    work.  Its jobs are the same for every seed; the seed picks only the
    table entries that are checked against the oracle.
    """

    SIZES = {
        "full": {"order": 300, "identities": 100, "table": 150, "cli_order": 200, "samples": 400},
        "quick": {"order": 20, "identities": 10, "table": 12, "cli_order": 10, "samples": 40},
    }
    TABLE_ORACLES = {"f": oracles.star_multisets, "h": oracles.no_single_multisets}

    def jobs(self, rng: random.Random, size: str) -> list[dict]:
        cfg = self.SIZES[size]
        t = cfg["table"]
        jobs = [{"call": "closed_form", "args": (name, cfg["order"])} for name in ("Ts", "T", "Qs", "Q")]
        jobs.append({"call": "check_identities", "args": (cfg["identities"],)})
        for name in ("f", "h"):
            cells = [(rng.randint(0, t), rng.randint(0, t)) for _ in range(cfg["samples"])]
            jobs.append({"call": "bivariate", "args": (name, t, t), "cells": cells})
        jobs.append({"call": "cli", "args": (["series", "--name", "Q", "--order", str(cfg["cli_order"])],)})
        jobs.append({"call": "cli", "args": (["table1"],)})
        return jobs

    def check(self, job: dict, out) -> list[str]:
        call, args = job["call"], job["args"]
        if call == "closed_form":
            want = _series_oracle(args[0], args[1])
            return [] if list(out.coeffs[1:]) == want else [f"closed_form{args} coefficients differ"]
        if call == "check_identities":
            return [f"identity failed: {c.name}" for c in out if not c.ok]
        if call == "bivariate":
            name, t, _ = args
            count = self.TABLE_ORACLES[name]
            bad = [(n, k) for n, k in job["cells"] if out.coefficient(n, k) != count(n, k)]
            if name == "f":
                bad += [
                    (n, n) for n in range(1, t + 1)
                    if out.coefficient(n, n) != oracles.square_animals(n)
                ]
            return [f"bivariate {name} wrong at (n, k) in {bad[:5]}"] if bad else []
        argv = args[0]
        code, text = out
        if argv[0] == "series":
            want = [f"{n}\t{c}" for n, c in enumerate(_series_oracle("Q", int(argv[-1])), start=1)]
        else:
            want = [
                " ".join(str(oracles.star_multisets(n, k)) for n in range(1, 10))
                for k in range(1, 7)
            ]
        return [] if code == 0 and text.splitlines() == want else [f"cli {' '.join(argv)} output differs"]


def _series_oracle(name: str, order: int) -> list[int]:
    """Coefficients 1..order of Ts, T, Qs or Q."""
    if name == "Ts":
        return [oracles.catalan(n) for n in range(1, order + 1)]
    if name == "T":
        return [oracles.triangular_animals(n) for n in range(1, order + 1)]
    if name == "Qs":
        return oracles.motzkin(order)[:order]
    return [oracles.square_animals(n) for n in range(1, order + 1)]


WORKLOADS = {
    "roundtrip": Roundtrip(),
    "forward": Forward(),
    "exhaustive": Exhaustive(),
    "series": SeriesExpansion(),
}
