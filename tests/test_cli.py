import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import random
import re
import resource
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from heapdyck import bijections, cli, heaps, multisets, paths, series, verify

from oracles import directed_animals, uniform_multiset


class _Lines:
    """A stdout that counts the lines written to it and keeps none of them."""

    def __init__(self) -> None:
        self.count = 0

    def write(self, text: str) -> int:
        self.count += text.count("\n")
        return len(text)

    def flush(self) -> None:
        pass


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPinnedExamples:
    def test_enumerate_star_count(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--family", "multiset-star",
            "--n", "4", "--k", "4", "--count-only",
        )
        assert code == 0
        assert out == "13\n"

    def test_map_worked_example(self, capsys):
        code, out, _ = run(
            capsys, "map", "--from", "multiset", "--to", "path",
            "--input", "2,2,2,4,4,7,7,7",
        )
        assert code == 0
        assert out == "UUDDDUUDDUUUDDDU\n"

    def test_series_q_order_6(self, capsys):
        code, out, _ = run(capsys, "series", "--name", "Q", "--order", "6")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 6
        assert lines[-1] == "6\t96"

    def test_table1_rows(self, capsys):
        code, out, _ = run(capsys, "table1", "--max-n", "9", "--max-k", "6")
        assert code == 0
        rows = out.splitlines()
        assert rows[0] == "1 1 1 1 1 1 1 1 1"
        assert rows[4] == "5 11 18 26 35 45 56 68 81"
        assert rows[5].split()[-1] == "198"


PATH_FAMILIES = ["dyck", "dyck-star", "grand-dyck", "grand-dyck-star", "grand-dyck-udu-free"]
MULTISET_FAMILIES = [
    "multiset-all",
    "multiset-star",
    "multiset-super",
    "multiset-super-star",
    "multiset-no-single-except-k",
]


class TestEnumerate:
    def test_grand_dyck_listing(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--family", "grand-dyck", "--n", "2")
        assert code == 0
        assert out.splitlines() == ["UUDD", "UDUD", "UDDU"]

    def test_multiset_listing_carries_bound(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--family", "multiset-all", "--n", "3", "--k", "2"
        )
        assert code == 0
        assert out.splitlines() == ["1,1,1|k=2", "1,1,2|k=2", "1,2,2|k=2", "2,2,2|k=2"]

    def test_heap_listing(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--family", "heap-T", "--n", "2")
        assert code == 0
        assert sorted(out.splitlines()) == [
            "(0,0);(-1,1)",
            "(0,0);(0,1)",
            "(0,0);(1,1)",
        ]

    @pytest.mark.parametrize(
        "family, words",
        [
            ("heap-Ts", "dyck"),
            ("heap-T", "grand-dyck"),
            ("heap-Q", "grand-dyck-star"),
            ("heap-Qs", "dyck-star"),
        ],
    )
    def test_heap_listing_is_the_word_listing_mapped(self, capsys, family, words):
        # line i of the heap listing is `map --from path --to heap` of line i of the words
        for n in range(1, 7):
            _, listing, _ = run(capsys, "enumerate", "--family", words, "--n", str(n))
            code, out, _ = run(capsys, "enumerate", "--family", family, "--n", str(n))
            assert code == 0
            mapped = []
            for w in listing.splitlines():
                mapped += run(capsys, "map", "--from", "path", "--to", "heap", "--input", w)[1:2]
            assert out == "".join(mapped), n

    def test_listings_do_not_build_the_grammar(self, capsys, monkeypatch):
        def no_grammar(*args):
            raise AssertionError("the grammar built a class")

        monkeypatch.setattr(bijections, "grammar_enumerate", no_grammar)
        for family in cli.FAMILIES:
            code, out, err = run(capsys, "enumerate", "--family", family, "--n", "5")
            assert (code, err) == (0, "") and out, family

    def test_heap_listing_holds_no_class_in_memory(self, monkeypatch):
        # the stream peaks at about 0.37 MiB (0.53 on a cold first call), the
        # sorted grammar class at about 3.1 MiB and the sorted brute-force
        # animals at about 6.1 MiB
        for family in ("heap-T", "animal-triangular"):
            sink = _Lines()
            monkeypatch.setattr(sys, "stdout", sink)
            gc.collect()
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                code = cli.main(["enumerate", "--family", family, "--n", "8"])
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert (code, sink.count) == (0, 6435), family
            assert peak <= 2**20, family

    def test_closed_stdout_exits_2_without_traceback(self):
        # the listing is far longer than a pipe's buffer, so it is still writing when
        # the reader goes; the exit flush is covered too, or the exit status would be 120
        src = Path(cli.__file__).parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        word = "U" * 10 + "D" * 10
        animal = heaps.points_to_text(heaps.heap_to_animal(bijections.path_to_heap(word)))
        for family, line in (("grand-dyck", word), ("animal-triangular", animal)):
            argv = ["enumerate", "--family", family, "--n", "10"]
            with subprocess.Popen(
                [sys.executable, "-m", "heapdyck.cli", *argv],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            ) as proc:
                first = proc.stdout.readline()
                proc.stdout.close()
                _, err = proc.communicate(timeout=60)
            assert first == line + "\n", family
            assert (proc.returncode, err) == (2, ""), family

    @pytest.mark.parametrize("family", ["multiset-super", "multiset-super-star"])
    def test_superdiagonal_past_the_bound_lists_nothing_at_once(self, family):
        # a subprocess, so that a listing that walks every prefix times out
        # here rather than hanging the suite
        src = Path(multisets.__file__).parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        argv = ["enumerate", "--family", family, "--n", "40", "--k", "20"]
        done = subprocess.run(
            [sys.executable, "-m", "heapdyck.cli", *argv],
            env=env, capture_output=True, text=True, timeout=10,
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "", "")

    @staticmethod
    def count_only(family, n, k):
        """`enumerate --count-only` in a subprocess, so that a count that walks every
        position times out here rather than hanging the suite."""
        src = Path(multisets.__file__).parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        argv = ["enumerate", "--family", family, "--n", str(n), "--k", str(k), "--count-only"]
        done = subprocess.run(
            [sys.executable, "-m", "heapdyck.cli", *argv],
            env=env, capture_output=True, text=True, timeout=10,
        )
        return done.returncode, done.stdout, done.stderr

    @pytest.mark.parametrize(
        "family, n, k",
        [("multiset-all", 10**12, 0), ("multiset-super", 10**11, 3)],
        ids=["no-values", "superdiagonal-past-the-bound"],
    )
    def test_empty_multiset_count_is_0_at_once(self, family, n, k):
        # as the listing is empty at once
        assert self.count_only(family, n, k) == (0, "0\n", "")

    @pytest.mark.parametrize(
        "family", ["multiset-all", "multiset-star", "multiset-no-single-except-k"]
    )
    def test_one_value_multiset_count_is_1_at_once(self, family):
        # 1, ..., 1 is the only candidate
        assert self.count_only(family, 10**12, 1) == (0, "1\n", "")

    @pytest.mark.parametrize("family", ["heap-T", "heap-Ts", "heap-Q", "heap-Qs"])
    def test_heap_count_only_matches_listing(self, capsys, family):
        for n in range(1, 7):
            _, listing, _ = run(capsys, "enumerate", "--family", family, "--n", str(n))
            code, out, _ = run(
                capsys, "enumerate", "--family", family, "--n", str(n), "--count-only"
            )
            assert code == 0
            assert out == f"{len(listing.splitlines())}\n"

    @pytest.mark.parametrize("family", PATH_FAMILIES)
    def test_path_count_only_matches_listing(self, capsys, family):
        for n in range(1, 9):
            _, listing, _ = run(capsys, "enumerate", "--family", family, "--n", str(n))
            code, out, _ = run(
                capsys, "enumerate", "--family", family, "--n", str(n), "--count-only"
            )
            assert code == 0
            assert out == f"{len(listing.splitlines())}\n"

    @pytest.mark.parametrize("family", PATH_FAMILIES)
    def test_path_count_only_does_not_list(self, capsys, family):
        start = time.perf_counter()
        code, out, _ = run(capsys, "enumerate", "--family", family, "--n", "300", "--count-only")
        assert time.perf_counter() - start < 1.0
        assert code == 0
        if family == "grand-dyck":
            assert out == f"{comb(599, 300)}\n"

    @pytest.mark.parametrize("family", PATH_FAMILIES)
    def test_path_count_only_counts_words(self, capsys, monkeypatch, family):
        # the word count stands on its own: no heap class is counted in its place
        def no_grammar(n, klass):
            raise AssertionError(f"grammar_count({n}, {klass!r}) called for a word family")

        monkeypatch.setattr(bijections, "grammar_count", no_grammar)
        code, out, _ = run(capsys, "enumerate", "--family", family, "--n", "12", "--count-only")
        assert code == 0
        assert out == f"{paths.count_family(family.replace('-', '_'), 12)}\n"

    @pytest.mark.parametrize("family", MULTISET_FAMILIES)
    def test_multiset_count_only_matches_listing(self, capsys, family):
        for n in range(1, 7):
            for k in range(0, 8):
                argv = ["enumerate", "--family", family, "--n", str(n), "--k", str(k)]
                _, listing, _ = run(capsys, *argv)
                code, out, _ = run(capsys, *argv, "--count-only")
                assert code == 0
                assert out == f"{len(listing.splitlines())}\n", k

    @pytest.mark.parametrize("family", MULTISET_FAMILIES)
    def test_multiset_count_only_does_not_list(self, capsys, family):
        start = time.perf_counter()
        code, out, _ = run(
            capsys, "enumerate", "--family", family, "--n", "300", "--k", "300", "--count-only"
        )
        assert time.perf_counter() - start < 1.0
        assert code == 0
        if family == "multiset-all":
            assert out == f"{comb(599, 300)}\n"

    @pytest.mark.parametrize("count_only", [[], ["--count-only"]], ids=["listing", "count"])
    def test_negative_bound_is_rejected(self, capsys, count_only):
        code, out, err = run(
            capsys, "enumerate", "--family", "multiset-star", "--n", "3", "--k", "-1", *count_only
        )
        assert (code, out, err) == (2, "", "error: k must be at least 0, got -1\n")

    def test_zero_bound_counts_nothing(self, capsys):
        argv = ["enumerate", "--family", "multiset-star", "--n", "3", "--k", "0"]
        assert run(capsys, *argv, "--count-only") == (0, "0\n", "")
        assert run(capsys, *argv) == (0, "", "")

    def test_animal_subdiagonal_count(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--family", "animal-triangular-subdiagonal",
            "--n", "4", "--count-only",
        )
        assert code == 0
        assert out == "14\n"

    @pytest.mark.parametrize("subdiagonal", [False, True], ids=["full", "subdiagonal"])
    @pytest.mark.parametrize("family", ["animal-triangular", "animal-square"])
    def test_animal_count_only_matches_listing(self, capsys, family, subdiagonal):
        family += "-subdiagonal" * subdiagonal
        for n in range(1, 8):
            argv = ["enumerate", "--family", family, "--n", str(n)]
            _, listing, _ = run(capsys, *argv)
            code, out, _ = run(capsys, *argv, "--count-only")
            assert code == 0
            assert out == f"{len(listing.splitlines())}\n"

    def test_animal_count_only_has_no_brute_force_cap(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--family", "animal-triangular", "--n", "300", "--count-only"
        )
        assert (code, out) == (0, f"{comb(599, 300)}\n")
        # the listing streams its word family: past the brute force's n = 8, with no cap
        code, out, err = run(capsys, "enumerate", "--family", "animal-triangular", "--n", "9")
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 24310

    @pytest.mark.parametrize(
        "family, words, subdiagonal",
        [
            ("animal-triangular", "grand-dyck", False),
            ("animal-triangular", "dyck", True),
            ("animal-square", "grand-dyck-star", False),
            ("animal-square", "dyck-star", True),
        ],
    )
    def test_animal_listing_is_the_word_listing_mapped(self, capsys, family, words, subdiagonal):
        # line i of the animal listing is `map --from path --to animal` of line i of the words
        family += "-subdiagonal" * subdiagonal
        for n in range(1, 7):
            _, listing, _ = run(capsys, "enumerate", "--family", words, "--n", str(n))
            code, out, _ = run(capsys, "enumerate", "--family", family, "--n", str(n))
            assert code == 0
            mapped = []
            for w in listing.splitlines():
                mapped += run(capsys, "map", "--from", "path", "--to", "animal", "--input", w)[1:2]
            assert out == "".join(mapped), n

    @pytest.mark.parametrize("subdiagonal", [False, True], ids=["full", "subdiagonal"])
    @pytest.mark.parametrize("lattice", heaps.LATTICES)
    def test_animal_listing_is_the_brute_force_set(self, capsys, lattice, subdiagonal):
        family = f"animal-{lattice}" + "-subdiagonal" * subdiagonal
        for n in range(1, 8):
            argv = ["enumerate", "--family", family, "--n", str(n)]
            code, out, _ = run(capsys, *argv)
            lines = out.splitlines()
            brute = heaps.animal_enumerate_bruteforce(n, lattice, subdiagonal)
            assert code == 0
            assert len(lines) == len(set(lines)) == len(brute), n
            assert set(lines) == {heaps.points_to_text(a) for a in brute}, n

    def test_animal_listing_runs_no_brute_force(self, capsys, monkeypatch):
        def no_scan(*args, **kwargs):
            raise AssertionError("the brute force listed the animals")

        monkeypatch.setattr(heaps, "animal_enumerate_bruteforce", no_scan)
        for family in ("animal-triangular", "animal-square"):
            for suffix in ("", "-subdiagonal"):
                code, out, err = run(capsys, "enumerate", "--family", family + suffix, "--n", "6")
                assert (code, err) == (0, "") and out, family + suffix

    def test_subdiagonal_is_a_family_not_an_option(self, capsys):
        argv = ["enumerate", "--family", "animal-square", "--n", "3", "--subdiagonal"]
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (2, "")
        code, out, _ = run(capsys, "enumerate", "--help")
        assert code == 0 and "animal-square-subdiagonal" in out and "--subdiagonal" not in out

    def test_k_rejected_outside_multisets(self, capsys):
        code, _, err = run(
            capsys, "enumerate", "--family", "dyck", "--n", "3", "--k", "2"
        )
        assert code == 2
        assert "multiset" in err

    def test_unknown_family_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "enumerate", "--family", "widgets", "--n", "2")
        assert code == 2


class TestMap:
    def test_round_trips_all_pairs(self, capsys):
        kinds = {
            "multiset": [
                multisets.to_text(m) for m in multisets.enumerate_family("all", 5)
            ],
            "path": list(paths.enumerate_family("grand_dyck", 5)),
            "heap": sorted(
                heaps.to_text(h) for h in bijections.grammar_enumerate(5, "T")
            ),
            "animal": sorted(
                heaps.points_to_text(a) for a in heaps.animal_enumerate_bruteforce(5, "triangular")
            ),
        }
        for src, tokens in kinds.items():
            for dst in kinds:
                for token in tokens:
                    code, out, _ = run(
                        capsys, "map", "--from", src, "--to", dst, "--input", token
                    )
                    assert code == 0
                    code, back, _ = run(
                        capsys, "map", "--from", dst, "--to", src,
                        "--input", out.strip(),
                    )
                    assert code == 0
                    assert back.strip() == token

    @pytest.mark.parametrize("shape", ["nested", "uniform"])
    def test_1200_step_word_maps_to_heap_and_back(self, capsys, shape):
        if shape == "nested":
            word = "U" * 600 + "D" * 600
        else:
            values = uniform_multiset(random.Random(1200), 600)
            word = bijections.multiset_to_path(multisets.validate(values, 600))
        code, out, err = run(
            capsys, "map", "--from", "path", "--to", "heap", "--input", word
        )
        assert code == 0, err
        code, back, _ = run(
            capsys, "map", "--from", "heap", "--to", "path", "--input", out.strip()
        )
        assert code == 0
        assert back.strip() == word

    def test_identity_map(self, capsys):
        code, out, _ = run(
            capsys, "map", "--from", "path", "--to", "path", "--input", "UUDD"
        )
        assert code == 0
        assert out == "UUDD\n"

    def test_bad_token_is_parse_error(self, capsys):
        code, _, err = run(
            capsys, "map", "--from", "path", "--to", "heap", "--input", "UDX"
        )
        assert code == 2
        assert err


class TestStats:
    def test_path_json(self, capsys):
        code, out, _ = run(
            capsys, "stats", "--kind", "path", "--input", "UUDD", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "semilength": 2,
            "cross": 0,
            "heightMax": 2,
            "nbuProfile": {"1": 1, "2": 1},
            "dEndHeights": [1, 0],
            "dudCount": 0,
            "uduCount": 0,
        }

    def test_multiset_text(self, capsys):
        code, out, _ = run(
            capsys, "stats", "--kind", "multiset", "--input", "2,2"
        )
        assert code == 0
        assert out.splitlines() == [
            "length\t2",
            "cross\t0",
            "adj\t0",
            "gapProfile\t1,0",
            "gap\t1",
            "deltaProfile\t1,1",
        ]

    def test_heap_json(self, capsys):
        code, out, _ = run(
            capsys, "stats", "--kind", "heap", "--input", "(0,0);(0,1)", "--json"
        )
        assert code == 0
        assert json.loads(out) == {
            "area": 2,
            "lw": 0,
            "rw": 1,
            "width": 1,
            "diag": 1,
            "nbpProfile": {"1": 2},
        }

    def test_animal_stats(self, capsys):
        code, out, _ = run(
            capsys, "stats", "--kind", "animal", "--input", "(0,0);(1,1)", "--json"
        )
        assert code == 0
        assert json.loads(out) == {
            "area": 2,
            "lw": 0,
            "rw": 1,
            "width": 1,
            "diag": 1,
            "nbpProfile": {"1": 2},
        }

    def test_repeated_animal_point_is_parse_error(self, capsys):
        code, out, err = run(capsys, "stats", "--kind", "animal", "--input", "(0,0);(0,0)")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "(0,0)" in err

    def test_repeated_dimer_is_named(self, capsys):
        code, out, err = run(capsys, "stats", "--kind", "heap", "--input", "(0,0);(1,1);(1,1)")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "(1,1)" in err


class TestVerify:
    def test_single_suite_exit_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "counts", "--max-n", "3")
        assert code == 0
        assert out.startswith("suite counts (n <= 3)\n")
        assert all(
            line.startswith("OK ")
            for line in out.splitlines()[1:]
        )

    def test_all_respects_caps(self, capsys):
        code, out, _ = run(capsys, "verify", "all", "--max-n", "2")
        assert code == 0
        headers = [l for l in out.splitlines() if l.startswith("suite ")]
        assert len(headers) == 5

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "verify", "counts", "--max-n", "2", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["exitCode"] == 0
        assert payload["reports"][0]["suite"] == "counts"

    def test_out_of_cap_bound_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "bijections", "--max-n", "99")
        assert code == 2
        assert err

    def test_unknown_suite_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "verify", "everything")
        assert code == 2

    @pytest.mark.parametrize("bound", ["0", "-3"])
    def test_all_below_one_is_usage_error(self, capsys, bound):
        code, out, err = run(capsys, "verify", "all", "--max-n", bound)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


class TestRender:
    def test_ascii_path(self, capsys):
        code, out, _ = run(
            capsys, "render", "--kind", "path", "--input", "UUDD"
        )
        assert code == 0
        assert out == " /\\\n/  \\\n"

    def test_svg_to_file(self, tmp_path, capsys):
        target = tmp_path / "pair.svg"
        code, out, _ = run(
            capsys, "render", "--kind", "heap", "--input", "(0,0);(0,1)",
            "--format", "svg", "--output", str(target),
        )
        assert code == 0
        assert out == ""
        text = target.read_text()
        assert text.startswith("<svg")
        assert text.count("<rect") == 3

    def test_unwritable_output_is_an_error_line(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.svg"
        code, out, err = run(
            capsys, "render", "--kind", "path", "--input", "UD",
            "--format", "svg", "--output", str(target),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        assert not target.exists()

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "render", "--kind", "heap", "--input", "nope")
        assert code == 2
        assert err


class TestLibraryErrors:
    @pytest.mark.parametrize(
        "error, call, argv",
        [
            (
                bijections.FactorizationFailedError,
                "heap_to_path",
                ["map", "--from", "heap", "--to", "path", "--input", "(0,0)"],
            ),
            (
                heaps.NotAHeapError,
                "path_to_heap",
                ["enumerate", "--family", "heap-T", "--n", "3"],
            ),
        ],
    )
    def test_is_an_error_line_with_exit_2(self, capsys, monkeypatch, error, call, argv):
        def fail(*args):
            raise error("planted")

        monkeypatch.setattr(bijections, call, fail)
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", "error: planted\n")

    def test_listing_that_fails_part_way_keeps_the_lines_before(self, capsys, monkeypatch):
        mapped = []
        path_to_heap = bijections.path_to_heap

        def fail_on_third(word):
            if len(mapped) == 2:
                raise heaps.NotAHeapError("planted")
            h = path_to_heap(word)
            mapped.append(heaps.to_text(h))
            return h

        monkeypatch.setattr(bijections, "path_to_heap", fail_on_third)
        code, out, err = run(capsys, "enumerate", "--family", "heap-T", "--n", "3")
        assert (code, out.splitlines(), err) == (2, mapped, "error: planted\n")
        assert len(mapped) == 2

    def test_non_integer_table_entry(self, capsys, monkeypatch):
        # table1 prints what f holds; verify series checks f against the transfer count
        orig = series.bivariate

        def with_half_entry(name, *args):
            table = orig(name, *args)
            if name != "f":
                return table
            rows = [list(row) for row in table.rows]
            rows[2][1] = Fraction(1, 2)
            return series.BivarTable(tuple(map(tuple, rows)))

        monkeypatch.setattr(series, "bivariate", with_half_entry)
        code, out, err = run(capsys, "verify", "series", "--max-n", "3", "--json")
        (report,) = json.loads(out)["reports"]
        failing = {c["name"]: c["detail"] for c in report["checks"] if not c["ok"]}
        assert (code, err) == (1, "")
        assert failing == {"table-f-counts-star-multisets": "n=2, k=1: table 1/2, count 1"}


def _star(n, k):
    """n-multisets of 1..k with no two consecutive values: d distinct values, no two
    adjacent, in C(k - d + 1, d) ways, and their multiplicities a composition of n."""
    return sum(comb(n - 1, d - 1) * comb(k - d + 1, d) for d in range(1, (k + 1) // 2 + 1))


class TestTable1:
    def test_reading_every_line_peaks_at_the_table(self):
        # the lines are made one at a time from the table's rows; a list of every line
        # peaked at 1.75 times the table's own peak
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            series.bivariate("f", 200, 200)
            table_peak = tracemalloc.get_traced_memory()[1] - base
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            lines = sum(1 for _ in cli.table1_lines(200, 200))
            lines_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert lines == 200
        assert lines_peak <= 1.1 * table_peak

    def test_prints_without_the_transfer_count(self, capsys, monkeypatch):
        def no_count(*args):
            raise AssertionError("table1 counted multisets")

        monkeypatch.setattr(multisets, "count_family", no_count)
        code, out, err = run(capsys, "table1")
        want = "".join(
            " ".join(str(_star(n, k)) for n in range(1, 10)) + "\n" for k in range(1, 7)
        )
        assert (code, out, err) == (0, want, "")


class TestReach:
    """A size past its command's reach is an error line and exit 2, before any work."""

    DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    # word families whose counts, and their heaps' and animals', are below 4^n; the
    # other word, heap and animal families count below 3^n
    BASE_4 = (
        "dyck", "grand-dyck", "heap-T", "heap-Ts", "animal-triangular",
        "animal-triangular-subdiagonal",
    )

    @staticmethod
    def cli_process(argv, **kwargs):
        """The command line argv, run in a child interpreter on this source tree."""
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parent.parent))
        return subprocess.run(
            [sys.executable, "-m", "heapdyck.cli", *argv], env=env,
            capture_output=True, text=True, timeout=60, **kwargs,
        )

    @pytest.mark.skipif(not DIGITS, reason="this interpreter prints ints of any length")
    @pytest.mark.parametrize(
        "name, base, last", [("T", 4, lambda n: comb(2 * n - 1, n)), ("Q", 3, directed_animals)]
    )
    def test_series_prints_to_its_reach_and_no_further(self, capsys, monkeypatch, name, base, last):
        # the last coefficient is below base^n, so it has at most DIGITS digits
        reach = int(self.DIGITS / math.log10(base))
        code, out, _ = run(capsys, "series", "--name", name, "--order", str(reach))
        assert code == 0
        assert out.splitlines()[-1] == f"{reach}\t{last(reach)}"
        assert f"{name} {reach}," in run(capsys, "series", "--help")[1]

        def no_work(*args):
            pytest.fail("closed_form called past the reach")

        monkeypatch.setattr(series, "closed_form", no_work)
        code, out, err = run(capsys, "series", "--name", name, "--order", str(reach + 1))
        assert (code, out) == (2, "")
        assert err == f"error: --order {reach + 1} is beyond the reach of {name} ({reach})\n"

    def test_mdiag_past_its_table_reach(self, capsys, monkeypatch):
        monkeypatch.setattr(series, "closed_form", lambda *args: pytest.fail("closed_form called"))
        assert "Mdiag 3000" in run(capsys, "series", "--help")[1]
        code, out, err = run(capsys, "series", "--name", "Mdiag", "--order", "3001")
        assert (code, out, err) == (2, "", "error: --order 3001 is beyond the reach of Mdiag (3000)\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["--max-n", str(cli.TABLE1_REACH + 1)],
            ["--max-k", str(cli.TABLE1_REACH + 1)],
            ["--max-n", str(10**12), "--max-k", "3"],
        ],
    )
    def test_table1_past_its_reach_exits_2_at_once(self, argv):
        start = time.monotonic()
        done = self.cli_process(["table1", *argv])
        assert time.monotonic() - start < 1
        flag, bound = argv[:2]
        err = f"error: {flag} {bound} is beyond the reach of table1 ({cli.TABLE1_REACH})\n"
        assert (done.returncode, done.stdout, done.stderr) == (2, "", err)

    def test_table1_checks_its_reach_before_any_work(self, capsys, monkeypatch):
        class Started(Exception):
            pass

        def started(*args):
            raise Started

        monkeypatch.setattr(series, "bivariate", started)
        reach = cli.TABLE1_REACH
        help_text = run(capsys, "table1", "--help")[1]
        assert help_text.count(f"reach: {reach}") == 2
        code, out, err = run(capsys, "table1", "--max-n", "2", "--max-k", str(reach + 1))
        assert (code, out) == (2, "")
        assert err == f"error: --max-k {reach + 1} is beyond the reach of table1 ({reach})\n"
        with pytest.raises(Started):  # at the reach itself, the table is computed
            cli.table1_lines(reach, reach)

    @pytest.mark.skipif(not DIGITS, reason="this interpreter prints ints of any length")
    @pytest.mark.parametrize("family", cli.FAMILIES)
    def test_count_past_its_digit_reach_exits_2_at_once(self, family):
        if family.startswith("multiset-"):
            # C(2n - 1, n) multisets of n values from 1..n, below 4^n
            reach = int(self.DIGITS / math.log10(4))
            while comb(2 * reach + 1, reach + 1) < 10**self.DIGITS:
                reach += 1
        else:
            reach = int(self.DIGITS / math.log10(4 if family in self.BASE_4 else 3))
        cli._check_count_reach(family, reach, None)  # at the reach, the count runs
        start = time.monotonic()
        done = self.cli_process(
            ["enumerate", "--family", family, "--n", str(reach + 1), "--count-only"]
        )
        assert time.monotonic() - start < 1
        assert (done.returncode, done.stdout) == (2, "")
        err = f"error: --n {reach + 1} is beyond the count reach of {family}"
        assert done.stderr.startswith(err) and done.stderr.count("\n") == 1
        if not family.startswith("multiset-"):
            assert done.stderr == f"{err} ({reach})\n"

    @pytest.mark.skipif(not DIGITS, reason="this interpreter prints ints of any length")
    @pytest.mark.parametrize("family", [f for f in cli.FAMILIES if not f.startswith("multiset-")])
    def test_listing_past_its_digit_reach_exits_2_at_once(self, family):
        # more objects than a count may print, with no bound on the first word's length
        reach = int(self.DIGITS / math.log10(4 if family in self.BASE_4 else 3))
        start = time.monotonic()
        done = self.cli_process(["enumerate", "--family", family, "--n", str(reach + 1)])
        assert time.monotonic() - start < 1
        err = f"error: --n {reach + 1} is beyond the count reach of {family} ({reach})\n"
        assert (done.returncode, done.stdout, done.stderr) == (2, "", err)

    @pytest.mark.parametrize("count_only", [[], ["--count-only"]], ids=["list", "count"])
    def test_a_size_past_a_float_is_an_error_line(self, capsys, count_only):
        argv = ["enumerate", "--family", "multiset-star", "--n", str(10**400), *count_only]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_without_a_digit_limit_counts_have_no_reach(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0, raising=False)
        for family in cli.FAMILIES:
            cli._check_count_reach(family, 10**12, None)
        assert "reach: unlimited" in " ".join(run(capsys, "enumerate", "--help")[1].split())

    @pytest.mark.parametrize(
        "argv",
        [
            # the one multiset of 10^12 values from {1}, within the count reach: its count is 1
            pytest.param(
                ["enumerate", "--family", "multiset-all", "--n", str(10**12), "--k", "1"],
                id="multiset-all-k1",
            ),
            # the staircase word of one value bounded by 10^12
            pytest.param(
                ["map", "--from", "multiset", "--to", "path", "--input", f"1|k={10**12}"],
                id="map-multiset",
            ),
        ],
    )
    def test_out_of_memory_is_an_error_line_with_exit_2(self, argv):
        # the child's address space is capped, so the call cannot take the machine's memory
        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2**29, 2**29))

        done = self.cli_process(argv, preexec_fn=cap_memory)
        assert (done.returncode, done.stdout, done.stderr) == (2, "", "error: out of memory\n")


class TestUsage:
    def test_no_verb(self, capsys):
        assert run(capsys, )[0] == 2

    def test_unknown_verb(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_console_script_runs_cli_main(self, capsys):
        # pyproject.toml's [project.scripts] entry, read without tomllib (3.10 has none)
        pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
        scripts = pyproject.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
        module, name = re.search(r'^heapdyck = "([\w.]+):(\w+)"$', scripts, re.M).groups()
        main = getattr(importlib.import_module(module), name)
        assert main is cli.main
        code = main(["map", "--from", "path", "--to", "heap", "--input", "UUDD"])
        assert type(code) is int and code == 0
        assert capsys.readouterr().out == "(0,0);(1,1)\n"


def _through_full_parser(argv):
    """The exit code of argv parsed by the full parser and then dispatched."""
    try:
        args = cli._build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    return cli._VERBS[args.verb].run(args)


# per verb: a well-formed command, the same with abbreviated options, a missing
# required option and a bad choice.  table1 has neither a required option nor a
# choice, and no unambiguous abbreviation: a missing and a bad int stand in, and its
# abbreviation is ambiguous
COMMANDS = {
    "enumerate": (
        ["enumerate", "--family", "dyck", "--n", "3"],
        ["enumerate", "--fam", "dyck", "--n", "3"],
        ["enumerate", "--n", "3"],
        ["enumerate", "--family", "nope", "--n", "3"],
    ),
    "map": (
        ["map", "--from", "path", "--to", "heap", "--input", "UUDDDUUD"],
        ["map", "--fr", "path", "--to", "heap", "--in", "UUDDDUUD"],
        ["map", "--from", "path", "--to", "heap"],
        ["map", "--from", "x", "--to", "heap", "--input", "UD"],
    ),
    "stats": (
        ["stats", "--kind", "path", "--json", "--input", "UUDD"],
        ["stats", "--ki", "path", "--js", "--inp", "UUDD"],
        ["stats", "--input", "UD"],
        ["stats", "--kind", "x", "--input", "UD"],
    ),
    "series": (
        ["series", "--name", "Q", "--order", "5"],
        ["series", "--na", "Q", "--ord", "5"],
        ["series", "--name", "Q"],
        ["series", "--name", "x", "--order", "3"],
    ),
    "table1": (
        ["table1", "--max-n", "3", "--max-k", "2"],
        ["table1", "--max", "3"],
        ["table1", "--max-n"],
        ["table1", "--max-k", "x"],
    ),
    "verify": (
        ["verify", "counts", "--max-n", "2"],
        ["verify", "counts", "--max", "2"],
        ["verify"],
        ["verify", "nope"],
    ),
    "render": (
        ["render", "--kind", "path", "--input", "UUDD"],
        ["render", "--ki", "path", "--in", "UUDD"],
        ["render", "--kind", "path"],
        ["render", "--kind", "path", "--format", "png", "--input", "UD"],
    ),
}


def _parity_cases():
    yield "no-arguments", []
    yield "short-help", ["-h"]
    yield "long-help", ["--help"]
    yield "unknown-verb", ["frobnicate", "--n", "3"]
    yield "option-before-verb", ["-h", "map"]
    for verb, (argv, abbreviated, missing, bad_choice) in COMMANDS.items():
        yield f"{verb}-help", [verb, "--help"]
        yield f"{verb}-missing", missing
        yield f"{verb}-bad-choice", bad_choice
        yield f"{verb}-abbreviated", abbreviated
        yield f"{verb}-equals", [verb, *_joined(argv[1:])]
        yield f"{verb}-stray-positional", [*argv, "stray"]
        yield f"{verb}-stray-option", [*argv, "--bogus"]


def _joined(args):
    """args with each option and its value written as --opt=value."""
    out = []
    for a in args:
        if out and out[-1].startswith("--") and "=" not in out[-1] and not a.startswith("-"):
            out[-1] += "=" + a
        else:
            out.append(a)
    return out


PARITY = list(_parity_cases())


class TestParsing:
    """A command that starts with a verb builds only that verb's parser; everything
    else goes through the full parser.  Both must give the same bytes and code."""

    @pytest.mark.parametrize("argv", [argv for _, argv in PARITY], ids=[name for name, _ in PARITY])
    def test_same_as_the_full_parser(self, capsys, argv):
        got = run(capsys, *argv)
        code = _through_full_parser(argv)
        assert got == (code, *capsys.readouterr())

    @pytest.mark.parametrize("verb", COMMANDS)
    def test_well_formed_command_builds_only_its_verb(self, capsys, monkeypatch, verb):
        def refuse():
            raise AssertionError("the full parser was built")

        monkeypatch.setattr(cli, "_build_parser", refuse)
        code, out, err = run(capsys, *COMMANDS[verb][0])
        assert (code, err) == (0, "")
        assert out


_MALFORMED = ("", "x", "-1", "0", "1.5")


def _one_past_reach(verb, dest, chosen):
    """One past the reach of the verb's size argument dest, given the choices drawn
    for the verb, or None where no draw may go past it."""
    family, name, suite = chosen.get("family"), chosen.get("name"), chosen.get("suite")
    if verb == "enumerate" and dest == "n" and family in cli._WORD_FAMILIES:
        # not a multiset family: with --k above 1, an --n in the thousands lists
        # billions of lines, and no limit refuses that yet
        reach = cli._digit_reach(4 if family in TestReach.BASE_4 else 3)
    elif verb == "series" and name in series.CLOSED_FORMS:
        reach = cli._series_reach(name)
    elif verb == "table1":
        reach = cli.TABLE1_REACH
    elif verb == "verify" and suite in verify.SUITE_CAPS:
        reach = verify.SUITE_CAPS[suite]
    else:
        reach = None
    return None if reach is None else reach + 1


@st.composite
def _commands(draw):
    """A verb of cli._VERBS and, in any order, its required arguments and some of its
    options, each with a choice, a malformed value, a size up to 6 (3 for verify) or a
    size one past its reach."""
    verb = draw(st.sampled_from(tuple(cli._VERBS)))
    parser = argparse.ArgumentParser()
    cli._VERBS[verb].add_arguments(parser)
    actions = [a for a in parser._actions if a.dest not in ("help", "output")]
    chosen = {
        a.dest: draw(st.sampled_from((*a.choices, *_MALFORMED))) for a in actions if a.choices
    }
    sizes = [str(n) for n in range(1, 4 if verb == "verify" else 7)]
    pairs = []
    for a in actions:
        # verify runs at its suite's cap when --max-n is missing
        if not (a.required or verb == "verify" and a.dest == "max_n" or draw(st.booleans())):
            continue
        if a.nargs == 0:
            value = []
        elif a.dest in chosen:
            value = [chosen[a.dest]]
        else:
            values = [*sizes, *_MALFORMED]
            past = _one_past_reach(verb, a.dest, chosen)
            if past:
                values.append(str(past))
            value = [draw(st.sampled_from(values))]
        pairs.append([*a.option_strings[:1], *value])
    return [verb, *(token for pair in draw(st.permutations(pairs)) for token in pair)]


class TestDrawnCommands:
    """Any command drawn from a verb's own arguments ends in exit 0, 1 or 2, with no
    traceback."""

    @settings(deadline=None, max_examples=300)
    @given(_commands())
    def test_any_command_exits_0_1_or_2_without_a_traceback(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err.getvalue(), argv
