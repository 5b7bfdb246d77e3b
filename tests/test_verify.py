"""Suite plumbing plus mutation smoke checks.

Each mutation swaps one implementation detail for a subtly wrong one
and expects the relevant suite to flip to FAIL through the named checks
that see the defect, never through a crash of the whole suite.  Nothing
is cached between calls, so a mutation takes effect at once.
"""

import gc
import json
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import pytest

from heapdyck import bijections, cli, counting, heaps, multisets, paths, verify

import oracles

_PINNED_REPORTS = Path(__file__).with_name("verify_reports.json")


class TestReports:
    @pytest.mark.parametrize("suite", verify.SUITES)
    def test_clean_build_passes(self, suite):
        report = verify.run_suite(suite, 3 if suite != "series" else 10)
        assert report.ok
        assert report.checks
        assert all(line.startswith("OK ") for line in report.format_lines())

    def test_payload_shape(self):
        report = verify.run_suite("counts", 3)
        payload = report.to_payload()
        assert payload["suite"] == "counts"
        assert payload["maxN"] == 3
        assert payload["ok"] is True
        assert all(set(c) == {"name", "ok", "detail"} for c in payload["checks"])

    def test_run_all_covers_every_suite(self):
        reports = verify.run_all(2)
        assert [r.suite for r in reports] == list(verify.SUITES)

    def test_run_all_clamps_bounds_like_the_cli(self, monkeypatch, capsys):
        reports = verify.run_all(9)
        assert all(r.ok for r in reports)

        def bound_only(suite, max_n=None):
            bound = verify.SUITE_CAPS[suite] if max_n is None else max_n
            return verify.VerifyReport(suite, bound, [])

        monkeypatch.setattr(verify, "run_suite", bound_only)
        assert cli.main(["verify", "all", "--max-n", "9", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [r["maxN"] for r in payload["reports"]] == [r.max_n for r in reports]
        assert [r.max_n for r in reports] == [9, 8, 8, 9, 7]

    @pytest.mark.parametrize("max_n", [None, 3])
    def test_reports_match_the_pinned_ones(self, max_n):
        """verify_reports.json holds every report of run_all, by max_n; a change that
        alters a report on purpose writes the file again."""
        pinned = json.loads(_PINNED_REPORTS.read_text())[json.dumps(max_n)]
        assert [r.to_payload() for r in verify.run_all(max_n)] == pinned

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            verify.run_suite("nope", 2)

    @pytest.mark.parametrize("bad", [0, 9, 100])
    def test_bound_caps(self, bad):
        with pytest.raises(ValueError):
            verify.run_suite("bijections", bad)

    @pytest.mark.parametrize(
        "suite,names",
        [
            (
                "counts",
                [
                    "dyck-count-is-catalan",
                    "dyck-star-count-is-motzkin",
                    "grand-dyck-count-is-central-binomial",
                    "multiset-count-is-binomial",
                    "star-multisets-match-dud-free-words",
                    "dud-free-matches-udu-free-count",
                    "no-single-multisets-match-udu-free-words",
                    "star-count-matches-series-Q",
                    "grammar-counts-match-series",
                    "grammar-counts-match-binomial-formulas",
                ],
            ),
            (
                "bijections",
                [
                    "staircase-round-trip",
                    "staircase-is-bijective",
                    "staircase-super-image",
                    "staircase-star-image",
                    "staircase-no-single-except-k-image",
                    "staircase-super-star-image",
                    "run-heap-round-trip",
                    "factorize-recomposes",
                    "run-heap-image-is-grammar-T",
                    "dyck-image-is-grammar-Ts",
                    "dud-free-image-is-grammar-Q",
                    "dud-free-dyck-image-is-grammar-Qs",
                    "grammar-matches-brute-force-animals",
                    "grammar-matches-subdiagonal-animals",
                    "square-animals-are-diagonal-free-heaps",
                    "animal-round-trip",
                    "listed-families-match-counts",
                ],
            ),
            (
                "statistics",
                [
                    "area-equals-semilength-equals-length",
                    "left-width-equals-crossings",
                    "right-width-equals-height",
                    "diagonal-pairs-equal-dud-equal-adjacency",
                    "width-splits-into-crossings-plus-height",
                    "gap-profile-equals-d-end-heights",
                    "u-count-per-height-totals-semilength",
                    "u-heights-track-dimer-columns",
                    "gap-stays-within-one-of-height",
                    "gap-is-height-minus-one-on-crossing-free-words",
                    "u-height-column-offsets-are-constant",
                ],
            ),
            (
                "series",
                [
                    "series-identity: Ts = z(1+Ts)^2",
                    "series-identity: Qs = z(1+Qs+Qs^2)",
                    "series-identity: T = Ts(1+T)",
                    "series-identity: Q = Qs(1+Q)",
                    "series-identity: sqrt(1, -4) squares back",
                    "series-identity: sqrt(1, -2, -3) squares back",
                    "series-identity: diagonal(f) = Q",
                    "series-identity: diagonal(h) = Q",
                    "series-identity: diagonal(f) satisfies (1-3x)(1+2Y)^2 = 1+x",
                    "series-identity: diagonal(h) satisfies (1-3x)(1+2Y)^2 = 1+x",
                    "table-f-counts-star-multisets",
                    "table-f-matches-its-rational-function",
                    "table-h-counts-no-single-multisets",
                    "table-h-matches-its-rational-function",
                ],
            ),
            (
                "symmetry",
                [
                    "left-plus-one-matches-right-width",
                    "crossings-plus-one-matches-height",
                    "reflection-swaps-widths",
                    "left-width-counts-match-right-width-counts",
                    "left-width-counts-match-crossing-counts",
                ],
            ),
        ],
    )
    def test_check_names_in_order(self, suite, names):
        """Each suite reports every check it has, once, in a fixed order."""
        assert [c.name for c in verify.run_suite(suite, 2).checks] == names

    @pytest.mark.parametrize("max_n,oracle_n,round_trip_n", [(None, 7, 6), (3, 3, 3)])
    def test_animal_checks_report_their_own_sizes(self, max_n, oracle_n, round_trip_n):
        """The animal checks run to the brute force's cap, not to the suite's bound."""
        bijection_details = {c.name: c.detail for c in verify.run_suite("bijections", max_n).checks}
        symmetry_details = {c.name: c.detail for c in verify.run_suite("symmetry", max_n).checks}
        assert bijection_details["grammar-matches-brute-force-animals"] == (
            f"triangular and square animals, sizes 1..{oracle_n}"
        )
        assert bijection_details["grammar-matches-subdiagonal-animals"] == (
            f"subdiagonal triangular and square animals, sizes 1..{oracle_n}"
        )
        assert bijection_details["square-animals-are-diagonal-free-heaps"] == (
            f"every triangular animal, sizes 1..{oracle_n}"
        )
        assert bijection_details["animal-round-trip"] == (
            f"every triangular animal, sizes 1..{round_trip_n}"
        )
        assert symmetry_details["reflection-swaps-widths"] == (
            f"every triangular animal, sizes 1..{round_trip_n}"
        )

    def test_bijections_suite_holds_one_phase_at_a_time(self):
        """The suite's traced peak over what its largest phase must hold: the n = 8
        word -> heap map and the grammar's T heaps.  The ratio read 2.06 when every
        list of a size lived until the next size, and 1.19 with one phase at a time
        (2.06 and 1.20 on Python 3.10)."""

        def traced_peak(fn):
            gc.collect()
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def largest_phase():
            return (
                {w: bijections.path_to_heap(w) for w in paths.enumerate_family("grand_dyck", 8)},
                bijections.grammar_enumerate(8, "T"),
            )

        peak = traced_peak(lambda: verify.run_suite("bijections"))
        assert peak < 1.7 * traced_peak(largest_phase)

    def test_bijections_suite_maps_each_multiset_once_per_size(self, monkeypatch):
        calls = []
        to_path = bijections.multiset_to_path

        def counted(m):
            calls.append(m)
            return to_path(m)

        monkeypatch.setattr(bijections, "multiset_to_path", counted)
        assert verify.run_suite("bijections", 4).ok
        # every multiset over 1..n at n = 1..4, the subfamilies reading the round trip's words
        assert len(calls) == len(set(calls)) == 1 + 3 + 10 + 35

    @pytest.mark.parametrize("n", [0, 1, 2, 60])
    def test_motzkin_row_by_its_p_recurrence_matches_the_convolution(self, n):
        # the counts suite's Qs formula; the library's Qs recurrence is the convolution
        assert verify._motzkin_row(n) == [oracles.motzkin(m) for m in range(n + 1)]

    def test_statistics_reports_detected_relations(self):
        report = verify.run_suite("statistics", 4)
        details = {c.name: c.detail for c in report.checks}
        assert "offset 1 on" in details["gap-stays-within-one-of-height"]
        assert "+ 1 above" in details["u-height-column-offsets-are-constant"]


class TestGuard:
    """How a walk guards against a library error: `_Recorder.holds`, one try per object."""

    def test_records_a_library_error_at_its_place_and_suppresses_it(self):
        seen = []

        def pred(w):
            seen.append(w)
            if w.startswith("UD"):
                raise heaps.NotAHeapError("empty heap")
            return w != "DUUD"

        rec = verify._Recorder()
        rec.holds("check", pred, ["UUDD", "UDDU", "UDUD", "DUUD"], "n=2, word")  # fails once
        rec.holds("false", pred, ["DUUD", "UDDU"], "n=2, word")  # a False first, an error next
        rec.holds("clean", pred, ["UUDD"], "n=2, word")
        assert seen == ["UUDD", "UDDU", "UDUD", "DUUD", "DUUD", "UDDU", "UUDD"]
        assert rec.results("fine") == [
            verify.CheckResult("check", False, "n=2, word UDDU: NotAHeapError: empty heap"),
            verify.CheckResult("false", False, "n=2, word DUUD"),
            verify.CheckResult("clean", True, "fine"),
        ]

    def test_any_other_exception_reaches_the_suite_wrapper(self, monkeypatch):
        def broken(h):
            raise KeyError("boom")

        with pytest.raises(KeyError):
            verify._Recorder().holds("check", broken, ["UD"], "n=1, word")
        monkeypatch.setattr(heaps, "heap_stats", broken)  # called inside the symmetry tries
        assert verify.run_suite("symmetry", 2).checks == [
            verify.CheckResult("suite-execution", False, "KeyError: 'boom'")
        ]

    def test_formats_its_place_only_on_failure(self):
        shown = []

        class Shown:
            def __str__(self):
                shown.append(self)
                return "obj"

        def broken(x):
            raise heaps.NotAHeapError("empty heap")

        rec = verify._Recorder()
        rec.holds("clean", lambda x: True, [Shown(), Shown()], "at")  # records and shows nothing
        assert shown == []
        rec.holds("check", broken, [Shown()], "at")
        rec.holds("false", lambda x: False, [Shown()], "at")
        assert len(shown) == 2
        assert rec.results("fine") == [
            verify.CheckResult("clean", True, "fine"),
            verify.CheckResult("check", False, "at obj: NotAHeapError: empty heap"),
            verify.CheckResult("false", False, "at obj"),
        ]

    def test_symmetry_shows_no_animal_when_every_check_passes(self, monkeypatch):
        shown = []
        to_text = heaps.points_to_text

        def counted(a):
            shown.append(a)
            return to_text(a)

        monkeypatch.setattr(heaps, "points_to_text", counted)
        assert verify.run_suite("symmetry").ok
        assert shown == []


def _failing(suite, max_n=4):
    """The detail of each check that fails, by name; a crash of the whole suite may not be one."""
    report = verify.run_suite(suite, max_n)
    failing = {c.name: c.detail for c in report.checks if not c.ok}
    assert "suite-execution" not in failing
    return failing


def _drop_with(monkeypatch, drop_level):
    """heaps.drop_columns replaced by the per-dimer reference loop, landing by drop_level."""
    monkeypatch.setattr(oracles, "_drop_level", drop_level)
    monkeypatch.setattr(heaps, "drop_columns", oracles.reference_drop_columns)


class TestMutationSmoke:
    def test_broken_staircase_map_is_caught(self, monkeypatch):
        orig = bijections.multiset_to_path

        def swapped_tail(m):
            w = orig(m)
            return w[:-2] + w[-1] + w[-2]

        monkeypatch.setattr(bijections, "multiset_to_path", swapped_tail)
        failing = _failing("bijections")
        assert failing.keys() == {
            "staircase-round-trip",
            "staircase-is-bijective",
            "staircase-super-image",
            "staircase-star-image",
            "staircase-no-single-except-k-image",
            "staircase-super-star-image",
        }
        assert failing["staircase-round-trip"] == (
            "n=1, multiset 1: NotStartingUError: word must start with U: 'DU'"
        )

    def test_wrong_staircase_inverse_names_the_multiset(self, monkeypatch):
        # every word read back as the all-ones multiset of its semilength
        def all_ones(word):
            n = len(word) // 2
            return multisets.Multiset((1,) * n, n)

        monkeypatch.setattr(bijections, "path_to_multiset", all_ones)
        assert _failing("bijections", 3) == {"staircase-round-trip": "n=2, multiset 1,2"}

    @pytest.mark.parametrize("seed", ["1", "2"])
    def test_failure_names_the_same_word_under_any_hash_seed(self, seed):
        # every size-4 heap read back as its word reversed, in a process of its own hash seed;
        # factorize reads that word too
        probe = textwrap.dedent(
            """
            from heapdyck import bijections, verify
            orig = bijections.heap_to_path
            bijections.heap_to_path = lambda h: orig(h)[::-1] if len(h) == 4 else orig(h)
            print(*verify.run_suite("bijections", 4).format_lines(), sep="\\n")
            """
        )
        src = Path(verify.__file__).parent.parent
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed)
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        failing = [line for line in done.stdout.splitlines() if not line.startswith("OK ")]
        assert failing == [
            "FAIL run-heap-round-trip: n=4, word UUUUDDDD",
            "FAIL factorize-recomposes: n=4, word UUUUDDDD: NotGrandDyckError: "
            "need a balanced word starting with U: 'DDDDUUUU'",
        ]

    def test_miscounted_diagonals_name_the_animal(self, monkeypatch):
        orig = heaps.heap_stats

        def one_more_at_three(h):
            s = orig(h)
            return s._replace(diag=s.diag + 1) if len(h) == 3 else s

        monkeypatch.setattr(heaps, "heap_stats", one_more_at_three)
        assert _failing("bijections") == {
            "square-animals-are-diagonal-free-heaps": "n=3, animal (0,0);(0,1);(1,1)"
        }

    @pytest.mark.parametrize(
        "old, new, detail",
        [
            # the right neighbour's top lowers the point instead of raising it
            ("get(col + 1, -2) + 1", "get(col + 1, -2) - 1", "n=3, animal (0,0);(1,1);(1,2)"),
            # a dimer on top of another in its column takes that one's diagonal sum
            ("get(col, -2) + 2", "get(col, -2)", "n=2, animal (0,0);(1,1)"),
        ],
        ids=["right-neighbour", "same-column"],
    )
    def test_wrong_lowest_embedding_names_the_animal(self, monkeypatch, old, new, detail):
        # a disconnected point set fails the round trip, not the whole suite
        wrong = oracles.mutated(heaps.heap_to_animal, old, new)
        monkeypatch.setattr(heaps, "heap_to_animal", wrong)
        assert _failing("bijections") == {"animal-round-trip": detail}

    def test_missing_run_reversal_is_caught(self, monkeypatch):
        # below-axis runs read as they stand, like the above-axis ones: D steps
        # right to left at their signed heights.  Dyck words have no such run.
        unreversed = oracles.mutated(bijections.drop_sequence, "if y >= 0:", "if True:")
        monkeypatch.setattr(bijections, "drop_sequence", unreversed)
        failing = _failing("bijections")
        assert failing.keys() == {
            "run-heap-round-trip",
            "run-heap-image-is-grammar-T",
            "dud-free-image-is-grammar-Q",
        }
        assert failing["run-heap-round-trip"].startswith("n=2, word UDDU: NotAHeapError: ")

    def test_one_sided_gravity_is_caught(self, monkeypatch):
        def lopsided(tops, column):
            best = -1
            for c in (column, column + 1):
                lvl = tops.get(c, -1)
                if lvl > best:
                    best = lvl
            return best + 1

        _drop_with(monkeypatch, lopsided)
        # a fallen heap is checked at its ground only, so an animal whose lopsided heap
        # overlaps but is grounded goes on to fail its round trip
        assert _failing("bijections").keys() == {
            "animal-round-trip",
            "run-heap-round-trip",
            "factorize-recomposes",
            "run-heap-image-is-grammar-T",
            "dyck-image-is-grammar-Ts",
            "dud-free-image-is-grammar-Q",
            "dud-free-dyck-image-is-grammar-Qs",
            "grammar-matches-brute-force-animals",
            "grammar-matches-subdiagonal-animals",
            "square-animals-are-diagonal-free-heaps",
        }

    def test_fallen_without_its_ground_check_takes_a_bad_ground(self):
        # gravity leaves only the ground to check; without that check, dimers dropped
        # off column 0 or beside the first dimer make a heap Heap refuses
        groundless = oracles.mutated(
            heaps.fallen, "canon[0] != (0, 0) or len(canon) > 1 and not canon[1][1]", "False"
        )
        for columns in ([1], [1, 0], [0, 2]):
            dimers = heaps.drop_columns(columns)
            assert isinstance(groundless(dimers), heaps.Heap)
            for build in (heaps.fallen, heaps.Heap):
                with pytest.raises(heaps.NotAHeapError, match="^need exactly one level-0"):
                    build(dimers)

    def test_one_sided_gravity_fails_symmetry_checks(self, monkeypatch):
        # the animal map drops by heaps.drop_columns; the grammar keeps column tops of its
        # own, so its widths stay right and only the animals' reflection fails
        def lopsided(tops, column):
            return max(tops.get(column, -1), tops.get(column + 1, -1)) + 1

        _drop_with(monkeypatch, lopsided)
        assert _failing("symmetry").keys() == {"reflection-swaps-widths"}

    @pytest.mark.parametrize("offsets", [(1, -1), (-1, -1)])
    def test_case_v_base_off_its_column_fails_factorize_alone(self, monkeypatch, offsets):
        # the listing walk reads case v's second offset alone, and the counts read neither,
        # so only factorize and compose see where the base part drops
        monkeypatch.setitem(counting.CASES, "v", offsets)
        failing = {c.name: c.detail for r in verify.run_all(3) for c in r.checks if not c.ok}
        assert failing == {
            "factorize-recomposes": "n=2, word UDDU: FactorizationFailedError: no constructor "
            "case drops parts at (0, -1) in Heap('(0,0);(-1,1)')"
        }

    def test_square_grammar_with_a_bare_c_part_is_caught(self, monkeypatch):
        # a square node may take a part straight above it alone, as a triangular node
        # does; the word images and the brute-force animals never read the case table,
        # nor do the series and the binomial formulas that the counts are checked against
        want = bijections.grammar_enumerate(2, "Qs")
        monkeypatch.setitem(counting.NODE_CASES, "Q", counting.NODE_CASES["T"])
        assert bijections.grammar_enumerate(2, "Qs") != want
        assert _failing("bijections") == {
            "dud-free-image-is-grammar-Q": "n=2",
            "dud-free-dyck-image-is-grammar-Qs": "n=2",
            "grammar-matches-brute-force-animals": "square, n=2",
            "grammar-matches-subdiagonal-animals": "square subdiagonal, n=2",
        }
        assert _failing("counts") == {
            "grammar-counts-match-series": "class Q, n=2",
            "grammar-counts-match-binomial-formulas": "class Qs, n=2",
        }

    def test_inflated_height_is_caught(self, monkeypatch):
        orig = paths.height_stats

        def taller(word):
            s = orig(word)
            return s._replace(height_max=s.height_max + 1)

        monkeypatch.setattr(paths, "height_stats", taller)
        assert _failing("statistics").keys() == {
            "right-width-equals-height",
            "width-splits-into-crossings-plus-height",
            "gap-stays-within-one-of-height",
            "gap-is-height-minus-one-on-crossing-free-words",
        }

    def test_positive_only_u_profile_is_caught(self, monkeypatch):
        # U steps at modified height 0 or below dropped from the profile, and
        # from the U count with them, so the scan agrees with itself
        orig = paths.height_stats

        def positive_only(word):
            s = orig(word)
            nbu = {h: k for h, k in s.nbu_profile.items() if h > 0}
            return s._replace(semilength=sum(nbu.values()), nbu_profile=nbu)

        monkeypatch.setattr(paths, "height_stats", positive_only)
        failing = _failing("statistics")
        assert failing.keys() == {
            "area-equals-semilength-equals-length",
            "u-count-per-height-totals-semilength",
        }
        assert failing["u-count-per-height-totals-semilength"] == "n=2, word UDDU"

    def test_word_whose_statistics_raise_fails_one_check(self, monkeypatch):
        orig = bijections.path_to_multiset

        def planted(word):
            if word == "UUDD":
                raise multisets.OutOfRangeError("planted")
            return orig(word)

        monkeypatch.setattr(bijections, "path_to_multiset", planted)
        assert _failing("statistics", 3) == {
            "area-equals-semilength-equals-length": "n=2, word UUDD: OutOfRangeError: planted"
        }

    def test_shifted_gap_profile_is_caught(self, monkeypatch):
        orig = multisets.stats

        def shifted(m):
            s = orig(m)
            return s._replace(gap_profile=tuple(g + 1 for g in s.gap_profile))

        monkeypatch.setattr(multisets, "stats", shifted)
        failing = _failing("statistics")
        assert failing.keys() == {"gap-profile-equals-d-end-heights"}
        assert failing["gap-profile-equals-d-end-heights"].startswith("n=1, ")

    def test_dropped_crossing_is_caught(self, monkeypatch):
        # a crossing back up from below the axis still lowers the heights,
        # but starts no run, so that run's U steps join the run before
        merged = oracles.mutated(
            verify._run_u_heights,
            'runs.append((x, step == "D", []))',
            'if step == "D": runs.append((x, True, []))',
        )
        monkeypatch.setattr(verify, "_run_u_heights", merged)
        failing = _failing("statistics")
        assert failing.keys() == {"u-heights-track-dimer-columns"}
        assert failing["u-heights-track-dimer-columns"] == "n=3, word UDDUUD, run at 2"

    def test_count_recurrence_without_case_iii_is_caught(self, monkeypatch):
        monkeypatch.setitem(counting.NODE_CASES, "T", ("i", "ii", "iv"))
        report = verify.run_suite("counts", 4)
        failing = {c.name for c in report.checks if not c.ok}
        assert failing == {"grammar-counts-match-series", "grammar-counts-match-binomial-formulas"}

    def test_word_count_without_pattern_is_caught(self, monkeypatch):
        # DUD-free words counted as all words, and UDU-free ones too, so the
        # two pattern-avoiding word counts still agree with each other
        unfiltered = oracles.mutated(paths.count_family, "tail + step != pattern", "True")
        monkeypatch.setattr(paths, "count_family", unfiltered)
        failing = _failing("counts")
        assert failing.keys() == {
            "dyck-star-count-is-motzkin",
            "star-multisets-match-dud-free-words",
            "no-single-multisets-match-udu-free-words",
        }
        assert failing["dyck-star-count-is-motzkin"] == "n=2: 2 vs 1"
        assert _failing("bijections").keys() == {"listed-families-match-counts"}

    def test_multiset_count_without_repeat_flag_is_caught(self, monkeypatch):
        # no_single_except_k lets a value below the bound climb before it repeats
        flagless = oracles.mutated(
            multisets.count_family, "(once[v] if single_climbs else 0)", "once[v]"
        )
        monkeypatch.setattr(multisets, "count_family", flagless)
        assert _failing("counts").keys() == {"no-single-multisets-match-udu-free-words"}
        failing = _failing("bijections")
        assert failing == {
            "listed-families-match-counts": "n=2, heapdyck.multisets no_single_except_k: "
            "2 listed, 3 counted"
        }

    def test_wrong_series_sign_is_caught(self, monkeypatch):
        from heapdyck import series

        orig = series._from_root  # what closed_form and check_identities build Q with

        def negated(name, order, root):
            s = orig(name, order, root)
            return series.Series(-c for c in s.coeffs) if name == "Q" else s

        monkeypatch.setattr(series, "_from_root", negated)
        assert _failing("series", 10).keys() == {
            "series-identity: Q = Qs(1+Q)",
            "series-identity: diagonal(f) = Q",
            "series-identity: diagonal(h) = Q",
        }

    def test_table_h_with_a_wrong_denominator_term_is_caught(self, monkeypatch):
        from heapdyck import series

        numerator, denominator = series._TABLES["h"]
        # the term -z^2 u raised by 1: the rows do not read it, and their product with it does
        monkeypatch.setitem(series._TABLES, "h", (numerator, {**denominator, (2, 1): 0}))
        assert _failing("series") == {
            "table-h-matches-its-rational-function": "n=2, k=2: product 1, numerator 0"
        }

    @pytest.mark.parametrize(
        "name, old, new, check",
        [
            # f without its pass - u F_(n-1): F_n = prefix(F_(n-1))
            ("f", "list(map(sub, accumulate(row), chain((0,), row)))", "list(accumulate(row))",
             "table-f-counts-star-multisets"),
            # h without its shift by u: H_n = H_(n-1) + prefix(H_(n-2))
            ("h", "accumulate(before[:-1], initial=0)", "accumulate(before)",
             "table-h-counts-no-single-multisets"),
        ],
        ids=["f-without-u-pass", "h-without-shift"],
    )
    def test_a_wrong_row_recurrence_is_caught(self, monkeypatch, name, old, new, check):
        from heapdyck import series

        monkeypatch.setitem(series._ROWS, name, oracles.mutated(series._ROWS[name], old, new))
        assert _failing("series", 6).keys() == {
            check,
            f"table-{name}-matches-its-rational-function",
            f"series-identity: diagonal({name}) = Q",
            f"series-identity: diagonal({name}) satisfies (1-3x)(1+2Y)^2 = 1+x",
        }

    def test_a_root_off_by_an_odd_amount_fails_the_identities_alone(self, monkeypatch):
        # 1 - 2z - root is then odd at z^3, and halving it leaves the integers: check_identities
        # raises, which fails one check, and the table checks still run
        from heapdyck import series

        sqrt = series.Series.sqrt

        def off(self):
            coeffs = list(sqrt(self).coeffs)
            if len(coeffs) > 3:
                coeffs[3] += 1
            return series.Series(coeffs)

        monkeypatch.setattr(series.Series, "sqrt", off)
        report = verify.run_suite("series", 6)
        assert [(c.name, c.ok) for c in report.checks] == [
            ("series-identities", False),
            ("table-f-counts-star-multisets", True),
            ("table-f-matches-its-rational-function", True),
            ("table-h-counts-no-single-multisets", True),
            ("table-h-matches-its-rational-function", True),
        ]
        assert report.checks[0].detail == (
            "order 6: NotIntegralError: coefficient 2 is not an integer (remainder 1 mod 2)"
        )

    def test_star_count_that_counts_every_multiset_is_caught(self, monkeypatch):
        orig = multisets.count_family

        def counts_all(family, n, k=None):
            return orig("all" if family == "star" else family, n, k)

        monkeypatch.setattr(multisets, "count_family", counts_all)
        assert _failing("series") == {
            "table-f-counts-star-multisets": "n=2, k=2: table 2, count 3"
        }


def _raise_at(monkeypatch, module, name, hit):
    """module.name replaced by one that raises a library error on the arguments hit
    accepts, and on those alone, as a map that is a function of its input would."""
    orig = getattr(module, name)

    def planted(*args):
        if hit(*args):
            raise heaps.NotAHeapError("planted")
        return orig(*args)

    monkeypatch.setattr(module, name, planted)


class TestOneMapRaises:
    """`verify bijections` when one map raises on one object: every check that maps
    that object fails, naming it, and every other check passes."""

    def test_staircase_map_of_a_superdiagonal_multiset(self, monkeypatch):
        _raise_at(monkeypatch, bijections, "multiset_to_path", lambda m: str(m) == "1,2")
        at = "n=2, multiset 1,2: NotAHeapError: planted"
        assert _failing("bijections") == {
            "staircase-round-trip": at,
            "staircase-is-bijective": "n=2: image size 2, target 3",
            "staircase-super-image": at,
        }

    def test_heap_of_a_dud_free_dyck_word(self, monkeypatch):
        # the word is in the grand-Dyck, Dyck, DUD-free and DUD-free Dyck families
        _raise_at(monkeypatch, bijections, "path_to_heap", lambda w: w == "UUDD")
        at = "n=2, word UUDD: NotAHeapError: planted"
        assert _failing("bijections") == {
            "run-heap-round-trip": at,
            "run-heap-image-is-grammar-T": "n=2: 2 heaps",
            "dyck-image-is-grammar-Ts": at,
            "dud-free-image-is-grammar-Q": at,
            "dud-free-dyck-image-is-grammar-Qs": at,
        }

    def test_word_of_a_heap(self, monkeypatch):
        hit = "(0,0);(1,1);(0,2)"
        _raise_at(monkeypatch, bijections, "heap_to_path", lambda h: heaps.to_text(h) == hit)
        at = "n=3, word UDUUDD: NotAHeapError: planted"
        assert _failing("bijections") == {"run-heap-round-trip": at, "factorize-recomposes": at}

    def test_heap_of_a_triangular_animal(self, monkeypatch):
        # a subdiagonal animal with a diagonal step, so no square one
        _raise_at(
            monkeypatch, heaps, "animal_to_heap", lambda a: heaps.points_to_text(a) == "(0,0);(1,1)"
        )
        at = "n=2, animal (0,0);(1,1): NotAHeapError: planted"
        assert _failing("bijections") == {
            "grammar-matches-brute-force-animals": "triangular, " + at,
            "grammar-matches-subdiagonal-animals": "triangular subdiagonal, " + at,
            "square-animals-are-diagonal-free-heaps": at,
        }

    def test_heap_of_a_square_animal(self, monkeypatch):
        # a square animal is a triangular one too; the square listing is read first
        _raise_at(
            monkeypatch, heaps, "animal_to_heap", lambda a: heaps.points_to_text(a) == "(0,0);(0,1)"
        )
        at = "n=2, animal (0,0);(0,1): NotAHeapError: planted"
        assert _failing("bijections") == {
            "grammar-matches-brute-force-animals": "triangular, " + at,
            "square-animals-are-diagonal-free-heaps": "square, " + at,
        }

    def test_animal_of_a_heap(self, monkeypatch):
        _raise_at(monkeypatch, heaps, "heap_to_animal", lambda h: heaps.to_text(h) == "(0,0);(1,1)")
        assert _failing("bijections") == {
            "animal-round-trip": "n=2, animal (0,0);(1,0): NotAHeapError: planted"
        }

    def test_grammar_class_at_one_size(self, monkeypatch):
        _raise_at(monkeypatch, bijections, "grammar_enumerate", lambda n, k: (n, k) == (3, "Q"))
        assert _failing("bijections") == {
            "dud-free-image-is-grammar-Q": "n=3: NotAHeapError: planted",
            "grammar-matches-brute-force-animals": "square, n=3: NotAHeapError: planted",
        }


class TestRunUHeights:
    """The statistics suite's one-scan runs against the multi-pass references."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_run_components_and_modified_heights(self, n):
        for word in paths.enumerate_family("grand_dyck", n):
            modified = oracles.modified_heights(word)
            want = [
                (c.start, c.below, [modified[i + 1] for i in range(c.start, c.end) if word[i] == "U"])
                for c in oracles.run_components(word)
            ]
            assert verify._run_u_heights(word) == want, word
