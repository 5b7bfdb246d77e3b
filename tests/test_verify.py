"""Suite plumbing plus mutation smoke checks.

Each mutation swaps one implementation detail for a subtly wrong one
and expects the relevant suite to flip to FAIL through the named checks
that see the defect, never through a crash of the whole suite.  Nothing
is cached between calls, so a mutation takes effect at once.
"""

import inspect
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from heapdyck import bijections, cli, counting, heaps, multisets, paths, verify

import oracles


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
                    "table-h-counts-no-single-multisets",
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

    def test_statistics_reports_detected_relations(self):
        report = verify.run_suite("statistics", 4)
        details = {c.name: c.detail for c in report.checks}
        assert "offset 1 on" in details["gap-stays-within-one-of-height"]
        assert "+ 1 above" in details["u-height-column-offsets-are-constant"]


def _failing(suite, max_n=4):
    """The detail of each check that fails, by name; a crash of the whole suite may not be one."""
    report = verify.run_suite(suite, max_n)
    failing = {c.name: c.detail for c in report.checks if not c.ok}
    assert "suite-execution" not in failing
    return failing


def _mutated(fn, old, new):
    """fn compiled again in its module with one piece of its source replaced."""
    source = textwrap.dedent(inspect.getsource(fn))
    assert source.count(old) == 1, f"{old!r} is not a unique piece of {fn.__name__}"
    namespace = dict(vars(inspect.getmodule(fn)))
    exec(source.replace(old, new), namespace)
    return namespace[fn.__name__]


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
        # every size-4 heap read back as its word reversed, in a process of its own hash seed
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
        assert failing == ["FAIL run-heap-round-trip: n=4, word UUUUDDDD"]

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
        monkeypatch.setattr(heaps, "heap_to_animal", _mutated(heaps.heap_to_animal, old, new))
        assert _failing("bijections") == {"animal-round-trip": detail}

    def test_missing_run_reversal_is_caught(self, monkeypatch):
        # below-axis runs read as they stand, like the above-axis ones: D steps
        # right to left at their signed heights.  Dyck words have no such run.
        unreversed = _mutated(bijections.drop_sequence, "if y >= 0:", "if True:")
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
        assert _failing("bijections").keys() == {
            "run-heap-round-trip",
            "run-heap-image-is-grammar-T",
            "dyck-image-is-grammar-Ts",
            "dud-free-image-is-grammar-Q",
            "dud-free-dyck-image-is-grammar-Qs",
            "grammar-matches-brute-force-animals",
            "grammar-matches-subdiagonal-animals",
            "square-animals-are-diagonal-free-heaps",
        }

    def test_one_sided_gravity_fails_symmetry_checks(self, monkeypatch):
        # the animal map drops by heaps.drop_columns; the grammar keeps column tops of its
        # own, so its widths stay right and only the animals' reflection fails
        def lopsided(tops, column):
            return max(tops.get(column, -1), tops.get(column + 1, -1)) + 1

        _drop_with(monkeypatch, lopsided)
        assert _failing("symmetry").keys() == {"reflection-swaps-widths"}

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
        merged = _mutated(
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
        unfiltered = _mutated(paths.count_family, "tail + step != pattern", "True")
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
        flagless = _mutated(
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

        orig = series.closed_form

        def negated(name, order):
            s = orig(name, order)
            return series.Series(-c for c in s.coeffs) if name == "Q" else s

        monkeypatch.setattr(series, "closed_form", negated)
        assert _failing("series", 10).keys() == {
            "series-identity: Q = Qs(1+Q)",
            "series-identity: diagonal(f) = Q",
            "series-identity: diagonal(h) = Q",
        }

    def test_table_h_with_a_wrong_denominator_term_is_caught(self, monkeypatch):
        from heapdyck import series

        numerator, denominator = series._TABLES["h"]
        # the term -z^2 u raised by 1
        monkeypatch.setitem(series._TABLES, "h", (numerator, {**denominator, (2, 1): 0}))
        failing = _failing("series")
        assert failing["table-h-counts-no-single-multisets"] == "n=2, k=2: table 1, count 2"
        assert "table-f-counts-star-multisets" not in failing

    def test_star_count_that_counts_every_multiset_is_caught(self, monkeypatch):
        orig = multisets.count_family

        def counts_all(family, n, k=None):
            return orig("all" if family == "star" else family, n, k)

        monkeypatch.setattr(multisets, "count_family", counts_all)
        assert _failing("series") == {
            "table-f-counts-star-multisets": "n=2, k=2: table 2, count 3"
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
