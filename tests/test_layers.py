"""tools/layers.py's pairing of parent and change runs, with the child processes faked."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "layers.py"
_SPEC = importlib.util.spec_from_file_location("layers", _PATH)
layers = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(layers)

CPU = {"change": [1.0, 2.0, 3.0, 4.0], "parent": [2.0, 2.0, 2.0, 2.0]}


@pytest.fixture
def calls(monkeypatch):
    """The (tree, row, n) of every faked run, in order; tree i's k-th run takes CPU[tree][k]."""
    made = []

    def one_run(row, n, src):
        made.append((src, row, n))
        k = sum(1 for s, _, m in made if (s, m) == (src, n)) - 1
        return {"cpu_s": CPU[src][k], "max_rss_mb": 10.0, "ok": True}

    monkeypatch.setattr(layers, "_one_run", one_run)
    monkeypatch.setattr(layers, "ROWS", {"row": (None, (5, 7), None)})
    monkeypatch.setattr(layers, "REPS", 3)
    return made


def test_without_parent_the_output_is_one_tree(calls):
    result = layers.run("change")
    assert [src for src, _, _ in calls] == ["change"] * 6
    assert result["attempted"] == 6 and result["correct"]
    assert set(result["metrics"]) == {
        "row.n5.cpu_s", "row.n5.max_rss_mb", "row.n7.cpu_s", "row.n7.max_rss_mb"
    }
    assert result["metrics"]["row.n5.cpu_s"] == {"value": 2.0, "unit": "s"}


def test_with_parent_the_trees_alternate_and_the_ratios_are_paired(calls, monkeypatch):
    monkeypatch.setattr(layers, "REPS", 4)
    result = layers.run("change", "parent")
    # per size, pairs (change, parent), (parent, change), ..: who runs first alternates
    assert [src for src, _, n in calls if n == 5] == ["change", "parent", "parent", "change"] * 2
    assert [n for _, _, n in calls] == [5] * 8 + [7] * 8
    assert result["attempted"] == 16
    metrics = result["metrics"]
    assert metrics["row.n5.cpu_s"]["value"] == 2.5
    assert metrics["parent.row.n5.cpu_s"]["value"] == 2.0
    # the ratios 0.5, 1, 1.5, 2: median 1.25, quartiles 0.875 and 1.625
    assert metrics["row.n5.cpu_ratio"] == {
        "value": 1.25, "unit": "ratio", "quartiles": [0.875, 1.625]
    }


def test_a_wrong_result_on_either_tree_is_a_failure(calls, monkeypatch):
    def one_run(row, n, src):
        return {"cpu_s": 1.0, "max_rss_mb": 10.0, "ok": src == "change"}

    monkeypatch.setattr(layers, "_one_run", one_run)
    result = layers.run("change", "parent")
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 12, 6)


@pytest.mark.parametrize("repeat_s, repeated", [(0.01, True), (0.0, False)])
def test_a_short_call_is_repeated_and_timed_per_call(monkeypatch, capsys, repeat_s, repeated):
    made = []

    def call(n):
        made.append(n)
        return n

    monkeypatch.setattr(sys, "path", list(sys.path))  # the child puts --src in front
    monkeypatch.setattr(layers, "ROWS", {"row": (call, (5,), lambda n: n)})
    monkeypatch.setattr(layers, "REPEAT_S", repeat_s)
    layers.child("row", 5, str(_PATH.parent.parent / "src"))
    got = json.loads(capsys.readouterr().out)
    assert got["ok"] and got["calls"] == len(made)  # the first call is one of them
    assert (got["calls"] > 1) == repeated
    assert got["cpu_s"] < 0.01


@pytest.mark.parametrize("repeat_s", [0.01, 0.0], ids=["repeated", "once"])
def test_a_run_reports_its_first_calls_max_rss(monkeypatch, capsys, repeat_s):
    made = []

    def getrusage(who):
        return SimpleNamespace(ru_maxrss=1024 * len(made))

    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(layers.resource, "getrusage", getrusage)  # 1 MB more per call made
    monkeypatch.setattr(layers, "ROWS", {"row": (made.append, (5,), lambda n: None)})
    monkeypatch.setattr(layers, "REPEAT_S", repeat_s)
    layers.child("row", 5, str(_PATH.parent.parent / "src"))
    got = json.loads(capsys.readouterr().out)
    assert (got["calls"] > 1) == (repeat_s > 0)
    assert got["max_rss_mb"] == 1.0


def test_a_wrong_repeat_fails_the_run(monkeypatch, capsys):
    answers = iter([5, 5, 6])
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(layers, "ROWS", {"row": (lambda n: next(answers, 5), (5,), lambda n: n)})
    monkeypatch.setattr(layers, "REPEAT_S", 0.01)
    layers.child("row", 5, str(_PATH.parent.parent / "src"))
    assert not json.loads(capsys.readouterr().out)["ok"]


def test_table1_row_checks_its_last_entry_by_the_closed_star_sum():
    from heapdyck import series

    table = series.bivariate("f", 60, 60)
    for n in range(1, 61):
        for k in range(1, 61):
            assert layers._star(n, k) == table.coefficient(n, k), (n, k)
    call, _, expected = layers.ROWS["cli.table1"]
    assert call(9) == expected(9) == (9, table.coefficient(9, 9))


def test_word_row_maps_a_grand_dyck_word_and_checks_it_by_the_inverse():
    from heapdyck import paths

    word = layers._word(50)
    paths.check_grand_dyck(word)
    assert len(word) == 100
    call, _, expected = layers.ROWS["bijections.path_to_heap"]
    assert call(50) == expected(50) is not None


def test_a_listed_class_is_checked_by_its_length_after_the_timer(monkeypatch, capsys):
    clock = [0.0]

    class Costly:
        def __del__(self):
            clock[0] += 100.0  # freeing the class is costly

    def call(n):
        clock[0] += 1.0
        return frozenset(Costly() for _ in range(n))

    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(layers.time, "process_time", lambda: clock[0])
    monkeypatch.setattr(layers, "ROWS", {"row": (call, (5,), lambda n: n)})
    layers.child("row", 5, str(_PATH.parent.parent / "src"))
    got = json.loads(capsys.readouterr().out)
    assert got["ok"] and got["calls"] == 1
    assert got["cpu_s"] == 1.0
    assert clock[0] == 501.0  # the class was freed, after the timer


@pytest.mark.parametrize("klass", ["T", "Q"])
def test_grammar_rows_give_the_class_and_check_its_length(klass):
    call, _, expected = layers.ROWS[f"grammar_enumerate.{klass}"]
    got = call(4)
    assert isinstance(got, frozenset)
    assert layers._result(got) == len(got) == expected(4)


def test_each_verify_row_runs_its_suite_at_the_default_cap():
    from heapdyck import verify

    rows = {name: sizes for name, (_, sizes, _) in layers.ROWS.items() if name.startswith("verify.")}
    assert rows == {f"verify.{suite}": (cap,) for suite, cap in verify.SUITE_CAPS.items()}


def test_a_run_of_one_row_once_reads_that_rows_metrics_and_records_its_argv(tmp_path):
    # a copy of the tool writes its output beside its own tools/ directory, here tmp_path
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "layers.py").write_text(_PATH.read_text())
    argv = ["--rows", "verify.counts", "--reps", "1", "--label", "one",
            "--src", str(_PATH.parent.parent / "src")]
    done = subprocess.run([sys.executable, str(tmp_path / "tools" / "layers.py"), *argv],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads((tmp_path / "BENCH_layers-one.json").read_text())
    assert result == json.loads(done.stdout.splitlines()[-1])
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 1, 0)
    assert set(result["metrics"]) == {"verify.counts.n10.cpu_s", "verify.counts.n10.max_rss_mb"}
    assert result["argv"] == argv
    assert result["src_digest"] == layers.src_digest(argv[-1])
    assert "parent.src_digest" not in result


def test_with_parent_the_output_records_both_trees_digests(monkeypatch, tmp_path):
    trees = {}
    for name, text in (("change", "x = 1\n"), ("parent", "x = 2\n")):
        (tmp_path / name / "pkg").mkdir(parents=True)
        (tmp_path / name / "pkg" / "a.py").write_text(text)
        trees[name] = str(tmp_path / name)
    monkeypatch.setattr(layers, "run", lambda *args: {"correct": True})
    monkeypatch.setattr(layers, "ROOT", str(tmp_path))
    argv = ["--label", "x", "--src", trees["change"], "--parent", trees["parent"], "--reps", "2"]
    assert layers.main(argv) == 0
    result = json.loads((tmp_path / "BENCH_layers-x.json").read_text())
    assert result["src_digest"] == layers.src_digest(trees["change"])
    assert result["parent.src_digest"] == layers.src_digest(trees["parent"])
    assert result["src_digest"] != result["parent.src_digest"]


def test_the_digest_reads_every_py_file_by_path_and_nothing_else(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
    first = layers.src_digest(str(tmp_path))
    assert len(first) == 64 and int(first, 16) >= 0
    (tmp_path / "pkg" / "notes.txt").write_text("not source")
    assert layers.src_digest(str(tmp_path)) == first
    (tmp_path / "pkg" / "a.py").rename(tmp_path / "pkg" / "b.py")
    assert layers.src_digest(str(tmp_path)) != first


def test_rows_runs_the_rows_its_patterns_match_in_their_usual_order(monkeypatch, tmp_path):
    made = []

    def run(src, parent, rows, reps):
        made.append((rows, reps))
        return {"correct": True}

    monkeypatch.setattr(layers, "ROWS", {name: (None, (5,), None) for name in ("a.x", "b", "a.y")})
    monkeypatch.setattr(layers, "run", run)
    monkeypatch.setattr(layers, "ROOT", str(tmp_path))
    assert layers.main(["--label", "x", "--rows", "b", "--rows", "a.*", "--reps", "4"]) == 0
    assert made == [(["a.x", "b", "a.y"], 4)]


@pytest.mark.parametrize(
    "argv",
    [
        ["--rows", "bivariate.*", "--rows", "no.such.row"],
        ["--reps", "0"],
        ["--reps", "1", "--parent", "."],
    ],
    ids=["unknown-pattern", "no-reps", "one-pair"],
)
def test_a_bad_option_exits_2_before_any_run(monkeypatch, argv):
    monkeypatch.setattr(layers, "run", lambda *args: pytest.fail("a run was made"))
    with pytest.raises(SystemExit) as exit_:
        layers.main(["--label", "x", *argv])
    assert exit_.value.code == 2
