"""tools/layers.py's pairing of parent and change runs, with the child processes faked."""

import importlib.util
import json
import sys
from pathlib import Path

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


@pytest.mark.parametrize("short_s, repeated", [(0.1, True), (0.0, False)])
def test_a_short_call_is_repeated_and_timed_per_call(monkeypatch, capsys, short_s, repeated):
    made = []

    def call(n):
        made.append(n)
        return n

    monkeypatch.setattr(sys, "path", list(sys.path))  # the child puts --src in front
    monkeypatch.setattr(layers, "ROWS", {"row": (call, (5,), lambda n: n)})
    monkeypatch.setattr(layers, "SHORT_S", short_s)
    monkeypatch.setattr(layers, "REPEAT_S", 0.01)
    layers.child("row", 5, str(_PATH.parent.parent / "src"))
    got = json.loads(capsys.readouterr().out)
    assert got["ok"] and got["calls"] == len(made) - repeated
    assert (got["calls"] > 1) == repeated
    assert got["cpu_s"] < 0.01


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
