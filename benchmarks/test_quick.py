"""The benchmark's own test: its quick mode, with no timing bounds.

    python3 -m pytest benchmarks/test_quick.py

Every workload runs once at tiny sizes, untraced and traced.  The test
fails when an op disagrees with its oracle, when a result does not match
the schema and metric list of BENCHMARK.json, when an end-to-end metric
reads 0, or when a per-layer metric reads 0 on every workload.
"""

import run


def test_quick_mode_passes(capsys):
    code = run.quick()
    assert code == 0, capsys.readouterr().out
