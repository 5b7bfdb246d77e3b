"""The heapdyck benchmark: one workload, one seed, every metric by name and unit.

    python3 benchmarks/run.py --workload roundtrip --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --quick

Load is a closed loop: one client in one process, one op at a time.
Every repetition of the workload's fixed, seeded job list runs in a fresh
interpreter (benchmarks/worker.py), so each starts with cold caches, as a
command-line user's call does.  Repetitions continue until --seconds are
used, and at least one runs.

With --trace 0 the result carries the end-to-end metrics of
BENCHMARK.json; with --trace 1, repetitions alternate between untraced and
traced, and it carries the per-layer metrics derived from the spans.  The
last line of stdout is the JSON result; the lines before it are for people.

--quick runs every workload at tiny sizes, traced and untraced, and checks
the result schema and the oracles.  It has no timing bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_SPAWNS = 15
SETUP_SPINS = 5
RUN_LIMIT_S = 170

sys.path.insert(0, HERE)
import spans  # noqa: E402
from calibration import NOMINAL_SPIN_S, spin  # noqa: E402

# The child stamps the shared monotonic clock once heapdyck and its command
# line are imported; the parent stamped the same clock just before spawning.
READY = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "import heapdyck, heapdyck.cli; print(time.monotonic())"
)


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def setup_seconds(spawns: int) -> float:
    """Median time from spawning an interpreter to heapdyck being ready, at nominal speed.

    The speed loop runs between spawns, never beside a child, so the two
    do not compete for a core.
    """
    measured = []
    spin_s = []
    for _ in range(spawns):
        for _ in range(SETUP_SPINS):
            start = time.perf_counter()
            spin()
            spin_s.append(time.perf_counter() - start)
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-I", "-c", READY, SRC],
            capture_output=True, text=True, timeout=60,
        )
        if done.returncode != 0:
            raise BenchError(f"cannot import heapdyck from {SRC}:\n{done.stderr}")
        measured.append(float(done.stdout) - start)
    return statistics.median(measured) * NOMINAL_SPIN_S / statistics.median(spin_s)


def run_rep(workload: str, seed: int, size: str, spans_path: str | None, timeout: float) -> dict:
    cmd = [sys.executable, "-I", WORKER, "--workload", workload, "--seed", str(seed), "--size", size]
    if spans_path:
        cmd += ["--spans", spans_path]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=max(timeout, 1), cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} repetition ran past the run limit") from exc
    if done.returncode != 0:
        raise BenchError(f"{workload} worker exited with {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def run_reps(workload: str, seed: int, size: str, seconds: float, trace: bool) -> tuple[list, list]:
    """Untraced and traced repetitions, alternating when tracing, until time is up."""
    os.makedirs(OUT_DIR, exist_ok=True)
    plain: list[dict] = []
    traced: list[dict] = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        done = len(plain) + len(traced)
        enough = plain and (traced or not trace)
        if enough and elapsed + elapsed / done > seconds:
            break
        left = RUN_LIMIT_S - elapsed
        if trace and len(traced) < len(plain):
            path = os.path.join(OUT_DIR, f"spans-{workload}-{len(traced)}.json")
            rep = run_rep(workload, seed, size, path, left)
            with open(path, encoding="utf-8") as fh:
                rep["layers"] = spans.layer_table(json.load(fh), rep["op_factor"])
            traced.append(rep)
        else:
            plain.append(run_rep(workload, seed, size, None, left))
    return plain, traced


def end_to_end(plain: list[dict], setup_s: float) -> dict[str, float]:
    # every repetition runs the same job list, so op i is the same job in
    # each: its median over repetitions keeps one repetition that the speed
    # scaling got wrong from moving the percentiles
    latencies = [statistics.median(times) for times in zip(*(rep["op_s"] for rep in plain))]
    p99 = spans.percentile_ms(latencies, 0.99)
    if p99 is None:
        # exhaustive and series run a handful of jobs, too few for a p99
        # with ten samples beyond it: report their slowest job instead
        p99 = max(latencies) * 1e3
    return {
        "wall_s": statistics.median(rep["wall_s"] for rep in plain),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p99_ms": p99,
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in plain),
        "gc_s": statistics.median(rep["gc_s"] for rep in plain),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    """Layer metrics over the traced repetitions; medians where reps repeat."""
    out: dict[str, float] = {}
    for name in sorted({name for rep in traced for name in rep["layers"]}):
        rows = [rep["layers"][name] for rep in traced if name in rep["layers"]]
        durations = [d for row in rows for d in row["self_s"]]
        out[f"{name}.busy_s"] = statistics.median(row["busy_s"] for row in rows)
        out[f"{name}.calls"] = rows[0]["calls"]
        out[f"{name}.failed"] = sum(row["failed"] for row in rows)
        for label, q in (("p50_ms", 0.5), ("p99_ms", 0.99)):
            value = spans.percentile_ms(durations, q)
            if value is not None:
                out[f"{name}.{label}"] = value
    untraced = statistics.median(rep["wall_s"] for rep in plain)
    with_spans = statistics.median(rep["wall_s"] for rep in traced)
    out["trace.overhead_ratio"] = with_spans / untraced - 1
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> tuple[dict, dict]:
    """Return (result, report): the JSON result and what people read."""
    spec = load_spec()
    setup_s = setup_seconds(SETUP_SPAWNS if size == "full" else 1)
    plain, traced = run_reps(workload, seed, size, seconds, trace)
    reps = plain + traced
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    problems = [p for rep in reps for p in rep["problems"]][:10]
    if not all(rep["op_s"] for rep in plain):
        raise BenchError("no op passed its checks: " + "; ".join(problems))
    computed = end_to_end(plain, setup_s)
    listed = spec["end_to_end"]
    if trace:
        computed.update(per_layer(plain, traced))
        listed = spec["per_layer"]
    # a layer this workload never calls reports 0 (no calls, no busy time)
    metrics = {
        m["name"]: {"value": computed.get(m["name"], 0.0), "unit": m["unit"]} for m in listed
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    report = {
        "workload": workload,
        "seed": seed,
        "repetitions": {"untraced": len(plain), "traced": len(traced)},
        "op_samples": sum(len(rep["op_s"]) for rep in plain),
        "measured_s": [round(rep["measured_s"], 3) for rep in reps],
        "nominal_wall_s": [round(rep["wall_s"], 3) for rep in reps],
        "gc_s": [round(rep["gc_s"], 3) for rep in reps],
        "failed_ratio": failed / attempted,
        "problems": problems,
        "properties": plain[0]["properties"],
        "all_metrics": computed,
    }
    return result, report


def print_report(result: dict, report: dict) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  repetitions {report['repetitions']}")
    print(f"  CPU time per repetition: measured {report['measured_s']} s, "
          f"at nominal speed {report['nominal_wall_s']} s, "
          f"of which garbage collection {report['gc_s']} s")
    for key, value in report["properties"].items():
        print(f"  input {key}: {value}")
    for name, m in result["metrics"].items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    for name, value in report["all_metrics"].items():
        if name not in result["metrics"]:
            print(f"  ({name:<46} {value:>14.6g})")
    print(f"  {'failed_ratio':<48} {report['failed_ratio']:>14.6g} -"
          f"  ({result['failed']} of {result['attempted']} ops; {report['op_samples']} latency samples)")
    for problem in report["problems"]:
        print(f"  FAILED {problem}")


def quick() -> int:
    """Every workload at tiny sizes, untraced and traced: schema and oracles only."""
    spec = load_spec()
    errors = []
    seen_nonzero: set[str] = set()
    for w in spec["workloads"]:
        for trace in (False, True):
            result, report = run(w["name"], seed=1, seconds=0, trace=trace, size="quick")
            listed = spec["per_layer" if trace else "end_to_end"]
            errors += [f"{w['name']} trace={int(trace)}: {e}" for e in schema_errors(result, listed)]
            errors += [f"{w['name']}: {p}" for p in report["problems"]]
            seen_nonzero |= {name for name, m in result["metrics"].items() if m["value"] != 0}
            if not trace:
                errors += [
                    f"{w['name']}: end-to-end metric {m['name']} is 0"
                    for m in listed if result["metrics"][m["name"]]["value"] == 0
                ]
    errors += [
        f"per-layer metric {m['name']} is 0 on every workload"
        for m in spec["per_layer"] if m["name"] not in seen_nonzero
    ]
    for e in errors:
        print(f"FAIL {e}")
    print("quick: " + ("FAIL" if errors else "PASS"))
    return 1 if errors else 0


def schema_errors(result: dict, listed: list[dict]) -> list[str]:
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"correct={result['correct']} failed={result['failed']}")
    if [m["name"] for m in listed] != list(result["metrics"]):
        errors.append("metric names differ from BENCHMARK.json")
    for m in listed:
        got = result["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            errors.append(f"metric {m['name']} is {got}")
    return errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="heapdyck benchmark")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny sizes, schema and oracles only")
    args = parser.parse_args(argv)
    try:
        if args.quick:
            return quick()
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names:
            parser.error(f"--workload must be one of {names}")
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        result, report = run(args.workload, args.seed, seconds, bool(args.trace))
    except (BenchError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print_report(result, report)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
