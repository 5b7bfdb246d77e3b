"""Run a workload's job list once, in this fresh interpreter, and print the result.

    python3 -I benchmarks/worker.py --workload roundtrip --seed 1 [--spans PATH]

The last line of stdout is one JSON object: the timed library work at
nominal speed (see calibration.py) as wall_s, the garbage collections
in it as gc_s, each passing op's latency, the factor that scaled each
op, the measured CPU time, peak resident memory, the ops attempted and
failed with the first few problems, and the measured input properties.
With --spans PATH, every call into the library runs inside a span and
the spans are written to PATH at the end.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
MAX_PROBLEMS = 5

sys.path[:0] = [SRC, HERE]
import spans  # noqa: E402
from calibration import SpeedSampler, clock  # noqa: E402


def run_jobs(workload, jobs: list, lib, tracer) -> dict:
    """Run every job once; times are scaled to nominal speed op by op.

    An op's latency leaves out the garbage collections that ran during
    it: a collection lands on whichever op crosses the allocation
    threshold and is paid for by every op before it.  wall_s keeps them,
    and gc_s is their total.  The fixed set of command-line jobs that
    ends roundtrip and forward counts in wall_s, not in the latencies.
    None of them counts the time the speed sampler takes.
    """
    window: list[tuple[float, float]] = []
    sampled: list[float] = []
    collected: list[float] = []
    ok: list[bool] = []
    problems: list[str] = []
    pauses = spans.GcClock(tracer)
    with SpeedSampler() as speed:
        for op_id, job in enumerate(jobs):
            workload.prepare(job)
            spent, gc_spent = speed.spent_s, pauses.total_s
            start = clock()
            try:
                with tracer.op(op_id):
                    out = workload.execute(lib, job)
                raised = None
            except Exception as exc:  # one failed op must not end the run
                raised = f"op {op_id}: {type(exc).__name__}: {exc}"
            window.append((start, clock()))
            sampled.append(speed.spent_s - spent)
            collected.append(pauses.total_s - gc_spent)
            bad = [raised] if raised else workload.check(job, out)
            ok.append(not bad)
            problems.extend(bad)
    factor = [speed.factor(start, end) for start, end in window]
    wall = [(end - start - s) * f for (start, end), s, f in zip(window, sampled, factor)]
    return {
        "wall_s": sum(wall),
        "op_s": [
            w - c * f
            for w, c, f, good, job in zip(wall, collected, factor, ok, jobs)
            if good and not job.get("cli")
        ],
        "gc_s": sum(c * f for c, f in zip(collected, factor)),
        "op_factor": factor,
        "measured_s": sum(end - start for start, end in window),
        "attempted": len(jobs),
        "failed": ok.count(False),
        "problems": problems[:MAX_PROBLEMS],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--spans", help="trace the run and write its spans here")
    args = parser.parse_args(argv)

    import heapdyck

    if os.path.dirname(os.path.abspath(heapdyck.__file__)) != os.path.join(SRC, "heapdyck"):
        print(f"heapdyck imported from {heapdyck.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import workloads

    workload = workloads.WORKLOADS[args.workload]
    jobs = workload.jobs(random.Random(args.seed), args.size)
    tracer = spans.Tracer() if args.spans else spans.Untraced()
    lib = workloads.Lib(tracer)
    gc.collect()
    result = run_jobs(workload, jobs, lib, tracer)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    if children.ru_utime + children.ru_stime > 0:
        # ops are timed by this process's CPU time, which leaves such work out
        print("the library ran work in child processes; this benchmark cannot time it", file=sys.stderr)
        return 2
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["properties"] = workload.properties(jobs)
    if args.spans:
        tracer.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
