#!/usr/bin/env python3
"""Verdict benchmark for toposat.

    python3 bench/run.py --workload {fork,saw,fence,pipeline} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
`src/`. One process, one operation after another. Set-up (importing
`toposat` and building every instance of the workload) is timed
SETUP_REPEATS times and its median reported. The timed loop then runs
whole rounds of the workload's operations until S seconds of operation
time have passed; each round's outputs are checked after the round,
outside the timed region. The last line of standard output is one JSON
object: `correct`, `attempted`, `failed` and `metrics` (the end-to-end
metrics with --trace 0, the per-layer metrics of tracer.py with
--trace 1). A summary goes to standard error.
"""

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
MODULES = {"F": "formula", "frames": "frames", "semantics": "semantics",
           "solver": "solver", "transform": "transform",
           "gadgets": "gadgets", "cli": "cli"}


def import_program():
    """Import toposat afresh: drop every module of the package first."""
    for name in [n for n in sys.modules if n == "toposat" or n.startswith("toposat.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    importlib.import_module("toposat")
    return SimpleNamespace(**{key: importlib.import_module(f"toposat.{name}")
                              for key, name in MODULES.items()})


def set_up(workloads, name, seed, workdir):
    """One timed set-up: import, then build every instance."""
    start = time.perf_counter()
    program = import_program()
    ops = workloads.build(name, seed, program, str(workdir))
    return time.perf_counter() - start, ops


def run_rounds(ops, seconds, tracer=None):
    """Whole rounds until `seconds` of operation time; returns the
    operation times, failure count, round count, problems found."""
    times, problems = [], []
    failed = rounds = 0
    busy = 0.0
    while busy < seconds:
        outputs = []
        for op in ops:
            if tracer is not None:
                tracer.active = True
            start = time.perf_counter()
            try:
                outputs.append(op.run())
            except Exception as exc:   # a failed operation, reported below
                outputs.append(exc)
            finally:
                elapsed = time.perf_counter() - start
                if tracer is not None:
                    tracer.active = False
            times.append(elapsed)
            busy += elapsed
        rounds += 1
        for op, out in zip(ops, outputs):
            if isinstance(out, Exception):
                failed += 1
                if rounds == 1:
                    print(f"failed: {op.label}: {type(out).__name__}: "
                          f"{str(out)[:120]}", file=sys.stderr)
                continue
            problem = op.check(out)
            if problem is not None:
                problems.append(f"{op.label}: {problem}")
    return times, failed, rounds, busy, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "toposat" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'toposat'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import tracer as tracing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        tracer = None
        if args.trace:
            program = import_program()
            tracer = tracing.Tracer()
            tracer.install()
            tracer.active = True
            ops = workloads.build(args.workload, args.seed, program, str(workdir))
            tracer.active = False
            setup_generate_ms = tracer.ms["gadgets.generate"] * 1000
            tracer.reset()
        else:
            setups = []
            for _ in range(SETUP_REPEATS):
                elapsed, ops = set_up(workloads, args.workload, args.seed, workdir)
                setups.append(elapsed)

        gc.collect()   # the earlier set-ups' garbage, before timing starts
        times, failed, rounds, busy, problems = run_rounds(ops, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(times)
    for problem in problems[:20]:
        print(f"wrong: {problem}", file=sys.stderr)
    ops_per_s = (attempted - failed) / busy
    print(f"{args.workload} seed={args.seed} rounds={rounds} ops/round={len(ops)} "
          f"attempted={attempted} failed={failed} wrong={len(problems)} "
          f"ops_per_s={ops_per_s:.2f}", file=sys.stderr)

    if tracer is not None:
        metrics = tracer.metrics(attempted)
        metrics["gadgets.setup_generate_ms"] = {"value": setup_generate_ms,
                                                "unit": "ms"}
        if tracer.missing:
            print("not traced (absent from the program): "
                  + ", ".join(tracer.missing), file=sys.stderr)
    else:
        times_ms = [t * 1000 for t in times]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(times_ms), "unit": "ms"},
            "op_p90_ms": {"value": statistics.quantiles(times_ms, n=10)[8],
                          "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
