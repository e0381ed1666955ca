"""One workload in one process: set up, run the job list, report.

The worker has a single caller in a closed loop: it starts the next job
only after the previous one returns, and it starts no threads.  It writes
one JSON object per line to stdout, so the parent can read what finished
even if it has to kill the worker at the deadline.  ref_ms is the time of
speed.loop() right after set-up or the job (see speed.py):

    {"setup_s": ..., "ref_ms": ...}          once the first job is ready
    {"pass": i, "traced": b, "jobs": n}      before each pass
    {"job": key, "ms": ..., "ok": b, "why": reason, "ref_ms": ...}
                                             after each job
    {"layers": {...}}                        after a traced pass
    {"peak_rss_mb": ...}                     at the end

Usage (normally started by run.py):
    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --t0 MONOTONIC --deadline MONOTONIC --workdir DIR
        [--setup-only] [--small]
"""

import argparse
import importlib
import json
import pathlib
import resource
import sys
import time
import types

import speed
from tracer import LAYERS, PACKAGE, Tracer  # tracer.py imports little

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def emit(out, **record):
    out.write(json.dumps(record) + "\n")
    out.flush()


def describe(e):
    import traceback  # only on a failure, to keep it out of set-up time

    where = traceback.extract_tb(e.__traceback__)[-1]
    return "%s at %s:%d: %s" % (type(e).__name__, pathlib.Path(where.filename).name,
                                where.lineno, str(e)[:200])


def run_pass(out, jobs, timed):
    """Run every job once; return the sum of the job times in seconds.
    A job that raises, or whose answer cannot be read, fails; the
    workload goes on."""
    wall = 0.0
    for key, call, check in jobs:
        try:
            answer, seconds = timed(call)
        except Exception as e:
            emit(out, job=key, ms=0.0, ok=False, why="raised " + describe(e),
                 ref_ms=speed.measure_ms())
            continue
        ref_ms = speed.measure_ms()
        wall += seconds
        try:
            why = check(answer)
        except Exception as e:
            why = "unreadable answer: " + describe(e)
        emit(out, job=key, ms=seconds * 1000.0, ok=why is None, why=why,
             ref_ms=ref_ms)
    return wall


def timed_call(call):
    start = time.perf_counter()
    answer = call()
    return answer, time.perf_counter() - start


def load_package():
    """The seven layer modules, looked up through this namespace at call
    time so that a traced pass sees the tracer's wrappers."""
    return types.SimpleNamespace(**{
        layer: importlib.import_module("%s.%s" % (PACKAGE, layer))
        for layer in LAYERS
    })


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--deadline", type=float, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--small", action="store_true")
    args = p.parse_args(argv)
    out = sys.stdout

    fs = load_package()
    import workloads
    jobs = workloads.WORKLOADS[args.workload](
        fs, args.seed, pathlib.Path(args.workdir), small=args.small)
    if len({key for key, _, _ in jobs}) != len(jobs):
        raise ValueError("job keys of %s are not unique" % args.workload)
    setup_s = time.monotonic() - args.t0
    emit(out, setup_s=setup_s, ref_ms=speed.measure_ms(speed.SETUP_REPEATS))
    if args.setup_only:
        return 0

    if args.trace:
        run_traced(out, jobs)
    else:
        start = time.monotonic()
        passes = 0
        last = 0.0
        while passes == 0 or (
            time.monotonic() - start + last <= args.seconds
            and time.monotonic() + last <= args.deadline
        ):
            emit(out, **{"pass": passes, "traced": False, "jobs": len(jobs)})
            began = time.monotonic()
            run_pass(out, jobs, timed_call)
            last = time.monotonic() - began
            passes += 1
    emit(out, peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return 0


def run_traced(out, jobs):
    """One untraced pass, then one traced pass; report the layers."""
    import metrics

    emit(out, **{"pass": 0, "traced": False, "jobs": len(jobs)})
    plain_wall = run_pass(out, jobs, timed_call)
    tracer = Tracer(metrics.MEASURES, metrics.CONTEXTS, metrics.CONTEXT_COUNTS,
                    metrics.DISTINCT_ARGS)
    tracer.install()
    try:
        emit(out, **{"pass": 1, "traced": True, "jobs": len(jobs)})
        traced_wall = run_pass(out, jobs, tracer.root)
    finally:
        tracer.uninstall()
    layers = metrics.layer_counts(tracer)
    layers.update(metrics.layer_times(tracer, traced_wall))
    layers["trace.overhead_ratio"] = traced_wall / plain_wall if plain_wall else 0.0
    emit(out, layers=layers, spans=tracer.span_count())


if __name__ == "__main__":
    sys.exit(main())
