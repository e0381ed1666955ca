"""Benchmark for fanscheme: one command, every metric with its unit.

    python3 perfbench/run.py --workload toric_cli --seed 1 --seconds 30 --trace 0

--workload takes one name from BENCHMARK.json or "all".  Each workload
runs in its own worker process (worker.py), one after another.  The run
first starts a few set-up-only workers to time set-up repeatedly, then one
worker that runs the job list in a closed loop for --seconds.  With
--trace 1 that worker runs the job list once untraced and once traced
(tracer.py) and the run reports the per-layer metrics instead.

The end-to-end times (setup_s, wall_s, job_p50_ms, job_p90_ms) are scaled
to a reference machine speed, measured by a fixed loop after set-up and
after every job (speed.py), because a shared host's speed drifts by more
than the bounds over minutes.  The unscaled wall time is printed too.  The
per-layer times of the traced run are not scaled.

A worker that passes the deadline is killed; its unfinished jobs count as
failed.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  The lines before it give every
metric by name with its unit, the job sample count, and the environment.
"""

import argparse
import json
import os
import pathlib
import platform
import shutil
import signal
import subprocess
import sys
import time
from statistics import median

import speed

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_PROBES = 9
RUN_DEADLINE_S = 170.0     # the whole run, all workers included
PASS_DEADLINE_S = 150.0    # no pass starts that is expected to end later
PROBE_TIMEOUT_S = 30.0


def percentile(values, share):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = -(-len(ordered) * share // 1)
    return ordered[max(int(rank), 1) - 1]


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed):
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "seed": seed,
    }


def missing_inputs():
    needed = [
        ROOT / "BENCHMARK.json",
        ROOT / "src" / "fanscheme" / "cli.py",
        ROOT / "tests" / "goldens",
        ROOT / "tests" / "helpers.py",
    ]
    return [str(p.relative_to(ROOT)) for p in needed if not p.exists()]


def worker_command(args, workload, workdir, t0, deadline, setup_only):
    # -S: the worker needs no site-packages, and the site hooks of the
    # host's installation (.pth files) are no part of fanscheme's set-up
    cmd = [
        sys.executable, "-S", str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--t0", repr(t0), "--deadline", repr(deadline),
        "--workdir", str(workdir),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if args.small:
        cmd.append("--small")
    return cmd


def run_worker(cmd, timeout):
    """Run one worker; return (records, killed).  A worker past its
    timeout is killed and waited for; what it wrote before is kept."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, cwd=str(ROOT), env=env)
    killed = False
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        killed = True
    finally:
        if proc.poll() is None:  # interrupted: leave no worker behind
            proc.kill()
            proc.wait()
    if proc.returncode != 0 and not killed:
        sys.stderr.write(err[-2000:])
    records = []
    for line in out.splitlines():
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            break  # a line cut off by the kill
    return records, killed or proc.returncode != 0


def run_workload(args, workload):
    """Set-up probes, then the measuring worker; return the summary."""
    run_start = time.monotonic()
    workdir = ROOT / ".perfbench_work" / ("%s-%d" % (workload, os.getpid()))
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        for _ in range(SETUP_PROBES):
            t0 = time.monotonic()
            records, broken = run_worker(
                worker_command(args, workload, workdir, t0, t0, True),
                PROBE_TIMEOUT_S)
            setups += scaled_setups(records)
            if broken:
                return None
        t0 = time.monotonic()
        cmd = worker_command(args, workload, workdir, t0,
                             run_start + PASS_DEADLINE_S, False)
        records, _ = run_worker(cmd, run_start + RUN_DEADLINE_S - t0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    return summarize(records, setups)


def scaled_setups(records):
    """Set-up times scaled to the reference speed (speed.py)."""
    return [r["setup_s"] * speed.NOMINAL_MS / r["ref_ms"]
            for r in records if "setup_s" in r]


def summarize(records, setups):
    setups += scaled_setups(records)
    passes = []  # [traced, planned jobs, job records]
    layers = None
    rss = None
    for r in records:
        if "pass" in r:
            passes.append([r["traced"], r["jobs"], []])
        elif "job" in r and passes:
            passes[-1][2].append(r)
        elif "layers" in r:
            layers = r["layers"]
        elif "peak_rss_mb" in r:
            rss = r["peak_rss_mb"]
    attempted = failed = 0
    reasons = []
    for traced, planned, jobs in passes:
        attempted += planned
        failed += planned - len(jobs)  # cut off by the deadline
        for j in jobs:
            if not j["ok"]:
                failed += 1
                reasons.append("%s: %s" % (j["job"], j["why"]))
    if not passes:
        return None
    timed = [j for traced, _, jobs in passes if not traced for j in jobs]
    factors = speed.scale_factors([j["ref_ms"] for j in timed])
    times, raw = {}, {}  # job key -> its times in the untraced passes
    for j, factor in zip(timed, factors):
        if j["ok"]:
            times.setdefault(j["job"], []).append(j["ms"] * factor)
            raw.setdefault(j["job"], []).append(j["ms"])
    return {
        "setup_s": median(setups),
        # one pass of the job list, each job at its median scaled time
        "wall_s": sum(median(ts) for ts in times.values()) / 1000.0,
        "raw_wall_s": sum(median(ts) for ts in raw.values()) / 1000.0,
        "ref_ms": median(j["ref_ms"] for j in timed) if timed else 0.0,
        "samples": [t for ts in times.values() for t in ts],
        "peak_rss_mb": rss,
        "attempted": attempted,
        "failed": failed,
        "reasons": reasons,
        "layers": layers,
    }


def workload_metrics(summary, trace):
    if trace:
        return dict(summary["layers"] or {})
    samples = summary["samples"] or [0.0]
    attempted = summary["attempted"]
    return {
        "setup_s": summary["setup_s"],
        "wall_s": summary["wall_s"],
        "job_p50_ms": percentile(samples, 0.5),
        "job_p90_ms": percentile(samples, 0.9),
        "peak_rss_mb": summary["peak_rss_mb"] or 0.0,
        "success_ratio": (attempted - summary["failed"]) / attempted,
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true",
                   help="a short job list per workload (for selfcheck.py)")
    args = p.parse_args(argv)
    # a terminated run still stops its worker (run_worker's finally)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    missing = missing_inputs()
    if missing:
        sys.stderr.write("cannot run: missing %s\n" % ", ".join(missing))
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    chosen = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in chosen):
        sys.stderr.write("unknown workload %r; known: %s\n"
                         % (args.workload, ", ".join(names)))
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    print(json.dumps({"environment": environment(args.seed)}))
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in chosen:
        summary = run_workload(args, workload)
        if summary is None:
            sys.stderr.write("%s: the worker did not start its jobs\n" % workload)
            return 1
        values = workload_metrics(summary, args.trace)
        prefix = "" if len(chosen) == 1 else workload + "."
        for name, unit in units.items():
            value = values.get(name)
            if value is None:
                sys.stderr.write("%s: metric %s was not measured\n" % (workload, name))
                return 1
            total["metrics"][prefix + name] = {"value": value, "unit": unit}
            print("%s %s = %.6g %s" % (workload, name, value, unit))
        if not args.trace:
            print("%s job samples = %d" % (workload, len(summary["samples"])))
            print("%s unscaled wall_s = %.6g s; speed.loop() median = %.6g ms "
                  "(times above are scaled to %.6g ms)"
                  % (workload, summary["raw_wall_s"], summary["ref_ms"],
                     speed.NOMINAL_MS))
        for reason in summary["reasons"][:20]:
            print("%s FAILED %s" % (workload, reason))
        total["attempted"] += summary["attempted"]
        total["failed"] += summary["failed"]
    total["correct"] = total["failed"] == 0
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
