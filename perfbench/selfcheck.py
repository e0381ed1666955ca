"""Self-check of the benchmark at a small size.

    python3 perfbench/selfcheck.py

Checks that:
- every metric named in BENCHMARK.json is printed, for every workload;
- every per-layer metric says what it should move (metrics.MOVES);
- the per-layer counts repeat exactly across two traced runs with the
  same seed;
- the self times of the layers (and of the harness around the calls) add
  up to the traced wall time.
Exits with 1 if any check fails.
"""

import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from metrics import MOVES  # noqa: E402
from tracer import LAYERS, ROOT_LAYER  # noqa: E402

SEED = 7


def run(trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "all",
           "--small", "--seed", str(SEED), "--seconds", "1",
           "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          cwd=str(HERE.parent), timeout=600)
    if proc.returncode != 0:
        raise SystemExit("run.py failed:\n" + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    problems = []

    def expect(ok, what):
        print("%s %s" % ("PASS" if ok else "FAIL", what))
        if not ok:
            problems.append(what)

    layer_names = {m["name"] for m in spec["per_layer"]}
    expect(set(MOVES) == layer_names,
           "metrics.MOVES covers exactly the per-layer metrics")

    plain = run(0)
    expect(plain["correct"] and plain["failed"] == 0,
           "every answer is right (%d attempted)" % plain["attempted"])
    names = {"%s.%s" % (w, m["name"]) for w in workloads for m in spec["end_to_end"]}
    expect(names <= set(plain["metrics"]), "every end_to_end metric is printed")

    first, second = run(1), run(1)
    names = {"%s.%s" % (w, n) for w in workloads for n in layer_names}
    expect(names <= set(first["metrics"]), "every per_layer metric is printed")
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for w in workloads:
        counts = [n for n in layer_names
                  if units[n] != "s" and n != "trace.overhead_ratio"]
        differ = [n for n in counts
                  if first["metrics"]["%s.%s" % (w, n)]["value"]
                  != second["metrics"]["%s.%s" % (w, n)]["value"]]
        expect(not differ, "%s: per-layer counts repeat exactly%s"
               % (w, " (not %s)" % ", ".join(differ) if differ else ""))
        values = {n: first["metrics"]["%s.%s" % (w, n)]["value"]
                  for n in layer_names}
        selves = sum(values["%s.self_s" % layer] for layer in LAYERS + (ROOT_LAYER,))
        wall = values["trace.wall_s"]
        expect(abs(selves - wall) <= 1e-6 * max(wall, 1.0),
               "%s: layer self times add up to the traced wall time "
               "(%.6f s of %.6f s)" % (w, selves, wall))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
