"""Write the committed answers (expected/*.json) from the current package.

    python3 perfbench/make_expected.py

Run it only when the package's intended answers change.  Each entry is
the digest of one CLI answer that has no closed form or golden; the
other checks of a job still run and must pass.
"""

import json
import pathlib
import shutil
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402  (puts the package's src on sys.path)
import workloads  # noqa: E402


class _Capture:
    """Stands in for a committed digest and records the one it meets."""

    def __init__(self, store, key):
        self.store, self.key = store, key

    def __eq__(self, got):
        self.store[self.key] = got
        return True


class Recorder(dict):
    def get(self, key, default=None):
        return _Capture(self, key)


def record(fs, name, store, workdir):
    workloads.load_expected = lambda _name: store
    failures = []
    for key, call, check in workloads.WORKLOADS[name](fs, 0, workdir):
        why = check(call())
        if why:
            failures.append("%s: %s" % (key, why))
    if failures:
        raise SystemExit("\n".join(failures))


def main():
    fs = worker.load_package()
    workdir = HERE.parent / ".perfbench_work" / "make_expected"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in ("toric_cli", "hilbert_singular"):
            store = Recorder()
            record(fs, name, store, workdir)
            path = HERE / "expected" / ("%s.json" % name)
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps(dict(sorted(store.items())), indent=1) + "\n")
            print("%s: %d answers" % (path.relative_to(HERE.parent), len(store)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
