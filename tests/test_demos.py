"""Each demo prints exactly its golden output.

A golden is the stdout of `PYTHONPATH=src python3 demos/<name>.py`, stored
as tests/goldens/demos/<name>.txt; the output does not depend on the hash
seed.  After an intended change to a demo's output, regenerate its golden
the same way and review the difference.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDENS = Path(__file__).resolve().parent / "goldens" / "demos"


def test_every_demo_has_a_golden():
    assert DEMOS
    goldens = sorted(p.stem for p in GOLDENS.glob("*.txt"))
    assert [p.stem for p in DEMOS] == goldens


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output_matches_its_golden(demo):
    path = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True, text=True, cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDENS / (demo.stem + ".txt")).read_text()
