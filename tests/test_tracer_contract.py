"""The benchmark's tracer wraps diffkit's public functions by name.

`bench/tracer.py` looks up, among others, `kernel.negate`, the element
operations of `spaces` and the `v_*` code arithmetic; a rename or a
deletion of one of them makes every traced run fail. This runs one
traced invocation in a fresh interpreter and checks that it completes.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_child_runs():
    argv = ["check", "--model", "findiff", "--space", "Z5", "--subjects", "1",
            "--seed", "1"]
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "child.py"), "0", "1", *argv],
                          capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["error"] is None, out["error"]
    assert out["code"] == 0
    assert out["spans"]
