"""The benchmark's tracer wraps diffkit's public functions by name.

`bench/tracer.py` looks up, among others, `kernel.negate`, the element
operations of `spaces` and the `v_*` code arithmetic; a rename or a
deletion of one of them makes every traced run fail. This runs traced
invocations in a fresh interpreter and checks that they complete.

The tracer also replaces a morphism's `table_builder` with a proxy that
it calls with no arguments while `morphisms.tabulate` runs. So a table
filled in blocks must be filled behind that zero-argument call; only a
domain of more than `morphisms.BLOCK` codes, such as the 390,625 of a
second derivative on `(Z5 x Z5)`, shows whether it is.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _traced(*argv):
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "child.py"), "0", "1", *argv],
                          capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["error"] is None, out["error"]
    assert out["code"] == 0
    assert out["spans"]


def test_traced_child_runs():
    _traced("check", "--model", "findiff", "--space", "Z5", "--subjects", "1", "--seed", "1")


def test_traced_child_fills_a_table_in_blocks():
    _traced("check", "--model", "findiff", "--space", "(Z5 x Z5)", "--subjects", "1",
            "--axioms", "CdC6", "--bound", "1000000", "--seed", "1")
