"""The benchmark's tracer wraps diffkit's public functions by name.

`bench/tracer.py` looks up, among others, `kernel.negate`, the element
operations of `spaces` and the `v_*` code arithmetic; a rename or a
deletion of one of them makes every traced run fail. This checks, in
process, that every name the tracer lists resolves, and runs traced
invocations in a fresh interpreter to check that they complete.

The tracer also replaces a morphism's `table_builder` with a proxy that
it calls with no arguments while `morphisms.tabulate` runs. So a table
filled in blocks must be filled behind that zero-argument call; only a
domain of more than `morphisms.BLOCK` codes, such as the 390,625 of a
second derivative on `(Z5 x Z5)`, shows whether it is.
"""

import importlib
import json
import runpy
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_name_the_tracer_wraps_resolves():
    tracer = runpy.run_path(str(ROOT / "bench" / "tracer.py"))  # writes no bytecode there
    names = [(mod, name) for mod, fns in tracer["SPANS"].items() for name in fns]
    names += [("diffkit.spaces", name) for name in tracer["V_ARITH"]]
    names += [(mod, name) for mod, fns, _, _ in tracer["COUNTED"] for name in fns]
    missing = [f"{mod}.{name}" for mod, name in names
               if not callable(getattr(importlib.import_module(mod), name, None))]
    assert names and not missing


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
