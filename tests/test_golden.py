"""Golden CLI reports: fixed argv, byte-for-byte output.

Each case runs `cli.main` in-process and compares its exit code and
standard output with `tests/golden/<name>.json`. Only the wall-time
field `elapsed_ms` is masked. The cases are the benchmark workloads'
invocations at seed 42 plus one `eval` and one `derive` from the README.

A change that moves a golden on purpose says which one and why in
CHANGES.md; `python tests/test_golden.py` rewrites every golden file
from the code in the checkout.
"""

import functools
import json
import re
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
SEED = ("--seed", "42")
REFUTE = ("--axioms", "CDC2-additivity,Linearity")


def _check(model, space, *extra):
    return ("check", "--model", model, "--space", space) + extra + SEED


CASES = {
    # vectorized table path
    "check-findiff-Z7-50": _check("findiff", "Z7", "--subjects", "50"),
    "check-findiff-Z5xZ5-10": _check("findiff", "(Z5 x Z5)", "--subjects", "10",
                                     "--bound", "1000000"),
    "check-module-Z7-10": _check("module:r=2", "Z7", "--subjects", "10"),
    "check-module-Z5xZ5-1": _check("module:r=2", "(Z5 x Z5)", "--subjects", "1",
                                   "--bound", "1000000"),
    "monad-laws-findiff-Z3xZ3": ("monad-laws", "--model", "findiff",
                                 "--space", "(Z3 x Z3)") + SEED,
    "kleisli-check-findiff-Z5": ("kleisli-check", "--model", "findiff", "--space", "Z5",
                                 "--subjects", "2") + SEED,
    "algebra-check-findiff-Z5": ("algebra-check", "--model", "findiff",
                                 "--space", "Z5") + SEED,
    "flatness-findiff-Z5xZ5": ("flatness", "--model", "findiff",
                               "--space", "(Z5 x Z5)") + SEED,
    "lambda-check-4-20": ("lambda-check", "--max-size", "4", "--subjects", "20") + SEED,
    "refute-findiff-Z7": _check("findiff", "Z7", *REFUTE),
    "refute-findiff-Z5xZ5": _check("findiff", "(Z5 x Z5)", *REFUTE,
                                   "--bound", "1000000"),
    # per-point closure path
    "check-findiff-Int100-1": _check("findiff", "Int[-100,100]", "--subjects", "1",
                                     "--axioms", "CdC0,CdC2,CdC7a,CA,CAD"),
    "check-module3-Int50-1": _check("module:r=3", "Int[-50,50]", "--subjects", "1"),
    "check-smooth-R1-2": _check("smooth", "R^1", "--subjects", "2"),
    "check-smooth-R2-1": _check("smooth", "R^2", "--subjects", "1"),
    "check-streams8-Z3-1": _check("streams:k=8", "Stream(Z3,8)", "--subjects", "1"),
    "kleisli-check-streams4-Z3": ("kleisli-check", "--model", "streams:k=4",
                                  "--space", "Stream(Z3,4)", "--subjects", "2",
                                  "--samples", "24") + SEED,
    "kleisli-check-smooth-R1": ("kleisli-check", "--model", "smooth", "--space", "R^1",
                                "--subjects", "2", "--samples", "64") + SEED,
    "monad-laws-streams4-Z3": ("monad-laws", "--model", "streams:k=4",
                               "--space", "Stream(Z3,4)") + SEED,
    "refute-findiff-Int100": _check("findiff", "Int[-100,100]", *REFUTE,
                                    "--subjects", "20", "--bound", "1000"),
    "refute-smooth-R2": _check("smooth", "R^2", "--axioms", "Linearity"),
    "refute-streams8-Z3": _check("streams:k=8", "Stream(Z3,8)", *REFUTE,
                                 "--subjects", "6"),
    # sampled draws of one power-of-two size, and of mixed sizes in a row
    "check-findiff-Z8-3": _check("findiff", "Z8", "--subjects", "3", "--bound", "100"),
    "check-streams3-Z4-2": _check("streams:k=3", "Stream(Z4,3)", "--subjects", "2"),
    "check-module-Z4xZ6-2": _check("module:r=2", "(Z4 x Z6)", "--subjects", "2"),
    # README examples
    "eval-findiff-d-sq": ("eval", "--model", "findiff", "--term", "(d (prim sq))",
                          "--at", "(3,2)"),
    "derive-chain-rule": ("derive", "--term", "(comp (prim g) (prim f))"),
}


def golden_doc(argv, code: int, out: str) -> dict:
    return {"argv": list(argv), "exit_code": code,
            "stdout": re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', out)}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name, capsys, monkeypatch):
    from diffkit import cli
    from diffkit.cli import main
    from diffkit.monad import check_kleisli_cdc
    from diffkit.morphisms import DEFAULT_STRATEGY

    monkeypatch.delenv("DIFFKIT_SEED", raising=False)
    # cross-check every Kleisli composition under the default strategy; the
    # self-check only raises on a disagreement, so the report is the CLI's
    monkeypatch.setattr(cli, "check_kleisli_cdc", functools.partial(
        check_kleisli_cdc, oracle_strat=DEFAULT_STRATEGY))
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    code = main(list(CASES[name]))
    got = golden_doc(CASES[name], code, capsys.readouterr().out)
    assert got["argv"] == want["argv"]
    assert got["exit_code"] == want["exit_code"]
    assert got["stdout"] == want["stdout"]


if __name__ == "__main__":
    import io
    import os
    from contextlib import redirect_stdout

    sys.path.insert(0, str(GOLDEN.parent.parent / "src"))
    os.environ.pop("DIFFKIT_SEED", None)
    from diffkit.cli import main

    GOLDEN.mkdir(exist_ok=True)
    for name, argv in sorted(CASES.items()):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(list(argv))
        doc = golden_doc(argv, code, buf.getvalue())
        (GOLDEN / f"{name}.json").write_text(json.dumps(doc, indent=1) + "\n")
        print(name, code)
