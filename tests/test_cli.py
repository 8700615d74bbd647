import functools
import json
import time

import jsonschema
import pytest

from diffkit import cli, kernel
from diffkit.cli import REPORT_SCHEMA, main
from diffkit.errors import InternalError
from diffkit.models import get_model
from diffkit.monad import check_kleisli_cdc
from diffkit.morphisms import DEFAULT_STRATEGY


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_eval_spec_example(capsys):
    code, out = run(capsys, "eval", "--model", "findiff",
                    "--term", "(d (prim sq))", "--at", "(3,2)")
    assert code == 0
    assert out.strip() == "16"


def test_eval_smooth_and_streams(capsys):
    code, out = run(capsys, "eval", "--model", "smooth", "--space", "R^1",
                    "--term", "(d (prim cube))", "--at", "(2, 1)")
    assert code == 0
    assert out.strip() == "12"
    code, out = run(capsys, "eval", "--model", "streams:k=2",
                    "--space", "Stream(Int[-100,100],2)",
                    "--term", "(d (prim psq))", "--at", "([1,1],[1,1])")
    assert code == 0
    assert out.strip() == "[3, 3]"


def test_derive_prints_term(capsys):
    code, out = run(capsys, "derive", "--term", "(comp (prim g) (prim f))")
    assert code == 0
    assert out.strip() == "(comp (d (prim g)) (pair (comp (prim f) pi0) (d (prim f))))"
    code, out = run(capsys, "derive", "--term", "id", "--order", "2")
    assert code == 0
    assert out.strip() == "(comp pi1 pi1)"


def test_check_passes_and_validates_schema(capsys):
    code, out = run(capsys, "check", "--model", "findiff", "--space", "Z7",
                    "--axioms", "all", "--subjects", "8", "--seed", "42")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert doc["violations_total"] == 0
    assert doc["seed"] == 42


def test_check_separation_witness_exits_one(capsys):
    code, out = run(capsys, "check", "--model", "findiff", "--space", "Int[-100,100]",
                    "--axioms", "CDC2-additivity", "--subjects", "6", "--seed", "42")
    assert code == 1
    doc = json.loads(out)
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert doc["violations_total"] > 0
    assert doc["results"][0]["counterexample"] is not None


def test_an_internal_error_exits_three(capsys, monkeypatch):
    # batches and closures that disagree are a bug in diffkit: one error
    # line and exit 3, neither a violation (1) nor bad input (2)
    def disagree(f, g, strat):
        raise InternalError("batches and closures disagree")

    monkeypatch.setattr(kernel, "morphisms_equal", disagree)
    code = main(["check", "--model", "findiff", "--space", "Z5", "--subjects", "1",
                 "--axioms", "CdC1"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.splitlines() == ["error: internal: batches and closures disagree"]


def test_derive_past_the_node_limit_exits_two(capsys):
    # each nested d makes the derivative about seven times larger: 12 of them
    # would print gigabytes, and the limit stops them at the eighth
    started = time.perf_counter()
    assert main(["derive", "--term", "(d " * 12 + "id" + ")" * 12]) == 2
    assert time.perf_counter() - started < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_usage_error_exits_two(capsys):
    assert main(["check", "--model", "nosuch"]) == 2
    assert main(["no-such-command"]) == 2
    assert main(["check", "--model", "findiff", "--axioms", "CdC99"]) == 2


@pytest.mark.parametrize("argv", [
    ["check", "--space", "Z0"],
    ["check", "--space", "Int[-100,100]", "--samples", "0"],
    ["lambda-check", "--max-size", "1"],
    ["eval", "--term", "(prim sq)", "--at", "1e400"],
    ["check", "--subjects", "0"],
    ["check", "--axioms", ","],
    ["check", "--axioms", ""],
    # a stream leaf over a product base is not a streams space
    ["check", "--model", "streams:k=4", "--space", "Stream((Z3 x Z3),3)", "--subjects", "1",
     "--axioms", "CdC0", "--seed", "1"],
    # so a stream primitive there is refused as such, not by Python arithmetic
    ["eval", "--model", "streams:k=2", "--space", "Stream((Z3 x Z3),2)",
     "--term", "(prim psq)", "--at", "[(1,2),(0,1)]"],
])
def test_bad_input_exits_two(capsys, argv):
    # exit 1 means "law violated": a crash or an empty run must not say so
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    if argv[0] == "eval" and "--model" in argv:
        assert "is not a legal streams:k=2 space" in captured.err


_EVAL_ID = ["eval", "--term", "id", "--model"]


@pytest.mark.parametrize("argv", [
    _EVAL_ID + ["findiff", "--space", "Z7", "--at", "(1,2)"],
    _EVAL_ID + ["findiff", "--space", "Z7", "--at", "[1,2]"],
    _EVAL_ID + ["findiff", "--space", "Z7", "--at", "()"],
    _EVAL_ID + ["findiff", "--space", "Int[-5,5]", "--at", "(1,2)"],
    _EVAL_ID + ["streams:k=2", "--space", "Stream(Z3,2)", "--at", "[(1,2),0]"],
    _EVAL_ID + ["smooth", "--space", "R^2", "--at", "((1,2),3)"],
    # a fraction is not an integer coordinate; it is not rounded either
    _EVAL_ID + ["findiff", "--space", "Z7", "--at", "1.5"],
    _EVAL_ID + ["findiff", "--space", "Int[-5,5]", "--at", "1.5"],
])
def test_misshaped_eval_point_exits_two(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_eval_takes_an_integral_float_as_an_integer(capsys):
    assert run(capsys, *_EVAL_ID, "findiff", "--space", "Z7", "--at", "10.0") == (0, "3\n")


@pytest.mark.parametrize("space", ["Int[-,3]", "Z-", "R^-", "Stream(Z3,-)", "Z²", "Int[¹,3]"])
def test_bad_space_syntax_exits_two(capsys, space):
    # a sign without digits, or a non-ASCII digit, is bad syntax, not a crash
    assert main(["check", "--model", "findiff", "--space", space]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad space syntax: expected integer")
    assert "Traceback" not in captured.err


def test_replay_determinism(capsys):
    argv = ["check", "--model", "streams:k=4", "--space", "Stream(Z3,4)",
            "--axioms", "CdC0,CdC5,E2", "--subjects", "4", "--seed", "7"]
    _, out1 = run(capsys, *argv)
    _, out2 = run(capsys, *argv)
    d1, d2 = json.loads(out1), json.loads(out2)
    d1.pop("elapsed_ms")
    d2.pop("elapsed_ms")
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


def test_env_seed_overrides_flag(capsys, monkeypatch):
    monkeypatch.setenv("DIFFKIT_SEED", "99")
    code, out = run(capsys, "check", "--model", "findiff", "--space", "Z5",
                    "--axioms", "CdC0", "--subjects", "2", "--seed", "3")
    assert json.loads(out)["seed"] == 99


@pytest.mark.parametrize("env, flag", [("abc", "3"), ("", "3"), (None, "-3"), ("-1", "3")])
def test_a_bad_seed_exits_two(capsys, monkeypatch, env, flag):
    # the report schema asks for a seed of at least 0
    if env is not None:
        monkeypatch.setenv("DIFFKIT_SEED", env)
    assert main(["check", "--model", "findiff", "--space", "Z5", "--axioms", "CdC0",
                 "--subjects", "1", "--seed", flag]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1


def test_table_primitive_loading(capsys, tmp_path):
    prim = tmp_path / "cycle.json"
    prim.write_text(json.dumps({"space": "Z7", "table": [1, 2, 3, 4, 5, 6, 0]}))
    code, out = run(capsys, "eval", "--model", "findiff", "--space", "Z7",
                    "--term", "(prim rot)", "--at", "6",
                    "--prim", f"rot={prim}")
    assert code == 0
    assert out.strip() == "0"
    # the registration belongs to that invocation's model only
    assert "rot" not in get_model("findiff").primitive_names()


@pytest.mark.parametrize("table", [[0, 7, -1, 2, 3], [0, 1.5, 2, 3, 4]], ids=["range", "fraction"])
@pytest.mark.parametrize("argv", [
    ["eval", "--model", "findiff", "--space", "Z5", "--term", "(prim bad)", "--at", "1"],
    ["check", "--model", "findiff", "--space", "Z5", "--subjects", "1"],
], ids=["eval", "check"])
def test_a_table_entry_that_is_no_code_exits_two(capsys, tmp_path, argv, table):
    # 7, -1 and 1.5 are no codes of Z5: read as such they would give a verdict
    prim = tmp_path / "bad.json"
    prim.write_text(json.dumps({"space": "Z5", "table": table}))
    assert main(argv + ["--prim", f"bad={prim}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: table 'bad'") and captured.err.count("\n") == 1


def test_a_nu_entry_outside_the_codes_exits_two(capsys, tmp_path):
    table = [(x + y) % 5 for x in range(5) for y in range(5)]
    table[-1] = 99
    nu = tmp_path / "nu.json"
    nu.write_text(json.dumps({"space": "Z5", "nu": table}))
    assert main(["algebra-check", "--model", "findiff", "--space", "Z5",
                 "--nu-file", str(nu)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "outside the codes" in captured.err


_MALFORMED = {
    "not-json": b"not json",
    "not-text": b"\xff\xfe\xfd",
    "not-an-object": b"[0, 1, 2, 3, 4]",
    "no-space": b'{"KEY": [0, 1, 2, 3, 4]}',
    "space-not-text": b'{"space": 5, "KEY": [0, 1, 2, 3, 4]}',
    "bad-space-text": b'{"space": "Z", "KEY": [0, 1, 2, 3, 4]}',
    "no-table": b'{"space": "Z5"}',
    "table-not-a-list": b'{"space": "Z5", "KEY": 5}',
}


@pytest.mark.parametrize("shape", sorted(_MALFORMED))
@pytest.mark.parametrize("key, argv", [
    ("table", ["eval", "--model", "findiff", "--space", "Z5", "--term", "(prim bad)",
               "--at", "1", "--prim", "bad=FILE"]),
    ("nu", ["algebra-check", "--model", "findiff", "--space", "Z5", "--nu-file", "FILE"]),
], ids=["prim", "nu-file"])
def test_a_malformed_table_file_exits_two(capsys, tmp_path, shape, key, argv):
    path = tmp_path / "bad.json"
    path.write_bytes(_MALFORMED[shape].replace(b"KEY", key.encode()))
    assert main([a.replace("FILE", str(path)) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_algebra_check_with_nu_file(capsys, tmp_path):
    # nu(x, y) = x + y on Z5 (idempotent scalar 1): flat table over T(Z5)
    table = [(x + y) % 5 for x in range(5) for y in range(5)]
    nu = tmp_path / "nu.json"
    nu.write_text(json.dumps({"space": "Z5", "nu": table}))
    code, out = run(capsys, "algebra-check", "--model", "findiff",
                    "--space", "Z5", "--nu-file", str(nu))
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert len(doc["results"]) == 2


def test_monad_kleisli_lambda_flatness_subcommands(capsys, monkeypatch):
    # cross-check every Kleisli composition under the default strategy
    monkeypatch.setattr(cli, "check_kleisli_cdc", functools.partial(
        check_kleisli_cdc, oracle_strat=DEFAULT_STRATEGY))
    code, out = run(capsys, "monad-laws", "--model", "findiff", "--space", "Z5")
    assert code == 0
    jsonschema.validate(json.loads(out), REPORT_SCHEMA)
    code, out = run(capsys, "kleisli-check", "--model", "findiff", "--space", "Z5",
                    "--subjects", "2", "--samples", "32")
    assert code == 0
    code, out = run(capsys, "lambda-check", "--max-size", "3", "--subjects", "3")
    assert code == 0
    code, out = run(capsys, "flatness", "--model", "smooth", "--space", "R^1")
    assert code == 1  # right-injectivity fails for the projection action
    doc = json.loads(out)
    jsonschema.validate(doc, REPORT_SCHEMA)


def test_flatness_unknown_verdict_on_open_carrier(capsys):
    # right-injectivity cannot be decided by sampling on an infinite carrier
    code, out = run(capsys, "flatness", "--model", "findiff",
                    "--space", "Int[-100,100]")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert doc["results"][0]["verdict"] == "unknown"


def test_table_format_shows_unknown(capsys):
    code, out = run(capsys, "flatness", "--model", "findiff",
                    "--space", "Int[-100,100]", "--format", "table")
    assert code == 0
    assert "unknown" in out
