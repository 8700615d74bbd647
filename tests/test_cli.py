import json

import jsonschema
import pytest

from diffkit.cli import REPORT_SCHEMA, main
from diffkit.models import get_model


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
])
def test_bad_input_exits_two(capsys, argv):
    # exit 1 means "law violated": a crash or an empty run must not say so
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


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


def test_monad_kleisli_lambda_flatness_subcommands(capsys):
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
