"""The term layer against a frozen corpus.

`tests/golden/terms-corpus.json` records, for fixed term texts and for
random terms, what the public functions of `diffkit.terms` return: the
printed term, its printed symbolic derivatives, and the interpreted
morphism's domain, codomain and name, or the error class and message.
The test regenerates the corpus and compares it record by record.

`python tests/test_terms_corpus.py` rewrites the golden file from the
code in the checkout.
"""

import json
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden" / "terms-corpus.json"

SYNTAX_ERRORS = ["(comp id", "(frob id id)", "id id", "", "(prim)", "((id))"]
TYPE_ERRORS = ["(comp (prim sq) (pair id id))", "(comp (prim sq) one)", "(prim nosuch)"]
WELL_TYPED = [
    "id", "pi0", "pi1", "zero", "one",
    "(prim sq)", "(prim dbl)", "(prim psq)",
    "(d (prim sq))", "(d (d (prim sq)))", "(eps (prim sq))", "(d (eps (prim dbl)))",
    "(comp (prim sq) (prim inc))", "(comp (prim g) (prim f))",
    "(pair pi1 pi0)", "(pair (prim dbl) id)", "(comp pi0 (pair (prim dbl) one))",
    "(add (prim sq) id)", "(add zero (eps (d (prim dbl))))",
    "(comp one (prim sq))", "(comp (d (prim dbl)) (pair id id))",
    "(d (pair pi0 (add pi1 pi0)))", "(d (comp (prim psq) (prim psq)))",
    "  ( comp\tpi1 (d id) ) ",
]

# (label, model tag, space text or None, domain text or None)
SETTINGS = [
    ("findiff", "findiff", None, None),
    ("findiff Z7", "findiff", "Z7", None),
    ("smooth R^2", "smooth", "R^2", None),
    ("streams:k=4 Stream(Z3,4)", "streams:k=4", "Stream(Z3,4)", None),
    ("findiff Z7 dom=Z7", "findiff", "Z7", "Z7"),
    ("findiff dom=(Z7 x Z7)", "findiff", None, "(Z7 x Z7)"),
    ("module:r=2 (Z5 x Z5)", "module:r=2", "(Z5 x Z5)", None),
]

# (model tag, space text, value cap)
RANDOM = [
    ("findiff", "Z7", None),
    ("smooth", "R^1", 1e6),
    ("module:r=2", "Z5", None),
    ("streams:k=4", "Stream(Z3,4)", None),
]
RANDOM_SEEDS = 25


def _error(exc) -> str:
    return f"{type(exc).__name__}: {exc}"


def _morphism(m) -> dict:
    from diffkit.spaces import format_space

    return {"dom": format_space(m.dom), "cod": format_space(m.cod), "name": m.name}


def _interpret(term, tag, space, dom) -> dict:
    from diffkit.errors import DiffkitError
    from diffkit.models import get_model
    from diffkit.spaces import parse_space
    from diffkit.terms import interpret

    try:
        return _morphism(interpret(
            term, get_model(tag),
            parse_space(space) if space else None,
            dom=parse_space(dom) if dom else None,
        ))
    except DiffkitError as exc:
        return {"error": _error(exc)}


def _text_record(text: str) -> dict:
    from diffkit.errors import TermSyntaxError
    from diffkit.terms import parse_term, print_term, symbolic_derive

    try:
        term = parse_term(text)
    except TermSyntaxError as exc:
        return {"text": text, "syntax": _error(exc), "position": exc.position}
    return {
        "text": text,
        "printed": print_term(term),
        "derive1": print_term(symbolic_derive(term)),
        "derive2": print_term(symbolic_derive(term, order=2)),
        "interpret": {label: _interpret(term, tag, space, dom)
                      for label, tag, space, dom in SETTINGS},
    }


def _random_record(tag: str, space_text: str, cap, i: int) -> dict:
    from diffkit.models import get_model
    from diffkit.spaces import derive_seed, parse_space
    from diffkit.terms import interpret, print_term, random_term, symbolic_derive

    model, space = get_model(tag), parse_space(space_text)
    term = random_term(model, space, 4, derive_seed(77, tag, i), value_cap=cap)
    return {
        "model": tag,
        "space": space_text,
        "seed": i,
        "printed": print_term(term),
        "derive1": print_term(symbolic_derive(term)),
        "interpret": _morphism(interpret(term, model, space)),
    }


def corpus() -> list:
    texts = SYNTAX_ERRORS + TYPE_ERRORS + WELL_TYPED
    return [_text_record(t) for t in texts] + [
        _random_record(tag, space, cap, i)
        for tag, space, cap in RANDOM for i in range(RANDOM_SEEDS)
    ]


def test_terms_corpus():
    want = json.loads(GOLDEN.read_text())
    got = corpus()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w


if __name__ == "__main__":
    sys.path.insert(0, str(GOLDEN.parent.parent.parent / "src"))
    GOLDEN.write_text(json.dumps(corpus(), indent=1) + "\n")
    print(GOLDEN, len(corpus()))
