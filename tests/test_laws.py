"""The law table (`terms.LAWS`) and the one evaluator behind it.

Each law is a row of term equations; `terms.law_sides` types a row and
builds its two sides through a cat. The labels are pinned because each one
seeds its comparison (`derive_seed`), so a changed label changes reports.
The counts pinned below are those of the hand-built sides the table
replaced: evaluating a row may build less than they did, never more.
"""

import pytest

from diffkit import kernel, monad
from diffkit.changeaction import induced_action
from diffkit.errors import TermTypeError
from diffkit.kernel import BaseCat, axiom_pool_report, axiom_sides
from diffkit.models import get_model
from diffkit.monad import KleisliCat, KleisliPool, TangentCat, mu, random_kleisli_subjects
from diffkit.morphisms import Auto, EqualityStrategy, Morphism
from diffkit.spaces import parse_space
from diffkit.terms import LAWS, Law, _compile, law_sides, parse_term

LABELS = [
    ("CdC0", ["f(x+eps y) = f x + eps(df<x,y>)"]),
    ("CdC1", ["d[f+g] = d[f]+d[g]", "d[0] = 0", "d[eps f] = eps d[f]"]),
    ("CdC2", ["df<x,y+z> = df<x,y> + df<x+eps y,z>", "df<x,0> = 0"]),
    ("CdC3", ["d[1] = pi1", "d[pi0] = pi0.pi1", "d[pi1] = pi1.pi1"]),
    ("CdC4", ["d<f,g> = <d f,d g>", "d[!] = !"]),
    ("CdC5", ["chain rule"]),
    ("CdC6", ["d2f<<x,y>,<0,z>> = df<x+eps y,z>"]),
    ("CdC7", ["d2f<<x,y>,<z,0>> = d2f<<x,z>,<y,0>>"]),
    ("CdC6a", ["d2f<<x,0>,<0,y>> = df<x,y>"]),
    ("CdC7a", ["d2f<<x,y>,<z,w>> = d2f<<x,z>,<y,w>>"]),
    ("E1", ["eps(f+g) = eps f + eps g", "eps 0 = 0"]),
    ("E2", ["eps(g.f) = eps(g).f"]),
    ("E3", ["eps pi0 = pi0 . eps(1)", "eps pi1 = pi1 . eps(1)", "eps<f,g> = <eps f,eps g>"]),
    ("CDC2-additivity", ["df<x,y+z> = df<x,y> + df<x,z>", "df<x,0> = 0"]),
    ("DEps-i", ["df<x,eps y> = eps(df)<x,y>"]),
    ("DEps-ii", ["eps(df)<x+eps y,z> = eps(df)<x+eps^2 y,z>"]),
    ("DEps-iii", ["eps^2(d2f) = eps^3(d2f) on <<x,y>,<z,0>>"]),
    ("Eq1-strong", ["eps(d2f) = eps^2(d2f) on <<x,y>,<z,0>>"]),
    ("Linearity", ["d[f] = f.pi1"]),
    ("EpsLinearity", ["d[f] = f.pi1"]),
    ("EpsVanishing", ["eps(1) = 0"]),
    ("F2", ["d[oplus] = oplus.pi1", "d[plus] = plus.pi1"]),
    ("F3", ["eps(d {f}) = d {f}<x,eps y>"]),
    ("OplusEps", ["oplus<f,g> = f + eps g"]),
    ("CA", ["plus<x,0> = x", "plus<0,x> = x", "plus associativity", "x (+) 0 = x",
            "x (+) (a+b) = (x (+) a) (+) b"]),
    ("CA-maps", ["(f (+) g).h = (f.h) (+) (g.h)"]),
    ("CAD", ["CAD1", "CAD2 regularity", "CAD2 zero"]),
    ("MonadLaws", ["mu . eta_T = 1", "mu . T(eta) = 1", "mu . mu_T = mu . T(mu)"]),
    ("Tangent-f", ["T({f}).eta = eta.{f}", "mu.T^2({f}) = T({f}).mu",
                   "T(d[{f}]) = d[T({f})].phi", "T(eps {f}) = eps T({f})"]),
    ("Tangent-fg", ["T(f+g) = T(f)+T(g)"]),
    ("Tangent-A", ["T(0) = 0", "T(plus) = plus x plus", "eps(mu) = mu . eps(1)",
                   "eps(eta) = eta . eps(1)", "eps(phi) = phi . eps(1)"]),
    ("LinearAlgebra", ["nu . eta = 1", "nu . T(nu) = nu . mu"]),
]

AXIOMS = [ax for ax, law in LAWS.items() if law.arity is not None]
MODELS = ["findiff", "smooth", "module:r=2", "streams:k=4"]
STRAT = EqualityStrategy(Auto(48, 13))


def test_the_clause_labels_are_pinned():
    assert [(law, [label for label, _, _ in row.clauses]) for law, row in LAWS.items()] == LABELS


def _typed(sides):
    assert sides
    for label, lhs, rhs in sides:
        assert (lhs.dom, lhs.cod) == (rhs.dom, rhs.cod), label


@pytest.mark.parametrize("tag", MODELS)
def test_every_row_types_on_the_default_space(tag):
    model = get_model(tag)
    a = model.default_space
    f, g = model.random_subjects(a, 2, 3)
    ca = induced_action(model, a)
    env = {"f": f, "g": g, "df": model.derivative(f), "nu": mu(model, a), "A": a,
           "oplusA": ca.oplus, "plusA": ca.plus, "zeroA": ca.zero,
           "oplusB": ca.oplus, "plusB": ca.plus, "zeroB": ca.zero}
    for law, row in LAWS.items():
        if row.arity is None:
            _typed(law_sides(TangentCat(model), law, env))
        else:
            _typed(axiom_sides(BaseCat(model), model, law, [f, g]))
            _typed(axiom_sides(KleisliCat(model), model, law,
                               random_kleisli_subjects(model, a, 2, 3)))


def test_a_row_that_does_not_type_is_refused():
    # a side whose type unification leaves open is an error, never a default
    model = get_model("findiff")
    (f,) = model.random_subjects(parse_space("Z5"), 1, 3)
    for lhs, rhs, match in [("(comp f (comp pi0 (pair id zero)))", "f", "stays unknown"),
                            ("(comp f pi1)", "f", "expected a product space")]:
        row = Law(1, False, (("bad", parse_term(lhs, True), parse_term(rhs, True)),), ("f",))
        with pytest.raises(TermTypeError, match=match):
            _compile(BaseCat(model), row, {"f": f})


def test_a_compiled_row_is_kept_for_the_types_it_read():
    model = get_model("findiff")
    cat = BaseCat(model)
    f, g = model.random_subjects(parse_space("Z5"), 2, 3)
    (h,) = model.random_subjects(parse_space("(Z5 x Z5)"), 1, 3)
    axiom_sides(cat, model, "CdC2", [f])
    first = cat.compiled["CdC2"]
    axiom_sides(cat, model, "CdC2", [g])
    assert cat.compiled["CdC2"] is first
    ((_, lhs, _), _) = axiom_sides(cat, model, "CdC2", [h])
    assert cat.compiled["CdC2"] is not first and lhs.dom.left == h.dom


# kleisli_compose calls of one axiom over a pool of 3 Kleisli subjects on Z3,
# run subject by subject; each runs the composition's self-check oracle
COMPOSES = {
    "CdC0": 9, "CdC1": 0, "CdC2": 12, "CdC3": 2, "CdC4": 0, "CdC5": 9, "CdC6": 6,
    "CdC7": 6, "CdC6a": 6, "CdC7a": 6, "E1": 0, "E2": 6, "E3": 6, "CDC2-additivity": 12,
    "DEps-i": 6, "DEps-ii": 6, "DEps-iii": 6, "Eq1-strong": 6, "Linearity": 3,
    "EpsLinearity": 3, "EpsVanishing": 0,
}


def _kleisli_compositions(monkeypatch, axiom) -> tuple:
    """The kleisli_compose calls of `axiom` over the pool of COMPOSES, its
    report and whether the pool was stacked."""
    model, calls = get_model("findiff"), []
    real = monad.kleisli_compose
    monkeypatch.setattr(monad, "kleisli_compose", lambda *a, **k: calls.append(1) or real(*a, **k))
    pool = KleisliPool(model, random_kleisli_subjects(model, parse_space("Z3"), 3, 14))
    rep = axiom_pool_report(model, axiom, pool, STRAT, "random kleisli subjects")
    return len(calls), rep, pool.stacked is not None


@pytest.mark.parametrize("axiom", AXIOMS)
def test_kleisli_compositions_per_axiom(monkeypatch, axiom):
    # stacked, the law program runs once for the pool: one subject's share of
    # COMPOSES, and once more, for the lowest failing subject alone, when the
    # law fails; an axiom of arity "space" runs for one subject either way
    calls, rep, stacked = _kleisli_compositions(monkeypatch, axiom)
    assert stacked
    if LAWS[axiom].arity == "space":
        assert calls <= COMPOSES[axiom]
    else:
        assert calls <= COMPOSES[axiom] // 3 * (2 if rep.violations else 1)


@pytest.mark.parametrize("axiom", AXIOMS)
def test_kleisli_compositions_per_axiom_alone(monkeypatch, axiom):
    monkeypatch.setattr(kernel, "_stack", lambda subjects: None)
    calls, _, stacked = _kleisli_compositions(monkeypatch, axiom)
    assert not stacked and calls <= COMPOSES[axiom]


# morphisms constructed by one axiom over a pool of 3 subjects, with one
# BaseCat for the pool
MADE = {
    "findiff Z7": {
        "CdC0": 29, "CdC1": 24, "CdC2": 41, "CdC3": 15, "CdC4": 15, "CdC5": 20, "CdC6": 32,
        "CdC7": 33, "CdC6a": 25, "CdC7a": 41, "E1": 17, "E2": 12, "E3": 26,
        "CDC2-additivity": 40, "DEps-i": 23, "DEps-ii": 30, "DEps-iii": 44, "Eq1-strong": 38,
        "Linearity": 8, "EpsLinearity": 11, "EpsVanishing": 4,
    },
    "module:r=2 (Z5 x Z5)": {
        "CdC0": 80, "CdC1": 194, "CdC2": 92, "CdC3": 66, "CdC4": 134, "CdC5": 122,
        "CdC6": 134, "CdC7": 135, "CdC6a": 127, "CdC7a": 143, "E1": 17, "E2": 12, "E3": 26,
        "CDC2-additivity": 91, "DEps-i": 74, "DEps-ii": 81, "DEps-iii": 146,
        "Eq1-strong": 140, "Linearity": 59, "EpsLinearity": 62, "EpsVanishing": 4,
    },
}


@pytest.mark.parametrize("pool", MADE)
def test_morphism_constructions_per_pool(monkeypatch, pool):
    tag, text = pool.split(" ", 1)
    model = get_model(tag)
    post = Morphism.__post_init__
    for axiom in AXIOMS:
        subjects, made = model.random_subjects(parse_space(text), 3, 13), []
        monkeypatch.setattr(Morphism, "__post_init__", lambda m: made.append(1) or post(m))
        axiom_pool_report(model, axiom, subjects, STRAT, "random subjects")
        monkeypatch.setattr(Morphism, "__post_init__", post)
        assert len(made) <= MADE[pool][axiom], axiom
