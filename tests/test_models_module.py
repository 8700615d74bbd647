import pytest

from diffkit.errors import NotAdditive
from diffkit.kernel import (
    check_axiom,
    compose,
    is_epsilon_linear,
    is_linear,
    projection,
    zero_map,
)
from diffkit.models import get_model
from diffkit.morphisms import EqualityStrategy, Exhaustive, Morphism, morphisms_equal
from diffkit.spaces import BoundedInt, CyclicGroup, Product, parse_space

Z = BoundedInt(-100, 100)
Z5 = CyclicGroup(5)
EX = EqualityStrategy(Exhaustive())
mm = get_model("module:r=2")


def test_derivative_drops_base_point():
    tri = mm.primitive("triple", Z)
    assert mm.derivative(tri)((5, 4)) == 12


def test_epsilon_scales():
    tri = mm.primitive("triple", Z)
    assert mm.epsilon(tri)(2) == 12  # 2 * 3 * 2
    r0 = get_model("module:r=0")
    assert morphisms_equal(r0.epsilon(tri), zero_map(Z, Z),
                           EqualityStrategy()).passed


def test_rejects_nonadditive_maps():
    sq = Morphism(Z5, Z5, lambda x: (x * x) % 5, name="sq")
    with pytest.raises(NotAdditive):
        mm.derivative(sq)


def test_every_subject_is_linear_and_eps_linear():
    for f in mm.random_subjects(Z5, 8, seed=3):
        assert is_linear(mm, f, EX)[0]
        assert is_epsilon_linear(mm, f, EX)
    for f in mm.random_subjects(Product(Z5, Z5), 3, seed=4):
        assert is_linear(mm, f, EX)[0]


def test_derivative_closed_under_iteration():
    f = mm.random_subjects(Z5, 1, seed=5)[0]
    d2 = mm.derivative(mm.derivative(f))
    # d[d[f]] = f . pi1 . pi1 pointwise
    p1 = projection(1, Product(Z5, Z5), Product(Z5, Z5))
    want = compose(mm.derivative(f), p1)
    assert morphisms_equal(d2, want, EX).passed


@pytest.mark.parametrize("axiom", ["CdC0", "CdC2", "CdC5", "CdC6", "CdC7a",
                                   "E1", "E2", "E3", "Eq1-strong",
                                   "CDC2-additivity", "Linearity", "EpsLinearity"])
def test_module_axioms(axiom):
    subs = mm.random_subjects(Z5, 2, seed=6)
    rep = check_axiom(mm, axiom, subs, EqualityStrategy())
    assert rep.passed, (axiom, rep.counterexample)


def test_scalar_parameter_is_visible():
    assert get_model("module:r=7").r == 7
    assert mm.tag == "module:r=2"


@pytest.mark.parametrize("text", ["(Z4 x Z6)", "(Z2 x Z4)", "(Z3 x Int[-5,5])"])
def test_random_subjects_are_additive_across_mixed_moduli(text):
    space = parse_space(text)
    for seed in range(20):
        for f in mm.random_subjects(space, 3, seed):
            mm.require_additive(f)
