import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffkit.errors import TermSyntaxError, TermTypeError
from diffkit.models import get_model
from diffkit.morphisms import Auto, EqualityStrategy, morphisms_equal
from diffkit.spaces import (
    BoundedInt,
    CyclicGroup,
    Product,
    Real,
    StreamPrefix,
    derive_seed,
    sample_space,
)
from diffkit.terms import (
    interpret,
    parse_term,
    print_term,
    random_term,
    symbolic_derive,
)

fd = get_model("findiff")
Z = BoundedInt(-100, 100)
Z7 = CyclicGroup(7)


def test_parse_and_types():
    tt = interpret(parse_term("(comp (prim sq) (prim inc))"), fd)
    assert tt.dom == Z and tt.cod == Z
    tt = interpret(parse_term("(d (prim sq))"), fd)
    assert tt.dom == Product(Z, Z)


def test_type_error_carries_path():
    with pytest.raises(TermTypeError):
        interpret(parse_term("(comp (prim sq) (pair id id))"), fd)
    with pytest.raises(TermTypeError):
        # composing through the terminal object cannot reach sq
        interpret(parse_term("(comp (prim sq) one)"), fd)


def test_a_space_that_contains_itself_is_a_type_error():
    # (add id (pair id id)) asks for A = A x A; unification must refuse it
    # rather than build an infinite space
    for text in ["(add id (pair id id))", "(add pi0 (pair pi0 pi1))"]:
        with pytest.raises(TermTypeError, match="itself as a factor"):
            interpret(parse_term(text), fd)


def test_syntax_errors_carry_position():
    with pytest.raises(TermSyntaxError) as ei:
        parse_term("(comp id")
    assert ei.value.position == 8
    with pytest.raises(TermSyntaxError):
        parse_term("(frob id id)")
    with pytest.raises(TermSyntaxError):
        parse_term("id id")


def test_interpret_examples():
    assert interpret(parse_term("(d id)"), fd, Z)((3, 5)) == 5
    assert interpret(parse_term("(d (prim sq))"), fd)((3, 2)) == 16
    z = interpret(parse_term("(add zero zero)"), fd, Z7)
    assert all(z(x) == 0 for x in range(7))
    assert interpret(parse_term("one"), fd, Z7)(3) == ()


def test_rewrite_shapes():
    assert print_term(symbolic_derive(parse_term("(comp (prim g) (prim f))"))) == (
        "(comp (d (prim g)) (pair (comp (prim f) pi0) (d (prim f))))"
    )
    assert print_term(symbolic_derive(parse_term("(pair (prim f) (prim g))"))) == (
        "(pair (d (prim f)) (d (prim g)))"
    )
    assert print_term(symbolic_derive(parse_term("id"))) == "pi1"
    assert print_term(symbolic_derive(parse_term("pi0"))) == "(comp pi0 pi1)"
    assert print_term(symbolic_derive(parse_term("(eps (prim f))"))) == (
        "(eps (d (prim f)))"
    )
    assert print_term(symbolic_derive(parse_term("(add (prim f) zero)"))) == (
        "(add (d (prim f)) zero)"
    )


def test_derivative_nodes_only_over_primitive_towers():
    def residual_ok(t, text=None):
        text = print_term(t)
        # every "(d " is followed only by d/prim nesting
        i = 0
        while True:
            i = text.find("(d ", i)
            if i < 0:
                return True
            j = i + 3
            while text.startswith("(d ", j):
                j += 3
            if not text.startswith("(prim ", j):
                return False
            i += 3

    for i in range(30):
        t = random_term(fd, Z7, depth=4, seed=derive_seed(9, i))
        assert residual_ok(symbolic_derive(t)), print_term(symbolic_derive(t))


def test_second_order_derive_satisfies_corner_identity():
    # d2[f]((x,0),(0,y)) = d[f](x,y) at sampled points, via order-2 rewriting
    from diffkit.spaces import elements_equal, zero_elem

    cases = [
        ("findiff", Z7, "sq"),
        ("smooth", Real(1), "sq"),
        ("module:r=2", CyclicGroup(5), "dbl"),
        ("streams:k=4", StreamPrefix(CyclicGroup(3), 4), "psq"),
    ]
    for tag, sp, name in cases:
        model = get_model(tag)
        t = parse_term(f"(prim {name})")
        d1 = interpret(symbolic_derive(t), model, dom=Product(sp, sp), space=sp)
        d2 = interpret(symbolic_derive(t, order=2), model,
                       dom=Product(Product(sp, sp), Product(sp, sp)), space=sp)
        for x, y in zip(sample_space(sp, 16, 3), sample_space(sp, 16, 4)):
            z = zero_elem(sp)
            assert elements_equal(sp, d2(((x, z), (z, y))), d1((x, y)),
                                  1e-7, 1e-5), (tag, x, y)


@pytest.mark.parametrize("tag,space,cap", [
    ("findiff", Z7, None),
    ("smooth", Real(1), 1e6),
    ("module:r=2", CyclicGroup(5), None),
    ("streams:k=4", StreamPrefix(CyclicGroup(3), 4), None),
])
def test_rewriter_oracle(tag, space, cap):
    model = get_model(tag)
    strat = EqualityStrategy(Auto(32, 5))
    for i in range(40):
        t = random_term(model, space, depth=4, seed=derive_seed(77, tag, i),
                        value_cap=cap)
        direct = model.derivative(interpret(t, model, space))
        rewritten = interpret(symbolic_derive(t), model,
                              dom=Product(space, space), space=space)
        rep = morphisms_equal(rewritten, direct, strat)
        assert rep.passed, (print_term(t), rep.counterexample)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_parse_print_round_trip_on_random_terms(seed):
    t = random_term(fd, Z7, depth=4, seed=seed)
    assert parse_term(print_term(t)) == t


def test_capped_random_terms_on_a_product_space():
    # a term may be typed on another domain than the space, such as
    # (S x S) -> (S x S); its probes are drawn on its own domain
    sm, space = get_model("smooth"), Product(Real(1), Real(2))
    for seed in range(12):
        t = random_term(sm, space, 3, seed, value_cap=1e3)
        assert parse_term(print_term(t)) == t
