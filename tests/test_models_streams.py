import pytest

from diffkit.errors import NotCausal
from diffkit.kernel import check_axiom, identity, is_linear, projection
from diffkit.models import (
    causality_check,
    get_model,
    simple_stream_derivative,
    stream_linear_check,
    truncation,
)
from diffkit.morphisms import EqualityStrategy, Morphism, Sampled, morphisms_equal
from diffkit.spaces import BoundedInt, CyclicGroup, StreamPrefix, parse_space, zero_elem

ZB = BoundedInt(-100, 100)
S3 = StreamPrefix(ZB, 3)
ST = EqualityStrategy(Sampled(64, 3))
st4 = get_model("streams:k=4")
st8 = get_model("streams:k=8")
SZ8 = StreamPrefix(CyclicGroup(3), 8)


@pytest.mark.parametrize("text, legal", [
    ("Stream(Z3,4)", True),
    ("Stream(Int[-3,3],4)", True),
    ("(Stream(Z3,2) x Stream(Z3,2))", True),
    ("Stream((Z3 x Z3),3)", False),
    ("Stream(Stream(Z3,2),2)", False),
    ("(Stream(Z3,2) x Z3)", False),
])
def test_legal_spaces_have_scalar_stream_bases(text, legal):
    assert st4.legal_space(parse_space(text)) == legal


def test_truncation_values():
    z = truncation(S3)
    assert z((1, 2, 3)) == (0, 2, 3)
    assert z(z((1, 2, 3))) == z((1, 2, 3))
    assert z((0, 0, 0)) == (0, 0, 0)


def test_derivative_of_identity_is_projection():
    d = st4.derivative(identity(S3))
    assert morphisms_equal(d, projection(1, S3, S3), ST).passed


def test_induced_action_indexwise():
    op = st4.oplus_map(S3)
    assert op(((1, 2, 3), (10, 20, 30))) == (1, 22, 33)


def test_pointwise_square_derivative_value():
    s2 = StreamPrefix(ZB, 2)
    psq = st4.primitive("psq", s2)
    d = st4.derivative(psq)
    assert d(((1, 1), (1, 1))) == (3, 3)


def test_causality_judgments():
    assert causality_check(st4.primitive("psq", S3), ST)
    assert causality_check(truncation(S3), ST)
    shift_left = Morphism(
        S3, S3, lambda a: tuple(a[1:]) + (zero_elem(ZB),), name="shift"
    )
    assert not causality_check(shift_left, ST)


def test_noncausal_primitive_rejected_at_registration():
    model = get_model("streams:k=4")
    model.register_primitive(
        "shift", lambda s: Morphism(s, s, lambda a: tuple(a[1:]) + (0,))
    )
    with pytest.raises(NotCausal):
        model.primitive("shift", S3)
    model._primitives.pop("shift")


def test_simple_operator_fails_cdc3_at_index_zero():
    # the one-branch operator truncates the identity's derivative
    bad = simple_stream_derivative(identity(S3))
    rep = morphisms_equal(bad, projection(1, S3, S3), ST)
    assert not rep.passed
    b = rep.counterexample["input"][1]
    assert rep.counterexample["lhs"] == [0] + b[1:]  # z(b) vs b


@pytest.mark.parametrize("axiom", [
    "CdC0", "CdC1", "CdC2", "CdC3", "CdC4", "CdC5", "CdC6", "CdC7",
    "CdC6a", "CdC7a", "E1", "E2", "E3", "DEps-i", "Eq1-strong",
])
def test_stream_axioms_on_cyclic_base(axiom):
    subs = st8.random_subjects(SZ8, 2, seed=7)
    rep = check_axiom(st8, axiom, subs, ST)
    assert rep.passed, (axiom, rep.counterexample)


def test_nonadditive_head_breaks_regularity():
    # Boundary fixture: the two-branch operator only satisfies the
    # second-argument regularity law when the subject's head behaviour
    # is additive. A pointwise square has head x0^2, and truncation
    # erases the perturbation's head from the base point:
    #   df(x, y+z)[0] = (y0+z0)^2 - x0^2 at x0 = 0
    #   df(x, y)[0] + df(x+z(y), z)[0] = y0^2 + z0^2
    s2 = StreamPrefix(ZB, 2)
    psq = st4.primitive("psq", s2)
    d = st4.derivative(psq)
    x, y, z = (0, 0), (1, 0), (1, 0)
    lhs = d((x, (2, 0)))[0]
    rhs = d((x, y))[0] + d(((0, 0), z))[0]
    assert lhs == 4 and rhs == 2
    rep = check_axiom(st4, "CdC2", [psq], ST)
    assert not rep.passed


def test_stream_linear_characterization():
    pool = [
        identity(SZ8),
        st8.primitive("pdbl", SZ8),
        st8.primitive("psq", SZ8),
        st8.primitive("psum", SZ8),
        st8.primitive("delay", SZ8),
        truncation(SZ8),
    ] + st8.random_subjects(SZ8, 6, seed=11)
    for f in pool:
        rep = stream_linear_check(st8, f, ST)
        assert rep.passed, (f.name, rep.counterexample)
    assert is_linear(st8, st8.primitive("pdbl", SZ8), ST)[0]
    assert not is_linear(st8, st8.primitive("psq", SZ8), ST)[0]


def test_causality_of_all_registered_primitives():
    for name in st8.primitive_names():
        assert causality_check(st8.primitive(name, SZ8), ST), name


def test_pointwise_doubling_linear_exhaustively_on_short_prefixes():
    from diffkit.morphisms import Exhaustive

    s3 = StreamPrefix(CyclicGroup(3), 3)
    pdbl = st4.primitive("pdbl", s3)
    assert is_linear(st4, pdbl, EqualityStrategy(Exhaustive()))[0]


def test_derivative_is_causal():
    for f in st8.random_subjects(SZ8, 3, seed=21):
        assert causality_check(st8.derivative(f), ST)


def test_epsilon_is_truncated_output():
    psum = st4.primitive("psum", S3)
    e = st4.epsilon(psum)
    out = e((1, 2, 3))
    assert out == (0, 3, 6)
