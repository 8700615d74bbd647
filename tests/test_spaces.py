import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffkit.errors import NotEnumerable, SizeExceeded
from diffkit.spaces import (
    CAYLEY_LIMIT,
    BoundedInt,
    CyclicGroup,
    FunctionSpace,
    Product,
    Real,
    StreamPrefix,
    TERMINAL,
    add_elem,
    codec_size,
    decode,
    encode,
    enumerate_space,
    format_space,
    neg_elem,
    parse_space,
    sample_space,
    scale_elem,
    space_size,
    splice0_elem,
    sub_elem,
    truncate_elem,
    v_add,
    v_neg,
    v_scale,
    v_sub,
    zero_elem,
)

Z3 = CyclicGroup(3)
Z2 = CyclicGroup(2)


def test_enumerate_cyclic_canonical_order():
    assert enumerate_space(Z3) == [0, 1, 2]


def test_enumerate_product_size():
    elems = enumerate_space(Product(Z2, Z2))
    assert len(elems) == 4
    assert len(set(elems)) == 4


def test_enumerate_terminal():
    assert enumerate_space(TERMINAL) == [()]


def test_enumerate_real_raises():
    with pytest.raises(NotEnumerable):
        enumerate_space(Real(2))


def test_enumerate_bound_exceeded():
    with pytest.raises(SizeExceeded):
        enumerate_space(CyclicGroup(7), bound=5)


@pytest.mark.parametrize("space", [
    Z3,
    Product(Z2, Z3),
    StreamPrefix(Z2, 3),
    FunctionSpace(Z2, Z3),
    Product(TERMINAL, Z2),
])
def test_enumeration_is_a_bijection(space):
    elems = enumerate_space(space)
    assert len(elems) == space_size(space)
    assert len(set(elems)) == len(elems)
    # codec order and enumeration order agree
    for i, x in enumerate(elems):
        assert encode(space, x) == i
        assert decode(space, i) == x


def test_bounded_int_enumerates_window():
    assert enumerate_space(BoundedInt(-2, 2)) == [-2, -1, 0, 1, 2]
    assert codec_size(BoundedInt(-2, 2)) is None  # carrier is all of Z


def test_sampling_is_deterministic():
    s = StreamPrefix(BoundedInt(-100, 100), 4)
    assert sample_space(s, 5, 42) == sample_space(s, 5, 42)
    assert sample_space(s, 5, 42) != sample_space(s, 5, 43)


def test_sampling_ranges():
    for v in sample_space(BoundedInt(-100, 100), 32, 7):
        assert -100 <= v <= 100
    for v in sample_space(Real(2), 8, 7):
        assert len(v) == 2
        assert all(-10 <= c <= 10 for c in v)


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=10**6))
def test_group_laws_on_product_stream(seed):
    space = Product(Z3, StreamPrefix(Z2, 2))
    a, b, c = sample_space(space, 3, seed)
    assert add_elem(space, a, b) == add_elem(space, b, a)
    assert add_elem(space, add_elem(space, a, b), c) == add_elem(
        space, a, add_elem(space, b, c)
    )
    assert add_elem(space, a, zero_elem(space)) == a
    assert add_elem(space, a, neg_elem(space, a)) == zero_elem(space)


def test_group_laws_exhaustive_small():
    # spot exhaustive check on spaces of size <= 11
    for space in [CyclicGroup(11), Product(Z2, Z3)]:
        elems = enumerate_space(space)
        for a in elems:
            for b in elems:
                assert add_elem(space, a, b) == add_elem(space, b, a)


def test_truncation_and_splice():
    s = StreamPrefix(BoundedInt(-100, 100), 3)
    assert truncate_elem(s, (1, 2, 3)) == (0, 2, 3)
    assert truncate_elem(s, truncate_elem(s, (1, 2, 3))) == (0, 2, 3)
    assert truncate_elem(s, (0, 0, 0)) == (0, 0, 0)
    assert splice0_elem(s, (9, 9, 9), (1, 2, 3)) == (9, 2, 3)


@pytest.mark.parametrize("text", [
    "Z7",
    "Int[-100,100]",
    "R^2",
    "Stream(Z3,8)",
    "(Z5 x Z5)",
    "1",
    "(Stream(Int[-3,3],2) x R^1)",
])
def test_space_syntax_round_trip(text):
    assert format_space(parse_space(text)) == text


def test_space_syntax_rejects_garbage():
    with pytest.raises(ValueError):
        parse_space("Z7 x")
    with pytest.raises(ValueError):
        parse_space("Q^2")


# Codec spaces on both sides of CAYLEY_LIMIT; (Z2 x (Z3 x Z5)) has distinct
# radices, so a digit order mixed up anywhere shows there.
_TABLED = ["Z1", "Z7", "(Z5 x Z5)", "((Z5 x Z5) x (Z5 x Z5))", "(1 x Z4)",
           "Stream(Z3,4)", "(Z2 x (Z3 x Z5))"]
_OVER_LIMIT = ["Stream(Z3,8)", "(Stream(Z3,4) x Stream(Z3,4))"]
_CODEC_SPACES = [parse_space(t) for t in _TABLED + _OVER_LIMIT] + [FunctionSpace(Z2, Z3)]


def test_cayley_limit_splits_the_differential_spaces():
    assert all(codec_size(parse_space(t)) ** 2 <= CAYLEY_LIMIT for t in _TABLED)
    assert all(codec_size(parse_space(t)) ** 2 > CAYLEY_LIMIT for t in _OVER_LIMIT)


@pytest.mark.parametrize("space", _CODEC_SPACES, ids=format_space)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_code_arithmetic_matches_element_algebra(space, data):
    n = codec_size(space)
    i = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=16))
    j = data.draw(st.lists(st.integers(0, n - 1), min_size=len(i), max_size=len(i)))
    xs = [decode(space, c) for c in i]
    ys = [decode(space, c) for c in j]
    ci, cj = np.array(i, dtype=np.int64), np.array(j, dtype=np.int64)

    def codes(op, *args):
        return [encode(space, op(space, *a)) for a in zip(*args)]

    assert v_add(space, ci, cj).tolist() == codes(add_elem, xs, ys)
    assert v_sub(space, ci, cj).tolist() == codes(sub_elem, xs, ys)
    assert v_neg(space, ci).tolist() == codes(neg_elem, xs)
    for r in (-2, 0, 1, 3):
        assert v_scale(space, r, ci).tolist() == codes(scale_elem, [r] * len(xs), xs)
