import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffkit import spaces
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
    iter_space,
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
    v_splice0,
    v_sub,
    v_trunc,
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
# radices, so a digit order mixed up anywhere shows there. Past the limit the
# digits go in blocks: Stream(Z3,8) in 2 of 4 digits, with one Z3 more in 3
# of 3, (Stream(Z3,8) x Stream(Z3,8)) in 4, the 8 Z5 digits in 3 unequal
# ones, and the Z2000 digit of (Z2000 x Z3) has no table.
_TABLED = ["Z1", "Z7", "(Z5 x Z5)", "((Z5 x Z5) x (Z5 x Z5))", "(1 x Z4)",
           "Stream(Z3,4)", "(Z2 x (Z3 x Z5))"]
_OVER_LIMIT = ["Stream(Z3,8)", "(Stream(Z3,4) x Stream(Z3,4))", "(Stream(Z3,8) x Z3)",
               "(Stream(Z3,8) x Stream(Z3,8))",
               "((Z5 x Z5) x ((Z5 x Z5) x ((Z5 x Z5) x (Z5 x Z5))))", "(Z2000 x Z3)"]
_CODEC_SPACES = [parse_space(t) for t in _TABLED + _OVER_LIMIT] + [FunctionSpace(Z2, Z3)]


def test_cayley_limit_splits_the_differential_spaces():
    assert all(codec_size(parse_space(t)) ** 2 <= CAYLEY_LIMIT for t in _TABLED)
    assert all(codec_size(parse_space(t)) ** 2 > CAYLEY_LIMIT for t in _OVER_LIMIT)


def _digitwise_table(rads, op, r):
    """The reference Cayley table: every code pair split into its digits by
    division, the digits combined mod their radices, the codes put back."""
    codes = np.arange(math.prod(rads), dtype=np.int64)
    rest = [codes] if op == "scale" else [codes[:, None], codes[None, :]]
    out, stride = np.zeros(np.broadcast_shapes(*(c.shape for c in rest)), dtype=np.int64), 1
    for q in reversed(rads):
        digits = []
        for k, c in enumerate(rest):
            rest[k], d = np.divmod(c, q)
            digits.append(d)
        t = r * digits[0] if op == "scale" else {"add": np.add, "sub": np.subtract}[op](*digits)
        out += t % q * stride
        stride *= q
    return out


@pytest.mark.parametrize("rads", [(5, 5, 5, 5), (4, 6, 4, 6), (3,) * 6, (7, 7, 7), (11,)])
@pytest.mark.parametrize("op, r", [("add", 0), ("sub", 0), ("scale", -1), ("scale", 2),
                                   ("scale", 3)])
def test_cayley_tables_match_the_digitwise_reference(rads, op, r):
    table = spaces._table.__wrapped__(rads, op, r)
    assert table.dtype == np.int64 and not table.flags.writeable
    assert np.array_equal(table, _digitwise_table(rads, op, r))


def test_cayley_over_the_limit_allocates_nothing():
    # 3^16 codes: refusing the whole tables must not build the codes first
    # (344 MB); the tables of its blocks are all that is built
    space = parse_space("(Stream(Z3,8) x Stream(Z3,8))")
    tracemalloc.start()
    try:
        for op, binary in [("add", True), ("scale", False)]:
            blocks = spaces._blocks.__wrapped__(spaces.radices(space), binary)
            assert len(blocks) > 1 and all(tabled for _, tabled in blocks)
            for rads, _ in blocks:
                assert spaces._table.__wrapped__(rads, op, 2).size <= spaces.BLOCK_LIMIT
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert spaces._blocks(spaces.radices(parse_space("(Z2000 x Z3)")), True) == \
        (((3,), True), ((2000,), False))


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


@pytest.mark.parametrize("text", ["Stream(Z3,8)", "(Stream(Z3,2) x Stream(Z3,3))"])
def test_stream_splices_on_codes_match_the_closures(text):
    # `_digits` takes each digit's remainder as split_batch does, and none for
    # the leading digit of the codes
    space = parse_space(text)
    i = np.arange(codec_size(space))
    j = np.random.default_rng(5).permutation(i)
    elems = [decode(space, int(k)) for k in i]
    assert v_trunc(space, i).tolist() == [encode(space, truncate_elem(space, x)) for x in elems]
    assert v_splice0(space, i, j).tolist() == [
        encode(space, splice0_elem(space, x, elems[k])) for x, k in zip(elems, j)]


def _fourth_power(a):
    return Product(a, Product(a, Product(a, a)))


@pytest.mark.parametrize("text", ["(Z5 x Z5)", "(Z4 x Z6)"])
def test_split_batch_is_divmod(text):
    # split_batch takes the remainder as b - (b // n) * n, which is b % n on codes >= 0
    space = _fourth_power(parse_space(text))
    top = codec_size(space) - 1
    b = np.concatenate([np.random.default_rng(3).integers(0, top, 4096), [0, top]])
    while isinstance(space, Product):
        q, r = np.divmod(b, codec_size(space.right))
        assert np.array_equal(spaces.split_batch(space, b, 0), q)
        assert np.array_equal(spaces.split_batch(space, b, 1), r)
        space, b = space.right, r
    # _gather peels its blocks the same way: the largest code plus itself
    big = _fourth_power(parse_space(text))
    x = decode(big, top)
    assert v_add(big, np.array([top]), np.array([top])).tolist() == \
        [encode(big, add_elem(big, x, x))]


@pytest.mark.parametrize("space", _CODEC_SPACES + [FunctionSpace(BoundedInt(-1, 1), Z2)],
                         ids=format_space)
def test_codec_size_radices_and_codes_agree(space):
    # a code is the mixed-radix number of the element's coordinates, one
    # digit per Z<n> coordinate; a Terminal part adds no digit
    rads = spaces.radices(space)
    n = codec_size(space)
    assert n == math.prod(rads)
    for i in sorted({n // 3, n // 2, n - 1} | set(range(0, n, max(1, n // 50)))):
        x = decode(space, i)
        assert encode(space, x) == i
        digits = spaces.flatten(space, x) or [0]
        assert len(digits) == len(rads)
        assert sum(d * math.prod(rads[k + 1:]) for k, d in enumerate(digits)) == i


def test_built_ops_make_no_reference_cycle():
    # the operations a space lacks must not hold the space, or it is freed
    # by the cycle collector only; their error texts still name it
    with pytest.raises(NotEnumerable, match=r"no integer codec for BoundedInt\(lo=-5, hi=5\)"):
        encode(parse_space("Int[-5,5]"), 0)
    with pytest.raises(NotEnumerable, match=r"R\^2 is not enumerable"):
        iter_space(Real(2))
    gc.disable()
    try:
        for text in ["Int[-5,5]", "R^2", "Stream(Z3,4)"]:
            space = parse_space(text)
            assert space.ops
            ref = weakref.ref(space)
            del space
            assert ref() is None, text
        space = parse_space("(Int[-5,5] x Z7)")
        assert space.ops
        ref = weakref.ref(space.left)
        del space
        assert ref() is None
    finally:
        gc.enable()
