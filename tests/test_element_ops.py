"""The element operations built once per space agree with the recursive
definitions they replaced.

The reference functions below are the earlier `spaces` definitions,
copied verbatim (renamed `ref_*`): one `isinstance` ladder per
operation, recursing through the space on every call. Results are
compared by `repr`, so float signs, NaN and the Python type of every
component must match too.
"""

import functools
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffkit.errors import NotEnumerable, TypeMismatch
from diffkit.spaces import (
    REAL_SAMPLE_HI,
    REAL_SAMPLE_LO,
    BoundedInt,
    CyclicGroup,
    FunctionSpace,
    Product,
    Real,
    StreamPrefix,
    Terminal,
    add_elem,
    codec_size,
    decode,
    derive_seed,
    elements_equal,
    encode,
    flatten,
    format_space,
    iter_space,
    leafwise,
    leaves,
    neg_elem,
    parse_space,
    sample_space,
    scale_elem,
    space_size,
    splice0_elem,
    splice_at,
    sub_elem,
    truncate_elem,
    unflatten,
    v_splice0,
    v_trunc,
    zero_elem,
)

SPACES = ["Z1", "Z7", "Int[-5,5]", "R^2", "1", "(Z5 x Int[-3,3])",
          "Stream(Int[-3,3],3)", "[Z2=>Z3]", "((R^1 x Z4) x Stream(Z3,2))"]


def _function_space(text):
    # the space parser has no syntax for function spaces
    if text == "[Z2=>Z3]":
        return FunctionSpace(CyclicGroup(2), CyclicGroup(3))
    return parse_space(text)


# ---------------------------------------------------------------------------
# reference: the recursive definitions, verbatim


def ref_zero_elem(space):
    if isinstance(space, CyclicGroup) or isinstance(space, BoundedInt):
        return 0
    if isinstance(space, Real):
        return (0.0,) * space.dim
    if isinstance(space, StreamPrefix):
        return (ref_zero_elem(space.base),) * space.length
    if isinstance(space, Product):
        return (ref_zero_elem(space.left), ref_zero_elem(space.right))
    if isinstance(space, Terminal):
        return ()
    if isinstance(space, FunctionSpace):
        return (ref_zero_elem(space.res),) * space_size(space.arg)
    raise TypeMismatch(f"unknown space {space!r}")


def ref_add_elem(space, a, b):
    if isinstance(space, CyclicGroup):
        return (a + b) % space.n
    if isinstance(space, BoundedInt):
        return a + b
    if isinstance(space, Real):
        return tuple(x + y for x, y in zip(a, b))
    if isinstance(space, (StreamPrefix, FunctionSpace)):
        base = space.base if isinstance(space, StreamPrefix) else space.res
        return tuple(ref_add_elem(base, x, y) for x, y in zip(a, b))
    if isinstance(space, Product):
        return (ref_add_elem(space.left, a[0], b[0]), ref_add_elem(space.right, a[1], b[1]))
    if isinstance(space, Terminal):
        return ()
    raise TypeMismatch(f"unknown space {space!r}")


def ref_neg_elem(space, a):
    if isinstance(space, CyclicGroup):
        return (-a) % space.n
    if isinstance(space, BoundedInt):
        return -a
    if isinstance(space, Real):
        return tuple(-x for x in a)
    if isinstance(space, (StreamPrefix, FunctionSpace)):
        base = space.base if isinstance(space, StreamPrefix) else space.res
        return tuple(ref_neg_elem(base, x) for x in a)
    if isinstance(space, Product):
        return (ref_neg_elem(space.left, a[0]), ref_neg_elem(space.right, a[1]))
    if isinstance(space, Terminal):
        return ()
    raise TypeMismatch(f"unknown space {space!r}")


def ref_sub_elem(space, a, b):
    return ref_add_elem(space, a, ref_neg_elem(space, b))


def ref_scale_elem(space, r, a):
    """r-fold scalar action; integer r on discrete spaces, any real on Real."""
    if isinstance(space, CyclicGroup):
        return (r * a) % space.n
    if isinstance(space, BoundedInt):
        return r * a
    if isinstance(space, Real):
        return tuple(r * x for x in a)
    if isinstance(space, (StreamPrefix, FunctionSpace)):
        base = space.base if isinstance(space, StreamPrefix) else space.res
        return tuple(ref_scale_elem(base, r, x) for x in a)
    if isinstance(space, Product):
        return (ref_scale_elem(space.left, r, a[0]), ref_scale_elem(space.right, r, a[1]))
    if isinstance(space, Terminal):
        return ()
    raise TypeMismatch(f"unknown space {space!r}")


def _real_close(x, y, abs_tol, rel_tol):
    xf, yf = float(x), float(y)
    if not (math.isfinite(xf) and math.isfinite(yf)):
        # both sides of a law evaluate the same function; identical overflow
        # (inf = inf, nan = nan) carries no information and is not a violation
        return repr(xf) == repr(yf)
    return abs(xf - yf) <= abs_tol + rel_tol * max(abs(xf), abs(yf))


def ref_elements_equal(space, a, b, abs_tol=0.0, rel_tol=0.0):
    """Exact comparison everywhere except Real leaves, which use tolerances."""
    if isinstance(space, Real):
        return all(_real_close(x, y, abs_tol, rel_tol) for x, y in zip(a, b))
    if isinstance(space, (CyclicGroup, BoundedInt)):
        return a == b
    if isinstance(space, Terminal):
        return True
    if isinstance(space, (StreamPrefix, FunctionSpace)):
        base = space.base if isinstance(space, StreamPrefix) else space.res
        return all(ref_elements_equal(base, x, y, abs_tol, rel_tol) for x, y in zip(a, b))
    if isinstance(space, Product):
        return ref_elements_equal(space.left, a[0], b[0], abs_tol, rel_tol) and ref_elements_equal(
            space.right, a[1], b[1], abs_tol, rel_tol
        )
    raise TypeMismatch(f"unknown space {space!r}")


def ref_encode(space, a):
    """Mixed-radix index of an element of a codec space."""
    if isinstance(space, CyclicGroup):
        return a % space.n
    if isinstance(space, Terminal):
        return 0
    if isinstance(space, Product):
        return ref_encode(space.left, a[0]) * codec_size(space.right) + ref_encode(space.right, a[1])
    if isinstance(space, StreamPrefix):
        b = codec_size(space.base)
        i = 0
        for x in a:
            i = i * b + ref_encode(space.base, x)
        return i
    if isinstance(space, FunctionSpace):
        r = codec_size(space.res)
        i = 0
        for x in a:
            i = i * r + ref_encode(space.res, x)
        return i
    raise NotEnumerable(f"no integer codec for {space!r}")


def ref_decode(space, i):
    if isinstance(space, CyclicGroup):
        return i % space.n
    if isinstance(space, Terminal):
        return ()
    if isinstance(space, Product):
        r = codec_size(space.right)
        return (ref_decode(space.left, i // r), ref_decode(space.right, i % r))
    if isinstance(space, StreamPrefix):
        b = codec_size(space.base)
        out = []
        for _ in range(space.length):
            out.append(ref_decode(space.base, i % b))
            i //= b
        return tuple(reversed(out))
    if isinstance(space, FunctionSpace):
        r = codec_size(space.res)
        n = space_size(space.arg)
        out = []
        for _ in range(n):
            out.append(ref_decode(space.res, i % r))
            i //= r
        return tuple(reversed(out))
    raise NotEnumerable(f"no integer codec for {space!r}")


def ref_codec_size(space):
    """Carrier size for spaces closed under the group ops; None otherwise.

    BoundedInt and Real are excluded: their carriers are infinite even
    though BoundedInt has a finite enumeration window.
    """
    if isinstance(space, CyclicGroup):
        return space.n
    if isinstance(space, Terminal):
        return 1
    if isinstance(space, Product):
        l, r = ref_codec_size(space.left), ref_codec_size(space.right)  # noqa: E741
        return None if l is None or r is None else l * r
    if isinstance(space, StreamPrefix):
        b = ref_codec_size(space.base)
        return None if b is None else b**space.length
    if isinstance(space, FunctionSpace):
        a, r = ref_codec_size(space.arg), ref_codec_size(space.res)
        return None if a is None or r is None else r**a
    return None


def ref_space_size(space):
    """Enumeration size (BoundedInt uses its window); None if not enumerable."""
    if isinstance(space, BoundedInt):
        return space.hi - space.lo + 1
    if isinstance(space, Real):
        return None
    if isinstance(space, Product):
        l, r = ref_space_size(space.left), ref_space_size(space.right)  # noqa: E741
        return None if l is None or r is None else l * r
    if isinstance(space, StreamPrefix):
        b = ref_space_size(space.base)
        return None if b is None else b**space.length
    if isinstance(space, FunctionSpace):
        a, r = ref_space_size(space.arg), ref_space_size(space.res)
        return None if a is None or r is None else r**a
    return ref_codec_size(space)


def ref_iter_space(space):
    """Every element exactly once, deterministic order (codec order where one exists)."""
    if isinstance(space, Real):
        raise NotEnumerable(f"{format_space(space)} is not enumerable")
    if isinstance(space, BoundedInt):
        return iter(range(space.lo, space.hi + 1))
    if isinstance(space, Product):
        return (
            (l, r) for l in list(ref_iter_space(space.left)) for r in ref_iter_space(space.right)
        )
    if isinstance(space, StreamPrefix):
        return (
            t for t in itertools.product(list(ref_iter_space(space.base)), repeat=space.length)
        )
    if isinstance(space, FunctionSpace):
        n = space_size(space.arg)
        return (t for t in itertools.product(list(ref_iter_space(space.res)), repeat=n))
    if isinstance(space, CyclicGroup):
        return iter(range(space.n))
    if isinstance(space, Terminal):
        return iter([()])
    raise TypeMismatch(f"unknown space {space!r}")


def ref_draw(space, rng):
    if isinstance(space, CyclicGroup):
        return rng.randrange(space.n)
    if isinstance(space, BoundedInt):
        return rng.randint(space.lo, space.hi)
    if isinstance(space, Real):
        return tuple(rng.uniform(REAL_SAMPLE_LO, REAL_SAMPLE_HI) for _ in range(space.dim))
    if isinstance(space, StreamPrefix):
        return tuple(ref_draw(space.base, rng) for _ in range(space.length))
    if isinstance(space, Product):
        l = ref_draw(space.left, rng)  # noqa: E741
        return (l, ref_draw(space.right, rng))
    if isinstance(space, Terminal):
        return ()
    if isinstance(space, FunctionSpace):
        return tuple(ref_draw(space.res, rng) for _ in range(space_size(space.arg)))
    raise TypeMismatch(f"unknown space {space!r}")


def ref_sample_space(space, count, seed):
    rng = random.Random(derive_seed(seed, "sample", format_space(space)))
    return [ref_draw(space, rng) for _ in range(count)]


def ref_truncate_elem(space, a):
    """Stream truncation z: zero index 0 of every stream leaf, keep the rest."""
    if isinstance(space, StreamPrefix):
        return (zero_elem(space.base),) + tuple(a[1:])
    if isinstance(space, Product):
        return (ref_truncate_elem(space.left, a[0]), ref_truncate_elem(space.right, a[1]))
    if isinstance(space, Terminal):
        return ()
    raise TypeMismatch(f"truncation needs a stream-shaped space, got {space!r}")


def ref_splice0_elem(space, a, b):
    """Index 0 of every stream leaf from `a`, indices >= 1 from `b`."""
    if isinstance(space, StreamPrefix):
        return (a[0],) + tuple(b[1:])
    if isinstance(space, Product):
        return (
            ref_splice0_elem(space.left, a[0], b[0]),
            ref_splice0_elem(space.right, a[1], b[1]),
        )
    if isinstance(space, Terminal):
        return ()
    raise TypeMismatch(f"splice needs a stream-shaped space, got {space!r}")


def ref_v_trunc(space, i):
    """Index transform of stream truncation (zero the index-0 digit)."""
    if isinstance(space, StreamPrefix):
        s = codec_size(space.base) ** (space.length - 1)
        return i % s
    if isinstance(space, Product):
        r = codec_size(space.right)
        return ref_v_trunc(space.left, i // r) * r + ref_v_trunc(space.right, i % r)
    if isinstance(space, Terminal):
        return np.zeros_like(i)
    raise TypeMismatch(f"truncation needs a stream-shaped space, got {space!r}")


def ref_v_splice0(space, i0, i1):
    """Index transform of splice: index-0 digit from i0, the rest from i1."""
    if isinstance(space, StreamPrefix):
        s = codec_size(space.base) ** (space.length - 1)
        return (i0 // s) * s + i1 % s
    if isinstance(space, Product):
        r = codec_size(space.right)
        return ref_v_splice0(space.left, i0 // r, i1 // r) * r + ref_v_splice0(
            space.right, i0 % r, i1 % r
        )
    if isinstance(space, Terminal):
        return np.zeros_like(i0)
    raise TypeMismatch(f"splice needs a stream-shaped space, got {space!r}")


def ref_head(p, space, x):
    """Indices < p of a stream leaf."""
    return tuple(x[:p]) if isinstance(space, StreamPrefix) else ()


def ref_overwrite_tail(p, space, x, y):
    """Keep x on indices < p, take y from index p on."""
    return tuple(x[:p]) + tuple(y[p:]) if isinstance(space, StreamPrefix) else ()


# ---------------------------------------------------------------------------
# elements: any member of the carrier, not only the sampling window

_FLOATS = st.floats(allow_nan=True, allow_infinity=True)


def elements(space):
    if isinstance(space, CyclicGroup):
        return st.integers(0, space.n - 1)
    if isinstance(space, BoundedInt):
        return st.integers(-10**20, 10**20)
    if isinstance(space, Real):
        return st.tuples(*[_FLOATS] * space.dim)
    if isinstance(space, StreamPrefix):
        return st.tuples(*[elements(space.base)] * space.length)
    if isinstance(space, FunctionSpace):
        return st.tuples(*[elements(space.res)] * space_size(space.arg))
    if isinstance(space, Product):
        return st.tuples(elements(space.left), elements(space.right))
    return st.just(())


SCALARS = st.one_of(st.integers(-4, 4), st.floats(-8, 8))
TOLERANCES = st.sampled_from([(0.0, 0.0), (1e-9, 1e-6), (1e-3, 0.0)])


@pytest.mark.parametrize("text", SPACES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_built_ops_match_the_recursive_definitions(text, data):
    space = _function_space(text)
    a = data.draw(elements(space), label="a")
    b = data.draw(elements(space), label="b")
    r = data.draw(SCALARS, label="r")
    tol = data.draw(TOLERANCES, label="tol")
    assert repr(zero_elem(space)) == repr(ref_zero_elem(space))
    assert repr(add_elem(space, a, b)) == repr(ref_add_elem(space, a, b))
    assert repr(neg_elem(space, a)) == repr(ref_neg_elem(space, a))
    assert repr(sub_elem(space, a, b)) == repr(ref_sub_elem(space, a, b))
    assert repr(scale_elem(space, r, a)) == repr(ref_scale_elem(space, r, a))
    roundtrip = ref_sub_elem(space, ref_add_elem(space, a, b), b)
    for x, y in [(a, b), (a, a), (a, roundtrip), (b, ref_zero_elem(space))]:
        assert elements_equal(space, x, y, *tol) == ref_elements_equal(space, x, y, *tol)
    assert elements_equal(space, a, b) == ref_elements_equal(space, a, b)
    if codec_size(space) is not None:
        assert encode(space, a) == ref_encode(space, a)
        i = data.draw(st.integers(0, codec_size(space) - 1), label="code")
        assert repr(decode(space, i)) == repr(ref_decode(space, i))


@pytest.mark.parametrize("text", SPACES)
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), count=st.integers(1, 40))
def test_sampling_draws_the_same_points(text, seed, count):
    space = _function_space(text)
    assert repr(sample_space(space, count, seed)) == repr(ref_sample_space(space, count, seed))


@pytest.mark.parametrize("text", SPACES)
def test_enumeration_order_is_unchanged(text):
    space = _function_space(text)
    assert space_size(space) == ref_space_size(space)
    assert codec_size(space) == ref_codec_size(space)
    if space_size(space) is None:
        with pytest.raises(NotEnumerable):
            list(iter_space(space))
        with pytest.raises(NotEnumerable):
            list(ref_iter_space(space))
    else:
        assert list(iter_space(space)) == list(ref_iter_space(space))


def _width(space):
    """Coordinates of one element: a stream or function leaf has those of
    each of its positions."""
    total = 0
    for s in leaves(space):
        if isinstance(s, StreamPrefix):
            total += s.length * _width(s.base)
        elif isinstance(s, FunctionSpace):
            total += space_size(s.arg) * _width(s.res)
        else:
            total += getattr(s, "dim", 1)
    return total


@pytest.mark.parametrize("text", SPACES)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_flatten_walks_the_scalar_leaves_in_order(text, data):
    space = _function_space(text)
    a = data.draw(elements(space))
    coords = flatten(space, a)
    assert len(coords) == _width(space)
    assert repr(unflatten(space, coords)) == repr(a)


# ---------------------------------------------------------------------------
# prefix surgery: the splice and the head-digit walk against the ladders

PREFIX_SPACES = [t for t in SPACES if all(isinstance(s, StreamPrefix)
                                          for s in leaves(_function_space(t)))] + [
    "(Stream(Z3,2) x Stream(Int[-3,3],3))", "Stream((Z2 x Z3),3)",
    "(Stream(Z5,2) x (1 x Stream(Z3,3)))", "Stream(Stream(Z2,2),3)",
    "(Stream(Z3,4) x Stream(Z3,4))", "(Stream(Z2,3) x Stream(Z5,2))",
]
# spaces with a leaf that is not a stream: every prefix operation refuses them
NON_PREFIX_SPACES = ["Z7", "[Z2=>Z3]", "((R^1 x Z4) x Stream(Z3,2))", "(Stream(Z3,2) x Int[-3,3])"]


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except TypeMismatch as exc:
        return f"TypeMismatch: {exc}"


@pytest.mark.parametrize("text", PREFIX_SPACES + NON_PREFIX_SPACES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_splice_matches_the_ladders(text, data):
    space = _function_space(text)
    a = data.draw(elements(space), label="a")
    b = data.draw(elements(space), label="b")
    assert _outcome(truncate_elem, space, a) == _outcome(ref_truncate_elem, space, a)
    assert _outcome(splice0_elem, space, a, b) == _outcome(ref_splice0_elem, space, a, b)
    if text in NON_PREFIX_SPACES:
        return
    k = max((s.length for s in leaves(space)), default=0)
    p = data.draw(st.integers(0, k + 1), label="p")
    overwrite = functools.partial(ref_overwrite_tail, p)
    assert repr(splice_at(space, p, a, b)) == repr(leafwise(space, overwrite, a, b))
    # the causality check's prefix comparison: b shares a prefix with a
    q = data.draw(st.integers(0, k + 1), label="q")
    b = leafwise(space, functools.partial(ref_overwrite_tail, q), a, b)
    zero = zero_elem(space)
    head = functools.partial(ref_head, p)
    assert ((splice_at(space, p, a, zero) == splice_at(space, p, b, zero))
            == (leafwise(space, head, a) == leafwise(space, head, b)))


def _code_pairs(space):
    code = st.integers(0, codec_size(space) - 1)
    return st.lists(st.tuples(code, code), min_size=1, max_size=40).map(
        lambda xs: np.array(xs, dtype=np.int64).T)


@pytest.mark.parametrize("text", [t for t in PREFIX_SPACES + NON_PREFIX_SPACES
                                  if codec_size(_function_space(t)) is not None])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_head_digit_walk_matches_the_ladders(text, data):
    space = _function_space(text)
    i0, i1 = data.draw(_code_pairs(space), label="codes")
    assert _outcome(lambda i: v_trunc(space, i).tolist(), i0) == _outcome(
        lambda i: ref_v_trunc(space, i).tolist(), i0)
    assert _outcome(lambda i, j: v_splice0(space, i, j).tolist(), i0, i1) == _outcome(
        lambda i, j: ref_v_splice0(space, i, j).tolist(), i0, i1)
