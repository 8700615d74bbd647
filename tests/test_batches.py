"""Batched comparisons against the per-point closure loop.

`morphisms_equal` compares the two sides of a law on batches of points:
codes where the stage has an int64 codec, coordinate arrays where it has
integer coordinates but no codec. The closure loop below is the reference
it must reproduce exactly: the verdict, `checked` (the index of the first
mismatch plus one, or the size of the test set) and the counterexample,
for the same points in the same order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffkit.kernel import BaseCat, add, axiom_sides, compose, identity, projection, zero_map
from diffkit.models import get_model
from diffkit.morphisms import (
    Auto,
    EqualityStrategy,
    Exhaustive,
    Morphism,
    Sampled,
    domain_codes,
    morphisms_equal,
    to_jsonable,
)
from diffkit.spaces import (
    batch_coords,
    coords_batch,
    elements_equal,
    flatten,
    iter_space,
    parse_space,
    sample_space,
    space_size,
    table_codec_size,
    unflatten,
    zero_elem,
)
from diffkit.terms import interpret, print_term, random_term


def closure_equal(f, g, strat):
    """The per-point loop: (passed, checked, counterexample). An exhaustive
    comparison between codec spaces compares whole tables, and so counts
    every point even when it refutes."""
    strat = strat.resolve(f.dom)
    if isinstance(strat.mode, Exhaustive):
        points = list(iter_space(f.dom))
    else:
        points = sample_space(f.dom, strat.mode.count, strat.mode.seed)
    whole = isinstance(strat.mode, Exhaustive) and table_codec_size(f.dom) is not None \
        and table_codec_size(f.cod) is not None
    checked = 0
    for x in points:
        checked += 1
        a, b = f(x), g(x)
        if not elements_equal(f.cod, a, b, strat.abs_tol, strat.rel_tol):
            return False, len(points) if whole else checked, {
                "input": to_jsonable(x), "lhs": to_jsonable(a), "rhs": to_jsonable(b)}
    return True, checked, None


def counted(m):
    """`m` with a closure that counts its calls in `m.calls`."""
    calls = []

    def fn(x):
        calls.append(x)
        return m.fn(x)

    out = Morphism(m.dom, m.cod, fn, name=m.name, table=m.table,
                   table_builder=m.table_builder)
    out.calls = calls
    return out


def assert_agrees(f, g, strat, batched=True):
    """The report equals the closure loop's; where both sides have a batch
    form, each side's closure runs at most once (at the counterexample)."""
    batched = batched and all(m.table is not None or m.table_builder is not None
                              for m in (f, g))
    f, g = counted(f), counted(g)
    rep = morphisms_equal(f, g, strat)
    if batched:
        assert len(f.calls) <= 1 and len(g.calls) <= 1
    assert (rep.passed, rep.checked, rep.counterexample) == closure_equal(f, g, strat)
    return rep


def spike(dom, cod, at):
    """A map that is nonzero at the element `at` of `dom` only, with a batch
    form: added to a side, it moves the first mismatch to `at`."""
    zero = zero_elem(cod)
    hit = unflatten(cod, [1] * len(flatten(cod, zero)))
    target = np.array(flatten(dom, at), dtype=np.int64)
    hit_row = np.array(flatten(cod, hit), dtype=np.int64)

    def build(idx=None):
        rows = (batch_coords(dom, domain_codes(dom, idx)) == target).all(axis=1)
        return coords_batch(cod, rows[:, None] * hit_row)

    return Morphism(dom, cod, lambda x: hit if x == at else zero, name="spike",
                    table_builder=build)


# (model, space) pairs; each stage built on them has batches but no closure
# fallback: Int windows, a product of Z3 and Int, a stream of Int, and
# Stream(Z3,4)^2, the CdC0 stage over Stream(Z3,4)
CASES = [
    ("findiff", "Int[-5,5]"),
    ("findiff", "(Z3 x Int[-4,4])"),
    ("module:r=3", "Int[-5,5]"),
    ("module:r=2", "(Z3 x Int[-4,4])"),
    ("streams:k=3", "Stream(Int[-3,3],3)"),
    ("streams:k=4", "Stream(Z3,4)"),
]
AXIOMS = ["CdC0", "CdC2", "CdC5", "CdC6a", "CDC2-additivity", "Linearity", "E2"]

strategies = st.one_of(
    st.builds(lambda: EqualityStrategy(Exhaustive(), bound=5_000)),
    st.builds(lambda c, s: EqualityStrategy(Sampled(c, s)),
              st.integers(1, 300), st.integers(0, 10**6)),
    st.builds(lambda c, s, b: EqualityStrategy(Auto(c, s), bound=b),
              st.integers(1, 300), st.integers(0, 10**6), st.integers(50, 5_000)),
)


def _exhaustive_fits(m, strat):
    n = space_size(m.dom)
    return not isinstance(strat.mode, Exhaustive) or (n is not None and n <= strat.bound)


@pytest.mark.parametrize("spec,text", CASES)
@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10**6), strat=strategies, axiom=st.sampled_from(AXIOMS))
def test_axiom_sides_agree_with_closures(spec, text, seed, strat, axiom):
    model, space = get_model(spec), parse_space(text)
    f, g = model.random_subjects(space, 2, seed)
    pairs = axiom_sides(BaseCat(model), model, axiom, [f, g])
    d = model.derivative
    x, y = projection(0, space, space), projection(1, space, space)
    pairs += [
        ("subjects", f, g),  # refutes unless the subjects coincide
        ("derivatives", d(f), d(g)),
        ("composites", compose(g, f), compose(f, g)),
        ("d[f] = f . pi1", d(f), compose(f, y)),
        ("oplus", add(x, model.epsilon(y)), add(y, model.epsilon(x))),
    ]
    for _, lhs, rhs in pairs:
        if _exhaustive_fits(lhs, strat):
            assert_agrees(lhs, rhs, strat)


@pytest.mark.parametrize("spec,text", CASES)
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10**6), strat=strategies, data=st.data())
def test_first_mismatch_anywhere_in_the_test_set(spec, text, seed, strat, data):
    # a spike at the k-th test point is the first mismatch: past the first
    # chunk, `checked` shows any offset error in the chunking
    model, space = get_model(spec), parse_space(text)
    (f,) = model.random_subjects(space, 1, seed)
    lhs = model.derivative(f)
    if not _exhaustive_fits(lhs, strat):
        return
    resolved = strat.resolve(lhs.dom)
    if isinstance(resolved.mode, Exhaustive):
        points = list(iter_space(lhs.dom))
    else:
        points = sample_space(lhs.dom, resolved.mode.count, resolved.mode.seed)
    k = data.draw(st.integers(0, len(points) - 1))
    rep = assert_agrees(lhs, add(lhs, spike(lhs.dom, lhs.cod, points[k])), strat)
    assert not rep.passed and rep.counterexample["input"] == to_jsonable(points[k])


@pytest.mark.parametrize("spec,text", CASES)
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10**6), strat=strategies)
def test_random_terms_agree_with_closures(spec, text, seed, strat):
    model, space = get_model(spec), parse_space(text)
    t = random_term(model, space, 3, seed)
    m, again = interpret(t, model, space), interpret(t, model, space)
    (f,) = model.random_subjects(space, 1, seed)
    pairs = [(m, again), (model.derivative(m), model.derivative(again))]
    if (m.dom, m.cod) == (space, space):  # a product space may type a term otherwise
        pairs += [(m, f), (compose(m, f), compose(f, m))]
    # the stream primitives but truncation have no batch form: on a space
    # without codec, closures decide
    batched = not (text.startswith("Stream(Int") and any(
        p in print_term(t) for p in ("psq", "pdbl", "pinc", "delay", "psum")))
    for lhs, rhs in pairs:
        if _exhaustive_fits(lhs, strat):
            assert_agrees(lhs, rhs, strat, batched)


# values beyond int64: the batches must step aside and leave every point to
# the closures, which compute with Python ints
BIG = [
    # a poly subject on a window of magnitude 10^12 squares past 2^63
    ("findiff", "Int[-1000000000000,1000000000000]", Sampled(64, 3)),
    ("module:r=3", "Int[-3000000000000000000,3000000000000000000]", Sampled(64, 5)),
    ("streams:k=3", "Stream(Int[-4000000000,4000000000],3)", Sampled(64, 7)),
]


@pytest.mark.parametrize("spec,text,mode", BIG)
def test_values_beyond_int64_give_the_closure_report(spec, text, mode):
    model, space = get_model(spec), parse_space(text)
    f, g = model.random_subjects(space, 2, 11)
    strat = EqualityStrategy(mode)
    for _, lhs, rhs in axiom_sides(BaseCat(model), model, "CdC0", [f]) + [("fg", f, g)]:
        assert_agrees(lhs, rhs, strat, batched=False)


@pytest.mark.parametrize("name,lhs_of,rhs_of,want", [
    # 2^32 squared is 2^64, which wraps to 0 in int64
    ("sq", lambda m, s: m.primitive("sq", s), lambda m, s: zero_map(s, s), 2**64),
    # 2^62 + 2^62 = 2^63 and (-2^62) + (-2^62) = -2^63 agree mod 2^64
    ("add", lambda m, s: add(identity(s), identity(s)),
     lambda m, s: add(m.primitive("neg", s), m.primitive("neg", s)), 2**63),
])
def test_int64_wrap_never_decides(name, lhs_of, rhs_of, want):
    model = get_model("findiff")
    x = 2**32 if name == "sq" else 2**62
    space = parse_space(f"Int[{x},{x}]")
    rep = assert_agrees(lhs_of(model, space), rhs_of(model, space),
                        EqualityStrategy(Exhaustive()), batched=False)
    assert not rep.passed and rep.counterexample["lhs"] == want
