"""Batched comparisons against the per-point closure loop.

`morphisms_equal` compares the two sides of a law on batches of points:
codes where the stage has an int64 codec, coordinate arrays where it has
integer coordinates but no codec, and on a real stage float64 columns
that each side's closure takes in one call per chunk. The closure loop
below is the reference it must reproduce exactly: the verdict, `checked`
(the index of the first mismatch plus one, or the size of the test set)
and the counterexample, for the same points in the same order.
"""

import math
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diffkit import cli, monad, spaces
from diffkit.kernel import BaseCat, add, axiom_sides, compose, identity, projection, zero_map
from diffkit.models import get_model
from diffkit.morphisms import (
    FIRST_CHUNK,
    MAX_CHUNK,
    Auto,
    EqualityStrategy,
    Exhaustive,
    Morphism,
    Sampled,
    codes_at,
    domain_codes,
    morphisms_equal,
    to_jsonable,
)
from diffkit.spaces import (
    REAL_SAMPLE_HI,
    REAL_SAMPLE_LO,
    batch_coords,
    batch_sampler,
    coords_batch,
    derive_seed,
    elements_equal,
    enum_batch,
    flatten,
    format_space,
    has_batches,
    iter_space,
    parse_space,
    real_stage,
    sample_space,
    space_size,
    unflatten,
    zero_elem,
)
from diffkit.terms import interpret, random_term


def closure_equal(f, g, strat):
    """The per-point loop: (passed, checked, counterexample), where `checked`
    is the index of the first mismatch plus one, or the size of the test set
    when there is none."""
    strat = strat.resolve(f.dom)
    if isinstance(strat.mode, Exhaustive):
        points = list(iter_space(f.dom))
    else:
        points = sample_space(f.dom, strat.mode.count, strat.mode.seed)
    for checked, x in enumerate(points, 1):
        a, b = f(x), g(x)
        if not elements_equal(f.cod, a, b, strat.abs_tol, strat.rel_tol):
            return False, checked, {
                "input": to_jsonable(x), "lhs": to_jsonable(a), "rhs": to_jsonable(b)}
    return True, len(points), None


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


def chunks(n):
    """The chunks a batched comparison evaluates to decide its first n points."""
    return 1 + -(-max(n - FIRST_CHUNK, 0) // MAX_CHUNK)


def defined(f, g, strat, n):
    """Whether both closures give finite values without raising at every
    point of the chunks that decide the first n test points: where one does
    not, a real stage hands the chunk to the closures."""
    strat = strat.resolve(f.dom)
    points = sample_space(f.dom, strat.mode.count, strat.mode.seed)
    stop = FIRST_CHUNK + MAX_CHUNK * (chunks(n) - 1)
    try:
        return all(math.isfinite(c) for x in points[:stop] for m in (f, g)
                   for c in flatten(m.cod, m(x)))
    except (ArithmeticError, ValueError):
        return False


def assert_agrees(f, g, strat, batched=True):
    """The report, or the error raised, equals the closure loop's. Where both
    sides have a batch form, each side's closure runs at most once (at the
    counterexample); on a real stage, once per chunk and once at the
    counterexample, unless a point of those chunks is undefined in floats."""
    real = real_stage(f.dom)
    batched = batched and (real or all(m.table is not None or m.table_builder is not None
                                       for m in (f, g)))
    try:
        want = closure_equal(f, g, strat)
    except ArithmeticError as e:
        with pytest.raises(type(e)) as got:
            morphisms_equal(f, g, strat)
        assert str(got.value) == str(e)
        return None
    counted_f, counted_g = counted(f), counted(g)
    rep = morphisms_equal(counted_f, counted_g, strat)
    assert (rep.passed, rep.checked, rep.counterexample) == want
    calls = (len(counted_f.calls), len(counted_g.calls))
    if batched and not real:
        assert max(calls) <= 1
    elif batched and defined(f, g, strat, rep.checked):
        assert calls == (chunks(rep.checked) + (not rep.passed),) * 2
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
@settings(max_examples=12, deadline=None, derandomize=True)
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


def batches(m, strat):
    """Whether `m` gives a batch over the whole test set of `strat`. Where it
    does not, the closures decide: the stream primitives but truncation have
    no batch form on a space without codec, and a builder gives none where a
    value would pass int64. Asked of a copy, so that `m` builds no table."""
    strat = strat.resolve(m.dom)
    if isinstance(strat.mode, Exhaustive):
        x = enum_batch(m.dom, 0, space_size(m.dom))
    else:
        x = batch_sampler(m.dom, strat.mode.seed)(strat.mode.count)
    copy = Morphism(m.dom, m.cod, m.fn, table=m.table, table_builder=m.table_builder)
    return codes_at(copy, x) is not None


@pytest.mark.parametrize("spec,text", CASES)
@settings(max_examples=8, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6), strat=strategies)
# the derivative of this depth-3 term on Int[-5,5] reaches 7.66e21, past
# int64, so its batch steps aside there
@example(seed=148, strat=EqualityStrategy(Exhaustive(), bound=5_000))
def test_random_terms_agree_with_closures(spec, text, seed, strat):
    model, space = get_model(spec), parse_space(text)
    t = random_term(model, space, 3, seed)
    m, again = interpret(t, model, space), interpret(t, model, space)
    (f,) = model.random_subjects(space, 1, seed)
    pairs = [(m, again), (model.derivative(m), model.derivative(again))]
    if (m.dom, m.cod) == (space, space):  # a product space may type a term otherwise
        pairs += [(m, f), (compose(m, f), compose(f, m))]
    for lhs, rhs in pairs:
        if _exhaustive_fits(lhs, strat):
            assert_agrees(lhs, rhs, strat, batches(lhs, strat) and batches(rhs, strat))


# values beyond int64: the batches must step aside and leave every point to
# the closures, which compute with Python ints
BIG = [
    # a poly subject on a window of magnitude 10^12 squares past 2^63
    ("findiff", "Int[-1000000000000,1000000000000]", Sampled(64, 3)),
    ("module:r=3", "Int[-3000000000000000000,3000000000000000000]", Sampled(64, 5)),
    ("streams:k=3", "Stream(Int[-4000000000,4000000000],3)", Sampled(64, 7)),
    # a window of more than 2^63 - 1 values has no batches at all
    ("findiff", "Int[-5000000000000000000,5000000000000000000]", Sampled(64, 9)),
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


def test_exhaustive_refutation_counts_up_to_the_first_mismatch():
    # both sides tabulate; sq and dbl agree at 0 and first differ at 1
    fd, z7 = get_model("findiff"), parse_space("Z7")
    rep = assert_agrees(fd.primitive("sq", z7), fd.primitive("dbl", z7),
                        EqualityStrategy(Exhaustive()))
    assert rep.checked == 2 and rep.counterexample == {"input": 1, "lhs": 1, "rhs": 2}


@pytest.mark.parametrize("spec,text", [("findiff", "Z7"), ("streams:k=4", "Stream(Z3,4)")])
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 10**6), data=st.data())
def test_closure_side_on_an_exhaustive_codec_stage(spec, text, seed, data):
    # a side with neither table nor builder runs as closure codes
    model, space = get_model(spec), parse_space(text)
    (f,) = model.random_subjects(space, 1, seed)
    lhs = model.derivative(f)
    strat = EqualityStrategy(Exhaustive())
    assert assert_agrees(lhs, again(lhs), strat).passed
    points = list(iter_space(lhs.dom))
    k = data.draw(st.integers(0, len(points) - 1))
    rep = assert_agrees(again(lhs), add(lhs, spike(lhs.dom, lhs.cod, points[k])), strat)
    assert rep.checked == k + 1


def closure_spike(dom, cod, at):
    """A map with no batch form that is nonzero at the element `at` only."""
    zero = zero_elem(cod)
    hit = unflatten(cod, [1] * len(flatten(cod, zero)))
    return Morphism(dom, cod, lambda x: hit if x == at else zero, name="spike")


@settings(max_examples=10, deadline=None)
@given(count=st.integers(1, 300), seed=st.integers(0, 10**6), data=st.data())
def test_sampled_stage_without_batches(count, seed, data):
    space = parse_space("((R^1 x Z4) x Stream(Z3,2))")
    assert not (has_batches(space) or real_stage(space))
    strat = EqualityStrategy(Sampled(count, seed))
    assert assert_agrees(identity(space), again(identity(space)), strat).passed
    points = sample_space(space, count, seed)
    k = data.draw(st.integers(0, count - 1))
    rep = assert_agrees(zero_map(space, space), closure_spike(space, space, points[k]), strat)
    assert rep.checked == 1 + points.index(points[k])


# ---------------------------------------------------------------------------
# real stages: float64 columns, each side's closure called once per chunk

sm = get_model("smooth")
REAL = ["R^1", "R^2", "(R^1 x R^2)"]
REAL_AXIOMS = ["CdC0", "CdC2", "CdC5", "CdC6a", "CdC7a", "Linearity", "CDC2-additivity"]
real_strategies = st.builds(
    lambda auto, c, s: EqualityStrategy((Auto if auto else Sampled)(c, s)),
    st.booleans(), st.integers(2, 300), st.integers(0, 10**6))


@pytest.mark.parametrize("text", REAL)
def test_real_batches_are_the_sampled_points(text):
    space = parse_space(text)
    draw = batch_sampler(space, 5)
    rows = np.concatenate([draw(FIRST_CHUNK), draw(24)])
    assert rows.dtype == np.float64
    assert [unflatten(space, r) for r in rows.tolist()] == sample_space(space, 40, 5)


def again(m):
    """`m` as a new morphism with the same closure: equal to it everywhere."""
    return Morphism(m.dom, m.cod, m.fn, model=m.model, name=m.name)


@pytest.mark.parametrize("text", REAL)
@settings(max_examples=6, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6), strat=real_strategies, axiom=st.sampled_from(REAL_AXIOMS))
def test_smooth_sides_agree_with_closures(text, seed, strat, axiom):
    space = parse_space(text)
    f, g = sm.random_subjects(space, 2, seed)
    d = sm.derivative
    pairs = axiom_sides(BaseCat(sm), sm, axiom, [f, g]) + [
        ("subjects", f, g),
        ("derivatives", d(f), d(g)),
        ("again", d(f), again(d(f))),
        ("second derivatives", d(d(f)), d(d(g))),  # duals of duals of arrays
        ("second again", d(d(f)), again(d(d(f)))),
        ("composites", compose(g, f), compose(f, g)),
    ]
    for _, lhs, rhs in pairs:
        assert_agrees(lhs, rhs, strat)


@pytest.mark.parametrize("text", ["R^1", "R^2"])
@settings(max_examples=4, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6), strat=real_strategies)
def test_kleisli_compose_sides_agree_with_closures(text, seed, strat):
    # every composition compares its closed form with mu . T(g) . f
    seen = []

    def compare(f, g, oracle):
        seen.append(oracle)
        return assert_agrees(f, g, strat)

    f, g = monad.random_kleisli_subjects(sm, parse_space(text), 2, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(monad, "morphisms_equal", compare)
        monad.kleisli_compose(sm, g, f)
        monad.kleisli_compose(sm, f, f)
    assert len(seen) == 2


@pytest.mark.parametrize("text", REAL)
@settings(max_examples=8, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6), strat=real_strategies)
def test_random_real_terms_agree_with_closures(text, seed, strat):
    space = parse_space(text)
    t = random_term(sm, space, 3, seed)
    m, m2 = interpret(t, sm, space), interpret(t, sm, space)
    (f,) = sm.random_subjects(space, 1, seed)
    pairs = [(m, m2), (sm.derivative(m), sm.derivative(m2))]
    if (m.dom, m.cod) == (space, space):  # a product space may type a term otherwise
        pairs += [(m, f), (compose(m, f), compose(f, m))]
    for lhs, rhs in pairs:
        assert_agrees(lhs, rhs, strat)


def real_spike(dom, cod, at):
    """A map generic over arrays that is nonzero at the point `at` of the
    real stage `dom` only: added to a side, it moves the first mismatch
    there."""
    target, width = flatten(dom, at), len(flatten(cod, zero_elem(cod)))

    def fn(x):
        hit = np.all([c == t for c, t in zip(flatten(dom, x), target)], axis=0)
        return unflatten(cod, [np.where(hit, 1.0, 0.0)] * width)

    return Morphism(dom, cod, fn, name="spike")


@pytest.mark.parametrize("text", ["R^1", "R^2"])
@settings(max_examples=12, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6), data=st.data())
def test_first_real_mismatch_anywhere_in_the_test_set(text, seed, data):
    # past the first chunk of 16 and the next of 4096, `checked` shows any
    # offset error, and the counts show one closure call per chunk
    space = parse_space(text)
    lhs = sm.derivative(compose(sm.primitive("sin", space), sm.primitive("sq", space)))
    count = FIRST_CHUNK + MAX_CHUNK + 40
    strat = EqualityStrategy(Sampled(count, seed))
    points = sample_space(lhs.dom, count, seed)
    k = data.draw(st.one_of(
        st.sampled_from([0, FIRST_CHUNK - 1, FIRST_CHUNK, FIRST_CHUNK + MAX_CHUNK - 1,
                         FIRST_CHUNK + MAX_CHUNK, count - 1]),
        st.integers(0, count - 1)))
    rep = assert_agrees(lhs, add(lhs, real_spike(lhs.dom, lhs.cod, points[k])), strat)
    assert rep.checked == k + 1 and rep.counterexample["input"] == to_jsonable(points[k])


def test_each_side_runs_once_per_chunk():
    space = parse_space("R^2")
    lhs = sm.derivative(sm.primitive("sin", space))
    f, g = counted(lhs), counted(again(lhs))
    rep = morphisms_equal(f, g, EqualityStrategy(Sampled(2 * MAX_CHUNK, 3)))
    assert rep.passed and rep.checked == 2 * MAX_CHUNK
    assert len(f.calls) == len(g.calls) == 3
    assert all(isinstance(c, np.ndarray) for x in f.calls for c in flatten(lhs.dom, x))


# ---------------------------------------------------------------------------
# float errors hand a chunk back to the closures, which decide

R1 = parse_space("R^1")
OVERFLOW = Sampled(64, 1)  # has points past x = 6.56, where exp(exp(x)) overflows


def test_exp_overflow_raises_the_closures_error():
    # exp(-exp(exp(x))): on arrays the overflow would come back as a finite 0,
    # while the closures raise OverflowError from math.exp
    e, n = sm.primitive("exp", R1), sm.primitive("neg", R1)
    f = compose(e, compose(n, compose(e, e)))
    assert assert_agrees(f, again(f), EqualityStrategy(OVERFLOW)) is None
    with pytest.raises(OverflowError, match="math range error"):
        morphisms_equal(f, again(f), EqualityStrategy(OVERFLOW))


def test_known_smooth_overflow_raises_as_before():
    # a seed at which a smooth R^2 subject overflows math.exp on a sampled point
    with pytest.raises(OverflowError, match="math range error"):
        cli.main(["check", "--model", "smooth", "--space", "R^2", "--subjects", "1",
                  "--seed", "0"])


@pytest.mark.parametrize("rhs", [
    lambda x: (x[0] + 1e300 * 1e300,),  # the float product is inf, with no error
    lambda x: (x[0] * 1e300 * 1e300,),  # inf or -inf; arrays raise on overflow
    lambda x: (x[0],),
])
def test_values_past_floats_give_the_closure_report(rhs):
    # a product that overflows to inf without raising: `_real_close` holds
    # inf = inf but not inf = -inf, nor inf = x
    f = Morphism(R1, R1, lambda x: (x[0] + 1e300 * 1e300,), name="inf")
    assert_agrees(f, Morphism(R1, R1, rhs), EqualityStrategy(OVERFLOW), batched=False)


@pytest.mark.parametrize("rhs", ["sin", "cos"])
def test_closures_not_generic_over_arrays_give_the_closure_report(rhs):
    f = Morphism(R1, R1, lambda x: (math.sin(x[0]),), name="math.sin")
    rep = assert_agrees(f, sm.primitive(rhs, R1), EqualityStrategy(Sampled(64, 2)),
                        batched=False)
    assert rep.passed == (rhs == "sin")


# ---------------------------------------------------------------------------
# the sampler: values made in bulk from the generator's 32-bit words, against
# the generator's own calls, one per coordinate

SAMPLER_SPACES = ["Z1", "Z2", "Z4", "Z8", "(Stream(Z3,8) x (Stream(Z3,8) x Stream(Z3,8)))",
                  "Int[-100,100]", "Int[0,4294967294]", "Int[0,4294967295]", "(Z4 x Z6)",
                  "R^2", "((R^1 x R^2) x R^1)", "((R^1 x Z4) x Stream(Z3,2))"]


def reference_rows(space, seed, count):
    """`lo + randrange(size)` or `uniform(lo, hi)` per coordinate, in order."""
    rng = random.Random(derive_seed(seed, "sample", format_space(space)))
    return [[rng.uniform(REAL_SAMPLE_LO, REAL_SAMPLE_HI) if c is None
             else c[0] + rng.randrange(c[1]) for c in space.ops.coords]
            for _ in range(count)]


@pytest.mark.parametrize("chunks", [(1, 1, 1), (16, 240), (16, 4096, 100)],
                         ids=lambda c: "+".join(map(str, c)))
@pytest.mark.parametrize("text", SAMPLER_SPACES)
def test_sampler_draws_the_generators_values(text, chunks):
    space = parse_space(text)
    for seed in range(20):
        want = reference_rows(space, seed, sum(chunks))
        draw = spaces._sampler(space, seed)
        rows = [r for k in chunks for r in draw(k).tolist()]
        assert repr(rows) == repr(want), seed
        if has_batches(space) or real_stage(space):
            draw = batch_sampler(space, seed)
            batches = [draw(k) for k in chunks]
            if not real_stage(space):
                batches = [batch_coords(space, b) for b in batches]
            assert repr([r for b in batches for r in b.tolist()]) == repr(want), seed


def test_sampled_check_leaves_numpy_random_unimported():
    # numpy.random costs every process its import time and memory
    code = ("import sys; from diffkit.cli import main; "
            "code = main(['check', '--model', 'streams:k=8', '--space', 'Stream(Z3,8)', "
            "'--subjects', '1', '--axioms', 'CdC0', '--seed', '1']); "
            "assert code == 0 and 'numpy.random' not in sys.modules, code")
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300, env={"PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
