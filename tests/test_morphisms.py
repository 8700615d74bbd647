import tracemalloc

import numpy as np
import pytest

from diffkit.cli import main

from diffkit.errors import DiffkitError, DomainMismatch, InternalError, SizeExceeded
from diffkit.kernel import add, compose, identity, negate, pair, projection, zero_map
from diffkit.models import get_model
from diffkit.morphisms import (
    BLOCK,
    MAX_CHUNK,
    Auto,
    EqualityStrategy,
    Exhaustive,
    Morphism,
    Sampled,
    codes_at,
    from_table,
    morphisms_equal,
    tabulate,
)
from diffkit.spaces import (
    CyclicGroup,
    Product,
    Real,
    StreamPrefix,
    codec_size,
    decode,
    encode,
    enumerate_space,
    parse_space,
    sample_space,
    zero_elem,
)

Z3 = CyclicGroup(3)
Z5 = CyclicGroup(5)
Z7 = CyclicGroup(7)
EX = EqualityStrategy(Exhaustive())


def test_identity_equals_identity():
    assert morphisms_equal(identity(Z5), identity(Z5), EX).passed


def test_same_function_different_build():
    sq = Morphism(Z7, Z7, lambda x: (x * x) % 7)
    xx = Morphism(Z7, Z7, lambda x: (x * x) % 7, name="x*x")
    assert morphisms_equal(sq, xx, EX).passed


def test_counterexample_is_first_in_order():
    f = Morphism(CyclicGroup(2), CyclicGroup(2), lambda x: x)
    g = Morphism(CyclicGroup(2), CyclicGroup(2), lambda x: (x + 1) % 2)
    rep = morphisms_equal(f, g, EX)
    assert not rep.passed
    assert rep.counterexample["input"] == 0


def test_batches_that_disagree_with_their_closures_are_an_internal_error():
    # the builder lies at code 3; the closures, the ground truth, agree there
    def lie(idx=None):
        codes = np.arange(7, dtype=np.int64) if idx is None else idx.copy()
        codes[codes == 3] = 4
        return codes

    liar = Morphism(Z7, Z7, lambda x: x, name="liar", table_builder=lie)
    with pytest.raises(InternalError) as err:
        morphisms_equal(liar, identity(Z7), EX)
    assert isinstance(err.value, RuntimeError) and not isinstance(err.value, DiffkitError)
    assert "at 3" in str(err.value) and "<liar: Z7 -> Z7>" in str(err.value)
    assert "<id: Z7 -> Z7>" in str(err.value)


def test_domain_mismatch_raises():
    with pytest.raises(DomainMismatch):
        morphisms_equal(identity(Z5), identity(Z7), EX)


def test_exhaustive_illegal_over_bound():
    big = CyclicGroup(11)
    f = Morphism(big, big, lambda x: x)
    with pytest.raises(SizeExceeded):
        morphisms_equal(f, f, EqualityStrategy(Exhaustive(), bound=10))


def test_equality_reflexive_symmetric_on_samples():
    fd = get_model("findiff")
    subs = fd.random_subjects(Z7, 4, seed=3)
    for f in subs:
        assert morphisms_equal(f, f, EX).passed
    for f, g in zip(subs, subs[1:]):
        assert (morphisms_equal(f, g, EX).passed
                == morphisms_equal(g, f, EX).passed)


def test_real_tolerances():
    r = Real(1)
    f = Morphism(r, r, lambda x: (x[0] * (1 + 1e-9),))
    g = Morphism(r, r, lambda x: (x[0],))
    ok = EqualityStrategy(Sampled(16, 1), abs_tol=1e-9, rel_tol=1e-6)
    tight = EqualityStrategy(Sampled(16, 1), abs_tol=0.0, rel_tol=1e-12)
    assert morphisms_equal(f, g, ok).passed
    assert not morphisms_equal(f, g, tight).passed


def test_auto_resolves_per_domain():
    assert isinstance(EqualityStrategy(Auto()).resolve(Z5).mode, Exhaustive)
    assert EqualityStrategy(Auto()).resolve(Real(1)).mode == Sampled(256, 0)
    auto = EqualityStrategy(Auto(8, 2), bound=3)
    assert isinstance(auto.resolve(Z5).mode, Sampled)  # 5 > bound 3
    assert isinstance(auto.resolve(CyclicGroup(2)).mode, Exhaustive)


STREAM4 = StreamPrefix(Z3, 4)


def _primitives_on(model, space):
    """The registered primitives of `model` that instantiate on `space`."""
    out = []
    for name in model.primitive_names():
        try:
            out.append(model.primitive(name, space))
        except DiffkitError:
            pass
    return out


def test_tables_mirror_closures():
    # the vectorized backend must agree with plain evaluation, on tables
    # and on domains too big to tabulate (d[d[f]] on Stream(Z3,4)); the
    # kernel.pointwise maps (negation, the module and stream eps, the
    # scalings and z among the primitives) included
    for spec, space in [("findiff", Z7), ("streams:k=4", STREAM4),
                        ("module:r=2", Product(Z5, Z5))]:
        model = get_model(spec)
        f, g = model.random_subjects(space, 2, seed=11)
        d = model.derivative
        x, y = projection(0, space, space), projection(1, space, space)
        zero = zero_map(Product(space, space), space)
        built = [
            f,
            compose(g, f),
            pair(f, g),
            add(f, g),
            d(f),
            d(d(f)),
            model.epsilon(g),
            model.epsilon(identity(space)),
            compose(d(d(f)), pair(pair(x, zero), pair(zero, y))),
            zero_map(space, space),
            projection(0, space, Z5),
            negate(f),
            *_primitives_on(model, space),
        ]
        for m in built:
            xs = sample_space(m.dom, 25, seed=5)
            codes = codes_at(m, np.array([encode(m.dom, p) for p in xs], dtype=np.int64))
            assert codes is not None
            assert [encode(m.cod, m(p)) for p in xs] == codes.tolist()


def test_codes_at_on_untabulable_domains():
    # a second derivative (through its builder) and a leaf without one
    # (through its closure), both over TABLE_LIMIT, at codes with repeats
    model = get_model("streams:k=4")
    (f,) = model.random_subjects(STREAM4, 1, seed=3)
    d2 = model.derivative(model.derivative(f))  # 81^4 points
    long = StreamPrefix(Z3, 16)  # 3^16 points
    leaf = Morphism(long, Z3, lambda a: (a[0] + 2 * a[-1] * a[7]) % 3)
    for m in (d2, leaf):
        assert tabulate(m) is None
        idx = np.random.default_rng(0).integers(0, codec_size(m.dom), 200)
        idx = np.concatenate([idx, idx[::3]])
        want = [encode(m.cod, m.fn(decode(m.dom, int(i)))) for i in idx]
        assert codes_at(m, idx).tolist() == want
        assert m.table is None


def test_composite_over_second_derivative_never_calls_its_closure():
    model = get_model("streams:k=4")
    (f,) = model.random_subjects(STREAM4, 1, seed=5)
    d2 = model.derivative(model.derivative(f))
    calls = []
    closure = d2.fn
    d2.fn = lambda p: calls.append(p) or closure(p)
    stage = Product(STREAM4, STREAM4)  # 6,561 points
    x, y = projection(0, STREAM4, STREAM4), projection(1, STREAM4, STREAM4)
    zero = zero_map(stage, STREAM4)
    m = compose(d2, pair(pair(x, zero), pair(zero, y)))
    tbl = tabulate(m)
    assert calls == []
    z = zero_elem(STREAM4)
    for p in sample_space(stage, 20, seed=1):
        want = closure(((p[0], z), (z, p[1])))
        assert int(tbl[encode(stage, p)]) == encode(m.cod, want)


def test_from_table_round_trip():
    tbl = np.array([2, 0, 1], dtype=np.int64)
    m = from_table(CyclicGroup(3), CyclicGroup(3), tbl)
    assert [m(x) for x in enumerate_space(CyclicGroup(3))] == [2, 0, 1]


def test_table_and_closure_paths_agree_on_equality():
    fd = get_model("findiff")
    f, g = fd.random_subjects(Z7, 2, seed=23)
    df, dg = fd.derivative(f), fd.derivative(g)
    fast = morphisms_equal(df, dg, EX)
    pointwise = all(df(x) == dg(x) for x in enumerate_space(df.dom))
    assert fast.passed == pointwise


def _counting(dom, cod, fn):
    """A map of codec spaces with a builder that logs each request it takes."""
    calls = []

    def build(idx=None):
        calls.append(idx)
        return np.fromiter((encode(cod, fn(decode(dom, int(i)))) for i in idx), np.int64)

    return Morphism(dom, cod, fn, table_builder=build), calls


def test_a_shared_sub_map_runs_once_per_chunk():
    # 3^12 codes: too many to tabulate for a sampled chunk, so every chunk
    # reaches the builder; FIRST_CHUNK + MAX_CHUNK + 100 points are 3 chunks
    dom = StreamPrefix(Z3, 12)
    shared, calls = _counting(dom, Z3, lambda a: (a[0] * a[5] + a[11]) % 3)
    lhs = compose(identity(Z3), shared)
    rhs = add(shared, zero_map(dom, Z3))
    rep = morphisms_equal(lhs, rhs, EqualityStrategy(Sampled(16 + 4096 + 100, 4)))
    assert rep.passed and rep.checked == 16 + 4096 + 100
    assert [len(idx) for idx in calls] == [16, 4096, 100]
    assert shared.table is None


def test_only_the_same_batch_object_hits_the_cache():
    m, calls = _counting(StreamPrefix(Z3, 12), Z3, lambda a: a[3])
    idx = np.arange(0, 3 ** 12, 997, dtype=np.int64)
    first = codes_at(m, idx)
    assert codes_at(m, idx) is first and len(calls) == 1
    again = codes_at(m, idx.copy())  # equal values, another object
    assert len(calls) == 2 and again.tolist() == first.tolist()
    assert codes_at(m, idx) is not first and len(calls) == 3  # only the last is kept


def test_cached_batches_and_tables_are_read_only():
    m, _ = _counting(StreamPrefix(Z3, 12), Z3, lambda a: a[3])
    out = codes_at(m, np.arange(10, dtype=np.int64))
    with pytest.raises(ValueError):
        out[0] = 1
    # a builder that writes into its sub-map's batch fails loudly
    bad = Morphism(m.dom, Z3, m.fn, table_builder=lambda idx=None: np.add(
        codes_at(m, idx), 1, out=codes_at(m, idx)))
    with pytest.raises(ValueError):
        codes_at(bad, np.arange(20, dtype=np.int64))
    tbl = tabulate(add(identity(Z5), identity(Z5)))
    with pytest.raises(ValueError):
        tbl[0] = 1


# Second derivatives whose domains, 5^8 = 390,625 and 24^4 = 331,776 codes,
# are tabulated in blocks of BLOCK codes, one byte per code.
BIG = [("findiff", "(Z5 x Z5)"), ("module:r=2", "(Z4 x Z6)")]


def _second_derivative(spec, text, seed=7):
    model = get_model(spec)
    (f,) = model.random_subjects(parse_space(text), 1, seed)
    return model, model.derivative(model.derivative(f))


def _closure_at(m, idx):
    return [encode(m.cod, m.fn(decode(m.dom, int(i)))) for i in idx]


@pytest.mark.parametrize("spec,text", BIG)
def test_a_table_filled_in_blocks_matches_the_closures(spec, text):
    _, d2 = _second_derivative(spec, text)
    n = codec_size(d2.dom)
    assert n > 2 * BLOCK
    tbl = tabulate(d2)
    assert tbl.dtype == np.uint8 and len(tbl) == n
    assert not tbl.flags.writeable
    idx = np.random.default_rng(1).integers(0, n, 256)
    idx = np.concatenate([idx, [0, BLOCK - 1, BLOCK, 2 * BLOCK - 1, n - 1]])
    assert tbl[idx].tolist() == _closure_at(d2, idx)


@pytest.mark.parametrize("spec,text", BIG)
def test_codes_at_widens_a_narrow_table(spec, text):
    _, d2 = _second_derivative(spec, text)
    tabulate(d2)
    n = codec_size(d2.dom)
    chunk = np.arange(0, n, n // MAX_CHUNK, dtype=np.int64)[:MAX_CHUNK]
    block = np.arange(BLOCK, 2 * BLOCK, dtype=np.int64)
    for idx in (None, chunk, block):
        assert codes_at(d2, idx).dtype == np.int64
    # pair_batch computes left * 25 + right (24 on Z4 x Z6): in uint8 it would wrap
    both = pair(d2, d2)
    got = codes_at(both, chunk)
    assert got.max() > 255
    assert got.tolist() == _closure_at(both, chunk)


@pytest.mark.parametrize("spec,text", BIG)
def test_a_block_that_overflows_falls_back_to_the_closures(spec, text):
    _, d2 = _second_derivative(spec, text)
    starts = []

    def build(idx=None):
        starts.append(None if idx is None else int(idx[0]))
        if idx is not None and idx[0] == 2 * BLOCK:
            raise OverflowError("a value beyond int64")
        return codes_at(d2, idx)

    m = Morphism(d2.dom, d2.cod, d2.fn, table_builder=build)
    tbl = tabulate(m)
    # every block once, never the whole domain: the closures fill block 2 only
    assert starts == list(range(0, codec_size(d2.dom), BLOCK))
    assert tbl.dtype == np.uint8 and not tbl.flags.writeable
    assert np.array_equal(tbl, tabulate(d2))


def test_only_memoized_derivatives_tabulate_for_a_large_request():
    # eps(d[d[f]]) is built afresh per axiom instance: a request of more
    # than MAX_CHUNK codes, here a block of a larger tabulation, reads it
    # at those codes only, while the memoized d[d[f]] beneath it is
    # tabulated once for the run
    model, d2 = _second_derivative("module:r=2", "(Z4 x Z6)")
    eps = model.epsilon(d2)
    idx = np.arange(BLOCK, 2 * BLOCK, dtype=np.int64)
    assert BLOCK > codec_size(d2.dom) // 16
    assert codes_at(eps, idx)[::97].tolist() == _closure_at(eps, idx[::97])
    assert eps.table is None and d2.table is not None


def test_a_small_domain_is_tabulated_for_a_large_request():
    # a subject on Stream(Z3,8), 6,561 codes, read whole by the tabulation
    # of a composite: its table serves every later read
    (f,) = get_model("streams:k=8").random_subjects(StreamPrefix(Z3, 8), 1, seed=2)
    idx = np.arange(3 ** 8, dtype=np.int64)[::-1].copy()
    assert len(idx) > MAX_CHUNK and not f.memoized
    assert codes_at(f, idx)[::50].tolist() == _closure_at(f, idx[::50])
    assert f.table is not None


def test_findiff_epsilon_shares_its_arguments_table():
    model, d2 = _second_derivative("findiff", "(Z5 x Z5)")
    assert model.epsilon(model.epsilon(d2)).table is None
    tbl = tabulate(d2)
    assert model.epsilon(model.epsilon(d2)).table is tbl


def test_second_derivative_tables_keep_memory_bounded(capsys):
    # each subject keeps its second derivative's table for the whole run:
    # 390,625 bytes, and a block at a time to fill it (29 MB traced with
    # whole-domain int64 tables, 8.8 MB with blocks)
    argv = ["check", "--model", "findiff", "--space", "(Z5 x Z5)", "--subjects", "3",
            "--axioms", "CdC6,CdC7a", "--bound", "1000000", "--seed", "42"]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 15_000_000
