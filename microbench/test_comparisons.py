"""Layer microbenchmarks of the comparison paths and of sampling.

Run with `python -m pytest microbench --benchmark-only`. Most groups time
one comparison both ways: on batches (codes, coordinate arrays or float
columns) and with sides stripped of their batch forms, on the same points
in the same order. The rest time the layers a law check is built from:
building an axiom's sides, the sides of the whole suite on a fresh cat
(where each law row is compiled on first use), one axiom over a pool of
subjects (on a small stage, and exhaustively on a large one whose wirings
the pool shares), tabulating
a composite and a second derivative (in blocks), one stage compared exhaustively against the same number of
sampled points, a whole codec stage compared exhaustively, and Kleisli
composition under each oracle strategy.
"""

import numpy as np
import pytest

from diffkit.cli import SUITE_AXIOMS
from diffkit.kernel import COHERENCE, BaseCat, axiom_pool_report, axiom_sides, compose
from diffkit.models import get_model
from diffkit.monad import (
    DEFAULT_ORACLE,
    KleisliCat,
    T_map,
    kleisli_compose,
    random_kleisli_subjects,
)
from diffkit.morphisms import (
    Auto,
    EqualityStrategy,
    Exhaustive,
    Morphism,
    Sampled,
    morphisms_equal,
    tabulate,
)
from diffkit.spaces import batch_sampler, flatten, leaves, parse_space, sample_space

STREAM = parse_space("Stream(Z3,8)")
STREAM4 = parse_space("Stream(Z3,4)")


def _sides(spec, space, axiom, seed=42):
    model = get_model(spec)
    (f,) = model.random_subjects(space, 1, seed)
    ((_, lhs, rhs),) = axiom_sides(BaseCat(model), model, axiom, [f])
    return lhs, rhs


def _closures_only(m):
    """`m` without its batch forms. On a codec stage the comparison still
    runs it as closure codes (`codes_at` evaluates the closure once per
    distinct code); on a coordinate stage the closures take every point.
    Its closure refuses arrays, so on a real stage the closures take every
    point as well (at the cost of one `flatten` per point)."""

    def fn(x, _fn=m.fn, _dom=m.dom):
        if isinstance(flatten(_dom, x)[0], np.ndarray):
            raise TypeError("evaluated point by point only")
        return _fn(x)

    return Morphism(m.dom, m.cod, fn, name=m.name)


def _compare(benchmark, lhs, rhs, strat, closures, rounds):
    if closures:
        lhs, rhs = _closures_only(lhs), _closures_only(rhs)
    rep = benchmark.pedantic(morphisms_equal, (lhs, rhs, strat), rounds=rounds, iterations=1)
    assert rep.passed


@pytest.mark.parametrize("closures", [False, True], ids=["codes", "closure-codes"])
@pytest.mark.benchmark(group="CdC7a sides on Stream(Z3,8)^4, 256 samples")
def test_sampled_stream_comparison(benchmark, closures):
    lhs, rhs = _sides("streams:k=8", STREAM, "CdC7a")
    _compare(benchmark, lhs, rhs, EqualityStrategy(Sampled(256, 1)), closures, 5)


@pytest.mark.parametrize("closures", [False, True], ids=["batches", "closures"])
@pytest.mark.benchmark(group="CdC0 sides on Int[-100,100]^2, exhaustive")
def test_exhaustive_int_comparison(benchmark, closures):
    lhs, rhs = _sides("findiff", parse_space("Int[-100,100]"), "CdC0")
    _compare(benchmark, lhs, rhs, EqualityStrategy(Exhaustive()), closures, 3)


@pytest.mark.parametrize("closures", [False, True], ids=["columns", "closures"])
@pytest.mark.parametrize("text", ["R^1", "R^2"])
def test_sampled_real_comparison(benchmark, text, closures):
    benchmark.group = f"CdC7a sides on ({text})^4, 256 samples"
    lhs, rhs = _sides("smooth", parse_space(text), "CdC7a")
    _compare(benchmark, lhs, rhs, EqualityStrategy(Sampled(256, 1)), closures, 5)


@pytest.mark.parametrize("strat", [EqualityStrategy(Exhaustive()),
                                   EqualityStrategy(Sampled(81 * 81, 1))],
                         ids=["exhaustive", "sampled"])
@pytest.mark.benchmark(group="CdC0 sides on Stream(Z3,4)^2, 6561 points")
def test_exhaustive_against_sampled(benchmark, strat):
    # fresh sides each round: a side keeps the table it builds
    rep = benchmark.pedantic(
        morphisms_equal, setup=lambda: ((*_sides("streams:k=4", STREAM4, "CdC0"), strat), {}),
        rounds=5, iterations=1)
    assert rep.passed and rep.checked == 81 * 81


@pytest.mark.benchmark(group="CdC7a sides on (Z5 x Z5)^4, exhaustive")
def test_exhaustive_codec_comparison(benchmark):
    # fresh sides each round: a side keeps the tables it builds
    strat = EqualityStrategy(Exhaustive(), bound=1_000_000)
    rep = benchmark.pedantic(
        morphisms_equal,
        setup=lambda: ((*_sides("findiff", parse_space("(Z5 x Z5)"), "CdC7a"), strat), {}),
        rounds=3, iterations=1)
    assert rep.passed and rep.checked == 5 ** 8


@pytest.mark.benchmark(group="tabulate d[g] . T(f) on Stream(Z3,4)^2")
def test_tabulate_composite(benchmark):
    model = get_model("streams:k=4")

    def setup():  # fresh subjects: every map keeps the table it builds
        f, g = model.random_subjects(STREAM4, 2, 42)
        return (compose(model.derivative(g), T_map(model, f)),), {}

    table = benchmark.pedantic(tabulate, setup=setup, rounds=5, iterations=1)
    assert table is not None and len(table) == 81 * 81


@pytest.mark.benchmark(group="tabulate d[d[f]] on ((Z5 x Z5)^2)^2, in blocks")
def test_tabulate_second_derivative(benchmark):
    model = get_model("findiff")

    def setup():  # a fresh subject: its derivatives keep the tables they build
        (f,) = model.random_subjects(parse_space("(Z5 x Z5)"), 1, 42)
        return (model.derivative(model.derivative(f)),), {}

    table = benchmark.pedantic(tabulate, setup=setup, rounds=5, iterations=1)
    assert len(table) == 5 ** 8 and table.dtype == np.uint8


@pytest.mark.parametrize("spec,text", [("streams:k=8", "Stream(Z3,8)"), ("smooth", "R^2")])
def test_axiom_sides_cdc7a(benchmark, spec, text):
    benchmark.group = "axiom_sides for CdC7a"
    model, space = get_model(spec), parse_space(text)

    def setup():  # a fresh subject: derivatives are memoized on their subject
        return (BaseCat(model), model, "CdC7a", model.random_subjects(space, 1, 42)), {}

    ((_, lhs, _),) = benchmark.pedantic(axiom_sides, setup=setup, rounds=20, iterations=1)
    assert len(leaves(lhs.dom)) == 4


@pytest.mark.parametrize("kleisli", [False, True], ids=["BaseCat", "KleisliCat"])
def test_law_table_compile(benchmark, kleisli):
    # the sides of the whole suite for one subject pair on findiff Z7, on a
    # fresh cat: each law row is compiled (typed, its steps hash-consed) on
    # first use and run once; in the Kleisli category every composition
    # also runs its self-check oracle
    benchmark.group = "the suite's sides on a fresh cat, findiff Z7"
    model, space = get_model("findiff"), parse_space("Z7")
    axioms = COHERENCE if kleisli else SUITE_AXIOMS

    def setup():  # fresh subjects too: derivatives are memoized on their subject
        if kleisli:
            return (KleisliCat(model), random_kleisli_subjects(model, space, 2, 42)), {}
        return (BaseCat(model), model.random_subjects(space, 2, 42)), {}

    def suite(cat, subjects):
        return [axiom_sides(cat, model, axiom, subjects) for axiom in axioms]

    assert len(benchmark.pedantic(suite, setup=setup, rounds=20, iterations=1)) == len(axioms)


@pytest.mark.benchmark(group="CdC2 over a pool of 50 subjects on Z7")
def test_axiom_pool_on_a_small_stage(benchmark):
    # one BaseCat for the pool: the structure maps are built once, so most
    # of the time goes to each subject's own nodes and comparisons
    model, strat = get_model("findiff"), EqualityStrategy(Auto(256, 42))

    def setup():  # a fresh pool: derivatives are memoized on their subject
        return (model, "CdC2", model.random_subjects(parse_space("Z7"), 50, 42), strat,
                "random subjects"), {}

    rep = benchmark.pedantic(axiom_pool_report, setup=setup, rounds=5, iterations=1)
    assert rep.passed and rep.checked == 50 * (7 ** 3 + 7)


@pytest.mark.benchmark(group="CdC7a over a pool of 3 subjects on (Z5 x Z5), exhaustive")
def test_pooled_exhaustive_wiring(benchmark):
    # one BaseCat for the pool: the wiring <<x,z>,<y,w>> on (Z5 x Z5)^4 is
    # computed in one pass for the first subject and tabulated when the second
    # reads it, and <<x,y>,<z,w>> is the identity on codes. The second
    # derivatives are tabulated first, as CdC6 leaves them.
    model = get_model("findiff")
    strat = EqualityStrategy(Auto(256, 42), bound=1_000_000)
    pool = model.random_subjects(parse_space("(Z5 x Z5)"), 3, 42)
    for f in pool:
        tabulate(model.derivative(model.derivative(f)))
    rep = benchmark.pedantic(axiom_pool_report, (model, "CdC7a", pool, strat, "random subjects"),
                             rounds=7, iterations=1)
    assert rep.passed and rep.checked == 3 * 5 ** 8


@pytest.mark.parametrize("spec,text,oracle", [
    ("streams:k=4", "Stream(Z3,4)", EqualityStrategy(Exhaustive())),
    ("streams:k=4", "Stream(Z3,4)", DEFAULT_ORACLE),
    ("streams:k=4", "Stream(Z3,4)", EqualityStrategy(Auto(256, 1))),
    ("smooth", "R^2", DEFAULT_ORACLE),
    ("smooth", "R^2", EqualityStrategy(Sampled(256, 1))),
], ids=["streams-exhaustive", "streams-sampled8", "streams-auto", "smooth-sampled8",
        "smooth-sampled256"])
def test_kleisli_compose_oracle(benchmark, spec, text, oracle):
    benchmark.group = "kleisli_compose by oracle strategy"
    model, space = get_model(spec), parse_space(text)

    def setup():
        f, g = random_kleisli_subjects(model, space, 2, 42)
        return (model, g, f, oracle), {}

    h = benchmark.pedantic(kleisli_compose, setup=setup, rounds=5, iterations=1)
    assert h.dom == space


@pytest.mark.benchmark(group="4096 samples of Stream(Z3,8)")
def test_sample_space(benchmark):
    assert len(benchmark(sample_space, STREAM, 4096, 1)) == 4096


@pytest.mark.benchmark(group="4096 samples of Stream(Z3,8)")
def test_batch_sampler(benchmark):
    assert len(benchmark(lambda: batch_sampler(STREAM, 1)(4096))) == 4096


@pytest.mark.benchmark(group="4096 samples of R^2")
def test_batch_sampler_real(benchmark):
    space = parse_space("R^2")
    assert benchmark(lambda: batch_sampler(space, 1)(4096)).shape == (4096, 2)
