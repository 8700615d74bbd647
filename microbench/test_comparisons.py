"""Layer microbenchmarks of the comparison paths and of sampling.

Run with `python -m pytest microbench --benchmark-only`. Most groups time
one comparison both ways: on batches (codes, coordinate arrays or float
columns) and with sides stripped of their batch forms, on the same points
in the same order. The rest time the layers a law check is built from:
building an axiom's sides, the sides of the whole suite on a fresh cat
(where each law row is compiled on first use), one axiom over a pool of
subjects (on a small stage, and exhaustively on a large one whose wirings
the pool shares), the two sides of one axiom compared over a stacked
pool, a whole `check` over a stacked pool, tabulating
a composite and a second derivative (in blocks), one stage compared exhaustively against the same number of
sampled points, a whole codec stage compared exhaustively, Kleisli
composition under each oracle strategy, the Kleisli suite over a stacked
pool, a Cayley-table gather on a pool batch in either memory order, a
passing sampled comparison on a stage without codes (one chunk), and the
CLI's parser for one command against the whole tree of subcommands.
"""

import numpy as np
import pytest

from diffkit.cli import SUITE_AXIOMS, build_parser, run_check
from diffkit.kernel import COHERENCE, BaseCat, SubjectPool, axiom_pool_report, axiom_sides, compose
from diffkit.models import get_model
from diffkit.monad import (
    DEFAULT_ORACLE,
    KleisliCat,
    T_map,
    check_kleisli_cdc,
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
from diffkit.spaces import _gather, batch_sampler, flatten, leaves, parse_space, sample_space

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


@pytest.mark.parametrize("spec,text", [("smooth", "R^2"), ("findiff", "Int[-100,100]")])
def test_sampled_comparison_without_codes(benchmark, spec, text):
    # no table is at stake, so the 256 points are one chunk: one call on
    # float64 columns, or one coordinate batch, per side
    benchmark.group = "CdC0 sides, 256 samples, no codes"
    lhs, rhs = _sides(spec, parse_space(text), "CdC0")
    _compare(benchmark, lhs, rhs, EqualityStrategy(Sampled(256, 1)), False, 20)


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

    def setup():  # a fresh subject: its derivatives have no tables yet
        (f,) = model.random_subjects(parse_space("(Z5 x Z5)"), 1, 42)
        return (model.derivative(model.derivative(f)),), {}

    table = benchmark.pedantic(tabulate, setup=setup, rounds=5, iterations=1)
    assert len(table) == 5 ** 8 and table.dtype == np.uint8


@pytest.mark.parametrize("spec,text", [("streams:k=8", "Stream(Z3,8)"), ("smooth", "R^2")])
def test_axiom_sides_cdc7a(benchmark, spec, text):
    benchmark.group = "axiom_sides for CdC7a"
    model, space = get_model(spec), parse_space(text)

    def setup():  # a fresh subject and cat
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

    def setup():  # fresh subjects too
        if kleisli:
            return (KleisliCat(model), random_kleisli_subjects(model, space, 2, 42)), {}
        return (BaseCat(model), model.random_subjects(space, 2, 42)), {}

    def suite(cat, subjects):
        return [axiom_sides(cat, model, axiom, subjects) for axiom in axioms]

    assert len(benchmark.pedantic(suite, setup=setup, rounds=20, iterations=1)) == len(axioms)


@pytest.mark.benchmark(group="CdC2 over a pool of 50 subjects on Z7")
def test_axiom_pool_on_a_small_stage(benchmark):
    # the pool is stacked: the law runs once, on maps with a row per subject
    model, strat = get_model("findiff"), EqualityStrategy(Auto(256, 42))

    def setup():  # a fresh pool, and so a fresh derivative memo
        return (model, "CdC2", model.random_subjects(parse_space("Z7"), 50, 42), strat,
                "random subjects"), {}

    rep = benchmark.pedantic(axiom_pool_report, setup=setup, rounds=5, iterations=1)
    assert rep.passed and rep.checked == 50 * (7 ** 3 + 7)


@pytest.mark.benchmark(group="CdC7a over a pool of 3 subjects on (Z5 x Z5), exhaustive")
def test_pooled_exhaustive_wiring(benchmark):
    # a stacked pool: the wiring <<x,z>,<y,w>> on (Z5 x Z5)^4 is computed in
    # one pass for every subject at once, and <<x,y>,<z,w>> is the identity
    # on codes. The pool's second derivative, a row per subject, is
    # tabulated first, as CdC6 leaves it.
    model = get_model("findiff")
    strat = EqualityStrategy(Auto(256, 42), bound=1_000_000)
    pool = SubjectPool(model, model.random_subjects(parse_space("(Z5 x Z5)"), 3, 42))
    cat = pool.cat()
    tabulate(cat.derivative(cat.derivative(pool.stacked[0])))
    rep = benchmark.pedantic(axiom_pool_report, (model, "CdC7a", pool, strat, "random subjects"),
                             rounds=7, iterations=1)
    assert rep.passed and rep.checked == 3 * 5 ** 8


@pytest.mark.benchmark(group="CdC7a sides over a pool of 10 subjects on (Z5 x Z5), exhaustive")
def test_stacked_cdc7a_comparison(benchmark):
    # the vectorized comparison of a stacked pool's two sides: 390,625 points
    # for 10 rows, read a chunk at a time after a small first read. The
    # second derivative, a row per subject, is tabulated first, as CdC6
    # leaves it.
    model = get_model("findiff")
    strat = EqualityStrategy(Exhaustive(), bound=1_000_000)
    pool = SubjectPool(model, model.random_subjects(parse_space("(Z5 x Z5)"), 10, 42))
    tabulate(pool.cat().derivative(pool.cat().derivative(pool.stacked[0])))

    def setup():  # fresh sides each round, on the pool's derivative memo
        ((_, lhs, rhs),) = axiom_sides(pool.cat(), model, "CdC7a", pool.stacked)
        return (lhs, rhs, strat), {}

    rep = benchmark.pedantic(morphisms_equal, setup=setup, rounds=7, iterations=1)
    assert rep.passed and rep.checked == 10 * 5 ** 8 and rep.misses == {}


@pytest.mark.benchmark(group="check findiff Z7, 50 subjects")
def test_pooled_check_findiff_z7(benchmark):
    # the whole suite, CA and CAD in-process: the 50 subjects are one stacked
    # pool, so each law program runs once
    model, space = get_model("findiff"), parse_space("Z7")
    strat = EqualityStrategy(Auto(256, 42))
    axioms = [*SUITE_AXIOMS, "CA", "CAD"]
    reports = benchmark.pedantic(run_check, (model, space, axioms, 50, 42, strat), rounds=10,
                                 iterations=1)
    assert sum(r.checked for r in reports) == 514_864 and all(r.passed for r in reports)


@pytest.mark.benchmark(group="kleisli-check streams:k=4 on Stream(Z3,4), a pool of 2")
def test_pooled_kleisli_streams(benchmark):
    # the two Kleisli subjects are one stacked pool: each law program, with
    # the self-check of each of its compositions, runs once for both
    model, strat = get_model("streams:k=4"), EqualityStrategy(Auto(24, 42))
    reports = benchmark.pedantic(check_kleisli_cdc, (model, STREAM4, strat),
                                 {"subjects": 2, "seed": 42}, rounds=5, iterations=1)
    assert sum(r.checked for r in reports) == 132_252 and all(r.passed for r in reports)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.benchmark(group="Cayley-table gather on a (2, 32768) batch of Z5")
def test_gather_on_a_pool_batch(benchmark, order):
    # the batches of a stacked map are (S, N); read in Fortran order they
    # make every elementwise kernel downstream strided
    z5 = parse_space("Z5")
    rng = np.random.default_rng(42)
    a, b = (np.asarray(rng.integers(0, 5, size=(2, 32768)), order=order) for _ in range(2))
    out = benchmark(_gather, z5, "sub", 0, a, b)
    assert (out == (a - b) % 5).all()


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


@pytest.mark.parametrize("cmd", ["check", None], ids=["one-command", "whole-tree"])
@pytest.mark.benchmark(group="argparse set-up")
def test_build_parser(benchmark, cmd):
    # an invocation builds only its command's parser; no command, an
    # unknown one or a top-level -h builds the whole tree
    args = benchmark(build_parser, cmd).parse_args(["check", "--subjects", "3"][cmd is not None:])
    assert args.subjects == 3
