"""Layer microbenchmarks of the comparison paths and of sampling.

Run with `python -m pytest microbench --benchmark-only`. Each group times
one comparison both ways: on batches (codes or coordinate arrays) and
through the closures alone, on the same points in the same order.
"""

import pytest

from diffkit.kernel import BaseCat, axiom_sides
from diffkit.models import get_model
from diffkit.morphisms import EqualityStrategy, Exhaustive, Morphism, Sampled, morphisms_equal
from diffkit.spaces import batch_sampler, parse_space, sample_space

STREAM = parse_space("Stream(Z3,8)")


def _sides(spec, space, axiom):
    model = get_model(spec)
    (f,) = model.random_subjects(space, 1, 42)
    ((_, lhs, rhs),) = axiom_sides(BaseCat(model), model, axiom, [f])
    return lhs, rhs


def _closures_only(m):
    return Morphism(m.dom, m.cod, m.fn, name=m.name)


def _compare(benchmark, lhs, rhs, strat, closures, rounds):
    if closures:
        lhs, rhs = _closures_only(lhs), _closures_only(rhs)
    rep = benchmark.pedantic(morphisms_equal, (lhs, rhs, strat), rounds=rounds, iterations=1)
    assert rep.passed


@pytest.mark.parametrize("closures", [False, True], ids=["codes", "closures"])
@pytest.mark.benchmark(group="CdC7a sides on Stream(Z3,8)^4, 256 samples")
def test_sampled_stream_comparison(benchmark, closures):
    lhs, rhs = _sides("streams:k=8", STREAM, "CdC7a")
    _compare(benchmark, lhs, rhs, EqualityStrategy(Sampled(256, 1)), closures, 5)


@pytest.mark.parametrize("closures", [False, True], ids=["batches", "closures"])
@pytest.mark.benchmark(group="CdC0 sides on Int[-100,100]^2, exhaustive")
def test_exhaustive_int_comparison(benchmark, closures):
    lhs, rhs = _sides("findiff", parse_space("Int[-100,100]"), "CdC0")
    _compare(benchmark, lhs, rhs, EqualityStrategy(Exhaustive()), closures, 3)


@pytest.mark.benchmark(group="4096 samples of Stream(Z3,8)")
def test_sample_space(benchmark):
    assert len(benchmark(sample_space, STREAM, 4096, 1)) == 4096


@pytest.mark.benchmark(group="4096 samples of Stream(Z3,8)")
def test_batch_sampler(benchmark):
    assert len(benchmark(lambda: batch_sampler(STREAM, 1)(4096))) == 4096
