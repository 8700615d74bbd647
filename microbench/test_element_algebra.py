"""Layer microbenchmarks of the element algebra and the code arithmetic.

Run with `python -m pytest microbench --benchmark-only`. They stay out of
the test suite (`testpaths` names `tests` only): timing bounds on a small
shared machine measure the machine more than the code.
"""

import numpy as np
import pytest

from diffkit import spaces
from diffkit.models import get_model
from diffkit.spaces import (
    add_elem,
    codec_size,
    decode,
    parse_space,
    sample_space,
    splice0_elem,
    truncate_elem,
    v_add,
    v_splice0,
    v_sub,
    v_trunc,
)

Z5xZ5 = parse_space("(Z5 x Z5)")
Z5x4 = parse_space("((Z5 x Z5) x (Z5 x Z5))")
PAIRS = 390_625
STREAM = parse_space("Stream(Z3,8)")
STREAMS2 = parse_space("(Stream(Z3,4) x Stream(Z3,4))")
STREAM2X8 = parse_space("(Stream(Z3,8) x Stream(Z3,8))")
INT4 = parse_space("(Int[-9,9] x (Int[-9,9] x (Int[-9,9] x (Int[-9,9] x Int[-9,9]))))")


def _codes(space, seed):
    rng = np.random.default_rng(seed)
    n = codec_size(space)
    return rng.integers(0, n, PAIRS), rng.integers(0, n, PAIRS)


@pytest.mark.benchmark(group="add on (Z5 x Z5)")
def test_add_elem_loop(benchmark):
    i, j = _codes(Z5xZ5, 0)
    pairs = [(decode(Z5xZ5, a), decode(Z5xZ5, b)) for a, b in zip(i.tolist(), j.tolist())]
    out = benchmark.pedantic(lambda: [add_elem(Z5xZ5, a, b) for a, b in pairs],
                             rounds=3, iterations=1)
    assert len(out) == PAIRS


@pytest.mark.benchmark(group="add on (Z5 x Z5)")
def test_v_add(benchmark):
    i, j = _codes(Z5xZ5, 0)
    assert len(benchmark(v_add, Z5xZ5, i, j)) == PAIRS


@pytest.mark.benchmark(group="sub on ((Z5 x Z5) x (Z5 x Z5))")
def test_v_sub(benchmark):
    i, j = _codes(Z5x4, 1)
    assert len(benchmark(v_sub, Z5x4, i, j)) == PAIRS


@pytest.mark.benchmark(group="Cayley table of add on ((Z5 x Z5) x (Z5 x Z5))")
def test_cayley_table(benchmark):
    table = benchmark(spaces._table.__wrapped__, (5, 5, 5, 5), "add")
    assert table.shape == (625, 625)


@pytest.mark.parametrize("space", [STREAM, STREAM2X8],
                         ids=["Stream(Z3,8)", "(Stream(Z3,8) x Stream(Z3,8))"])
@pytest.mark.benchmark(group="add on 4096 codes past the whole-table limit")
def test_v_add_blocks(benchmark, space):
    rng = np.random.default_rng(4)
    i, j = rng.integers(0, codec_size(space), (2, 4096))
    assert len(benchmark(v_add, space, i, j)) == 4096


@pytest.mark.parametrize("space", [STREAM, INT4], ids=["Stream(Z3,8)", "4-deep Int product"])
@pytest.mark.benchmark(group="add_elem per pair")
def test_add_elem_nested(benchmark, space):
    pairs = list(zip(sample_space(space, 10_000, 1), sample_space(space, 10_000, 2)))
    out = benchmark(lambda: [add_elem(space, a, b) for a, b in pairs])
    assert len(out) == len(pairs)


@pytest.mark.benchmark(group="prefix surgery on codes of (Stream(Z3,4) x Stream(Z3,4))")
def test_v_trunc(benchmark):
    i, _ = _codes(STREAMS2, 3)
    assert len(benchmark(v_trunc, STREAMS2, i)) == PAIRS


@pytest.mark.benchmark(group="prefix surgery on codes of (Stream(Z3,4) x Stream(Z3,4))")
def test_v_splice0(benchmark):
    i, j = _codes(STREAMS2, 3)
    assert len(benchmark(v_splice0, STREAMS2, i, j)) == PAIRS


@pytest.mark.benchmark(group="prefix surgery per element on Stream(Z3,8)")
def test_truncate_elem(benchmark):
    xs = sample_space(STREAM, 10_000, 1)
    out = benchmark(lambda: [truncate_elem(STREAM, x) for x in xs])
    assert len(out) == len(xs)


@pytest.mark.benchmark(group="prefix surgery per element on Stream(Z3,8)")
def test_splice0_elem(benchmark):
    pairs = list(zip(sample_space(STREAM, 10_000, 1), sample_space(STREAM, 10_000, 2)))
    out = benchmark(lambda: [splice0_elem(STREAM, a, b) for a, b in pairs])
    assert len(out) == len(pairs)


@pytest.mark.benchmark(group="stream subject on Stream(Z3,8)")
def test_stream_subject(benchmark):
    (f,) = get_model("streams:k=8").random_subjects(STREAM, 1, 42)
    xs = sample_space(STREAM, 10_000, 1)
    out = benchmark(lambda: [f(x) for x in xs])
    assert len(out) == len(xs)
