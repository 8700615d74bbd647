"""Layer microbenchmarks of the element algebra and the code arithmetic.

Run with `python -m pytest microbench --benchmark-only`. They stay out of
the test suite (`testpaths` names `tests` only): timing bounds on a small
shared machine measure the machine more than the code.
"""

import numpy as np
import pytest

from diffkit.spaces import (
    add_elem,
    codec_size,
    decode,
    parse_space,
    sample_space,
    v_add,
    v_sub,
)

Z5xZ5 = parse_space("(Z5 x Z5)")
Z5x4 = parse_space("((Z5 x Z5) x (Z5 x Z5))")
PAIRS = 390_625
STREAM = parse_space("Stream(Z3,8)")
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


@pytest.mark.parametrize("space", [STREAM, INT4], ids=["Stream(Z3,8)", "4-deep Int product"])
@pytest.mark.benchmark(group="add_elem per pair")
def test_add_elem_nested(benchmark, space):
    pairs = list(zip(sample_space(space, 10_000, 1), sample_space(space, 10_000, 2)))
    out = benchmark(lambda: [add_elem(space, a, b) for a, b in pairs])
    assert len(out) == len(pairs)
