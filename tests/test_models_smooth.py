import math

import numpy as np
import pytest

from diffkit.errors import ModelRestriction
from diffkit.kernel import check_axiom, identity
from diffkit.models import Dual, get_model
from diffkit.morphisms import EqualityStrategy, Morphism, Sampled
from diffkit.spaces import CyclicGroup, Real, sample_space

sm = get_model("smooth")
R1 = Real(1)
R2 = Real(2)
ST = EqualityStrategy(Sampled(64, 3))


def test_dual_arithmetic():
    a = Dual(2.0, 1.0)
    b = Dual(3.0, 4.0)
    assert (a + b).primal == 5.0 and (a + b).tangent == 5.0
    prod = a * b
    assert prod.primal == 6.0 and prod.tangent == 2.0 * 4.0 + 1.0 * 3.0
    assert (a - b).tangent == -3.0
    assert (2.0 * a).tangent == 2.0


def test_numpy_arrays_defer_to_dual():
    # ndarray * Dual is a Dual of float64 arrays, never an object array
    d = Dual(2.0, np.arange(3.0))
    for out, primal, tangent in [(np.ones(3) * d, [2.0] * 3, [0.0, 1.0, 2.0]),
                                 (np.ones(3) + d, [3.0] * 3, [0.0, 1.0, 2.0])]:
        assert isinstance(out, Dual)
        for part, want in [(out.primal, primal), (out.tangent, tangent)]:
            assert isinstance(part, np.ndarray) and part.dtype == np.float64
            assert part.tolist() == want


def test_primitives_on_arrays_match_floats():
    x = np.linspace(-10.0, 10.0, 41)
    for name in ["sin", "cos", "exp", "cube"]:
        f = sm.derivative(sm.primitive(name, R1))
        (col,) = f(((x,), (np.full(41, 0.5),)))
        assert col.dtype == np.float64
        want = [f(((a,), (0.5,)))[0] for a in x.tolist()]
        assert np.allclose(col, want, rtol=1e-15, atol=0.0)


def test_cube_directional_derivative():
    cube = sm.primitive("cube", R1)
    d = sm.derivative(cube)
    assert abs(d(((2.0,), (1.0,)))[0] - 12.0) < 1e-9


def test_sin_at_zero():
    f = sm.primitive("sin", R1)
    d = sm.derivative(f)
    assert abs(d(((0.0,), (2.0,)))[0] - 2.0) < 1e-9


def test_linear_map_has_constant_derivative():
    f = Morphism(R1, R1, lambda x: (3.0 * x[0],), name="3x")
    d = sm.derivative(f)
    for x, y in zip(sample_space(R1, 8, 1), sample_space(R1, 8, 2)):
        assert abs(d((x, y))[0] - 3.0 * y[0]) < 1e-9


def central_difference(f, x, y, h=1e-5):
    """Independent directional-derivative estimate (f(x+h*y) - f(x-h*y)) / 2h."""
    up = f(tuple(c + h * d for c, d in zip(x, y)))
    dn = f(tuple(c - h * d for c, d in zip(x, y)))
    return tuple((u - v) / (2 * h) for u, v in zip(up, dn))


def test_dual_matches_central_difference_on_grammar():
    subs = sm.random_subjects(R1, 12, seed=21)
    xs = sample_space(R1, 12, 5)
    ys = sample_space(R1, 12, 6)
    for f in subs:
        d = sm.derivative(f)
        for x, y in zip(xs, ys):
            exact = d((x, y))[0]
            approx = central_difference(f.fn, x, y)[0]
            assert abs(exact - approx) <= 1e-4 * max(abs(exact), abs(approx), 1.0)


def test_second_derivative_through_nested_duals():
    cube = sm.primitive("cube", R1)
    d2 = sm.derivative(sm.derivative(cube))
    # d2[x^3]((x,y),(u,v)) = 6x*y*u + 3x^2*v at (2,1),(1,0) -> 12
    got = d2((((2.0,), (1.0,)), ((1.0,), (0.0,))))
    assert abs(got[0] - 12.0) < 1e-9


def test_epsilon_vanishes_and_additivity_holds():
    subs = sm.random_subjects(R1, 6, seed=31)
    for f in subs:
        rep = check_axiom(sm, "CDC2-additivity", [f], ST)
        assert rep.passed, rep.counterexample


def test_axioms_on_two_dimensions():
    subs = sm.random_subjects(R2, 4, seed=41)
    for ax in ["CdC0", "CdC5", "CdC6a", "CdC7a", "Eq1-strong"]:
        rep = check_axiom(sm, ax, subs[:2], ST)
        assert rep.passed, (ax, rep.counterexample)


def test_rejects_discrete_spaces():
    with pytest.raises(ModelRestriction):
        sm.derivative(identity(CyclicGroup(3)))


def test_subject_pool_is_deterministic_and_tame():
    a = sm.random_subjects(R1, 5, seed=77)
    b = sm.random_subjects(R1, 5, seed=77)
    pts = sample_space(R1, 16, 8)
    for f, g in zip(a, b):
        for x in pts:
            assert f(x) == g(x)
            assert all(math.isfinite(c) and abs(c) <= 1e4 for c in f(x))
