import pytest

from diffkit.errors import ModelRestriction
from diffkit.kernel import check_axiom, zero_map
from diffkit.models import get_model
from diffkit.morphisms import EqualityStrategy, Exhaustive, Sampled, morphisms_equal
from diffkit.spaces import (
    BoundedInt,
    CyclicGroup,
    FunctionSpace,
    Product,
    Real,
    enumerate_space,
    sample_space,
)

fd = get_model("findiff")
Z = BoundedInt(-100, 100)
Z5 = CyclicGroup(5)
Z7 = CyclicGroup(7)
EX = EqualityStrategy(Exhaustive())


def test_difference_values():
    sq = fd.primitive("sq", Z)
    d = fd.derivative(sq)
    assert d((3, 2)) == 16  # 25 - 9
    sq7 = fd.primitive("sq", Z7)
    assert fd.derivative(sq7)((3, 2)) == 2  # (25 mod 7) - (9 mod 7)


def test_second_difference_collapses_via_cdc6():
    # d2f((x,y),(0,z)) = df(x+y, z) everywhere, for the cube on Z5
    cube = fd.primitive("cube", Z5)
    d = fd.derivative(cube)
    d2 = fd.derivative(d)
    for x in range(5):
        for y in range(5):
            for z in range(5):
                assert d2(((x, y), (0, z))) == d(((x + y) % 5, z))


def test_rejects_smooth_spaces():
    with pytest.raises(ModelRestriction):
        fd.derivative(zero_map(Real(1), Real(1)))


def test_table_subjects_are_deterministic():
    a = fd.random_subjects(Z7, 3, seed=42)
    b = fd.random_subjects(Z7, 3, seed=42)
    for f, g in zip(a, b):
        assert morphisms_equal(f, g, EX).passed


def test_poly_subjects_total_on_unbounded_carrier():
    subs = fd.random_subjects(Z, 3, seed=1)
    for f in subs:
        assert isinstance(f(1000), int)  # far outside the sampling window


def test_product_subjects_cover_both_components():
    space = Product(Z5, Z5)
    subs = fd.random_subjects(space, 2, seed=5)
    outs = {f(x) for f in subs for x in enumerate_space(space)}
    assert len(outs) > 1


def test_scalar_primitive_rejects_products():
    with pytest.raises(ModelRestriction):
        fd.primitive("sq", Product(Z5, Z5))


def test_full_suite_on_product_space():
    space = Product(Z5, Z5)
    subs = fd.random_subjects(space, 2, seed=12)
    for ax in ["CdC0", "CdC5", "CdC6a", "E3"]:
        rep = check_axiom(fd, ax, subs, EqualityStrategy())
        assert rep.passed, (ax, rep.counterexample)


def test_poly_subjects_on_a_function_space_without_codec():
    # Int results have no codec, so the subjects are polynomials in the
    # coordinates of the function table
    space = FunctionSpace(CyclicGroup(2), BoundedInt(-1, 1))
    subjects = fd.random_subjects(space, 2, seed=5)
    for f in subjects:
        for x in sample_space(space, 8, 1):
            y = f(x)
            assert len(y) == 2 and all(isinstance(v, int) for v in y)
    strat = EqualityStrategy(Sampled(64, 3))
    for ax in ["CdC0", "CdC2", "CdC5"]:
        assert check_axiom(fd, ax, subjects, strat).passed, ax
