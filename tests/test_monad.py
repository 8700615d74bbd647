import pytest

from diffkit.kernel import add, compose, identity, projection, zero_map
from diffkit.models import get_model
from diffkit.monad import (
    AlgebraCandidate,
    KleisliMap,
    T_map,
    T_space,
    check_kleisli_cdc,
    check_linear_algebra,
    check_monad_laws,
    check_tangent_identities,
    eta,
    free_algebra,
    kleisli_compose,
    kleisli_derivative,
    kleisli_epsilon,
    kleisli_identity,
    kleisli_pair,
    kleisli_proj,
    mu,
    phi,
    phi_inv,
    sharp,
)
from diffkit.morphisms import (
    DEFAULT_STRATEGY,
    Auto,
    EqualityStrategy,
    Exhaustive,
    Morphism,
    Sampled,
    morphisms_equal,
)
from diffkit.spaces import BoundedInt, CyclicGroup, Product, Real, StreamPrefix

fd = get_model("findiff")
sm = get_model("smooth")
Z = BoundedInt(-100, 100)
Z5 = CyclicGroup(5)
EX = EqualityStrategy(Exhaustive())
BIG = EqualityStrategy(Auto(256, 2), bound=1_000_000)


def test_T_on_spaces_and_values():
    assert T_space(Z5) == Product(Z5, Z5)
    sq = fd.primitive("sq", Z)
    tf = T_map(fd, sq)
    assert tf((3, 2)) == (9, 16)  # (f(x), f(x+y)-f(x))
    f = sm.primitive("cube", Real(1))
    tsm = T_map(sm, f)
    got = tsm(((2.0,), (1.0,)))
    assert got[0] == (8.0,) and abs(got[1][0] - 12.0) < 1e-9


def test_T_functoriality():
    f, g = fd.random_subjects(Z5, 2, seed=1)
    assert morphisms_equal(T_map(fd, identity(Z5)), identity(T_space(Z5)), EX).passed
    lhs = T_map(fd, compose(g, f))
    rhs = compose(T_map(fd, g), T_map(fd, f))
    assert morphisms_equal(lhs, rhs, EX).passed


def test_unit_and_multiplication_values():
    assert eta(fd, Z)(3) == (3, 0)
    assert mu(fd, Z)(((1, 2), (3, 4))) == (1, 9)      # y + z + w
    assert mu(sm, Real(1))((((1.0,), (2.0,)), ((3.0,), (4.0,)))) == ((1.0,), (5.0,))


def test_phi_swaps_middle_coordinates():
    p = phi(Z, Z)
    assert p(((1, 2), (3, 4))) == ((1, 3), (2, 4))
    roundtrip = compose(phi_inv(Z5, Z5), phi(Z5, Z5))
    assert morphisms_equal(roundtrip, identity(T_space(Product(Z5, Z5))), EX).passed


@pytest.mark.parametrize("tag,space,strat", [
    ("findiff", Z5, BIG),
    ("smooth", Real(1), EqualityStrategy(Sampled(256, 2))),
    ("module:r=2", Z5, BIG),
    ("streams:k=4", StreamPrefix(CyclicGroup(3), 4), EqualityStrategy(Sampled(256, 2))),
])
def test_monad_laws_all_models(tag, space, strat):
    model = get_model(tag)
    rep = check_monad_laws(model, space, strat)
    assert rep.passed, (tag, rep.counterexample)


@pytest.mark.parametrize("tag,space,strat", [
    ("findiff", Z5, EqualityStrategy(Auto(128, 4))),
    ("smooth", Real(1), EqualityStrategy(Sampled(64, 4))),
    ("module:r=2", Z5, EqualityStrategy(Auto(128, 4))),
    ("streams:k=4", StreamPrefix(CyclicGroup(3), 4), EqualityStrategy(Sampled(48, 4))),
])
def test_naturality_and_tangent_identities(tag, space, strat):
    model = get_model(tag)
    subs = model.random_subjects(space, 2, seed=13)
    rep = check_tangent_identities(model, space, subs, strat)
    assert rep.passed, (tag, rep.counterexample)


def test_sharp_closed_form_value_and_oracle():
    sq = fd.primitive("sq", Z)
    k = KleisliMap(Z, Z, sq, identity(Z))
    s = sharp(fd, k)
    assert s((3, 2)) == (9, 21)
    oracle = compose(mu(fd, Z), T_map(fd, k.as_base()))
    assert morphisms_equal(s, oracle, EqualityStrategy(Sampled(64, 5))).passed


def test_sharp_of_kleisli_identity():
    k = kleisli_identity(fd, Z5)
    assert morphisms_equal(sharp(fd, k), identity(T_space(Z5)), EX).passed


def test_sharp_in_smooth():
    f0 = sm.primitive("sq", Real(1))
    k = KleisliMap(Real(1), Real(1), f0, zero_map(Real(1), Real(1)))
    got = sharp(sm, k)(((2.0,), (1.0,)))
    assert got[0] == (4.0,) and abs(got[1][0] - 4.0) < 1e-9


def test_kleisli_compose_spec_value():
    sq = fd.primitive("sq", Z)
    one = Morphism(Z, Z, lambda x: 1, name="const1")
    f = KleisliMap(Z, Z, identity(Z), one)
    g = KleisliMap(Z, Z, sq, zero_map(Z, Z))
    assert kleisli_compose(fd, g, f, oracle_strat=DEFAULT_STRATEGY)(3) == (9, 7)


def test_kleisli_general_shape():
    # (g .T f)(x) = (g0(f0 x), g0(f0 x + f1 x) - g0(f0 x) + g1(f0 x + f1 x)):
    # the perturbed component feeds the whole displaced point to g1; the
    # always-on definitional cross-check pins this form down.
    subs = fd.random_subjects(Z5, 4, seed=17)
    f = KleisliMap(Z5, Z5, subs[0], subs[1])
    g = KleisliMap(Z5, Z5, subs[2], subs[3])
    got = kleisli_compose(fd, g, f, oracle_strat=DEFAULT_STRATEGY)
    for x in range(5):
        disp = (subs[0](x) + subs[1](x)) % 5
        a = subs[2](subs[0](x))
        b = (subs[2](disp) - a + subs[3](disp)) % 5
        assert got(x) == (a, b)


def test_kleisli_unit_laws():
    subs = fd.random_subjects(Z5, 2, seed=19)
    f = KleisliMap(Z5, Z5, subs[0], subs[1])
    idk = kleisli_identity(fd, Z5)
    left = kleisli_compose(fd, idk, f, DEFAULT_STRATEGY)
    right = kleisli_compose(fd, f, idk, DEFAULT_STRATEGY)
    assert morphisms_equal(left.as_base(), f.as_base(), EX).passed
    assert morphisms_equal(right.as_base(), f.as_base(), EX).passed


def test_kleisli_compose_matches_definitional_everywhere():
    for i in range(6):
        subs = fd.random_subjects(Z5, 4, seed=100 + i)
        f = KleisliMap(Z5, Z5, subs[0], subs[1])
        g = KleisliMap(Z5, Z5, subs[2], subs[3])
        closed = kleisli_compose(fd, g, f, oracle_strat=EX).as_base()
        definitional = compose(mu(fd, Z5), compose(T_map(fd, g.as_base()), f.as_base()))
        assert morphisms_equal(closed, definitional, EX).passed


def test_oracle_trips_on_a_wrong_closed_form():
    # sanity: the self-check actually fires when fed a bogus comparison
    subs = fd.random_subjects(Z5, 2, seed=23)
    f = KleisliMap(Z5, Z5, subs[0], subs[1])
    bogus = KleisliMap(Z5, Z5, subs[1], subs[0])
    definitional = compose(mu(fd, Z5),
                           compose(T_map(fd, f.as_base()), f.as_base()))
    assert not morphisms_equal(bogus.as_base(), definitional, EX).passed


def test_kleisli_structure_maps():
    assert kleisli_proj(0, Z5, Z5)((2, 3)) == (2, 0)
    idk = kleisli_identity(fd, Z)
    paired = kleisli_pair(idk, idk)
    assert paired(2) == ((2, 2), (0, 0))
    zk = kleisli_epsilon(sm, KleisliMap(Real(1), Real(1),
                                        sm.primitive("sq", Real(1)),
                                        sm.primitive("sin", Real(1))))
    assert zk((3.0,)) == ((0.0,), (0.0,))


def test_kleisli_derivative_of_identity_is_projection():
    dk = kleisli_derivative(fd, kleisli_identity(fd, Z5))
    pk = kleisli_proj(1, Z5, Z5)
    assert morphisms_equal(dk.as_base(), pk.as_base(), EX).passed


@pytest.mark.parametrize("tag,space,strat,subjects", [
    ("findiff", Z5, EqualityStrategy(Auto(96, 6)), 4),
    ("smooth", Real(1), EqualityStrategy(Sampled(48, 6)), 4),
    ("module:r=2", Z5, EqualityStrategy(Auto(96, 6)), 3),
    ("streams:k=4", StreamPrefix(CyclicGroup(3), 4),
     EqualityStrategy(Sampled(24, 6)), 2),
])
def test_kleisli_cdc_suite(tag, space, strat, subjects):
    model = get_model(tag)
    reports = check_kleisli_cdc(model, space, strat, subjects=subjects, seed=31,
                                oracle_strat=DEFAULT_STRATEGY)
    for rep in reports:
        assert rep.passed, (tag, rep.axiom, rep.counterexample)
    if tag == "smooth":
        assert any(r.axiom == "CDC2-additivity" for r in reports)


def test_kleisli_linear_iff_components_linear():
    dbl = fd.primitive("dbl", Z5)
    sq = fd.primitive("sq", Z5)
    lin = KleisliMap(Z5, Z5, dbl, dbl)
    nonlin = KleisliMap(Z5, Z5, dbl, sq)
    dk = kleisli_derivative(fd, lin)
    want = kleisli_compose(fd, lin, kleisli_proj(1, Z5, Z5), DEFAULT_STRATEGY)
    assert morphisms_equal(dk.as_base(), want.as_base(), EX).passed
    dk2 = kleisli_derivative(fd, nonlin)
    want2 = kleisli_compose(fd, nonlin, kleisli_proj(1, Z5, Z5), DEFAULT_STRATEGY)
    assert not morphisms_equal(dk2.as_base(), want2.as_base(), EX).passed


# -- linear algebras


@pytest.mark.parametrize("tag,space,strat", [
    ("findiff", Z5, BIG),
    ("smooth", Real(1), EqualityStrategy(Sampled(64, 7))),
    ("module:r=2", Z5, BIG),
    ("streams:k=4", StreamPrefix(CyclicGroup(3), 4), EqualityStrategy(Sampled(32, 7))),
])
def test_free_algebra_is_linear(tag, space, strat):
    model = get_model(tag)
    rep = check_linear_algebra(model, free_algebra(model, space), strat)
    assert rep.passed, (tag, rep.counterexample)


def _scalar_nu(space, k):
    p0, p1 = projection(0, space, space), projection(1, space, space)
    scaled = Morphism(space, space, lambda y, _k=k, _n=space.n: (_k * y) % _n,
                      name=f"x{k}")
    return add(p0, compose(scaled, p1))


def test_idempotent_scalars_pass_on_z5():
    for k in (0, 1):
        rep = check_linear_algebra(fd, AlgebraCandidate(Z5, _scalar_nu(Z5, k)), EX)
        assert rep.passed, (k, rep.counterexample)


def test_nontrivial_idempotent_on_z6():
    Z6 = CyclicGroup(6)
    rep = check_linear_algebra(fd, AlgebraCandidate(Z6, _scalar_nu(Z6, 3)), EX)
    assert rep.passed, rep.counterexample  # 3*3 = 3 mod 6


def test_non_idempotent_scalar_fails_associativity():
    # nu(x,y) = x+2y on Z5: nu.T(nu) ends in 4w, nu.mu in 2w
    rep = check_linear_algebra(fd, AlgebraCandidate(Z5, _scalar_nu(Z5, 2)), EX)
    assert not rep.passed
    assert rep.counterexample["clause"] == "nu . T(nu) = nu . mu"


def test_nonlinear_candidate_rejected():
    p0, p1 = projection(0, Z5, Z5), projection(1, Z5, Z5)
    nu = add(p0, compose(fd.primitive("sq", Z5), p1))
    rep = check_linear_algebra(fd, AlgebraCandidate(Z5, nu), EX)
    assert not rep.passed


def test_nilpotent_algebra_in_smooth():
    # e = [[0,1],[0,0]] squares to zero, so nu = pi0 + e.pi1 associates
    R2 = Real(2)
    e = Morphism(R2, R2, lambda v: (v[1], 0.0), name="nilp")
    p0, p1 = projection(0, R2, R2), projection(1, R2, R2)
    nu = add(p0, compose(e, p1))
    rep = check_linear_algebra(sm, AlgebraCandidate(R2, nu),
                               EqualityStrategy(Sampled(64, 9)))
    assert rep.passed, rep.counterexample


def test_zero_kleisli_subject_trivially_lawful():
    from diffkit.monad import kleisli_zero

    z = kleisli_zero(Z5, Z5)
    dz = kleisli_derivative(fd, z)
    assert morphisms_equal(dz.as_base(),
                           kleisli_zero(Product(Z5, Z5), Z5).as_base(), EX).passed
