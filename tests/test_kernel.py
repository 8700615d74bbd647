import gc
import random
import weakref

import numpy as np
import pytest

from diffkit import kernel, morphisms
from diffkit.cli import run_check
from diffkit.errors import ShapeMismatch
from diffkit.kernel import (
    BaseCat,
    add,
    axiom_pool_report,
    axiom_sides,
    check_axiom,
    check_flatness,
    compose,
    const_map,
    identity,
    is_epsilon_linear,
    is_epsilon_vanishing,
    is_group_homomorphism,
    is_linear,
    oplus,
    pair,
    pool_report,
    projection,
    SubjectPool,
    terminal_map,
    zero_map,
)
from diffkit.models import get_model
from diffkit.monad import KleisliCat, KleisliPool, check_kleisli_cdc, random_kleisli_subjects
from diffkit.morphisms import (
    BLOCK,
    FIRST_CHUNK,
    MAX_CHUNK,
    Auto,
    EqualityStrategy,
    Exhaustive,
    Morphism,
    Sampled,
    Wiring,
    codes_at,
    morphisms_equal,
    tabulate,
)
from diffkit.spaces import (
    BoundedInt,
    CyclicGroup,
    Product,
    Real,
    StreamPrefix,
    TERMINAL,
    codec_size,
    decode,
    encode,
    parse_space,
    wiring_codes,
)
from diffkit.terms import LAWS, random_term

# the axioms `axiom_sides` binds: the rows of the law table with an arity
AXIOMS = [ax for ax, law in LAWS.items() if law.arity is not None]

Z3 = CyclicGroup(3)
Z5 = CyclicGroup(5)
Z7 = CyclicGroup(7)
Z = BoundedInt(-100, 100)
EX = EqualityStrategy(Exhaustive())
AUTO = EqualityStrategy(Auto(128, 1))

fd = get_model("findiff")


def test_identity_projection_terminal_values():
    assert identity(Z3)(2) == 2
    assert projection(0, Z3, Z3)((1, 2)) == 1
    assert projection(1, Z3, Z3)((1, 2)) == 2
    assert terminal_map(Z3)(2) == ()


def test_compose_add_pair_values():
    sq = fd.primitive("sq", Z)
    inc = fd.primitive("inc", Z)
    assert compose(sq, inc)(2) == 9
    dbl = add(identity(Z7), identity(Z7))
    assert dbl(3) == 6
    assert pair(identity(Z), zero_map(Z, Z))(5) == (5, 0)


def test_left_additivity_by_construction():
    # (f+g).h = f.h + g.h on random triples
    f, g, h = fd.random_subjects(Z7, 3, seed=2)
    lhs = compose(add(f, g), h)
    rhs = add(compose(f, h), compose(g, h))
    assert morphisms_equal(lhs, rhs, EX).passed
    # 0.h = 0 and terminal map is the zero map
    assert morphisms_equal(compose(zero_map(Z7, Z5), h), zero_map(Z7, Z5), EX).passed
    assert morphisms_equal(terminal_map(Z7), zero_map(Z7, TERMINAL), EX).passed


def test_epsilon_per_model():
    sq = fd.primitive("sq", Z)
    assert fd.epsilon(sq)(3) == 9  # identity extension

    sm = get_model("smooth")
    f = sm.primitive("sq", Real(1))
    assert sm.epsilon(f)((3.0,)) == (0.0,)

    mm = get_model("module:r=2")
    lin = mm.primitive("triple", Z)
    assert mm.epsilon(lin)(2) == 12  # 2 * (3 * 2)


def test_oplus_is_plus_in_findiff_and_proj_in_smooth():
    f, g = fd.random_subjects(Z7, 2, seed=4)
    assert morphisms_equal(oplus(fd, f, g), add(f, g), EX).passed
    sm = get_model("smooth")
    h = sm.primitive("sin", Real(1))
    k = sm.primitive("cube", Real(1))
    rep = morphisms_equal(oplus(sm, h, k), h, EqualityStrategy(Sampled(32, 5)))
    assert rep.passed
    # oplus with zero change is the map itself
    assert morphisms_equal(oplus(fd, f, zero_map(Z7, Z7)), f, EX).passed


def test_derivative_of_identity_and_constants():
    for tag, space in [("findiff", Z7), ("module:r=2", Z7)]:
        model = get_model(tag)
        d_id = model.derivative(identity(space))
        assert morphisms_equal(d_id, projection(1, space, space), EX).passed
    d_const = fd.derivative(const_map(Z7, Z7, 3))
    assert morphisms_equal(d_const, zero_map(Product(Z7, Z7), Z7), EX).passed


@pytest.mark.parametrize("axiom", [
    "CdC0", "CdC1", "CdC2", "CdC3", "CdC4", "CdC5", "CdC6", "CdC7",
    "CdC6a", "CdC7a", "E1", "E2", "E3",
    "DEps-i", "DEps-ii", "DEps-iii", "Eq1-strong",
])
def test_findiff_axioms_pass_on_z7(axiom):
    subs = fd.random_subjects(Z7, 2, seed=6)
    rep = check_axiom(fd, axiom, subs, AUTO)
    assert rep.passed, rep.counterexample


def test_cdc2_additivity_separates():
    sq = fd.primitive("sq", Z)
    rep = check_axiom(fd, "CDC2-additivity", [sq], EqualityStrategy(Sampled(64, 3)))
    assert not rep.passed
    # direct witness: df(0,2) = 4 but df(0,1)+df(0,1) = 2
    d = fd.derivative(sq)
    assert d((0, 2)) == 4
    assert d((0, 1)) + d((0, 1)) == 2


def test_cdc2_additivity_trivial_for_zero_subject():
    rep = check_axiom(fd, "CDC2-additivity", [zero_map(Z7, Z7)], AUTO)
    assert rep.passed


def test_paired_second_order_axioms_agree():
    # CdC6 <-> CdC6a and CdC7 <-> CdC7a verdicts agree per subject
    for tag, space, strat in [
        ("findiff", Z5, AUTO),
        ("module:r=2", Z5, AUTO),
        ("smooth", Real(1), EqualityStrategy(Sampled(48, 7))),
    ]:
        model = get_model(tag)
        for f in model.random_subjects(space, 3, seed=8):
            a6 = check_axiom(model, "CdC6", [f], strat).passed
            a6a = check_axiom(model, "CdC6a", [f], strat).passed
            a7 = check_axiom(model, "CdC7", [f], strat).passed
            a7a = check_axiom(model, "CdC7a", [f], strat).passed
            assert a6 == a6a and a7 == a7a


def test_is_linear_examples():
    dbl = fd.primitive("dbl", Z5)
    sq = fd.primitive("sq", Z5)
    assert is_linear(fd, dbl, EX)[0]
    assert not is_linear(fd, sq, EX)[0]
    assert is_linear(fd, identity(Z5), EX)[0]
    assert is_linear(fd, projection(0, Z5, Z5), EX)[0]
    assert is_linear(fd, zero_map(Z5, Z5), EX)[0]


def test_linear_iff_homomorphism_in_findiff():
    for f in fd.random_subjects(Z5, 12, seed=10):
        assert is_linear(fd, f, EX)[0] == is_group_homomorphism(f, EX)


def test_epsilon_linearity():
    sm = get_model("smooth")
    f = sm.primitive("sq", Real(1))
    assert is_epsilon_linear(sm, f, EqualityStrategy(Sampled(32, 2)))
    sq = fd.primitive("sq", Z5)
    assert not is_epsilon_linear(fd, sq, EX)
    assert is_epsilon_linear(fd, fd.primitive("dbl", Z5), EX)


def test_epsilon_vanishing():
    sm = get_model("smooth")
    assert is_epsilon_vanishing(sm, Real(2), EqualityStrategy(Sampled(16, 1)))
    assert not is_epsilon_vanishing(fd, Z5, EX)
    for tag in ["findiff", "smooth", "module:r=2"]:
        assert is_epsilon_vanishing(get_model(tag), TERMINAL, EX)


def test_flatness_findiff_and_terminal_pass():
    assert check_flatness(fd, Z5, EX).passed
    assert check_flatness(fd, TERMINAL, EX).passed
    mm = get_model("module:r=2")
    assert check_flatness(mm, Z5, EX).passed  # 2 is invertible mod 5


def test_a_crashing_primitive_factory_is_not_skipped():
    # a factory refuses a space with a DiffkitError, and F3 and the term
    # generator skip that primitive; any other exception is a bug, which
    # must not shrink F3's checked set or the generator's primitives
    model = get_model("findiff")

    def broken(space):
        raise RuntimeError("factory bug")

    model.register_primitive("broken", broken)
    with pytest.raises(RuntimeError, match="factory bug"):
        check_flatness(model, Z5, EX, parts=("F3",))
    with pytest.raises(RuntimeError, match="factory bug"):
        random_term(model, Z5, 2, seed=0)


def test_flatness_smooth_fails_right_injectivity():
    sm = get_model("smooth")
    rep = check_flatness(sm, Real(1), EqualityStrategy(Sampled(64, 3)))
    assert not rep.passed
    assert rep.counterexample["clause"] == "F4 right-injectivity"


def test_flatness_f4_unknown_stays_unknown_when_undecidable():
    # a bounded-int carrier cannot be enumerated as a group, and sampling
    # finds no violation for an injective action, so the verdict is open
    rep = check_flatness(fd, Z, EqualityStrategy(Sampled(64, 3)), parts=("F4",))
    assert rep.passed
    assert rep.verdict == "unknown"


@pytest.mark.parametrize("axiom", ["F1", "F2", "F3", "F4", "OplusEps"])
def test_check_axiom_runs_flatness_ids_on_the_subjects_domain(axiom):
    subjects = fd.random_subjects(Z5, 2, seed=3)
    rep = check_axiom(fd, axiom, subjects, EX)
    assert rep.to_dict() == check_flatness(fd, Z5, EX, parts=(axiom,)).to_dict()
    with pytest.raises(ShapeMismatch):
        axiom_sides(BaseCat(fd), fd, axiom, subjects)


def test_cdc0_on_square_exhaustively():
    # f(x + eps y) = f(x) + eps(df(x,y)) for the square, all 49 points of Z7^2
    sq = fd.primitive("sq", Z7)
    rep = check_axiom(fd, "CdC0", [sq], EX)
    assert rep.passed and rep.checked == 49


def test_epsilon_pairing_compatibility():
    f, g = fd.random_subjects(Z7, 2, seed=14)
    lhs = fd.epsilon(pair(f, g))
    rhs = pair(fd.epsilon(f), fd.epsilon(g))
    assert morphisms_equal(lhs, rhs, EX).passed


@pytest.mark.parametrize("spec, space", [
    ("findiff", Z7),
    ("streams:k=4", StreamPrefix(Z3, 4)),
])
def test_derivative_memo_dies_with_its_pool(spec, space):
    # the pool keeps d[f] and d[d[f]] for its run, and nothing in the memo
    # refers back to it: reference counting frees a finished run
    model = get_model(spec)
    pool = SubjectPool(model, model.random_subjects(space, 5, seed=2))
    cat = pool.cat()
    firsts = [cat.derivative(f) for f in pool.subjects]
    seconds = [cat.derivative(d) for d in firsts]
    assert all(cat.derivative(f) is d for f, d in zip(pool.subjects, firsts))
    assert all(pool.cat().derivative(d) is d2 for d, d2 in zip(firsts, seconds))
    refs = [weakref.ref(m) for m in (*pool.subjects, *firsts, *seconds)]
    gc.disable()
    try:
        del pool, cat, firsts, seconds
        assert [r() for r in refs] == [None] * 15
    finally:
        gc.enable()


# The per-subject loop that `axiom_pool_report` replaces for the axioms of
# arity "space", kept as the reference its reports must equal.
def _per_subject(model, axiom, pool, strat, noun, cat=None):
    return pool_report(pool, lambda f, g: check_axiom(model, axiom, [f, g], strat, cat=cat),
                       noun)


def _counting_sides(monkeypatch):
    calls = []
    sides = kernel.axiom_sides
    monkeypatch.setattr(kernel, "axiom_sides",
                        lambda cat, model, axiom, subjects: calls.append(axiom)
                        or sides(cat, model, axiom, subjects))
    return calls


@pytest.mark.parametrize("axiom", ["CdC3", "EpsVanishing"])
@pytest.mark.parametrize("tag, space, subjects", [
    ("findiff", "Z7", 5),
    ("findiff", "(Z5 x Z5)", 3),
    ("module:r=2", "Z5", 4),
    ("streams:k=4", "Stream(Z3,4)", 3),
])
def test_subject_free_axioms_run_once_per_pool(monkeypatch, tag, space, subjects, axiom):
    model, space = get_model(tag), parse_space(space)
    strat = EqualityStrategy(Auto(64, 9))
    pool = model.random_subjects(space, subjects, 9)
    calls = _counting_sides(monkeypatch)
    want = _per_subject(model, axiom, pool, strat, "random subjects")
    assert calls == [axiom] * subjects
    calls.clear()
    (got,) = run_check(model, space, [axiom], subjects, 9, strat)
    assert calls == [axiom]
    assert got.to_dict() == want.to_dict()
    assert got.checked > 0 and got.subject == f"{subjects} random subjects"
    # epsilon is not zero in these models: eps(1) = 0 fails once per subject
    assert got.violations == (subjects if axiom == "EpsVanishing" else 0)


@pytest.mark.parametrize("axiom", ["CdC3", "EpsVanishing"])
def test_subject_free_axioms_run_once_per_kleisli_pool(monkeypatch, axiom):
    strat = EqualityStrategy(Auto(96, 6))
    pool = random_kleisli_subjects(fd, Z5, 3, 31)
    calls = _counting_sides(monkeypatch)
    noun = "random kleisli subjects"
    want = _per_subject(fd, axiom, pool, strat, noun, cat=KleisliCat(fd))
    calls.clear()
    got = axiom_pool_report(fd, axiom, KleisliPool(fd, pool), strat, noun)
    assert calls == [axiom]
    assert got.to_dict() == want.to_dict()
    if axiom == "CdC3":
        calls.clear()
        reports = check_kleisli_cdc(fd, Z5, strat, subjects=3, seed=31)
        assert calls.count("CdC3") == 1
        assert [r.to_dict() for r in reports if r.axiom == "CdC3"] == [want.to_dict()]


# ---------------------------------------------------------------------------
# structure maps shared by a BaseCat


def _constructions(monkeypatch):
    made = []
    post = Morphism.__post_init__
    monkeypatch.setattr(Morphism, "__post_init__", lambda m: made.append(m) or post(m))
    return made


def test_a_pool_shares_its_structure_maps(monkeypatch):
    cat = BaseCat(fd)
    f, g, h = fd.random_subjects(Z7, 3, seed=4)
    made = _constructions(monkeypatch)
    (_, lf, rf), = axiom_sides(cat, fd, "CdC6", [f])
    first = len(made)
    (_, lg, rg), = axiom_sides(cat, fd, "CdC6", [g])
    second = len(made) - first
    axiom_sides(BaseCat(fd), fd, "CdC6", [h])
    # the second subject builds only its own nodes; a fresh cat builds all
    assert 0 < second < first == len(made) - first - second
    stage, (x, y, z) = cat.generic_points([Z7, Z7, Z7])
    again = cat.generic_points([Z7, Z7, Z7])
    assert again[0] == stage and all(p is q for p, q in zip(again[1], (x, y, z)))
    zero = cat.zero(stage, Z7)
    assert zero is cat.zero(stage, Z7)
    assert cat.pair(cat.pair(x, y), cat.pair(zero, z)) is \
        cat.pair(cat.pair(x, y), cat.pair(zero, z))
    assert cat.add(x, cat.epsilon(y)) is cat.add(x, cat.epsilon(y))
    assert cat.identity(Z7) is cat.identity(Z7)
    assert cat.proj(1, Z7, Z5) is cat.proj(1, Z7, Z5) and cat.proj(0, Z7, Z5) is not \
        cat.proj(1, Z7, Z5)
    assert cat.terminal(Z7) is cat.terminal(Z7)
    # anything built from a subject is fresh
    assert len({id(m) for m in (lf, rf, lg, rg)}) == 4
    fx = cat.compose(f, x)
    assert fx is not cat.compose(f, x)
    assert cat.pair(fx, y) is not cat.pair(fx, y)
    assert cat.epsilon(f) is not cat.epsilon(f)
    assert cat.add(f, f) is not cat.add(f, f)


@pytest.mark.parametrize("axiom", sorted(AXIOMS))
def test_the_memo_keeps_no_subject(axiom):
    cat = BaseCat(fd)
    f, g = fd.random_subjects(Z5, 2, seed=8)
    refs = [weakref.ref(f), weakref.ref(g)]
    sides = axiom_sides(cat, fd, axiom, [f, g])
    for _, lhs, rhs in sides:  # random subjects: some laws fail, and that is fine here
        morphisms_equal(lhs, rhs, AUTO)
    del f, g, sides, lhs, rhs
    gc.collect()
    assert [r() for r in refs] == [None, None]
    assert cat.identity(Z5) is cat.identity(Z5)  # the cat, alive, keeps its own maps


def test_the_kleisli_memo_keeps_no_subject():
    # nor do the laws compiled on the cat, over every row of the table: one
    # cat serves every (stacked) pool
    cat = KleisliCat(fd)
    for axiom in AXIOMS:
        pool = KleisliPool(fd, random_kleisli_subjects(fd, Z3, 2, 5))
        pool.cat = lambda: cat
        refs = [weakref.ref(k.f0) for k in pool.subjects]
        rep = axiom_pool_report(fd, axiom, pool, AUTO, "random kleisli subjects")
        assert rep.passed or axiom != "CdC2"
        del pool
        gc.collect()
        assert [r() for r in refs] == [None, None], axiom
    assert cat.base.identity(Z3) is cat.base.identity(Z3)  # the cat, alive, keeps its own maps


_POOLS = [
    ("findiff", "Z7", 3),
    ("findiff", "(Z5 x Z5)", 2),
    ("module:r=2", "Z5", 3),
    ("streams:k=4", "Stream(Z3,4)", 2),
    ("smooth", "R^1", 2),
]


class _Unshared(BaseCat):
    """A BaseCat that shares nothing, not even within one subject's sides."""

    def _cons(self, build, *args):
        return build(*args)


@pytest.mark.parametrize("tag, text, size", _POOLS)
def test_a_shared_cat_reports_as_fresh_cats_do(tag, text, size):
    # the reference: `_per_subject` with a fresh BaseCat for every subject;
    # and a cat that shares nothing, which a wrong key would not match
    model, space = get_model(tag), parse_space(text)
    strat = EqualityStrategy(Auto(48, 13))
    noun = "random subjects"
    for axiom in AXIOMS:
        want = _per_subject(model, axiom, model.random_subjects(space, size, 13), strat, noun)
        got = axiom_pool_report(model, axiom, model.random_subjects(space, size, 13), strat,
                                noun)
        unshared = _per_subject(model, axiom, model.random_subjects(space, size, 13), strat,
                                noun, cat=_Unshared(model))
        assert got.to_dict() == want.to_dict() == unshared.to_dict(), axiom


def test_a_shared_kleisli_cat_reports_as_fresh_cats_do():
    strat = EqualityStrategy(Auto(48, 14))
    noun = "random kleisli subjects"
    for axiom in AXIOMS:
        want = pool_report(random_kleisli_subjects(fd, Z3, 2, 14),
                           lambda f, g: check_axiom(fd, axiom, [f, g], strat, cat=KleisliCat(fd)),
                           noun)
        got = axiom_pool_report(fd, axiom, KleisliPool(fd, random_kleisli_subjects(fd, Z3, 2, 14)),
                                strat, noun)
        assert got.to_dict() == want.to_dict(), axiom


# ---------------------------------------------------------------------------
# wirings: structure maps that select coordinates, one pass on codec stages


def _plain_points(stage, objs):
    """The generic points as composites of projections, not wirings."""
    points, walk = [], identity(stage)
    for k, o in enumerate(objs[:-1]):
        rest = kernel._nested(objs[k + 1:])
        points.append(compose(projection(0, o, rest), walk))
        walk = compose(projection(1, o, rest), walk)
    return points + [walk]


def _random_wiring(rng, objs, depth=3):
    """A recipe of a random wiring over the points of `objs`, and its codomain."""
    k = rng.randrange(len(objs))
    if depth == 0 or rng.random() < 0.25:
        return ("pt", k), objs[k]
    recipe, cod = _random_wiring(rng, objs, depth - 1)
    move = rng.choice(["pair", "proj", "swap", "id"])
    if move == "pair":
        other, cod2 = _random_wiring(rng, objs, depth - 1)
        return ("pair", recipe, other), Product(cod, cod2)
    if move == "proj" and isinstance(cod, Product):
        i = rng.randrange(2)
        return ("proj", i, recipe), (cod.left, cod.right)[i]
    if move == "swap" and isinstance(cod, Product):
        return ("swap", recipe), Product(cod.right, cod.left)
    return ("id", recipe), cod


def _build(cat, points, recipe):
    tag, *args = recipe
    if tag == "pt":
        return points[args[0]]
    if tag == "pair":
        return cat.pair(_build(cat, points, args[0]), _build(cat, points, args[1]))
    m = _build(cat, points, args[-1])
    if tag == "id":
        return cat.compose(cat.identity(m.cod), m)
    left, right = m.cod.left, m.cod.right
    if tag == "proj":
        return cat.compose(cat.proj(args[0], left, right), m)
    return cat.compose(cat.pair(cat.proj(1, left, right), cat.proj(0, left, right)), m)


@pytest.mark.parametrize("texts", [
    ["Z7", "Z7", "Z7"],
    ["(Z5 x Z5)", "(Z5 x Z5)"],
    ["(Z4 x Z6)", "(Z4 x Z6)"],
    ["Stream(Z3,2)", "Stream(Z3,2)", "Stream(Z3,2)"],
    ["Z4", "(Z5 x Z5)", "Stream(Z3,2)"],
], ids=lambda texts: " ; ".join(texts))
def test_a_wiring_matches_its_nodes_and_its_closure(texts):
    # the fused pass against the per-node batches (a cat that shares nothing
    # builds no wiring) and the closure, at every code of the stage
    objs = [parse_space(t) for t in texts]
    cat, unshared = BaseCat(fd), _Unshared(fd)
    stage, points = cat.generic_points(objs)
    plain = _plain_points(stage, objs)
    last = len(objs) - 1
    rng = random.Random(" ; ".join(texts))
    recipes = [("pair", ("pt", 0), ("pt", 0)), ("pair", ("pt", last), ("pt", 0))]
    recipes += [_random_wiring(rng, objs)[0] for _ in range(12)]
    codes = np.arange(codec_size(stage), dtype=np.int64)
    chunk = np.random.default_rng(1).permutation(codes)[:100]
    for recipe in recipes:
        wired, nodes = _build(cat, points, recipe), _build(unshared, plain, recipe)
        assert isinstance(wired, Wiring) and not isinstance(nodes, Wiring), recipe
        want = [encode(wired.cod, wired.fn(decode(stage, int(i)))) for i in codes]
        wire = wiring_codes(stage, wired.cols)
        assert (wire is None) == (not wired.moves) == (want == codes.tolist()), recipe
        assert (codes if wire is None else wire(codes)).tolist() == want, recipe
        assert codes_at(nodes, codes).tolist() == want, recipe
        assert codes_at(wired, chunk).tolist() == [want[i] for i in chunk], recipe


def test_the_identity_on_codes_gives_the_request_itself(monkeypatch):
    # CdC7a's <<x,y>,<z,w>> into (A x A) x (A x A) has the stage's codes, so
    # d2f is read at the chunk's own codes
    a = parse_space("(Z5 x Z5)")
    pool = SubjectPool(fd, fd.random_subjects(a, 1, seed=3))
    cat, (f,) = pool.cat(), pool.subjects
    ((_, lhs, _),) = axiom_sides(cat, fd, "CdC7a", [f])
    stage, (x, y, z, w) = cat.generic_points([a] * 4)
    wire = cat.pair(cat.pair(x, y), cat.pair(z, w))
    idx = np.arange(MAX_CHUNK, 2 * MAX_CHUNK, dtype=np.int64)
    assert not wire.moves and wire.table_builder(idx) is idx and codes_at(wire, idx) is idx
    d2, reads = cat.derivative(cat.derivative(f)), []
    read = kernel.codes_at
    monkeypatch.setattr(kernel, "codes_at", lambda m, i=None: reads.append((m, i)) or read(m, i))
    codes_at(lhs, idx)
    assert any(m is d2 and i is idx for m, i in reads)
    assert wire.table is None and not idx.flags.writeable  # a builder cannot write into it


def _count_tabulations(monkeypatch):
    calls = []
    real = morphisms.tabulate
    monkeypatch.setattr(morphisms, "tabulate", lambda m: calls.append(m) or real(m))
    return calls


def _cdc7a_pool(strat, subjects=3):
    """CdC7a for `subjects` subjects on (Z5 x Z5), sharing one BaseCat: its
    wiring <<x,z>,<y,w>>, and whether that had a table after each subject."""
    a = parse_space("(Z5 x Z5)")
    cat = BaseCat(fd)
    stage, (x, y, z, w) = cat.generic_points([a] * 4)
    assert codec_size(stage) > BLOCK
    swap, tabled = cat.pair(cat.pair(x, z), cat.pair(y, w)), []
    for f in fd.random_subjects(a, subjects, seed=11):
        tabulate(fd.derivative(fd.derivative(f)))  # as CdC6 leaves it in a run
        ((_, lhs, rhs),) = axiom_sides(cat, fd, "CdC7a", [f])
        assert morphisms_equal(lhs, rhs, strat).passed
        tabled.append(swap.table is not None)
    return swap, tabled


def test_a_pool_tabulates_a_large_wiring_once_a_second_subject_reads_it(monkeypatch):
    calls = _count_tabulations(monkeypatch)
    swap, tabled = _cdc7a_pool(EqualityStrategy(Exhaustive(), bound=10**6))
    assert tabled == [False, True, True] and sum(m is swap for m in calls) == 1
    assert swap.table.dtype == np.uint32  # 390,625 codes of (A x A) x (A x A)
    assert not any(isinstance(m, Wiring) and m is not swap for m in calls)


def test_a_pool_of_one_subject_never_tabulates_a_large_wiring(monkeypatch):
    calls = _count_tabulations(monkeypatch)
    swap, tabled = _cdc7a_pool(EqualityStrategy(Exhaustive(), bound=10**6), subjects=1)
    assert tabled == [False] and swap.given == 5 ** 8
    assert not any(isinstance(m, Wiring) for m in calls)


def test_a_sampled_comparison_never_tabulates_a_large_wiring(monkeypatch):
    calls = _count_tabulations(monkeypatch)
    swap, tabled = _cdc7a_pool(EqualityStrategy(Sampled(FIRST_CHUNK + MAX_CHUNK + 100, 5)))
    assert tabled == [False] * 3 and not any(isinstance(m, Wiring) for m in calls)
