"""Tangent bundle monad, its Kleisli category, and linear algebras.

T doubles every object (T(A) = A x A) and sends f to <f . pi0, d[f]>.
The unit pairs a point with the zero tangent; the multiplication folds
a second-order tangent down with the infinitesimal extension:

    eta = <1, 0>        mu = <pi00, pi10 + pi01 + eps(pi11)>

Kleisli maps A -> T(B) are kept as their two components. Composition
has a closed form and a definitional form (mu . T(g) . f); because the
closed form is the easiest place to get wrong, every call cross-checks
the two under an oracle strategy (8 sampled points unless the caller
passes another).

The monad's laws are rows of `terms.LAWS`, where `T`, `eta`, `mu` and
`phi` are part of the syntax; `TangentCat` builds them with the functions
below. The Kleisli category is itself a difference category: `KleisliCat`
runs the axiom rows of `kernel` there, with generalized points of A taken
as base maps into T(A). Its subjects form a `KleisliPool`, which stacks
each component across the pool, so each law program, with the self-check
of each of its compositions, runs once per pool where the components fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import DomainMismatch, InternalError
from .kernel import (
    COHERENCE,
    BaseCat,
    DifferenceModel,
    SubjectPool,
    add,
    axiom_pool_report,
    compose,
    identity,
    is_group_homomorphism,
    is_linear,
    pair,
    product_map,
    projection,
    zero_map,
)
from .morphisms import (
    DEFAULT_STRATEGY,
    EqualityStrategy,
    LawReport,
    Morphism,
    Sampled,
    Unstacked,
    morphisms_equal,
    report_from_equalities,
)
from .spaces import Product, Space, TERMINAL, format_space
from .terms import law_sides

DEFAULT_ORACLE = EqualityStrategy(Sampled(8, 1009))


# ---------------------------------------------------------------------------
# the functor, unit, multiplication


def T_space(a: Space) -> Space:
    return Product(a, a)


def T_map(model: DifferenceModel, f: Morphism) -> Morphism:
    m = pair(compose(f, projection(0, f.dom, f.dom)), model.derivative(f))
    m.name = f"T({f.name})"
    return m


def eta(model: DifferenceModel, a: Space) -> Morphism:
    m = pair(identity(a), zero_map(a, a))
    m.name = "eta"
    return m


def mu(model: DifferenceModel, a: Space) -> Morphism:
    ta = T_space(a)
    p0, p1 = projection(0, ta, ta), projection(1, ta, ta)
    q0, q1 = projection(0, a, a), projection(1, a, a)
    pi00 = compose(q0, p0)
    pi10 = compose(q1, p0)
    pi01 = compose(q0, p1)
    pi11 = compose(q1, p1)
    m = pair(pi00, add(add(pi10, pi01), model.epsilon(pi11)))
    m.name = "mu"
    return m


def phi(a: Space, b: Space) -> Morphism:
    """T(A x B) -> T(A) x T(B); swaps the two middle coordinates."""
    pa, pb = projection(0, a, b), projection(1, a, b)
    m = pair(product_map(pa, pa), product_map(pb, pb))
    m.name = "phi"
    return m


def phi_inv(a: Space, b: Space) -> Morphism:
    qa0, qa1 = projection(0, a, a), projection(1, a, a)
    qb0, qb1 = projection(0, b, b), projection(1, b, b)
    m = pair(product_map(qa0, qb0), product_map(qa1, qb1))
    m.name = "phi_inv"
    return m


class TangentCat(BaseCat):
    """`BaseCat` with the monad's structure maps, for the laws of the monad
    (`terms.LAWS`): `T`, `eta`, `mu` and `phi`, built by the functions
    above and hash-consed like the rest."""

    def T(self, f):
        return self._cons(T_map, self.model, f)

    def eta(self, a):
        return self._cons(eta, self.model, a)

    def mu(self, a):
        return self._cons(mu, self.model, a)

    def phi(self, a, b):
        return self._cons(phi, a, b)


def check_monad_laws(
    model: DifferenceModel, a: Space, strat: EqualityStrategy = DEFAULT_STRATEGY
) -> LawReport:
    pairs = law_sides(TangentCat(model), "MonadLaws", {"A": a})
    return report_from_equalities("MonadLaws", model.tag, format_space(a), pairs, strat)


def check_tangent_identities(
    model: DifferenceModel,
    a: Space,
    subjects: Sequence[Morphism],
    strat: EqualityStrategy = DEFAULT_STRATEGY,
) -> LawReport:
    """Naturality of eta and mu plus the T/derivative interplay identities."""
    cat = TangentCat(model)
    pairs = [c for f in subjects for c in law_sides(cat, "Tangent-f", {"f": f})]
    if len(subjects) >= 2:
        pairs += law_sides(cat, "Tangent-fg", {"f": subjects[0], "g": subjects[1]})
    pairs += law_sides(cat, "Tangent-A", {"A": a, "plusA": model.plus_map(a)})
    return report_from_equalities("TangentIdentities", model.tag, format_space(a), pairs, strat)


# ---------------------------------------------------------------------------
# Kleisli maps


@dataclass(eq=False)
class KleisliMap:
    dom: Space
    cod: Space
    f0: Morphism
    f1: Morphism

    def __post_init__(self):
        for c in (self.f0, self.f1):
            if c.dom != self.dom or c.cod != self.cod:
                raise DomainMismatch("Kleisli components must share dom and cod")

    @property
    def name(self) -> str:
        return f"<{self.f0.name}|{self.f1.name}>"

    def as_base(self) -> Morphism:
        return pair(self.f0, self.f1)

    def __call__(self, x):
        return (self.f0(x), self.f1(x))


def kleisli_from_base(m: Morphism, cod: Space) -> KleisliMap:
    return KleisliMap(m.dom, cod,
                      compose(projection(0, cod, cod), m),
                      compose(projection(1, cod, cod), m))


def kleisli_identity(model: DifferenceModel, a: Space) -> KleisliMap:
    return KleisliMap(a, a, identity(a), zero_map(a, a))


def kleisli_proj(i: int, a: Space, b: Space) -> KleisliMap:
    p = Product(a, b)
    c = a if i == 0 else b
    return KleisliMap(p, c, projection(i, a, b), zero_map(p, c))


def kleisli_zero(a: Space, b: Space) -> KleisliMap:
    return KleisliMap(a, b, zero_map(a, b), zero_map(a, b))


def kleisli_add(f: KleisliMap, g: KleisliMap) -> KleisliMap:
    return KleisliMap(f.dom, f.cod, add(f.f0, g.f0), add(f.f1, g.f1))


def kleisli_pair(f: KleisliMap, g: KleisliMap) -> KleisliMap:
    if f.dom != g.dom:
        raise DomainMismatch("Kleisli pairing needs a shared domain")
    return KleisliMap(f.dom, Product(f.cod, g.cod),
                      pair(f.f0, g.f0), pair(f.f1, g.f1))


def kleisli_epsilon(model: DifferenceModel, f: KleisliMap) -> KleisliMap:
    return KleisliMap(f.dom, f.cod, model.epsilon(f.f0), model.epsilon(f.f1))


def kleisli_derivative(model: DifferenceModel, f: KleisliMap, derive=None) -> KleisliMap:
    """d of each component, by `derive` (a cat's memo; None: `model.derivative`)."""
    derive = derive or model.derivative
    return KleisliMap(Product(f.dom, f.dom), f.cod, derive(f.f0), derive(f.f1))


def closed_form(model: DifferenceModel, g: KleisliMap, f: KleisliMap, derive) -> KleisliMap:
    """The composite g . f in closed form, <g0.f0, d[g0]<f0,f1> + g1.(f0 (+) f1)>,
    with d[g0] from `derive`."""
    c0 = compose(g.f0, f.f0)
    c1 = add(compose(derive(g.f0), pair(f.f0, f.f1)),
             compose(g.f1, add(f.f0, model.epsilon(f.f1))))
    return KleisliMap(f.dom, g.cod, c0, c1)


def kleisli_compose(
    model: DifferenceModel,
    g: KleisliMap,
    f: KleisliMap,
    oracle_strat: EqualityStrategy = DEFAULT_ORACLE,
    derive=None,
) -> KleisliMap:
    """`closed_form` of g . f, with d[g0] from `derive` (a cat's memo; None:
    `model.derivative`).

    Every call recomputes the definitional form mu . T(g) . f and asserts
    agreement under `oracle_strat`; a disagreement is a bug in diffkit
    (InternalError), reported with the point and both values. On stacked
    maps (`KleisliPool`) one check covers every subject at the same points;
    a disagreement there raises `Unstacked`, so the pool runs subject by
    subject and the failing subject's own check gives the point.
    """
    if f.cod != g.dom:
        raise DomainMismatch(f"cannot compose {g.name} after {f.name}")
    out = closed_form(model, g, f, derive or model.derivative)
    definitional = compose(mu(model, g.cod),
                           compose(T_map(model, g.as_base()), f.as_base()))
    rep = morphisms_equal(out.as_base(), definitional, oracle_strat)
    if not rep.passed:
        if rep.misses is not None:  # stacked maps: a row failed, and its point is its own
            raise Unstacked("the Kleisli composition self-check fails on a stacked pool")
        cx = rep.counterexample
        where = (f" at {cx['input']}: the closed form gives {cx['lhs']}, "
                 f"mu . T(g) . f gives {cx['rhs']}" if cx else "")
        raise InternalError(f"Kleisli composition self-check failed{where}")
    return out


def sharp(model: DifferenceModel, k: KleisliMap) -> Morphism:
    """Kleisli extension T(A) -> T(B): <f0.pi0, f1.pi0 + d[f0] + eps(d[f1])>."""
    a = k.dom
    p0 = projection(0, a, a)
    m = pair(
        compose(k.f0, p0),
        add(add(compose(k.f1, p0), model.derivative(k.f0)),
            model.epsilon(model.derivative(k.f1))),
    )
    m.name = f"{k.name}#"
    return m


# ---------------------------------------------------------------------------
# the Kleisli category as a target of the axiom rows


class KleisliCat:
    """Difference-category interface over Kleisli maps.

    A generalized point of A at stage S is a base map S -> T(A), so the
    point stage for k points of A is the base product of k copies of
    T(A) with its tautological projections split into components.
    `oracle_strat` is the self-check of every composition. One `BaseCat`
    builds the point stages, so its structure maps are shared, and takes the
    derivatives of components: `derivatives` is the memo of a pool's
    components (`BaseCat`). Kleisli maps themselves are not memoized, so a
    law compiled on this cat (`compiled`) keeps none and builds every step,
    self-checks included, each time it runs: once per pool when the pool is
    stacked (`KleisliPool`), else once per subject.
    """

    def __init__(self, model: DifferenceModel, oracle_strat: EqualityStrategy = DEFAULT_ORACLE,
                 derivatives: dict | None = None):
        self.model = model
        self.oracle_strat = oracle_strat
        self.base = BaseCat(model, derivatives)
        self.compiled: dict = {}

    def identity(self, a):
        return kleisli_identity(self.model, a)

    def compose(self, g, f):
        return kleisli_compose(self.model, g, f, self.oracle_strat, self.base.derivative)

    def pair(self, f, g):
        return kleisli_pair(f, g)

    def proj(self, i, a, b):
        return kleisli_proj(i, a, b)

    def zero(self, a, b):
        return kleisli_zero(a, b)

    def add(self, f, g):
        return kleisli_add(f, g)

    def terminal(self, a):
        return kleisli_zero(a, TERMINAL)

    def epsilon(self, f):
        return kleisli_epsilon(self.model, f)

    def derivative(self, f):
        return kleisli_derivative(self.model, f, self.base.derivative)

    def stage(self, objs: Sequence[Space]) -> Space:
        return self.base.stage([T_space(o) for o in objs])

    def generic_points(self, objs: Sequence[Space]):
        stage, chains = self.base.generic_points([T_space(o) for o in objs])
        points = [kleisli_from_base(chain, o) for chain, o in zip(chains, objs)]
        return stage, points

    def equal(self, f, g, strat):
        return morphisms_equal(f.as_base(), g.as_base(), strat)


def random_kleisli_subjects(
    model: DifferenceModel, space: Space, count: int, seed: int
) -> list[KleisliMap]:
    comps = model.random_subjects(space, 2 * count, seed)
    return [
        KleisliMap(space, space, comps[2 * i], comps[2 * i + 1]) for i in range(count)
    ]


class KleisliPool(SubjectPool):
    """A `SubjectPool` of Kleisli maps. A subject's parts are its two
    components, so a stacked pool is a Kleisli map of stacked components,
    and its laws run in the Kleisli category (`KleisliCat`, with
    `oracle_strat` the self-check of every composition)."""

    def __init__(self, model: DifferenceModel, subjects: Sequence[KleisliMap],
                 oracle_strat: EqualityStrategy = DEFAULT_ORACLE):
        super().__init__(model, subjects)
        self.oracle_strat = oracle_strat

    @staticmethod
    def parts(k: KleisliMap) -> tuple:
        return k.f0, k.f1

    @staticmethod
    def assemble(parts: tuple) -> KleisliMap:
        f0, f1 = parts
        return KleisliMap(f0.dom, f0.cod, f0, f1)

    def cat(self) -> KleisliCat:
        return KleisliCat(self.model, self.oracle_strat, self.derivatives)


def check_kleisli_cdc(
    model: DifferenceModel,
    a: Space,
    strat: EqualityStrategy = DEFAULT_STRATEGY,
    subjects: int = 8,
    seed: int = 0,
    oracle_strat: EqualityStrategy = DEFAULT_ORACLE,
) -> list[LawReport]:
    """The full coherence suite, run inside the Kleisli category on one
    `KleisliPool`.

    When the base infinitesimal extension is zero (the smooth model),
    the Kleisli derivative is additive in its second argument as well,
    so CDC2-additivity is appended there.
    """
    pool = KleisliPool(model, random_kleisli_subjects(model, a, subjects, seed), oracle_strat)
    axioms = [*COHERENCE, *(["CDC2-additivity"] if model.tag == "smooth" else [])]
    reports = (axiom_pool_report(model, ax, pool, strat, "random kleisli subjects")
               for ax in axioms)
    return [r for r in reports if r is not None]


# ---------------------------------------------------------------------------
# linear T-algebras


@dataclass
class AlgebraCandidate:
    space: Space
    nu: Morphism  # T(space) -> space


def free_algebra(model: DifferenceModel, a: Space) -> AlgebraCandidate:
    return AlgebraCandidate(T_space(a), mu(model, a))


def check_linear_algebra(
    model: DifferenceModel,
    cand: AlgebraCandidate,
    strat: EqualityStrategy = DEFAULT_STRATEGY,
) -> LawReport:
    """Algebra laws nu.eta = 1 and nu.T(nu) = nu.mu, plus linearity of nu.

    In the finite-difference model a passing candidate decomposes as
    nu(x, y) = x + e(y) with e an endomorphism; e is extracted as
    nu(0, -) and both the homomorphism property and the decomposition
    are re-verified.
    """
    a, nu = cand.space, cand.nu
    if nu.dom != T_space(a) or nu.cod != a:
        raise DomainMismatch("algebra map must have type T(A) -> A")
    pairs = law_sides(TangentCat(model), "LinearAlgebra", {"nu": nu})
    linear, lin_rep = is_linear(model, nu, strat)
    rep = report_from_equalities("LinearAlgebra", model.tag, format_space(a), pairs, strat)
    rep.checked += lin_rep.checked
    rep.violations += lin_rep.violations
    if rep.counterexample is None and lin_rep.counterexample is not None:
        rep.counterexample = dict(lin_rep.counterexample, clause="nu linearity")

    if rep.passed and model.tag == "findiff":
        e = compose(nu, pair(zero_map(a, a), identity(a)))
        e.name = "e"
        if not is_group_homomorphism(e, strat):
            rep.violations += 1
            rep.counterexample = {"clause": "extracted e = nu(0,-) is not additive"}
        else:
            p0, p1 = projection(0, a, a), projection(1, a, a)
            recon = add(p0, compose(e, p1))
            check = morphisms_equal(nu, recon, strat)
            rep.checked += check.checked
            if not check.passed:
                rep.violations += 1
                rep.counterexample = dict(check.counterexample,
                                          clause="nu != pi0 + e(pi1)")
    return rep
