"""Cartesian closed structure over finite carriers, and the curry laws.

Exponentials are materialized eagerly: an element of A => B is a full
lookup table, stored as a tuple parallel to the enumeration of A. That
keeps equality decidable, which the lambda-layer law checks need, at
the price of rejecting non-finite spaces with NotFinite.

The checks below run in the finite-difference model, where the
exponential of two groups carries the pointwise group structure and
the difference combinator of a curried map works out to

    d[curry f](x, u)(y) = f(x + u, y) - f(x, y)
"""

from __future__ import annotations

import random

import numpy as np

from .errors import InvalidArgument, NotFinite
from .kernel import (
    DifferenceModel,
    add,
    compose,
    identity,
    pair,
    projection,
    zero_map,
)
from .morphisms import (
    DEFAULT_STRATEGY,
    EqualityStrategy,
    LawReport,
    Morphism,
    from_table,
    report_from_equalities,
)
from .spaces import (
    DEFAULT_ENUM_BOUND,
    FunctionSpace,
    Product,
    Space,
    codec_size,
    derive_seed,
    encode,
    format_space,
    iter_space,
)


def _require_finite(space: Space, what: str):
    n = codec_size(space)
    if n is None or n > DEFAULT_ENUM_BOUND:
        raise NotFinite(f"{what} needs a finite space, got {format_space(space)}")
    return n


def function_space(arg: Space, res: Space) -> FunctionSpace:
    _require_finite(arg, "an exponential argument")
    _require_finite(res, "an exponential result")
    return FunctionSpace(arg, res)


def ev(a: Space, b: Space) -> Morphism:
    """Evaluation (A => B) x A -> B."""
    fs = function_space(a, b)
    dom = Product(fs, a)
    return Morphism(
        dom, b,
        lambda p, _a=a: p[0][encode(_a, p[1])],
        name="ev",
    )


def curry(f: Morphism) -> Morphism:
    """A x B -> C  to  A -> (B => C), tabulating the second argument."""
    if not isinstance(f.dom, Product):
        raise NotFinite("curry needs a product domain")
    a, b = f.dom.left, f.dom.right
    _require_finite(b, "curry's tabulated argument")
    fs = function_space(b, f.cod)
    args = list(iter_space(b))
    m = Morphism(
        a, fs,
        lambda x, _f=f.fn, _args=args: tuple(_f((x, y)) for y in _args),
        model=f.model,
        name=f"curry({f.name})",
    )
    return m


def uncurry(g: Morphism) -> Morphism:
    if not isinstance(g.cod, FunctionSpace):
        raise NotFinite("uncurry needs a function-space codomain")
    b, c = g.cod.arg, g.cod.res
    return Morphism(
        Product(g.dom, b), c,
        lambda p, _g=g.fn, _b=b: _g(p[0])[encode(_b, p[1])],
        model=g.model,
        name=f"uncurry({g.name})",
    )


def sw(a: Space, b: Space, c: Space) -> Morphism:
    """(A x B) x C -> (A x C) x B, swapping the last two arguments."""
    dom = Product(Product(a, b), c)
    cod = Product(Product(a, c), b)
    return Morphism(dom, cod,
                    lambda p: ((p[0][0], p[1]), p[0][1]),
                    name="sw")


def random_map(dom: Space, cod: Space, seed: int, name: str = "t") -> Morphism:
    """Uniform lookup table between finite spaces."""
    n = _require_finite(dom, "a random table domain")
    m = _require_finite(cod, "a random table codomain")
    rng = random.Random(derive_seed(seed, "table", format_space(dom), format_space(cod)))
    tbl = np.array([rng.randrange(m) for _ in range(n)], dtype=np.int64)
    return from_table(dom, cod, tbl, name=name)


# ---------------------------------------------------------------------------
# law checks (finite-difference model only)


def check_closed_left_additive(
    model: DifferenceModel,
    f: Morphism,
    g: Morphism,
    strat: EqualityStrategy = DEFAULT_STRATEGY,
) -> LawReport:
    """curry(f+g) = curry(f)+curry(g) and curry(0) = 0."""
    a, b = f.dom.left, f.dom.right
    pairs = [
        ("curry(f+g) = curry f + curry g",
         curry(add(f, g)), add(curry(f), curry(g))),
        ("curry 0 = 0",
         curry(zero_map(f.dom, f.cod)), zero_map(a, function_space(b, f.cod))),
    ]
    return report_from_equalities("ClosedLeftAdditive", model.tag, f.name, pairs, strat)


def _partial_first_arg(model: DifferenceModel, f: Morphism) -> Morphism:
    """d[f] . <pi0 x 1, pi1 x 0> : (A x A) x B -> C, the first-argument
    partial derivative that gets curried in the lambda law."""
    a, b = f.dom.left, f.dom.right
    dom = Product(Product(a, a), b)
    pp = projection(0, Product(a, a), b)
    x = compose(projection(0, a, a), pp)
    u = compose(projection(1, a, a), pp)
    y = projection(1, Product(a, a), b)
    arg = pair(pair(x, y), pair(u, zero_map(dom, b)))
    return compose(model.derivative(f), arg)


def check_dlambda_axioms(
    model: DifferenceModel,
    f: Morphism,
    strat: EqualityStrategy = DEFAULT_STRATEGY,
) -> LawReport:
    """The two curry coherence laws for the difference structure."""
    pairs = [
        ("d[curry f] = curry(partial d[f])",
         model.derivative(curry(f)), curry(_partial_first_arg(model, f))),
        ("curry(eps f) = eps(curry f)",
         curry(model.epsilon(f)), model.epsilon(curry(f))),
    ]
    return report_from_equalities("CdLambda1+2", model.tag, f.name, pairs, strat)


def check_ev_derivative_identities(
    model: DifferenceModel,
    g: Morphism,
    f: Morphism,
    strat: EqualityStrategy = DEFAULT_STRATEGY,
) -> LawReport:
    """Both decompositions of d[ev . <curry(g), f>] for g: AxB -> C, f: A -> B."""
    a, b = g.dom.left, g.dom.right
    c = g.cod
    ta = Product(a, a)
    p0, p1 = projection(0, a, a), projection(1, a, a)
    df = model.derivative(f)
    dcg = model.derivative(curry(g))
    dg = model.derivative(g)
    evm = ev(b, c)

    lhs = model.derivative(compose(evm, pair(curry(g), f)))

    f_p0 = compose(f, p0)
    # (i): ev . <d[curry g], f.pi0> + d[g] . <<pi0+eps(pi1), f.pi0>, <0, d[f]>>
    rhs_i = add(
        compose(evm, pair(dcg, f_p0)),
        compose(dg, pair(pair(add(p0, model.epsilon(p1)), f_p0),
                         pair(zero_map(ta, a), df))),
    )
    # (ii): ev . <d[curry g], f.pi0 + eps(d[f])> + d[g] . <<pi0, f.pi0>, <0, d[f]>>
    rhs_ii = add(
        compose(evm, pair(dcg, add(f_p0, model.epsilon(df)))),
        compose(dg, pair(pair(p0, f_p0), pair(zero_map(ta, a), df))),
    )
    pairs = [
        ("ev-derivative decomposition (i)", lhs, rhs_i),
        ("ev-derivative decomposition (ii)", lhs, rhs_ii),
    ]
    return report_from_equalities("EvDerivative", model.tag, f"{g.name};{f.name}", pairs, strat)


def run_lambda_suite(
    model: DifferenceModel,
    max_size: int = 4,
    subjects: int = 20,
    seed: int = 0,
    strat: EqualityStrategy = DEFAULT_STRATEGY,
) -> list[LawReport]:
    """Random-subject sweep of the closed-structure laws on small spaces."""
    from .spaces import CyclicGroup

    pool = [CyclicGroup(n) for n in range(2, max_size + 1)]
    pool.append(Product(CyclicGroup(2), CyclicGroup(2)))
    pool = [s for s in pool if codec_size(s) <= max_size]
    if not pool:
        raise InvalidArgument(f"no space has at most {max_size} elements; max_size must be >= 2")
    reports = []
    rng = random.Random(derive_seed(seed, "lambda-suite"))
    for i in range(subjects):
        a = rng.choice(pool)
        b = rng.choice(pool)
        c = rng.choice(pool)
        g = random_map(Product(a, b), c, derive_seed(seed, "lambda-g", i), name=f"g{i}")
        g2 = random_map(Product(a, b), c, derive_seed(seed, "lambda-g2", i), name=f"h{i}")
        fmap = random_map(a, b, derive_seed(seed, "lambda-f", i), name=f"f{i}")
        reports.append(check_closed_left_additive(model, g, g2, strat))
        reports.append(check_dlambda_axioms(model, g, strat))
        reports.append(check_ev_derivative_identities(model, g, fmap, strat))
        # curry/uncurry are mutually inverse
        pairs = [
            ("uncurry(curry g) = g", uncurry(curry(g)), g),
            ("curry(uncurry k) = k", curry(uncurry(curry(g))), curry(g)),
        ]
        reports.append(report_from_equalities("CurryRoundTrip", model.tag, g.name, pairs, strat))
    swm = sw(pool[0], pool[0], pool[0])
    ss = compose(swm, sw(pool[0], pool[0], pool[0]))
    reports.append(report_from_equalities(
        "SwInvolution", model.tag, format_space(pool[0]),
        [("sw . sw = 1", ss, identity(ss.dom))], strat))
    return reports
