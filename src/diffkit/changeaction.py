"""Change actions: carriers acted on by a monoid of changes.

A ChangeActionStruct is the quintuple (A, dA, oplus, plus, zero) with
oplus: A x dA -> A the action, plus: dA x dA -> dA the change monoid,
and zero: 1 -> dA its unit. `check_change_action` verifies the monoid
and action laws (CA.1/CA.2) plus their map-level consequences;
`check_cad_derivative` verifies that a candidate df is a derivative of
f in the change-action sense (CAD.1/CAD.2).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import TypeMismatch
from .kernel import (
    DifferenceModel,
    compose,
    identity,
    pair,
    projection,
    terminal_map,
)
from .morphisms import (
    DEFAULT_STRATEGY,
    EqualityStrategy,
    LawReport,
    Morphism,
    report_from_equalities,
)
from .spaces import Product, Space, TERMINAL, format_space


@dataclass
class ChangeActionStruct:
    base: Space
    delta: Space
    oplus: Morphism  # base x delta -> base
    plus: Morphism  # delta x delta -> delta
    zero: Morphism  # 1 -> delta

    def __post_init__(self):
        if self.oplus.dom != Product(self.base, self.delta) or self.oplus.cod != self.base:
            raise TypeMismatch("oplus must map base x delta -> base")
        if self.plus.dom != Product(self.delta, self.delta) or self.plus.cod != self.delta:
            raise TypeMismatch("plus must map delta x delta -> delta")
        if self.zero.dom != TERMINAL or self.zero.cod != self.delta:
            raise TypeMismatch("zero must map 1 -> delta")


def induced_action(model: DifferenceModel, space: Space) -> ChangeActionStruct:
    """The change action every object carries: delta = base, x (+) dx = x + eps(dx)."""
    return ChangeActionStruct(
        base=space,
        delta=space,
        oplus=model.oplus_map(space),
        plus=model.plus_map(space),
        zero=model.zero_point(space),
    )


def _zero_from(ca: ChangeActionStruct, dom: Space) -> Morphism:
    return compose(ca.zero, terminal_map(dom))


def check_change_action(
    ca: ChangeActionStruct,
    strat: EqualityStrategy = DEFAULT_STRATEGY,
    model_tag: str = "-",
    subjects: tuple[Morphism, Morphism] | None = None,
) -> LawReport:
    """CA.1 (monoid) and CA.2 (action) laws, plus their consequences.

    The consequences are the usual identities the laws buy at map
    level: sums and actions of constants-as-maps associate, unital
    changes vanish, and the action distributes over precomposition.
    When `subjects` supplies endomaps f, g on the carrier, the
    distribution clause is exercised with them as well.
    """
    A, D = ca.base, ca.delta
    dd = Product(D, D)

    pairs = []

    # CA.1: unit laws of +
    d1 = identity(D)
    zd = _zero_from(ca, D)
    pairs.append(("plus<x,0> = x", compose(ca.plus, pair(d1, zd)), d1))
    pairs.append(("plus<0,x> = x", compose(ca.plus, pair(zd, d1)), d1))

    # CA.1: associativity over delta^3
    x = projection(0, D, dd)
    y = compose(projection(0, D, D), projection(1, D, dd))
    z = compose(projection(1, D, D), projection(1, D, dd))
    lhs = compose(ca.plus, pair(x, compose(ca.plus, pair(y, z))))
    rhs = compose(ca.plus, pair(compose(ca.plus, pair(x, y)), z))
    pairs.append(("plus associativity", lhs, rhs))

    # CA.2: action unit
    a1 = identity(A)
    za = _zero_from(ca, A)
    pairs.append(("x (+) 0 = x", compose(ca.oplus, pair(a1, za)), a1))

    # CA.2: action associativity over A x delta^2
    xa = projection(0, A, dd)
    da = compose(projection(0, D, D), projection(1, A, dd))
    db = compose(projection(1, D, D), projection(1, A, dd))
    lhs = compose(ca.oplus, pair(xa, compose(ca.plus, pair(da, db))))
    rhs = compose(ca.oplus, pair(compose(ca.oplus, pair(xa, da)), db))
    pairs.append(("x (+) (a+b) = (x (+) a) (+) b", lhs, rhs))

    # consequences on maps: (f (+) g) . h = (f.h) (+) (g.h)
    if subjects is not None:
        f, g = subjects
        if f.dom == A and f.cod == A and g.cod == A and A == D:
            h = g
            fg = compose(ca.oplus, pair(f, g))
            pairs.append(
                ("(f (+) g).h = (f.h) (+) (g.h)",
                 compose(fg, h),
                 compose(ca.oplus, pair(compose(f, h), compose(g, h))))
            )

    return report_from_equalities("CA1+CA2", model_tag, format_space(A), pairs, strat)


def check_cad_derivative(
    f: Morphism,
    df: Morphism,
    ca_a: ChangeActionStruct,
    ca_b: ChangeActionStruct,
    strat: EqualityStrategy = DEFAULT_STRATEGY,
    model_tag: str = "-",
) -> LawReport:
    """CAD.1 and CAD.2: df is a derivative of f for the given actions."""
    A, DA = ca_a.base, ca_a.delta
    B, DB = ca_b.base, ca_b.delta
    if f.dom != A or f.cod != B:
        raise TypeMismatch("f must map between the action carriers")
    if df.dom != Product(A, DA) or df.cod != DB:
        raise TypeMismatch("df must map A x dA -> dB")

    pairs = []

    # CAD.1 over A x dA: f(x (+) y) = f(x) (+) df(x, y)
    x = projection(0, A, DA)
    lhs = compose(f, ca_a.oplus)
    rhs = compose(ca_b.oplus, pair(compose(f, x), df))
    pairs.append(("CAD1", lhs, rhs))

    # CAD.2 over A x dA x dA: df(x, y+z) = df(x,y) + df(x (+) y, z)
    x2 = projection(0, A, Product(DA, DA))
    y2 = compose(projection(0, DA, DA), projection(1, A, Product(DA, DA)))
    z2 = compose(projection(1, DA, DA), projection(1, A, Product(DA, DA)))
    lhs = compose(df, pair(x2, compose(ca_a.plus, pair(y2, z2))))
    rhs = compose(
        ca_b.plus,
        pair(
            compose(df, pair(x2, y2)),
            compose(df, pair(compose(ca_a.oplus, pair(x2, y2)), z2)),
        ),
    )
    pairs.append(("CAD2 regularity", lhs, rhs))

    # CAD.2 zero clause over A: df(x, 0) = 0
    zero_da = _zero_from(ca_a, A)
    lhs = compose(df, pair(identity(A), zero_da))
    rhs = compose(ca_b.zero, terminal_map(A))
    pairs.append(("CAD2 zero", lhs, rhs))

    return report_from_equalities("CAD1+CAD2", model_tag, f.name, pairs, strat)
