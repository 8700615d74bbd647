"""Change actions: carriers acted on by a monoid of changes.

A ChangeActionStruct is the quintuple (A, dA, oplus, plus, zero) with
oplus: A x dA -> A the action, plus: dA x dA -> dA the change monoid,
and zero: 1 -> dA its unit. `check_change_action` verifies the monoid
and action laws (CA.1/CA.2) plus their map-level consequences;
`check_cad_derivative` verifies that a candidate df is a derivative of
f in the change-action sense (CAD.1/CAD.2). The laws are the rows `CA`,
`CA-maps` and `CAD` of `terms.LAWS`, where the action on an object A is
read as the variables `oplusA`, `plusA` and `zeroA`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import TypeMismatch
from .kernel import BaseCat, DifferenceModel
from .morphisms import (
    DEFAULT_STRATEGY,
    EqualityStrategy,
    LawReport,
    Morphism,
    report_from_equalities,
)
from .spaces import Product, Space, TERMINAL, format_space
from .terms import law_sides


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


def _action(ca: ChangeActionStruct, obj: str) -> dict:
    """The variables of `terms.LAWS` for the action on object `obj`."""
    return {"oplus" + obj: ca.oplus, "plus" + obj: ca.plus, "zero" + obj: ca.zero}


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
    cat, env = BaseCat(None), _action(ca, "A")
    pairs = law_sides(cat, "CA", env)
    if subjects is not None:
        f, g = subjects
        A = ca.base
        if f.dom == A and f.cod == A and g.cod == A and A == ca.delta:
            pairs += law_sides(cat, "CA-maps", dict(env, f=f, g=g))
    return report_from_equalities("CA1+CA2", model_tag, format_space(ca.base), pairs, strat)


def check_cad_derivative(
    f: Morphism,
    df: Morphism,
    ca_a: ChangeActionStruct,
    ca_b: ChangeActionStruct,
    strat: EqualityStrategy = DEFAULT_STRATEGY,
    model_tag: str = "-",
    cat=None,
) -> LawReport:
    """CAD.1 and CAD.2: df is a derivative of f for the given actions. A
    `cat` (a `BaseCat`) shared by the calls of a pool compiles the laws once."""
    pairs = cad_sides(f, df, ca_a, ca_b, cat or BaseCat(None))
    return report_from_equalities("CAD1+CAD2", model_tag, f.name, pairs, strat)


def cad_sides(f: Morphism, df: Morphism, ca_a: ChangeActionStruct, ca_b: ChangeActionStruct,
              cat) -> list:
    """The `(label, lhs, rhs)` clauses of CAD.1 and CAD.2, built through `cat`."""
    A, DA = ca_a.base, ca_a.delta
    if f.dom != A or f.cod != ca_b.base:
        raise TypeMismatch("f must map between the action carriers")
    if df.dom != Product(A, DA) or df.cod != ca_b.delta:
        raise TypeMismatch("df must map A x dA -> dB")
    env = dict(_action(ca_a, "A"), **_action(ca_b, "B"), f=f, df=df)
    return law_sides(cat, "CAD", env)
