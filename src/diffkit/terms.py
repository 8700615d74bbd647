"""First-order combinator terms: parsing, typing, evaluation, rewriting.

Grammar:

    term := id | pi0 | pi1 | zero | one
          | (comp term term) | (pair term term) | (add term term)
          | (eps term) | (d term) | (prim NAME)

Terms are typechecked by unification against a model's ambient space
(primitives are endomaps of a concrete space; `id`, `zero`, `one` and
the projections are polymorphic). `symbolic_derive` rewrites an outer
derivative down to the leaves using the sum, pairing, projection and
chain rules, leaving derivative nodes only in towers over primitives;
interpretation delegates those residual derivatives to the model, so
primitive derivative rules live in exactly one place.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

from .errors import TermSyntaxError, TermTypeError
from .kernel import (
    DifferenceModel,
    add,
    compose,
    identity,
    pair,
    projection,
    terminal_map,
    zero_map,
)
from .morphisms import Morphism
from .spaces import (
    Product,
    Real,
    Space,
    TERMINAL,
    derive_seed,
    sample_space,
)


@dataclass(frozen=True)
class Term:
    pass


@dataclass(frozen=True)
class TId(Term):
    pass


@dataclass(frozen=True)
class TProj(Term):
    index: int


@dataclass(frozen=True)
class TZero(Term):
    pass


@dataclass(frozen=True)
class TOne(Term):
    pass


@dataclass(frozen=True)
class TComp(Term):
    g: Term
    f: Term


@dataclass(frozen=True)
class TPair(Term):
    f: Term
    g: Term


@dataclass(frozen=True)
class TAdd(Term):
    f: Term
    g: Term


@dataclass(frozen=True)
class TEps(Term):
    f: Term


@dataclass(frozen=True)
class TD(Term):
    f: Term


@dataclass(frozen=True)
class TPrim(Term):
    name: str


# ---------------------------------------------------------------------------
# surface syntax


def print_term(t: Term) -> str:
    if isinstance(t, TId):
        return "id"
    if isinstance(t, TProj):
        return f"pi{t.index}"
    if isinstance(t, TZero):
        return "zero"
    if isinstance(t, TOne):
        return "one"
    if isinstance(t, TComp):
        return f"(comp {print_term(t.g)} {print_term(t.f)})"
    if isinstance(t, TPair):
        return f"(pair {print_term(t.f)} {print_term(t.g)})"
    if isinstance(t, TAdd):
        return f"(add {print_term(t.f)} {print_term(t.g)})"
    if isinstance(t, TEps):
        return f"(eps {print_term(t.f)})"
    if isinstance(t, TD):
        return f"(d {print_term(t.f)})"
    if isinstance(t, TPrim):
        return f"(prim {t.name})"
    raise TypeError(t)


class _TermParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def fail(self, msg: str):
        raise TermSyntaxError(msg, self.pos)

    def word(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] in "_-"
        ):
            self.pos += 1
        if self.pos == start:
            self.fail("expected a symbol")
        return self.text[start : self.pos]

    def term(self) -> Term:
        self.skip_ws()
        if self.pos >= len(self.text):
            self.fail("unexpected end of input")
        if self.text[self.pos] == "(":
            self.pos += 1
            head = self.word()
            if head == "comp":
                g = self.term()
                f = self.term()
                out: Term = TComp(g, f)
            elif head == "pair":
                f = self.term()
                g = self.term()
                out = TPair(f, g)
            elif head == "add":
                f = self.term()
                g = self.term()
                out = TAdd(f, g)
            elif head == "eps":
                out = TEps(self.term())
            elif head == "d":
                out = TD(self.term())
            elif head == "prim":
                out = TPrim(self.word())
            else:
                self.fail(f"unknown operator {head!r}")
            self.skip_ws()
            if self.pos >= len(self.text) or self.text[self.pos] != ")":
                self.fail("expected ')'")
            self.pos += 1
            return out
        head = self.word()
        if head == "id":
            return TId()
        if head == "pi0":
            return TProj(0)
        if head == "pi1":
            return TProj(1)
        if head == "zero":
            return TZero()
        if head == "one":
            return TOne()
        self.fail(f"unknown atom {head!r}")


def parse_term(text: str) -> Term:
    p = _TermParser(text)
    try:
        t = p.term()
    except RecursionError:
        p.fail("nested too deeply")
    p.skip_ws()
    if p.pos != len(text):
        p.fail("trailing input")
    return t


# ---------------------------------------------------------------------------
# typechecking by unification


@dataclass(frozen=True)
class _SVar:
    id: int


class _Subst:
    def __init__(self):
        self.next_id = 0
        self.bind: dict[int, object] = {}

    def fresh(self) -> _SVar:
        self.next_id += 1
        return _SVar(self.next_id)

    def find(self, t):
        while isinstance(t, _SVar) and t.id in self.bind:
            t = self.bind[t.id]
        return t

    def unify(self, a, b, path):
        a, b = self.find(a), self.find(b)
        if isinstance(a, _SVar):
            if a != b:
                self.bind[a.id] = b
            return
        if isinstance(b, _SVar):
            self.bind[b.id] = a
            return
        if isinstance(a, Product) and isinstance(b, Product):
            self.unify(a.left, b.left, path)
            self.unify(a.right, b.right, path)
            return
        if isinstance(a, _PairOf) or isinstance(b, _PairOf):
            pa = a if isinstance(a, _PairOf) else b
            other = b if isinstance(a, _PairOf) else a
            if isinstance(other, Product):
                self.unify(pa.left, other.left, path)
                self.unify(pa.right, other.right, path)
                return
            if isinstance(other, _PairOf):
                self.unify(pa.left, other.left, path)
                self.unify(pa.right, other.right, path)
                return
            raise TermTypeError(f"expected a product space, got {other}", path)
        if a != b:
            raise TermTypeError(f"cannot unify {a} with {b}", path)

    def resolve(self, t, path):
        t = self.find(t)
        if isinstance(t, _SVar):
            raise TermTypeError("ambiguous space; supply --space", path)
        if isinstance(t, _PairOf):
            return Product(self.resolve(t.left, path), self.resolve(t.right, path))
        if isinstance(t, Product):
            return Product(self.resolve(t.left, path), self.resolve(t.right, path))
        return t


@dataclass(frozen=True)
class _PairOf:
    """A product whose components are still unification variables."""

    left: object
    right: object


@dataclass
class TypedTerm:
    term: Term
    dom: Space
    cod: Space
    children: list


def _infer(t: Term, model: DifferenceModel, subst: _Subst, path):
    if isinstance(t, TId):
        a = subst.fresh()
        return (t, a, a, [])
    if isinstance(t, TProj):
        l, r = subst.fresh(), subst.fresh()
        return (t, _PairOf(l, r), l if t.index == 0 else r, [])
    if isinstance(t, TZero):
        return (t, subst.fresh(), subst.fresh(), [])
    if isinstance(t, TOne):
        return (t, subst.fresh(), TERMINAL, [])
    if isinstance(t, TPrim):
        a = subst.fresh()
        return (t, a, a, [])
    if isinstance(t, TComp):
        g = _infer(t.g, model, subst, path + (0,))
        f = _infer(t.f, model, subst, path + (1,))
        subst.unify(f[2], g[1], path)
        return (t, f[1], g[2], [g, f])
    if isinstance(t, TPair):
        f = _infer(t.f, model, subst, path + (0,))
        g = _infer(t.g, model, subst, path + (1,))
        subst.unify(f[1], g[1], path)
        return (t, f[1], _PairOf(f[2], g[2]), [f, g])
    if isinstance(t, TAdd):
        f = _infer(t.f, model, subst, path + (0,))
        g = _infer(t.g, model, subst, path + (1,))
        subst.unify(f[1], g[1], path)
        subst.unify(f[2], g[2], path)
        return (t, f[1], f[2], [f, g])
    if isinstance(t, TEps):
        f = _infer(t.f, model, subst, path + (0,))
        return (t, f[1], f[2], [f])
    if isinstance(t, TD):
        f = _infer(t.f, model, subst, path + (0,))
        return (t, _PairOf(f[1], f[1]), f[2], [f])
    raise TermTypeError(f"unknown node {t!r}", path)


def _resolve_tree(node, subst: _Subst, model: DifferenceModel, path) -> TypedTerm:
    t, dom, cod, children = node
    rdom = subst.resolve(dom, path)
    rcod = subst.resolve(cod, path)
    if isinstance(t, TPrim):
        try:
            model.primitive(t.name, rdom)
        except Exception as exc:
            raise TermTypeError(f"primitive {t.name!r} not available: {exc}", path)
    return TypedTerm(
        t, rdom, rcod,
        [_resolve_tree(c, subst, model, path + (i,)) for i, c in enumerate(children)],
    )


def typecheck(
    t: Term,
    model: DifferenceModel,
    space: Optional[Space] = None,
    dom: Optional[Space] = None,
) -> TypedTerm:
    """Resolve every node's (dom, cod).

    `dom` pins the whole root domain; `space` seeds its leftmost free
    leaf (derivative nodes double the domain themselves, so the hint
    names the base space). Leaves still free afterwards default to the
    hint or the model's ambient space.
    """
    subst = _Subst()
    tree = _infer(t, model, subst, ())
    if dom is not None:
        subst.unify(tree[1], dom, ())
    if space is not None:
        target = subst.find(tree[1])
        while isinstance(target, (_PairOf, Product)):
            target = subst.find(target.left)
        if isinstance(target, _SVar):
            subst.unify(target, space, ())
    for vid in range(1, subst.next_id + 1):
        v = subst.find(_SVar(vid))
        if isinstance(v, _SVar):
            subst.bind[v.id] = space if space is not None else model.default_space
    return _resolve_tree(tree, subst, model, ())


def interpret_typed(tt: TypedTerm, model: DifferenceModel) -> Morphism:
    t = tt.term
    if isinstance(t, TId):
        return identity(tt.dom)
    if isinstance(t, TProj):
        return projection(t.index, tt.dom.left, tt.dom.right)
    if isinstance(t, TZero):
        return zero_map(tt.dom, tt.cod)
    if isinstance(t, TOne):
        return terminal_map(tt.dom)
    if isinstance(t, TPrim):
        return model.primitive(t.name, tt.dom)
    if isinstance(t, TComp):
        return compose(interpret_typed(tt.children[0], model),
                       interpret_typed(tt.children[1], model))
    if isinstance(t, TPair):
        return pair(interpret_typed(tt.children[0], model),
                    interpret_typed(tt.children[1], model))
    if isinstance(t, TAdd):
        return add(interpret_typed(tt.children[0], model),
                   interpret_typed(tt.children[1], model))
    if isinstance(t, TEps):
        return model.epsilon(interpret_typed(tt.children[0], model))
    if isinstance(t, TD):
        return model.derivative(interpret_typed(tt.children[0], model))
    raise TermTypeError(f"unknown node {t!r}", ())


def interpret(
    t: Term,
    model: DifferenceModel,
    space: Optional[Space] = None,
    dom: Optional[Space] = None,
) -> Morphism:
    return interpret_typed(typecheck(t, model, space, dom), model)


# ---------------------------------------------------------------------------
# symbolic differentiation


def _normalize(t: Term) -> Term:
    if isinstance(t, TD):
        return _push_d(_normalize(t.f))
    if isinstance(t, TComp):
        return TComp(_normalize(t.g), _normalize(t.f))
    if isinstance(t, TPair):
        return TPair(_normalize(t.f), _normalize(t.g))
    if isinstance(t, TAdd):
        return TAdd(_normalize(t.f), _normalize(t.g))
    if isinstance(t, TEps):
        return TEps(_normalize(t.f))
    return t


def _push_d(t: Term) -> Term:
    """Normal form of D[t] for an already-normalized t."""
    if isinstance(t, TId):
        return TProj(1)
    if isinstance(t, TProj):
        return TComp(TProj(t.index), TProj(1))
    if isinstance(t, TZero):
        return TZero()
    if isinstance(t, TOne):
        return TOne()
    if isinstance(t, TAdd):
        return TAdd(_push_d(t.f), _push_d(t.g))
    if isinstance(t, TEps):
        return TEps(_push_d(t.f))
    if isinstance(t, TPair):
        return TPair(_push_d(t.f), _push_d(t.g))
    if isinstance(t, TComp):
        return TComp(_push_d(t.g), TPair(TComp(t.f, TProj(0)), _push_d(t.f)))
    # primitives and residual derivative towers stay symbolic
    return TD(t)


def symbolic_derive(t: Term, order: int = 1) -> Term:
    """Differentiate `order` times, rewriting down to primitive leaves."""
    out = _normalize(t)
    for _ in range(order):
        out = _push_d(out)
    return out


# ---------------------------------------------------------------------------
# random well-typed terms for the rewriter oracle


def _values_tame(space: Space, v, cap: float) -> bool:
    if isinstance(space, Real):
        return all(isinstance(c, (int, float)) and math.isfinite(c) and abs(c) <= cap
                   for c in v)
    if isinstance(space, Product):
        return _values_tame(space.left, v[0], cap) and _values_tame(space.right, v[1], cap)
    return True


def random_term(
    model: DifferenceModel,
    space: Space,
    depth: int,
    seed: int,
    value_cap: Optional[float] = None,
) -> Term:
    """A random term typed `space -> space` in the given model.

    With `value_cap` set (used for real carriers), candidates whose
    evaluation or first derivative blows past the cap on probe points
    are rejected and regenerated deterministically.
    """
    if value_cap is not None:
        attempt = 0
        while True:
            t = _random_term_once(model, space, depth, derive_seed(seed, "try", attempt))
            attempt += 1
            try:
                m = interpret(t, model, space)
                d = model.derivative(m)
                # `interpret` may type the term on a domain other than `space`
                probes = sample_space(d.dom, 12, derive_seed(seed, "term-probes"))
                ok = all(
                    _values_tame(m.cod, m(p[0]), value_cap)
                    and _values_tame(m.cod, d(p), value_cap)
                    for p in probes
                )
            except OverflowError:
                ok = False
            if ok:
                return t
    return _random_term_once(model, space, depth, seed)


def _random_term_once(
    model: DifferenceModel, space: Space, depth: int, seed: int
) -> Term:
    rng = random.Random(derive_seed(seed, "term"))
    prims = model.primitive_names()
    # drop primitives that do not instantiate on this space
    usable = []
    for name in prims:
        try:
            model.primitive(name, space)
            usable.append(name)
        except Exception:
            continue

    pp = Product(space, space)

    def gen(dom: Space, cod: Space, d: int) -> Term:
        atoms: list[Term] = []
        if dom == cod:
            atoms.append(TId())
            if dom == space:
                atoms.extend(TPrim(n) for n in usable)
        atoms.append(TZero())
        if isinstance(dom, Product) and dom.left == dom.right == cod:
            atoms.extend([TProj(0), TProj(1)])
        if d <= 0:
            return rng.choice(atoms)
        ops = ["comp", "add", "eps", "atom"]
        if isinstance(cod, Product):
            ops.append("pair")
        if isinstance(dom, Product) and dom.left == dom.right:
            ops.append("d")
        op = rng.choice(ops)
        if op == "comp":
            mid = rng.choice([space, pp])
            return TComp(gen(mid, cod, d - 1), gen(dom, mid, d - 1))
        if op == "add":
            return TAdd(gen(dom, cod, d - 1), gen(dom, cod, d - 1))
        if op == "eps":
            return TEps(gen(dom, cod, d - 1))
        if op == "pair":
            return TPair(gen(dom, cod.left, d - 1), gen(dom, cod.right, d - 1))
        if op == "d":
            return TD(gen(dom.left, cod, d - 1))
        return rng.choice(atoms)

    return gen(space, space, depth)
