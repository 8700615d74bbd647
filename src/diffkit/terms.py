"""First-order combinator terms: parsing, typing, evaluation, rewriting.

Grammar:

    term := id | pi0 | pi1 | zero | one
          | (comp term term) | (pair term term) | (add term term)
          | (eps term) | (d term) | (prim NAME)

A term is its own syntax tree: an atom is its name (`"id"`), a primitive
is `("prim", NAME)`, and an operator node is `(op, *subterms)` in surface
order (`("comp", g, f)`). `ARITY` is what the printer and the parser read.

Terms are typed by unification against a model's ambient space
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
from typing import Optional, Union

from .errors import SizeExceeded, TermSyntaxError, TermTypeError
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
    Space,
    TERMINAL,
    derive_seed,
    flatten,
    sample_space,
)

Term = Union[str, tuple]

ATOMS = ("id", "pi0", "pi1", "zero", "one")
ARITY = {"comp": 2, "pair": 2, "add": 2, "eps": 1, "d": 1}


# ---------------------------------------------------------------------------
# surface syntax


def print_term(t: Term) -> str:
    if isinstance(t, str):
        return t
    return "(" + " ".join([t[0], *map(print_term, t[1:])]) + ")"


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
        if self.text[self.pos] != "(":
            head = self.word()
            if head not in ATOMS:
                self.fail(f"unknown atom {head!r}")
            return head
        self.pos += 1
        head = self.word()
        if head == "prim":
            out = (head, self.word())
        elif head in ARITY:
            out = (head, *[self.term() for _ in range(ARITY[head])])
        else:
            self.fail(f"unknown operator {head!r}")
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ")":
            self.fail("expected ')'")
        self.pos += 1
        return out


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
# typing by unification, then one pass from the typed tree to a morphism


@dataclass(frozen=True)
class _SVar:
    id: int


class _Subst:
    def __init__(self):
        self.next_id = 0
        self.bind: dict[int, object] = {}
        self.prims: list = []  # (name, dom, path) of each primitive, left to right
        self.cycle = None  # path of the first binding of an unknown inside itself

    def fresh(self) -> _SVar:
        self.next_id += 1
        return _SVar(self.next_id)

    def product(self, left, right) -> Product:
        """A product of unknowns bound to `left` and `right`; only such a
        product has `_SVar` parts, which is how `unify` tells it from a space."""
        lv, rv = self.fresh(), self.fresh()
        self.bind[lv.id], self.bind[rv.id] = left, right
        return Product(lv, rv)

    def find(self, t):
        while isinstance(t, _SVar) and t.id in self.bind:
            t = self.bind[t.id]
        return t

    def occurs(self, v: _SVar, t) -> bool:
        t = self.find(t)
        if isinstance(t, Product):
            return self.occurs(v, t.left) or self.occurs(v, t.right)
        return t == v

    def unify(self, a, b, path):
        a, b = self.find(a), self.find(b)
        if isinstance(a, _SVar) or isinstance(b, _SVar):
            v, t = (a, b) if isinstance(a, _SVar) else (b, a)
            if v != t:
                if self.cycle is None and self.occurs(v, t):
                    self.cycle = path
                self.bind[v.id] = t
            return
        if isinstance(a, Product) and isinstance(b, Product):
            self.unify(a.left, b.left, path)
            self.unify(a.right, b.right, path)
            return
        for p, other in ((a, b), (b, a)):
            if isinstance(p, Product) and isinstance(p.left, _SVar):
                raise TermTypeError(f"expected a product space, got {other}", path)
        if a != b:
            raise TermTypeError(f"cannot unify {a} with {b}", path)

    def resolve(self, t) -> Space:
        t = self.find(t)
        if isinstance(t, Product):
            return Product(self.resolve(t.left), self.resolve(t.right))
        return t


def _infer(t: Term, s: _Subst, path) -> tuple:
    """`(t, dom, cod, children)`, spaces still unknowns: one rule per node kind."""
    if t in ("pi0", "pi1"):
        lv, rv = s.fresh(), s.fresh()
        return (t, Product(lv, rv), rv if t == "pi1" else lv, ())
    if isinstance(t, str):
        a = s.fresh()
        return (t, a, a if t == "id" else TERMINAL if t == "one" else s.fresh(), ())
    if t[0] == "prim":
        a = s.fresh()
        s.prims.append((t[1], a, path))
        return (t, a, a, ())
    op = t[0]
    kids = [_infer(k, s, path + (i,)) for i, k in enumerate(t[1:])]
    d0, c0 = kids[0][1:3]
    if op == "eps":
        return (t, d0, c0, kids)
    if op == "d":
        return (t, s.product(d0, d0), c0, kids)
    d1, c1 = kids[1][1:3]
    if op == "comp":
        s.unify(c1, d0, path)
        return (t, d1, c0, kids)
    s.unify(d0, d1, path)
    if op == "pair":
        return (t, d0, s.product(c0, c1), kids)
    s.unify(c0, c1, path)
    return (t, d0, c0, kids)


def _build(node, s: _Subst, model: DifferenceModel) -> Morphism:
    """The morphism of an inferred node, once every unknown is bound."""
    t, dom, cod, kids = node
    if isinstance(t, str) or t[0] == "prim":
        dom = s.resolve(dom)
        if t == "id":
            return identity(dom)
        if t in ("pi0", "pi1"):
            return projection(int(t[2]), dom.left, dom.right)
        if t == "zero":
            return zero_map(dom, s.resolve(cod))
        if t == "one":
            return terminal_map(dom)
        return model.primitive(t[1], dom)
    op = {"comp": compose, "pair": pair, "add": add,
          "eps": model.epsilon, "d": model.derivative}[t[0]]
    return op(*[_build(k, s, model) for k in kids])


def interpret(
    t: Term,
    model: DifferenceModel,
    space: Optional[Space] = None,
    dom: Optional[Space] = None,
) -> Morphism:
    """The morphism of `t` in `model`.

    `dom` pins the whole root domain; `space` seeds its leftmost free
    leaf (derivative nodes double the domain themselves, so the hint
    names the base space). Leaves still free afterwards default to the
    hint or the model's ambient space.
    """
    s = _Subst()
    try:
        tree = _infer(t, s, ())
        if dom is not None:
            s.unify(tree[1], dom, ())
    except RecursionError:
        if s.cycle is None:
            raise
    # a space inside itself is infinite: unifying with it may never end, nor
    # may seeding the hint or resolving; an error met first is reported first
    if s.cycle is not None:
        raise TermTypeError("no space is a product with itself as a factor", s.cycle)
    if space is not None:
        target = s.find(tree[1])
        while isinstance(target, Product):
            target = s.find(target.left)
        if isinstance(target, _SVar):
            s.unify(target, space, ())
    fill = space if space is not None else model.default_space
    for vid in range(1, s.next_id + 1):
        v = s.find(_SVar(vid))
        if isinstance(v, _SVar):
            s.bind[v.id] = fill
    # every primitive is looked up before anything is built, so an unknown
    # one is reported ahead of a model refusing a derivative elsewhere
    for name, a, path in s.prims:
        try:
            model.primitive(name, s.resolve(a))
        except Exception as exc:
            raise TermTypeError(f"primitive {name!r} not available: {exc}", path)
    return _build(tree, s, model)


# ---------------------------------------------------------------------------
# symbolic differentiation


# Largest derivative `symbolic_derive` builds, in tree nodes: the chain rule
# copies the inner map, so each nested d makes a term about seven times larger.
MAX_DERIVED_NODES = 100_000


def _derived(t: Term) -> Term:
    """`_push_d(t)`; SizeExceeded when that has more than MAX_DERIVED_NODES
    nodes as a tree, where a shared subterm counts at every use."""
    out, sizes = _push_d(t), {}

    def size(u: Term) -> int:
        if id(u) not in sizes:
            sizes[id(u)] = 1 if isinstance(u, str) else 1 + sum(map(size, u[1:]))
        return sizes[id(u)]

    if size(out) > MAX_DERIVED_NODES:
        raise SizeExceeded(f"the derivative has more than {MAX_DERIVED_NODES} nodes")
    return out


def _normalize(t: Term) -> Term:
    if isinstance(t, str) or t[0] == "prim":
        return t
    kids = [_normalize(k) for k in t[1:]]
    return _derived(kids[0]) if t[0] == "d" else (t[0], *kids)


def _push_d(t: Term) -> Term:
    """Normal form of D[t] for an already-normalized t."""
    if t == "id":
        return "pi1"
    if t in ("pi0", "pi1"):
        return ("comp", t, "pi1")
    if t in ("zero", "one"):
        return t
    if t[0] in ("add", "eps", "pair"):
        return (t[0], *map(_push_d, t[1:]))
    if t[0] == "comp":
        g, f = t[1:]
        return ("comp", _push_d(g), ("pair", ("comp", f, "pi0"), _push_d(f)))
    # primitives and residual derivative towers stay symbolic
    return ("d", t)


def symbolic_derive(t: Term, order: int = 1) -> Term:
    """Differentiate `order` times, rewriting down to primitive leaves."""
    out = _normalize(t)
    for _ in range(order):
        out = _derived(out)
    return out


# ---------------------------------------------------------------------------
# random well-typed terms for the rewriter oracle


def _values_tame(space: Space, v, cap: float) -> bool:
    return all(isinstance(c, (int, float)) and math.isfinite(c) and abs(c) <= cap
               for c, kind in zip(flatten(space, v), space.ops.coords) if kind is None)


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
            atoms.append("id")
            if dom == space:
                atoms.extend(("prim", n) for n in usable)
        atoms.append("zero")
        if isinstance(dom, Product) and dom.left == dom.right == cod:
            atoms.extend(["pi0", "pi1"])
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
            return ("comp", gen(mid, cod, d - 1), gen(dom, mid, d - 1))
        if op == "add":
            return ("add", gen(dom, cod, d - 1), gen(dom, cod, d - 1))
        if op == "eps":
            return ("eps", gen(dom, cod, d - 1))
        if op == "pair":
            return ("pair", gen(dom, cod.left, d - 1), gen(dom, cod.right, d - 1))
        if op == "d":
            return ("d", gen(dom.left, cod, d - 1))
        return rng.choice(atoms)

    return gen(space, space, depth)
