"""First-order combinator terms: parsing, typing, evaluation, rewriting,
and the table of laws that diffkit checks.

Grammar:

    term := id | pi0 | pi1 | zero | one
          | (comp term term) | (pair term term) | (add term term)
          | (eps term) | (d term) | (prim NAME)

A term is its own syntax tree: an atom is its name (`"id"`), a primitive
is `("prim", NAME)`, and an operator node is `(op, *subterms)` in surface
order (`("comp", g, f)`). `ARITY` is what the printer and the parser read.

Laws (`LAWS`) are written in the same syntax with three additions: variable
atoms (subjects `f`, `g`, generic points `x y z w`, and maps a check binds,
such as an action's `oplusA`); the tangent bundle monad's `(T term)`, `eta`,
`mu` and `phi`; and atoms at named objects, such as `(zero A B)`, where
unification alone cannot fix a type.

Terms are typed by unification: `id`, `zero`, `one`, the projections and
the monad's maps are polymorphic, and a variable has the type of what it is
bound to. One evaluator builds every node through a category interface
(`kernel.BaseCat`, `monad.KleisliCat`): a typed term becomes a list of
steps, hash-consed so that a subterm met twice is built once. `interpret`
runs a term on a fresh `BaseCat`. `law_sides` compiles a law on a cat the
first time it reads a new tuple of types, keeps the steps on the cat, and
on a cat that shares its structure maps builds the steps that read no
variable at compile time. A law side whose type stays unknown is an error;
`interpret` fills such a type with the model's ambient space.

`symbolic_derive` rewrites an outer derivative down to the leaves using
the sum, pairing, projection and chain rules, leaving derivative nodes only
in towers over primitives; interpretation delegates those residual
derivatives to the model, so primitive derivative rules live in exactly one
place.
"""

from __future__ import annotations

import math
import random
import re
from typing import TYPE_CHECKING, NamedTuple, Optional, Union

from .errors import DiffkitError, InternalError, SizeExceeded, TermSyntaxError, TermTypeError
from .spaces import Product, Space, TERMINAL, derive_seed, flatten, sample_space

if TYPE_CHECKING:
    from .kernel import DifferenceModel
    from .morphisms import Morphism

Term = Union[str, tuple]

ATOMS = ("id", "pi0", "pi1", "zero", "one")
ARITY = {"comp": 2, "pair": 2, "add": 2, "eps": 1, "d": 1}
POINTS = ("x", "y", "z", "w")

# atom: (cat method, its leading constants, number of objects, the atom's
# (dom, cod) at those objects); a pair is a product with unknown parts
_ATOM_TYPES = {
    "id": ("identity", (), 1, lambda a: (a, a)),
    "pi0": ("proj", (0,), 2, lambda a, b: ((a, b), a)),
    "pi1": ("proj", (1,), 2, lambda a, b: ((a, b), b)),
    "zero": ("zero", (), 2, lambda a, b: (a, b)),
    "one": ("terminal", (), 1, lambda a: (a, TERMINAL)),
    "eta": ("eta", (), 1, lambda a: (a, (a, a))),
    "mu": ("mu", (), 1, lambda a: (((a, a), (a, a)), (a, a))),
    "phi": ("phi", (), 2, lambda a, b: (((a, b), (a, b)), ((a, a), (b, b)))),
}
_OPS = {"comp": "compose", "pair": "pair", "add": "add", "eps": "epsilon", "d": "derivative",
        "T": "T"}


# ---------------------------------------------------------------------------
# surface syntax


def print_term(t: Term) -> str:
    if isinstance(t, str):
        return t
    return "(" + " ".join([t[0], *map(print_term, t[1:])]) + ")"


_SPACE = re.compile(r"\s*")
_WORD = re.compile(r"[\w-]*")  # str.isalnum() characters, "_" and "-"


class _TermParser:
    def __init__(self, text: str, law: bool = False):
        self.text = text
        self.pos = 0
        self.law = law  # the law syntax: variables, T, eta, mu, phi, atoms at objects

    def skip_ws(self):
        self.pos = _SPACE.match(self.text, self.pos).end()

    def fail(self, msg: str):
        raise TermSyntaxError(msg, self.pos)

    def word(self) -> str:
        self.skip_ws()
        start = self.pos
        self.pos = _WORD.match(self.text, start).end()
        if self.pos == start:
            self.fail("expected a symbol")
        return self.text[start : self.pos]

    def term(self) -> Term:
        self.skip_ws()
        if self.pos >= len(self.text):
            self.fail("unexpected end of input")
        if self.text[self.pos] != "(":
            head = self.word()
            if head not in ATOMS and not self.law:
                self.fail(f"unknown atom {head!r}")
            return head
        self.pos += 1
        head = self.word()
        if head == "prim":
            out = (head, self.word())
        elif head in ARITY or self.law and head == "T":
            out = (head, *[self.term() for _ in range(ARITY.get(head, 1))])
        elif self.law and head in _ATOM_TYPES:
            out = (head, *[self.word() for _ in range(_ATOM_TYPES[head][2])])
        else:
            self.fail(f"unknown operator {head!r}")
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ")":
            self.fail("expected ')'")
        self.pos += 1
        return out


def parse_term(text: str, law: bool = False) -> Term:
    p = _TermParser(text, law)
    try:
        t = p.term()
    except RecursionError:
        p.fail("nested too deeply")
    p.skip_ws()
    if p.pos != len(text):
        p.fail("trailing input")
    return t


# ---------------------------------------------------------------------------
# typing by unification


class _V:
    """An unknown space; `ref` is what unification bound it to."""

    __slots__ = ("ref",)

    def __init__(self):
        self.ref = None


def _find(t):
    while type(t) is _V and t.ref is not None:
        t = t.ref
    return t


def _halves(t):
    return t if type(t) is tuple else (t.left, t.right) if isinstance(t, Product) else None


def _occurs(v: _V, t) -> bool:
    t = _find(t)
    return t is v or type(t) is tuple and (_occurs(v, t[0]) or _occurs(v, t[1]))


def _unify(a, b, path):
    a, b = _find(a), _find(b)
    if a is b:
        return
    if type(a) is _V or type(b) is _V:
        v, t = (a, b) if type(a) is _V else (b, a)
        if _occurs(v, t):
            raise TermTypeError("no space is a product with itself as a factor", path)
        v.ref = t
        return
    ha, hb = _halves(a), _halves(b)
    if ha is not None and hb is not None:
        _unify(ha[0], hb[0], path)
        _unify(ha[1], hb[1], path)
    elif type(a) is tuple or type(b) is tuple:
        raise TermTypeError(f"expected a product space, got {b if type(a) is tuple else a}", path)
    elif a != b:
        raise TermTypeError(f"cannot unify {a} with {b}", path)


def _resolve(t, fill: Optional[Space] = None):
    """The space `t` stands for; an unknown becomes `fill`, or without one
    is an error."""
    t = _find(t)
    if type(t) is tuple:
        return Product(_resolve(t[0], fill), _resolve(t[1], fill))
    if type(t) is _V:
        if fill is None:
            raise TermTypeError("the type of a law side stays unknown")
        t.ref = t = fill
    return t


class _Typing:
    """What typing one term, or one clause of a law, collects."""

    def __init__(self, env: dict):
        self.env = env  # variable -> morphism, object name -> space
        self.prims: list = []  # (name, dom, path) of each primitive, left to right
        self.points: dict = {}  # generic point -> its object; every point's domain is `stage`
        self.stage = _V()


def _infer(t: Term, ty: _Typing, path) -> tuple:
    """`(method, constants, dom, cod, children)`, spaces still unknowns:
    one rule per node kind."""
    if type(t) is str:
        if t in _ATOM_TYPES:
            return _atom(t, [_V() for _ in range(_ATOM_TYPES[t][2])])
        if t in ty.env:
            return ("var", (t,), ty.env[t].dom, ty.env[t].cod, ())
        if t not in POINTS:
            raise TermTypeError(f"{t!r} is not bound", path)
        if t not in ty.points:
            ty.points[t] = _V()
        return ("point", (t,), ty.stage, ty.points[t], ())
    op = t[0]
    if op == "prim":
        a = _V()
        ty.prims.append((t[1], a, path))
        return ("primitive", (t[1], a), a, a, ())
    if op in _ATOM_TYPES:
        return _atom(op, [ty.env[o] for o in t[1:]])
    kids = [_infer(k, ty, path + (i,)) for i, k in enumerate(t[1:])]
    d0, c0 = kids[0][2:4]
    if op == "eps":
        return (_OPS[op], (), d0, c0, kids)
    if op in ("d", "T"):
        return (_OPS[op], (), (d0, d0), c0 if op == "d" else (c0, c0), kids)
    d1, c1 = kids[1][2:4]
    if op == "comp":
        _unify(c1, d0, path)
        return ("compose", (), d1, c0, kids)
    _unify(d0, d1, path)
    if op == "pair":
        return ("pair", (), d0, (c0, c1), kids)
    _unify(c0, c1, path)
    return ("add", (), d0, c0, kids)


def _atom(name: str, objs: list) -> tuple:
    method, lead, _, typ = _ATOM_TYPES[name]
    return (method, (*lead, *objs), *typ(*objs), ())


# ---------------------------------------------------------------------------
# one evaluator: typed terms to hash-consed steps, run through a cat


class _Program:
    """Steps `(index, method, constants, indices of the argument steps)`,
    each distinct step once."""

    def __init__(self, fill: Optional[Space] = None):
        self.fill = fill  # what an unknown space becomes (`_resolve`)
        self.steps: list = []
        self.index: dict = {}
        self.bound: set[int] = set()  # the steps that read a variable

    def add(self, step) -> int:
        i = self.index.get(step)
        if i is None:
            i = self.index[step] = len(self.steps)
            self.steps.append((i, *step))
            if step[0] == "var" or not self.bound.isdisjoint(step[2]):
                self.bound.add(i)
        return i

    def emit(self, node, points: dict) -> int:
        method, consts, _, _, kids = node
        if method == "point":
            return points[consts[0]]
        refs = tuple([self.emit(k, points) for k in kids])
        return self.add((method, tuple([_resolve(c, self.fill) for c in consts]), refs))

    def clause(self, cat, ty: _Typing, nodes) -> list:
        """The steps of the roots `nodes` of one clause, after its generic
        points."""
        used = [p for p in POINTS if p in ty.points]
        points = {}
        if used:
            objs = tuple(_resolve(ty.points[p]) for p in used)
            _unify(ty.stage, cat.stage(objs), ())
            gp = self.add(("generic_points", (objs,), ()))
            points = {p: self.add(("point", (k,), (gp,))) for k, p in enumerate(used)}
        return [self.emit(n, points) for n in nodes]

    def for_cat(self, cat) -> tuple:
        """`(values, todo)` for `_run`: on a cat that shares its structure
        maps, the values of the steps that read no variable, built now."""
        steps, bound = self.steps, self.bound
        if not getattr(cat, "shares", False):
            return [None] * len(steps), steps
        values = _run(cat, None, [None] * len(steps), [s for s in steps if s[0] not in bound])
        return values, [s for s in steps if s[0] in bound]


def _run(cat, env, values: list, todo: list) -> list:
    """The values of the steps: `values` with those of `todo` filled in."""
    vals = values.copy()
    for i, method, consts, refs in todo:
        if method == "var":
            vals[i] = env[consts[0]]
        elif method == "point":
            vals[i] = vals[refs[0]][1][consts[0]]
        else:
            vals[i] = getattr(cat, method)(*consts, *[vals[r] for r in refs])
    return vals


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
    from .kernel import BaseCat  # kernel imports this module, for the law table

    ty = _Typing({})
    node = _infer(t, ty, ())
    if dom is not None:
        _unify(node[2], dom, ())
    if space is not None:
        target = _find(node[2])
        while _halves(target) is not None:
            target = _find(_halves(target)[0])
        if type(target) is _V:
            target.ref = space
    fill = space if space is not None else model.default_space
    # every primitive is looked up before anything is built, so an unknown
    # one is reported ahead of a model refusing a derivative elsewhere; a
    # factory that crashes otherwise is a bug, not bad input
    for name, a, path in ty.prims:
        try:
            model.primitive(name, _resolve(a, fill))
        except DiffkitError as exc:
            raise TermTypeError(f"primitive {name!r} not available: {exc}", path)
        except Exception as exc:
            raise InternalError(f"the factory of primitive {name!r} failed: {exc!r}") from exc
    prog, cat = _Program(fill), BaseCat(model)
    root = prog.emit(node, {})
    return _run(cat, {}, *prog.for_cat(cat))[root]


class Law(NamedTuple):
    """One row of `LAWS`. `arity` says how `kernel.axiom_sides` binds its
    subjects: 1 binds `f`, with `A` its domain and `B` its codomain; 2 also
    binds `g` (the one subject again when only one is given), with `C` its
    codomain, and `swap` exchanges them when only `g . f` composes the other
    way; "space" binds only the object `A`; None marks a law that its own
    check binds. `names` are the variables and objects the sides read."""

    arity: object
    swap: bool
    clauses: tuple  # (label, lhs, rhs), label verbatim: it seeds the comparison
    names: tuple


def law_sides(cat, law: str, env: dict) -> list:
    """The `(label, lhs, rhs)` morphisms of `LAWS[law]` under `env`
    (variable -> morphism, object -> space), built through `cat`. A label's
    `{f}` reads the name of `f`. `cat.compiled` keeps each law compiled for
    the types it last read: a pool of one type compiles it once."""
    row = LAWS[law]
    types = tuple([v if isinstance(v, Space) else (v.dom, v.cod)
                   for v in map(env.__getitem__, row.names)])
    compiled = cat.compiled.get(law)
    if compiled is None or compiled[0] != types:
        compiled = cat.compiled[law] = (types, *_compile(cat, row, env))
    _, clauses, values, todo = compiled
    vals = _run(cat, env, values, todo)
    return [(label.replace("{f}", env["f"].name) if "{f}" in label else label, vals[l], vals[r])
            for label, l, r in clauses]


def _compile(cat, row: Law, env: dict) -> tuple:
    """`(clauses, values, todo)`: each clause as `(label, lhs step, rhs
    step)`, and the steps of all of them for `_run`."""
    prog, clauses = _Program(), []
    for label, lhs, rhs in row.clauses:
        ty = _Typing(env)
        sides = _infer(lhs, ty, (0,)), _infer(rhs, ty, (1,))
        _unify(sides[0][2], sides[1][2], ())
        _unify(sides[0][3], sides[1][3], ())
        clauses.append((label, *prog.clause(cat, ty, sides)))
    return (clauses, *prog.for_cat(cat))


def _law(arity, *clauses, swap=False) -> Law:
    parsed = tuple((label, parse_term(lhs, law=True), parse_term(rhs, law=True))
                   for label, lhs, rhs in clauses)
    names = set()

    def collect(t):
        if isinstance(t, str):
            if t not in _ATOM_TYPES and t not in POINTS:
                names.add(t)
        elif t[0] in _ATOM_TYPES:
            names.update(t[1:])
        else:
            for k in t[1:]:
                collect(k)

    for _, lhs, rhs in parsed:
        collect(lhs)
        collect(rhs)
    return Law(arity, swap, parsed, tuple(sorted(names)))


_D2_CORNER = "(pair (pair x y) (pair z zero))"

LAWS = {
    # the coherence laws of a Cartesian difference category, and the
    # predicates `check` runs on request
    "CdC0": _law(1, ("f(x+eps y) = f x + eps(df<x,y>)", "(comp f (add x (eps y)))",
                     "(add (comp f x) (eps (comp (d f) (pair x y))))")),
    "CdC1": _law(2, ("d[f+g] = d[f]+d[g]", "(d (add f g))", "(add (d f) (d g))"),
                 ("d[0] = 0", "(d (zero A B))", "zero"),
                 ("d[eps f] = eps d[f]", "(d (eps f))", "(eps (d f))")),
    "CdC2": _law(1, ("df<x,y+z> = df<x,y> + df<x+eps y,z>", "(comp (d f) (pair x (add y z)))",
                     "(add (comp (d f) (pair x y)) (comp (d f) (pair (add x (eps y)) z)))"),
                 ("df<x,0> = 0", "(comp (d f) (pair x zero))", "zero")),
    "CdC3": _law("space", ("d[1] = pi1", "(d (id A))", "pi1"),
                 ("d[pi0] = pi0.pi1", "(d (pi0 A A))", "(comp pi0 pi1)"),
                 ("d[pi1] = pi1.pi1", "(d (pi1 A A))", "(comp pi1 pi1)")),
    "CdC4": _law(2, ("d<f,g> = <d f,d g>", "(d (pair f g))", "(pair (d f) (d g))"),
                 ("d[!] = !", "(d (one A))", "one")),
    "CdC5": _law(2, ("chain rule", "(d (comp g f))", "(comp (d g) (pair (comp f pi0) (d f)))"),
                 swap=True),
    "CdC6": _law(1, ("d2f<<x,y>,<0,z>> = df<x+eps y,z>",
                     "(comp (d (d f)) (pair (pair x y) (pair zero z)))",
                     "(comp (d f) (pair (add x (eps y)) z))")),
    "CdC7": _law(1, ("d2f<<x,y>,<z,0>> = d2f<<x,z>,<y,0>>",
                     "(comp (d (d f)) (pair (pair x y) (pair z zero)))",
                     "(comp (d (d f)) (pair (pair x z) (pair y zero)))")),
    "CdC6a": _law(1, ("d2f<<x,0>,<0,y>> = df<x,y>",
                      "(comp (d (d f)) (pair (pair x zero) (pair zero y)))",
                      "(comp (d f) (pair x y))")),
    "CdC7a": _law(1, ("d2f<<x,y>,<z,w>> = d2f<<x,z>,<y,w>>",
                      "(comp (d (d f)) (pair (pair x y) (pair z w)))",
                      "(comp (d (d f)) (pair (pair x z) (pair y w)))")),
    "E1": _law(2, ("eps(f+g) = eps f + eps g", "(eps (add f g))", "(add (eps f) (eps g))"),
               ("eps 0 = 0", "(eps (zero A B))", "zero")),
    "E2": _law(2, ("eps(g.f) = eps(g).f", "(eps (comp g f))", "(comp (eps g) f)"), swap=True),
    "E3": _law(2, ("eps pi0 = pi0 . eps(1)", "(eps (pi0 B C))", "(comp pi0 (eps id))"),
               ("eps pi1 = pi1 . eps(1)", "(eps (pi1 B C))", "(comp pi1 (eps id))"),
               ("eps<f,g> = <eps f,eps g>", "(eps (pair f g))", "(pair (eps f) (eps g))")),
    "CDC2-additivity": _law(1, ("df<x,y+z> = df<x,y> + df<x,z>",
                                "(comp (d f) (pair x (add y z)))",
                                "(add (comp (d f) (pair x y)) (comp (d f) (pair x z)))"),
                            ("df<x,0> = 0", "(comp (d f) (pair x zero))", "zero")),
    "DEps-i": _law(1, ("df<x,eps y> = eps(df)<x,y>", "(comp (d f) (pair x (eps y)))",
                       "(comp (eps (d f)) (pair x y))")),
    "DEps-ii": _law(1, ("eps(df)<x+eps y,z> = eps(df)<x+eps^2 y,z>",
                        "(comp (eps (d f)) (pair (add x (eps y)) z))",
                        "(comp (eps (d f)) (pair (add x (eps (eps y))) z))")),
    "DEps-iii": _law(1, ("eps^2(d2f) = eps^3(d2f) on <<x,y>,<z,0>>",
                         f"(comp (eps (eps (d (d f)))) {_D2_CORNER})",
                         f"(comp (eps (eps (eps (d (d f))))) {_D2_CORNER})")),
    "Eq1-strong": _law(1, ("eps(d2f) = eps^2(d2f) on <<x,y>,<z,0>>",
                           f"(comp (eps (d (d f))) {_D2_CORNER})",
                           f"(comp (eps (eps (d (d f)))) {_D2_CORNER})")),
    "Linearity": _law(1, ("d[f] = f.pi1", "(d f)", "(comp f pi1)")),
    "EpsLinearity": _law(1, ("d[f] = f.pi1", "(d (eps f))", "(comp (eps f) pi1)")),
    "EpsVanishing": _law("space", ("eps(1) = 0", "(eps (id A))", "zero")),
    # flatness of the induced action (`kernel.check_flatness`)
    "F2": _law(None, ("d[oplus] = oplus.pi1", "(d oplusA)", "(comp oplusA pi1)"),
               ("d[plus] = plus.pi1", "(d plusA)", "(comp plusA pi1)")),
    "F3": _law(None, ("eps(d {f}) = d {f}<x,eps y>", "(eps (d f))",
                      "(comp (d f) (pair pi0 (eps pi1)))")),
    "OplusEps": _law(None, ("oplus<f,g> = f + eps g", "(comp oplusA (pair f g))",
                            "(add f (eps g))")),
    # change actions (`changeaction`): the action on A is oplusA, plusA, zeroA
    "CA": _law(None, ("plus<x,0> = x", "(comp plusA (pair id (comp zeroA one)))", "id"),
               ("plus<0,x> = x", "(comp plusA (pair (comp zeroA one) id))", "id"),
               ("plus associativity", "(comp plusA (pair x (comp plusA (pair y z))))",
                "(comp plusA (pair (comp plusA (pair x y)) z))"),
               ("x (+) 0 = x", "(comp oplusA (pair id (comp zeroA one)))", "id"),
               ("x (+) (a+b) = (x (+) a) (+) b", "(comp oplusA (pair x (comp plusA (pair y z))))",
                "(comp oplusA (pair (comp oplusA (pair x y)) z))")),
    "CA-maps": _law(None, ("(f (+) g).h = (f.h) (+) (g.h)", "(comp (comp oplusA (pair f g)) g)",
                           "(comp oplusA (pair (comp f g) (comp g g)))")),
    "CAD": _law(None, ("CAD1", "(comp f oplusA)", "(comp oplusB (pair (comp f pi0) df))"),
                ("CAD2 regularity", "(comp df (pair x (comp plusA (pair y z))))",
                 "(comp plusB (pair (comp df (pair x y)) (comp df (pair (comp oplusA (pair x y)) z))))"),
                ("CAD2 zero", "(comp df (pair id (comp zeroA one)))", "(comp zeroB one)")),
    # the tangent bundle monad (`monad`)
    "MonadLaws": _law(None, ("mu . eta_T = 1", "(comp (mu A) eta)", "id"),
                      ("mu . T(eta) = 1", "(comp (mu A) (T eta))", "id"),
                      ("mu . mu_T = mu . T(mu)", "(comp (mu A) mu)", "(comp (mu A) (T mu))")),
    "Tangent-f": _law(None, ("T({f}).eta = eta.{f}", "(comp (T f) eta)", "(comp eta f)"),
                      ("mu.T^2({f}) = T({f}).mu", "(comp mu (T (T f)))", "(comp (T f) mu)"),
                      ("T(d[{f}]) = d[T({f})].phi", "(T (d f))", "(comp (d (T f)) phi)"),
                      ("T(eps {f}) = eps T({f})", "(T (eps f))", "(eps (T f))")),
    "Tangent-fg": _law(None, ("T(f+g) = T(f)+T(g)", "(T (add f g))", "(add (T f) (T g))")),
    "Tangent-A": _law(None, ("T(0) = 0", "(T (zero A A))", "zero"),
                      ("T(plus) = plus x plus", "(T plusA)",
                       "(pair (comp plusA pi0) (comp plusA pi1))"),
                      ("eps(mu) = mu . eps(1)", "(eps (mu A))", "(comp mu (eps id))"),
                      ("eps(eta) = eta . eps(1)", "(eps (eta A))", "(comp eta (eps id))"),
                      ("eps(phi) = phi . eps(1)", "(eps (phi A A))", "(comp phi (eps id))")),
    "LinearAlgebra": _law(None, ("nu . eta = 1", "(comp nu eta)", "id"),
                          ("nu . T(nu) = nu . mu", "(comp nu (T nu))", "(comp nu mu)")),
}


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
        except DiffkitError:
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
