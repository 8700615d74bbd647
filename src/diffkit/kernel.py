"""Model-independent combinator algebra and the executable axiom suite.

The combinators (identity, composition, pairing, projections, sums,
zero maps) are shared by every model. Each model contributes an
infinitesimal extension `epsilon` and a difference combinator
`derivative`; the axiom checkers below turn the coherence laws of a
Cartesian difference category into extensional morphism equalities.

The laws are rows of one table, `terms.LAWS`, written as term equations;
`axiom_sides` binds an axiom's subjects as its row says, and one evaluator
(`terms.law_sides`) builds both sides through a small category interface:
`BaseCat` here, a Kleisli adapter in `monad`. So the same rows check the
base models and the Kleisli category of the tangent bundle monad.
Generalized points x, y, z, w inside a law are tautological projections
from a product stage, which makes pointwise equality over the stage
equivalent to quantifying the law over sampled/enumerated element points.

Every subject of a pool is compared at the same points, so a pool of
subjects on one small codec domain is stacked into one map with a row per
subject (`SubjectPool`; a pool of Kleisli maps, one per component), and
each law program runs once for the whole pool (`stacked_report`).
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (DiffkitError, DomainMismatch, InternalError, ModelRestriction, ShapeMismatch,
                     UnknownPrimitive)
from .morphisms import (
    DEFAULT_STRATEGY,
    MAX_CHUNK,
    EqualityStrategy,
    LawReport,
    Morphism,
    Unstacked,
    Wiring,
    codes_at,
    domain_codes,
    morphisms_equal,
    no_closure,
    report_from_equalities,
    table_dtype,
    to_jsonable,
    wiring,
)
from .spaces import (
    Product,
    Space,
    TERMINAL,
    add_elem,
    codec_size,
    const_batch,
    coord_width,
    derive_seed,
    elements_equal,
    format_space,
    iter_space,
    neg_elem,
    pair_batch,
    sample_space,
    space_size,
    split_batch,
    table_codec_size,
    v_add,
    v_neg,
    zero_elem,
)
from .terms import LAWS, law_sides


def _filled(dom: Space, cod: Space, idx, value) -> np.ndarray:
    """The element `value` of `cod` at every requested point of `dom`: at
    each code of a batch of any shape between codec spaces, else at each row."""
    if idx is None:
        return const_batch(cod, value, codec_size(dom))
    codes = table_codec_size(dom) and table_codec_size(cod)
    return const_batch(cod, value, idx.shape if codes else len(idx))


def _merge_model(*ms: Morphism) -> Optional[str]:
    tags = {m.model for m in ms if m.model is not None}
    if len(tags) > 1:
        raise DomainMismatch(f"mixed model tags {tags}")
    return tags.pop() if tags else None


def _rows(*ms: Morphism) -> Optional[int]:
    """The subject rows of a map built from `ms`: those of any stacked one."""
    return next((m.rows for m in ms if m.rows is not None), None)


# ---------------------------------------------------------------------------
# combinators


def identity(space: Space) -> Morphism:
    return Morphism(space, space, lambda x: x, name="id",
                    table_builder=lambda idx=None: domain_codes(space, idx))


def projection(i: int, left: Space, right: Space) -> Morphism:
    if i not in (0, 1):
        raise DomainMismatch("projection index must be 0 or 1")
    dom = Product(left, right)
    cod = left if i == 0 else right

    def build(idx=None):
        return split_batch(dom, domain_codes(dom, idx), i)

    return Morphism(dom, cod, (lambda x: x[0]) if i == 0 else (lambda x: x[1]),
                    name=f"pi{i}", table_builder=build)


def terminal_map(space: Space) -> Morphism:
    return Morphism(space, TERMINAL, lambda x: (), name="!",
                    table_builder=lambda idx=None: _filled(space, TERMINAL, idx, ()))


def zero_map(dom: Space, cod: Space) -> Morphism:
    z = zero_elem(cod)
    return Morphism(dom, cod, lambda x, _z=z: _z, name="0",
                    table_builder=lambda idx=None: _filled(dom, cod, idx, z))


def const_map(dom: Space, cod: Space, value) -> Morphism:
    return Morphism(dom, cod, lambda x, _v=value: _v, name="const",
                    table_builder=lambda idx=None: _filled(dom, cod, idx, value))


def compose(g: Morphism, f: Morphism) -> Morphism:
    if f.cod != g.dom:
        raise DomainMismatch(f"cannot compose {g!r} after {f!r}")

    def build(idx=None):
        tf = codes_at(f, idx)
        return None if tf is None else codes_at(g, tf)

    return Morphism(
        f.dom, g.cod,
        lambda x, _f=f.fn, _g=g.fn: _g(_f(x)),
        model=_merge_model(f, g),
        name=f"({g.name} . {f.name})",
        table_builder=build,
        rows=_rows(f, g),
    )


def pair(f: Morphism, g: Morphism) -> Morphism:
    if f.dom != g.dom:
        raise DomainMismatch(f"pairing needs a shared domain: {f!r}, {g!r}")
    cod = Product(f.cod, g.cod)

    def build(idx=None):
        tf, tg = codes_at(f, idx), codes_at(g, idx)
        return None if tf is None or tg is None else pair_batch(cod, tf, tg)

    return Morphism(
        f.dom, cod,
        lambda x, _f=f.fn, _g=g.fn: (_f(x), _g(x)),
        model=_merge_model(f, g),
        name=f"<{f.name},{g.name}>",
        table_builder=build,
        rows=_rows(f, g),
    )


def add(f: Morphism, g: Morphism) -> Morphism:
    if f.dom != g.dom or f.cod != g.cod:
        raise DomainMismatch(f"sum needs matching shapes: {f!r}, {g!r}")
    cod = f.cod

    def build(idx=None):
        tf, tg = codes_at(f, idx), codes_at(g, idx)
        return None if tf is None or tg is None else v_add(cod, tf, tg)

    return Morphism(
        f.dom, cod,
        lambda x, _f=f.fn, _g=g.fn, _c=cod: add_elem(_c, _f(x), _g(x)),
        model=_merge_model(f, g),
        name=f"({f.name} + {g.name})",
        table_builder=build,
        rows=_rows(f, g),
    )


def pointwise(f: Morphism, name: str, op: Callable, v_op: Callable,
              model: Optional[str] = None) -> Morphism:
    """`f` followed by `op(f.cod, element)`, and by `v_op(f.cod, batch)` on
    its batches. By axiom E2, eps(f) = eps(1) . f, so the module and stream
    epsilons are such maps, as are negation and the scalar primitives. An
    OverflowError of `v_op` reaches `codes_at`, which takes the closure."""

    def build(idx=None):
        tf = codes_at(f, idx)
        return None if tf is None else v_op(f.cod, tf)

    return Morphism(f.dom, f.cod, lambda x, _f=f.fn, _op=op, _c=f.cod: _op(_c, _f(x)),
                    model=model, name=name, table_builder=build, rows=f.rows)


def negate(f: Morphism) -> Morphism:
    return pointwise(f, f"(-{f.name})", neg_elem, v_neg, model=f.model)


def product_map(f: Morphism, g: Morphism) -> Morphism:
    """f x g on a product domain."""
    return pair(compose(f, projection(0, f.dom, g.dom)),
                compose(g, projection(1, f.dom, g.dom)))


# ---------------------------------------------------------------------------
# difference models


class DifferenceModel:
    """A concrete Cartesian difference category over a family of spaces.

    Subclasses fix the legal space kinds, the infinitesimal extension,
    the difference combinator, a registry of named primitives, and a
    source of random law-check subjects. `derivative` builds d[f] afresh,
    and refuses a map whose domain or codomain is not a legal space before
    `_derivative` sees it; the memo of derivatives belongs to whoever holds
    the maps (`BaseCat.derivative`, `SubjectPool`). A derivative is marked
    `memoized`, which lets a large stage tabulate it.
    """

    tag: str = "abstract"

    def __init__(self):
        self._primitives: dict[str, Callable[[Space], Morphism]] = {}
        self._primitive_cache: dict[tuple[str, Space], Morphism] = {}

    # -- spaces

    def legal_space(self, space: Space) -> bool:
        raise NotImplementedError

    def check_space(self, space: Space):
        if not self.legal_space(space):
            raise ModelRestriction(
                f"{format_space(space)} is not a legal {self.tag} space"
            )

    @property
    def default_space(self) -> Space:
        raise NotImplementedError

    # -- structure

    def epsilon(self, f: Morphism) -> Morphism:
        raise NotImplementedError

    def derivative(self, f: Morphism) -> Morphism:
        self.check_space(f.dom)
        self.check_space(f.cod)
        d = self._derivative(f)
        d.memoized = True
        return d

    def _derivative(self, f: Morphism) -> Morphism:
        raise NotImplementedError

    def oplus_map(self, space: Space) -> Morphism:
        """Induced action on one object: pi0 + eps(pi1) : A x A -> A."""
        p0, p1 = projection(0, space, space), projection(1, space, space)
        m = add(p0, self.epsilon(p1))
        m.name = "oplus"
        return m

    def plus_map(self, space: Space) -> Morphism:
        p0, p1 = projection(0, space, space), projection(1, space, space)
        m = add(p0, p1)
        m.name = "plus"
        return m

    def zero_point(self, space: Space) -> Morphism:
        return zero_map(TERMINAL, space)

    # -- primitives

    def register_primitive(self, name: str, factory: Callable[[Space], Morphism]):
        self._primitives[name] = factory
        self._primitive_cache = {k: v for k, v in self._primitive_cache.items()
                                 if k[0] != name}

    def primitive(self, name: str, space: Optional[Space] = None) -> Morphism:
        if name not in self._primitives:
            raise UnknownPrimitive(f"{self.tag} has no primitive {name!r}")
        sp = space if space is not None else self.default_space
        key = (name, sp)
        cached = self._primitive_cache.get(key)
        if cached is not None:
            return cached
        self.check_space(sp)
        m = self._primitives[name](sp)
        m.model = self.tag
        m.name = name
        self._primitive_cache[key] = m
        return m

    def primitive_names(self) -> list[str]:
        return sorted(self._primitives)

    # -- subjects

    def random_subjects(self, space: Space, count: int, seed: int) -> list[Morphism]:
        raise NotImplementedError


def oplus(model: DifferenceModel, f: Morphism, g: Morphism) -> Morphism:
    """f (+) g = f + eps(g), the action of changes on values."""
    if f.dom != g.dom or f.cod != g.cod:
        raise DomainMismatch("oplus needs matching shapes")
    return add(f, model.epsilon(g))


# ---------------------------------------------------------------------------
# the category interface the laws are evaluated through


class BaseCat:
    """A difference model presented as a category of plain morphisms.

    Structure maps are hash-consed per instance. Identities, projections,
    zeros, terminal maps and generic points are built once per tuple of
    spaces; a composite, pair, sum or epsilon is built once per tuple of
    arguments when every argument is itself a memo value (keyed by identity:
    `Morphism` is `eq=False`). Anything else, a subject or a map built from
    one, is built afresh and not kept. So the memo never holds a subject, and
    the subjects of a pool that share one instance read one set of points,
    pairs and zeros, with the tables those build.

    A memo value that only selects coordinates (an identity, a projection,
    or a composite or pair of such maps) is kept as a wiring
    (`morphisms.Wiring`), which reads none of the maps it is built from.

    `compiled` holds the laws `terms.law_sides` compiled on this cat.
    Because the cat `shares` its structure maps, a compiled law builds the
    subject-free ones it reads once, and keeps them with the memo.

    `derivatives` is the derivative memo of a pool (`SubjectPool`): d[m] of
    each map m among its keys, built once and kept with the pool; a key's
    derivative becomes a key in turn. The derivative of a memo value is
    memoized like any structure map, and that of anything else is built
    afresh. Nothing in a memo refers back to it, so a finished run is freed
    by reference counting.
    """

    shares = True

    def __init__(self, model: DifferenceModel, derivatives: Optional[dict] = None):
        self.model = model
        self.derivatives = {} if derivatives is None else derivatives
        self._memo: dict = {}
        self._kept: set[int] = set()  # ids of memo values, which the memo keeps alive
        self.compiled: dict = {}

    def _cons(self, build: Callable, *args):
        """`build(*args)`, memoized when every morphism among `args` is."""
        if any(isinstance(a, Morphism) and id(a) not in self._kept for a in args):
            return build(*args)
        key = (build, *(id(a) if isinstance(a, Morphism) else a for a in args))
        out = self._memo.get(key)
        if out is None:
            out = self._memo[key] = _as_wiring(build(*args), build, args)
            self._kept.add(id(out))
        return out

    def identity(self, a):
        return self._cons(identity, a)

    def compose(self, g, f):
        return self._cons(compose, g, f)

    def pair(self, f, g):
        return self._cons(pair, f, g)

    def proj(self, i, a, b):
        return self._cons(projection, i, a, b)

    def zero(self, a, b):
        return self._cons(zero_map, a, b)

    def add(self, f, g):
        return self._cons(add, f, g)

    def terminal(self, a):
        return self._cons(terminal_map, a)

    def epsilon(self, f):
        return self._cons(self.model.epsilon, f)

    def derivative(self, f):
        memo = self.derivatives
        if f not in memo:
            return self._cons(self.model.derivative, f)
        d = memo[f]
        if d is None:
            d = memo[f] = self.model.derivative(f)
            memo[d] = None
        return d

    def primitive(self, name, a):
        return self.model.primitive(name, a)

    def stage(self, objs: Sequence[Space]) -> Space:
        """The stage of the generic points of `objs`, without building them."""
        return _nested(objs)

    def generic_points(self, objs: Sequence[Space]):
        """A stage object and tautological points covering objs elementwise."""
        key = ("points", *objs)
        if key not in self._memo:
            stage = _nested(objs)
            points = tuple(_point_projections(stage, objs))
            self._kept.update(map(id, points))  # not the walks: a wired point drops them
            self._memo[key] = stage, points
        return self._memo[key]

    def equal(self, f, g, strat):
        return morphisms_equal(f, g, strat)


def _nested(objs: Sequence[Space]) -> Space:
    out = objs[-1]
    for o in reversed(objs[:-1]):
        out = Product(o, out)
    return out


def _point_projections(stage: Space, objs: Sequence[Space]) -> list[Morphism]:
    """The generic points of `objs` at `stage`; wirings on a codec stage."""
    points, walk = [], identity(stage)
    for k, o in enumerate(objs[:-1]):
        rest = _nested(objs[k + 1:])
        points.append(compose(projection(0, o, rest), walk))
        walk = compose(projection(1, o, rest), walk)
    points.append(walk)
    if table_codec_size(stage) is None:
        return points
    ends = itertools.accumulate(map(coord_width, objs))
    return [wiring(p, tuple(range(end - coord_width(o), end)))
            for p, o, end in zip(points, objs, ends)]


def _as_wiring(m: Morphism, build: Callable, args: tuple) -> Morphism:
    """`m = build(*args)` as a wiring (`morphisms.Wiring`) when it selects
    coordinates: an identity, a projection, or a composite or pair of
    wirings, between codec spaces."""
    if table_codec_size(m.dom) is None or table_codec_size(m.cod) is None:
        return m
    if build is identity:
        cols = range(coord_width(m.dom))
    elif build is projection:
        w = coord_width(args[1])
        cols = range(w) if args[0] == 0 else range(w, coord_width(m.dom))
    elif build is compose and all(isinstance(a, Wiring) for a in args):
        cols = [args[1].cols[c] for c in args[0].cols]
    elif build is pair and all(isinstance(a, Wiring) for a in args):
        cols = args[0].cols + args[1].cols
    else:
        return m
    return wiring(m, tuple(cols))


# ---------------------------------------------------------------------------
# axiom dispatch: the laws themselves are rows of `terms.LAWS`

FLATNESS_IDS = ("F1", "F2", "F3", "F4", "OplusEps")
# the coherence laws of a Cartesian difference category: the suite every
# model, and the Kleisli category of each, must satisfy
COHERENCE = ("CdC0", "CdC1", "CdC2", "CdC3", "CdC4", "CdC5", "CdC6", "CdC7",
             "CdC6a", "CdC7a", "E1", "E2", "E3")
AXIOM_IDS = [*(ax for ax, law in LAWS.items() if law.arity is not None), *FLATNESS_IDS]


def axiom_sides(cat, model, axiom: str, subjects: Sequence[Morphism]):
    """The `(label, lhs, rhs)` clauses of one axiom on its subjects, bound as
    the axiom's row in `terms.LAWS` says."""
    if axiom in FLATNESS_IDS:
        raise ShapeMismatch(f"{axiom} is handled by check_flatness")
    law = LAWS.get(axiom)
    if law is None or law.arity is None:
        raise ShapeMismatch(f"unknown axiom id {axiom!r}")
    if law.arity == "space":
        return law_sides(cat, axiom, {"A": subjects[0].dom if subjects else model.default_space})
    if not subjects:
        raise ShapeMismatch(f"{axiom} needs one subject morphism")
    f, env = subjects[0], {}
    if law.arity == 2:
        g = subjects[1] if len(subjects) > 1 else f
        if law.swap and f.cod != g.dom and g.cod == f.dom:
            f, g = g, f
        env = {"g": g, "C": g.cod}
    return law_sides(cat, axiom, dict(env, f=f, A=f.dom, B=f.cod))


def check_axiom(
    model: DifferenceModel,
    axiom: str,
    subjects: Sequence[Morphism] | Morphism,
    strat: EqualityStrategy = DEFAULT_STRATEGY,
    cat=None,
) -> LawReport:
    """Instantiate one axiom on the given subjects and compare both sides; a
    flatness id runs `check_flatness` on the first subject's domain."""
    if isinstance(subjects, Morphism):
        subjects = [subjects]
    if axiom in FLATNESS_IDS:
        space = subjects[0].dom if subjects else model.default_space
        return check_flatness(model, space, strat, parts=(axiom,))
    cat = cat or BaseCat(model)
    pairs = axiom_sides(cat, model, axiom, list(subjects))
    subject = ",".join(m.name for m in subjects) if subjects else "-"
    return report_from_equalities(axiom, model.tag, subject, pairs, strat, equal_fn=cat.equal)


def pool_report(pool: Sequence, check, noun: str) -> Optional[LawReport]:
    """One LawReport over a subject pool, from `check(f, g)` on each subject
    f paired with the next one g (cyclically): counts add up, the first
    counterexample is kept, and the subject reads "<n> <noun>". None for
    an empty pool."""
    agg: Optional[LawReport] = None
    for i, f in enumerate(pool):
        rep = check(f, pool[(i + 1) % len(pool)])
        if agg is None:
            agg = rep
            agg.subject = f"{len(pool)} {noun}"
        else:
            agg.checked += rep.checked
            agg.violations += rep.violations
            if agg.counterexample is None:
                agg.counterexample = rep.counterexample
    return agg


class SubjectPool:
    """The subjects of one run, and the memo of their derivatives.

    A subject is made of maps, its `parts`: a base map is its own one part,
    a Kleisli map has two (`monad.KleisliPool`). The pool is stacked when it
    has S >= 2 subjects whose parts are each between the same two codec
    spaces, with a domain of at most MAX_CHUNK codes. Each part is
    tabulated, and stacked (`_stack`) into a map `f` that holds those tables
    as its rows, an `(S, n)` table, and a map `g` of the same rows rolled by
    one, as an arity-2 law pairs subject i with subject i + 1; `stacked` is
    `(f, g)`, each `assemble`d from its parts. A law program run on them in
    the pool's category (`cat`) checks every subject at once
    (`stacked_report`). Other pools, and a stacked run that meets a map
    without batches or an error, run subject by subject.

    `derivatives` memoizes d[m] for the parts of the subjects, the stacked
    parts and their derivatives, for every axiom of the run
    (`BaseCat.derivative`).
    """

    def __init__(self, model: DifferenceModel, subjects: Sequence):
        self.model = model
        self.subjects = list(subjects)
        self.derivatives = dict.fromkeys(m for s in self.subjects for m in self.parts(s))

    @staticmethod
    def parts(subject) -> tuple:
        return (subject,)

    @staticmethod
    def assemble(parts: tuple):
        return parts[0]

    @functools.cached_property
    def stacked(self) -> Optional[tuple]:
        stacks = [_stack(list(ms)) for ms in zip(*map(self.parts, self.subjects))]
        if not stacks or None in stacks:
            return None
        self.derivatives.update(dict.fromkeys(m for s in stacks for m in s))
        return tuple(self.assemble(ms) for ms in zip(*stacks))

    def cat(self) -> BaseCat:
        return BaseCat(self.model, self.derivatives)


def _stack(subjects: list) -> Optional[tuple]:
    """The stacked maps `(f, g)` of `subjects`, or None (`SubjectPool`)."""
    if len(subjects) < 2:
        return None
    first, last = subjects[0], subjects[-1]
    n = table_codec_size(first.dom)
    if (n is None or n > MAX_CHUNK or table_codec_size(first.cod) is None
            or any(f.dom != first.dom or f.cod != first.cod for f in subjects)):
        return None
    rows = np.stack([codes_at(f) for f in subjects])
    rows = rows.astype(table_dtype(rows.size, first.cod), copy=False)

    def stacked(table, name):
        table.setflags(write=False)
        return Morphism(first.dom, first.cod, no_closure, model=_merge_model(*subjects),
                        name=name, table=table, rows=len(subjects))

    return (stacked(rows, f"[{first.name}..{last.name}]"),
            stacked(np.roll(rows, -1, axis=0), f"[{subjects[1].name}..{first.name}]"))


def stacked_report(pool: SubjectPool, axiom: str, sides: Callable, strat: EqualityStrategy,
                   tag: str, noun: str, cat) -> Optional[LawReport]:
    """The LawReport of `axiom` over a stacked pool, from one law program:
    `sides(cat, f, g)` gives its `(label, lhs, rhs)` clauses, here on the
    stacked subjects, with `cat` one of `pool.cat()`, which compares them
    (`cat.equal`). It reads as the
    per-subject loop (`pool_report`) would: `checked` sums every subject's
    comparisons, `violations` counts the failing (subject, clause) pairs,
    and the counterexample is that of the lowest failing subject's first
    failing clause, rebuilt for that subject alone and compared again, so
    that its closures give both sides. None when the pool is not stacked,
    or when the stacked run meets a map without batches or a DiffkitError;
    then the caller runs the pool subject by subject, which raises any
    error as it always did."""
    if pool.stacked is None:
        return None
    subjects = pool.subjects
    size = len(subjects)

    def seeded(label):
        return strat.with_seed(derive_seed(strat.seed, axiom, label))

    try:
        clauses = sides(cat, *pool.stacked)
        reps = [cat.equal(lhs, rhs, seeded(label)) for label, lhs, rhs in clauses]
    except (Unstacked, DiffkitError):
        return None
    checked, violations, first = 0, 0, None  # first: (row, clause, checked)
    for i, rep in enumerate(reps):
        misses = rep.misses
        if misses is None:  # a clause that reads no subject holds alike for all
            checked += size * rep.checked
            misses = {} if rep.passed else dict.fromkeys(range(size), rep.checked)
        else:
            checked += rep.checked
        violations += len(misses)
        if misses and (first is None or min(misses) < first[0]):
            first = (min(misses), i, misses[min(misses)])
    counterexample = None
    if first is not None:
        row, i, want = first
        label, lhs, rhs = sides(cat, subjects[row], subjects[(row + 1) % size])[i]
        rep = cat.equal(lhs, rhs, seeded(label))
        if rep.passed or rep.checked != want:
            raise InternalError(f"{axiom}, clause {label!r}: the stacked pool finds subject "
                                f"{row} failing after {want} points, the subject alone "
                                f"{'passes' if rep.passed else f'after {rep.checked}'}")
        counterexample = dict(rep.counterexample, clause=label)
    return LawReport(axiom=axiom, model=tag, subject=f"{size} {noun}", strategy=strat.describe(),
                     checked=checked, violations=violations, counterexample=counterexample,
                     seed=strat.seed)


def axiom_pool_report(model: DifferenceModel, axiom: str, pool, strat: EqualityStrategy,
                      noun: str) -> Optional[LawReport]:
    """`pool_report` of `check_axiom` in the category of `pool`, a
    `SubjectPool` (a `monad.KleisliPool` for the Kleisli category) or a list
    of base maps that becomes one, with one `pool.cat()` for the whole pool,
    so its structure maps are built once. A stacked pool runs the law once
    (`stacked_report`). An axiom of arity "space" (CdC3, EpsVanishing) reads
    only its subjects' domain: on a pool that shares one it runs for the
    first subject alone and counts once per subject."""
    pool = pool if isinstance(pool, SubjectPool) else SubjectPool(model, pool)
    cat, subjects = pool.cat(), pool.subjects
    once = axiom in LAWS and LAWS[axiom].arity == "space" and all(
        f.dom == subjects[0].dom for f in subjects)
    if not once:
        rep = stacked_report(pool, axiom, lambda c, f, g: axiom_sides(c, model, axiom, [f, g]),
                             strat, model.tag, noun, cat)
        if rep is not None:
            return rep
    rep = pool_report(subjects[:1] if once else subjects,
                      lambda f, g: check_axiom(model, axiom, [f, g], strat, cat=cat), noun)
    if once and rep is not None:
        rep.subject = f"{len(subjects)} {noun}"
        rep.checked *= len(subjects)
        rep.violations *= len(subjects)
    return rep


# ---------------------------------------------------------------------------
# linearity and flatness predicates


def is_group_homomorphism(f: Morphism, strat: EqualityStrategy = DEFAULT_STRATEGY) -> bool:
    """Additivity probe independent of any difference combinator."""
    a, b = f.dom, f.cod
    plus_a = add(projection(0, a, a), projection(1, a, a))
    plus_b = add(projection(0, b, b), projection(1, b, b))
    lhs = compose(f, plus_a)
    rhs = compose(plus_b, pair(compose(f, projection(0, a, a)),
                               compose(f, projection(1, a, a))))
    if not morphisms_equal(lhs, rhs, strat).passed:
        return False
    z_in, z_out = zero_map(TERMINAL, a), zero_map(TERMINAL, b)
    return morphisms_equal(compose(f, z_in), z_out, strat).passed


def is_linear(
    model: DifferenceModel,
    f: Morphism,
    strat: EqualityStrategy = DEFAULT_STRATEGY,
) -> tuple[bool, LawReport]:
    pairs = axiom_sides(BaseCat(model), model, "Linearity", [f])
    rep = report_from_equalities("Linearity", model.tag, f.name, pairs, strat)
    if rep.passed and not is_group_homomorphism(f, strat):
        # a linear map must be additive; surfacing the inconsistency beats hiding it
        rep.violations += 1
        rep.counterexample = {"clause": "linear map failed the additivity consequence"}
    return rep.passed, rep


def is_epsilon_linear(
    model: DifferenceModel, f: Morphism, strat: EqualityStrategy = DEFAULT_STRATEGY
) -> bool:
    ok, _ = is_linear(model, model.epsilon(f), strat)
    return ok


def is_epsilon_vanishing(
    model: DifferenceModel, space: Space, strat: EqualityStrategy = DEFAULT_STRATEGY
) -> bool:
    rep = morphisms_equal(model.epsilon(identity(space)), zero_map(space, space), strat)
    return rep.passed


def _right_injectivity(model, space, strat):
    """Search for x, y, y' with x (+) y = x (+) y' but y != y'."""
    op = model.oplus_map(space)
    n = space_size(space)
    if n is not None and n * n * n <= strat.bound * 10:
        elems = list(iter_space(space))
        checked = 0
        for x in elems:
            seen = {}
            for y in elems:
                checked += 1
                v = op((x, y))
                key = repr(to_jsonable(v))
                if key in seen and seen[key] != y:
                    return False, checked, {
                        "input": to_jsonable(x),
                        "lhs": to_jsonable(seen[key]),
                        "rhs": to_jsonable(y),
                    }, None
                seen.setdefault(key, y)
        return True, checked, None, None
    # not enumerable: sampled refutation search only; no sound positive verdict
    pts = sample_space(Product(space, Product(space, space)), 512, strat.seed)
    checked = 0
    for x, (y1, y2) in pts:
        checked += 1
        if elements_equal(space, y1, y2, strat.abs_tol, strat.rel_tol):
            continue
        v1, v2 = op((x, y1)), op((x, y2))
        if elements_equal(space, v1, v2, strat.abs_tol, strat.rel_tol):
            return False, checked, {
                "input": to_jsonable(x),
                "lhs": to_jsonable(y1),
                "rhs": to_jsonable(y2),
            }, None
    return True, checked, None, "unknown"


def check_flatness(
    model: DifferenceModel,
    space: Space,
    strat: EqualityStrategy = DEFAULT_STRATEGY,
    parts: Sequence[str] = FLATNESS_IDS,
) -> LawReport:
    """Flatness of the induced change action on one object.

    F1 holds structurally (the induced action has delta = base); F2
    asks the action and the change addition to be linear; F3 is the
    map condition checked on the model's registered primitives; F4 is
    right-injectivity of the action, decided exhaustively when the
    space enumerates and reported as verdict "unknown" otherwise.
    """
    cat = BaseCat(model)
    checked = 0
    violations = 0
    counterexample = None
    verdict = None

    def oplus_eps(f, g):
        return law_sides(cat, "OplusEps", {"f": f, "g": g, "oplusA": model.oplus_map(f.cod)})

    def run(pairs, label):
        nonlocal checked, violations, counterexample
        rep = report_from_equalities(label, model.tag, format_space(space), pairs, strat)
        checked += rep.checked
        violations += rep.violations
        if counterexample is None and rep.counterexample is not None:
            counterexample = rep.counterexample

    for part in parts:
        if part == "F1":
            checked += 1  # delta = base by construction of the induced action
        elif part == "F2":
            run(law_sides(cat, "F2", {"oplusA": model.oplus_map(space),
                                      "plusA": model.plus_map(space)}), "F2")
        elif part == "F3":
            prims = []
            for name in model.primitive_names():
                try:
                    p = model.primitive(name, space)
                except DiffkitError:  # the primitive refuses this space
                    continue
                if p.dom == space and p.cod == space:
                    prims.append(p)
            if prims:
                # the map-flatness condition eps(d f) = d f<x,eps y>
                run([c for p in prims for c in law_sides(cat, "F3", {"f": p})], "F3")
        elif part == "F4":
            ok, n, cx, verd = _right_injectivity(model, space, strat)
            checked += n
            if not ok:
                violations += 1
                if counterexample is None:
                    counterexample = dict(cx, clause="F4 right-injectivity")
            if verd is not None:
                verdict = verd
        elif part == "OplusEps":
            f = identity(space)
            g = model.epsilon(identity(space))
            g.name = "eps(id)"
            run(oplus_eps(f, g), "OplusEps")
            subs = model.random_subjects(space, 2, derive_seed(strat.seed, "oplus-eps"))
            if len(subs) == 2:
                run(oplus_eps(*subs), "OplusEps")

    return LawReport(
        axiom="+".join(parts),
        model=model.tag,
        subject=format_space(space),
        strategy=strat.describe(),
        checked=checked,
        violations=violations,
        counterexample=counterexample,
        seed=strat.seed,
        verdict=verdict if violations == 0 else None,
    )
