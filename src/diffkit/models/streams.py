"""Causal maps between stream prefixes.

The infinitesimal extension is the truncation operator z (zero the
head, keep the tail); the difference combinator is indexwise

    d[f](a, b)[0]   = f(a + b)[0]   - f(a)[0]
    d[f](a, b)[n+1] = f(a + z b)[n+1] - f(a)[n+1]

which keeps causality. Subjects and primitives are causal by
construction and re-checked at registration. The "simpler" operator
f(a + z b) - f(a) is kept as a negative fixture: it is not a lawful
difference combinator (the identity's derivative truncates).
"""

from __future__ import annotations

import random

import numpy as np

from ..errors import ModelRestriction, NotCausal
from ..kernel import DifferenceModel, identity, pointwise
from ..morphisms import (
    DEFAULT_STRATEGY,
    EqualityStrategy,
    LawReport,
    Morphism,
    Sampled,
    codes_at,
    coord_builder,
    domain_codes,
)
from ..spaces import (
    BoundedInt,
    CyclicGroup,
    Product,
    Space,
    StreamPrefix,
    add_elem,
    derive_seed,
    elements_equal,
    format_space,
    leaves,
    sample_space,
    splice0_elem,
    splice_at,
    split_batch,
    sub_elem,
    truncate_elem,
    unflatten,
    v_add,
    v_splice0,
    v_sub,
    v_trunc,
    zero_elem,
)


def truncation(space: Space) -> Morphism:
    """The operator z: head zeroed, tail unchanged."""
    return pointwise(identity(space), "z", truncate_elem, v_trunc)


def stream_derivative(f: Morphism, model_tag: str) -> Morphism:
    a, b = f.dom, f.cod
    dom = Product(a, a)

    def fn(p, _f=f.fn, _a=a, _b=b):
        x, y = p
        w = _f(x)
        full = sub_elem(_b, _f(add_elem(_a, x, y)), w)
        tail = sub_elem(_b, _f(add_elem(_a, x, truncate_elem(_a, y))), w)
        return splice0_elem(_b, full, tail)

    def build(idx=None):
        p = domain_codes(dom, idx)
        x, y = split_batch(dom, p, 0), split_batch(dom, p, 1)
        fx = codes_at(f, x)
        fs = codes_at(f, v_add(a, x, y))
        ft = codes_at(f, v_add(a, x, v_trunc(a, y)))
        if fx is None or fs is None or ft is None:
            return None
        return v_splice0(b, v_sub(b, fs, fx), v_sub(b, ft, fx))

    return Morphism(dom, b, fn, model=model_tag, name=f"d[{f.name}]",
                    table_builder=build)


def _subject_builder(space: StreamPrefix, k: int, p, q):
    """Table builder of a random subject (see `random_subjects`)."""

    def fn(a):
        out = np.empty_like(a)
        out[:, 0] = k * a[:, 0]
        v, prev = a[:, 1:], a[:, :-1]
        out[:, 1:] = p[0] + v * (p[1] + p[2] * v) + prev * (q[1] + q[2] * prev)
        return out

    return coord_builder(space, fn, lambda m: max(abs(k) * m, abs(p[0]) + (
        abs(p[1]) + abs(q[1])) * m + (abs(p[2]) + abs(q[2])) * m * m))


def simple_stream_derivative(f: Morphism) -> Morphism:
    """Negative fixture: f(a + z b) - f(a) at every index."""
    a, b = f.dom, f.cod

    def fn(p, _f=f.fn, _a=a, _b=b):
        x, y = p
        return sub_elem(_b, _f(add_elem(_a, x, truncate_elem(_a, y))), _f(x))

    return Morphism(Product(a, a), b, fn, name=f"dz[{f.name}]")


def causality_check(f: Morphism, strat: EqualityStrategy = DEFAULT_STRATEGY) -> bool:
    """Inputs agreeing on a prefix must give outputs agreeing on that prefix
    (x spliced onto y at p; output prefixes compared as splices onto zero)."""
    k = max((s.length for s in leaves(f.dom) if isinstance(s, StreamPrefix)), default=0)
    count = getattr(strat.mode, "count", 64)
    xs = sample_space(f.dom, count, derive_seed(strat.seed, "causal-x"))
    ys = sample_space(f.dom, count, derive_seed(strat.seed, "causal-y"))
    zero = zero_elem(f.cod)
    for x, y in zip(xs, ys):
        for p in range(k + 1):
            a, b = f(x), f(splice_at(f.dom, p, x, y))
            if splice_at(f.cod, p, a, zero) != splice_at(f.cod, p, b, zero):
                return False
    return True


class StreamModel(DifferenceModel):
    def __init__(self, k: int = 16):
        super().__init__()
        self.k = k
        self.base = BoundedInt(-100, 100)
        self.tag = f"streams:k={k}"
        self.register_primitive("psq", self._pointwise("psq", lambda v: v * v))
        self.register_primitive("pdbl", self._pointwise("pdbl", lambda v: 2 * v))
        self.register_primitive("pinc", self._pointwise("pinc", lambda v: v + 1))
        self.register_primitive("delay", self._delay)
        self.register_primitive("trunc", truncation)
        self.register_primitive("psum", self._psum)

    # -- primitive factories (all causal by construction)

    @staticmethod
    def _pointwise(name, scalar_fn):
        def factory(space: Space) -> Morphism:
            if not isinstance(space, StreamPrefix):
                raise ModelRestriction(f"{name} needs a stream prefix space")
            return Morphism(
                space, space,
                lambda a, _s=space: unflatten(_s, [scalar_fn(v) for v in a]),
                name=name,
            )

        return factory

    @staticmethod
    def _delay(space: Space) -> Morphism:
        if not isinstance(space, StreamPrefix):
            raise ModelRestriction("delay needs a stream prefix space")
        z = zero_elem(space.base)
        return Morphism(space, space,
                        lambda a, _z=z: (_z,) + tuple(a[:-1]), name="delay")

    @staticmethod
    def _psum(space: Space) -> Morphism:
        if not isinstance(space, StreamPrefix):
            raise ModelRestriction("psum needs a stream prefix space")
        base = space.base

        def fn(a, _b=base):
            out = []
            acc = zero_elem(_b)
            for v in a:
                acc = add_elem(_b, acc, v)
                out.append(acc)
            return tuple(out)

        return Morphism(space, space, fn, name="psum")

    # -- model interface

    def legal_space(self, space: Space) -> bool:
        """Products of stream prefixes whose bases are Z<n> or Int."""
        return all(isinstance(s, StreamPrefix) and isinstance(s.base, (CyclicGroup, BoundedInt))
                   for s in leaves(space))

    @property
    def default_space(self) -> Space:
        return StreamPrefix(self.base, self.k)

    _REGISTRATION_PROBE = EqualityStrategy(mode=Sampled(24, 7))

    def register_primitive(self, name, factory):
        def checked(space: Space) -> Morphism:
            m = factory(space)
            if not causality_check(m, self._REGISTRATION_PROBE):
                raise NotCausal(f"{name} is not causal on {format_space(space)}")
            return m

        super().register_primitive(name, checked)

    def epsilon(self, f: Morphism) -> Morphism:
        return pointwise(f, f"eps({f.name})", truncate_elem, v_trunc, model=self.tag)

    def _derivative(self, f: Morphism) -> Morphism:
        return stream_derivative(f, self.tag)

    def random_subjects(self, space: Space, count: int, seed: int) -> list[Morphism]:
        """Causal subjects: linear head, nonlinear tail with a one-step lag.

        out[0] = k*a[0] and out[i+1] = p(a[i+1]) + q(a[i]), computed on the
        integers and reduced once by `unflatten`. The head stays
        additive because the difference axioms pin index 0 down to additive
        behaviour: a subject whose head is nonadditive (pointwise square,
        say) violates the second-argument regularity law at index 0, since
        truncation erases the head of the perturbation in the base point.
        That boundary is pinned by an explicit negative fixture in the test
        suite; everything nonlinear lives from index 1 on, where the
        truncation machinery is actually exercised.
        """
        self.check_space(space)
        if not isinstance(space, StreamPrefix):
            raise ModelRestriction("stream subjects live on prefix spaces")
        out = []
        for i in range(count):
            rng = random.Random(derive_seed(seed, "stream-subject",
                                            format_space(space), i))
            k = rng.randint(-2, 2)
            p = [rng.randint(-2, 2) for _ in range(3)]
            q = [0, rng.randint(-2, 2), rng.randint(-2, 2)]

            def fn(a, _s=space, _k=k, _p=p, _q=q):
                res = [_k * a[0]]
                for prev, v in zip(a, a[1:]):
                    res.append(_p[0] + _p[1] * v + _p[2] * v * v
                               + _q[1] * prev + _q[2] * prev * prev)
                return unflatten(_s, res)

            out.append(Morphism(space, space, fn, model=self.tag, name=f"caus{i}",
                                table_builder=_subject_builder(space, k, p, q)))
        return out

    # -- model-specific characterization

    def head_insensitive(self, f: Morphism, strat: EqualityStrategy = DEFAULT_STRATEGY) -> bool:
        """Outputs above index 0 ignore input index 0."""
        count = getattr(strat.mode, "count", 64)
        xs = sample_space(f.dom, count, derive_seed(strat.seed, "head-x"))
        hs = sample_space(f.dom, count, derive_seed(strat.seed, "head-h"))
        for x, h in zip(xs, hs):
            x2 = splice0_elem(f.dom, h, x)  # same tail, different head
            a, b = f(x), f(x2)
            ta = truncate_elem(f.cod, a)
            tb = truncate_elem(f.cod, b)
            if not elements_equal(f.cod, ta, tb):
                return False
        return True


def stream_linear_check(
    model: StreamModel, f: Morphism, strat: EqualityStrategy = DEFAULT_STRATEGY
) -> LawReport:
    """Linearity agrees with (group homomorphism + head-insensitivity)."""
    from ..kernel import is_group_homomorphism, is_linear

    linear, rep = is_linear(model, f, strat)
    characterized = is_group_homomorphism(f, strat) and model.head_insensitive(f, strat)
    agree = linear == characterized
    return LawReport(
        axiom="StreamLinearity",
        model=model.tag,
        subject=f.name,
        strategy=strat.describe(),
        checked=rep.checked,
        violations=0 if agree else 1,
        counterexample=None if agree else {
            "clause": f"is_linear={linear} but (hom and head-insensitive)={characterized}"
        },
        seed=strat.seed,
    )
