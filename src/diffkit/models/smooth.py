"""Smooth maps on Euclidean spaces with exact directional derivatives.

Differentiation evaluates the map over dual numbers (primal + tangent);
nesting duals yields higher derivatives. The infinitesimal extension is
zero, so the induced action is first projection. Morphisms in this
model must be built from the registered primitive grammar so that
evaluation stays generic over the number type.

The contract: every closure of this model is generic over floats, `Dual`s
and float64 arrays, nested in any order (a `Dual` of arrays, a `Dual` of
`Dual`s of arrays). `d_sin`, `d_cos` and `d_exp` use `math` on floats and
`np` on arrays, and `Dual` opts out of numpy's ufuncs, so `ndarray * Dual`
is a `Dual`, never an object array. A comparison evaluates a closure once
on an element whose scalars are arrays of sampled points (`morphisms`).
"""

from __future__ import annotations

import math
import random

import numpy as np

from ..errors import UnsupportedPrimitive
from ..kernel import DifferenceModel, zero_map
from ..morphisms import Morphism
from ..spaces import (
    Product,
    Real,
    Space,
    derive_seed,
    flatten,
    leafwise,
    leaves,
    sample_space,
    unflatten,
)


class Dual:
    """a + b*delta with delta^2 = 0; entries may themselves be duals."""

    __slots__ = ("primal", "tangent")
    # numpy defers every binary operation with a Dual to the Dual's methods
    __array_ufunc__ = None

    def __init__(self, primal, tangent):
        self.primal = primal
        self.tangent = tangent

    def __repr__(self):
        return f"Dual({self.primal!r}, {self.tangent!r})"

    def __add__(self, other):
        o = _lift(other)
        return Dual(self.primal + o.primal, self.tangent + o.tangent)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.primal, -self.tangent)

    def __sub__(self, other):
        return self + (-_lift(other))

    def __rsub__(self, other):
        return _lift(other) + (-self)

    def __mul__(self, other):
        o = _lift(other)
        return Dual(
            self.primal * o.primal,
            self.primal * o.tangent + self.tangent * o.primal,
        )

    __rmul__ = __mul__


def _lift(x):
    return x if isinstance(x, Dual) else Dual(x, 0.0)


def d_sin(x):
    if isinstance(x, Dual):
        return Dual(d_sin(x.primal), d_cos(x.primal) * x.tangent)
    return np.sin(x) if isinstance(x, np.ndarray) else math.sin(x)


def d_cos(x):
    if isinstance(x, Dual):
        return Dual(d_cos(x.primal), -d_sin(x.primal) * x.tangent)
    return np.cos(x) if isinstance(x, np.ndarray) else math.cos(x)


def d_exp(x):
    if isinstance(x, Dual):
        e = d_exp(x.primal)
        return Dual(e, e * x.tangent)
    return np.exp(x) if isinstance(x, np.ndarray) else math.exp(x)


def _dualize(space: Space, x, y):
    return leafwise(space, lambda _, a, b: tuple(map(Dual, a, b)), x, y)


def _tangent_part(space: Space, v):
    return leafwise(space, lambda _, a: tuple([c.tangent if isinstance(c, Dual) else 0.0
                                               for c in a]), v)


def _componentwise(name: str, unary):
    def factory(space: Space) -> Morphism:
        if not isinstance(space, Real):
            raise UnsupportedPrimitive(f"{name} is defined on real vectors only")
        return Morphism(space, space,
                        lambda x: tuple(unary(c) for c in x), name=name)

    return factory


# Grammar stages for random subjects: a linear mix, then up to three unary
# layers of polynomials, sin/cos, and exp. Polynomial and exp inputs are
# contracted (0.1x and 0.125x) and values rejection-capped so that chain
# curvature stays analytically bounded: with per-layer slopes <= ~25 the
# third derivative stays <= ~1e5, keeping a central difference at h = 1e-5
# within 1e-4 of the exact directional derivative everywhere on the
# sampling box. Unscaled cubic towers have |f'''| beyond 1e12, which no
# finite-difference tolerance survives.
_SUBJECT_VALUE_CAP = 1e3
_SUBJECT_PROBES = 24


def _random_unary(rng: random.Random):
    kind = rng.choice(["poly", "poly", "sin", "cos", "exp"])
    if kind == "poly":
        c = [rng.randint(-2, 2) for _ in range(4)]

        def poly(t, _c=c):
            u = 0.1 * t
            return _c[0] + _c[1] * u + _c[2] * u * u + _c[3] * u * u * u

        return poly
    if kind == "sin":
        return d_sin
    if kind == "cos":
        return d_cos
    return lambda t: d_exp(0.125 * t)


def _random_grammar_fn(space: Space, rng: random.Random):
    width = sum(s.dim for s in leaves(space))
    mix = [[rng.randint(-2, 2) for _ in range(width)] for _ in range(width)]
    bias = [rng.randint(-2, 2) for _ in range(width)]
    depth = rng.randint(1, 3)
    layers = [[_random_unary(rng) for _ in range(width)] for _ in range(depth)]

    def fn(x, _space=space, _mix=mix, _bias=bias, _layers=layers):
        flat = flatten(_space, x)
        cur = [b + sum(w * v for w, v in zip(row, flat))
               for row, b in zip(_mix, _bias)]
        for layer in _layers:
            cur = [u(t) for u, t in zip(layer, cur)]
        return unflatten(_space, cur)

    return fn


def _subject_ok(space: Space, fn, probes) -> bool:
    try:
        for p in probes:
            v = flatten(space, fn(p))
            if any(not math.isfinite(c) or abs(c) > _SUBJECT_VALUE_CAP for c in v):
                return False
    except OverflowError:
        return False
    return True


class SmoothModel(DifferenceModel):
    tag = "smooth"

    def __init__(self):
        super().__init__()
        self.register_primitive("sq", _componentwise("sq", lambda x: x * x))
        self.register_primitive("cube", _componentwise("cube", lambda x: x * x * x))
        self.register_primitive("inc", _componentwise("inc", lambda x: x + 1.0))
        self.register_primitive("dbl", _componentwise("dbl", lambda x: 2.0 * x))
        self.register_primitive("neg", _componentwise("neg", lambda x: -x))
        self.register_primitive("sin", _componentwise("sin", d_sin))
        self.register_primitive("cos", _componentwise("cos", d_cos))
        self.register_primitive("exp", _componentwise("exp", d_exp))

    def legal_space(self, space: Space) -> bool:
        return all(isinstance(s, Real) for s in leaves(space))

    @property
    def default_space(self) -> Space:
        return Real(1)

    def epsilon(self, f: Morphism) -> Morphism:
        z = zero_map(f.dom, f.cod)
        z.model = self.tag
        z.name = f"eps({f.name})"
        return z

    def _derivative(self, f: Morphism) -> Morphism:
        self.check_space(f.dom)
        self.check_space(f.cod)
        a, b = f.dom, f.cod

        def fn(p, _f=f.fn, _a=a, _b=b):
            x, y = p
            return _tangent_part(_b, _f(_dualize(_a, x, y)))

        return Morphism(Product(a, a), b, fn, model=self.tag, name=f"D[{f.name}]")

    def random_subjects(self, space: Space, count: int, seed: int) -> list[Morphism]:
        self.check_space(space)
        probes = sample_space(space, _SUBJECT_PROBES, derive_seed(seed, "smooth-probes"))
        out = []
        attempt = 0
        while len(out) < count:
            rng = random.Random(derive_seed(seed, "smooth-subject", attempt))
            attempt += 1
            fn = _random_grammar_fn(space, rng)
            if not _subject_ok(space, fn, probes):
                continue
            out.append(Morphism(space, space, fn, model=self.tag,
                                name=f"g{len(out)}"))
        return out
