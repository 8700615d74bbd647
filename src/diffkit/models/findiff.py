"""Finite differences: arbitrary functions between abelian groups.

The infinitesimal extension is the identity and the difference
combinator is the forward difference d[f](x, y) = f(x + y) - f(x).
Linear maps in this model are exactly the group homomorphisms.
"""

from __future__ import annotations

import random

import numpy as np

from ..errors import ModelRestriction, TypeMismatch
from ..kernel import DifferenceModel
from ..morphisms import TABLE_LIMIT, Morphism, codes_at, domain_codes, from_table
from ..spaces import (
    BoundedInt,
    CyclicGroup,
    FunctionSpace,
    Product,
    Space,
    Terminal,
    add_elem,
    codec_size,
    derive_seed,
    format_space,
    sub_elem,
    v_add,
    v_sub,
)


def difference_derivative(f: Morphism, model_tag: str) -> Morphism:
    a, b = f.dom, f.cod
    dom = Product(a, a)

    def fn(p, _f=f.fn, _a=a, _b=b):
        x, y = p
        return sub_elem(_b, _f(add_elem(_a, x, y)), _f(x))

    def build(idx=None):
        x, y = np.divmod(domain_codes(dom, idx), codec_size(a))
        fs, fx = codes_at(f, v_add(a, x, y)), codes_at(f, x)
        return None if fs is None or fx is None else v_sub(b, fs, fx)

    return Morphism(dom, b, fn, model=model_tag, name=f"d[{f.name}]",
                    table_builder=build)


def _int_kinds(space: Space) -> bool:
    if isinstance(space, (CyclicGroup, BoundedInt, Terminal)):
        return True
    if isinstance(space, Product):
        return _int_kinds(space.left) and _int_kinds(space.right)
    if isinstance(space, FunctionSpace):
        return _int_kinds(space.arg) and _int_kinds(space.res)
    return False


def _scalar_primitive(name: str, scalar_fn):
    """Endomap of a single integer carrier; products must project first."""

    def factory(space: Space) -> Morphism:
        if isinstance(space, CyclicGroup):
            return Morphism(space, space,
                            lambda x, _n=space.n: scalar_fn(x) % _n, name=name)
        if isinstance(space, BoundedInt):
            return Morphism(space, space, scalar_fn, name=name)
        raise ModelRestriction(
            f"{name} is a scalar primitive; {format_space(space)} is not a scalar space"
        )

    return factory


def _leaves(space: Space):
    if isinstance(space, (CyclicGroup, BoundedInt)):
        yield space
    elif isinstance(space, Product):
        yield from _leaves(space.left)
        yield from _leaves(space.right)


def _flatten(space: Space, x, out: list):
    if isinstance(space, (CyclicGroup, BoundedInt)):
        out.append(x)
    elif isinstance(space, Product):
        _flatten(space.left, x[0], out)
        _flatten(space.right, x[1], out)


def _unflatten(space: Space, vals, pos=0):
    if isinstance(space, CyclicGroup):
        return vals[pos] % space.n, pos + 1
    if isinstance(space, BoundedInt):
        return vals[pos], pos + 1
    if isinstance(space, Product):
        l, pos = _unflatten(space.left, vals, pos)
        r, pos = _unflatten(space.right, vals, pos)
        return (l, r), pos
    if isinstance(space, Terminal):
        return (), pos
    raise TypeMismatch(f"cannot build values in {space!r}")


def _poly_subject(space: Space, rng: random.Random, name: str) -> Morphism:
    """Total nonlinear endomap on integer carriers: per-output polynomial of
    a random weighting of the input leaves (degree <= 2, small coefficients)."""
    leaves = list(_leaves(space))
    width = len(leaves)
    specs = []
    for _ in range(width):
        weights = [rng.randint(-2, 2) for _ in range(width)]
        coeffs = [rng.randint(-2, 2) for _ in range(3)]  # c0 + c1 t + c2 t^2
        specs.append((weights, coeffs))

    def fn(x, _space=space, _specs=specs):
        flat: list = []
        _flatten(_space, x, flat)
        outs = []
        for weights, coeffs in _specs:
            t = sum(w * v for w, v in zip(weights, flat))
            outs.append(coeffs[0] + coeffs[1] * t + coeffs[2] * t * t)
        return _unflatten(_space, outs)[0]

    return Morphism(space, space, fn, name=name)


class FinDiffModel(DifferenceModel):
    tag = "findiff"

    def __init__(self):
        super().__init__()
        self.register_primitive("sq", _scalar_primitive("sq", lambda x: x * x))
        self.register_primitive("cube", _scalar_primitive("cube", lambda x: x * x * x))
        self.register_primitive("inc", _scalar_primitive("inc", lambda x: x + 1))
        self.register_primitive("dbl", _scalar_primitive("dbl", lambda x: 2 * x))
        self.register_primitive("neg", _scalar_primitive("neg", lambda x: -x))

    def legal_space(self, space: Space) -> bool:
        return _int_kinds(space)

    @property
    def default_space(self) -> Space:
        return BoundedInt(-100, 100)

    def epsilon(self, f: Morphism) -> Morphism:
        return Morphism(f.dom, f.cod, f.fn, model=self.tag, name=f"eps({f.name})",
                        table_builder=lambda idx=None: codes_at(f, idx))

    def _derivative(self, f: Morphism) -> Morphism:
        self.check_space(f.dom)
        self.check_space(f.cod)
        return difference_derivative(f, self.tag)

    def random_subjects(self, space: Space, count: int, seed: int) -> list[Morphism]:
        self.check_space(space)
        out = []
        n = codec_size(space)
        for i in range(count):
            sub_seed = derive_seed(seed, "findiff-subject", format_space(space), i)
            rng = random.Random(sub_seed)
            if n is not None and n <= TABLE_LIMIT:
                tbl = np.array([rng.randrange(n) for _ in range(n)], dtype=np.int64)
                m = from_table(space, space, tbl, model=self.tag, name=f"tbl{i}")
            else:
                m = _poly_subject(space, rng, name=f"poly{i}")
                m.model = self.tag
            out.append(m)
        return out
