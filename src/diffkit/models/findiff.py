"""Finite differences: arbitrary functions between abelian groups.

The infinitesimal extension is the identity and the difference
combinator is the forward difference d[f](x, y) = f(x + y) - f(x).
Linear maps in this model are exactly the group homomorphisms.
"""

from __future__ import annotations

import random

import numpy as np

from ..errors import ModelRestriction
from ..kernel import DifferenceModel
from ..morphisms import TABLE_LIMIT, Morphism, codes_at, coord_builder, domain_codes, from_table
from ..spaces import (
    BoundedInt,
    CyclicGroup,
    FunctionSpace,
    Product,
    Space,
    add_elem,
    codec_size,
    coord_width,
    derive_seed,
    flatten,
    format_space,
    leaves,
    split_batch,
    sub_elem,
    unflatten,
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
        p = domain_codes(dom, idx)
        x, y = split_batch(dom, p, 0), split_batch(dom, p, 1)
        fs, fx = codes_at(f, v_add(a, x, y)), codes_at(f, x)
        return None if fs is None or fx is None else v_sub(b, fs, fx)

    return Morphism(dom, b, fn, model=model_tag, name=f"d[{f.name}]",
                    table_builder=build, rows=f.rows)


def _scalar_primitive(name: str, scalar_fn):
    """Endomap of a single integer carrier; products must project first.
    `scalar_fn` acts on arrays as on ints, and its magnitude on [-m, m]
    peaks at -m or m."""

    def factory(space: Space) -> Morphism:
        if not isinstance(space, (CyclicGroup, BoundedInt)):
            raise ModelRestriction(
                f"{name} is a scalar primitive; {format_space(space)} is not a scalar space"
            )
        fn = scalar_fn if isinstance(space, BoundedInt) else \
            lambda x, _n=space.n: scalar_fn(x) % _n
        return Morphism(space, space, fn, name=name, table_builder=coord_builder(
            space, scalar_fn, lambda m: max(abs(scalar_fn(m)), abs(scalar_fn(-m)))))

    return factory


def _poly_subject(space: Space, rng: random.Random, name: str) -> Morphism:
    """Total nonlinear endomap on integer carriers: per-output polynomial of
    a random weighting of the input coordinates (degree <= 2, small
    coefficients)."""
    width = coord_width(space)
    specs = []
    for _ in range(width):
        weights = [rng.randint(-2, 2) for _ in range(width)]
        coeffs = [rng.randint(-2, 2) for _ in range(3)]  # c0 + c1 t + c2 t^2
        specs.append((weights, coeffs))

    def fn(x, _space=space, _specs=specs):
        flat = flatten(_space, x)
        outs = []
        for weights, coeffs in _specs:
            t = sum(w * v for w, v in zip(weights, flat))
            outs.append(coeffs[0] + coeffs[1] * t + coeffs[2] * t * t)
        return unflatten(_space, outs)

    weights = np.array([w for w, _ in specs], dtype=np.int64).reshape(width, width).T
    c0, c1, c2 = np.array([c for _, c in specs], dtype=np.int64).reshape(width, 3).T

    def poly(x):
        t = x @ weights
        return c0 + t * (c1 + c2 * t)

    def bound(m):  # of every value poly computes: |t| <= sum |w| * m
        out = 0
        for w, (k0, k1, k2) in specs:
            t = sum(map(abs, w)) * m
            out = max(out, t, abs(k0) + abs(k1) * t + abs(k2) * t * t)
        return out

    return Morphism(space, space, fn, name=name, table_builder=coord_builder(space, poly, bound))


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
        return all(isinstance(s, (CyclicGroup, BoundedInt))
                   or isinstance(s, FunctionSpace)
                   and self.legal_space(s.arg) and self.legal_space(s.res)
                   for s in leaves(space))

    @property
    def default_space(self) -> Space:
        return BoundedInt(-100, 100)

    def epsilon(self, f: Morphism) -> Morphism:
        """The identity on codes: shares `f`'s table when it has one."""
        return Morphism(f.dom, f.cod, f.fn, model=self.tag, name=f"eps({f.name})",
                        table=f.table, table_builder=lambda idx=None: codes_at(f, idx),
                        rows=f.rows)

    def _derivative(self, f: Morphism) -> Morphism:
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
