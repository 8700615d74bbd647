"""Additive maps with a scalar infinitesimal extension.

Objects are integer modules (cyclic groups and bounded integers);
morphisms are restricted to additive maps, enforced extensionally at
registration and on differentiation. The difference combinator drops
the base point, d[f](m, n) = f(n), and eps^r multiplies by a fixed
scalar r, which by default is neither zero nor the identity.
"""

from __future__ import annotations

import math
import random

import numpy as np

from ..errors import NotAdditive
from ..kernel import (
    DifferenceModel,
    compose,
    identity,
    is_group_homomorphism,
    pointwise,
    projection,
)
from ..morphisms import Auto, EqualityStrategy, Morphism, coord_builder
from ..spaces import (
    BoundedInt,
    CyclicGroup,
    Space,
    derive_seed,
    flatten,
    format_space,
    leaves,
    scale_elem,
    unflatten,
    v_scale,
)

_ADDITIVITY_PROBE = EqualityStrategy(Auto(count=48, seed=17), bound=4096)


def _hom_factor(src: Space, dst: Space) -> int:
    """f such that x -> f k x is a homomorphism src -> dst for every integer
    k: n / gcd(m, n) for Z_m -> Z_n, 0 for Z_m -> Int, 1 from Int."""
    if isinstance(src, BoundedInt):
        return 1
    if isinstance(dst, BoundedInt):
        return 0
    return dst.n // math.gcd(src.n, dst.n)


def _scaled(k: int, f: Morphism, name: str, model=None) -> Morphism:
    """`f` followed by multiplication by the integer `k`."""
    return pointwise(f, name, lambda c, x: scale_elem(c, k, x),
                     lambda c, v: v_scale(c, k, v), model=model)


class ModuleModel(DifferenceModel):
    def __init__(self, r: int = 2):
        super().__init__()
        self.r = r
        self.tag = f"module:r={r}"
        self.register_primitive("dbl", self._scale_primitive(2))
        self.register_primitive("triple", self._scale_primitive(3))
        self.register_primitive("neg", self._scale_primitive(-1))

    @staticmethod
    def _scale_primitive(k: int):
        return lambda space: _scaled(k, identity(space), f"x{k}")

    def legal_space(self, space: Space) -> bool:
        return all(isinstance(s, (CyclicGroup, BoundedInt)) for s in leaves(space))

    @property
    def default_space(self) -> Space:
        return BoundedInt(-100, 100)

    def require_additive(self, f: Morphism):
        if not is_group_homomorphism(f, _ADDITIVITY_PROBE):
            raise NotAdditive(f"{f!r} is not additive; the module model rejects it")

    def epsilon(self, f: Morphism) -> Morphism:
        return _scaled(self.r, f, f"eps({f.name})", model=self.tag)

    def _derivative(self, f: Morphism) -> Morphism:
        self.require_additive(f)
        d = compose(f, projection(1, f.dom, f.dom))
        d.model = self.tag
        d.name = f"d[{f.name}]"
        return d

    def random_subjects(self, space: Space, count: int, seed: int) -> list[Morphism]:
        """Random additive endomaps: an integer matrix over the leaf carriers,
        each entry scaled so that it maps its input leaf additively."""
        self.check_space(space)
        ls = leaves(space)
        out = []
        for i in range(count):
            rng = random.Random(derive_seed(seed, "module-subject",
                                            format_space(space), i))
            mat = [[rng.randint(-3, 3) * _hom_factor(src, dst) for src in ls] for dst in ls]

            def fn(x, _space=space, _mat=mat):
                flat = flatten(_space, x)
                outs = [sum(k * v for k, v in zip(row, flat)) for row in _mat]
                return unflatten(_space, outs)

            rows = max((sum(map(abs, row)) for row in mat), default=0)
            build = coord_builder(
                space, lambda x, _mat=mat: x @ np.array(_mat, dtype=np.int64).reshape(
                    len(_mat), len(_mat)).T, lambda m, _rows=rows: _rows * m)
            out.append(Morphism(space, space, fn, model=self.tag, name=f"lin{i}",
                                table_builder=build))
        return out
