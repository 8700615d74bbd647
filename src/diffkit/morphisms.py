"""Morphisms, extensional equality, and law reports.

A Morphism is a total evaluation procedure between two spaces plus
bookkeeping (model tag, display name). Equality of morphisms is
extensional over a finite test set: exhaustive when the domain
enumerates under a configured bound, otherwise seeded sampling.

Morphisms between spaces with an integer codec may also evaluate on
codes: `codes_at(m, idx)` gives the codomain codes of `m` at the domain
codes `idx` (`codes[k] == encode(cod, fn(decode(dom, idx[k])))`).
Domains that fit TABLE_LIMIT are tabulated once and indexed; larger
ones are evaluated at just the requested codes, so a composite whose
own domain is small reads big inner maps such as second derivatives
without filling their whole domains. Code evaluation lets exhaustive
comparisons over large product stages run as vectorized array
operations; closure evaluation stays the semantic ground truth and the
two are checked against each other in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DomainMismatch, InvalidArgument, SizeExceeded
from .spaces import (
    DEFAULT_ENUM_BOUND,
    Space,
    codec_size,
    decode,
    derive_seed,
    elements_equal,
    encode,
    format_space,
    iter_space,
    sample_space,
    space_size,
)

TABLE_LIMIT = 2_000_000  # max entries a lookup table may hold
_INT64_SAFE = 2**62  # codes above this cannot live in an int64 table


def table_codec_size(space: Space) -> Optional[int]:
    """Codec size when it is small enough for int64 table entries."""
    n = codec_size(space)
    return n if n is not None and n <= _INT64_SAFE else None


@dataclass(eq=False)
class Morphism:
    """Morphism identity is object identity; equality of morphisms is
    extensional and goes through `morphisms_equal`.

    `table` caches the integer-coded lookup table. `table_builder(idx=None)`
    returns the codomain codes at the domain codes `idx` (None: the whole
    domain in order), or None when it cannot; read it through `codes_at`.
    Builders run only when an exhaustive comparison actually needs codes,
    because a sampled check never visits most of a mid-size domain.
    `derivatives` memoizes `d[self]` per difference model, so repeated
    axiom instantiations share one derivative and its table, and the memo
    dies with the morphism.
    """

    dom: Space
    cod: Space
    fn: Callable
    model: Optional[str] = None
    name: str = "f"
    table: Optional[np.ndarray] = field(default=None, repr=False)
    table_builder: Optional[Callable] = field(default=None, repr=False)
    derivatives: dict = field(default_factory=dict, init=False, repr=False)

    def __call__(self, x):
        return self.fn(x)

    def __repr__(self):
        return f"<{self.name}: {format_space(self.dom)} -> {format_space(self.cod)}>"


def from_table(dom: Space, cod: Space, table: np.ndarray, model=None, name="table") -> Morphism:
    """Morphism backed by an explicit index table over codec spaces."""
    tbl = np.asarray(table, dtype=np.int64)

    def fn(x, _dom=dom, _cod=cod, _tbl=tbl):
        return decode(_cod, int(_tbl[encode(_dom, x)]))

    return Morphism(dom, cod, fn, model=model, name=name, table=tbl)


def domain_codes(space: Space, idx: Optional[np.ndarray]) -> np.ndarray:
    """`idx` itself, or every code of `space` in order when it is None."""
    return np.arange(codec_size(space), dtype=np.int64) if idx is None else idx


def _closure_codes(m: Morphism, codes) -> np.ndarray:
    return np.fromiter((encode(m.cod, m.fn(decode(m.dom, int(i)))) for i in codes),
                       dtype=np.int64, count=len(codes))


def tabulate(m: Morphism, limit: int = TABLE_LIMIT) -> Optional[np.ndarray]:
    """Force (and cache) the index table of `m`, if feasible.

    The builder is preferred and dropped once the table is cached, which
    frees the sub-morphisms it holds; as a last resort the closure is
    evaluated over the whole domain.
    """
    if m.table is not None:
        return m.table
    n = codec_size(m.dom)
    if n is None or n > limit or table_codec_size(m.cod) is None:
        return None
    if m.table_builder is not None:
        builder, m.table_builder = m.table_builder, None
        tbl = builder()
        if tbl is not None:
            m.table = tbl
            return tbl
    m.table = _closure_codes(m, range(n))
    return m.table


def codes_at(m: Morphism, idx: Optional[np.ndarray] = None) -> Optional[np.ndarray]:
    """Codomain codes of `m` at the domain codes `idx` (None: the whole domain).

    A domain that fits TABLE_LIMIT is tabulated once and indexed. A larger
    one is evaluated at `idx` only: through the builder, or, for a leaf
    without one, by the closure once per distinct code. None when either
    side of `m` has no int64 codec.
    """
    tbl = m.table if m.table is not None else tabulate(m)
    if tbl is not None:
        return tbl if idx is None else tbl[idx]
    if table_codec_size(m.dom) is None or table_codec_size(m.cod) is None:
        return None
    # both sides have codecs, so the domain is over TABLE_LIMIT
    if m.table_builder is not None:
        return m.table_builder(idx)
    codes, inverse = np.unique(domain_codes(m.dom, idx), return_inverse=True)
    return _closure_codes(m, codes)[inverse]


# ---------------------------------------------------------------------------
# equality strategies


@dataclass(frozen=True)
class Exhaustive:
    def describe(self) -> str:
        return "exhaustive"


@dataclass(frozen=True)
class Sampled:
    count: int = 256
    seed: int = 0

    def __post_init__(self):
        if self.count < 1:
            raise InvalidArgument("sample count must be positive")

    def describe(self) -> str:
        return f"sampled({self.count},seed={self.seed})"


@dataclass(frozen=True)
class Auto:
    """Exhaustive when the comparison domain fits the bound, else sampled.

    Law checks quantify over stages of varying size (A, A^3, A^4, ...),
    so the exhaustive/sampled split has to be decided per comparison.
    """

    count: int = 256
    seed: int = 0

    def __post_init__(self):
        if self.count < 1:
            raise InvalidArgument("sample count must be positive")

    def describe(self) -> str:
        return f"auto({self.count},seed={self.seed})"


@dataclass(frozen=True)
class EqualityStrategy:
    mode: object = Auto()
    abs_tol: float = 1e-9
    rel_tol: float = 1e-6
    bound: int = DEFAULT_ENUM_BOUND

    def describe(self) -> str:
        return self.mode.describe()

    @property
    def seed(self) -> int:
        """The mode's seed; 0 for modes without one (exhaustive)."""
        return getattr(self.mode, "seed", 0)

    def with_seed(self, seed: int) -> "EqualityStrategy":
        if isinstance(self.mode, (Sampled, Auto)):
            mode = type(self.mode)(self.mode.count, seed)
            return EqualityStrategy(mode, self.abs_tol, self.rel_tol, self.bound)
        return self

    def resolve(self, dom: Space) -> "EqualityStrategy":
        """Collapse Auto to a concrete mode for the given comparison domain."""
        if not isinstance(self.mode, Auto):
            return self
        n = space_size(dom)
        mode = (
            Exhaustive()
            if n is not None and n <= self.bound
            else Sampled(self.mode.count, self.mode.seed)
        )
        return EqualityStrategy(mode, self.abs_tol, self.rel_tol, self.bound)


DEFAULT_STRATEGY = EqualityStrategy(Auto())


@dataclass
class EqualityReport:
    passed: bool
    checked: int
    counterexample: Optional[dict] = None  # {"input":..., "lhs":..., "rhs":...}
    mode: str = "exhaustive"
    seed: Optional[int] = None


def to_jsonable(x):
    """Elements as JSON data: tuples become lists, numpy scalars plain ints."""
    if isinstance(x, tuple):
        return [to_jsonable(v) for v in x]
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.floating,)):
        return float(x)
    return x


def _test_points(dom: Space, strat: EqualityStrategy):
    if isinstance(strat.mode, Exhaustive):
        n = space_size(dom)
        if n is None or n > strat.bound:
            raise SizeExceeded(
                f"exhaustive mode illegal on {format_space(dom)} "
                f"(size {n} > bound {strat.bound})"
            )
        return iter_space(dom), None
    return sample_space(dom, strat.mode.count, strat.mode.seed), strat.mode.seed


def morphisms_equal(f: Morphism, g: Morphism, strat: EqualityStrategy) -> EqualityReport:
    """Extensional comparison; reports the first counterexample in test order."""
    if f.dom != g.dom or f.cod != g.cod:
        raise DomainMismatch(f"cannot compare {f!r} with {g!r}")
    strat = strat.resolve(f.dom)

    # vectorized path: exhaustive over a codec domain with both tables present
    if isinstance(strat.mode, Exhaustive):
        n = codec_size(f.dom)
        if n is not None and n <= strat.bound:
            tf = f.table if f.table is not None else tabulate(f)
            tg = g.table if g.table is not None else tabulate(g)
            if tf is not None and tg is not None:
                diff = np.nonzero(tf != tg)[0]
                if diff.size == 0:
                    return EqualityReport(True, n, mode="exhaustive")
                i = int(diff[0])
                x = decode(f.dom, i)
                return EqualityReport(
                    False,
                    n,
                    counterexample={
                        "input": to_jsonable(x),
                        "lhs": to_jsonable(decode(f.cod, int(tf[i]))),
                        "rhs": to_jsonable(decode(g.cod, int(tg[i]))),
                    },
                    mode="exhaustive",
                )

    points, seed = _test_points(f.dom, strat)
    checked = 0
    for x in points:
        checked += 1
        a, b = f(x), g(x)
        if not elements_equal(f.cod, a, b, strat.abs_tol, strat.rel_tol):
            return EqualityReport(
                False,
                checked,
                counterexample={
                    "input": to_jsonable(x),
                    "lhs": to_jsonable(a),
                    "rhs": to_jsonable(b),
                },
                mode=strat.describe(),
                seed=seed,
            )
    return EqualityReport(True, checked, mode=strat.describe(), seed=seed)


# ---------------------------------------------------------------------------
# law reports


@dataclass
class LawReport:
    axiom: str
    model: str
    subject: str
    strategy: str
    checked: int
    violations: int
    counterexample: Optional[dict] = None
    seed: int = 0
    verdict: Optional[str] = None  # only "unknown" is ever emitted

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def to_dict(self) -> dict:
        d = {
            "axiom": self.axiom,
            "model": self.model,
            "subject": self.subject,
            "strategy": self.strategy,
            "checked": self.checked,
            "violations": self.violations,
        }
        if self.counterexample is not None:
            d["counterexample"] = self.counterexample
        d["seed"] = self.seed
        if self.verdict is not None:
            d["verdict"] = self.verdict
        return d


def report_from_equalities(
    axiom: str,
    model: str,
    subject: str,
    pairs,
    strat: EqualityStrategy,
    equal_fn=None,
) -> LawReport:
    """Fold (label, lhs, rhs) morphism pairs into one LawReport, recording
    the strategy's seed."""
    if equal_fn is None:
        equal_fn = morphisms_equal
    checked = 0
    violations = 0
    counterexample = None
    for label, lhs, rhs in pairs:
        s = strat
        if isinstance(strat.mode, (Sampled, Auto)):
            s = strat.with_seed(derive_seed(strat.mode.seed, axiom, label))
        rep = equal_fn(lhs, rhs, s)
        checked += rep.checked
        if not rep.passed:
            violations += 1
            if counterexample is None:
                counterexample = dict(rep.counterexample or {}, clause=label)
    return LawReport(
        axiom=axiom,
        model=model,
        subject=subject,
        strategy=strat.describe(),
        checked=checked,
        violations=violations,
        counterexample=counterexample,
        seed=strat.seed,
    )
