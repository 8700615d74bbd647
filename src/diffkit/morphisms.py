"""Morphisms, extensional equality, and law reports.

A Morphism is a total evaluation procedure between two spaces plus
bookkeeping (model tag, display name). Equality of morphisms is
extensional over a finite test set: exhaustive when the domain
enumerates under a configured bound, otherwise seeded sampling.

Morphisms between spaces with integer coordinates may also evaluate on
batches (`spaces`: codes where a space has an int64 codec, coordinate
arrays otherwise): `codes_at(m, idx)` gives the codomain batch of `m` at
the domain batch `idx`, as int64. A codec domain is tabulated once and
indexed by the three rules at `codes_at`: a small domain, a memoized
derivative read by a large stage, and a pool-shared `Wiring` (a map that
only selects coordinates) once it has given as many codes as its domain
holds. A table of more than BLOCK codes is filled in blocks and kept in the
narrowest unsigned dtype for its codomain's codes: a second derivative on
`(Z5 x Z5)` keeps one byte per code. Anything else is evaluated at just
the requested codes, so a composite reads a big inner map without filling
its whole domain.

A stacked map (`kernel.SubjectPool`) holds the tables of several subjects
as the rows of one table, and every map built from it has `rows` set: its
batches carry a leading subject axis, `(rows, N)` codes. Structure maps
keep one row, and indexing broadcasts them against the subject axis; the
builders are elementwise, so they take either shape. A pool table is read in
C order, so every batch built from it is C-ordered too. The rules above apply
per row, and a table of more than BLOCK entries in all is filled in blocks.

`morphisms_equal` walks its test set in one loop of chunks (stacked maps:
`_rows_equal`, the same points for every row). On a stage
with batches a chunk is one batch: codes or coordinates read through
`codes_at`, or, on a real stage (every coordinate real), one call of each
side's closure on the float64 columns of the chunk's points. Where a side
has no batch form at a chunk, or the stage has none, the closures take
the chunk's points one at a time. Closure evaluation stays the semantic
ground truth: it recomputes every counterexample, and the test suite
checks batches against it.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DomainMismatch, InternalError, InvalidArgument, SizeExceeded
from .spaces import (
    DEFAULT_ENUM_BOUND,
    Space,
    batch_coords,
    batch_sampler,
    codec_size,
    coords_batch,
    decode,
    derive_seed,
    elements_equal,
    encode,
    enum_batch,
    flatten,
    format_space,
    has_batches,
    int64_guard,
    iter_space,
    magnitude,
    real_stage,
    sample_space,
    space_size,
    table_codec_size,
    unflatten,
    wiring_codes,
)

TABLE_LIMIT = 2_000_000  # max entries a lookup table may hold
# A comparison evaluates its points MAX_CHUNK at a time, which bounds its
# memory. A sampled one evaluates its first FIRST_CHUNK points alone, so that
# a refutation stops early; an exhaustive one does not, so that its first
# chunk fills the tables of a codec stage that fits TABULATE_RATIO chunks.
FIRST_CHUNK = 16
MAX_CHUNK = 4096
# A request tabulates a codec domain of at most TABULATE_RATIO times its own
# size and at most BLOCK codes, so a small sample does not fill a large
# table (`codes_at` has the exception). A table of more than BLOCK codes is
# filled BLOCK codes at a time, which bounds the temporaries of filling it.
TABULATE_RATIO = 16
BLOCK = TABULATE_RATIO * MAX_CHUNK


@dataclass(eq=False)
class Morphism:
    """Morphism identity is object identity; equality of morphisms is
    extensional and goes through `morphisms_equal`.

    `table` caches the integer-coded lookup table: int64 when given, in
    `table_dtype` when `tabulate` builds it.
    `table_builder(idx=None)` returns the codomain batch at the domain
    batch `idx` (None: every code of a codec domain in order), or None when
    it cannot; it raises OverflowError rather than let a value wrap in
    int64. The constructor wraps it so that a call without `idx` fills a
    table of more than BLOCK codes block by block (`_blocked`). Read both
    through `codes_at`. Builders run only when a comparison needs batches,
    and a sampled one evaluates them at its drawn points only.
    `rows` is set on a stacked map (`kernel.SubjectPool`) and on every map
    built from one: its batches carry a leading subject axis, a row per
    subject, and its table has that many rows. `memoized` marks a
    derivative, which a pool keeps for its run (`kernel.BaseCat.derivative`).
    `last` is `codes_at`'s last `(idx, batch)`.
    """

    dom: Space
    cod: Space
    fn: Callable
    model: Optional[str] = None
    name: str = "f"
    table: Optional[np.ndarray] = field(default=None, repr=False)
    table_builder: Optional[Callable] = field(default=None, repr=False)
    rows: Optional[int] = field(default=None, repr=False)
    memoized: bool = field(default=False, init=False, repr=False)
    last: Optional[tuple] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        n = table_codec_size(self.dom)
        entries = (n or 0) * (self.rows or 1)
        if (self.table_builder is not None and n is not None and n <= TABLE_LIMIT
                and entries > BLOCK and table_codec_size(self.cod) is not None):
            self.table_builder = _blocked(n, self.rows, table_dtype(entries, self.cod),
                                          self.table_builder,
                                          functools.partial(_closure_codes, self.dom, self.cod,
                                                            self.fn))

    def __call__(self, x):
        return self.fn(x)

    def __repr__(self):
        return f"<{self.name}: {format_space(self.dom)} -> {format_space(self.cod)}>"


def from_table(dom: Space, cod: Space, table: np.ndarray, model=None, name="table") -> Morphism:
    """Morphism backed by an explicit index table over codec spaces; every
    entry must be a code of `cod`."""
    tbl = np.asarray(table)
    if tbl.ndim != 1 or tbl.size and tbl.dtype.kind not in "iu":
        raise InvalidArgument(f"table {name!r} must be a flat list of integer codes")
    tbl = tbl.astype(np.int64, copy=False)
    n = codec_size(cod)
    if len(tbl) and not (0 <= tbl.min() and tbl.max() < n):
        raise InvalidArgument(f"table {name!r} has an entry outside the codes 0..{n - 1} "
                              f"of {format_space(cod)}")

    def fn(x, _dom=dom, _cod=cod, _tbl=tbl):
        return decode(_cod, int(_tbl[encode(_dom, x)]))

    return Morphism(dom, cod, fn, model=model, name=name, table=tbl)


@dataclass(eq=False, repr=False)
class Wiring(Morphism):
    """A map between codec spaces that selects coordinates: codomain
    coordinate j is domain coordinate `cols[j]`. Its batch comes from the
    codes of its request in one mixed-radix pass (`wiring_codes`); `moves`
    is False for the identity on codes, whose batch is the request itself.
    `given` counts the codes its builder has given (rule 3 of `codes_at`)."""

    cols: tuple = ()
    moves: bool = True
    given: int = field(default=0, init=False)


def wiring(m: Morphism, cols: tuple[int, ...]) -> Wiring:
    """`m`, which selects coordinates `cols`, as a Wiring: one that reads none
    of the maps `m` was built from."""
    dom, wire = m.dom, wiring_codes(m.dom, cols)
    build = ((lambda idx=None: domain_codes(dom, idx)) if wire is None
             else lambda idx=None: wire(domain_codes(dom, idx)))
    return Wiring(dom, m.cod, m.fn, model=m.model, name=m.name, table_builder=build,
                  cols=cols, moves=wire is not None)


def domain_codes(space: Space, idx: Optional[np.ndarray]) -> np.ndarray:
    """`idx` itself, or every code of `space` in order when it is None."""
    return np.arange(codec_size(space), dtype=np.int64) if idx is None else idx


def coord_builder(space: Space, fn: Callable, bound: Callable[[int], int]) -> Callable:
    """Table builder of an endomap of `space` that is `fn` on coordinate
    arrays; `bound(m)` bounds the magnitude of every value `fn` computes
    from coordinates of magnitude at most m."""

    def build(idx=None):
        x = batch_coords(space, domain_codes(space, idx))
        int64_guard(bound(magnitude(x)))
        return coords_batch(space, fn(x))

    return build


def table_dtype(n: int, cod: Space) -> np.dtype:
    """The dtype of a table of `n` entries (codes times rows) into the codec
    space `cod`: int64 up to BLOCK entries, else the narrowest unsigned dtype
    of at most 32 bits that holds the codes of `cod` (int64 when none does)."""
    narrow = np.min_scalar_type(table_codec_size(cod) - 1)
    return narrow if n > BLOCK and narrow.itemsize < 8 else np.dtype(np.int64)


def _blocked(n: int, rows: Optional[int], dtype: np.dtype, build: Callable,
             closure: Callable) -> Callable:
    """`build` on a codec domain of `n` codes, except that a call without
    `idx` fills the table (a row per subject when `rows` is set) in blocks
    of at most BLOCK entries, into a preallocated array of `dtype`: no
    whole-domain temporaries. A block that `build` cannot give (None, or an
    OverflowError) is filled by `closure(codes, dtype)`, and the other
    blocks keep their batches. The call keeps its signature, so whoever
    holds the builder (`tabulate`, or a wrapper of it) gets the blocks."""
    step = max(1, BLOCK // (rows or 1))

    def blocked(idx=None):
        if idx is not None:
            return build(idx)
        out = np.empty(n if rows is None else (rows, n), dtype)
        for start in range(0, n, step):
            codes = np.arange(start, min(n, start + step), dtype=np.int64)
            part = _built(build, codes)
            out[..., start:start + len(codes)] = closure(codes, dtype) if part is None else part
        return out

    return blocked


class Unstacked(Exception):
    """A stacked map met a step without batches, where it has no closure to
    fall back on: its pool runs subject by subject instead."""


def no_closure(x):
    """The closure of a stacked map, which has a value per subject."""
    raise Unstacked("a stacked map has no closure")


def _closure_codes(dom: Space, cod: Space, fn: Callable, codes, dtype=np.int64) -> np.ndarray:
    return np.fromiter((encode(cod, fn(decode(dom, int(i)))) for i in codes),
                       dtype=dtype, count=len(codes))


def tabulate(m: Morphism) -> Optional[np.ndarray]:
    """Force (and cache) the index table of `m`, if feasible.

    The builder is preferred and dropped once the table is cached, which
    frees the sub-morphisms it holds. The closure fills what the builder
    cannot: the whole domain, or only those blocks of a table filled in
    blocks (`_blocked`). The table is read-only and in
    `table_dtype`: read it through `codes_at`, which widens it.
    """
    if m.table is not None:
        return m.table
    n = table_codec_size(m.dom)
    if n is None or n > TABLE_LIMIT or table_codec_size(m.cod) is None:
        return None
    tbl = None
    if m.table_builder is not None:
        builder, m.table_builder = m.table_builder, None
        tbl = _built(builder)
    if tbl is None:
        tbl = _closure_codes(m.dom, m.cod, m.fn, range(n), table_dtype(n, m.cod))
    m.table = tbl
    m.table.setflags(write=False)
    return m.table


def _built(builder: Callable, *idx) -> Optional[np.ndarray]:
    try:
        return builder(*idx)
    except OverflowError:
        return None


def _tabulates(m: Morphism, request: int) -> bool:
    """Rules 1-3 of `codes_at` for a read of `request` codes per table row."""
    n = table_codec_size(m.dom) or 0
    return (n <= min(BLOCK, TABULATE_RATIO * request)
            or m.memoized and request > MAX_CHUNK
            or isinstance(m, Wiring) and m.moves and m.given >= n)


def codes_at(m: Morphism, idx: Optional[np.ndarray] = None) -> Optional[np.ndarray]:
    """Codomain batch of `m` at the domain batch `idx` (None: the whole
    codec domain), always int64: a table in a narrower dtype is widened as
    it is read, so `pair_batch`'s arithmetic cannot wrap.

    The codec domain of `m` is tabulated once, and then indexed, for a
    request of None, or (`_tabulates`) when: 1. it has at most BLOCK codes
    and at most TABULATE_RATIO times the request; 2. `m` is a memoized
    derivative and the request has more than MAX_CHUNK codes (the
    tabulation of a larger stage); 3. `m` is a wiring other than the
    identity on codes whose builder has given as many codes as its domain
    holds, so the table costs no more than the reads it has served: the
    second exhaustive comparison of a pool tabulates it, a pool of one
    subject or a single sampled comparison never does. A wiring is kept by
    a `kernel.BaseCat`, so its table serves the rest of the pool and dies
    with it. No domain past TABLE_LIMIT is tabulated (`tabulate`). Anything
    else is evaluated at `idx` only: through the builder, or, for a map
    between codec spaces without one, by the closure once per distinct
    code. None when the builder is missing or would overflow int64.

    A stacked map's table is read at the same codes in every row for a 1-D
    request, and row by row for a `(rows, N)` one, into a C-ordered batch;
    the rules count a request per table row.

    A batch for at most MAX_CHUNK codes from the builder or the closure is
    read-only, and kept for the same request object (`is`, not equal values):
    a sub-map shared within a chunk runs once. So a builder never writes into
    an array it did not allocate. A table read is cheap and not kept, so a
    subject that outlives its comparison holds no chunk. The identity on
    codes gives the request itself, made read-only in turn.
    """
    last = m.last  # read once: (idx, batch) is replaced whole, never edited
    if last is not None and last[0] is idx:
        return last[1]
    tbl = m.table
    if tbl is None and (idx is None or _tabulates(m, idx.size if m.rows is None
                                                  else idx.shape[-1])):
        tbl = tabulate(m)
    if tbl is not None:  # a 1-D `take` would copy a read-only idx
        if idx is None:
            out = tbl
        elif tbl.ndim == 1:
            out = tbl[idx]
        else:  # `tbl[:, idx]` would be in Fortran order, and so every batch built on it
            out = tbl.take(idx, axis=1) if idx.ndim == 1 else np.take_along_axis(tbl, idx, axis=1)
        return out if out.itemsize == 8 else out.astype(np.int64)
    if m.table_builder is not None:
        out = _built(m.table_builder, idx)
        if isinstance(m, Wiring) and idx is not None:
            m.given += idx.size
    elif table_codec_size(m.dom) is None or table_codec_size(m.cod) is None:
        return None
    else:
        codes = domain_codes(m.dom, idx)
        uniq, inverse = np.unique(codes, return_inverse=True)
        out = _closure_codes(m.dom, m.cod, m.fn, uniq)[inverse.reshape(codes.shape)]
    if out is not None and idx is not None and idx.size <= MAX_CHUNK:
        out.setflags(write=False)
        m.last = (idx, out)
    return out


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
    misses: Optional[dict] = None  # stacked maps: failing row -> its checked count


def to_jsonable(x):
    """Elements as JSON data: tuples become lists, numpy scalars plain ints."""
    if isinstance(x, tuple):
        return [to_jsonable(v) for v in x]
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.floating,)):
        return float(x)
    return x


def _refuted(checked: int, x, lhs, rhs, strat: EqualityStrategy, seed) -> EqualityReport:
    cx = {"input": to_jsonable(x), "lhs": to_jsonable(lhs), "rhs": to_jsonable(rhs)}
    return EqualityReport(False, checked, counterexample=cx, mode=strat.describe(), seed=seed)


def _point(space: Space, x: np.ndarray, k: int):
    """The element of `space` at row `k` of the batch or real coordinates `x`."""
    return decode(space, int(x[k])) if x.ndim == 1 else unflatten(space, x[k].tolist())


def _code_mismatch(f: Morphism, g: Morphism, x: np.ndarray, strat) -> Optional[np.ndarray]:
    """Where the batches of `f` and `g` at `x` differ (exactly: `strat`'s
    tolerances are for reals); None: no batches."""
    a = codes_at(f, x)
    b = None if a is None else codes_at(g, x)
    if b is None:
        return None
    ne = a != b  # codes: (N,), or (rows, N) on stacked maps; else (N, d) coordinates
    return ne if table_codec_size(f.cod) else ne.any(axis=1)


def _float_columns(m: Morphism, p, n: int) -> Optional[np.ndarray]:
    """The (n, w) values of `m` at `p`, an element whose scalars are columns
    of n points, by one call of its closure; None when the call raises,
    gives other than float64 values broadcastable to (n,), or a value that is
    not finite. The closures then redo the points one by one: they raise a
    genuine error again, and `_real_close` judges non-finite values."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            cols = [np.asarray(c) for c in flatten(m.cod, m.fn(p))]
        if any(c.dtype != np.float64 for c in cols):
            return None
        out = np.empty((n, len(cols)))
        for j, c in enumerate(cols):
            out[:, j] = c
    except Exception:  # a float error, or a closure not generic over arrays
        return None
    return out if np.isfinite(out).all() else None


def _column_mismatch(f: Morphism, g: Morphism, x: np.ndarray, strat) -> Optional[np.ndarray]:
    """Where `f` and `g` differ beyond the tolerances at the float64
    coordinates `x` of a real stage, as `_real_close` decides point by
    point; None when a side has no column form there."""
    p = unflatten(f.dom, list(x.T))
    a = _float_columns(f, p, len(x))
    b = None if a is None else _float_columns(g, p, len(x))
    if b is None:
        return None
    tol = strat.abs_tol + strat.rel_tol * np.maximum(np.abs(a), np.abs(b))
    return ~(np.abs(a - b) <= tol).all(axis=1)


def morphisms_equal(f: Morphism, g: Morphism, strat: EqualityStrategy) -> EqualityReport:
    """Extensional comparison; reports the first counterexample in test order,
    with `checked` its index plus one (the test-set size when it passes).
    A stage without batches (see the module docstring) gives the closures
    its points from `iter_space`/`sample_space`."""
    if f.dom != g.dom or f.cod != g.cod:
        raise DomainMismatch(f"cannot compare {f!r} with {g!r}")
    dom = f.dom
    strat = strat.resolve(dom)
    rows = f.rows or g.rows
    if isinstance(strat.mode, Exhaustive):
        count, seed = space_size(dom), None
        if count is None or count > strat.bound:
            raise SizeExceeded(
                f"exhaustive mode illegal on {format_space(dom)} "
                f"(size {count} > bound {strat.bound})"
            )
    else:
        count, seed = strat.mode.count, strat.mode.seed
    if rows is not None:
        return _rows_equal(f, g, strat, count, seed, rows)
    mismatch = _column_mismatch if real_stage(dom) else (
        _code_mismatch if has_batches(dom) and has_batches(f.cod) else None)
    if mismatch is None:
        points = iter(iter_space(dom) if seed is None else sample_space(dom, count, seed))
    elif seed is not None:
        draw = batch_sampler(dom, seed)
    start, size = 0, MAX_CHUNK if seed is None else FIRST_CHUNK
    while start < count:
        stop = min(count, start + size)
        if mismatch is None:
            at, ne = list(itertools.islice(points, stop - start)).__getitem__, None
        else:
            x = enum_batch(dom, start, stop) if seed is None else draw(stop - start)
            at, ne = functools.partial(_point, dom, x), mismatch(f, g, x, strat)
        if ne is None:  # the closures, one point at a time up to the first mismatch
            k = next((k for k, p in enumerate(map(at, range(stop - start)))
                      if not elements_equal(f.cod, f(p), g(p), strat.abs_tol, strat.rel_tol)),
                     None)
        else:
            k = next(map(int, np.flatnonzero(ne)), None)
        if k is not None:
            p = at(k)
            lhs, rhs = f(p), g(p)
            if elements_equal(f.cod, lhs, rhs, strat.abs_tol, strat.rel_tol):
                raise InternalError(f"batches and closures disagree at {p!r}: the batches of "
                                    f"{f!r} and {g!r} differ there, their closures give {lhs!r}")
            return _refuted(start + k + 1, p, lhs, rhs, strat, seed)
        start, size = stop, MAX_CHUNK
    return EqualityReport(True, count, mode=strat.describe(), seed=seed)


def _rows_equal(f: Morphism, g: Morphism, strat, count: int, seed, rows: int) -> EqualityReport:
    """`morphisms_equal` of stacked maps, each row a subject's comparison:
    `misses` gives each failing row's first mismatch in test order, plus one,
    and `checked` sums them with the test-set size of each row that passes.
    The points, and the tables a chunk fills, are those of one subject's
    comparison; a chunk is read at most MAX_CHUNK entries at a time, and rows
    that have failed drop out. Unstacked where a batch is missing."""
    dom = f.dom
    if not table_codec_size(dom):
        raise Unstacked(f"no codes on {format_space(dom)}")
    draw = None if seed is None else batch_sampler(dom, seed)
    live, misses = np.ones(rows, dtype=bool), {}
    start, size, step = 0, MAX_CHUNK if seed is None else FIRST_CHUNK, max(1, MAX_CHUNK // rows)
    while start < count and live.any():
        stop = min(count, start + size)
        x = enum_batch(dom, start, stop) if seed is None else draw(stop - start)
        for m in (f, g):
            if m.table is None and _tabulates(m, stop - start):
                tabulate(m)
        for lo in range(0, stop - start, step):
            ne = _code_mismatch(f, g, x[lo:lo + step], strat)
            if ne is None:
                raise Unstacked(f"no batches of {f!r} or {g!r}")
            if not ne.any():
                continue
            ne = np.broadcast_to(ne, (rows, ne.shape[-1])) & live[:, None]
            hit = ne.any(axis=1)
            for r, k in zip(np.flatnonzero(hit).tolist(), ne[hit].argmax(axis=1).tolist()):
                misses[r] = start + lo + k + 1
            live &= ~hit
            if not live.any():
                break
        start, size = stop, MAX_CHUNK
    checked = sum(misses.values()) + count * (rows - len(misses))
    return EqualityReport(not misses, checked, mode=strat.describe(), seed=seed, misses=misses)


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
        # looked up per call, not bound as the default, so a tracer that
        # rebinds `morphisms_equal` in this module sees these comparisons
        equal_fn = morphisms_equal
    checked = 0
    violations = 0
    counterexample = None
    for label, lhs, rhs in pairs:
        rep = equal_fn(lhs, rhs, strat.with_seed(derive_seed(strat.seed, axiom, label)))
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
