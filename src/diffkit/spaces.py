"""Finite-product spaces and their element algebra.

A Space describes a carrier with enough structure for extensional law
checking: every space is a commutative monoid (all shipped kinds are in
fact abelian groups), finite kinds are enumerable in a deterministic
order, and every kind supports seeded sampling.

Element representation is plain Python data keyed by the space shape:

    CyclicGroup(n)        int in [0, n)
    BoundedInt(lo, hi)    int (the carrier is all of Z; [lo, hi] bounds
                          enumeration and sampling only)
    Real(d)               tuple of d floats (dual numbers may appear
                          transiently during smooth differentiation)
    StreamPrefix(b, K)    tuple of K elements of b, index 0 first
    Product(l, r)         2-tuple (x, y)
    Terminal              ()
    FunctionSpace(a, r)   tuple of |a| elements of r, position j being
                          the value at the j-th element of enumerate(a)

This module is the only one that knows that layout. Each space builds
its element operations once, on first use (`Space.ops`: zero, add, neg,
sub, scale, equal, coordinates, the codec, enumeration): closures
over the children's operations, so a call walks the element, never the
space. Models reach scalar leaves through `leaves`, `flatten`/`unflatten`
and `leafwise` only. The coordinates of an element are its scalars in
leaf order: one per Z<n> or Int leaf, d per R^d, and for a stream or
function leaf the coordinates of its k positions, position 0 first.

Stream truncation and the difference combinator's splice are prefix
surgery, written once: `splice_at(space, p, a, b)` takes indices < p of
every stream leaf from `a` and the rest from `b`, and on batches `v_trunc`
and `v_splice0` move the index-0 digits or columns of each stream leaf.

Spaces whose carrier is finite and closed under the group operations
(everything except BoundedInt and Real) additionally get an integer
codec, used by the table backend in `morphisms`. A code is a mixed-radix
number over the CyclicGroup leaves, most significant first (`radices`;
Terminal has radix 1). `v_add`, `v_sub`, `v_neg` and `v_scale` act on
each digit modulo its radix, by gathers from Cayley tables (n x n, or
length n, for n codes) kept by radices, so equal-radix spaces share them:
one table of all the digits while it holds at most CAYLEY_LIMIT entries,
else one per block of consecutive digits (a digit too large for a table of
its own is computed directly). On a batch of coordinates (see "batches"
below) they act column by column.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import operator
import random
import weakref
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np

from .errors import InvalidArgument, NotEnumerable, SizeExceeded, TypeMismatch

DEFAULT_ENUM_BOUND = 100_000
REAL_SAMPLE_LO = -10.0
REAL_SAMPLE_HI = 10.0


@dataclass(frozen=True)
class Space:
    """Base class; concrete kinds below."""

    # a declared field, not a cached_property: reading `__dict__` would turn
    # the instance's attributes into a plain dict and slow every field read
    _ops: Optional["ElementOps"] = field(default=None, init=False, repr=False, compare=False)
    # the batch layout (`_layout`), kept the same way; False: no batches
    _batch: object = field(default=None, init=False, repr=False, compare=False)

    @property
    def ops(self) -> "ElementOps":
        """This space's element operations, built on first use and kept."""
        ops = self._ops
        if ops is None:
            ops = _build_ops(self)
            object.__setattr__(self, "_ops", ops)
        return ops


@dataclass(frozen=True)
class CyclicGroup(Space):
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise InvalidArgument("cyclic group order must be positive")


@dataclass(frozen=True)
class BoundedInt(Space):
    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise InvalidArgument("empty integer range")


@dataclass(frozen=True)
class Real(Space):
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidArgument("dimension must be positive")


@dataclass(frozen=True)
class StreamPrefix(Space):
    base: Space
    length: int

    def __post_init__(self):
        if self.length < 1:
            raise InvalidArgument("prefix length must be positive")


@dataclass(frozen=True)
class Product(Space):
    left: Space
    right: Space


@dataclass(frozen=True)
class Terminal(Space):
    pass


@dataclass(frozen=True)
class FunctionSpace(Space):
    """Exponential object: total lookup tables arg -> res, both finite."""

    arg: Space
    res: Space


TERMINAL = Terminal()


# ---------------------------------------------------------------------------
# element algebra, built once per space


class ElementOps(NamedTuple):
    """The element operations of one space (`Space.ops`).

    Each is a closure over the children's prebuilt operations, so a call walks
    the element and never the space. `scale` takes `(r, a)`, `equal` takes
    `(a, b, abs_tol, rel_tol)`, and `unflatten` `(coords, pos)`, returning
    the element and the next position. `elements()` iterates over the `size`
    elements of the enumeration (size None: not enumerable). `coords` describes each coordinate, in `flatten`
    order: `(lo, size, n)` for the window lo .. lo + size - 1 of a Z<n> or
    Int leaf (n = 0 for an Int), None for a real one. An operation the space
    lacks raises when called.
    """

    zero: object
    add: Callable
    neg: Callable
    sub: Callable
    scale: Callable
    equal: Callable
    flatten: Callable
    unflatten: Callable
    encode: Callable
    decode: Callable
    elements: Callable
    size: Optional[int]
    coords: tuple


def _fails(exc, space: Space, message):
    """An operation `space` lacks, raising `exc(message(space))`; it holds the
    space weakly, so the space's `_ops` make no reference cycle."""
    ref = weakref.ref(space)

    def fail(*_):
        raise exc(message(ref()))

    return fail


def _build_ops(space: Space) -> ElementOps:
    no_codec = _fails(NotEnumerable, space, lambda s: f"no integer codec for {s!r}")
    if isinstance(space, CyclicGroup):
        n = space.n
        return ElementOps(
            0,
            lambda a, b: (a + b) % n,
            lambda a: (-a) % n,
            lambda a, b: (a + (-b) % n) % n,
            lambda r, a: (r * a) % n,
            lambda a, b, at, rt: a == b,
            lambda a: [a],
            lambda v, pos: (v[pos] % n, pos + 1),
            lambda a: a % n,
            lambda i: i % n,
            lambda: iter(range(n)),
            n,
            ((0, n, n),),
        )
    if isinstance(space, BoundedInt):
        lo, hi = space.lo, space.hi
        return ElementOps(
            0,
            operator.add,
            operator.neg,
            lambda a, b: a + (-b),
            operator.mul,
            lambda a, b, at, rt: a == b,
            lambda a: [a],
            lambda v, pos: (v[pos], pos + 1),
            no_codec,
            no_codec,
            lambda: iter(range(lo, hi + 1)),
            hi - lo + 1,
            ((lo, hi - lo + 1, 0),),
        )
    if isinstance(space, Real):
        d = space.dim
        return ElementOps(
            (0.0,) * d,
            lambda a, b: tuple(map(operator.add, a, b)),
            lambda a: tuple(map(operator.neg, a)),
            lambda a, b: tuple([x + (-y) for x, y in zip(a, b)]),
            lambda r, a: tuple([r * x for x in a]),
            lambda a, b, at, rt: all(_real_close(x, y, at, rt) for x, y in zip(a, b)),
            list,
            lambda v, pos: (tuple(v[pos : pos + d]), pos + d),
            no_codec,
            no_codec,
            _fails(NotEnumerable, space, lambda s: f"{format_space(s)} is not enumerable"),
            None,
            (None,) * d,
        )
    if isinstance(space, (StreamPrefix, FunctionSpace)):
        # k elements of one space, acted on position by position; a code is
        # the base-b number whose digits are the positions' codes, first first
        if isinstance(space, StreamPrefix):
            base, k = space.base, space.length
        else:
            base, k = space.res, space_size(space.arg)
            if k is None:
                raise NotEnumerable(f"{format_space(space)} has a non-enumerable argument")
        z, add, neg, sub, scale, equal, flat, unflat, enc, dec, elems, bs, sc = base.ops
        b = codec_size(base)

        def unflatten(v, pos):
            out = []
            for _ in range(k):
                x, pos = unflat(v, pos)
                out.append(x)
            return tuple(out), pos

        def encode(a):
            i = 0
            for x in a:
                i = i * b + enc(x)
            return i

        def decode(i):
            out = []
            for _ in range(k):
                out.append(dec(i % b))
                i //= b
            return tuple(reversed(out))

        return ElementOps(
            (z,) * k,
            lambda a, c: tuple(map(add, a, c)),
            lambda a: tuple(map(neg, a)),
            lambda a, c: tuple(map(sub, a, c)),
            lambda r, a: tuple([scale(r, x) for x in a]),
            lambda a, c, at, rt: all(equal(x, y, at, rt) for x, y in zip(a, c)),
            lambda a: [c for x in a for c in flat(x)],
            unflatten,
            no_codec if b is None else encode,
            no_codec if b is None else decode,
            lambda: itertools.product(elems(), repeat=k),
            None if bs is None else bs**k,
            sc * k,
        )
    if isinstance(space, Product):
        lz, ladd, lneg, lsub, lscale, leq, lflat, lunflat, lenc, ldec, lelems, ls, lsc = \
            space.left.ops
        rz, radd, rneg, rsub, rscale, req, rflat, runflat, renc, rdec, relems, rs, rsc = \
            space.right.ops
        rn = codec_size(space.right)

        def unflatten(v, pos):
            x, pos = lunflat(v, pos)
            y, pos = runflat(v, pos)
            return (x, y), pos

        return ElementOps(
            (lz, rz),
            lambda a, b: (ladd(a[0], b[0]), radd(a[1], b[1])),
            lambda a: (lneg(a[0]), rneg(a[1])),
            lambda a, b: (lsub(a[0], b[0]), rsub(a[1], b[1])),
            lambda r, a: (lscale(r, a[0]), rscale(r, a[1])),
            lambda a, b, at, rt: leq(a[0], b[0], at, rt) and req(a[1], b[1], at, rt),
            lambda a: lflat(a[0]) + rflat(a[1]),
            unflatten,
            no_codec if rn is None else lambda a: lenc(a[0]) * rn + renc(a[1]),
            no_codec if rn is None else lambda i: (ldec(i // rn), rdec(i % rn)),
            lambda: itertools.product(lelems(), relems()),
            None if ls is None or rs is None else ls * rs,
            lsc + rsc,
        )
    if isinstance(space, Terminal):
        return ElementOps(
            (),
            lambda a, b: (),
            lambda a: (),
            lambda a, b: (),
            lambda r, a: (),
            lambda a, b, at, rt: True,
            lambda a: [],
            lambda v, pos: ((), pos),
            lambda a: 0,
            lambda i: (),
            lambda: iter([()]),
            1,
            (),
        )
    raise TypeMismatch(f"unknown space {space!r}")


# `space._ops or space.ops`: one attribute read, not a property call
def zero_elem(space: Space):
    return (space._ops or space.ops).zero


def add_elem(space: Space, a, b):
    return (space._ops or space.ops).add(a, b)


def neg_elem(space: Space, a):
    return (space._ops or space.ops).neg(a)


def sub_elem(space: Space, a, b):
    """`a + (-b)` leaf by leaf (with Dual entries `a - b` may differ in the
    sign of a zero tangent)."""
    return (space._ops or space.ops).sub(a, b)


def scale_elem(space: Space, r, a):
    """r-fold scalar action; integer r on discrete spaces, any real on Real."""
    return (space._ops or space.ops).scale(r, a)


def splice_at(space: Space, p: int, a, b, what: str = "splice"):
    """Indices < p of every stream leaf from `a`, indices >= p from `b`; any
    other leaf raises TypeMismatch ("<what> needs a stream-shaped space")."""

    def leaf(s, x, y):
        if not isinstance(s, StreamPrefix):
            raise TypeMismatch(f"{what} needs a stream-shaped space, got {s!r}")
        return tuple(x[:p]) + tuple(y[p:])

    return leafwise(space, leaf, a, b)


def truncate_elem(space: Space, a):
    """Stream truncation z: zero index 0 of every stream leaf, keep the rest."""
    return splice_at(space, 1, zero_elem(space), a, "truncation")


def splice0_elem(space: Space, a, b):
    """Index 0 of every stream leaf from `a`, indices >= 1 from `b`."""
    return splice_at(space, 1, a, b)


def _real_close(x, y, abs_tol: float, rel_tol: float) -> bool:
    xf, yf = float(x), float(y)
    if not (math.isfinite(xf) and math.isfinite(yf)):
        # both sides of a law evaluate the same function; identical overflow
        # (inf = inf, nan = nan) carries no information and is not a violation
        return repr(xf) == repr(yf)
    return abs(xf - yf) <= abs_tol + rel_tol * max(abs(xf), abs(yf))


def elements_equal(space: Space, a, b, abs_tol: float = 0.0, rel_tol: float = 0.0) -> bool:
    """Exact comparison everywhere except Real leaves, which use tolerances."""
    return (space._ops or space.ops).equal(a, b, abs_tol, rel_tol)


def leaves(space: Space) -> tuple[Space, ...]:
    """The leaf spaces of a product tree, left to right; Terminal has none."""
    if isinstance(space, Product):
        return leaves(space.left) + leaves(space.right)
    return () if isinstance(space, Terminal) else (space,)


def leafwise(space: Space, fn, *xs):
    """`fn(leaf, *parts)` at every leaf of a product tree, `parts` being the
    leaf's components of the elements `xs`; Terminal gives ()."""
    if isinstance(space, Product):
        lefts, rights = zip(*xs)
        return (leafwise(space.left, fn, *lefts), leafwise(space.right, fn, *rights))
    return () if isinstance(space, Terminal) else fn(space, *xs)


def flatten(space: Space, x) -> list:
    """Scalar coordinates of `x` in leaf order: one per Z<n> or Int leaf, d
    per R^d, and for a stream or function leaf the coordinates of each of
    its positions in turn, position 0 first."""
    return (space._ops or space.ops).flatten(x)


def unflatten(space: Space, coords):
    """The element of `space` with these coordinates (Z<n> ones reduced mod n)."""
    return (space._ops or space.ops).unflatten(coords, 0)[0]


# ---------------------------------------------------------------------------
# enumeration, codec, sampling


@functools.lru_cache(maxsize=1024)
def codec_size(space: Space) -> Optional[int]:
    """Carrier size for spaces closed under the group ops; None otherwise.

    BoundedInt and Real are excluded: their carriers are infinite even
    though BoundedInt has a finite enumeration window.
    """
    try:
        return math.prod(radices(space))
    except NotEnumerable:
        return None


def space_size(space: Space) -> Optional[int]:
    """Enumeration size (BoundedInt uses its window); None if not enumerable."""
    return (space._ops or space.ops).size


def encode(space: Space, a) -> int:
    """Mixed-radix index of an element of a codec space."""
    return (space._ops or space.ops).encode(a)


def decode(space: Space, i: int):
    return (space._ops or space.ops).decode(i)


def iter_space(space: Space) -> Iterator:
    """Every element exactly once, deterministic order (codec order where one exists)."""
    return (space._ops or space.ops).elements()


def enumerate_space(space: Space, bound: int = DEFAULT_ENUM_BOUND) -> list:
    size = space_size(space)
    if size is None:
        raise NotEnumerable(f"{format_space(space)} is not enumerable")
    if size > bound:
        raise SizeExceeded(f"{format_space(space)} has {size} elements > bound {bound}")
    return list(iter_space(space))


def derive_seed(seed: int, *tags) -> int:
    """Stable 64-bit sub-seed from a root seed and arbitrary string tags."""
    h = hashlib.sha256(repr((seed,) + tags).encode()).digest()
    return int.from_bytes(h[:8], "big")


# ---------------------------------------------------------------------------
# batches: many elements of one space in one int64 array
#
# A batch of a space with an int64 codec is a 1-D array of codes. A batch of
# any other space whose coordinates are all integers is an (N, d) array of
# coordinates laid out like `flatten`, Z<n> ones reduced mod n. An operation
# whose exact result might leave int64 raises OverflowError instead. A real
# stage, whose coordinates are all real, has float64 coordinate batches.

_I64 = np.int64
_I64_MAX = 2**63 - 1
_INT64_SAFE = 2**62  # codes above this cannot live in an int64 table


class _Layout(NamedTuple):
    codec: Optional[int]  # the int64 codec size; batches are codes when set
    width: int  # coordinates per element
    zcols: np.ndarray  # the columns of the Z<n> coordinates
    mods: np.ndarray  # and their moduli
    stride: Optional[np.ndarray]  # codes only: each coordinate's weight


@functools.lru_cache(maxsize=1024)
def _shared_layout(space: Space) -> Optional[_Layout]:
    coords = (space._ops or space.ops).coords
    if any(c is None or c[0] < -_I64_MAX or c[0] + c[1] - 1 > _I64_MAX or c[1] > _I64_MAX
           for c in coords):
        return None
    zcols = np.array([k for k, (_, _, n) in enumerate(coords) if n], dtype=np.intp)
    mods = np.array([coords[k][2] for k in zcols], dtype=_I64)
    codec = codec_size(space)
    if codec is None or codec > _INT64_SAFE:
        return _Layout(None, len(coords), zcols, mods, None)
    stride = [math.prod(n for _, _, n in coords[k + 1:]) for k in range(len(coords))]
    return _Layout(codec, len(coords), zcols, mods, np.array(stride, dtype=_I64))


def _layout(space: Space) -> Optional[_Layout]:
    """The batch layout of `space`, kept on the instance; None: no batches."""
    lay = space._batch
    if lay is None:
        lay = _shared_layout(space) or False
        object.__setattr__(space, "_batch", lay)
    return lay or None


def has_batches(space: Space) -> bool:
    return _layout(space) is not None


def real_stage(space: Space) -> bool:
    """Every coordinate is real: a batch is an (N, d) float64 array of
    coordinates, and closures evaluate on its columns (`morphisms`)."""
    coords = (space._ops or space.ops).coords
    return bool(coords) and not any(coords)


def table_codec_size(space: Space) -> Optional[int]:
    """Codec size when it is small enough for int64 table entries."""
    lay = _layout(space)
    return lay and lay.codec


def magnitude(b: np.ndarray) -> int:
    """The largest |value| in an int64 array, exactly (0 when it is empty)."""
    return max(int(b.max(initial=0)), -int(b.min(initial=0)))


def int64_guard(bound: int):
    """OverflowError unless a result of magnitude at most `bound` fits int64."""
    if bound > _I64_MAX:
        raise OverflowError(f"a batch value may reach {bound}, beyond int64")


def _from_coords(space: Space, c: np.ndarray) -> np.ndarray:
    lay = _layout(space)
    return c @ lay.stride if lay.codec else c


def batch_coords(space: Space, b: np.ndarray) -> np.ndarray:
    """The (N, d) coordinates of the batch `b` of `space`."""
    lay = _layout(space)
    return b[:, None] // lay.stride % lay.mods if lay.codec else b


def coords_batch(space: Space, c: np.ndarray) -> np.ndarray:
    """The batch with the (N, d) coordinates `c`, reduced as by `unflatten`."""
    lay = _layout(space)
    if lay.codec:
        return (c % lay.mods) @ lay.stride
    if lay.zcols.size:
        c = c.copy()
        c[:, lay.zcols] %= lay.mods
    return c


def split_batch(space: Product, b: np.ndarray, i: int) -> np.ndarray:
    """Side `i` (0: left, 1: right) of the batch `b` of a product space."""
    if _layout(space).codec:
        n = _layout(space.right).codec
        return _mod(b, n) if i else b // n
    w = _layout(space.left).width
    return _from_coords(space.right, b[:, w:]) if i else _from_coords(space.left, b[:, :w])


def coord_width(space: Space) -> int:
    """The number of coordinates of an element of `space`."""
    return len((space._ops or space.ops).coords)


def _mod(b: np.ndarray, n: int) -> np.ndarray:
    """`b % n` for codes b >= 0, as `b - (b // n) * n`: `%` costs about 3 times
    `//`. In a fresh buffer; `b` is only read."""
    q = b // n
    return np.subtract(b, np.multiply(q, n, out=q), out=q)


def wiring_codes(space: Space,
                 cols: tuple[int, ...]) -> Optional[Callable[[np.ndarray], np.ndarray]]:
    """`wire(b)`: for the codes `b` of the codec space `space`, the codes of
    the space whose coordinate j is coordinate `cols[j]` of `space`, in one
    mixed-radix pass, as a fresh array. A run of coordinates consecutive in
    both costs one `//` and a remainder, each left out where it would be the
    identity. None when `cols` is the identity on codes."""
    lay = _layout(space)
    if cols == tuple(range(lay.width)):
        return None
    mods, stride = lay.mods.tolist(), lay.stride.tolist()
    runs, weight = [], 1  # (divisor, modulus or 0, weight), least significant first
    # a run: the (j, cols[j]) of consecutive j with one cols[j] - j
    for run in reversed([list(g) for _, g in itertools.groupby(enumerate(cols),
                                                               lambda jc: jc[1] - jc[0])]):
        lo, hi = run[0][1], run[-1][1]
        n = math.prod(mods[lo:hi + 1])
        runs.append((stride[hi], n if lo else 0, weight))
        weight *= n

    def wire(b: np.ndarray) -> np.ndarray:
        out = None
        for div, n, w in runs:
            t = b // div if div > 1 else b
            if n:
                t = _mod(t, n)
            if w > 1:
                t = t * w if t is b else np.multiply(t, w, out=t)
            out = (t.copy() if t is b else t) if out is None else np.add(out, t, out=out)
        return np.zeros_like(b) if out is None else out

    return wire


def pair_batch(space: Product, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    if _layout(space).codec:
        return left * _layout(space.right).codec + right
    return np.concatenate([batch_coords(space.left, left),
                           batch_coords(space.right, right)], axis=1)


def const_batch(space: Space, value, n: int) -> np.ndarray:
    """`n` copies of the element `value`."""
    if _layout(space).codec:
        return np.full(n, encode(space, value), dtype=_I64)
    return coords_batch(space, np.tile(np.array(flatten(space, value), dtype=_I64), (n, 1)))


def enum_batch(space: Space, start: int, stop: int) -> np.ndarray:
    """Elements start .. stop - 1 of `iter_space(space)`, which is mixed-radix
    over the coordinates' windows, the first coordinate slowest."""
    i = np.arange(start, stop, dtype=_I64)
    if _layout(space).codec:
        return i
    coords = (space._ops or space.ops).coords
    windows = np.unravel_index(i, [size for _, size, _ in coords])
    return np.stack(windows, axis=1) + np.array([lo for lo, _, _ in coords], dtype=_I64)


def _sampler(space: Space, seed: int) -> Callable[[int], np.ndarray]:
    """`draw(k)`: the coordinates of the next k sampled points of `space`, a
    row per point in `flatten` order; the one place that calls the generator.
    A Z<n> or Int coordinate is `lo + randrange(size)` (the calls of
    `randrange(n)` and `randint(lo, hi)`), a real one `uniform(REAL_SAMPLE_LO,
    REAL_SAMPLE_HI)`. The rows are a float64 array on a real stage, an int64
    array where the space has batches, and an object array otherwise.

    The generator is private, so the values come in bulk from its 32-bit
    words (`getrandbits(32 * m)` is its next m words), bit-exact: `random()`
    is `((a >> 5) * 2^26 + (b >> 6)) * 2^-53` from two words, and
    `randrange(n)` for n < 2^32 is the first `word >> (32 - n.bit_length())`
    below n. Where all coordinates have one such size they are the accepted
    values in order, a surplus kept for the next call; mixed sizes, sizes
    from 2^32 and mixed real and integer stages draw one by one."""
    rng = random.Random(derive_seed(seed, "sample", format_space(space)))
    coords = (space._ops or space.ops).coords
    width = len(coords)

    def words(m: int) -> np.ndarray:
        return np.frombuffer(rng.getrandbits(32 * m).to_bytes(4 * m, "little"), "<u4")

    if real_stage(space):
        def uniform(k: int) -> np.ndarray:
            w = words(2 * k * width)
            r = ((w[0::2] >> 5) * 67108864.0 + (w[1::2] >> 6)) * (1.0 / 9007199254740992.0)
            return (REAL_SAMPLE_LO + (REAL_SAMPLE_HI - REAL_SAMPLE_LO) * r).reshape(k, width)

        return uniform
    sizes = {c and c[1] for c in coords}
    if has_batches(space) and len(sizes) == 1 and (n := sizes.pop()) < 1 << 32:
        bits, los = n.bit_length(), np.array([c[0] for c in coords], dtype=_I64)
        ready = [np.zeros(0, dtype=_I64)]

        def below(k: int) -> np.ndarray:
            while (need := k * width - sum(map(len, ready))) > 0:
                w = words((need << bits) // n + 64) >> (32 - bits)  # need / P(accept), + 64
                ready.append(w[w < n])
            out = np.concatenate(ready)
            ready[:] = [out[k * width:]]
            return out[:k * width].reshape(k, width) + los

        return below
    below, uniform, dtype = rng.randrange, rng.uniform, _I64 if has_batches(space) else object

    def draw(k: int) -> np.ndarray:
        rows = [uniform(REAL_SAMPLE_LO, REAL_SAMPLE_HI) if c is None else c[0] + below(c[1])
                for _ in range(k) for c in coords]
        return np.array(rows, dtype=dtype).reshape(k, width)

    return draw


def sample_space(space: Space, count: int, seed: int) -> list:
    """Deterministic sample of `count` elements (uniform per coordinate)."""
    if count < 1:
        raise InvalidArgument("count must be >= 1")
    rows = _sampler(space, seed)(count)
    unflat = (space._ops or space.ops).unflatten
    return [unflat(r, 0)[0] for r in rows.tolist()]


def batch_sampler(space: Space, seed: int) -> Callable[[int], np.ndarray]:
    """`draw(k)`: the next k points of `sample_space(space, count, seed)` as a
    batch of a space with batches, or as float64 coordinates of a real stage."""
    draw = _sampler(space, seed)
    return draw if real_stage(space) else lambda k: _from_coords(space, draw(k))


# ---------------------------------------------------------------------------
# group operations on batches: codes by gathers from Cayley tables of blocks
# of digits, coordinates column by column

# Largest Cayley table of a whole space, in entries: 8 MB of int64. Past it,
# a space's digits go in blocks whose tables hold at most BLOCK_LIMIT entries.
CAYLEY_LIMIT = 1 << 20
BLOCK_LIMIT = 1 << 14

_BINARY = {"add": np.add, "sub": np.subtract}


@functools.lru_cache(maxsize=1024)
def radices(space: Space) -> tuple[int, ...]:
    """Digit radices of the codes of a codec space, most significant first:
    the moduli of its coordinates, all of which are Z<n> ones; (1,) if it
    has none."""
    coords = (space._ops or space.ops).coords
    if not all(c and c[2] for c in coords):
        raise NotEnumerable(f"no integer codec for {space!r}")
    return tuple(c[2] for c in coords) or (1,)


@functools.lru_cache(maxsize=256)
def _blocks(rads: tuple[int, ...], binary: bool) -> tuple[tuple[tuple[int, ...], bool], ...]:
    """`(radices, tabled)` of each block of consecutive digits, least significant
    first: one block while its table fits CAYLEY_LIMIT, else the fewest near-equal
    runs whose tables fit BLOCK_LIMIT; a lone digit past it is not tabled."""
    limit = CAYLEY_LIMIT
    for count in range(1, len(rads) + 1):
        blocks = [tuple(map(int, b)) for b in np.array_split(rads, count)]
        fits = [math.prod(b) ** (1 + binary) <= limit for b in blocks]
        if all(f or len(b) == 1 for b, f in zip(blocks, fits)):
            return tuple(zip(blocks, fits))[::-1]
        limit = BLOCK_LIMIT


@functools.lru_cache(maxsize=64)
def _table(rads: tuple[int, ...], op: str, r: int = 0) -> np.ndarray:
    """Read-only Cayley table of an operation on the codes with digit radices
    `rads`: n x n for "add" and "sub", length n for "scale" by `r`. Built a
    digit at a time, most significant first: the table so far, times the
    digit's radix, plus the digit's own table broadcast beside it."""
    table = np.zeros((1, 1) if op in _BINARY else 1, dtype=_I64)
    for q in rads:
        a = np.arange(q, dtype=_I64)
        if op in _BINARY:
            t = _BINARY[op](a[:, None], a) % q
            table = (table[:, None, :, None] * q + t[:, None, :]).reshape(len(table) * q, -1)
        else:
            table = (table[:, None] * q + r * a % q).reshape(-1)
    table.setflags(write=False)
    return table


def _gather(space: Space, op: str, r: int, *codes: np.ndarray) -> np.ndarray:
    """`op` on the codes of `space` ("scale" by `r`), each digit mod its
    radix: a gather from the table of each block of digits (`_blocks`)."""
    blocks = _blocks(radices(space), op != "scale")
    rest, stride = codes, 1
    for k, (rads, tabled) in enumerate(blocks):
        n, digits = math.prod(rads), rest
        if k + 1 < len(blocks):  # peel this block's digits off the operands
            rest = [c // n for c in rest]  # and c % n as below, as codes are >= 0
            digits = [np.subtract(c, m, out=m) for c, m in zip(digits, (q * n for q in rest))]
        if tabled:
            # gather into the fresh flat-index array: a new array costs page
            # faults that take longer than the gather; "wrap" is unbuffered
            t = np.multiply(digits[0], n ** (len(digits) - 1), dtype=_I64)
            if len(digits) == 2:
                t += digits[1]
            t = _table(rads, op, r).take(t, out=t, mode="wrap")
        else:
            t = _BINARY[op](*digits) if op in _BINARY else r * digits[0]
            t %= n
        if k:
            t *= stride
            t += out
        out, stride = t, stride * n
    return out


def _binary(space: Space, op: str, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    if not _layout(space).codec:
        int64_guard(magnitude(i) + magnitude(j))
        return coords_batch(space, _BINARY[op](i, j))
    return _gather(space, op, 0, i, j)


def v_add(space: Space, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    return _binary(space, "add", i, j)


def v_sub(space: Space, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    return _binary(space, "sub", i, j)


def v_scale(space: Space, r: int, i: np.ndarray) -> np.ndarray:
    if not _layout(space).codec:
        int64_guard(abs(r) * magnitude(i))
        return coords_batch(space, r * i)
    int64_guard(abs(r) * max(radices(space)))  # r * digit, in a table or directly
    return _gather(space, "scale", r, i)


def v_neg(space: Space, i: np.ndarray) -> np.ndarray:
    return v_scale(space, -1, i)


def _first_columns(space: Space, what: str) -> list[int]:
    """The coordinate columns of index 0 of every stream leaf; any other leaf
    but Terminal raises TypeMismatch."""
    cols, pos = [], 0
    for s in leaves(space):
        if not isinstance(s, StreamPrefix):
            raise TypeMismatch(f"{what} needs a stream-shaped space, got {s!r}")
        w = coord_width(s.base)
        cols += range(pos, pos + w)
        pos += w * s.length
    return cols


def _digits(space: Space, i: np.ndarray, cols: list[int]) -> np.ndarray:
    """The codes `i` with every digit but those of `cols` zeroed."""
    lay = _layout(space)
    out = np.zeros_like(i)
    for c in cols:
        d = i // lay.stride[c]
        if lay.stride[c] * lay.mods[c] < lay.codec:  # else c leads, and d < mods[c]
            d = _mod(d, lay.mods[c])
        d *= lay.stride[c]
        out += d
    return out


def v_trunc(space: Space, i: np.ndarray) -> np.ndarray:
    """Batch transform of stream truncation (zero index 0)."""
    return v_splice0(space, None, i, "truncation")


def v_splice0(space: Space, i0: Optional[np.ndarray], i1: np.ndarray,
              what: str = "splice") -> np.ndarray:
    """Batch transform of splice: index 0 from i0 (None: zero), the rest from i1."""
    cols = _first_columns(space, what)
    if _layout(space).codec:
        out = i1 - _digits(space, i1, cols)
        return out if i0 is None else out + _digits(space, i0, cols)
    out = i1.copy()
    out[:, cols] = 0 if i0 is None else i0[:, cols]
    return out


# ---------------------------------------------------------------------------
# textual space syntax: Z<n>, Int[lo,hi], R^d, Stream(s,K), (s x s), 1


def format_space(space: Space) -> str:
    if isinstance(space, CyclicGroup):
        return f"Z{space.n}"
    if isinstance(space, BoundedInt):
        return f"Int[{space.lo},{space.hi}]"
    if isinstance(space, Real):
        return f"R^{space.dim}"
    if isinstance(space, StreamPrefix):
        return f"Stream({format_space(space.base)},{space.length})"
    if isinstance(space, Product):
        return f"({format_space(space.left)} x {format_space(space.right)})"
    if isinstance(space, Terminal):
        return "1"
    if isinstance(space, FunctionSpace):
        return f"[{format_space(space.arg)}=>{format_space(space.res)}]"
    raise TypeMismatch(f"unknown space {space!r}")


class _SpaceParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, msg: str):
        raise InvalidArgument(f"bad space syntax: {msg} at {self.pos} in {self.text!r}")

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def eat(self, tok: str):
        self.skip_ws()
        if not self.text.startswith(tok, self.pos):
            self.error(f"expected {tok!r}")
        self.pos += len(tok)

    def peek(self, tok: str) -> bool:
        self.skip_ws()
        return self.text.startswith(tok, self.pos)

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if self.pos == digits:
            self.error("expected integer")
        return int(self.text[start : self.pos])

    def space(self) -> Space:
        self.skip_ws()
        if self.peek("("):
            self.eat("(")
            left = self.space()
            self.eat("x")
            right = self.space()
            self.eat(")")
            return Product(left, right)
        if self.peek("Stream"):
            self.eat("Stream")
            self.eat("(")
            base = self.space()
            self.eat(",")
            k = self.integer()
            self.eat(")")
            return StreamPrefix(base, k)
        if self.peek("Int"):
            self.eat("Int")
            self.eat("[")
            lo = self.integer()
            self.eat(",")
            hi = self.integer()
            self.eat("]")
            return BoundedInt(lo, hi)
        if self.peek("R^"):
            self.eat("R^")
            return Real(self.integer())
        if self.peek("Z"):
            self.eat("Z")
            return CyclicGroup(self.integer())
        if self.peek("1"):
            self.eat("1")
            return TERMINAL
        self.error("expected a space")


def parse_space(text: str) -> Space:
    p = _SpaceParser(text)
    try:
        s = p.space()
    except RecursionError:
        p.error("nested too deeply")
    p.skip_ws()
    if p.pos != len(text):
        p.error("trailing input")
    return s
