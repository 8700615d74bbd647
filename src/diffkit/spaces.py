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

Spaces whose carrier is finite and closed under the group operations
(everything except BoundedInt and Real) additionally get an integer
codec, used by the table backend in `morphisms`. A code is a mixed-radix
number over the CyclicGroup leaves, most significant first (`radices`;
Terminal has radix 1). `v_add`, `v_sub`, `v_neg` and `v_scale` act on
each digit modulo its radix: by a gather from a Cayley table built once
per space (n x n or length n for n codes) while it holds at most
CAYLEY_LIMIT entries, else by the digit-wise kernel on the codes.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .errors import InvalidArgument, NotEnumerable, SizeExceeded, TypeMismatch

DEFAULT_ENUM_BOUND = 100_000
REAL_SAMPLE_LO = -10.0
REAL_SAMPLE_HI = 10.0


@dataclass(frozen=True)
class Space:
    """Base class; concrete kinds below."""


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
# element algebra


def zero_elem(space: Space):
    if isinstance(space, CyclicGroup) or isinstance(space, BoundedInt):
        return 0
    if isinstance(space, Real):
        return (0.0,) * space.dim
    if isinstance(space, StreamPrefix):
        return (zero_elem(space.base),) * space.length
    if isinstance(space, Product):
        return (zero_elem(space.left), zero_elem(space.right))
    if isinstance(space, Terminal):
        return ()
    if isinstance(space, FunctionSpace):
        return (zero_elem(space.res),) * space_size(space.arg)
    raise TypeMismatch(f"unknown space {space!r}")


def add_elem(space: Space, a, b):
    if isinstance(space, CyclicGroup):
        return (a + b) % space.n
    if isinstance(space, BoundedInt):
        return a + b
    if isinstance(space, Real):
        return tuple(x + y for x, y in zip(a, b))
    if isinstance(space, (StreamPrefix, FunctionSpace)):
        base = space.base if isinstance(space, StreamPrefix) else space.res
        return tuple(add_elem(base, x, y) for x, y in zip(a, b))
    if isinstance(space, Product):
        return (add_elem(space.left, a[0], b[0]), add_elem(space.right, a[1], b[1]))
    if isinstance(space, Terminal):
        return ()
    raise TypeMismatch(f"unknown space {space!r}")


def neg_elem(space: Space, a):
    if isinstance(space, CyclicGroup):
        return (-a) % space.n
    if isinstance(space, BoundedInt):
        return -a
    if isinstance(space, Real):
        return tuple(-x for x in a)
    if isinstance(space, (StreamPrefix, FunctionSpace)):
        base = space.base if isinstance(space, StreamPrefix) else space.res
        return tuple(neg_elem(base, x) for x in a)
    if isinstance(space, Product):
        return (neg_elem(space.left, a[0]), neg_elem(space.right, a[1]))
    if isinstance(space, Terminal):
        return ()
    raise TypeMismatch(f"unknown space {space!r}")


def sub_elem(space: Space, a, b):
    return add_elem(space, a, neg_elem(space, b))


def scale_elem(space: Space, r, a):
    """r-fold scalar action; integer r on discrete spaces, any real on Real."""
    if isinstance(space, CyclicGroup):
        return (r * a) % space.n
    if isinstance(space, BoundedInt):
        return r * a
    if isinstance(space, Real):
        return tuple(r * x for x in a)
    if isinstance(space, (StreamPrefix, FunctionSpace)):
        base = space.base if isinstance(space, StreamPrefix) else space.res
        return tuple(scale_elem(base, r, x) for x in a)
    if isinstance(space, Product):
        return (scale_elem(space.left, r, a[0]), scale_elem(space.right, r, a[1]))
    if isinstance(space, Terminal):
        return ()
    raise TypeMismatch(f"unknown space {space!r}")


def truncate_elem(space: Space, a):
    """Stream truncation z: zero index 0 of every stream leaf, keep the rest."""
    if isinstance(space, StreamPrefix):
        return (zero_elem(space.base),) + tuple(a[1:])
    if isinstance(space, Product):
        return (truncate_elem(space.left, a[0]), truncate_elem(space.right, a[1]))
    if isinstance(space, Terminal):
        return ()
    raise TypeMismatch(f"truncation needs a stream-shaped space, got {space!r}")


def splice0_elem(space: Space, a, b):
    """Index 0 of every stream leaf from `a`, indices >= 1 from `b`."""
    if isinstance(space, StreamPrefix):
        return (a[0],) + tuple(b[1:])
    if isinstance(space, Product):
        return (
            splice0_elem(space.left, a[0], b[0]),
            splice0_elem(space.right, a[1], b[1]),
        )
    if isinstance(space, Terminal):
        return ()
    raise TypeMismatch(f"splice needs a stream-shaped space, got {space!r}")


def _real_close(x, y, abs_tol: float, rel_tol: float) -> bool:
    xf, yf = float(x), float(y)
    if not (math.isfinite(xf) and math.isfinite(yf)):
        # both sides of a law evaluate the same function; identical overflow
        # (inf = inf, nan = nan) carries no information and is not a violation
        return repr(xf) == repr(yf)
    return abs(xf - yf) <= abs_tol + rel_tol * max(abs(xf), abs(yf))


def elements_equal(space: Space, a, b, abs_tol: float = 0.0, rel_tol: float = 0.0) -> bool:
    """Exact comparison everywhere except Real leaves, which use tolerances."""
    if isinstance(space, Real):
        return all(_real_close(x, y, abs_tol, rel_tol) for x, y in zip(a, b))
    if isinstance(space, (CyclicGroup, BoundedInt)):
        return a == b
    if isinstance(space, Terminal):
        return True
    if isinstance(space, (StreamPrefix, FunctionSpace)):
        base = space.base if isinstance(space, StreamPrefix) else space.res
        return all(elements_equal(base, x, y, abs_tol, rel_tol) for x, y in zip(a, b))
    if isinstance(space, Product):
        return elements_equal(space.left, a[0], b[0], abs_tol, rel_tol) and elements_equal(
            space.right, a[1], b[1], abs_tol, rel_tol
        )
    raise TypeMismatch(f"unknown space {space!r}")


# ---------------------------------------------------------------------------
# enumeration, codec, sampling


@functools.lru_cache(maxsize=1024)
def codec_size(space: Space) -> Optional[int]:
    """Carrier size for spaces closed under the group ops; None otherwise.

    BoundedInt and Real are excluded: their carriers are infinite even
    though BoundedInt has a finite enumeration window.
    """
    if isinstance(space, CyclicGroup):
        return space.n
    if isinstance(space, Terminal):
        return 1
    if isinstance(space, Product):
        l, r = codec_size(space.left), codec_size(space.right)
        return None if l is None or r is None else l * r
    if isinstance(space, StreamPrefix):
        b = codec_size(space.base)
        return None if b is None else b**space.length
    if isinstance(space, FunctionSpace):
        a, r = codec_size(space.arg), codec_size(space.res)
        return None if a is None or r is None else r**a
    return None


def space_size(space: Space) -> Optional[int]:
    """Enumeration size (BoundedInt uses its window); None if not enumerable."""
    if isinstance(space, BoundedInt):
        return space.hi - space.lo + 1
    if isinstance(space, Real):
        return None
    if isinstance(space, Product):
        l, r = space_size(space.left), space_size(space.right)
        return None if l is None or r is None else l * r
    if isinstance(space, StreamPrefix):
        b = space_size(space.base)
        return None if b is None else b**space.length
    if isinstance(space, FunctionSpace):
        a, r = space_size(space.arg), space_size(space.res)
        return None if a is None or r is None else r**a
    return codec_size(space)


def encode(space: Space, a) -> int:
    """Mixed-radix index of an element of a codec space."""
    if isinstance(space, CyclicGroup):
        return a % space.n
    if isinstance(space, Terminal):
        return 0
    if isinstance(space, Product):
        return encode(space.left, a[0]) * codec_size(space.right) + encode(space.right, a[1])
    if isinstance(space, StreamPrefix):
        b = codec_size(space.base)
        i = 0
        for x in a:
            i = i * b + encode(space.base, x)
        return i
    if isinstance(space, FunctionSpace):
        r = codec_size(space.res)
        i = 0
        for x in a:
            i = i * r + encode(space.res, x)
        return i
    raise NotEnumerable(f"no integer codec for {space!r}")


def decode(space: Space, i: int):
    if isinstance(space, CyclicGroup):
        return i % space.n
    if isinstance(space, Terminal):
        return ()
    if isinstance(space, Product):
        r = codec_size(space.right)
        return (decode(space.left, i // r), decode(space.right, i % r))
    if isinstance(space, StreamPrefix):
        b = codec_size(space.base)
        out = []
        for _ in range(space.length):
            out.append(decode(space.base, i % b))
            i //= b
        return tuple(reversed(out))
    if isinstance(space, FunctionSpace):
        r = codec_size(space.res)
        n = space_size(space.arg)
        out = []
        for _ in range(n):
            out.append(decode(space.res, i % r))
            i //= r
        return tuple(reversed(out))
    raise NotEnumerable(f"no integer codec for {space!r}")


def iter_space(space: Space) -> Iterator:
    """Every element exactly once, deterministic order (codec order where one exists)."""
    if isinstance(space, Real):
        raise NotEnumerable(f"{format_space(space)} is not enumerable")
    if isinstance(space, BoundedInt):
        return iter(range(space.lo, space.hi + 1))
    if isinstance(space, Product):
        return (
            (l, r) for l in list(iter_space(space.left)) for r in iter_space(space.right)
        )
    if isinstance(space, StreamPrefix):
        return (
            t for t in itertools.product(list(iter_space(space.base)), repeat=space.length)
        )
    if isinstance(space, FunctionSpace):
        n = space_size(space.arg)
        return (t for t in itertools.product(list(iter_space(space.res)), repeat=n))
    if isinstance(space, CyclicGroup):
        return iter(range(space.n))
    if isinstance(space, Terminal):
        return iter([()])
    raise TypeMismatch(f"unknown space {space!r}")


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


def _draw(space: Space, rng: random.Random):
    if isinstance(space, CyclicGroup):
        return rng.randrange(space.n)
    if isinstance(space, BoundedInt):
        return rng.randint(space.lo, space.hi)
    if isinstance(space, Real):
        return tuple(rng.uniform(REAL_SAMPLE_LO, REAL_SAMPLE_HI) for _ in range(space.dim))
    if isinstance(space, StreamPrefix):
        return tuple(_draw(space.base, rng) for _ in range(space.length))
    if isinstance(space, Product):
        l = _draw(space.left, rng)
        return (l, _draw(space.right, rng))
    if isinstance(space, Terminal):
        return ()
    if isinstance(space, FunctionSpace):
        return tuple(_draw(space.res, rng) for _ in range(space_size(space.arg)))
    raise TypeMismatch(f"unknown space {space!r}")


def sample_space(space: Space, count: int, seed: int) -> list:
    """Deterministic sample of `count` elements (uniform per component)."""
    if count < 1:
        raise InvalidArgument("count must be >= 1")
    rng = random.Random(derive_seed(seed, "sample", format_space(space)))
    return [_draw(space, rng) for _ in range(count)]


# ---------------------------------------------------------------------------
# group operations on codes: Cayley-table gathers over a digit-wise kernel

_I64 = np.int64

# Largest Cayley table, in entries: 8 MB of int64. Bigger spaces, such as
# Stream(Z3,8) for the binary tables, use the digit-wise kernel directly.
CAYLEY_LIMIT = 1 << 20

_BINARY = {"add": np.add, "sub": np.subtract}


@functools.lru_cache(maxsize=1024)
def radices(space: Space) -> tuple[int, ...]:
    """Digit radices of the codes of a codec space, most significant first."""
    if isinstance(space, CyclicGroup):
        return (space.n,)
    if isinstance(space, Terminal):
        return (1,)
    if isinstance(space, Product):
        return radices(space.left) + radices(space.right)
    if isinstance(space, StreamPrefix):
        return radices(space.base) * space.length
    if isinstance(space, FunctionSpace) and codec_size(space.arg) is not None:
        return radices(space.res) * codec_size(space.arg)
    raise NotEnumerable(f"no integer codec for {space!r}")


def _digitwise(space: Space, op, *codes: np.ndarray) -> np.ndarray:
    """Codes whose every digit is `op` of the operands' digits, mod its radix."""
    rest = list(codes)
    out = np.zeros(np.broadcast_shapes(*(np.shape(c) for c in codes)), dtype=_I64)
    stride = 1
    for r in reversed(radices(space)):
        digits = []
        for k, c in enumerate(rest):
            rest[k], d = np.divmod(c, r)
            digits.append(d)
        t = op(*digits)
        t %= r
        t *= stride
        out += t
        stride *= r
    return out


@functools.lru_cache(maxsize=64)
def _cayley(space: Space, op: str, r: int = 0) -> Optional[np.ndarray]:
    """Read-only table of an operation on the codes of `space`: n x n for
    "add" and "sub", length n for "scale" by `r`; None over the limit."""
    n = math.prod(radices(space))
    codes = np.arange(n, dtype=_I64)
    if op == "scale":
        if n > CAYLEY_LIMIT:
            return None
        table = _digitwise(space, lambda a: r * a, codes)
    else:
        if n * n > CAYLEY_LIMIT:
            return None
        table = _digitwise(space, _BINARY[op], codes[:, None], codes[None, :])
    table.setflags(write=False)
    return table


def _binary(space: Space, op: str, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    table = _cayley(space, op)
    if table is None:
        return _digitwise(space, _BINARY[op], i, j)
    # gather into the fresh flat-index array: a new result array costs page
    # faults that take longer than the gather; "wrap" writes it unbuffered
    k = np.multiply(i, table.shape[1], dtype=_I64)
    k += j
    return table.take(k, out=k, mode="wrap")


def v_add(space: Space, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    return _binary(space, "add", i, j)


def v_sub(space: Space, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    return _binary(space, "sub", i, j)


def v_scale(space: Space, r: int, i: np.ndarray) -> np.ndarray:
    table = _cayley(space, "scale", r)
    return _digitwise(space, lambda a: r * a, i) if table is None else table.take(i)


def v_neg(space: Space, i: np.ndarray) -> np.ndarray:
    return v_scale(space, -1, i)


def v_trunc(space: Space, i: np.ndarray) -> np.ndarray:
    """Index transform of stream truncation (zero the index-0 digit)."""
    if isinstance(space, StreamPrefix):
        s = codec_size(space.base) ** (space.length - 1)
        return i % s
    if isinstance(space, Product):
        r = codec_size(space.right)
        return v_trunc(space.left, i // r) * r + v_trunc(space.right, i % r)
    if isinstance(space, Terminal):
        return np.zeros_like(i)
    raise TypeMismatch(f"truncation needs a stream-shaped space, got {space!r}")


def v_splice0(space: Space, i0: np.ndarray, i1: np.ndarray) -> np.ndarray:
    """Index transform of splice: index-0 digit from i0, the rest from i1."""
    if isinstance(space, StreamPrefix):
        s = codec_size(space.base) ** (space.length - 1)
        return (i0 // s) * s + i1 % s
    if isinstance(space, Product):
        r = codec_size(space.right)
        return v_splice0(space.left, i0 // r, i1 // r) * r + v_splice0(
            space.right, i0 % r, i1 % r
        )
    if isinstance(space, Terminal):
        return np.zeros_like(i0)
    raise TypeMismatch(f"splice needs a stream-shaped space, got {space!r}")


def arange_for(space: Space) -> np.ndarray:
    return np.arange(codec_size(space), dtype=_I64)


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
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
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
    s = p.space()
    p.skip_ws()
    if p.pos != len(text):
        p.error("trailing input")
    return s
