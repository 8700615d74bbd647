"""Exception hierarchy shared by every layer of the library."""


class DiffkitError(Exception):
    """Base class for all library errors."""


class InternalError(RuntimeError):
    """Two evaluation paths of the library disagree: a bug in diffkit, not
    bad input and not a law violation. Not a DiffkitError, so it is never
    reported as bad input."""


class InvalidArgument(DiffkitError, ValueError):
    """A value outside what a constructor or entry point accepts."""


class NotEnumerable(DiffkitError):
    """The space has no finite enumeration (e.g. real vector spaces)."""


class SizeExceeded(DiffkitError):
    """Enumeration would exceed the configured bound."""


class DomainMismatch(DiffkitError):
    """Morphism shapes do not line up (composition, pairing, addition...)."""


class TypeMismatch(DiffkitError):
    """Value or map does not fit the expected space shape."""


class ShapeMismatch(DiffkitError):
    """Axiom subjects do not have the shape the axiom schema requires."""


class ModelRestriction(DiffkitError):
    """The morphism or space is not legal in the chosen model."""


class NotAdditive(DiffkitError):
    """The module-map model only accepts additive morphisms."""


class NotCausal(DiffkitError):
    """The stream model only accepts causal morphisms."""


class UnsupportedPrimitive(DiffkitError):
    """The smooth model only differentiates its registered grammar."""


class UnknownPrimitive(DiffkitError):
    """A term references a primitive the model does not register."""


class NotFinite(DiffkitError):
    """Exponential objects exist only over finite spaces."""


class TermSyntaxError(DiffkitError):
    """Malformed combinator term text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class TermTypeError(DiffkitError):
    """Ill-typed combinator term; carries the node path."""

    def __init__(self, message: str, path: tuple[int, ...] = ()):
        super().__init__(f"{message} (at node path {'/'.join(map(str, path)) or 'root'})")
        self.path = path
