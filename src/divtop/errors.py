"""Exception types shared across the package.

Every refusal is a ``DivtopError``, and the CLI prints its message and
exits 2.  An operand that is no class of this ring, or that the
construction's hypotheses do not allow, raises ``ParameterError``; input
past a size or enumeration bound ``SizeGuard``; a fragment or divisor
listing past the point cap ``FragmentTooLarge``; element text outside the
ring's grammar ``ElementSyntaxError``.  ``formats.fragment_from_json``
rebuilds a fragment from its document's seeds and checks the document's
points and edges against it; a document that is malformed or does not match
raises ``DivtopError`` itself.
"""


def brief(value) -> str:
    """A value from outside as an error message names it: a str quoted while
    that takes at most 64 bytes, an int in digits while it fits in 64 bits,
    a longer one by its length or size, and any other value by its type."""
    if isinstance(value, str):
        shown = repr(value[:65])
        return shown if len(shown.encode()) <= 64 else f"a text of {len(value)} characters"
    if type(value) is int:
        bits = value.bit_length()
        return str(value) if bits <= 64 else f"an integer of {bits} bits"
    return f"a {type(value).__name__}"


class DivtopError(Exception):
    """Base class for every error this package raises on purpose."""


class ParameterError(DivtopError, ValueError):
    """An operand or parameter the operation does not allow: zero or a unit
    where a class is due, a class of another ring, a point or point set of
    another fragment, a missing or bad p, an empty family, inputs that are
    not irreducible or not pairwise non-associated, an operation the ring
    lacks, or a check, stream or command-line parameter out of range."""


class SizeGuard(DivtopError):
    """Input exceeds a ring's bounds, or open-set enumeration a fragment's."""


class FragmentTooLarge(DivtopError):
    """Fragment would exceed the global point cap."""

    def __init__(self, points: int, cap: int):
        super().__init__(f"{points} points exceeds the cap {cap}")


class ElementSyntaxError(DivtopError):
    """Element text does not match the ring's grammar."""

    def __init__(self, text: str, position: int, reason: str):
        super().__init__(f"{reason} at position {position} in {brief(text)}")
        self.text = text
        self.position = position
        self.reason = reason
