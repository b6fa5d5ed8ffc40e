"""Exception types shared across the package."""


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


class ZeroElement(DivtopError):
    """Operation needs a nonzero element."""


class UnitElement(DivtopError):
    """Operation needs a non-unit element."""


class ZeroDivisor(DivtopError):
    """Divisibility query with a zero left-hand side."""


class RingMismatch(DivtopError):
    """Operands belong to different rings."""


class CapabilityMissing(DivtopError):
    """The ring does not support the requested operation."""


class ParameterError(DivtopError, ValueError):
    """A ring, check, stream or command-line parameter is out of range."""


class SizeGuard(DivtopError):
    """Input exceeds the ring's enumeration bounds."""


class FragmentTooLarge(DivtopError):
    """Fragment would exceed the global point cap."""

    def __init__(self, points: int, cap: int):
        super().__init__(f"{points} points exceeds the cap {cap}")


class FragmentTooLargeForEnumeration(DivtopError):
    """Open-set enumeration requested on a fragment above the enumeration cap."""


class PointNotInFragment(DivtopError):
    """A class was used with a fragment that does not contain it."""


class FragmentMismatch(DivtopError):
    """A point set was used with a fragment it does not belong to."""


class EmptyFamily(DivtopError):
    """An operation that needs a nonempty family received an empty one."""


class NotIrreducible(DivtopError):
    """A witness constructor needs irreducible inputs."""


class AssociatedInputs(DivtopError):
    """A witness constructor needs pairwise non-associated inputs."""


class ModulusMissing(DivtopError):
    """Ring needs a modulus parameter that was not supplied."""


class ElementSyntaxError(DivtopError):
    """Element text does not match the ring's grammar."""

    def __init__(self, text: str, position: int, reason: str):
        super().__init__(f"{reason} at position {position} in {brief(text)}")
        self.text = text
        self.position = position
        self.reason = reason
