"""Exception types shared across the toolkit, and int_text and echo_text
for their messages."""


def int_text(n: int) -> str:
    """n in decimal when it has at most 64 bits (20 digits), otherwise its
    sign and bit length ("a 20001-bit integer", "a negative 20001-bit
    integer"), so a message stays short and never meets CPython's limit on
    int-to-str conversion."""
    bits = n.bit_length()
    if bits <= 64:
        return str(n)
    return f"a {'negative ' if n < 0 else ''}{bits}-bit integer"


def echo_text(text: str) -> str:
    """text quoted in full when it has at most 40 characters, otherwise its
    first 20 and its length, so a message that echoes user input stays
    short."""
    if len(text) <= 40:
        return repr(text)
    return f"{text[:20]!r}... ({len(text)} characters)"


class ToolkitError(Exception):
    """Base class for every error raised by this package."""


class ConstraintViolated(ToolkitError):
    """A protocol parameter constraint does not hold.

    ``name`` identifies the violated inequality, e.g. ``"p>m+q+r"``, and
    ``detail`` the values that break it, e.g. ``"21 <= 14+5+2"``.
    """

    def __init__(self, name: str, detail: str):
        self.name = name
        super().__init__(f"constraint violated: {name} ({detail})")


class InvalidArgument(ToolkitError, ValueError):
    """Any argument the package refuses: one that leaves the lattice
    problem undefined (z = 0, say), is out of range or malformed, or
    could not be printed.  A ValueError too, so argparse and callers
    that catch ValueError keep working."""


class SearchSpaceExceeded(ToolkitError):
    """The rectangle search coefficient box holds more pairs than the cap allows."""


class OracleTooLarge(ToolkitError):
    """The brute-force oracle was asked to scan a range beyond its guard."""
