"""Exception types shared across the toolkit, and the bounded repr of a
parsed value that their messages echo."""

import reprlib
from itertools import islice


class _Echo(reprlib.Repr):
    """reprlib's bounded repr, with a mapping's keys in its own order, as
    repr prints them, not sorted."""

    def repr_dict(self, x, level):
        if not x:
            return "{}"
        if level <= 0:
            return "{...}"
        pieces = [f"{self.repr1(k, level - 1)}: {self.repr1(v, level - 1)}"
                  for k, v in islice(x.items(), self.maxdict)]
        if len(x) > self.maxdict:
            pieces.append("...")
        return "{" + ", ".join(pieces) + "}"


_ECHO = _Echo()
_ECHO.maxlevel = 3
_ECHO.maxdict = _ECHO.maxlist = _ECHO.maxtuple = _ECHO.maxset = 6
_ECHO.maxstring = _ECHO.maxlong = _ECHO.maxother = 80


def echo(value) -> str:
    """repr(value) for an error message, cut to three levels of nesting,
    six items a container and 80 characters a scalar.  A spec's YAML
    aliases can share one node along exponentially many paths, which a
    whole repr would print in full; values within those bounds print as
    repr prints them."""
    return _ECHO.repr(value)


class GbdError(Exception):
    """Base class for all toolkit errors."""


class InvalidVertexError(GbdError):
    """A vertex id falls outside the indexing range of its level."""


class UndeclaredRowError(InvalidVertexError):
    """An explicit spec declares no row for this vertex at this level."""


class InvalidEdgeError(GbdError):
    """An edge tuple does not exist in the diagram."""


class ParseError(GbdError):
    """A spec document is not syntactically valid."""


class OutputError(GbdError):
    """An output file cannot be written."""


class SchemaError(GbdError):
    """A spec document parses but violates the schema."""


def reject_unknown_keys(doc: dict, known, what: str) -> None:
    """SchemaError naming the keys of a spec mapping that its reader
    does not read."""
    unknown = sorted(set(doc) - set(known), key=repr)
    if unknown:
        raise SchemaError(f"unknown keys {unknown} in {what}")


def int_keyed(doc: dict, what: str) -> dict:
    """doc with int() applied to its keys; SchemaError naming a key whose
    integer an earlier key already took, which a dict would overwrite.
    A key that int() rejects raises what int() raises."""
    out: dict = {}
    for key, value in doc.items():
        n = int(key)
        if n in out:
            raise SchemaError(f"key {echo(key)} repeats {n} in {what}")
        out[n] = value
    return out


class InvariantError(GbdError):
    """A structural invariant fails (empty row, bad flag, bad rule output)."""


class IndexingMismatchError(GbdError):
    """A bijection sequence is incompatible with a diagram's indexing."""


class WindowTooSmallError(GbdError):
    """A windowed check needed a vertex outside the supplied window.

    Raised instead of returning False so that windowed equality never
    reports a spurious negative.
    """


class WindowTooLargeError(GbdError):
    """A dense window holds more cells than `diagram.MAX_WINDOW_CELLS`."""


class EmptyWindowError(GbdError, ValueError):
    """A vertex window holds no vertex: inverted, or wholly below a
    one-sided base."""


class NotStationaryError(GbdError):
    """An operation that requires a stationary diagram got a non-stationary one."""


class NoBoundedSizeFlagError(GbdError):
    """An operation needs a row-width bound the diagram does not carry."""


class UnknownKindError(GbdError):
    """An unrecognized bijection/generator/invariant kind name."""


class ConflictError(GbdError):
    """Two forced label assignments collided at one level (internal assertion)."""


class UnsupportedLevelError(GbdError):
    """A level beyond an explicit finite spec with extension policy 'error_beyond'."""
