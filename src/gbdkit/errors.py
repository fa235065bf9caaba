"""Exception types shared across the toolkit."""


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


class InvariantError(GbdError):
    """A structural invariant fails (empty row, bad flag, bad rule output)."""


class IndexingMismatchError(GbdError):
    """A bijection sequence is incompatible with a diagram's indexing."""


class WindowTooSmallError(GbdError):
    """A windowed check needed a vertex outside the supplied window.

    Raised instead of returning False so that windowed equality never
    reports a spurious negative.
    """


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
