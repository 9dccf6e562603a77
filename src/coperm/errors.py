"""Exception hierarchy shared across the package."""


class CopermError(Exception):
    """Base class for all package-specific errors."""


class Graph6Error(CopermError):
    """Malformed graph6 input."""


class InvalidChar(Graph6Error):
    """Byte outside the printable graph6 range 63..126."""


class TruncatedBody(Graph6Error):
    """Too few bit characters for the declared vertex count."""


class TrailingGarbage(Graph6Error):
    """Extra characters or nonzero padding after the adjacency bits."""


class TooLarge(CopermError):
    """Input exceeds a documented size bound."""


class DegreeMismatch(CopermError):
    """Polynomial is not monic of the declared degree, or its low-order
    coefficients disagree with the graph invariants they encode."""


class DuplicateMember(CopermError):
    """The same graph6 string appeared twice within one shard."""


class UnsortedRun(CopermError):
    """A fingerprint run file violates its sorted-order precondition."""


class RunFormatError(CopermError):
    """A fingerprint run file is corrupt (bad magic, version, shard key or
    length, or a record that is not a canonical one of its shard)."""


class InvariantViolation(CopermError):
    """An internal pipeline invariant failed (e.g. a shard worker died
    before sending a complete result)."""


class DecodeError(CopermError):
    """A graph6 line failed to decode during file ingestion."""

    def __init__(self, lineno: int, reason: str):
        super().__init__(f"line {lineno}: {reason}")
        self.lineno = lineno
        self.reason = reason

    def __reduce__(self):
        # rebuilt from its fields, so it survives a pickle from a forked worker
        return type(self), (self.lineno, self.reason)
