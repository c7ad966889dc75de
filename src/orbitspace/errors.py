"""Error types. Every failure names its kind and carries a machine-readable witness."""

from __future__ import annotations


class OrbitspaceError(Exception):
    """Base error. ``witness`` holds the offending indices/values as plain data."""

    def __init__(self, message: str, **witness):
        super().__init__(message)
        self.witness = dict(witness)

    @property
    def kind(self) -> str:
        return type(self).__name__


class NotAPermutation(OrbitspaceError):
    pass


class SizeLimitExceeded(OrbitspaceError):
    pass


class NotLatinSquare(OrbitspaceError):
    pass


class NoIdentity(OrbitspaceError):
    pass


class NoInverse(OrbitspaceError):
    pass


class NotAssociative(OrbitspaceError):
    pass


class IdentityAxiomViolated(OrbitspaceError):
    pass


class CompatibilityViolated(OrbitspaceError):
    pass


class NotAnInteger(OrbitspaceError):
    pass


class NotFree(OrbitspaceError):
    pass


class DegreeMismatch(OrbitspaceError):
    pass


class GroupMismatch(OrbitspaceError, ValueError):
    """Two objects that must share one group have different Cayley tables."""


class EmptyDomain(OrbitspaceError):
    pass


class ActionIsTrivial(OrbitspaceError):
    pass


class NotInvariant(OrbitspaceError):
    pass


class EmptySubset(OrbitspaceError):
    pass


class UnknownCorpusName(OrbitspaceError):
    pass


class ParamOutOfRange(OrbitspaceError):
    pass


class ParseError(OrbitspaceError):
    pass


class InvariantViolated(OrbitspaceError):
    """An identity the library guarantees came out false.

    ``lhs`` and ``rhs`` are the two sides as computed, turned into JSON data:
    rationals as ``"p/q"`` strings, Gaussian rationals as pairs, tuples as
    lists. Unlike ``assert``, the check survives ``python -O``.
    """

    def __init__(self, message: str, lhs, rhs, **witness):
        super().__init__(message, lhs=_plain(lhs), rhs=_plain(rhs), **witness)


def _plain(value):
    if hasattr(value, "to_pair"):
        return value.to_pair()
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if value is None or isinstance(value, (bool, int, str)):
        return value
    return str(value)
