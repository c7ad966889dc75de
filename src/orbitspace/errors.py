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
