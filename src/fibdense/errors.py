"""Shared exception types.

Every failure mode that callers are expected to branch on gets its own class;
the CLI maps SpecError subclasses to exit code 2 and DomainError subclasses to
exit code 3.
"""

from __future__ import annotations


class FibdenseError(Exception):
    """Base class for all package errors."""


class DomainError(FibdenseError):
    """A computation was asked for outside its mathematical contract."""


# exact arithmetic

class BothZero(DomainError):
    """gcd of the zero polynomial with itself."""


class ZeroInput(DomainError):
    """Operation undefined on the zero polynomial or zero denominator."""


# elliptic curves

class PointNotOnCurve(DomainError):
    pass


class BoundTooSmall(DomainError):
    """No uniform torsion bound is known for the curve's field."""


class NotSquarefree(DomainError):
    """Quartic model with a repeated root."""


class MapUndefined(DomainError):
    """Point lies in the finite exceptional set of a birational map."""


class NoSquareRoot(DomainError):
    """Square root requested of a non-square field element."""


# fibrations

class PoleAtParameter(DomainError):
    """Specialization at a pole of a coefficient function."""


class SingularFiberSkip(DomainError):
    """Operation needs a smooth fiber but the parameter is singular."""


class TraceFieldTooLarge(DomainError):
    """Fiber cycle needs a field of degree > 2 over the base field."""


class EmptySampleSet(DomainError):
    pass


class UnsupportedRepresentation(DomainError):
    """Multisection representation does not support the requested operation."""


# density pipeline

class NoGeneratorSupplied(DomainError):
    """Elliptic multisection enumeration without a generator point."""


# cone / quartic geometry

class VertexOnQuartic(DomainError):
    """The branch quartic passes through the cone vertex."""


class NonReducedRamification(DomainError):
    """Restricted branch curve has a repeated component."""


class NotOnR(DomainError):
    """Base point does not lie on the branch curve."""


class NotInR0(DomainError):
    """Base point is outside the locus where the tangent construction works."""


class DegenerateDiscriminant(DomainError):
    """Discriminant of the reduced intersection polynomial vanishes identically."""


class NoCandidates(DomainError):
    """Bitangent search found no roots in degree <= 2 fields."""


class ZeroIntersection(DomainError):
    """Section lies inside the branch curve; intersection polynomial is zero."""


class LeadingCoefficientNotSquare(DomainError):
    """Weierstrass conversion needs a square leading coefficient (or the twist flag)."""


# spec files / CLI

class SpecError(FibdenseError):
    """Problems with a run-spec document. CLI exit code 2."""


class SpecSyntaxError(SpecError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"spec syntax error at line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class SpecValidationError(SpecError):
    def __init__(self, field: str, reason: str):
        super().__init__(f"invalid spec field '{field}': {reason}")
        self.field = field
        self.reason = reason
