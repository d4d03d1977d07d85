"""Exception hierarchy.

Mathematical *violations* found by the verification routines are data
(collected into reports), not exceptions.  Exceptions are reserved for
malformed inputs and for preconditions of constructions.
"""

from __future__ import annotations


class HopfPiError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(HopfPiError):
    """Shapes of matrices/vectors are incompatible."""


class SingularMatrix(HopfPiError):
    """A matrix required to be invertible is not."""


class NotAGroup(HopfPiError):
    """A multiplication table fails the group axioms.

    `witness` carries the offending element or triple.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class GradingMismatch(HopfPiError):
    """A graded map was applied to an element of the wrong grading."""


class NotInKernelOfCounit(HopfPiError):
    """A proposed ideal generator has nonzero counit."""


class NotARightIdeal(HopfPiError):
    """A subspace is not closed under right multiplication."""


class CodomainViolation(HopfPiError):
    """An image vector falls outside the asserted codomain subspace."""


class NotCovariant(HopfPiError):
    """A calculus lacks the covariance needed for the requested map."""


class NotBicovariant(HopfPiError):
    """Bicovariance is required but does not hold."""


class MissingCoaction(HopfPiError):
    """The bimodule carries no coaction of the requested side."""


class MissingPsi(HopfPiError):
    """f_ij extraction needs the grading-collapse maps, none present."""


class ReportedFailure(HopfPiError):
    """A failure backed by a VerificationReport of named violations.

    `report` carries that report (None when the failure is not an
    identity, e.g. a malformed shape).
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class StructureInconsistent(HopfPiError):
    """A bimodule lacks a shape the structure theory presumes: Γ_α is not
    spanned by its frame, or dim Γ_α ≠ |I|·dim A_α.  A failed identity is
    a violation in a report, not this error."""


class DimensionVariesAcrossGrading(HopfPiError):
    """Invariant subspaces have different dimensions at different gradings."""


class IncompatibleData(ReportedFailure):
    """Reconstruction input violates one of its required relations."""


class UnknownIdeal(HopfPiError):
    """A named ideal is absent from the definition document."""


class TooLarge(HopfPiError):
    """Enumeration bounds exceeded."""


class UnsupportedField(HopfPiError):
    """The operation needs a small prime field."""


class VerificationFailed(ReportedFailure):
    """A construction requires a verified structure and got violations."""


class ParseError(HopfPiError):
    """A definition document is malformed.

    `context` names the offending field (or carries the JSON error).
    """

    def __init__(self, message: str, context: str | None = None):
        super().__init__(message if context is None else f"{context}: {message}")
        self.context = context
