"""Exception types shared across the package."""


class NearCloakError(Exception):
    """Base class for all package-specific errors."""


class RangeError(NearCloakError, ValueError):
    """Order or argument outside the supported evaluation range."""


class SingularArgumentError(NearCloakError, ValueError):
    """Function evaluated at a point where it is singular (e.g. H_n at 0)."""


class DomainError(NearCloakError, ValueError):
    """Input outside the geometric or mathematical domain of an operation."""


class ShapeError(NearCloakError, ValueError):
    """Mismatched array shapes or grids."""


class ResonanceError(NearCloakError, RuntimeError):
    """Boundary-integral system is near-singular (interior resonance)."""


class InsufficientDataError(NearCloakError, ValueError):
    """Not enough data points for the requested fit."""


class TruncationError(NearCloakError, RuntimeError):
    """Modal series still above its tail threshold at the largest order."""
