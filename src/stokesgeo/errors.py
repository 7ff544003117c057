"""Exception types shared across the package."""


class StokesGeoError(Exception):
    """Base class for all package-specific failures."""


class ParseError(StokesGeoError):
    """Malformed polynomial / path / config input."""


class NumericalError(StokesGeoError):
    """An iteration failed to converge; carries diagnostic residuals."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals


def in_context(exc: NumericalError, where: str) -> NumericalError:
    """``exc`` restated with the stage, angle and pair it came from,
    ``where``, keeping its residuals; raise it ``from exc``."""
    return NumericalError(f"{where}: {exc}", residuals=exc.residuals)


class ClearanceError(StokesGeoError):
    """A path or contour runs too close to a turning point."""


class BranchError(StokesGeoError):
    """Square-root branch could not be continued consistently (a walk
    that cannot step past a turning point, a chord quadrature that does
    not converge, or a contour enclosing odd total multiplicity)."""


class DegeneratePairError(StokesGeoError):
    """A pairwise operation was asked for two coincident turning points."""


class NonGenericError(StokesGeoError):
    """The configuration violates a genericity assumption
    (finite edge where none expected, trace hitting a third root, ...)."""


class IncompleteGraphError(StokesGeoError):
    """A Stokes graph with truncated trajectories cannot be post-processed."""
