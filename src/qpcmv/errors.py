"""Exception types shared across the package."""


class QpcmvError(Exception):
    """Base class for all package errors."""


class DomainError(QpcmvError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class WindowError(QpcmvError, ValueError):
    """A coefficient window does not cover the requested index range."""


class PrecisionError(QpcmvError, ArithmeticError):
    """A result would be dominated by rounding; refusing to return it."""


class DegenerateOrbitError(QpcmvError, ValueError):
    """Orbit points collide within the scanned horizon; no positive radius."""


class ConstructionError(QpcmvError, ValueError):
    """A piecewise sampling function cannot be built from the given data."""


class InvariantViolation(QpcmvError, ValueError):
    """A constructed value breaks one of its declared invariants."""


class EigensolverError(QpcmvError, ArithmeticError):
    """The eigensolver failed a residual check (or, with ``quantity``
    naming it, another of its checks)."""

    def __init__(self, index: int, residual: float, tol: float,
                 quantity: str = "residual"):
        self.index = index
        self.residual = residual
        self.tol = tol
        super().__init__(
            f"eigenpair {index} {quantity} {residual:.3e} exceeds {tol:.1e}"
        )
