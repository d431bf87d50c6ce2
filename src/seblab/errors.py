"""Exception types shared across the package."""


class SebLabError(Exception):
    """Base class for all package errors."""


class ValidationError(SebLabError):
    """Invalid input data (bad radius, non-finite entries, schema violation)."""


class DimensionMismatch(SebLabError):
    """Operands live in different ambient dimensions."""


class CombinatorialBlowup(SebLabError):
    """Enumeration oracle would exceed its size guard."""


class UnsupportedRegime(SebLabError):
    """Operation is only defined when the center ranks satisfy the gating condition."""


class EmptyInteriorError(SebLabError):
    """The ball intersection has no interior point."""


class DimensionTooLarge(SebLabError):
    """Grid oracle guard: exhaustive search only supported in low dimension."""
