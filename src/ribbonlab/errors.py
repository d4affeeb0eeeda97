"""Exception hierarchy shared by all ribbonlab modules."""


class RibbonlabError(Exception):
    """Base class for all errors raised by this package."""


class FieldMismatchError(RibbonlabError):
    """Operands live over different coefficient fields."""


class ZeroOrderError(RibbonlabError):
    """Order of the zero element was requested; it is undefined, not a sentinel."""


class SupportViolationError(RibbonlabError):
    """An element's support sticks outside the window it must live in."""


class NotCocompactError(RibbonlabError):
    """Subspace has no full below-window tail, so its quotient cannot be linearly compact."""


class WindowTooSmallError(RibbonlabError):
    """Truncation window cannot certify the requested quantity (pivot or range hits a margin)."""


class TruncationBoundError(RibbonlabError):
    """Chart-degree truncation bound is too small for the requested twist."""


class RangeViolationError(RibbonlabError):
    """Level range (i, j) is empty or leaves the window."""


class WindowMismatchError(RibbonlabError):
    """Two objects that must share a window (or rank) do not."""


class DegreeBoundError(RibbonlabError):
    """Degree bound of the affine-ring model is too small for the computation."""


class UnsupportedDatumError(RibbonlabError):
    """Geometric datum kind outside the domain of this operation."""


class ConfigError(RibbonlabError):
    """Invalid window, field or run configuration."""
