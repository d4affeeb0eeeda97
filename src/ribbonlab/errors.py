"""Exception hierarchy shared by all ribbonlab modules."""


class RibbonlabError(Exception):
    """Base class for all errors raised by this package."""


class FieldMismatchError(RibbonlabError):
    """Operands live over different coefficient fields."""


class ZeroOrderError(RibbonlabError):
    """Order of the zero element was requested; it is undefined, not a sentinel."""


class SupportViolationError(RibbonlabError):
    """An element's support sticks outside its window, or a vector's component count is
    not the rank."""


class NotCocompactError(RibbonlabError):
    """Subspace has no full below-window tail, so its quotient cannot be linearly compact."""


class WindowTooSmallError(RibbonlabError):
    """Truncation window cannot certify the requested quantity (pivot or range hits a margin)."""


class TruncationBoundError(RibbonlabError):
    """Chart-degree truncation bound is too small for the requested twist."""


class RangeViolationError(RibbonlabError):
    """An integer argument (j, n, n_max, a depth or --max-i) is below its bound."""


class WindowMismatchError(RibbonlabError):
    """The two sides of a Schur pair live on different windows or over different fields."""


class DegreeBoundError(RibbonlabError):
    """Degree bound of the affine-ring model is too small for the computation."""


class UnsupportedDatumError(RibbonlabError):
    """Geometric datum kind outside the domain of this operation."""


class ConfigError(RibbonlabError):
    """Invalid window, field or run configuration."""
