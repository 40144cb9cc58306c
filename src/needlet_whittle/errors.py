"""Exception and warning types shared across the package."""


class NeedletWhittleError(Exception):
    """Base class for all package errors."""


class DomainError(NeedletWhittleError, ValueError):
    """A parameter is outside the mathematical domain of an operation."""


class TruncationError(NeedletWhittleError):
    """A frequency sum cannot be computed to the required accuracy at the
    available band limit."""


class BandLimitError(NeedletWhittleError):
    """A cubature grid is too coarse for the requested synthesis band."""


class DegenerateDataError(NeedletWhittleError):
    """Input statistics carry no usable signal (e.g. identically zero)."""


class NarrowBandError(NeedletWhittleError):
    """The rounded narrow-band level range has fewer than two levels."""


class ResourceLimitError(NeedletWhittleError):
    """A requested size exceeds a configured resource cap."""


class ConfigError(NeedletWhittleError, ValueError):
    """Experiment configuration is malformed or inconsistent."""


class BoundaryWarning(UserWarning):
    """The fitted parameter landed within tolerance of a search bound."""
