"""Exception types shared across the package."""


class InvalidParameterError(ValueError):
    """Graph-family parameters violate their constraints."""


class SizeLimitError(ValueError):
    """An input exceeds a configured size guard."""


class NumericFailureError(RuntimeError):
    """A numeric routine failed to converge or produce a usable result."""
