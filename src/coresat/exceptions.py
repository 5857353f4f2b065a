"""Exception types and the dense size guard shared across the package.

The guard lives here, beside the error it raises, so that the CLI can
read it without importing numpy.
"""

# largest side of a dense matrix, or of a quotient, handed to the eigensolver
DEFAULT_DENSE_LIMIT = 2000


class InvalidParameterError(ValueError):
    """Graph-family parameters violate their constraints."""


class SizeLimitError(ValueError):
    """An input exceeds a configured size guard."""


class NumericFailureError(RuntimeError):
    """A numeric routine failed to converge or produce a usable result."""
