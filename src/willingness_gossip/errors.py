"""Exception types shared across the package."""


class NetworkFormatError(ValueError):
    """Raised when a network document cannot be parsed."""


class NotStronglyConnectedError(ValueError):
    """Raised when an operation requires a strongly connected network."""


class NumericalError(RuntimeError):
    """Raised when a dense linear-algebra step fails or is too ill-conditioned."""


class Thm6InapplicableError(ValueError):
    """Raised when the single-influential-bridge closed form does not apply."""
