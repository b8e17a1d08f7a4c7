"""Exception types shared across the package."""


class FbsecError(Exception):
    """Base class for all package errors."""


class ParameterError(FbsecError, ValueError):
    """A model or control parameter is out of range or non-finite.

    ``field`` names the offending parameter so callers (and the CLI) can
    report which flag to fix.
    """

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class DomainError(FbsecError, ValueError):
    """A function argument is outside the mathematical domain."""


class CaseMismatchError(FbsecError):
    """Closed-form path requested for parameters it does not cover.

    Raised when the rate exponents are not (moderate) integers; callers
    should fall back to the numerical transform-inversion path.
    """


class ConvergenceError(FbsecError):
    """A series, continued fraction, or quadrature failed to converge.

    ``row``: on a refusal of the batch driver that both routes share, the index
    of the Bob link it concerns among those given (0 for a single link, so on a
    closed ASC refused by its panel cap or tail cut); None elsewhere.
    """

    def __init__(self, message: str, achieved: float | None = None, row: int | None = None):
        self.achieved = achieved
        self.row = row
        super().__init__(message)


class AccuracyWarning(UserWarning):
    """A result is returned with less accuracy than the package's checks demand."""
