"""Exception types shared across the package."""


class FamilyFormatError(ValueError):
    """Structural problem in a density family or its serialized form."""


class ParameterError(ValueError):
    """A caller-supplied parameter is outside its documented domain."""


class EnvelopeDominationError(RuntimeError):
    """Rejection sampling exceeded its iteration cap.

    This signals a violated domination bound inside the sampler, not a user
    error; it should never occur with the shipped envelope constant.
    """


class NonFiniteResultError(ArithmeticError):
    """A computed result is NaN or infinite, for example because finite
    coefficients near 1e308 overflow float64; it is refused, not written."""
