"""Exception types shared across the package."""


class AmbientMismatch(ValueError):
    """Operands (or a parsed variable) do not fit the declared ring (n, k)."""

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class UnknownVariable(ValueError):
    """A variable does not exist in the ambient ring."""


class ParseError(ValueError):
    """Polynomial text does not conform to the grammar.

    `position` is the 0-based offset of the offending character.
    """

    def __init__(self, message, position):
        super().__init__(f"{message} (position {position})")
        self.position = position


class UnknownLabel(KeyError):
    """A generator label names no generator of the set."""


class UnsupportedK(ValueError):
    """No closed generator family is implemented for this chain length."""


class InvalidKey(ValueError):
    """A graded piece key is inconsistent with its ambient ring."""


class NonHomogeneous(ValueError):
    """A polynomial mixes total degrees where homogeneity is required."""


class NonHomogeneousOrder(ValueError):
    """A covariant value mixes degrees in the covariant variables."""


class IndexOutOfRange(IndexError):
    """A linear-form index lies outside 1..n."""


class NegativeOrder(ValueError):
    """Transvectant order must be non-negative."""


class NotInKernel(ValueError):
    """The polynomial is not annihilated by the derivation."""


class NotInSpan(ValueError):
    """The polynomial is not a combination of the given generator products."""
