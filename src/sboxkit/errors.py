"""Exception and warning types shared across the toolkit."""


class SBoxKitError(Exception):
    """Base class for all toolkit errors."""


class ParamOutOfRange(SBoxKitError, ValueError):
    """A map control parameter or key field lies outside its declared range."""


class NonFiniteState(SBoxKitError, ArithmeticError):
    """A chaotic state or derived value became NaN or infinite."""


class DerivativeZero(SBoxKitError, ArithmeticError):
    """Too many Lyapunov samples had a numerically zero derivative."""


class GenerationStall(SBoxKitError, RuntimeError):
    """The byte-fill loop discarded too many consecutive duplicate candidates."""


class NotBijective(SBoxKitError, ValueError):
    """An S-box table is not a permutation of 0..255."""


class ParseError(SBoxKitError, ValueError):
    """An S-box file could not be parsed."""


class DegenerateOrbitWarning(UserWarning):
    """A folded state hit exactly 0 and was reseeded to 1e-12."""


class DerivativeSkipWarning(UserWarning):
    """Some Lyapunov samples were skipped because |f'| was below threshold."""


class NonBijectiveWarning(UserWarning):
    """Metrics were computed for a non-bijective table on explicit request."""
