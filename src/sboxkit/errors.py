"""Exception and warning types shared across the toolkit, and the one argument check.

`check_number` and `check_member` own the rule for every number and enum
argument (map controls, key fields, start states, counts, masks, modes).
"""

import numbers


class SBoxKitError(Exception):
    """Base class for all toolkit errors."""


class ParamOutOfRange(SBoxKitError, ValueError):
    """An argument is not a number or enum member of the right kind, or lies outside its range."""


def check_number(name: str, value, lo=None, hi=None, integer=False, hi_closed=False):
    """`value` if it is a real (or, if `integer`, an integral) number in (lo, hi), else raise.

    (lo, hi] if `hi_closed`; with no bounds only the type is checked.  A bool or
    numpy bool is not a number, and NaN lies in no interval.
    """
    if isinstance(value, bool) or not isinstance(
            value, numbers.Integral if integer else numbers.Real):
        kind = "an integer" if integer else "a number"
        raise ParamOutOfRange(f"{name} must be {kind}, got {value!r}")
    if lo is not None and not (lo < value and (value <= hi if hi_closed else value < hi)):
        bracket = "]" if hi_closed else ")"
        raise ParamOutOfRange(f"{name} must lie in ({lo:g}, {hi:g}{bracket}, got {value!r}")
    return value


def check_member(name: str, value, enum):
    """`value`, if it is a member of `enum`; its string value is not."""
    if not isinstance(value, enum):
        article = "an" if enum.__name__[0] in "AEIOU" else "a"
        raise ParamOutOfRange(f"{name} must be {article} {enum.__name__}, got {value!r}")
    return value


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
