"""Exception hierarchy shared by all modules."""


class CantorExtError(Exception):
    """Base class for library errors."""


class ValidationError(CantorExtError):
    """Model parameters violate a structural constraint and cannot be repaired."""


class ParameterError(ValidationError):
    """A single parameter is outside its admissible range."""


class HorizonError(CantorExtError):
    """A requested index exceeds the precomputed horizon K_max."""


class DepthError(CantorExtError):
    """A requested tree depth exceeds the precision budget or the built depth."""


class PrecisionError(CantorExtError):
    """Cancellation ate the mantissa budget of an extended-precision evaluation."""


class BracketError(CantorExtError):
    """A root bracket lost its sign structure (invalid gamma sequence)."""


class DomainError(CantorExtError):
    """Argument outside the domain of a dimension function."""


class NodeCollisionError(CantorExtError):
    """Two interpolation nodes coincide at working precision."""


class DegreeError(CantorExtError):
    """Polynomial degree outside the supported range of the numeric estimator."""


class InvariantError(CantorExtError):
    """A proven invariant failed at run time: the input lies outside the
    hypotheses it was proven under, or the working precision is too low."""
