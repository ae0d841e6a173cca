"""Exception and warning types shared across the package."""


class FreeconvError(Exception):
    """Base class for all library errors."""


class DomainError(FreeconvError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class PoleError(DomainError):
    """A transform was evaluated at (or too close to) a pole."""


class ParseError(DomainError):
    """A measure expression failed to parse.

    Attributes
    ----------
    text : str
        The offending input string.
    pos : int
        0-based index of the character where parsing failed.
    """

    def __init__(self, message, text="", pos=0):
        super().__init__(message)
        self.text = text
        self.pos = pos

    def diagnostic(self):
        caret = " " * self.pos + "^"
        return f"{self.text}\n{caret}\n{self.args[0]}"


class ConvergenceError(FreeconvError, RuntimeError):
    """An iterative solver failed to reach its tolerance."""


class NoConvergence(ConvergenceError):
    """The simultaneous root iteration hit its iteration cap."""


class BranchAmbiguity(ConvergenceError):
    """Two branches of the resolvent could not be separated along the
    continuation path even at the smallest allowed step."""


class DegreeDropError(FreeconvError, ValueError):
    """Every coefficient of the working polynomial vanished at the
    requested point, so no roots can be produced at all."""


class MultiIntervalError(FreeconvError, RuntimeError):
    """Support detection found something other than a single interval."""


class QuadratureError(FreeconvError, RuntimeError):
    """Adaptive quadrature could not meet its error target."""


class SeriesAmbiguity(FreeconvError, ValueError):
    """The formal series solution of a resolvent polynomial is not
    uniquely determined (degenerate linear term or irrational seed)."""


class NonMonotoneError(FreeconvError, RuntimeError):
    """The S-transform was not monotone where the radial solve needs it."""


class ShapeError(FreeconvError, ValueError):
    """Matrix factor dimensions are incompatible."""


class EdgeWarning(UserWarning):
    """A density was requested inside the configured edge margin, where
    the inversion on the real axis is least accurate."""
