"""Exception hierarchy for relf.

Everything raised on purpose derives from :class:`RelfError`, so callers can
catch one base class.  Each family also inherits the closest builtin
(``ValueError``, ``ArithmeticError``, ``OSError``) to stay friendly to
generic handling.  A family is one class, whose errors differ in their
messages only.  An error has a class of its own only if it carries data
(:class:`ParseError`'s ``row`` and ``col``), is raised from many places
(:class:`DimensionMismatchError`), is an ``OSError``
(:class:`DataIOError`) or maps to its own exit code
(:class:`FactorizationError`, :class:`NonFiniteObjectiveError`).
"""


class RelfError(Exception):
    """Base class for all relf errors."""


class EnsembleError(RelfError, ValueError):
    """Invalid loss or ensemble specification: an empty ensemble, an
    unknown kind, a bad scale or a duplicate loss."""


class DimensionMismatchError(RelfError, ValueError):
    """Array shapes or lengths are incompatible."""


class FactorizationError(RelfError, ArithmeticError):
    """Cholesky factorization failed even after jitter."""


class DataError(RelfError, ValueError):
    """Invalid dataset content or configuration: a ragged or empty file, a
    bad index, a second intercept, an out-of-range fraction, more folds
    than samples, a zero clean baseline, and the like."""


class DataIOError(RelfError, OSError):
    """File could not be read or written."""

    @classmethod
    def undecodable(cls, path, exc: UnicodeDecodeError) -> "DataIOError":
        """The error for a file whose bytes are not ``exc.encoding`` text."""
        return cls(f"cannot read {path}: not {exc.encoding} text "
                   f"(byte 0x{exc.object[exc.start]:02x}: {exc.reason})")


class ParseError(DataError):
    """A cell or token could not be parsed.

    ``row`` and ``col`` are 1-based file coordinates.
    """

    def __init__(self, message: str, row: int, col: int):
        super().__init__(f"{message} (row {row}, col {col})")
        self.row = row
        self.col = col


class NonFiniteObjectiveError(RelfError, ArithmeticError):
    """Objective or iterate became NaN/Inf; data or config is pathological."""


class DegenerateTraceWarning(UserWarning):
    """Objective trace is flat; ratio statistics are reported by convention."""
