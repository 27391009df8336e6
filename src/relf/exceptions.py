"""Exception hierarchy for relf.

Everything raised on purpose derives from :class:`RelfError`, so callers can
catch one base class.  Each error also inherits the closest builtin
(``ValueError``, ``ArithmeticError``, ``OSError``) to stay friendly to
generic handling.
"""


class RelfError(Exception):
    """Base class for all relf errors."""


# --- loss catalog ---------------------------------------------------------

class EnsembleError(RelfError, ValueError):
    """Invalid loss or ensemble specification."""


class EmptyEnsembleError(EnsembleError):
    """Ensemble contains no losses."""


class UnknownLossError(EnsembleError):
    """Loss kind is not in the catalog."""


class NonPositiveScaleError(EnsembleError):
    """Loss scale is zero, negative, or non-finite."""


class DuplicateLossError(EnsembleError):
    """Two ensemble members are the same loss function."""


# --- numeric kernel -------------------------------------------------------

class DimensionMismatchError(RelfError, ValueError):
    """Array shapes or lengths are incompatible."""


class FactorizationError(RelfError, ArithmeticError):
    """Cholesky factorization failed even after jitter."""


# --- data pipeline --------------------------------------------------------

class DataError(RelfError, ValueError):
    """Invalid dataset content or configuration."""


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


class RaggedRowsError(DataError):
    """Rows in a delimited file have differing widths."""


class EmptyFileError(DataError):
    """File holds no data rows."""


class NonPositiveIndexError(DataError):
    """Sparse feature index below 1 (indices are 1-based)."""


class DoubleInterceptError(DataError):
    """Dataset already carries an intercept column."""


class FractionRangeError(DataError):
    """Outlier fraction outside [0, 1]."""


# --- solver ---------------------------------------------------------------

class NonFiniteObjectiveError(RelfError, ArithmeticError):
    """Objective or iterate became NaN/Inf; data or config is pathological."""


class DegenerateTraceWarning(UserWarning):
    """Objective trace is flat; ratio statistics are reported by convention."""


# --- evaluation -----------------------------------------------------------

class TooManyFoldsError(RelfError, ValueError):
    """More folds requested than samples available."""


class ZeroCleanBaselineError(RelfError, ZeroDivisionError):
    """Clean-baseline error is zero; increase ratio undefined."""
