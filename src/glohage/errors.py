"""Typed errors for the whole pipeline.

Every error carries a short machine-readable ``code`` used by the CLI to
print single-line ``ERROR <code>: <detail>`` diagnostics. Every input file
is opened by ``open_input``, which alone raises MissingFileError.
"""


class GlohError(Exception):
    code = "Error"


# --- image loading ---

class MissingFileError(GlohError):
    code = "MissingFile"


class MalformedHeaderError(GlohError):
    code = "MalformedHeader"


class TruncatedPixelDataError(GlohError):
    code = "TruncatedPixelData"


class TrailingDataError(GlohError):
    code = "TrailingData"


class UnsupportedMaxvalError(GlohError):
    code = "UnsupportedMaxval"


class DimensionMismatchError(GlohError):
    code = "DimensionMismatch"

    def __init__(self, actual, expected):
        self.actual = tuple(actual)
        self.expected = tuple(expected)
        super().__init__(f"got {self.actual}, expected {self.expected}")


# --- descriptor extraction ---

class ImageTooSmallError(GlohError):
    code = "ImageTooSmall"


# --- sparse selection solver ---

class ShapeMismatchError(GlohError):
    code = "ShapeMismatch"


class NegativeLambdaError(GlohError):
    code = "NegativeLambda"


class NonFiniteError(GlohError):
    code = "NonFiniteEncountered"


class BudgetOutOfRangeError(GlohError):
    code = "BudgetOutOfRange"


# --- ridge regression ---

class SingularSystemError(GlohError):
    code = "SingularSystem"


class UnknownTaskError(GlohError):
    code = "UnknownTask"


class FeatureTooShortError(GlohError):
    code = "FeatureTooShort"


class GridEmptyError(GlohError):
    code = "GridEmpty"


# --- manifests and folds ---

class MalformedRowError(GlohError):
    code = "MalformedRow"


class DuplicatePathError(GlohError):
    code = "DuplicatePath"


class SinglePersonError(GlohError):
    code = "SinglePerson"


class EmptyTaskError(GlohError):
    code = "EmptyTask"


class InvalidSpecError(GlohError):
    code = "InvalidSpec"


# --- metrics / evaluation ---

class LengthMismatchError(GlohError):
    code = "LengthMismatch"


class EmptyError(GlohError):
    code = "Empty"


class RowCountMismatchError(GlohError):
    code = "RowCountMismatch"


def open_input(path, *args, **kwargs):
    """``open(path, *args, **kwargs)`` for a file the run reads: a path that
    does not exist raises MissingFileError, any other OSError passes."""
    try:
        return open(path, *args, **kwargs)
    except FileNotFoundError:
        raise MissingFileError(f"no such file: {path}") from None


def read_lines(path, error):
    """The lines of the UTF-8 text file at ``path``, without their line ends,
    read through open_input; a byte that is not UTF-8 raises ``error``."""
    try:
        with open_input(path, "r", encoding="utf-8") as fh:
            return [line.rstrip("\n") for line in fh]
    except UnicodeDecodeError:
        raise error(f"{path}: not UTF-8 text") from None
