"""Typed errors for the whole pipeline.

Every error carries a short machine-readable ``code`` used by the CLI to
print single-line ``ERROR <code>: <detail>`` diagnostics.
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
