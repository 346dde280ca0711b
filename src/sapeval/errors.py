"""Exception types shared across the package, each with the exit code the
CLI returns for it: 2 (bad configuration or input) unless it overrides it."""


class SapEvalError(Exception):
    """Base class for all sapeval errors."""

    exit_code = 2


class UnknownCategory(SapEvalError):
    """A category id is absent from the label space of the data."""


class NoPositives(SapEvalError):
    """An operation requiring at least one positive example got none."""

    exit_code = 4


class DegeneratePool(SapEvalError):
    """A pool is missing one side (positives or negatives) entirely."""

    exit_code = 4


class NoEligibleCategories(SapEvalError):
    """No category survives the minimum-example eligibility filter."""

    exit_code = 4


class InvalidCounts(SapEvalError):
    """Count arguments violate 0 < n_pos <= n_total."""


class EmptyCategory(SapEvalError):
    """A category in the label space has no examples."""

    exit_code = 4


class CategoryMismatch(SapEvalError):
    """Two per-category maps do not cover the same categories."""


class DimMismatch(SapEvalError):
    """Array dimensions are inconsistent with the model architecture."""


class NonFiniteLoss(SapEvalError):
    """Training produced a NaN or infinite loss."""

    exit_code = 1


class EmptyHead(SapEvalError):
    """A head/tail split has no head categories or no head examples."""

    exit_code = 4


class ParseError(SapEvalError):
    """A data file could not be parsed; carries the offending line number."""

    exit_code = 3

    def __init__(self, path: str, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line
