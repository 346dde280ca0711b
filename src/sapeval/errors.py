"""Exception types shared across the package."""


class SapEvalError(Exception):
    """Base class for all sapeval errors."""


class UnknownCategory(SapEvalError):
    """A category id is absent from the label space of the data."""


class NoPositives(SapEvalError):
    """An operation requiring at least one positive example got none."""


class DegeneratePool(SapEvalError):
    """A pool is missing one side (positives or negatives) entirely."""


class NoEligibleCategories(SapEvalError):
    """No category survives the minimum-example eligibility filter."""


class InvalidCounts(SapEvalError):
    """Count arguments violate 0 < n_pos <= n_total."""


class EmptyCategory(SapEvalError):
    """A category in the label space has no examples."""


class CategoryMismatch(SapEvalError):
    """Two per-category maps do not cover the same categories."""


class DimMismatch(SapEvalError):
    """Array dimensions are inconsistent with the model architecture."""


class NonFiniteLoss(SapEvalError):
    """Training produced a NaN or infinite loss."""


class EmptyHead(SapEvalError):
    """A head/tail split has no head categories or no head examples."""


class ParseError(SapEvalError):
    """A data file could not be parsed; carries the offending line number."""

    def __init__(self, path: str, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line
