"""Exception hierarchy shared across the package.

Everything raised on bad input or a failed estimation derives from
:class:`SepfxError`, so callers (and the CLI) can catch one base class.
"""


class SepfxError(Exception):
    """Base class for all package errors."""


class DataError(SepfxError):
    """Problem with an input dataset or file."""


class MissingColumn(DataError):
    """A required column is absent from the input file."""


class NonBinaryTreatment(DataError):
    """A treatment column contains a value other than 0 or 1."""


class NonNumericCell(DataError):
    """A cell could not be parsed as a finite number."""


class EmptyDataset(DataError):
    """The input contains no data rows."""


class EmptySubset(DataError):
    """A requested restriction selected no rows."""


class LearnerError(SepfxError):
    """Problem while fitting a prediction model."""


class TooFewRows(LearnerError):
    """Not enough rows to fit the requested model."""


class BadK(SepfxError):
    """Fold count outside the valid range for the sample size."""


class DegenerateFold(SepfxError):
    """A cross-fitting training fold lacks a needed treatment cell."""

    def __init__(self, fold: int, message: str):
        super().__init__(f"fold {fold}: {message}")
        self.fold = fold


class MissingCell(SepfxError):
    """A needed arm has no rows: a four-arm (a_y, a_m) cell or a two-arm
    treatment level."""


class SingularDesign(SepfxError):
    """The regression design matrix is rank deficient."""


class DegenerateEstimate(SepfxError):
    """An estimate or test statistic has a standard error that is not positive."""


class SingleClassWarning(UserWarning):
    """A classifier saw only one label and fell back to a constant."""


class SeparationWarning(UserWarning):
    """A logistic fit's linear predictor separated the training labels
    completely, so the maximum-likelihood estimate does not exist."""


class ConvergenceWarning(UserWarning):
    """A logistic fit used up its Newton iterations before its steps fell
    below the tolerance; the last iterate is returned."""
