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


class MissingTreatmentLevel(LearnerError):
    """A treatment-stratified fit needs rows from an absent level."""


class BadK(SepfxError):
    """Fold count outside the valid range for the sample size."""


class EmptyList(SepfxError):
    """An aggregation was asked to combine zero estimates."""


class MismatchedN(SepfxError):
    """Estimates being combined disagree on the sample size."""


class DegenerateFold(SepfxError):
    """A cross-fitting training fold lacks a needed treatment cell."""

    def __init__(self, fold: int, message: str):
        super().__init__(f"fold {fold}: {message}")
        self.fold = fold


class MissingCell(SepfxError):
    """A required treatment-arm combination has no training rows."""


class SingularDesign(SepfxError):
    """The regression design matrix is rank deficient."""


class DegenerateEstimate(SepfxError):
    """A test statistic would divide by a standard error that is not positive."""


class EmptyAgreementSet(SepfxError):
    """No rows have matching treatment assignments."""


class SingleClassWarning(UserWarning):
    """A classifier saw only one label and fell back to a constant."""
