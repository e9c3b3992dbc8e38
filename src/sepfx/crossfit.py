"""Sample splitting, cross-fitting, and median aggregation across splits.

Estimators in this package cross-fit their nuisance models: the data are
partitioned into K folds, and each design hands :func:`cross_fit` a fold
scorer that fits its nuisances on the complement of one fold and scores
that fold's rows, so each row is evaluated only with models that never
saw it and each fold's models are freed before the next fold is fit.
The whole procedure is repeated over S independent partitions, each
redrawn when a training fold lacks a needed treatment cell, and the
per-split (point, variance) pairs are combined by the median rule, which
adds the squared distance of each split's point from the median point to
that split's variance before taking the median of the adjusted variances.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import MissingCell, TooFewRows
from .seeding import derive_seed

MAX_FOLD_RETRIES = 10


@dataclass(frozen=True)
class FoldAssignment:
    """Partition of ``n`` rows into ``k`` folds of near-equal size."""

    k: int
    assignment: np.ndarray

    def train_rows(self, fold: int) -> np.ndarray:
        return np.nonzero(self.assignment != fold)[0]

    def test_rows(self, fold: int) -> np.ndarray:
        return np.nonzero(self.assignment == fold)[0]


def make_folds(n: int, k: int, seed: int) -> FoldAssignment:
    """Random partition into k folds whose sizes differ by at most one.

    Raises
    ------
    ValueError
        If ``k < 2``.
    TooFewRows
        If ``k > n``, so some fold would be empty.
    """
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    if k > n:
        raise TooFewRows(f"{k} folds need at least {k} rows, got {n}")
    rng = np.random.default_rng(seed)
    assignment = np.empty(n, dtype=np.int64)
    assignment[rng.permutation(n)] = np.arange(n) % k
    out = FoldAssignment(k=k, assignment=assignment)
    out.assignment.setflags(write=False)
    return out


def cross_fit(dataset, folds: FoldAssignment, fold_scores: Callable) -> dict:
    """Out-of-fold vectors from ``fold_scores(train_rows, test_rows)``.

    The fold scorer runs once per fold, in fold order, and returns
    ``{key: values on the test rows}``; each key's blocks fill one vector of
    length ``dataset.n``.  Only those blocks are kept, so nothing the scorer
    fits outlives its fold.  An error propagates with its type, its message
    prefixed with ``fold k:``; a treatment cell or level absent from the
    training rows raises :class:`MissingCell`.
    """
    out = defaultdict(lambda: np.empty(dataset.n))
    for fold in range(folds.k):
        test = folds.test_rows(fold)
        try:
            blocks = fold_scores(folds.train_rows(fold), test)
        except Exception as exc:
            exc.args = (f"fold {fold}: {exc}",) + exc.args[1:]
            raise
        for key, values in blocks.items():
            out[key][test] = values
    return dict(out)


def cross_fit_split(dataset, config, split: int, fold_scores: Callable) -> dict:
    """Cross-fit ``fold_scores`` on split ``split``'s fold assignment.

    Returns the :func:`cross_fit` vectors.  Attempt ``a`` draws its folds
    from ``derive_seed(config.seed, "folds", split, a)``; an attempt raising
    :class:`MissingCell` moves on to the next, up to ``MAX_FOLD_RETRIES``
    attempts, after which the last attempt's failure is raised again in a
    :class:`MissingCell` naming its fold and cell.  Each call counts its
    own attempts, so a redraw on one dataset never shifts another's folds.
    """
    for attempt in range(MAX_FOLD_RETRIES):
        folds = make_folds(
            dataset.n, config.k_folds, derive_seed(config.seed, "folds", split, attempt)
        )
        try:
            return cross_fit(dataset, folds, fold_scores)
        except MissingCell as exc:
            failure = exc
    raise MissingCell(
        f"no usable fold assignment after {MAX_FOLD_RETRIES} attempts; last: {failure}"
    ) from failure


def median_adjust(points: Sequence[float], variances: Sequence[float]) -> tuple:
    """Combine per-split points and variances by the median rule.

    Returns ``(point, variance)``.  The point is the median of the split
    points.  The variance is the median over splits of ``variance + (point
    - combined point)**2``, which penalizes splits whose points sit far
    from the median; it is therefore never smaller than the median raw
    variance.
    """
    points = np.asarray(points, dtype=np.float64)
    point = float(np.median(points))
    variance = float(np.median(np.asarray(variances) + (points - point) ** 2))
    return point, variance
