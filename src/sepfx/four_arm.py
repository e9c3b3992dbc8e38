"""Effect estimation for four-arm designs.

In a four-arm design the outcome-channel treatment ``a_y`` and the
mediator-channel treatment ``a_m`` are randomized separately, so the mean
counterfactual outcome under any (a_y, a_m) combination is identified.
The estimator is the augmented inverse-probability form: for each arm
combination, a per-row score

    1{A_Y=a_y, A_M=a_m} * (Y - nu(a_y, a_m, X)) / pi(a_y, a_m, X)
        + nu(a_y, a_m, X)

whose sample mean estimates E[Y^(a_y, a_m)].  ``nu`` is the conditional
outcome mean and ``pi`` the conditional cell probability, both cross-fit.
The direct effect fixes the mediator channel and contrasts the outcome
channel; the indirect effect does the reverse.  Variance comes from the
empirical second moment of the score contrasts around the point estimate,
with the median rule combining repeated sample splits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .crossfit import cross_fit_split
from .data import FourArmDataset
from .errors import MissingCell
from .estimation import (
    EffectEstimate,
    Estimand,
    EstimatorConfig,
    build_estimates,
    centred,
    estimand_cells,
    run_battery,
)
from .learners import FittedPredictor, fit_classifier, fit_regressor

CELLS = ((0, 0), (0, 1), (1, 0), (1, 1))


@dataclass
class NuisanceFitFour:
    """Cross-fittable nuisance bundle for a four-arm dataset.

    ``cell_classifiers`` maps each (a_y, a_m) combination to a probability
    model for membership in that cell, or ``None`` when the cell had no
    training rows and was not required (its probability is a structural
    zero).  Cell probabilities are normalized to sum to one across cells;
    the ``propensities`` and ``propensity`` accessors additionally clip to
    [clip, 1 - clip] before the value is used in a denominator.  Each call
    predicts all four cell classifiers, so the score loop asks for every
    cell's propensity at once, once per test block.
    """

    cell_classifiers: dict
    outcome_fit: FittedPredictor
    clip: float

    def cell_probabilities(self, x: np.ndarray) -> np.ndarray:
        raw = np.empty((x.shape[0], len(CELLS)))
        for j, cell in enumerate(CELLS):
            clf = self.cell_classifiers[cell]
            raw[:, j] = 0.0 if clf is None else clf.predict(x)
        return raw / raw.sum(axis=1, keepdims=True)

    def propensities(self, x: np.ndarray) -> np.ndarray:
        """Clipped cell probabilities, one column per cell of ``CELLS``."""
        return np.clip(self.cell_probabilities(x), self.clip, 1.0 - self.clip)

    def propensity(self, a_y: int, a_m: int, x: np.ndarray) -> np.ndarray:
        return self.propensities(x)[:, CELLS.index((a_y, a_m))]

    def outcome(self, a_y: int, a_m: int, x: np.ndarray) -> np.ndarray:
        stacked = np.column_stack(
            [
                np.full(x.shape[0], float(a_y)),
                np.full(x.shape[0], float(a_m)),
                x,
            ]
        )
        return self.outcome_fit.predict(stacked)


def fit_nuisance_four(
    ds: FourArmDataset,
    train_rows: np.ndarray,
    config: EstimatorConfig,
    required_cells: tuple = CELLS,
) -> NuisanceFitFour:
    """Fit cell-probability and outcome models on the given training rows.

    Cell probabilities are one-vs-rest classifiers normalized across the
    four cells.  A required cell with no training rows raises
    :class:`MissingCell`; an unrequired empty cell gets probability zero.
    """
    x = ds.x[train_rows]
    a_y = ds.a_y[train_rows]
    a_m = ds.a_m[train_rows]
    labels = {
        cell: ((a_y == cell[0]) & (a_m == cell[1])).astype(np.float64)
        for cell in CELLS
    }
    empty = [cell for cell in CELLS if labels[cell].sum() == 0.0]
    require_cells(empty, required_cells)
    classifiers = {
        cell: None
        if cell in empty
        else fit_classifier(x, labels[cell], config.propensity, clip=config.clip)
        for cell in CELLS
    }
    stacked = np.column_stack([a_y.astype(np.float64), a_m.astype(np.float64), x])
    outcome_fit = fit_regressor(
        stacked, ds.y[train_rows], config.outcome, interact_cols=(0, 1)
    )
    return NuisanceFitFour(
        cell_classifiers=classifiers, outcome_fit=outcome_fit, clip=config.clip
    )


def require_cells(empty_cells, required_cells) -> None:
    """Raise :class:`MissingCell` for the first of ``required_cells``, in
    ``CELLS`` order, among ``empty_cells`` (the cells with no training
    rows).  :func:`fit_nuisance_four` checks its labels with it before
    any fit, and a reused bundle is checked with it on its empty cells."""
    for cell in CELLS:
        if cell in required_cells and cell in empty_cells:
            raise MissingCell(f"no training rows in arm cell {cell}")


def eif(
    ds: FourArmDataset,
    a_y: int,
    a_m: int,
    nuis,
    rows: np.ndarray | None = None,
    s_hat=1.0,
    agree=1.0,
    terms: bool = False,
    pi: np.ndarray | None = None,
):
    """Per-row scores whose mean estimates E[Y^(a_y, a_m)].

    Rows outside the (a_y, a_m) cell contribute only their predicted
    outcome; rows inside add the inverse-probability-weighted residual.
    The agreement-population score multiplies the residual term by the
    agreement probability ``s_hat`` and the prediction by the agreement
    indicator ``agree``; at the defaults of 1.0 both products are exact,
    so the four-arm score is unchanged bit for bit.  With ``terms`` the
    inverse-probability-weighted outcome and the outcome prediction (the
    two plug-in estimators' scores) are returned after the score.  ``pi``
    is the cell's propensity on ``rows`` when the caller already has it.
    """
    if rows is None:
        rows = np.arange(ds.n)
    x = ds.x[rows]
    y = ds.y[rows]
    nu = nuis.outcome(a_y, a_m, x)
    if pi is None:
        pi = nuis.propensity(a_y, a_m, x)
    inside = (ds.a_y[rows] == a_y) & (ds.a_m[rows] == a_m)
    score = inside * (y - nu) * s_hat / pi + nu * agree
    if terms:
        return score, inside * y / pi, nu
    return score


def _cell_propensities(nuis, cells: tuple, x: np.ndarray) -> dict:
    """Each cell's propensity on the rows ``x``.  A fitted bundle predicts
    its four cell classifiers once for all cells; any other nuisance object
    (a ``fitter`` may return one) is asked cell by cell."""
    if not isinstance(nuis, NuisanceFitFour):
        return {cell: nuis.propensity(*cell, x) for cell in cells}
    probs = nuis.propensities(x)
    return {cell: probs[:, CELLS.index(cell)] for cell in cells}


def split_scores_four(
    ds: FourArmDataset,
    split: int,
    config: EstimatorConfig,
    fitter,
    cells: tuple,
    agreement: bool = False,
    diagnostics: bool = False,
) -> tuple:
    """Out-of-fold scores of each cell on split ``split``'s fold assignment.

    ``fitter`` receives ``(dataset, train_rows)``; the folds are drawn, and
    redrawn on a degenerate fold, by :func:`~sepfx.crossfit.cross_fit_split`.
    With ``agreement`` the fits must also provide ``agreement_probability``
    and each score is

        1{cell} * (Y - nu) * s(X) / pi + nu * 1{A_Y = A_M}

    whose sum divided by the number of agreement rows estimates the mean
    counterfactual outcome on the agreement population.  Returns
    ``(scores, ipw, regression)`` dicts keyed by cell; the last two hold
    the plug-in scores with ``diagnostics`` and are ``None`` otherwise.

    Within a fold every model is predicted once on the test block: the
    cell probabilities serve all cells, and each cell's outcome prediction
    and the agreement probability are made once.
    """
    folds, fits = cross_fit_split(ds, config, split, fitter)
    agree = (ds.a_y == ds.a_m).astype(np.float64) if agreement else None
    scores = {cell: np.empty(ds.n) for cell in cells}
    ipw = {cell: np.empty(ds.n) for cell in cells} if diagnostics else None
    reg = {cell: np.empty(ds.n) for cell in cells} if diagnostics else None
    for fold in range(folds.k):
        test = folds.test_rows(fold)
        nuis = fits[fold]
        x = ds.x[test]
        pis = _cell_propensities(nuis, cells, x)
        s_hat = agree_rows = 1.0
        if agreement:
            s_hat = nuis.agreement_probability(x)
            agree_rows = agree[test]
        for cell in cells:
            out = eif(
                ds, *cell, nuis, test, s_hat, agree_rows, terms=diagnostics,
                pi=pis[cell],
            )
            if diagnostics:
                scores[cell][test], ipw[cell][test], reg[cell][test] = out
            else:
                scores[cell][test] = out
    return scores, ipw, reg


def estimate_effects_four(
    ds: FourArmDataset,
    requests: list,
    config: EstimatorConfig | None = None,
    fitter=None,
) -> list[EffectEstimate]:
    """Estimate several four-arm estimands from shared nuisance fits.

    ``requests`` is a list of ``("sde", a_m)``, ``("sie", a_y)``, or
    ``("mean", (a_y, a_m))`` tuples.  All requests within a split reuse the
    same cross-fit nuisances.  ``fitter`` overrides the default nuisance
    fitting; it receives ``(dataset, train_rows)`` and must return an
    object with ``propensity`` and ``outcome`` accessors.
    """
    config = config or EstimatorConfig()
    estimands = [Estimand(*req) for req in requests]
    cells = estimand_cells(estimands)
    nuisance_fitter = fitter or (
        lambda data, train: fit_nuisance_four(data, train, config, cells)
    )

    def split_fn(split: int) -> dict:
        scores, ipw, reg = split_scores_four(
            ds, split, config, nuisance_fitter, cells, diagnostics=config.diagnostics
        )
        out = {}
        for est in estimands:
            diag = None
            if config.diagnostics:
                diag = {
                    "ipw": float(np.mean(est.contrast(ipw))),
                    "outcome_regression": float(np.mean(est.contrast(reg))),
                }
            out[est] = centred(est.contrast(scores), diag)
        return out

    combined = run_battery(config, split_fn)
    return build_estimates(
        combined, estimands, n=ds.n, config=config,
        design="four-arm", population="four-arm",
    )
