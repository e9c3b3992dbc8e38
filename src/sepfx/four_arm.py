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
from .errors import EmptySubset, MissingCell
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
    :class:`MissingCell` (the first such cell in ``CELLS`` order) before
    any fit; an unrequired empty cell gets probability zero.
    """
    x = ds.x[train_rows]
    a_y = ds.a_y[train_rows]
    a_m = ds.a_m[train_rows]
    labels = {
        cell: ((a_y == cell[0]) & (a_m == cell[1])).astype(np.float64)
        for cell in CELLS
    }
    empty = [cell for cell in CELLS if labels[cell].sum() == 0.0]
    for cell in empty:
        if cell in required_cells:
            raise MissingCell(f"no training rows in arm cell {cell}")
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


def eif(
    ds: FourArmDataset,
    a_y: int,
    a_m: int,
    nuis,
    rows: np.ndarray | None = None,
    pi: np.ndarray | None = None,
    agreement: tuple | None = None,
    terms: bool = False,
):
    """Per-row scores whose mean estimates E[Y^(a_y, a_m)].

    Rows outside the (a_y, a_m) cell contribute only their predicted
    outcome; rows inside add the inverse-probability-weighted residual.
    ``pi`` is the cell's propensity on ``rows`` when the caller already
    has it.  With ``agreement``, the pair ``(s_hat, agree)`` of the
    agreement probability and indicator on ``rows``, the agreement-
    population score ``1{cell} * (Y - nu) * s_hat / pi + nu * agree``
    follows, from the same residual term; with ``terms`` the two plug-in
    estimators' scores (IPW outcome, outcome prediction) come last.
    """
    if rows is None:
        rows = np.arange(ds.n)
    x = ds.x[rows]
    y = ds.y[rows]
    nu = nuis.outcome(a_y, a_m, x)
    if pi is None:
        pi = nuis.propensity(a_y, a_m, x)
    inside = (ds.a_y[rows] == a_y) & (ds.a_m[rows] == a_m)
    residual = inside * (y - nu)
    scores = (residual / pi + nu,)
    if agreement is not None:
        s_hat, agree = agreement
        scores += (residual * s_hat / pi + nu * agree,)
    if terms:
        scores += (inside * y / pi, nu)
    return scores if len(scores) > 1 else scores[0]


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
) -> dict:
    """Out-of-fold scores of each cell on split ``split``'s fold assignment.

    ``fitter`` receives ``(dataset, train_rows)``; the folds are drawn, and
    redrawn on a degenerate fold, by :func:`~sepfx.crossfit.cross_fit_split`.
    Returns dicts keyed by cell of the :func:`eif` scores: ``"four"``;
    with ``agreement`` (the fits then provide ``agreement_probability``)
    ``"agreement"``; with ``diagnostics`` ``"ipw"`` and
    ``"outcome_regression"``.  Within a fold every model is predicted once
    on the test block.
    """
    folds, fits = cross_fit_split(ds, config, split, fitter)
    names = ("four",) + ("agreement",) * agreement
    names += ("ipw", "outcome_regression") * diagnostics
    scores = {name: {cell: np.empty(ds.n) for cell in cells} for name in names}
    agree = (ds.a_y == ds.a_m).astype(np.float64) if agreement else None
    for fold in range(folds.k):
        test = folds.test_rows(fold)
        nuis = fits[fold]
        x = ds.x[test]
        pis = _cell_propensities(nuis, cells, x)
        pair = (nuis.agreement_probability(x), agree[test]) if agreement else None
        for cell in cells:
            values = eif(ds, *cell, nuis, test, pis[cell], pair, diagnostics)
            if len(names) == 1:
                values = (values,)
            for name, value in zip(names, values):
                scores[name][cell][test] = value
    return scores


def agreement_share(ds: FourArmDataset) -> float:
    """The share of rows whose two treatments agree; :class:`EmptySubset`
    if there are none."""
    agree_total = (ds.a_y == ds.a_m).sum()
    if agree_total == 0:
        raise EmptySubset("no rows with matching treatment assignments")
    return agree_total / ds.n


def agreement_contrasts(ds: FourArmDataset, scores: dict, estimands) -> dict:
    """The agreement-population contrasts of one split's ``scores`` (keyed
    by cell): ``{estimand: (point, residual)}``, where ``point`` is the
    contrast's score sum over the agreement rows and ``residual`` divided
    by the agreement share is the split's influence vector."""
    agree = (ds.a_y == ds.a_m).astype(np.float64)
    agree_total = agree.sum()
    out = {}
    for est in estimands:
        diff = est.contrast(scores)
        point = float(diff.sum() / agree_total)
        out[est] = (point, diff - point * agree)
    return out


def four_arm_battery(
    ds: FourArmDataset, config: EstimatorConfig, families: dict, fit=None
) -> dict:
    """``run_battery`` output ``{family: {estimand: CombinedResult}}`` for
    the estimands of ``"four"`` (the four-arm population) and
    ``"agreement"`` (the rows whose treatments agree) in ``families``.

    Each split fits one bundle per fold with ``fit(ds, train_rows, config,
    required_cells)`` (:func:`fit_nuisance_four` by default) and scores
    both families from it, so no bundle outlives its split.  The bundles
    require the union of the families' cells, so a fold lacking a cell that
    only one family needs is redrawn for both.  A bad estimand, or
    :class:`EmptySubset` for an agreement family without agreeing rows, is
    raised before any fit.
    """
    cells = estimand_cells([est for ests in families.values() for est in ests])
    fit = fit or fit_nuisance_four
    four = families.get("four", ())
    agreement = families.get("agreement", ())
    pr_agree = agreement_share(ds) if agreement else None
    diagnostics = config.diagnostics and bool(four)

    def split_fn(split: int) -> dict:
        scores = split_scores_four(
            ds, split, config, lambda data, train: fit(data, train, config, cells),
            cells, bool(agreement), diagnostics,
        )
        out = {}
        for est in four:
            diag = None
            if diagnostics:
                diag = {
                    name: float(np.mean(est.contrast(scores[name])))
                    for name in ("ipw", "outcome_regression")
                }
            out["four", est] = centred(est.contrast(scores["four"]), diag)
        if agreement:
            theta = agreement_contrasts(ds, scores["agreement"], agreement)
            for est, (point, residual) in theta.items():
                out["agreement", est] = centred(point + residual / pr_agree)
        return out

    combined = run_battery(config, split_fn)
    return {
        family: {est: combined[family, est] for est in estimands}
        for family, estimands in families.items()
    }


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
    fit = None if fitter is None else (lambda data, train, *_: fitter(data, train))
    combined = four_arm_battery(ds, config, {"four": estimands}, fit)
    return build_estimates(
        combined["four"], estimands, n=ds.n, config=config,
        design="four-arm", population="four-arm",
    )
