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

Each fold fits one :class:`NuisanceFitFour`: with
:func:`fit_nuisance_theta`, which adds the treatment-agreement model, when
the agreement population is scored, else with :func:`fit_nuisance_four`,
either looked up as a module global when it runs.  The diagnostics'
plug-in estimators are ``run_battery`` keys of their own.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace

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
from .learners import ConstantPredictor, FittedPredictor, fit_classifier, fit_regressor

CELLS = ((0, 0), (0, 1), (1, 0), (1, 1))
PLUG_INS = ("ipw", "outcome_regression")


@dataclass
class NuisanceFitFour:
    """Cross-fittable nuisance bundle for a four-arm dataset.

    ``cell_classifiers`` maps each (a_y, a_m) combination to a probability
    model for membership in that cell, or ``None`` when the cell had no
    training rows and was not required (its probability is a structural
    zero).  Cell probabilities are normalized to sum to one across cells;
    ``propensities`` additionally clips them to [clip, 1 - clip] before
    they are used in a denominator.  Each call predicts all four cell
    classifiers, so the score loop asks for every cell's propensity at
    once, once per test block.  ``agree_fit``, which only
    :func:`fit_nuisance_theta` fits, models the probability that the two
    treatments agree given covariates, for the agreement estimator.
    """

    cell_classifiers: dict
    outcome_fit: FittedPredictor
    clip: float
    agree_fit: FittedPredictor | None = None

    def cell_probabilities(self, x: np.ndarray) -> np.ndarray:
        raw = np.empty((x.shape[0], len(CELLS)))
        for j, cell in enumerate(CELLS):
            clf = self.cell_classifiers[cell]
            raw[:, j] = 0.0 if clf is None else clf.predict(x)
        return raw / raw.sum(axis=1, keepdims=True)

    def propensities(self, x: np.ndarray) -> np.ndarray:
        """Clipped cell probabilities, one column per cell of ``CELLS``."""
        return np.clip(self.cell_probabilities(x), self.clip, 1.0 - self.clip)

    def outcome(self, a_y: int, a_m: int, x: np.ndarray) -> np.ndarray:
        stacked = np.column_stack(
            [
                np.full(x.shape[0], float(a_y)),
                np.full(x.shape[0], float(a_m)),
                x,
            ]
        )
        return self.outcome_fit.predict(stacked)

    def agreement_probability(self, x: np.ndarray) -> np.ndarray:
        return self.agree_fit.predict(x)


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


def fit_nuisance_theta(
    ds: FourArmDataset,
    train_rows: np.ndarray,
    config: EstimatorConfig,
    required_cells,
) -> NuisanceFitFour:
    """The :func:`fit_nuisance_four` bundle with ``agree_fit`` set.

    When every training row agrees, ``agree_fit`` is
    ``ConstantPredictor(1.0)``: the probability is exactly one, unclipped,
    since it only ever multiplies.
    """
    four = fit_nuisance_four(ds, train_rows, config, required_cells)
    agree = (ds.a_y[train_rows] == ds.a_m[train_rows]).astype(np.float64)
    if agree.min() == 1.0:
        agree_fit = ConstantPredictor(1.0)
    else:
        agree_fit = fit_classifier(
            ds.x[train_rows], agree, config.propensity, clip=config.clip
        )
    return replace(four, agree_fit=agree_fit)


def eif(
    ds: FourArmDataset,
    a_y: int,
    a_m: int,
    nuis: NuisanceFitFour,
    rows: np.ndarray,
    pi: np.ndarray,
    agreement: tuple | None = None,
    terms: bool = False,
) -> dict:
    """Per-row scores on ``rows`` by name: under ``"four"`` those whose
    mean estimates E[Y^(a_y, a_m)].

    Rows outside the (a_y, a_m) cell contribute only their predicted
    outcome; rows inside add the inverse-probability-weighted residual.
    ``pi`` is the cell's clipped propensity on ``rows``, a column of
    ``nuis.propensities``.  With ``agreement``, the pair ``(s_hat,
    agree)`` of the agreement probability and indicator on ``rows``,
    ``"agreement"`` holds the agreement-population score ``1{cell} * (Y -
    nu) * s_hat / pi + nu * agree``, from the same residual term; with
    ``terms`` each plug-in of ``PLUG_INS`` holds its own.
    """
    nu = nuis.outcome(a_y, a_m, ds.x[rows])
    y = ds.y[rows]
    inside = (ds.a_y[rows] == a_y) & (ds.a_m[rows] == a_m)
    residual = inside * (y - nu)
    scores = {"four": residual / pi + nu}
    if agreement is not None:
        s_hat, agree = agreement
        scores["agreement"] = residual * s_hat / pi + nu * agree
    if terms:
        scores.update(zip(PLUG_INS, (inside * y / pi, nu)))
    return scores


def split_scores_four(
    ds: FourArmDataset,
    split: int,
    config: EstimatorConfig,
    cells: tuple,
    agreement: bool = False,
    diagnostics: bool = False,
) -> dict:
    """Out-of-fold scores of each cell on split ``split``'s fold assignment.

    Each fold fits one bundle requiring ``cells``: with
    :func:`fit_nuisance_theta` when ``agreement`` is set, else with
    :func:`fit_nuisance_four`.  The folds are drawn, and redrawn on a
    degenerate fold, by :func:`~sepfx.crossfit.cross_fit_split`.  Returns
    ``{name: {cell: scores}}`` for the names :func:`eif` returns, with
    ``terms=diagnostics``.  Within a fold every model is predicted once on
    the test block.
    """
    fit = fit_nuisance_theta if agreement else fit_nuisance_four
    folds, fits = cross_fit_split(
        ds, config, split, lambda data, train: fit(data, train, config, cells)
    )
    scores = defaultdict(lambda: {cell: np.empty(ds.n) for cell in cells})
    agree = (ds.a_y == ds.a_m).astype(np.float64) if agreement else None
    for fold in range(folds.k):
        test = folds.test_rows(fold)
        nuis = fits[fold]
        x = ds.x[test]
        probs = nuis.propensities(x)
        pair = (nuis.agreement_probability(x), agree[test]) if agreement else None
        for cell in cells:
            pi = probs[:, CELLS.index(cell)]
            for name, value in eif(ds, *cell, nuis, test, pi, pair, diagnostics).items():
                scores[name][cell][test] = value
    return dict(scores)


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
    ds: FourArmDataset, config: EstimatorConfig, families: dict
) -> dict:
    """``run_battery`` output ``{family: {estimand: CombinedResult}}`` for
    the estimands of ``"four"`` (the four-arm population) and
    ``"agreement"`` (the rows whose treatments agree) in ``families``.

    Each split fits one bundle per fold (with its agreement model when the
    agreement family is asked for) and scores both families from it, so no
    bundle outlives its split.  The bundles require the union of the
    families' cells, so a fold lacking a cell that only one family needs is
    redrawn for both.  With ``config.diagnostics`` each plug-in of
    ``PLUG_INS`` is a key ``(name, estimand)`` without contributions, whose
    combined point goes into the four-arm result's ``diagnostics``.  A bad
    estimand, or :class:`EmptySubset` for an agreement family without
    agreeing rows, is raised before any fit.
    """
    cells = estimand_cells([est for ests in families.values() for est in ests])
    four = families.get("four", ())
    agreement = families.get("agreement", ())
    pr_agree = agreement_share(ds) if agreement else None
    diagnostics = config.diagnostics and bool(four)

    def split_fn(split: int) -> dict:
        scores = split_scores_four(
            ds, split, config, cells, bool(agreement), diagnostics
        )
        out = {}
        for est in four:
            out["four", est] = centred(est.contrast(scores["four"]))
            for name in PLUG_INS * diagnostics:
                point, deviations, _ = centred(est.contrast(scores[name]))
                out[name, est] = point, deviations, None
        if agreement:
            theta = agreement_contrasts(ds, scores["agreement"], agreement)
            for est, (point, residual) in theta.items():
                out["agreement", est] = centred(point + residual / pr_agree)
        return out

    combined = run_battery(config, split_fn)
    if diagnostics:
        for est in four:
            combined["four", est].diagnostics = {
                name: combined[name, est].point for name in PLUG_INS
            }
    return {
        family: {est: combined[family, est] for est in estimands}
        for family, estimands in families.items()
    }


def estimate_effects_four(
    ds: FourArmDataset,
    requests: list,
    config: EstimatorConfig | None = None,
) -> list[EffectEstimate]:
    """Estimate several four-arm estimands from shared nuisance fits.

    ``requests`` is a list of ``("sde", a_m)``, ``("sie", a_y)``, or
    ``("mean", (a_y, a_m))`` tuples.  All requests within a split reuse the
    same cross-fit nuisances.
    """
    config = config or EstimatorConfig()
    estimands = [Estimand(*req) for req in requests]
    combined = four_arm_battery(ds, config, {"four": estimands})
    return build_estimates(
        combined["four"], estimands, n=ds.n, config=config,
        design="four-arm", population="four-arm",
    )
