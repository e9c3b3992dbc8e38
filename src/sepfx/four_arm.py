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

The fold scorer of :func:`split_scores_four` fits one
:class:`NuisanceFitFour` per fold, with :func:`fit_nuisance_theta`, which
adds the treatment-agreement model, when the agreement population is
scored, else with :func:`fit_nuisance_four`, either looked up as a module
global when it runs, and scores the fold's test rows from it.  A bundle's
cell classifiers, and its agreement model, are one
:func:`~sepfx.learners.fit_classifiers` batch on the training
covariates.  :func:`four_arm_battery` scores the four-arm, agreement and
indirect families from those bundles, with the agreement contrast written
once for the last two.  The diagnostics' plug-in estimators are
``run_battery`` keys of their own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .crossfit import cross_fit_split
from .data import FourArmDataset, restrict_to_two_arm
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
from .learners import AtLevels, ConstantPredictor, FittedPredictor, fit_classifiers, fit_regressor
from .learners import predict_many
from .two_arm import split_scores_two

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
    they are used in a denominator.  ``agree_fit``, which only
    :func:`fit_nuisance_theta` fits, models the probability that the two
    treatments agree given covariates, for the agreement estimator.
    """

    cell_classifiers: dict
    outcome_fit: FittedPredictor
    clip: float
    agree_fit: FittedPredictor | None = None

    def cell_probabilities(self, x: np.ndarray) -> tuple:
        """``(probs, s_hat)`` on ``x``: the cell probabilities, one column per
        cell of ``CELLS``, and ``agree_fit``'s (None without it), with one
        design for the GLMs."""
        fits = [self.cell_classifiers[cell] for cell in CELLS] + [self.agree_fit]
        preds = iter(predict_many([fit for fit in fits if fit is not None], x))
        raw = np.empty((x.shape[0], len(CELLS)))
        for j, clf in enumerate(fits[: len(CELLS)]):
            raw[:, j] = 0.0 if clf is None else next(preds)
        return raw / raw.sum(axis=1, keepdims=True), next(preds, None)

    def propensities(self, x: np.ndarray) -> tuple:
        """:meth:`cell_probabilities` with the cell probabilities clipped."""
        probs, s_hat = self.cell_probabilities(x)
        return np.clip(probs, self.clip, 1.0 - self.clip), s_hat


def fit_nuisance_four(
    ds: FourArmDataset,
    train_rows: np.ndarray,
    config: EstimatorConfig,
    required_cells: tuple = CELLS,
    agreement: bool = False,
) -> NuisanceFitFour:
    """Fit cell-probability and outcome models on the given training rows.

    Cell probabilities are one-vs-rest classifiers normalized across the
    four cells.  A required cell with no training rows raises
    :class:`MissingCell` (the first such cell in ``CELLS`` order) before
    any fit; an unrequired empty cell gets probability zero.  With
    ``agreement`` the bundle's ``agree_fit`` is set too (see
    :func:`fit_nuisance_theta`).  The classifiers, the agreement model's
    included, are one :func:`~sepfx.learners.fit_classifiers` batch on the
    training covariates, each fit bit for bit as it is alone.
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
    fitted = [cell for cell in CELLS if cell not in empty]
    agree = (a_y == a_m).astype(np.float64)
    fit_agree = agreement and bool(agree.min() < 1.0)
    fits = fit_classifiers(
        x,
        [labels[cell] for cell in fitted] + [agree] * fit_agree,
        config.propensity,
        clip=config.clip,
    )
    agree_fit = None
    if agreement:
        agree_fit = fits.pop() if fit_agree else ConstantPredictor(1.0)
    classifiers = dict.fromkeys(CELLS)
    classifiers.update(zip(fitted, fits))
    stacked = np.column_stack([a_y.astype(np.float64), a_m.astype(np.float64), x])
    outcome_fit = fit_regressor(
        stacked, ds.y[train_rows], config.outcome, interact_cols=(0, 1)
    )
    return NuisanceFitFour(
        cell_classifiers=classifiers,
        outcome_fit=outcome_fit,
        clip=config.clip,
        agree_fit=agree_fit,
    )


def fit_nuisance_theta(
    ds: FourArmDataset,
    train_rows: np.ndarray,
    config: EstimatorConfig,
    required_cells,
) -> NuisanceFitFour:
    """The :func:`fit_nuisance_four` bundle with ``agree_fit`` set.

    ``agree_fit`` models the probability that the two treatments agree,
    fit in the same batch as the cell classifiers.  When every training
    row agrees, it is ``ConstantPredictor(1.0)``: the probability is
    exactly one, unclipped, since it only ever multiplies.
    """
    # positional, so that a stand-in patched over fit_nuisance_four takes *args
    return fit_nuisance_four(ds, train_rows, config, required_cells, True)


def eif(
    ds: FourArmDataset,
    a_y: int,
    a_m: int,
    nu: np.ndarray,
    rows: np.ndarray,
    pi: np.ndarray,
    agreement: tuple | None = None,
    terms: bool = False,
) -> dict:
    """Per-row scores on ``rows`` by name: under ``"four"`` those whose
    mean estimates E[Y^(a_y, a_m)].

    Rows outside the (a_y, a_m) cell contribute only their predicted
    outcome; rows inside add the inverse-probability-weighted residual.
    ``nu`` and ``pi`` are the cell's outcome prediction and clipped
    propensity on ``rows``.  With ``agreement``, the pair ``(s_hat, agree)`` of
    the agreement probability and indicator on ``rows``, ``"agreement"``
    holds the agreement-population score ``1{cell} * (Y - nu) * s_hat / pi
    + nu * agree``, from the same residual term; with ``terms`` each
    plug-in of ``PLUG_INS`` holds its own.
    """
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
    """Out-of-fold scores of each cell on split ``split``'s folds.

    The fold scorer handed to :func:`~sepfx.crossfit.cross_fit_split` fits
    one bundle requiring ``cells``, with :func:`fit_nuisance_theta` when
    ``agreement`` is set, else with :func:`fit_nuisance_four`, and predicts
    each of its models once on the fold's test rows.  Returns ``{name:
    {cell: scores}}`` for the names :func:`eif` returns, with
    ``terms=diagnostics``.
    """
    fit = fit_nuisance_theta if agreement else fit_nuisance_four
    agree = (ds.a_y == ds.a_m).astype(np.float64) if agreement else None

    def fold_scores(train: np.ndarray, test: np.ndarray) -> dict:
        nuis = fit(ds, train, config, cells)
        x = ds.x[test]
        probs, s_hat = nuis.propensities(x)
        pair = (s_hat, agree[test]) if agreement else None
        blocks = {}
        # one outcome design, whose treatment columns are rewritten per cell
        nus = predict_many([AtLevels(nuis.outcome_fit, cell) for cell in cells], x)
        for cell, nu in zip(cells, nus):
            pi = probs[:, CELLS.index(cell)]
            for name, value in eif(ds, *cell, nu, test, pi, pair, diagnostics).items():
                blocks[name, cell] = value
        return blocks

    flat = cross_fit_split(ds, config, split, fold_scores)
    names = dict.fromkeys(name for name, _ in flat)
    return {name: {cell: flat[name, cell] for cell in cells} for name in names}


def four_arm_battery(
    ds: FourArmDataset, config: EstimatorConfig, families: dict
) -> dict:
    """``run_battery`` output ``{family: {estimand: CombinedResult}}`` for
    the estimands of ``"four"`` (the four-arm population), ``"agreement"``
    (the rows whose treatments agree) and ``"indirect"`` (the agreement
    contrast minus the two-arm one) in ``families``.

    Each split fits one bundle per fold, with its agreement model for an
    agreement-population family, and scores every family from it, so no
    bundle outlives its fold.  The bundles require the union of the
    families' cells, so a fold lacking a cell that only one family needs is
    redrawn for all.  The indirect family subtracts the two-arm scores of
    :func:`~sepfx.two_arm.split_scores_two` on the agreeing rows, drawn on
    folds of their own.  With ``config.diagnostics`` each plug-in of
    ``PLUG_INS`` is a key ``(name, estimand)`` without contributions, whose
    combined point goes into the four-arm result's ``diagnostics``.  A bad
    estimand, :class:`EmptySubset` without agreeing rows, or
    :class:`MissingCell` for an indirect family whose agreeing rows hold
    one treatment level, is raised before any fit.
    """
    cells = estimand_cells([est for ests in families.values() for est in ests])
    four = families.get("four", ())
    agreement = families.get("agreement", ())
    indirect = families.get("indirect", ())
    agreeing = bool(agreement or indirect)
    diagnostics = config.diagnostics and bool(four)
    if agreeing:
        agree = (ds.a_y == ds.a_m).astype(np.float64)
        agree_total = agree.sum()
        if agree_total == 0:
            raise EmptySubset("no rows with matching treatment assignments")
        pr_agree = agree_total / ds.n
    if indirect:
        ds2 = restrict_to_two_arm(ds)
        if np.ptp(ds2.a) == 0:
            raise MissingCell("agreement rows contain a single treatment level")

    def split_fn(split: int) -> dict:
        scores = split_scores_four(
            ds, split, config, cells, agreeing, diagnostics
        )
        two_scores = split_scores_two(ds2, split, config, cells) if indirect else None
        out = {}
        for est in four:
            out["four", est] = centred(est.contrast(scores["four"]))
            for name in PLUG_INS * diagnostics:
                point, deviations, _ = centred(est.contrast(scores[name]))
                out[name, est] = point, deviations, None
        for est in dict.fromkeys([*agreement, *indirect]):
            diff = est.contrast(scores["agreement"])
            point = float(diff.sum() / agree_total)
            residual = diff - point * agree
            if est in agreement:
                out["agreement", est] = centred(point + residual / pr_agree)
            if est in indirect:
                two_point, two_deviations, _ = centred(est.contrast(two_scores))
                residual[ds2.source_rows] -= two_deviations
                out["indirect", est] = point - two_point, residual / pr_agree, None
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
        combined["four"], estimands, n=ds.n, config=config, family="four"
    )
