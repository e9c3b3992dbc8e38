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

The cell probabilities follow the chain rule from two treatment models,
P(A_Y = 1 | X) and P(A_M = 1 | A_Y, X), as the generalized propensity
score of the four-valued treatment (Imbens 2000), and the probability that
the treatments agree is 1 - P(0, 1) - P(1, 0) from the same two.  As in
the two-arm design, the fold scorer of :func:`split_scores_four` fits one
:class:`NuisanceFitFour` per fold, with :func:`fit_nuisance_theta` when
the agreement population is scored, else with :func:`fit_nuisance_four`,
and then calls ``eif(ds, nuis, cells, rows)`` on the fold's test rows;
the fitter and :func:`eif` are looked up as module globals when it runs.
:func:`four_arm_battery` scores the four-arm, agreement and indirect
families from those bundles, with the agreement contrast written once for
the last two.  The diagnostics' plug-in estimators are ``run_battery``
keys of their own.
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
from .learners import AtLevels, FittedPredictor, fit_classifier, fit_regressor, predict_many
from .two_arm import split_scores_two

CELLS = ((0, 0), (0, 1), (1, 0), (1, 1))
PLUG_INS = ("ipw", "outcome_regression")


@dataclass
class NuisanceFitFour:
    """Cross-fittable nuisance bundle for a four-arm dataset.

    The cell probabilities follow the chain rule, P(a_y, a_m | X) =
    P(A_Y = a_y | X) * P(A_M = a_m | A_Y = a_y, X), from two treatment
    models: ``treat_y`` models P(A_Y = 1 | X) on the covariates and
    ``treat_m`` models P(A_M = 1 | A_Y, X) on ``[a_y, x]``, fit on the rows
    of the A_Y levels where both A_M values occur.
    ``empty_cells`` had no training rows and were not required; their
    probability is exactly zero.  Where the training rows fix a label, its
    factor is exactly one: P(A_Y) when they hold one A_Y level, and
    P(A_M | A_Y) for a cell whose sibling, the other A_M value at its A_Y
    level, is empty.  A model none of whose factors is needed is ``None``:
    ``treat_y`` with one A_Y level, ``treat_m`` when A_M is constant
    within each A_Y level.  ``propensities`` clips the cell
    probabilities to [clip, 1 - clip] before they are used in a
    denominator.
    """

    treat_y: FittedPredictor | None
    treat_m: FittedPredictor | None
    outcome_fit: FittedPredictor
    clip: float
    empty_cells: tuple = ()

    def cell_probabilities(self, x: np.ndarray) -> np.ndarray:
        """The cell probabilities on ``x``, one column per cell of
        ``CELLS``, each row normalized to sum to one."""
        models = [self.treat_y] + [
            None if self.treat_m is None else AtLevels(self.treat_m, (a_y,)) for a_y in (0, 1)
        ]
        preds = iter(predict_many([model for model in models if model is not None], x))
        p_y, *p_m = [None if model is None else next(preds) for model in models]
        probs = np.zeros((x.shape[0], len(CELLS)))
        for j, (a_y, a_m) in enumerate(CELLS):
            if (a_y, a_m) not in self.empty_cells:
                fixed = (a_y, 1 - a_m) in self.empty_cells
                probs[:, j] = _level(p_y, a_y) * _level(None if fixed else p_m[a_y], a_m)
        return probs / probs.sum(axis=1, keepdims=True)

    def propensities(self, x: np.ndarray) -> tuple:
        """The :meth:`cell_probabilities` clipped, and the unclipped
        probability that the two treatments agree, 1 - P(0, 1) - P(1, 0)."""
        probs = self.cell_probabilities(x)
        agree = 1.0 - probs[:, CELLS.index((0, 1))] - probs[:, CELLS.index((1, 0))]
        return np.clip(probs, self.clip, 1.0 - self.clip), agree


def _level(p1, level: int):
    """The probability of ``level`` from that of level 1, ``p1``; 1 where
    the training rows fix the label (``p1`` None)."""
    if p1 is None:
        return 1.0
    return p1 if level else 1.0 - p1


def fit_nuisance_four(
    ds: FourArmDataset,
    train_rows: np.ndarray,
    config: EstimatorConfig,
    required_cells: tuple = CELLS,
) -> NuisanceFitFour:
    """Fit the two treatment models and the outcome model on the given
    training rows.

    A required cell with no training rows raises :class:`MissingCell`
    (the first such cell in ``CELLS`` order) before any fit; an unrequired
    empty cell gets probability zero.  ``treat_y`` is fit unless the rows
    hold one A_Y level, and ``treat_m``, with A_Y as its first feature and
    ``interact_cols=(0,)``, unless A_M is constant within each A_Y level
    (see :class:`NuisanceFitFour`), on the rows of the levels where it varies.
    """
    x = ds.x[train_rows]
    a_y = ds.a_y[train_rows].astype(np.float64)
    a_m = ds.a_m[train_rows].astype(np.float64)
    empty = tuple(cell for cell in CELLS if not np.any((a_y == cell[0]) & (a_m == cell[1])))
    for cell in empty:
        if cell in required_cells:
            raise MissingCell(f"no training rows in arm cell {cell}")
    levels = {cell[0] for cell in CELLS if cell not in empty}
    varying = [level for level in levels if {(level, 0), (level, 1)}.isdisjoint(empty)]
    treat_y = treat_m = None
    if len(levels) > 1:
        treat_y = fit_classifier(x, a_y, config.propensity, clip=config.clip)
    if varying:
        rows = slice(None) if len(varying) == len(levels) else np.isin(a_y, varying)
        features = np.column_stack([a_y, x])[rows]
        treat_m = fit_classifier(features, a_m[rows], config.propensity, (0,), config.clip)
    stacked = np.column_stack([a_y, a_m, x])
    outcome_fit = fit_regressor(
        stacked, ds.y[train_rows], config.outcome, interact_cols=(0, 1)
    )
    return NuisanceFitFour(treat_y, treat_m, outcome_fit, config.clip, empty)


def fit_nuisance_theta(
    ds: FourArmDataset,
    train_rows: np.ndarray,
    config: EstimatorConfig,
    required_cells,
) -> NuisanceFitFour:
    """The :func:`fit_nuisance_four` bundle, fit for the agreement
    population, whose probability it also gives.  A name of its own, so
    that ``bench/layers.py`` can time the agreement side apart."""
    # positional, so that a stand-in patched over fit_nuisance_four takes *args
    return fit_nuisance_four(ds, train_rows, config, required_cells)


def eif(
    ds: FourArmDataset, nuis: NuisanceFitFour, cells, rows: np.ndarray,
    agree: np.ndarray | None = None, terms: bool = False,
) -> dict:
    """Per-row scores on ``rows`` of each (a_y, a_m) cell in ``cells``,
    ``{(name, cell): scores}``: under ``"four"`` those whose mean estimates
    E[Y^(a_y, a_m)].

    The bundle's cell probabilities are predicted once, and its outcome
    model once per cell, with no design.  Rows outside a cell contribute
    only their predicted outcome ``nu``; rows inside add the
    inverse-probability-weighted residual.  With ``agree``, the agreement
    indicator on every row of ``ds``, ``"agreement"`` holds the
    agreement-population score ``1{cell} * (Y - nu) * s_hat / pi
    + nu * agree``, with ``s_hat`` the agreement probability; with
    ``terms`` each plug-in of ``PLUG_INS`` holds its own.
    """
    x = ds.x[rows]
    y = ds.y[rows]
    a_y = ds.a_y[rows]
    a_m = ds.a_m[rows]
    probs, s_hat = nuis.propensities(x)
    agree = None if agree is None else agree[rows]
    nus = predict_many([AtLevels(nuis.outcome_fit, cell) for cell in cells], x)
    scores = {}
    for cell, nu in zip(cells, nus):
        pi = probs[:, CELLS.index(cell)]
        inside = (a_y == cell[0]) & (a_m == cell[1])
        residual = inside * (y - nu)
        scores["four", cell] = residual / pi + nu
        if agree is not None:
            scores["agreement", cell] = residual * s_hat / pi + nu * agree
        if terms:
            for name, value in zip(PLUG_INS, (inside * y / pi, nu)):
                scores[name, cell] = value
    return scores


def split_scores_four(
    ds: FourArmDataset, split: int, config: EstimatorConfig, cells: tuple,
    agree: np.ndarray | None = None, diagnostics: bool = False,
) -> dict:
    """Out-of-fold scores of each cell on split ``split``'s folds, from
    :func:`~sepfx.crossfit.cross_fit_split` with a fold scorer that fits
    one bundle requiring ``cells``, with :func:`fit_nuisance_theta` when
    the agreement indicator ``agree`` is given, else with
    :func:`fit_nuisance_four`, and scores the fold's test rows with
    :func:`eif`.  Returns ``{name: {cell: scores}}`` for the names
    :func:`eif` returns, with ``terms=diagnostics``.
    """
    fit = fit_nuisance_four if agree is None else fit_nuisance_theta
    flat = cross_fit_split(
        ds, config, split,
        lambda train, test: eif(
            ds, fit(ds, train, config, cells), cells, test, agree, diagnostics
        ),
    )
    names = dict.fromkeys(name for name, _ in flat)
    return {name: {cell: flat[name, cell] for cell in cells} for name in names}


def four_arm_battery(
    ds: FourArmDataset, config: EstimatorConfig, families: dict
) -> dict:
    """``run_battery`` output ``{family: {estimand: CombinedResult}}`` for
    the estimands of ``"four"`` (the four-arm population), ``"agreement"``
    (the rows whose treatments agree) and ``"indirect"`` (the agreement
    contrast minus the two-arm one) in ``families``.

    Each split fits one bundle per fold and scores every family from it,
    so no bundle outlives its fold.  The bundles require the union of the
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
    diagnostics = config.diagnostics and bool(four)
    agree = None
    if agreement or indirect:
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
        scores = split_scores_four(ds, split, config, cells, agree, diagnostics)
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
