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
and then calls ``eif(ds, nuis, cells, rows, names)`` on the fold's test
rows, which computes only the named scores; the fitter and :func:`eif`
are looked up as module globals when it runs.  :func:`four_arm_battery`
scores the four-arm, agreement, indirect and plug-in families from those
bundles, each split only the names its families read, with the agreement
contrast written once for the agreement and indirect families.  The
diagnostics' plug-in estimators, ``PLUG_INS``, are families of their own,
scored like the four-arm one but without contributions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
from .learners import AtLevels, FittedPredictor, fit_classifier, fit_regressor
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
        p_y = None if self.treat_y is None else self.treat_y.predict(x)
        p_m = [
            None if self.treat_m is None else AtLevels(self.treat_m, (a_y,)).predict(x)
            for a_y in (0, 1)
        ]
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


def eif(ds: FourArmDataset, nuis: NuisanceFitFour, cells, rows: np.ndarray, names) -> dict:
    """Per-row scores on ``rows`` of each (a_y, a_m) cell in ``cells``,
    ``{(name, cell): scores}``, for each of ``names``.

    ``"four"`` holds the scores whose mean estimates E[Y^(a_y, a_m)]: rows
    outside a cell contribute only their predicted outcome ``nu``, and rows
    inside add the inverse-probability-weighted residual.  ``"agreement"``
    holds the agreement-population score ``1{cell} * (Y - nu) * s_hat / pi
    + nu * 1{A_Y = A_M}``, with ``s_hat`` the agreement probability, and
    ``"ipw"`` and ``"outcome_regression"``, the plug-ins of ``PLUG_INS``,
    ``1{cell} * Y / pi`` and ``nu``.  The bundle's cell probabilities are
    predicted once, and its outcome model once per cell, with no design.
    """
    x = ds.x[rows]
    y = ds.y[rows]
    a_y = ds.a_y[rows]
    a_m = ds.a_m[rows]
    probs, s_hat = nuis.propensities(x)
    scores = {}
    for cell in cells:
        nu = AtLevels(nuis.outcome_fit, cell).predict(x)
        pi = probs[:, CELLS.index(cell)]
        inside = (a_y == cell[0]) & (a_m == cell[1])
        residual = inside * (y - nu)
        if "four" in names:
            scores["four", cell] = residual / pi + nu
        if "agreement" in names:
            scores["agreement", cell] = residual * s_hat / pi + nu * (a_y == a_m)
        if "ipw" in names:
            scores["ipw", cell] = inside * y / pi
        if "outcome_regression" in names:
            scores["outcome_regression", cell] = nu
    return scores


def split_scores_four(
    ds: FourArmDataset, split: int, config: EstimatorConfig, cells: tuple, names
) -> dict:
    """Out-of-fold scores of each cell on split ``split``'s folds, from
    :func:`~sepfx.crossfit.cross_fit_split` with a fold scorer that fits
    one bundle requiring ``cells``, with :func:`fit_nuisance_theta` when
    ``"agreement"`` is among ``names``, else with
    :func:`fit_nuisance_four`, and scores the fold's test rows with
    :func:`eif`.  Returns ``{name: {cell: scores}}`` for each of ``names``.
    """
    fit = fit_nuisance_theta if "agreement" in names else fit_nuisance_four
    flat = cross_fit_split(
        ds, config, split,
        lambda train, test: eif(ds, fit(ds, train, config, cells), cells, test, names),
    )
    return {name: {cell: flat[name, cell] for cell in cells} for name in names}


def four_arm_battery(
    ds: FourArmDataset, config: EstimatorConfig, families: dict
) -> dict:
    """``run_battery`` output ``{family: {estimand: CombinedResult}}`` for
    the estimands of ``"four"`` (the four-arm population), ``"agreement"``
    (the rows whose treatments agree), ``"indirect"`` (the agreement
    contrast minus the two-arm one) and the plug-ins of ``PLUG_INS``,
    ``"ipw"`` and ``"outcome_regression"``, in ``families``.

    Each split fits one bundle per fold and scores from it only the names
    its families read, so no bundle outlives its fold and a battery without
    a four-arm family scores no four-arm score.  The bundles require the
    union of the families' cells, so a fold lacking a cell that only one
    family needs is redrawn for all.  The plug-ins are scored like
    ``"four"``, but keep no contributions.  The indirect family subtracts
    the two-arm scores of :func:`~sepfx.two_arm.split_scores_two` on the
    agreeing rows, drawn on folds of their own.  A bad estimand,
    :class:`EmptySubset` without agreeing rows, or :class:`MissingCell`
    for an indirect family whose agreeing rows hold one treatment level,
    is raised before any fit.
    """
    cells = estimand_cells([est for ests in families.values() for est in ests])
    agreement = families.get("agreement", ())
    indirect = families.get("indirect", ())
    names = [name for name in ("four", *PLUG_INS) if name in families]
    if agreement or indirect:
        names.append("agreement")
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
        scores = split_scores_four(ds, split, config, cells, names)
        two_scores = split_scores_two(ds2, split, config, cells) if indirect else None
        out = {}
        for name in ("four", *PLUG_INS):
            for est in families.get(name, ()):
                point, deviations, contrib = centred(est.contrast(scores[name]))
                out[name, est] = point, deviations, contrib if name == "four" else None
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
    same cross-fit nuisances.  With ``config.diagnostics`` the battery also
    scores the plug-in families of ``PLUG_INS``, and each estimate's
    ``diagnostics`` maps them, in that order, to their combined points.
    """
    config = config or EstimatorConfig()
    estimands = [Estimand(*req) for req in requests]
    families = {"four": estimands}
    if config.diagnostics:
        families.update(dict.fromkeys(PLUG_INS, estimands))
    combined = four_arm_battery(ds, config, families)
    estimates = build_estimates(
        combined["four"], estimands, n=ds.n, config=config, family="four"
    )
    if not config.diagnostics:
        return estimates
    return [
        replace(estimate, diagnostics={name: combined[name][est].point for name in PLUG_INS})
        for estimate, est in zip(estimates, estimands)
    ]
