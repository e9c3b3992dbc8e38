"""Effect estimation for two-arm designs.

With a single randomized treatment the mean counterfactual outcome under
separate outcome-channel and mediator-channel levels (a_y, a_m) is
identified by a nested regression: first the outcome on (treatment,
mediators, covariates), then the level-``a_y`` predictions on (treatment,
covariates), evaluated at treatment ``a_m``.  The per-row score

    1{A=a_y} / w(a_m, X) * r(a_m, M, X) / r(a_y, M, X) * (Y - mu(a_y, M, X))
  + 1{A=a_m} / w(a_m, X) * (mu(a_y, M, X) - lam(a_y, a_m, X))
  + lam(a_y, a_m, X)

has mean E[Y^(a_y, a_m)], where ``w`` is the treatment probability given
covariates, ``r`` the treatment probability given mediators and
covariates, ``mu`` the outcome regression, and ``lam`` the nested
projection of ``mu`` onto (treatment, covariates).  When a_y = a_m = a the
score collapses to the standard augmented inverse-probability form

    1{A=a} / w(a, X) * (Y - lam(a, a, X)) + lam(a, a, X).

The outcome strategies differ only in how ``mu`` and ``lam`` are fit
within each treatment arm: as views of one joint model with treatment
interactions ("S") or as one model per arm ("T"); the ensemble averages
the two scores row by row.  The fold scorer of :func:`split_scores_two`
fits one :class:`NuisanceFitTwo`, which holds the two treatment-probability
models once and the outcome models of every strategy in use, and then
calls ``eif(ds, nuis, pairs, rows)`` on the fold's test rows, as the
four-arm fold scorer calls its own ``eif(ds, nuis, cells, rows, names)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .crossfit import cross_fit_split
from .data import TwoArmDataset
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
from .learners import AtLevels, FittedPredictor, fit_classifier, fit_regressors


@dataclass
class NuisanceFitTwo:
    """Nuisance bundle for a two-arm dataset.

    ``treat_given_mx`` and ``treat_given_x`` model P(A=1 | ...) given the
    mediator-plus-covariate and covariate-only feature sets, and are
    queried at either level through the complement rule.  ``outcomes``
    holds one ``(mu_fits, lam_fits)`` pair per outcome strategy ("S" then
    "T" for the ensemble): ``mu_fits`` maps a treatment level to an
    outcome model over (mediators, covariates), and ``lam_fits`` maps
    (a_y, a_m) to the nested projection over covariates.
    """

    treat_given_mx: FittedPredictor
    treat_given_x: FittedPredictor
    outcomes: tuple


def _fit_by_arm(features, target_sets, a, config: EstimatorConfig, strategy: str) -> list:
    """A model of each of ``target_sets`` within each treatment arm,
    ``[{level: model}]``: views of one joint model with treatment
    interactions held at each level for "S", one model on each arm's rows
    for "T".  The sets share one batch per design."""
    if strategy == "S":
        joints = fit_regressors(
            np.column_stack([a, features]), target_sets, config.outcome, interact_cols=(0,)
        )
        return [{level: AtLevels(joint, (level,)) for level in (0, 1)} for joint in joints]
    by_arm = [
        fit_regressors(features[a == level], [t[a == level] for t in target_sets], config.outcome)
        for level in (0, 1)
    ]
    return [dict(enumerate(fits)) for fits in zip(*by_arm)]


def fit_nuisance_two(
    ds: TwoArmDataset,
    train_rows: np.ndarray,
    config: EstimatorConfig,
) -> NuisanceFitTwo:
    """Fit all two-arm nuisances on the given training rows.

    Returns one :class:`NuisanceFitTwo`: the two treatment-probability
    fits, then the outcome models of the strategy ``config.strategy``
    names, or for the ensemble those of "S" then "T".  The fold's
    treatment, mediator-plus-covariate and covariate matrices are built
    once, and every fit reads them.  The nested projection is fit on the
    same rows as the outcome model (no further splitting).

    Raises
    ------
    MissingCell
        If the training rows contain only one treatment level.
    """
    a = ds.a[train_rows].astype(np.float64)
    if np.ptp(a) == 0.0:
        raise MissingCell("training rows contain a single treatment level")
    x = ds.x[train_rows]
    mx = np.column_stack([ds.m[train_rows], x])
    y = ds.y[train_rows]
    treat_given_mx = fit_classifier(mx, a, config.propensity, clip=config.clip)
    treat_given_x = fit_classifier(x, a, config.propensity, clip=config.clip)
    outcomes = []
    for strategy in ("S", "T") if config.strategy == "ensemble" else (config.strategy,):
        [mu_fits] = _fit_by_arm(mx, [y], a, config, strategy)
        # project each level's predictions onto the covariates within each arm
        lam = _fit_by_arm(x, [mu_fits[level].predict(mx) for level in (0, 1)], a, config, strategy)
        lam_fits = {(level, prime): fit for level in (0, 1) for prime, fit in lam[level].items()}
        outcomes.append((mu_fits, lam_fits))
    return NuisanceFitTwo(treat_given_mx, treat_given_x, tuple(outcomes))


def eif(ds: TwoArmDataset, nuis: NuisanceFitTwo, pairs, rows: np.ndarray) -> dict:
    """Per-row scores on ``rows`` of each (a_y, a_m) pair in ``pairs``,
    ``{pair: scores}``, whose mean estimates E[Y^(a_y, a_m)].

    Each treatment model predicts once, and level 0 follows by the
    complement rule; each strategy's outcome models then predict once per
    level or pair (a GLM from its coefficients, with no design).  Each
    pair's two weights, the residual weight 1{A=a_y} / w(a_m) * r(a_m) /
    r(a_y) and the projection weight 1{A=a_m} / w(a_m), are built once and
    serve every strategy.  The ensemble's two strategies' scores are
    averaged row by row with equal weight.
    """
    x = ds.x[rows]
    y = ds.y[rows]
    a = ds.a[rows]
    mx = np.column_stack([ds.m[rows], x])
    levels = dict.fromkeys(a_y for a_y, _ in pairs)
    p_mx = nuis.treat_given_mx.predict(mx)
    mus = [{a_y: mu[a_y].predict(mx) for a_y in levels} for mu, _ in nuis.outcomes]
    p_x = nuis.treat_given_x.predict(x)
    lams = [{pair: lam[pair].predict(x) for pair in pairs} for _, lam in nuis.outcomes]
    rho = {1: p_mx, 0: 1.0 - p_mx}
    omega = {1: p_x, 0: 1.0 - p_x}
    weights = {
        (a_y, a_m): ((a == a_y) / omega[a_m] * (rho[a_m] / rho[a_y]), (a == a_m) / omega[a_m])
        for a_y, a_m in pairs
    }
    scores = []
    for mu, lam in zip(mus, lams):
        out = {}
        for a_y, a_m in pairs:
            residual_weight, projection_weight = weights[a_y, a_m]
            residual_term = residual_weight * (y - mu[a_y])
            projection_term = projection_weight * (mu[a_y] - lam[a_y, a_m])
            out[a_y, a_m] = residual_term + projection_term + lam[a_y, a_m]
        scores.append(out)
    if len(scores) == 1:
        return scores[0]
    return {pair: 0.5 * (scores[0][pair] + scores[1][pair]) for pair in pairs}


def split_scores_two(
    ds: TwoArmDataset,
    split: int,
    config: EstimatorConfig,
    pairs: tuple,
) -> dict:
    """Out-of-fold score vectors for each requested (a_y, a_m) pair on
    split ``split``'s folds, from :func:`~sepfx.crossfit.cross_fit_split`
    with a fold scorer that fits one :func:`fit_nuisance_two` bundle and
    scores the fold's test rows with :func:`eif`."""
    return cross_fit_split(
        ds, config, split,
        lambda train, test: eif(ds, fit_nuisance_two(ds, train, config), pairs, test),
    )


def estimate_effects_two(
    ds: TwoArmDataset,
    requests: list,
    config: EstimatorConfig | None = None,
) -> list[EffectEstimate]:
    """Estimate several two-arm estimands from shared nuisance fits.

    ``requests`` follows the four-arm convention: ``("sde", a_m)``,
    ``("sie", a_y)``, or ``("mean", (a_y, a_m))``.

    Raises
    ------
    MissingCell
        If the dataset contains a single treatment level overall.
    """
    config = config or EstimatorConfig()
    if np.ptp(ds.a) == 0:
        raise MissingCell("dataset contains a single treatment level")
    estimands = [Estimand(*req) for req in requests]
    pairs = estimand_cells(estimands)

    def split_fn(split: int) -> dict:
        scores = split_scores_two(ds, split, config, pairs)
        return {est: centred(est.contrast(scores)) for est in estimands}

    combined = run_battery(config, split_fn)
    return build_estimates(combined, estimands, n=ds.n, config=config, family="two")
