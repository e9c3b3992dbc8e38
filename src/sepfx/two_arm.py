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

The outcome regressions support three strategies: a single model with
treatment interactions ("S"), per-arm models ("T"), or an ensemble that
averages the two scores row by row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .crossfit import cross_fit_split
from .data import TwoArmDataset
from .errors import LearnerError, MissingCell
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


@dataclass
class NuisanceFitTwo:
    """Single-strategy nuisance bundle for a two-arm dataset.

    ``treat_given_mx`` and ``treat_given_x`` model P(A=1 | ...) given the
    mediator-plus-covariate and covariate-only feature sets, and are
    queried at either level through the complement rule.  ``mu_fits`` maps
    a treatment level to an outcome model over (mediators, covariates);
    ``lam_fits`` maps (a_y, a_m) to the nested projection over covariates.
    """

    treat_given_mx: FittedPredictor
    treat_given_x: FittedPredictor
    mu_fits: dict
    lam_fits: dict

    def rho(self, level: int, m: np.ndarray, x: np.ndarray) -> np.ndarray:
        p1 = self.treat_given_mx.predict(np.column_stack([m, x]))
        return p1 if level == 1 else 1.0 - p1

    def omega(self, level: int, x: np.ndarray) -> np.ndarray:
        p1 = self.treat_given_x.predict(x)
        return p1 if level == 1 else 1.0 - p1

    def mu(self, level: int, m: np.ndarray, x: np.ndarray) -> np.ndarray:
        return self.mu_fits[level].predict(np.column_stack([m, x]))

    def lam(self, a_y: int, a_m: int, x: np.ndarray) -> np.ndarray:
        return self.lam_fits[(a_y, a_m)].predict(x)


@dataclass
class EnsembleNuisanceTwo:
    """Both outcome-model strategies, kept so scores can be averaged.  The
    two share one pair of treatment-probability fits."""

    single: NuisanceFitTwo
    stratified: NuisanceFitTwo


@dataclass
class _AtLevel:
    """A joint ("S" strategy) model whose first feature is the treatment,
    evaluated with the treatment held at ``level``."""

    fit: FittedPredictor
    level: int

    def predict(self, features: np.ndarray) -> np.ndarray:
        level = np.full(features.shape[0], float(self.level))
        return self.fit.predict(np.column_stack([level, features]))


def _fit_single_strategy(
    ds: TwoArmDataset,
    rows: np.ndarray,
    config: EstimatorConfig,
    treat_given_mx: FittedPredictor,
    treat_given_x: FittedPredictor,
    strategy: str,
) -> NuisanceFitTwo:
    a = ds.a[rows].astype(np.float64)
    y = ds.y[rows]
    mx = np.column_stack([ds.m[rows], ds.x[rows]])
    x = ds.x[rows]

    mu_fits: dict = {}
    lam_fits: dict = {}
    if strategy == "S":
        joint = fit_regressor(
            np.column_stack([a, mx]), y, config.outcome, interact_cols=(0,)
        )
        for level in (0, 1):
            mu_fits[level] = _AtLevel(fit=joint, level=level)
            # project the level-specific predictions back onto (A, X)
            targets = mu_fits[level].predict(mx)
            stage2 = fit_regressor(
                np.column_stack([a, x]), targets, config.outcome, interact_cols=(0,)
            )
            for prime in (0, 1):
                lam_fits[(level, prime)] = _AtLevel(fit=stage2, level=prime)
    elif strategy == "T":
        arm_rows = {}
        for level in (0, 1):
            arm = np.nonzero(a == level)[0]
            if arm.size == 0:
                raise MissingCell(f"treatment level {level} absent from training rows")
            arm_rows[level] = arm
            mu_fits[level] = fit_regressor(mx[arm], y[arm], config.outcome)
        for level in (0, 1):
            predictions = mu_fits[level].predict(mx)
            for prime in (0, 1):
                arm = arm_rows[prime]
                lam_fits[(level, prime)] = fit_regressor(
                    x[arm], predictions[arm], config.outcome
                )
    else:
        raise LearnerError(f"unknown strategy {strategy!r}")
    return NuisanceFitTwo(
        treat_given_mx=treat_given_mx,
        treat_given_x=treat_given_x,
        mu_fits=mu_fits,
        lam_fits=lam_fits,
    )


def fit_nuisance_two(
    ds: TwoArmDataset,
    train_rows: np.ndarray,
    config: EstimatorConfig,
    strategy: str | None = None,
):
    """Fit all two-arm nuisances on the given training rows.

    The nested projection is fit on the same rows as the outcome model (no
    further splitting).  With the ensemble strategy both bundles are
    returned, sharing the treatment-probability fits.

    Raises
    ------
    MissingCell
        If the training rows contain only one treatment level.
    """
    strategy = strategy or config.strategy
    a = ds.a[train_rows].astype(np.float64)
    if np.ptp(a) == 0.0:
        raise MissingCell("training rows contain a single treatment level")
    mx = np.column_stack([ds.m[train_rows], ds.x[train_rows]])
    treat_given_mx = fit_classifier(mx, a, config.propensity, clip=config.clip)
    treat_given_x = fit_classifier(
        ds.x[train_rows], a, config.propensity, clip=config.clip
    )
    if strategy == "ensemble":
        return EnsembleNuisanceTwo(
            single=_fit_single_strategy(
                ds, train_rows, config, treat_given_mx, treat_given_x, "S"
            ),
            stratified=_fit_single_strategy(
                ds, train_rows, config, treat_given_mx, treat_given_x, "T"
            ),
        )
    return _fit_single_strategy(
        ds, train_rows, config, treat_given_mx, treat_given_x, strategy
    )


def _treatment_probabilities(nuis, m: np.ndarray, x: np.ndarray) -> tuple:
    """``(rho, omega)`` on one block of rows, each a dict from treatment level
    to P(A = level | M, X) and P(A = level | X).  A fitted bundle predicts
    each treatment model once and takes level 0 by the complement rule; any
    other nuisance object (a ``fitter`` may return one) is asked level by
    level."""
    if isinstance(nuis, NuisanceFitTwo):
        p_mx = nuis.treat_given_mx.predict(np.column_stack([m, x]))
        p_x = nuis.treat_given_x.predict(x)
        return {1: p_mx, 0: 1.0 - p_mx}, {1: p_x, 0: 1.0 - p_x}
    rho = {level: nuis.rho(level, m, x) for level in (0, 1)}
    omega = {level: nuis.omega(level, x) for level in (0, 1)}
    return rho, omega


def _pair_scores(nuis, pairs, a, y, m, x, rho: dict, omega: dict) -> dict:
    """One single-strategy bundle's score of each (a_y, a_m) pair on one
    block of rows, predicting each outcome model once."""
    mu = {a_y: nuis.mu(a_y, m, x) for a_y in dict.fromkeys(a_y for a_y, _ in pairs)}
    out = {}
    for a_y, a_m in pairs:
        lam = nuis.lam(a_y, a_m, x)
        ratio = rho[a_m] / rho[a_y]
        residual_term = (a == a_y) / omega[a_m] * ratio * (y - mu[a_y])
        projection_term = (a == a_m) / omega[a_m] * (mu[a_y] - lam)
        out[(a_y, a_m)] = residual_term + projection_term + lam
    return out


def _block_scores(ds: TwoArmDataset, nuis, pairs, rows: np.ndarray) -> dict:
    """Each pair's scores on ``rows`` from one bundle.  An ensemble averages
    its two strategies' scores row by row; they share the treatment fits,
    so the treatment probabilities are predicted once for both."""
    m = ds.m[rows]
    x = ds.x[rows]
    y = ds.y[rows]
    a = ds.a[rows]
    if isinstance(nuis, EnsembleNuisanceTwo):
        treat = _treatment_probabilities(nuis.single, m, x)
        single = _pair_scores(nuis.single, pairs, a, y, m, x, *treat)
        stratified = _pair_scores(nuis.stratified, pairs, a, y, m, x, *treat)
        return {pair: 0.5 * (single[pair] + stratified[pair]) for pair in pairs}
    return _pair_scores(nuis, pairs, a, y, m, x, *_treatment_probabilities(nuis, m, x))


def eif(
    ds: TwoArmDataset,
    a_y: int,
    a_m: int,
    nuis,
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """Per-row scores whose mean estimates E[Y^(a_y, a_m)].

    For an ensemble bundle the scores of the two strategies are averaged
    row by row with equal weight.
    """
    if rows is None:
        rows = np.arange(ds.n)
    return _block_scores(ds, nuis, ((a_y, a_m),), rows)[(a_y, a_m)]


def split_scores_two(
    ds: TwoArmDataset,
    split: int,
    config: EstimatorConfig,
    pairs: tuple,
    fitter=None,
) -> dict:
    """Out-of-fold score vectors for each requested (a_y, a_m) pair on
    split ``split``'s fold assignment (see
    :func:`~sepfx.crossfit.cross_fit_split`).  Within a fold each model is
    predicted once on the test block, whatever the number of pairs."""
    nuisance_fitter = fitter or (
        lambda data, train: fit_nuisance_two(data, train, config)
    )
    folds, fits = cross_fit_split(ds, config, split, nuisance_fitter)
    scores = {pair: np.empty(ds.n) for pair in pairs}
    for fold in range(folds.k):
        test = folds.test_rows(fold)
        for pair, block in _block_scores(ds, fits[fold], pairs, test).items():
            scores[pair][test] = block
    return scores


def estimate_effects_two(
    ds: TwoArmDataset,
    requests: list,
    config: EstimatorConfig | None = None,
    fitter=None,
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
        scores = split_scores_two(ds, split, config, pairs, fitter)
        return {est: centred(est.contrast(scores)) for est in estimands}

    combined = run_battery(config, split_fn)
    return build_estimates(
        combined, estimands, n=ds.n, config=config,
        design="two-arm", population="two-arm", strategy=config.strategy,
    )
