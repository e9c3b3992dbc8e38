"""Shared estimator configuration, result container, and split pipeline.

The estimators in :mod:`sepfx.four_arm`, :mod:`sepfx.two_arm`, and
:mod:`sepfx.falsification` all follow the same recipe: for each of S
sample splits, cross-fit nuisance models over K folds, evaluate per-row
influence contributions out of fold, and reduce (point, variance) pairs
across splits with the median rule.  ``run_battery`` implements that
recipe once, letting each estimator family supply only the per-split
computation, and lets several estimands share one set of nuisance fits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import ndtri

from .crossfit import SplitEstimate, central_splits, make_folds, median_adjust
from .errors import DegenerateFold
from .learners import LearnerSpec
from .seeding import derive_seed

Z_95 = 1.96


def z_value(alpha: float) -> float:
    """Two-sided normal critical value; exactly 1.96 at the 5% level."""
    if alpha == 0.05:
        return Z_95
    return float(ndtri(1.0 - alpha / 2.0))


@dataclass(frozen=True)
class EstimatorConfig:
    """Settings shared by every effect estimator.

    ``outcome`` and ``propensity`` are the learner specs for conditional
    means and treatment probabilities.  ``clip`` bounds every estimated
    probability away from 0 and 1 before it is used in a denominator.
    ``strategy`` selects how two-arm outcome models handle the treatment
    (single model with interactions, stratified, or an ensemble of both).
    """

    outcome: LearnerSpec = field(default_factory=LearnerSpec)
    propensity: LearnerSpec = field(default_factory=lambda: LearnerSpec(basis="main"))
    k_folds: int = 2
    splits: int = 3
    alpha: float = 0.05
    clip: float = 0.01
    seed: int = 0
    strategy: str = "ensemble"
    keep_eif: bool = True
    diagnostics: bool = False
    max_fold_retries: int = 10

    @property
    def learner_label(self) -> str:
        return self.outcome.kind


@dataclass(frozen=True)
class EffectEstimate:
    """A point estimate with its large-sample uncertainty.

    ``se`` is the asymptotic standard deviation divided by sqrt(n) and the
    confidence interval is ``point +/- z * se``.  ``eif`` holds per-row
    influence contributions whose mean equals the point estimate (for the
    split realizing the median).  ``design`` names the data layout the
    estimate was computed from; ``population`` names the population the
    estimand refers to.
    """

    estimand: str
    fixed_level: object
    point: float
    se: float
    ci: tuple[float, float]
    n: int
    alpha: float
    design: str
    population: str
    k_folds: int
    splits: int
    learner: str
    strategy: str | None = None
    eif: np.ndarray | None = None
    diagnostics: dict | None = None

    def to_json_dict(self) -> dict:
        out = {
            "estimand": self.estimand,
            "fixed_level": self.fixed_level,
            "point": self.point,
            "se": self.se,
            "ci": [self.ci[0], self.ci[1]],
            "n": self.n,
            "alpha": self.alpha,
            "design": self.design,
            "population": self.population,
            "k_folds": self.k_folds,
            "splits": self.splits,
            "learner": self.learner,
        }
        if self.strategy is not None:
            out["strategy"] = self.strategy
        if self.diagnostics is not None:
            out["diagnostics"] = self.diagnostics
        return out


@dataclass
class CombinedResult:
    """Median-combined output of one estimand across splits."""

    point: float
    variance: float
    eif: np.ndarray
    diagnostics: dict | None


def with_fold_retry(
    n: int,
    config: EstimatorConfig,
    split: int,
    consumer: Callable[[object], object],
):
    """Call ``consumer`` on a fresh fold assignment, redrawing on failure.

    Fold assignments that leave a training fold without a needed treatment
    cell (signalled by :class:`DegenerateFold`) are redrawn with a fresh
    seed up to ``config.max_fold_retries`` times before the failure
    propagates.  Seeds derive deterministically from the config seed and
    the split index, so independent estimators given the same
    configuration see identical partitions.
    """
    failure: DegenerateFold | None = None
    for attempt in range(config.max_fold_retries):
        folds = make_folds(
            n, config.k_folds, derive_seed(config.seed, "folds", split, attempt)
        )
        try:
            return consumer(folds)
        except DegenerateFold as exc:
            failure = exc
    raise DegenerateFold(
        failure.fold if failure is not None else -1,
        f"no usable fold assignment after {config.max_fold_retries} attempts",
    )


def run_battery(
    n: int,
    config: EstimatorConfig,
    split_fn: Callable[[object], dict],
) -> dict:
    """Run the S-split pipeline for a family of estimands sharing fits.

    ``split_fn`` receives a fold assignment and returns ``{key:
    (contributions, diagnostics)}`` where ``contributions`` is a length-n
    vector whose mean is that split's point estimate.
    """
    per_key_points: dict = {}
    per_key_vars: dict = {}
    per_key_contribs: dict = {}
    per_key_diags: dict = {}
    for split in range(config.splits):
        result = with_fold_retry(n, config, split, split_fn)
        for key, (contrib, diag) in result.items():
            point = float(np.mean(contrib))
            variance = float(np.mean((contrib - point) ** 2))
            per_key_points.setdefault(key, []).append(point)
            per_key_vars.setdefault(key, []).append(variance)
            per_key_contribs.setdefault(key, []).append(contrib)
            per_key_diags.setdefault(key, []).append(diag)

    combined: dict = {}
    for key in per_key_points:
        points = per_key_points[key]
        estimates = [
            SplitEstimate(point=p, variance=v, n=n)
            for p, v in zip(points, per_key_vars[key])
        ]
        adjusted = median_adjust(estimates)
        middle = central_splits(points)
        eif = per_key_contribs[key][middle[0]]
        if len(middle) == 2:
            eif = 0.5 * (eif + per_key_contribs[key][middle[1]])
        diags = [d for d in per_key_diags[key] if d is not None]
        diagnostics = None
        if diags:
            diagnostics = {
                name: float(np.median([d[name] for d in diags])) for name in diags[0]
            }
        combined[key] = CombinedResult(
            point=adjusted.point,
            variance=adjusted.variance,
            eif=eif,
            diagnostics=diagnostics,
        )
    return combined


def build_estimate(
    result: CombinedResult,
    *,
    estimand: str,
    fixed_level,
    n: int,
    config: EstimatorConfig,
    design: str,
    population: str,
    strategy: str | None = None,
) -> EffectEstimate:
    se = float(np.sqrt(result.variance / n))
    z = z_value(config.alpha)
    return EffectEstimate(
        estimand=estimand,
        fixed_level=fixed_level,
        point=result.point,
        se=se,
        ci=(result.point - z * se, result.point + z * se),
        n=n,
        alpha=config.alpha,
        design=design,
        population=population,
        k_folds=config.k_folds,
        splits=config.splits,
        learner=config.learner_label,
        strategy=strategy,
        eif=result.eif if config.keep_eif else None,
        diagnostics=result.diagnostics,
    )
