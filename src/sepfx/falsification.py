"""Falsification tests for the assumptions linking the two designs.

Two-arm estimation of separate channel effects leans on an exclusion
structure: the outcome-channel treatment must not move the mediators, and
the mediator-channel treatment must not move the outcome except through
the mediators.  With four-arm data both restrictions are testable.

Direct tests regress each mediator on both treatments and covariates (the
outcome-channel coefficient should vanish) and the outcome on both
treatments, mediators, and covariates (the mediator-channel coefficient
should vanish).

The indirect test compares two estimators of the same contrast on the
subpopulation whose treatments agree: a weighted four-arm estimator that
only uses the exclusion-free arms, and the two-arm estimator computed
from the agreement rows.  Under the assumptions both converge to the same
value, so their difference scaled by its standard error is asymptotically
standard normal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri, stdtr, stdtrit

from .crossfit import FoldAssignment, SplitEstimate, cross_fit, median_adjust
from .data import FourArmDataset, restrict_to_two_arm
from .errors import (
    DegenerateEstimate,
    EmptyAgreementSet,
    MissingTreatmentLevel,
    SingularDesign,
)
from .estimation import (
    EffectEstimate,
    EstimatorConfig,
    build_estimate,
    run_battery,
    with_fold_retry,
)
from .four_arm import NuisanceFitFour, fit_nuisance_four
from .learners import FittedPredictor, fit_classifier
from .two_arm import split_scores_two


@dataclass(frozen=True)
class TestResult:
    """Outcome of one falsification test.

    ``reject`` is ``p_value < alpha``; the confidence interval uses the
    same reference quantile as the p-value, so rejection, ``p < alpha``,
    and ``0 outside ci`` always agree.
    """

    test: str
    statistic: float
    estimate: float
    se: float
    ci: tuple[float, float]
    p_value: float
    alpha: float
    reject: bool
    n: int
    fixed_level: int | None = None
    mediator: int | None = None
    details: dict | None = None

    def to_json_dict(self) -> dict:
        out = {
            "test": self.test,
            "statistic": self.statistic,
            "estimate": self.estimate,
            "se": self.se,
            "ci": [self.ci[0], self.ci[1]],
            "p_value": self.p_value,
            "alpha": self.alpha,
            "reject": self.reject,
            "n": self.n,
        }
        if self.fixed_level is not None:
            out["fixed_level"] = self.fixed_level
        if self.mediator is not None:
            out["mediator"] = self.mediator
        if self.details is not None:
            out["details"] = self.details
        return out


@dataclass
class OlsFit:
    coef: np.ndarray
    cov_classical: np.ndarray
    cov_robust: np.ndarray
    dof: int
    n: int


def fit_ols(design: np.ndarray, targets: np.ndarray) -> OlsFit:
    """Least squares with classical and HC1 covariance estimates.

    Raises
    ------
    SingularDesign
        If the design matrix is rank deficient.
    """
    n, p = design.shape
    if np.linalg.matrix_rank(design) < p:
        raise SingularDesign("design matrix is rank deficient")
    gram = design.T @ design
    gram_inv = np.linalg.inv(gram)
    coef = gram_inv @ (design.T @ targets)
    resid = targets - design @ coef
    dof = n - p
    cov_classical = gram_inv * (resid @ resid / dof)
    meat = (design * (resid * resid)[:, None]).T @ design
    cov_robust = gram_inv @ meat @ gram_inv * (n / dof)
    return OlsFit(
        coef=coef,
        cov_classical=cov_classical,
        cov_robust=cov_robust,
        dof=dof,
        n=n,
    )


def _direct_design(
    ds: FourArmDataset, include_mediators: bool, basis: str
) -> np.ndarray:
    blocks = [
        np.ones((ds.n, 1)),
        ds.a_y.reshape(-1, 1).astype(np.float64),
        ds.a_m.reshape(-1, 1).astype(np.float64),
    ]
    if include_mediators:
        blocks.append(ds.m)
    blocks.append(ds.x)
    if basis == "interactions":
        blocks.append(ds.a_y[:, None] * ds.x)
        blocks.append(ds.a_m[:, None] * ds.x)
    return np.hstack(blocks)


def _studentize(estimate: float, se: float, test: str) -> float:
    """Return ``estimate / se``, refusing a standard error that is not positive.

    A zero (or NaN) standard error leaves the test without a reference
    scale: the statistic would be 0/0, infinite or NaN, and any p-value
    computed from it says nothing about the hypothesis.
    """
    if not se > 0.0:
        raise DegenerateEstimate(
            f"{test}: standard error is {se!r}, so the statistic is undefined"
        )
    return estimate / se


def _ols_test_result(
    fit: OlsFit,
    coef_index: int,
    robust: bool,
    alpha: float,
    test: str,
    mediator: int | None,
) -> TestResult:
    estimate = float(fit.coef[coef_index])
    cov = fit.cov_robust if robust else fit.cov_classical
    se = float(np.sqrt(cov[coef_index, coef_index]))
    statistic = _studentize(estimate, se, test)
    if robust:
        p_value = 2.0 * float(ndtr(-abs(statistic)))
        quantile = float(ndtri(1.0 - alpha / 2.0))
    else:
        p_value = 2.0 * float(stdtr(fit.dof, -abs(statistic)))
        quantile = float(stdtrit(fit.dof, 1.0 - alpha / 2.0))
    ci = (estimate - quantile * se, estimate + quantile * se)
    return TestResult(
        test=test,
        statistic=statistic,
        estimate=estimate,
        se=se,
        ci=ci,
        p_value=p_value,
        alpha=alpha,
        reject=bool(p_value < alpha),
        n=fit.n,
        mediator=mediator,
        details={"reference": "normal" if robust else "t", "dof": fit.dof},
    )


def direct_test_h0i(
    ds: FourArmDataset,
    mediator_index: int = 0,
    robust: bool = False,
    basis: str = "main",
    alpha: float = 0.05,
) -> TestResult:
    """Test that the outcome-channel treatment leaves a mediator unmoved.

    Regresses the chosen mediator on both treatments and covariates and
    tests the outcome-channel coefficient against zero.  Classical
    standard errors with a t reference by default; ``robust`` switches to
    HC1 errors with a normal reference.
    """
    design = _direct_design(ds, include_mediators=False, basis=basis)
    fit = fit_ols(design, ds.m[:, mediator_index])
    return _ols_test_result(fit, 1, robust, alpha, "H0(i)", mediator_index)


def direct_test_h0ii(
    ds: FourArmDataset,
    robust: bool = False,
    basis: str = "main",
    alpha: float = 0.05,
) -> TestResult:
    """Test that the mediator-channel treatment has no direct outcome path.

    Regresses the outcome on both treatments, all mediators, and
    covariates, and tests the mediator-channel coefficient against zero.
    """
    design = _direct_design(ds, include_mediators=True, basis=basis)
    fit = fit_ols(design, ds.y)
    return _ols_test_result(fit, 2, robust, alpha, "H0(ii)", None)


@dataclass
class ThetaNuisance:
    """Nuisances for the agreement-population estimator.

    Extends the four-arm bundle with a model for the probability that the
    two treatments agree given covariates.  When every training row
    agrees, the probability is the exact constant one (it only ever
    multiplies, so no clipping is needed).
    """

    four: NuisanceFitFour
    agree_fit: FittedPredictor | None
    clip: float

    def agreement_probability(self, x: np.ndarray) -> np.ndarray:
        if self.agree_fit is None:
            return np.ones(x.shape[0])
        return self.agree_fit.predict(x)

    def propensity(self, a_y: int, a_m: int, x: np.ndarray) -> np.ndarray:
        return self.four.propensity(a_y, a_m, x)

    def outcome(self, a_y: int, a_m: int, x: np.ndarray) -> np.ndarray:
        return self.four.outcome(a_y, a_m, x)


def fit_nuisance_theta(
    ds: FourArmDataset,
    train_rows: np.ndarray,
    config: EstimatorConfig,
    required_cells,
) -> ThetaNuisance:
    """Fit the four-arm nuisances plus the treatment-agreement model."""
    four = fit_nuisance_four(ds, train_rows, config, required_cells)
    agree = (ds.a_y[train_rows] == ds.a_m[train_rows]).astype(np.float64)
    if agree.min() == 1.0:
        agree_fit = None
    else:
        agree_fit = fit_classifier(
            ds.x[train_rows], agree, config.propensity, clip=config.clip
        )
    return ThetaNuisance(four=four, agree_fit=agree_fit, clip=config.clip)


def _cells_for_requests(requests) -> tuple:
    cells = []
    for kind, level in requests:
        if kind == "sde":
            cells.extend([(1, level), (0, level)])
        elif kind == "sie":
            cells.extend([(level, 1), (level, 0)])
        elif kind == "mean":
            cells.append(tuple(level))
        else:
            raise ValueError(f"unknown estimand kind {kind!r}")
    return tuple(dict.fromkeys(cells))


def split_scores_theta(
    ds: FourArmDataset,
    folds: FoldAssignment,
    config: EstimatorConfig,
    cells: tuple,
    fitter=None,
) -> dict:
    """Out-of-fold weighted scores for the agreement-population mean.

    For each requested cell the per-row score is

        1{cell} * (Y - nu) * s(X) / pi + nu * 1{A_Y = A_M}

    where ``s`` is the agreement probability given covariates.  Dividing
    the score sum by the number of agreement rows estimates the mean
    counterfactual outcome on the agreement population.
    """
    nuisance_fitter = fitter or (
        lambda data, train: fit_nuisance_theta(data, train, config, cells)
    )
    fits = cross_fit(ds, folds, nuisance_fitter)
    agree = (ds.a_y == ds.a_m).astype(np.float64)
    scores = {cell: np.empty(ds.n) for cell in cells}
    for fold in range(folds.k):
        test = folds.test_rows(fold)
        nuis = fits[fold]
        x = ds.x[test]
        s_hat = nuis.agreement_probability(x)
        for cell in cells:
            nu = nuis.outcome(cell[0], cell[1], x)
            pi = nuis.propensity(cell[0], cell[1], x)
            inside = (ds.a_y[test] == cell[0]) & (ds.a_m[test] == cell[1])
            scores[cell][test] = inside * (ds.y[test] - nu) * s_hat / pi + nu * agree[test]
    return scores


def estimate_agreement_effects(
    ds: FourArmDataset,
    requests: list,
    config: EstimatorConfig | None = None,
    fitter=None,
) -> list[EffectEstimate]:
    """Estimate agreement-population estimands from four-arm data.

    These estimators target the same population as the two-arm design
    (rows whose treatments agree) but use all four arms, so they remain
    valid when the exclusion restrictions fail.  ``requests`` follows the
    four-arm convention.

    Raises
    ------
    EmptyAgreementSet
        If no row has matching treatments.
    """
    config = config or EstimatorConfig()
    agree = (ds.a_y == ds.a_m).astype(np.float64)
    agree_total = agree.sum()
    if agree_total == 0.0:
        raise EmptyAgreementSet("no rows with matching treatment assignments")
    pr_agree = agree_total / ds.n
    cells = _cells_for_requests(requests)

    def split_fn(folds: FoldAssignment) -> dict:
        scores = split_scores_theta(ds, folds, config, cells, fitter)
        out = {}
        for kind, level in requests:
            if kind == "sde":
                diff = scores[(1, level)] - scores[(0, level)]
            elif kind == "sie":
                diff = scores[(level, 1)] - scores[(level, 0)]
            else:
                diff = scores[tuple(level)]
            point = float(diff.sum() / agree_total)
            contrib = point + (diff - point * agree) / pr_agree
            out[(kind, level)] = (contrib, None)
        return out

    combined = run_battery(ds.n, config, split_fn)
    return [
        build_estimate(
            combined[(kind, level)],
            estimand=kind,
            fixed_level=list(level) if kind == "mean" else level,
            n=ds.n,
            config=config,
            design="four-arm",
            population="two-arm",
        )
        for kind, level in requests
    ]


def estimate_theta(
    ds: FourArmDataset,
    a_y: int,
    a_m: int,
    config: EstimatorConfig | None = None,
    fitter=None,
) -> EffectEstimate:
    """Mean counterfactual outcome on the agreement population."""
    return estimate_agreement_effects(ds, [("mean", (a_y, a_m))], config, fitter)[0]


def estimate_sde_agreement(
    ds: FourArmDataset,
    a_m: int,
    config: EstimatorConfig | None = None,
    fitter=None,
) -> EffectEstimate:
    """Direct effect on the agreement population, from all four arms."""
    return estimate_agreement_effects(ds, [("sde", a_m)], config, fitter)[0]


def estimate_sie_agreement(
    ds: FourArmDataset,
    a_y: int,
    config: EstimatorConfig | None = None,
    fitter=None,
) -> EffectEstimate:
    """Indirect effect on the agreement population, from all four arms."""
    return estimate_agreement_effects(ds, [("sie", a_y)], config, fitter)[0]


DEFAULT_INDIRECT_REQUESTS = (("sde", 0), ("sde", 1), ("sie", 0), ("sie", 1))


def indirect_test_battery(
    ds: FourArmDataset,
    config: EstimatorConfig | None = None,
    requests=DEFAULT_INDIRECT_REQUESTS,
) -> list[TestResult]:
    """Wald comparison of the agreement and two-arm estimators.

    For each requested contrast the agreement-population estimator and
    the two-arm estimator (on the agreement rows) estimate the same
    quantity under the exclusion restrictions; the scaled difference is
    asymptotically standard normal.  The difference and its variance are
    computed per split from shared nuisance fits, then median-combined.
    All requested contrasts reuse one set of fits per split.
    """
    config = config or EstimatorConfig()
    requests = [tuple(r) for r in requests]
    agree = (ds.a_y == ds.a_m).astype(np.float64)
    agree_total = agree.sum()
    if agree_total == 0.0:
        raise EmptyAgreementSet("no rows with matching treatment assignments")
    pr_agree = agree_total / ds.n
    ds2 = restrict_to_two_arm(ds)
    if np.ptp(ds2.a) == 0:
        raise MissingTreatmentLevel(
            "agreement rows contain a single treatment level"
        )
    cells = _cells_for_requests(requests)

    per_request: dict = {req: [] for req in requests}
    for split in range(config.splits):
        theta_scores = with_fold_retry(
            ds.n,
            config,
            split,
            lambda folds: split_scores_theta(ds, folds, config, cells),
        )
        two_scores = with_fold_retry(
            ds2.n,
            config,
            split,
            lambda folds: split_scores_two(ds2, folds, config, cells),
        )
        for kind, level in requests:
            if kind == "sde":
                plus, minus = (1, level), (0, level)
            else:
                plus, minus = (level, 1), (level, 0)
            diff4 = theta_scores[plus] - theta_scores[minus]
            theta_point = float(diff4.sum() / agree_total)
            psi_diff = two_scores[plus] - two_scores[minus]
            two_point = float(np.mean(psi_diff))
            centered_two = np.zeros(ds.n)
            centered_two[ds2.source_rows] = psi_diff - two_point
            combined = (diff4 - theta_point * agree - centered_two) / pr_agree
            variance = float(np.mean(combined * combined))
            per_request[(kind, level)].append(
                SplitEstimate(
                    point=theta_point - two_point, variance=variance, n=ds.n
                )
            )

    results = []
    quantile = float(ndtri(1.0 - config.alpha / 2.0))
    for kind, level in requests:
        adjusted = median_adjust(per_request[(kind, level)])
        se = float(np.sqrt(adjusted.variance / ds.n))
        statistic = _studentize(adjusted.point, se, f"indirect-{kind.upper()}")
        p_value = 2.0 * float(ndtr(-abs(statistic)))
        ci = (adjusted.point - quantile * se, adjusted.point + quantile * se)
        results.append(
            TestResult(
                test=f"indirect-{kind.upper()}",
                statistic=statistic,
                estimate=adjusted.point,
                se=se,
                ci=ci,
                p_value=p_value,
                alpha=config.alpha,
                reject=bool(p_value < config.alpha),
                n=ds.n,
                fixed_level=level,
                details={"pr_agree": float(pr_agree)},
            )
        )
    return results


def indirect_test(
    ds: FourArmDataset,
    effect: str,
    fixed_level: int,
    config: EstimatorConfig | None = None,
) -> TestResult:
    """Indirect falsification test for one contrast.

    ``effect`` is ``"sde"`` or ``"sie"``; ``fixed_level`` fixes the other
    channel.
    """
    return indirect_test_battery(ds, config, requests=[(effect, fixed_level)])[0]
