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

from .crossfit import FoldAssignment, SplitEstimate, median_adjust
from .data import FourArmDataset, restrict_to_two_arm
from .errors import (
    DegenerateEstimate,
    EmptyAgreementSet,
    MissingTreatmentLevel,
    SingularDesign,
)
from .estimation import (
    EffectEstimate,
    Estimand,
    EstimatorConfig,
    JsonFields,
    build_estimates,
    checked_se,
    estimand_cells,
    run_battery,
    with_fold_retry,
)
from .four_arm import NuisanceFitFour, fit_nuisance_four, split_scores_four
from .learners import FittedPredictor, fit_classifier
from .two_arm import split_scores_two


@dataclass(frozen=True)
class TestResult(JsonFields):
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

    json_omit_none = ("fixed_level", "mediator", "details")


EXACT_FIT_RTOL = float(np.sqrt(np.finfo(np.float64).eps))


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
    DegenerateEstimate
        If the fit is exact: the target is constant, or the residual norm
        is at most ``EXACT_FIT_RTOL`` (the square root of machine epsilon,
        about 1.5e-8) times the norm of the centred target, i.e. 1 - R^2
        is below machine epsilon.  The residuals are then rounding noise,
        so any standard error or p-value computed from them is too.  The
        rule is relative, so rescaling the target does not change it.
    """
    n, p = design.shape
    if np.linalg.matrix_rank(design) < p:
        raise SingularDesign("design matrix is rank deficient")
    gram = design.T @ design
    gram_inv = np.linalg.inv(gram)
    coef = gram_inv @ (design.T @ targets)
    resid = targets - design @ coef
    centred_norm = np.linalg.norm(targets - targets.mean())
    if np.ptp(targets) == 0.0 or np.linalg.norm(resid) <= EXACT_FIT_RTOL * centred_norm:
        raise DegenerateEstimate(
            "the regressors reproduce the target exactly, so the residuals "
            "are rounding noise and no standard error exists"
        )
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


def _wald_test(
    test: str, estimate: float, se: float, alpha: float, dof: int | None, **extra
) -> TestResult:
    """Test ``estimate = 0`` against a normal reference, or a t reference
    with ``dof`` degrees of freedom; the interval uses the same quantile."""
    se = checked_se(se, test)
    statistic = estimate / se
    if dof is None:
        p_value = 2.0 * float(ndtr(-abs(statistic)))
        quantile = float(ndtri(1.0 - alpha / 2.0))
    else:
        p_value = 2.0 * float(stdtr(dof, -abs(statistic)))
        quantile = float(stdtrit(dof, 1.0 - alpha / 2.0))
    return TestResult(
        test=test,
        statistic=statistic,
        estimate=estimate,
        se=se,
        ci=(estimate - quantile * se, estimate + quantile * se),
        p_value=p_value,
        alpha=alpha,
        reject=bool(p_value < alpha),
        **extra,
    )


def _direct_test(
    test: str,
    ds: FourArmDataset,
    targets: np.ndarray,
    robust: bool,
    basis: str,
    alpha: float,
    *,
    include_mediators: bool,
    coef_index: int,
    mediator: int | None = None,
) -> TestResult:
    """Regress ``targets`` on the direct-test design and Wald-test the
    treatment coefficient at ``coef_index`` (1 for a_y, 2 for a_m)."""
    try:
        fit = fit_ols(_direct_design(ds, include_mediators, basis), targets)
    except DegenerateEstimate as exc:
        raise DegenerateEstimate(f"{test}: {exc}") from None
    cov = fit.cov_robust if robust else fit.cov_classical
    return _wald_test(
        test,
        float(fit.coef[coef_index]),
        float(np.sqrt(cov[coef_index, coef_index])),
        alpha,
        None if robust else fit.dof,
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
    return _direct_test(
        "H0(i)", ds, ds.m[:, mediator_index], robust, basis, alpha,
        include_mediators=False, coef_index=1, mediator=mediator_index,
    )


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
    return _direct_test(
        "H0(ii)", ds, ds.y, robust, basis, alpha, include_mediators=True, coef_index=2
    )


@dataclass
class ThetaNuisance(NuisanceFitFour):
    """Four-arm nuisances plus the agreement model of the agreement estimator.

    ``agree_fit`` models the probability that the two treatments agree
    given covariates.  When every training row agrees it is ``None`` and
    the probability is the exact constant one (it only ever multiplies,
    so no clipping is needed).
    """

    agree_fit: FittedPredictor | None = None

    def agreement_probability(self, x: np.ndarray) -> np.ndarray:
        if self.agree_fit is None:
            return np.ones(x.shape[0])
        return self.agree_fit.predict(x)


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
    return ThetaNuisance(**vars(four), agree_fit=agree_fit)


def _agreement_share(ds: FourArmDataset) -> tuple:
    """The indicator 1{A_Y = A_M} per row, its count, and its share of rows."""
    agree = (ds.a_y == ds.a_m).astype(np.float64)
    agree_total = agree.sum()
    if agree_total == 0.0:
        raise EmptyAgreementSet("no rows with matching treatment assignments")
    return agree, agree_total, agree_total / ds.n


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
    agree, agree_total, pr_agree = _agreement_share(ds)
    estimands = [Estimand(*req) for req in requests]
    cells = estimand_cells(estimands)
    nuisance_fitter = fitter or (
        lambda data, train: fit_nuisance_theta(data, train, config, cells)
    )

    def split_fn(folds: FoldAssignment) -> dict:
        scores, _, _ = split_scores_four(
            ds, folds, nuisance_fitter, cells, agreement=True
        )
        out = {}
        for est in estimands:
            diff = est.contrast(scores)
            point = float(diff.sum() / agree_total)
            contrib = point + (diff - point * agree) / pr_agree
            out[est] = (contrib, None)
        return out

    combined = run_battery(ds.n, config, split_fn)
    return build_estimates(
        combined, estimands, n=ds.n, config=config,
        design="four-arm", population="two-arm",
    )


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
    All requested contrasts reuse one set of fits per split.  ``requests``
    holds ``("sde", a_m)`` and ``("sie", a_y)`` tuples.
    """
    config = config or EstimatorConfig()
    estimands = [Estimand(*req) for req in requests]
    if any(est.kind not in ("sde", "sie") for est in estimands):
        raise ValueError("the indirect test compares sde and sie contrasts only")
    agree, agree_total, pr_agree = _agreement_share(ds)
    ds2 = restrict_to_two_arm(ds)
    if np.ptp(ds2.a) == 0:
        raise MissingTreatmentLevel(
            "agreement rows contain a single treatment level"
        )
    cells = estimand_cells(estimands)

    def theta_fitter(data, train):
        return fit_nuisance_theta(data, train, config, cells)

    per_request: dict = {est: [] for est in estimands}
    for split in range(config.splits):
        theta_scores, _, _ = with_fold_retry(
            ds.n,
            config,
            split,
            lambda folds: split_scores_four(
                ds, folds, theta_fitter, cells, agreement=True
            ),
        )
        two_scores = with_fold_retry(
            ds2.n,
            config,
            split,
            lambda folds: split_scores_two(ds2, folds, config, cells),
        )
        for est in estimands:
            diff4 = est.contrast(theta_scores)
            theta_point = float(diff4.sum() / agree_total)
            psi_diff = est.contrast(two_scores)
            two_point = float(np.mean(psi_diff))
            centered_two = np.zeros(ds.n)
            centered_two[ds2.source_rows] = psi_diff - two_point
            combined = (diff4 - theta_point * agree - centered_two) / pr_agree
            variance = float(np.mean(combined * combined))
            per_request[est].append(
                SplitEstimate(
                    point=theta_point - two_point, variance=variance, n=ds.n
                )
            )

    results = []
    for est in estimands:
        adjusted = median_adjust(per_request[est])
        results.append(
            _wald_test(
                f"indirect-{est.kind.upper()}",
                adjusted.point,
                float(np.sqrt(adjusted.variance / ds.n)),
                config.alpha,
                None,
                n=ds.n,
                fixed_level=est.level,
                details={"pr_agree": float(pr_agree)},
            )
        )
    return results
