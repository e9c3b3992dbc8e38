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
standard normal.  On each split the test's point is the agreement point
minus the two-arm point, and its deviations are the difference of the
two influence vectors: the ``"indirect"`` family of
:func:`~sepfx.four_arm.four_arm_battery`, which scores the agreement
contrast once for both agreement-population families.  The indirect test
is that family plus a Wald test of each combined difference.
Normal tails come from :mod:`sepfx.special`, bit for bit as scipy's; only
the classical direct tests' t tails import ``scipy.special``, when first used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import FourArmDataset
from .errors import DegenerateEstimate
from .estimation import (
    EffectEstimate,
    Estimand,
    EstimatorConfig,
    JsonFields,
    build_estimates,
    checked_se,
)
# bench/layers.py traces fit_nuisance_theta under this module's name
from .four_arm import fit_nuisance_theta, four_arm_battery  # noqa: F401
from .seeding import is_integer
from .special import ndtr, ndtri

DIRECT_BASES = ("main", "interactions")


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

    The first column of ``design`` must be the intercept.  The fit is one
    QR factorisation of the design with the other columns centered, applied
    to the centered target, so a large offset adds no rounding error to the
    slopes or the residuals; results are reported for the given design.

    Raises
    ------
    DegenerateEstimate
        If a diagonal entry of R is at most ``max(n, p)`` machine epsilons
        times the largest one: the design matrix is rank deficient.  Also
        if the fit is exact: the target is constant, or the residual norm
        is at most ``EXACT_FIT_RTOL`` (the square root of machine epsilon,
        about 1.5e-8) times the norm of the centered target, i.e. 1 - R^2
        is below machine epsilon.  The residuals are then rounding noise,
        so any standard error or p-value computed from them is too.  The
        rule is relative, so rescaling the target does not change it.
    """
    n, p = design.shape
    shift = design[:, 1:].mean(axis=0)
    q, r = np.linalg.qr(np.column_stack([design[:, 0], design[:, 1:] - shift]))
    scale = np.abs(np.diag(r))
    if scale.min() <= max(n, p) * np.finfo(np.float64).eps * scale.max():
        raise DegenerateEstimate("design matrix is rank deficient")
    y_centered = targets - targets.mean()
    qty = q.T @ y_centered
    resid = y_centered - q @ qty
    centered_norm = np.linalg.norm(y_centered)
    if np.ptp(targets) == 0.0 or np.linalg.norm(resid) <= EXACT_FIT_RTOL * centered_norm:
        raise DegenerateEstimate(
            "the regressors reproduce the target exactly, so the residuals "
            "are rounding noise and no standard error exists"
        )
    # back to the given design: only the intercept row of R^-1 changes
    bread = np.linalg.inv(r)
    bread[0] -= shift @ bread[1:]
    coef = bread @ qty
    coef[0] += targets.mean()
    dof = n - p
    cov_classical = bread @ bread.T * (resid @ resid / dof)
    meat = bread @ (q * resid[:, None]).T
    cov_robust = meat @ meat.T * (n / dof)
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
        p_value = 2.0 * ndtr(-abs(statistic))
        quantile = ndtri(1.0 - alpha / 2.0)
    else:
        from scipy.special import stdtr, stdtrit  # deferred: importing scipy costs ~0.25 s
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
    EstimatorConfig(alpha=alpha)  # raises ValueError unless 0 < alpha < 1
    if basis not in DIRECT_BASES:
        raise ValueError(f"basis must be one of {DIRECT_BASES}, got {basis!r}")
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
    HC1 errors with a normal reference.  Raises ``ValueError`` unless
    ``0 < alpha < 1`` (as :class:`EstimatorConfig` requires), ``basis`` is
    one of ``DIRECT_BASES`` and ``mediator_index`` is an integer in
    ``[0, ds.n_mediators)``.
    """
    if not is_integer(mediator_index) or mediator_index not in range(ds.n_mediators):
        raise ValueError(
            f"mediator_index must be an integer in [0, {ds.n_mediators}), "
            f"got {mediator_index!r}"
        )
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
    ``alpha`` and ``basis`` are checked as in :func:`direct_test_h0i`.
    """
    return _direct_test(
        "H0(ii)", ds, ds.y, robust, basis, alpha, include_mediators=True, coef_index=2
    )


def estimate_agreement_effects(
    ds: FourArmDataset,
    requests: list,
    config: EstimatorConfig | None = None,
) -> list[EffectEstimate]:
    """Estimate agreement-population estimands from four-arm data.

    These estimators target the same population as the two-arm design
    (rows whose treatments agree) but use all four arms, so they remain
    valid when the exclusion restrictions fail.  ``requests`` follows the
    four-arm convention.

    Raises
    ------
    EmptySubset
        If no row has matching treatments.
    """
    config = config or EstimatorConfig()
    estimands = [Estimand(*req) for req in requests]
    combined = four_arm_battery(ds, config, {"agreement": estimands})
    return build_estimates(
        combined["agreement"], estimands, n=ds.n, config=config, family="agreement"
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
    asymptotically standard normal.  The differences are the
    ``"indirect"`` family of :func:`~sepfx.four_arm.four_arm_battery`,
    which combines the splits by the median rule; each is Wald-tested
    here.  ``requests`` holds ``("sde", a_m)`` and ``("sie", a_y)``
    tuples; a ``mean`` request raises ``ValueError`` before any fit.
    """
    config = config or EstimatorConfig()
    estimands = [Estimand(*req) for req in requests]
    if any(est.kind not in ("sde", "sie") for est in estimands):
        raise ValueError("the indirect test compares sde and sie contrasts only")
    combined = four_arm_battery(ds, config, {"indirect": estimands})["indirect"]
    pr_agree = float(np.mean(ds.a_y == ds.a_m))
    return [
        _wald_test(
            f"indirect-{est.kind.upper()}",
            combined[est].point,
            float(np.sqrt(combined[est].variance / ds.n)),
            config.alpha,
            None,
            n=ds.n,
            fixed_level=est.level,
            details={"pr_agree": pr_agree},
        )
        for est in estimands
    ]
