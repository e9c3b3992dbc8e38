import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm, t as student_t

from sepfx import falsification, four_arm, two_arm
from sepfx.data import FourArmDataset, restrict_to_two_arm
from sepfx.errors import DegenerateEstimate, EmptySubset, MissingCell
from sepfx.estimation import EstimatorConfig, z_value
from sepfx.falsification import (
    DEFAULT_INDIRECT_REQUESTS,
    _wald_test,
    direct_test_h0i,
    direct_test_h0ii,
    estimate_agreement_effects,
    fit_ols,
    indirect_test_battery,
)
from sepfx.four_arm import estimate_effects_four
from sepfx.simulation import SimConfig, generate_dataset, true_effects
from sepfx.two_arm import estimate_effects_two

from conftest import make_four_arm


def test_fit_ols_matches_lstsq():
    rng = np.random.default_rng(0)
    design = np.column_stack([np.ones(100), rng.normal(size=(100, 3))])
    y = design @ np.array([1.0, 0.5, -0.3, 0.2]) + rng.normal(scale=0.1, size=100)
    fit = fit_ols(design, y)
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    np.testing.assert_allclose(fit.coef, beta, atol=1e-10)
    assert fit.dof == 96 and fit.n == 100


def test_fit_ols_rejects_singular_design():
    x = np.ones((20, 2))  # duplicated intercept
    with pytest.raises(DegenerateEstimate, match="design matrix is rank deficient"):
        fit_ols(x, np.zeros(20))


def test_hc1_covariance_formula():
    rng = np.random.default_rng(1)
    design = np.column_stack([np.ones(50), rng.normal(size=50)])
    y = design[:, 1] + rng.normal(size=50) * (1 + np.abs(design[:, 1]))
    fit = fit_ols(design, y)
    resid = y - design @ fit.coef
    bread = np.linalg.inv(design.T @ design)
    meat = design.T @ (design * (resid**2)[:, None])
    expected = bread @ meat @ bread * (50 / 48)
    np.testing.assert_allclose(fit.cov_robust, expected, atol=1e-12)


def test_h0i_recovers_injected_mediator_shift():
    """Add an outcome-channel effect to one mediator and detect it."""
    ds = generate_dataset(SimConfig(n=4000, a_y_model=1, reps=1, master_seed=17), 0)
    shift = 0.3
    m = np.array(ds.m)
    m[:, 0] += shift * ds.a_y
    tampered = FourArmDataset(
        y=ds.y, a_y=ds.a_y, a_m=ds.a_m, m=m, x=ds.x,
        outcome_name="y", a_y_name="aY", a_m_name="aM",
        mediator_names=ds.mediator_names, covariate_names=ds.covariate_names,
    )
    hit = direct_test_h0i(tampered, mediator_index=0)
    assert abs(hit.estimate - shift) < 0.05
    assert hit.reject
    clean = direct_test_h0i(tampered, mediator_index=1)
    assert not clean.reject


def test_h0ii_recovers_violation_size():
    cfg = SimConfig(n=4000, a_y_model=1, reps=1, master_seed=202, violation=0.5)
    ds = generate_dataset(cfg, 0)
    res = direct_test_h0ii(ds)
    assert abs(res.estimate - 0.5) < 0.1
    assert res.reject
    assert res.test == "H0(ii)"
    assert res.details["reference"] == "t"


def test_direct_test_decision_consistency(sim_four_arm):
    """reject, p < alpha, and 0 outside the interval always agree."""
    for robust in (False, True):
        for alpha in (0.01, 0.05, 0.2, 0.5):
            res = direct_test_h0ii(sim_four_arm, robust=robust, alpha=alpha)
            outside = not (res.ci[0] <= 0.0 <= res.ci[1])
            assert res.reject == (res.p_value < alpha) == outside


def test_direct_test_robust_reference(sim_four_arm):
    res = direct_test_h0i(sim_four_arm, robust=True)
    assert res.details["reference"] == "normal"
    assert res.p_value == pytest.approx(2 * norm.sf(abs(res.statistic)))


def test_direct_test_interactions_basis(sim_four_arm):
    res = direct_test_h0ii(sim_four_arm, basis="interactions")
    assert np.isfinite(res.statistic)


def test_theta_equals_four_arm_mean_when_all_rows_agree():
    full = generate_dataset(SimConfig(n=1600, a_y_model=1, reps=1, master_seed=5), 0)
    keep = np.nonzero(full.a_y == full.a_m)[0]
    ds = FourArmDataset(
        y=full.y[keep], a_y=full.a_y[keep], a_m=full.a_m[keep],
        m=full.m[keep], x=full.x[keep],
        outcome_name="y", a_y_name="aY", a_m_name="aM",
        mediator_names=full.mediator_names, covariate_names=full.covariate_names,
    )
    config = EstimatorConfig(k_folds=2, splits=3, seed=4)
    for cell in ((0, 0), (1, 1)):
        four = estimate_effects_four(ds, [("mean", cell)], config)[0]
        agr = estimate_agreement_effects(ds, [("mean", cell)], config)[0]
        assert abs(four.point - agr.point) < 1e-10
        assert abs(four.se - agr.se) < 1e-10


def test_agreement_estimator_recovers_truth(sim_four_arm_big):
    truth = true_effects(SimConfig(n=100, a_y_model=2, reps=1))
    config = EstimatorConfig(k_folds=2, splits=3, seed=2)
    sde = estimate_agreement_effects(sim_four_arm_big, [("sde", 1)], config)[0]
    sie = estimate_agreement_effects(sim_four_arm_big, [("sie", 1)], config)[0]
    assert abs(sde.point - truth.sde_two) < 3.0 * sde.se
    assert abs(sie.point - truth.sie_two) < 3.0 * sie.se
    assert sde.design == "four-arm"
    assert sde.population == "two-arm"


def test_agreement_requires_agreeing_rows():
    ds = make_four_arm(n=24, seed=2)
    flipped = FourArmDataset(
        y=ds.y, a_y=ds.a_y, a_m=1.0 - ds.a_y, m=ds.m, x=ds.x,
        outcome_name="y", a_y_name="aY", a_m_name="aM",
        mediator_names=ds.mediator_names, covariate_names=ds.covariate_names,
    )
    with pytest.raises(EmptySubset):
        estimate_agreement_effects(flipped, [("sde", 1)], EstimatorConfig())[0]
    with pytest.raises(EmptySubset):
        indirect_test_battery(flipped, EstimatorConfig())


def test_indirect_battery_under_the_null(sim_four_arm):
    config = EstimatorConfig(k_folds=2, splits=3, seed=11)
    results = indirect_test_battery(sim_four_arm, config)
    assert [r.test for r in results] == [
        "indirect-SDE", "indirect-SDE", "indirect-SIE", "indirect-SIE",
    ]
    assert [r.fixed_level for r in results] == [0, 1, 0, 1]
    for res in results:
        assert not res.reject
        assert res.p_value == pytest.approx(2 * norm.sf(abs(res.statistic)))
        assert 0.0 < res.details["pr_agree"] < 1.0
        assert res.n == sim_four_arm.n


def test_indirect_battery_detects_violation():
    cfg = SimConfig(n=4000, a_y_model=1, reps=1, master_seed=202, violation=0.5)
    ds = generate_dataset(cfg, 0)
    config = EstimatorConfig(k_folds=2, splits=3, seed=0)
    results = {(r.test, r.fixed_level): r for r in indirect_test_battery(ds, config)}
    # a direct outcome path through the mediator channel drags the
    # two-arm direct effect up and its indirect effect down, with
    # opposite signs on the two contrast families
    for level in (0, 1):
        sde = results[("indirect-SDE", level)]
        sie = results[("indirect-SIE", level)]
        assert sde.reject and sde.estimate < -0.3
        assert sie.reject and sie.estimate > 0.3


def test_indirect_single_matches_battery(sim_four_arm):
    config = EstimatorConfig(k_folds=2, splits=3, seed=11)
    battery = indirect_test_battery(sim_four_arm, config)
    single = indirect_test_battery(sim_four_arm, config, requests=[("sde", 0)])[0]
    assert single.estimate == battery[0].estimate
    assert single.se == battery[0].se


def test_indirect_decomposes_into_shared_fold_estimates(sim_four_arm):
    """With one split the statistic is exactly the difference of the two
    estimators, because both sides reuse the same fold assignments."""
    config = EstimatorConfig(k_folds=2, splits=1, seed=13)
    requests = [("sde", 0), ("sde", 1), ("sie", 0), ("sie", 1)]
    battery = indirect_test_battery(sim_four_arm, config, requests=requests)
    agr = estimate_agreement_effects(sim_four_arm, requests, config)
    two = estimate_effects_two(restrict_to_two_arm(sim_four_arm), requests, config)
    for res, a, t in zip(battery, agr, two):
        assert res.estimate == pytest.approx(a.point - t.point, abs=1e-12)


def test_indirect_requires_both_arms_among_agreeing_rows():
    ds = make_four_arm(n=30, seed=3)
    a_m = np.array(ds.a_m)
    a_m[ds.a_y == 0] = 1.0  # only aY=1 rows can agree
    stuck = FourArmDataset(
        y=ds.y, a_y=ds.a_y, a_m=a_m, m=ds.m, x=ds.x,
        outcome_name="y", a_y_name="aY", a_m_name="aM",
        mediator_names=ds.mediator_names, covariate_names=ds.covariate_names,
    )
    with pytest.raises(MissingCell):
        indirect_test_battery(stuck, EstimatorConfig())


@pytest.mark.parametrize(
    "a_m_of, requests, error, match",
    [
        (lambda ds: 1.0 - ds.a_y, DEFAULT_INDIRECT_REQUESTS, EmptySubset, "matching"),
        # only aY=1 rows can agree
        (lambda ds: np.where(ds.a_y == 0, 1.0, ds.a_m), DEFAULT_INDIRECT_REQUESTS,
         MissingCell, "single treatment level"),
        (lambda ds: ds.a_m, [("mean", (1, 1))], ValueError, "sde and sie"),
    ],
    ids=["no-agreeing-rows", "one-level-among-agreeing-rows", "mean-request"],
)
def test_indirect_refusals_come_before_any_fit(a_m_of, requests, error, match, monkeypatch):
    """Each refusal of the indirect test, and the agreement estimator's
    refusal of data without agreeing rows, comes before any nuisance fit."""

    def no_fit(*args, **kwargs):
        raise AssertionError("a nuisance model was fit before the refusal")

    monkeypatch.setattr(four_arm, "fit_nuisance_four", no_fit)
    monkeypatch.setattr(two_arm, "fit_nuisance_two", no_fit)
    base = make_four_arm(n=30, seed=3)
    ds = dataclasses.replace(base, a_m=a_m_of(base))
    with pytest.raises(error, match=match):
        indirect_test_battery(ds, EstimatorConfig(), requests=requests)
    if error is EmptySubset:
        with pytest.raises(EmptySubset):
            estimate_agreement_effects(ds, [("sde", 1)], EstimatorConfig())

# --- tail functions pinned to scipy.stats --------------------------------------

@settings(max_examples=200, deadline=None)
@given(
    estimate=st.floats(-50.0, 50.0),
    se=st.floats(1e-6, 10.0),
    dof=st.sampled_from([1, 2, 3, 7, 30, 250, 10**6]),
    alpha=st.sampled_from([0.001, 0.01, 0.05, 0.1, 0.2, 0.5, 0.9]),
)
def test_ols_tails_equal_scipy_stats(estimate, se, dof, alpha):
    for reference_dof, ref in ((None, norm), (dof, student_t(dof))):
        res = _wald_test("H0(i)", estimate, se, alpha, reference_dof, n=dof + 2)
        assert res.p_value == 2.0 * float(ref.sf(abs(res.statistic)))
        quantile = float(ref.ppf(1.0 - alpha / 2.0))
        assert res.ci == (res.estimate - quantile * res.se,
                          res.estimate + quantile * res.se)


@pytest.mark.parametrize("alpha", [1e-6, 0.001, 0.01, 0.049, 0.051, 0.1, 0.32, 0.5, 0.99])
def test_z_value_equals_scipy_stats(alpha):
    assert z_value(alpha) == float(norm.ppf(1.0 - alpha / 2.0))
    assert z_value(0.05) == 1.96


@pytest.mark.parametrize("alpha", [0.05, 0.1])
def test_indirect_tails_equal_scipy_stats(sim_four_arm, alpha):
    config = EstimatorConfig(k_folds=2, splits=1, seed=3, alpha=alpha)
    quantile = float(norm.ppf(1.0 - alpha / 2.0))
    for res in indirect_test_battery(sim_four_arm, config):
        assert res.p_value == 2.0 * float(norm.sf(abs(res.statistic)))
        assert res.ci == (res.estimate - quantile * res.se,
                          res.estimate + quantile * res.se)


# --- a zero standard error fails loudly ----------------------------------------

def _replace(ds, **arrays):
    fields = dict(y=ds.y, a_y=ds.a_y, a_m=ds.a_m, m=ds.m, x=ds.x)
    fields.update(arrays)
    return FourArmDataset(
        **fields, outcome_name="y", a_y_name="aY", a_m_name="aM",
        mediator_names=ds.mediator_names, covariate_names=ds.covariate_names,
    )


@pytest.mark.parametrize("robust", [False, True])
def test_direct_tests_reject_zero_standard_error(sim_four_arm, robust):
    """An all-zero target fits exactly: coefficient 0, residuals 0, se 0."""
    flat_m = _replace(sim_four_arm, m=np.zeros_like(sim_four_arm.m))
    with pytest.raises(DegenerateEstimate, match="H0\\(i\\)"):
        direct_test_h0i(flat_m, robust=robust)
    flat_y = _replace(sim_four_arm, y=np.zeros_like(sim_four_arm.y))
    with pytest.raises(DegenerateEstimate, match="H0\\(ii\\)"):
        direct_test_h0ii(flat_y, robust=robust)


def test_indirect_battery_rejects_zero_standard_error(sim_four_arm):
    """With an all-zero outcome every score is exactly 0, so the Wald
    statistic has no scale; it used to read as statistic 0 and p = 1."""
    flat_y = _replace(sim_four_arm, y=np.zeros_like(sim_four_arm.y))
    config = EstimatorConfig(k_folds=2, splits=1, seed=0)
    with pytest.raises(DegenerateEstimate, match="indirect-SDE"):
        indirect_test_battery(flat_y, config)


@pytest.mark.parametrize("robust", [False, True])
def test_direct_tests_name_themselves_on_a_rank_deficient_design(robust):
    """A repeated covariate makes both designs rank deficient; the error
    names the test, as an exact fit's does."""
    ds = generate_dataset(SimConfig(n=400, reps=1), 0)
    repeated = dataclasses.replace(
        ds, x=np.column_stack([ds.x, ds.x[:, 0]]),
        covariate_names=ds.covariate_names + ("x1_again",),
    )
    with pytest.raises(DegenerateEstimate, match=r"^H0\(i\): design matrix is rank deficient$"):
        direct_test_h0i(repeated, 0, robust=robust)
    with pytest.raises(DegenerateEstimate, match=r"^H0\(ii\): design matrix is rank deficient$"):
        direct_test_h0ii(repeated, robust=robust)


# --- an exact fit fails loudly ---------------------------------------------------

@pytest.mark.parametrize("robust", [False, True])
@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e6])
def test_h0i_refuses_a_mediator_the_regressors_reproduce_exactly(robust, scale):
    """A mediator that is an exact function of aM and x1 leaves residuals at
    rounding level; a test built on them used to report p ~ 1e-16 and reject."""
    ds = generate_dataset(SimConfig(n=400, reps=1), 0)
    m = np.array(ds.m)
    m[:, 0] = scale * (0.3 * ds.a_m + 0.5 * ds.x[:, 0])
    with pytest.raises(DegenerateEstimate, match="H0\\(i\\).*exact"):
        direct_test_h0i(_replace(ds, m=m), 0, robust=robust)
    # the other mediator still has noise and is tested as before
    assert direct_test_h0i(_replace(ds, m=m), 1, robust=robust).se > 0.0


@pytest.mark.parametrize("robust", [False, True])
@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e6])
def test_h0ii_refuses_an_outcome_the_regressors_reproduce_exactly(robust, scale):
    ds = generate_dataset(SimConfig(n=400, reps=1), 0)
    y = scale * (2.0 * ds.a_y + ds.m[:, 0] - ds.m[:, 1] + 0.2 * ds.x[:, 2])
    with pytest.raises(DegenerateEstimate, match="H0\\(ii\\).*exact"):
        direct_test_h0ii(_replace(ds, y=y), robust=robust)


@pytest.mark.parametrize("robust", [False, True])
@pytest.mark.parametrize("basis", ["main", "interactions"])
def test_direct_tests_see_an_exact_fit_behind_a_large_offset(robust, basis):
    """An offset of 1e8 on an exactly reproduced target used to leave
    residuals large enough to pass the exact-fit rule: H0(i) reported
    p = 2.8e-10 and rejected."""
    ds = generate_dataset(SimConfig(n=400, reps=1), 0)
    m = np.array(ds.m)
    m[:, 0] = 1e8 + 0.3 * ds.a_m + 0.5 * ds.x[:, 0]
    with pytest.raises(DegenerateEstimate, match="H0\\(i\\).*exact"):
        direct_test_h0i(_replace(ds, m=m), 0, robust=robust, basis=basis)
    y = 1e8 + 0.3 * ds.a_y + ds.m[:, 0] + ds.x[:, 0]
    with pytest.raises(DegenerateEstimate, match="H0\\(ii\\).*exact"):
        direct_test_h0ii(_replace(ds, y=y), robust=robust, basis=basis)


@pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.05, float("nan")])
def test_direct_tests_refuse_alpha_outside_zero_one(sim_four_arm, alpha):
    """alpha = 0 used to give the interval (-inf, inf), and alpha = 1.5 an
    inverted interval with reject=True."""
    with pytest.raises(ValueError, match="alpha must be strictly between 0 and 1"):
        direct_test_h0i(sim_four_arm, 0, alpha=alpha)
    with pytest.raises(ValueError, match="alpha must be strictly between 0 and 1"):
        direct_test_h0ii(sim_four_arm, robust=True, alpha=alpha)


@pytest.mark.parametrize(
    "test, basis",
    [
        (lambda ds, basis: direct_test_h0i(ds, 0, basis=basis), "bogus"),
        (lambda ds, basis: direct_test_h0ii(ds, basis=basis), "Interactions"),
        (lambda ds, basis: direct_test_h0ii(ds, robust=True, basis=basis), "intercept"),
    ],
    ids=["h0i-bogus", "h0ii-capitalised", "h0ii-intercept"],
)
def test_direct_tests_refuse_an_unknown_basis_before_any_fit(
    sim_four_arm, monkeypatch, test, basis
):
    """An unknown basis used to run the main-effects regression silently."""

    def no_fit(*args, **kwargs):
        raise AssertionError("a model was fit before the basis was checked")

    monkeypatch.setattr(falsification, "fit_ols", no_fit)
    with pytest.raises(ValueError, match="basis must be one of"):
        test(sim_four_arm, basis)


@pytest.mark.parametrize("value", [0.1, 0.7, 3.3, 1e6 + 0.1])
def test_direct_tests_refuse_a_constant_target(value):
    """A constant mediator or outcome is fit exactly by the intercept; its
    slopes and their standard errors are rounding noise that used to reject."""
    ds = generate_dataset(SimConfig(n=400, reps=1), 0)
    m = np.array(ds.m)
    m[:, 0] = value
    with pytest.raises(DegenerateEstimate, match="H0\\(i\\).*exact"):
        direct_test_h0i(_replace(ds, m=m), 0)
    with pytest.raises(DegenerateEstimate, match="H0\\(ii\\).*exact"):
        direct_test_h0ii(_replace(ds, y=np.full(ds.n, value)), robust=True)


def test_fit_ols_exact_fit_rule_ignores_the_target_scale():
    rng = np.random.default_rng(4)
    design = np.column_stack([np.ones(200), rng.normal(size=(200, 2))])
    exact = design @ np.array([1.0, 0.5, -0.3])
    for scale in (1e-12, 1.0, 1e12):
        with pytest.raises(DegenerateEstimate):
            fit_ols(design, scale * exact)
        noisy = scale * (exact + 1e-6 * rng.normal(size=200))
        assert fit_ols(design, noisy).dof == 197
