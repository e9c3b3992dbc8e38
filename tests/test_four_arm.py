import warnings

import numpy as np
import pytest

import sepfx.four_arm
from sepfx import learners
from sepfx.data import FourArmDataset
from sepfx.errors import MissingCell, SeparationWarning, SingleClassWarning
from sepfx.estimation import Estimand, EstimatorConfig, estimand_cells
from sepfx.falsification import estimate_agreement_effects, indirect_test_battery
from sepfx.four_arm import (
    CELLS,
    PLUG_INS,
    NuisanceFitFour,
    eif,
    estimate_effects_four,
    fit_nuisance_four,
    split_scores_four,
)
from sepfx.learners import ConstantPredictor, GlmPredictor, LearnerSpec
from sepfx.simulation import SimConfig, arm_probability, generate_dataset, true_effects

from conftest import make_four_arm, record_designs, saturated_four


def one_row(y, a_y, a_m):
    return FourArmDataset(
        y=np.array([y]), a_y=np.array([float(a_y)]), a_m=np.array([float(a_m)]),
        m=np.array([[0.0]]), x=np.array([[0.0]]),
        outcome_name="y", a_y_name="aY", a_m_name="aM",
        mediator_names=("m1",), covariate_names=("x1",),
    )


def subset(ds, keep):
    """The rows of ``ds`` where the mask ``keep`` is set."""
    return FourArmDataset(
        y=ds.y[keep], a_y=ds.a_y[keep], a_m=ds.a_m[keep], m=ds.m[keep], x=ds.x[keep],
        outcome_name="y", a_y_name="aY", a_m_name="aM",
        mediator_names=ds.mediator_names, covariate_names=ds.covariate_names,
    )


def flat_nuisance(nu):
    """A constant outcome, and fair coins for both treatments, so that
    every cell has probability 1/4, for score arithmetic checks."""
    coin = ConstantPredictor(0.5)
    return NuisanceFitFour(
        treat_y=coin, treat_m=coin, outcome_fit=ConstantPredictor(nu), clip=0.01
    )


def full_sample_eif(ds, cell, nuis):
    """The :func:`eif` four-arm scores of ``cell`` on every row of ``ds``."""
    return eif(ds, nuis, (cell,), np.arange(ds.n), ("four",))["four", cell]


def test_score_inside_cell():
    value = full_sample_eif(one_row(2.0, 1, 1), (1, 1), flat_nuisance(nu=1.5))
    np.testing.assert_array_equal(value, [3.5])


def test_score_outside_cell_is_model_prediction():
    value = full_sample_eif(one_row(2.0, 0, 1), (1, 1), flat_nuisance(nu=1.5))
    np.testing.assert_array_equal(value, [1.5])


def test_score_vanishing_residual():
    value = full_sample_eif(one_row(1.5, 1, 1), (1, 1), flat_nuisance(nu=1.5))
    np.testing.assert_array_equal(value, [1.5])


@pytest.fixture(scope="module")
def saturated_setup():
    ds = generate_dataset(SimConfig(n=900, a_y_model=1, reps=1, master_seed=33), 0)
    return ds, saturated_four(ds)


@pytest.fixture
def saturated_ds(saturated_setup, monkeypatch):
    """The saturated draw, with every four-arm fit returning its saturated
    bundle whatever the training rows."""
    ds, sat = saturated_setup
    monkeypatch.setattr(sepfx.four_arm, "fit_nuisance_four", lambda *args: sat)
    return ds


def test_saturated_nuisance_collapses_the_three_estimators(saturated_ds):
    ds = saturated_ds
    config = EstimatorConfig(k_folds=2, splits=3, diagnostics=True)
    requests = [("sde", 1), ("sie", 1), ("mean", (1, 1))]
    for est in estimate_effects_four(ds, requests, config):
        assert abs(est.point - est.diagnostics["ipw"]) < 1e-10
        assert abs(est.point - est.diagnostics["outcome_regression"]) < 1e-10


def test_saturated_nuisance_is_fold_invariant(saturated_ds):
    ds = saturated_ds
    points = [
        estimate_effects_four(ds, [("sde", 1)], EstimatorConfig(k_folds=k, splits=3))[0].point
        for k in (2, 3, 5)
    ]
    assert max(points) - min(points) < 1e-12


def test_recovers_truth_within_three_sigma(sim_four_arm_big):
    ds = sim_four_arm_big
    truth = true_effects(SimConfig(n=100, a_y_model=2, reps=1))
    config = EstimatorConfig(k_folds=2, splits=3, seed=2)
    requests = [("sde", 1), ("sie", 1), ("mean", (1, 1))]
    expected = {"sde": truth.sde_four, "sie": truth.sie_four, "mean": 2.2}
    for est in estimate_effects_four(ds, requests, config):
        assert abs(est.point - expected[est.estimand]) < 3.0 * est.se


def test_propensity_estimates_are_accurate(sim_four_arm_big):
    ds = sim_four_arm_big
    config = EstimatorConfig(seed=2)
    nuis = fit_nuisance_four(ds, np.arange(ds.n), config)
    # model 2 assigns the outcome arm by a fair coin
    true_pi = 0.5 * arm_probability(ds.x)
    fitted = nuis.propensities(ds.x)[0][:, CELLS.index((1, 1))]
    assert np.mean(np.abs(fitted - true_pi)) < 0.05
    # cell probabilities form a simplex before clipping
    probs = nuis.cell_probabilities(ds.x)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert probs.min() >= 0.0


def test_estimate_metadata(sim_four_arm):
    config = EstimatorConfig(k_folds=2, splits=3, seed=1)
    est = estimate_effects_four(sim_four_arm, [("sde", 1)], config)[0]
    assert est.estimand == "sde"
    assert est.fixed_level == 1
    assert est.design == "four-arm"
    assert est.population == "four-arm"
    assert est.n == sim_four_arm.n
    assert est.learner == "glm"
    assert est.ci[0] < est.point < est.ci[1]
    payload = est.to_json_dict()
    assert payload["point"] == est.point
    assert payload["ci"] == [est.ci[0], est.ci[1]]
    assert "eif" not in payload
    assert "diagnostics" not in payload


def test_confidence_interval_uses_fixed_normal_quantile(sim_four_arm):
    est = estimate_effects_four(sim_four_arm, [("sie", 1)], EstimatorConfig(seed=3))[0]
    assert est.ci == (est.point - 1.96 * est.se, est.point + 1.96 * est.se)


def test_eif_mean_matches_point(sim_four_arm):
    config = EstimatorConfig(k_folds=2, splits=3, seed=4, keep_eif=True)
    est = estimate_effects_four(sim_four_arm, [("sde", 1)], config)[0]
    assert est.eif is not None and est.eif.shape == (sim_four_arm.n,)
    assert abs(est.eif.mean() - est.point) < 1e-10
    # and the variance implied by the retained scores is in the ballpark
    assert est.se == pytest.approx(np.sqrt(np.var(est.eif) / est.n), rel=0.5)


def test_keep_eif_off(sim_four_arm):
    config = EstimatorConfig(seed=4, keep_eif=False)
    assert estimate_effects_four(sim_four_arm, [("sde", 1)], config)[0].eif is None


def test_deterministic_given_seed(sim_four_arm):
    a = estimate_effects_four(sim_four_arm, [("sde", 1)], EstimatorConfig(seed=5))[0]
    b = estimate_effects_four(sim_four_arm, [("sde", 1)], EstimatorConfig(seed=5))[0]
    assert a.point == b.point and a.se == b.se
    c = estimate_effects_four(sim_four_arm, [("sde", 1)], EstimatorConfig(seed=6))[0]
    assert c.point != a.point


def test_scale_equivariance(sim_four_arm):
    ds = sim_four_arm

    def scaled(c):
        return FourArmDataset(
            y=ds.y * c, a_y=ds.a_y, a_m=ds.a_m, m=ds.m, x=ds.x,
            outcome_name=ds.outcome_name, a_y_name=ds.a_y_name, a_m_name=ds.a_m_name,
            mediator_names=ds.mediator_names, covariate_names=ds.covariate_names,
        )

    config = EstimatorConfig(k_folds=2, splits=3, seed=8)
    base = estimate_effects_four(ds, [("sde", 1), ("sie", 1)], config)
    doubled = estimate_effects_four(scaled(2.0), [("sde", 1), ("sie", 1)], config)
    for b, d in zip(base, doubled):
        assert d.point == 2.0 * b.point
        assert d.se == 2.0 * b.se
    tripled = estimate_effects_four(scaled(3.0), [("sde", 1)], config)[0]
    assert abs(tripled.point - 3.0 * base[0].point) < 1e-10


def test_label_swap_negates_the_direct_effect(sim_four_arm):
    ds = sim_four_arm
    swapped = FourArmDataset(
        y=ds.y, a_y=1.0 - ds.a_y, a_m=1.0 - ds.a_m, m=ds.m, x=ds.x,
        outcome_name=ds.outcome_name, a_y_name=ds.a_y_name, a_m_name=ds.a_m_name,
        mediator_names=ds.mediator_names, covariate_names=ds.covariate_names,
    )
    config = EstimatorConfig(
        outcome=LearnerSpec(kind="glm", basis="interactions", ridge=0.0),
        propensity=LearnerSpec(kind="glm", basis="main", ridge=0.0),
        k_folds=2, splits=3, seed=8,
    )
    original = estimate_effects_four(ds, [("sde", 1)], config)[0]
    mirrored = estimate_effects_four(swapped, [("sde", 0)], config)[0]
    assert abs(original.point + mirrored.point) < 1e-10


def test_a_cell_missing_from_every_partition_is_named():
    """With no (1, 1) row, every fold redraw fails, and the error names the
    fold and the cell of the last attempt."""
    ds = make_four_arm(n=60, seed=1)
    sub = subset(ds, ~((ds.a_y == 1) & (ds.a_m == 1)))
    with pytest.raises(
        MissingCell,
        match=r"no usable fold assignment after 10 attempts; "
        r"last: fold 0: no training rows in arm cell \(1, 1\)$",
    ):
        estimate_effects_four(
            sub, [("sde", 1)], EstimatorConfig(k_folds=2, splits=2, seed=0)
        )
    # a mean request that avoids the empty cell still works
    est = estimate_effects_four(
        sub, [("mean", (0, 0))], EstimatorConfig(k_folds=2, splits=2, seed=0)
    )[0]
    assert np.isfinite(est.point)


def test_diagnostics_only_when_requested(sim_four_arm):
    with_diag = estimate_effects_four(
        sim_four_arm, [("sde", 1)], EstimatorConfig(seed=1, diagnostics=True)
    )[0]
    assert set(with_diag.diagnostics) == {"ipw", "outcome_regression"}
    payload = with_diag.to_json_dict()
    assert payload["diagnostics"] == with_diag.diagnostics


@pytest.mark.parametrize("splits", [3, 4])
def test_diagnostics_are_medians_of_split_plug_ins(sim_four_arm, splits):
    """Each diagnostic is the median over splits of that split's plug-in
    contrast mean, bit for bit, at odd and at even ``splits``."""
    config = EstimatorConfig(seed=1, splits=splits, diagnostics=True)
    requests = [("sde", 1), ("sie", 0), ("mean", (1, 1))]
    estimands = [Estimand(*req) for req in requests]
    cells = estimand_cells(estimands)
    per_split = [
        split_scores_four(sim_four_arm, split, config, cells, PLUG_INS)
        for split in range(splits)
    ]
    results = estimate_effects_four(sim_four_arm, requests, config)
    for est, result in zip(estimands, results):
        for name in ("ipw", "outcome_regression"):
            means = [np.mean(est.contrast(scores[name])) for scores in per_split]
            assert result.diagnostics[name] == float(np.median(means))


def indirect_tests(ds, requests, config):
    return indirect_test_battery(ds, config, requests)


@pytest.mark.parametrize(
    "estimate, diagnostics, expected",
    [
        (estimate_effects_four, False, {"four"}),
        (estimate_effects_four, True, {"four", *PLUG_INS}),
        (estimate_agreement_effects, False, {"agreement"}),
        (indirect_tests, False, {"agreement"}),
    ],
)
def test_a_battery_scores_only_what_its_families_read(
    monkeypatch, sim_four_arm, estimate, diagnostics, expected
):
    """Every fold's :func:`eif` call returns only the score names the
    battery's families read: the plug-ins only with diagnostics, and no
    four-arm score for the agreement estimator or the indirect tests.
    Without ``keep_eif`` no combined result keeps contributions."""
    names, results = [], []
    real_eif, real_battery = sepfx.four_arm.eif, sepfx.four_arm.run_battery

    def recording_eif(*args):
        scores = real_eif(*args)
        names.append({name for name, _ in scores})
        return scores

    def recording_battery(*args):
        combined = real_battery(*args)
        results.extend(combined.values())
        return combined

    monkeypatch.setattr(sepfx.four_arm, "eif", recording_eif)
    monkeypatch.setattr(sepfx.four_arm, "run_battery", recording_battery)
    config = EstimatorConfig(splits=1, keep_eif=False, diagnostics=diagnostics)
    estimate(sim_four_arm, [("sde", 1), ("sie", 0)], config)
    assert names and all(scored == expected for scored in names)
    assert results and all(result.eif is None for result in results)


def test_shared_nuisances_across_requests(sim_four_arm):
    """One batched call matches separate single-request calls."""
    config = EstimatorConfig(k_folds=2, splits=3, seed=9)
    batch = estimate_effects_four(sim_four_arm, [("sde", 1), ("sie", 0)], config)
    solo_sde = estimate_effects_four(sim_four_arm, [("sde", 1)], config)[0]
    solo_sie = estimate_effects_four(sim_four_arm, [("sie", 0)], config)[0]
    assert batch[0].point == solo_sde.point
    assert batch[1].point == solo_sie.point


def test_each_model_predicts_once_per_test_block(monkeypatch):
    """One fold scores three cells from two treatment models and one
    outcome model: P(A_Y = 1 | X) predicts once and P(A_M = 1 | A_Y, X)
    once per A_Y level, which serves every cell, plus one outcome predict
    per cell.  Each model fits from one design and predicts from none: a
    GLM folds the held levels into its coefficients."""
    ds = generate_dataset(SimConfig(n=300, reps=1), 0)
    calls = []
    real_predict = GlmPredictor.predict

    def counting_predict(self, features, *levels):
        calls.append("logit" if self.clip is not None else "identity")
        return real_predict(self, features, *levels)

    monkeypatch.setattr(GlmPredictor, "predict", counting_predict)
    designs = record_designs(monkeypatch, sepfx.four_arm, "fit_nuisance_four")
    k = 2
    estimate_effects_four(
        ds, [("sde", 1), ("sie", 1)], EstimatorConfig(splits=1, k_folds=k)
    )
    assert len(calls) == k * (3 + 3)
    assert calls.count("logit") == k * 3
    assert designs.count("score") == 0
    assert designs.count("fit") == k * 3


@pytest.mark.parametrize("estimate", [estimate_effects_four, estimate_agreement_effects])
def test_a_bundle_fits_exactly_two_classification_models(monkeypatch, estimate):
    """Each four-arm bundle, the agreement population's too, fits
    P(A_Y = 1 | X) and P(A_M = 1 | A_Y, X) and no other classifier: no
    model per cell, and none for agreement."""
    ds = generate_dataset(SimConfig(n=300, reps=1), 0)
    label_sets, bundles = [], []
    real_checked, real_fit = learners._fit_checked, sepfx.four_arm.fit_nuisance_four

    def counting_checked(X, ys, spec, interact_cols, clip):
        if clip is not None:
            label_sets.extend(ys)
        return real_checked(X, ys, spec, interact_cols, clip)

    def counting_fit(*args):
        bundles.append(args[1])
        return real_fit(*args)

    monkeypatch.setattr(learners, "_fit_checked", counting_checked)
    monkeypatch.setattr(sepfx.four_arm, "fit_nuisance_four", counting_fit)
    estimate(ds, [("sde", 1)], EstimatorConfig(splits=1))
    assert len(bundles) == 2
    assert len(label_sets) == 2 * len(bundles)


DEGENERATE_FOLDS = {
    # rows kept, the cells they fill, and whether every row agrees
    "every row agrees": (lambda ds: ds.a_y == ds.a_m, ((0, 0), (1, 1)), True),
    "no row agrees": (lambda ds: ds.a_y != ds.a_m, ((0, 1), (1, 0)), False),
    "one A_Y level": (lambda ds: ds.a_y == 1, ((1, 0), (1, 1)), False),
    "one empty cell": (lambda ds: ds.a_y * ds.a_m == 0, ((0, 0), (0, 1), (1, 0)), False),
}


@pytest.mark.parametrize("case", list(DEGENERATE_FOLDS))
def test_degenerate_training_folds_stay_exact_and_quiet(case):
    """A model whose labels the training rows fix is not fit, so no fit
    separates the labels or sees a single class; an unrequired empty cell
    has probability exactly 0, a cell whose sibling at its A_Y level is
    empty has the probability of that level, and when every row agrees
    the agreement probability is exactly 1."""
    keep, filled, agreeing = DEGENERATE_FOLDS[case]
    ds = generate_dataset(SimConfig(n=400, reps=1), 0)
    sub = subset(ds, keep(ds))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        nuis = fit_nuisance_four(sub, np.arange(sub.n), EstimatorConfig(), filled)
        probs = nuis.cell_probabilities(sub.x)
        _, agree = nuis.propensities(sub.x)
    assert not [w for w in caught if issubclass(w.category, (SeparationWarning, SingleClassWarning))]
    for j, cell in enumerate(CELLS):
        if cell not in filled:
            assert np.all(probs[:, j] == 0.0), cell
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    p_y = np.ones(sub.n) if nuis.treat_y is None else nuis.treat_y.predict(sub.x)
    for j, (a_y, a_m) in enumerate(CELLS):
        if (a_y, a_m) in filled and (a_y, 1 - a_m) not in filled:
            np.testing.assert_allclose(probs[:, j], p_y if a_y else 1.0 - p_y, rtol=1e-12)
    if agreeing:
        assert np.all(agree == 1.0)


def test_treat_m_is_fit_only_where_a_m_varies():
    """With (1, 1) empty, A_M is fixed at A_Y = 1, so P(A_M | A_Y, X) is
    fit on the A_Y = 0 rows alone: its A_Y coefficient does not run off
    towards separation, and the A_Y = 0 cells are those of a classifier
    fit on those rows."""
    ds = generate_dataset(SimConfig(n=2000, reps=1), 0)
    sub = subset(ds, ds.a_y * ds.a_m == 0)
    config = EstimatorConfig()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        nuis = fit_nuisance_four(sub, np.arange(sub.n), config, ((0, 0), (0, 1), (1, 0)))
    assert not [w for w in caught if issubclass(w.category, SeparationWarning)]
    assert abs(nuis.treat_m.beta[1]) < 1.0  # the A_Y coefficient
    level0 = sub.a_y == 0
    lone = learners.fit_classifier(
        sub.x[level0], sub.a_m[level0].astype(np.float64), config.propensity, clip=config.clip
    )
    p_y, p_m = nuis.treat_y.predict(sub.x), lone.predict(sub.x)
    probs = nuis.cell_probabilities(sub.x)
    np.testing.assert_allclose(probs[:, CELLS.index((0, 0))], (1 - p_y) * (1 - p_m), atol=1e-10)
    np.testing.assert_allclose(probs[:, CELLS.index((0, 1))], (1 - p_y) * p_m, atol=1e-10)
