import numpy as np
import pytest

import sepfx.four_arm
from sepfx.data import FourArmDataset
from sepfx.errors import DegenerateFold
from sepfx.estimation import Estimand, EstimatorConfig, estimand_cells
from sepfx.four_arm import (
    CELLS,
    NuisanceFitFour,
    eif,
    estimate_effects_four,
    fit_nuisance_four,
    split_scores_four,
)
from sepfx.learners import ConstantPredictor, GlmPredictor, LearnerSpec
from sepfx.simulation import SimConfig, arm_probability, generate_dataset, true_effects

from conftest import make_four_arm, saturated_four


def one_row(y, a_y, a_m):
    return FourArmDataset(
        y=np.array([y]), a_y=np.array([float(a_y)]), a_m=np.array([float(a_m)]),
        m=np.array([[0.0]]), x=np.array([[0.0]]),
        outcome_name="y", a_y_name="aY", a_m_name="aM",
        mediator_names=("m1",), covariate_names=("x1",),
    )


def flat_nuisance(nu, pi):
    """Constant outcome and cell probabilities, for score arithmetic checks."""
    return NuisanceFitFour(
        cell_classifiers={cell: ConstantPredictor(pi) for cell in CELLS},
        outcome_fit=ConstantPredictor(nu),
        clip=0.01,
    )


def full_sample_eif(ds, cell, nuis):
    """The :func:`eif` scores of ``cell`` on every row of ``ds``."""
    pi = nuis.propensities(ds.x)[:, CELLS.index(cell)]
    return eif(ds, *cell, nuis, np.arange(ds.n), pi)["four"]


def test_score_inside_cell():
    value = full_sample_eif(one_row(2.0, 1, 1), (1, 1), flat_nuisance(nu=1.5, pi=0.25))
    np.testing.assert_array_equal(value, [3.5])


def test_score_outside_cell_is_model_prediction():
    value = full_sample_eif(one_row(2.0, 0, 1), (1, 1), flat_nuisance(nu=1.5, pi=0.25))
    np.testing.assert_array_equal(value, [1.5])


def test_score_vanishing_residual():
    value = full_sample_eif(one_row(1.5, 1, 1), (1, 1), flat_nuisance(nu=1.5, pi=0.25))
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
    fitted = nuis.propensities(ds.x)[:, CELLS.index((1, 1))]
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


def test_missing_cell_raises_degenerate_fold():
    ds = make_four_arm(n=60, seed=1)
    keep = np.nonzero(~((ds.a_y == 1) & (ds.a_m == 1)))[0]
    sub = FourArmDataset(
        y=ds.y[keep], a_y=ds.a_y[keep], a_m=ds.a_m[keep],
        m=ds.m[keep], x=ds.x[keep],
        outcome_name="y", a_y_name="aY", a_m_name="aM",
        mediator_names=ds.mediator_names, covariate_names=ds.covariate_names,
    )
    with pytest.raises(DegenerateFold):
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
        split_scores_four(sim_four_arm, split, config, cells, diagnostics=True)
        for split in range(splits)
    ]
    results = estimate_effects_four(sim_four_arm, requests, config)
    for est, result in zip(estimands, results):
        for name in ("ipw", "outcome_regression"):
            means = [np.mean(est.contrast(scores[name])) for scores in per_split]
            assert result.diagnostics[name] == float(np.median(means))


def test_shared_nuisances_across_requests(sim_four_arm):
    """One batched call matches separate single-request calls."""
    config = EstimatorConfig(k_folds=2, splits=3, seed=9)
    batch = estimate_effects_four(sim_four_arm, [("sde", 1), ("sie", 0)], config)
    solo_sde = estimate_effects_four(sim_four_arm, [("sde", 1)], config)[0]
    solo_sie = estimate_effects_four(sim_four_arm, [("sie", 0)], config)[0]
    assert batch[0].point == solo_sde.point
    assert batch[1].point == solo_sie.point


def test_each_model_predicts_once_per_test_block(monkeypatch):
    """One fold scores three cells from four cell classifiers and one
    outcome model: 4 classifier predicts serve every cell, plus one outcome
    predict per cell."""
    ds = generate_dataset(SimConfig(n=300, reps=1), 0)
    calls = []
    real_predict = GlmPredictor.predict

    def counting_predict(self, features):
        calls.append("logit" if self.clip is not None else "identity")
        return real_predict(self, features)

    monkeypatch.setattr(GlmPredictor, "predict", counting_predict)
    k = 2
    estimate_effects_four(
        ds, [("sde", 1), ("sie", 1)], EstimatorConfig(splits=1, k_folds=k)
    )
    assert len(calls) == k * (4 + 3)
    assert calls.count("logit") == k * 4
