import numpy as np
import pytest

from sepfx.data import FourArmDataset
from sepfx.errors import DegenerateFold
from sepfx.estimation import EstimatorConfig
from sepfx.four_arm import eif, estimate_effects_four, fit_nuisance_four
from sepfx.learners import GlmPredictor, LearnerSpec
from sepfx.simulation import SimConfig, arm_probability, generate_dataset, true_effects

from conftest import make_four_arm


def one_row(y, a_y, a_m):
    return FourArmDataset(
        y=np.array([y]), a_y=np.array([float(a_y)]), a_m=np.array([float(a_m)]),
        m=np.array([[0.0]]), x=np.array([[0.0]]),
        outcome_name="y", a_y_name="aY", a_m_name="aM",
        mediator_names=("m1",), covariate_names=("x1",),
    )


class FlatNuisance:
    """Constant outcome and propensity, for score arithmetic checks."""

    def __init__(self, nu, pi):
        self._nu = nu
        self._pi = pi

    def outcome(self, a_y, a_m, x):
        return np.full(len(x), self._nu)

    def propensity(self, a_y, a_m, x):
        return np.full(len(x), self._pi)


class SaturatedNuisance:
    """Exact empirical frequencies and means per covariate pattern.

    Only valid for discrete covariates.  Fitting on the full sample makes
    the augmentation terms cancel exactly, so the weighted estimator, the
    plug-in, and the doubly robust score all agree.
    """

    def __init__(self, ds):
        groups = {}
        for i, row in enumerate(ds.x):
            groups.setdefault(tuple(row.tolist()), []).append(i)
        self._nu = {}
        self._pi = {}
        for pattern, rows in groups.items():
            rows = np.asarray(rows)
            for cell in ((0, 0), (0, 1), (1, 0), (1, 1)):
                inside = rows[(ds.a_y[rows] == cell[0]) & (ds.a_m[rows] == cell[1])]
                self._pi[pattern, cell] = inside.size / rows.size
                self._nu[pattern, cell] = float(ds.y[inside].mean()) if inside.size else 0.0

    def _lookup(self, table, cell, x):
        return np.array([table[tuple(row.tolist()), cell] for row in x])

    def outcome(self, a_y, a_m, x):
        return self._lookup(self._nu, (a_y, a_m), x)

    def propensity(self, a_y, a_m, x):
        return self._lookup(self._pi, (a_y, a_m), x)


def test_score_inside_cell():
    value = eif(one_row(2.0, 1, 1), 1, 1, FlatNuisance(nu=1.5, pi=0.25))
    np.testing.assert_array_equal(value, [3.5])


def test_score_outside_cell_is_model_prediction():
    value = eif(one_row(2.0, 0, 1), 1, 1, FlatNuisance(nu=1.5, pi=0.25))
    np.testing.assert_array_equal(value, [1.5])


def test_score_vanishing_residual():
    value = eif(one_row(1.5, 1, 1), 1, 1, FlatNuisance(nu=1.5, pi=0.25))
    np.testing.assert_array_equal(value, [1.5])


@pytest.fixture(scope="module")
def saturated_setup():
    ds = generate_dataset(SimConfig(n=900, a_y_model=1, reps=1, master_seed=33), 0)
    sat = SaturatedNuisance(ds)
    return ds, (lambda data, train: sat)


def test_saturated_nuisance_collapses_the_three_estimators(saturated_setup):
    ds, fitter = saturated_setup
    config = EstimatorConfig(k_folds=2, splits=3, diagnostics=True)
    requests = [("sde", 1), ("sie", 1), ("mean", (1, 1))]
    for est in estimate_effects_four(ds, requests, config, fitter=fitter):
        assert abs(est.point - est.diagnostics["ipw"]) < 1e-10
        assert abs(est.point - est.diagnostics["outcome_regression"]) < 1e-10


def test_saturated_nuisance_is_fold_invariant(saturated_setup):
    ds, fitter = saturated_setup
    points = [
        estimate_effects_four(
            ds, [("sde", 1)], EstimatorConfig(k_folds=k, splits=3), fitter=fitter
        )[0].point
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
    fitted = nuis.propensity(1, 1, ds.x)
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
        calls.append(self.link)
        return real_predict(self, features)

    monkeypatch.setattr(GlmPredictor, "predict", counting_predict)
    k = 2
    estimate_effects_four(
        ds, [("sde", 1), ("sie", 1)], EstimatorConfig(splits=1, k_folds=k)
    )
    assert len(calls) == k * (4 + 3)
    assert calls.count("logit") == k * 4
