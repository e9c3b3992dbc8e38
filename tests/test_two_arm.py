import numpy as np
import pytest

import sepfx.two_arm

from sepfx.data import FourArmDataset, TwoArmDataset, restrict_to_two_arm
from sepfx.errors import MissingCell
from sepfx.estimation import EstimatorConfig
from sepfx.learners import ConstantPredictor, GlmPredictor, LearnerSpec
from sepfx.simulation import SimConfig, generate_dataset, true_effects
from sepfx.two_arm import NuisanceFitTwo, eif, estimate_effects_two, fit_nuisance_two

from conftest import collapsed_two_arm_score, make_two_arm, record_designs


def one_row(y, a):
    return TwoArmDataset(
        y=np.array([y]), a=np.array([float(a)]),
        m=np.array([[0.0]]), x=np.array([[0.0]]),
        outcome_name="y", a_name="a",
        mediator_names=("m1",), covariate_names=("x1",),
    )


def flat_nuisance(omega, rho1, mu, lam):
    """A one-strategy bundle with constant treatment probabilities
    P(A=1 | X) = ``omega`` and P(A=1 | M, X) = ``rho1``, and constant
    outcome models, for score arithmetic checks."""
    mu_fits = {level: ConstantPredictor(mu) for level in (0, 1)}
    lam_fits = {(a_y, a_m): ConstantPredictor(lam) for a_y in (0, 1) for a_m in (0, 1)}
    return NuisanceFitTwo(
        treat_given_mx=ConstantPredictor(rho1),
        treat_given_x=ConstantPredictor(omega),
        outcomes=((mu_fits, lam_fits),),
    )


def full_sample_eif(ds, pair, nuis):
    """The :func:`eif` scores of ``pair`` on every row of ``ds``."""
    return eif(ds, nuis, (pair,), np.arange(ds.n))[pair]


def test_score_outcome_arm_term():
    # row in the a_y arm: density-ratio-weighted residual plus lambda
    nuis = flat_nuisance(0.5, 0.6, mu=0.7, lam=0.2)
    value = full_sample_eif(one_row(1.0, 1), (1, 0), nuis)
    np.testing.assert_allclose(value, [(1 / 0.5) * (0.4 / 0.6) * 0.3 + 0.2])


def test_score_mediator_arm_term():
    nuis = flat_nuisance(0.5, 0.6, mu=0.7, lam=0.2)
    value = full_sample_eif(one_row(1.0, 0), (1, 0), nuis)
    np.testing.assert_allclose(value, [(1 / 0.5) * (0.7 - 0.2) + 0.2])


def test_score_collapsed():
    """At a_y = a_m the score is 1{A=a}/omega * (Y - lam) + lam."""
    nuis = flat_nuisance(0.5, 0.6, mu=0.7, lam=0.2)
    value = full_sample_eif(one_row(1.0, 1), (1, 1), nuis)
    np.testing.assert_allclose(value, [(1 / 0.5) * (1.0 - 0.2) + 0.2])


def test_collapsed_identity(sim_two_arm):
    """With matching levels the general score reduces to the collapsed one,
    1{A=a}/omega(a, X) * (Y - lam(a, a, X)) + lam(a, a, X).

    The density ratio cancels exactly because numerator and denominator
    are the same fitted values, so the gap is pure float noise.
    """
    for strategy in ("S", "T", "ensemble"):
        config = EstimatorConfig(seed=3, strategy=strategy)
        nuis = fit_nuisance_two(sim_two_arm, np.arange(sim_two_arm.n), config)
        for level in (0, 1):
            full = full_sample_eif(sim_two_arm, (level, level), nuis)
            collapsed = collapsed_two_arm_score(sim_two_arm, level, nuis)
            assert np.max(np.abs(full - collapsed)) < 1e-12


def test_cross_design_agreement_on_diagonal_means(sim_two_arm):
    """Viewing the two-arm data as a degenerate four-arm dataset and
    estimating the same mean gives the same answer.

    Requires an unpenalized fit: the per-arm least-squares projections
    coincide across the two bases only at ridge zero.
    """
    from sepfx.four_arm import estimate_effects_four

    ds2 = sim_two_arm
    ds4 = FourArmDataset(
        y=ds2.y, a_y=ds2.a, a_m=ds2.a, m=ds2.m, x=ds2.x,
        outcome_name=ds2.outcome_name, a_y_name="aY", a_m_name="aM",
        mediator_names=ds2.mediator_names, covariate_names=ds2.covariate_names,
    )
    config = EstimatorConfig(
        outcome=LearnerSpec(kind="glm", basis="interactions", ridge=0.0),
        propensity=LearnerSpec(kind="glm", basis="main", ridge=0.0),
        k_folds=2, splits=3, seed=1, strategy="T",
    )
    for level in (0, 1):
        four = estimate_effects_four(ds4, [("mean", (level, level))], config)[0]
        two = estimate_effects_two(ds2, [("mean", (level, level))], config)[0]
        assert abs(four.point - two.point) < 1e-8
        assert abs(four.se - two.se) < 1e-8


def test_recovers_truth_within_three_sigma(sim_four_arm_big):
    ds = restrict_to_two_arm(sim_four_arm_big)
    truth = true_effects(SimConfig(n=100, a_y_model=2, reps=1))
    config = EstimatorConfig(k_folds=2, splits=3, seed=2)
    ests = estimate_effects_two(ds, [("sde", 1), ("sie", 1)], config)
    assert abs(ests[0].point - truth.sde_two) < 3.0 * ests[0].se
    assert abs(ests[1].point - truth.sie_two) < 3.0 * ests[1].se


def test_all_strategies_recover_truth(sim_four_arm_big):
    ds = restrict_to_two_arm(sim_four_arm_big)
    truth = true_effects(SimConfig(n=100, a_y_model=2, reps=1))
    for strategy in ("S", "T", "ensemble"):
        config = EstimatorConfig(k_folds=2, splits=3, seed=2, strategy=strategy)
        est = estimate_effects_two(ds, [("sde", 1)], config)[0]
        assert est.strategy == strategy
        assert abs(est.point - truth.sde_two) < 3.0 * est.se, strategy


def test_metadata_and_json(sim_two_arm):
    est = estimate_effects_two(sim_two_arm, [("sde", 1)], EstimatorConfig(seed=5))[0]
    assert est.design == "two-arm"
    assert est.population == "two-arm"
    assert est.strategy == "ensemble"
    payload = est.to_json_dict()
    assert payload["strategy"] == "ensemble"
    assert payload["n"] == sim_two_arm.n


def test_single_arm_dataset_rejected():
    ds = make_two_arm(n=30)
    stuck = TwoArmDataset(
        y=ds.y, a=np.zeros(ds.n), m=ds.m, x=ds.x,
        outcome_name="y", a_name="a",
        mediator_names=ds.mediator_names, covariate_names=ds.covariate_names,
    )
    with pytest.raises(MissingCell):
        estimate_effects_two(stuck, [("sde", 1)], EstimatorConfig())[0]


def test_deterministic_given_seed(sim_two_arm):
    a = estimate_effects_two(sim_two_arm, [("mean", (1, 0))], EstimatorConfig(seed=7))[0]
    b = estimate_effects_two(sim_two_arm, [("mean", (1, 0))], EstimatorConfig(seed=7))[0]
    assert a.point == b.point and a.se == b.se


def test_eif_mean_matches_point(sim_two_arm):
    config = EstimatorConfig(seed=4, keep_eif=True)
    est = estimate_effects_two(sim_two_arm, [("sde", 1)], config)[0]
    assert est.eif is not None and est.eif.shape == (sim_two_arm.n,)
    assert abs(est.eif.mean() - est.point) < 1e-10


def test_each_model_predicts_once_per_test_block(monkeypatch):
    """Per fold of an ensemble estimate of three pairs: fitting predicts
    the two strategies' outcome models 4 times; scoring predicts the two
    shared treatment models once each, and per strategy the outcome model
    at each of the 2 a_y levels and the 3 pairs' projections once each.

    Scoring builds no design: a GLM predicts from its coefficients, with
    the "S" model's levels folded into them.  Fitting builds 8: one per
    treatment model, one per "S" fit and one per "T" arm and fit; the
    outcome models' predictions that the projections regress on build
    none."""
    ds = restrict_to_two_arm(generate_dataset(SimConfig(n=300, reps=1), 0))
    calls = []
    real_predict = GlmPredictor.predict

    def counting_predict(self, features, *levels):
        calls.append("logit" if self.clip is not None else "identity")
        return real_predict(self, features, *levels)

    monkeypatch.setattr(GlmPredictor, "predict", counting_predict)
    designs = record_designs(monkeypatch, sepfx.two_arm, "fit_nuisance_two")
    k = 2
    estimate_effects_two(ds, [("sde", 1), ("sie", 1)], EstimatorConfig(splits=1, k_folds=k))
    assert len(calls) == k * (4 + 2 + 2 * (2 + 3))
    assert calls.count("logit") == k * 2
    assert designs.count("score") == 0
    assert designs.count("fit") == k * (2 + 2 + 4)


def test_the_bundle_reads_its_fold_once(monkeypatch, sim_two_arm):
    """One ensemble bundle builds its fold's feature matrices once: both
    strategies' outcome models are fit on the matrix that ``treat_given_mx``
    was fit on, and both strategies' projections on the one that
    ``treat_given_x`` was fit on."""
    classifier_features, by_arm_features = [], []
    real_classifier = sepfx.two_arm.fit_classifier
    real_by_arm = sepfx.two_arm._fit_by_arm

    def recording_classifier(features, *args, **kwargs):
        classifier_features.append(features)
        return real_classifier(features, *args, **kwargs)

    def recording_by_arm(features, *args):
        by_arm_features.append(features)
        return real_by_arm(features, *args)

    monkeypatch.setattr(sepfx.two_arm, "fit_classifier", recording_classifier)
    monkeypatch.setattr(sepfx.two_arm, "_fit_by_arm", recording_by_arm)
    train = np.arange(0, sim_two_arm.n, 2)
    fit_nuisance_two(sim_two_arm, train, EstimatorConfig(strategy="ensemble"))
    mx, x = classifier_features
    assert mx.shape[1] == sim_two_arm.m.shape[1] + x.shape[1]
    mu_s, lam_s, mu_t, lam_t = by_arm_features
    assert mu_s is mx and mu_t is mx
    assert lam_s is x and lam_t is x
