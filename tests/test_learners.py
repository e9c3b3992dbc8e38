import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepfx import learners
from sepfx.crossfit import make_folds
from sepfx.data import TwoArmDataset
from sepfx.errors import (
    ConvergenceWarning,
    LearnerError,
    MissingCell,
    SeparationWarning,
    SingleClassWarning,
    TooFewRows,
)
from sepfx.estimation import EstimatorConfig
from sepfx.learners import (
    ConstantPredictor,
    LearnerSpec,
    PRESET_CHOICES,
    _fit_logistic,
    expand_basis,
    fit_classifier,
    fit_regressor,
    fit_super_learner,
    make_spec,
)
from sepfx.seeding import derive_seed, stream
from sepfx.two_arm import fit_nuisance_two


def test_spec_validation():
    with pytest.raises(LearnerError):
        LearnerSpec(kind="boosting")
    with pytest.raises(LearnerError):
        LearnerSpec(basis="quadratic")
    with pytest.raises(LearnerError):
        LearnerSpec(kind="random_forest", trees=0)
    with pytest.raises(LearnerError):
        LearnerSpec(kind="super_learner", candidates=())


@pytest.mark.parametrize("field", ["trees", "mtry", "min_leaf", "v_folds", "seed"])
@pytest.mark.parametrize("value", [True, 2.5, 3.0])
def test_spec_refuses_a_bool_or_fraction_in_an_integer_field(field, value):
    """A forest, a super learner and a GLM all check their integer fields
    when the spec is made, by the rule the estimator settings use."""
    forest = LearnerSpec(kind="random_forest", trees=2)
    for spec in (forest, LearnerSpec(kind="super_learner", candidates=(forest,)), LearnerSpec()):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            replace(spec, **{field: value})
    assert replace(forest, **{field: np.int64(3)}).kind == "random_forest"


def test_expand_basis_shapes():
    x = np.arange(12.0).reshape(4, 3)
    assert expand_basis(x, "intercept").shape == (4, 1)
    main = expand_basis(x, "main")
    assert main.shape == (4, 4)
    np.testing.assert_array_equal(main[:, 0], 1.0)
    np.testing.assert_array_equal(main[:, 1:], x)
    # no products unless treatment columns are marked
    inter = expand_basis(x, "interactions")
    np.testing.assert_array_equal(inter, main)


def test_expand_basis_treatment_products_only():
    x = np.arange(12.0).reshape(4, 3)
    design = expand_basis(x, "interactions", interact_cols=(0,))
    # intercept, 3 mains, and products of column 0 with the other two
    assert design.shape == (4, 6)
    np.testing.assert_array_equal(design[:, 4], x[:, 0] * x[:, 1])
    np.testing.assert_array_equal(design[:, 5], x[:, 0] * x[:, 2])


def test_glm_matches_lstsq_at_zero_ridge():
    rng = stream(3, "ols")
    x = rng.normal(size=(200, 3))
    y = 1.0 + x @ np.array([0.5, -0.3, 0.2]) + rng.normal(scale=0.1, size=200)
    fit = fit_regressor(x, y, LearnerSpec(kind="glm", basis="main", ridge=0.0))
    design = np.column_stack([np.ones(200), x])
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    np.testing.assert_allclose(fit.beta, beta, atol=1e-10)


def test_glm_ridge_does_not_penalize_intercept():
    rng = stream(4, "ridge")
    x = rng.normal(size=(300, 2))
    y = 5.0 + 0.1 * x[:, 0] + rng.normal(scale=0.05, size=300)
    heavy = fit_regressor(x, y, LearnerSpec(kind="glm", basis="main", ridge=1e6))
    # slopes are crushed toward zero but the intercept tracks the mean
    assert abs(heavy.beta[0] - y.mean()) < 0.01
    assert np.all(np.abs(heavy.beta[1:]) < 1e-3)


def test_logistic_recovers_coefficients():
    rng = stream(123, "logit")
    n = 12000
    x = rng.normal(size=(n, 3))
    beta = np.array([0.3, -0.8, 0.5, 0.2])
    z = beta[0] + x @ beta[1:]
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-z))).astype(float)
    fit = fit_classifier(x, y, LearnerSpec(kind="glm", basis="main", ridge=0.0))
    est = fit.beta
    p = 1.0 / (1.0 + np.exp(-(est[0] + x @ est[1:])))
    design = np.column_stack([np.ones(n), x])
    info = design.T @ (design * (p * (1.0 - p))[:, None])
    se = np.sqrt(np.diag(np.linalg.inv(info)))
    assert np.all(np.abs(est - beta) < 3.0 * se)


def test_classifier_predictions_are_clipped():
    rng = stream(5, "clip")
    x = rng.normal(size=(400, 1)) * 10.0
    y = (x[:, 0] > 0).astype(float)  # separable
    with pytest.warns(SeparationWarning):
        fit = fit_classifier(x, y, LearnerSpec(kind="glm", basis="main"), clip=0.05)
    p = fit.predict(x)
    assert p.min() >= 0.05 and p.max() <= 0.95


def test_complete_separation_warns_and_leaves_the_fit_as_it_was():
    """One covariate that separates the labels: no maximum-likelihood
    estimate exists (Albert & Anderson 1984), Newton runs until the ridge
    penalty stops the slope, and nearly every probability sits on a clip
    bound.  The fit warns; its numbers stay as they were."""
    x = np.random.default_rng(0).normal(size=(200, 1))
    y = (x[:, 0] > 0).astype(float)
    spec = LearnerSpec(kind="glm", basis="main")
    with pytest.warns(SeparationWarning):
        fit = fit_classifier(x, y, spec)
    assert fit.beta[1] == pytest.approx(85.5267, abs=1e-4)
    p = fit.predict(x)
    assert np.mean((p == 0.01) | (p == 0.99)) == 0.965

    # one label on the wrong side of zero: the labels overlap, no warning
    nearest = np.argmin(np.abs(x[:, 0]))
    y[nearest] = 1.0 - y[nearest]
    with warnings.catch_warnings():
        warnings.simplefilter("error", SeparationWarning)
        fit_classifier(x, y, spec)


def test_newton_warns_when_its_iterations_run_out_and_keeps_the_last_iterate():
    rng = stream(4, "newton-limit")
    x = rng.normal(size=(300, 2))
    y = (rng.random(300) < 1.0 / (1.0 + np.exp(-(0.5 + x[:, 0])))).astype(float)
    design = expand_basis(x, "main")
    with warnings.catch_warnings():
        warnings.simplefilter("error", ConvergenceWarning)
        converged = _fit_logistic(design, y, 0.0)
    with pytest.warns(ConvergenceWarning, match="1 Newton steps"):
        one_step = _fit_logistic(design, y, 0.0, max_iter=1)
    # the last iterate is returned: one Newton step, short of the optimum
    assert np.abs(one_step - converged).max() > 1e-3


@pytest.mark.parametrize("where", ["feature", "target"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "spec",
    [LearnerSpec(kind="glm", basis="main"), LearnerSpec(kind="random_forest", trees=2)],
    ids=["glm", "forest"],
)
def test_learners_refuse_non_finite_input_before_fitting(spec, bad, where):
    rng = stream(7, "non-finite")
    x = rng.normal(size=(200, 2))
    y = (x[:, 0] + rng.normal(size=200) > 0).astype(float)
    if where == "feature":
        x[17, 1] = bad
    else:
        y[17] = bad
    with pytest.raises(LearnerError, match="finite"):
        fit_regressor(x, y, spec)
    with pytest.raises(LearnerError, match="finite"):
        fit_classifier(x, y, spec)


def _stack(candidates, v_folds, seed=0) -> LearnerSpec:
    return LearnerSpec(
        kind="super_learner", candidates=tuple(candidates), v_folds=v_folds, seed=seed
    )


def test_super_learner_takes_only_a_super_learner_spec():
    x = np.arange(20.0).reshape(10, 2)
    with pytest.raises(LearnerError, match="need a super_learner spec, got 'glm'"):
        fit_super_learner(x, x[:, 0], LearnerSpec(kind="glm"))


@pytest.mark.parametrize("rows, bad", [(80, None), (100, None), (90, np.nan)])
@pytest.mark.parametrize("clip", [None, 0.02])
def test_super_learner_refuses_bad_rows_before_fitting(monkeypatch, rows, bad, clip):
    """Fewer feature rows than targets used to raise a bare IndexError in
    the fold loop, and more rows passed until the final fit."""

    def no_fit(*args, **kwargs):
        raise AssertionError("a candidate was fit before the rows were checked")

    monkeypatch.setattr(learners, "fit_regressor", no_fit)
    monkeypatch.setattr(learners, "fit_classifier", no_fit)
    rng = stream(13, "sl-rows")
    x = rng.normal(size=(rows, 2))
    y = (rng.random(90) < 0.5).astype(float)
    if bad is not None:
        y[3] = bad
    with pytest.raises(LearnerError, match="row count|finite"):
        fit_super_learner(x, y, _stack([LearnerSpec(basis="main")], v_folds=3), clip=clip)


def test_single_class_warns_and_returns_constant():
    rng = stream(6, "single")
    x = rng.normal(size=(50, 2))
    with pytest.warns(SingleClassWarning):
        fit = fit_classifier(x, np.ones(50), LearnerSpec(kind="glm", basis="main"), clip=0.01)
    np.testing.assert_array_equal(fit.predict(x[:5]), 0.99)


def test_constant_targets_short_circuit():
    rng = stream(7, "const")
    x = rng.normal(size=(30, 2))
    y = np.full(30, 2.5)
    for name in ("glm", "rf"):
        fit = fit_regressor(x, y, make_spec(name))
        assert isinstance(fit, ConstantPredictor)
        np.testing.assert_array_equal(fit.predict(x), 2.5)


def test_too_few_rows():
    with pytest.raises(TooFewRows):
        fit_regressor(np.zeros((1, 2)), np.zeros(1), LearnerSpec())


def test_forest_fits_smooth_surface():
    rng = stream(123, "forest")
    n = 1500
    x = rng.random((n, 2))
    y = np.sin(3.0 * x[:, 0]) + x[:, 1] ** 2
    spec = LearnerSpec(kind="random_forest", trees=150, mtry=2, min_leaf=5, seed=3)
    fit = fit_regressor(x, y, spec)
    grid = rng.random((400, 2))
    truth = np.sin(3.0 * grid[:, 0]) + grid[:, 1] ** 2
    assert np.mean((fit.predict(grid) - truth) ** 2) < 0.05


def test_forest_deterministic_by_seed():
    rng = stream(8, "forest-seed")
    x = rng.random((200, 2))
    y = x[:, 0] + rng.normal(scale=0.1, size=200)
    spec = LearnerSpec(kind="random_forest", trees=20, seed=11)
    a = fit_regressor(x, y, spec).predict(x)
    b = fit_regressor(x, y, spec).predict(x)
    np.testing.assert_array_equal(a, b)
    other = fit_regressor(x, y, LearnerSpec(kind="random_forest", trees=20, seed=12))
    assert not np.array_equal(a, other.predict(x))


def test_forest_classifier_clips():
    rng = stream(9, "forest-clip")
    x = rng.normal(size=(300, 2))
    y = (x[:, 0] > 0).astype(float)
    spec = LearnerSpec(kind="random_forest", trees=30, seed=1)
    fit = fit_classifier(x, y, spec, clip=0.02)
    p = fit.predict(x)
    assert p.min() >= 0.02 and p.max() <= 0.98


def test_super_learner_prefers_correct_model():
    rng = stream(123, "sl")
    n = 2500
    x = rng.normal(size=(n, 3))
    y = 1.0 + x @ np.array([0.5, -0.25, 0.1]) + rng.normal(scale=0.3, size=n)
    good = LearnerSpec(kind="glm", basis="main")
    weak = LearnerSpec(kind="glm", basis="intercept")
    sl = fit_super_learner(x, y, _stack([good, weak], v_folds=5))
    assert sl.weights[0] > 0.9
    assert abs(sum(sl.weights) - 1.0) < 1e-9
    assert sl.ensemble_cv_loss <= min(sl.cv_losses) + 1e-9


def test_super_learner_single_candidate():
    rng = stream(10, "sl1")
    x = rng.normal(size=(200, 2))
    y = x[:, 0] + rng.normal(scale=0.2, size=200)
    sl = fit_super_learner(x, y, _stack([LearnerSpec(kind="glm", basis="main")], v_folds=3))
    np.testing.assert_allclose(sl.weights, [1.0])


def test_super_learner_identical_candidates():
    rng = stream(11, "sl2")
    x = rng.normal(size=(300, 2))
    y = x[:, 0] - x[:, 1] + rng.normal(scale=0.2, size=300)
    spec = LearnerSpec(kind="glm", basis="main")
    sl = fit_super_learner(x, y, _stack([spec, spec], v_folds=3))
    assert abs(sum(sl.weights) - 1.0) < 1e-9
    assert sl.ensemble_cv_loss <= min(sl.cv_losses) + 1e-9


def test_super_learner_deterministic_by_seed():
    rng = stream(12, "sl3")
    x = rng.normal(size=(250, 2))
    y = x[:, 0] + rng.normal(scale=0.3, size=250)
    cands = [
        LearnerSpec(kind="glm", basis="main"),
        LearnerSpec(kind="random_forest", trees=20, seed=5),
    ]
    a = fit_super_learner(x, y, _stack(cands, v_folds=3, seed=7))
    b = fit_super_learner(x, y, _stack(cands, v_folds=3, seed=7))
    np.testing.assert_array_equal(a.weights, b.weights)
    np.testing.assert_array_equal(a.predict(x), b.predict(x))


def _forest(trees, **kw) -> LearnerSpec:
    return LearnerSpec(kind="random_forest", trees=trees, **kw)


def _sl_data(seed, task, binary, n=90):
    g = np.random.default_rng(seed)
    x = g.integers(0, 2, size=(n, 4)).astype(float) if binary else np.round(g.normal(size=(n, 3)), 1)
    if task == "classification":
        return x, (g.random(n) < 0.25 + 0.5 * x[:, 0] * (x[:, 1] > 0)).astype(float)
    return x, x[:, 0] - x[:, 1] + g.normal(scale=0.5, size=n)


SL_CLIP = 0.02


def _fit_alone(x, y, spec, task):
    if task == "classification":
        return fit_classifier(x, y, spec, clip=SL_CLIP)
    return fit_regressor(x, y, spec)


def _reference_cv_losses(x, y, candidates, v_folds, seed, task):
    """Out-of-fold losses with every candidate fit on its own."""
    folds = make_folds(y.size, v_folds, derive_seed(seed, "super-learner-folds"))
    oof = np.empty((y.size, len(candidates)))
    for fold in range(v_folds):
        train, test = folds.train_rows(fold), folds.test_rows(fold)
        for j, spec in enumerate(candidates):
            oof[test, j] = _fit_alone(x[train], y[train], spec, task).predict(x[test])
    return np.mean((y[:, None] - oof) ** 2, axis=0)


def _check_against_solo_fits(x, y, candidates, task, seed):
    """The super learner equals one built from candidates fit one by one:
    each candidate predicts bit for bit like its spec fit alone."""
    clip = SL_CLIP if task == "classification" else None
    train, test = x[:60], x[60:]
    sl = fit_super_learner(train, y[:60], _stack(candidates, v_folds=3, seed=seed), clip=clip)
    want_losses = _reference_cv_losses(train, y[:60], candidates, 3, seed, task)
    assert sl.cv_losses.tobytes() == want_losses.tobytes()
    want = np.zeros(test.shape[0])
    for spec, w, fit in zip(candidates, sl.weights, sl.candidate_fits):
        alone = _fit_alone(train, y[:60], spec, task).predict(test)
        assert fit.predict(test).tobytes() == alone.tobytes()
        if w != 0.0:
            want += w * alone
    if clip is not None:
        want = np.clip(want, clip, 1.0 - clip)
    assert sl.predict(test).tobytes() == want.tobytes()
    return sl


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    trees=st.lists(st.integers(1, 5), min_size=1, max_size=4),
    mtry=st.integers(1, 4),
    min_leaf=st.integers(1, 7),
    seed=st.integers(0, 2**16),
    task=st.sampled_from(["regression", "classification"]),
    binary=st.booleans(),
)
def test_super_learner_forests_are_prefixes_of_one_forest(
    trees, mtry, min_leaf, seed, task, binary
):
    """Forest candidates equal apart from ``trees`` share the largest one's
    trees, and each predicts bit for bit like a forest fit alone."""
    x, y = _sl_data(seed, task, binary)
    candidates = tuple(_forest(t, mtry=mtry, min_leaf=min_leaf, seed=seed) for t in trees)
    sl = _check_against_solo_fits(x, y, candidates, task, seed)
    largest = sl.candidate_fits[int(np.argmax(trees))]
    for fit in sl.candidate_fits:
        assert all(a is b for a, b in zip(fit.trees, largest.trees))


@pytest.mark.parametrize(
    "candidates",
    [
        (_forest(2, seed=1), _forest(3, seed=2)),
        (_forest(2, mtry=1), _forest(3, mtry=2)),
        (_forest(3, min_leaf=2), _forest(2, min_leaf=4)),
        (LearnerSpec(kind="glm", basis="main"), _forest(2), LearnerSpec(kind="glm"), _forest(1, seed=3)),
    ],
    ids=["seed", "mtry", "min_leaf", "glm-mix"],
)
@pytest.mark.parametrize("task", ["regression", "classification"])
def test_super_learner_fits_unshared_candidates_on_their_own(candidates, task):
    x, y = _sl_data(5, task, binary=True)
    sl = _check_against_solo_fits(x, y, candidates, task, seed=2)
    forests = [fit for fit in sl.candidate_fits if hasattr(fit, "trees")]
    trees = [id(tree) for fit in forests for tree in fit.trees]
    assert len(trees) == len(set(trees))


def test_super_learner_single_class_gives_each_forest_a_constant():
    x, _ = _sl_data(1, "classification", binary=True)
    candidates = tuple(_forest(t, seed=4) for t in (1, 2, 3))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sl = fit_super_learner(
            x, np.ones(x.shape[0]), _stack(candidates, v_folds=3), clip=SL_CLIP
        )
    for fit in sl.candidate_fits:
        assert isinstance(fit, ConstantPredictor) and fit.value == 1.0 - SL_CLIP
    # every candidate warns once per internal fold and once on the full data
    assert [w.category for w in caught] == [SingleClassWarning] * 3 * 4


def _strategy_data(features, treatment, targets) -> TwoArmDataset:
    # the first feature plays the mediator, so the outcome models see
    # the same (treatment, features) columns as a plain regression
    return TwoArmDataset(
        y=targets, a=treatment, m=features[:, :1], x=features[:, 1:]
    )


def test_strategies_recover_additive_effect():
    rng = stream(123, "strategy")
    n = 4000
    x = rng.normal(size=(n, 2))
    a = (rng.random(n) < 0.5).astype(float)
    y = 2.0 + a + x @ np.array([0.3, -0.2]) + rng.normal(scale=0.2, size=n)
    ds = _strategy_data(x, a, y)
    config = EstimatorConfig(outcome=LearnerSpec(kind="glm", basis="interactions"))
    for strategy in ("S", "T", "ensemble"):
        nuis = fit_nuisance_two(ds, np.arange(n), replace(config, strategy=strategy))
        mx = np.column_stack([ds.m, ds.x])
        for mu_fits, _ in nuis.outcomes:
            effect = np.mean(mu_fits[1].predict(mx) - mu_fits[0].predict(mx))
            assert abs(effect - 1.0) < 0.05, strategy


def test_strategy_requires_both_arms():
    rng = stream(13, "strategy-arm")
    x = rng.normal(size=(60, 2))
    y = x[:, 0] + rng.normal(scale=0.1, size=60)
    ds = _strategy_data(x, np.ones(60), y)
    with pytest.raises(MissingCell):
        fit_nuisance_two(ds, np.arange(60), EstimatorConfig(strategy="T"))


def test_make_spec():
    assert make_spec("glm").kind == "glm"
    assert make_spec("rf").kind == "random_forest"
    sl = make_spec("sl", seed=3)
    assert sl.kind == "super_learner"
    assert len(sl.candidates) >= 2
    with pytest.raises(LearnerError):
        make_spec("mystery")


@pytest.mark.parametrize("name", PRESET_CHOICES)
def test_every_preset_choice_names_a_spec(name):
    assert isinstance(make_spec(name, seed=1), LearnerSpec)
