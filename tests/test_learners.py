import warnings
import weakref
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
from sepfx.forest import _grow_trees
from sepfx.learners import (
    BASIS_CHOICES,
    AtLevels,
    ConstantPredictor,
    GlmPredictor,
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
from sepfx.special import expit
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


@pytest.mark.parametrize("ridge", [-1e6, -1e-12, float("nan"), float("inf"), True, "1"])
def test_spec_refuses_a_ridge_that_is_not_a_finite_non_negative_number(ridge):
    """A NaN ridge used to fit all-NaN coefficients without a word."""
    with pytest.raises(LearnerError, match="ridge must be a finite number >= 0 or None"):
        LearnerSpec(kind="glm", ridge=ridge)
    for ok in (None, 0, 0.0, 1e6, np.float64(0.5), np.int64(2)):
        assert LearnerSpec(kind="glm", ridge=ok).ridge == ok


@pytest.mark.parametrize("candidates", [("glm",), [LearnerSpec()]], ids=["name", "list"])
def test_spec_refuses_candidates_that_are_not_a_tuple_of_specs(candidates):
    """A candidate given by name used to fail only at fit time, with a bare
    AttributeError, and a list of candidates made the spec unhashable."""
    with pytest.raises(LearnerError, match="candidates must be a tuple of LearnerSpec"):
        LearnerSpec(kind="super_learner", candidates=candidates)


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


class _Recorder:
    """A non-GLM model that keeps the features it predicts on."""

    def __init__(self):
        self.seen = []

    def predict(self, features):
        self.seen.append(features)
        return features.sum(axis=1)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    basis=st.sampled_from(BASIS_CHOICES),
    treatments=st.integers(0, 2),
    covariates=st.integers(0, 5),
    held=st.booleans(),
    levels=st.tuples(st.sampled_from([0, 1]), st.sampled_from([0, 1])),
    clip=st.sampled_from([None, 0.01]),
    seed=st.integers(0, 2**16),
)
def test_glm_predicts_from_folded_coefficients_as_from_its_design(
    basis, treatments, covariates, held, levels, clip, seed
):
    """A GLM predicts without a design, from its coefficients, the linear
    predictor of ``expand_basis(...) @ beta`` to a few ulps of
    ``|design| @ |beta|``: with its treatments held at levels (folded into
    a constant and the covariate weights) and with treatment columns in
    the features, at any place.  Coefficients and covariates span several
    orders of magnitude, so that sums cancel.  Another model held at levels
    still predicts on the held columns stacked in front of the features."""
    rng = np.random.default_rng(seed)
    n = 30
    x = rng.normal(size=(n, covariates)) * 10.0 ** rng.uniform(-3, 3, covariates)
    if held and treatments:
        levels = levels[:treatments]
        interact_cols = tuple(range(treatments))
        features = x
        stacked = np.column_stack([np.full((n, treatments), levels, dtype=np.float64), x])
    else:
        levels = ()
        treat = rng.integers(0, 2, (n, treatments)).astype(np.float64)
        features = stacked = np.column_stack([treat, x])
        interact_cols = tuple(sorted(rng.choice(stacked.shape[1], treatments, replace=False)))
    design = expand_basis(stacked, basis, interact_cols)
    beta = rng.normal(size=design.shape[1]) * 10.0 ** rng.uniform(-4, 4, design.shape[1])
    fit = GlmPredictor(beta, basis, interact_cols, clip)
    got = AtLevels(fit, levels).predict(features) if levels else fit.predict(features)
    want = design @ beta
    tolerance = 8 * np.spacing(np.abs(design) @ np.abs(beta))
    if clip is not None:  # expit's slope is at most 1/4, and it rounds once more
        want = np.clip(expit(want), clip, 1.0 - clip)
        tolerance = tolerance / 4 + 2 * np.spacing(1.0)
    assert np.all(np.abs(got - want) <= tolerance)

    recorder = _Recorder()
    other = AtLevels(recorder, levels).predict(features)
    [seen] = recorder.seen
    assert seen.dtype == np.float64 and seen.tobytes() == stacked.tobytes()
    assert other.tobytes() == stacked.sum(axis=1).tobytes()


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
    # The ridge penalizes the standardized slope, so x's scale no longer
    # weakens it: 4e-6 is about the 1e-6 * n / var(x) that the default had
    # here on the raw slope, weak enough that the fit separates the labels.
    with pytest.warns(SeparationWarning):
        fit = fit_classifier(x, y, LearnerSpec(kind="glm", basis="main", ridge=4e-6), clip=0.05)
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
    assert fit.beta[1] == pytest.approx(87.4739, abs=1e-4)
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

    monkeypatch.setattr(learners, "_fit_libraries", no_fit)
    monkeypatch.setattr("sepfx.forest.grow_forests", no_fit)
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


def test_super_learner_on_a_single_class_fits_as_fit_classifier():
    """fit_super_learner is fit_classifier of a super-learner spec: all-one
    labels give the clipped constant with one warning, as every fit does."""
    x, _ = _sl_data(1, "classification", binary=True)
    y = np.ones(x.shape[0])
    spec = _stack(tuple(_forest(t, seed=4) for t in (1, 2, 3)), v_folds=3)
    sl, got = _caught(lambda: fit_super_learner(x, y, spec, clip=SL_CLIP))
    ref, want = _caught(lambda: fit_classifier(x, y, spec, clip=SL_CLIP))
    assert got == want == [SingleClassWarning]
    assert isinstance(sl, ConstantPredictor) and sl.value == ref.value == 1.0 - SL_CLIP


@pytest.mark.parametrize("task", ["regression", "classification"])
def test_a_super_learner_fits_a_super_learner_candidate(task):
    """A nested super learner stacks its inner one like any candidate: its
    out-of-fold losses and its full-data fit equal lone fits of the inner
    spec, bit for bit."""
    x, y = _sl_data(8, task, binary=False)
    inner = _stack((LearnerSpec(kind="glm", basis="main"), _forest(2, seed=1)), v_folds=3, seed=4)
    candidates = (inner, LearnerSpec(kind="glm", basis="intercept"))
    sl = _check_against_solo_fits(x, y, candidates, task, seed=2)
    nested = sl.candidate_fits[0]
    alone = _fit_alone(x[:60], y[:60], inner, task)
    assert isinstance(nested, learners.SuperLearnerFit)
    assert nested.weights.tobytes() == alone.weights.tobytes()
    assert nested.predict(x).tobytes() == alone.predict(x).tobytes()


def _libraries_alone(library):
    """A stand-in for ``_fit_libraries`` that fits every candidate on its
    own through ``library``, the real one, with one block and one candidate
    per call, as separate ``fit_regressor`` or ``fit_classifier`` calls fit
    it, and on a block with held-out rows predicting them."""

    def alone(blocks, candidates, interact_cols, clip):
        return [
            [library([block], (spec,), interact_cols, clip)[0][0] for spec in candidates]
            for block in blocks
        ]

    return alone


def _fit_twice(monkeypatch, x, y, stack, clip):
    """The super learner, and the one built from candidates fit alone,
    each with the warnings it emitted."""
    out = []
    library = learners._fit_libraries
    for fitter in (library, _libraries_alone(library)):
        monkeypatch.setattr(learners, "_fit_libraries", fitter)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sl = fit_super_learner(x, y, stack, interact_cols=(0,), clip=clip)
        out.append((sl, [w.category for w in caught]))
    return out


MIXED = (
    _forest(3, mtry=2, seed=5),
    LearnerSpec(kind="glm", basis="main"),
    _forest(1, mtry=2, seed=5),
    _forest(2, mtry=2, seed=5),
)


def _one_positive(seed, n):
    """Labels with a single 1: the internal fold that holds it out trains
    on a single class, and the GLM sees the lone positive separated."""
    x, _ = _sl_data(seed, "classification", binary=True, n=n)
    y = np.zeros(n)
    y[17] = 1.0
    return x, y


@pytest.mark.parametrize(
    "task, data",
    [
        ("regression", lambda: _sl_data(7, "regression", binary=True, n=120)),
        ("classification", lambda: _sl_data(7, "classification", binary=True, n=120)),
        ("classification", lambda: _one_positive(3, 60)),
    ],
    ids=["regression", "classification", "partly-single-class"],
)
def test_a_glm_beside_a_forest_prefix_group_fits_as_each_candidate_alone(monkeypatch, task, data):
    """Weights, losses, predictions and the warnings, category by category
    and in order, equal those of candidates fit alone, block by block."""
    x, y = data()
    clip = SL_CLIP if task == "classification" else None
    (sl, got), (ref, want) = _fit_twice(monkeypatch, x, y, _stack(MIXED, v_folds=3, seed=2), clip)
    assert got == want
    if y.sum() == 1.0:
        assert SingleClassWarning in got and len(set(got)) > 1
    assert sl.weights.tobytes() == ref.weights.tobytes()
    assert sl.cv_losses.tobytes() == ref.cv_losses.tobytes()
    assert sl.ensemble_cv_loss == ref.ensemble_cv_loss
    assert sl.predict(x).tobytes() == ref.predict(x).tobytes()
    for fit, alone in zip(sl.candidate_fits, ref.candidate_fits):
        assert fit.predict(x).tobytes() == alone.predict(x).tobytes()


def test_labels_that_are_not_binary_fail_before_any_tree_grows(monkeypatch):
    def no_growth(*args, **kwargs):
        raise AssertionError("a tree grew before the labels were checked")

    # every forest, kept or held out, grows through grow_forests
    monkeypatch.setattr("sepfx.forest.grow_forests", no_growth)
    x, y = _sl_data(4, "classification", binary=True)
    y[50] = 0.5
    forests = tuple(_forest(t, seed=3) for t in (1, 2, 3))
    with pytest.raises(LearnerError, match="labels must be binary"):
        fit_super_learner(x, y, _stack(forests, v_folds=3), clip=SL_CLIP)
    for spec in (forests[-1], _stack(forests, v_folds=3)):
        with pytest.raises(LearnerError, match="labels must be binary"):
            fit_classifier(x, y, spec, clip=SL_CLIP)


def test_a_super_learner_grows_each_prefix_group_once_per_block(monkeypatch):
    """Forests of 1, 2 and 3 trees on one seed grow only the 3-tree forest,
    once per internal fold and once on the full data: 12 trees, none
    grown twice."""
    grown = []

    def counting(jobs, mtry, min_leaf):
        grown.extend(job[2].size for job in jobs)
        return _grow_trees(jobs, mtry, min_leaf)

    monkeypatch.setattr("sepfx.forest._grow_trees", counting)
    g = np.random.default_rng(0)
    x = g.integers(0, 2, size=(120, 4)).astype(float)
    y = x[:, 0] + g.normal(size=120)
    forests = tuple(_forest(t, seed=3) for t in (1, 2, 3))
    fit_super_learner(x, y, _stack(forests, v_folds=3, seed=3))
    assert len(grown) == 12
    # three trees on each of the three 80-row training sets and on all 120 rows
    assert sorted(grown) == [80] * 9 + [120] * 3


BATCH_SPECS = {
    "glm": LearnerSpec(kind="glm"),
    "random_forest": _forest(3, mtry=2, seed=5),
    "super_learner": _stack(MIXED, v_folds=3, seed=2),
}


def _label_sets(seed, n):
    """Target sets on one feature matrix: binary labels that vary; one
    with a single 1, which trains some internal folds on a constant; a
    feature; and a constant last."""
    x, y = _sl_data(seed, "classification", binary=True, n=n)
    lone = np.zeros(n)
    lone[17] = 1.0
    return x, [y, lone, x[:, 1], np.ones(n)]


def _caught(fit):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fits = fit()
    return fits, [w.category for w in caught]


@pytest.mark.parametrize("kind", sorted(BATCH_SPECS))
def test_a_batch_fits_each_label_set_as_it_fits_alone(kind):
    """Predictions, stacking weights, losses and the warnings, category by
    category and in order, equal those of one fit_regressor call per
    target set."""
    spec = BATCH_SPECS[kind]
    x, target_sets = _label_sets(3, 60)
    batch, got = _caught(lambda: learners.fit_regressors(x, target_sets, spec, (0,)))
    alone, want = _caught(lambda: [fit_regressor(x, y, spec, (0,)) for y in target_sets])
    assert got == want
    assert len(batch) == len(alone)
    for fit, ref in zip(batch, alone):
        assert type(fit) is type(ref)
        assert fit.predict(x).tobytes() == ref.predict(x).tobytes()
        if isinstance(ref, learners.SuperLearnerFit):
            assert fit.weights.tobytes() == ref.weights.tobytes()
            assert fit.cv_losses.tobytes() == ref.cv_losses.tobytes()


@pytest.mark.parametrize("bad", ["short", "nan"])
def test_a_batch_refuses_a_bad_label_set_as_a_lone_fit_does(monkeypatch, bad):
    """Every target set is checked before anything is fit, and a bad one
    raises the error and message of a lone fit on it."""
    x, target_sets = _label_sets(4, 60)
    y = target_sets[0].copy()
    if bad == "short":
        y = y[:-1]
    else:
        y[30] = np.nan
    spec = BATCH_SPECS["super_learner"]
    with pytest.raises(LearnerError) as alone:
        fit_regressor(x, y, spec)

    def no_fit(*args, **kwargs):
        raise AssertionError("a target set was fit before every set was checked")

    monkeypatch.setattr(learners, "_fit_checked", no_fit)
    with pytest.raises(type(alone.value)) as batch:
        learners.fit_regressors(x, [target_sets[0], y], spec)
    assert str(batch.value) == str(alone.value)


@pytest.mark.parametrize("kind", ["random_forest", "super_learner"])
def test_a_batch_grows_tree_t_of_every_label_set_in_one_pass(monkeypatch, kind):
    """k target sets make one _grow_trees call per tree index: of k forests
    for a forest spec, and of k times (internal folds + 1) forests for a
    super learner with one prefix group."""
    calls = []

    def counting(jobs, mtry, min_leaf):
        calls.append(len(jobs))
        return _grow_trees(jobs, mtry, min_leaf)

    monkeypatch.setattr("sepfx.forest._grow_trees", counting)
    x, y = _sl_data(6, "classification", binary=True, n=120)
    target_sets = [y, x[:, 0], x[:, 1], 1.0 - y]
    forests = tuple(_forest(t, seed=3) for t in (1, 2, 3))
    spec = forests[-1] if kind == "random_forest" else _stack(forests, v_folds=3, seed=3)
    learners.fit_regressors(x, target_sets, spec)
    blocks = 1 if kind == "random_forest" else 3 + 1
    assert calls == [len(target_sets) * blocks] * 3


def test_no_internal_fold_tree_outlives_its_prediction(monkeypatch):
    """A super learner's internal-fold trees predict their fold's held-out
    rows as they grow and are freed before the next trees grow; only the
    full-data trees stay, held by the fits."""
    held_out, full = [], []

    def watching(jobs, mtry, min_leaf):
        assert all(ref() is None for ref in held_out), "an internal-fold tree outlived its round"
        trees = _grow_trees(jobs, mtry, min_leaf)
        for job, tree in zip(jobs, trees):
            # 80 rows: an internal fold's training rows; 120: all rows
            (held_out if job[2].size == 80 else full).append(weakref.ref(tree))
        return trees

    monkeypatch.setattr("sepfx.forest._grow_trees", watching)
    x, y = _sl_data(6, "classification", binary=True, n=120)
    forests = tuple(_forest(t, seed=3) for t in (1, 2, 3))
    fits = learners.fit_regressors(x, [y, x[:, 0]], _stack(forests, v_folds=3, seed=3))
    assert len(held_out) == 2 * 3 * 3 and len(full) == 2 * 3
    assert all(ref() is None for ref in held_out)
    assert all(ref() is not None for ref in full)
    del fits


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
