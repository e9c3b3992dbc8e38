import itertools
import json
import os
import warnings
from dataclasses import replace

import numpy as np
import pytest

import sepfx.crossfit
import sepfx.fanout
import sepfx.four_arm
import sepfx.simulation
from conftest import assert_no_process_left, blas_threads, pool_path
from sepfx.data import FourArmDataset, restrict_to_two_arm
from sepfx.errors import DegenerateEstimate, EmptySubset, LearnerError, MissingCell
from sepfx.estimation import Estimand, EstimatorConfig
from sepfx.falsification import estimate_agreement_effects
from sepfx.four_arm import estimate_effects_four
from sepfx.seeding import derive_seed
from sepfx.two_arm import estimate_effects_two
from sepfx.learners import LearnerSpec
from sepfx.simulation import (
    ESTIMATOR_NAMES,
    SimConfig,
    arm_probability,
    baseline_curve,
    draw_potentials,
    estimator_config_for,
    generate_dataset,
    run_falsification_study,
    run_monte_carlo,
    treatment_effect_curve,
    true_effects,
)


def enumerated_agreement_direct_effect() -> float:
    """Brute-force check of the agreement-weighted direct effect.

    Iterates the 32 covariate patterns; each contributes its treatment
    effect weighted by the probability that two independent draws from
    the same assignment model coincide.
    """
    total_weight = 0.0
    total = 0.0
    for bits in itertools.product((0.0, 1.0), repeat=5):
        x = np.array([bits])
        p = float(arm_probability(x)[0])
        agree = p * p + (1.0 - p) * (1.0 - p)
        weight = 0.5**5 * agree
        total += weight * float(treatment_effect_curve(x)[0])
        total_weight += weight
    return total / total_weight


def test_exact_truths_model_two():
    truth = true_effects(SimConfig(n=100, a_y_model=2, reps=1))
    assert truth.sde_four == 2.0
    assert truth.sie_four == 0.2
    assert truth.sde_two == 2.0
    assert truth.sie_two == 0.2


def test_model_one_agreement_truth_matches_enumeration():
    truth = true_effects(SimConfig(n=100, a_y_model=1, reps=1))
    assert truth.sde_four == 2.0
    assert truth.sie_two == 0.2
    assert abs(truth.sde_two - enumerated_agreement_direct_effect()) < 1e-12
    # agreement favors strata with lopsided assignment, which sit below
    # the average effect here
    assert truth.sde_two < 2.0


@pytest.mark.parametrize("violation", [None, 0.5])
def test_indirect_truths_match_the_potential_outcomes(violation):
    """Each row's indirect contrast is one constant, a violation included,
    so both populations' sie truths equal its mean over a draw."""
    cfg = SimConfig(n=500, reps=1, master_seed=3, violation=violation)
    truth = true_effects(cfg)
    pot = draw_potentials(cfg, 0)
    for a in (0, 1):
        contrast = float(np.mean(pot.outcomes[(a, 1)] - pot.outcomes[(a, 0)]))
        assert abs(truth.sie_four - contrast) < 1e-12
        assert abs(truth.sie_two - contrast) < 1e-12


def test_curves_are_centered():
    rng = np.random.default_rng(0)
    x = (rng.random((200000, 5)) < 0.5).astype(np.float64)
    assert abs(np.mean(treatment_effect_curve(x)) - 2.0) < 0.005
    assert abs(np.mean(baseline_curve(x))) < 0.005


def test_potentials_have_exact_channel_structure():
    cfg = SimConfig(n=500, a_y_model=1, reps=1, master_seed=3)
    pot = draw_potentials(cfg, 0)
    # shared noise: switching the mediator arm shifts mediators by exactly 0.1
    np.testing.assert_allclose(pot.mediators[1] - pot.mediators[0], 0.1, atol=1e-15)
    # switching the outcome arm adds exactly the effect curve
    delta = pot.outcomes[(1, 0)] - pot.outcomes[(0, 0)]
    np.testing.assert_allclose(delta, treatment_effect_curve(pot.x), atol=1e-12)
    # switching the mediator arm adds the summed mediator shifts
    delta_m = pot.outcomes[(0, 1)] - pot.outcomes[(0, 0)]
    np.testing.assert_allclose(delta_m, 0.2, atol=1e-12)


def test_violation_shifts_outcomes_exactly():
    base = draw_potentials(SimConfig(n=300, a_y_model=1, reps=1, master_seed=9), 0)
    bent = draw_potentials(
        SimConfig(n=300, a_y_model=1, reps=1, master_seed=9, violation=0.7), 0
    )
    for a_y in (0, 1):
        np.testing.assert_allclose(
            bent.outcomes[(a_y, 1)] - base.outcomes[(a_y, 1)], 0.7, atol=1e-12
        )
        np.testing.assert_array_equal(bent.outcomes[(a_y, 0)], base.outcomes[(a_y, 0)])


def test_generate_dataset_selects_observed_rows():
    cfg = SimConfig(n=400, a_y_model=1, reps=1, master_seed=4)
    pot = draw_potentials(cfg, 0)
    ds = generate_dataset(cfg, 0)
    np.testing.assert_array_equal(ds.a_y, pot.a_y)
    np.testing.assert_array_equal(ds.a_m, pot.a_m)
    row = int(np.nonzero(pot.a_m == 1)[0][0])
    np.testing.assert_array_equal(ds.m[row], pot.mediators[1][row])
    cell = (int(pot.a_y[row]), int(pot.a_m[row]))
    assert ds.y[row] == pot.outcomes[cell][row]


def test_generation_is_deterministic():
    cfg = SimConfig(n=200, a_y_model=1, reps=1, master_seed=12)
    a = generate_dataset(cfg, 0)
    b = generate_dataset(cfg, 0)
    np.testing.assert_array_equal(a.y, b.y)
    np.testing.assert_array_equal(a.m, b.m)
    c = generate_dataset(cfg, 1)
    assert not np.array_equal(a.y, c.y)


def test_assignment_models():
    cfg1 = SimConfig(n=60000, a_y_model=1, reps=1, master_seed=6)
    pot1 = draw_potentials(cfg1, 0)
    from scipy.stats import binom
    from scipy.special import expit

    expected = sum(binom.pmf(k, 5, 0.5) * expit(-0.5 + 0.1 * k) for k in range(6))
    assert abs(pot1.a_m.mean() - expected) < 0.01
    # model 1 draws both arms from the same covariate model
    assert abs(pot1.a_y.mean() - expected) < 0.01

    cfg2 = SimConfig(n=60000, a_y_model=2, reps=1, master_seed=6)
    pot2 = draw_potentials(cfg2, 0)
    assert abs(pot2.a_y.mean() - 0.5) < 0.01


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(n=50, reps=1)
    with pytest.raises(ValueError):
        SimConfig(a_y_model=3, reps=1)
    with pytest.raises(ValueError):
        SimConfig(reps=0)
    with pytest.raises(ValueError):
        SimConfig(reps=1, estimators=("sde_four", "mystery"))
    for field, value in (
        ("n", 2000.0), ("reps", 2.5), ("a_y_model", True),
        ("master_seed", True), ("master_seed", 1.5),
    ):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SimConfig(**({"reps": 1} | {field: value}))


@pytest.mark.parametrize(
    "estimators, message",
    [((), "must name at least one"), (("sde_four", "sie_two", "sde_four"), "must not repeat")],
)
def test_sim_config_refuses_empty_or_repeated_estimators(estimators, message):
    with pytest.raises(ValueError, match=f"estimators {message}"):
        SimConfig(reps=1, estimators=estimators)


@pytest.mark.parametrize("estimators", ["sde_four", ["sde_four"], ("sde_four", 1)])
def test_sim_config_refuses_estimators_that_are_not_a_tuple_of_names(estimators):
    """A string is not read one letter at a time, and a list, which would
    leave the frozen record unhashable, is refused like any non-tuple."""
    with pytest.raises(ValueError, match="^estimators must be a tuple of names"):
        SimConfig(reps=1, estimators=estimators)


@pytest.mark.parametrize(
    "field, value",
    [
        ("splits", 0), ("k_folds", 1), ("alpha", 0.0), ("clip", 0.6),
        ("strategy", "bogus"), ("threads", 0), ("threads", -3),
        ("splits", True), ("k_folds", 2.5), ("threads", True), ("threads", 1.0),
        pytest.param("threads", (os.cpu_count() or 1) + 1, id="threads-above-cpus"),
    ],
)
def test_sim_config_applies_the_estimator_rules(field, value):
    """Bad estimator settings fail when the study is configured, not once
    per replication.  An explicit ``threads`` is checked against the CPUs
    this process may use; only configs are built."""
    with pytest.raises(ValueError, match=field):
        SimConfig(reps=1, **{field: value})


@pytest.mark.parametrize(
    "value", [float("nan"), float("inf"), -np.inf, True, np.bool_(False), "x", [0.5]]
)
def test_sim_config_refuses_a_violation_that_is_not_a_finite_number(value):
    with pytest.raises(ValueError, match="violation must be a finite number"):
        SimConfig(reps=1, violation=value)


@pytest.mark.parametrize("value", [None, 0, 0.5, -2, np.float64(0.25), np.int64(1)])
def test_sim_config_takes_a_finite_violation_or_none(value):
    assert SimConfig(reps=1, violation=value).violation == value


def test_sim_config_refuses_an_unknown_learner_preset():
    with pytest.raises(LearnerError, match="unknown learner preset 'bogus'"):
        SimConfig(reps=1, learner="bogus")


def test_estimator_config_for():
    glm = estimator_config_for("glm", seed=1)
    assert glm.outcome.kind == "glm"
    assert glm.propensity == LearnerSpec(kind="glm", basis="main")
    assert glm.keep_eif is False
    rf = estimator_config_for("rf", seed=1)
    assert rf.propensity == rf.outcome
    assert glm.diagnostics is False and rf.diagnostics is False
    # every other setting passes through; EstimatorConfig's defaults fill the rest
    traced = estimator_config_for("glm", seed=1, splits=2, strategy="T", diagnostics=True)
    assert traced == EstimatorConfig(
        outcome=glm.outcome, propensity=glm.propensity, seed=1, splits=2,
        strategy="T", keep_eif=False, diagnostics=True,
    )
    assert glm == EstimatorConfig(
        outcome=glm.outcome, propensity=glm.propensity, seed=1, keep_eif=False
    )


def test_run_monte_carlo_small():
    cfg = SimConfig(n=300, a_y_model=1, reps=3, master_seed=5)
    report = run_monte_carlo(cfg)
    assert [row.estimator for row in report.rows] == list(ESTIMATOR_NAMES)
    for row in report.rows:
        assert row.reps == 3
        assert row.failures == 0
        assert np.isfinite(row.bias) and np.isfinite(row.rmse)
        assert 0.0 <= row.coverage <= 1.0
        assert row.rmse >= abs(row.bias)
    payload = report.to_json_dict()
    assert payload["truth"]["sde_four"] == 2.0
    assert payload["rows"][0]["bias_x100"] == pytest.approx(100 * report.rows[0].bias)
    assert payload["config"]["n"] == 300


def test_run_monte_carlo_estimator_subset():
    cfg = SimConfig(n=300, a_y_model=2, reps=2, master_seed=5,
                    estimators=("sde_four", "sie_two"))
    report = run_monte_carlo(cfg)
    assert [row.estimator for row in report.rows] == ["sde_four", "sie_two"]
    meta = {row.estimator: row for row in report.rows}
    assert meta["sde_four"].design == "four-arm"
    assert meta["sie_two"].design == "two-arm"


def test_run_monte_carlo_reproducible():
    cfg = SimConfig(n=300, a_y_model=1, reps=2, master_seed=8,
                    estimators=("sde_four",))
    a = run_monte_carlo(cfg)
    b = run_monte_carlo(cfg)
    assert a.rows[0].bias == b.rows[0].bias
    assert a.rows[0].rmse == b.rows[0].rmse


def test_run_falsification_study_small():
    cfg = SimConfig(n=400, a_y_model=1, reps=2, master_seed=7)
    report = run_falsification_study(cfg)
    tests = [(row.test, row.mediator, row.fixed_level) for row in report.rows]
    assert ("H0(i)", 0, None) in tests
    assert ("H0(i)", 1, None) in tests
    assert ("H0(ii)", None, None) in tests
    assert ("indirect-SDE", None, 0) in tests
    assert ("indirect-SIE", None, 1) in tests
    for row in report.rows:
        assert 0.0 <= row.rejection_rate <= 1.0
        assert row.failures == 0


# With 48 folds at n = 100, replications 2 and 3 have fewer two-arm rows
# than folds, so their two-arm family and indirect tests fail.
SOME_FAIL = SimConfig(n=100, reps=4, master_seed=1, k_folds=48, splits=1)
# At the default 2 folds some logistic fits separate their labels and warn.
SEPARATES = SimConfig(n=100, reps=4, master_seed=1)
# At this size a second BLAS thread moves the last bits of the fits.
LARGE = SimConfig(n=60000, reps=2, master_seed=1, splits=1)


@pool_path
@pytest.mark.parametrize("study", [run_monte_carlo, run_falsification_study])
@pytest.mark.parametrize(
    "cfg", [SOME_FAIL, SEPARATES, LARGE], ids=["some-fail", "separates", "n60000"]
)
def test_workers_give_the_rows_and_warnings_of_one_process(study, cfg):
    """Rows bit for bit, and the replications' warnings in order."""
    assert sepfx.fanout.processes(cfg.reps, 2) == 2
    runs = []
    for threads in (1, 2):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rows = study(replace(cfg, threads=threads)).rows
        runs.append((
            json.dumps([row.to_json_dict() for row in rows]),
            [(w.category, str(w.message)) for w in caught],
        ))
    assert runs[1] == runs[0]
    if cfg is SOME_FAIL:
        assert 0 < max(row.failures for row in rows) < cfg.reps
    if cfg is SEPARATES:
        assert runs[0][1]


@pool_path
def test_a_study_gives_the_caller_back_its_blas_threads():
    get, put = sepfx.fanout.blas_thread_calls()
    before = get()
    try:
        put(2)
        run_falsification_study(replace(SOME_FAIL, threads=2))
        assert get() == 2
    finally:
        put(before)


def test_one_replication_runs_in_this_process_under_one_blas_thread(monkeypatch):
    """So an in-process tracer sees every span of a one-replication study."""
    seen = []
    draw = sepfx.simulation.generate_dataset

    def recording_draw(cfg, rep):
        seen.append((os.getpid(), blas_threads()))
        return draw(cfg, rep)

    monkeypatch.setattr(sepfx.simulation, "generate_dataset", recording_draw)
    before = blas_threads()
    run_monte_carlo(SimConfig(n=300, reps=1, estimators=("sde_four",)))
    assert seen == [(os.getpid(), None if before is None else 1)]
    assert blas_threads() == before


# Two workers split five replications into the caller's share (0, 2, 4)
# and one child's (1, 3).
FIVE = SimConfig(n=300, reps=5, master_seed=3, estimators=("sde_four",))


@pool_path
def test_the_caller_runs_share_zero_under_one_blas_thread(monkeypatch):
    one = [row.to_json_dict() for row in run_monte_carlo(replace(FIVE, threads=1)).rows]
    caller, seen = os.getpid(), []
    draw = sepfx.simulation.generate_dataset

    def recording_draw(cfg, rep):
        if os.getpid() == caller:
            seen.append((rep, blas_threads()))
        return draw(cfg, rep)

    monkeypatch.setattr(sepfx.simulation, "generate_dataset", recording_draw)
    rows = run_monte_carlo(replace(FIVE, threads=2)).rows
    assert seen == [(0, 1), (2, 1), (4, 1)]
    assert [row.to_json_dict() for row in rows] == one
    assert_no_process_left()


@pool_path
@pytest.mark.parametrize(
    "failing, raised",
    [((2,), 2), ((3,), 3), ((2, 3), 2), ((1, 4), 1), ((1, 3), 1)],
    ids=["caller", "child", "caller-lower", "child-lower", "child-twice"],
)
def test_the_lowest_failing_replication_raises_in_the_caller(monkeypatch, failing, raised):
    """As ``ProcessPoolExecutor.map`` did, whichever share the errors come
    from, and no study leaves a process behind."""
    draw = sepfx.simulation.generate_dataset

    def failing_draw(cfg, rep):
        if rep in failing:
            raise RuntimeError(f"replication {rep} broke")
        return draw(cfg, rep)

    monkeypatch.setattr(sepfx.simulation, "generate_dataset", failing_draw)
    with pytest.raises(RuntimeError, match=rf"^replication {raised} broke$"):
        run_monte_carlo(replace(FIVE, threads=2))
    assert_no_process_left()


@pool_path
def test_a_child_that_exits_without_its_share_fails_the_study(monkeypatch):
    caller = os.getpid()
    draw = sepfx.simulation.generate_dataset

    def exiting_draw(cfg, rep):
        if os.getpid() != caller:
            os._exit(3)
        return draw(cfg, rep)

    monkeypatch.setattr(sepfx.simulation, "generate_dataset", exiting_draw)
    with pytest.raises(RuntimeError, match="exited with code 3 before it sent"):
        run_falsification_study(replace(FIVE, threads=2))
    assert_no_process_left()


def test_failing_family_fails_only_its_own_estimators(monkeypatch):
    def broken(*args, **kwargs):
        raise EmptySubset("no agreeing rows")

    monkeypatch.setattr(sepfx.simulation, "estimate_effects_two", broken)
    report = run_monte_carlo(SimConfig(n=300, reps=2))
    failures = {row.estimator: row.failures for row in report.rows}
    assert failures == {
        "sde_four": 0, "sie_four": 0, "sde_two": 2, "sie_two": 2,
        "sde_agreement": 0, "sie_agreement": 0,
    }
    two = [row for row in report.rows if row.estimator.endswith("_two")]
    assert all(np.isnan(row.bias) and np.isnan(row.coverage) for row in two)


def test_failing_indirect_battery_fails_only_the_indirect_rows(monkeypatch):
    def broken(*args, **kwargs):
        raise EmptySubset("no agreeing rows")

    monkeypatch.setattr(sepfx.simulation, "indirect_test_battery", broken)
    report = run_falsification_study(SimConfig(n=300, reps=2))
    failures = {(row.test, row.mediator, row.fixed_level): row.failures for row in report.rows}
    assert failures == {
        ("H0(i)", 0, None): 0, ("H0(i)", 1, None): 0, ("H0(ii)", None, None): 0,
        ("indirect-SDE", None, 0): 2, ("indirect-SDE", None, 1): 2,
        ("indirect-SIE", None, 0): 2, ("indirect-SIE", None, 1): 2,
    }


def test_rows_carry_their_family_metadata_and_truth():
    cfg = SimConfig(n=300, reps=1, a_y_model=1, sde_level=0)
    report = run_monte_carlo(cfg)
    truth = true_effects(cfg)
    meta = {
        row.estimator: (row.estimand, row.fixed_level, row.design, row.population)
        for row in report.rows
    }
    assert meta == {
        "sde_four": ("sde", 0, "four-arm", "four-arm"),
        "sie_four": ("sie", 1, "four-arm", "four-arm"),
        "sde_two": ("sde", 0, "two-arm", "two-arm"),
        "sie_two": ("sie", 1, "two-arm", "two-arm"),
        "sde_agreement": ("sde", 0, "four-arm", "two-arm"),
        "sie_agreement": ("sie", 1, "four-arm", "two-arm"),
    }
    # the agreement family is scored against the two-arm population's truth
    config = sepfx.simulation._rep_config(cfg, 0)
    point = estimate_agreement_effects(generate_dataset(cfg, 0), [("sde", 0)], config)[0].point
    row = next(row for row in report.rows if row.estimator == "sde_agreement")
    assert truth.sde_two != truth.sde_four
    assert row.bias == float(np.asarray([point]).mean() - truth.sde_two)
    assert row.rmse == abs(row.bias)


def estimates_one_by_one(cfg, rep, estimators=ESTIMATOR_NAMES) -> dict:
    """``_simulate_one``'s result from the three estimators called alone."""
    ds = generate_dataset(cfg, rep)
    config = sepfx.simulation._rep_config(cfg, rep)
    runs = {
        "four": lambda reqs: estimate_effects_four(ds, reqs, config),
        "agreement": lambda reqs: estimate_agreement_effects(ds, reqs, config),
        "two": lambda reqs: estimate_effects_two(restrict_to_two_arm(ds), reqs, config),
    }
    out = {}
    for family, run in runs.items():
        kinds = [kind for kind in ("sde", "sie") if f"{kind}_{family}" in estimators]
        if kinds:
            for est in run([(kind, getattr(cfg, f"{kind}_level")) for kind in kinds]):
                out[f"{est.estimand}_{family}"] = (est.point, est.ci[0], est.ci[1])
    return out


@pytest.mark.parametrize(
    "settings",
    [
        {},
        # the two families need different cells: (1, 0)/(0, 0) and (1, 1)/(1, 0)
        {"estimators": ("sde_four", "sie_agreement"), "sde_level": 0},
    ],
)
def test_shared_fits_leave_every_replication_bit_identical(settings):
    """The four-arm and agreement families are scored in one pass per split;
    every number equals that of the estimators called one by one."""
    cfg = SimConfig(n=300, reps=3, master_seed=4, **settings)
    for rep in range(cfg.reps):
        expected = estimates_one_by_one(cfg, rep, cfg.estimators)
        assert sepfx.simulation._simulate_one(cfg, rep) == expected


def test_one_pass_over_forest_bundles_equals_the_lone_estimators(monkeypatch):
    """Forest bundles are shared too: the joint pass fits one bundle per
    fold, half of what the two estimators fit alone, and its estimates
    equal theirs bit for bit.  One process runs both splits, so the patch
    counts every fit."""
    ds = generate_dataset(SimConfig(n=400, reps=1, master_seed=2), 0)
    forest = LearnerSpec(kind="random_forest", trees=20, seed=5)
    config = EstimatorConfig(
        outcome=forest, propensity=forest, splits=2, seed=5, keep_eif=False, threads=1
    )
    families = {
        "four": [Estimand("sde", 1), Estimand("sie", 1)],
        "agreement": [Estimand("sde", 0), Estimand("sie", 1)],
    }
    real_fit = sepfx.four_arm.fit_nuisance_four
    fits = []

    def counting_fit(*args):
        fits.append(args[1])
        return real_fit(*args)

    monkeypatch.setattr(sepfx.four_arm, "fit_nuisance_four", counting_fit)
    joint = sepfx.simulation._estimate_families(ds, families, config)
    assert len(fits) == config.splits * config.k_folds
    assert joint == {
        "four": estimate_effects_four(ds, families["four"], config),
        "agreement": estimate_agreement_effects(ds, families["agreement"], config),
    }


def test_a_redraw_moves_both_families_together(monkeypatch):
    """One pass per split serves both families, so a degenerate first
    partition is redrawn for both: they draw attempt 1 of split 0, and each
    equals its lone estimator under the same forced failure."""
    cfg = SimConfig(
        n=300, reps=1,
        estimators=("sde_four", "sie_four", "sde_agreement", "sie_agreement"),
    )
    config = sepfx.simulation._rep_config(cfg, 0)
    unforced = sepfx.simulation._simulate_one(cfg, 0)
    draws = []
    real_make_folds = sepfx.crossfit.make_folds

    def recording_make_folds(n, k, seed):
        draws.append(seed)
        return real_make_folds(n, k, seed)

    real_fit = sepfx.four_arm.fit_nuisance_four
    failed = []

    def fit_failing_once(*args):
        if not failed:
            failed.append(True)
            raise MissingCell("no training rows in arm cell (1, 1)")
        return real_fit(*args)

    monkeypatch.setattr(sepfx.crossfit, "make_folds", recording_make_folds)
    monkeypatch.setattr(sepfx.four_arm, "fit_nuisance_four", fit_failing_once)
    shared = sepfx.simulation._simulate_one(cfg, 0)
    seed = {(s, a): derive_seed(config.seed, "folds", s, a) for s in range(3) for a in (0, 1)}
    assert draws == [seed[0, 0], seed[0, 1], seed[1, 0], seed[2, 0]]
    alone = {}
    for family in ("four", "agreement"):
        failed.clear()
        alone.update(estimates_one_by_one(cfg, 0, (f"sde_{family}", f"sie_{family}")))
    assert shared == alone
    assert shared != unforced


def test_a_shared_pass_failure_fails_both_families(monkeypatch):
    """A split that cannot be fit fails the four-arm and agreement families
    together; the two-arm family fits its own bundles and survives."""
    cfg = SimConfig(n=300, reps=1)

    def no_fit(*args):
        raise MissingCell("no training rows in arm cell (1, 1)")

    monkeypatch.setattr(sepfx.four_arm, "fit_nuisance_four", no_fit)
    out = sepfx.simulation._simulate_one(cfg, 0)
    shared = ("sde_four", "sie_four", "sde_agreement", "sie_agreement")
    assert out == {
        **dict.fromkeys(shared),
        **estimates_one_by_one(cfg, 0, ("sde_two", "sie_two")),
    }


def test_a_family_whose_standard_error_fails_fails_alone(monkeypatch):
    """A standard error refused for one family's estimates leaves the
    other family's estimates from the same pass."""
    cfg = SimConfig(n=300, reps=1, estimators=("sde_four", "sde_agreement"))
    real_build = sepfx.simulation.build_estimates

    def refuse_agreement(combined, estimands, **kwargs):
        if kwargs["family"] == "agreement":
            raise DegenerateEstimate("standard error is 0.0")
        return real_build(combined, estimands, **kwargs)

    monkeypatch.setattr(sepfx.simulation, "build_estimates", refuse_agreement)
    out = sepfx.simulation._simulate_one(cfg, 0)
    assert out == {"sde_agreement": None, **estimates_one_by_one(cfg, 0, ("sde_four",))}


def test_no_agreeing_rows_fails_only_the_families_on_agreeing_rows():
    """With every row's treatments disagreeing, the agreement and two-arm
    families fail before any fit and the four-arm family still estimates
    its mean."""
    ds = generate_dataset(SimConfig(n=400, reps=1), 0)
    disagree = FourArmDataset(
        y=ds.y, a_y=1 - ds.a_m, a_m=ds.a_m, m=ds.m, x=ds.x,
        outcome_name="y", a_y_name="aY", a_m_name="aM",
        mediator_names=ds.mediator_names, covariate_names=ds.covariate_names,
    )
    config = EstimatorConfig(splits=1, keep_eif=False)
    families = {
        "four": [Estimand("mean", (0, 1))],
        "agreement": [Estimand("sde", 1)],
        "two": [Estimand("sde", 1)],
    }
    out = sepfx.simulation._estimate_families(disagree, families, config)
    assert out == {
        "agreement": None,
        "four": estimate_effects_four(disagree, families["four"], config),
        "two": None,
    }
