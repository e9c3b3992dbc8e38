import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepfx import crossfit, falsification, four_arm, two_arm
from sepfx.data import FourArmDataset, restrict_to_two_arm
from sepfx.errors import DegenerateEstimate, MissingCell
from sepfx.estimation import Estimand, EstimatorConfig, estimand_cells, run_battery
from sepfx.fanout import usable_cpus
from sepfx.falsification import estimate_agreement_effects, indirect_test_battery
from sepfx.four_arm import estimate_effects_four
from sepfx.seeding import derive_seed
from sepfx.simulation import SimConfig, generate_dataset
from sepfx.two_arm import estimate_effects_two


def _scores():
    # distinct powers of two per cell, so every contrast is exact
    return {
        (0, 0): np.array([1.0, 2.0]),
        (0, 1): np.array([4.0, 8.0]),
        (1, 0): np.array([16.0, 32.0]),
        (1, 1): np.array([64.0, 128.0]),
    }


@pytest.mark.parametrize(
    "request_, cells, expected, fixed_level",
    [
        (("sde", 0), ((1, 0), (0, 0)), [15.0, 30.0], 0),
        (("sde", 1), ((1, 1), (0, 1)), [60.0, 120.0], 1),
        (("sie", 0), ((0, 1), (0, 0)), [3.0, 6.0], 0),
        (("sie", 1), ((1, 1), (1, 0)), [48.0, 96.0], 1),
        (("mean", (1, 0)), ((1, 0),), [16.0, 32.0], [1, 0]),
        (("mean", [0, 1]), ((0, 1),), [4.0, 8.0], [0, 1]),
    ],
)
def test_estimand_cells_and_contrast(request_, cells, expected, fixed_level):
    est = Estimand(*request_)
    assert est.cells() == cells
    np.testing.assert_array_equal(est.contrast(_scores()), expected)
    assert est.fixed_level == fixed_level


def test_estimand_is_its_request_tuple():
    est = Estimand("sde", 1)
    assert est == ("sde", 1)
    assert hash(est) == hash(("sde", 1))
    assert {("sde", 1): "x"}[est] == "x"


def test_estimand_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown estimand kind 'nde'"):
        Estimand("nde", 1).cells()
    with pytest.raises(ValueError):
        estimate_effects_four(
            generate_dataset(SimConfig(n=200, reps=1), 0), [("nde", 1)]
        )


# Each call asks for a treatment level or mediator outside the data's range.
OUT_OF_RANGE = {
    "two-arm-sde-2": lambda ds: estimate_effects_two(restrict_to_two_arm(ds), [("sde", 2)]),
    "four-arm-sde-2": lambda ds: estimate_effects_four(ds, [("sde", 2)]),
    "four-arm-sie-minus-1": lambda ds: estimate_effects_four(ds, [("sie", -1)]),
    "four-arm-mean-one-level": lambda ds: estimate_effects_four(ds, [("mean", (1,))]),
    "two-arm-mean-bare-level": lambda ds: estimate_effects_two(
        restrict_to_two_arm(ds), [("mean", 1)]
    ),
    "agreement-mean-1-2": lambda ds: estimate_agreement_effects(ds, [("mean", (1, 2))]),
    "indirect-sie-2": lambda ds: indirect_test_battery(ds, requests=[("sie", 2)]),
    "sim-config-sde-level-2": lambda ds: SimConfig(reps=1, sde_level=2),
    "sim-config-sie-level-minus-1": lambda ds: SimConfig(reps=1, sie_level=-1),
    "h0i-mediator-minus-1": lambda ds: falsification.direct_test_h0i(ds, mediator_index=-1),
    "h0i-mediator-past-the-end": lambda ds: falsification.direct_test_h0i(
        ds, mediator_index=ds.n_mediators
    ),
    # a bool passes as 0 or 1 and a whole float as an integer unless refused
    "four-arm-sde-true": lambda ds: estimate_effects_four(ds, [("sde", True)]),
    "four-arm-sie-one-point-zero": lambda ds: estimate_effects_four(ds, [("sie", 1.0)]),
    "two-arm-sde-false": lambda ds: estimate_effects_two(restrict_to_two_arm(ds), [("sde", False)]),
    "agreement-mean-true-0": lambda ds: estimate_agreement_effects(ds, [("mean", (True, 0))]),
    "indirect-sie-true": lambda ds: indirect_test_battery(ds, requests=[("sie", True)]),
    "sim-config-sie-level-true": lambda ds: SimConfig(reps=1, sie_level=True),
    "h0i-mediator-true": lambda ds: falsification.direct_test_h0i(ds, mediator_index=True),
    "h0i-mediator-one-point-zero": lambda ds: falsification.direct_test_h0i(
        ds, mediator_index=1.0
    ),
    # an empty request list asks for nothing, so no fit is made for it
    "four-arm-no-request": lambda ds: estimate_effects_four(ds, []),
    "agreement-no-request": lambda ds: estimate_agreement_effects(ds, []),
    "two-arm-no-request": lambda ds: estimate_effects_two(restrict_to_two_arm(ds), []),
    "indirect-no-request": lambda ds: indirect_test_battery(ds, requests=[]),
}


@pytest.mark.parametrize("case", list(OUT_OF_RANGE))
def test_out_of_range_levels_fail_before_any_fit(case, monkeypatch):
    ds = generate_dataset(SimConfig(n=200, reps=1), 0)

    def no_fit(*args, **kwargs):
        raise AssertionError("a model was fit before the request was checked")

    for module, name in (
        (four_arm, "fit_nuisance_four"),
        (two_arm, "fit_nuisance_two"),
        (four_arm, "fit_nuisance_theta"),
        (falsification, "fit_ols"),
    ):
        monkeypatch.setattr(module, name, no_fit)
    with pytest.raises(
        ValueError, match="level must be 0 or 1|mediator_index must be|request list is empty"
    ):
        OUT_OF_RANGE[case](ds)


# Each call takes a numpy integer where a Python one is usual, and returns a
# record whose JSON should hold the plain number: (record, field, value).
NUMPY_INTEGERS = {
    "h0i-mediator": lambda ds: (
        falsification.direct_test_h0i(ds, mediator_index=np.int64(1)), "mediator", 1
    ),
    "four-arm-sde-level": lambda ds: (
        estimate_effects_four(ds, [("sde", np.int64(1))])[0], "fixed_level", 1
    ),
    "four-arm-mean-level": lambda ds: (
        estimate_effects_four(ds, [("mean", (np.int64(1), np.int64(0)))])[0],
        "fixed_level", [1, 0],
    ),
    "sim-config-n": lambda ds: (SimConfig(n=np.int64(300), reps=1), "n", 300),
}


@pytest.mark.parametrize("case", list(NUMPY_INTEGERS))
def test_numpy_integers_become_json_numbers(case):
    record, name, value = NUMPY_INTEGERS[case](generate_dataset(SimConfig(n=200, reps=1), 0))
    text = json.dumps(record.to_json_dict())
    assert json.loads(text)[name] == value


def test_estimand_cells_are_shared_in_request_order():
    estimands = [Estimand("sde", 1), Estimand("sie", 1), Estimand("mean", (0, 1))]
    assert estimand_cells(estimands) == ((1, 1), (0, 1), (1, 0))


@pytest.fixture(scope="module")
def zero_outcome():
    ds = generate_dataset(SimConfig(n=400, reps=1), 0)
    return FourArmDataset(
        y=np.zeros(ds.n), a_y=ds.a_y, a_m=ds.a_m, m=ds.m, x=ds.x,
        outcome_name="y", a_y_name="aY", a_m_name="aM",
        mediator_names=ds.mediator_names, covariate_names=ds.covariate_names,
    )


def test_four_arm_estimate_rejects_zero_standard_error(zero_outcome):
    """Every score is exactly 0, so the interval would have zero width."""
    with pytest.raises(DegenerateEstimate, match="four-arm sde"):
        estimate_effects_four(zero_outcome, [("sde", 1)], EstimatorConfig(splits=1))


def test_two_arm_estimate_rejects_zero_standard_error(zero_outcome):
    with pytest.raises(DegenerateEstimate, match="two-arm sde"):
        estimate_effects_two(
            restrict_to_two_arm(zero_outcome), [("sde", 1)], EstimatorConfig(splits=1)
        )


def test_agreement_estimate_rejects_zero_standard_error(zero_outcome):
    with pytest.raises(DegenerateEstimate, match="four-arm sie"):
        estimate_agreement_effects(
            zero_outcome, [("sie", 1)], EstimatorConfig(splits=1)
        )


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(400, 1200),
    k_folds=st.sampled_from([2, 3, 5]),
    splits=st.integers(1, 3),
)
def test_agreement_equals_four_arm_when_all_rows_agree(seed, n, k_folds, splits):
    """Generalises acceptance criterion 5(d): with no disagreeing rows the
    agreement weight is exactly one, so the agreement-population mean of
    a diagonal cell is the four-arm mean."""
    full = generate_dataset(SimConfig(n=n, reps=1, master_seed=seed), 0)
    keep = np.nonzero(full.a_y == full.a_m)[0]
    ds = FourArmDataset(
        y=full.y[keep], a_y=full.a_y[keep], a_m=full.a_m[keep],
        m=full.m[keep], x=full.x[keep],
        outcome_name="y", a_y_name="aY", a_m_name="aM",
        mediator_names=full.mediator_names, covariate_names=full.covariate_names,
    )
    config = EstimatorConfig(k_folds=k_folds, splits=splits, seed=seed)
    requests = [("mean", (0, 0)), ("mean", (1, 1))]
    four = estimate_effects_four(ds, requests, config)
    agreement = estimate_agreement_effects(ds, requests, config)
    for f, a in zip(four, agreement):
        assert abs(f.point - a.point) < 1e-10
        assert abs(f.se - a.se) < 1e-10


def test_indirect_test_takes_contrasts_only():
    ds = generate_dataset(SimConfig(n=200, reps=1), 0)
    with pytest.raises(ValueError, match="sde and sie"):
        indirect_test_battery(ds, EstimatorConfig(splits=1), requests=[("mean", (1, 1))])


@pytest.mark.parametrize(
    "field, value",
    [
        ("splits", 0),
        ("k_folds", 1),
        ("alpha", 0.0),
        ("alpha", 1.0),
        ("clip", 0.0),
        ("clip", 0.5),
        ("clip", 0.6),
        ("strategy", "bogus"),
        ("splits", True),
        ("splits", 2.5),
        ("k_folds", True),
        ("k_folds", 2.0),
        ("seed", False),
        ("seed", 0.5),
        # a learner by name, or none, fails here, not later inside a fold
        ("outcome", "glm"),
        ("outcome", None),
        ("propensity", "glm"),
        ("propensity", None),
        # the worker count: None or 1 to the usable CPUs, never a bool or a fraction
        ("threads", 0),
        pytest.param("threads", usable_cpus() + 1, id="threads-above-cpus"),
        ("threads", True),
        ("threads", 1.5),
    ],
)
def test_estimator_config_rejects_bad_values(field, value):
    with pytest.raises(ValueError, match=field):
        EstimatorConfig(**{field: value})


# --- the split loop ------------------------------------------------------------

# Split s has point POINTS[s] and deviations DEVIATIONS[s].  The deviations
# do not average to zero: their mean squares are 5, 4, 1, 8, while their
# variances about their own means are 1, 0, 1, 4.
POINTS = (0.5, -1.0, 2.0, 0.25)
DEVIATIONS = ((1.0, 3.0), (2.0, 2.0), (-1.0, 1.0), (0.0, 4.0))


def _stub_split(split):
    return {
        "key": (
            POINTS[split],
            np.array(DEVIATIONS[split]),
            np.full(3, float(split)),
        ),
        "no-eif": (POINTS[split], np.array(DEVIATIONS[split]), None),
    }


@pytest.mark.parametrize(
    "splits, point, variance, eif_split",
    [
        # one split: its point, and its deviations' mean square (5, not 1)
        (1, 0.5, 5.0, 0.0),
        # median -0.25; adjusted 5 + 0.5625 and 4 + 0.5625; mean of both splits
        (2, -0.25, 5.0625, 0.5),
        # median 0.5 (split 0); adjusted 5, 4 + 2.25, 1 + 2.25
        (3, 0.5, 5.0, 0.0),
        # median 0.375, between splits 3 and 0; adjusted 5.015625, 5.890625,
        # 3.640625, 8.015625, whose median is 5.453125
        (4, 0.375, 5.453125, 1.5),
    ],
)
def test_run_battery_median_rule(splits, point, variance, eif_split):
    combined = run_battery(EstimatorConfig(splits=splits), _stub_split)
    result = combined["key"]
    assert result.point == point
    assert result.variance == variance
    np.testing.assert_array_equal(result.eif, np.full(3, eif_split))
    bare = combined["no-eif"]
    assert (bare.point, bare.variance) == (point, variance)
    assert bare.eif is None


@pytest.mark.parametrize("model", [1, 2])
def test_indirect_battery_is_agreement_minus_two_arm(model):
    """On one split the test statistic's estimate is the agreement-population
    point minus the two-arm point on the agreement rows."""
    ds = generate_dataset(SimConfig(n=600, a_y_model=model, reps=1, master_seed=2), 0)
    config = EstimatorConfig(splits=1, seed=7)
    tests = indirect_test_battery(ds, config)
    requests = [(test.test.split("-")[1].lower(), test.fixed_level) for test in tests]
    agreement = estimate_agreement_effects(ds, requests, config)
    two = estimate_effects_two(restrict_to_two_arm(ds), requests, config)
    for test, agree, two_arm in zip(tests, agreement, two):
        assert abs(test.estimate - (agree.point - two_arm.point)) <= 1e-12


def test_indirect_battery_sides_count_their_own_fold_redraws(monkeypatch):
    """A degenerate four-arm partition is redrawn without shifting the
    partition the two-arm side draws for the same split."""
    ds = generate_dataset(SimConfig(n=400, reps=1), 0)
    draws = []
    real_make_folds = crossfit.make_folds

    def recording_make_folds(n, k, seed):
        draws.append((n, seed))
        return real_make_folds(n, k, seed)

    real_fit = four_arm.fit_nuisance_theta
    failed = []

    def fit_failing_once(*args):
        if not failed:
            failed.append(True)
            raise MissingCell("no training rows in arm cell (1, 1)")
        return real_fit(*args)

    monkeypatch.setattr(crossfit, "make_folds", recording_make_folds)
    monkeypatch.setattr(four_arm, "fit_nuisance_theta", fit_failing_once)
    indirect_test_battery(ds, EstimatorConfig(splits=1, seed=3))
    seed = [derive_seed(3, "folds", 0, attempt) for attempt in (0, 1)]
    n_two = restrict_to_two_arm(ds).n
    assert draws == [(ds.n, seed[0]), (ds.n, seed[1]), (n_two, seed[0])]
