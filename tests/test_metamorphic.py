"""Metamorphic relations of the estimator contract (Chen et al. 2018,
*ACM Computing Surveys* 51(1)): a transformation of the data with a known
effect on every estimate.  Each relation compares two runs on the same
seeded draw and folds, to a relative tolerance of 1e-9."""

from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sepfx.data import restrict_to_two_arm
from sepfx.errors import DegenerateEstimate
from sepfx.estimation import EstimatorConfig
from sepfx.falsification import (
    direct_test_h0i,
    direct_test_h0ii,
    estimate_agreement_effects,
    indirect_test_battery,
)
from sepfx.four_arm import estimate_effects_four
from sepfx.learners import LearnerSpec
from sepfx.simulation import SimConfig, generate_dataset
from sepfx.two_arm import estimate_effects_two

RTOL = 1e-9
REQUESTS = [("sde", 0), ("sde", 1), ("sie", 0), ("sie", 1)]
DEFAULT = EstimatorConfig(seed=3, splits=2)
# A ridge penalty is not invariant to re-parametrising the design, so the
# relations that flip a treatment or add a constant column hold unpenalised.
UNPENALISED = replace(
    DEFAULT,
    outcome=LearnerSpec(ridge=0.0),
    propensity=LearnerSpec(basis="main", ridge=0.0),
)


@pytest.fixture(scope="module")
def ds():
    return generate_dataset(SimConfig(n=400, master_seed=5), 0)


def run_all(ds, config, families=("four", "agreement", "two"), indirect=True) -> tuple:
    """``({(family, estimand, level): estimate}, {(estimand, level): test})``;
    the second dict is empty without ``indirect``."""
    runs = {
        "four": lambda: estimate_effects_four(ds, REQUESTS, config),
        "agreement": lambda: estimate_agreement_effects(ds, REQUESTS, config),
        "two": lambda: estimate_effects_two(restrict_to_two_arm(ds), REQUESTS, config),
    }
    estimates = {
        (family, est.estimand, est.fixed_level): est
        for family in families
        for est in runs[family]()
    }
    tests = {}
    if indirect:
        tests = {
            (t.test.removeprefix("indirect-").lower(), t.fixed_level): t
            for t in indirect_test_battery(ds, config)
        }
    return estimates, tests


@pytest.fixture(scope="module")
def base_runs(ds):
    return run_all(ds, DEFAULT)


def direct_statistics(ds) -> list:
    tests = [direct_test_h0i(ds, mediator_index=j) for j in range(ds.n_mediators)]
    return [test.statistic for test in tests + [direct_test_h0ii(ds)]]


def flipped(ds, a_y=True, a_m=True):
    return replace(
        ds,
        a_y=1 - ds.a_y if a_y else ds.a_y,
        a_m=1 - ds.a_m if a_m else ds.a_m,
    )


def test_an_affine_outcome_scales_every_contrast(ds):
    """y -> 3y + 5 maps contrasts and SEs to 3x; indirect statistics and
    p-values are unchanged."""
    base, base_tests = run_all(ds, DEFAULT)
    moved, moved_tests = run_all(replace(ds, y=3.0 * ds.y + 5.0), DEFAULT)
    for key, est in base.items():
        assert_allclose(
            [moved[key].point, moved[key].se], [3.0 * est.point, 3.0 * est.se], rtol=RTOL
        )
    for key, test in base_tests.items():
        assert_allclose(
            [moved_tests[key].statistic, moved_tests[key].p_value],
            [test.statistic, test.p_value],
            rtol=RTOL,
        )


# model 1 draws 5 covariates and 2 mediators
@pytest.mark.parametrize("c", [1e-4, 1e-2, 1e2, 1e4])
@pytest.mark.parametrize("block, column", [("x", j) for j in range(5)] + [("m", 0), ("m", 1)])
def test_rescaling_a_covariate_or_mediator_column_changes_nothing(ds, base_runs, block, column, c):
    """With the default penalty, x_j -> c * x_j or m_j -> c * m_j leaves
    every family's points and SEs, both direct tests' statistics and every
    indirect statistic unchanged: the ridge penalizes each GLM coefficient
    on its column's standardized scale (Hoerl & Kennard 1970)."""
    values = getattr(ds, block).copy()
    values[:, column] *= c
    moved = replace(ds, **{block: values})
    base, base_tests = base_runs
    got, got_tests = run_all(moved, DEFAULT)
    for key, est in base.items():
        assert_allclose([got[key].point, got[key].se], [est.point, est.se], rtol=RTOL)
    for key, test in base_tests.items():
        assert_allclose(got_tests[key].statistic, test.statistic, rtol=RTOL)
    assert_allclose(direct_statistics(moved), direct_statistics(ds), rtol=RTOL)


def test_flipping_both_treatments_mirrors_the_levels(ds):
    """Unpenalised, flipping aY and aM maps each family's sde(l) and sie(l)
    to minus the same contrast at 1 - l with an equal SE, and each
    indirect statistic at l to minus the statistic at 1 - l.  Agreement
    is unchanged, so the relation holds for every family."""
    base, base_tests = run_all(ds, UNPENALISED)
    moved, moved_tests = run_all(flipped(ds), UNPENALISED)
    for (family, kind, level), est in base.items():
        mirror = moved[family, kind, 1 - level]
        assert_allclose([mirror.point, mirror.se], [-est.point, est.se], rtol=RTOL)
    for (kind, level), test in base_tests.items():
        assert_allclose(moved_tests[kind, 1 - level].statistic, -test.statistic, rtol=RTOL)


def test_flipping_the_outcome_channel_negates_the_four_arm_direct_effect(ds):
    """Unpenalised, flipping aY alone maps the four-arm sde(l) to -sde(l)
    and sie(l) to sie(1 - l).  It changes which rows agree, so the
    agreement and two-arm families have no such relation."""
    base, _ = run_all(ds, UNPENALISED, ("four",), indirect=False)
    moved, _ = run_all(flipped(ds, a_m=False), UNPENALISED, ("four",), indirect=False)
    for (family, kind, level), est in base.items():
        if kind == "sde":
            expected, image = -est.point, moved[family, kind, level]
        else:
            expected, image = est.point, moved[family, kind, 1 - level]
        assert_allclose([image.point, image.se], [expected, est.se], rtol=RTOL)


@pytest.mark.parametrize("robust", [False, True], ids=["classical", "hc1"])
def test_a_mediator_offset_leaves_the_direct_tests(ds, robust):
    """m + 1e6 leaves the H0(i) and H0(ii) statistics unchanged."""
    moved = replace(ds, m=ds.m + 1e6)
    tests = [
        lambda data, j=j: direct_test_h0i(data, mediator_index=j, robust=robust)
        for j in range(ds.n_mediators)
    ]
    tests.append(lambda data: direct_test_h0ii(data, robust=robust))
    for test in tests:
        assert_allclose(test(moved).statistic, test(ds).statistic, rtol=RTOL)


def test_a_constant_covariate_changes_no_estimate(ds):
    """Unpenalised, a constant covariate column leaves every family's points
    and SEs and every indirect statistic unchanged, and makes both direct
    tests' designs singular."""
    moved = replace(
        ds,
        x=np.column_stack([ds.x, np.ones(ds.n)]),
        covariate_names=ds.covariate_names + ("const",),
    )
    base, base_tests = run_all(ds, UNPENALISED)
    widened, widened_tests = run_all(moved, UNPENALISED)
    for key, est in base.items():
        assert_allclose([widened[key].point, widened[key].se], [est.point, est.se], rtol=RTOL)
    for key, test in base_tests.items():
        assert_allclose(widened_tests[key].statistic, test.statistic, rtol=RTOL)
    with pytest.raises(DegenerateEstimate, match=r"^H0\(i\): design matrix is rank deficient"):
        direct_test_h0i(moved)
    with pytest.raises(DegenerateEstimate, match=r"^H0\(ii\): design matrix is rank deficient"):
        direct_test_h0ii(moved)
