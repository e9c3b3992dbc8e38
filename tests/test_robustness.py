"""The estimators' robustness to one misspecified nuisance, pinned by
Monte Carlo legs.

The four-arm and agreement scores are doubly robust (Robins, Rotnitzky &
Zhao 1994; Bang & Robins 2005) and the two-arm nested score is multiply
robust (Tchetgen Tchetgen & Shpitser 2012): on a strongly confounded
design, an intercept-only outcome model with correct treatment models, or
intercept-only treatment models with a correct outcome model, leaves each
estimator nearly unbiased, where a plug-in of the wrong side alone is off
by about the whole effect.  Under a misspecified nuisance the score
variance is not the estimator's variance, so only the bias is asserted.
The design and the legs are ``scripts/robustness_pilot.py``'s, and the
bounds were frozen by it from a longer pilot.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BOUNDS = json.loads((ROOT / "tests" / "data" / "robustness_bounds.json").read_text())


@pytest.fixture(scope="module")
def pilot():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(ROOT / "scripts"))
        import robustness_pilot
    return robustness_pilot


@pytest.mark.parametrize("leg", sorted(BOUNDS["legs"]))
def test_one_wrong_nuisance_leaves_every_family_nearly_unbiased(pilot, leg):
    bias, _ = pilot.leg_table(leg, BOUNDS["test_reps"], BOUNDS["n"])
    bounds = BOUNDS["legs"][leg]
    assert sorted(bounds) == sorted(pilot.ESTIMATORS)
    for name, value in zip(pilot.ESTIMATORS, bias):
        assert abs(value) <= bounds[name]["bound"], (leg, name, value)
