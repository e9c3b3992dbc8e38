"""Byte-for-byte records of forest growth, of a forest super learner and
of forest estimates, stored in ``tests/golden/``.

Tree growth and the super learner's shared forests are meant to be exact,
so a change to either must leave these files as they are.  When a change
is meant to alter the numbers, regenerate the files with

    PYTHONPATH=src python tests/test_golden_forest.py

and say in the change why the bytes moved.  Floats are written by
``json`` as their shortest round-trip repr, so equal bytes mean equal
floats.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from sepfx.estimation import EstimatorConfig
from sepfx.falsification import indirect_test_battery
from sepfx.forest import fit_forest
from sepfx.four_arm import estimate_effects_four
from sepfx.learners import LearnerSpec, fit_super_learner
from sepfx.simulation import SimConfig, generate_dataset

GOLDEN = Path(__file__).resolve().parent / "golden"
TREE_FIELDS = ("feature", "threshold", "left", "right", "value")
SL_SEED = 4
SL_FORESTS = tuple(
    LearnerSpec(kind="random_forest", trees=t, mtry=2, min_leaf=3, seed=SL_SEED)
    for t in (1, 2, 3)
)


def task_data(task: str):
    """Rounded continuous features with ties for regression; binary
    features and labels for classification."""
    rng = np.random.default_rng(20 if task == "regression" else 21)
    n = 160
    if task == "regression":
        x = np.round(rng.normal(size=(n, 4)), 1)
        y = np.sin(x[:, 0]) + 0.5 * x[:, 1] * x[:, 2] + rng.normal(scale=0.3, size=n)
    else:
        x = rng.integers(0, 2, size=(n, 5)).astype(float)
        y = (rng.random(n) < 0.2 + 0.3 * x[:, 0] + 0.3 * x[:, 1] * x[:, 2]).astype(float)
    return x, y


def record_forest_trees() -> dict:
    out = {}
    for task, clip in (("regression", None), ("classification", 0.01)):
        x, y = task_data(task)
        forest = fit_forest(x, y, n_trees=3, mtry=2, min_leaf=3, seed=9, clip=clip)
        out[task] = [
            {name: getattr(tree, name).tolist() for name in TREE_FIELDS}
            for tree in forest.trees
        ]
    return out


def record_super_learner() -> dict:
    out = {}
    for task, clip in (("regression", None), ("classification", 0.01)):
        x, y = task_data(task)
        spec = LearnerSpec(kind="super_learner", candidates=SL_FORESTS, v_folds=3, seed=SL_SEED)
        sl = fit_super_learner(x[:120], y[:120], spec, clip=clip)
        out[task] = {
            "weights": sl.weights.tolist(),
            "cv_losses": sl.cv_losses.tolist(),
            "ensemble_cv_loss": sl.ensemble_cv_loss,
            "predictions": sl.predict(x[120:]).tolist(),
            "candidate_predictions": [fit.predict(x[120:]).tolist() for fit in sl.candidate_fits],
        }
    return out


def record_estimate_four_arm() -> list:
    ds = generate_dataset(SimConfig(n=300, reps=1), 0)
    spec = LearnerSpec(kind="super_learner", candidates=SL_FORESTS, seed=SL_SEED)
    cfg = EstimatorConfig(outcome=spec, propensity=spec, splits=1, diagnostics=True)
    estimates = estimate_effects_four(ds, [("sde", 1), ("sie", 1)], cfg)
    return [{**est.to_json_dict(), "eif": est.eif.tolist()} for est in estimates]


def record_falsify_indirect() -> list:
    """The indirect tests with plain forests, so both treatment models of
    the four-arm bundles, which give the agreement probability, are forests
    too."""
    ds = generate_dataset(SimConfig(n=300, reps=1), 0)
    spec = LearnerSpec(kind="random_forest", trees=3, mtry=2, min_leaf=3, seed=SL_SEED)
    cfg = EstimatorConfig(outcome=spec, propensity=spec, splits=2)
    return [result.to_json_dict() for result in indirect_test_battery(ds, cfg)]


RECORDS = {
    "forest_trees": record_forest_trees,
    "forest_super_learner": record_super_learner,
    "forest_estimate_four_arm": record_estimate_four_arm,
    "forest_falsify_indirect": record_falsify_indirect,
}


def render(name: str) -> bytes:
    return (json.dumps(RECORDS[name](), indent=1) + "\n").encode()


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_forest_record_matches_golden_file(name):
    assert render(name) == (GOLDEN / f"{name}.json").read_bytes()


def test_every_golden_file_has_a_case():
    """A golden file no case produces would sit unchecked: each one must
    be a CLI case or a forest record."""
    from test_golden_cli import CASES

    produced = {f"{name}.json" for name in (*CASES, *RECORDS)}
    assert {path.name for path in GOLDEN.glob("*.json")} <= produced


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name in sorted(RECORDS):
        (GOLDEN / f"{name}.json").write_bytes(render(name))


if __name__ == "__main__":
    regenerate()
