"""The public surface of ``sepfx``, pinned so that any change to it shows
up as a reviewed diff of these lists: the public names, the parameters of
each public function, and the fields of each configuration record."""

import dataclasses
import inspect

import sepfx
from sepfx import forest, learners
from sepfx.four_arm import NuisanceFitFour
from sepfx.two_arm import NuisanceFitTwo

PUBLIC_NAMES = [
    "ColumnMap",
    "DataError",
    "DegenerateEstimate",
    "ESTIMATOR_NAMES",
    "EffectEstimate",
    "EmptyDataset",
    "EmptySubset",
    "EstimatorConfig",
    "FalsificationStudyReport",
    "FourArmDataset",
    "LearnerError",
    "LearnerSpec",
    "MissingCell",
    "MissingColumn",
    "NonBinaryTreatment",
    "NonNumericCell",
    "SepfxError",
    "SimConfig",
    "SimReport",
    "SimTruth",
    "SingleClassWarning",
    "TestResult",
    "TooFewRows",
    "TwoArmDataset",
    "__version__",
    "direct_test_h0i",
    "direct_test_h0ii",
    "estimate_agreement_effects",
    "estimate_effects_four",
    "estimate_effects_two",
    "generate_dataset",
    "indirect_test_battery",
    "load_four_arm",
    "load_two_arm",
    "make_spec",
    "restrict_to_two_arm",
    "run_falsification_study",
    "run_monte_carlo",
    "save_four_arm",
    "save_two_arm",
    "true_effects",
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(sepfx.__all__) == PUBLIC_NAMES
    assert len(set(sepfx.__all__)) == len(sepfx.__all__)
    for name in PUBLIC_NAMES:
        assert getattr(sepfx, name) is not None, name


PUBLIC_PARAMETERS = {
    "direct_test_h0i": ["ds", "mediator_index", "robust", "basis", "alpha"],
    "direct_test_h0ii": ["ds", "robust", "basis", "alpha"],
    "estimate_agreement_effects": ["ds", "requests", "config"],
    "estimate_effects_four": ["ds", "requests", "config"],
    "estimate_effects_two": ["ds", "requests", "config"],
    "generate_dataset": ["cfg", "rep"],
    "indirect_test_battery": ["ds", "config", "requests"],
    "load_four_arm": ["source", "schema", "threads"],
    "load_two_arm": ["source", "schema", "threads"],
    "make_spec": ["name", "seed"],
    "restrict_to_two_arm": ["ds"],
    "run_falsification_study": ["cfg"],
    "run_monte_carlo": ["cfg"],
    "save_four_arm": ["ds", "target"],
    "save_two_arm": ["ds", "target"],
    "true_effects": ["cfg"],
}

CONFIG_FIELDS = {
    "EstimatorConfig": [
        "outcome", "propensity", "k_folds", "splits", "alpha", "clip", "seed",
        "strategy", "keep_eif", "diagnostics", "threads",
    ],
    "SimConfig": [
        "n", "a_y_model", "reps", "master_seed", "estimators", "learner",
        "k_folds", "splits", "alpha", "clip", "strategy", "sde_level",
        "sie_level", "violation", "threads",
    ],
    "LearnerSpec": [
        "kind", "basis", "ridge", "trees", "mtry", "min_leaf", "candidates",
        "v_folds", "seed",
    ],
    "ColumnMap": [
        "outcome", "a_y", "a_m", "a", "mediator_prefix", "covariate_prefix",
        "mediators", "covariates",
    ],
}


def test_public_function_parameters_are_pinned():
    """Every knob of a public function is listed, in order: 39 in all."""
    functions = {
        name: list(inspect.signature(getattr(sepfx, name)).parameters)
        for name in sepfx.__all__
        if inspect.isfunction(getattr(sepfx, name))
    }
    assert functions == PUBLIC_PARAMETERS
    assert sum(len(params) for params in functions.values()) == 39


LEARNER_PARAMETERS = {
    "fit_regressor": ["features", "targets", "spec", "interact_cols"],
    "fit_classifier": ["features", "labels", "spec", "interact_cols", "clip"],
    "fit_super_learner": ["features", "targets", "spec", "interact_cols", "clip"],
    "fit_forest": ["features", "targets", "n_trees", "mtry", "min_leaf", "seed", "clip"],
}


def test_learner_entry_points_are_pinned():
    """README names the learner fitters as importable from
    ``sepfx.learners``, and ``bench/layers.py`` binds ``fit_forest``'s
    arguments by name: 4, 5, 5 and 7 parameters, with no ``task``."""
    found = {}
    for name in LEARNER_PARAMETERS:
        owner = forest if name == "fit_forest" else learners
        found[name] = list(inspect.signature(getattr(owner, name)).parameters)
    assert found == LEARNER_PARAMETERS


def test_config_fields_are_pinned():
    """Every field of a configuration record is listed, in order: 42 in all."""
    found = {
        name: [item.name for item in dataclasses.fields(getattr(sepfx, name))]
        for name in CONFIG_FIELDS
    }
    assert found == CONFIG_FIELDS
    assert sum(len(names) for names in found.values()) == 43


BUNDLE_FIELDS = {
    NuisanceFitFour: ["treat_y", "treat_m", "outcome_fit", "clip", "empty_cells"],
    NuisanceFitTwo: ["treat_given_mx", "treat_given_x", "outcomes"],
}


def test_nuisance_bundle_fields_are_pinned():
    """README tells callers who need custom nuisances to patch a fitter
    that returns a bundle of its own, so each bundle's fields are listed,
    in order."""
    found = {
        bundle: [item.name for item in dataclasses.fields(bundle)]
        for bundle in BUNDLE_FIELDS
    }
    assert found == BUNDLE_FIELDS
