"""The public surface of ``sepfx``, pinned so that any change to it shows
up as a reviewed diff of this list."""

import sepfx

PUBLIC_NAMES = [
    "BadK",
    "ColumnMap",
    "DataError",
    "DegenerateEstimate",
    "DegenerateFold",
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
    "SingularDesign",
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
