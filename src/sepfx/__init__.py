"""Separable direct and indirect effect estimation.

Estimators for four-arm designs that randomize the outcome and mediator
treatment channels independently, matched estimators for standard two-arm
designs, agreement-population contrasts that link the two, and the
falsification tests and Monte Carlo machinery built on top of them.
"""

__version__ = "0.1.0"

from .data import (
    ColumnMap,
    FourArmDataset,
    TwoArmDataset,
    load_four_arm,
    load_two_arm,
    restrict_to_two_arm,
    save_four_arm,
    save_two_arm,
)
from .errors import (
    DataError,
    DegenerateEstimate,
    EmptyDataset,
    EmptySubset,
    LearnerError,
    MissingCell,
    MissingColumn,
    NonBinaryTreatment,
    NonNumericCell,
    SepfxError,
    SingleClassWarning,
    TooFewRows,
)
from .estimation import EffectEstimate, EstimatorConfig
from .falsification import (
    TestResult,
    direct_test_h0i,
    direct_test_h0ii,
    estimate_agreement_effects,
    indirect_test_battery,
)
from .four_arm import estimate_effects_four
from .learners import LearnerSpec, make_spec
from .simulation import (
    ESTIMATOR_NAMES,
    FalsificationStudyReport,
    SimConfig,
    SimReport,
    SimTruth,
    generate_dataset,
    run_falsification_study,
    run_monte_carlo,
    true_effects,
)
from .two_arm import estimate_effects_two

__all__ = [
    "__version__",
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
