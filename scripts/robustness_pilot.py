#!/usr/bin/env python3
"""Pilot study for the robustness legs of ``tests/test_robustness.py``.

The four-arm score is doubly robust and the two-arm nested score is
multiply robust: with one nuisance model wrong and the other right, each
stays unbiased.  :func:`robust_dataset` draws a strongly confounded
four-arm design on which the ``interactions`` outcome GLM and the ``main``
propensity GLMs are correct, and each leg makes one side intercept-only:

* ``outcome``: the four-arm and agreement outcome model, and the two-arm
  (mu, lambda), are wrong; the treatment models are right;
* ``propensity``: the four-arm cell probabilities, and the two-arm
  (omega, rho), are wrong; the outcome models are right.

The script runs both legs on ``--reps`` replications, prints each
estimator's bias and its Monte Carlo SE, and freezes one bias bound per
leg and estimator into ``tests/data/robustness_bounds.json``: the pilot's
absolute bias plus four Monte Carlo SEs of a ``--test-reps`` mean, rounded
up to 1e-3.  The test runs the first ``--test-reps`` replications.

    PYTHONPATH=src python3 scripts/robustness_pilot.py --reps 600
"""

import argparse
import json
import math
from pathlib import Path

import numpy as np
from scipy.special import expit

from sepfx.data import FourArmDataset, restrict_to_two_arm
from sepfx.estimation import Estimand, EstimatorConfig
from sepfx.four_arm import four_arm_battery
from sepfx.learners import LearnerSpec
from sepfx.seeding import stream
from sepfx.two_arm import estimate_effects_two

N = 4000
ARM_SLOPE = 1.0  # both treatments' assignment logit per unit of x1, which is -1 or 1
MEDIATOR_SHIFT = np.array([0.5, 0.3])  # effect of a_m on each mediator
MEDIATOR_X = np.array([[0.5, 0.0, 0.0], [0.0, 0.4, 0.0]])  # mediator slopes on x
MEDIATOR_WEIGHT = np.array([1.0, 0.5])  # effect of each mediator on y
EFFECT = 1.0  # effect of a_y at x1 = 0
EFFECT_X1 = 0.5  # a_y-by-x1 interaction in y
BASELINE_X = np.array([1.0, 0.5, 0.0])
NOISE_SD = 0.5

# x1 is symmetric and the agreement probability is even in it, so every
# population (four-arm, agreeing rows, two-arm) has these effects
TRUTH = {"sde": EFFECT, "sie": float(MEDIATOR_WEIGHT @ MEDIATOR_SHIFT)}
REQUESTS = (("sde", 1), ("sie", 1))
FAMILIES = ("four", "agreement", "two")
ESTIMATORS = tuple(f"{kind}_{family}" for family in FAMILIES for kind, _ in REQUESTS)
WRONG = LearnerSpec(basis="intercept")
LEGS = {
    "outcome": {"outcome": WRONG},
    "propensity": {"propensity": WRONG},
}
BOUNDS = Path(__file__).resolve().parent.parent / "tests" / "data" / "robustness_bounds.json"


def robust_dataset(rep: int, n: int = N) -> FourArmDataset:
    """Replication ``rep`` of the confounded design.

    Three covariates: x1 is -1 or 1 with probability 1/2, so that every
    treatment probability given x is logistic-linear in it (the agreeing
    rows' too), and x2, x3 are standard normal.  Each treatment is
    assigned independently with logit ``ARM_SLOPE * x1``; the two
    mediators are linear in a_m and x with Gaussian noise of one common
    SD, so P(A = 1 | M, X) on the agreeing rows is logistic-linear as
    well; the outcome is linear in a_y, the mediators and x, with an
    a_y-by-x1 interaction.
    """
    rng = stream(0, "robustness", rep)
    x = rng.normal(size=(n, 3))
    x[:, 0] = 2.0 * rng.integers(0, 2, n) - 1.0
    p = expit(ARM_SLOPE * x[:, 0])
    a_y = (rng.random(n) < p).astype(np.float64)
    a_m = (rng.random(n) < p).astype(np.float64)
    m = a_m[:, None] * MEDIATOR_SHIFT + x @ MEDIATOR_X.T + NOISE_SD * rng.normal(size=(n, 2))
    y = (
        a_y * (EFFECT + EFFECT_X1 * x[:, 0])
        + m @ MEDIATOR_WEIGHT
        + x @ BASELINE_X
        + NOISE_SD * rng.normal(size=n)
    )
    return FourArmDataset(
        y=y, a_y=a_y, a_m=a_m, m=m, x=x,
        outcome_name="y", a_y_name="aY", a_m_name="aM",
        mediator_names=("m1", "m2"), covariate_names=("x1", "x2", "x3"),
    )


def leg_errors(leg: str, rep: int, n: int = N) -> dict:
    """Each estimator's error (point minus truth) under ``leg`` on
    replication ``rep``, from one split."""
    ds = robust_dataset(rep, n)
    config = EstimatorConfig(splits=1, seed=rep, **LEGS[leg])
    estimands = [Estimand(*req) for req in REQUESTS]
    combined = four_arm_battery(ds, config, {"four": estimands, "agreement": estimands})
    points = {
        f"{est.kind}_{family}": combined[family][est].point
        for family in ("four", "agreement")
        for est in estimands
    }
    for est in estimate_effects_two(restrict_to_two_arm(ds), list(REQUESTS), config):
        points[f"{est.estimand}_two"] = est.point
    return {name: points[name] - TRUTH[name.split("_")[0]] for name in ESTIMATORS}


def leg_table(leg: str, reps: int, n: int = N) -> tuple[np.ndarray, np.ndarray]:
    """Mean error and its SD across replications, one entry per estimator."""
    errors = np.array([list(leg_errors(leg, rep, n).values()) for rep in range(reps)])
    return errors.mean(axis=0), errors.std(axis=0, ddof=1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--reps", type=int, default=600)
    parser.add_argument("--test-reps", type=int, default=100)
    parser.add_argument("--out", default=str(BOUNDS))
    args = parser.parse_args()

    legs = {}
    for leg in LEGS:
        bias, sd = leg_table(leg, args.reps)
        legs[leg] = {}
        print(f"leg {leg}: n={N} reps={args.reps}")
        for name, b, s in zip(ESTIMATORS, bias, sd):
            bound = math.ceil((abs(b) + 4.0 * s / math.sqrt(args.test_reps)) * 1000) / 1000
            legs[leg][name] = {"bias": float(b), "sd": float(s), "bound": bound}
            print(
                f"  {name:<15} bias={b:+.4f} (MC SE {s / math.sqrt(args.reps):.4f}) "
                f"sd={s:.4f} bound={bound:.3f}"
            )
    payload = {"n": N, "pilot_reps": args.reps, "test_reps": args.test_reps, "legs": legs}
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
