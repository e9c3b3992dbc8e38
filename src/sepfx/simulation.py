"""Synthetic data generator and Monte Carlo harness.

The generator draws five independent Bernoulli(1/2) covariates, assigns
the mediator-channel treatment by a logistic model in the covariate sum,
and assigns the outcome-channel treatment either by the same logistic
model (model 1, treatments dependent on covariates but conditionally
independent) or by a fair coin (model 2).  Two mediators share a linear
covariate signal plus independent Gaussian noise; the outcome adds a
covariate-modulated effect of the outcome-channel treatment, the two
mediators, a covariate baseline, and Gaussian noise.

Potential outcomes for every treatment combination are materialized from
common noise draws, so the observed data equal the potential outcome
selected by the realized treatments row by row.  Random streams are keyed
by (master seed, replication, stage), with stages ``covariates``,
``mediator-arm``, ``outcome-arm``, ``mediator-noise``, ``outcome-noise``;
each replication is fully reproducible in isolation.

An optional violation adds a direct mediator-channel edge into the
outcome with a chosen coefficient, which breaks the exclusion restriction
that the falsification tests target.

The Monte Carlo study is driven by one table, ``ESTIMATOR_FAMILIES``:
family -> (design, population).  The estimator names, each replication's
requests, each result row's metadata and the true value it is scored
against all derive from it.  Each family, and each falsification test,
fails on its own, so a failure counts against its own rows only; the
one exception is a failure of the pass the four-arm and agreement
families share.

Within one replication, for every learner, the four-arm and agreement
families are scored in one pass per split from one nuisance bundle per
fold, the agreement model included, and the two-arm family from one
bundle per fold holding every outcome strategy's models; no bundle
outlives its split.  Every fitted model predicts once per test block (see
``four_arm.split_scores_four`` and ``two_arm.split_scores_two``).  The
Monte Carlo and falsification studies share nothing with each other.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import product

import numpy as np
from scipy.special import expit

from .data import FourArmDataset, restrict_to_two_arm
from .errors import SepfxError
from .estimation import Estimand, EstimatorConfig, JsonFields, build_estimates
from .falsification import (
    DEFAULT_INDIRECT_REQUESTS,
    direct_test_h0i,
    direct_test_h0ii,
    indirect_test_battery,
)
from .four_arm import four_arm_battery
from .learners import LearnerSpec, make_spec
from .seeding import derive_seed, stream
from .two_arm import estimate_effects_two

N_COVARIATES = 5
COVARIATE_P = 0.5
ARM_INTERCEPT = -0.5
ARM_SLOPE = 0.1
N_MEDIATORS = 2
MEDIATOR_SHIFT = 0.1
MEDIATOR_X_SLOPE = 0.5
MEDIATOR_SD = 0.5
OUTCOME_SD = 0.5
EFFECT_BASE = 2.0
EFFECT_X_FIRST = 0.25
EFFECT_X_LAST = -0.1
BASELINE_X_FIRST = 0.2
BASELINE_X_LAST = 0.6

# Estimator family -> (design the data come from, population the estimand
# refers to).  Family f runs the estimators "sde_f" and "sie_f"; each is
# scored against the SimTruth field of its kind and population, so the
# agreement family (four-arm data, two-arm population) shares the two-arm
# truths.
ESTIMATOR_FAMILIES = {
    "four": ("four-arm", "four-arm"),
    "two": ("two-arm", "two-arm"),
    "agreement": ("four-arm", "two-arm"),
}
KINDS = ("sde", "sie")
ESTIMATOR_NAMES = tuple(
    f"{kind}_{family}" for family in ESTIMATOR_FAMILIES for kind in KINDS
)


def arm_probability(x: np.ndarray) -> np.ndarray:
    """Mediator-channel assignment probability given covariates."""
    return expit(ARM_INTERCEPT + ARM_SLOPE * x.sum(axis=1))


def treatment_effect_curve(x: np.ndarray) -> np.ndarray:
    """Covariate-modulated effect of the outcome-channel treatment."""
    centered = x - COVARIATE_P
    return (
        EFFECT_BASE
        + EFFECT_X_FIRST * centered[:, :3].sum(axis=1)
        + EFFECT_X_LAST * centered[:, 3:].sum(axis=1)
    )


def baseline_curve(x: np.ndarray) -> np.ndarray:
    """Covariate contribution to the outcome mean."""
    centered = x - COVARIATE_P
    return (
        BASELINE_X_FIRST * centered[:, :3].sum(axis=1)
        + BASELINE_X_LAST * centered[:, 3:].sum(axis=1)
    )


@dataclass(frozen=True)
class SimConfig(JsonFields):
    """Settings for one Monte Carlo study."""

    n: int = 2000
    a_y_model: int = 1
    reps: int = 1000
    master_seed: int = 0
    estimators: tuple[str, ...] = ESTIMATOR_NAMES
    learner: str = "glm"
    k_folds: int = 2
    splits: int = 3
    alpha: float = 0.05
    clip: float = 0.01
    strategy: str = "ensemble"
    sde_level: int = 1
    sie_level: int = 1
    violation: float | None = None
    threads: int = 1

    def __post_init__(self):
        if self.n < 100:
            raise ValueError("n must be at least 100")
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        if self.a_y_model not in (1, 2):
            raise ValueError("a_y_model must be 1 or 2")
        unknown = set(self.estimators) - set(ESTIMATOR_NAMES)
        if unknown:
            raise ValueError(f"unknown estimators: {sorted(unknown)}")
        # a process pool starts all its workers at once, however few the reps
        cpus = os.cpu_count() or 1
        if not 1 <= self.threads <= cpus:
            raise ValueError(f"threads must be between 1 and {cpus}, got {self.threads!r}")
        # the estimator settings', preset's and requests' own rules, applied
        # once per study
        EstimatorConfig(
            k_folds=self.k_folds, splits=self.splits, alpha=self.alpha,
            clip=self.clip, strategy=self.strategy,
        )
        make_spec(self.learner)
        for kind in KINDS:
            Estimand(kind, getattr(self, f"{kind}_level")).cells()


@dataclass(frozen=True)
class SimTruth(JsonFields):
    """True sde/sie values in the four-arm and two-arm populations."""

    sde_four: float
    sie_four: float
    sde_two: float
    sie_two: float


@dataclass(frozen=True)
class PotentialOutcomes:
    """Covariates, assignments, and the full potential-outcome grid."""

    x: np.ndarray
    a_y: np.ndarray
    a_m: np.ndarray
    mediators: dict
    outcomes: dict


def draw_potentials(cfg: SimConfig, rep: int) -> PotentialOutcomes:
    """Draw one replication's potential-outcome grid deterministically."""
    n = cfg.n
    x = (
        stream(cfg.master_seed, rep, "covariates").random((n, N_COVARIATES))
        < COVARIATE_P
    ).astype(np.float64)
    p_arm = arm_probability(x)
    a_m = (stream(cfg.master_seed, rep, "mediator-arm").random(n) < p_arm).astype(
        np.int64
    )
    p_y = p_arm if cfg.a_y_model == 1 else 0.5
    a_y = (stream(cfg.master_seed, rep, "outcome-arm").random(n) < p_y).astype(
        np.int64
    )
    med_noise = stream(cfg.master_seed, rep, "mediator-noise").normal(
        0.0, MEDIATOR_SD, size=(n, N_MEDIATORS)
    )
    med_base = MEDIATOR_X_SLOPE * (x - COVARIATE_P).sum(axis=1)
    mediators = {
        level: MEDIATOR_SHIFT * level + med_base[:, None] + med_noise
        for level in (0, 1)
    }
    out_noise = stream(cfg.master_seed, rep, "outcome-noise").normal(
        0.0, OUTCOME_SD, size=n
    )
    effect = treatment_effect_curve(x)
    base = baseline_curve(x)
    violation = cfg.violation or 0.0
    outcomes = {}
    for level_y in (0, 1):
        for level_m in (0, 1):
            outcomes[(level_y, level_m)] = (
                effect * level_y
                + mediators[level_m].sum(axis=1)
                + base
                + violation * level_m
                + out_noise
            )
    return PotentialOutcomes(
        x=x, a_y=a_y, a_m=a_m, mediators=mediators, outcomes=outcomes
    )


def generate_dataset(cfg: SimConfig, rep: int) -> FourArmDataset:
    """Observed four-arm dataset for one replication.

    The observed mediators and outcome are the potential values selected
    by the realized treatments, so repeated calls with the same seed and
    replication index are bit-identical.
    """
    pot = draw_potentials(cfg, rep)
    m = np.where(pot.a_m[:, None] == 1, pot.mediators[1], pot.mediators[0])
    y = np.empty(cfg.n)
    for cell, values in pot.outcomes.items():
        rows = (pot.a_y == cell[0]) & (pot.a_m == cell[1])
        y[rows] = values[rows]
    return FourArmDataset(y=y, a_y=pot.a_y, a_m=pot.a_m, m=m, x=pot.x)


def _agreement_weighted_effect(model: int) -> float:
    # average the treatment-effect curve over covariate patterns, weighting
    # by the probability that the two assignments agree at that pattern
    if model == 2:
        return EFFECT_BASE
    numerator = 0.0
    denominator = 0.0
    for bits in product((0, 1), repeat=N_COVARIATES):
        x = np.array(bits, dtype=np.float64).reshape(1, -1)
        p = float(arm_probability(x)[0])
        agree = p * p + (1.0 - p) * (1.0 - p)
        weight = agree / 2.0**N_COVARIATES
        numerator += weight * float(treatment_effect_curve(x)[0])
        denominator += weight
    return numerator / denominator


def true_effects(cfg: SimConfig) -> SimTruth:
    """Exact estimand values implied by the generator.

    The four-arm direct effect and both indirect effects are closed-form
    constants.  The two-arm direct effect reweights the effect curve by
    the per-pattern agreement probability, computed by enumerating all
    covariate patterns; under model 2 agreement is independent of the
    covariates and the value collapses to the base effect.
    """
    return SimTruth(
        sde_four=EFFECT_BASE,
        sie_four=N_MEDIATORS * MEDIATOR_SHIFT,
        sde_two=_agreement_weighted_effect(cfg.a_y_model),
        sie_two=N_MEDIATORS * MEDIATOR_SHIFT,
    )


def estimator_config_for(learner: str, seed: int, **settings) -> EstimatorConfig:
    """Build an estimator configuration from a learner preset name.

    GLM presets model propensities with main effects only; forest and
    stacking presets use the outcome learner for both.  Per-row scores
    are not kept.  The other ``settings`` pass through to
    :class:`EstimatorConfig`, whose defaults apply to the rest.
    """
    outcome = make_spec(learner, seed=seed)
    if learner == "glm":
        propensity = LearnerSpec(kind="glm", basis="main")
    else:
        propensity = outcome
    return EstimatorConfig(
        outcome=outcome, propensity=propensity, seed=seed, keep_eif=False, **settings
    )


def _rep_config(cfg: SimConfig, rep: int) -> EstimatorConfig:
    return estimator_config_for(
        cfg.learner,
        seed=derive_seed(cfg.master_seed, "estimation", rep),
        k_folds=cfg.k_folds,
        splits=cfg.splits,
        alpha=cfg.alpha,
        clip=cfg.clip,
        strategy=cfg.strategy,
    )


def _attempt(run):
    """``run()``, or ``None`` if it fails with an estimation error."""
    try:
        return run()
    except SepfxError:
        return None


def _record(out: dict, keys: list, results, value) -> None:
    """Map each key to ``value`` of its entry in ``results``, in order; if
    ``results`` is ``None`` (the run failed), map every key to ``None``."""
    if results is None:
        out.update(dict.fromkeys(keys))
        return
    out.update({key: value(res) for key, res in zip(keys, results)})


def _estimate_families(ds: FourArmDataset, families: dict, config) -> dict:
    """Each family's estimates from its estimands in ``families``, or
    ``None`` for a family that failed with an estimation error.

    The four-arm and agreement families share one pass per split, over
    bundles with the agreement model (``four_arm.fit_nuisance_theta``) if
    the agreement family is asked for, so a failure of that pass fails
    both.  No agreeing rows fails only the agreement and two-arm families,
    and a standard error that is not positive only its own family.
    """
    results = {}
    shared = {f: families[f] for f in ("four", "agreement") if f in families}
    if "agreement" in shared and not (ds.a_y == ds.a_m).any():
        del shared["agreement"]
        results["agreement"] = None
    if shared:
        combined = _attempt(lambda: four_arm_battery(ds, config, shared))
        for family, estimands in shared.items():
            population = ESTIMATOR_FAMILIES[family][1]
            results[family] = None if combined is None else _attempt(
                lambda: build_estimates(
                    combined[family], estimands, n=ds.n, config=config,
                    design="four-arm", population=population,
                )
            )
    if "two" in families:
        results["two"] = _attempt(
            lambda: estimate_effects_two(restrict_to_two_arm(ds), families["two"], config)
        )
    return results


def _simulate_one(cfg: SimConfig, rep: int) -> dict:
    """Estimate every configured estimator on one replication.

    Returns ``{estimator: (point, lo, hi)}``; a family that fails with an
    estimation error maps its own estimators to ``None`` (see
    :func:`_estimate_families` for which failures are shared).
    """
    ds = generate_dataset(cfg, rep)
    config = _rep_config(cfg, rep)
    families: dict = {}
    for name in ESTIMATOR_NAMES:
        if name in cfg.estimators:
            kind, family = name.split("_")
            level = getattr(cfg, f"{kind}_level")
            families.setdefault(family, []).append(Estimand(kind, level))
    out: dict = {}
    for family, results in _estimate_families(ds, families, config).items():
        keys = [f"{est.kind}_{family}" for est in families[family]]
        _record(out, keys, results, lambda est: (est.point, est.ci[0], est.ci[1]))
    return out


def _tally(results: list, key) -> tuple[list, int]:
    """The replications' entries for ``key`` and how many of them failed."""
    entries = [rep[key] for rep in results if rep.get(key) is not None]
    return entries, len(results) - len(entries)


@dataclass(frozen=True)
class SimResultRow(JsonFields):
    """Aggregated accuracy of one estimator across replications."""

    estimator: str
    estimand: str
    fixed_level: int
    design: str
    population: str
    n: int
    reps: int
    failures: int
    bias: float
    rmse: float
    coverage: float

    def to_json_dict(self) -> dict:
        out = super().to_json_dict()
        out["bias_x100"] = 100.0 * self.bias
        out["rmse_x100"] = 100.0 * self.rmse
        return out


@dataclass(frozen=True)
class SimReport(JsonFields):
    """Full Monte Carlo output: configuration, truths, and accuracy rows."""

    config: SimConfig
    truth: SimTruth
    rows: tuple[SimResultRow, ...]
    runtime_seconds: float


def run_monte_carlo(cfg: SimConfig) -> SimReport:
    """Run the replication study and aggregate bias, RMSE, and coverage.

    Failed replications are counted per estimator and excluded from the
    aggregates.  Coverage is the share of replications whose confidence
    interval contains the true value.
    """
    start = time.perf_counter()
    truth = true_effects(cfg)
    results = _map_reps(_simulate_one, cfg)

    rows = []
    for name in cfg.estimators:
        kind, family = name.split("_")
        design, population = ESTIMATOR_FAMILIES[family]
        true_value = getattr(truth, f"{kind}_{population.removesuffix('-arm')}")
        entries, failures = _tally(results, name)
        points = np.asarray([point for point, _, _ in entries])
        covered = sum(lo <= true_value <= hi for _, lo, hi in entries)
        successes = len(entries)
        rows.append(
            SimResultRow(
                estimator=name,
                estimand=kind,
                fixed_level=getattr(cfg, f"{kind}_level"),
                design=design,
                population=population,
                n=cfg.n,
                reps=cfg.reps,
                failures=failures,
                bias=float(points.mean() - true_value) if successes else float("nan"),
                rmse=float(np.sqrt(np.mean((points - true_value) ** 2)))
                if successes
                else float("nan"),
                coverage=covered / successes if successes else float("nan"),
            )
        )
    return SimReport(
        config=cfg,
        truth=truth,
        rows=tuple(rows),
        runtime_seconds=time.perf_counter() - start,
    )


def _map_reps(worker, cfg: SimConfig) -> list:
    if cfg.threads > 1:
        with ProcessPoolExecutor(max_workers=cfg.threads) as pool:
            chunk = max(1, cfg.reps // (cfg.threads * 8))
            return list(
                pool.map(partial(worker, cfg), range(cfg.reps), chunksize=chunk)
            )
    return [worker(cfg, rep) for rep in range(cfg.reps)]


@dataclass(frozen=True)
class FalsificationStudyRow(JsonFields):
    """Rejection rate of one falsification test across replications."""

    test: str
    mediator: int | None
    fixed_level: int | None
    reps: int
    failures: int
    rejection_rate: float
    mean_estimate: float


@dataclass(frozen=True)
class FalsificationStudyReport(JsonFields):
    config: SimConfig
    rows: tuple[FalsificationStudyRow, ...]
    runtime_seconds: float


def _falsify_one(cfg: SimConfig, rep: int) -> dict:
    """Run every falsification test on one replication.

    Returns ``{(test, mediator, fixed_level): (reject, estimate)}``; a test
    that fails with an estimation error maps its keys to ``None``.
    """
    ds = generate_dataset(cfg, rep)
    config = _rep_config(cfg, rep)
    out: dict = {}

    def record(keys: list, run) -> None:
        _record(out, keys, _attempt(run), lambda res: (res.reject, res.estimate))

    for med in range(ds.n_mediators):
        record(
            [("H0(i)", med, None)],
            lambda: [direct_test_h0i(ds, mediator_index=med, alpha=cfg.alpha)],
        )
    record([("H0(ii)", None, None)], lambda: [direct_test_h0ii(ds, alpha=cfg.alpha)])
    record(
        [(f"indirect-{k.upper()}", None, level) for k, level in DEFAULT_INDIRECT_REQUESTS],
        lambda: indirect_test_battery(ds, config),
    )
    return out


def run_falsification_study(cfg: SimConfig) -> FalsificationStudyReport:
    """Estimate rejection rates of every falsification test by simulation.

    With no violation configured the rates estimate test size; with a
    violation they estimate power.
    """
    start = time.perf_counter()
    results = _map_reps(_falsify_one, cfg)
    keys = sorted(
        {key for rep_result in results for key in rep_result},
        key=lambda k: (k[0], -1 if k[1] is None else k[1], -1 if k[2] is None else k[2]),
    )
    rows = []
    for key in keys:
        entries, failures = _tally(results, key)
        rejects = [reject for reject, _ in entries]
        estimates = [estimate for _, estimate in entries]
        rows.append(
            FalsificationStudyRow(
                test=key[0],
                mediator=key[1],
                fixed_level=key[2],
                reps=cfg.reps,
                failures=failures,
                rejection_rate=float(np.mean(rejects)) if rejects else float("nan"),
                mean_estimate=float(np.mean(estimates)) if estimates else float("nan"),
            )
        )
    return FalsificationStudyReport(
        config=cfg,
        rows=tuple(rows),
        runtime_seconds=time.perf_counter() - start,
    )
