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
that the falsification tests target; the coefficient adds to the true
indirect effects.

The Monte Carlo study is driven by one table, ``ESTIMATOR_FAMILIES``:
family -> (design, population), declared in :mod:`sepfx.estimation`
beside the estimates it labels.  The estimator names, each replication's
requests, each result row's metadata and the true value it is scored
against all derive from it.  Each family, and each falsification test,
fails on its own, so a failure counts against its own rows only; the
one exception is a failure of the one pass per split that the four-arm
and agreement families share.  The Monte Carlo and falsification studies
share nothing with each other.

Replications run in ``min(threads, reps)`` processes, one per usable CPU
unless ``SimConfig.threads`` says otherwise: the caller runs one share of
them and ``min(threads, reps) - 1`` forked children run the rest, whose
warnings are raised again in the caller.  Every study runs under one
OpenBLAS thread, so its results do not depend on the worker count.  A
falsification study imports the direct tests' t tails from
``scipy.special`` before it forks its children.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache
from itertools import product
from pathlib import Path

import numpy as np

from .data import FourArmDataset, restrict_to_two_arm
from .errors import SepfxError
from .estimation import (
    ESTIMATOR_FAMILIES, Estimand, EstimatorConfig, JsonFields, build_estimates,
    shared_settings,
)
from .falsification import (
    DEFAULT_INDIRECT_REQUESTS,
    direct_test_h0i,
    direct_test_h0ii,
    indirect_test_battery,
)
from .four_arm import four_arm_battery
from .learners import make_spec
from .seeding import check_integers, derive_seed, is_finite_number, stream
from .special import expit
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
    """Settings for one Monte Carlo study.

    ``threads`` is how many processes run the replications, the caller
    included, one per usable CPU when ``None``; it changes the wall time
    only.
    """

    n: int = 2000
    a_y_model: int = 1
    reps: int = 1000
    master_seed: int = 0
    estimators: tuple[str, ...] = ESTIMATOR_NAMES
    learner: str = "glm"
    k_folds: int = EstimatorConfig.k_folds
    splits: int = EstimatorConfig.splits
    alpha: float = EstimatorConfig.alpha
    clip: float = EstimatorConfig.clip
    strategy: str = EstimatorConfig.strategy
    sde_level: int = 1
    sie_level: int = 1
    violation: float | None = None
    threads: int | None = None

    def __post_init__(self):
        check_integers(self, ("n", "a_y_model", "reps", "master_seed"))
        if self.n < 100:
            raise ValueError("n must be at least 100")
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        if self.a_y_model not in (1, 2):
            raise ValueError("a_y_model must be 1 or 2")
        names = self.estimators
        if not (isinstance(names, tuple) and all(isinstance(name, str) for name in names)):
            raise ValueError(f"estimators must be a tuple of names, got {names!r}")
        unknown = set(names) - set(ESTIMATOR_NAMES)
        if unknown:
            raise ValueError(f"unknown estimators: {sorted(unknown)}")
        if not self.estimators:
            raise ValueError("estimators must name at least one estimator")
        if len(set(self.estimators)) != len(self.estimators):
            raise ValueError(f"estimators must not repeat, got {list(self.estimators)}")
        if self.violation is not None and not is_finite_number(self.violation):
            raise ValueError(
                f"violation must be a finite number or None, got {self.violation!r}"
            )
        # None means every usable CPU; more workers than CPUs only contend
        if self.threads is not None:
            check_integers(self, ("threads",))
            cpus = _usable_cpus()
            if not 1 <= self.threads <= cpus:
                raise ValueError(f"threads must be between 1 and {cpus}, got {self.threads!r}")
        # the estimator settings', preset's and requests' own rules, applied
        # once per study
        EstimatorConfig(**shared_settings(self))
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
    constants; a ``violation`` adds itself to every row's indirect
    contrast, in both populations.  The two-arm direct effect reweights
    the effect curve by the per-pattern agreement probability, computed
    by enumerating all covariate patterns; under model 2 agreement is
    independent of the covariates and the value collapses to the base
    effect.
    """
    sie = N_MEDIATORS * MEDIATOR_SHIFT + (cfg.violation or 0.0)
    return SimTruth(
        sde_four=EFFECT_BASE,
        sie_four=sie,
        sde_two=_agreement_weighted_effect(cfg.a_y_model),
        sie_two=sie,
    )


def estimator_config_for(learner: str, seed: int, **settings) -> EstimatorConfig:
    """Build an estimator configuration from a learner preset name.

    GLM presets keep :class:`EstimatorConfig`'s main-effects GLM for the
    propensities; forest and stacking presets use the outcome learner for
    both.  Per-row scores are not kept.  The other ``settings`` pass
    through to :class:`EstimatorConfig`, whose defaults apply to the rest.
    """
    outcome = make_spec(learner, seed=seed)
    if learner != "glm":
        settings["propensity"] = outcome
    return EstimatorConfig(outcome=outcome, seed=seed, keep_eif=False, **settings)


def _rep_config(cfg: SimConfig, rep: int) -> EstimatorConfig:
    return estimator_config_for(
        cfg.learner,
        seed=derive_seed(cfg.master_seed, "estimation", rep),
        **shared_settings(cfg),
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
    one set of bundles, whose two treatment models give the agreement
    probability too, so a failure of that pass fails both.  No agreeing
    rows fails only the agreement and two-arm families, and a standard
    error that is not positive only its own family.
    """
    results = {}
    shared = {f: families[f] for f in ("four", "agreement") if f in families}
    if "agreement" in shared and not (ds.a_y == ds.a_m).any():
        del shared["agreement"]
        results["agreement"] = None
    if shared:
        combined = _attempt(lambda: four_arm_battery(ds, config, shared))
        for family, estimands in shared.items():
            results[family] = None if combined is None else _attempt(
                lambda: build_estimates(
                    combined[family], estimands, n=ds.n, config=config, family=family
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


def _usable_cpus() -> int:
    """How many CPUs this process may run on: its affinity set where the
    platform has one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@cache
def _blas_thread_calls():
    """The ``(get, set)`` thread-count functions of the OpenBLAS that numpy
    wheels bundle (64- or 32-bit integer build), or ``None`` where none is
    found, as when numpy is linked to another BLAS."""
    # loading a library numpy has already loaded returns that same library
    for path in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for suffix in ("64_", ""):
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextmanager
def _one_blas_thread():
    """Run the body with numpy's OpenBLAS at one thread, then restore the
    caller's count; do nothing where no OpenBLAS is found."""
    calls = _blas_thread_calls()
    if calls is None:
        yield
        return
    get, put = calls
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def _workers(cfg: SimConfig) -> int:
    """How many processes run the replications: ``cfg.threads`` (every
    usable CPU if ``None``), at most one per replication.  It is 1, meaning
    this process, where ``fork`` is missing or this process is daemonic
    and so may not start children."""
    if (
        "fork" not in multiprocessing.get_all_start_methods()
        or multiprocessing.current_process().daemon
    ):
        return 1
    return min(cfg.threads or _usable_cpus(), cfg.reps)


def _map_reps(worker, cfg: SimConfig) -> list:
    """``worker(cfg, rep)`` for every replication, in order.

    With ``w = _workers(cfg)`` above 1, replications ``s, s + w, s + 2w, ...``
    form share ``s``: this process forks ``w - 1`` children for shares 1 to
    ``w - 1``, runs share 0 itself, then collects each child's results
    through a pipe.  Children are forked so that they start with the
    caller's imports in place, and live for one study, so that each sees
    the modules as they stand when the study starts.  Replications are
    seeded independently and the whole study runs under one OpenBLAS
    thread, in this process and in the children that inherit that count,
    so the results do not depend on the worker count; a BLAS pool per
    process would only contend for the same CPUs.  If replications raise,
    the error of the lowest one is raised here, once every child has
    exited.
    """
    workers = _workers(cfg)
    with _one_blas_thread():
        if workers == 1:
            return [worker(cfg, rep) for rep in range(cfg.reps)]
        context = multiprocessing.get_context("fork")
        children = []
        try:
            for share in range(1, workers):
                receive, send = context.Pipe(duplex=False)
                child = context.Process(
                    target=_send_share, args=(send, worker, cfg, share, workers), daemon=True
                )
                child.start()
                # the child holds the only sending end, so its exit ends the pipe
                send.close()
                children.append((child, receive))
            shares = [_run_share(worker, cfg, 0, workers)]
            shares += [_receive_share(child, receive) for child, receive in children]
        except BaseException:
            for child, _ in children:
                child.terminate()
            raise
        finally:
            for child, receive in children:
                receive.close()
                child.join()
    failures = [failure for _, failure in shares if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    done = [None] * cfg.reps
    for share, (pairs, _) in enumerate(shares):
        done[share::workers] = pairs
    # the caller's filters, and any record it keeps, see the replications'
    # warnings only once they are raised again here; the registry shows a
    # repeated warning once, as in one process
    registry = globals().setdefault("__warningregistry__", {})
    for _, caught in done:
        for message, category, filename, lineno in caught:
            warnings.warn_explicit(message, category, filename, lineno, registry=registry)
    return [result for result, _ in done]


def _run_share(worker, cfg: SimConfig, share: int, workers: int) -> tuple:
    """Replications ``share, share + workers, ...`` in order, as a list of
    ``(worker(cfg, rep), warnings it raised)`` pairs, and ``(rep, error)``
    for the first of them that raises (the rest are not run), else ``None``."""
    done = []
    for rep in range(share, cfg.reps, workers):
        try:
            with warnings.catch_warnings(record=True) as caught:
                result = worker(cfg, rep)
        except Exception as exc:
            return done, (rep, exc)
        done.append((result, [(w.message, w.category, w.filename, w.lineno) for w in caught]))
    return done, None


def _send_share(send, worker, cfg: SimConfig, share: int, workers: int) -> None:
    """Run a share in a forked child and send its outcome to the caller."""
    with send:
        send.send(_run_share(worker, cfg, share, workers))


def _receive_share(child, receive) -> tuple:
    """What a child's :func:`_send_share` sent."""
    try:
        return receive.recv()
    except EOFError:
        child.join()
        raise RuntimeError(
            f"a study's worker process exited with code {child.exitcode} "
            "before it sent its replications"
        ) from None


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
    # the direct tests' t tails: imported once here, not again in every forked child
    import scipy.special  # noqa: F401
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
