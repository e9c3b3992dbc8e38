"""Estimand type, estimator settings, results, and the one split loop.

:class:`Estimand` knows which (a_y, a_m) cells an ``sde``/``sie``/``mean``
request needs and how their scores contrast.  :class:`EstimatorConfig`
holds and checks the settings every estimator takes, and
``SHARED_SETTINGS`` names those a study or the command line passes on.
:func:`run_battery` is the one loop over sample splits: each split gives
``{key: (point, deviations, contributions)}``, the splits fan out over
forked processes under one OpenBLAS thread, and they combine by the
median rule.  ``ESTIMATOR_FAMILIES`` maps each estimator family to
the design its data come from and the population its estimands refer
to; :func:`build_estimates` reads both off it when it turns a family's
``run_battery`` output into :class:`EffectEstimate` values, refusing a
standard error that is not positive.  Normal quantiles come from
:func:`sepfx.special.ndtri`, bit for bit as scipy's.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple

import numpy as np

from .crossfit import median_adjust
from .errors import DegenerateEstimate
from .fanout import fan_out, usable_cpus
from .learners import DEFAULT_CLIP, LearnerSpec
from .seeding import check_integers, is_integer
from .special import ndtri

Z_95 = 1.96


def z_value(alpha: float) -> float:
    """Two-sided normal critical value; exactly 1.96 at the 5% level."""
    if alpha == 0.05:
        return Z_95
    return ndtri(1.0 - alpha / 2.0)


def checked_se(se: float, label: str) -> float:
    """Return ``se``, refusing a standard error that is not positive.

    A zero (or NaN) standard error leaves an estimate without a reference
    scale: its interval has zero width and any test statistic is 0/0,
    infinite or NaN, so it says nothing about the estimand.
    """
    if not se > 0.0:
        raise DegenerateEstimate(
            f"{label}: standard error is {se!r}, so no interval or statistic exists"
        )
    return se


class Estimand(NamedTuple):
    """One requested contrast: ``("sde", a_m)``, ``("sie", a_y)`` or
    ``("mean", (a_y, a_m))``.

    The direct effect contrasts the outcome channel at a fixed mediator
    arm, the indirect effect the mediator channel at a fixed outcome arm,
    and the mean is the single cell.  As a tuple it compares and hashes
    like the plain request tuple it was built from.
    """

    kind: str
    level: object

    def cells(self) -> tuple:
        """The (a_y, a_m) cells the contrast combines: the plus cell first.

        Raises ``ValueError`` unless each level is an integer 0 or 1 (for
        ``mean``, an (a_y, a_m) pair of them).
        """
        if self.kind == "sde":
            cells = ((1, self.level), (0, self.level))
        elif self.kind == "sie":
            cells = ((self.level, 1), (self.level, 0))
        elif self.kind == "mean":
            cells = (tuple(self.level) if np.ndim(self.level) == 1 else (),)
        else:
            raise ValueError(f"unknown estimand kind {self.kind!r}")
        if not all(len(cell) == 2 and all(is_integer(v) and v in (0, 1) for v in cell)
                   for cell in cells):
            pair = " as an (a_y, a_m) pair" if self.kind == "mean" else ""
            raise ValueError(f"{self.kind} level must be 0 or 1{pair}, got {self.level!r}")
        return cells

    def contrast(self, scores: dict) -> np.ndarray:
        """Combine per-cell score vectors into this estimand's scores."""
        cells = self.cells()
        if len(cells) == 1:
            return scores[cells[0]]
        return scores[cells[0]] - scores[cells[1]]

    @property
    def fixed_level(self):
        """The level as reported in results and JSON."""
        return list(self.level) if self.kind == "mean" else self.level


def estimand_cells(estimands) -> tuple:
    """Distinct cells needed by ``estimands``, in request order; raises
    ``ValueError`` if there are none, so an empty request list fails before
    any fit."""
    if not estimands:
        raise ValueError("no estimand requested: the request list is empty")
    return tuple(dict.fromkeys(cell for est in estimands for cell in est.cells()))


STRATEGIES = ("S", "T", "ensemble")

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


@dataclass(frozen=True)
class EstimatorConfig:
    """Settings shared by every effect estimator.

    ``outcome`` and ``propensity`` are the learner specs for conditional
    means and treatment probabilities.  ``clip`` bounds every estimated
    probability away from 0 and 1 before it is used in a denominator.
    ``strategy`` selects how two-arm outcome models handle the treatment
    (single model with interactions, stratified, or an ensemble of both).
    ``diagnostics`` applies to the four-arm estimator only: it adds the
    IPW and outcome-regression plug-in points to each four-arm estimate,
    and the two-arm and agreement estimators ignore it.  ``threads`` is
    how many processes run the sample splits, the caller included, one
    per usable CPU when ``None``; it changes the wall time only.

    Raises
    ------
    ValueError
        Unless ``k_folds``, ``splits`` and ``seed`` are integers (not
        bools), ``splits >= 1``, ``k_folds >= 2``, ``0 < alpha < 1``,
        ``0 < clip < 0.5`` (at 0.5 the clip bounds cross), ``strategy``
        is one of ``STRATEGIES``, ``outcome`` and ``propensity`` are
        :class:`~sepfx.learners.LearnerSpec` values and ``threads`` is
        ``None`` or an integer from 1 to the number of usable CPUs.
    """

    outcome: LearnerSpec = field(default_factory=LearnerSpec)
    propensity: LearnerSpec = field(default_factory=lambda: LearnerSpec(basis="main"))
    k_folds: int = 2
    splits: int = 3
    alpha: float = 0.05
    clip: float = DEFAULT_CLIP
    seed: int = 0
    strategy: str = "ensemble"
    keep_eif: bool = True
    diagnostics: bool = False
    threads: int | None = None

    def __post_init__(self):
        counts = ("k_folds", "splits", "seed") + (() if self.threads is None else ("threads",))
        check_integers(self, counts)
        cpus = usable_cpus()
        for name, ok, rule in (
            ("splits", self.splits >= 1, "at least 1"),
            ("k_folds", self.k_folds >= 2, "at least 2"),
            ("alpha", 0.0 < self.alpha < 1.0, "strictly between 0 and 1"),
            ("clip", 0.0 < self.clip < 0.5, "strictly between 0 and 0.5"),
            ("strategy", self.strategy in STRATEGIES, f"one of {STRATEGIES}"),
            ("outcome", isinstance(self.outcome, LearnerSpec), "a LearnerSpec"),
            ("propensity", isinstance(self.propensity, LearnerSpec), "a LearnerSpec"),
            # None means every usable CPU; more workers than CPUs only contend
            ("threads", self.threads is None or 1 <= self.threads <= cpus, f"from 1 to {cpus}"),
        ):
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")


# What a Monte Carlo study or the command line passes on to every estimator.
SHARED_SETTINGS = ("k_folds", "splits", "alpha", "clip", "strategy")


def shared_settings(source) -> dict:
    """``SHARED_SETTINGS`` read off a ``SimConfig`` or parsed CLI arguments;
    a setting the source lacks takes ``EstimatorConfig``'s default."""
    return {name: getattr(source, name, getattr(EstimatorConfig, name))
            for name in SHARED_SETTINGS}


def _json_value(value):
    if hasattr(value, "to_json_dict"):
        return value.to_json_dict()
    if isinstance(value, (tuple, list)):
        return [_json_value(item) for item in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


class JsonFields:
    """``to_json_dict`` read off a dataclass's own fields, in field order.

    Tuples become lists, numpy scalars Python ones and nested records their
    JSON dicts.  Fields named in ``json_skip`` are left out, and those in
    ``json_omit_none`` are left out when they are None.  Values are read one field at a time, so arrays
    held by a skipped field are never copied.
    """

    json_skip: tuple = ()
    json_omit_none: tuple = ()

    def to_json_dict(self) -> dict:
        out = {}
        for item in fields(self):
            value = getattr(self, item.name)
            if item.name in self.json_skip or (
                value is None and item.name in self.json_omit_none
            ):
                continue
            out[item.name] = _json_value(value)
        return out


@dataclass(frozen=True)
class EffectEstimate(JsonFields):
    """A point estimate with its large-sample uncertainty.

    ``se`` is the asymptotic standard deviation divided by sqrt(n) and the
    confidence interval is ``point +/- z * se``.  ``eif`` holds per-row
    influence contributions whose mean equals the point estimate (for the
    split realizing the median).  ``design`` names the data layout the
    estimate was computed from; ``population`` names the population the
    estimand refers to.
    """

    estimand: str
    fixed_level: object
    point: float
    se: float
    ci: tuple[float, float]
    n: int
    alpha: float
    design: str
    population: str
    k_folds: int
    splits: int
    learner: str
    strategy: str | None = None
    eif: np.ndarray | None = None
    diagnostics: dict | None = None

    json_skip = ("eif",)
    json_omit_none = ("strategy", "diagnostics")


@dataclass
class CombinedResult:
    """Median-combined output of one estimand across splits; ``eif`` is
    ``None`` unless the battery kept contributions (``keep_eif``)."""

    point: float
    variance: float
    eif: np.ndarray | None


def centred(contrib: np.ndarray) -> tuple:
    """One split's value for ``run_battery`` from contributions whose mean
    is the split's point: the point, the deviations from it and the
    contributions (kept for ``eif``)."""
    point = float(np.mean(contrib))
    return point, contrib - point, contrib


def run_battery(config: EstimatorConfig, split_fn: Callable[[int], dict]) -> dict:
    """Run the S-split pipeline for a family of estimands sharing fits.

    ``split_fn`` receives a split index and returns ``{key: (point,
    deviations, contributions)}``; the split's variance is the mean square
    of the length-n ``deviations``.  The splits run through
    :func:`~sepfx.fanout.fan_out` in ``config.threads`` processes under one
    OpenBLAS thread, serially inside a study, and each gives back only
    ``(point, variance, contributions if config.keep_eif else None)`` per
    key, so the results and the lowest failing split's error do not depend
    on the worker or BLAS thread count.  Points and variances are combined
    by :func:`~sepfx.crossfit.median_adjust`.  ``eif`` holds the kept
    contributions of the split realizing the median point, or the mean of
    the two middle splits' when S is even, and is otherwise ``None``.
    """
    def split_values(split: int) -> dict:
        return {
            key: (point, float(np.mean(deviations**2)), contrib if config.keep_eif else None)
            for key, (point, deviations, contrib) in split_fn(split).items()
        }

    per_key: dict = {}
    for values in fan_out(split_values, config.splits, config.threads):
        for key, value in values.items():
            per_key.setdefault(key, []).append(value)

    combined: dict = {}
    for key, values in per_key.items():
        points, variances, contribs = zip(*values)
        point, variance = median_adjust(points, variances)
        order = np.argsort(points, kind="stable")
        middle = order[(len(order) - 1) // 2 : len(order) // 2 + 1]
        eif = contribs[middle[0]]
        if len(middle) == 2 and eif is not None:
            eif = 0.5 * (eif + contribs[middle[1]])
        combined[key] = CombinedResult(point, variance, eif)
    return combined


def build_estimates(
    combined: dict,
    estimands: list,
    *,
    n: int,
    config: EstimatorConfig,
    family: str,
) -> list[EffectEstimate]:
    """Turn ``run_battery`` output into one estimate per requested estimand.

    The estimates name the design and population of ``family`` in
    ``ESTIMATOR_FAMILIES``; a two-arm estimate also names the strategy.

    Raises
    ------
    DegenerateEstimate
        If an estimate's standard error is not positive.
    """
    design, population = ESTIMATOR_FAMILIES[family]
    strategy = config.strategy if design == "two-arm" else None
    z = z_value(config.alpha)
    estimates = []
    for est in estimands:
        result = combined[est]
        se = checked_se(
            float(np.sqrt(result.variance / n)),
            f"{design} {est.kind} at level {est.level}",
        )
        estimates.append(
            EffectEstimate(
                estimand=est.kind,
                fixed_level=est.fixed_level,
                point=result.point,
                se=se,
                ci=(result.point - z * se, result.point + z * se),
                n=n,
                alpha=config.alpha,
                design=design,
                population=population,
                k_folds=config.k_folds,
                splits=config.splits,
                learner=config.outcome.kind,
                strategy=strategy,
                eif=result.eif,
            )
        )
    return estimates
