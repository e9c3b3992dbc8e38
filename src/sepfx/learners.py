"""Prediction models used as nuisance learners.

Three model families are available through one spec type:

* ``glm`` -- ridge-penalized linear or logistic regression on a basis
  expansion (intercept only, main effects, or main effects plus
  treatment-by-covariate interactions).  Solved in closed form (linear)
  or by damped Newton iterations (logistic), so fits are deterministic.
* ``random_forest`` -- bagged CART trees (see :mod:`sepfx.forest`).
* ``super_learner`` -- a convex stack of candidate specs with weights
  chosen by non-negative least squares on out-of-fold predictions.
  Forest candidates equal apart from ``trees`` share one grown forest.

A fit is a classification exactly when it has a ``clip``
(``fit_classifier``; a GLM is then logistic): it returns probabilities in
[clip, 1 - clip], so downstream inverse-probability weights stay bounded.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Protocol

import numpy as np
from scipy.special import expit

from .crossfit import make_folds
from .errors import (
    ConvergenceWarning,
    LearnerError,
    SeparationWarning,
    SingleClassWarning,
    TooFewRows,
)
from .forest import ForestPredictor, as_matrix, fit_forest, predict_forests
from .seeding import check_integers, derive_seed

DEFAULT_CLIP = 0.01
DEFAULT_RIDGE_SCALE = 1e-6
BASIS_CHOICES = ("intercept", "main", "interactions")
KIND_CHOICES = ("glm", "random_forest", "super_learner")


@dataclass(frozen=True)
class LearnerSpec:
    """Declarative description of a nuisance learner.

    ``ridge`` is an absolute penalty on non-intercept coefficients; when
    ``None`` it defaults to ``1e-6 * n`` at fit time.  ``ridge=0`` requests
    an unpenalized least-squares fit.  ``trees``, ``mtry``, ``min_leaf``,
    ``v_folds`` and ``seed`` must be integers, whatever the kind.
    """

    kind: str = "glm"
    basis: str = "interactions"
    ridge: float | None = None
    trees: int = 500
    mtry: int = 3
    min_leaf: int = 5
    candidates: tuple["LearnerSpec", ...] = ()
    v_folds: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KIND_CHOICES:
            raise LearnerError(f"unknown learner kind {self.kind!r}")
        if self.basis not in BASIS_CHOICES:
            raise LearnerError(f"unknown basis {self.basis!r}")
        check_integers(self, ("trees", "mtry", "min_leaf", "v_folds", "seed"))
        if self.kind == "super_learner" and not self.candidates:
            raise LearnerError("super_learner spec needs at least one candidate")
        if self.kind == "random_forest" and min(self.trees, self.mtry, self.min_leaf) < 1:
            raise LearnerError("forest sizes must be positive")
        if self.kind == "super_learner" and self.v_folds < 2:
            raise LearnerError("super_learner needs v_folds >= 2")


class FittedPredictor(Protocol):
    def predict(self, features: np.ndarray) -> np.ndarray: ...


def expand_basis(
    features: np.ndarray, basis: str, interact_cols: tuple[int, ...] = ()
) -> np.ndarray:
    """Build the design matrix: intercept, main effects, and interactions.

    Interaction columns multiply each listed treatment column with every
    non-treatment column; treatments are never interacted with each other.
    """
    X = as_matrix(features)
    n, p = X.shape
    blocks = [np.ones((n, 1))]
    if basis != "intercept":
        blocks.append(X)
        if basis == "interactions" and interact_cols:
            others = [j for j in range(p) if j not in interact_cols]
            for t in interact_cols:
                if others:
                    blocks.append(X[:, [t]] * X[:, others])
    return np.hstack(blocks)


def _penalty_mask(width: int) -> np.ndarray:
    mask = np.ones(width)
    mask[0] = 0.0  # intercept is never penalized
    return mask


def _solve_ridge(design: np.ndarray, targets: np.ndarray, penalty: float) -> np.ndarray:
    if penalty == 0.0:
        beta, *_ = np.linalg.lstsq(design, targets, rcond=None)
        return beta
    gram = design.T @ design
    gram[np.diag_indices_from(gram)] += penalty * _penalty_mask(design.shape[1])
    rhs = design.T @ targets
    try:
        return np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        beta, *_ = np.linalg.lstsq(gram, rhs, rcond=None)
        return beta


def _fit_logistic(
    design: np.ndarray,
    labels: np.ndarray,
    penalty: float,
    max_iter: int = 60,
    step_tol: float = 1e-11,
) -> np.ndarray:
    """Ridge-penalized logistic coefficients by damped Newton steps.

    Emits :class:`SeparationWarning` when the final linear predictor has
    the sign of every label, that is when it separates the labels
    completely (Albert & Anderson 1984), and :class:`ConvergenceWarning`
    when ``max_iter`` steps run out with none below ``step_tol``; either
    way the fit is returned unchanged.
    """
    width = design.shape[1]
    mask = _penalty_mask(width)
    ridge = penalty * mask
    diagonal = np.diag_indices(width)
    beta = np.zeros(width)

    def objective(b: np.ndarray) -> tuple[float, np.ndarray]:
        z = design @ b
        value = float(
            np.logaddexp(0.0, z).sum() - labels @ z + 0.5 * penalty * (mask * b * b).sum()
        )
        return value, z

    # each iteration starts from the linear predictor of the accepted candidate
    current, z = objective(beta)
    for _ in range(max_iter):
        prob = expit(z)
        grad = design.T @ (labels - prob) - ridge * beta
        weight = np.maximum(prob * (1.0 - prob), 1e-10)
        hess = (design * weight[:, None]).T @ design
        hess[diagonal] += ridge
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(hess, grad, rcond=None)
        scale = 1.0
        candidate = beta + step
        cand_obj, cand_z = objective(candidate)
        while cand_obj > current + 1e-12 and scale > 1e-8:
            scale *= 0.5
            candidate = beta + scale * step
            cand_obj, cand_z = objective(candidate)
        beta, current, z = candidate, cand_obj, cand_z
        if np.abs(scale * step).max() < step_tol:
            break
    else:
        warnings.warn(
            f"logistic fit did not converge: {max_iter} Newton steps ran out with "
            f"none below {step_tol:g}",
            ConvergenceWarning,
        )
    if np.all(np.where(labels == 1.0, z > 0.0, z < 0.0)):
        warnings.warn(
            "logistic fit separates the labels completely: no maximum-likelihood "
            "estimate exists, and the coefficients grow until the ridge penalty "
            "or the iteration limit stops them",
            SeparationWarning,
        )
    return beta


@dataclass
class GlmPredictor:
    """Linear fit on a fixed basis expansion; logistic when it has a ``clip``."""

    beta: np.ndarray
    basis: str
    interact_cols: tuple[int, ...]
    clip: float | None = None

    def predict(self, features: np.ndarray) -> np.ndarray:
        z = expand_basis(features, self.basis, self.interact_cols) @ self.beta
        if self.clip is None:
            return z
        return np.clip(expit(z), self.clip, 1.0 - self.clip)


@dataclass
class ConstantPredictor:
    """Predicts one value everywhere; exact fit for constant targets."""

    value: float

    def predict(self, features: np.ndarray) -> np.ndarray:
        features = as_matrix(features)
        return np.full(features.shape[0], self.value)


def _checked_rows(features, targets, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Features and targets as float arrays with equal, finite rows."""
    X = as_matrix(features)
    y = np.asarray(targets, dtype=np.float64).ravel()
    if X.shape[0] != y.shape[0]:
        raise LearnerError(f"features and {name} disagree on row count")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise LearnerError(f"features and {name} must be finite (no NaN or inf)")
    if y.shape[0] < 2:
        raise TooFewRows(f"need at least 2 rows, got {y.shape[0]}")
    return X, y


def _effective_ridge(spec: LearnerSpec, n: int) -> float:
    if spec.ridge is None:
        return DEFAULT_RIDGE_SCALE * n
    return float(spec.ridge)


def _fit(X, y, spec: LearnerSpec, interact_cols, clip: float | None) -> FittedPredictor:
    """Fit ``spec`` to checked rows: a regression when ``clip`` is None,
    a classification clipped to [clip, 1 - clip] otherwise."""
    if spec.kind == "glm":
        design = expand_basis(X, spec.basis, interact_cols)
        solve = _solve_ridge if clip is None else _fit_logistic
        beta = solve(design, y, _effective_ridge(spec, y.shape[0]))
        return GlmPredictor(beta, spec.basis, tuple(interact_cols), clip)
    if spec.kind == "random_forest":
        return fit_forest(X, y, spec.trees, spec.mtry, spec.min_leaf, spec.seed, clip=clip)
    return fit_super_learner(X, y, spec, interact_cols, clip)


def fit_regressor(
    features,
    targets,
    spec: LearnerSpec,
    interact_cols: tuple[int, ...] = (),
) -> FittedPredictor:
    """Fit a conditional-mean model of ``targets`` given ``features``.

    Constant targets short-circuit to an exact constant predictor for
    every learner kind.  Identical inputs (data, spec, seed) produce
    bit-identical predictors.  A NaN or infinite feature or target raises
    :class:`LearnerError` before anything is fit.
    """
    X, y = _checked_rows(features, targets, "targets")
    if np.ptp(y) == 0.0:
        return ConstantPredictor(float(y[0]))
    return _fit(X, y, spec, interact_cols, None)


def fit_classifier(
    features,
    labels,
    spec: LearnerSpec,
    interact_cols: tuple[int, ...] = (),
    clip: float = DEFAULT_CLIP,
) -> FittedPredictor:
    """Fit a binary-probability model; predictions lie in [clip, 1-clip].

    If only one class is present the fit degenerates to a clipped constant
    and a :class:`SingleClassWarning` is emitted.  A NaN or infinite
    feature or label raises :class:`LearnerError` before anything is fit.
    """
    X, y = _checked_rows(features, labels, "labels")
    if not ((y == 0.0) | (y == 1.0)).all():
        raise LearnerError("labels must be binary 0/1")
    if np.ptp(y) == 0.0:
        warnings.warn(
            "classifier saw a single class; using a clipped constant",
            SingleClassWarning,
        )
        value = float(np.clip(y[0], clip, 1.0 - clip))
        return ConstantPredictor(value)
    return _fit(X, y, spec, interact_cols, clip)


@dataclass
class SuperLearnerFit:
    """Convex combination of candidate fits with stacked weights."""

    candidate_fits: tuple[FittedPredictor, ...]
    weights: np.ndarray
    cv_losses: np.ndarray
    ensemble_cv_loss: float
    clip: float | None = None

    def predict(self, features: np.ndarray) -> np.ndarray:
        features = as_matrix(features)
        used = [j for j, w in enumerate(self.weights) if w != 0.0]
        preds = _predict_candidates(self.candidate_fits, used, features)
        out = np.zeros(features.shape[0])
        for j, pred in zip(used, preds):
            out += self.weights[j] * pred
        if self.clip is not None:
            out = np.clip(out, self.clip, 1.0 - self.clip)
        return out


def _fit_library(X, y, candidates, interact_cols, clip) -> tuple[FittedPredictor, ...]:
    """Fit every candidate, by :func:`fit_regressor` when ``clip`` is None
    and by :func:`fit_classifier` otherwise, growing one forest per group
    of forest specs that are equal apart from ``trees``.

    A forest is drawn tree by tree from its seed, so a smaller forest of a
    group is the leading slice of the group's largest; it shares those
    tree objects.  Data on which the largest fit is no forest (a single
    class or constant targets) is fit candidate by candidate.
    """
    def fit(spec: LearnerSpec) -> FittedPredictor:
        if clip is None:
            return fit_regressor(X, y, spec, interact_cols=interact_cols)
        return fit_classifier(X, y, spec, interact_cols=interact_cols, clip=clip)

    groups: dict = {}
    for j, spec in enumerate(candidates):
        # a forest spec with its tree count masked; any other spec stands alone
        key = replace(spec, trees=1) if spec.kind == "random_forest" else j
        groups.setdefault(key, []).append(j)
    fits: list = [None] * len(candidates)
    for members in groups.values():
        largest = max(members, key=lambda j: candidates[j].trees)
        grown = fit(candidates[largest])
        for j in members:
            if j == largest:
                fits[j] = grown
            elif isinstance(grown, ForestPredictor):
                fits[j] = ForestPredictor(trees=grown.trees[: candidates[j].trees], clip=grown.clip)
            else:
                fits[j] = fit(candidates[j])
    return tuple(fits)


def _predict_candidates(fits, indices, features: np.ndarray) -> list[np.ndarray]:
    """Predictions of ``fits[j]`` for j in ``indices``, with one pass over
    the trees of forests that share them."""
    forests = [j for j in indices if isinstance(fits[j], ForestPredictor)]
    shared = dict(zip(forests, predict_forests([fits[j] for j in forests], features)))
    return [shared[j] if j in shared else fits[j].predict(features) for j in indices]


def fit_super_learner(
    features,
    targets,
    spec: LearnerSpec,
    interact_cols: tuple[int, ...] = (),
    clip: float | None = None,
) -> SuperLearnerFit:
    """Stack ``spec.candidates`` by NNLS on out-of-fold predictions.

    With a ``clip`` the candidates and the stack are classifications.
    Weights live on the simplex.  If the normalized NNLS solution would
    lose to the single best candidate in cross-validated squared error,
    the weights collapse to that candidate (ties break toward the lower
    index), so the ensemble's CV loss never exceeds the best candidate's.
    Rows are checked as in :func:`fit_regressor` before anything is fit.
    """
    if spec.kind != "super_learner":
        raise LearnerError(f"need a super_learner spec, got {spec.kind!r}")
    X, y = _checked_rows(features, targets, "targets")
    n = y.shape[0]
    if n < spec.v_folds:
        raise TooFewRows(f"need at least {spec.v_folds} rows, got {n}")

    candidates = spec.candidates
    folds = make_folds(n, spec.v_folds, derive_seed(spec.seed, "super-learner-folds"))
    oof = np.empty((n, len(candidates)))
    for fold in range(spec.v_folds):
        train = folds.train_rows(fold)
        test = folds.test_rows(fold)
        fits = _fit_library(X[train], y[train], candidates, interact_cols, clip)
        preds = _predict_candidates(fits, range(len(candidates)), X[test])
        for j, pred in enumerate(preds):
            oof[test, j] = pred

    from scipy.optimize import nnls  # deferred: importing scipy.optimize costs ~0.3 s

    cv_losses = np.mean((y[:, None] - oof) ** 2, axis=0)
    raw, _ = nnls(oof, y)
    total = raw.sum()
    if total > 0.0:
        weights = raw / total
        ensemble_loss = float(np.mean((y - oof @ weights) ** 2))
    else:
        weights = None
        ensemble_loss = np.inf
    best = int(np.argmin(cv_losses))
    if weights is None or ensemble_loss > cv_losses[best] + 1e-9:
        weights = np.zeros(len(candidates))
        weights[best] = 1.0
        ensemble_loss = float(cv_losses[best])

    fits = _fit_library(X, y, candidates, interact_cols, clip)
    return SuperLearnerFit(
        candidate_fits=fits,
        weights=weights,
        cv_losses=cv_losses,
        ensemble_cv_loss=ensemble_loss,
        clip=clip,
    )


PRESET_CHOICES = ("glm", "rf", "sl")


def make_spec(name: str, seed: int = 0) -> LearnerSpec:
    """The learner presets ``PRESET_CHOICES`` of the CLI and simulations."""
    if name == "glm":
        return LearnerSpec(kind="glm", basis="interactions")
    if name == "rf":
        return LearnerSpec(kind="random_forest", seed=seed)
    if name == "sl":
        forests = tuple(
            LearnerSpec(kind="random_forest", trees=t, seed=seed)
            for t in (500, 1000, 1500)
        )
        return LearnerSpec(kind="super_learner", candidates=forests, seed=seed)
    raise LearnerError(f"unknown learner preset {name!r}")
