"""Prediction models used as nuisance learners.

Three model families are available through one spec type:

* ``glm`` -- ridge-penalized linear or logistic regression on a basis
  expansion (intercept only, main effects, or main effects plus
  treatment-by-covariate interactions).  Solved in closed form (linear)
  or by damped Newton iterations (logistic), so fits are deterministic.
* ``random_forest`` -- bagged CART trees (see :mod:`sepfx.forest`).
* ``super_learner`` -- a convex stack of candidate specs with weights
  chosen by non-negative least squares on out-of-fold predictions.

Binary-outcome models return probabilities clipped away from 0 and 1 so
downstream inverse-probability weights stay bounded.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Protocol

import numpy as np
from scipy.special import expit

from .errors import LearnerError, MissingTreatmentLevel, SingleClassWarning, TooFewRows
from .forest import fit_forest
from .seeding import derive_seed

DEFAULT_CLIP = 0.01
DEFAULT_RIDGE_SCALE = 1e-6
BASIS_CHOICES = ("intercept", "main", "interactions")
KIND_CHOICES = ("glm", "random_forest", "super_learner")


@dataclass(frozen=True)
class LearnerSpec:
    """Declarative description of a nuisance learner.

    ``ridge`` is an absolute penalty on non-intercept coefficients; when
    ``None`` it defaults to ``1e-6 * n`` at fit time.  ``ridge=0`` requests
    an unpenalized least-squares fit.
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
        if self.kind == "super_learner" and not self.candidates:
            raise LearnerError("super_learner spec needs at least one candidate")
        if self.kind == "random_forest" and min(self.trees, self.mtry, self.min_leaf) < 1:
            raise LearnerError("forest sizes must be positive")
        if self.kind == "super_learner" and self.v_folds < 2:
            raise LearnerError("super_learner needs v_folds >= 2")

    def to_dict(self) -> dict:
        if self.kind == "glm":
            return {"kind": self.kind, "basis": self.basis, "ridge": self.ridge}
        if self.kind == "random_forest":
            return {
                "kind": self.kind,
                "trees": self.trees,
                "mtry": self.mtry,
                "min_leaf": self.min_leaf,
                "seed": self.seed,
            }
        return {
            "kind": self.kind,
            "v_folds": self.v_folds,
            "candidates": [c.to_dict() for c in self.candidates],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "LearnerSpec":
        payload = dict(payload)
        if "candidates" in payload:
            payload["candidates"] = tuple(
                cls.from_dict(c) for c in payload["candidates"]
            )
        return cls(**payload)


class FittedPredictor(Protocol):
    def predict(self, features: np.ndarray) -> np.ndarray: ...


def _as_matrix(features) -> np.ndarray:
    arr = np.asarray(features, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    return arr


def expand_basis(
    features: np.ndarray, basis: str, interact_cols: tuple[int, ...] = ()
) -> np.ndarray:
    """Build the design matrix: intercept, main effects, and interactions.

    Interaction columns multiply each listed treatment column with every
    non-treatment column; treatments are never interacted with each other.
    """
    X = _as_matrix(features)
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
    mask = _penalty_mask(design.shape[1])
    beta = np.zeros(design.shape[1])

    def objective(b: np.ndarray) -> float:
        z = design @ b
        return float(
            np.sum(np.logaddexp(0.0, z))
            - labels @ z
            + 0.5 * penalty * np.sum(mask * b * b)
        )

    current = objective(beta)
    for _ in range(max_iter):
        z = design @ beta
        prob = expit(z)
        grad = design.T @ (labels - prob) - penalty * mask * beta
        weight = np.maximum(prob * (1.0 - prob), 1e-10)
        hess = (design * weight[:, None]).T @ design
        hess[np.diag_indices_from(hess)] += penalty * mask
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(hess, grad, rcond=None)
        scale = 1.0
        candidate = beta + step
        cand_obj = objective(candidate)
        while cand_obj > current + 1e-12 and scale > 1e-8:
            scale *= 0.5
            candidate = beta + scale * step
            cand_obj = objective(candidate)
        beta, current = candidate, cand_obj
        if np.max(np.abs(scale * step)) < step_tol:
            break
    return beta


@dataclass
class GlmPredictor:
    """Linear or logistic fit on a fixed basis expansion."""

    beta: np.ndarray
    basis: str
    interact_cols: tuple[int, ...]
    link: str  # "identity" or "logit"
    clip: float | None = None
    n_features: int = 0

    def predict(self, features: np.ndarray) -> np.ndarray:
        design = expand_basis(features, self.basis, self.interact_cols)
        z = design @ self.beta
        if self.link == "logit":
            z = expit(z)
        if self.clip is not None:
            z = np.clip(z, self.clip, 1.0 - self.clip)
        return z

    @property
    def coefficients(self) -> np.ndarray:
        return self.beta


@dataclass
class ConstantPredictor:
    """Predicts one value everywhere; exact fit for constant targets."""

    value: float
    n_features: int = 0

    def predict(self, features: np.ndarray) -> np.ndarray:
        features = _as_matrix(features)
        return np.full(features.shape[0], self.value)


def _effective_ridge(spec: LearnerSpec, n: int) -> float:
    if spec.ridge is None:
        return DEFAULT_RIDGE_SCALE * n
    return float(spec.ridge)


def fit_regressor(
    features,
    targets,
    spec: LearnerSpec,
    interact_cols: tuple[int, ...] = (),
) -> FittedPredictor:
    """Fit a conditional-mean model of ``targets`` given ``features``.

    Constant targets short-circuit to an exact constant predictor for
    every learner kind.  Identical inputs (data, spec, seed) produce
    bit-identical predictors.
    """
    X = _as_matrix(features)
    y = np.asarray(targets, dtype=np.float64).ravel()
    if X.shape[0] != y.shape[0]:
        raise LearnerError("features and targets disagree on row count")
    if y.shape[0] < 2:
        raise TooFewRows(f"need at least 2 rows, got {y.shape[0]}")
    if np.ptp(y) == 0.0:
        return ConstantPredictor(float(y[0]), n_features=X.shape[1])
    if spec.kind == "glm":
        design = expand_basis(X, spec.basis, interact_cols)
        beta = _solve_ridge(design, y, _effective_ridge(spec, y.shape[0]))
        return GlmPredictor(
            beta=beta,
            basis=spec.basis,
            interact_cols=tuple(interact_cols),
            link="identity",
            n_features=X.shape[1],
        )
    if spec.kind == "random_forest":
        return fit_forest(X, y, spec.trees, spec.mtry, spec.min_leaf, spec.seed)
    return fit_super_learner(
        X, y, spec.candidates, spec.v_folds, seed=spec.seed,
        interact_cols=interact_cols, task="regression",
    )


def fit_classifier(
    features,
    labels,
    spec: LearnerSpec,
    interact_cols: tuple[int, ...] = (),
    clip: float = DEFAULT_CLIP,
) -> FittedPredictor:
    """Fit a binary-probability model; predictions lie in [clip, 1-clip].

    If only one class is present the fit degenerates to a clipped constant
    and a :class:`SingleClassWarning` is emitted.
    """
    X = _as_matrix(features)
    y = np.asarray(labels, dtype=np.float64).ravel()
    if X.shape[0] != y.shape[0]:
        raise LearnerError("features and labels disagree on row count")
    if y.shape[0] < 2:
        raise TooFewRows(f"need at least 2 rows, got {y.shape[0]}")
    if not np.isin(y, (0.0, 1.0)).all():
        raise LearnerError("labels must be binary 0/1")
    if np.ptp(y) == 0.0:
        warnings.warn(
            "classifier saw a single class; using a clipped constant",
            SingleClassWarning,
        )
        value = float(np.clip(y[0], clip, 1.0 - clip))
        return ConstantPredictor(value, n_features=X.shape[1])
    if spec.kind == "glm":
        design = expand_basis(X, spec.basis, interact_cols)
        beta = _fit_logistic(design, y, _effective_ridge(spec, y.shape[0]))
        return GlmPredictor(
            beta=beta,
            basis=spec.basis,
            interact_cols=tuple(interact_cols),
            link="logit",
            clip=clip,
            n_features=X.shape[1],
        )
    if spec.kind == "random_forest":
        return fit_forest(
            X, y, spec.trees, spec.mtry, spec.min_leaf, spec.seed, clip=clip
        )
    return fit_super_learner(
        X, y, spec.candidates, spec.v_folds, seed=spec.seed,
        interact_cols=interact_cols, task="classification", clip=clip,
    )


@dataclass
class SuperLearnerFit:
    """Convex combination of candidate fits with stacked weights."""

    candidate_fits: tuple[FittedPredictor, ...]
    weights: np.ndarray
    cv_losses: np.ndarray
    ensemble_cv_loss: float
    clip: float | None = None
    n_features: int = 0

    def predict(self, features: np.ndarray) -> np.ndarray:
        features = _as_matrix(features)
        out = np.zeros(features.shape[0])
        for w, fit in zip(self.weights, self.candidate_fits):
            if w != 0.0:
                out += w * fit.predict(features)
        if self.clip is not None:
            out = np.clip(out, self.clip, 1.0 - self.clip)
        return out


def _fit_candidate(
    X: np.ndarray,
    y: np.ndarray,
    candidate: LearnerSpec,
    task: str,
    interact_cols: tuple[int, ...],
    clip: float,
) -> FittedPredictor:
    if task == "classification":
        return fit_classifier(X, y, candidate, interact_cols=interact_cols, clip=clip)
    return fit_regressor(X, y, candidate, interact_cols=interact_cols)


def fit_super_learner(
    features,
    targets,
    candidates: tuple[LearnerSpec, ...],
    v_folds: int = 5,
    seed: int = 0,
    interact_cols: tuple[int, ...] = (),
    task: str = "regression",
    clip: float | None = None,
) -> SuperLearnerFit:
    """Stack candidate learners by NNLS on out-of-fold predictions.

    Weights live on the simplex.  If the normalized NNLS solution would
    lose to the single best candidate in cross-validated squared error,
    the weights collapse to that candidate (ties break toward the lower
    index), so the ensemble's CV loss never exceeds the best candidate's.
    """
    X = _as_matrix(features)
    y = np.asarray(targets, dtype=np.float64).ravel()
    n = y.shape[0]
    if not candidates:
        raise LearnerError("super learner needs at least one candidate")
    if v_folds < 2:
        raise LearnerError("super learner needs at least 2 internal folds")
    if n < v_folds:
        raise TooFewRows(f"need at least {v_folds} rows, got {n}")

    rng = np.random.default_rng(derive_seed(seed, "super-learner-folds"))
    assignment = np.empty(n, dtype=np.int64)
    assignment[rng.permutation(n)] = np.arange(n) % v_folds

    fit_clip = clip if clip is not None else DEFAULT_CLIP
    oof = np.empty((n, len(candidates)))
    for fold in range(v_folds):
        train = assignment != fold
        test = ~train
        for j, candidate in enumerate(candidates):
            fit = _fit_candidate(
                X[train], y[train], candidate, task, interact_cols, fit_clip
            )
            oof[test, j] = fit.predict(X[test])

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

    fits = tuple(
        _fit_candidate(X, y, candidate, task, interact_cols, fit_clip)
        for candidate in candidates
    )
    return SuperLearnerFit(
        candidate_fits=fits,
        weights=weights,
        cv_losses=cv_losses,
        ensemble_cv_loss=ensemble_loss,
        clip=clip,
        n_features=X.shape[1],
    )


@dataclass
class TreatmentStrategyFit:
    """Outcome model indexed by a binary treatment.

    The single-model strategy ("S") includes the treatment as an
    interacting feature; the stratified strategy ("T") fits one model per
    treatment arm; "ensemble" keeps both and averages predictions.
    """

    strategy: str
    joint_fit: FittedPredictor | None = None
    arm_fits: dict[int, FittedPredictor] | None = None

    def predict(self, level: int, features: np.ndarray) -> np.ndarray:
        features = _as_matrix(features)
        outputs = []
        if self.joint_fit is not None:
            stacked = np.column_stack(
                [np.full(features.shape[0], float(level)), features]
            )
            outputs.append(self.joint_fit.predict(stacked))
        if self.arm_fits is not None:
            outputs.append(self.arm_fits[level].predict(features))
        if not outputs:
            raise LearnerError("strategy fit holds no models")
        return outputs[0] if len(outputs) == 1 else 0.5 * (outputs[0] + outputs[1])


def fit_with_treatment_strategy(
    features,
    treatment,
    targets,
    spec: LearnerSpec,
    strategy: str = "ensemble",
) -> TreatmentStrategyFit:
    """Fit an outcome model that can be queried at either treatment level.

    Raises
    ------
    MissingTreatmentLevel
        If the stratified path is requested and an arm has no rows.
    """
    if strategy not in ("S", "T", "ensemble"):
        raise LearnerError(f"unknown strategy {strategy!r}")
    X = _as_matrix(features)
    a = np.asarray(treatment, dtype=np.float64).ravel()
    y = np.asarray(targets, dtype=np.float64).ravel()
    if not np.isin(a, (0.0, 1.0)).all():
        raise LearnerError("treatment must be binary 0/1")

    joint_fit = None
    arm_fits = None
    if strategy in ("S", "ensemble"):
        stacked = np.column_stack([a, X])
        joint_fit = fit_regressor(stacked, y, spec, interact_cols=(0,))
    if strategy in ("T", "ensemble"):
        arm_fits = {}
        for level in (0, 1):
            rows = a == level
            if not rows.any():
                raise MissingTreatmentLevel(
                    f"treatment level {level} absent; stratified fit impossible"
                )
            arm_fits[level] = fit_regressor(X[rows], y[rows], spec)
    return TreatmentStrategyFit(
        strategy=strategy, joint_fit=joint_fit, arm_fits=arm_fits
    )


def make_spec(name: str, seed: int = 0) -> LearnerSpec:
    """Named learner presets used by the CLI and simulation harness."""
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
