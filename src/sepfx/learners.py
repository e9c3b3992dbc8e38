"""Prediction models used as nuisance learners.

Three model families are available through one spec type:

* ``glm`` -- ridge-penalized linear or logistic regression on a basis
  expansion (intercept only, main effects, or main effects plus
  treatment-by-covariate interactions).  Solved in closed form (linear)
  or by damped Newton iterations (logistic), so fits are deterministic.
* ``random_forest`` -- bagged CART trees (see :mod:`sepfx.forest`).
* ``super_learner`` -- a convex stack of candidate specs with weights
  chosen by non-negative least squares on out-of-fold predictions.
  Forest candidates equal apart from ``trees`` share one grown forest,
  whose internal-fold trees predict the fold's held-out rows as they
  grow and are never held (:func:`_fit_libraries`).

A fit is a classification exactly when it has a ``clip``
(``fit_classifier``; a GLM is then logistic): it returns probabilities in
[clip, 1 - clip], so downstream inverse-probability weights stay bounded.

Every fit goes through one block fitter, :func:`_fit_libraries`: a plain
spec is a one-candidate library on one block per target set, a super
learner's candidates a library on its internal folds and the full data.
Constant targets get their exact constant in every fit.
:func:`fit_regressors` fits several target sets on one feature matrix in
one batch, each bit for bit as :func:`fit_regressor` fits it alone: GLMs
share one design, forests grow tree t of every set in one pass, and super
learners share their internal folds and grow all their forests together.
``fit_super_learner`` is ``fit_regressor`` or ``fit_classifier`` of a
super-learner spec.  Designs are built only to fit: a fitted GLM predicts
from its coefficients, and at treatment levels held by :class:`AtLevels`
from coefficients folded into a constant and covariate weights
(:meth:`GlmPredictor.predict`); every model predicts alone, through its
own ``predict``, where its values are used.  Logistic probabilities come
from :func:`sepfx.special.expit`, and the super learner's NNLS is Lawson
and Hanson's, in numpy (:func:`_nnls`), so no learner imports scipy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from operator import mul
from typing import Protocol

import numpy as np

from .crossfit import make_folds
from .errors import (
    ConvergenceWarning,
    LearnerError,
    SeparationWarning,
    SingleClassWarning,
    TooFewRows,
)
from .forest import ForestPredictor, as_matrix, fit_forest, fit_forests
from .seeding import check_integers, derive_seed, is_finite_number
from .special import expit

DEFAULT_CLIP = 0.01
DEFAULT_RIDGE_SCALE = 1e-6
BASIS_CHOICES = ("intercept", "main", "interactions")
KIND_CHOICES = ("glm", "random_forest", "super_learner")
DESIGN_ROWS = 4096  # rows of a design written per pass


@dataclass(frozen=True)
class LearnerSpec:
    """Declarative description of a nuisance learner.

    ``ridge`` penalizes non-intercept coefficients on the standardized
    scale, coefficient j by ``ridge * s_j**2`` with ``s_j`` the SD of its
    design column on the training rows, so a fit does not depend on the
    columns' units; when ``None`` it defaults to ``1e-6 * n`` at fit time.
    ``ridge=0`` requests an unpenalized least-squares fit; a negative,
    non-finite or bool ``ridge`` raises :class:`LearnerError`.  ``trees``,
    ``mtry``, ``min_leaf``, ``v_folds`` and ``seed`` must be integers,
    whatever the kind.
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
        if self.ridge is not None and not (is_finite_number(self.ridge) and self.ridge >= 0):
            raise LearnerError(f"ridge must be a finite number >= 0 or None, got {self.ridge!r}")
        specs = self.candidates
        if not (isinstance(specs, tuple) and all(isinstance(c, LearnerSpec) for c in specs)):
            raise LearnerError(f"candidates must be a tuple of LearnerSpec, got {specs!r}")
        if self.kind == "super_learner" and not self.candidates:
            raise LearnerError("super_learner spec needs at least one candidate")
        if self.kind == "random_forest" and min(self.trees, self.mtry, self.min_leaf) < 1:
            raise LearnerError("forest sizes must be positive")
        if self.kind == "super_learner" and self.v_folds < 2:
            raise LearnerError("super_learner needs v_folds >= 2")


class FittedPredictor(Protocol):
    def predict(self, features: np.ndarray) -> np.ndarray: ...


def expand_basis(features: np.ndarray, basis: str, interact_cols: tuple[int, ...] = ()) -> np.ndarray:
    """Build the design matrix a GLM is fit on: intercept, main effects, and
    interactions.

    Interaction columns multiply each listed treatment column with every
    non-treatment column; treatments are never interacted with each other.
    The columns are written into one array, ``DESIGN_ROWS`` rows at a
    time, so that each pass reads and writes rows still in cache, and each
    interaction column by one product of two feature columns.  A fitted
    GLM predicts without one (:meth:`GlmPredictor.predict`).
    """
    X = as_matrix(features)
    n, p = X.shape
    others = [j for j in range(p) if j not in interact_cols]
    pairs = interact_cols if basis == "interactions" and others else ()
    width = 1 if basis == "intercept" else 1 + p + len(pairs) * len(others)
    design = np.empty((n, width))
    design[:, 0] = 1.0
    if basis == "intercept":
        return design
    for lo in range(0, n, DESIGN_ROWS):
        x, out = X[lo : lo + DESIGN_ROWS], design[lo : lo + DESIGN_ROWS]
        out[:, 1 : p + 1] = x
        columns = iter(range(p + 1, width))
        for t in pairs:
            for j in others:
                np.multiply(x[:, t], x[:, j], out=out[:, next(columns)])
    return design


def _penalty_weights(design: np.ndarray) -> np.ndarray:
    """Each design column's variance over its rows, ``s_j**2`` (1 without
    spread; 0 for the intercept, never penalized): the weights of a ridge
    on the standardized scale.  Read as offsets from the first row."""
    n = design.shape[0]
    ones, blocks = np.ones(min(n, DESIGN_ROWS)), []
    for lo in range(0, n, DESIGN_ROWS):
        offsets = design[lo : lo + DESIGN_ROWS] - design[0]
        row = ones[: len(offsets)]  # column sums, as one BLAS call each
        blocks.append((row @ offsets, row @ np.square(offsets, out=offsets)))
    total, squares = (sum(sums[1:], sums[0]) for sums in zip(*blocks))  # from the first block's
    variance = squares / n - (total / n) ** 2
    variance[variance <= 0.0] = 1.0
    variance[0] = 0.0
    return variance


def _fit_logistic(
    design: np.ndarray, labels: np.ndarray, ridge, max_iter=60, step_tol=1e-11, design_t=None
) -> np.ndarray:
    """Logistic coefficients, each penalized by ``ridge[j] * beta_j**2 / 2``,
    by damped Newton steps.  A step is halved while it raises the objective
    by more than ``1e-12 * |objective|``, a slack above its rounding noise.

    Emits :class:`SeparationWarning` when the final linear predictor has
    the sign of every label, that is when it separates the labels
    completely (Albert & Anderson 1984), and :class:`ConvergenceWarning`
    when ``max_iter`` steps run out with none below ``step_tol``; either
    way the fit is returned unchanged.  ``design_t`` is a C-contiguous
    transpose of the design, which several fits on it can share.
    """
    design_t = np.ascontiguousarray(design.T) if design_t is None else design_t
    scaled = np.empty_like(design_t)  # the transpose times each step's weights
    width = design.shape[1]
    beta = np.zeros(width)

    def objective(b: np.ndarray) -> tuple[float, np.ndarray]:
        z = design @ b
        soft = np.abs(z)  # softplus(z) = log1p(exp(-|z|)) + max(z, 0), in place
        np.log1p(np.exp(np.negative(soft, out=soft), out=soft), out=soft)
        soft += np.maximum(z, 0.0)
        return float(soft.sum() - labels @ z + 0.5 * (ridge * b * b).sum()), z

    # each iteration starts from the linear predictor of the accepted candidate
    current, z = objective(beta)
    for _ in range(max_iter):
        prob = expit(z)
        grad = design_t @ (labels - prob) - ridge * beta
        weight = np.maximum(prob * (1.0 - prob), 1e-10)
        hess = np.multiply(design_t, weight, out=scaled) @ design
        hess.flat[:: width + 1] += ridge
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(hess, grad, rcond=None)
        scale = 1.0
        candidate = beta + step
        cand_obj, cand_z = objective(candidate)
        while cand_obj > current + 1e-12 * abs(current) and scale > 1e-8:
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

    def predict(self, features: np.ndarray, levels: tuple = ()) -> np.ndarray:
        """Predictions on ``features``, or on the features that follow its
        leading treatments (the ``interact_cols``) held at ``levels``
        (:class:`AtLevels`), from the coefficients, with no design.

        At levels the intercept and treatment terms fold into a constant
        ``c`` and each interaction block into the covariate weights, ``w =
        beta_x + sum_t level_t * gamma_t``, so ``z = X @ w + c``; otherwise
        each block adds ``X[:, t] * (X[:, others] @ gamma_t)`` to the main
        effects.  Either equals ``expand_basis(...) @ beta`` up to rounding.
        """
        X = as_matrix(features)
        k, p = len(levels), X.shape[1]
        beta = self.beta
        others = [j for j in range(k + p) if j not in self.interact_cols]
        pairs = list(self.interact_cols) if self.basis == "interactions" and others else []
        blocks = beta[k + p + 1 :].reshape(len(pairs), len(others))
        if self.basis == "intercept":
            z = np.full(X.shape[0], beta[0])
        elif levels:
            w = beta[k + 1 : k + p + 1] + sum(levels[t] * block for t, block in zip(pairs, blocks))
            z = X @ w + (beta[0] + np.dot(levels, beta[1 : k + 1]))
        else:
            z = X @ beta[1 : p + 1] + beta[0]
            if pairs:
                z += (X[:, pairs] * (X[:, others] @ blocks.T)).sum(axis=1)
        if self.clip is None:
            return z
        return np.clip(expit(z), self.clip, 1.0 - self.clip)


@dataclass
class AtLevels:
    """``fit`` with its leading features, treatments (a GLM's
    ``interact_cols``), held at ``levels``: a GLM folds them into its
    coefficients (:meth:`GlmPredictor.predict`), and any other model
    predicts on the held columns stacked in front of the features."""

    fit: FittedPredictor
    levels: tuple

    def predict(self, features: np.ndarray) -> np.ndarray:
        if isinstance(self.fit, GlmPredictor):
            return self.fit.predict(features, self.levels)
        X = as_matrix(features)
        held = np.full((X.shape[0], len(self.levels)), self.levels, dtype=np.float64)
        return self.fit.predict(np.column_stack([held, X]))


@dataclass
class ConstantPredictor:
    """Predicts one value everywhere; exact fit for constant targets."""

    value: float

    def predict(self, features: np.ndarray) -> np.ndarray:
        features = as_matrix(features)
        return np.full(features.shape[0], self.value)


def _enough_rows(y: np.ndarray) -> None:
    if y.shape[0] < 2:
        raise TooFewRows(f"need at least 2 rows, got {y.shape[0]}")


def _checked_rows(features, target_sets, name: str) -> tuple[np.ndarray, list[np.ndarray]]:
    """Features and each set of targets as float arrays with equal, finite
    rows; the features are scanned once, however many sets there are."""
    X = as_matrix(features)
    finite = np.isfinite(X).all()
    ys = []
    for targets in target_sets:
        y = np.asarray(targets, dtype=np.float64).ravel()
        if X.shape[0] != y.shape[0]:
            raise LearnerError(f"features and {name} disagree on row count")
        if not (finite and np.isfinite(y).all()):
            raise LearnerError(f"features and {name} must be finite (no NaN or inf)")
        _enough_rows(y)
        ys.append(y)
    return X, ys


def _constant_fit(targets: np.ndarray, clip: float | None) -> ConstantPredictor | None:
    """The exact fit of constant targets, clipped for a classification
    (which warns of its single class); None for targets that vary.  Labels
    that are not all 0 or 1 raise :class:`LearnerError`."""
    if clip is not None and not ((targets == 0.0) | (targets == 1.0)).all():
        raise LearnerError("labels must be binary 0/1")
    if np.ptp(targets) != 0.0:
        return None
    if clip is None:
        return ConstantPredictor(float(targets[0]))
    warnings.warn(
        "classifier saw a single class; using a clipped constant",
        SingleClassWarning,
    )
    return ConstantPredictor(float(np.clip(targets[0], clip, 1.0 - clip)))


def _fit_checked(X, ys, spec: LearnerSpec, interact_cols, clip: float | None) -> list:
    """``spec`` fit to each of the checked target sets ``ys`` on the
    features ``X``: regressions when ``clip`` is None, classifications
    clipped to [clip, 1 - clip] otherwise.

    Each set is fit as it would be alone, bit for bit, with its warnings
    in the order of separate fits: super learners share their internal
    folds, and any other spec is a one-candidate library.
    """
    if spec.kind == "super_learner":
        return _fit_super_learners(X, ys, spec, interact_cols, clip)
    blocks = [(X, y, None) for y in ys]
    return [entry[0] for entry in _fit_libraries(blocks, (spec,), interact_cols, clip)]


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
    :class:`LearnerError` before anything is fit.  This is
    :func:`fit_regressors` of one target set.
    """
    return fit_regressors(features, [targets], spec, interact_cols)[0]


def fit_regressors(features, target_sets, spec: LearnerSpec, interact_cols=()) -> list:
    """``[fit_regressor(features, targets, spec, interact_cols) for targets
    in target_sets]``, bit for bit, from one batch: the features are
    scanned once, every set's rows are checked before anything is fit, and
    the sets share GLM designs, forest growth and super-learner folds."""
    X, ys = _checked_rows(features, target_sets, "targets")
    return _fit_checked(X, ys, spec, interact_cols, None)


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
    X, ys = _checked_rows(features, [labels], "labels")
    return _fit_checked(X, ys, spec, interact_cols, clip)[0]


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
        out = np.zeros(features.shape[0])
        for fit, weight in zip(self.candidate_fits, self.weights):
            if weight != 0.0:
                out += weight * fit.predict(features)
        if self.clip is not None:
            out = np.clip(out, self.clip, 1.0 - self.clip)
        return out


def _fit_glm(X, y, spec: LearnerSpec, interact_cols, clip, designs: dict) -> GlmPredictor:
    """The GLM of ``spec`` fit to ``y`` on ``X``: logistic by
    :func:`_fit_logistic` with a ``clip``, and otherwise the solution of
    the ridged normal equations (least squares without a ridge).  Every
    fit of ``spec`` on ``X`` shares the design, ridge and ridged Gram or
    transpose that ``designs`` holds, built at the first."""
    if spec not in designs:
        design = expand_basis(X, spec.basis, interact_cols)
        scale = DEFAULT_RIDGE_SCALE * X.shape[0] if spec.ridge is None else float(spec.ridge)
        ridge = scale * _penalty_weights(design)
        if clip is not None:
            shared = np.ascontiguousarray(design.T)
        elif np.any(ridge):
            shared = design.T @ design
            shared.flat[:: shared.shape[0] + 1] += ridge
        else:
            shared = None
        designs[spec] = design, ridge, shared
    design, ridge, shared = designs[spec]
    if clip is not None:
        beta = _fit_logistic(design, y, ridge, design_t=shared)
    elif shared is None:
        beta = np.linalg.lstsq(design, y, rcond=None)[0]
    else:
        rhs = design.T @ y
        try:
            beta = np.linalg.solve(shared, rhs)
        except np.linalg.LinAlgError:
            beta = np.linalg.lstsq(shared, rhs, rcond=None)[0]
    return GlmPredictor(beta, spec.basis, tuple(interact_cols), clip)


def _fit_libraries(blocks, candidates, interact_cols, clip) -> list[list]:
    """Every candidate fit on every block ``(X, y, held_out)`` of checked
    features, as :func:`fit_regressor` fits it when ``clip`` is None and
    as :func:`fit_classifier` does otherwise, bit for bit.  A block's
    entry holds the fits when its ``held_out`` is None, and otherwise each
    fit's predictions on the ``held_out`` features, from fits that are
    not kept.

    Forest specs equal apart from ``trees`` form a group that grows only
    its largest forest: a forest is drawn tree by tree from its seed, so a
    smaller forest of the group is the leading slice of the largest and
    shares those tree objects.  The blocks are taken one at a time, in
    order: the targets are checked, constant targets or a single class
    give each member its constant (with its warning), and every other
    candidate is fit, and on a held-out block predicts.  A GLM shares its
    design with its spec's fits on the blocks just before on the same
    features object.  Only the groups' forests wait, and each group grows
    them on all its blocks in one :func:`fit_forests` call, in which a
    held-out block's trees predict as they grow and are dropped.  A lone
    block's forest grows through :func:`fit_forest`, where the benchmark
    counts a forest's trees.
    """
    groups: dict = {}
    for j, spec in enumerate(candidates):
        # a forest spec with its tree count masked; any other spec stands alone
        key = replace(spec, trees=1) if spec.kind == "random_forest" else j
        groups.setdefault(key, []).append(j)
    taken, out = [], []
    grow: dict = {}  # (largest, members) of a group -> the blocks its forest grows on
    designs: dict = {}  # GLM spec -> its design on the current feature matrix
    for b, (X, y, held_out) in enumerate(blocks):
        _enough_rows(y)
        if taken and X is not taken[-1][0]:
            designs = {}
        taken.append((X, y, held_out))
        entry: list = [None] * len(candidates)
        for members in groups.values():
            largest = max(members, key=lambda j: candidates[j].trees)
            for j in [largest] + [j for j in members if j != largest]:
                fit = _constant_fit(y, clip)
                if fit is None and candidates[j].kind == "random_forest":
                    grow.setdefault((largest, tuple(members)), []).append(b)
                    break
                if fit is None and candidates[j].kind == "glm":
                    fit = _fit_glm(X, y, candidates[j], interact_cols, clip, designs)
                elif fit is None:
                    fit = _fit_super_learners(X, [y], candidates[j], interact_cols, clip)[0]
                entry[j] = fit if held_out is None else fit.predict(held_out)
        out.append(entry)
    for (largest, members), grown in grow.items():
        spec = candidates[largest]
        settings = (spec.trees, spec.mtry, spec.min_leaf, spec.seed, clip)
        if len(taken) == 1 and taken[0][2] is None:
            forests = [fit_forest(*taken[0][:2], *settings)]
        else:
            sizes = {candidates[j].trees for j in members}
            forests = fit_forests([taken[b] for b in grown], *settings, sizes)
        for b, forest in zip(grown, forests):
            kept = taken[b][2] is None
            for j in members:
                size = candidates[j].trees
                out[b][j] = ForestPredictor(forest.trees[:size], clip) if kept else forest[size]
    return out


def _fit_super_learners(X, ys, spec: LearnerSpec, interact_cols, clip) -> list:
    """The super learner of ``spec`` on each checked target set of ``ys``,
    or the exact constant of a constant set, as :func:`fit_regressor` and
    :func:`fit_classifier` fit each alone.

    Every set draws the same internal folds, since they have the same
    rows and seed, and the sets' blocks (each fold's training rows, then
    all rows) go through one :func:`_fit_libraries` call, set by set, so
    that each set's constant check and its blocks' warnings come in the
    order of separate fits.  The internal-fold fits are kept only as their
    out-of-fold predictions.
    """
    n = X.shape[0]
    folds = make_folds(n, spec.v_folds, derive_seed(spec.seed, "super-learner-folds"))
    splits = [(folds.train_rows(fold), folds.test_rows(fold)) for fold in range(spec.v_folds)]
    x_splits = [(X[train], X[test]) for train, test in splits]
    fits: list = [None] * len(ys)
    stacked = []  # the sets whose super learner is fit, in order

    def blocks():
        # taken lazily, so each set's constant check comes right before its blocks
        for i, y in enumerate(ys):
            fits[i] = _constant_fit(y, clip)
            if fits[i] is None:
                stacked.append(i)
                for (train, _), (x_train, x_test) in zip(splits, x_splits):
                    yield x_train, y[train], x_test
                yield X, y, None

    library = _fit_libraries(blocks(), spec.candidates, interact_cols, clip)
    per_set = spec.v_folds + 1
    for k, i in enumerate(stacked):
        entries = library[k * per_set : (k + 1) * per_set]
        oof = np.empty((n, len(spec.candidates)))
        for (_, test), preds in zip(splits, entries):
            for j, pred in enumerate(preds):
                oof[test, j] = pred
        fits[i] = _stack(ys[i], oof, entries[-1], clip)
    return fits


def _nnls(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The ``x >= 0`` that minimizes ``||a @ x - b||``, by Lawson and
    Hanson's active-set method (*Solving Least Squares Problems*, ch. 23).

    A Householder QR of ``[a, b]``, by numpy's own reductions rather than
    BLAS so that the result does not depend on the BLAS kernel, leaves the
    same problem on ``min(m, k)`` rows.  The loop runs on those in Python
    floats and keeps the passive columns triangular: a column enters by a
    reflection and leaves by Givens rotations.  The free column of largest
    positive gradient enters only if the part of it outside the passive
    columns' span does not vanish beside the part inside (at a factor
    0.01) and its coefficient would be positive, so of duplicate or
    collinear columns one enters.  With no positive gradient at 0 the
    result is 0.  After ``3 k`` solves the loop stops at its current
    point, which is feasible; it never raises.
    """
    m, k = a.shape
    rows = min(m, k)
    w = np.empty((k + 1, m))  # column j of [a, b] as row j, so that a reflection reads rows
    w[:k], w[k] = a.T, b
    for c in range(rows):
        pivot = w[c, c:]
        norm = math.sqrt(np.square(pivot).sum())
        if norm == 0.0:
            continue
        top = float(pivot[0])
        diag = -norm if top > 0.0 else norm
        pivot[0] = top - diag  # now the reflector
        rest = w[c + 1 :, c:]
        rest -= ((rest * pivot).sum(axis=1) / norm / (norm + abs(top)))[:, None] * pivot
        pivot[0] = diag
    cols = w[:, :rows].tolist()  # R's rows k and below hold only the residual of b
    for j, col in enumerate(cols):
        col[j + 1 :] = [0.0] * (rows - j - 1)  # below R's diagonal w holds the reflectors
    f = cols.pop()
    x = [0.0] * k
    passive: list[int] = []  # in triangle order
    free = list(range(k))
    solves = 0
    while free and len(passive) < rows:
        n = len(passive)
        tail = f[n:]
        grad = {j: sum(map(mul, cols[j][n:], tail)) for j in free}
        for j in sorted(free, key=grad.get, reverse=True):  # stable: ties take the lower index
            if grad[j] <= 0.0:
                return np.array(x)
            col = cols[j]
            norm, inside = math.hypot(*col[n:]), math.hypot(*col[:n])
            if inside + 0.01 * norm - inside > 0.0:
                v = col[n:]
                diag = -norm if v[0] > 0.0 else norm
                width = norm + abs(v[0])  # ||v||^2 = 2 norm width, a product that can underflow
                v[0] -= diag
                top = tail[0] - sum(map(mul, v, tail)) / norm / width * v[0]  # f's row n, reflected
                if top / diag > 0.0:
                    break  # its coefficient in the solve with it is positive
        else:
            return np.array(x)
        free.remove(j)
        for u in [f] + [cols[i] for i in free]:
            s = sum(map(mul, v, u[n:])) / norm / width
            u[n:] = [ui - s * vi for ui, vi in zip(u[n:], v)]
        col[n:] = [diag] + [0.0] * (rows - n - 1)
        passive.append(j)
        while True:
            z = [0.0] * len(passive)
            for t in reversed(range(len(z))):
                known = sum(cols[passive[u]][t] * z[u] for u in range(t + 1, len(z)))
                z[t] = (f[t] - known) / cols[passive[t]][t]
            solves += 1
            if solves > 3 * k:
                return np.array(x)
            zipped = enumerate(zip(passive, z))
            steps = [(x[i] / (x[i] - zi), t) for t, (i, zi) in zipped if zi <= 0.0]
            if not steps:
                break
            alpha, leaving = min(steps)
            for i, zi in zip(passive, z):
                x[i] += alpha * (zi - x[i])
            x[passive[leaving]] = 0.0
            for i in [i for i in passive if x[i] <= 0.0]:
                t = passive.index(i)
                x[i] = 0.0
                free.append(passive.pop(t))
                for q in range(t, len(passive)):  # rotate away row q + 1 of the shifted column
                    col = cols[passive[q]]
                    hyp = math.hypot(col[q], col[q + 1])
                    c, s = col[q] / hyp, col[q + 1] / hyp
                    for u in [f] + cols:
                        u[q], u[q + 1] = c * u[q] + s * u[q + 1], c * u[q + 1] - s * u[q]
                    col[q + 1] = 0.0
            free.sort()
        for i, zi in zip(passive, z):
            x[i] = zi
    return np.array(x)


def _stack(y, oof, candidate_fits, clip) -> SuperLearnerFit:
    """The super learner of the full-data ``candidate_fits`` from their
    out-of-fold predictions ``oof`` of ``y``: the :func:`_nnls` weights
    of ``oof`` for ``y``, scaled to sum to 1, or the best candidate alone
    when they are all 0 or lose to it in cross-validated squared error.
    The ensemble's predictions are summed by numpy, not by a BLAS product,
    so that its loss, like the weights, does not depend on the BLAS kernel."""
    cv_losses = np.mean((y[:, None] - oof) ** 2, axis=0)
    raw = _nnls(oof, y)
    total = raw.sum()
    if total > 0.0:
        weights = raw / total
        ensemble_loss = float(np.mean((y - (oof * weights).sum(axis=1)) ** 2))
    else:
        weights = None
        ensemble_loss = np.inf
    best = int(np.argmin(cv_losses))
    if weights is None or ensemble_loss > cv_losses[best] + 1e-9:
        weights = np.zeros(len(candidate_fits))
        weights[best] = 1.0
        ensemble_loss = float(cv_losses[best])
    return SuperLearnerFit(
        candidate_fits=tuple(candidate_fits),
        weights=weights,
        cv_losses=cv_losses,
        ensemble_cv_loss=ensemble_loss,
        clip=clip,
    )


def fit_super_learner(
    features,
    targets,
    spec: LearnerSpec,
    interact_cols: tuple[int, ...] = (),
    clip: float | None = None,
) -> FittedPredictor:
    """Stack ``spec.candidates`` by NNLS on out-of-fold predictions, as
    :func:`fit_regressor` fits a super-learner spec, or with a ``clip`` as
    :func:`fit_classifier` does; constant targets give their constant.

    The weights live on the simplex, or collapse to the best candidate
    (the lower index of a tie) when they lose to it in cross-validated
    squared error (:func:`_stack`), so the ensemble's CV loss never exceeds
    the best candidate's.  Fewer rows than ``spec.v_folds`` raise
    :class:`TooFewRows`.
    """
    if spec.kind != "super_learner":
        raise LearnerError(f"need a super_learner spec, got {spec.kind!r}")
    if clip is None:
        return fit_regressor(features, targets, spec, interact_cols)
    return fit_classifier(features, targets, spec, interact_cols, clip)


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
