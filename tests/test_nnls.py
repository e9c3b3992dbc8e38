"""The super learner's NNLS (``learners._nnls``, Lawson and Hanson's
active-set method in numpy) against ``scipy.optimize.nnls``, which only
this test imports, and against the problem's optimality conditions."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import nnls

import sepfx
from sepfx.learners import ConstantPredictor, _nnls, _stack

EPS = np.finfo(float).eps


def stacking_problem(seed: int):
    """Out-of-fold predictions of ``y`` by 1-3 candidates: the signal plus
    an error that the candidates share in part, each on its own scale and
    offset; 20% of the targets are negated."""
    g = np.random.default_rng(seed)
    m, k = int(g.integers(50, 1501)), int(g.integers(1, 4))
    signal, shared = g.normal(size=m), g.normal(size=m)
    a = np.column_stack([
        g.uniform(0.5, 2.0) * (signal + g.uniform(0, 1) * shared + g.uniform(0, 1) * g.normal(size=m))
        + g.normal(scale=0.1)
        for _ in range(k)
    ])
    y = signal + g.normal(scale=g.uniform(0.1, 2.0), size=m)
    return a, -y if g.random() < 0.2 else y


def test_agrees_with_scipy_on_stacking_problems():
    for seed in range(10_000):
        a, y = stacking_problem(seed)
        want, _ = nnls(a, y)
        got = _nnls(a, y)
        np.testing.assert_array_equal(got > 0, want > 0, err_msg=f"seed {seed}")
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max(), seed


def kkt_breach(a, b, x) -> float:
    """The largest breach of the optimality conditions of NNLS beside
    ``x >= 0``: a gradient off 0 on the support, or a positive gradient off
    it, as a multiple of ``eps ||a|| (||a|| ||x|| + ||b||)``, the scale of
    the rounding in the gradient, which is 0 where that scale is."""
    grad = a.T @ (b - a @ x)
    norm = np.linalg.norm(a)
    scale = EPS * norm * (norm * np.linalg.norm(x) + np.linalg.norm(b))
    breach = np.where(x > 0, np.abs(grad), np.maximum(grad, 0.0)).max()
    return float(breach / scale) if scale else float(breach)


@st.composite
def problems(draw):
    """1-30 rows and 1-6 columns: entries 0, +-1 or +-[1e-3, 1e3], or small
    integers with the last column a multiple of the first."""
    m, k = draw(st.integers(1, 30)), draw(st.integers(1, 6))
    if draw(st.booleans()):
        entries = st.sampled_from([0.0, 1.0, -1.0]) | st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3)
        return draw(arrays(float, (m, k), elements=entries)), draw(arrays(float, m, elements=entries))
    ints = st.integers(-3, 3).map(float)
    a = draw(arrays(float, (m, k), elements=ints))
    a[:, -1] = draw(st.sampled_from([1.0, 2.0, 0.5, 3.0, -1.0])) * a[:, 0]
    return a, draw(arrays(float, m, elements=ints))


# Without the independence test, the second and first columns of this one
# enter together with weights near 1e16.
COLLINEAR = (np.array([[2.0, -2.0, 1.0], [-1.0, 1.0, -0.5], [-1.0, 1.0, -0.5]]), np.array([2.0, 0.0, -1.0]))
# Without the test that a column's coefficient is positive before it enters,
# a column that is 3 times another enters at 0 and the step to it divides by 0.
TRIPLED = (
    np.array([
        [-1, -3, 3, -3, -1], [-3, 0, -1, -9, -3], [3, 3, 3, 9, 0], [0, 0, -2, 0, -2],
        [-1, 0, -2, -3, 3], [-3, 2, 2, -9, -2], [-2, 2, -1, -6, -1], [1, 0, 3, 3, 2],
        [3, 0, 1, 9, 0], [-2, -2, 1, -6, 1],
    ], dtype=float),
    np.array([-2, 2, -1, -2, -3, -2, 3, 2, -1, 3], dtype=float),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(problems())
@example(COLLINEAR)
@example(TRIPLED)
def test_the_solution_meets_the_optimality_conditions(problem):
    """x >= 0, the gradient conditions hold to rounding, and the residual
    is no larger than scipy's to rounding: the gradient's tolerance grows
    with ``||x||``, so only the residual shows a runaway ``x``."""
    a, b = problem
    x = _nnls(a, b)
    assert x.shape == (a.shape[1],) and np.all(x >= 0.0)
    assert kkt_breach(a, b, x) <= 100 * a.size
    want, rnorm = nnls(a, b)
    tol = 100 * a.size * EPS * (np.linalg.norm(a) * np.linalg.norm(want) + np.linalg.norm(b))
    assert np.linalg.norm(a @ x - b) <= rnorm + tol


def test_one_candidate_is_the_clipped_projection():
    g = np.random.default_rng(1)
    a = g.normal(size=(200, 1))
    for b in (a[:, 0] + g.normal(size=200), -a[:, 0] + g.normal(size=200)):
        want = max(float(a[:, 0] @ b / (a[:, 0] @ a[:, 0])), 0.0)
        np.testing.assert_allclose(_nnls(a, b), [want], rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("copies", [2, 3])
def test_of_duplicate_columns_one_takes_the_weight(copies):
    """Exact copies leave rounding to choose the one that enters, so only
    the fit and the total weight are pinned."""
    g = np.random.default_rng(2)
    c = g.normal(size=300)
    b = c + g.normal(size=300)
    a = np.column_stack([c] * copies + [g.normal(size=300)])
    x = _nnls(a, b)
    want, _ = nnls(a, b)
    assert np.count_nonzero(x[:copies]) == 1
    np.testing.assert_allclose(x[:copies].sum(), want[:copies].sum(), rtol=1e-12)
    np.testing.assert_allclose(a @ x, a @ want, rtol=0.0, atol=1e-12 * np.abs(b).max())


def test_a_target_against_every_column_gives_zero_and_the_best_candidate():
    g = np.random.default_rng(3)
    y = g.normal(size=400)
    oof = np.column_stack([-y + g.normal(scale=s, size=400) for s in (0.5, 1.0, 2.0)])
    assert not _nnls(oof, y).any()
    fit = _stack(y, oof, tuple(ConstantPredictor(0.0) for _ in range(3)), None)
    best = int(np.argmin(fit.cv_losses))
    np.testing.assert_array_equal(fit.weights, np.eye(3)[best])
    assert fit.ensemble_cv_loss == fit.cv_losses[best]


@pytest.mark.parametrize("level", [0.0, 1.0, -2.5])
def test_a_constant_column_agrees_with_scipy(level):
    g = np.random.default_rng(4)
    c = g.normal(size=250)
    b = 0.7 * c + 0.4 + g.normal(scale=0.3, size=250)
    a = np.column_stack([np.full(250, level), c, c + g.normal(scale=0.5, size=250)])
    want, _ = nnls(a, b)
    got = _nnls(a, b)
    np.testing.assert_array_equal(got > 0, want > 0)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * np.abs(want).max())


def test_a_super_learner_loads_no_scipy():
    """Forest and GLM candidates fit and stack in a fresh interpreter
    without any scipy module."""
    src = str(Path(sepfx.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    probe = (
        "import sys\n"
        "import numpy as np\n"
        "from sepfx.learners import LearnerSpec, fit_super_learner\n"
        "g = np.random.default_rng(0)\n"
        "x = g.normal(size=(200, 3))\n"
        "y = x[:, 0] + np.sin(x[:, 1]) + g.normal(scale=0.3, size=200)\n"
        "cands = (LearnerSpec(kind='glm', basis='main'),\n"
        "         LearnerSpec(kind='random_forest', trees=5, seed=1),\n"
        "         LearnerSpec(kind='random_forest', trees=10, seed=1))\n"
        "sl = fit_super_learner(x, y, LearnerSpec(kind='super_learner', candidates=cands))\n"
        "assert abs(sl.weights.sum() - 1.0) < 1e-12\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    assert out.stdout.strip() == "[]"
