import multiprocessing
import os
from dataclasses import dataclass

import numpy as np
import pytest

from sepfx import fanout, learners
from sepfx.data import FourArmDataset, TwoArmDataset, restrict_to_two_arm
from sepfx.four_arm import CELLS, NuisanceFitFour
from sepfx.learners import ConstantPredictor
from sepfx.simulation import SimConfig, generate_dataset
from sepfx.two_arm import NuisanceFitTwo


def make_four_arm(n=40, seed=0, n_mediators=2, n_covariates=3):
    """Small handmade four-arm dataset with all cells occupied."""
    rng = np.random.default_rng(seed)
    a_y = rng.integers(0, 2, n).astype(np.float64)
    a_m = rng.integers(0, 2, n).astype(np.float64)
    # force one row per cell so tiny datasets stay estimable
    a_y[:4] = [0, 0, 1, 1]
    a_m[:4] = [0, 1, 0, 1]
    x = rng.normal(size=(n, n_covariates))
    m = rng.normal(size=(n, n_mediators)) + 0.5 * a_m[:, None]
    y = a_y + m.sum(axis=1) + x[:, 0] + rng.normal(scale=0.3, size=n)
    return FourArmDataset(
        y=y, a_y=a_y, a_m=a_m, m=m, x=x,
        outcome_name="y", a_y_name="aY", a_m_name="aM",
        mediator_names=tuple(f"m{j+1}" for j in range(n_mediators)),
        covariate_names=tuple(f"x{j+1}" for j in range(n_covariates)),
    )


def record_designs(monkeypatch, module, fitter: str) -> list:
    """Patch ``sepfx.learners.expand_basis`` to record, for each design
    array it builds, ``"fit"`` while ``module.fitter`` (the bundle fitter,
    looked up as a module global when a fold is scored) runs, and
    ``"score"`` while a fold's test rows are scored."""
    designs, phase = [], ["score"]
    real_basis, real_fit = learners.expand_basis, getattr(module, fitter)

    def counting_basis(*args, **kwargs):
        designs.append(phase[0])
        return real_basis(*args, **kwargs)

    def fitting(*args, **kwargs):
        phase[0] = "fit"
        try:
            return real_fit(*args, **kwargs)
        finally:
            phase[0] = "score"

    monkeypatch.setattr(learners, "expand_basis", counting_basis)
    monkeypatch.setattr(module, fitter, fitting)
    return designs


def make_two_arm(n=40, seed=0, n_mediators=2, n_covariates=3):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, n).astype(np.float64)
    a[:2] = [0, 1]
    x = rng.normal(size=(n, n_covariates))
    m = rng.normal(size=(n, n_mediators)) + 0.5 * a[:, None]
    y = a + m.sum(axis=1) + x[:, 0] + rng.normal(scale=0.3, size=n)
    return TwoArmDataset(
        y=y, a=a, m=m, x=x,
        outcome_name="y", a_name="a",
        mediator_names=tuple(f"m{j+1}" for j in range(n_mediators)),
        covariate_names=tuple(f"x{j+1}" for j in range(n_covariates)),
    )


def collapsed_two_arm_score(ds, level, nuis):
    """The two-arm score at a_y = a_m = level in closed form,
    1{A=level} / omega(level, X) * (Y - lam) + lam, averaged over the two
    strategies' outcome models of an ensemble."""
    p1 = nuis.treat_given_x.predict(ds.x)
    omega = p1 if level == 1 else 1.0 - p1
    scores = []
    for _, lam_fits in nuis.outcomes:
        lam = lam_fits[level, level].predict(ds.x)
        scores.append((ds.a == level) / omega * (ds.y - lam) + lam)
    return scores[0] if len(scores) == 1 else 0.5 * (scores[0] + scores[1])


@dataclass
class PatternLookup:
    """A fitted predictor that looks each row up in ``table`` by the
    pattern of its last ``width`` features.  Only valid for discrete
    covariates; the saturated bundles below are built from it."""

    table: dict
    width: int

    def predict(self, features: np.ndarray) -> np.ndarray:
        return np.array([self.table[tuple(row[-self.width:].tolist())] for row in features])


def _patterns(x):
    """Row indices of each distinct covariate pattern."""
    groups = {}
    for i, row in enumerate(x):
        groups.setdefault(tuple(row.tolist()), []).append(i)
    return {pattern: np.asarray(rows) for pattern, rows in groups.items()}


def saturated_four(ds):
    """A four-arm bundle of exact empirical treatment frequencies and cell
    means per covariate pattern.

    Fitting on the full sample makes the augmentation terms cancel exactly,
    so the weighted estimator, the plug-in, and the doubly robust score all
    agree.  The chain rule multiplies a pattern's A_Y frequency by the A_M
    frequency within that A_Y level, so each cell gets its empirical
    frequency, and the frequencies of each pattern sum to one.
    """
    p_y, p_m, nu = {}, {}, {}
    for pattern, rows in _patterns(ds.x).items():
        p_y[pattern] = float(np.mean(ds.a_y[rows] == 1))
        for a_y in (0, 1):
            arm = rows[ds.a_y[rows] == a_y]
            # a level without rows has frequency zero, whatever A_M's is
            p_m[(a_y,) + pattern] = float(np.mean(ds.a_m[arm] == 1)) if arm.size else 0.5
        for cell in CELLS:
            inside = rows[(ds.a_y[rows] == cell[0]) & (ds.a_m[rows] == cell[1])]
            nu[cell + pattern] = float(ds.y[inside].mean()) if inside.size else 0.0
    width = ds.x.shape[1]
    return NuisanceFitFour(
        treat_y=PatternLookup(p_y, width),
        treat_m=PatternLookup(p_m, width + 1),
        outcome_fit=PatternLookup(nu, width + 2),
        clip=0.01,
    )


def saturated_two(ds):
    """A two-arm bundle of one outcome strategy, as
    :func:`sepfx.two_arm.fit_nuisance_two` returns it: per-pattern arm
    frequencies and arm means.

    The outcome model ignores the mediators, so it equals its own nested
    projection; the treatment model given mediators is flat, so the density
    ratio is one.
    """
    p1 = {}
    means = {0: {}, 1: {}}
    for pattern, rows in _patterns(ds.x).items():
        p1[pattern] = float(np.mean(ds.a[rows] == 1))
        for level in (0, 1):
            inside = rows[ds.a[rows] == level]
            means[level][pattern] = float(ds.y[inside].mean()) if inside.size else 0.0
    width = ds.x.shape[1]
    mu = {level: PatternLookup(means[level], width) for level in (0, 1)}
    lam = {(a_y, a_m): mu[a_y] for a_y in (0, 1) for a_m in (0, 1)}
    return NuisanceFitTwo(
        treat_given_mx=ConstantPredictor(0.5),
        treat_given_x=PatternLookup(p1, width),
        outcomes=((mu, lam),),
    )


@pytest.fixture(scope="session")
def sim_four_arm():
    """One synthetic four-arm draw at moderate size, shared across tests."""
    return generate_dataset(SimConfig(n=1500, a_y_model=1, reps=1, master_seed=10), 0)


@pytest.fixture(scope="session")
def sim_two_arm(sim_four_arm):
    return restrict_to_two_arm(sim_four_arm)


@pytest.fixture(scope="session")
def sim_four_arm_big():
    """A large draw for three-sigma statistical checks."""
    return generate_dataset(SimConfig(n=8000, a_y_model=2, reps=1, master_seed=55), 0)


def blas_threads():
    """numpy's OpenBLAS thread count, or None where it cannot be read."""
    calls = fanout.blas_thread_calls()
    return None if calls is None else calls[0]()


pool_path = pytest.mark.skipif(
    fanout.usable_cpus() < 2 or fanout.blas_thread_calls() is None,
    reason="needs two usable CPUs and numpy's OpenBLAS thread-count functions",
)


def assert_no_process_left():
    # waitpid first: active_children() would reap an exited child itself
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert multiprocessing.active_children() == []
