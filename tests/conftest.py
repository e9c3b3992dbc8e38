import numpy as np
import pytest

from sepfx.data import FourArmDataset, TwoArmDataset, restrict_to_two_arm
from sepfx.simulation import SimConfig, generate_dataset


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
    strategies for an ensemble bundle."""
    if hasattr(nuis, "single"):
        return 0.5 * (
            collapsed_two_arm_score(ds, level, nuis.single)
            + collapsed_two_arm_score(ds, level, nuis.stratified)
        )
    lam = nuis.lam(level, level, ds.x)
    return (ds.a == level) / nuis.omega(level, ds.x) * (ds.y - lam) + lam


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
