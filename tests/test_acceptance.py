"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a one-line verdict,
so ``pytest -v tests/test_acceptance.py`` reads as a checklist.  The
Monte Carlo fixtures are shared across criteria; the whole module runs
in a few minutes on one core.
"""

import itertools
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit
from scipy.stats import binom

import sepfx.four_arm
import sepfx.two_arm
from sepfx.data import FourArmDataset, restrict_to_two_arm
from sepfx.estimation import EstimatorConfig
from sepfx.falsification import estimate_agreement_effects
from sepfx.four_arm import estimate_effects_four
from sepfx.learners import LearnerSpec
from sepfx.simulation import (
    SimConfig,
    generate_dataset,
    run_falsification_study,
    run_monte_carlo,
    true_effects,
)
from sepfx.two_arm import eif as psi_score, estimate_effects_two, fit_nuisance_two

from conftest import collapsed_two_arm_score, saturated_four, saturated_two

THRESHOLDS = json.loads(
    (Path(__file__).parent / "data" / "falsification_thresholds.json").read_text()
)

RUNTIME_BUDGET_SECONDS = 900.0


@pytest.fixture(scope="module")
def mc_main():
    start = time.perf_counter()
    report = run_monte_carlo(SimConfig(n=2000, a_y_model=1, reps=300, master_seed=1))
    elapsed = time.perf_counter() - start
    return report, elapsed


@pytest.fixture(scope="module")
def mc_small():
    return run_monte_carlo(SimConfig(n=1000, a_y_model=1, reps=300, master_seed=1))


@pytest.fixture(scope="module")
def mc_large():
    return run_monte_carlo(SimConfig(n=4000, a_y_model=1, reps=300, master_seed=1))


@pytest.fixture(scope="module")
def null_study():
    return run_falsification_study(
        SimConfig(n=2000, a_y_model=1, reps=500, master_seed=2)
    )


@pytest.fixture(scope="module")
def violation_study():
    return run_falsification_study(
        SimConfig(n=4000, a_y_model=1, reps=300, master_seed=3, violation=0.5)
    )


@pytest.mark.slow
def test_criterion_1_bias_rmse_coverage_runtime(mc_main):
    report, elapsed = mc_main
    row = {r.estimator: r for r in report.rows}["sde_four"]
    assert abs(row.bias) <= 0.015
    assert 0.045 <= row.rmse <= 0.080
    assert 0.92 <= row.coverage <= 0.99
    assert elapsed <= RUNTIME_BUDGET_SECONDS
    print(
        f"criterion 1 PASS: sde_four bias={row.bias:+.4f} rmse={row.rmse:.4f} "
        f"coverage={row.coverage:.3f} runtime={elapsed:.0f}s"
    )


def test_criterion_2_two_arm_beats_agreement_estimator(mc_main):
    report, _ = mc_main
    rows = {r.estimator: r for r in report.rows}
    assert rows["sie_two"].rmse < rows["sie_agreement"].rmse
    print(
        f"criterion 2 PASS: rmse(sie_two)={rows['sie_two'].rmse:.4f} < "
        f"rmse(sie_agreement)={rows['sie_agreement'].rmse:.4f}"
    )


@pytest.mark.slow
def test_criterion_3_root_n_scaling(mc_small, mc_large):
    small = {r.estimator: r.rmse for r in mc_small.rows}
    large = {r.estimator: r.rmse for r in mc_large.rows}
    ratios = {name: small[name] / large[name] for name in small}
    for name, ratio in ratios.items():
        assert 1.3 <= ratio <= 2.7, (name, ratio)
    spread = ", ".join(f"{k}={v:.2f}" for k, v in ratios.items())
    print(f"criterion 3 PASS: rmse(n=1000)/rmse(n=4000) in [1.3, 2.7]: {spread}")


def test_criterion_4_exact_truth_values():
    t1 = true_effects(SimConfig(n=100, a_y_model=1, reps=1))
    t2 = true_effects(SimConfig(n=100, a_y_model=2, reps=1))
    assert t1.sde_four == 2.0 and t2.sde_four == 2.0
    assert t1.sie_four == 0.2 and t2.sie_four == 0.2
    assert t1.sie_two == 0.2 and t2.sie_two == 0.2
    assert t2.sde_two == 2.0

    # independent enumeration over (sum of first three, sum of last two)
    total = 0.0
    weight_total = 0.0
    for s13, s45 in itertools.product(range(4), range(3)):
        pmf = binom.pmf(s13, 3, 0.5) * binom.pmf(s45, 2, 0.5)
        p = expit(-0.5 + 0.1 * (s13 + s45))
        agree = p * p + (1.0 - p) * (1.0 - p)
        effect = 2.0 + 0.25 * (s13 - 1.5) - 0.1 * (s45 - 1.0)
        total += pmf * agree * effect
        weight_total += pmf * agree
    assert abs(t1.sde_two - total / weight_total) < 1e-12
    print(
        f"criterion 4 PASS: exact truths hold; model-1 agreement effect "
        f"{t1.sde_two:.12f} matches enumeration"
    )


def test_criterion_5_algebraic_identities(monkeypatch):
    ds4 = generate_dataset(SimConfig(n=1500, a_y_model=1, reps=1, master_seed=21), 0)
    ds2 = restrict_to_two_arm(ds4)

    # (a) matching levels collapse the general two-arm score exactly
    worst = 0.0
    for strategy in ("S", "T", "ensemble"):
        config = EstimatorConfig(seed=3, strategy=strategy)
        nuis = fit_nuisance_two(ds2, np.arange(ds2.n), config)
        for level in (0, 1):
            pair = (level, level)
            gap = np.max(np.abs(
                psi_score(ds2, nuis, (pair,), np.arange(ds2.n))[pair]
                - collapsed_two_arm_score(ds2, level, nuis)
            ))
            worst = max(worst, gap)
    assert worst < 1e-12

    # (b) saturated nuisances collapse the four-arm estimator onto the plug-in
    sat4 = saturated_four(ds4)
    monkeypatch.setattr(sepfx.four_arm, "fit_nuisance_four", lambda *args: sat4)
    diag_config = EstimatorConfig(k_folds=2, splits=3, diagnostics=True)
    for est in estimate_effects_four(
        ds4, [("sde", 1), ("sie", 1), ("mean", (1, 1))], diag_config,
    ):
        assert abs(est.point - est.diagnostics["ipw"]) < 1e-10
        assert abs(est.point - est.diagnostics["outcome_regression"]) < 1e-10
    monkeypatch.undo()

    # (c) same collapse for the two-arm estimator on the diagonal
    sat2 = saturated_two(ds2)
    monkeypatch.setattr(sepfx.two_arm, "fit_nuisance_two", lambda *args: sat2)
    for level in (0, 1):
        est = estimate_effects_two(
            ds2, [("mean", (level, level))], EstimatorConfig(k_folds=2, splits=3),
        )[0]
        plug_in = np.mean(sat2[0].lam(level, level, ds2.x))
        assert abs(est.point - plug_in) < 1e-10

    # (d) when every row agrees, the agreement-weighted estimator is the
    # four-arm estimator
    keep = np.nonzero(ds4.a_y == ds4.a_m)[0]
    all_agree = FourArmDataset(
        y=ds4.y[keep], a_y=ds4.a_y[keep], a_m=ds4.a_m[keep],
        m=ds4.m[keep], x=ds4.x[keep],
        outcome_name="y", a_y_name="aY", a_m_name="aM",
        mediator_names=ds4.mediator_names, covariate_names=ds4.covariate_names,
    )
    cfg = EstimatorConfig(k_folds=2, splits=3, seed=4)
    for cell in ((0, 0), (1, 1)):
        four = estimate_effects_four(all_agree, [("mean", cell)], cfg)[0]
        agr = estimate_agreement_effects(all_agree, [("mean", cell)], cfg)[0]
        assert abs(four.point - agr.point) < 1e-10
        assert abs(four.se - agr.se) < 1e-10
    print("criterion 5 PASS: collapse, saturation, and agreement identities hold")


def test_criterion_6_score_mean_and_interval_structure():
    ds4 = generate_dataset(SimConfig(n=1500, a_y_model=1, reps=1, master_seed=10), 0)
    ds2 = restrict_to_two_arm(ds4)
    config = EstimatorConfig(k_folds=2, splits=3, seed=4, keep_eif=True)
    estimates = [
        estimate_effects_four(ds4, [("sde", 1)], config)[0],
        estimate_effects_two(ds2, [("sde", 1)], config)[0],
        estimate_agreement_effects(ds4, [("sde", 1)], config)[0],
    ]
    for est in estimates:
        assert est.eif is not None
        assert abs(est.eif.mean() - est.point) < 1e-10
        assert est.ci == (est.point - 1.96 * est.se, est.point + 1.96 * est.se)
    print("criterion 6 PASS: retained scores average to the point estimate; "
          "intervals are point +/- 1.96 se")


@pytest.mark.slow
def test_criterion_7_falsification_size_and_power(null_study, violation_study):
    for row in null_study.rows:
        assert 0.01 <= row.rejection_rate <= 0.09, (row.test, row.rejection_rate)

    power = {}
    for row in violation_study.rows:
        key = (row.test, row.fixed_level)
        power[key] = row.rejection_rate
    assert power[("H0(ii)", None)] >= 0.8
    floor = THRESHOLDS["indirect_sde_power_floor"]
    sde_power = min(power[("indirect-SDE", 0)], power[("indirect-SDE", 1)])
    assert sde_power >= floor
    null_range = (
        min(r.rejection_rate for r in null_study.rows),
        max(r.rejection_rate for r in null_study.rows),
    )
    print(
        f"criterion 7 PASS: null rejection in [{null_range[0]:.3f}, {null_range[1]:.3f}]; "
        f"H0(ii) power={power[('H0(ii)', None)]:.2f}; "
        f"indirect-SDE power={sde_power:.2f} >= {floor}"
    )


def test_criterion_8_cli_reruns_are_byte_identical(tmp_path):
    args = [
        sys.executable, "-m", "sepfx.cli", "simulate",
        "--n", "500", "--reps", "5", "--seed", "42",
        "--estimators", "sde_four,sie_two", "--deterministic",
    ]
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out_a, out_b):
        proc = subprocess.run(
            args + ["--out", str(out)], capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
    assert out_a.read_bytes() == out_b.read_bytes()
    print("criterion 8 PASS: deterministic CLI reruns produce identical bytes")
