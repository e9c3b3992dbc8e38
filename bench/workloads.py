"""The benchmark's three workloads and the checks made on every op.

Each workload builds its inputs from the run's seed, runs one op at a
time through sepfx's public entry points, and checks the op's outputs
against figures the benchmark derives itself.  A check that fails returns
a message; the op then counts as failed.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import sepfx

CHILD = Path(__file__).resolve().parent / "cli_child.py"

# The generator's stated model (sepfx.simulation): five Bernoulli(1/2)
# covariates, arm probability expit(-0.5 + 0.1 * sum(x)), effect curve
# 2 + 0.25 * sum(x[:3] - 1/2) - 0.1 * sum(x[3:] - 1/2), and two mediators
# each shifted by 0.1 under the mediator-channel treatment.
EFFECT_BASE = 2.0
MEDIATOR_SHIFT = 0.1
N_MEDIATORS = 2
N_COVARIATES = 5

ALPHA = 0.05
Z_95 = 1.96
MAX_Z = 6.0  # |point - truth| <= 6 se, |statistic| <= 6 under the null
CHILD_TIMEOUT_S = 170.0


def agreement_sde_model1() -> float:
    """Direct effect averaged over the rows whose two assignments agree."""
    num = den = 0.0
    for bits in product((0, 1), repeat=N_COVARIATES):
        p = 1.0 / (1.0 + math.exp(-(-0.5 + 0.1 * sum(bits))))
        agree = p * p + (1.0 - p) * (1.0 - p)
        effect = (
            EFFECT_BASE
            + 0.25 * sum(b - 0.5 for b in bits[:3])
            - 0.1 * sum(b - 0.5 for b in bits[3:])
        )
        num += agree * effect
        den += agree
    return num / den


TRUTH = {
    "sde_four": EFFECT_BASE,
    "sie_four": N_MEDIATORS * MEDIATOR_SHIFT,
    "sde_two": agreement_sde_model1(),
    "sie_two": N_MEDIATORS * MEDIATOR_SHIFT,
}
FOUR_ARM_TRUTH = {"sde": TRUTH["sde_four"], "sie": TRUTH["sie_four"]}


def check_estimate(label, estimand, point, se, ci, truth) -> list[str]:
    errors = []
    if not se > 0.0:
        return [f"{label} {estimand}: se={se} is not positive"]
    if abs(point - truth) > MAX_Z * se:
        errors.append(f"{label} {estimand}: point {point} is over {MAX_Z} se from {truth}")
    tol = 1e-9 * max(1.0, abs(point))
    if abs(ci[0] - (point - Z_95 * se)) > tol or abs(ci[1] - (point + Z_95 * se)) > tol:
        errors.append(f"{label} {estimand}: ci {ci} is not point +- 1.96 se")
    return errors


def check_test(label, test) -> list[str]:
    errors = []
    lo, hi = test["ci"]
    reject, below = bool(test["reject"]), test["p_value"] < test["alpha"]
    excludes_zero = not lo <= 0.0 <= hi
    if not reject == below == excludes_zero:
        errors.append(
            f"{label} {test['test']}: reject={reject}, p<alpha={below}, 0 outside ci={excludes_zero}"
        )
    if not abs(test["statistic"]) <= MAX_Z:
        errors.append(f"{label} {test['test']}: |statistic|={test['statistic']} > {MAX_Z} under the null")
    return errors


def _float_bits(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def binomial_band(rate: float, p: float, n: int, z: float = 5.0) -> bool:
    """Whether an observed rate over ``n`` trials is within z sd of ``p``."""
    return abs(rate - p) <= z * math.sqrt(p * (1.0 - p) / n) + 1.0 / n


class Workload:
    """One op at a time: ``prepare`` (untimed), ``op`` (timed), ``check``.

    ``setup_repetition(r)`` builds repetition r's inputs and returns the
    input of its warm-up op; ``check(..., warm=True)`` checks a warm-up op
    without counting it in pooled checks.
    """

    def __init__(self, seed: int, workdir: Path, traced: bool, env: dict):
        self.seed = seed

    def ops_available(self) -> int:
        return 999_000

    def take_records(self) -> list:
        """Trace records written by child processes since the last call."""
        return []

    def finish(self) -> list[str]:
        """Checks pooled over the run's ops."""
        return []


class CliWorkload(Workload):
    """``sepfx estimate`` then ``sepfx falsify indirect`` on a 200k-row CSV."""

    name = "cli-200k"
    n = 200_000
    n_warm = 2_000

    def __init__(self, seed: int, workdir: Path, traced: bool, env: dict):
        super().__init__(seed, workdir, traced, env)
        self.workdir = workdir
        self.traced = traced
        self.env = env
        self.files: list = []  # (path, dataset), one per op; never shared
        self.records: list = []

    def _write(self, n: int, rep: int, tag: str):
        ds = sepfx.generate_dataset(sepfx.SimConfig(n=n, master_seed=self.seed, reps=1), rep)
        path = self.workdir / f"{tag}.csv"
        sepfx.save_four_arm(ds, path)
        return path, ds

    def setup_repetition(self, r: int):
        self.files.append(self._write(self.n, r, f"data-{r}"))
        return self._write(self.n_warm, 1000 + r, f"warm-{r}")[0]

    def ops_available(self) -> int:
        return len(self.files)

    def prepare(self, i: int):
        return self.files[i][0]

    def _command(self, tag: str, argv: list) -> None:
        if self.traced:
            record = self.workdir / f"{tag}-record.json"
            cmd = [sys.executable, str(CHILD), str(record), *argv]
        else:
            cmd = [sys.executable, "-m", "sepfx.cli", *argv]
        proc = subprocess.run(
            cmd, env=self.env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
        if proc.returncode != 0:
            raise RuntimeError(f"{' '.join(argv[:2])} exited {proc.returncode}: {proc.stderr[-2000:]}")
        if self.traced:
            self.records.append(json.loads(record.read_text(encoding="utf-8")))

    def op(self, tag, path: Path):
        est_out = self.workdir / f"{tag}-estimate.json"
        fal_out = self.workdir / f"{tag}-falsify.json"
        self._command(
            f"{tag}-estimate",
            ["estimate", "--data", str(path), "--design", "four-arm", "--learner", "glm",
             "--estimand", "sde:aM=1", "--estimand", "sie:aY=1", "--deterministic",
             "--out", str(est_out)],
        )
        self._command(
            f"{tag}-falsify",
            ["falsify", "indirect", "--data", str(path), "--learner", "glm",
             "--deterministic", "--out", str(fal_out)],
        )
        return est_out, fal_out

    def take_records(self) -> list:
        records, self.records = self.records, []
        return records

    def check(self, tag, path, result, warm: bool = False) -> list[str]:
        est_out, fal_out = result
        estimates = json.loads(est_out.read_text(encoding="utf-8"))["result"]["estimates"]
        tests = json.loads(fal_out.read_text(encoding="utf-8"))["result"]["tests"]
        errors = []
        if [e["estimand"] for e in estimates] != ["sde", "sie"]:
            errors.append(f"{tag}: estimands {[e['estimand'] for e in estimates]}")
        for e in estimates:
            errors += check_estimate(
                tag, e["estimand"], e["point"], e["se"], e["ci"], FOUR_ARM_TRUTH.get(e["estimand"], math.nan)
            )
        if len(tests) != 4:
            errors.append(f"{tag}: {len(tests)} indirect tests, expected 4")
        for test in tests:
            errors += check_test(tag, test)
        if not warm:
            errors += self._check_round_trip(tag, path)
        return errors

    def _check_round_trip(self, tag, path) -> list[str]:
        ds = dict(self.files)[path]
        loaded = sepfx.load_four_arm(path)
        return [
            f"{tag}: column block {name} read back from CSV differs from the generated data"
            for name in ("y", "a_y", "a_m", "m", "x")
            if not np.array_equal(_float_bits(getattr(ds, name)), _float_bits(getattr(loaded, name)))
        ]


class McWorkload(Workload):
    """``run_monte_carlo`` then ``run_falsification_study`` on one SimConfig."""

    name = "mc-glm-2k"
    reps = 8
    n = 2000

    def __init__(self, seed: int, workdir: Path, traced: bool, env: dict):
        super().__init__(seed, workdir, traced, env)
        self.estimators: dict = {}
        self.rejections: dict = {}
        self.replications = 0

    def _config(self, k: int):
        return sepfx.SimConfig(n=self.n, learner="glm", reps=self.reps, master_seed=k)

    def setup_repetition(self, r: int):
        return self._config(self.seed * 1_000_000 + 999_000 + r)

    def prepare(self, i: int):
        return self._config(self.seed * 1_000_000 + i)

    def op(self, tag, cfg):
        return sepfx.run_monte_carlo(cfg), sepfx.run_falsification_study(cfg)

    def check(self, tag, cfg, result, warm: bool = False) -> list[str]:
        report, study = result
        errors = []
        truth = report.truth.to_json_dict()
        for key, value in TRUTH.items():
            if abs(truth[key] - value) > 1e-12:
                errors.append(f"{tag}: program truth {key}={truth[key]}, derived {value}")
        names = [row.estimator for row in report.rows]
        if len(names) != 6:
            errors.append(f"{tag}: {len(names)} estimator rows, expected 6")
        for row in report.rows:
            if row.failures != 0:
                errors.append(f"{tag} {row.estimator}: {row.failures} failed replications")
            if not row.rmse >= abs(row.bias):
                errors.append(f"{tag} {row.estimator}: rmse {row.rmse} < |bias| {row.bias}")
        for row in study.rows:
            if row.failures != 0:
                errors.append(f"{tag} {row.test}: {row.failures} failed replications")
        if errors or warm:
            return errors
        self.replications += cfg.reps
        for row in report.rows:
            acc = self.estimators.setdefault(row.estimator, [0.0, 0.0, 0.0])
            acc[0] += row.bias * cfg.reps
            acc[1] += row.rmse**2 * cfg.reps
            acc[2] += row.coverage * cfg.reps
        for row in study.rows:
            key = (row.test, row.mediator, row.fixed_level)
            self.rejections[key] = self.rejections.get(key, 0.0) + row.rejection_rate * cfg.reps
        return errors

    def finish(self) -> list[str]:
        """Pooled over the run: bias, coverage and null rejection rates."""
        n = self.replications
        if n == 0:
            return []
        errors = []
        for name, (bias_sum, sq_sum, cov_sum) in self.estimators.items():
            bias, mse, coverage = bias_sum / n, sq_sum / n, cov_sum / n
            mc_se = math.sqrt(max(mse - bias * bias, 0.0) / n)
            if abs(bias) > MAX_Z * mc_se:
                errors.append(f"{name}: pooled bias {bias} over {MAX_Z} Monte Carlo se ({mc_se})")
            if not binomial_band(coverage, 1.0 - ALPHA, n):
                errors.append(f"{name}: pooled coverage {coverage} over {n} replications")
        for key, hits in self.rejections.items():
            if not binomial_band(hits / n, ALPHA, n):
                errors.append(f"{key}: null rejection rate {hits / n} over {n} replications")
        return errors


class ForestWorkload(Workload):
    """``estimate_effects_four`` with forest super learners on n = 1000."""

    name = "sl-forest-1k"
    n = 1000
    trees = (1, 2, 3)  # sized 1:2:3 like the sl preset, scaled to a few seconds

    def _inputs(self, rep: int):
        ds = sepfx.generate_dataset(sepfx.SimConfig(n=self.n, master_seed=self.seed, reps=1), rep)
        s = self.seed * 1_000_000 + rep
        forests = tuple(sepfx.LearnerSpec(kind="random_forest", trees=t, seed=s) for t in self.trees)
        spec = sepfx.LearnerSpec(kind="super_learner", candidates=forests, seed=s)
        cfg = sepfx.EstimatorConfig(outcome=spec, propensity=spec, splits=1, seed=s, keep_eif=False)
        return ds, cfg

    def setup_repetition(self, r: int):
        return self._inputs(999_000 + r)

    def prepare(self, i: int):
        return self._inputs(i)

    def op(self, tag, inputs):
        ds, cfg = inputs
        return sepfx.estimate_effects_four(ds, [("sde", 1), ("sie", 1)], cfg)

    def check(self, tag, inputs, estimates, warm: bool = False) -> list[str]:
        errors = []
        for est in estimates:
            errors += check_estimate(
                tag, est.estimand, est.point, est.se, est.ci, FOUR_ARM_TRUTH[est.estimand]
            )
        return errors


WORKLOADS = {w.name: w for w in (CliWorkload, McWorkload, ForestWorkload)}
