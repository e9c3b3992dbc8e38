"""The benchmark traces sepfx from outside, by the names listed in
``bench/layers.py``; this pins the names and call counts it relies on."""

from pathlib import Path

import numpy as np

import sepfx.falsification
import sepfx.four_arm
import sepfx.learners
from sepfx.estimation import EstimatorConfig
from sepfx.simulation import SimConfig, generate_dataset, run_monte_carlo

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_trace_hooks_see_every_nuisance_fit(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layers

    original = sepfx.four_arm.fit_nuisance_four
    tracer = layers.Tracer()
    tracer.install()
    try:
        ds = generate_dataset(SimConfig(n=300, reps=1), 0)
        sepfx.four_arm.estimate_effects_four(ds, [("sde", 1)], EstimatorConfig(splits=1))
        sepfx.falsification.indirect_test_battery(ds, EstimatorConfig(splits=1))
        calls, _, _ = layers.span_totals(tracer.spans)
        counters = layers.summarize([tracer.snapshot()])
    finally:
        tracer.uninstall()

    assert calls["four_arm.fit_nuisance_four"] == 4
    assert calls["two_arm.fit_nuisance_two"] == 2
    assert calls["falsification.fit_nuisance_theta"] == 2
    # the two four-arm fits of the agreement side reuse the estimate's folds
    assert counters["nuisance.fits"] == 6
    assert counters["nuisance.unique_fits"] == 4
    assert sepfx.four_arm.fit_nuisance_four is original


def test_trace_hooks_see_one_monte_carlo_replication(monkeypatch):
    """Every estimator family of one replication goes through the traced
    module globals: one draw, one two-arm restriction, and the fit counts
    of the four-arm, agreement and two-arm estimators.  The four-arm and
    agreement families are scored in one pass per split over one set of
    bundles, so no fit repeats; that pass does not enter
    ``estimate_effects_four``, so no ``four_arm.score`` span opens."""
    monkeypatch.syspath_prepend(str(BENCH))
    import layers

    tracer = layers.Tracer()
    tracer.install()
    try:
        run_monte_carlo(SimConfig(n=300, reps=1))
        calls, _, _ = layers.span_totals(tracer.spans)
        counters = layers.summarize([tracer.snapshot()])
    finally:
        tracer.uninstall()

    assert "four_arm.score" not in calls
    assert calls["simulation.generate_dataset"] == 1
    assert calls["data.restrict_to_two_arm"] == 1
    assert calls["four_arm.fit_nuisance_four"] == 6
    assert calls["falsification.fit_nuisance_theta"] == 6
    assert calls["two_arm.fit_nuisance_two"] == 6
    assert counters["nuisance.fits"] == 12
    assert counters["nuisance.unique_fits"] == 12


def test_trace_hooks_see_one_forest_per_super_learner_prefix_group(monkeypatch):
    """Forests of 1, 2 and 3 trees on one seed grow only the 3-tree forest,
    once per internal fold and once on the full data, so no traced tree
    is a duplicate."""
    monkeypatch.syspath_prepend(str(BENCH))
    import layers

    g = np.random.default_rng(0)
    x = g.integers(0, 2, size=(120, 4)).astype(float)
    y = x[:, 0] + g.normal(size=120)
    forests = tuple(sepfx.learners.LearnerSpec(kind="random_forest", trees=t, seed=3) for t in (1, 2, 3))
    stack = sepfx.learners.LearnerSpec(kind="super_learner", candidates=forests, v_folds=3, seed=3)
    tracer = layers.Tracer()
    tracer.install()
    try:
        sepfx.learners.fit_super_learner(x, y, stack)
        calls, _, _ = layers.span_totals(tracer.spans)
        counters = layers.summarize([tracer.snapshot()])
    finally:
        tracer.uninstall()

    assert calls["forest.fit_forest"] == 4
    assert counters["forest.trees"] == counters["forest.unique_trees"] == 12
