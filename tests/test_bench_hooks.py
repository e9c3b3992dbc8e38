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


def test_trace_hooks_see_the_forest_of_a_random_forest_spec(monkeypatch):
    """A plain forest spec grows its forest through ``fit_forest``, so the
    trace sees one span and every tree once.  A super learner's forests
    grow through ``fit_forests``, which the benchmark does not trace."""
    monkeypatch.syspath_prepend(str(BENCH))
    import layers

    g = np.random.default_rng(0)
    x = g.integers(0, 2, size=(120, 4)).astype(float)
    y = x[:, 0] + g.normal(size=120)
    spec = sepfx.learners.LearnerSpec(kind="random_forest", trees=3, seed=3)
    tracer = layers.Tracer()
    tracer.install()
    try:
        sepfx.learners.fit_regressor(x, y, spec)
        calls, _, _ = layers.span_totals(tracer.spans)
        counters = layers.summarize([tracer.snapshot()])
    finally:
        tracer.uninstall()

    assert calls["forest.fit_forest"] == 1
    assert counters["forest.trees"] == counters["forest.unique_trees"] == 3


def test_trace_hooks_see_each_forest_a_super_learner_predicts_with(monkeypatch):
    """A super learner predicts each forest candidate it weights through
    ``ForestPredictor.predict``, so the trace opens one ``forest.predict``
    span per such candidate, also where the candidates' trees are slices of
    one grown forest."""
    monkeypatch.syspath_prepend(str(BENCH))
    import layers

    g = np.random.default_rng(0)
    x = g.normal(size=(200, 3))
    y = x[:, 0] + np.sin(2 * x[:, 1]) + g.normal(size=200)
    forests = tuple(
        sepfx.learners.LearnerSpec(kind="random_forest", trees=t, seed=7) for t in (1, 2, 3)
    )
    spec = sepfx.learners.LearnerSpec(kind="super_learner", candidates=forests, seed=7)
    fit = sepfx.learners.fit_super_learner(x, y, spec)
    tracer = layers.Tracer()
    tracer.install()
    try:
        fit.predict(x)
        calls, _, _ = layers.span_totals(tracer.spans)
    finally:
        tracer.uninstall()

    weighted = int(np.count_nonzero(fit.weights))
    assert weighted >= 1
    assert calls.get("forest.predict", 0) == weighted
