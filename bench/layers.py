"""Outside-in tracing of sepfx's public callables.

``install()`` replaces each traced function wherever a loaded ``sepfx``
module holds it, so calls made through ``from .x import f`` names are seen
as well; nothing under ``src/`` changes.  Each call records a span
``[name, start, end, parent]`` in memory.  Two waste counters are kept at
the same boundaries:

* nuisance bundles (``fit_nuisance_four`` and ``fit_nuisance_two``) keyed by
  dataset content, training rows, learner specs, clip and strategy;
* forest trees, where ``unique_trees`` sums the largest ``n_trees`` asked
  for per (training set, seed, mtry, min_leaf), since a smaller forest on
  the same seed is a prefix of a larger one.

The bookkeeping done inside the wrappers is timed and reported as the
tracing overhead.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
import time

import numpy as np

# (module, attribute, span name); "Class.method" patches the class.
TRACED = (
    ("sepfx.cli", "main", "cli.main"),
    ("sepfx.data", "load_four_arm", "data.load_four_arm"),
    ("sepfx.data", "save_four_arm", "data.save_four_arm"),
    ("sepfx.data", "restrict_to_two_arm", "data.restrict_to_two_arm"),
    ("sepfx.learners", "fit_classifier", "learners.fit_classifier"),
    ("sepfx.learners", "fit_regressor", "learners.fit_regressor"),
    ("sepfx.learners", "GlmPredictor.predict", "learners.predict"),
    ("sepfx.learners", "fit_super_learner", "learners.fit_super_learner"),
    ("sepfx.forest", "fit_forest", "forest.fit_forest"),
    ("sepfx.forest", "ForestPredictor.predict", "forest.predict"),
    ("sepfx.crossfit", "make_folds", "crossfit.make_folds"),
    ("sepfx.crossfit", "cross_fit", "crossfit.cross_fit"),
    ("sepfx.crossfit", "median_adjust", "crossfit.median_adjust"),
    ("sepfx.four_arm", "fit_nuisance_four", "four_arm.fit_nuisance_four"),
    ("sepfx.four_arm", "estimate_effects_four", "four_arm.score"),
    ("sepfx.two_arm", "fit_nuisance_two", "two_arm.fit_nuisance_two"),
    ("sepfx.two_arm", "split_scores_two", "two_arm.split_scores_two"),
    ("sepfx.falsification", "fit_nuisance_theta", "falsification.fit_nuisance_theta"),
    ("sepfx.falsification", "indirect_test_battery", "falsification.indirect_test_battery"),
    ("sepfx.falsification", "direct_test_h0i", "falsification.direct_tests"),
    ("sepfx.falsification", "direct_test_h0ii", "falsification.direct_tests"),
    ("sepfx.simulation", "generate_dataset", "simulation.generate_dataset"),
)

# Per-layer metrics: (metric, statistic, span name).  "calls" counts spans,
# "s" sums outermost spans of the name, "self_s" subtracts child spans.
SPAN_METRICS = (
    ("cli.main.self_s", "self_s", "cli.main"),
    ("data.load_four_arm.s", "s", "data.load_four_arm"),
    ("data.restrict_to_two_arm.s", "s", "data.restrict_to_two_arm"),
    ("learners.fit_classifier.calls", "calls", "learners.fit_classifier"),
    ("learners.fit_classifier.s", "s", "learners.fit_classifier"),
    ("learners.fit_regressor.calls", "calls", "learners.fit_regressor"),
    ("learners.fit_regressor.s", "s", "learners.fit_regressor"),
    ("learners.predict.calls", "calls", "learners.predict"),
    ("learners.predict.s", "s", "learners.predict"),
    ("learners.fit_super_learner.s", "s", "learners.fit_super_learner"),
    ("forest.fit_forest.calls", "calls", "forest.fit_forest"),
    ("forest.fit_forest.s", "s", "forest.fit_forest"),
    ("forest.predict.s", "s", "forest.predict"),
    ("crossfit.make_folds.calls", "calls", "crossfit.make_folds"),
    ("crossfit.cross_fit.s", "s", "crossfit.cross_fit"),
    ("crossfit.median_adjust.s", "s", "crossfit.median_adjust"),
    ("four_arm.fit_nuisance_four.calls", "calls", "four_arm.fit_nuisance_four"),
    ("four_arm.fit_nuisance_four.s", "s", "four_arm.fit_nuisance_four"),
    ("four_arm.score.self_s", "self_s", "four_arm.score"),
    ("two_arm.fit_nuisance_two.calls", "calls", "two_arm.fit_nuisance_two"),
    ("two_arm.fit_nuisance_two.s", "s", "two_arm.fit_nuisance_two"),
    ("two_arm.split_scores_two.s", "s", "two_arm.split_scores_two"),
    ("falsification.fit_nuisance_theta.calls", "calls", "falsification.fit_nuisance_theta"),
    ("falsification.fit_nuisance_theta.s", "s", "falsification.fit_nuisance_theta"),
    ("falsification.indirect_test_battery.s", "s", "falsification.indirect_test_battery"),
    ("falsification.direct_tests.s", "s", "falsification.direct_tests"),
    ("simulation.generate_dataset.calls", "calls", "simulation.generate_dataset"),
    ("simulation.generate_dataset.s", "s", "simulation.generate_dataset"),
)

COUNTERS = ("forest.trees", "forest.unique_trees", "nuisance.fits", "nuisance.unique_fits")


def _digest(*arrays) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(str((arr.dtype.str, arr.shape)).encode())
        h.update(arr.tobytes())
    return h.digest()


class Tracer:
    """Spans and waste counters for the op in progress."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.overhead = 0.0
        self._nuisance_keys: list = []
        self._forest_trees: dict = {}
        self._forest_total = 0
        self._dataset_digests: dict = {}
        self._installed: list = []

    # -- per-op state -------------------------------------------------
    def reset(self) -> None:
        self.spans = []
        self.stack = []
        self.overhead = 0.0
        self._nuisance_keys = []
        self._forest_trees = {}
        self._forest_total = 0
        self._dataset_digests = {}

    def snapshot(self) -> dict:
        """Raw record of the op in progress: spans and counter inputs."""
        return {
            "spans": [list(span) for span in self.spans],
            "overhead_s": self.overhead,
            "nuisance_keys": [k.hex() for k in self._nuisance_keys],
            "forest_trees": [[k.hex(), n] for k, n in self._forest_trees.items()],
            "forest_calls_trees": self._forest_total,
        }

    # -- waste counters -----------------------------------------------
    def _dataset_digest(self, ds) -> bytes:
        hit = self._dataset_digests.get(id(ds))
        if hit is not None and hit[0] is ds:
            return hit[1]
        treatments = (ds.a_y, ds.a_m) if hasattr(ds, "a_y") else (ds.a,)
        digest = _digest(ds.y, *treatments, ds.m, ds.x)
        self._dataset_digests[id(ds)] = (ds, digest)
        return digest

    def _observe_nuisance(self, bundle: str, bound) -> None:
        args = bound.arguments
        config = args["config"]
        strategy = args.get("strategy") or config.strategy
        key = hashlib.blake2b(
            repr(
                (
                    bundle,
                    self._dataset_digest(args["ds"]),
                    _digest(np.asarray(args["train_rows"])),
                    config.outcome,
                    config.propensity,
                    config.clip,
                    strategy if bundle == "two" else None,
                )
            ).encode(),
            digest_size=16,
        ).digest()
        self._nuisance_keys.append(key)

    def _observe_forest(self, bound) -> None:
        args = bound.arguments
        key = hashlib.blake2b(
            repr(
                (
                    _digest(np.asarray(args["features"], dtype=np.float64)),
                    _digest(np.asarray(args["targets"], dtype=np.float64)),
                    args["seed"],
                    args["mtry"],
                    args["min_leaf"],
                )
            ).encode(),
            digest_size=16,
        ).digest()
        n_trees = int(args["n_trees"])
        self._forest_total += n_trees
        self._forest_trees[key] = max(self._forest_trees.get(key, 0), n_trees)

    # -- wrapping -----------------------------------------------------
    def _wrap(self, fn, name: str, observe=None):
        signature = inspect.signature(fn) if observe else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_in = time.perf_counter()
            if observe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(bound)
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            t0 = time.perf_counter()
            self.overhead += t0 - t_in
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                span[1] = t0
                span[2] = t1
                self.stack.pop()
                self.overhead += time.perf_counter() - t1

        return wrapper

    def install(self) -> None:
        """Wrap every traced callable in every loaded sepfx module."""
        import sepfx.cli  # noqa: F401  (loads every sepfx module)

        observers = {
            "four_arm.fit_nuisance_four": lambda b: self._observe_nuisance("four", b),
            "two_arm.fit_nuisance_two": lambda b: self._observe_nuisance("two", b),
            "forest.fit_forest": self._observe_forest,
        }
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "sepfx"]
        for module_name, attr, name in TRACED:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(original, name, observers.get(name)))
                self._installed.append((cls, meth, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, observers.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._installed.append((module, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._installed):
            setattr(owner, key, original)
        self._installed = []


def span_totals(spans: list) -> tuple[dict, dict, dict]:
    """Calls, outermost total seconds and self seconds per span name.

    A span nested inside a span of the same name (a recursive call) counts
    as a call but not again in the total.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: dict = {}
    total: dict = {}
    self_time: dict = {}
    for i, (name, start, end, parent) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_time[name] = self_time.get(name, 0.0) + (end - start) - child_time[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            total[name] = total.get(name, 0.0) + (end - start)
    return calls, total, self_time


def summarize(records: list) -> dict:
    """Per-layer figures of one op from the raw records of its processes.

    Each process keys its own waste counters, because processes cannot
    share fits.
    """
    out = {metric: 0.0 for metric, _, _ in SPAN_METRICS}
    out.update({name: 0 for name in COUNTERS})
    out["trace.overhead.s"] = 0.0
    for rec in records:
        calls, total, self_time = span_totals(rec["spans"])
        by_stat = {"calls": calls, "s": total, "self_s": self_time}
        for metric, stat, name in SPAN_METRICS:
            out[metric] += by_stat[stat].get(name, 0)
        out["nuisance.fits"] += len(rec["nuisance_keys"])
        out["nuisance.unique_fits"] += len(set(rec["nuisance_keys"]))
        out["forest.trees"] += rec["forest_calls_trees"]
        out["forest.unique_trees"] += sum(n for _, n in rec["forest_trees"])
        out["trace.overhead.s"] += rec["overhead_s"]
    return out
