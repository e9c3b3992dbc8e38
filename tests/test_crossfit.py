import ast
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepfx import crossfit, four_arm, two_arm
from sepfx.crossfit import cross_fit, cross_fit_split, make_folds, median_adjust
from sepfx.errors import MissingCell, TooFewRows
from sepfx.estimation import EstimatorConfig, run_battery
from sepfx.seeding import derive_seed, stream

from conftest import make_four_arm, make_two_arm

SOURCES = sorted((Path(__file__).parent.parent / "src" / "sepfx").glob("*.py"))


def test_derive_seed_deterministic_and_distinct():
    assert derive_seed(1, "a") == derive_seed(1, "a")
    assert derive_seed(1, "a") != derive_seed("a", 1)
    assert derive_seed(1, "a") != derive_seed(1, "ab")
    assert derive_seed(1, "a", 2) != derive_seed(1, "a2")
    seen = {derive_seed(i, "folds") for i in range(2000)}
    assert len(seen) == 2000


def test_derive_seed_range_and_types():
    for parts in [(0,), ("x",), (2**62, "big"), (-1, "neg")]:
        s = derive_seed(*parts)
        assert 0 <= s < 2**63
    with pytest.raises(TypeError):
        derive_seed(True)
    with pytest.raises(TypeError):
        derive_seed(1.5)


def test_stream_reproducible():
    a = stream(7, "noise").normal(size=5)
    b = stream(7, "noise").normal(size=5)
    np.testing.assert_array_equal(a, b)
    c = stream(7, "other").normal(size=5)
    assert not np.array_equal(a, c)


def test_make_folds_partition_and_sizes():
    folds = make_folds(5, 2, seed=0)
    sizes = sorted(folds.test_rows(k).size for k in range(2))
    assert sizes == [2, 3]
    all_rows = np.concatenate([folds.test_rows(k) for k in range(2)])
    assert sorted(all_rows.tolist()) == list(range(5))
    # train rows are the complement
    np.testing.assert_array_equal(
        np.sort(np.concatenate([folds.train_rows(0), folds.test_rows(0)])),
        np.arange(5),
    )


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=2, max_value=200),
    st.integers(min_value=2, max_value=10),
    st.integers(min_value=0, max_value=2**31),
)
def test_make_folds_property(n, k, seed):
    if k > n:
        with pytest.raises(TooFewRows):
            make_folds(n, k, seed)
        return
    folds = make_folds(n, k, seed)
    sizes = [folds.test_rows(j).size for j in range(k)]
    assert max(sizes) - min(sizes) <= 1
    assert sum(sizes) == n
    again = make_folds(n, k, seed)
    np.testing.assert_array_equal(folds.assignment, again.assignment)


def test_make_folds_bad_k():
    with pytest.raises(ValueError, match="k must be at least 2, got 1"):
        make_folds(10, 1, seed=0)
    with pytest.raises(TooFewRows, match="11 folds need at least 11 rows, got 10"):
        make_folds(10, 11, seed=0)


def test_more_folds_than_rows_fail_naming_both_counts():
    """An estimator asked for more folds than the data have rows fails
    with TooFewRows naming both counts, before any fit."""
    ds = make_four_arm(n=20)

    def no_fit(train_rows, test_rows):
        raise AssertionError("a model was fit")

    with pytest.raises(TooFewRows, match="21 folds need at least 21 rows, got 20"):
        cross_fit_split(ds, EstimatorConfig(k_folds=21), 0, no_fit)


def test_cross_fit_no_leakage():
    """The fold scorer never fits on the rows it will be asked to score,
    and each row's value is the one its own fold's scorer returned."""
    ds = make_four_arm(n=30)
    folds = make_folds(ds.n, 3, seed=1)
    seen = []

    def fold_scores(train_rows, test_rows):
        seen.append((set(train_rows.tolist()), set(test_rows.tolist())))
        return {"fold": np.full(test_rows.size, float(len(seen) - 1))}

    out = cross_fit(ds, folds, fold_scores)
    assert len(seen) == 3
    for train, test in seen:
        assert train.isdisjoint(test)
        assert train | test == set(range(ds.n))
    np.testing.assert_array_equal(out["fold"], folds.assignment)


def test_cross_fit_wraps_fold_in_errors():
    ds = make_four_arm(n=20)
    folds = make_folds(ds.n, 2, seed=0)

    def bad_scorer(train_rows, test_rows):
        raise ValueError("boom")

    with pytest.raises(ValueError, match="fold 0"):
        cross_fit(ds, folds, bad_scorer)


def test_cross_fit_degenerate_fold_keeps_type():
    ds = make_four_arm(n=20)
    folds = make_folds(ds.n, 2, seed=0)

    def missing_scorer(train_rows, test_rows):
        raise MissingCell("cell (1, 1) empty in training rows")

    with pytest.raises(MissingCell) as exc:
        cross_fit(ds, folds, missing_scorer)
    assert str(exc.value) == "fold 0: cell (1, 1) empty in training rows"


def test_cross_fit_split_redraws_a_degenerate_partition():
    """Attempt a uses derive_seed(seed, "folds", split, a); a failed attempt
    moves on to the next seed, and the vectors come from the partition used."""
    ds = make_four_arm(n=20)
    config = EstimatorConfig(seed=5, k_folds=2)
    calls = []

    def fold_scores(train_rows, test_rows):
        calls.append(train_rows)
        if len(calls) == 1:
            raise MissingCell("cell (1, 1) empty in training rows")
        return {"fold": np.full(test_rows.size, float(len(calls) - 2))}

    out = cross_fit_split(ds, config, 2, fold_scores)
    expected = make_folds(20, 2, derive_seed(5, "folds", 2, 1))
    np.testing.assert_array_equal(out["fold"], expected.assignment)
    assert len(calls) == 3
    for fold in range(2):
        np.testing.assert_array_equal(calls[fold + 1], expected.train_rows(fold))


def test_cross_fit_split_gives_up_after_max_fold_retries(monkeypatch):
    ds = make_four_arm(n=20)
    config = EstimatorConfig()
    monkeypatch.setattr(crossfit, "MAX_FOLD_RETRIES", 3)
    attempts = []

    def fold_scores(train_rows, test_rows):
        attempts.append(train_rows)
        raise MissingCell("cell (1, 1) empty in training rows")

    with pytest.raises(MissingCell) as exc:
        cross_fit_split(ds, config, 0, fold_scores)
    assert len(attempts) == 3
    assert str(exc.value) == (
        "no usable fold assignment after 3 attempts; "
        "last: fold 0: cell (1, 1) empty in training rows"
    )


@pytest.mark.parametrize(
    "module, fitter, estimator, make",
    [
        (four_arm, "fit_nuisance_four", "estimate_effects_four", make_four_arm),
        (two_arm, "fit_nuisance_two", "estimate_effects_two", make_two_arm),
    ],
    ids=["four", "two"],
)
def test_each_folds_bundle_is_freed_before_the_next_fit(
    monkeypatch, module, fitter, estimator, make
):
    """A design's fold scorer fits, scores and drops one bundle per fold:
    when a fold's fit starts, no earlier fold's bundle is alive.  One
    process runs both splits, so the patch sees every fit."""
    real_fit = getattr(module, fitter)
    bundles, alive_at_fit = [], []

    def recording_fit(*args, **kwargs):
        alive_at_fit.append(sum(ref() is not None for ref in bundles))
        bundle = real_fit(*args, **kwargs)
        bundles.append(weakref.ref(bundle))
        return bundle

    monkeypatch.setattr(module, fitter, recording_fit)
    getattr(module, estimator)(make(n=90), [("sde", 1)], EstimatorConfig(k_folds=3, splits=2, threads=1))
    assert alive_at_fit == [0] * 6


def test_a_scoring_error_names_its_fold(monkeypatch):
    """An error raised while a fold's test rows are scored carries that
    fold's ``fold k:`` prefix, as a fitting error does."""
    ds = make_four_arm(n=90)
    config = EstimatorConfig(splits=1)
    fold_1 = make_folds(
        ds.n, config.k_folds, derive_seed(config.seed, "folds", 0, 0)
    ).test_rows(1)
    real_eif = four_arm.eif

    def failing_eif(ds, nuis, cells, rows, *args):
        if np.array_equal(rows, fold_1):
            raise FloatingPointError("score overflow")
        return real_eif(ds, nuis, cells, rows, *args)

    monkeypatch.setattr(four_arm, "eif", failing_eif)
    with pytest.raises(FloatingPointError, match=r"^fold 1: score overflow$"):
        four_arm.estimate_effects_four(ds, [("sde", 1)], config)


def fold_row_calls(source: str) -> set[str]:
    """The ``FoldAssignment`` row methods, ``train_rows`` and ``test_rows``,
    that ``source`` calls as attributes."""
    return {
        node.func.attr for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("train_rows", "test_rows")
    }


def test_only_crossfit_and_the_super_learner_loop_over_folds():
    """``crossfit.cross_fit`` is the one loop over an estimator's folds; the
    super learner's batched internal folds are the one other reader."""
    callers = {
        path.name for path in SOURCES
        if fold_row_calls(path.read_text(encoding="utf-8"))
    }
    assert callers <= {"crossfit.py", "learners.py"}


def test_a_fold_row_call_is_found():
    source = (
        "def test_rows(self, fold):\n    pass\n"
        "rows = folds.test_rows\n"
        "train = make(n).train_rows(0)\n"
    )
    assert fold_row_calls(source) == {"train_rows"}
    assert fold_row_calls("folds.test_rows(k)\n") == {"test_rows"}


def test_median_adjust_examples():
    point, variance = median_adjust([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
    assert point == 2.0
    # per-split adjusted variances are (1, 0, 1); the median is 1
    assert variance == 1.0

    assert median_adjust([1.0] * 3, [1.0] * 3) == (1.0, 1.0)


def test_median_adjust_single_split_is_identity():
    assert median_adjust([0.7], [2.5]) == (0.7, 2.5)


def _marked_splits(points):
    """run_battery input whose split s has the given point and the
    contribution vector (s, s)."""

    def split_fn(split):
        contrib = np.full(2, float(split))
        return {"key": (points[split], np.zeros(2), contrib)}

    return split_fn


def test_run_battery_eif_comes_from_the_middle_splits():
    """eif comes from the split realizing the median point, or averages the
    two middle splits when the number of splits is even."""
    for points, central in [
        ([3.0, 1.0, 2.0], (2,)),
        ([4.0, 1.0, 3.0, 2.0], (3, 2)),
        ([5.0], (0,)),
    ]:
        config = EstimatorConfig(splits=len(points))
        result = run_battery(config, _marked_splits(points))["key"]
        np.testing.assert_array_equal(result.eif, np.full(2, np.mean(central)))
        assert result.point == np.median(points)
