import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepfx import crossfit
from sepfx.crossfit import cross_fit, cross_fit_split, make_folds, median_adjust
from sepfx.errors import MissingCell, TooFewRows
from sepfx.estimation import EstimatorConfig, run_battery
from sepfx.seeding import derive_seed, stream

from conftest import make_four_arm


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

    def no_fit(dataset, train_rows):
        raise AssertionError("a model was fit")

    with pytest.raises(TooFewRows, match="21 folds need at least 21 rows, got 20"):
        cross_fit_split(ds, EstimatorConfig(k_folds=21), 0, no_fit)


def test_cross_fit_no_leakage():
    """The fitter never sees the rows it will be asked to score."""
    ds = make_four_arm(n=30)
    folds = make_folds(ds.n, 3, seed=1)
    seen = {}

    def fitter(dataset, train_rows):
        return set(train_rows.tolist())

    fits = cross_fit(ds, folds, fitter)
    for fold in range(3):
        test = set(folds.test_rows(fold).tolist())
        assert fits[fold].isdisjoint(test)


def test_cross_fit_wraps_fold_in_errors():
    ds = make_four_arm(n=20)
    folds = make_folds(ds.n, 2, seed=0)

    def bad_fitter(dataset, train_rows):
        raise ValueError("boom")

    with pytest.raises(ValueError, match="fold 0"):
        cross_fit(ds, folds, bad_fitter)


def test_cross_fit_degenerate_fold_keeps_type():
    ds = make_four_arm(n=20)
    folds = make_folds(ds.n, 2, seed=0)

    def missing_fitter(dataset, train_rows):
        raise MissingCell("cell (1, 1) empty in training rows")

    with pytest.raises(MissingCell) as exc:
        cross_fit(ds, folds, missing_fitter)
    assert str(exc.value) == "fold 0: cell (1, 1) empty in training rows"


def test_cross_fit_split_redraws_a_degenerate_partition():
    """Attempt a uses derive_seed(seed, "folds", split, a); a failed attempt
    moves on to the next seed, and the fits come from the partition used."""
    ds = make_four_arm(n=20)
    config = EstimatorConfig(seed=5, k_folds=2)
    calls = []

    def fitter(dataset, train_rows):
        calls.append(train_rows)
        if len(calls) == 1:
            raise MissingCell("cell (1, 1) empty in training rows")
        return train_rows

    folds, fits = cross_fit_split(ds, config, 2, fitter)
    expected = make_folds(20, 2, derive_seed(5, "folds", 2, 1))
    np.testing.assert_array_equal(folds.assignment, expected.assignment)
    for fold in range(2):
        np.testing.assert_array_equal(fits[fold], expected.train_rows(fold))


def test_cross_fit_split_gives_up_after_max_fold_retries(monkeypatch):
    ds = make_four_arm(n=20)
    config = EstimatorConfig()
    monkeypatch.setattr(crossfit, "MAX_FOLD_RETRIES", 3)
    attempts = []

    def fitter(dataset, train_rows):
        attempts.append(train_rows)
        raise MissingCell("cell (1, 1) empty in training rows")

    with pytest.raises(MissingCell) as exc:
        cross_fit_split(ds, config, 0, fitter)
    assert len(attempts) == 3
    assert str(exc.value) == (
        "no usable fold assignment after 3 attempts; "
        "last: fold 0: cell (1, 1) empty in training rows"
    )


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
