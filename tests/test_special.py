"""The Cephes ports in :mod:`sepfx.special` equal ``scipy.special`` bit for
bit, and its ``expit`` stays within rounding of scipy's."""

import hashlib
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.special as sc
from hypothesis import given, settings
from hypothesis import strategies as st

import sepfx
from sepfx.special import EXP_M2, expit, ndtr, ndtri

TINY = 5e-324  # the smallest subnormal


def bits(values) -> np.ndarray:
    """The float64 bit patterns of ``values``, with every NaN as one pattern."""
    arr = np.array(values, dtype=np.float64)
    return np.where(np.isnan(arr), np.nan, arr).view(np.uint64)


def assert_same_bits(function, reference, inputs) -> None:
    inputs = np.asarray(inputs, dtype=np.float64)
    got = bits([function(v) for v in inputs.tolist()])
    want = bits(reference(inputs))
    wrong = np.flatnonzero(got != want)
    assert wrong.size == 0, f"{wrong.size} inputs differ, first {inputs[wrong[:5]].tolist()}"


def around(value: float, steps: int = 3) -> list[float]:
    """``value`` and its ``steps`` float neighbours on either side."""
    out = [value]
    lo = hi = value
    for _ in range(steps):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


NDTRI_EDGES = [
    0.0, 1.0, -0.0, math.inf, -math.inf, math.nan, -1e-300, -1.0, 1.0 + 2.2e-16, 2.0,
    TINY, 2.2e-308, 1e-310, 1e-300, 0.5, 0.25, 0.75,
    *around(EXP_M2), *around(1.0 - EXP_M2), *around(math.exp(-32.0)),
    math.nextafter(1.0, 0.0), 2 * TINY, 3 * TINY,
]
NDTR_EDGES = [
    0.0, -0.0, math.inf, -math.inf, math.nan, TINY, -TINY, 1e-310, -1e-310,
    *around(math.sqrt(2.0)), *around(-math.sqrt(2.0)),  # |x| = 1, where erf hands to erfc
    *around(8.0 * math.sqrt(2.0)), *around(-8.0 * math.sqrt(2.0)),  # x = 8, erfc's R / S branch
    11.5, -11.5, 20.0, -20.0, 37.0, -37.0, 37.5, -37.5, 37.7, -37.7, 38.0, -38.0,
    1e10, -1e10, 1e300, -1e300,
]


def test_ndtri_edges_equal_scipy():
    assert_same_bits(ndtri, sc.ndtri, NDTRI_EDGES)
    assert ndtri(0.0) == -math.inf and ndtri(1.0) == math.inf
    assert math.isnan(ndtri(-0.5)) and math.isnan(ndtri(1.5)) and math.isnan(ndtri(math.nan))


def test_ndtr_edges_equal_scipy():
    assert_same_bits(ndtr, sc.ndtr, NDTR_EDGES)
    assert ndtr(-math.inf) == 0.0 and ndtr(math.inf) == 1.0 and ndtr(0.0) == 0.5


def test_dense_sweeps_equal_scipy():
    """About 2 x 10^5 seeded inputs over every branch of both functions."""
    rng = np.random.default_rng(20261020)
    probabilities = np.concatenate([
        rng.uniform(0.0, 1.0, 40_000),
        10.0 ** rng.uniform(-320.0, 0.0, 30_000),  # down into the subnormals
        1.0 - 10.0 ** rng.uniform(-16.0, 0.0, 30_000),  # near 1
    ])
    assert_same_bits(ndtri, sc.ndtri, probabilities)
    points = np.concatenate([rng.normal(0.0, 3.0, 50_000), rng.uniform(-40.0, 40.0, 50_000)])
    assert_same_bits(ndtr, sc.ndtr, points)


@settings(max_examples=500, deadline=None)
@given(st.floats(allow_nan=True, allow_infinity=True))
def test_ndtr_equals_scipy_on_any_float(x):
    assert_same_bits(ndtr, sc.ndtr, [x])


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.floats(0.0, 1.0), st.floats(allow_nan=True, allow_infinity=True)))
def test_ndtri_equals_scipy_on_any_float(p):
    assert_same_bits(ndtri, sc.ndtri, [p])


def test_the_ports_take_numpy_scalars_and_return_floats():
    assert type(ndtr(np.float64(-1.5))) is float
    assert type(ndtri(np.float64(0.975))) is float
    assert ndtri(np.float64(0.975)) == float(sc.ndtri(0.975))


def test_expit_stays_within_rounding_of_scipy():
    z = np.linspace(-750.0, 750.0, 600_001)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="raise"):
            got = expit(z)
    assert np.abs(got - sc.expit(z)).max() <= 2.3e-16
    assert got.min() >= 0.0 and got.max() <= 1.0
    assert np.all(np.diff(got) >= 0.0)
    assert expit(np.array([0.0, -0.0])).tolist() == [0.5, 0.5]
    assert expit(np.array([-np.inf, np.inf])).tolist() == [0.0, 1.0]


@pytest.mark.parametrize("shape", [(7,), (3, 4)])
def test_expit_keeps_shape_and_leaves_its_input_alone(shape):
    z = np.arange(int(np.prod(shape)), dtype=np.float64).reshape(shape) - 2.0
    before = z.copy()
    out = expit(z)
    assert out.shape == z.shape and out.dtype == np.float64
    assert np.array_equal(z, before)


def test_expit_bytes_do_not_depend_on_numpy_simd_dispatch():
    """The same bytes in a fresh interpreter with numpy's AVX-512 code off,
    as on a CPU without it (on such a CPU, or another architecture, the
    two runs take one path and agree trivially)."""
    probe = (
        "import hashlib, sys, numpy as np; from sepfx.special import expit; "
        "sys.stdout.write(hashlib.sha256(expit(np.linspace(-40.0, 40.0, 100_001))).hexdigest())"
    )
    src = str(Path(sepfx.__file__).resolve().parents[1])
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
           "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    here = hashlib.sha256(expit(np.linspace(-40.0, 40.0, 100_001))).hexdigest()
    assert out.stdout == here
