"""Byte-for-byte checks of ``--deterministic`` CLI output against files
stored in ``tests/golden/``: each case's JSON document in ``<name>.json``
and its ``--pretty`` table in ``<name>.txt``.

A refactor that should not change any number must leave these files as
they are.  When a change is meant to alter the output, regenerate them
with

    PYTHONPATH=src python tests/test_golden_cli.py

and say in the change why the bytes moved.

The bytes are pinned to one OpenBLAS kernel, ``GOLDEN_KERNEL``: other
kernels round the GLM fits' matrix products and solves differently in
the last bits, so a failure names the kernel in use.
"""

import contextlib
import ctypes
import io
from pathlib import Path

import numpy as np
import pytest

from sepfx.cli import main
from sepfx.data import save_four_arm
from sepfx.simulation import SimConfig, generate_dataset

GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_KERNEL = "SkylakeX"  # the OpenBLAS kernel the files were written under
DATA = "{data}"

CASES = {
    "simulate_model1": ["simulate", "--n", "300", "--reps", "3", "--seed", "5", "--model", "1"],
    "simulate_model2_subset_violation": [
        "simulate", "--n", "300", "--reps", "3", "--seed", "5", "--model", "2",
        "--estimators", "sde_four,sie_two", "--violation", "0.5",
    ],
    "estimate_four_arm_diagnostics": [
        "estimate", "--data", DATA, "--design", "four-arm", "--diagnostics",
    ],
    "estimate_four_arm_even_splits": [
        "estimate", "--data", DATA, "--design", "four-arm", "--splits", "4",
    ],
    "estimate_two_arm_strategy_t": [
        "estimate", "--data", DATA, "--design", "two-arm", "--col-a", "aY",
        "--strategy", "T",
    ],
    "falsify_direct_robust": ["falsify", "direct", "--data", DATA, "--robust"],
    "falsify_indirect": ["falsify", "indirect", "--data", DATA],
    "falsify_indirect_even_splits": [
        "falsify", "indirect", "--data", DATA, "--splits", "4",
    ],
    "truth_model1": ["truth", "--model", "1"],
}


def openblas_core() -> str:
    """The OpenBLAS kernel numpy's bundled library runs, or "none" if that
    library or its query is absent."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        try:
            query = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        query.restype = ctypes.c_char_p
        return query().decode()
    return "none"


def write_dataset(directory: Path) -> Path:
    path = directory / "four.csv"
    save_four_arm(generate_dataset(SimConfig(n=500, reps=1), 0), path)
    return path


def run_case(name: str, data: Path, out: Path) -> tuple[bytes, str]:
    """The case's JSON bytes, written to ``out``, and its printed table."""
    argv = [str(data) if arg == DATA else arg for arg in CASES[name]]
    table = io.StringIO()
    with contextlib.redirect_stdout(table):
        assert main(argv + ["--deterministic", "--pretty", "--out", str(out)]) == 0
    return out.read_bytes(), table.getvalue()


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    return write_dataset(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden_file(name, dataset, tmp_path):
    got, table = run_case(name, dataset, tmp_path / "out.json")
    assert got == (GOLDEN / f"{name}.json").read_bytes(), (
        f"OpenBLAS kernel {openblas_core()}; the goldens were written under {GOLDEN_KERNEL}"
    )
    assert table == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8"), (
        f"OpenBLAS kernel {openblas_core()}; the goldens were written under {GOLDEN_KERNEL}"
    )


def regenerate() -> None:
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        data = write_dataset(Path(tmp))
        for name in sorted(CASES):
            _, table = run_case(name, data, GOLDEN / f"{name}.json")
            (GOLDEN / f"{name}.txt").write_text(table, encoding="utf-8")


if __name__ == "__main__":
    regenerate()
