"""A battery's sample splits fan out over forked processes and give the
bytes, warnings and errors of one process, whatever the worker count or
the caller's BLAS thread count; a battery inside a study never forks."""

import os
import warnings

import pytest

from sepfx import fanout, four_arm, two_arm
from sepfx.cli import main
from sepfx.data import save_four_arm
from sepfx.errors import LearnerError
from sepfx.estimation import EstimatorConfig
from sepfx.four_arm import estimate_effects_four
from sepfx.simulation import SimConfig, generate_dataset, run_falsification_study, run_monte_carlo

from conftest import assert_no_process_left, blas_threads, pool_path

# The battery commands, each on the small trial below.
COMMANDS = {
    "estimate-four-arm": ["estimate", "--design", "four-arm"],
    "estimate-two-arm": ["estimate", "--design", "two-arm", "--col-a", "aY"],
    "falsify-indirect": ["falsify", "indirect"],
}


@pytest.fixture(scope="module")
def trial_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("fanout") / "trial.csv"
    save_four_arm(generate_dataset(SimConfig(n=100, reps=1, master_seed=4), 0), path)
    return str(path)


def label_splits(monkeypatch) -> list:
    """Make each design's split warn with its module and split index, and
    return the list of splits that this process, the caller, runs."""
    caller, seen = os.getpid(), []
    for module in (four_arm, two_arm):
        real = module.cross_fit_split

        def labelled(ds, config, split, fold_scores, real=real, name=module.__name__):
            warnings.warn(f"{name} split {split}")
            if os.getpid() == caller:
                seen.append((split, blas_threads()))
            return real(ds, config, split, fold_scores)

        monkeypatch.setattr(module, "cross_fit_split", labelled)
    return seen


@pool_path
@pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS)
def test_two_processes_give_the_bytes_and_warnings_of_one(monkeypatch, tmp_path, trial_csv, argv):
    """The caller runs splits 0 and 2 under one BLAS thread and a child
    split 1; the JSON and the warnings, in split order, are those of
    ``--threads 1``."""
    seen = label_splits(monkeypatch)
    runs = []
    for threads in (1, 2):
        seen.clear()
        out = tmp_path / f"threads-{threads}.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([*argv, "--data", trial_csv, "--threads", str(threads),
                         "--deterministic", "--out", str(out)])
        assert code == 0
        runs.append((out.read_bytes(), [(w.category, str(w.message)) for w in caught]))
    assert sorted({split for split, _ in seen}) == [0, 2]
    assert {count for _, count in seen} == {1}
    assert runs[1] == runs[0]
    splits = [int(message.rsplit(" ", 1)[1]) for _, message in runs[0][1] if " split " in message]
    assert splits == sorted(splits) and set(splits) == {0, 1, 2}
    assert_no_process_left()


@pool_path
@pytest.mark.parametrize(
    "failing", [(0,), (1,), (2,), (1, 2), (0, 1)],
    ids=["caller", "child", "caller-second", "child-lower", "caller-lower"],
)
def test_the_lowest_failing_split_raises_as_in_one_process(monkeypatch, failing):
    """Its type and message, ``fold k:`` prefix included, whichever process
    ran it."""
    ds = generate_dataset(SimConfig(n=200, reps=1, master_seed=3), 0)
    real = four_arm.cross_fit_split

    def failing_split(ds, config, split, fold_scores):
        def scores(train, test):
            if split in failing:
                raise LearnerError(f"split {split} broke")
            return fold_scores(train, test)

        return real(ds, config, split, scores)

    monkeypatch.setattr(four_arm, "cross_fit_split", failing_split)
    raised = []
    for threads in (1, 2):
        with pytest.raises(LearnerError) as exc:
            estimate_effects_four(ds, [("sde", 1)], EstimatorConfig(threads=threads))
        raised.append(str(exc.value))
    assert raised == [f"fold 0: split {min(failing)} broke"] * 2
    assert_no_process_left()


@pool_path
def test_a_child_that_exits_without_its_splits_fails_the_battery(monkeypatch):
    ds = generate_dataset(SimConfig(n=200, reps=1, master_seed=3), 0)
    caller, real = os.getpid(), four_arm.cross_fit_split

    def exiting_split(*args):
        if os.getpid() != caller:
            os._exit(3)
        return real(*args)

    monkeypatch.setattr(four_arm, "cross_fit_split", exiting_split)
    with pytest.raises(RuntimeError, match="exited with code 3 before it sent"):
        estimate_effects_four(ds, [("sde", 1)], EstimatorConfig(threads=2))
    assert_no_process_left()


@pool_path
@pytest.mark.parametrize("study", [run_monte_carlo, run_falsification_study])
@pytest.mark.parametrize("threads", [1, 2])
def test_a_battery_inside_a_study_starts_no_process(monkeypatch, tmp_path, study, threads):
    """Only the study forks, and only at two workers: every fork, in the
    caller or in a child, is written to one file."""
    log = tmp_path / "forks"
    log.touch()
    real = fanout._fork_shares

    def recording(fn, count, w):
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(f"{count}\n")
        return real(fn, count, w)

    monkeypatch.setattr(fanout, "_fork_shares", recording)
    study(SimConfig(n=200, reps=4, splits=3, master_seed=1, threads=threads))
    assert log.read_text(encoding="utf-8").split() == ([] if threads == 1 else ["4"])
    assert_no_process_left()


@pool_path
def test_estimate_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    """At this size a second BLAS thread moves the last bits of the fits of
    a battery that does not pin one."""
    path = tmp_path / "trial.csv"
    save_four_arm(generate_dataset(SimConfig(n=55_000, reps=1, master_seed=77), 0), path)
    get, put = fanout.blas_thread_calls()
    before, outputs = get(), []
    try:
        for count in (1, 2):
            put(count)
            out = tmp_path / f"blas-{count}.json"
            argv = ["estimate", "--data", str(path), "--design", "four-arm",
                    "--deterministic", "--out", str(out)]
            assert main(argv) == 0
            assert get() == count
            outputs.append(out.read_bytes())
    finally:
        put(before)
    assert outputs[1] == outputs[0]
    assert_no_process_left()
