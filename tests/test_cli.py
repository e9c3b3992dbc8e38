import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sepfx
from sepfx.cli import build_parser, main
from sepfx.data import FourArmDataset, restrict_to_two_arm, save_four_arm, save_two_arm
from sepfx.estimation import STRATEGIES, EstimatorConfig, shared_settings
from sepfx.falsification import DIRECT_BASES
from sepfx.learners import PRESET_CHOICES
from sepfx.simulation import SimConfig, generate_dataset


@pytest.fixture(scope="module")
def four_arm_csv(tmp_path_factory):
    ds = generate_dataset(SimConfig(n=600, a_y_model=1, reps=1, master_seed=11), 0)
    path = tmp_path_factory.mktemp("cli") / "four.csv"
    save_four_arm(ds, path)
    return str(path)


@pytest.fixture(scope="module")
def two_arm_csv(tmp_path_factory):
    ds = generate_dataset(SimConfig(n=600, a_y_model=1, reps=1, master_seed=11), 0)
    path = tmp_path_factory.mktemp("cli") / "two.csv"
    save_two_arm(restrict_to_two_arm(ds), path)
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_truth_command(capsys):
    code, payload = run_json(capsys, ["truth", "--model", "2", "--deterministic"])
    assert code == 0
    assert payload["command"] == "truth"
    assert payload["result"]["sde_two"] == 2.0
    assert "generated_at" not in payload


def test_truth_includes_timestamp_by_default(capsys):
    code, payload = run_json(capsys, ["truth"])
    assert code == 0
    assert "generated_at" in payload


def test_estimate_four_arm(capsys, four_arm_csv):
    code, payload = run_json(capsys, [
        "estimate", "--data", four_arm_csv, "--design", "four-arm",
        "--estimand", "sde:aM=1", "--estimand", "sie:aY=0",
        "--seed", "3", "--deterministic",
    ])
    assert code == 0
    ests = payload["result"]["estimates"]
    assert [(e["estimand"], e["fixed_level"]) for e in ests] == [("sde", 1), ("sie", 0)]
    assert all(e["design"] == "four-arm" for e in ests)
    assert payload["seed"] == 3
    assert payload["version"]


def test_estimate_two_arm_with_column_mapping(capsys, two_arm_csv):
    code, payload = run_json(capsys, [
        "estimate", "--data", two_arm_csv, "--design", "two-arm",
        "--col-a", "aY", "--deterministic",
    ])
    assert code == 0
    ests = payload["result"]["estimates"]
    # default estimands when none are given
    assert [(e["estimand"], e["fixed_level"]) for e in ests] == [("sde", 1), ("sie", 1)]
    assert all(e["strategy"] == "ensemble" for e in ests)


def test_estimate_writes_out_file(capsys, four_arm_csv, tmp_path):
    out = tmp_path / "est.json"
    code = main([
        "estimate", "--data", four_arm_csv, "--design", "four-arm",
        "--estimand", "sde:aM=1", "--deterministic", "--out", str(out),
    ])
    assert code == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(out.read_text())
    assert payload["result"]["estimates"][0]["estimand"] == "sde"


def test_pretty_table_with_out_file(capsys, four_arm_csv, tmp_path):
    out = tmp_path / "est.json"
    code = main([
        "estimate", "--data", four_arm_csv, "--design", "four-arm",
        "--estimand", "sde:aM=1", "--pretty", "--out", str(out),
    ])
    assert code == 0
    assert capsys.readouterr().out.startswith("estimand")
    assert json.loads(out.read_text())["result"]["estimates"][0]["estimand"] == "sde"


def test_pretty_table(capsys, four_arm_csv):
    code = main([
        "estimate", "--data", four_arm_csv, "--design", "four-arm",
        "--estimand", "sde:aM=1", "--pretty",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "estimand" in out and "point" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_falsify_direct(capsys, four_arm_csv):
    code, payload = run_json(capsys, [
        "falsify", "direct", "--data", four_arm_csv, "--deterministic",
    ])
    assert code == 0
    tests = payload["result"]["tests"]
    assert [t["test"] for t in tests] == ["H0(i)", "H0(i)", "H0(ii)"]
    assert tests[0]["mediator"] == 0 and tests[1]["mediator"] == 1


def test_falsify_indirect_exit_zero_even_when_rejecting(capsys, tmp_path):
    cfg = SimConfig(n=1500, a_y_model=1, reps=1, master_seed=3, violation=0.8)
    path = tmp_path / "violated.csv"
    save_four_arm(generate_dataset(cfg, 0), path)
    code, payload = run_json(capsys, [
        "falsify", "indirect", "--data", str(path), "--deterministic",
    ])
    assert code == 0
    tests = payload["result"]["tests"]
    assert len(tests) == 4
    assert any(t["reject"] for t in tests)


def test_usage_error_exits_two(capsys, four_arm_csv):
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--data", four_arm_csv, "--design", "four-arm",
              "--estimand", "bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--design", "four-arm"])  # missing --data
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--n", "10"])  # below the generator minimum
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["estimate", "--design", "four-arm", "--splits", "0"], "splits"),
        (["estimate", "--design", "two-arm", "--k-folds", "1"], "k_folds"),
        (["estimate", "--design", "four-arm", "--alpha", "0"], "alpha"),
        (["estimate", "--design", "four-arm", "--clip", "0.6"], "clip"),
        (["falsify", "indirect", "--splits", "0"], "splits"),
        (["falsify", "direct", "--alpha", "0"], "alpha"),
        (["simulate", "--n", "200", "--reps", "1", "--splits", "0"], "splits"),
        (["simulate", "--n", "200", "--reps", "1", "--threads", "0"], "threads"),
        (["simulate", "--n", "200", "--reps", "1", "--violation", "nan"], "violation"),
        (["simulate", "--n", "200", "--reps", "1", "--violation", "inf"], "violation"),
        (["simulate", "--n", "200", "--reps", "1", "--estimators", "sde_four,sde_four"],
         "estimators must not repeat"),
        (["simulate", "--n", "200", "--reps", "1", "--estimators", ","],
         "estimators must name at least one"),
    ],
)
def test_bad_estimator_settings_exit_two(capsys, four_arm_csv, argv, message):
    if argv[0] != "simulate":
        argv = argv + ["--data", four_arm_csv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_choice_lists_are_the_librarys_tuples():
    """Every subcommand offers the learner presets, strategies and direct-test
    bases that the library itself checks against."""
    commands = build_parser()._subparsers._group_actions[0].choices
    for name in ("simulate", "estimate", "falsify"):
        flags = commands[name]._option_string_actions
        assert flags["--learner"].choices is PRESET_CHOICES
        assert flags["--strategy"].choices is STRATEGIES
    assert commands["falsify"]._option_string_actions["--basis"].choices is DIRECT_BASES


def test_shared_settings_default_to_the_estimator_config():
    """``SimConfig`` and every subcommand's estimator flags take their
    defaults from ``EstimatorConfig``, the one place they are written."""
    defaults = shared_settings(EstimatorConfig())
    assert shared_settings(SimConfig(reps=1)) == defaults
    parser = build_parser()
    for argv in (
        ["simulate"],
        ["estimate", "--data", "d.csv", "--design", "four-arm"],
        ["falsify", "direct", "--data", "d.csv"],
    ):
        assert shared_settings(parser.parse_args(argv)) == defaults


def test_two_arm_diagnostics_exit_two(capsys, two_arm_csv):
    """The two-arm estimator has no diagnostics, so asking for them is a
    usage error rather than a silently missing key."""
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--data", two_arm_csv, "--design", "two-arm",
              "--col-a", "aY", "--diagnostics"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--diagnostics is available for --design four-arm only" in captured.err


def test_data_error_exits_one(capsys, four_arm_csv, tmp_path):
    assert main(["estimate", "--data", "/no/such/file.csv",
                 "--design", "four-arm"]) == 1
    assert "error:" in capsys.readouterr().err
    # four-arm file lacks the two-arm treatment column
    assert main(["estimate", "--data", four_arm_csv, "--design", "two-arm"]) == 1
    capsys.readouterr()
    # a byte that is not UTF-8 in row 3
    path = tmp_path / "f.csv"
    path.write_bytes(b"y,aY,aM,m1,x1\n1,0,1,0.5,0.2\n2,1,0,0.4,0.3\n3,1,1,\xff,0.1\n")
    assert main(["estimate", "--design", "four-arm", "--data", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: input is not valid UTF-8")


def test_a_column_taken_twice_exits_one(capsys, four_arm_csv):
    for argv in (["estimate", "--design", "four-arm"], ["falsify", "direct"]):
        assert main(argv + ["--data", four_arm_csv, "--col-mediators", "m1,m1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: duplicate column names: m1\n"


def test_overlong_field_exits_one_with_its_line(capsys, tmp_path):
    path = tmp_path / "long.csv"
    path.write_bytes(b"y,aY,aM,m1,x1\n1,0,1,0.5," + b"a" * 200_000 + b"\n")
    assert main(["estimate", "--design", "four-arm", "--data", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: line 2: field larger than field limit")
    assert "Traceback" not in captured.err


def test_zero_standard_error_exits_one(capsys, tmp_path):
    """An all-zero outcome gives every score 0 and so a zero standard error."""
    ds = generate_dataset(SimConfig(n=400, reps=1), 0)
    flat = FourArmDataset(
        y=ds.y * 0.0, a_y=ds.a_y, a_m=ds.a_m, m=ds.m, x=ds.x,
        outcome_name="y", a_y_name="aY", a_m_name="aM",
        mediator_names=ds.mediator_names, covariate_names=ds.covariate_names,
    )
    path = tmp_path / "flat.csv"
    save_four_arm(flat, path)
    assert main(["estimate", "--data", str(path), "--design", "four-arm",
                 "--splits", "1", "--deterministic"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err
    assert "standard error is 0.0" in captured.err


def test_simulate_deterministic_reruns_are_identical(capsys, tmp_path):
    args = ["simulate", "--n", "400", "--reps", "3", "--seed", "21",
            "--estimators", "sde_four", "--deterministic"]
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    payload = json.loads(out_a.read_text())
    assert "runtime_seconds" not in payload["result"]
    assert payload["result"]["rows"][0]["estimator"] == "sde_four"


def test_version_flag(capsys):
    from sepfx import __version__

    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_cli_import_leaves_out_scipy_stats_and_optimize():
    """``import sepfx.cli`` stays cheap: scipy.stats and scipy.optimize
    cost over a second to import and only tail functions and the super
    learner's NNLS need anything from them."""
    src = str(Path(sepfx.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    probe = (
        "import sys, sepfx.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[:2] in (['scipy', 'stats'], ['scipy', 'optimize'])))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    assert out.stdout.strip() == "[]"
