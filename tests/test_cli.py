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


@pytest.mark.parametrize(
    "argv, header, row",
    [
        (["simulate", "--n", "200", "--reps", "1", "--estimators", "sde_four",
          "--threads", "1"],
         "estimator             bias      rmse  coverage  failures", "sde_four "),
        (["falsify", "direct"],
         "test            target        estimate   statistic         p  reject", "H0(ii) "),
        (["truth", "--model", "2"], None, "sde_two     2.000000"),
    ],
    ids=["simulate", "falsify", "truth"],
)
def test_pretty_table_of_each_command(capsys, four_arm_csv, argv, header, row):
    """simulate and falsify print a header, a rule and a row per result;
    truth prints one row per truth."""
    if argv[0] == "falsify":
        argv = argv + ["--data", four_arm_csv]
    assert main(argv + ["--pretty"]) == 0
    lines = capsys.readouterr().out.splitlines()
    if header is not None:
        assert lines[:2] == [header, "-" * len(header)]
    assert any(line.startswith(row) for line in lines)


def test_falsify_direct(capsys, four_arm_csv):
    code, payload = run_json(capsys, [
        "falsify", "direct", "--data", four_arm_csv, "--deterministic",
    ])
    assert code == 0
    tests = payload["result"]["tests"]
    assert [t["test"] for t in tests] == ["H0(i)", "H0(i)", "H0(ii)"]
    assert tests[0]["mediator"] == 0 and tests[1]["mediator"] == 1
    assert payload["seed"] is None  # the direct tests draw nothing


def test_pretty_direct_tests_name_the_mapped_mediator_columns(capsys, tmp_path):
    """The table's H0(i) targets are the columns --col-mediators maps, in
    its order; the JSON ``mediator`` field keeps the position."""
    ds = generate_dataset(SimConfig(n=300, reps=1, master_seed=11), 0)
    path = tmp_path / "named.csv"
    save_four_arm(FourArmDataset(
        y=ds.y, a_y=ds.a_y, a_m=ds.a_m, m=ds.m, x=ds.x, mediator_names=("sleep", "cortisol"),
    ), path)
    argv = ["falsify", "direct", "--data", str(path), "--col-mediators", "cortisol,sleep"]
    assert main(argv + ["--pretty"]) == 0
    targets = [line.split()[:2] for line in capsys.readouterr().out.splitlines()[2:4]]
    assert targets == [["H0(i)", "cortisol"], ["H0(i)", "sleep"]]
    code, payload = run_json(capsys, argv)
    assert code == 0
    assert [t.get("mediator") for t in payload["result"]["tests"]] == [0, 1, None]


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
    # the estimate parser reports a bad value, under its own usage line
    err = capsys.readouterr().err
    assert err.startswith("usage: sepfx estimate ")
    assert err.endswith("\nsepfx estimate: error: argument --estimand: bad --estimand "
                        "'bogus'; expected sde:aM=L or sie:aY=L\n")
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--design", "four-arm"])  # missing --data
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["falsify", "--data", four_arm_csv])  # no test named
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--n", "10"])  # below the generator minimum
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "spec, expected",
    [("sde:aM=1", ("sde", 1)), ("sie:aY=0", ("sie", 0)), ("SDE:am=0", ("sde", 0)),
     (" sie : ay = 1 ", ("sie", 1))],
)
def test_estimand_grammar_accepts(capsys, monkeypatch, four_arm_csv, spec, expected):
    """The kind is read case-blind, the key as aM/am or aY/ay, and blanks
    around each part are dropped."""
    asked = []

    def estimate(ds, requests, config):
        asked.extend(requests)
        return []

    monkeypatch.setattr("sepfx.cli.estimate_effects_four", estimate)
    assert main(["estimate", "--data", four_arm_csv, "--design", "four-arm",
                 "--estimand", spec, "--deterministic"]) == 0
    assert asked == [expected]


@pytest.mark.parametrize(
    "spec, reason",
    [(spec, "expected sde:aM=L or sie:aY=L")
     for spec in ("bogus", "sde:aY=1", "sde:aM", "sde:aM=1.0", ":=1", "mean:aM=1")]
    + [(spec, "level must be 0 or 1") for spec in ("sde:aM=2", "sie:aY=-1", "sde:aY=2")],
)
def test_estimand_grammar_refuses(capsys, four_arm_csv, spec, reason):
    """A bad level is named before a bad kind or key (``sde:aY=2``)."""
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--data", four_arm_csv, "--design", "four-arm", "--estimand", spec])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"bad --estimand {spec!r}; {reason}\n" in captured.err


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
        (["simulate", "--n", "200", "--reps", "1", "--estimators", ""],
         "estimators must name at least one"),
        # a bad estimand
        (["estimate", "--design", "four-arm", "--estimand", "sde:aM=2"],
         "bad --estimand 'sde:aM=2'; level must be 0 or 1"),
        (["estimate", "--design", "four-arm", "--estimand", "sde:aY=1"],
         "bad --estimand 'sde:aY=1'; expected sde:aM=L or sie:aY=L"),
        # a flag that the test given it does not read
        (["falsify", "indirect", "--robust"], "unrecognized arguments: --robust"),
        (["falsify", "indirect", "--basis", "main"], "unrecognized arguments: --basis main"),
        (["falsify", "indirect", "--col-a", "a"], "unrecognized arguments: --col-a a"),
        (["falsify", "direct", "--learner", "glm"], "unrecognized arguments: --learner glm"),
        (["falsify", "direct", "--k-folds", "3"], "unrecognized arguments: --k-folds 3"),
        (["falsify", "direct", "--splits", "2"], "unrecognized arguments: --splits 2"),
        (["falsify", "direct", "--clip", "0.05"], "unrecognized arguments: --clip 0.05"),
        (["falsify", "direct", "--seed", "1"], "unrecognized arguments: --seed 1"),
        (["falsify", "direct", "--strategy", "T"], "unrecognized arguments: --strategy T"),
        (["falsify", "direct", "--col-a", "a"], "unrecognized arguments: --col-a a"),
        # a flag that the estimate's design does not read, even at its default
        (["estimate", "--design", "four-arm", "--strategy", "T"],
         "--strategy is available for --design two-arm only"),
        (["estimate", "--design", "four-arm", "--strategy", "ensemble"],
         "--strategy is available for --design two-arm only"),
        (["estimate", "--design", "four-arm", "--col-a", "zzz"],
         "--col-a is available for --design two-arm only"),
        (["estimate", "--design", "two-arm", "--col-a", "aY", "--col-a-y", "q"],
         "--col-a-y is available for --design four-arm only"),
        (["estimate", "--design", "two-arm", "--col-a", "aY", "--col-a-m", "r"],
         "--col-a-m is available for --design four-arm only"),
        # the worker count of a battery, and a test that runs no splits
        (["estimate", "--design", "four-arm", "--threads", "0"], "threads"),
        (["falsify", "indirect", "--threads", "0"], "threads"),
        (["falsify", "direct", "--threads", "2"], "unrecognized arguments: --threads 2"),
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


def subcommands(parser):
    return parser._subparsers._group_actions[0].choices


def test_choice_lists_are_the_librarys_tuples():
    """Every command that estimates offers the learner presets and
    strategies, and ``falsify direct`` the bases, that the library itself
    checks against."""
    commands = subcommands(build_parser())
    tests = subcommands(commands["falsify"])
    for parser in (commands["simulate"], commands["estimate"], tests["indirect"]):
        flags = parser._option_string_actions
        assert flags["--learner"].choices is PRESET_CHOICES
        assert flags["--strategy"].choices is STRATEGIES
    assert tests["direct"]._option_string_actions["--basis"].choices is DIRECT_BASES


# The option strings of each command path, in the order ``--help`` lists them.
_ESTIMATION = ["--learner", "--k-folds", "--splits", "--alpha", "--clip", "--seed", "--strategy",
               "--threads"]
_COLUMNS = ["--col-outcome", "--col-a-y", "--col-a-m", "--col-a", "--col-mediators",
            "--col-covariates", "--mediator-prefix", "--covariate-prefix"]
_FOUR_ARM_COLUMNS = [flag for flag in _COLUMNS if flag != "--col-a"]
_OUTPUT = ["--out", "--pretty", "--deterministic"]
COMMAND_OPTIONS = {
    "simulate": ["--model", "--n", "--reps", "--estimators", "--violation",
                 *_ESTIMATION, *_OUTPUT],
    "estimate": ["--data", "--design", "--estimand", "--diagnostics", *_ESTIMATION,
                 *_COLUMNS, *_OUTPUT],
    "falsify direct": ["--data", "--robust", "--basis", "--alpha", *_FOUR_ARM_COLUMNS,
                       *_OUTPUT],
    "falsify indirect": ["--data", *_ESTIMATION, *_FOUR_ARM_COLUMNS, *_OUTPUT],
    "truth": ["--model", *_OUTPUT],
}


def test_each_command_path_offers_its_pinned_options():
    """Every option of every command path, so that a flag added, dropped or
    moved between commands shows up as a reviewed diff of this list."""
    commands = dict(subcommands(build_parser()))
    paths = {"falsify " + kind: parser
             for kind, parser in subcommands(commands.pop("falsify")).items()}
    paths.update(commands)
    got = {
        path: [flag for action in parser._actions for flag in action.option_strings
               if flag not in ("-h", "--help")]
        for path, parser in paths.items()
    }
    assert got == COMMAND_OPTIONS
    assert [len(got[path]) for path in COMMAND_OPTIONS] == [16, 23, 14, 19, 4]


def test_shared_settings_default_to_the_estimator_config():
    """``SimConfig`` and every subcommand's estimator flags take their
    defaults from ``EstimatorConfig``, the one place they are written."""
    defaults = shared_settings(EstimatorConfig())
    assert shared_settings(SimConfig(reps=1)) == defaults
    parser = build_parser()
    for argv in (
        ["simulate"],
        ["estimate", "--data", "d.csv", "--design", "four-arm"],
        ["falsify", "indirect", "--data", "d.csv"],
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


@pytest.mark.parametrize(
    "flag, value, role",
    [("--col-mediators", ",", "mediator"), ("--col-covariates", "", "covariate")],
)
def test_an_explicit_empty_column_list_exits_one(capsys, four_arm_csv, flag, value, role):
    """A column flag that names no column is refused, not read as absent:
    prefix discovery runs only when the flag is not given."""
    for argv in (["estimate", "--design", "four-arm"], ["falsify", "direct"]):
        assert main(argv + ["--data", four_arm_csv, flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: the explicit {role} column list is empty\n"


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
    cost over a second to import, and no sepfx module needs either; the
    only scipy the package loads is ``scipy.special``, for the classical
    direct tests' t tails."""
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


def test_only_the_classical_direct_tests_load_scipy(tmp_path):
    """GLM estimates and the indirect test run without any scipy module;
    the classical direct tests' t tails then load ``scipy.special``."""
    data = tmp_path / "four.csv"
    save_four_arm(generate_dataset(SimConfig(n=2000, a_y_model=1, reps=1), 0), data)
    out = str(tmp_path / "out.json")
    runs = [
        ["estimate", "--data", str(data), "--design", "four-arm", "--learner", "glm",
         "--out", out],
        ["falsify", "indirect", "--data", str(data), "--learner", "glm", "--out", out],
        ["falsify", "direct", "--data", str(data), "--out", out],
    ]
    src = str(Path(sepfx.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    probe = (
        "import sys\n"
        "from sepfx.cli import main\n"
        f"for argv in {runs!r}:\n"
        "    assert main(argv) == 0\n"
        "    print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    after_estimate, after_indirect, after_direct = out.stdout.splitlines()
    assert after_estimate == after_indirect == "[]"
    assert "'scipy.special'" in after_direct
