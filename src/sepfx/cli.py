"""Command-line interface.

Four subcommands: ``simulate`` runs the Monte Carlo study, ``estimate``
computes effect estimates from a CSV dataset and refuses the flags its
``--design`` ignores, ``falsify`` runs the direct or the indirect tests,
each on only the flags it reads, and ``truth`` prints the generator's
exact estimands.  ``--strategy``, ``--diagnostics`` and the column flags
are absent from the parsed arguments unless given, so a design-only flag
is refused even at its default; a bad ``--estimand`` is an argparse error
of ``estimate`` (``argument --estimand: bad --estimand ...``).  Every
command emits a single JSON document (stdout by default, ``--out`` to a
file) embedding the resolved configuration, the seed (null if none is
drawn) and the library version.  With ``--deterministic`` the timestamp,
the wall time and the worker count are omitted so reruns are byte-identical;
``--threads``, taken by ``simulate``, ``estimate`` and ``falsify indirect``,
changes the wall time only.

Exit codes: 0 on success (including falsification tests that reject),
2 on usage errors, 1 on data or estimation errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone

from . import __version__
from .data import ColumnMap, load_four_arm, load_two_arm
from .errors import SepfxError
from .estimation import STRATEGIES, EstimatorConfig, shared_settings
from .falsification import (
    DIRECT_BASES, direct_test_h0i, direct_test_h0ii, indirect_test_battery,
)
from .four_arm import estimate_effects_four
from .learners import PRESET_CHOICES
from .simulation import (
    ESTIMATOR_NAMES,
    SimConfig,
    estimator_config_for,
    run_monte_carlo,
    true_effects,
)
from .two_arm import estimate_effects_two


def _names(value: str) -> tuple[str, ...]:
    """A comma-separated list of names, blanks dropped: ``,`` and ``""``
    give an empty list, which the library refuses."""
    return tuple(v.strip() for v in value.split(",") if v.strip())


# Each column flag, the ColumnMap field it sets and takes its default from,
# and its help text.
_COLUMN_FLAGS = (
    ("--col-outcome", "outcome", "outcome column name"),
    ("--col-a-y", "a_y", "outcome-channel treatment column"),
    ("--col-a-m", "a_m", "mediator-channel treatment column"),
    ("--col-a", "a", "two-arm treatment column"),
    ("--col-mediators", "mediators", "comma-separated mediator columns"),
    ("--col-covariates", "covariates", "comma-separated covariate columns"),
    ("--mediator-prefix", "mediator_prefix", None),
    ("--covariate-prefix", "covariate_prefix", None),
)


# The dests of the ``estimate`` flags that only one design reads; the other
# refuses them.  Their default is argparse.SUPPRESS, so a dest is in the
# parsed namespace exactly when its flag is given, even at its default value.
_DESIGN_FLAGS = {
    "diagnostics": "four-arm", "col_a_y": "four-arm", "col_a_m": "four-arm",
    "strategy": "two-arm", "col_a": "two-arm",
}


def _add_column_flags(parser: argparse.ArgumentParser, omit: tuple = ()) -> None:
    for flag, field, text in _COLUMN_FLAGS:
        if field in omit:
            continue
        kind = _names if field in ("mediators", "covariates") else str
        parser.add_argument(flag, type=kind, default=argparse.SUPPRESS, help=text)


def _add_estimation_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--learner", default="glm", choices=PRESET_CHOICES)
    parser.add_argument("--k-folds", type=int, default=EstimatorConfig.k_folds)
    parser.add_argument("--splits", type=int, default=EstimatorConfig.splits)
    parser.add_argument("--alpha", type=float, default=EstimatorConfig.alpha)
    parser.add_argument("--clip", type=float, default=EstimatorConfig.clip)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--strategy", default=argparse.SUPPRESS, choices=STRATEGIES,
                        help="two-arm outcome-model strategy")
    parser.add_argument(
        "--threads", type=int, default=EstimatorConfig.threads,
        help="processes that run simulate's replications or the sample splits "
        "(default: every usable CPU, at most one per replication or split); "
        "all run under one BLAS thread, so this changes wall time only",
    )


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=None, help="write JSON to this path")
    parser.add_argument(
        "--pretty", action="store_true", help="print a human-readable table"
    )
    parser.add_argument(
        "--deterministic",
        action="store_true",
        help="omit the timestamp, the wall time and the worker count so reruns "
        "are byte-identical",
    )


def _estimand(spec: str) -> tuple[str, int]:
    """One ``--estimand``, ``sde:aM=L`` or ``sie:aY=L``, the kind case-blind and
    blanks dropped; a level other than 0 or 1 is named before a bad kind or key."""
    expected = f"bad --estimand {spec!r}; expected sde:aM=L or sie:aY=L"
    try:
        kind, assignment = spec.split(":", 1)
        key, value = assignment.split("=", 1)
        level = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(expected) from None
    if level not in (0, 1):
        raise argparse.ArgumentTypeError(f"bad --estimand {spec!r}; level must be 0 or 1")
    kind = kind.strip().lower()
    if key.strip() not in {"sde": ("aM", "am"), "sie": ("aY", "ay")}.get(kind, ()):
        raise argparse.ArgumentTypeError(expected)
    return kind, level


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sepfx",
        description="Separable effect estimation for four-arm and two-arm designs",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the Monte Carlo study")
    sim.add_argument("--model", type=int, default=SimConfig.a_y_model, choices=(1, 2))
    sim.add_argument("--n", type=int, default=SimConfig.n)
    sim.add_argument("--reps", type=int, default=SimConfig.reps)
    sim.add_argument(
        "--estimators",
        type=_names,
        default=SimConfig.estimators,
        help=f"comma-separated subset of {','.join(ESTIMATOR_NAMES)}",
    )
    sim.add_argument("--violation", type=float, default=None)
    _add_estimation_flags(sim)
    _add_output_flags(sim)

    est = sub.add_parser("estimate", help="estimate effects from a CSV dataset")
    est.add_argument("--data", required=True)
    est.add_argument("--design", required=True, choices=("four-arm", "two-arm"))
    est.add_argument("--estimand", type=_estimand, action="append",
                     help="sde:aM={0,1} or sie:aY={0,1}; repeatable")
    est.add_argument("--diagnostics", action="store_true", default=argparse.SUPPRESS)
    _add_estimation_flags(est)
    _add_column_flags(est)
    _add_output_flags(est)

    fal = sub.add_parser("falsify", help="run falsification tests")
    tests = fal.add_subparsers(dest="kind", required=True)
    for kind in ("direct", "indirect"):
        # exact flags: --col-a is unrecognized, not a prefix of --col-a-y/--col-a-m
        test = tests.add_parser(kind, help=f"run the {kind} tests", allow_abbrev=False)
        test.add_argument("--data", required=True)
        if kind == "direct":
            test.add_argument("--robust", action="store_true", help="HC1 standard errors")
            test.add_argument("--basis", default=DIRECT_BASES[0], choices=DIRECT_BASES,
                              help="regression basis")
            test.add_argument("--alpha", type=float, default=EstimatorConfig.alpha)
        else:
            _add_estimation_flags(test)
        _add_column_flags(test, omit=("a",))  # both tests read four-arm data
        _add_output_flags(test)

    tru = sub.add_parser("truth", help="print exact estimands of the generator")
    tru.add_argument("--model", type=int, default=SimConfig.a_y_model, choices=(1, 2))
    _add_output_flags(tru)

    return parser


def _schema_from_args(args) -> ColumnMap:
    # argparse keeps each flag's value under its name, dashes made underscores
    return ColumnMap(**{
        field: getattr(args, flag[2:].replace("-", "_"), getattr(ColumnMap, field))
        for flag, field, _ in _COLUMN_FLAGS
    })


def _estimator_config(args, parser, diagnostics: bool = False):
    try:
        if args.command == "falsify" and args.kind == "direct":  # it reads --alpha alone
            return EstimatorConfig(alpha=args.alpha)
        return estimator_config_for(
            args.learner, args.seed, diagnostics=diagnostics, threads=args.threads,
            **shared_settings(args),
        )
    except ValueError as exc:
        parser.error(str(exc))


def _run_simulate(args, parser) -> dict:
    try:
        cfg = SimConfig(
            n=args.n,
            a_y_model=args.model,
            reps=args.reps,
            master_seed=args.seed,
            estimators=args.estimators,
            learner=args.learner,
            violation=args.violation,
            threads=args.threads,
            **shared_settings(args),
        )
    except ValueError as exc:
        parser.error(str(exc))
    report = run_monte_carlo(cfg)
    return report.to_json_dict()


def _run_estimate(args, parser) -> dict:
    schema = _schema_from_args(args)
    requests = args.estimand or [("sde", 1), ("sie", 1)]
    for dest, design in sorted(_DESIGN_FLAGS.items()):
        if design != args.design and dest in args:
            parser.error(f"--{dest.replace('_', '-')} is available for --design {design} only")
    config = _estimator_config(args, parser, diagnostics="diagnostics" in args)
    if args.design == "four-arm":
        ds = load_four_arm(args.data, schema)
        estimates = estimate_effects_four(ds, requests, config)
    else:
        ds = load_two_arm(args.data, schema)
        estimates = estimate_effects_two(ds, requests, config)
    return {"estimates": [est.to_json_dict() for est in estimates]}


def _run_falsify(args, parser) -> dict:
    config = _estimator_config(args, parser)
    ds = load_four_arm(args.data, _schema_from_args(args))
    # the --pretty table names each H0(i) row's mediator column
    args.mediator_names = ds.mediator_names
    if args.kind == "direct":
        options = {"robust": args.robust, "basis": args.basis, "alpha": config.alpha}
        results = [
            direct_test_h0i(ds, mediator_index=j, **options)
            for j in range(ds.n_mediators)
        ]
        results.append(direct_test_h0ii(ds, **options))
    else:
        results = indirect_test_battery(ds, config)
    return {"tests": [res.to_json_dict() for res in results]}


def _run_truth(args, parser) -> dict:
    cfg = SimConfig(a_y_model=args.model, reps=1)
    return true_effects(cfg).to_json_dict()


def _target(test: dict, mediator_names) -> str:
    """A test's target cell: its mediator's column name, else its fixed
    level, else blank."""
    if test.get("mediator") is not None:
        return mediator_names[test["mediator"]]
    return "" if test.get("fixed_level") is None else f"level={test['fixed_level']}"


# Each command's --pretty table: the result list holding its rows (None: the
# result's own items), the cells computed per row from the row and the
# dataset's mediator names, the header and the row template.
_TABLES = {
    "simulate": (
        "rows", {}, f"{'estimator':<16}{'bias':>10}{'rmse':>10}{'coverage':>10}{'failures':>10}",
        "{estimator:<16}{bias:>10.4f}{rmse:>10.4f}{coverage:>10.3f}{failures:>10d}",
    ),
    "estimate": (
        "estimates", {"interval": lambda est, _: "[{:.4f}, {:.4f}]".format(*est["ci"])},
        f"{'estimand':<10}{'level':>6}{'point':>12}{'se':>10}{'ci':>26}",
        "{estimand:<10}{fixed_level!s:>6}{point:>12.4f}{se:>10.4f}{interval:>26}",
    ),
    "falsify": (
        "tests", {"target": _target},
        f"{'test':<16}{'target':<10}{'estimate':>12}{'statistic':>12}{'p':>10}{'reject':>8}",
        "{test:<16}{target:<10}{estimate:>12.4f}{statistic:>12.3f}{p_value:>10.4f}{reject!s:>8}",
    ),
    "truth": (None, {}, "", "{key:<12}{value:.6f}"),
}


def _pretty_lines(command: str, result: dict, mediator_names=()) -> list[str]:
    rows, cells, header, template = _TABLES[command]
    items = result[rows] if rows else [{"key": k, "value": v} for k, v in result.items()]
    lines = [header, "-" * len(header)] if header else []
    for item in items:
        computed = {name: cell(item, mediator_names) for name, cell in cells.items()}
        lines.append(template.format_map({**item, **computed}))
    return lines


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "simulate": _run_simulate,
        "estimate": _run_estimate,
        "falsify": _run_falsify,
        "truth": _run_truth,
    }
    try:
        result = handlers[args.command](args, parser)
    except (SepfxError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    payload = {
        "command": args.command,
        "version": __version__,
        "seed": getattr(args, "seed", None),
        "result": result,
    }
    if args.deterministic:
        # neither the wall time nor the worker count is a result
        result.pop("runtime_seconds", None)
        result.get("config", {}).pop("threads", None)
    else:
        payload["generated_at"] = datetime.now(timezone.utc).isoformat()
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"

    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    if args.pretty:
        print("\n".join(
            _pretty_lines(args.command, result, getattr(args, "mediator_names", ()))
        ))
    elif not args.out:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
