"""Command-line interface.

Four subcommands: ``simulate`` runs the Monte Carlo study, ``estimate``
computes effect estimates from a CSV dataset, ``falsify`` runs the
direct or indirect falsification tests, and ``truth`` prints the exact
estimand values implied by the synthetic generator.  Every command emits
a single JSON document (stdout by default, ``--out`` to a file) embedding
the resolved configuration, the seed, and the library version.  With
``--deterministic`` the timestamp, the wall time and the worker count are
omitted so reruns are byte-identical.

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


def _add_column_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--col-outcome", default="y", help="outcome column name")
    parser.add_argument("--col-a-y", default="aY", help="outcome-channel treatment column")
    parser.add_argument("--col-a-m", default="aM", help="mediator-channel treatment column")
    parser.add_argument("--col-a", default="a", help="two-arm treatment column")
    parser.add_argument(
        "--col-mediators", default=None, help="comma-separated mediator columns"
    )
    parser.add_argument(
        "--col-covariates", default=None, help="comma-separated covariate columns"
    )
    parser.add_argument("--mediator-prefix", default="m")
    parser.add_argument("--covariate-prefix", default="x")


def _add_estimation_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--learner", default="glm", choices=PRESET_CHOICES)
    parser.add_argument("--k-folds", type=int, default=EstimatorConfig.k_folds)
    parser.add_argument("--splits", type=int, default=EstimatorConfig.splits)
    parser.add_argument("--alpha", type=float, default=EstimatorConfig.alpha)
    parser.add_argument("--clip", type=float, default=EstimatorConfig.clip)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--strategy", default=EstimatorConfig.strategy, choices=STRATEGIES,
        help="two-arm outcome-model strategy",
    )


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=None, help="write JSON to this path")
    parser.add_argument(
        "--pretty", action="store_true", help="print a human-readable table"
    )
    parser.add_argument(
        "--deterministic",
        action="store_true",
        help="omit the timestamp so reruns are byte-identical",
    )


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
        default=None,
        help=f"comma-separated subset of {','.join(ESTIMATOR_NAMES)}",
    )
    sim.add_argument("--violation", type=float, default=None)
    sim.add_argument(
        "--threads", type=int, default=SimConfig.threads,
        help="worker processes (default: every usable CPU, at most one per "
        "replication; one runs the study in this process); every study runs "
        "under one BLAS thread, so this changes wall time only",
    )
    _add_estimation_flags(sim)
    _add_output_flags(sim)

    est = sub.add_parser("estimate", help="estimate effects from a CSV dataset")
    est.add_argument("--data", required=True)
    est.add_argument("--design", required=True, choices=("four-arm", "two-arm"))
    est.add_argument(
        "--estimand",
        action="append",
        default=None,
        help="sde:aM={0,1} or sie:aY={0,1}; repeatable",
    )
    est.add_argument("--diagnostics", action="store_true")
    _add_estimation_flags(est)
    _add_column_flags(est)
    _add_output_flags(est)

    fal = sub.add_parser("falsify", help="run falsification tests")
    fal.add_argument("kind", choices=("direct", "indirect"))
    fal.add_argument("--data", required=True)
    fal.add_argument("--robust", action="store_true", help="HC1 errors (direct tests)")
    fal.add_argument(
        "--basis", default="main", choices=DIRECT_BASES,
        help="regression basis for the direct tests",
    )
    _add_estimation_flags(fal)
    _add_column_flags(fal)
    _add_output_flags(fal)

    tru = sub.add_parser("truth", help="print exact estimands of the generator")
    tru.add_argument("--model", type=int, default=SimConfig.a_y_model, choices=(1, 2))
    _add_output_flags(tru)

    return parser


def _schema_from_args(args) -> ColumnMap:
    def split(value):
        return tuple(v.strip() for v in value.split(",") if v.strip()) or None

    return ColumnMap(
        outcome=args.col_outcome,
        a_y=args.col_a_y,
        a_m=args.col_a_m,
        a=args.col_a,
        mediator_prefix=args.mediator_prefix,
        covariate_prefix=args.covariate_prefix,
        mediators=split(args.col_mediators) if args.col_mediators else None,
        covariates=split(args.col_covariates) if args.col_covariates else None,
    )


def _estimator_config(args, parser, diagnostics: bool = False):
    try:
        return estimator_config_for(
            args.learner, args.seed, diagnostics=diagnostics, **shared_settings(args)
        )
    except ValueError as exc:
        parser.error(str(exc))


def _parse_estimands(specs, parser) -> list:
    if not specs:
        return [("sde", 1), ("sie", 1)]
    out = []
    for spec in specs:
        try:
            kind, assignment = spec.split(":", 1)
            key, value = assignment.split("=", 1)
            level = int(value)
        except ValueError:
            parser.error(f"bad --estimand {spec!r}; expected sde:aM=L or sie:aY=L")
        kind = kind.strip().lower()
        key = key.strip()
        if level not in (0, 1):
            parser.error(f"bad --estimand {spec!r}; level must be 0 or 1")
        if kind == "sde" and key in ("aM", "am"):
            out.append(("sde", level))
        elif kind == "sie" and key in ("aY", "ay"):
            out.append(("sie", level))
        else:
            parser.error(f"bad --estimand {spec!r}; expected sde:aM=L or sie:aY=L")
    return out


def _run_simulate(args, parser) -> dict:
    estimators = (
        tuple(v.strip() for v in args.estimators.split(",") if v.strip())
        if args.estimators
        else ESTIMATOR_NAMES
    )
    try:
        cfg = SimConfig(
            n=args.n,
            a_y_model=args.model,
            reps=args.reps,
            master_seed=args.seed,
            estimators=estimators,
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
    requests = _parse_estimands(args.estimand, parser)
    if args.diagnostics and args.design != "four-arm":
        parser.error("--diagnostics is available for --design four-arm only")
    config = _estimator_config(args, parser, diagnostics=args.diagnostics)
    if args.design == "four-arm":
        ds = load_four_arm(args.data, schema)
        estimates = estimate_effects_four(ds, requests, config)
    else:
        ds = load_two_arm(args.data, schema)
        estimates = estimate_effects_two(ds, requests, config)
    return {"estimates": [est.to_json_dict() for est in estimates]}


def _run_falsify(args, parser) -> dict:
    schema = _schema_from_args(args)
    config = _estimator_config(args, parser)
    ds = load_four_arm(args.data, schema)
    if args.kind == "direct":
        results = [
            direct_test_h0i(
                ds, mediator_index=j, robust=args.robust,
                basis=args.basis, alpha=args.alpha,
            )
            for j in range(ds.n_mediators)
        ]
        results.append(
            direct_test_h0ii(
                ds, robust=args.robust, basis=args.basis, alpha=args.alpha
            )
        )
    else:
        results = indirect_test_battery(ds, config)
    return {"tests": [res.to_json_dict() for res in results]}


def _run_truth(args, parser) -> dict:
    cfg = SimConfig(a_y_model=args.model, reps=1)
    return true_effects(cfg).to_json_dict()


def _pretty_lines(command: str, result: dict) -> list[str]:
    lines = []
    if command == "simulate":
        header = f"{'estimator':<16}{'bias':>10}{'rmse':>10}{'coverage':>10}{'failures':>10}"
        lines.append(header)
        lines.append("-" * len(header))
        for row in result["rows"]:
            lines.append(
                f"{row['estimator']:<16}{row['bias']:>10.4f}{row['rmse']:>10.4f}"
                f"{row['coverage']:>10.3f}{row['failures']:>10d}"
            )
    elif command == "estimate":
        header = f"{'estimand':<10}{'level':>6}{'point':>12}{'se':>10}{'ci':>26}"
        lines.append(header)
        lines.append("-" * len(header))
        for est in result["estimates"]:
            ci = f"[{est['ci'][0]:.4f}, {est['ci'][1]:.4f}]"
            lines.append(
                f"{est['estimand']:<10}{est['fixed_level']!s:>6}{est['point']:>12.4f}"
                f"{est['se']:>10.4f}{ci:>26}"
            )
    elif command == "falsify":
        header = f"{'test':<16}{'target':<10}{'estimate':>12}{'statistic':>12}{'p':>10}{'reject':>8}"
        lines.append(header)
        lines.append("-" * len(header))
        for res in result["tests"]:
            if res.get("mediator") is not None:
                target = res["mediator"]
            elif res.get("fixed_level") is not None:
                target = f"level={res['fixed_level']}"
            else:
                target = ""
            lines.append(
                f"{res['test']:<16}{target:<10}{res['estimate']:>12.4f}"
                f"{res['statistic']:>12.3f}{res['p_value']:>10.4f}{str(res['reject']):>8}"
            )
    else:
        for key, value in result.items():
            lines.append(f"{key:<12}{value:.6f}")
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
        print("\n".join(_pretty_lines(args.command, result)))
    elif not args.out:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
