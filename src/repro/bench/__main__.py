"""``python -m repro.bench`` / ``repro bench``: the benchmark front-end.

Subcommands:

* ``run``     — execute catalog scenarios (a suite or explicit ids) and emit
  the uniform run table, optionally as a ``BENCH_trajectory.json`` document;
* ``gate``    — compare a run document against the stored trajectory
  (``benchmarks/trajectory/trajectory.json``) and exit non-zero on
  regression, checksum drift, or a failed invariant;
* ``check``   — validate the scenario catalog (unique ids, resolvable
  factors) and execute every entry at smoke scale, so a broken definition
  fails fast without timing anything;
* ``list``    — print the catalog;
* ``figures`` — run figure groups (Fig. 13/15 and the ablations) and print
  each as the paper's table, one median column per engine; exits non-zero
  when two engines of one row disagree.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.bench.scenarios import format_table
from repro.errors import ReproError

DEFAULT_TRAJECTORY = Path("benchmarks") / "trajectory" / "trajectory.json"


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.bench.catalog import FIGURES
    from repro.bench.scenarios import ScenarioError, render_figure, run_suite

    groups = {group.id: group for group in FIGURES}
    if args.list:
        print("\n".join(groups))
        return 0
    names = list(args.groups)
    if names in ([], ["all"]):
        names = list(groups)
    unknown = [name for name in names if name not in groups]
    if unknown:
        raise ScenarioError(f"unknown figure groups {unknown}; use --list to see choices")
    for name in names:
        group = groups[name]
        document = run_suite(
            group.expand(), args.scale, suite="figures", repetitions=args.repetitions
        )
        print(render_figure(group, document))
        print()
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.bench.catalog import select
    from repro.bench.scenarios import run_suite, run_table

    scenarios = select(suite=args.suite, ids=args.scenario)
    progress = (lambda text: print(text, file=sys.stderr)) if not args.quiet else None
    document = run_suite(
        scenarios,
        args.scale,
        suite=args.suite,
        repetitions=args.repetitions,
        progress=progress,
    )
    print(format_table(run_table(document)))
    if args.json:
        Path(args.json).write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
        print(f"({len(scenarios)} scenarios; written to {args.json})", file=sys.stderr)
    return 0


def _cmd_gate(args: argparse.Namespace) -> int:
    from repro.bench.catalog import INVARIANTS
    from repro.bench.gate import compare, load_trajectory, write_trajectory

    current = load_trajectory(args.results)
    trajectory_path = Path(args.trajectory)
    if not trajectory_path.exists():
        write_trajectory(current, trajectory_path)
        print(
            f"gate: no stored trajectory at {trajectory_path} — bootstrapped it from "
            f"{args.results} ({len(current.get('scenarios', []))} scenarios); "
            "commit it to start gating"
        )
        return 0
    baseline = load_trajectory(trajectory_path)
    report = compare(
        baseline,
        current,
        invariants=INVARIANTS,
        max_regression=args.max_regression,
    )
    print(report.render())
    if report.passed and args.update:
        write_trajectory(current, trajectory_path)
        print(f"gate: trajectory refreshed at {trajectory_path}")
    if not report.passed:
        names = ", ".join(verdict.subject for verdict in report.failures)
        print(f"gate: FAILING on: {names}", file=sys.stderr)
        return 1
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.bench.catalog import CATALOG, check_catalog

    progress = (lambda text: print(text, file=sys.stderr)) if not args.quiet else None
    problems = check_catalog(runnable=not args.static, scale=args.scale, progress=progress)
    if problems:
        for problem in problems:
            print(f"catalog problem: {problem}")
        print(f"repro bench check: {len(problems)} problems in {len(CATALOG)} scenarios")
        return 1
    mode = "statically valid" if args.static else f"valid and runnable at scale {args.scale!r}"
    print(f"repro bench check: {len(CATALOG)} scenarios, catalog {mode}")
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.bench.catalog import CATALOG, INVARIANTS

    rows = [
        {
            "scenario": scenario.id,
            "suites": ",".join(scenario.suites),
            "grammar": scenario.grammar,
            "class": scenario.query_class,
            "edges": scenario.run_edges,
            "title": scenario.title,
        }
        for scenario in CATALOG
        if args.suite == "all" or scenario.in_suite(args.suite)
    ]
    print(format_table(rows))
    print(f"{len(rows)} scenarios, {len(INVARIANTS)} invariants")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Declarative benchmark scenarios, trajectory gating, and paper figures.",
    )
    sub = parser.add_subparsers(dest="bench_command", required=True)

    run_parser = sub.add_parser("run", help="run catalog scenarios and emit the run table")
    run_parser.add_argument(
        "--suite", default="ci", help="scenario suite (ci, full, figures, or all)"
    )
    run_parser.add_argument(
        "--scenario", action="append", default=[], metavar="ID",
        help="run this scenario instead of a suite (repeatable)",
    )
    run_parser.add_argument("--scale", default="ci", choices=["smoke", "ci", "full"])
    run_parser.add_argument("--json", metavar="PATH", help="write the trajectory document here")
    run_parser.add_argument(
        "--repetitions", type=int, default=None, help="override the scale's repetition count"
    )
    run_parser.add_argument("--quiet", action="store_true", help="suppress per-scenario progress")
    run_parser.set_defaults(handler=_cmd_run)

    gate_parser = sub.add_parser(
        "gate", help="compare a run document against the stored trajectory"
    )
    gate_parser.add_argument("results", help="a BENCH_trajectory.json written by 'run --json'")
    gate_parser.add_argument(
        "--trajectory", default=str(DEFAULT_TRAJECTORY),
        help=f"stored baseline (default: {DEFAULT_TRAJECTORY}); missing = bootstrap",
    )
    gate_parser.add_argument(
        "--max-regression", type=float, default=None,
        help="normalized median growth factor that fails the gate (default 3.0)",
    )
    gate_parser.add_argument(
        "--update", action="store_true",
        help="refresh the stored trajectory with these results when the gate passes",
    )
    gate_parser.set_defaults(handler=_cmd_gate)

    check_parser = sub.add_parser(
        "check", help="validate the catalog and smoke-run every entry"
    )
    check_parser.add_argument(
        "--static", action="store_true", help="skip executing entries; static checks only"
    )
    check_parser.add_argument("--scale", default="smoke", choices=["smoke", "ci", "full"])
    check_parser.add_argument("--quiet", action="store_true")
    check_parser.set_defaults(handler=_cmd_check)

    list_parser = sub.add_parser("list", help="print the scenario catalog")
    list_parser.add_argument("--suite", default="all")
    list_parser.set_defaults(handler=_cmd_list)

    figures_parser = sub.add_parser(
        "figures", help="run figure groups and print the paper's Fig. 13/15 tables"
    )
    figures_parser.add_argument(
        "groups", nargs="*", default=["all"],
        help="figure group ids (fig13a ... fig15b, ablation-*) or 'all'",
    )
    figures_parser.add_argument("--scale", default="ci", choices=["smoke", "ci", "full"])
    figures_parser.add_argument(
        "--repetitions", type=int, default=None, help="override the scale's repetition count"
    )
    figures_parser.add_argument("--list", action="store_true", help="list the figure groups")
    figures_parser.set_defaults(handler=_cmd_figures)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "max_regression", None) is None and args.bench_command == "gate":
        from repro.bench.gate import DEFAULT_MAX_REGRESSION

        args.max_regression = DEFAULT_MAX_REGRESSION
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"repro bench: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
