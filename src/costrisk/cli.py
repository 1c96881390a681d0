"""Command-line front end.

Exit codes: 0 on success, 1 on any bad input.  The parser checks every
document, built-ins included, and builds its model, so a parsed scenario
always runs.  Reports go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import sys

from .errors import CostRiskError
from .scenario import (
    BUILTIN_DOCS,
    SchemaError,
    parse_scenario,
    render_report,
    run_scenario,
    scenario_from_dict,
    with_search_overrides,
)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--resolution", type=float, help="simplex grid step override")
    sub.add_argument("--epsilon", type=float, help="limit-construction epsilon override")
    sub.add_argument(
        "--format", choices=("text", "json"), default="text", help="report format"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="costrisk",
        description=(
            "Analyze estimation scenarios: mode/mean/median/Bayes estimates, "
            "relative errors, worst-case posteriors, and cost-function "
            "appropriateness."
        ),
    )
    parser.add_argument(
        "--list-builtins", action="store_true", help="list built-in scenarios and exit"
    )
    sub = parser.add_subparsers(dest="command")
    analyze = sub.add_parser("analyze", help="run a scenario file")
    analyze.add_argument("scenario_file")
    _add_common(analyze)
    builtin = sub.add_parser("builtin", help="run a built-in scenario")
    builtin.add_argument("name")
    _add_common(builtin)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_builtins:
        for name in sorted(BUILTIN_DOCS):
            print(name)
        return 0
    if not args.command:
        parser.print_usage(sys.stderr)
        print("costrisk: error: expected a command or --list-builtins", file=sys.stderr)
        return 1

    try:
        if args.command == "analyze":
            try:
                with open(args.scenario_file, encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                print(f"costrisk: error: {exc}", file=sys.stderr)
                return 1
            scenario = parse_scenario(text)
        else:
            if args.name not in BUILTIN_DOCS:
                print(
                    f"costrisk: error: unknown builtin {args.name!r}; "
                    f"choose from {', '.join(sorted(BUILTIN_DOCS))}",
                    file=sys.stderr,
                )
                return 1
            scenario = scenario_from_dict(BUILTIN_DOCS[args.name])
        scenario = with_search_overrides(scenario, args.resolution, args.epsilon)
    except SchemaError as exc:
        print(f"costrisk: schema error: {exc}", file=sys.stderr)
        return 1
    except CostRiskError as exc:
        print(f"costrisk: error: {exc}", file=sys.stderr)
        return 1

    sys.stdout.write(render_report(run_scenario(scenario), args.format))
    return 0


if __name__ == "__main__":
    sys.exit(main())
