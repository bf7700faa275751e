"""``repro lint``: command-line front end for the invariant linter.

Wired into the ``repro-bench`` parser by :mod:`repro.cli`; kept here so
the lint package owns its own surface.  Exit codes: 0 clean, 1 findings,
2 usage errors (unknown rules, unreadable paths/baseline).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List

from repro.lint.findings import load_baseline, write_baseline

#: Baseline file picked up automatically when present in the working
#: directory (the committed repo-root baseline).
DEFAULT_BASELINE = "lint-baseline.json"


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the ``repro lint`` arguments to ``parser``."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        metavar="PATH",
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--rule",
        action="append",
        dest="rules",
        metavar="RULE",
        help="run only this rule (repeatable; default: all rules)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help=(
            "accept findings fingerprinted in FILE "
            f"(default: {DEFAULT_BASELINE} when it exists)"
        ),
    )
    parser.add_argument(
        "--write-baseline",
        default=None,
        metavar="FILE",
        help="write the current findings as a baseline and exit 0",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print findings and counts as JSON (for CI and scripts)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules and exit",
    )


def command_lint(args: argparse.Namespace) -> int:
    """Handler for the ``repro lint`` subcommand."""
    from repro.lint.engine import build_context, rule_descriptions, run_rules

    if args.list_rules:
        for name, description in rule_descriptions().items():
            print(f"{name:<18} {description}")
        return 0

    baseline_path = None
    if args.baseline is not None:
        baseline_path = Path(args.baseline)
    elif Path(DEFAULT_BASELINE).is_file():
        baseline_path = Path(DEFAULT_BASELINE)
    baseline = frozenset()
    if baseline_path is not None:
        try:
            baseline = load_baseline(baseline_path)
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as error:
            print(f"cannot read baseline {baseline_path}: {error}", file=sys.stderr)
            return 2

    try:
        context = build_context([Path(path) for path in args.paths])
    except (OSError, SyntaxError) as error:
        print(f"cannot lint: {error}", file=sys.stderr)
        return 2
    try:
        report = run_rules(context, rules=args.rules, baseline=baseline)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2

    if args.write_baseline is not None:
        write_baseline(Path(args.write_baseline), report.findings)
        print(
            f"wrote {args.write_baseline} accepting {len(report.findings)} finding(s)"
        )
        return 0

    if args.json:
        document: Dict[str, Any] = {
            "command": "lint",
            "paths": list(args.paths),
            "rules": report.rules,
            "findings": [finding.to_dict() for finding in report.findings],
            "counts": {
                "files": len(context.modules),
                "findings": len(report.findings),
                "gating": len(report.gating),
                "suppressed": report.suppressed,
                "baselined": report.baselined,
            },
        }
        print(json.dumps(document, indent=2, sort_keys=True))
        return 1 if report.gating else 0

    for finding in report.findings:
        print(finding.render())
    summary: List[str] = [
        f"{len(context.modules)} files",
        f"{len(report.findings)} finding(s)",
    ]
    if report.suppressed:
        summary.append(f"{report.suppressed} suppressed")
    if report.baselined:
        summary.append(f"{report.baselined} baselined")
    print(("" if not report.findings else "\n") + "lint: " + ", ".join(summary))
    return 1 if report.gating else 0
