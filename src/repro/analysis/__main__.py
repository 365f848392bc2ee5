"""CLI for the kernel-safety analysis: ``python -m repro.analysis``.

Two modes:

* ``python -m repro.analysis [paths]`` — the repo lint rules
  (R001–R005, R010, R011) over the given paths (default:
  ``src tests benchmarks examples``)
  plus the limb-bound certifier over every registered modulus; exits
  non-zero if any rule fires or any certificate has a violated bound.
* ``python -m repro.analysis taint [paths]`` — the interprocedural
  witness-taint engine (rules R006–R009) over the given paths
  (default: ``src``); exits non-zero on any unsuppressed finding.

Shared flags: ``--rules R001,R007`` restricts which rule codes are
reported, ``--list-rules`` prints the catalog, and
``--baseline report.json`` only fails on findings absent from a
previously saved ``--json`` report (so a strict gate can land while
deliberately-deferred findings stay visible).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Set, Tuple

from repro.analysis.bounds import certify_all
from repro.analysis.lint import _RULES, run_lint
from repro.analysis.report import AnalysisReport, LintFinding
from repro.analysis.taint import TAINT_RULES, run_taint

_DEFAULT_PATHS = ("src", "tests", "benchmarks", "examples")
_DEFAULT_TAINT_PATHS = ("src",)

_BaselineKey = Tuple[str, str, str]


def _list_rules() -> str:
    lines = ["lint rules (python -m repro.analysis):"]
    for code in sorted(_RULES):
        lines.append(f"  {code}  {getattr(_RULES[code], 'title', '')}")
    lines.append("taint rules (python -m repro.analysis taint):")
    for rule in TAINT_RULES:
        lines.append(f"  {rule.code}  {rule.title}")
    return "\n".join(lines)


def _parse_rules(raw: Optional[str]) -> Optional[List[str]]:
    if raw is None:
        return None
    return [c.strip().upper() for c in raw.split(",") if c.strip()]


def _baseline_keys(path: str) -> Set[_BaselineKey]:
    """Finding identities from a saved ``--json`` report (or a bare
    list of finding dicts).  Line numbers are deliberately excluded so
    unrelated edits don't resurrect a baselined finding."""
    data = json.loads(Path(path).read_text())
    if isinstance(data, dict):
        data = data.get("findings", [])
    return {(f["code"], f["path"], f["message"]) for f in data}


def _split_baseline(findings: Sequence[LintFinding],
                    keys: Set[_BaselineKey]
                    ) -> Tuple[List[LintFinding], List[LintFinding]]:
    new: List[LintFinding] = []
    known: List[LintFinding] = []
    for f in findings:
        (known if (f.code, f.path, f.message) in keys else new).append(f)
    return new, known


def _add_shared_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--rules", metavar="CODES",
        help="comma-separated rule codes to report (e.g. R001,R007)")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit")
    parser.add_argument(
        "--baseline", metavar="JSON",
        help="only fail on findings not present in this saved report")
    parser.add_argument(
        "--json", metavar="FILE",
        help="also write the full report as JSON (use '-' for stdout)")


def taint_main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis taint",
        description="interprocedural witness-taint analysis "
                    "(rules R006-R009)",
    )
    parser.add_argument(
        "paths", nargs="*",
        help="files/directories to analyze (default: src)")
    _add_shared_flags(parser)
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0

    paths = args.paths or [p for p in _DEFAULT_TAINT_PATHS
                           if Path(p).exists()]
    findings = run_taint(paths, rules=_parse_rules(args.rules))
    known: List[LintFinding] = []
    if args.baseline:
        findings, known = _split_baseline(findings,
                                          _baseline_keys(args.baseline))

    report = AnalysisReport(meta={"paths": list(paths), "mode": "taint"})
    report.findings = list(findings)
    if args.json == "-":
        print(report.to_json())
    else:
        print(report.render())
        if known:
            print(f"({len(known)} baselined finding(s) suppressed)")
        if args.json:
            Path(args.json).write_text(report.to_json() + "\n")
    return 0 if not findings else 1


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "taint":
        return taint_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="limb-bound certifier + repo lint rules "
                    "(add the 'taint' subcommand for witness-taint "
                    "analysis)",
    )
    parser.add_argument(
        "paths", nargs="*",
        help="files/directories to lint "
        "(default: src tests benchmarks examples)")
    _add_shared_flags(parser)
    parser.add_argument(
        "--no-lint", action="store_true",
        help="skip the AST lint rules (certifier only)")
    parser.add_argument(
        "--no-bounds", action="store_true",
        help="skip the limb-bound certifier (lint only)")
    parser.add_argument(
        "-v", "--verbose", action="store_true",
        help="show every bound check, not just violations")
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0

    paths = args.paths or [p for p in _DEFAULT_PATHS if Path(p).exists()]

    report = AnalysisReport(meta={"paths": list(paths)})
    if not args.no_lint:
        findings = run_lint(paths)
        wanted = _parse_rules(args.rules)
        if wanted is not None:
            findings = [f for f in findings if f.code in wanted]
        report.findings = findings
    if not args.no_bounds:
        report.certificates = certify_all()

    known: List[LintFinding] = []
    if args.baseline:
        report.findings, known = _split_baseline(
            report.findings, _baseline_keys(args.baseline))

    if args.json == "-":
        print(report.to_json())
    else:
        print(report.render(verbose=args.verbose))
        if known:
            print(f"({len(known)} baselined finding(s) suppressed)")
        if args.json:
            Path(args.json).write_text(report.to_json() + "\n")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
