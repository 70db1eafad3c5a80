"""Command line interface: ``python -m repro.analysis [paths] [options]``.

Exit status: 0 when clean (no non-baselined findings, all verified
contracts match), 1 on findings or verify mismatches, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.baseline import (
    load_baseline,
    update_baseline,
    write_baseline,
)
from repro.analysis.config import AnalysisConfig
from repro.analysis.core import all_rules, analyze_paths
from repro.analysis.report import (
    render_json,
    render_text,
    render_verify_text,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=("Communication-contract linter and static analysis "
                     "for solver hot loops (rules RPR0xx; see "
                     "docs/analysis.md)"))
    parser.add_argument("paths", nargs="*",
                        help="files/directories to analyze "
                             "(default: [tool.repro-analysis] paths)")
    parser.add_argument("--root", default=".",
                        help="project root holding pyproject.toml / the "
                             "baseline file (default: cwd)")
    parser.add_argument("--format", choices=["text", "json"], default="text",
                        dest="fmt", help="report format")
    parser.add_argument("--baseline", default="",
                        help="baseline file (default from config)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore the baseline file")
    parser.add_argument("--write-baseline", action="store_true",
                        help="write current findings to the baseline file "
                             "and exit 0")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline deterministically from "
                             "current findings, print the added/removed/"
                             "kept delta and exit 0")
    parser.add_argument("--select", default="",
                        help="comma-separated rule codes to run exclusively")
    parser.add_argument("--disable", default="",
                        help="comma-separated rule codes to skip")
    parser.add_argument("--verify", action="store_true",
                        help="also run solvers under InstrumentedComm and "
                             "cross-check measured per-iteration counts "
                             "against each COMM_CONTRACT")
    parser.add_argument("--verify-only", action="store_true",
                        help="skip the static pass, only --verify")
    parser.add_argument("--verify-size", type=int, default=32,
                        help="mesh edge for the verify solves (default 32)")
    parser.add_argument("--verify-solver", action="append", default=[],
                        help="restrict --verify to this solver name "
                             "(repeatable)")
    parser.add_argument("--verify-resilience", action="store_true",
                        help="route the verify solves through the resilient "
                             "comm stack (retry + disabled fault injector); "
                             "implies --verify")
    parser.add_argument("--verify-integrity", action="store_true",
                        help="route the verify solves through the "
                             "checksummed-envelope stack with a durably "
                             "checkpointing guard; implies --verify")
    parser.add_argument("--verify-sanitize", action="store_true",
                        help="stack the runtime SPMD sanitizer outermost "
                             "over the full resilience + integrity stack "
                             "for the verify solves (re-proves every "
                             "COMM_CONTRACT with the sanitizer engaged); "
                             "implies --verify, --verify-resilience and "
                             "--verify-integrity")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            scope = " [solver modules]" if rule.solver_only else ""
            print(f"{rule.code} {rule.name}{scope}: {rule.description}")
        return 0

    root = Path(args.root)
    config = AnalysisConfig.from_pyproject(root)
    known_codes = {rule.code for rule in all_rules()}
    # RPR002/003/008 are emitted by the comm-contract rule (RPR001);
    # selecting or disabling them means that rule.
    aliases = {"RPR002": "RPR001", "RPR003": "RPR001", "RPR008": "RPR001"}
    for flag, raw in (("--select", args.select), ("--disable", args.disable)):
        if not raw:
            continue
        wanted = tuple(dict.fromkeys(
            aliases.get(c.strip(), c.strip())
            for c in raw.split(",") if c.strip()))
        unknown = sorted(set(wanted) - known_codes)
        if unknown:
            print(f"error: {flag} got unknown rule code(s) "
                  f"{', '.join(unknown)}; known: "
                  f"{', '.join(sorted(known_codes))}", file=sys.stderr)
            return 2
        if flag == "--select":
            config.select = wanted
        else:
            config.disable = wanted

    paths = args.paths or [str(root / p) for p in config.paths]
    missing = [p for p in paths if not Path(p).exists()]
    if missing:
        print(f"error: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2
    baseline_path = Path(args.baseline) if args.baseline \
        else root / config.baseline

    verify_reports = None
    if args.verify or args.verify_only or args.verify_resilience \
            or args.verify_integrity or args.verify_sanitize:
        from repro.analysis.verify import verify_contracts
        try:
            verify_reports = verify_contracts(
                n=args.verify_size, names=args.verify_solver or None,
                resilience=args.verify_resilience,
                integrity=args.verify_integrity,
                sanitize=args.verify_sanitize)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    if args.verify_only:
        if args.fmt == "json":
            from repro.analysis.core import AnalysisResult
            print(render_json(AnalysisResult(), verify_reports))
        else:
            print(render_verify_text(verify_reports))
        return 0 if all(r.ok for r in verify_reports) else 1

    baseline = None
    if not args.no_baseline and not args.write_baseline \
            and not args.update_baseline:
        try:
            baseline = load_baseline(baseline_path)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    result = analyze_paths(paths, config, baseline=baseline)

    if args.update_baseline:
        added, removed, kept = update_baseline(
            baseline_path, result.findings)
        print(f"baseline {baseline_path}: +{added} added, "
              f"-{removed} removed, {kept} kept")
        return 0

    if args.write_baseline:
        n = write_baseline(baseline_path, result.findings)
        print(f"wrote {n} fingerprint(s) to {baseline_path}")
        return 0

    if args.fmt == "json":
        print(render_json(result, verify_reports))
    else:
        print(render_text(result))
        if verify_reports is not None:
            print(render_verify_text(verify_reports))

    ok = result.ok and (verify_reports is None
                        or all(r.ok for r in verify_reports))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
