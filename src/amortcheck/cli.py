"""Command-line front end: list cases, verify them, run trace files.

Exit status: 0 when every report passes, 1 when any report fails, 2 on
usage or configuration errors (unknown case, unreadable or malformed trace
file, unwritable `--out` path, a colax override on an unordered cost
model). `verify`, `all` and `trace` share one writer: a failing report's
counterexamples follow it in text format and go to stderr in CSV format.
Reports print in case-name order, whatever order the cases were named in.
"""

import argparse
import sys
from typing import List, Optional, Sequence

from .checker import Report, SquareCheck, TraceMismatch, check_trace, explore, parse_trace
from .coalgebra import Mode, VerificationCase
from .errors import AmortError, TraceParseError
from .registry import REGISTRY, get_case, registered_names

CSV_HEADER = "case,mode,states,squares,verdict,slack_max"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amortcheck",
        description="verify amortized-cost claims of the registered structures",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, explores=True):
        p.add_argument(
            "--mode",
            choices=["exact", "colax"],
            help="override the case's checking mode",
        )
        if explores:
            p.add_argument(
                "--max-depth",
                type=int,
                default=None,
                help="exploration depth (default: the case's documented bound, "
                f"else {VerificationCase.max_depth})",
            )
            p.add_argument(
                "--max-states",
                type=int,
                default=None,
                help="state cap (default: the case's documented bound, "
                f"else {VerificationCase.max_states})",
            )
            p.add_argument(
                "--limit", type=int, default=10, help="max counterexamples to keep"
            )
        p.add_argument("--format", choices=["text", "csv"], default="text")
        p.add_argument("--out", default=None, help="write output here instead of stdout")

    sub.add_parser("list", help="print registered case names and modes")

    verify = sub.add_parser("verify", help="explore cases and check every square")
    verify.add_argument("cases", nargs="+", metavar="case")
    add_common(verify)

    trace = sub.add_parser("trace", help="check the telescoped identity on a trace file")
    trace.add_argument("case")
    trace.add_argument("--file", required=True, help="trace file to run")
    add_common(trace, explores=False)

    allp = sub.add_parser("all", help="verify every registered (non-control) case")
    add_common(allp)

    return parser


def _resolve_cases(names: Sequence[str], mode: Optional[str]) -> List[VerificationCase]:
    cases = []
    for name in names:
        try:
            case = get_case(name)
        except KeyError:
            raise ValueError(
                f"unknown case {name!r}; run `amortcheck list` for the registry"
            )
        if mode is not None:
            case = case.with_mode(Mode(mode))
        cases.append(case)
    return cases


def _slack_str(slack) -> str:
    return "" if slack is None else str(slack)


def _csv_rows(reports: Sequence[Report]) -> str:
    lines = [CSV_HEADER]
    for r in reports:
        lines.append(
            f"{r.case_name},{r.mode.value},{r.states_explored},"
            f"{r.squares_checked},{r.verdict},{_slack_str(r.slack_max)}"
        )
    return "\n".join(lines) + "\n"


def _describe_counterexample(c) -> str:
    if isinstance(c, SquareCheck):
        inputs = " ".join(c.inputs_serialized)
        return (
            f"  {c.verdict.value}: method={c.method} arg={c.arg_literal} "
            f"inputs=[{inputs}] lhs_cost={c.lhs.cost!r} rhs_cost={c.rhs.cost!r}"
        )
    assert isinstance(c, TraceMismatch)
    where = "telescoped total" if c.step < 0 else f"step {c.step}"
    return f"  {c.kind} at {where}: {c.detail}"


def _text_report(report: Report) -> str:
    head = (
        f"{report.case_name:<22} {report.mode.value:<6} "
        f"states={report.states_explored:<6} squares={report.squares_checked:<7} "
        f"{'PASS' if report.passed else 'FAIL':<4} "
        f"slack_max={_slack_str(report.slack_max) or '-':<8} "
        f"slack_min={_slack_str(report.slack_min) or '-':<8} {report.wall_time:.3f}s"
    )
    if report.passed:
        return head
    lines = [head, f"  {report.failures} failing check(s); showing "
                   f"{len(report.counterexamples)}:"]
    lines += [_describe_counterexample(c) for c in report.counterexamples]
    return "\n".join(lines)


def _emit(text: str, out_path: Optional[str]) -> None:
    """Write `text`, ending in one newline, to stdout or to `out_path`."""
    if not text.endswith("\n"):
        text += "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {out_path!r}: {exc}")


def _output_reports(reports: List[Report], args) -> None:
    if args.format == "csv":
        _emit(_csv_rows(reports), args.out)
        for r in reports:
            if not r.passed:
                for c in r.counterexamples:
                    print(f"{r.case_name}:{_describe_counterexample(c)}",
                          file=sys.stderr)
    else:
        _emit("\n".join(_text_report(r) for r in reports), args.out)


def _cmd_list() -> int:
    rows = []
    for name in registered_names():
        entry = REGISTRY[name]
        case = entry.factory()
        tags = [case.phi.mode.value, case.monoid.name]
        if entry.negative:
            tags.append("negative-control")
        rows.append(f"{name:<22} {' '.join(tags)}")
    print("\n".join(rows))
    return 0


def _cmd_verify(args, names: Sequence[str]) -> int:
    cases = _resolve_cases(names, args.mode)
    reports = [
        explore(
            c, max_depth=args.max_depth, max_states=args.max_states, limit=args.limit
        )
        for c in cases
    ]
    reports.sort(key=lambda r: r.case_name)
    _output_reports(reports, args)
    return 1 if any(not r.passed for r in reports) else 0


def _cmd_trace(args) -> int:
    (case,) = _resolve_cases([args.case], args.mode)
    try:
        with open(args.file) as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read trace file {args.file!r}: {exc}")
    try:
        trace = parse_trace(case, text)
    except TraceParseError as exc:
        raise ValueError(f"{args.file}: {exc}")
    report = check_trace(case, trace)
    _output_reports([report], args)
    return 0 if report.passed else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.subcommand == "list":
            return _cmd_list()
        if args.subcommand == "verify":
            return _cmd_verify(args, args.cases)
        if args.subcommand == "all":
            return _cmd_verify(args, registered_names(include_negative=False))
        return _cmd_trace(args)
    except (AmortError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
