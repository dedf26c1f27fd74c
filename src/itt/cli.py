"""Command-line front door.

    itt check <file>                 elaborate; print `term : type` per #check
    itt reduce <file> [options]      elaborate; run each #reduce pragma
    itt corpus [--case NAME] [...]   run the embedded example suite

``_OUTCOMES`` gives each outcome's exit code and stderr prefix, and each
command exits with the largest code among its outcomes; the README's
exit-code table documents them.  ITT_MAX_STEPS overrides the default step
budget; an explicit --max-steps wins over the environment.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from contextlib import contextmanager
from typing import Iterator

from . import corpus as corpus_mod
from .parser import ParseError, Program, parse_program
from .reduce import (
    CYCLE_DETECTED, FUEL_EXHAUSTED, NORMAL_FORM, trace_to_json_lines,
    trace_to_text,
)
from .rules import (
    DEFAULT_FUEL, DEFAULT_RULES, RULES, ConversionCycle, FuelExhausted,
)
from .syntax import ScopeError, pretty
from .typecheck import PragmaResult, TypeCheckError, elaborate, name_declaration


class _Usage(Exception):
    pass


# outcome class -> (stderr prefix, exit code).  The first class that an
# error is an instance of gives its outcome, so a ConversionCycle, which is
# a FuelExhausted, reads as a cycle.
_OUTCOMES: dict[type[Exception], tuple[str, int]] = {
    _Usage: ("error", 2),
    ParseError: ("parse error", 1),
    TypeCheckError: ("type error", 1),
    ConversionCycle: ("conversion cycle", 4),
    FuelExhausted: ("fuel exhausted", 3),
    RecursionError: ("input nested too deeply", 5),
    ScopeError: ("internal error", 70),
    AssertionError: ("internal error", 70),
}
# trace status -> exit code
_STATUS_CODES = {NORMAL_FORM: 0, FUEL_EXHAUSTED: _OUTCOMES[FuelExhausted][1],
                 CYCLE_DETECTED: _OUTCOMES[ConversionCycle][1]}


def _outcome(exc: Exception) -> tuple[str, int]:
    return next(out for cls, out in _OUTCOMES.items() if isinstance(exc, cls))


def _add_rule_flags(p: argparse.ArgumentParser) -> None:
    # A flag sets its field off the default; an absent flag reads None and
    # leaves the field to the default rules, or to a corpus case's own rules.
    for f in RULES:
        flag, _, help_ = f.metadata["rule"]
        p.add_argument(flag, action="store_const", dest=f.name,
                       const=not f.default, help=help_)
    p.add_argument("--max-steps", type=int, metavar="N",
                   help=f"step budget (default {DEFAULT_FUEL}; env ITT_MAX_STEPS)")


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="itt", description=__doc__.split("\n")[0])
    sub = top.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="type-check a file")
    check.add_argument("path", help="input file, or - for standard input")
    _add_rule_flags(check)

    reduce_p = sub.add_parser("reduce", help="run the #reduce pragmas of a file")
    reduce_p.add_argument("path", help="input file, or - for standard input")
    reduce_p.add_argument("--strategy", choices=("whnf", "nf"), default="nf",
                          help="weak-head or strong normalization (default nf)")
    reduce_p.add_argument("--trace", choices=("text", "json", "off"),
                          default="off", help="emit the step trace")
    _add_rule_flags(reduce_p)

    corpus_p = sub.add_parser("corpus", help="run the embedded example suite")
    corpus_p.add_argument("--case", choices=corpus_mod.CASE_NAMES,
                          help="run a single case")
    _add_rule_flags(corpus_p)
    return top


def _resolve_fuel(args: argparse.Namespace) -> int:
    source, raw = "--max-steps", args.max_steps
    if raw is None:
        source = "ITT_MAX_STEPS"
        raw = os.environ.get(source, DEFAULT_FUEL)
    try:
        fuel = int(raw)
    except ValueError:
        raise _Usage(f"{source} must be an integer, got {raw!r}")
    if fuel <= 0:
        raise _Usage(f"{source} must be positive")
    return fuel


def _rule_fields(args: argparse.Namespace) -> dict[str, object]:
    """``fuel``, and the ``RuleSet`` field of each rule flag given."""
    fields: dict[str, object] = {
        f.name: value for f in RULES if (value := getattr(args, f.name)) is not None}
    return fields | {"fuel": _resolve_fuel(args)}


def _read_source(path: str) -> str:
    try:
        if path == "-":
            # decoded as open() decodes a file, whatever the locale; detached
            # after, so that closing the wrapper leaves stdin open
            stdin = io.TextIOWrapper(sys.stdin.buffer, encoding="utf-8")
            try:
                return stdin.read()
            finally:
                stdin.detach()
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _Usage(f"cannot read {path}: {exc}")


@contextmanager
def _printing(program: Program, res: PragmaResult) -> Iterator[None]:
    """A result too deep to print is an error of the pragma that produced it."""
    try:
        yield
    except RecursionError as exc:
        name_declaration(exc, res.index, program.declarations[res.index])
        raise


def _cmd_check(args: argparse.Namespace) -> int:
    rules = DEFAULT_RULES.updated(**_rule_fields(args))
    program = parse_program(_read_source(args.path))
    _, results = elaborate(program, rules, run_reduce=False)
    for res in results:
        with _printing(program, res):
            print(f"{pretty(res.term)} : {pretty(res.type_)}")
    return 0


def _cmd_reduce(args: argparse.Namespace) -> int:
    rules = DEFAULT_RULES.updated(**_rule_fields(args))
    program = parse_program(_read_source(args.path))
    _, results = elaborate(program, rules, reduce_strategy=args.strategy)
    reduced = [res for res in results if res.kind == "reduce"]
    for res in reduced:
        with _printing(program, res):
            if args.trace == "text":
                print(trace_to_text(res.trace))
            elif args.trace == "json":
                print("\n".join(trace_to_json_lines(res.trace)))
            else:
                print(res.trace.status_line())
    return max((_STATUS_CODES[r.trace.status] for r in reduced), default=0)


def _cmd_corpus(args: argparse.Namespace) -> int:
    names = (args.case,) if args.case else None
    reports = corpus_mod.run_all(_rule_fields(args), names)
    for report in reports:
        print(f"{'PASS' if report.passed else 'FAIL'} {report.name} [{report.ruleset}]")
        for desc, entry_ok in report.entries:
            mark = "ok" if entry_ok else ("skip" if entry_ok is None else "FAIL")
            print(f"  {mark:4} {desc}")
    # a case that fails without an error counts as 1
    return max((int(not r.passed) if r.stopped_by is None
                else _outcome(r.stopped_by)[1] for r in reports), default=0)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; preserve both
        return int(exc.code or 0)
    try:
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "reduce":
            return _cmd_reduce(args)
        return _cmd_corpus(args)
    except tuple(_OUTCOMES) as exc:
        prefix, code = _outcome(exc)
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
