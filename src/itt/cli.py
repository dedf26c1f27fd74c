"""Command-line front door.

    itt check <file>                 elaborate; print `term : type` per #check
    itt reduce <file> [options]      elaborate; run each #reduce pragma
    itt corpus [--case NAME] [...]   run the embedded example suite

Exit codes: 0 success / all NormalForm / expectations met; 1 parse or type
error; 2 usage error; 3 fuel exhaustion; 4 a detected cycle (dominates 3):
a CycleDetected trace, or a conversion whose unfolding repeats while
checking, e.g. `conversion cycle: declaration 8 (bad): unfolding repeats with
period 2`; 5 input nested too deeply for the recursive parser, checker or
reducer; 70 internal invariant violation.  ITT_MAX_STEPS overrides the
default step budget; an explicit --max-steps wins over the environment.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import corpus as corpus_mod
from .convert import ConversionCycle
from .parser import ParseError, parse_program
from .reduce import (
    CYCLE_DETECTED, FUEL_EXHAUSTED, trace_to_json_lines, trace_to_text,
)
from .rules import DEFAULT_FUEL, DEFAULT_RULES, FuelExhausted
from .syntax import ScopeError, pretty
from .typecheck import TypeCheckError, elaborate

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_FUEL = 3
EXIT_CYCLE = 4
EXIT_DEPTH = 5
EXIT_INTERNAL = 70


# flag -> (RuleSet field, value, help).  An absent flag reads None and leaves
# its field to the default rules, or to a corpus case's own rules.
_RULE_FLAGS = {
    "--no-cast-rule": ("cast_rule", False, "disable the cast reduction rule"),
    "--no-eqrec-rule": ("eqrec_rule", False, "disable the Eq_rec reduction rule"),
    "--enable-j": ("j_rule", True, "enable the J operator and its rule"),
    "--no-proof-irrelevance": ("proof_irrelevance", False,
                               "disable proof irrelevance in conversion"),
}


def _add_rule_flags(p: argparse.ArgumentParser) -> None:
    for flag, (field, value, help_) in _RULE_FLAGS.items():
        p.add_argument(flag, action="store_const", dest=field, const=value,
                       help=help_)
    p.add_argument("--max-steps", type=int, metavar="N",
                   help="step budget (default 100000; env ITT_MAX_STEPS)")


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
    if args.max_steps is not None:
        if args.max_steps <= 0:
            raise _Usage("--max-steps must be positive")
        return args.max_steps
    env = os.environ.get("ITT_MAX_STEPS")
    if env is not None:
        try:
            fuel = int(env)
        except ValueError:
            raise _Usage(f"ITT_MAX_STEPS must be an integer, got {env!r}")
        if fuel <= 0:
            raise _Usage("ITT_MAX_STEPS must be positive")
        return fuel
    return DEFAULT_FUEL


def _rule_fields(args: argparse.Namespace) -> dict[str, object]:
    """``fuel``, and the ``RuleSet`` field of each rule flag given."""
    fields: dict[str, object] = {
        field: value for field, _, _ in _RULE_FLAGS.values()
        if (value := getattr(args, field)) is not None}
    return fields | {"fuel": _resolve_fuel(args)}


class _Usage(Exception):
    pass


def _read_source(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _Usage(f"cannot read {path}: {exc}")


def _cmd_check(args: argparse.Namespace) -> int:
    rules = DEFAULT_RULES.updated(**_rule_fields(args))
    program = parse_program(_read_source(args.path))
    _, results = elaborate(program, rules, run_reduce=False)
    for res in results:
        if res.kind == "check":
            print(f"{pretty(res.term)} : {pretty(res.type_)}")
    return EXIT_OK


def _cmd_reduce(args: argparse.Namespace) -> int:
    rules = DEFAULT_RULES.updated(**_rule_fields(args))
    program = parse_program(_read_source(args.path))
    _, results = elaborate(program, rules, reduce_strategy=args.strategy)
    statuses = []
    for res in results:
        if res.kind != "reduce":
            continue
        trace = res.trace
        statuses.append(trace.status)
        if args.trace == "text":
            print(trace_to_text(trace))
        elif args.trace == "json":
            print("\n".join(trace_to_json_lines(trace)))
        else:
            print(trace.status_line())
    if CYCLE_DETECTED in statuses:
        return EXIT_CYCLE
    if FUEL_EXHAUSTED in statuses:
        return EXIT_FUEL
    return EXIT_OK


def _cmd_corpus(args: argparse.Namespace) -> int:
    names = (args.case,) if args.case else None
    reports = corpus_mod.run_all(_rule_fields(args), names)
    for report in reports:
        print(f"{'PASS' if report.passed else 'FAIL'} {report.name} [{report.ruleset}]")
        for desc, entry_ok in report.entries:
            mark = "ok" if entry_ok else ("skip" if entry_ok is None else "FAIL")
            print(f"  {mark:4} {desc}")
    stops = [r.stopped_by for r in reports]
    if any(isinstance(e, ConversionCycle) for e in stops):
        return EXIT_CYCLE
    if any(isinstance(e, FuelExhausted) for e in stops):
        return EXIT_FUEL
    return EXIT_OK if all(r.passed for r in reports) else EXIT_ERROR


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
    except _Usage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except TypeCheckError as exc:
        print(f"type error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except ConversionCycle as exc:
        print(f"conversion cycle: {exc}", file=sys.stderr)
        return EXIT_CYCLE
    except FuelExhausted as exc:
        print(f"fuel exhausted: {exc}", file=sys.stderr)
        return EXIT_FUEL
    except RecursionError as exc:
        print(f"input nested too deeply: {exc}", file=sys.stderr)
        return EXIT_DEPTH
    except (ScopeError, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
