"""Command-line front end: solve, decide, check, oracle, fuzz."""
from __future__ import annotations

import argparse
import functools
import random
import sys
from typing import Optional

from .decide import decide_le, decide_le_pure
from .engine import (INFEASIBLE, MIXED, PURE, disagreement, reference_oracle, solve_mixed,
                     solve_pure)
from .errors import (BoundednessError, InternalInvariantError, ResourceLimitError,
                     SolverError, ValidationError)
from .instance_io import load_instance, parse_and_validate, render_text, report_to_json
from .randgen import random_instance
from .rational import format_rat, parse_rat

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_VALIDATION = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: building it costs about
    twenty times as much as parsing one command line."""
    parser = argparse.ArgumentParser(
        prog="bilevel-exact",
        description="Exact solver for bilevel programs with an integer follower.")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve an instance file")
    solve.add_argument("file")
    solve.add_argument("--epsilon", metavar="P/Q", default=None,
                       help="attach an eps-optimal point when the infimum is unattained")
    solve.add_argument("--mode", choices=(MIXED, PURE), default=None,
                       help="override the file's variant")
    solve.add_argument("--engine", choices=("search", "oracle", "both"), default="search")
    fmt = solve.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="JSON report")
    fmt.add_argument("--text", action="store_true", help="plain-text report (default)")

    decide = sub.add_parser("decide", help="answer one threshold query")
    decide.add_argument("file")
    decide.add_argument("--alpha", metavar="P/Q", required=True)
    decide.add_argument("--mode", choices=(MIXED, PURE), default=None)

    check = sub.add_parser("check", help="validate an instance file")
    check.add_argument("file")

    oracle = sub.add_parser("oracle", help="run only the reference oracle")
    oracle.add_argument("file")
    ofmt = oracle.add_mutually_exclusive_group()
    ofmt.add_argument("--json", action="store_true")
    ofmt.add_argument("--text", action="store_true")

    fuzz = sub.add_parser("fuzz", help="random instances, search vs oracle")
    fuzz.add_argument("--count", type=int, default=25)
    fuzz.add_argument("--seed", type=int, default=0)
    return parser


def _parse_rat_arg(text: str, flag: str):
    try:
        return parse_rat(text)
    except ValueError as exc:
        raise ValidationError("bad-rational", f"{flag} expects P/Q, got {text!r}") from exc


def _emit_report(report, args) -> None:
    if args.json:
        sys.stdout.write(report_to_json(report))
    else:
        sys.stdout.write(render_text(report))


def _cmd_solve(args) -> int:
    inst, meta = load_instance(args.file)
    mode = args.mode or meta["variant"]
    eps = _parse_rat_arg(args.epsilon, "--epsilon") if args.epsilon is not None else None
    if eps is not None and eps <= 0:
        raise ValidationError("bad-epsilon", f"--epsilon must be positive, got {args.epsilon!r}")
    if args.engine == "oracle":
        report = reference_oracle(inst, mode)
    else:
        report = solve_mixed(inst, eps=eps) if mode == MIXED else solve_pure(inst)
        if args.engine == "both":
            problem = disagreement(inst, report, reference_oracle(inst, mode), variant=mode)
            if problem is not None:
                raise InternalInvariantError(f"search and oracle disagree: {problem}")
            report.oracle_agreement = True
    _emit_report(report, args)
    return EXIT_INFEASIBLE if report.status == INFEASIBLE else EXIT_OK


def _cmd_decide(args) -> int:
    inst, meta = load_instance(args.file)
    mode = args.mode or meta["variant"]
    alpha = _parse_rat_arg(args.alpha, "--alpha")
    if mode == PURE:
        answer = decide_le_pure(inst, alpha)
    else:
        answer = decide_le(inst, alpha)
    sys.stdout.write("true\n" if answer else "false\n")
    return EXIT_OK


def _cmd_check(args) -> int:
    inst = parse_and_validate(args.file)
    sys.stdout.write(f"ok: n={inst.n} d={inst.d} m={inst.m} h={inst.h}\n")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    inst, meta = load_instance(args.file)
    report = reference_oracle(inst, meta["variant"])
    _emit_report(report, args)
    return EXIT_INFEASIBLE if report.status == INFEASIBLE else EXIT_OK


def _cmd_fuzz(args) -> int:
    if args.count < 0:
        raise ValidationError("bad-count", f"--count must be non-negative, got {args.count}")
    rng = random.Random(args.seed)
    for i in range(args.count):
        inst = random_instance(rng)
        searched = solve_mixed(inst)
        problem = disagreement(inst, searched, reference_oracle(inst, MIXED))
        if problem is not None:
            raise InternalInvariantError(f"disagreement on instance {i}: {problem}")
        inf = "-" if searched.infimum is None else format_rat(searched.infimum)
        sys.stdout.write(f"{i}: {searched.status.lower()} {inf}\n")
    sys.stdout.write(f"ok: {args.count} instances, seed {args.seed}\n")
    return EXIT_OK


def cli_main(argv: Optional[list] = None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "solve": _cmd_solve,
        "decide": _cmd_decide,
        "check": _cmd_check,
        "oracle": _cmd_oracle,
        "fuzz": _cmd_fuzz,
    }[args.command]
    try:
        return handler(args)
    except ValidationError as exc:
        sys.stderr.write(f"validation error [{exc.code}]: {exc}\n")
        return EXIT_VALIDATION
    except ResourceLimitError as exc:
        sys.stderr.write(f"resource limit: {exc}\n")
        return EXIT_RESOURCE
    except (InternalInvariantError, BoundednessError) as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return EXIT_INTERNAL
    except SolverError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
