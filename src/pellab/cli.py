"""Command-line front end.

Every subcommand prints either a human summary or, with --json, one line of
canonical JSON: {"schema": "pellab/1", "status", "payload", "diagnostics"},
with sorted keys so identical inputs give byte-identical output.  Exit codes:
0 Ok, 1 Rejected (valid input, negative answer), 2 Error (bad input).

Polynomials on the command line use the human syntax ("t^4 - 2*t^2 + 1");
solution files are JSON objects {A, B, D} with coefficient-string arrays
("num/den", constant term first).  Tuple files are JSON objects with fields
n, d, sigma0, sigmaInf, sigma1, taus in cycle notation.  Commands that read
files also accept the full JSON output of a previous command (the payload is
unwrapped), so runs can be piped.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import census as census_mod
from . import exactpoly, hurwitz, pellcore
from .exactpoly import Poly, PolyParseError

SCHEMA = "pellab/1"

OK = "Ok"
REJECTED = "Rejected"
ERROR = "Error"

EXIT_CODES = {OK: 0, REJECTED: 1, ERROR: 2}


@dataclass
class CommandResult:
    status: str
    payload: object
    diagnostics: list[str]


class _ParserError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _ParserError(message)


def _solution_payload(sol: pellcore.PellSolution) -> dict:
    return {
        "A": exactpoly.to_coeff_strings(sol.A),
        "B": exactpoly.to_coeff_strings(sol.B),
        "D": exactpoly.to_coeff_strings(sol.D),
        "n": sol.n,
        "d": sol.d,
        "text": {
            "A": exactpoly.format_poly(sol.A),
            "B": exactpoly.format_poly(sol.B),
            "D": exactpoly.format_poly(sol.D),
        },
    }


def _rejection(reason: pellcore.RejectionReason) -> CommandResult:
    payload = {"reason": {"kind": reason.kind, "message": reason.message}}
    return CommandResult(REJECTED, payload, [f"{reason.kind}: {reason.message}"])


def _unwrap(data: dict) -> dict:
    if isinstance(data, dict) and "payload" in data and isinstance(data["payload"], dict):
        return data["payload"]
    return data


def _load_json_file(path: str) -> dict:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _ParserError(f"bad JSON in {path}: {exc}") from None
    if not isinstance(data, dict):
        raise _ParserError(f"expected a JSON object in {path}")
    return _unwrap(data)


def _read_solution(args) -> tuple[Poly, Poly, Poly]:
    if args.file is not None:
        data = _load_json_file(args.file)
        try:
            return tuple(
                exactpoly.from_coeff_strings(data[name]) for name in ("A", "B", "D")
            )
        except KeyError as exc:
            raise _ParserError(f"solution file missing field {exc}") from None
    if args.A is None or args.B is None or args.D is None:
        raise _ParserError("need --file or all of --A, --B, --D")
    return (
        exactpoly.parse_poly(args.A),
        exactpoly.parse_poly(args.B),
        exactpoly.parse_poly(args.D),
    )


def _read_tuple(args) -> hurwitz.HurwitzTuple:
    data = _load_json_file(args.file if args.file is not None else "-")
    try:
        return hurwitz.tuple_from_json_dict(data)
    except ValueError as exc:
        raise _ParserError(str(exc)) from None


def _report_payload(report: hurwitz.ValidationReport) -> dict:
    return {
        "ok": report.ok,
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail}
            for c in report.checks
        ],
        "branching": {
            "overZero": report.over_zero,
            "overOne": report.over_one,
            "overInfinity": report.over_infinity,
            "overTaus": report.over_taus,
        },
    }


def _cmd_verify(args) -> CommandResult:
    A, B, D = _read_solution(args)
    outcome = pellcore.verify_pell(A, B, D, allow_d1=args.allow_d1)
    if isinstance(outcome, pellcore.RejectionReason):
        return _rejection(outcome)
    return CommandResult(OK, _solution_payload(outcome), [])


def _cmd_seed(args) -> CommandResult:
    A = exactpoly.parse_poly(args.A)
    outcome = pellcore.generate_from_seed(A, allow_d1=args.allow_d1)
    if isinstance(outcome, pellcore.RejectionReason):
        return _rejection(outcome)
    return CommandResult(OK, _solution_payload(outcome), [])


def _cmd_power(args) -> CommandResult:
    A, B, D = _read_solution(args)
    base = pellcore.verify_pell(A, B, D, allow_d1=args.allow_d1)
    if isinstance(base, pellcore.RejectionReason):
        return _rejection(base)
    if args.m < 1:
        raise _ParserError("--m must be >= 1")
    powered = pellcore.power_solution(base, args.m)
    return CommandResult(OK, _solution_payload(powered), [])


def _cmd_decompose(args) -> CommandResult:
    A, B, D = _read_solution(args)
    base = pellcore.verify_pell(A, B, D, allow_d1=args.allow_d1)
    if isinstance(base, pellcore.RejectionReason):
        return _rejection(base)
    cls = pellcore.classify_powers(base)
    payload = {
        "n": cls.n,
        "admissible": sorted(cls.admissible_m),
        "witnesses": {
            str(m): exactpoly.format_poly(w) for m, w in sorted(cls.witnesses.items())
        },
        "primitive": cls.primitive,
    }
    diagnostics = []
    if cls.primitive:
        diagnostics.append(
            "primitive here means rational-primitive: no rational Chebyshev root found"
        )
    return CommandResult(OK, payload, diagnostics)


def _cmd_ramify(args) -> CommandResult:
    f = exactpoly.parse_poly(args.f)
    if (args.at is None) == (args.locus_in is None):
        raise _ParserError("need exactly one of --at or --locus-in")
    if args.at is not None:
        try:
            c = Fraction(args.at)
        except (ValueError, ZeroDivisionError) as exc:
            raise _ParserError(f"bad rational {args.at!r}: {exc}") from None
        branch_type = pellcore.ramification_type(f, c)
        payload = {
            "at": f"{c.numerator}/{c.denominator}",
            "type": [[index, count] for index, count in branch_type],
        }
        return CommandResult(OK, payload, [])
    try:
        values = [Fraction(part.strip()) for part in args.locus_in.split(",") if part.strip()]
    except (ValueError, ZeroDivisionError) as exc:
        raise _ParserError(f"bad rational list {args.locus_in!r}: {exc}") from None
    contained = pellcore.verify_branch_locus_in(f, values)
    payload = {
        "contained": contained,
        "values": [f"{v.numerator}/{v.denominator}" for v in values],
    }
    status = OK if contained else REJECTED
    diagnostics = [] if contained else ["some critical value falls outside the given set"]
    return CommandResult(status, payload, diagnostics)


def _cmd_zannier(args) -> CommandResult:
    t = hurwitz.zannier_tuple(args.n, args.d)
    report = hurwitz.validate(t)
    diagnostics = [
        f"validation {'passed' if report.ok else 'FAILED'}; branching "
        f"{report.over_zero}/{report.over_one}/{report.over_infinity}/{report.over_taus} "
        "over 0/1/inf/taus"
    ]
    return CommandResult(OK if report.ok else REJECTED, hurwitz.tuple_to_json_dict(t), diagnostics)


def _validation_result(report: hurwitz.ValidationReport) -> CommandResult:
    status = OK if report.ok else REJECTED
    diagnostics = [f"failed: {name}" for name in report.failed()]
    return CommandResult(status, _report_payload(report), diagnostics)


def _cmd_validate(args) -> CommandResult:
    return _validation_result(hurwitz.validate(_read_tuple(args)))


def _cmd_profile(args) -> CommandResult:
    t = _read_tuple(args)
    report = hurwitz.validate(t)
    if not report.ok:
        return _validation_result(report)
    diagnostics = []
    normalized = hurwitz.normalize_special(t)
    if normalized != t:
        diagnostics.append("input tuple was conjugated into special form first")
    profile = hurwitz.primitivity_profile(normalized)
    admissible = hurwitz.admissible_exponents(normalized.n, normalized.d)
    payload = {
        "n": normalized.n,
        "d": normalized.d,
        "admissible": admissible,
        "profile": sorted(profile),
        "primitive": not profile,
    }
    return CommandResult(OK, payload, diagnostics)


def _brute_bound() -> int:
    raw = os.environ.get("PELLAB_BRUTE_MAX")
    if raw is None:
        return census_mod.BRUTE_DEFAULT_MAX
    try:
        return int(raw)
    except ValueError:
        raise _ParserError(f"PELLAB_BRUTE_MAX must be an integer, got {raw!r}") from None


def _cmd_census(args) -> CommandResult:
    report = census_mod.census(args.n, use_brute=args.use_brute, brute_max=_brute_bound())
    diagnostics = [f"discrepancy: {d}" for d in report.discrepancies]
    return CommandResult(OK, census_mod.report_to_json_dict(report), diagnostics)


def _add_solution_source(sub):
    sub.add_argument("--A", help="polynomial, human syntax")
    sub.add_argument("--B", help="polynomial, human syntax")
    sub.add_argument("--D", help="polynomial, human syntax")
    sub.add_argument("--file", help="solution JSON file ('-' for stdin)")
    sub.add_argument("--allow-d1", dest="allow_d1", action="store_true")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later runs."""
    parser = _Parser(prog="pellab", description=__doc__)
    common = _Parser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine output")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("verify", parents=[common], help="check A^2 - D*B^2 = 1")
    _add_solution_source(p)
    p.set_defaults(handler=_cmd_verify)

    p = subs.add_parser("seed", parents=[common], help="build a solution from A alone")
    p.add_argument("--A", required=True)
    p.add_argument("--allow-d1", dest="allow_d1", action="store_true")
    p.set_defaults(handler=_cmd_seed)

    p = subs.add_parser("power", parents=[common], help="m-th power of a solution")
    p.add_argument("--m", type=int, required=True)
    _add_solution_source(p)
    p.set_defaults(handler=_cmd_power)

    p = subs.add_parser("decompose", parents=[common], help="find Chebyshev roots of A")
    _add_solution_source(p)
    p.set_defaults(handler=_cmd_decompose)

    p = subs.add_parser("ramify", parents=[common], help="ramification of a polynomial")
    p.add_argument("--f", required=True)
    p.add_argument("--at", help="rational branch value")
    p.add_argument("--locus-in", dest="locus_in", help="comma-separated rationals")
    p.set_defaults(handler=_cmd_ramify)

    p = subs.add_parser("zannier", parents=[common], help="staircase tuple for (n, d)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(handler=_cmd_zannier)

    p = subs.add_parser("validate", parents=[common], help="validate a tuple file")
    p.add_argument("--file", help="tuple JSON file ('-' for stdin)")
    p.set_defaults(handler=_cmd_validate)

    p = subs.add_parser("profile", parents=[common], help="power profile of a tuple")
    p.add_argument("--file", help="tuple JSON file ('-' for stdin)")
    p.set_defaults(handler=_cmd_profile)

    p = subs.add_parser("census", parents=[common], help="d = 2 census for n")
    p.add_argument("--n", type=int, required=True)
    route = p.add_mutually_exclusive_group()
    route.add_argument("--brute-force", dest="use_brute", action="store_const", const=True)
    route.add_argument("--no-brute-force", dest="use_brute", action="store_const", const=False)
    p.set_defaults(handler=_cmd_census)

    return parser


def run(argv) -> CommandResult:
    """Dispatch one command line; never raises for bad input."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except _ParserError as exc:
        return CommandResult(ERROR, None, [str(exc)])
    except (PolyParseError, exactpoly.DegreeTooSmall, exactpoly.ZeroInput) as exc:
        return CommandResult(ERROR, None, [f"polynomial error: {exc}"])
    except census_mod.TooLarge as exc:
        return CommandResult(ERROR, None, [f"census error: {exc}"])
    except (hurwitz.DegreeOrder, hurwitz.NotSpecialForm) as exc:
        return CommandResult(ERROR, None, [f"tuple error: {exc}"])
    except OSError as exc:
        return CommandResult(ERROR, None, [f"file error: {exc}"])
    except ValueError as exc:
        return CommandResult(ERROR, None, [str(exc)])


def render(result: CommandResult, as_json: bool) -> str:
    body = {
        "schema": SCHEMA,
        "status": result.status,
        "payload": result.payload,
        "diagnostics": result.diagnostics,
    }
    if as_json:
        return json.dumps(body, sort_keys=True, separators=(",", ":"))
    lines = [f"status: {result.status}"]
    if result.payload is not None:
        lines.append(json.dumps(result.payload, sort_keys=True, indent=2))
    lines.extend(f"note: {d}" for d in result.diagnostics)
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    result = run(argv)
    print(render(result, as_json="--json" in argv))
    return EXIT_CODES[result.status]


if __name__ == "__main__":
    sys.exit(main())
