"""Command-line front end.

Every subcommand prints either a human summary or, with --json, one line of
canonical JSON: {"schema": "pellab/1", "status", "payload", "diagnostics"},
with sorted keys so identical inputs give byte-identical output.  Exit codes:
0 Ok, 1 Rejected (valid input, negative answer), 2 Error (bad input), 141
when the reader of stdout left before the answer was written, 130 on Ctrl-C.

Polynomials on the command line use the human syntax ("t^4 - 2*t^2 + 1");
solution files are JSON objects {A, B, D} with coefficient-string arrays
("num/den", constant term first).  Every rational read from text, a
coefficient, --at or --locus-in, has the form [sign]digits[/digits], and
the integer options --n, --d and --m the form [sign]digits.  Tuple
files are JSON objects with fields n, d, sigma0, sigmaInf, sigma1, taus in
cycle notation.  Commands that read files also accept the full JSON output
of a previous command (the payload is unwrapped), so runs can be piped.
"""

import functools
import re
import sys
from _json import encode_basestring_ascii, make_encoder
from types import SimpleNamespace

from . import _Record, _significant

SCHEMA = "pellab/1"

OK = "Ok"
REJECTED = "Rejected"
ERROR = "Error"

EXIT_CODES = {OK: 0, REJECTED: 1, ERROR: 2}
# The exit status when the reader of stdout left before the answer was
# written: a shell's status for a process that SIGPIPE ended, 128 + 13.
EXIT_BROKEN_PIPE = 141
# The exit status of a run stopped by Ctrl-C: a shell's status for a
# process that SIGINT ended, 128 + 2.
EXIT_INTERRUPTED = 130


class CommandResult(_Record):
    """A command's answer: status is OK, REJECTED or ERROR; payload is what
    --json prints under "payload"; diagnostics is a list of str."""

    __slots__ = ()

    def __new__(cls, status, payload, diagnostics):
        return tuple.__new__(cls, (status, payload, diagnostics))


class _ParserError(Exception):
    pass


def _solution_payload(sol: "pellcore.PellSolution") -> dict:
    from . import exactpoly

    (A, text_A), (B, text_B), (D, text_D) = map(exactpoly.coeff_strings_and_text, (sol.A, sol.B, sol.D))
    return {"A": A, "B": B, "D": D, "n": sol.n, "d": sol.d, "text": {"A": text_A, "B": text_B, "D": text_D}}


def _rejection(reason: "pellcore.RejectionReason") -> CommandResult:
    payload = {"reason": {"kind": reason.kind, "message": reason.message}}
    return CommandResult(REJECTED, payload, [f"{reason.kind}: {reason.message}"])


def _unwrap(data: dict) -> dict:
    if isinstance(data, dict) and "payload" in data and isinstance(data["payload"], dict):
        return data["payload"]
    return data


@functools.cache
def _json_decoder():
    """The decoder of every JSON file, built on the first read: json.loads
    with parse_int builds a decoder and its scanner on every call.  Its
    integers are read under the digit limit in force at that read."""
    import json

    def read_int(digits: str) -> int:
        # JSON has no leading zeros, so the text's length is the digit count.
        count = len(digits) - digits.startswith("-")
        limit = sys.get_int_max_str_digits()
        if limit and count > limit:
            raise _ParserError(f"integer of {count} digits past the {limit}-digit limit")
        return int(digits)

    return json.JSONDecoder(parse_int=read_int)


def _load_json_file(path: str) -> dict:
    import json

    if path != "-":
        with open(path, "rb") as fh:
            raw = fh.read()
    elif sys.stdin is None:  # started with stdin closed
        raise OSError("stdin is closed")
    else:  # the bytes, so that stdin's encoding cannot change the answer
        raw = sys.stdin.buffer.read()
    text = raw.decode("utf-8")
    if "\r" in text:  # the newlines a text-mode open would translate
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        if text.startswith("\ufeff"):  # json.loads' test, which decode skips
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        data = _json_decoder().decode(text)
    except (json.JSONDecodeError, _ParserError) as exc:
        raise _ParserError(f"bad JSON in {path}: {exc}") from None
    except RecursionError:
        raise _ParserError(f"bad JSON in {path}: nested too deeply") from None
    if not isinstance(data, dict):
        raise _ParserError(f"expected a JSON object in {path}")
    return _unwrap(data)


def _read_solution(args) -> "pellcore.PellSolution | CommandResult":
    """The solution of --file or of --A, --B, --D, verified, or its rejection."""
    from . import exactpoly, pellcore

    if args.file is not None:
        data = _load_json_file(args.file)
        try:
            A, B, D = (exactpoly.from_coeff_strings(data[name]) for name in ("A", "B", "D"))
        except KeyError as exc:
            raise _ParserError(f"solution file missing field {exc}") from None
    elif args.A is None or args.B is None or args.D is None:
        raise _ParserError("need --file or all of --A, --B, --D")
    else:
        A, B, D = map(exactpoly.parse_poly, (args.A, args.B, args.D))
    outcome = pellcore.verify_pell(A, B, D, allow_d1=args.allow_d1)
    return _rejection(outcome) if isinstance(outcome, pellcore.RejectionReason) else outcome


def _read_tuple(args) -> "hurwitz.HurwitzTuple":
    from . import hurwitz

    data = _load_json_file(args.file if args.file is not None else "-")
    return hurwitz.tuple_from_json_dict(data)


def _cmd_verify(args) -> CommandResult:
    sol = _read_solution(args)
    return sol if isinstance(sol, CommandResult) else CommandResult(OK, _solution_payload(sol), [])


def _cmd_seed(args) -> CommandResult:
    from . import exactpoly, pellcore

    A = exactpoly.parse_poly(args.A)
    outcome = pellcore.generate_from_seed(A, allow_d1=args.allow_d1)
    if isinstance(outcome, pellcore.RejectionReason):
        return _rejection(outcome)
    return CommandResult(OK, _solution_payload(outcome), [])


def _cmd_power(args) -> CommandResult:
    from . import exactpoly, pellcore

    if args.m < 1:
        raise _ParserError("--m must be >= 1")
    base = _read_solution(args)
    if isinstance(base, CommandResult):
        return base
    if args.m * base.n > exactpoly.MAX_DEGREE:
        raise _ParserError(
            f"--m {args.m} times deg A = {base.n} is past the degree bound {exactpoly.MAX_DEGREE}"
        )
    powered = pellcore.power_solution(base, args.m)
    return CommandResult(OK, _solution_payload(powered), [])


def _cmd_decompose(args) -> CommandResult:
    from . import exactpoly, pellcore

    base = _read_solution(args)
    if isinstance(base, CommandResult):
        return base
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
    from . import exactpoly, pellcore

    f = exactpoly.parse_poly(args.f)
    if (args.at is None) == (args.locus_in is None):
        raise _ParserError("need exactly one of --at or --locus-in")
    if args.at is not None:
        try:
            c = exactpoly.parse_rational(args.at)
        except exactpoly.PolyParseError as exc:  # the digit limit: the text is too long to echo
            raise _ParserError(f"bad rational --at: {exc}") from None
        except (ValueError, ZeroDivisionError) as exc:
            raise _ParserError(f"bad rational {args.at!r}: {exc}") from None
        branch_type = pellcore.ramification_type(f, c)
        payload = {
            "at": "%d/%d" % c,
            "type": [[index, count] for index, count in branch_type],
        }
        return CommandResult(OK, payload, [])
    values = []
    for i, part in enumerate(args.locus_in.split(",")):
        try:
            if part.strip():
                values.append(exactpoly.parse_rational(part))
        except exactpoly.PolyParseError as exc:
            raise _ParserError(f"bad rational --locus-in item {i}: {exc}") from None
        except (ValueError, ZeroDivisionError) as exc:
            raise _ParserError(f"bad rational list {args.locus_in!r}: {exc}") from None
    contained = pellcore.verify_branch_locus_in(f, values)
    payload = {
        "contained": contained,
        "values": ["%d/%d" % v for v in values],
    }
    status = OK if contained else REJECTED
    diagnostics = [] if contained else ["some critical value falls outside the given set"]
    return CommandResult(status, payload, diagnostics)


def _cmd_zannier(args) -> CommandResult:
    from . import hurwitz

    t = hurwitz.zannier_tuple(args.n, args.d)
    entries, branching = hurwitz.checks(t)
    ok = all(passed for _, passed, _ in entries)
    diagnostics = [
        f"validation {'passed' if ok else 'FAILED'}; branching {'/'.join(map(str, branching))} over 0/1/inf/taus"
    ]
    return CommandResult(OK if ok else REJECTED, hurwitz.tuple_to_json_dict(t), diagnostics)


def _validation_result(report: dict) -> CommandResult:
    status = OK if report["ok"] else REJECTED
    diagnostics = [f"failed: {c['name']}" for c in report["checks"] if not c["passed"]]
    return CommandResult(status, report, diagnostics)


def _cmd_validate(args) -> CommandResult:
    from . import hurwitz

    return _validation_result(hurwitz.validate(_read_tuple(args)))


def _cmd_profile(args) -> CommandResult:
    from . import hurwitz

    t = _read_tuple(args)
    # The verdicts alone: the detail strings are worded only for a tuple
    # that fails, whose answer is validate's.
    entries, branching = hurwitz.checks(t)
    if not all(passed for _, passed, _ in entries):
        return _validation_result(hurwitz.report(entries, branching))
    admissible = hurwitz.admissible_exponents(t.n, t.d)
    profile = hurwitz.primitivity_profile(t, admissible)
    payload = {
        "n": t.n,
        "d": t.d,
        "admissible": admissible,
        "profile": sorted(profile),
        "primitive": not profile,
    }
    notes = [] if hurwitz.is_special(t) else ["input tuple was conjugated into special form first"]
    return CommandResult(OK, payload, notes)


def _cmd_census(args) -> CommandResult:
    from . import census

    payload = census.census(args.n, use_brute=args.use_brute)
    diagnostics = [f"discrepancy: {d}" for d in payload["discrepancies"]]
    return CommandResult(OK, payload, diagnostics)


def integer(text: str) -> int:
    """The integer options' type: a rational's form without the "/digits",
    "12" or " -3 ", read by int() with a long run's leading zeros dropped
    (_significant).  Underscores, other bases and every other form raise
    ValueError: the reader refuses the line, argparse words the error.

    >>> integer("+12")
    12
    """
    body = text.strip()
    digits = body[1:] if body[:1] in ("+", "-") else body
    if not digits.isdecimal():
        raise ValueError(f"expected [sign]digits, got {text!r}")
    return int(text.replace(digits, _significant(digits, sys.get_int_max_str_digits()), 1))


class _Option(_Record):
    """One option of a command.  Its kind is "flag" (bare, stores True),
    "text", "integer" (read by integer), or "route", one of census's two
    exclusive route flags, which stores const."""

    __slots__ = ()

    def __new__(cls, flag, dest, kind, help=None, required=False, const=None):
        return tuple.__new__(cls, (flag, dest, kind, help, required, const))


class _Command(_Record):
    """One command: handler takes the read arguments and returns a
    CommandResult; options is a tuple of _Option."""

    __slots__ = ()

    def __new__(cls, help, handler, options):
        return tuple.__new__(cls, (help, handler, options))


_JSON = _Option("--json", "json", "flag", "machine output")
_SOLUTION_SOURCE = (
    _Option("--A", "A", "text", "polynomial, human syntax"),
    _Option("--B", "B", "text", "polynomial, human syntax"),
    _Option("--D", "D", "text", "polynomial, human syntax"),
    _Option("--file", "file", "text", "solution JSON file ('-' for stdin)"),
    _Option("--allow-d1", "allow_d1", "flag"),
)
_TUPLE_FILE = _Option("--file", "file", "text", "tuple JSON file ('-' for stdin)")

# The reader and the argparse parser are both built from this table.
_COMMANDS = {
    "verify": _Command("check A^2 - D*B^2 = 1", _cmd_verify, (_JSON, *_SOLUTION_SOURCE)),
    "seed": _Command("build a solution from A alone", _cmd_seed, (
        _JSON,
        _Option("--A", "A", "text", required=True),
        _Option("--allow-d1", "allow_d1", "flag"),
    )),
    "power": _Command("m-th power of a solution", _cmd_power, (
        _JSON,
        _Option("--m", "m", "integer", required=True),
        *_SOLUTION_SOURCE,
    )),
    "decompose": _Command("find Chebyshev roots of A", _cmd_decompose, (_JSON, *_SOLUTION_SOURCE)),
    "ramify": _Command("ramification of a polynomial", _cmd_ramify, (
        _JSON,
        _Option("--f", "f", "text", required=True),
        _Option("--at", "at", "text", "rational branch value"),
        _Option("--locus-in", "locus_in", "text", "comma-separated rationals"),
    )),
    "zannier": _Command("staircase tuple for (n, d)", _cmd_zannier, (
        _JSON,
        _Option("--n", "n", "integer", required=True),
        _Option("--d", "d", "integer", required=True),
    )),
    "validate": _Command("validate a tuple file", _cmd_validate, (_JSON, _TUPLE_FILE)),
    "profile": _Command("power profile of a tuple", _cmd_profile, (_JSON, _TUPLE_FILE)),
    "census": _Command("d = 2 census for n", _cmd_census, (
        _JSON,
        _Option("--n", "n", "integer", required=True),
        _Option("--brute-force", "use_brute", "route", const=True),
        _Option("--no-brute-force", "use_brute", "route", const=False),
    )),
}


def _claims(word: str, options) -> bool:
    """Whether argparse takes word, after an option that needs a value, as an
    option: a word led by "-" is a value only if it is "-", or a negative
    number or holds a space and no option claims it (-h..., --help=..., --opt=...)."""
    head = word.partition("=")[0]
    if word.startswith("-h") or head == "--help" or head in options:
        return True
    dashed = word[:1] == "-" and word != "-"
    return dashed and " " not in word and not re.match(r"^-\d+$|^-\d*\.\d+$", word)


class _Reader:
    """Reads the handler's arguments off _COMMANDS: the command name, then
    options as --opt=value ("--opt=--" is the text "--") or --opt value (a
    value as argparse takes it), bare flags without "=", every required
    option, at most one route flag.  Every line argparse accepts reads so,
    but an integer option given "=--"; anything else reads as None."""

    def __init__(self):
        self.commands = {}
        for name, command in _COMMANDS.items():
            options = command.options
            defaults = {"command": name, "handler": command.handler}
            defaults.update((o.dest, False if o.kind == "flag" else None) for o in options)
            required = {o.flag for o in options if o.required}
            routes = {o.flag for o in options if o.kind == "route"}
            self.commands[name] = ({o.flag: o for o in options}, defaults, required, routes)

    def read(self, argv) -> SimpleNamespace | None:
        if not argv or argv[0] not in self.commands:
            return None
        options, defaults, required, routes = self.commands[argv[0]]
        values = dict(defaults)
        seen = set()
        words = iter(argv[1:])
        for word in words:
            flag, eq, value = word.partition("=")
            option = options.get(flag)
            if option is None:
                return None
            if option.kind in ("flag", "route"):
                if eq:
                    return None
                value = option.const if option.kind == "route" else True
            elif not eq:
                value = next(words, None)
                if value is None or _claims(value, options):
                    return None
            if option.kind == "integer":
                try:
                    value = integer(value)
                except ValueError:
                    return None
            values[option.dest] = value
            seen.add(flag)
        if not required <= seen or len(routes & seen) > 1:
            return None
        return SimpleNamespace(**values)


@functools.cache
def build_parser() -> _Reader:
    """The command-line reader, built on first use and shared by later runs."""
    return _Reader()


@functools.cache
def _argparser():
    """The argparse parser over the same table, for the lines the reader
    refuses: it prints help and words each usage error, and sets no handler."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def __init__(self, **kwargs):  # no option prefixes: main reads "--json" from argv as written
            super().__init__(allow_abbrev=False, **kwargs)

        def error(self, message):
            raise _ParserError(message)

    parser = _Parser(prog="pellab", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = subs.add_parser(name, help=command.help)
        route = None
        for o in command.options:
            if o.kind == "flag":
                p.add_argument(o.flag, dest=o.dest, action="store_true", help=o.help)
            elif o.kind == "route":
                route = route or p.add_mutually_exclusive_group()
                route.add_argument(o.flag, dest=o.dest, action="store_const", const=o.const, help=o.help)
            else:
                p.add_argument(
                    o.flag,
                    dest=o.dest,
                    type=integer if o.kind == "integer" else None,
                    required=o.required,
                    help=o.help,
                )
    return parser


def run(argv) -> CommandResult:
    """Dispatch one command line, read by the reader alone; never raises for bad input."""
    try:
        args = build_parser().read(argv)
        if args is None:  # argparse prints help and exits, or raises the usage error,
            _argparser().parse_args(argv)  # but stores an integer option's "=--" as []
            options = _COMMANDS[argv[0]].options
            flag = next(o.flag for o in options if o.kind == "integer" and f"{o.flag}=--" in argv)
            raise _ParserError(f"argument {flag}: invalid integer value: '--'")
        return args.handler(args)
    except _ParserError as exc:
        return CommandResult(ERROR, None, [str(exc)])
    except OSError as exc:
        return CommandResult(ERROR, None, [f"file error: {exc}"])
    except ValueError as exc:  # a library error class names its own prefix
        return CommandResult(ERROR, None, [getattr(exc, "prefix", "") + str(exc)])


# json.dumps(value, sort_keys=True, separators=(",", ":")) as the chunks of
# the C encoder that json itself runs, so start-up loads no json package;
# only reading JSON input loads it.  markers is None: a call that raises
# (an int past the digit limit) would leave ids in a shared dict, and the
# next call on the same containers would read them as a cycle.
_compact = make_encoder(None, None, encode_basestring_ascii, None, ":", ",", True, False, True)


def _indented(value, margin: str = "") -> str:
    """json.dumps(value, sort_keys=True, indent=2), each line after the
    first led by margin; keys and strings go through the C string encoder,
    other scalars and empty containers through the C encoder."""
    inner = margin + "  "
    if isinstance(value, dict) and value:
        items = (f"{encode_basestring_ascii(k)}: {_indented(v, inner)}" for k, v in sorted(value.items()))
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + margin + "}"
    if isinstance(value, (list, tuple)) and value:
        items = (_indented(v, inner) for v in value)
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + margin + "]"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    return "".join(_compact(value, 0))


def render(result: CommandResult, as_json: bool) -> str:
    body = {
        "schema": SCHEMA,
        "status": result.status,
        "payload": result.payload,
        "diagnostics": result.diagnostics,
    }
    if as_json:
        return "".join(_compact(body, 0))
    lines = [f"status: {result.status}"]
    if result.payload is not None:
        lines.append(_indented(result.payload))
    lines.extend(f"note: {d}" for d in result.diagnostics)
    return "\n".join(lines)


def main(argv=None) -> int:
    """Run one command line and print its answer; a failed write or Ctrl-C
    exits without a traceback."""
    argv = sys.argv[1:] if argv is None else argv
    try:
        result = run(argv)
        if sys.stdout is None:  # started with stdout closed
            raise OSError("stdout is closed")
        print(render(result, as_json="--json" in argv), flush=True)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except OSError as exc:
        import os

        # The signal module docs' note on SIGPIPE: stdout goes to devnull,
        # so the flush at exit writes what is left nowhere and cannot fail.
        if sys.stdout is not None:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            return EXIT_BROKEN_PIPE
        print(f"{ERROR}: cannot write the answer: {exc}", file=sys.stderr)
        return EXIT_CODES[ERROR]
    return EXIT_CODES[result.status]


if __name__ == "__main__":
    sys.exit(main())
