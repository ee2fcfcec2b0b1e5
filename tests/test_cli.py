from __future__ import annotations

import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from pellab import cli, hurwitz
from pellab import permgroup as pg
from pellab.census import BRUTE_DEFAULT_MAX, SHAPE_MAX
from pellab.cli import CommandResult, build_parser, integer, main, render, run
from pellab.exactpoly import (
    MAX_DEGREE,
    ONE,
    Poly,
    compose,
    constant,
    derivative,
    format_poly,
    from_coeff_strings,
    parse_poly,
)
from pellab.hurwitz import (
    MAX_TUPLE_N,
    MAX_TUPLE_POINTS,
    HurwitzTuple,
    tuple_from_json_dict,
    tuple_to_json_dict,
    zannier_tuple,
)
from pellab.pellcore import PellSolution, chebyshev, power_solution, verify_pell
from pellab.permgroup import Perm, is_ell_imprimitive

from oracles import (
    branch_locus_by_fold,
    branch_locus_by_product,
    classify_powers_every_m,
    compose_by_fractions,
    conjugate,
    evaluate,
    replace,
    scale,
)
from test_exactpoly import fraction_gcd
from test_hurwitz import disjoint_census_tuple, json_tuples, validate_by_entry_queries


def run_json(argv):
    result = run(argv)
    return result, json.loads(render(result, as_json=True))


def stdin_of(text: str) -> io.TextIOWrapper:
    """A stand-in for sys.stdin that holds text as UTF-8 bytes, which the
    commands read through its buffer."""
    return io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8")


def test_integer_grammar():
    assert integer("-12") == -12
    assert integer(" +3 ") == 3
    assert integer("0007") == 7
    # Leading zeros, ASCII or Arabic-Indic, do not count toward int()'s
    # digit limit; more significant digits than the limit are refused.
    limit = sys.get_int_max_str_digits()
    assert integer("0" * 5000 + "5") == integer("\u0660" * 5000 + "\u0665") == 5
    assert integer(" -" + "0" * 5000 + "5 ") == -5
    with pytest.raises(ValueError, match="limit"):
        integer("0" * 5000 + "1" * (limit + 1))
    for text in ("1_0", "1/2", "2.0", "1e3", "0x10", "- 3", "", "+", "inf", "x"):
        with pytest.raises(ValueError):
            integer(text)


# integer's former regex, kept as its oracle.
INTEGER_RE = re.compile(r"\s*[+-]?\d+\s*")


def integer_oracle(text: str) -> int:
    if not INTEGER_RE.fullmatch(text):
        raise ValueError(f"expected [sign]digits, got {text!r}")
    return int(text)


@settings(max_examples=600, deadline=None)
@given(st.text(st.sampled_from("0123456789\u0664\u0967\U0001d7d8\u00b2\u2167 \t\n\x0b\x1c\x85\xa0\u2003\u3000+-_x"), max_size=8))
@example("")
@example("+")
@example(" - ")
@example("+-3")
@example("\u0664\u0662")
@example("\u3000-7\x85")
@example("1_0")
@example("0\x1c")
@example("\u00b2")
@example("9" * 5000)
def test_integer_matches_the_regex_oracle(text):
    def outcome(read):
        try:
            return read(text)
        except ValueError as exc:
            return ValueError, str(exc)

    assert outcome(integer) == outcome(integer_oracle)


def test_verify_ok_and_payload_round_trip():
    result, body = run_json(["verify", "--A", "t^2", "--B", "1", "--D", "t^4-1"])
    assert result.status == "Ok"
    assert body["schema"] == "pellab/1"
    payload = body["payload"]
    assert payload["n"] == 2 and payload["d"] == 2
    assert from_coeff_strings(payload["A"]) == parse_poly(payload["text"]["A"])
    assert from_coeff_strings(payload["D"]) == parse_poly("t^4 - 1")


def test_verify_rejected():
    result = run(["verify", "--A", "t", "--B", "1", "--D", "t^2-1"])
    assert result.status == "Rejected"
    assert result.payload["reason"]["kind"] == "SmallDegreeD"
    relaxed = run(["verify", "--A", "t", "--B", "1", "--D", "t^2-1", "--allow-d1"])
    assert relaxed.status == "Ok"


def test_zero_d_is_below_the_degree_floor():
    """D = 0 solves A^2 - D*B^2 = 1 with A = 1, but its degree is -1: the
    floor rejects it, with or without --allow-d1."""
    for command in (["verify"], ["power", "--m", "2"], ["decompose"]):
        for relax in ([], ["--allow-d1"]):
            result = run([*command, "--A", "1", "--B", "1", "--D", "0", *relax])
            assert result.status == "Rejected", (command, relax)
            assert result.payload["reason"]["kind"] == "SmallDegreeD", (command, relax)
            assert "deg D = -1" in result.payload["reason"]["message"]


def test_parse_error_names_position():
    result = run(["verify", "--A", "t^", "--B", "1", "--D", "t^4-1"])
    assert result.status == "Error"
    assert any("position 1" in d for d in result.diagnostics)


def test_unknown_subcommand_is_error():
    result = run(["bogus"])
    assert result.status == "Error"
    assert result.diagnostics


def test_missing_solution_source_is_error():
    result = run(["verify", "--A", "t^2"])
    assert result.status == "Error"
    assert any("--file" in d for d in result.diagnostics)


def test_exit_codes(capsys):
    assert main(["verify", "--A", "t^2", "--B", "1", "--D", "t^4-1"]) == 0
    assert main(["verify", "--A", "t", "--B", "1", "--D", "t^2-1"]) == 1
    assert main(["verify", "--A", "t^", "--B", "1", "--D", "t^4-1"]) == 2
    out = capsys.readouterr().out
    assert "status: Ok" in out
    assert "status: Rejected" in out
    assert "status: Error" in out


def test_json_output_is_byte_identical(capsys):
    argv = ["census", "--n", "4", "--json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.startswith('{"diagnostics"')


GOLDEN = json.loads((Path(__file__).parent / "fixtures" / "cli_golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", GOLDEN, ids=[f"{i}-{c['argv'][0]}" for i, c in enumerate(GOLDEN)])
def test_json_lines_match_golden_fixture(case, capsys, monkeypatch):
    """The output of each command, byte for byte, as recorded in
    tests/fixtures/cli_golden.json: the --json line of the polynomial
    commands, and both modes of census, zannier, validate and profile, a
    tuple read from the entry's stdin."""
    monkeypatch.setattr("sys.stdin", stdin_of(case.get("stdin", "")))
    code = main(case["argv"])
    line = case["line"]
    assert capsys.readouterr().out == line + "\n"
    if "--json" in case["argv"]:
        status = json.loads(line)["status"]
    else:
        status = line.partition("\n")[0].removeprefix("status: ")
    assert code == {"Ok": 0, "Rejected": 1, "Error": 2}[status]


USAGE = json.loads((Path(__file__).parent / "fixtures" / "cli_usage.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", USAGE, ids=[f"{i}-{' '.join(c['argv'])}" for i, c in enumerate(USAGE)])
def test_help_and_usage_errors_match_fixture(case, capsys, monkeypatch):
    """The output and exit code of each help and bad command line, byte for
    byte, as recorded in tests/fixtures/cli_usage.json (argparse's wording
    under Python 3.11, help wrapped at COLUMNS=80)."""
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main(list(case["argv"]))
    except SystemExit as exc:  # help exits from inside argparse
        code = exc.code
    assert capsys.readouterr().out == case["stdout"]
    assert code == case["code"]


# Words for the reader oracle: the table's flags bare, with "=value" and
# followed by a value, and words no command takes.  The values include
# those argparse reads in its own ways: empty, "-"-leading (negative
# numbers, Arabic-Indic digits and a trailing newline among them, spaced,
# help-like or option-like), "--", spaced, underscored and fullwidth digits.
READER_FLAGS = sorted({o.flag for c in cli._COMMANDS.values() for o in c.options})
READER_VALUES = [
    "", "-", "-1", "-1/2", " 4 ", "--json", "--", "1_0", "\uff14", "4", "3", "t^2", "t", "x=y",
    "-t + 1", "-1.5", "-.5", "-h", "-hx", "-h x", "--help=a b", "-\u0664", "-4\n", "--n 4", "--at=-1 2", "- 1",
]
reader_word = st.one_of(
    st.sampled_from(READER_FLAGS),
    st.builds("{}={}".format, st.sampled_from(READER_FLAGS), st.sampled_from(READER_VALUES)),
    st.sampled_from(READER_VALUES),
    st.sampled_from(["--bogus", "--js", "-h", "census"]),
)


@st.composite
def reader_argv(draw):
    """A command, its required options mostly, then more of its own options
    and any words, each option bare, with "=value" or followed by a value."""
    command = draw(st.sampled_from([*cli._COMMANDS, "bogus"]))
    options = cli._COMMANDS[command].options if command in cli._COMMANDS else ()
    picked = [o for o in options if o.required and draw(st.integers(min_value=0, max_value=9))]
    picked += draw(st.lists(st.sampled_from(options), max_size=3)) if options else []
    argv = [command]
    for option in picked:
        value = draw(st.sampled_from(READER_VALUES))
        forms = [[option.flag], [option.flag, value], [f"{option.flag}={value}"]]
        if option.kind in ("flag", "route"):  # mostly their usual form
            forms[1:1] = [[option.flag]] * 3
        argv += draw(st.sampled_from(forms))
    if draw(st.booleans()):
        for word in draw(st.lists(reader_word, max_size=3)):
            argv.insert(draw(st.integers(min_value=1, max_value=len(argv))), word)
    return argv


@settings(max_examples=600, deadline=None)
@given(reader_argv())
@example(["census", "--n", "4", "--brute-force", "--brute-force", "--json"])
@example(["census", "--n=4", "--no-brute-force", "--brute-force"])
@example(["seed", "--A=--json", "--allow-d1"])
@example(["ramify", "--f", "t", "--at=-1/2", "--at", "x=y"])
@example(["ramify", "--f", "t", "--at", "--at=-1 2"])
@example(["seed", "--A", "--help=a b"])
@example(["seed", "--A", "-h x"])
@example(["seed", "--A", "-t + 1", "--A=--"])
@example(["census", "--n", "-4\n"])
@example(["census", "--n=--", "--n", "4"])
def test_reader_agrees_with_argparse(argv):
    """Where the option-table reader reads a command line, argparse reads
    the same namespace, but for the handler, which it does not set, and a
    "--opt=--" value, which it stores as [] where the reader reads "--".
    Where the reader refuses a line, argparse exits for help or words the
    usage error that run answers, but for an integer option given "=--",
    which run answers as an Error that names it."""
    parser = cli._argparser()
    args = build_parser().read(argv)
    if args is not None:
        namespace = vars(parser.parse_args(argv))
        assert "handler" not in namespace
        read = vars(args)
        assert read.pop("handler") is cli._COMMANDS[argv[0]].handler
        assert read == {dest: "--" if value == [] else value for dest, value in namespace.items()}
        return
    try:
        with mock.patch("sys.stdout", io.StringIO()):
            parser.parse_args(argv)
    except SystemExit as exc:  # help
        assert exc.code == 0
        return
    except cli._ParserError as exc:
        assert run(argv) == CommandResult("Error", None, [str(exc)])
        return
    integers = [o.flag for o in cli._COMMANDS[argv[0]].options if o.kind == "integer"]
    flag = next(flag for flag in integers if f"{flag}=--" in argv)
    assert run(argv) == CommandResult("Error", None, [f"argument {flag}: invalid integer value: '--'"])


def src_env() -> dict:
    """The environment with this checkout's src first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def python_m(module, argv):
    return subprocess.run([sys.executable, "-m", module, *argv], capture_output=True, env=src_env(), timeout=60)


def test_python_dash_m_matches_main(capsys):
    argv = ["census", "--n", "3", "--json"]
    proc = python_m("pellab", argv)
    assert main(argv) == 0
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode() == capsys.readouterr().out
    assert proc.stderr == b""


def test_python_dash_m_cli_is_quiet():
    argv = ["census", "--n", "2", "--json"]
    module_run, package_run = python_m("pellab.cli", argv), python_m("pellab", argv)
    assert module_run.stderr == b""
    assert module_run.returncode == 0
    assert module_run.stdout == package_run.stdout


def pellab_process(argv, **streams) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, "-m", "pellab", *argv], env=src_env(), **streams)


@pytest.mark.parametrize("mode", [[], ["--json"]])
def test_reader_that_left_is_no_traceback(mode):
    # The reader closes the pipe before the tuple is sent, so the answer's
    # first write finds no reader, whatever the pipe's capacity.
    text = json.dumps(tuple_to_json_dict(zannier_tuple(60, 2)))
    proc = pellab_process(
        ["validate", "--file", "-", *mode],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    _, err = proc.communicate(text.encode(), timeout=60)
    assert (proc.returncode, err) == (cli.EXIT_BROKEN_PIPE, b"")


def test_closed_stdin_is_a_file_error(monkeypatch):
    monkeypatch.setattr("sys.stdin", None)
    for argv in (["validate", "--json"], ["verify", "--file", "-"], ["profile", "--file", "-"]):
        assert run(argv) == CommandResult("Error", None, ["file error: stdin is closed"]), argv


def test_closed_stdin_is_no_traceback():
    # The shell closes fd 0 before Python starts, so sys.stdin is None.
    for argv in (["validate", "--json"], ["verify", "--file", "-", "--json"]):
        proc = subprocess.run(
            ["sh", "-c", 'exec "$0" -m pellab "$@" 0<&-', sys.executable, *argv],
            capture_output=True, env=src_env(), timeout=60,
        )
        assert (proc.returncode, b"Traceback" in proc.stderr) == (2, False), (argv, proc.stderr)
        assert json.loads(proc.stdout)["diagnostics"] == ["file error: stdin is closed"], argv


def test_stdin_is_read_as_utf8_whatever_its_encoding(tmp_path):
    # The coefficient 1 written as an Arabic-Indic digit, U+0661, which
    # stdin decoded as latin-1 would read as two other characters.
    path = tmp_path / "solution.json"
    path.write_bytes('{"A": ["0", "0", "١"], "B": ["1"], "D": ["-1", "0", "0", "0", "1"]}'.encode("utf-8"))
    env = {**src_env(), "PYTHONIOENCODING": "latin-1"}
    lines = []
    for argv, stdin in ((["--file", str(path)], None), (["--file", "-"], path.read_bytes())):
        proc = subprocess.run(
            [sys.executable, "-m", "pellab", "verify", *argv, "--json"],
            input=stdin, capture_output=True, env=env, timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (0, b""), argv
        lines.append(proc.stdout)
    assert lines[0] == lines[1] and json.loads(lines[0])["status"] == "Ok"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_full_device_is_an_error_line():
    with open("/dev/full", "w") as full:
        proc = pellab_process(["census", "--n", "6"], stdout=full, stderr=subprocess.PIPE)
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert err.decode().splitlines() == ["Error: cannot write the answer: [Errno 28] No space left on device"]


def test_closed_stdout_is_an_error_line():
    # sh runs the command with its stdout closed, as `pellab ... >&-` does.
    argv = ["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "pellab", "census", "--n", "6", "--json"]
    proc = subprocess.run(argv, capture_output=True, env=src_env(), timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.decode().splitlines() == ["Error: cannot write the answer: stdout is closed"]


@pytest.mark.parametrize("stage", ["run", "render"])
def test_ctrl_c_is_one_line_and_exit_130(monkeypatch, capsys, stage):
    # Ctrl-C while the command runs or while its answer is written.
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, stage, interrupted)
    try:
        code = main(["census", "--n", "6", "--json"])
    except KeyboardInterrupt:  # escaping, it would stop the whole test run
        pytest.fail("KeyboardInterrupt escaped main")
    assert code == cli.EXIT_INTERRUPTED == 130
    out, err = capsys.readouterr()
    assert (out, err.splitlines()) == ("", ["interrupted"])


def test_seed_and_power_and_file_round_trip(tmp_path):
    result, body = run_json(["seed", "--A", "2*t^3-1", "--json"])
    assert result.status == "Ok"
    path = tmp_path / "sol.json"
    path.write_text(json.dumps(body), encoding="utf-8")

    powered = run(["power", "--m", "2", "--file", str(path)])
    assert powered.status == "Ok"
    assert powered.payload["n"] == 6
    assert from_coeff_strings(powered.payload["A"]) == parse_poly(
        powered.payload["text"]["A"]
    )

    bad = run(["power", "--m", "0", "--file", str(path)])
    assert bad.status == "Error"
    # --m is refused before the solution is read, so a non-unit is an Error
    # too, not a NotUnit rejection.
    bad = run(["power", "--m", "0", "--A", "t", "--B", "1", "--D", "t^2"])
    assert (bad.status, bad.diagnostics) == ("Error", ["--m must be >= 1"])
    assert main(["power", "--m", "0", "--A", "t", "--B", "1", "--D", "t^2"]) == 2


def test_power_past_degree_bound_is_bad_input(monkeypatch, capsys):
    # The power of (2t^3 - 1, 2t, t^4 - t) has degree 3m; refused before
    # power_solution runs, after verify_pell has read deg A.
    monkeypatch.setattr("pellab.pellcore.power_solution", lambda base, m: pytest.fail("built"))
    solution = ["--A", "2*t^3-1", "--B", "2*t", "--D", "t^4-t"]
    for m in (3334, 10**9):
        argv = ["power", "--m", str(m), *solution]
        want = [f"--m {m} times deg A = 3 is past the degree bound {MAX_DEGREE}"]
        result = run(argv)
        assert (result.status, result.diagnostics) == ("Error", want)
        assert main(argv) == 2
    # A non-solution is still a rejection, whatever --m is.
    rejected = run(["power", "--m", str(10**9), "--A", "t", "--B", "1", "--D", "t^2"])
    assert rejected.status == "Rejected"
    capsys.readouterr()


def test_solution_file_past_degree_bound_is_bad_input(tmp_path, capsys):
    # 10,002 coefficients, one past the bound, are refused before any is
    # read; a verify would otherwise take seconds.
    data = {"A": ["1"] * (MAX_DEGREE + 2), "B": ["1"], "D": ["-1", "0", "0", "0", "1"]}
    path = tmp_path / "sol.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    argv = ["verify", "--file", str(path)]
    want = [
        "polynomial error: more coefficients than the degree bound "
        f"{MAX_DEGREE} allows (at position {MAX_DEGREE + 1})"
    ]
    result = run(argv)
    assert (result.status, result.diagnostics) == ("Error", want)
    assert main(argv) == 2
    capsys.readouterr()


def test_decompose_flags_rational_primitive():
    result = run(["decompose", "--A", "t^2", "--B", "1", "--D", "t^4-1"])
    assert result.status == "Ok"
    assert result.payload["primitive"] is True
    assert any("rational-primitive" in d for d in result.diagnostics)

    result = run(["decompose", "--A", "2*t^4-1", "--B", "2*t^2", "--D", "t^4-1"])
    assert result.payload["witnesses"] == {"2": "t^2"}
    assert result.payload["primitive"] is False
    assert result.diagnostics == []


def test_decompose_reduces_the_scaled_lead():
    # 18*t^2 - 1 = T_2(3*t): the series root's lead, 18 over 2^(m-1), comes
    # as the pair (18, 2), an m-th power only once reduced to 9/1.
    result = run(["decompose", "--A", "18*t^2 - 1", "--B", "6*t", "--D", "9*t^2 - 1", "--allow-d1"])
    assert (result.status, result.payload["witnesses"]) == ("Ok", {"2": "3*t"})


def test_ramify_modes():
    result = run(["ramify", "--f", "16*t^3 - 24*t^2 + 9*t", "--at", "0"])
    assert result.status == "Ok"
    assert result.payload["type"] == [[1, 1], [2, 1]]

    result = run(["ramify", "--f", "t^3 - 3*t", "--locus-in", "0,1"])
    assert result.status == "Rejected"
    assert result.payload["contained"] is False

    result = run(["ramify", "--f", "t^2", "--at", "0", "--locus-in", "0,1"])
    assert result.status == "Error"
    result = run(["ramify", "--f", "t^2"])
    assert result.status == "Error"
    result = run(["ramify", "--f", "t^2", "--at", "1/0"])
    assert result.status == "Error"


# -- solution pipelines, every Ok payload re-derived ---------------------------


def _fractions(strings: list[str]) -> list[Fraction]:
    """A payload's coefficient strings as Fractions, constant term first."""
    return [Fraction(s) for s in strings]


def _text(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _product(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _unit_defect(A: list, B: list, D: list) -> list:
    """A^2 - D*B^2 on coefficient lists, trailing zeros trimmed."""
    square, rest = _product(A, A), _product(D, _product(B, B))
    out = [Fraction(0)] * max(len(square), len(rest))
    for i, x in enumerate(square):
        out[i] += x
    for i, y in enumerate(rest):
        out[i] -= y
    while out and not out[-1]:
        out.pop()
    return out


def _type_by_gcd_chain(p: Poly) -> list[list[int]]:
    """ramify --at's type of the fiber p = 0: with g_0 = p and g_i =
    fraction_gcd(g_(i-1), g_(i-1)'), deg g_(i-1) - deg g_i distinct roots
    of p have multiplicity at least i."""
    degrees = [p.degree]
    while degrees[-1] > 0:
        p = fraction_gcd(p, derivative(p))
        degrees.append(p.degree)
    at_least = [x - y for x, y in zip(degrees, degrees[1:])] + [0]
    return [[i, x - y] for i, (x, y) in enumerate(zip(at_least, at_least[1:]), 1) if x > y]


small_rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def pell_seeds(draw):
    """A seed A of degree 1 to 6, and whether it is T_j(P) for a linear P
    and j >= 2, whose critical values are -1 and 1: either T_j(P) for P of
    degree 1 or 2, or c * (+-1 + S^2 R), which has the square factor S^2 in
    A -+ 1 while c = +-1."""
    if draw(st.booleans()):
        top = draw(st.lists(small_rationals, max_size=1))
        P = Poly([draw(small_rationals), draw(small_rationals.filter(bool)), *top])
        j = draw(st.integers(1, 3))
        A, planted = compose(chebyshev(j), P), j >= 2 and P.degree == 1
    else:
        S, R = (Poly(draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3))) for _ in "SR")
        unit = constant(draw(st.sampled_from([1, -1])))
        A, planted = scale(unit + S * S * R, draw(small_rationals.filter(bool))), False
    assume(1 <= A.degree <= 6)
    return A, planted


@settings(max_examples=100, deadline=None)
@given(pell_seeds(), st.integers(2, 3), small_rationals, st.lists(small_rationals, max_size=3), st.booleans())
@example((parse_poly("2*t^3 - 1"), False), 2, Fraction(0), [Fraction(-1)], False)
@example((compose(chebyshev(3), parse_poly("2*t - 1/3")), True), 3, Fraction(1, 3), [], True)
def test_solution_pipeline_matches_the_oracles(fuzz_dir, seed, k, c, values, unit_values):
    # seed -> verify --file -> power --m k -> decompose, then ramify --at
    # and --locus-in on A: every Ok payload is checked by code that shares
    # nothing with the route that made it.
    A, planted = seed
    path = str(fuzz_dir / "pipeline.json")
    seeded, body = run_json(["seed", f"--A={format_poly(A)}", "--allow-d1", "--json"])
    assert seeded.status == "Ok" and _fractions(seeded.payload["A"]) == list(A.coeffs)
    Path(path).write_text(json.dumps(body), encoding="utf-8")
    assert run(["verify", "--file", path, "--allow-d1"]) == seeded
    powered = run(["power", "--m", str(k), "--file", path, "--allow-d1"])
    assert powered.status == "Ok" and powered.payload["n"] == k * A.degree
    for payload in (seeded.payload, powered.payload):
        A_, B_, D_ = (_fractions(payload[name]) for name in "ABD")
        assert _unit_defect(A_, B_, D_) == [1]
        D = Poly(D_)
        assert (len(A_) - 1, D.degree) == (payload["n"], 2 * payload["d"])
        assert fraction_gcd(D, derivative(D)) == ONE

    Path(path).write_text(json.dumps(powered.payload), encoding="utf-8")
    decomposed = run(["decompose", "--file", path, "--allow-d1"])
    Ak, Bk, Dk = (Poly(_fractions(powered.payload[name])) for name in "ABD")
    every_m = classify_powers_every_m(PellSolution(Ak, Bk, Dk, Ak.degree, Dk.degree // 2))
    witnesses = {str(m): format_poly(w) for m, w in sorted(every_m.witnesses.items())}
    assert (decomposed.status, decomposed.payload) == ("Ok", {
        "n": Ak.degree,
        "admissible": sorted(every_m.admissible_m),
        "witnesses": witnesses,
        "primitive": not witnesses,
    })
    # A_k = T_k(A), and n >= d, so k and each admissible divisor of it are
    # witnesses.
    assert all(str(m) in witnesses for m in every_m.admissible_m if k % m == 0) and str(k) in witnesses
    for m, text in witnesses.items():
        assert compose_by_fractions(chebyshev(int(m)), parse_poly(text)) in (Ak, -Ak)

    f = f"--f={format_poly(A)}"
    for at in (c, evaluate(A, c), Fraction(1), Fraction(-1)):
        result = run(["ramify", f, f"--at={_text(at)}"])
        want = {"at": _text(at), "type": _type_by_gcd_chain(A - constant(at))}
        assert (result.status, result.payload) == ("Ok", want)
    if A.degree >= 2:
        values = [*values, evaluate(A, c), *([Fraction(-1), Fraction(1)] if unit_values else [])]
        contained = branch_locus_by_product(A, values)
        assert contained == branch_locus_by_fold(A, values)
        assert contained or not (planted and unit_values)
        result = run(["ramify", f, "--locus-in=" + ",".join(map(_text, values))])
        assert (result.status, result.payload) == (
            "Ok" if contained else "Rejected",
            {"contained": contained, "values": [_text(v) for v in values]},
        )


@st.composite
def pipeline_tuples(draw):
    """A staircase tuple's (n, d) or a Disjoint census tuple's (n, h), a
    relabelling g (None: sent as made), and a transposition to stand for
    the taus (None: kept)."""
    kind = draw(st.sampled_from(["zannier", "disjoint"]))
    n = draw(st.integers(2, 8))
    k = draw(st.integers(2, n) if kind == "zannier" else st.integers(1, n - 1))
    N = 2 * n
    g = draw(st.none() | st.permutations(range(1, N + 1)).map(Perm))
    pair = draw(st.none() | st.lists(st.integers(1, N), min_size=2, max_size=2, unique=True))
    return kind, n, k, g, None if pair is None else Perm.from_cycles(N, [tuple(pair)])


@settings(max_examples=100, deadline=None)
@given(pipeline_tuples())
@example(("disjoint", 6, 3, None, None))
@example(("disjoint", 6, 2, Perm(tuple(5 * x % 13 for x in range(1, 13))), None))
def test_tuple_pipeline_matches_the_oracles(case):
    # zannier -> validate -> profile, and Disjoint census tuples, each sent
    # on stdin as made or relabelled: every validate payload is the
    # entry-query oracle's, and every Ok profile is the set of m for which
    # is_ell_imprimitive finds 2m blocks that every entry preserves.
    kind, n, k, g, tau = case
    if kind == "zannier":
        made = run(["zannier", "--n", str(n), "--d", str(k), "--json"])
        text = render(made, as_json=True)
        t = tuple_from_json_dict(made.payload)
    else:
        t = disjoint_census_tuple(n, k)
        text = json.dumps(tuple_to_json_dict(t))
    if g is not None:
        entries = (conjugate(p, g) for p in (t.sigma0, t.sigmaInf, t.sigma1))
        t = HurwitzTuple(*entries, tuple(conjugate(x, g) for x in t.taus), t.n, t.d)
    if tau is not None:
        t = replace(t, taus=(tau,))
    if g is not None or tau is not None:
        text = json.dumps(tuple_to_json_dict(t))
    results = {}
    for command in ("validate", "profile"):
        with mock.patch("sys.stdin", stdin_of(text)):
            results[command] = run([command, "--file", "-"])

    want = validate_by_entry_queries(t)
    failed = [f"failed: {c['name']}" for c in want["checks"] if not c["passed"]]
    checked = ("Ok" if want["ok"] else "Rejected", want, failed)
    assert results["validate"] == checked
    assert want["ok"] or tau is not None
    if not want["ok"]:
        assert results["profile"] == checked
        return
    N = 2 * n
    special = t.sigmaInf.images == (N, *range(1, N)) and all(p(N) == N for p in (t.sigma1, *t.taus))
    admissible = [m for m in range(2, n + 1) if n % m == 0 and n // m >= t.d]
    profile = [m for m in admissible if is_ell_imprimitive(t.gens(), 2 * m) is not None]
    assert results["profile"] == (
        "Ok",
        {"n": n, "d": t.d, "admissible": admissible, "profile": profile, "primitive": not profile},
        [] if special else ["input tuple was conjugated into special form first"],
    )


def test_exponent_form_rationals_are_bad_input(tmp_path):
    # Only [sign]digits[/digits] is read, so "1e100000" is never expanded.
    for argv in (
        ["ramify", "--f", "t^3 - 3*t", "--at", "1e100000"],
        ["ramify", "--f", "t^3 - 3*t", "--locus-in", "2,1e100000,-2"],
        ["ramify", "--f", "t^3 - 3*t", "--at", "2.5"],
    ):
        result = run(argv)
        assert result.status == "Error", argv
        assert any("bad rational" in d for d in result.diagnostics)
    path = tmp_path / "sol.json"
    solution = {"A": ["0", "0", "1e100000"], "B": ["1"], "D": ["-1", "0", "0", "0", "1"]}
    path.write_text(json.dumps(solution), encoding="utf-8")
    result = run(["verify", "--file", str(path)])
    assert result.status == "Error"
    assert any("bad coefficient '1e100000'" in d for d in result.diagnostics)


def test_solution_file_missing_a_field_is_named(tmp_path):
    path = tmp_path / "sol.json"
    path.write_text(json.dumps({"A": ["0", "0", "1"], "B": ["1"]}), encoding="utf-8")
    result = run(["verify", "--file", str(path)])
    assert result.status == "Error"
    assert any("solution file missing field 'D'" in d for d in result.diagnostics), result.diagnostics


def test_zero_denominator_is_named(tmp_path, capsys):
    # Fraction's own message for 1/0 is "Fraction(1, 0)".
    path = tmp_path / "sol.json"
    solution = {"A": ["1/0"], "B": ["1"], "D": ["-1", "0", "0", "0", "1"]}
    path.write_text(json.dumps(solution), encoding="utf-8")
    for argv in (
        ["ramify", "--f", "t^3 - 3*t", "--at", "1/0"],
        ["ramify", "--f", "t^3 - 3*t", "--locus-in", "0,1/0"],
        ["verify", "--file", str(path)],
    ):
        assert main(argv) == 2, argv
        assert "status: Error" in capsys.readouterr().out
        result = run(argv)
        assert result.status == "Error", argv
        assert any("zero denominator" in d for d in result.diagnostics), result.diagnostics
        assert not any("Fraction(" in d for d in result.diagnostics), result.diagnostics


def test_zannier_validate_profile_chain(tmp_path):
    # zannier prints the verdict and the branching, so it words no check's
    # detail: validate's report is never called.
    with mock.patch.object(hurwitz, "report", None):
        result, body = run_json(["zannier", "--n", "4", "--d", "2"])
    assert result.status == "Ok"
    assert result.diagnostics == ["validation passed; branching 4/2/7/1 over 0/1/inf/taus"]
    assert body["payload"]["sigma0"] == "(1,8)(2,7)(3,6)(4,5)"
    path = tmp_path / "tuple.json"
    path.write_text(json.dumps(body), encoding="utf-8")

    checked = run(["validate", "--file", str(path)])
    assert checked.status == "Ok"
    assert checked.payload["ok"] is True
    assert checked.payload["branching"] == {
        "overZero": 4,
        "overOne": 2,
        "overInfinity": 7,
        "overTaus": 1,
    }

    profiled = run(["profile", "--file", str(path)])
    assert profiled.status == "Ok"
    assert profiled.payload["profile"] == []
    assert profiled.payload["primitive"] is True
    assert profiled.payload["admissible"] == [2]


def test_profile_reads_stdin(monkeypatch):
    _, body = run_json(["zannier", "--n", "6", "--d", "2"])
    monkeypatch.setattr("sys.stdin", stdin_of(json.dumps(body["payload"])))
    result = run(["profile"])
    assert result.status == "Ok"
    assert result.payload["admissible"] == [2, 3]
    assert result.payload["profile"] == []


NESTED = "[" * 200_000  # deeper than the JSON decoder can recurse


def test_deeply_nested_json_is_bad_input(tmp_path, capsys):
    path = tmp_path / "nested.json"
    path.write_text(NESTED, encoding="utf-8")
    for command in ("validate", "profile", "verify"):
        for source, stdin in ((str(path), ""), ("-", NESTED)):
            argv = [command, "--file", source]
            with mock.patch("sys.stdin", stdin_of(stdin)):
                result = run(argv)
            assert result.status == "Error", argv
            assert result.diagnostics == [f"bad JSON in {source}: nested too deeply"], argv
            with mock.patch("sys.stdin", stdin_of(stdin)):
                assert main(argv) == 2
    with mock.patch("sys.stdin", stdin_of(NESTED)):
        assert run(["profile"]).diagnostics == ["bad JSON in -: nested too deeply"]
    capsys.readouterr()


def test_json_integer_past_the_digit_limit_is_bad_input(tmp_path, capsys):
    # A bare JSON integer past int()'s digit limit is refused as the file is
    # read: the answer names the file and the limit and echoes no digits.
    limit = sys.get_int_max_str_digits()
    solution = '{"A": [%s], "B": ["1"], "D": ["1"]}'
    tuple_text = json.dumps(dict(tuple_to_json_dict(zannier_tuple(4, 2)), n="N"))
    cases = [
        (["verify"], solution % ("1" * 4400), 4400),
        (["power", "--m", "2"], solution % ("-" + "7" * (limit + 1)), limit + 1),
        (["validate"], tuple_text.replace('"N"', "1" * 4400), 4400),
        (["profile"], tuple_text.replace('"N"', "1" * 4400), 4400),
    ]
    for command, text, digits in cases:
        path = tmp_path / "big.json"
        path.write_text(text, encoding="utf-8")
        for source, stdin in ((str(path), ""), ("-", text)):
            argv = [*command, "--file", source]
            with mock.patch("sys.stdin", stdin_of(stdin)):
                result = run(argv)
            assert result.status == "Error", argv
            assert result.diagnostics == [
                f"bad JSON in {source}: integer of {digits} digits past the {limit}-digit limit"
            ], argv
            with mock.patch("sys.stdin", stdin_of(stdin)):
                assert main(argv) == 2
    # At the limit, and with the sign not counted, the integer is read.
    path.write_text(solution % ("-" + "1" * limit), encoding="utf-8")
    assert run(["verify", "--file", str(path)]).status == "Rejected"
    capsys.readouterr()


def test_file_digit_limit_is_read_at_each_read(tmp_path):
    # The file decoder is built once per process, so the digit limit in
    # force is read at each read, not when the decoder was built.  The
    # solution is t^2, 1, t^4 - 1.
    path = tmp_path / "wide.json"
    solution = {"A": ["0", "0", "1"], "B": ["1"], "D": ["-1", "0", "0", "0", "1"]}
    path.write_text(json.dumps(solution)[:-1] + ', "note": %s}' % ("7" * 700), encoding="utf-8")
    argv = ["verify", "--file", str(path)]
    assert run(argv).status == "Ok"
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        assert run(argv) == CommandResult(
            "Error", None, [f"bad JSON in {path}: integer of 700 digits past the 640-digit limit"]
        )
    finally:
        sys.set_int_max_str_digits(limit)
    assert run(argv).status == "Ok"


def test_bom_file_keeps_its_error_text(tmp_path):
    # A file led by U+FEFF is refused with json.loads' own words, from a
    # file or from stdin.
    solution = json.dumps({"A": ["0", "0", "1"], "B": ["1"], "D": ["-1", "0", "0", "0", "1"]})  # t^2, 1, t^4 - 1
    tuple_text = json.dumps(tuple_to_json_dict(zannier_tuple(4, 2)))
    for command, text in ((["verify"], solution), (["validate"], tuple_text), (["profile"], tuple_text)):
        path = tmp_path / "bom.json"
        path.write_text("\ufeff" + text, encoding="utf-8")
        for source, stdin in ((str(path), ""), ("-", "\ufeff" + text)):
            with mock.patch("sys.stdin", stdin_of(stdin)):
                result = run([*command, "--file", source])
            assert result == CommandResult("Error", None, [
                f"bad JSON in {source}: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"
            ]), command
        path.write_text(text, encoding="utf-8")
        assert run([*command, "--file", str(path)]).status == "Ok", command


FILE_BYTES_DIAGNOSTICS = [
    # A file is read as UTF-8 bytes with text mode's newlines, "\r\n" and
    # then "\r" read as "\n": JSON errors count lines, columns and chars in
    # that text, a decode error counts bytes of the file.
    (b'{"A": ["0", "0", "1"],\r\n "B" ::  ["1"]}', "bad JSON in {}: Expecting value: line 2 column 7 (char 29)"),
    (b'{"A": ["0"],\r "B": ["1"],\r "D",: ["1"]}', "bad JSON in {}: Expecting ':' delimiter: line 3 column 5 (char 30)"),
    (b'{"A": ["0"],\r\n "B": ["1"],\r\r\n\n "D": ["1"],}', "bad JSON in {}: Expecting property name enclosed in double quotes: line 5 column 13 (char 40)"),
    (b'\xef\xbb\xbf{"A": ["1"]}', "bad JSON in {}: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
    (b'{"A": [\xff"0"]}', "'utf-8' codec can't decode byte 0xff in position 7: invalid start byte"),
    (b'{"A": ["' + b"1" * 9999 + b'\xc3("]}', "'utf-8' codec can't decode byte 0xc3 in position 10007: invalid continuation byte"),
    (b'{\r\n"A":\r \xff}', "'utf-8' codec can't decode byte 0xff in position 9: invalid start byte"),
    (b'{"A": ["0"]}\xe2\x82', "'utf-8' codec can't decode bytes in position 12-13: unexpected end of data"),
    (b'{"A": ["0\r", "0", "1"],\r\n "B": ["1"]}', "bad JSON in {}: Invalid control character at: line 1 column 10 (char 9)"),
    (b'{"A": ["0\r\n", "0", "1"]}', "bad JSON in {}: Invalid control character at: line 1 column 10 (char 9)"),
]


def test_file_bytes_keep_their_error_text(tmp_path):
    # Each message is the one the text-mode read gave, from the same bytes.
    path = tmp_path / "in.json"
    for data, message in FILE_BYTES_DIAGNOSTICS:
        path.write_bytes(data)
        for command in ("verify", "validate"):
            assert run([command, "--file", str(path)]) == CommandResult("Error", None, [message.format(path)]), data
    solution = b'{"A": ["0", "0", "1"],\n "B": ["1"],\n "D": ["-1", "0", "0", "0", "1"]}'  # t^2, 1, t^4 - 1
    for newline in (b"\r\n", b"\r"):
        path.write_bytes(solution.replace(b"\n", newline))
        assert run(["verify", "--file", str(path)]).status == "Ok", newline


def test_profile_normalizes_with_note(tmp_path):
    data = {
        "n": 6,
        "d": 2,
        "sigma0": "(1,12)(2,11)(3,10)(4,9)(5,8)(6,7)",
        "sigmaInf": "(1,12,11,10,9,8,7,6,5,4,3,2)",
        "sigma1": "(1,11)(2,10)(4,8)(5,7)",
        "taus": ["(3,9)"],
    }
    rotated = dict(data)
    path = tmp_path / "cube.json"
    path.write_text(json.dumps(rotated), encoding="utf-8")
    result = run(["profile", "--file", str(path)])
    assert result.status == "Ok"
    assert result.payload["profile"] == [3]
    assert result.payload["primitive"] is False


@st.composite
def staircases_with_one_fault(draw):
    """A staircase tuple, conjugated by a drawn permutation, as built (it
    passes every check) or with one fault that fails one check alone: an
    identity tau too many (TauCount), another fixed-point-free involution
    as sigma0 (ProductIdentity) or d one above its own (FixedPointCount)."""
    fault = draw(st.sampled_from((None, "taus", "sigma0", "d")))
    n = draw(st.integers(min_value=3 if fault == "d" else 2, max_value=8))
    t = zannier_tuple(n, draw(st.integers(min_value=2, max_value=n - 1 if fault == "d" else n)))
    N = 2 * n
    if fault == "taus":
        t = replace(t, taus=(*t.taus, pg.identity(N)))
    elif fault == "sigma0":
        points = draw(st.permutations(range(1, N + 1)))
        t = replace(t, sigma0=Perm.from_cycles(N, list(zip(points[::2], points[1::2]))))
    elif fault == "d":
        t = replace(t, d=t.d + 1)
    g = Perm(draw(st.permutations(range(1, N + 1))))
    return HurwitzTuple(*(conjugate(p, g) for p in t[:3]), tuple(conjugate(x, g) for x in t.taus), t.n, t.d)


@given(st.one_of(json_tuples(), staircases_with_one_fault()))
def test_profile_reads_validate_verdict(t):
    # profile reads validate's verdicts without their detail strings: it is
    # Ok exactly when validate's ok holds, and on a failed check it answers
    # validate's payload and diagnostics.
    text = json.dumps(tuple_to_json_dict(t))
    results = {}
    for command in ("validate", "profile"):
        with mock.patch("sys.stdin", stdin_of(text)):
            results[command] = run([command, "--file", "-"])
    ok = results["validate"].payload["ok"]
    event(" ".join(results["validate"].diagnostics) or "valid")
    assert results["validate"].status == ("Ok" if ok else "Rejected")
    if ok:
        assert results["profile"].status == "Ok"
    else:
        assert results["profile"] == results["validate"]


def test_profile_builds_no_perm_or_tuple_after_parsing(tmp_path, monkeypatch):
    """profile reads a special tuple and a relabelled one through labels:
    once the tuple is parsed, it builds no Perm and no HurwitzTuple."""
    z = zannier_tuple(12, 3)
    g = Perm([7 * x % 25 for x in range(1, 25)])
    moved = HurwitzTuple(*(conjugate(p, g) for p in z[:3]), tuple(conjugate(t, g) for t in z.taus), 12, 3)
    parsed, built = [], []

    def counted(build):
        def wrapper(*args, **kwargs):
            if parsed:
                built.append(args)
            return build(*args, **kwargs)

        return wrapper

    def reading(args, read=cli._read_tuple):
        parsed.append(read(args))
        return parsed[-1]

    monkeypatch.setattr(cli, "_read_tuple", reading)
    monkeypatch.setattr(pg, "_unchecked", counted(pg._unchecked))
    monkeypatch.setattr(Perm, "__new__", counted(Perm.__new__))
    monkeypatch.setattr(HurwitzTuple, "__new__", counted(HurwitzTuple.__new__))
    for t, notes in ((z, []), (moved, ["input tuple was conjugated into special form first"])):
        path = tmp_path / "tuple.json"
        path.write_text(json.dumps(tuple_to_json_dict(t)), encoding="utf-8")
        parsed.clear()
        result = run(["profile", "--file", str(path)])
        assert (result.status, result.payload["profile"], result.diagnostics) == ("Ok", [], notes)
        assert parsed and built == []


def test_profile_computes_admissible_exponents_once(tmp_path, monkeypatch):
    calls = []

    def counting(n, d, exponents=hurwitz.admissible_exponents):
        calls.append((n, d))
        return exponents(n, d)

    monkeypatch.setattr(hurwitz, "admissible_exponents", counting)
    path = tmp_path / "tuple.json"
    path.write_text(json.dumps(tuple_to_json_dict(zannier_tuple(60, 2))), encoding="utf-8")
    result = run(["profile", "--file", str(path)])
    assert (result.status, result.payload["profile"]) == ("Ok", [])
    assert result.payload["admissible"] == [2, 3, 4, 5, 6, 10, 12, 15, 20, 30]
    assert calls == [(60, 2)]


def test_validate_rejects_broken_tuple(tmp_path, capsys):
    _, body = run_json(["zannier", "--n", "4", "--d", "2"])
    broken = body["payload"]
    broken["taus"] = ["(3,6)"]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(broken), encoding="utf-8")
    assert main(["validate", "--file", str(path)]) == 1
    capsys.readouterr()
    result = run(["validate", "--file", str(path)])
    assert result.status == "Rejected"
    assert "failed: ProductIdentity" in result.diagnostics


def test_tuple_file_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json", encoding="utf-8")
    result = run(["validate", "--file", str(path)])
    assert result.status == "Error"
    result = run(["validate", "--file", str(tmp_path / "missing.json")])
    assert result.status == "Error"
    path.write_text(json.dumps({"n": 3, "d": 2}), encoding="utf-8")
    result = run(["validate", "--file", str(path)])
    assert result.status == "Error"


def test_census_cli_counts():
    result = run(["census", "--n", "3"])
    assert result.status == "Ok"
    cases = result.payload["cases"]
    assert cases["Disjoint"] == {"shape": 1, "brute": 1, "formula": 1}
    assert cases["ThreeCycle"] == {"shape": 1, "brute": 1, "formula": 1}
    assert cases["FourCycle"] == {"shape": 0, "brute": 0, "formula": 0}
    assert result.diagnostics == []


def test_census_env_bound(monkeypatch):
    monkeypatch.delenv("PELLAB_BRUTE_MAX", raising=False)
    beyond = ["census", "--n", str(BRUTE_DEFAULT_MAX + 1)]
    result = run(beyond)
    assert result.status == "Ok"
    assert all(case["brute"] is None for case in result.payload["cases"].values())
    assert run([*beyond, "--brute-force"]).status == "Error"

    # The bound is fixed: the environment variable that once moved it changes nothing.
    argvs = (beyond, ["census", "--n", "3"])
    want = [render(run(argv), as_json=True) for argv in argvs]
    monkeypatch.setenv("PELLAB_BRUTE_MAX", "2")
    assert [render(run(argv), as_json=True) for argv in argvs] == want


def test_census_shape_route_bound(capsys):
    for n in (SHAPE_MAX + 1, 10**6):
        want = [f"census error: n = {n} beyond shape-route bound {SHAPE_MAX}"]
        for route in ([], ["--no-brute-force"]):
            argv = ["census", "--n", str(n), *route]
            result = run(argv)
            assert (result.status, result.diagnostics) == ("Error", want), argv
            assert main(argv) == 2
        result = run(["census", "--n", str(n), "--brute-force"])
        assert result.diagnostics == [f"census error: n = {n} beyond brute-force bound {BRUTE_DEFAULT_MAX}"]
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["census", "--n", "{}"],
        ["zannier", "--n", "{}", "--d", "2"],
        ["zannier", "--n", "4", "--d", "{}"],
        ["power", "--m", "{}", "--A", "t^2", "--B", "1", "--D", "t^4-1"],
    ],
    ids=["census --n", "zannier --n", "zannier --d", "power --m"],
)
def test_integer_options_read_the_rational_grammar(argv, capsys):
    def with_value(text):
        return [arg.format(text) for arg in argv]

    assert run(with_value("3")).status == "Ok"
    assert run(with_value(" +3 ")) == run(with_value("0" * 5000 + "3")) == run(with_value("3"))
    for text in ("1_0", "3.0", "0x3", "1e1"):
        result = run(with_value(text))
        assert result.status == "Error", text
        assert any(repr(text) in d for d in result.diagnostics), text
        assert main(with_value(text)) == 2
    capsys.readouterr()


def test_census_route_flags_exclude_each_other(capsys):
    argv = ["census", "--n", "3", "--brute-force", "--no-brute-force"]
    result = run(argv)
    assert result.status == "Error"
    assert any("not allowed with" in d for d in result.diagnostics)
    assert main(argv) == 2
    capsys.readouterr()
    assert run(["census", "--n", "3", "--no-brute-force"]).payload["cases"]["Disjoint"]["brute"] is None
    assert run(["census", "--n", "3", "--brute-force"]).payload["cases"]["Disjoint"]["brute"] == 1


def test_option_prefixes_are_bad_input(capsys):
    """main reads --json from argv as written, so a prefix of an option
    name is refused rather than read as the option."""
    for prefix in ("--j", "--js", "--jso"):
        argv = ["census", "--n", "3", prefix]
        result = run(argv)
        assert result.status == "Error", prefix
        assert any(prefix in d for d in result.diagnostics), prefix
        assert main(argv) == 2, prefix
    assert main(["census", "--n", "3", "--no-brute"]) == 2
    capsys.readouterr()


def test_tuple_size_bound_is_bad_input(tmp_path, capsys):
    n = MAX_TUPLE_N + 1
    data = {"n": n, "d": 2, "sigma0": "()", "sigmaInf": "()", "sigma1": "()", "taus": []}
    path = write_tuple(tmp_path, data)
    for command in ("validate", "profile"):
        result = run([command, "--file", path])
        assert result.status == "Error"
        assert any(f"n <= {MAX_TUPLE_N}" in d for d in result.diagnostics)
        assert main([command, "--file", path]) == 2
    assert run(["zannier", "--n", str(n), "--d", "2"]).status == "Error"
    capsys.readouterr()


def test_tuple_points_bound_is_bad_input(tmp_path, capsys):
    argv = ["zannier", "--n", "1000", "--d", "1000"]
    result = run(argv)
    assert (result.status, result.diagnostics) == (
        "Error", [f"need 2n * (d + 2) <= {MAX_TUPLE_POINTS}, got 2004000"]
    )
    assert main(argv) == 2
    data = {"n": 20_000, "d": 2, "sigma0": "()", "sigmaInf": "()", "sigma1": "()", "taus": ["()"] * 48}
    path = write_tuple(tmp_path, data)
    want = [f"tuple JSON needs 2n * entries <= {MAX_TUPLE_POINTS}, got 2040000"]
    for command in ("validate", "profile"):
        result = run([command, "--file", path])
        assert (result.status, result.diagnostics) == ("Error", want)
        assert main([command, "--file", path]) == 2
        with mock.patch("sys.stdin", stdin_of(json.dumps(data))):
            assert run([command]).diagnostics == want
    capsys.readouterr()


@pytest.mark.parametrize("exponent", [str(MAX_DEGREE + 1), "9" * 5000], ids=["one past", "5000 digits"])
def test_exponent_past_degree_bound_is_bad_input(exponent, capsys):
    text = f"t^{exponent}"
    want = [f"polynomial error: exponent past the degree bound {MAX_DEGREE} (at position 2)"]
    for argv in (
        ["verify", "--A", text, "--B", "1", "--D", "t^4-1"],
        ["seed", "--A", text],
        ["ramify", "--f", text, "--at", "0"],
    ):
        result = run(argv)
        assert (result.status, result.diagnostics) == ("Error", want), argv[0]
        assert main(argv) == 2
    capsys.readouterr()


def test_render_human_mode():
    result = CommandResult("Ok", {"x": 1}, ["note text"])
    text = render(result, as_json=False)
    assert text.splitlines()[0] == "status: Ok"
    assert "note: note text" in text


# Strings with JSON's escapes, control characters, DEL, non-ASCII, astral
# characters and lone surrogates (argv carries them via surrogateescape).
json_text = st.text(st.sampled_from('ab"\\/\x00\x08\t\n\x1f\x7f\x80\xe9\u2028\u20ac\ud800\udcff\U0001f600'), max_size=6)
json_scalar = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(max_value=-(10**40)), json_text
)
json_tree = st.recursive(
    json_scalar,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(json_text, inner, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=400, deadline=None)
@given(json_tree, st.lists(json_text, max_size=3))
@example({}, [])
@example([[], {}, ()], ["\udcff"])
@example({"b": [1, {"a": ""}], "a": (True, None, -(10**50))}, ["x"])
def test_render_is_json_dumps_in_both_modes(payload, diagnostics):
    result = CommandResult("Ok", payload, diagnostics)
    body = {"schema": "pellab/1", "status": "Ok", "payload": payload, "diagnostics": diagnostics}
    assert render(result, as_json=True) == json.dumps(body, sort_keys=True, separators=(",", ":"))
    shown = [] if payload is None else [json.dumps(payload, sort_keys=True, indent=2)]
    lines = ["status: Ok", *shown, *(f"note: {d}" for d in diagnostics)]
    assert render(result, as_json=False) == "\n".join(lines)


def test_render_after_a_failed_render_of_the_same_body():
    # A render that raises must leave nothing behind: a shared circular-check
    # memo would still hold the body's containers and refuse the next render.
    payload = {"x": [10**5000 - 1]}
    result = CommandResult("Ok", payload, [])
    for as_json in (True, False):
        with pytest.raises(ValueError):
            render(result, as_json)
    payload["x"][0] = 1
    assert render(result, as_json=True) == '{"diagnostics":[],"payload":{"x":[1]},"schema":"pellab/1","status":"Ok"}'
    assert render(result, as_json=False) == 'status: Ok\n{\n  "x": [\n    1\n  ]\n}'


def test_decompose_finds_root_with_large_leading_coefficient():
    # (c t^2, 1, c^2 t^4 - 1) raised to the 5th power: the witness needs the
    # exact 5th root of a leading coefficient of about 670 bits.
    c = 10**40 + 7
    base = verify_pell(Poly([0, 0, c]), ONE, Poly([-1, 0, 0, 0, c * c]))
    powered = power_solution(base, 5)
    result = run(
        ["decompose", "--A", format_poly(powered.A), "--B", format_poly(powered.B), "--D", format_poly(powered.D)]
    )
    assert result.status == "Ok"
    assert result.payload["witnesses"]["5"] == f"{c}*t^2"
    assert result.payload["primitive"] is False


def test_parser_is_built_once_and_reused():
    assert build_parser() is build_parser()
    good = ["census", "--n", "4", "--json"]
    alone = render(run(good), as_json=True)
    for bad in (
        ["census", "--n", "four"],
        ["census", "--n", "4", "--bogus"],
        ["verify", "--A", "t^2", "--file"],
        ["profile", "--file", "missing.json", "--json"],
        [],
    ):
        assert run(bad).status == "Error"
        assert render(run(good), as_json=True) == alone


def write_tuple(tmp_path, data):
    path = tmp_path / "tuple.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def test_profile_rejects_invalid_tuple(tmp_path, capsys):
    # The product of this tuple is (1,5)(3,7), not the identity, yet its
    # entries pass the m = 2 power test.
    path = write_tuple(
        tmp_path,
        {
            "n": 4,
            "d": 2,
            "sigma0": "(1,8)(2,7)(3,6)(4,5)",
            "sigmaInf": "(1,8,7,6,5,4,3,2)",
            "sigma1": "(1,3)(5,7)",
            "taus": ["(2,6)"],
        },
    )
    assert main(["profile", "--file", path]) == 1
    capsys.readouterr()
    result = run(["profile", "--file", path])
    assert result.status == "Rejected"
    assert result.diagnostics == ["failed: ProductIdentity"]
    assert result.payload == run(["validate", "--file", path]).payload


def test_nonpositive_n_is_bad_input(tmp_path, capsys):
    # A d past n fails FixedPointCount anyway (sigma1 fixes at most 2n
    # points), and that check formats 2d: a 4300-digit d would stop it at
    # CPython's limit on integer string conversion.
    data = tuple_to_json_dict(zannier_tuple(4, 2))
    for n, d in ((0, 2), (-2, 2), (4, 5), (4, int("9" * 4300))):
        path = write_tuple(tmp_path, dict(data, n=n, d=d))
        for command in ("validate", "profile"):
            result = run([command, "--file", path])
            assert result.status == "Error", (n, command)
            assert main([command, "--file", path]) == 2
            assert any("n >= d >= 1" in x for x in result.diagnostics)
            assert not any("integer string conversion" in x for x in result.diagnostics)
    capsys.readouterr()


def test_non_integer_n_or_d_is_bad_input(tmp_path):
    # int() would read 4.9 as 4 and true as 1, turning the file into a
    # different tuple instead of refusing it.
    data = tuple_to_json_dict(zannier_tuple(4, 2))
    for changes in ({"n": 4.9, "d": True}, {"n": 4.9}, {"d": True}, {"n": "4"}, {"d": 2.0}):
        path = write_tuple(tmp_path, dict(data, **changes))
        for command in ("validate", "profile"):
            result = run([command, "--file", path])
            assert result.status == "Error", (changes, command)
            assert main([command, "--file", path]) == 2
            assert any("integer n and d" in d for d in result.diagnostics)


cycle_text = st.one_of(
    st.lists(
        st.lists(st.integers(min_value=-1, max_value=14), min_size=0, max_size=5),
        max_size=6,
    ).map(lambda cs: "".join("(" + ",".join(map(str, c)) + ")" for c in cs) or "()"),
    st.text(alphabet="(),0123456789 x", max_size=20),
    # A point past int()'s 4300-digit limit.
    st.integers(min_value=4301, max_value=5000).map(lambda k: "(1," + "1" * k + ")"),
    st.integers(),
    st.none(),
)

odd_numbers = ["4", "four", "", None, 2.5, float("inf"), float("-inf"), [], {}, True]

field_values = {
    "n": st.one_of(st.integers(min_value=-3, max_value=7), st.sampled_from(odd_numbers)),
    "d": st.one_of(st.integers(min_value=-2, max_value=4), st.sampled_from(odd_numbers)),
    "sigma0": cycle_text,
    "sigmaInf": cycle_text,
    "sigma1": cycle_text,
    "taus": st.one_of(st.lists(cycle_text, max_size=3), cycle_text),
}


@st.composite
def tuple_json(draw):
    """A staircase tuple, maybe relabelled, with some fields replaced or
    dropped."""
    n = draw(st.integers(min_value=2, max_value=6))
    t = zannier_tuple(n, draw(st.integers(min_value=2, max_value=n)))
    g = Perm(draw(st.permutations(list(range(1, 2 * n + 1)))))
    if draw(st.booleans()):
        t = HurwitzTuple(*(conjugate(p, g) for p in (t.sigma0, t.sigmaInf, t.sigma1)),
                         tuple(conjugate(tau, g) for tau in t.taus), t.n, t.d)
    data = tuple_to_json_dict(t)
    for key in draw(st.sets(st.sampled_from(sorted(field_values)), max_size=2)):
        data[key] = draw(field_values[key])
    for key in draw(st.sets(st.sampled_from(sorted(data)), max_size=1)):
        del data[key]
    return data


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["validate", "profile"]), tuple_json())
def test_tuple_commands_never_raise(command, data):
    with mock.patch("sys.stdin", stdin_of(json.dumps(data))):
        result = run([command, "--json"])
    assert result.status in ("Ok", "Rejected", "Error")
    assert not any("integer string conversion" in d for d in result.diagnostics)
    json.loads(render(result, as_json=True))


# -- random command lines -----------------------------------------------------

small_int = st.sampled_from(["2", "3", "4", "5", "6", "-1", "0", "1", "x", "", "2.5"])
# Coefficients past int()'s 4300-digit limit, by significant digits or by
# leading zeros alone.
long_coeff = st.tuples(st.integers(min_value=4301, max_value=6000), st.sampled_from("01")).map(
    lambda kd: kd[1] * kd[0] + "7"
)
rational = st.one_of(
    st.sampled_from(["0", "1", "-1", "1/2", "-3/4", "1/0", "x", "", "1e100000", "2.5"]),
    long_coeff,
    long_coeff.map(lambda c: "1/" + c),
)
small_poly = st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=9).map(
    lambda cs: format_poly(Poly(cs))
)
poly_text = st.one_of(
    small_poly,
    st.sampled_from(["2*t^3-1", "2*t^3 - 1", "t^2", "1", "2*t", "t^4-1", "t^4 - t", "t^2 - 1"]),
    st.sampled_from(["t^", "t^-1", "1/0", "", "t^2 +", "x", "2t"]),
    st.sampled_from([f"t^{MAX_DEGREE + 1}", f"2*t^0{MAX_DEGREE + 1}", "2*t^" + "9" * 5000]),
    long_coeff.map(lambda c: f"t^2 - {c}*t"),
    st.text(alphabet="t0123456789+-*/() .", max_size=12),
)
OPTIONS = {
    "--A": poly_text,
    "--B": poly_text,
    "--D": poly_text,
    "--f": poly_text,
    "--m": st.one_of(small_int, st.sampled_from([str(MAX_DEGREE + 1), "1000000000", "9" * 4000])),
    "--n": small_int,
    "--d": small_int,
    "--at": rational,
    "--locus-in": st.lists(rational, max_size=3).map(",".join),
    "--file": st.sampled_from(["own", "own", "own", "other", "-", "missing"]),
}
# Values led by "-", which argparse reads in its own ways, and "--".
dashed = st.sampled_from(["--", "-", "-1", "-2", "-1.5", "-t + 1", "--json", "-h"])
SOLUTION = (("--file",), ("--A", "--B", "--D"))
COMMANDS = {  # each command's usual option sets, then options that may come on top
    "verify": (SOLUTION, ("--allow-d1", "--A", "--file")),
    "seed": ((("--A",),), ("--allow-d1",)),
    "power": (tuple(("--m", *o) for o in SOLUTION), ("--allow-d1", "--m")),
    "decompose": (SOLUTION, ("--allow-d1", "--D")),
    "ramify": ((("--f", "--at"), ("--f", "--locus-in")), ("--at", "--locus-in")),
    "zannier": ((("--n", "--d"),), ("--d",)),
    "validate": ((("--file",), ()), ("--file",)),
    "profile": ((("--file",), ()), ("--file",)),
    "census": ((("--n",),), ("--brute-force", "--no-brute-force")),
}
coeff_items = st.one_of(
    st.integers(min_value=-5, max_value=5).map(str),
    long_coeff,
    st.sampled_from(
        ["1/2", "-3/4", "1/0", "x", "", "1e100000", "2.5", 3, 2.5, float("inf"), None, True, [], {}]
    ),
)
SOLUTIONS = (
    {"A": ["0", "0", "1"], "B": ["1"], "D": ["-1", "0", "0", "0", "1"]},
    {"A": ["-1", "0", "0", "2"], "B": ["0", "2"], "D": ["0", "-1", "0", "0", "1"]},
)


@st.composite
def solution_json(draw):
    """The text of a Pell solution with a field maybe replaced or dropped,
    or of no solution object at all, one an array nested too deeply."""
    data = dict(draw(st.sampled_from(SOLUTIONS)))
    for key in draw(st.sets(st.sampled_from(["A", "B", "D"]), max_size=2)):
        data[key] = draw(st.one_of(st.lists(coeff_items, max_size=4), coeff_items))
    for key in draw(st.sets(st.sampled_from(["A", "B", "D"]), max_size=1)):
        del data[key]
    return draw(st.one_of(
        st.just(json.dumps(data)),
        st.just(json.dumps({"payload": data})),
        st.sampled_from(["[]", "3", '"x"']),
        st.just(NESTED),
    ))


@st.composite
def command_line(draw):
    """One subcommand with one of its usual option sets, maybe more options,
    each value as --opt value or --opt=value, and now and then a missing
    value, a "-"-led value or "--", or an unknown flag."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    usual, extra = COMMANDS[command]
    argv = [command]
    options = [*draw(st.sampled_from(usual)), *draw(st.lists(st.sampled_from(extra), max_size=1))]
    for option in options:
        if option in OPTIONS and draw(st.integers(min_value=0, max_value=19)):
            value = draw(OPTIONS[option] if draw(st.integers(min_value=0, max_value=4)) else dashed)
            argv += draw(st.sampled_from([[option, value], [f"{option}={value}"]]))
        else:
            argv.append(option)
    if draw(st.booleans()):
        argv.append("--json")
    if not draw(st.integers(min_value=0, max_value=9)):
        argv.insert(draw(st.integers(min_value=0, max_value=len(argv))), "--bogus")
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("argv")


@settings(max_examples=400, deadline=None)
@given(command_line(), solution_json(), st.one_of(tuple_json(), st.sampled_from([[], "x"])))
@example(["census", "--n=--"], "{}", [])
@example(["validate", "--file=--"], "{}", [])
@example(["ramify", "--f", "t", "--at=--"], "{}", [])
@example(["seed", "--A=--"], "{}", [])
def test_random_command_lines_never_raise(fuzz_dir, argv, solution, tuple_data):
    own, other = ("tuple", "solution") if argv[0] in ("validate", "profile") else ("solution", "tuple")
    files = {"solution": solution, "tuple": json.dumps(tuple_data)}
    for name, text in files.items():
        (fuzz_dir / f"{name}.json").write_text(text, encoding="utf-8")
    paths = {key: str(fuzz_dir / f"{name}.json")
             for key, name in (("own", own), ("other", other), ("missing", "missing"))}
    argv = [paths.get(arg, arg) if prev == "--file" else arg for prev, arg in zip([None, *argv], argv)]
    argv = [f"--file={paths.get(arg[7:], arg[7:])}" if arg.startswith("--file=") else arg for arg in argv]
    with mock.patch("sys.stdin", stdin_of("")):
        result = run(argv)
    assert result.status in ("Ok", "Rejected", "Error")
    assert not any("integer string conversion" in d for d in result.diagnostics)
    render(result, as_json=True)
    render(result, as_json=False)


def test_non_decimal_digit_in_tuple_file_is_bad_input(tmp_path, capsys):
    # "²" passes str.isdigit but not int(): the error names its position.
    data = dict(tuple_to_json_dict(zannier_tuple(6, 2)), sigma1="(1,²)")
    path = write_tuple(tmp_path, data)
    for command in ("validate", "profile"):
        result = run([command, "--file", path])
        assert result.status == "Error"
        assert result.diagnostics == ["expected a point number (at position 3)"]
        assert main([command, "--file", path]) == 2
    capsys.readouterr()


def test_long_point_in_tuple_file_is_bad_input(tmp_path, capsys):
    # A point past int()'s 4300-digit limit is a range fault with a position.
    data = dict(tuple_to_json_dict(zannier_tuple(6, 2)), sigma1="(1," + "1" * 5000 + ")")
    path = write_tuple(tmp_path, data)
    for command in ("validate", "profile"):
        result = run([command, "--file", path])
        assert result.status == "Error"
        assert result.diagnostics == ["point of 5000 digits out of range 1..12 (at position 3)"]
        assert main([command, "--file", path]) == 2
    capsys.readouterr()


def test_long_coefficient_is_read_or_positioned_bad_input(capsys):
    # Leading zeros do not count toward int()'s digit limit; more significant
    # digits than it is a polynomial error with a position, not CPython's.
    limit = sys.get_int_max_str_digits()
    result = run(["ramify", "--f", "t^2", "--at", "1/" + "0" * (limit + 100) + "7"])
    assert result.status == "Ok"
    assert result.payload["at"] == "1/7"
    A = "t^2 - " + "1" * (limit + 101)
    result = run(["verify", "--A", A, "--B", "1", "--D", "t^4 - 1"])
    assert result.status == "Error"
    assert result.diagnostics == [
        f"polynomial error: coefficient of {limit + 101} digits past the {limit}-digit limit (at position 6)"
    ]
    assert main(["verify", "--A", A, "--B", "1", "--D", "t^4 - 1"]) == 2
    past = f"coefficient of {limit + 1} digits past the {limit}-digit limit (at position 2)"
    for option, text, diagnostic in (
        ("--at", "1/" + "2" * (limit + 1), f"bad rational --at: {past}"),
        ("--locus-in", "0,1/" + "2" * (limit + 1), f"bad rational --locus-in item 1: {past}"),
    ):
        result = run(["ramify", "--f", "t^2", option, text])
        assert result.status == "Error"
        assert result.diagnostics == [diagnostic]
    capsys.readouterr()
