from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pellab.census import BRUTE_DEFAULT_MAX
from pellab.cli import CommandResult, build_parser, main, render, run
from pellab.exactpoly import ONE, Poly, format_poly, from_coeff_strings, parse_poly
from pellab.hurwitz import MAX_TUPLE_N, HurwitzTuple, tuple_to_json_dict, zannier_tuple
from pellab.pellcore import power_solution, verify_pell
from pellab.permgroup import Perm

from oracles import conjugate


def run_json(argv):
    result = run(argv)
    return result, json.loads(render(result, as_json=True))


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
def test_json_lines_match_golden_fixture(case, capsys):
    """The --json line of each polynomial command, byte for byte, as
    recorded in tests/fixtures/cli_golden.json."""
    code = main(case["argv"])
    assert capsys.readouterr().out == case["line"] + "\n"
    assert code == {"Ok": 0, "Rejected": 1, "Error": 2}[json.loads(case["line"])["status"]]


def python_m(module, argv):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", module, *argv], capture_output=True, env=env, timeout=60)


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


def test_decompose_flags_rational_primitive():
    result = run(["decompose", "--A", "t^2", "--B", "1", "--D", "t^4-1"])
    assert result.status == "Ok"
    assert result.payload["primitive"] is True
    assert any("rational-primitive" in d for d in result.diagnostics)

    result = run(["decompose", "--A", "2*t^4-1", "--B", "2*t^2", "--D", "t^4-1"])
    assert result.payload["witnesses"] == {"2": "t^2"}
    assert result.payload["primitive"] is False
    assert result.diagnostics == []


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
    result, body = run_json(["zannier", "--n", "4", "--d", "2"])
    assert result.status == "Ok"
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
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(body["payload"])))
    result = run(["profile"])
    assert result.status == "Ok"
    assert result.payload["admissible"] == [2, 3]
    assert result.payload["profile"] == []


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
    assert run(with_value(" +3 ")) == run(with_value("3"))
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


def test_render_human_mode():
    result = CommandResult("Ok", {"x": 1}, ["note text"])
    text = render(result, as_json=False)
    assert text.splitlines()[0] == "status: Ok"
    assert "note: note text" in text


def test_decompose_finds_root_with_large_leading_coefficient():
    # (c t^2, 1, c^2 t^4 - 1) raised to the 5th power: the witness needs the
    # exact 5th root of a leading coefficient of about 670 bits.
    c = 10**40 + 7
    base = verify_pell(Poly([0, 0, c]), ONE, Poly([-1, 0, 0, 0, c * c]))
    powered = power_solution(base, 5)
    result = run(
        ["decompose", "--A", str(powered.A), "--B", str(powered.B), "--D", str(powered.D)]
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


def test_nonpositive_n_is_bad_input(tmp_path):
    for n in (0, -2):
        data = {"n": n, "d": 2, "sigma0": "()", "sigmaInf": "()", "sigma1": "()", "taus": []}
        path = write_tuple(tmp_path, data)
        for command in ("validate", "profile"):
            result = run([command, "--file", path])
            assert result.status == "Error", (n, command)
            assert any("n >= 1" in d for d in result.diagnostics)


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
    with mock.patch("sys.stdin", io.StringIO(json.dumps(data))):
        result = run([command, "--json"])
    assert result.status in ("Ok", "Rejected", "Error")
    assert not any("integer string conversion" in d for d in result.diagnostics)
    json.loads(render(result, as_json=True))


# -- random command lines -----------------------------------------------------

small_int = st.sampled_from(["2", "3", "4", "5", "6", "-1", "0", "1", "x", "", "2.5"])
rational = st.sampled_from(["0", "1", "-1", "1/2", "-3/4", "1/0", "x", "", "1e100000", "2.5"])
small_poly = st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=9).map(
    lambda cs: format_poly(Poly(cs))
)
poly_text = st.one_of(
    small_poly,
    st.sampled_from(["2*t^3-1", "2*t^3 - 1", "t^2", "1", "2*t", "t^4-1", "t^4 - t", "t^2 - 1"]),
    st.sampled_from(["t^", "t^-1", "1/0", "", "t^2 +", "x", "2t"]),
    st.text(alphabet="t0123456789+-*/() .", max_size=12),
)
OPTIONS = {
    "--A": poly_text,
    "--B": poly_text,
    "--D": poly_text,
    "--f": poly_text,
    "--m": small_int,
    "--n": small_int,
    "--d": small_int,
    "--at": rational,
    "--locus-in": st.lists(rational, max_size=3).map(",".join),
    "--file": st.sampled_from(["own", "own", "own", "other", "-", "missing"]),
}
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
    """A Pell solution with a field maybe replaced or dropped, or no solution
    object at all."""
    data = dict(draw(st.sampled_from(SOLUTIONS)))
    for key in draw(st.sets(st.sampled_from(["A", "B", "D"]), max_size=2)):
        data[key] = draw(st.one_of(st.lists(coeff_items, max_size=4), coeff_items))
    for key in draw(st.sets(st.sampled_from(["A", "B", "D"]), max_size=1)):
        del data[key]
    return draw(st.one_of(st.just(data), st.just({"payload": data}), st.sampled_from([[], 3, "x"])))


@st.composite
def command_line(draw):
    """One subcommand with one of its usual option sets, maybe more options,
    and now and then a missing value or an unknown flag."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    usual, extra = COMMANDS[command]
    argv = [command]
    options = [*draw(st.sampled_from(usual)), *draw(st.lists(st.sampled_from(extra), max_size=1))]
    for option in options:
        argv.append(option)
        if option in OPTIONS and draw(st.integers(min_value=0, max_value=19)):
            argv.append(draw(OPTIONS[option]))
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
def test_random_command_lines_never_raise(fuzz_dir, argv, solution, tuple_data):
    own, other = ("tuple", "solution") if argv[0] in ("validate", "profile") else ("solution", "tuple")
    files = {"solution": solution, "tuple": tuple_data}
    for name, data in files.items():
        (fuzz_dir / f"{name}.json").write_text(json.dumps(data), encoding="utf-8")
    paths = {key: str(fuzz_dir / f"{name}.json")
             for key, name in (("own", own), ("other", other), ("missing", "missing"))}
    argv = [paths.get(arg, arg) if prev == "--file" else arg for prev, arg in zip([None, *argv], argv)]
    with mock.patch("sys.stdin", io.StringIO("")):
        result = run(argv)
    assert result.status in ("Ok", "Rejected", "Error")
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
