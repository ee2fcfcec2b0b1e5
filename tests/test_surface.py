"""The library keeps in src only what a command reaches, plus a short
allowlist.  Starting from cli.main, the walk follows every name and
module-attribute reference through the top-level definitions of the
modules of src/pellab, the package root among them (not __main__ nor the
root's module hooks); the definitions it never reaches must be exactly
UNREACHED, and each reason names the ROADMAP item that will empty its
entry.  The walk sees methods too: a reached class's method or property is
reached, and walked, only once its name is read as an attribute in reached
code, or when PINNED, whose reasons name a ROADMAP item as well; its
dunders are the ones its DUNDERS entry gives a reason for, and only Poly
defines __eq__, __hash__ or __setattr__.  Code that only the tests call
belongs in tests/oracles.py.  The walk follows relative imports inside
function bodies too, since the CLI imports each library module in the
handlers that use it; `from . import name` reaches the root's name when
the root defines it.  A fresh interpreter's start-up, importing the CLI
and building its parser, must not import `dataclasses`, `inspect`,
`argparse`, `json` or any library module, each command loads only the
modules it runs, only help and bad command lines load argparse, and only
commands that read JSON load json.  Neither start-up nor a command
imports `__future__`, no src module names `NamedTuple` or `namedtuple`
or calls `eval`, `exec` or `compile`: the records, Perm and
BlockPartition among them, are tuple subclasses of `pellab._Record`,
whose fields, repr, construction, copy, pickle and tuple behaviour are
pinned here.  Every backticked `module.NAME` in README.md names a
top-level definition of that module, and every kernel tests/ledger.py
wraps names a function of src.  The same walk from the solution
text functions of exactpoly and from parse_poly reaches no Fraction.  Only
exactpoly._fraction_class, behind Poly.coeffs, imports fractions or
decimal, and no solution command loads either."""

from __future__ import annotations

import ast
import copy
import json
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

from pellab.hurwitz import tuple_to_json_dict, zannier_tuple

from oracles import replace

SRC = Path(__file__).parent.parent / "src" / "pellab"

UNREACHED = {
    ("exactpoly", "poly_sqrt"): "reached once decompose answers over C (ROADMAP item 4)",
    ("permgroup", "is_ell_imprimitive"): "perfbench's profile oracle until ROADMAP item 1",
    ("permgroup", "BlockPartition"): "perfbench's profile oracle until ROADMAP item 1",
    ("permgroup", "preserves_partition"): "perfbench's profile oracle until ROADMAP item 1",
    ("permgroup", "NeedFullCycle"): "perfbench's profile oracle until ROADMAP item 1",
    ("permgroup", "NotADivisor"): "perfbench's profile oracle until ROADMAP item 1",
}


def _defined_names(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _read_modules():
    """Per module: its top-level definitions, and the names and module
    aliases its relative imports bind, at the top level or in a function.
    The root, __init__.py, is the module pellab: `from . import name`
    binds the root's definition when it defines name, and the submodule
    otherwise."""
    trees = {}
    for path in sorted(SRC.glob("*.py")):
        if path.stem != "__main__":
            trees["pellab" if path.stem == "__init__" else path.stem] = ast.parse(path.read_text(encoding="utf-8"))
    defs = {mod: {name: node for node in tree.body for name in _defined_names(node)} for mod, tree in trees.items()}
    names, aliases = {}, {}
    for mod, tree in trees.items():
        names[mod], aliases[mod] = {}, {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    bound = a.asname or a.name
                    if node.module is not None:
                        names[mod][bound] = (node.module, a.name)
                    elif a.name in defs["pellab"]:
                        names[mod][bound] = ("pellab", a.name)
                    else:
                        aliases[mod][bound] = a.name
    return defs, names, aliases


# The root's module hooks: Python, not the code, reads them.
ROOT_HOOKS = {("pellab", name) for name in ("__getattr__", "__all__", "__version__")}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


# The dunders each class of src defines, and why each is kept.  Python calls
# them, not a name in the code, so the walk enters them with their class.
RECORD_NEW = {"__new__": "the record's fields, in order"}
DUNDERS = {
    ("pellab", "_Record"): {
        "__init_subclass__": "binds each subclass's fields to tuple accessors",
        "__repr__": "the repr Name(field=value, ...) of every record",
        "__getnewargs__": "copy and pickle rebuild a record from its fields; tuple's own hands them the whole tuple",
    },
    ("permgroup", "Perm"): {
        "__new__": "the checked constructor, which perfbench calls on image lists until ROADMAP item 1",
        "__call__": "p(i), the image of a point",
        "__repr__": "doctests and failing tests print Perm.from_cycles(...)",
    },
    ("permgroup", "BlockPartition"): {"__new__": "the checked constructor of the block record"},
    ("permgroup", "CycleParseError"): {"__init__": "the message with its position, and .pos"},
    ("exactpoly", "PolyParseError"): {"__init__": "the message with its position, .message and .pos"},
    ("exactpoly", "Poly"): {
        "__new__": "Poly(coeffs) reads rational arguments",
        "__add__": "a ring operation",
        "__neg__": "a ring operation",
        "__sub__": "a ring operation",
        "__mul__": "a ring operation",
        "__pow__": "a ring operation",
        "__repr__": "Poly('text')",
        "__eq__": "value equality: Poly is a slots class, not a tuple",
        "__hash__": "the hash of the stored pair",
        "__setattr__": "immutability, which a tuple would give but with len, order and repetition",
    },
    ("cli", "_Reader"): {"__init__": "the empty command table"},
    ("cli", "CommandResult"): RECORD_NEW,
    ("cli", "_Option"): RECORD_NEW,
    ("cli", "_Command"): RECORD_NEW,
    ("hurwitz", "HurwitzTuple"): RECORD_NEW,
    ("pellcore", "RejectionReason"): RECORD_NEW,
    ("pellcore", "PellSolution"): RECORD_NEW,
    ("pellcore", "PowerClassification"): RECORD_NEW,
}

# Methods and properties that no command reaches, kept for a caller outside
# src; the walk enters them with their class.
PINNED = {("exactpoly", "Poly", "coeffs"): "perfbench's tracer reads it until ROADMAP item 1"}


def reached_definitions(start=(("cli", "main"),), leaves=()) -> tuple[set, set, set, set]:
    """The top-level definitions reached from start, all of them, the class
    members reached, and the attribute names read in reached code.  A class
    is reached when its name is; its dunders (DUNDERS) and PINNED members
    with it, and each other method or property once its name is read as an
    attribute (obj.name) in reached code.  A method is walked only once
    reached; a definition in leaves is reached but not walked into."""
    defs, names, aliases = _read_modules()
    everything = {(mod, name) for mod in defs for name in defs[mod]} - ROOT_HOOKS
    seen, members, used = set(), set(), set()
    waiting: dict[str, list] = {}  # attribute name -> members not yet reached
    stack = [(mod, name, None) for mod, name in start]

    def reach_member(mod, cls, node):
        members.add((mod, f"{cls}.{node.name}"))
        stack.append((mod, None, node))

    while stack:
        mod, name, node = stack.pop()
        if node is None:
            if (mod, name) in seen:
                continue
            seen.add((mod, name))
            if (mod, name) in leaves:
                continue
            node = defs[mod][name]
            if isinstance(node, ast.ClassDef):
                parts = [*node.bases, *node.keywords, *node.decorator_list]
                for stmt in node.body:
                    if not isinstance(stmt, ast.FunctionDef):
                        parts.append(stmt)
                    elif _is_dunder(stmt.name) or (mod, name, stmt.name) in PINNED or stmt.name in used:
                        reach_member(mod, name, stmt)
                    else:
                        waiting.setdefault(stmt.name, []).append((mod, name, stmt))
                stack.extend((mod, None, part) for part in parts)
                continue
        for ref in ast.walk(node):
            target = None
            if isinstance(ref, ast.Name):
                if ref.id in defs[mod]:
                    target = (mod, ref.id)
                else:
                    target = names[mod].get(ref.id)
            elif isinstance(ref, ast.Attribute):
                if isinstance(ref.ctx, ast.Load):
                    used.add(ref.attr)
                    for member in waiting.pop(ref.attr, ()):
                        reach_member(*member)
                if isinstance(ref.value, ast.Name):
                    other = aliases[mod].get(ref.value.id)
                    if other is not None:
                        target = (other, ref.attr)
            if target in everything:
                stack.append((*target, None))
    return seen, everything, members, used


def test_only_the_allowlist_is_unreached_from_the_cli():
    reached, everything, _, _ = reached_definitions()
    assert ("pellcore", "classify_powers") in reached
    assert ("census", "_orbit_sums") in reached
    assert {("pellab", "admissible_exponents"), ("pellab", "_significant"), ("pellab", "_Record")} <= reached
    assert everything - reached == set(UNREACHED)


def test_solution_text_path_builds_no_fraction():
    # Solution text is printed and read, and polynomial text read, as
    # integer pairs.  Poly is a leaf: its coeffs is the Fraction edge, so
    # the path reads no Fraction coefficient, and it builds a Poly only
    # through _poly, not by the constructor's _pair.
    defs = _read_modules()[0]
    text_path = [
        ("exactpoly", n) for n in ("from_coeff_strings", "coeff_strings_and_text", "format_poly", "parse_poly")
    ]
    reached = reached_definitions(text_path, leaves={("exactpoly", "Poly")})[0]
    for mod, name in reached - {("exactpoly", "Poly")}:
        for node in ast.walk(defs[mod][name]):
            assert not (isinstance(node, ast.Name) and node.id in ("Rat", "Fraction")), name
            assert not (isinstance(node, ast.Attribute) and node.attr == "coeffs"), name
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                assert node.func.id != "Poly", name
    assert {("exactpoly", "_poly"), ("exactpoly", "_rational_pair")} <= reached


def test_each_unreached_reason_names_the_item_that_empties_it():
    for entry, reason in (*UNREACHED.items(), *PINNED.items()):
        assert re.search(r"\bROADMAP item \d+\b", reason), entry


def test_reached_classes_keep_only_reached_members():
    # Each method or property of a class the CLI reaches is itself reached,
    # through its name read as an attribute, or PINNED, and no reached code
    # reads a PINNED name; each dunder of src is in its class's DUNDERS
    # entry, and each entry names only what its class defines.  Only Poly hand-writes
    # equality, hashing and immutability: the other value types are records.
    defs = _read_modules()[0]
    reached, _, members, used = reached_definitions()
    classes = {(mod, name): node for mod in defs for name, node in defs[mod].items() if isinstance(node, ast.ClassDef)}
    unreached, dunders = [], {}
    for (mod, name), node in classes.items():
        methods = {stmt.name for stmt in node.body if isinstance(stmt, ast.FunctionDef)}
        dunders[mod, name] = {m for m in methods if _is_dunder(m)}
        if (mod, name) in reached:
            unreached += [(mod, name, m) for m in methods if (mod, f"{name}.{m}") not in members]
    assert unreached == []
    assert {key: names for key, names in dunders.items() if names} == {key: set(d) for key, d in DUNDERS.items()}
    assert all((mod, f"{name}.{m}") in members and m not in used for mod, name, m in PINNED)
    assert {("permgroup", "Perm.size"), ("permgroup", "Perm.from_cycles"), ("exactpoly", "Poly.degree")} <= members
    owners = {key for key, names in dunders.items() if names & {"__eq__", "__hash__", "__setattr__"}}
    assert owners == {("exactpoly", "Poly")}


def test_readme_names_only_existing_definitions():
    # A backticked `module.NAME` in README.md names a top-level definition;
    # `pellab.NAME` names one of the root's, or a module.
    defs = _read_modules()[0]
    readme = (SRC.parent.parent / "README.md").read_text(encoding="utf-8")
    named = {(m, name) for m, name in re.findall(r"`(\w+)\.(\w+)`", readme) if m in defs}
    assert {("exactpoly", "MAX_DEGREE"), ("pellab", "_Record")} <= named
    assert {(m, name) for m, name in named if name not in defs[m] and not (m == "pellab" and name in defs)} == set()


def test_ledger_kernels_are_functions_of_src():
    # tests/ledger.py wraps each of its kernels by name; a name src no
    # longer defines fails here rather than printing no count.
    import ledger

    defs = _read_modules()[0]
    assert all(name in defs[module] for module, _, name in (k.rpartition(".") for k in ledger.KERNELS))
    assert list(ledger.resolve(ledger.KERNELS)) == list(ledger.KERNELS)
    with pytest.raises(LookupError, match="census._no_such_kernel"):
        ledger.resolve(["census._no_such_kernel"])


# Runs the code in argv[2] in a fresh interpreter with src on its path, and
# prints, on its last line, the modules that loaded, as a repr: the harness
# itself imports nothing, so it hides no module from the snapshot.
STARTUP = """\
import sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
exec(sys.argv[2])
print(repr(sorted(set(sys.modules) - before)))
"""
PARSER = "import pellab.cli\npellab.cli.build_parser()"
LIBRARY = {f"pellab.{m}" for m in ("census", "exactpoly", "hurwitz", "pellcore", "permgroup")}


def _loaded(code: str) -> set[str]:
    out = subprocess.run(
        [sys.executable, "-I", "-c", STARTUP, str(SRC.parent), code],
        stdin=subprocess.DEVNULL, capture_output=True, text=True, check=True,
    )
    return set(ast.literal_eval(out.stdout.splitlines()[-1]))


def test_startup_imports_neither_dataclasses_nor_inspect():
    # Each command runs in a fresh process; importing these two was about
    # half of its start-up.
    added = _loaded(PARSER)
    assert "pellab.cli" in added
    assert not {"dataclasses", "inspect"} & added


def test_startup_and_commands_load_no_future(tmp_path):
    # `from __future__ import annotations` is a real import at run time:
    # site has not loaded __future__.
    assert "__future__" not in _loaded(PARSER)
    tuple_path, solution_path = tmp_path / "tuple.json", tmp_path / "solution.json"
    tuple_path.write_text(json.dumps(tuple_to_json_dict(zannier_tuple(6, 3))), encoding="utf-8")
    solution_path.write_text(json.dumps({"A": ["-1", "0", "0", "2"], "B": ["0", "2"], "D": ["0", "-1", "0", "0", "1"]}), encoding="utf-8")
    for argv in (
        ["census", "--n", "6", "--json"],
        ["validate", "--file", str(tuple_path)],
        ["verify", "--file", str(solution_path), "--json"],
    ):
        added = _loaded(PARSER + f"\npellab.cli.main({argv!r})")
        assert "pellab.cli" in added and "__future__" not in added, argv


def test_no_module_imports_future_or_names_namedtuple():
    # A static guard on every src module: annotations evaluate where they
    # are defined, and the records are _Record subclasses, neither
    # typing.NamedTuple nor collections.namedtuple, so defining one runs
    # no generated code.  No module runs text as code either: the builtins
    # eval, exec and compile appear nowhere (re.compile is an attribute).
    offenders = set()
    paths = sorted(SRC.glob("*.py"))
    assert paths
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                offenders.add((path.stem, "__future__"))
            words = {getattr(node, attr, None) for attr in ("id", "attr", "name", "asname")}
            offenders.update((path.stem, word) for word in words & {"NamedTuple", "namedtuple"})
            if isinstance(node, ast.Name) and node.id in ("eval", "exec", "compile"):
                offenders.add((path.stem, node.id))
    assert offenders == set()


RECORDS = {
    ("cli", "CommandResult"): ("status", "payload", "diagnostics"),
    ("cli", "_Option"): ("flag", "dest", "kind", "help", "required", "const"),
    ("cli", "_Command"): ("help", "handler", "options"),
    ("pellcore", "RejectionReason"): ("kind", "message"),
    ("pellcore", "PellSolution"): ("A", "B", "D", "n", "d"),
    ("pellcore", "PowerClassification"): ("n", "admissible_m", "witnesses"),
    ("hurwitz", "HurwitzTuple"): ("sigma0", "sigmaInf", "sigma1", "taus", "n", "d"),
    ("permgroup", "Perm"): ("images", "ctype"),
    ("permgroup", "BlockPartition"): ("N", "ell", "blocks"),
}
# Fields that the checked constructors accept; the other records take any.
CHECKED_FIELDS = {
    "Perm": ((2, 3, 1, 4), (1, 3)),
    "BlockPartition": (4, 2, (frozenset({1, 3}), frozenset({2, 4}))),
}


def test_records_keep_their_fields_and_tuple_behaviour():
    from pellab import _Record, cli, hurwitz, pellcore, permgroup

    modules = {"cli": cli, "hurwitz": hurwitz, "pellcore": pellcore, "permgroup": permgroup}
    for (mod, name), fields in RECORDS.items():
        record = getattr(modules[mod], name)
        assert (record.__name__, record._fields) == (name, fields)
        assert record.__bases__ == (_Record,), name
        args = CHECKED_FIELDS.get(name, tuple(range(len(fields))))
        value = record(*args)
        assert not hasattr(value, "__dict__"), name
        assert value == args and isinstance(value, tuple)
        if name != "Perm":  # a Perm prints as the cycle text that builds it
            assert repr(value) == f"{name}(" + ", ".join(map("{}={!r}".format, fields, args)) + ")"
        assert record(**dict(zip(fields, args))) == value
        assert [getattr(value, f) for f in fields] == list(args)
        for wrong in (len(fields) - len(record.__new__.__defaults__ or ()) - 1, len(fields) + 1):
            with pytest.raises(TypeError):
                record(*range(wrong))
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is record and twin == value, name
    assert repr(permgroup.Perm((2, 3, 1, 4))) == "Perm.from_cycles(4, '(1,2,3)')"
    assert cli._Option.__new__.__defaults__ == (None, False, None)
    assert permgroup.Perm.__new__.__defaults__ == (None,)
    assert cli._Option("--n", "n", "integer") == ("--n", "n", "integer", None, False, None)
    t = zannier_tuple(4, 2)
    assert t.gens() == [t.sigma0, t.sigmaInf, t.sigma1, *t.taus] and t.points == 8
    classification = pellcore.PowerClassification(4, frozenset({2, 4}), {})
    assert classification.primitive
    assert not replace(classification, witnesses={2: None}).primitive


def test_importing_the_package_loads_no_submodule():
    added = _loaded("import pellab\nassert pellab.census.__name__ == 'pellab.census'")
    assert "pellab.census" in added
    assert {m for m in _loaded("import pellab") if m.startswith("pellab.")} == set()


def test_building_the_parser_loads_no_library_module():
    # The handlers import what they run; the integer option type reads its
    # digits without exactpoly.
    assert not (LIBRARY | {"fractions", "decimal"}) & _loaded(PARSER)


def test_census_loads_no_polynomial_or_tuple_module():
    # census reads its weights from CF and builds no Perm, so it loads no
    # other library module, permgroup included.
    added = _loaded(PARSER + "\npellab.cli.main(['census', '--n', '6', '--json'])")
    assert LIBRARY & added == {"pellab.census"}
    assert "fractions" not in added


def test_validate_loads_neither_census_nor_polynomial_modules(tmp_path):
    # hurwitz reads admissible_exponents from the root, not from pellcore.
    path = tmp_path / "tuple.json"
    path.write_text(json.dumps(tuple_to_json_dict(zannier_tuple(6, 3))), encoding="utf-8")
    added = _loaded(PARSER + f"\npellab.cli.main(['validate', '--file', {str(path)!r}])")
    assert "pellab.hurwitz" in added
    assert not {"pellab.census", "pellab.exactpoly", "pellab.pellcore", "fractions"} & added


def test_solution_commands_load_only_the_solution_modules(tmp_path):
    # Rationals are integer pairs from the text to the envelope, so no
    # solution command loads fractions, nor the decimal and numbers it
    # imports; a file adds only the json package that reads it.  The first
    # Fraction a caller asks a Poly for loads fractions.
    allowed = {"pellab.exactpoly", "pellab.pellcore"}
    path = tmp_path / "solution.json"
    path.write_text(json.dumps({"A": ["-1", "0", "0", "2"], "B": ["0", "2"], "D": ["0", "-1", "0", "0", "1"]}), encoding="utf-8")
    before = _loaded(PARSER)
    reads_json = _loaded(PARSER + "\nimport json") - before
    for argv in (
        ["seed", "--A", "2*t^3 - 1", "--json"],
        ["verify", "--A", "2*t^3 - 1", "--B", "2*t", "--D", "t^4 - t", "--json"],
        ["verify", "--file", str(path), "--json"],
        ["power", "--m", "3", "--A", "2*t^3 - 1", "--B", "2*t", "--D", "t^4 - t", "--json"],
        ["decompose", "--A", "18*t^2 - 1", "--B", "6*t", "--D", "9*t^2 - 1", "--allow-d1", "--json"],
        ["ramify", "--f", "t^3 - 3*t", "--at=-6/3", "--json"],
        ["ramify", "--f", "t^3 - 3*t", "--locus-in", "2, -2/1", "--json"],
    ):
        added = _loaded(PARSER + f"\npellab.cli.main({argv!r})") - before
        assert "pellab.exactpoly" in added
        assert added <= allowed | (reads_json if "--file" in argv else set()), argv
    poly = "import pellab.exactpoly\np = pellab.exactpoly.Poly([(1, 2), '2/3'])\n"
    assert "fractions" not in _loaded(poly + "print(p * p - pellab.exactpoly.constant((-3, 4)))")
    assert "fractions" in _loaded(poly + "p.coeffs")


def test_only_the_fraction_accessor_imports_fractions_or_decimal():
    # A static guard on every path, reached by a command line or not: only
    # exactpoly._fraction_class, behind Poly.coeffs, imports fractions
    # (which imports decimal and numbers), and
    # the old Fraction aliases Rat and RatLike appear nowhere.
    lazy = {"fractions", "decimal", "numbers"}
    importers, aliases = set(), set()
    paths = sorted(SRC.glob("*.py"))
    assert paths
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Import):
                    roots = {a.name.split(".")[0] for a in node.names}
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    roots = {node.module.split(".")[0]}
                else:
                    roots = set()
                if roots & lazy:
                    importers.add((path.stem, (_defined_names(top) or [None])[0]))
                words = {getattr(node, attr, None) for attr in ("id", "attr", "arg", "name", "asname")}
                if words & {"Rat", "RatLike"}:
                    aliases.add((path.stem, (_defined_names(top) or [None])[0]))
    assert importers == {("exactpoly", "_fraction_class")}
    assert aliases == set()


# Each function of src that calls itself, with the bound on its depth.
RECURSIVE = {
    "census._brute_leaves.<locals>.descend": "one level per pair of points, n <= BRUTE_DEFAULT_MAX",
    "cli._indented": "one level per level of nesting of the payload",
}


def _self_calls(node: ast.AST, qualname: str, own: "str | None", found: set) -> None:
    """Add to found the qualname of each function below node whose body
    calls it by name, or as self.name or cls.name; own is the innermost
    function's name."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            _self_calls(child, f"{qualname}.{child.name}", None, found)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _self_calls(child, f"{qualname}.{child.name}.<locals>", child.name, found)
        else:
            if isinstance(child, ast.Call) and (
                isinstance(child.func, ast.Name) and child.func.id == own
                or isinstance(child.func, ast.Attribute) and child.func.attr == own
                and isinstance(child.func.value, ast.Name) and child.func.value.id in ("self", "cls")
            ):
                found.add(qualname.removesuffix(".<locals>"))
            _self_calls(child, qualname, own, found)


def test_src_is_exact_and_calls_itself_only_to_a_stated_depth():
    # Every number in src is an int or a pair of them: no true division,
    # no float() and no float literal.  A function calls itself only if
    # RECURSIVE states how deep it goes.
    inexact, recursive = [], set()
    paths = sorted(SRC.glob("*.py"))
    assert paths
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (
                isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
                or isinstance(node, ast.Name) and node.id == "float"
                or isinstance(node, ast.Constant) and isinstance(node.value, float)
            ):
                inexact.append((path.stem, node.lineno))
        _self_calls(tree, path.stem, None, recursive)
    assert inexact == []
    assert recursive == set(RECURSIVE)


def test_only_commands_that_read_json_load_json(tmp_path):
    # The envelope is written by the C encoder of _json; the json package
    # (about half of start-up) loads only where a file or stdin is read.
    assert "json" not in _loaded(PARSER)
    for argv in (
        ["census", "--n", "6", "--json"],
        ["zannier", "--n", "6", "--d", "3", "--json"],
        ["seed", "--A", "2*t^3 - 1", "--json"],
        ["verify", "--A", "2*t^3 - 1", "--B", "2*t", "--D", "t^4 - t"],
    ):
        added = _loaded(PARSER + f"\npellab.cli.main({argv!r})")
        assert "pellab.cli" in added and "json" not in added, argv
    path = tmp_path / "tuple.json"
    path.write_text(json.dumps(tuple_to_json_dict(zannier_tuple(6, 3))), encoding="utf-8")
    assert "json" in _loaded(PARSER + f"\npellab.cli.main(['validate', '--file', {str(path)!r}])")


ARGPARSE = {"argparse", "gettext", "locale"}


def test_building_the_parser_loads_no_argparse():
    # argparse, with the gettext and locale it imports, was about two
    # thirds of start-up.
    assert not ARGPARSE & _loaded(PARSER)


def test_plain_command_lines_load_no_argparse(tmp_path):
    # Every golden line, one line of each other command and lines with
    # "-"-led values ("-" reads the empty stdin) are read off the option
    # table, so no entry falls off the fast path unnoticed; a bad command
    # line still loads argparse, which words its error.
    from pellab.cli import build_parser

    path = tmp_path / "tuple.json"
    path.write_text(json.dumps(tuple_to_json_dict(zannier_tuple(6, 3))), encoding="utf-8")
    golden = json.loads((SRC.parent.parent / "tests" / "fixtures" / "cli_golden.json").read_text(encoding="utf-8"))
    lines = [case["argv"] for case in golden] + [
        ["validate", "--file", str(path)],
        ["profile", f"--file={path}", "--json"],
        ["zannier", "--n", "6", "--d=3"],
        ["census", "--n", "6", "--json"],
        ["census", "--no-brute-force", "--n=4"],
        ["census", "--n", "-1"],
        ["ramify", "--f", "t", "--at", "-2"],
        ["power", "--m", "-2", "--A", "t", "--B", "1", "--D", "t^2-1"],
        ["seed", "--A", "-t^3 + 1"],
        ["verify", "--file", "-"],
    ]
    for argv in lines:
        assert build_parser().read(argv) is not None, argv
    assert not ARGPARSE & _loaded(PARSER + f"\nfor argv in {lines!r}:\n    pellab.cli.main(argv)")
    assert "argparse" in _loaded(PARSER + "\npellab.cli.main(['census', '--n', 'four'])")
