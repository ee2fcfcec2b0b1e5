"""The library keeps in src only what a command reaches, plus a short
allowlist.  Starting from cli.main, the walk follows every name and
module-attribute reference through the top-level definitions of the
modules of src/pellab (not the package's __init__ and __main__); the
definitions it never reaches must be exactly UNREACHED.  Code that only the
tests call belongs in tests/oracles.py."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "pellab"

UNREACHED = {
    ("exactpoly", "resultant"): "library API, documented in the README",
    ("exactpoly", "discriminant"): "library API, documented in the README",
    ("exactpoly", "poly_sqrt"): "library API, documented in the README",
    ("exactpoly", "X"): "library API: the polynomial t",
    ("permgroup", "is_ell_imprimitive"): "perfbench's profile oracle",
    ("permgroup", "BlockPartition"): "perfbench's profile oracle",
    ("permgroup", "preserves_partition"): "perfbench's profile oracle",
    ("permgroup", "NeedFullCycle"): "perfbench's profile oracle",
    ("permgroup", "NotADivisor"): "perfbench's profile oracle",
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
    aliases its relative imports bind."""
    defs, names, aliases = {}, {}, {}
    for path in sorted(SRC.glob("[!_]*.py")):
        mod = path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defs[mod], names[mod], aliases[mod] = {}, {}, {}
        for node in tree.body:
            for name in _defined_names(node):
                defs[mod][name] = node
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    bound = a.asname or a.name
                    if node.module is None:
                        aliases[mod][bound] = a.name
                    else:
                        names[mod][bound] = (node.module, a.name)
    return defs, names, aliases


def reached_definitions() -> tuple[set, set]:
    defs, names, aliases = _read_modules()
    everything = {(mod, name) for mod in defs for name in defs[mod]}
    seen = set()
    stack = [("cli", "main")]
    while stack:
        mod, name = stack.pop()
        if (mod, name) in seen:
            continue
        seen.add((mod, name))
        for ref in ast.walk(defs[mod][name]):
            target = None
            if isinstance(ref, ast.Name):
                if ref.id in defs[mod]:
                    target = (mod, ref.id)
                else:
                    target = names[mod].get(ref.id)
            elif isinstance(ref, ast.Attribute) and isinstance(ref.value, ast.Name):
                other = aliases[mod].get(ref.value.id)
                if other is not None:
                    target = (other, ref.attr)
            if target in everything:
                stack.append(target)
    return seen, everything


def test_only_the_allowlist_is_unreached_from_the_cli():
    reached, everything = reached_definitions()
    assert ("pellcore", "classify_powers") in reached
    assert ("permgroup", "rotate") in reached
    assert everything - reached == set(UNREACHED)
