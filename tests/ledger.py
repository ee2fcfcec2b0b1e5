"""Work ledger: run the reference command set in process through cli.run,
with a fixed list of src kernels wrapped, and print what each command made
them do.

    python tests/ledger.py

Run it from anywhere; it puts this checkout's src first on sys.path.  The
commands are the reference set of ROADMAP's north star: census --n 8 (brute
route on), census --n 24 --no-brute-force, power --m 32 on the solution
(2t^3 - 1, 2t, t^4 - t), decompose on that degree-96 power, and zannier
--n 60 --d 2 piped into profile; power and zannier write their --json
answer to a temporary file that the next command reads.  For each command
the ledger prints its status and, for each kernel it called, in KERNELS
order, the calls and the counts KERNELS adds per call: for a product the
coefficient products it takes and the largest operand's bit length, for a
kernel that may give up the calls that returned None, for a reader of
permutation text the points in the text, for a generator the items it
yielded.  A call that raises counts too.  The counts are deterministic: the same tree prints the
same ledger on every run, so a change's ledger before and after shows the
work it saves without any clock.  A kernel name that src does not define
is an error, not a count of 0.  The exit status is 1 when a command does
not answer Ok.
"""

import re
import sys
import tempfile
import types
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _bits(*lists) -> int:
    return max((abs(c).bit_length() for a in lists for c in a), default=0)


def _points(text: str) -> int:
    return len(re.findall(r"\d+", text))


# Each kernel as "module.name" under pellab, with what one call adds beside
# the call itself (None: nothing); a count whose name ends in _max is the
# largest seen, any other the sum.  _pseudo_rem never returns None, so only
# its calls are counted.
KERNELS = {
    "exactpoly._convolve": lambda out, a, b: {"products": len(a) * len(b), "operand_bits_max": _bits(a, b)},
    "exactpoly._square": lambda out, a: {"products": len(a) * (len(a) + 1) // 2, "operand_bits_max": _bits(a)},
    "exactpoly._series_root": lambda out, *args: {"none": out is None},
    "exactpoly._pseudo_rem": None,
    "exactpoly._heuristic_gcd": lambda out, *args: {"none": out is None},
    "exactpoly.from_coeff_strings": lambda out, items: {"coefficients": len(items)},
    "permgroup._read_accepted": lambda out, text, n: {"points": _points(text)},
    "permgroup._walk_cycles": lambda out, text, n: {"points": _points(text)},
    "census._shape_route": None,
    "census._brute_leaves": None,
    "hurwitz.checks": None,
    "hurwitz.primitivity_profile": None,
}

SOLUTION = ["--A", "2*t^3-1", "--B", "2*t", "--D", "t^4-t"]


def commands(folder: Path) -> list:
    """The reference set in order, each command line with the file in
    folder its --json answer is written to, or None."""
    power, zannier = folder / "power.json", folder / "zannier.json"
    return [
        (["census", "--n", "8", "--json"], None),
        (["census", "--n", "24", "--no-brute-force", "--json"], None),
        (["power", "--m", "32", *SOLUTION, "--json"], power),
        (["decompose", "--file", str(power), "--json"], None),
        (["zannier", "--n", "60", "--d", "2", "--json"], zannier),
        (["profile", "--file", str(zannier), "--json"], None),
    ]


def resolve(names) -> dict:
    """Each name's function; a name src does not define as a function
    raises LookupError."""
    import importlib

    found = {}
    for name in names:
        module_name, _, attr = name.rpartition(".")
        module = importlib.import_module(f"pellab.{module_name}")
        fn = getattr(module, attr, None)
        if not isinstance(fn, types.FunctionType):
            raise LookupError(f"ledger kernel {name} is not a function of src/pellab")
        found[name] = fn
    return found


def install(tally: dict) -> None:
    """Wrap every kernel, under each pellab module name bound to it, so that
    its calls land in tally[name]."""
    modules = [m for key, m in sys.modules.items() if key == "pellab" or key.startswith("pellab.")]
    for name, fn in resolve(KERNELS).items():
        wrapped = _counting(fn, tally.setdefault(name, {}), KERNELS[name])
        for module in modules:
            for attr, value in vars(module).items():
                if value is fn:
                    setattr(module, attr, wrapped)


RAISED = object()  # what a call that raised returned, as extra sees it


def _counting(fn, counts: dict, extra):
    def wrapped(*args):
        out = RAISED
        try:
            out = fn(*args)
        finally:
            counts["calls"] = counts.get("calls", 0) + 1
            for key, value in (extra(out, *args) if extra else {}).items():
                merge = max if key.endswith("_max") else int.__add__
                counts[key] = merge(counts.get(key, 0), int(value))
        if isinstance(out, types.GeneratorType):
            return _yielded(out, counts)
        return out

    return wrapped


def _yielded(items, counts: dict):
    counts.setdefault("yielded", 0)
    for item in items:
        counts["yielded"] += 1
        yield item


def main() -> int:
    sys.path.insert(0, str(SRC))
    from pellab import census, cli, exactpoly, hurwitz, pellcore, permgroup  # noqa: F401  (all wrapped)

    tally: dict = {}
    install(tally)
    status = 0
    with tempfile.TemporaryDirectory(prefix="ledger-") as folder:
        for argv, answer in commands(Path(folder)):
            for counts in tally.values():
                counts.clear()
            result = cli.run(argv)
            if answer is not None:
                answer.write_text(cli.render(result, as_json=True), encoding="utf-8")
            status |= result.status != cli.OK
            print(" ".join(a if folder not in a else Path(a).name for a in argv) + f": {result.status}")
            for name, counts in tally.items():
                if counts:
                    print(f"  {name}: " + ", ".join(f"{k} {v:,}" for k, v in counts.items()))
    return status


if __name__ == "__main__":
    sys.exit(main())
