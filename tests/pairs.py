"""A/B pairs: run the benchmark on a parent commit and on this checkout's
working tree, alternated, and compare each metric pair by pair.

    python tests/pairs.py PARENT --workload census --seed 7 41 --pairs 10
    python tests/pairs.py HEAD~1 --workload powers checks --pairs 3 --trace 1

Run it from anywhere inside the repository.  PARENT is any git ref; its
committed files are written by `git archive` into a temporary directory,
and the working tree's files that git tracks or would track (not those it
ignores, such as __pycache__) are copied beside them, so that both sides
start from source alone; the directory is removed at the end.  For each
workload and seed the two trees take
turns running `perfbench/run.py` with the same arguments, the parent first
in even pairs and the working tree first in odd ones, one process at a
time, and the last line of each run's output is read as its JSON result.
Nothing under perfbench/ is written to.

For each metric the report gives both sides' median with its quartiles
[Q1, Q3], the change of the median, how many pairs the working tree is
lower in, and each pair's values, parent -> change; times are shown in
ms.  It also gives the ops that failed on each side and whether every run
printed the same round-0 output digest.  The exit status is 1 when an op
failed or the digests differ, else 0.
"""

import argparse
import json
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

DIGEST = re.compile(r"output sha256 of round 0: (\w+)")


def spread(values: list) -> tuple:
    """Median, Q1 and Q3 of values (quartiles by statistics.quantiles).

    >>> spread([1.0, 2.0, 3.0, 4.0, 5.0])
    (3.0, 1.5, 4.5)
    >>> spread([2.0])
    (2.0, 2.0, 2.0)
    """
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def compare(parent: list, change: list, unit: str) -> str:
    """One report line for a metric's pairs, parent[i] against change[i].

    >>> print(compare([1.0, 1.2, 1.1], [0.9, 1.0, 1.2], "count"))
    1.1 [1, 1.2] -> 1 [0.9, 1.2] count: -9.1 %, lower in 2/3; gap 0.1, parent IQR 0.2
      pairs: 1->0.9, 1.2->1, 1.1->1.2
    """
    scale, unit = (1e3, "ms") if unit == "s" else (1, unit)
    p, c = spread(parent), spread(change)
    fmt = lambda x: f"{x * scale:.4g}"
    lower = sum(b < a for a, b in zip(parent, change))
    pct = 100 * (c[0] - p[0]) / p[0] if p[0] else 0.0
    return (
        f"{fmt(p[0])} [{fmt(p[1])}, {fmt(p[2])}] -> {fmt(c[0])} [{fmt(c[1])}, {fmt(c[2])}] {unit}: "
        f"{pct:+.1f} %, lower in {lower}/{len(parent)}; "
        f"gap {fmt(abs(c[0] - p[0]))}, parent IQR {fmt(p[2] - p[1])}\n"
        f"  pairs: " + ", ".join(f"{fmt(a)}->{fmt(b)}" for a, b in zip(parent, change))
    )


def bench(tree: Path, args: list) -> tuple:
    """One run of tree's perfbench/run.py: its JSON result and digest."""
    out = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), *args],
        cwd=tree, stdout=subprocess.PIPE, text=True, check=True,
    ).stdout
    digest = DIGEST.search(out)
    return json.loads(out.strip().splitlines()[-1]), digest and digest.group(1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="git ref of the parent commit")
    ap.add_argument("--workload", nargs="+", default=["census", "powers", "checks"])
    ap.add_argument("--seed", nargs="+", type=int, default=[7])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path(subprocess.run(
        ["git", "rev-parse", "--show-toplevel"], capture_output=True, text=True, check=True
    ).stdout.strip())
    scratch = Path(tempfile.mkdtemp(prefix="pairs-"))
    status = 0
    try:
        trees = {"parent": scratch / "parent", "change": scratch / "change"}
        trees["parent"].mkdir()
        archive = subprocess.Popen(["git", "-C", str(root), "archive", args.parent], stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", str(trees["parent"])], stdin=archive.stdout, check=True)
        if archive.wait():
            raise SystemExit(f"git archive {args.parent} failed")
        listed = subprocess.run(
            ["git", "-C", str(root), "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
            capture_output=True, text=True, check=True,
        ).stdout
        for name in filter(None, listed.split("\0")):
            if (root / name).is_file():  # a tracked file deleted in the working tree is left out
                (trees["change"] / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(root / name, trees["change"] / name)
        for workload in args.workload:
            for seed in args.seed:
                run_args = ["--workload", workload, "--seed", str(seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)]
                results = {side: [] for side in trees}
                digests = set()
                for i in range(args.pairs):
                    for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                        result, digest = bench(trees[side], run_args)
                        results[side].append(result)
                        digests.add(digest)
                print(f"{workload}, seed {seed}, {args.pairs} pairs, {args.parent} -> working tree")
                first = results["parent"][0]["metrics"]
                for name, metric in first.items():
                    print(f"  {name}: " + compare(
                        [r["metrics"][name]["value"] for r in results["parent"]],
                        [r["metrics"][name]["value"] for r in results["change"]],
                        metric["unit"],
                    ).replace("\n", "\n  "))
                failed = {side: sum(r["failed"] for r in rs) for side, rs in results.items()}
                same = len(digests) == 1 and None not in digests
                print(f"  failed ops: parent {failed['parent']}, change {failed['change']}; "
                      f"round-0 digests {'match: ' + next(iter(digests)) if same else 'differ: ' + str(sorted(map(str, digests)))}")
                status |= bool(failed["parent"] or failed["change"] or not same)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
