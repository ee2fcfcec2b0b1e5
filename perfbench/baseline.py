"""Record a BENCH_<label>.json baseline, or smoke-test the benchmark.

    python3 perfbench/baseline.py --label seed [--seed 1] [--seconds 36]
    python3 perfbench/baseline.py --smoke

A record runs every workload once untraced and once traced and keeps the
printed metrics with the fields {schema, label, python, nproc, commit, seed,
seconds, end_to_end, layers, digest}.  digest is each workload's SHA-256 over
the rendered --json output of round 0's op list, in op order: a later commit
run with the same seed must give the same digest for byte-identical output.
The smoke run uses the smallest size (--seconds 1, 2 rounds), asserts that
every metric named in BENCHMARK.json is printed with its unit, that two
traced runs give the same work counts, and that all three runs give the same
digest.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Work counts must repeat exactly between traced runs of the same code.
COUNT_SUFFIXES = (".calls", ".tuples", ".hits", ".coeff_ops", ".coeff_bits_max")
DIGEST_LINE = "output sha256 of round 0: "


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, str]:
    """The run's final JSON object and its output digest."""
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr[-2000:]}")
    print(out.stdout, end="", flush=True)
    lines = out.stdout.strip().splitlines()
    digest = next(line.split(DIGEST_LINE)[1] for line in lines if DIGEST_LINE in line)
    return json.loads(lines[-1]), digest


def check_metrics(result: dict, section: str, where: str) -> None:
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = result["metrics"]
    assert set(got) == set(want), f"{where}: metrics {sorted(set(got) ^ set(want))} differ"
    for name, unit in want.items():
        value = got[name]["value"]
        assert got[name]["unit"] == unit, f"{where}: {name} unit {got[name]['unit']}"
        assert isinstance(value, (int, float)), f"{where}: {name} = {value!r}"
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"], where


def commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def smoke() -> None:
    for w in WORKLOADS:
        plain, digest = run(w, 1, 1, 0)
        check_metrics(plain, "end_to_end", f"{w} untraced")
        (first, d1), (second, d2) = run(w, 1, 1, 1), run(w, 1, 1, 1)
        check_metrics(first, "per_layer", f"{w} traced")
        for name, m in first["metrics"].items():
            if name.endswith(COUNT_SUFFIXES):
                again = second["metrics"][name]["value"]
                assert m["value"] == again, f"{w}: {name} {m['value']} then {again}"
        assert digest == d1 == d2, f"{w}: output digests {digest}, {d1}, {d2} differ"
    print("smoke: every named metric printed; traced counts and output digests repeat")


def record(label: str, seed: int, seconds: float) -> None:
    rec = {
        "schema": "perfbench/1",
        "label": label,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit(),
        "seed": seed,
        "seconds": seconds,
        "end_to_end": {},
        "layers": {},
        "digest": {},
    }
    for w in WORKLOADS:
        (plain, digest), (traced, _) = run(w, seed, seconds, 0), run(w, seed, seconds, 1)
        check_metrics(plain, "end_to_end", w)
        check_metrics(traced, "per_layer", w)
        rec["end_to_end"][w] = plain
        rec["layers"][w] = traced
        rec["digest"][w] = digest
    path = Path(__file__).resolve().parent / f"BENCH_{label}.json"
    path.write_text(json.dumps(rec, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--label")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    args = ap.parse_args()
    if args.smoke:
        smoke()
    elif args.label:
        record(args.label, args.seed, args.seconds)
    else:
        ap.error("need --smoke or --label")


if __name__ == "__main__":
    main()
