"""pellab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload census|powers|checks --seed N \
        --seconds S --trace 0|1

Drives the pellab commands in-process through pellab.cli.run and render, as
a closed loop with one client: each op starts when the previous one has
finished, nothing runs in parallel; each op runs on the next of the CPUs the
run may use, in turn.  Every op's rendered --json output is checked.  An op whose check fails, or that raises out of cli.run, is a
failed op.

A run is R = --seconds / ROUND_S rounds (2 to MAX_ROUNDS) of the workload's
op list (see workloads.py), so the work done depends on the seed and
--seconds alone, never on how fast the code is.  Other processes on the
machine only ever add time, and on a shared machine they add a lot: the same
decompose at degree 96 took 2.05 s to 2.89 s over ten repeats, and the
machine's speed swings by a third or more from second to second and drifts
over minutes, so runs a few minutes apart differed by a fifth.  Two things
take that out:

  * Every time is scaled to a reference speed.  The ops run in groups of
    at least CAL_GROUP_S seconds, each on one CPU; a fixed calibration loop
    (pure Python, garbage collection off, no pellab code) runs just before
    and just after each group, and the group's times are multiplied by
    CAL_REF_S over the mean of the two calibration times.  A set-up sample
    is scaled the same way.  On a quiet machine the factor is near 1; it
    cancels the machine's speed, not the program's.  The report gives the
    unscaled wall time and the median factor too.
  * The run reports medians over all its rounds and executions:

    setup_s    median over fresh interpreters, SETUP_PER_ROUND before each
               round, of importing pellab and building the CLI parser
    wall_s     median over the rounds of the time to finish the op list
    op_p50_s   median latency over all executions of the run (R x ops)
    op_tail_s  median latency over the rounds of the op at the tail: with
               the ops ranked by their medians, the slowest op that leaves
               at least 10 executions beyond it (a powers slot counts as
               one op; it draws fresh inputs every round)

Untraced (--trace 0), the run reports these and peak_rss_mb.
Traced (--trace 1), the first round's op list runs three times: untraced to
warm caches, traced with every public function of the six pellab modules
wrapped (see tracer.py), and untraced again; the overhead ratio is the traced
time over the faster untraced one.  The op list is made before the tracer is
installed, so the benchmark's own input making and checks are never counted;
the work counts are the same on every traced run of the same code and seed.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics named in BENCHMARK.json, with their units.  The lines before it
are a readable report that also gives error_ratio, the tail percentile and
a SHA-256 over the rendered output of round 0's op list, in op order, so two
commits can be compared for byte-identical output.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURE = ROOT / "tests" / "fixtures" / "census_n8.json"
# Seconds one round takes at the seed commit on a 2-core x86-64 machine
# in its slower phases.
ROUND_S = {"census": 6.5, "powers": 3.5, "checks": 6.0}
MAX_ROUNDS = 20
SETUP_PER_ROUND = 3
TAIL_BEYOND = 10  # executions beyond the tail
# The CPUs the run may use.  Each group of ops and each set-up sample moves to
# the next one, so that the CPU the scheduler happens to keep a run on does not
# decide its figures: on a shared 2-core machine one CPU ran a quarter slower
# than the other for minutes at a time.
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
_turns = itertools.count()

# The calibration loop's time at the reference speed, about its median on a
# shared 2-core x86-64 machine, and the op time between two calibrations.
CAL_REF_S = 0.004
CAL_GROUP_S = 0.25

# Run in a fresh interpreter: import pellab and build the CLI parser.
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import pellab.cli
pellab.cli.build_parser()
print(time.perf_counter() - t0)
"""


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def next_cpu() -> None:
    if len(CPUS) > 1:
        os.sched_setaffinity(0, {CPUS[next(_turns) % len(CPUS)]})


def calibration_seconds() -> float:
    """The time of a fixed piece of interpreter work: Fraction arithmetic,
    small tuples and a dict, with the garbage collector off so that the heap
    the program left behind does not change it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc, held = Fraction(0), []
        for i in range(1, 600):
            acc += Fraction(i, i + 1)
            held.append(tuple(range(i % 16)))
        table: dict[int, int] = {}
        for i in range(8000):
            table[i % 997] = (table.get(i % 997, 0) * 31 + i) & 0xFFFF
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def speed_factor(before: float, after: float) -> float:
    return 2 * CAL_REF_S / (before + after)


def setup_seconds() -> float:
    """A fresh interpreter's time to import pellab and build the CLI parser,
    scaled to the reference speed."""
    next_cpu()
    before = calibration_seconds()
    out = subprocess.run(
        [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
        capture_output=True, text=True, timeout=120,
    )
    if out.returncode != 0:
        fail(f"set-up interpreter failed: {out.stderr.strip()[-400:]}")
    return float(out.stdout) * speed_factor(before, calibration_seconds())


class Runner:
    """Executes rounds of one workload's op list and keeps every op's
    latency, scaled to the reference speed, in every round."""

    def __init__(self, cli):
        self.cli = cli
        self.latencies: list[list[float]] = []  # [round][op]
        self.by_slot: dict[int, list[float]] = {}  # slot -> latency in each round
        self.unscaled: list[float] = []  # each round's time as the clock read it
        self.factors: list[float] = []  # each group's speed factor
        self.failures: list[str] = []
        self.raised = 0
        self.digest = hashlib.sha256()

    def run_round(self, ops) -> float:
        first = not self.latencies
        row, group, unscaled = [], [], 0.0
        for k, op in enumerate(ops):
            if not group:
                next_cpu()
                before = calibration_seconds()
            t0 = time.perf_counter()
            try:
                text = self.cli.render(self.cli.run(op.argv), True)
            except Exception as exc:  # a traceback out of the CLI is a failed op
                dt = time.perf_counter() - t0
                text = None
                reason = f"raised {type(exc).__name__}: {str(exc)[:120]}"
                self.raised += 1
            else:
                dt = time.perf_counter() - t0
                reason = op.check(json.loads(text))
            group.append((op.slot, dt))
            if reason:
                self.failures.append(f"{' '.join(op.argv[:3])}: {reason}")
            if first:
                self.digest.update((text if text is not None else "raised").encode() + b"\n")
            if k == len(ops) - 1 or sum(d for _, d in group) >= CAL_GROUP_S:
                factor = speed_factor(before, calibration_seconds())
                self.factors.append(factor)
                for slot, d in group:
                    row.append(d * factor)
                    self.by_slot.setdefault(slot, []).append(d * factor)
                    unscaled += d
                group = []
        self.latencies.append(row)
        self.unscaled.append(unscaled)
        return sum(row)

    @property
    def attempted(self) -> int:
        return sum(map(len, self.latencies))


def end_to_end(runner: Runner, op_lists, rounds: int) -> dict:
    setup = []
    for ops in itertools.islice(op_lists, rounds):
        # set-up samples spread over the run, as the machine's speed drifts
        for _ in range(SETUP_PER_ROUND):
            setup.append(setup_seconds())
        runner.run_round(ops)
    executions = list(itertools.chain.from_iterable(runner.latencies))
    # A single execution at the tail rank is one draw of a noisy machine;
    # the median of its op over the rounds is not.
    ranked = sorted((statistics.median(v), len(v)) for v in runner.by_slot.values())
    beyond = 0
    while len(ranked) > 1 and beyond < TAIL_BEYOND:
        beyond += ranked.pop()[1]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(map(sum, runner.latencies)),
        "op_p50_s": statistics.median(executions),
        "op_tail_s": ranked[-1][0],
        "_tail_pct": 100.0 * (1 - beyond / len(executions)),
        "_tail_beyond": beyond,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(runner: Runner, ops, pellab) -> dict:
    from tracer import Tracer

    warm = runner.run_round(ops)  # warms caches, as all but the first of R rounds are
    tr = Tracer(pellab)
    tr.install()
    try:
        traced = runner.run_round(ops)
    finally:
        tr.uninstall()
    plain = runner.run_round(ops)

    brute_tuples = tr.count("census.brute_force_enumerate.tuples")
    m = {
        "cli.run.self_s": tr.self_seconds("cli.run"),
        "cli.render.s": tr.seconds("cli.render"),
        "census.census.self_s": tr.self_seconds("census.census"),
        "census.brute_force_enumerate.tuples": brute_tuples,
        "census.brute.perms_per_tuple":
            tr.count("census.brute.perms") / brute_tuples if brute_tuples else 0.0,
        "census.enumerate_shapes.tuples": tr.count("census.enumerate_shapes.tuples"),
        "permgroup.Perm.calls": tr.calls("permgroup.Perm"),
        "permgroup.Perm.s": tr.seconds("permgroup.Perm"),
        "hurwitz.power_test.hits": tr.count("hurwitz.power_test.hits"),
        "exactpoly.mul.coeff_ops": tr.count("exactpoly.mul.coeff_ops"),
        "exactpoly.coeff_bits_max": tr.count("exactpoly.coeff_bits_max"),
        "pellcore.extract_mth_root.hits": tr.count("pellcore.extract_mth_root.hits"),
        "trace.overhead_ratio": traced / min(warm, plain),
    }
    for key in ("census.brute_force_enumerate", "census.enumerate_shapes",
                "census.conjugacy_classes", "census.canonical_key",
                "census.primitive_disjoint_classes", "hurwitz.validate",
                "hurwitz.normalize_special", "exactpoly.mul", "exactpoly.compose",
                "exactpoly.divrem", "exactpoly.resultant",
                "exactpoly.squarefree_decomposition", "pellcore.extract_mth_root",
                "pellcore.power_solution", "pellcore.chebyshev",
                "pellcore.generate_from_seed", "pellcore.verify_pell"):
        m[f"{key}.s"] = tr.seconds(key)
    for key in ("census.canonical_key", "permgroup.compose", "permgroup.conjugate",
                "permgroup.inverse", "permgroup.cycles", "permgroup.parse_cycles",
                "permgroup.preserves_partition", "hurwitz.validate", "hurwitz.power_test",
                "exactpoly.mul", "pellcore.extract_mth_root", "exactpoly.divrem",
                "exactpoly.gcd"):
        m[f"{key}.calls"] = tr.calls(key)
    for short in ("permgroup", "hurwitz", "pellcore", "exactpoly"):
        m[f"{short}.self_s"] = tr.module_self_seconds(short)
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(ROUND_S))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    rounds = max(2, round(args.seconds / ROUND_S[args.workload]))
    if rounds > MAX_ROUNDS:
        fail(f"--seconds {args.seconds:g} asks for {rounds} rounds, more than {MAX_ROUNDS}")

    if not (SRC / "pellab" / "cli.py").is_file():
        fail(f"no pellab sources under {SRC}; run from a checkout of the repository")
    if not FIXTURE.is_file():
        fail(f"missing {FIXTURE}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    os.environ.pop("PELLAB_BRUTE_MAX", None)  # the default brute-force bound

    sys.path.insert(0, str(SRC))
    import pellab
    import pellab.cli

    if Path(pellab.__file__).resolve().parent != SRC / "pellab":
        fail(f"imported pellab from {pellab.__file__}, not from {SRC}")
    import workloads

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        inputs = workloads.Inputs(workdir, json.loads(FIXTURE.read_text(encoding="utf-8")))
        runner = Runner(pellab.cli)
        op_lists = workloads.rounds(args.workload, args.seed, inputs)
        if args.trace:
            values, section = per_layer(runner, next(op_lists), pellab), "per_layer"
        else:
            values, section = end_to_end(runner, op_lists, rounds), "end_to_end"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = runner.attempted, len(runner.failures)
    mode = "traced" if args.trace else "untraced"
    print(f"workload {args.workload}  seed {args.seed}  {mode}  closed loop, 1 client  "
          f"rounds {len(runner.latencies)} x {len(runner.latencies[0])} ops")
    for name in sorted(values):
        if not name.startswith("_"):
            print(f"  {name:44s} {values[name]:.6g}")
    if not args.trace:
        print(f"  unscaled wall_s {statistics.median(runner.unscaled):.6g}, speed factor "
              f"median {statistics.median(runner.factors):.4f} over {len(runner.factors)} groups")
        print(f"  op_tail_s is p{values['_tail_pct']:.1f} of {attempted} executions "
              f"({rounds} rounds x {len(runner.latencies[0])} ops): the median of the op "
              f"with {values['_tail_beyond']} executions of slower ops beyond it")
    print(f"  error_ratio {failed / attempted:.4f}  ({failed} of {attempted} ops failed; "
          f"{runner.raised} raised out of cli.run)")
    print(f"  output sha256 of round 0: {runner.digest.hexdigest()}")
    for reason in runner.failures[:5]:
        print(f"  failed: {reason}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
