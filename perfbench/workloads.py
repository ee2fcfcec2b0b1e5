"""Seeded op lists for the three workloads, each op with its output check.

A run is R rounds of one op list (see run.py).  census repeats its fixed
list.  powers and checks run the same slots every round with fresh inputs:
no `power` or `decompose` arguments repeat in a run, so a result cache cannot
pass for a kernel speed-up, and an op's median over the rounds is taken over
R inputs of its kind rather than one.  Every round runs the list in a fresh
order, so the op that follows a heavy one, and meets its garbage, changes
from round to round.  The same seed gives the same inputs and orders.

Checks never use pellab to judge pellab, with one exception the benchmark's
definition asks for: the expected `profile` answer comes from
`permgroup.is_ell_imprimitive`, an independent route to the same fact,
computed while the inputs are made and never inside the timed region.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator, Optional

import intpoly as ip
from pellab import permgroup as pg  # the oracle for `profile`, see above

Check = Callable[[dict], Optional[str]]


@dataclass
class Op:
    argv: list[str]
    check: Check  # rendered --json envelope -> None, or why it is wrong
    slot: int = 0  # place in the unshuffled list, the same in every round


class Inputs:
    """Writes input files under one work directory and refuses to hand out
    the same `power` or `decompose` arguments twice in a run."""

    def __init__(self, workdir: Path, fixture: Optional[dict]):
        self.workdir = workdir
        self.fixture = fixture
        self._seen: set[str] = set()
        self._files = 0

    def write(self, obj: dict) -> str:
        self._files += 1
        path = self.workdir / f"in{self._files}.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        return str(path)

    def fresh(self, key: str) -> bool:
        if key in self._seen:
            return False
        self._seen.add(key)
        return True


def status_is(env: dict, want: str) -> Optional[str]:
    if env["status"] != want:
        return f"status {env['status']} (want {want}): {env['diagnostics'][:1]}"
    return None


def rational(rng: random.Random, bits: int) -> Fraction:
    num = rng.randrange(1, 2**bits)
    return Fraction(rng.choice((-num, num)), rng.randrange(1, 2**bits))


def int_poly(rng: random.Random, deg: int, bits: int) -> list[int]:
    lead = rng.randrange(1, 2**bits) * rng.choice((-1, 1))
    return [rng.randint(-(2**bits), 2**bits) for _ in range(deg)] + [lead]


# -- census ---------------------------------------------------------------------
#
# The brute route (n <= 8, the default bound) spends its time in the
# involution scan and Perm construction; the --no-brute-force route at larger
# n in shape enumeration and canonical_key.  A list is every brute n from 2 to
# 8, every shape n from 2 to 17 and shape n = 21, which with n = 8 carries
# most of the time and sets the peak memory.  census takes nothing but n, and
# the list holds nearly every n worth running, so the seed draws only each
# round's order.  It does not draw the heavy n: n = 20 or 21 moved the
# run's peak memory by 8 % and its median and tail by a rank.

CENSUS_PLAN = (  # (n, default brute route)
    *((n, True) for n in range(2, 9)),
    *((n, False) for n in range(2, 18)),
    (21, False),
)


def census_ops(_rng: random.Random, inputs: Inputs) -> list[Op]:
    ops = []
    for n, brute in CENSUS_PLAN:
        argv = ["census", "--n", str(n), "--json"]
        if not brute:
            argv.insert(3, "--no-brute-force")
        ops.append(Op(argv, _census_check(n, brute, inputs.fixture if brute and n == 8 else None)))
    return ops


def _census_check(n: int, brute: bool, fixture: Optional[dict]) -> Check:
    want = {"Disjoint": n // 2, "ThreeCycle": (n - 1) * (n - 2) // 2}

    def check(env):
        bad = status_is(env, "Ok")
        if bad:
            return bad
        p = env["payload"]
        if p["n"] != n or p["discrepancies"]:
            return f"n={n}: discrepancies {p['discrepancies']}"
        for case, counts in p["cases"].items():
            if (counts["brute"] is not None) != brute:
                return f"n={n}: brute route engaged={counts['brute'] is not None}"
            routes = {c for c in (counts["shape"], counts["formula"], counts["brute"]) if c is not None}
            if case in want and routes != {want[case]}:
                return f"n={n}: {case} counts {counts}, want {want[case]}"
        if fixture is not None and p != fixture:
            return "n=8 report differs from tests/fixtures/census_n8.json"
        return None

    return check


# -- powers -----------------------------------------------------------------------
#
# Bases are the known solutions (A, B, D) = (u^2, 1, u^4 - 1) and
# (2u^3 - 1, 2u, u^4 - u) with u = (p/q)t + r.  The substitution keeps them
# solutions and sets the coefficient size: p/q and r are +-num/den with
# num and den of exactly `bits` bits, 3 to 64.  A slot is (base, M, bits, op):
# `power --m M` on the base or `decompose` on its planted M-th power.  Powers
# reach degree 96 with 3-bit substitutions, decompose degree 48; 64-bit
# substitutions give coefficients of several hundred bits at low degree.
# Four ops of degree 40 to 96 carry most of the time and set the tail; the
# median falls on ops of degree 12 to 24.
#
# On `decompose` the shift r keeps `bits` bits, but the scale p/q, which alone
# sets the leading coefficient, has at most scale_bits(): pellab finds the
# exact m-th root of the leading coefficient through a float estimate
# (ROADMAP item 4), which misses the root once it has more than about 50
# bits, so a wider scale makes decompose miss planted witnesses, a failed op.

POWERS_PLAN = (
    (1, 32, 3, "power"),
    (1, 10, 6, "decompose"),
    (0, 20, 4, "decompose"),
    (1, 16, 4, "decompose"),
    (0, 24, 3, "decompose"),
    (0, 24, 6, "power"),
    (1, 16, 4, "power"),
    (0, 16, 4, "decompose"),
    (0, 16, 4, "power"),
    (0, 12, 8, "decompose"),
    (0, 12, 8, "power"),
    (1, 8, 12, "decompose"),
    (1, 8, 12, "power"),
    (0, 12, 16, "decompose"),
    (0, 9, 12, "decompose"),
    (1, 6, 8, "decompose"),
    (1, 6, 16, "power"),
    (0, 8, 8, "decompose"),
    (0, 8, 24, "power"),
    (0, 6, 32, "decompose"),
    (0, 6, 32, "power"),
    (1, 4, 16, "decompose"),
    (1, 4, 48, "power"),
    (1, 3, 64, "decompose"),
    (1, 3, 64, "power"),
    (0, 4, 32, "decompose"),
    (0, 4, 64, "power"),
    (1, 2, 64, "decompose"),
    (0, 3, 64, "power"),
    (1, 6, 4, "decompose"),
)
# Draws per slot before a run gives up on finding arguments it has not
# handed out yet; the smallest pool, 2-bit p/q and 3-bit r, holds 80 inputs.
FRESH_DRAWS = 100
# Bounds of scale_bits(): a float carries 53 bits, and an int beyond about
# 2^1023 does not convert to one.
ROOT_BITS, LEAD_BITS = 40, 1000


def _exact(rng: random.Random, bits: int) -> Fraction:
    """+-p/q in lowest terms, p and q of exactly `bits` bits."""
    while True:
        p, q = (rng.randrange(2 ** (bits - 1), 2**bits) for _ in "pq")
        if math.gcd(p, q) == 1:
            return Fraction(rng.choice((-p, p)), q)


def scale_bits(kind: int, M: int, bits: int) -> int:
    """The widest p/q, at most `bits` bits, that keeps the leading
    coefficient's exact m-th root, for every m >= 3 dividing M, within
    ROOT_BITS bits in numerator and denominator, and the leading coefficient
    itself within LEAD_BITS bits."""
    s, c = (2, 0) if kind == 0 else (3, 1)  # deg of the base A; log2 of its lead

    def fits(b: int) -> bool:
        # lead(T_k(A(u))) = 2^(k-1) * 2^(c k) * (p/q)^(s k)
        roots = (M // m for m in range(3, M + 1) if M % m == 0)
        return (all(k - 1 + c * k + s * k * b <= ROOT_BITS for k in roots)
                and M - 1 + c * M + s * M * b <= LEAD_BITS)

    return next((b for b in range(bits, 1, -1) if fits(b)), 1)


def _planted(rng: random.Random, kind: int, M: int, bits: int, lead_bits: int):
    """Base solution and its M-th power, as (A, B, D) coefficient strings."""
    a, r = _exact(rng, lead_bits), _exact(rng, bits)
    # u = (p/q)t + r = U / L with U integral
    L = a.denominator * r.denominator
    U = [r.numerator * a.denominator, a.numerator * r.denominator]
    if kind == 0:
        s, Y, Bn, b = 2, ip.mul(U, U), [1], 0
        Dn = ip.add(ip.power(U, 4), [-(L**4)])
    else:
        s, Y, Bn, b = 3, ip.add(ip.scale(ip.power(U, 3), 2), [-(L**3)]), ip.scale(U, 2), 1
        Dn = ip.add(ip.power(U, 4), ip.scale(U, -(L**3)))
    D = ip.coeff_strings(Dn, L**4)
    base = {"A": ip.coeff_strings(Y, L**s), "B": ip.coeff_strings(Bn, L**b), "D": D}
    # A_M = T_M(A) and B_M = B * U_{M-1}(A), homogenized in L^s.
    ls2 = L ** (2 * s)
    Y2 = ip.scale(Y, 2)
    p_prev, p_cur = [1], Y
    q_prev, q_cur = [1], Y2
    for _ in range(M - 1):
        p_prev, p_cur = p_cur, ip.add(ip.mul(Y2, p_cur), ip.scale(p_prev, -ls2))
    for _ in range(M - 2):
        q_prev, q_cur = q_cur, ip.add(ip.mul(Y2, q_cur), ip.scale(q_prev, -ls2))
    powered = {
        "A": ip.coeff_strings(p_cur, L ** (s * M)),
        "B": ip.coeff_strings(ip.mul(Bn, q_cur), L ** (b + s * (M - 1))),
        "D": D,
    }
    return s, base, powered


def powers_ops(rng: random.Random, inputs: Inputs) -> list[Op]:
    ops = []
    for kind, M, bits, command in POWERS_PLAN:
        lead_bits = bits if command == "power" else scale_bits(kind, M, bits)
        for _ in range(FRESH_DRAWS):
            s, base, powered = _planted(rng, kind, M, bits, lead_bits)
            if inputs.fresh(json.dumps([M, base])) and inputs.fresh(json.dumps(powered)):
                break
        else:
            raise RuntimeError(f"powers: no unused input for slot {(kind, M, bits)} "
                               f"in {FRESH_DRAWS} draws; too many rounds")
        if command == "power":
            ops.append(Op(["power", "--m", str(M), "--file", inputs.write(base), "--json"],
                          _power_check(M * s, powered["D"])))
        else:
            ops.append(Op(["decompose", "--file", inputs.write(powered), "--json"],
                          _decompose_check(M, M * s, powered["A"])))
    return ops


def _power_check(n: int, D: list[str]) -> Check:
    def check(env):
        bad = status_is(env, "Ok")
        if bad:
            return bad
        p = env["payload"]
        if (p["n"], p["d"]) != (n, 2) or list(map(Fraction, p["D"])) != list(map(Fraction, D)):
            return f"power: n, d or D wrong ({p['n']}, {p['d']})"
        if not ip.pell_holds(p["A"], p["B"], p["D"]):
            return f"power: A^2 - D*B^2 != 1 at degree {n}"
        return None

    return check


def _decompose_check(M: int, n: int, A: list[str]) -> Check:
    admissible = [m for m in range(2, n + 1) if n % m == 0 and n // m >= 2]
    planted = {m for m in range(2, M + 1) if M % m == 0}
    an, ad = ip.int_form(A)

    def check(env):
        bad = status_is(env, "Ok")
        if bad:
            return bad
        p = env["payload"]
        found = {int(m): w for m, w in p["witnesses"].items()}
        if p["n"] != n or p["admissible"] != admissible or p["primitive"] != (not found):
            return f"decompose: n, admissible or primitive wrong at degree {n}"
        missing = sorted(planted - set(found))
        if missing:
            return f"decompose: planted exponent {M} at degree {n}, no witness for m in {missing}"
        for m, text in found.items():
            wn, wd = ip.int_form(ip.parse_human(text))
            signs = set()
            for x in ip.POINTS:
                w, a = ip.horner(wn, x), ip.horner(an, x)
                lhs, rhs = ip.chebyshev_at(w, wd, m) * ad, a * wd**m
                signs.add(1 if lhs == rhs else -1 if lhs == -rhs else 0)
            if len(signs) != 1 or 0 in signs:
                return f"decompose: T_{m}(witness) != +-A at degree {n}"
        return None

    return check


# -- checks -------------------------------------------------------------------------
#
# The same two layers as `powers` and `census`, used differently.  The
# polynomial half is seed, verify and ramify: divrem, gcd, resultant and
# squarefree decomposition at modest degree.  The tuple half is validate and
# profile on large tuples (n = 40..120 on 2n points): zannier tuples, census
# shape tuples and relabelled copies that profile must first conjugate back
# into special form.  A list is BLOCKS blocks; in each the two halves take
# about equal time.

SEED_DEGREES = ((2, 6), (3, 8), (4, 10), (5, 12))  # (deg S, deg R): deg A 10-22
VERIFY_VALID_D = (8, 14)
TUPLE_N = ((40, 60), (61, 90), (91, 120))
TUPLE_COPIES = 14
BLOCKS = 8


def checks_ops(rng: random.Random, inputs: Inputs) -> list[Op]:
    ops = []
    for _ in range(BLOCKS):
        for ds, dr in SEED_DEGREES:
            S, R = int_poly(rng, ds, 2), int_poly(rng, dr, 2)
            A = ip.add([1], ip.mul(ip.mul(S, S), R))  # A - 1 carries the square S^2
            ops.append(Op(["seed", f"--A={ip.human(A)}", "--json"], _seed_check(A)))
        for d in VERIFY_VALID_D:
            ops.append(_verify_op(rng, inputs, d, None))
        for kind in ("NotUnit", "ZeroB", "SmallDegreeD", "NonSquarefreeD"):
            ops.append(_verify_op(rng, inputs, rng.randint(4, 8), kind))
        ops.append(_ramify_at_op(rng))
        ops.append(_ramify_locus_op(rng))
        for lo, hi in TUPLE_N:
            for _ in range(TUPLE_COPIES):
                n = rng.randint(lo, hi)
                t = _zannier(n, rng.randint(2, 5)) if rng.random() < 0.3 else _shape(rng, n)
                if rng.random() < 0.5:
                    t = _relabel(rng, t)
                ops.extend(_tuple_ops(inputs, t))
    return ops


def _seed_check(A: list[int]) -> Check:
    def check(env):
        bad = status_is(env, "Ok")
        if bad:
            return bad
        p = env["payload"]
        if list(map(Fraction, p["A"])) != A or 2 * p["d"] != len(p["D"]) - 1 or p["d"] < 2:
            return "seed: A echoed wrongly or D has the wrong degree"
        if not ip.pell_holds(p["A"], p["B"], p["D"]):
            return f"seed: D*B^2 != A^2 - 1 at degree {len(A) - 1}"
        return None

    return check


def _verify_op(rng: random.Random, inputs: Inputs, d: int, kind: Optional[str]) -> Op:
    """(A, B, D) = (2F^2/e + 1, 2F/e, F^2 + e) solves the equation for any F
    and e != 0; kind names the corruption and the expected rejection."""
    while True:
        e = rational(rng, 6)
        if kind == "SmallDegreeD":
            F = int_poly(rng, 1, 4)
        elif kind == "NonSquarefreeD":
            # F = H^2 - a, e = -a^2 gives D = H^2 (H^2 - 2a): a repeated factor
            H, a = int_poly(rng, d // 2, 3), rational(rng, 4)
            F, e = ip.add(ip.mul(H, H), [-a]), -a * a
        else:
            F = int_poly(rng, d, 3)
        D = ip.add(ip.mul(F, F), [e])
        if kind == "NonSquarefreeD" or ip.is_squarefree(D):
            break
    A = ip.add(ip.scale(ip.mul(F, F), 2 / e), [1])
    B = ip.scale(F, 2 / e)
    if kind == "NotUnit":
        A[0] += 1
    elif kind == "ZeroB":
        B = []
    solution = {k: ip.coeff_strings(v) for k, v in (("A", A), ("B", B), ("D", D))}
    n, dd = len(A) - 1, (len(D) - 1) // 2

    def check(env):
        if kind is None:
            bad = status_is(env, "Ok")
            if bad or (env["payload"]["n"], env["payload"]["d"]) == (n, dd):
                return bad
            return f"verify: n, d wrong for d = {dd}"
        bad = status_is(env, "Rejected")
        if bad or env["payload"]["reason"]["kind"] == kind:
            return bad
        return f"verify: rejected as {env['payload']['reason']['kind']}, want {kind}"

    return Op(["verify", "--file", inputs.write(solution), "--json"], check)


def _ramify_at_op(rng: random.Random) -> Op:
    """f = c + lam * prod (t - r_i)^e_i: the fiber over c has type
    {(e, number of roots of multiplicity e)}."""
    roots = rng.sample(range(-20, 21), rng.randint(3, 6))
    mults = [rng.randint(1, 4) for _ in roots]
    f = [rational(rng, 6)]
    for r, e in zip(roots, mults):
        f = ip.mul(f, ip.power([-r, 1], e))
    c = rational(rng, 6)
    f = ip.add(f, [c])
    want = sorted([e, mults.count(e)] for e in set(mults))

    def check(env):
        bad = status_is(env, "Ok")
        if bad:
            return bad
        p = env["payload"]
        if p["type"] != want or p["at"] != f"{c.numerator}/{c.denominator}":
            return f"ramify: type {p['type']} at {p['at']}, want {want}"
        return None

    return Op(["ramify", f"--f={ip.human(f)}", f"--at={c}", "--json"], check)


def _ramify_locus_op(rng: random.Random) -> Op:
    """T_k(a t + b), k >= 3, has critical values exactly -1 and 1."""
    k = rng.randint(3, 8)
    f = ip.chebyshev_of([rational(rng, 4), rational(rng, 4)], k)
    inside = rng.random() < 0.5
    values = "-1,1" if inside else f"1,{rng.randint(2, 9)}"

    def check(env):
        bad = status_is(env, "Ok" if inside else "Rejected")
        if bad or env["payload"]["contained"] == inside:
            return bad
        return f"ramify: contained {env['payload']['contained']} for {values}"

    return Op(["ramify", f"--f={ip.human(f)}", f"--locus-in={values}", "--json"], check)


# Tuples: one-based image lists (index 0 unused) for sigma0, sigmaInf,
# sigma1 and the taus.


@dataclass
class Tup:
    n: int
    d: int
    perms: list[list[int]]  # sigma0, sigmaInf, sigma1, *taus


def _from_pairs(N: int, cycles) -> list[int]:
    img = list(range(N + 1))
    for c in cycles:
        for i, x in enumerate(c):
            img[x] = c[(i + 1) % len(c)]
    return img


def _descending(N: int) -> list[int]:
    return [0, N] + list(range(1, N))


def _zannier(n: int, d: int) -> Tup:
    N = 2 * n
    return Tup(n, d, [
        _from_pairs(N, [(i, N + 1 - i) for i in range(1, n + 1)]),
        _descending(N),
        _from_pairs(N, [(i, N - i) for i in range(1, n - d + 1)]),
        *(_from_pairs(N, [(n - i, n + i)]) for i in range(1, d)),
    ])


def _shape(rng: random.Random, n: int) -> Tup:
    """A census shape tuple (d = 2): sigma0 from the Disjoint, ThreeCycle or
    FourCycle layout, then sigma1 * tau split from the forced product."""
    N = 2 * n
    case = rng.randrange(3)
    if case == 0:
        h, inner = n, []
    elif case == 1:
        h = rng.randint(1, n - 2)
        inner = [rng.randrange(h + 2, N - h - 1, 2)]
    else:
        h = rng.randint(1, n - 3)
        k1 = rng.randrange(h + 2, N - h - 3, 2)
        inner = [k1, rng.randrange(k1 + 2, N - h - 1, 2)]
    # i pairs with N+1-i for i <= h; each band between cuts folds on itself
    pairs = [(i, N + 1 - i) for i in range(1, h + 1)]
    cuts = [h, *inner, N - h]
    for lo, hi in zip(cuts, cuts[1:]):
        pairs += [(lo + j, hi + 1 - j) for j in range(1, (hi - lo) // 2 + 1)]
    s0 = _from_pairs(N, pairs)
    pi = [0] + [s0[x % N + 1] for x in range(1, N + 1)]
    cyc = ip.cycles_of(pi)
    twos = [c for c in cyc if len(c) == 2]
    big = [c for c in cyc if len(c) > 2]
    if not big:
        i = rng.randrange(len(twos))
        sigma1, tau = twos[:i] + twos[i + 1:], twos[i]
    elif len(big[0]) == 3:
        a, b, c = big[0]
        x, y, z = rng.choice(((a, b, c), (b, c, a), (c, a, b)))
        sigma1, tau = twos + [(x, y)], (x, z)
    else:
        a, b, c, d = big[0]
        extra, tau = rng.choice(((((a, b), (c, d)), (a, c)), (((b, c), (d, a)), (b, d))))
        sigma1 = twos + list(extra)
    return Tup(n, 2, [s0, _descending(N), _from_pairs(N, sigma1), _from_pairs(N, [tau])])


def _relabel(rng: random.Random, t: Tup) -> Tup:
    """Conjugate every entry by a random relabelling g: g^-1 p g."""
    N = 2 * t.n
    g = list(range(1, N + 1))
    rng.shuffle(g)
    g = [0] + g
    ginv = [0] * (N + 1)
    for i in range(1, N + 1):
        ginv[g[i]] = i
    return Tup(t.n, t.d, [[0] + [ginv[p[g[x]]] for x in range(1, N + 1)] for p in t.perms])


def _tuple_ops(inputs: Inputs, t: Tup) -> list[Op]:
    N = 2 * t.n
    texts = [ip.cycles_text(ip.cycles_of(p)) for p in t.perms]
    path = inputs.write({
        "n": t.n, "d": t.d, "sigma0": texts[0], "sigmaInf": texts[1],
        "sigma1": texts[2], "taus": texts[3:],
    })
    gens = [pg.Perm(p[1:]) for p in t.perms]
    admissible = [m for m in range(2, t.n + 1) if t.n % m == 0 and t.n // m >= t.d]
    profile = [m for m in admissible if pg.is_ell_imprimitive(gens, 2 * m) is not None]
    special = t.perms[1] == _descending(N) and all(p[N] == N for p in t.perms[2:])

    def validate_check(env):
        bad = status_is(env, "Ok")
        if bad:
            return bad
        p = env["payload"]
        if not p["ok"] or not all(c["passed"] for c in p["checks"]):
            return f"validate: checks failed for n={t.n}"
        if sum(p["branching"].values()) != 4 * t.n - 2:
            return f"validate: total branching {p['branching']} for n={t.n}"
        return None

    def profile_check(env):
        bad = status_is(env, "Ok")
        if bad:
            return bad
        p = env["payload"]
        got = (p["n"], p["d"], p["admissible"], p["profile"], p["primitive"])
        if got != (t.n, t.d, admissible, profile, not profile):
            return f"profile: {got}, want profile {profile} for n={t.n}, d={t.d}"
        if bool(env["diagnostics"]) == special:
            return f"profile: conjugation note {env['diagnostics']} for special={special}"
        return None

    return [
        Op(["validate", "--file", path, "--json"], validate_check),
        Op(["profile", "--file", path, "--json"], profile_check),
    ]


def rounds(workload: str, seed: int, inputs: Inputs) -> Iterator[list[Op]]:
    """The op list of each round of a run, in that round's order, forever."""
    make = {"census": census_ops, "powers": powers_ops, "checks": checks_ops}[workload]
    ops = None
    for k in itertools.count():
        if workload != "census":
            ops = make(random.Random(f"{workload}:{seed}:{k}"), inputs)
        elif ops is None:
            ops = make(random.Random(f"{workload}:{seed}"), inputs)
        for slot, op in enumerate(ops):
            op.slot = slot
        yield random.Random(f"order:{workload}:{seed}:{k}").sample(ops, len(ops))
