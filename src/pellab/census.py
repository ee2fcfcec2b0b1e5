"""Census of special tuples for d = 2: every tuple on 2n points with the
standard descending sigmaInf, sigma0 a fixed-point-free involution, and 2n
fixed by sigma1 and tau.

Three routes produce per-case conjugacy-class counts: shape enumeration
(parameterized sigma0 layouts), brute force over fixed-point-free
involutions, pruned while pairing (ground truth), and closed formulas.  The
first two count classes by orbit counting over their tuples, with no class
ever built; the shape route streams its tuples into that one pass.
Reports carry all three and flag any disagreement; nothing is reconciled
silently.

The three cases are keyed by the product sigma1*tau (sigma1 acting first):
  Disjoint    n-1 transpositions, 2 fixed points
  ThreeCycle  n-3 transpositions, one 3-cycle, 3 fixed points
  FourCycle   n-4 transpositions, one 4-cycle, 4 fixed points
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from . import permgroup as pg
from .hurwitz import HurwitzTuple, common_fixed, standard_cycle
from .permgroup import Perm

DISJOINT = "Disjoint"
THREE_CYCLE = "ThreeCycle"
FOUR_CYCLE = "FourCycle"
CASES = (DISJOINT, THREE_CYCLE, FOUR_CYCLE)
PRIMITIVE = "primitive Disjoint"

BRUTE_DEFAULT_MAX = 24


class TooLarge(ValueError):
    """Brute force refused beyond its point bound."""


@dataclass(frozen=True)
class CaseCounts:
    """Class counts for one case; brute is None when not engaged, and a
    route's count is None when its orbit sum is not whole (a discrepancy)."""

    shape: Optional[int]
    brute: Optional[int]
    formula: int


@dataclass(frozen=True)
class CensusReport:
    n: int
    cases: dict[str, CaseCounts]  # every case, in CASES order
    c1: int
    c2: int
    primitive_disjoint_count: Optional[int]
    discrepancies: tuple[str, ...]


def _pi_from_sigma0(sigma0: Perm) -> Perm:
    """The forced product sigma1*tau: sigma0 after the ascending rotation."""
    return pg._unchecked(sigma0.images[1:] + sigma0.images[:1])


def _split_product(pi: Perm) -> list[tuple[Perm, Perm]]:
    """All (sigma1, tau) with tau a transposition, sigma1*tau = pi (sigma1
    acting first), sigma1 all-even cycles with exactly 4 fixed points.

    Empty unless pi is one of the three census cases: transpositions and at
    most one 3- or 4-cycle, with as many fixed points as its longest cycle
    has points (2 when there is no 3- or 4-cycle)."""
    N = pi.size
    transpositions = []
    big = None
    for cyc in pg.cycles(pi):
        if len(cyc) == 2:
            transpositions.append(cyc)
        elif big is None and len(cyc) in (3, 4):
            big = cyc
        else:
            return []
    big_len = len(big) if big else 0
    if N - 2 * len(transpositions) - big_len != (big_len or 2):
        return []
    imgs = pi.images

    def split(moves: dict[int, int], tau: tuple[int, int]) -> tuple[Perm, Perm]:
        """sigma1 is pi with the points of moves remapped; tau is one swap."""
        sigma1 = list(imgs)
        for x, y in moves.items():
            sigma1[x - 1] = y
        swap = list(range(1, N + 1))
        x, y = tau
        swap[x - 1], swap[y - 1] = y, x
        return pg._unchecked(tuple(sigma1)), pg._unchecked(tuple(swap))

    if big is None:
        return [split({a: a, b: b}, (a, b)) for a, b in transpositions]
    if len(big) == 3:
        a, b, c = big
        return [split({x: y, y: x, z: z}, (x, z)) for x, y, z in ((a, b, c), (b, c, a), (c, a, b))]
    a, b, c, d = big
    return [split({a: b, b: a, c: d, d: c}, (a, c)), split({b: c, c: b, d: a, a: d}, (b, d))]


def _make_tuple(sigma_inf: Perm, sigma0: Perm, sigma1: Perm, tau: Perm) -> HurwitzTuple:
    """The tuple on sigma_inf's 2n points; each route builds sigma_inf once."""
    n = sigma_inf.size // 2
    return HurwitzTuple(sigma0=sigma0, sigmaInf=sigma_inf, sigma1=sigma1, taus=(tau,), n=n, d=2)


def _sigma0(n: int, h: int, cuts: Sequence[int]) -> Perm:
    """The sigma0 layout: i pairs with 2n+1-i for i <= h, then each stretch
    between consecutive points of (h, *cuts, 2n-h) folds onto itself."""
    N = 2 * n
    images = [0] * (N + 1)
    for i in range(1, h + 1):
        images[i], images[N + 1 - i] = N + 1 - i, i
    points = (h, *cuts, N - h)
    for lo, hi in zip(points, points[1:]):
        for j in range(1, (hi - lo) // 2 + 1):
            images[lo + j], images[hi + 1 - j] = hi + 1 - j, lo + j
    return pg._unchecked(tuple(images[1:]))


def _layouts(n: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Every (h, cuts) in enumeration order: Disjoint (h = n, no cut), then
    ThreeCycle (cut k), then FourCycle (cuts k1 < k2); the cuts lie
    strictly between h and 2n-h, at even distances from h and each other."""
    yield n, ()
    for size in (1, 2):
        for h in range(1, n):
            for cuts in itertools.combinations(range(h + 2, 2 * n - h - 1, 2), size):
                yield h, cuts


def _shape_tuples(n: int) -> Iterator[HurwitzTuple]:
    """Every special tuple, one at a time: each sigma0 layout with every
    split of its forced product.  The Disjoint layout's splits take
    tau = (h, 2n-h) for h = 1..n-1 in turn."""
    sigma_inf = standard_cycle(2 * n)
    for h, cuts in _layouts(n):
        sigma0 = _sigma0(n, h, cuts)
        for sigma1, tau in _split_product(_pi_from_sigma0(sigma0)):
            yield _make_tuple(sigma_inf, sigma0, sigma1, tau)


def brute_force_enumerate(n: int) -> list[HurwitzTuple]:
    """Ground truth: every fixed-point-free involution sigma0 whose forced
    product pi = sigma1*tau matches a census case, split; sorted.

    pi sends 2n to sigma0(1), so only involutions with sigma0(1) = 2n can fix
    2n: the scan pairs 1 with 2n first.  pi(i) = sigma0(i+1), so pairing a
    with b fixes pi(a-1) = b and pi(b-1) = a; the scan keeps the partial pi
    as paths and cycles and cuts a branch as soon as
      - a path or cycle has more than 4 points (no census case has a cycle
        longer than 4, and a path lies inside one final cycle),
      - two components have 3 or more points (every case has at most one
        cycle that long, and two such paths joined would exceed 4 points),
      - pi has more than 4 fixed points (FourCycle has the most, 4).
    Each leaf that survives is still judged by _split_product alone."""
    if n < 2:
        raise ValueError("census needs n >= 2")
    if n > BRUTE_DEFAULT_MAX:
        raise TooLarge(f"n = {n} beyond brute-force bound {BRUTE_DEFAULT_MAX}")
    N = 2 * n
    sigma_inf = standard_cycle(N)
    out: list[HurwitzTuple] = []
    paired = [0] * (N + 1)
    paired[1], paired[N] = N, 1
    nxt = [0] * (N + 1)  # the partial pi: nxt[i] = pi(i), prv[j] = pi^-1(j), 0 unknown
    prv = [0] * (N + 1)
    nxt[N] = prv[N] = N
    nxt[N - 1], prv[1] = 1, N - 1

    def link(u: int, v: int, long: int, fixed: int) -> Optional[tuple[int, int]]:
        """Set pi(u) = v; the new counts of long components and fixed points,
        or None (nothing set) when the branch is cut."""
        if u == v:
            fixed += 1
        else:
            head, p = u, 1
            while prv[head]:
                head, p = prv[head], p + 1
            if head != v:  # join two paths; otherwise close a cycle of p points
                tail, q = v, 1
                while nxt[tail]:
                    tail, q = nxt[tail], q + 1
                if p + q > 4:
                    return None
                long += (p + q >= 3) - (p >= 3) - (q >= 3)
        if long > 1 or fixed > 4:
            return None
        nxt[u], prv[v] = v, u
        return long, fixed

    def descend(unpaired: list[int], long: int, fixed: int) -> None:
        if not unpaired:
            sigma0 = pg._unchecked(tuple(paired[1:]))
            for sigma1, tau in _split_product(_pi_from_sigma0(sigma0)):
                out.append(_make_tuple(sigma_inf, sigma0, sigma1, tau))
            return
        a = unpaired[0]
        rest = unpaired[1:]
        for idx, b in enumerate(rest):
            first = link(a - 1, b, long, fixed)
            if first is None:
                continue
            second = link(b - 1, a, *first)
            if second is not None:
                paired[a], paired[b] = b, a
                descend(rest[:idx] + rest[idx + 1 :], *second)
                nxt[b - 1] = prv[a] = 0
            nxt[a - 1] = prv[b] = 0

    descend(list(range(2, N)), 0, 1)
    out.sort(key=_tuple_sort_key)
    return out


def _tuple_sort_key(t: HurwitzTuple):
    return t.sigma0.images, t.sigma1.images, tuple(tau.images for tau in t.taus)


def _orbit_weight(t: HurwitzTuple, cf: frozenset[int]) -> int:
    """12 |Stab(t)| / |CF(t)|: cf = CF(t) is the points fixed by sigma1 and
    every tau, and Stab(t) the rotations that fix every entry.  A rotation
    by s can fix t only if CF(t) + s = CF(t) (mod 2n); since 2n is in CF(t),
    s is one of its points.  Only such s are tried, sigma0 first.  The
    quotient is exact: CF(t) is a union of cosets of Stab(t), and
    |CF(t)| <= 4."""
    N = t.points
    stab = 1
    for s in cf:
        if (
            s != N
            and {(x + s) % N or N for x in cf} == cf
            and all(pg.rotate(p, s) == p for p in (t.sigma0, t.sigma1, *t.taus))
        ):
            stab += 1
    return 12 * stab // len(cf)


def _orbit_sums(tuples: Iterable[HurwitzTuple]) -> dict[str, int]:
    """12 times each case's number of conjugacy classes and, under PRIMITIVE,
    of primitive Disjoint classes; a split tuple's case is its number of
    common fixed points, those of sigma1*tau.

    Orbit counting (Cauchy-Frobenius): a class is the part of one orbit of
    the 2n rotations whose members fix 2n in common.  The rotations that
    carry one of a member's |CF| common fixed points to 2n reach exactly
    those members, each |Stab| times, so a class has |CF| / |Stab| members
    and its weights sum to 12.  A Disjoint class is primitive when its
    tau = (h, 2n-h) has gcd(h, n) = 1; every member has the same gcd(h, n),
    so each tuple is judged alone."""
    sums = dict.fromkeys((*CASES, PRIMITIVE), 0)
    for t in tuples:
        cf = common_fixed(t)
        weight = _orbit_weight(t, cf)
        sums[CASES[len(cf) - 2]] += weight
        if len(cf) == 2:
            h = next(x for x, y in enumerate(t.taus[0].images, 1) if x != y)
            if math.gcd(h, t.n) == 1:
                sums[PRIMITIVE] += weight
    return sums


def closed_formulas(n: int) -> dict[str, int]:
    """Per-case class counts straight from the counting arguments, plus the
    intermediate sums C1 and C2."""
    if n < 2:
        raise ValueError("census needs n >= 2")
    c1 = math.comb(n - 1, 3)
    c2 = n // 2 - 1 if n % 2 == 0 else 0
    four = c1 // 2 if n % 2 == 1 else (c1 + c2) // 2
    return {
        DISJOINT: n // 2,
        THREE_CYCLE: (n - 1) * (n - 2) // 2,
        FOUR_CYCLE: four,
        "C1": c1,
        "C2": c2,
    }


def census(n: int, use_brute: Optional[bool] = None) -> CensusReport:
    """All three counting routes with discrepancies flagged; brute force by
    default up to n = BRUTE_DEFAULT_MAX.  An orbit sum that is not a whole
    number of classes is a discrepancy, and its count is None."""
    if n < 2:
        raise ValueError("census needs n >= 2")
    if use_brute is None:
        use_brute = n <= BRUTE_DEFAULT_MAX

    brute_sums = _orbit_sums(brute_force_enumerate(n)) if use_brute else None
    shape_sums = _orbit_sums(_shape_tuples(n))
    formulas = closed_formulas(n)
    discrepancies: list[str] = []

    def classes(label: str, weighted: int) -> Optional[int]:
        count, rest = divmod(weighted, 12)
        if rest:
            discrepancies.append(f"{label}: orbit sum {weighted}/12 is not a whole class count")
            return None
        return count

    cases: dict[str, CaseCounts] = {}
    for c in CASES:
        shape, formula = classes(f"{c} shape", shape_sums[c]), formulas[c]
        brute = None if brute_sums is None else classes(f"{c} brute", brute_sums[c])
        if use_brute and shape != brute:
            discrepancies.append(f"{c}: shape={shape} brute={brute}")
        if use_brute and brute != formula:
            discrepancies.append(f"{c}: brute={brute} formula={formula}")
        if not use_brute and shape != formula:
            discrepancies.append(f"{c}: shape={shape} formula={formula}")
        cases[c] = CaseCounts(shape=shape, brute=brute, formula=formula)

    return CensusReport(
        n=n,
        cases=cases,
        c1=formulas["C1"],
        c2=formulas["C2"],
        primitive_disjoint_count=classes(PRIMITIVE, shape_sums[PRIMITIVE]),
        discrepancies=tuple(discrepancies),
    )


def report_to_json_dict(report: CensusReport) -> dict:
    return {
        "n": report.n,
        "cases": {
            c: {"shape": counts.shape, "brute": counts.brute, "formula": counts.formula}
            for c, counts in report.cases.items()
        },
        "C1": report.c1,
        "C2": report.c2,
        "primitiveDisjoint": report.primitive_disjoint_count,
        "discrepancies": list(report.discrepancies),
    }
