"""Census of special tuples for d = 2: every tuple on 2n points with the
standard descending sigmaInf, sigma0 a fixed-point-free involution, and 2n
fixed by sigma1 and tau.

Three routes produce per-case conjugacy-class counts: shape enumeration
(parameterized sigma0 layouts), brute force over all fixed-point-free
involutions (ground truth), and closed formulas.  Reports carry all three and
flag any disagreement; nothing is reconciled silently.

The three cases are keyed by the product sigma1*tau (sigma1 acting first):
  Disjoint    n-1 transpositions, 2 fixed points
  ThreeCycle  n-3 transpositions, one 3-cycle, 3 fixed points
  FourCycle   n-4 transpositions, one 4-cycle, 4 fixed points
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from . import permgroup as pg
from .hurwitz import HurwitzTuple, common_fixed, standard_cycle
from .permgroup import Perm

DISJOINT = "Disjoint"
THREE_CYCLE = "ThreeCycle"
FOUR_CYCLE = "FourCycle"
CASES = (DISJOINT, THREE_CYCLE, FOUR_CYCLE)

BRUTE_DEFAULT_MAX = 8


class TooLarge(ValueError):
    """Brute force refused beyond the configured point bound."""


@dataclass(frozen=True)
class ShapeParams:
    """Which parameterized layout produced a tuple.

    Disjoint uses h alone (tau = (h, 2n-h)).  ThreeCycle uses (h, k) and one
    of 3 tau choices; FourCycle uses (h, k1, k2) and one of 2.
    """

    case: str
    h: int
    k: Optional[int] = None
    k1: Optional[int] = None
    k2: Optional[int] = None
    tau_choice: int = 0


@dataclass(frozen=True)
class CaseCounts:
    """Class counts for one case; brute is None when not engaged."""

    shape: Optional[int]
    brute: Optional[int]
    formula: int


@dataclass(frozen=True)
class CensusReport:
    n: int
    disjoint: CaseCounts
    three_cycle: CaseCounts
    four_cycle: CaseCounts
    c1: int
    c2: int
    primitive_disjoint_count: int
    discrepancies: tuple[str, ...]

    def case_counts(self, case: str) -> CaseCounts:
        return {DISJOINT: self.disjoint, THREE_CYCLE: self.three_cycle, FOUR_CYCLE: self.four_cycle}[case]


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
    out: list[tuple[Perm, Perm]] = []
    if big is None:
        for i, t in enumerate(transpositions):
            rest = [c for j, c in enumerate(transpositions) if j != i]
            out.append((Perm.from_cycles(N, rest), Perm.from_cycles(N, [t])))
    elif len(big) == 3:
        a, b, c = big
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            sigma1 = Perm.from_cycles(N, transpositions + [(x, y)])
            out.append((sigma1, Perm.from_cycles(N, [(x, z)])))
    else:
        a, b, c, d = big
        for extra, tau in ((((a, b), (c, d)), (a, c)), (((b, c), (d, a)), (b, d))):
            sigma1 = Perm.from_cycles(N, transpositions + list(extra))
            out.append((sigma1, Perm.from_cycles(N, [tau])))
    return out


def _make_tuple(n: int, sigma0: Perm, sigma1: Perm, tau: Perm) -> HurwitzTuple:
    return HurwitzTuple(
        sigma0=sigma0,
        sigmaInf=standard_cycle(2 * n),
        sigma1=sigma1,
        taus=(tau,),
        n=n,
        d=2,
    )


def _sigma0_disjoint(n: int) -> Perm:
    N = 2 * n
    return Perm.from_cycles(N, [(i, N + 1 - i) for i in range(1, n + 1)])


def _sigma0_three(n: int, h: int, k: int) -> Perm:
    N = 2 * n
    pairs = [(i, N + 1 - i) for i in range(1, h + 1)]
    pairs += [(h + j, k + 1 - j) for j in range(1, (k - h) // 2 + 1)]
    pairs += [(k + t, N - h + 1 - t) for t in range(1, (N - h - k) // 2 + 1)]
    return Perm.from_cycles(N, pairs)


def _sigma0_four(n: int, h: int, k1: int, k2: int) -> Perm:
    N = 2 * n
    pairs = [(i, N + 1 - i) for i in range(1, h + 1)]
    pairs += [(h + j, k1 + 1 - j) for j in range(1, (k1 - h) // 2 + 1)]
    pairs += [(k1 + t, k2 + 1 - t) for t in range(1, (k2 - k1) // 2 + 1)]
    pairs += [(k2 + v, N - h + 1 - v) for v in range(1, (N - h - k2) // 2 + 1)]
    return Perm.from_cycles(N, pairs)


def enumerate_shapes(n: int) -> list[tuple[ShapeParams, HurwitzTuple]]:
    """Every special tuple, built from the case-by-case sigma0 layouts."""
    if n < 2:
        raise ValueError("census needs n >= 2")
    N = 2 * n
    out: list[tuple[ShapeParams, HurwitzTuple]] = []

    sigma0 = _sigma0_disjoint(n)
    pairs = [(i, N - i) for i in range(1, n)]
    for h in range(1, n):
        sigma1 = Perm.from_cycles(N, [p for p in pairs if p != (h, N - h)])
        tau = Perm.from_cycles(N, [(h, N - h)])
        out.append((ShapeParams(DISJOINT, h=h), _make_tuple(n, sigma0, sigma1, tau)))

    for h in range(1, n - 1):
        for k in range(h + 2, N - h - 1, 2):
            sigma0 = _sigma0_three(n, h, k)
            for choice, (sigma1, tau) in enumerate(_split_product(_pi_from_sigma0(sigma0))):
                out.append(
                    (
                        ShapeParams(THREE_CYCLE, h=h, k=k, tau_choice=choice),
                        _make_tuple(n, sigma0, sigma1, tau),
                    )
                )

    for h in range(1, n - 2):
        for k1 in range(h + 2, N - h - 3, 2):
            for k2 in range(k1 + 2, N - h - 1, 2):
                sigma0 = _sigma0_four(n, h, k1, k2)
                for choice, (sigma1, tau) in enumerate(
                    _split_product(_pi_from_sigma0(sigma0))
                ):
                    out.append(
                        (
                            ShapeParams(FOUR_CYCLE, h=h, k1=k1, k2=k2, tau_choice=choice),
                            _make_tuple(n, sigma0, sigma1, tau),
                        )
                    )
    return out


def case_of(t: HurwitzTuple) -> str:
    """Case key from the longest cycle of sigma1*tau."""
    product = pg.chain([t.sigma1, *t.taus])
    longest = max((len(c) for c in pg.cycles(product)), default=2)
    return {2: DISJOINT, 3: THREE_CYCLE, 4: FOUR_CYCLE}[longest]


def brute_force_enumerate(n: int, max_n: int = BRUTE_DEFAULT_MAX) -> list[HurwitzTuple]:
    """Ground truth: scan all fixed-point-free involutions sigma0, keep the
    ones whose forced product sigma1*tau matches a census case, split; sorted.
    sigma1*tau sends 2n to sigma0(1), so the fixed-2n filter empties every
    involution but those with sigma0(1) = 2n: the scan pairs 1 with 2n first."""
    if n < 2:
        raise ValueError("census needs n >= 2")
    if n > max_n:
        raise TooLarge(f"n = {n} beyond brute-force bound {max_n}")
    N = 2 * n
    out: list[HurwitzTuple] = []
    paired = [0] * (N + 1)
    paired[1], paired[N] = N, 1

    def descend(unpaired: list[int]) -> None:
        if not unpaired:
            sigma0 = pg._unchecked(tuple(paired[1:]))
            for sigma1, tau in _split_product(_pi_from_sigma0(sigma0)):
                out.append(_make_tuple(n, sigma0, sigma1, tau))
            return
        a = unpaired[0]
        rest = unpaired[1:]
        for idx, b in enumerate(rest):
            paired[a], paired[b] = b, a
            descend(rest[:idx] + rest[idx + 1 :])

    descend(list(range(2, N)))
    out.sort(key=_tuple_sort_key)
    return out


def _tuple_sort_key(t: HurwitzTuple):
    return (
        t.sigma0.images,
        t.sigma1.images,
        tuple(tau.images for tau in t.taus),
    )


def canonical_key(t: HurwitzTuple):
    """Least image sequence of (sigma0, sigma1, taus) over the admissible
    rotations: one per index i0 fixed by sigma1 and every tau, the rotation
    that relabels i0 as 2n."""
    N = t.points
    keys = [
        (pg.rotate(t.sigma0, N - i0).images, pg.rotate(t.sigma1, N - i0).images,
         tuple(pg.rotate(tau, N - i0).images for tau in t.taus))
        for i0 in common_fixed(t)
    ]
    if not keys:
        raise ValueError("tuple has no commonly fixed index")
    return min(keys)


def conjugacy_classes(tuples: Sequence[HurwitzTuple]) -> list[list[HurwitzTuple]]:
    """Group by canonical form; members and classes sorted, least member
    first."""
    groups: dict[tuple, list[HurwitzTuple]] = {}
    for t in tuples:
        groups.setdefault(canonical_key(t), []).append(t)
    classes = []
    for key in sorted(groups):
        classes.append(sorted(groups[key], key=_tuple_sort_key))
    return classes


def closed_formulas(n: int) -> dict[str, int]:
    """Per-case class counts straight from the counting arguments, plus the
    intermediate sums C1 and C2."""
    if n < 2:
        raise ValueError("census needs n >= 2")
    c1 = 0
    for h in range(1, n - 2):
        for k in range(h + 2, 2 * n - 4 - h + 1, 2):
            c1 += n - 1 - (k + h) // 2
    c2 = n // 2 - 1 if n % 2 == 0 else 0
    four = c1 // 2 if n % 2 == 1 else (c1 + c2) // 2
    return {
        DISJOINT: n // 2,
        THREE_CYCLE: (n - 1) * (n - 2) // 2,
        FOUR_CYCLE: four,
        "C1": c1,
        "C2": c2,
    }


def _primitive(disjoint: list[list[HurwitzTuple]], n: int) -> list[list[HurwitzTuple]]:
    """The Disjoint-case classes whose tau = (h, 2n-h) has gcd(h, n) = 1."""
    return [cls for cls in disjoint if math.gcd(pg.cycles(cls[0].taus[0])[0][0], n) == 1]


def primitive_disjoint_classes(n: int) -> tuple[int, list[list[HurwitzTuple]]]:
    """Count and list of the primitive Disjoint-case classes (see _primitive)."""
    disjoint = [t for p, t in enumerate_shapes(n) if p.case == DISJOINT]
    primitive = _primitive(conjugacy_classes(disjoint), n)
    return len(primitive), primitive


def census(
    n: int,
    use_brute: Optional[bool] = None,
    brute_max: int = BRUTE_DEFAULT_MAX,
) -> CensusReport:
    """All three counting routes with discrepancies flagged."""
    if n < 2:
        raise ValueError("census needs n >= 2")
    if use_brute is None:
        use_brute = n <= brute_max

    shape_tuples: dict[str, list[HurwitzTuple]] = {c: [] for c in CASES}
    for params, t in enumerate_shapes(n):
        shape_tuples[params.case].append(t)
    shape_classes = {c: conjugacy_classes(shape_tuples[c]) for c in CASES}
    shape_counts = {c: len(shape_classes[c]) for c in CASES}

    brute_counts: dict[str, Optional[int]] = {c: None for c in CASES}
    if use_brute:
        brute_tuples: dict[str, list[HurwitzTuple]] = {c: [] for c in CASES}
        for t in brute_force_enumerate(n, max_n=brute_max):
            brute_tuples[case_of(t)].append(t)
        for c in CASES:
            brute_counts[c] = len(conjugacy_classes(brute_tuples[c]))

    formulas = closed_formulas(n)

    discrepancies: list[str] = []
    for c in CASES:
        shape, brute, formula = shape_counts[c], brute_counts[c], formulas[c]
        if brute is not None and shape != brute:
            discrepancies.append(f"{c}: shape={shape} brute={brute}")
        if brute is not None and brute != formula:
            discrepancies.append(f"{c}: brute={brute} formula={formula}")
        if brute is None and shape != formula:
            discrepancies.append(f"{c}: shape={shape} formula={formula}")

    primitive_count = len(_primitive(shape_classes[DISJOINT], n))

    def counts(c: str) -> CaseCounts:
        return CaseCounts(shape=shape_counts[c], brute=brute_counts[c], formula=formulas[c])

    return CensusReport(
        n=n,
        disjoint=counts(DISJOINT),
        three_cycle=counts(THREE_CYCLE),
        four_cycle=counts(FOUR_CYCLE),
        c1=formulas["C1"],
        c2=formulas["C2"],
        primitive_disjoint_count=primitive_count,
        discrepancies=tuple(discrepancies),
    )


def report_to_json_dict(report: CensusReport) -> dict:
    def case_dict(c: CaseCounts) -> dict:
        return {"shape": c.shape, "brute": c.brute, "formula": c.formula}

    return {
        "n": report.n,
        "cases": {
            DISJOINT: case_dict(report.disjoint),
            THREE_CYCLE: case_dict(report.three_cycle),
            FOUR_CYCLE: case_dict(report.four_cycle),
        },
        "C1": report.c1,
        "C2": report.c2,
        "primitiveDisjoint": report.primitive_disjoint_count,
        "discrepancies": list(report.discrepancies),
    }
