"""Census of special tuples for d = 2: every tuple on 2n points with the
standard descending sigmaInf, sigma0 a fixed-point-free involution, and 2n
fixed by sigma1 and tau.

Three routes produce per-case conjugacy-class counts: shape enumeration
(parameterized sigma0 layouts), brute force over fixed-point-free
involutions, pruned while pairing by two rules that leave only census
cases (ground truth), and closed formulas.  The first two count classes
by orbit counting over sigma0, with no class and no tuple ever built:
sigma0 forces the product pi = sigma1*tau, whose splits give every tau
and the points they all fix.  Every split weighs 12 / |CF|, CF the points
sigma1 and tau fix in common (held ascending, so 2n comes last), and as
much again where the half turn, the only other rotation that can fix it,
does: CF and tau decide, so census builds no Perm and imports no other
module of the package.  The brute route finds CF and the taus by one scan
of each leaf's pi and streams them into one pass.  The shape route sums
the layouts' weights row by row in closed form, read from their cut
points, and lists no layout.  The payload census returns carries all
three routes' counts, for each case and for the primitive Disjoint count,
and flags any disagreement.

The three cases are keyed by the product sigma1*tau (sigma1 acting first):
  Disjoint    n-1 transpositions, 2 fixed points
  ThreeCycle  n-3 transpositions, one 3-cycle, 3 fixed points
  FourCycle   n-4 transpositions, one 4-cycle, 4 fixed points
"""

import math
from typing import Iterable, Iterator, Optional

DISJOINT = "Disjoint"
THREE_CYCLE = "ThreeCycle"
FOUR_CYCLE = "FourCycle"
CASES = (DISJOINT, THREE_CYCLE, FOUR_CYCLE)
PRIMITIVE = "primitive Disjoint"

BRUTE_DEFAULT_MAX = 24
SHAPE_MAX = 64

# What the splits of one sigma0 share: CF, the points every split's sigma1 and
# tau fix, in ascending order and so ending in 2n, and each split's tau as a
# point pair.
Splits = tuple[tuple[int, ...], list[tuple[int, int]]]


class TooLarge(ValueError):
    """A census n beyond the bound of a route it would run."""

    prefix = "census error: "


def _pi_from_sigma0(sigma0: tuple[int, ...]) -> tuple[int, ...]:
    """pi = sigma1*tau from sigma0, as images: sigma0 after the ascending rotation."""
    return sigma0[1:] + sigma0[:1]


def _splits(sigma0: tuple[int, ...]) -> Splits:
    """CF and the taus of every split (sigma1, tau) of sigma0's forced
    product pi = sigma1*tau (sigma1 acting first): tau a transposition,
    sigma1 = pi*tau all-even cycles with exactly 4 fixed points.

    pi must be one of the three census cases, and every brute leaf is one,
    by the lemma in _brute_leaves.  The points off pi's 1- and 2-cycles tell
    which: none, or 3 or 4, which then form one cycle (a b c) or (a b c d)
    from its least point.  Disjoint takes each transposition as tau, by
    least point, ThreeCycle (a, c), (b, a) or (c, b), and FourCycle (a, c)
    or (b, d).  Each split's sigma1 moves the points of pi's cycles that
    its tau fixes, so sigma1 and tau fix in common exactly pi's fixed
    points, whatever the split: CF, read in order, ends in 2n."""
    pi = _pi_from_sigma0(sigma0)
    cf = tuple([x for x, y in enumerate(pi, 1) if x == y])
    long = [x for x, y in enumerate(pi, 1) if pi[y - 1] != x]
    if not long:
        return cf, [(x, y) for x, y in enumerate(pi, 1) if x < y]
    a = long[0]
    b = pi[a - 1]
    c = pi[b - 1]
    return cf, [(a, c), (b, a), (c, b)] if len(long) == 3 else [(a, c), (b, pi[c - 1])]


def _shape_sums(n: int) -> dict[str, int]:
    """_orbit_sums over every sigma0 layout, row by row in closed form.
    Row h has the m cuts strictly between h and 2n-h at even distances
    from h; every split weighs 12 // |CF|, and as much again where the half
    turn fixes it (the lemma of _orbit_sums).
      - Disjoint: CF = (n, 2n) is closed, and the half turn fixes the tau
        (x, 2n-x), x = 1..n-1, only at x = n/2: 6(n - 1) + 6 [n even], and
        6 #{x < n : gcd(x, n) = 1} + 6 [n = 2] primitive.
      - ThreeCycle (cut k): CF is never closed, so each of the m layouts
        adds 12 (3 taus, |CF| 3).
      - FourCycle (cuts k1 < k2, C(m, 2) pairs): each adds 6 (2 taus,
        |CF| 4), and 6 more where CF is closed, which is exactly
        k1 = n - h, k2 = n + h: one layout of row h for even n with
        2h < n, none otherwise.

    >>> _shape_sums(4)
    {'Disjoint': 24, 'ThreeCycle': 36, 'FourCycle': 12, 'primitive Disjoint': 12}
    """
    even = n % 2 == 0
    sums = {
        DISJOINT: 6 * (n - 1) + 6 * even,
        THREE_CYCLE: 0,
        FOUR_CYCLE: 0,
        PRIMITIVE: 6 * sum(math.gcd(x, n) == 1 for x in range(1, n)) + 6 * (n == 2),
    }
    for h in range(1, n):
        m = len(range(h + 2, 2 * n - h - 1, 2))
        sums[THREE_CYCLE] += 12 * m
        sums[FOUR_CYCLE] += 6 * (m * (m - 1) // 2 + (even and 2 * h < n))
    return sums


def _brute_leaves(n: int) -> Iterator[tuple[int, ...]]:
    """Every fixed-point-free involution sigma0 that the pruned scan keeps,
    one at a time, as its image tuple.

    pi sends 2n to sigma0(1), so only involutions with sigma0(1) = 2n can fix
    2n: the scan pairs 1 with 2n first.  pi(i) = sigma0(i+1), so pairing a
    with b fixes pi(a-1) = b and pi(b-1) = a; the scan keeps the partial pi
    as paths and cycles and cuts a branch as soon as
      - a path or cycle has more than 4 points (no census case has a cycle
        longer than 4, and a path lies inside one final cycle),
      - two components have 3 or more points (every case has at most one
        cycle that long, and two such paths joined would exceed 4 points).

    Every leaf kept is a census case.  pi(x) = sigma0(rho(x)) with rho the
    2n-cycle x -> x+1, so Riemann-Hurwitz (sigma0 has n cycles, rho one)
    gives pi c(pi) = n + 1 - 2g cycles, g the genus of the cover.  A leaf's
    pi has t 2-cycles, one longer cycle of L in {0, 3, 4} points and f
    fixed points, 2t + L + f = 2n, so f = 2 - 4g, 3 - 4g or 4 - 4g; f >= 1
    since pi fixes 2n, so g = 0 and f = L, or 2 when L = 0: pi is a
    Disjoint, ThreeCycle or FourCycle product.  Both rules are needed: a
    5-cycle with 5 fixed points, or two 3-cycles with 4, also has genus 0."""
    N = 2 * n
    paired = [0] * (N + 1)
    paired[1], paired[N] = N, 1
    nxt = [0] * (N + 1)  # the partial pi: nxt[i] = pi(i), prv[j] = pi^-1(j), 0 unknown
    prv = [0] * (N + 1)
    nxt[N] = prv[N] = N
    nxt[N - 1], prv[1] = 1, N - 1

    def link(u: int, v: int, long: int) -> "int | None":
        """Set pi(u) = v; the new count of long components, or None (nothing
        set) when the branch is cut.  u = v closes a cycle of one point."""
        head, p = u, 1
        while prv[head]:
            head, p = prv[head], p + 1
        if head != v:  # join two paths; otherwise close a cycle of p points
            tail, q = v, 1
            while nxt[tail]:
                tail, q = nxt[tail], q + 1
            long += (p + q >= 3) - (p >= 3) - (q >= 3)
            if p + q > 4 or long > 1:
                return None
        nxt[u], prv[v] = v, u
        return long

    def descend(unpaired: "list[int]", long: int) -> "Iterator[tuple[int, ...]]":
        if not unpaired:
            yield tuple(paired[1:])
            return
        a = unpaired[0]
        rest = unpaired[1:]
        for idx, b in enumerate(rest):
            first = link(a - 1, b, long)
            if first is None:
                continue
            second = link(b - 1, a, first)
            if second is not None:
                paired[a], paired[b] = b, a
                yield from descend(rest[:idx] + rest[idx + 1 :], second)
                nxt[b - 1] = prv[a] = 0
            nxt[a - 1] = prv[b] = 0

    return descend(list(range(2, N)), 0)


def _brute_route(n: int) -> Iterator[Splits]:
    """Every brute-force leaf with its CF and taus, each found by one scan
    of the leaf's pi; every leaf splits (the lemma in _brute_leaves)."""
    yield from map(_splits, _brute_leaves(n))


def _orbit_sums(route: Iterable[Splits]) -> dict[str, int]:
    """12 times each case's number of conjugacy classes and, under PRIMITIVE,
    of primitive Disjoint classes, from one route's splits; a split's case
    is read from |CF|: 2, 3 or 4 common fixed points.

    Orbit counting (Cauchy-Frobenius): a class is the part of one orbit of
    the 2n rotations whose members fix 2n in common.  The rotations that
    carry one of a member's |CF| common fixed points to 2n reach exactly
    those members, each |Stab| times, so a class has |CF| / |Stab| members,
    and each split t weighs 12 |Stab(t)| / |CF|, 12 over its class.

    A rotation commutes with sigmaInf, so one that fixes sigma0 fixes pi,
    and one that fixes pi and tau fixes sigma1 = pi*tau: Stab(t) is the
    rotations that fix sigma0 and tau.  A rotation by s != 0 fixes a
    transposition (a, b) only if a + s = b and b + s = a (mod N = 2n), so
    2s = 0 and s = n, the half turn.  It fixes t only if it maps CF onto
    itself: n = 2n + n is in CF and CF + n = CF, that is, the upper half of
    the ascending CF is its lower half plus n (never when |CF| is odd).
    Then it fixes sigma0 (below), so each tau it fixes weighs 24 / |CF|:
    such taus are listed twice, and every entry weighs 12 // |CF|.  The
    quotient is exact: CF(t) is a union of cosets of Stab(t).

    Every sigma0 of the brute route is a layout (the tests check it up to
    n = 24): each arc between cyclically consecutive points of
    P = (h, *cuts, 2n-h) folds onto itself about its centre, and CF is
    those centres in order; the arc through 2n, where x pairs with
    2n+1-x, has centre 2n.  When CF holds n and is closed, the half turn
    swaps n and 2n and pairs off the other centres, each below n with one
    above.
      - Disjoint: sigma0 is x -> 2n+1-x, which the half turn fixes.
      - ThreeCycle: three centres cannot be paired off; CF is never closed.
      - FourCycle: the centres c1 < c2 < c3 inside (h, 2n-h) pair off only
        as c2 = n and c3 = c1 + n.  The arcs give c1 + c3 = (k1 + k2)/2 + n
        = c2 + n = 2n, so c1 = n/2, the cuts are n-h and n+h, and P + n = P:
        the half turn maps each arc onto an arc, and each fold onto a fold.

    A Disjoint class is primitive when its tau = (h, 2n-h) has
    gcd(h, n) = 1, the same for every member, so each entry of the same
    list is judged alone."""
    sums = dict.fromkeys((*CASES, PRIMITIVE), 0)
    for cf, taus in route:
        N = cf[-1]
        n = N // 2
        half = len(cf) // 2
        if cf[half:] == tuple([x + n for x in cf[:half]]):
            taus = taus + [(a, b) for a, b in taus if (a + n) % N == b]
        weight = 12 // len(cf)
        case = CASES[len(cf) - 2]
        sums[case] += weight * len(taus)
        if case == DISJOINT:
            sums[PRIMITIVE] += weight * sum(math.gcd(min(tau), n) == 1 for tau in taus)
    return sums


def closed_formulas(n: int) -> dict[str, int]:
    """Per-case class counts straight from the counting arguments, the
    primitive Disjoint count #{h <= n/2 : gcd(h, n) = 1} (one class per
    tau = (h, 2n-h)), and the intermediate sums C1 and C2.

    >>> closed_formulas(12)[PRIMITIVE]
    2
    """
    if n < 2:
        raise ValueError("census needs n >= 2")
    c1 = math.comb(n - 1, 3)
    c2 = n // 2 - 1 if n % 2 == 0 else 0
    four = c1 // 2 if n % 2 == 1 else (c1 + c2) // 2
    return {
        DISJOINT: n // 2,
        THREE_CYCLE: (n - 1) * (n - 2) // 2,
        FOUR_CYCLE: four,
        PRIMITIVE: sum(math.gcd(h, n) == 1 for h in range(1, n // 2 + 1)),
        "C1": c1,
        "C2": c2,
    }


def census(n: int, use_brute: Optional[bool] = None) -> dict:
    """The payload census --json prints, {"n", "cases": {case: {"shape",
    "brute", "formula"}}, "C1", "C2", "primitiveDisjoint", "discrepancies"}:
    each case and the primitive Disjoint count on all three routes (brute
    None when not engaged), and every disagreement.  Brute force runs by
    default up to BRUTE_DEFAULT_MAX, and no n past SHAPE_MAX is taken, both
    checked first.  An orbit sum that is not a whole number of classes is a
    discrepancy, and its count is None.

    >>> census(4)["cases"][DISJOINT]
    {'shape': 2, 'brute': 2, 'formula': 2}
    """
    if use_brute is None:
        use_brute = n <= BRUTE_DEFAULT_MAX
    if use_brute and n > BRUTE_DEFAULT_MAX:
        raise TooLarge(f"n = {n} beyond brute-force bound {BRUTE_DEFAULT_MAX}")
    if n > SHAPE_MAX:
        raise TooLarge(f"n = {n} beyond shape-route bound {SHAPE_MAX}")
    formulas = closed_formulas(n)
    sums = {"shape": _shape_sums(n)}
    if use_brute:
        sums["brute"] = _orbit_sums(_brute_route(n))
    discrepancies: list[str] = []
    cases: dict[str, dict[str, Optional[int]]] = {}
    for c in (*CASES, PRIMITIVE):
        counts: dict[str, Optional[int]] = {}
        for route, route_sums in sums.items():
            count, rest = divmod(route_sums[c], 12)
            if rest:
                discrepancies.append(
                    f"{c} {route}: orbit sum {route_sums[c]}/12 is not a whole class count"
                )
            counts[route] = None if rest else count
        chain = [*counts.items(), ("formula", formulas[c])]
        discrepancies += [
            f"{c}: {a}={x} {b}={y}" for (a, x), (b, y) in zip(chain, chain[1:]) if x != y
        ]
        cases[c] = {"shape": counts["shape"], "brute": counts.get("brute"), "formula": formulas[c]}
    return {
        "n": n,
        "cases": cases,
        "C1": formulas["C1"],
        "C2": formulas["C2"],
        "primitiveDisjoint": cases.pop(PRIMITIVE)["shape"],
        "discrepancies": discrepancies,
    }
