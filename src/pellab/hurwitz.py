"""Branched-cover permutation tuples: validation, the staircase example
family, and the power profile from one residue gcd.

A tuple acts on 2n points.  Its product is read in application order (the
first entry acts first); the monodromy entries are sigma0, sigmaInf, sigma1
and up to d-1 extra transposition-like factors taus.  The special form fixes
sigmaInf to the standard descending cycle (i maps to i-1, 1 to 2n) and puts
2n among the points fixed by sigma1 and every tau; the power profile reads
any tuple through the labels that would put it in that form.
"""

import math
import operator
from itertools import compress

from . import _Record, admissible_exponents
from . import permgroup as pg
from .permgroup import Perm


# Largest n, and 2n * entries, read from tuple JSON or built by zannier_tuple:
# every entry is an image list of 2n points, built before any check can run.
# The point bound alone is not enough: the work per point grows with n.
MAX_TUPLE_N = 100_000
MAX_TUPLE_POINTS = 2_000_000


class DegreeOrder(ValueError):
    """Constructor needs n >= d >= 2."""

    prefix = "tuple error: "


class HurwitzTuple(_Record):
    """The entries sigma0, sigmaInf, sigma1 (each a Perm) and taus (a tuple
    of Perms) of a tuple on 2n points, with its n and d."""

    __slots__ = ()

    def __new__(cls, sigma0, sigmaInf, sigma1, taus, n, d):
        return tuple.__new__(cls, (sigma0, sigmaInf, sigma1, taus, n, d))

    def gens(self) -> list[Perm]:
        return [self.sigma0, self.sigmaInf, self.sigma1, *self.taus]

    @property
    def points(self) -> int:
        return 2 * self.n


def standard_cycle(N: int) -> Perm:
    """The descending N-cycle: i to i-1, 1 to N."""
    if N < 1:
        raise ValueError(f"need N >= 1, got N = {N}")
    return pg._unchecked((N, *range(1, N)), (N,))


def is_special(t: HurwitzTuple) -> bool:
    """sigmaInf is the standard cycle and 2n is fixed by sigma1 and every tau."""
    N = t.points
    return t.sigmaInf.images == (N, *range(1, N)) and all(
        p.size >= N and p(N) == N for p in (t.sigma1, *t.taus)
    )


def checks(t: HurwitzTuple) -> tuple[list, tuple]:
    """validate's facts: one (name, passed, detail) per structural
    invariant, in order, where detail is a function that words the check,
    and the branching spent over 0, 1, infinity and the taus.  A caller
    that needs only the verdicts builds no detail string; `report` words
    them.

    >>> entries, branching = checks(zannier_tuple(4, 2))
    >>> all(passed for _, passed, _ in entries), branching
    (True, (4, 2, 7, 1))
    """
    N = t.points

    sizes = {p.size for p in t.gens()}
    size_ok = sizes == {N} and t.n >= 1 and t.d >= 1
    entries = [("SizeConsistent", size_ok, lambda: f"sizes {sorted(sizes)}, expected {{{N}}}")]
    if not size_ok:
        return entries, (0, 0, 0, 0)

    # The product in application order, folded over the image tuples, one
    # C gather per entry (N = 2n >= 2, so itemgetter gives a tuple).
    sigma0, *rest = t.gens()
    product = sigma0.images
    for p in rest:
        product = operator.itemgetter(*product)((0, *p.images))
    product_ok = product == tuple(range(1, N + 1))

    # Each entry's cycle type, counted when its text was read; evenness,
    # fixed points and branching (N minus the number of cycles) follow.
    zero_type, inf_type, one_type = map(pg.cycle_type, (t.sigma0, t.sigmaInf, t.sigma1))

    # A full N-cycle among the generators is transitive on its own.
    transitive = inf_type == (N,) or pg.is_transitive(t.gens(), N)

    # A fixed point is a cycle of odd length 1.
    zero_even = all(c % 2 == 0 for c in set(zero_type))
    one_even = all(c % 2 == 0 or c == 1 for c in set(one_type))
    fix1 = one_type.count(1)

    over_zero = N - len(zero_type)
    over_one = N - len(one_type)
    over_inf = N - len(inf_type)
    over_taus = sum(N - len(pg.cycle_type(tau)) for tau in t.taus)
    total = over_zero + over_one + over_inf + over_taus
    k = len(t.taus)
    entries += [
        ("TauCount", k <= t.d - 1, lambda: f"k = {k}, bound {t.d - 1}"),
        ("ProductIdentity", product_ok,
         lambda: f"product = {'()' if product_ok else pg.format_cycles(pg._unchecked(product))}"),
        ("Transitive", transitive, lambda: "orbit of the generators"),
        ("InfinityFullCycle", inf_type == (N,), lambda: f"cycle type {inf_type}"),
        ("ZeroEvenCycles", zero_even,
         lambda: f"cycle type {zero_type}, fixed {sorted(pg.fixed_points(sigma0)) if zero_type[0] == 1 else []}"),
        ("OneEvenCycles", one_even, lambda: f"cycle type {one_type}"),
        ("FixedPointCount", fix1 == 2 * t.d, lambda: f"sigma1 fixes {fix1} points, expected {2 * t.d}"),
        ("TotalBranching", total == 4 * t.n - 2, lambda: f"total {total}, expected {4 * t.n - 2}"),
    ]
    return entries, (over_zero, over_one, over_inf, over_taus)


def report(entries: list, branching: tuple) -> dict:
    """The payload validate prints from the facts `checks` returns, {"ok",
    "checks": [{"name", "passed", "detail"}], "branching": {"overZero",
    "overOne", "overInfinity", "overTaus"}}: the checks, in order, and the
    branching spent over each branch point."""
    return {
        "ok": all(passed for _, passed, _ in entries),
        "checks": [{"name": n, "passed": p, "detail": detail()} for n, p, detail in entries],
        "branching": dict(zip(("overZero", "overOne", "overInfinity", "overTaus"), branching)),
    }


def validate(t: HurwitzTuple) -> dict:
    """validate's payload, the `report` of the tuple's `checks`.

    >>> payload = validate(zannier_tuple(4, 2))
    >>> payload["ok"], payload["branching"]
    (True, {'overZero': 4, 'overOne': 2, 'overInfinity': 7, 'overTaus': 1})
    """
    return report(*checks(t))


def zannier_tuple(n: int, d: int) -> HurwitzTuple:
    """The staircase family: sigma0 folds i with 2n+1-i, sigma1 folds i with
    2n-i down to depth n-d, and tau_i = (n-i, n+i)."""
    if not n >= d >= 2:
        raise DegreeOrder(f"need n >= d >= 2, got n={n}, d={d}")
    if n > MAX_TUPLE_N:
        raise ValueError(f"need n <= {MAX_TUPLE_N}, got n = {n}")
    if 2 * n * (d + 2) > MAX_TUPLE_POINTS:
        raise ValueError(f"need 2n * (d + 2) <= {MAX_TUPLE_POINTS}, got {2 * n * (d + 2)}")
    N = 2 * n
    sigma0 = Perm.from_cycles(N, [(i, N + 1 - i) for i in range(1, n + 1)])
    sigma1 = Perm.from_cycles(N, [(i, N - i) for i in range(1, n - d + 1)])
    taus = tuple(Perm.from_cycles(N, [(n - i, n + i)]) for i in range(1, d))
    return HurwitzTuple(sigma0, standard_cycle(N), sigma1, taus, n, d)


def primitivity_profile(t: HurwitzTuple, admissible: list[int]) -> set[int]:
    """The exponents m in admissible (admissible_exponents(t.n, t.d)) for
    which the tuple behaves like an m-th power, read through labels that
    put it in special form: L(f) = 2n for f the largest point fixed by
    sigma1 and every tau, L(sigmaInf x) = L(x) - 1 (L is the identity when
    t is special).  Mod 2m, sigmaInf lowers every label by one, as 2m
    divides 2n; the tuple is an m-th power when sigma1 and sigma0 act on
    labels as x -> -x and x -> 1 - x and every tau fixes each residue,
    exactly when 2m divides G, the gcd over all x of L(sigma1 x) + L(x),
    L(sigma0 x) + L(x) - 1 and L(tau x) - L(x) (G >= 1, as
    L(sigma1 x) + L(x) >= 2).  Empty means combinatorially primitive.

    Which common fixed point gets label 2n does not matter: labelling f'
    instead adds some s to every label mod 2n, so mod 2m.  The tau terms
    stay and the others gain 2s; if 2m divides them all, the sigma1 term at
    f' gives 2L(f') = 0, so 2s = -2L(f') = 0 mod 2m, and back alike.

    A tuple that passes validate has a common fixed point: of its total
    branching 4n - 2, sigmaInf (one 2n-cycle) spends 2n - 1, sigma0 (even
    cycles) at least n and sigma1 (2d fixed points, even cycles) at least
    n - d.  So the taus spend at most d - 1; spending b moves at most 2b
    points, so they move at most 2d - 2 of the 2d points sigma1 fixes.

    The n = 6 worked example, tau = (3, 9): a cube and no square.

    >>> N = 12
    >>> sigma0 = Perm.from_cycles(N, [(i, N + 1 - i) for i in range(1, 7)])
    >>> sigma1 = Perm.from_cycles(N, [(i, N - i) for i in (1, 2, 4, 5)])
    >>> cube = HurwitzTuple(sigma0, standard_cycle(N), sigma1,
    ...                     (Perm.from_cycles(N, "(3,9)"),), n=6, d=2)
    >>> primitivity_profile(cube, admissible_exponents(6, 2))
    {3}
    """
    N = t.points
    for p in t.gens():
        if p.size != N:
            raise pg.SizeMismatch(f"size {p.size} != {N}")
    if not pg.is_full_cycle(t.sigmaInf):
        raise ValueError("sigmaInf must be a full cycle")
    taus = [tau.images for tau in t.taus]
    fixed = [x for x in pg.fixed_points(t.sigma1) if all(im[x - 1] == x for im in taus)]
    if not fixed:
        raise ValueError("no index is fixed by sigma1 and every tau")
    label = [0] * (N + 1)
    x, down = max(fixed), t.sigmaInf.images
    for k in range(N, 0, -1):
        label[x] = k
        x = down[x - 1]
    own = label[1:]
    # L(sigma1 x) and L(sigma0 x) for x = 1..N, one C gather each (N >= 2 gives a tuple).
    s1, s0 = (operator.itemgetter(*p.images)(label) for p in (t.sigma1, t.sigma0))
    G = math.gcd(*map(operator.add, s1, own), *map(operator.add, s0, [y - 1 for y in own]))
    # A tau's term is 0 at every point it fixes, so only its moved points enter.
    points = range(1, N + 1)
    for im in taus:
        moved = compress(points, map(operator.ne, im, points))
        G = math.gcd(G, *(label[im[x - 1]] - label[x] for x in moved))
    return {m for m in admissible if G % (2 * m) == 0}


# -- JSON form ----------------------------------------------------------------


def tuple_to_json_dict(t: HurwitzTuple) -> dict:
    return {
        "n": t.n,
        "d": t.d,
        "sigma0": pg.format_cycles(t.sigma0),
        "sigmaInf": pg.format_cycles(t.sigmaInf),
        "sigma1": pg.format_cycles(t.sigma1),
        "taus": [pg.format_cycles(tau) for tau in t.taus],
    }


def tuple_from_json_dict(data: dict) -> HurwitzTuple:
    try:
        n, d, taus = data["n"], data["d"], data["taus"]
    except KeyError as exc:
        raise ValueError(f"tuple JSON missing field {exc}") from None
    # JSON integers only: bool is an int subclass, and int() would truncate 4.9.
    if type(n) is not int or type(d) is not int:
        raise ValueError(f"tuple JSON needs integer n and d, got n = {n!r}, d = {d!r}")
    if not n >= d >= 1:
        raise ValueError(f"tuple JSON needs n >= d >= 1, got n = {n}, d = {d}")
    if n > MAX_TUPLE_N:
        raise ValueError(f"tuple JSON needs n <= {MAX_TUPLE_N}, got n = {n}")
    if not isinstance(taus, list):
        raise ValueError("tuple JSON field taus must be a list")
    N = 2 * n
    entries = 3 + len(taus)
    if N * entries > MAX_TUPLE_POINTS:
        raise ValueError(f"tuple JSON needs 2n * entries <= {MAX_TUPLE_POINTS}, got {N * entries}")
    try:
        sigma0 = pg.parse_cycles(data["sigma0"], N)
        sigmaInf = pg.parse_cycles(data["sigmaInf"], N)
        sigma1 = pg.parse_cycles(data["sigma1"], N)
        taus = tuple(pg.parse_cycles(s, N) for s in taus)
    except KeyError as exc:
        raise ValueError(f"tuple JSON missing field {exc}") from None
    return HurwitzTuple(sigma0=sigma0, sigmaInf=sigmaInf, sigma1=sigma1, taus=taus, n=n, d=d)
