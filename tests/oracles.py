"""Independent oracles that the tests import: code kept out of src because
no command reaches it.

The census counts conjugacy classes by orbit counting and never builds one,
and reads a tuple's case from how many points sigma1 and tau fix in common.
The key-based grouping below builds every class, and case_of reads the case
from the longest cycle of sigma1*tau, so the tests check the counts against
them.  The census also builds no tuple and no Perm: it weighs each
sigma0's splits from the points its forced product fixes and each tau as a
point pair, and decides from CF alone whether the half turn fixes sigma0.
Its shape route writes one loop per case; _layouts and _layout_splits
below list the same layouts as (h, cuts) and read CF and the taus from the
cut points in one generic pass, _sigma0 builds each layout, and
split_weights_by_scan weighs the splits by trying every point of CF as a
shift of the built sigma0, not the rotation by n alone.  forced_product is
census's pi on a Perm.  census._orbit_sums weighs split by split only the
layouts whose CF holds n; orbit_sums_per_split weighs every layout so.
The tuple level below builds every split tuple and weighs it alone:
_split_product makes sigma1 and tau as Perms, _shape_tuples streams the
shape route's tuples, brute_force_enumerate lists and sorts those of the
census's pruned leaf scan, and _orbit_weight and _orbit_sums take each
tuple's common fixed points and rotate all its entries.  enumerate_shapes
lists the shape tuples in the same order, each with the ShapeParams of the
layout that made it, and the tests pin that order.

The seed splits A^2 - 1 through its coprime factors A - 1 and A + 1 and
reads D and B from their decompositions.  The whole-unit seed below
decomposes A^2 - 1 itself and takes B as the square root of the cofactor,
by exact_div, a division that must leave no remainder; in src every exact
quotient is a cofactor that gcd_cofactors returns.  exact_div runs on
divrem, Euclidean division from the pseudo-division of the numerators,
pseudo_divrem (scale*a = q*b + r), which no command runs; src keeps only
the remainder, exactpoly._pseudo_rem, for gcd's fallback.  src takes those
quotients by a long division that stops at the first leading term the
divisor's lead does not divide; cofactor_by_pseudo_division takes them by
pseudo-division, exact when every step runs at scale 1.

The series root and composition run on integer numerators, and the series
root takes the m-th root of its lead's reduced integer pair.  Below, the
same recurrence runs on Fractions from rat_nth_root, the m-th root of a
Fraction, and composition is Horner on reduced Poly values.

Solution text is printed and read as integer pairs, one reduced
(numerator, denominator) per coefficient, and src reads a coefficient's
text with str methods.  The text functions below print from a Fraction per
coefficient and read through the coefficient grammar as a regex,
Fraction's own string parser and the Poly constructor.

The commands decide squarefreeness by gcd(D, D').  gcd is the heuristic
gcd, certified by exact division, and its fallback, the primitive
remainder sequence, is the only remainder sequence in src; a test reaches
it by making the heuristic give up.  resultant and discriminant below run
the same primitive remainder sequence under the resultant's reduction
rules; the tests check resultant against a Sylvester determinant, the
Chebyshev closed form and sympy, and the squarefree verdict against
discriminant.  X is the polynomial t.

classify_powers skips every m that has an admissible divisor without a
root, since T_ab = T_a o T_b.  classify_powers_every_m tries every
admissible m.  power_solution doubles a unit by 2a^2 - 1, one square, and
verify_pell compares integer numerator lists; power_solution_by_norm_form
doubles by the norm form a^2 + D*b^2 on Poly values, which needs no unit,
and the tests compare verify_pell's verdict with the expanded
A*A - D*(B*B) == 1.

profile labels the points along sigmaInf's cycle, from the largest point
fixed by sigma1 and every tau down, and reads every exponent from one gcd
of labelled residues over all entries.  Below, normalize_special builds the
special-form tuple itself, in one relabel that conjugates by the rebasing
gamma and rotates the least such point (common_fixed) into 2n, and
primitivity_profile takes the gcd of a special tuple's own residues,
refusing any other with NotSpecialForm.  power_test tests one m at a time,
by its residue congruences mod 2m.

The commands answer with permgroup's cycle walk and with hurwitz's residue
gcd; validate folds a tuple's product over the image tuples and reads
branching from the cycle types its parser counted.  No command multiplies,
inverts or rotates a Perm: compose, inverse, power and rotate live below.
The permutation layer below reaches the same facts another way: chain as a
product of Perms, conjugate as g^-1 * a * g, branching from the cycles,
and the paper's block criterion for the profile, with congruence block
systems (congruence_partition), their induced label actions
(induced_block_action, NotPreserved), the bounded group closure (closure,
ClosureOverflow) and the dihedral recognizer (is_dihedral_of_order,
_order_of).  power_polynomial, the f with f(t^2) = T_m(t)^2, is built from
its closed formulas for the ramification tests.

verify_branch_locus_in divides rad f' by gcd(rad f', f - c) per value,
on f itself, and divides no polynomial by another.
branch_locus_by_product multiplies prod(f - c) out and divides it by
rad f' once (divrem); branch_locus_by_fold folds the product modulo
r = rad f', P <- P*(g - c) mod r with g = f mod r, whose coefficients
grow with every value.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction as Rat
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from pellab import permgroup as pg
from pellab.census import (
    BRUTE_DEFAULT_MAX,
    CASES,
    DISJOINT,
    FOUR_CYCLE,
    PRIMITIVE,
    THREE_CYCLE,
    Splits,
    TooLarge,
    _brute_leaves,
    _pi_from_sigma0,
    _split_weights,
)
from pellab.exactpoly import (
    ONE,
    MAX_DEGREE,
    ZERO,
    DegreeTooSmall,
    Poly,
    PolyParseError,
    _int_nth_root,
    _pair,
    _poly,
    _primitive,
    _significant_digits,
    compose as compose_poly,
    constant,
    derivative,
    poly_sqrt,
    squarefree_decomposition,
    squarefree_part,
)
from pellab.hurwitz import HurwitzTuple, is_special, standard_cycle
from pellab.pellcore import (
    PellSolution,
    PowerClassification,
    RejectionReason,
    _below_degree_floor,
    admissible_exponents,
    extract_mth_root,
)
from pellab.permgroup import (
    BlockPartition,
    NotADivisor,
    Perm,
    SizeMismatch,
    cycles,
    identity,
    preserves_partition,
)


def compose(a: Perm, b: Perm) -> Perm:
    """(a * b)(x) = a(b(x)): b acts first."""
    if a.size != b.size:
        raise SizeMismatch(f"sizes {a.size} and {b.size} differ")
    return pg._unchecked(tuple([a.images[bi - 1] for bi in b.images]))


def inverse(a: Perm) -> Perm:
    imgs = [0] * a.size
    for i, ai in enumerate(a.images, start=1):
        imgs[ai - 1] = i
    return pg._unchecked(tuple(imgs))


def power(p: Perm, k: int) -> Perm:
    """p**k, k of any sign, by repeated squaring."""
    n = p.size
    if k < 0:
        return power(inverse(p), -k)
    acc = identity(n)
    base = p
    while k:
        if k & 1:
            acc = compose(acc, base)
        base = compose(base, base)
        k >>= 1
    return acc


def rotate(a: Perm, s: int) -> Perm:
    """c^-s * a * c^s for the descending N-cycle c (i to i-1, 1 to N) in
    closed form, the relabel x -> x + s: x maps to a(x - s) + s, mod N in 1..N.
    The images of a, cyclically shifted by s places, go through the table
    (0, s+1, ..., N, 1, ..., s).

    >>> a = Perm.from_cycles(12, "(1,11)")
    >>> rotate(a, 6)
    Perm.from_cycles(12, '(5,7)')
    >>> rotate(a, -1) == rotate(a, 11)
    True
    >>> rotate(a, 12) == a
    True
    """
    N = a.size
    if not N:
        return a
    s %= N
    imgs = a.images
    shift = (0, *range(s + 1, N + 1), *range(1, s + 1))
    return pg._unchecked(tuple([shift[x] for x in imgs[N - s :] + imgs[: N - s]]))


class NotSpecialForm(ValueError):
    """Operation needs a tuple in special (normalized) form."""


def common_fixed(t: HurwitzTuple) -> frozenset[int]:
    """Indices fixed by sigma1 and every tau."""
    fixed = pg.fixed_points(t.sigma1)
    for tau in t.taus:
        fixed &= pg.fixed_points(tau)
    return fixed


def _sigma0(n: int, h: int, cuts: Sequence[int]) -> Perm:
    """The sigma0 layout: i pairs with 2n+1-i for i <= h, then each stretch
    between consecutive points of (h, *cuts, 2n-h) folds onto itself."""
    N = 2 * n
    images = [0] * (N + 1)
    images[1 : h + 1] = range(N, N - h, -1)
    images[N - h + 1 :] = range(h, 0, -1)
    points = (h, *cuts, N - h)
    for lo, hi in zip(points, points[1:]):  # lo + j pairs with hi + 1 - j
        images[lo + 1 : hi + 1] = range(hi, lo, -1)
    return pg._unchecked(tuple(images[1:]))


def forced_product(sigma0: Perm) -> Perm:
    """census._pi_from_sigma0 on a Perm: pi = sigma1*tau."""
    return pg._unchecked(_pi_from_sigma0(sigma0.images))


def _layouts(n: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Every (h, cuts) in enumeration order: Disjoint (h = n, no cut), then
    ThreeCycle (cut k), then FourCycle (cuts k1 < k2); the cuts lie
    strictly between h and 2n-h, at even distances from h and each other."""
    yield n, ()
    for size in (1, 2):
        for h in range(1, n):
            for cuts in itertools.combinations(range(h + 2, 2 * n - h - 1, 2), size):
                yield h, cuts


def _layout_splits(
    n: int, h: int, cuts: Sequence[int]
) -> tuple[tuple[int, ...], list[tuple[int, int]]]:
    """CF and the taus of the layout's forced product pi, read from its cut
    points P = (h, *cuts, 2n-h), as _splits would find them in pi.

    pi(x) = sigma0(x+1).  Inside the stretch between consecutive points
    lo < hi of P, pi swaps x and lo + hi - x and fixes the fold centre
    (lo + hi)/2; outside [h, 2n-h] it swaps x and 2n-x and fixes 2n.  Each
    point of P goes to the next, and 2n-h to h, so pi's one longer cycle is
    P itself: the 3-cycle (h k 2n-h) for one cut k, the 4-cycle
    (h k1 k2 2n-h) for two.  Disjoint has P = (n, n), so n is fixed and
    its taus are the transpositions (x, 2n-x).

    >>> _layout_splits(4, 1, (3,))
    ((2, 5, 8), [(1, 7), (3, 1), (7, 3)])
    """
    N = 2 * n
    points = (h, *cuts, N - h)
    cf = (*[(lo + hi) // 2 for lo, hi in zip(points, points[1:])], N)
    if not cuts:
        return cf, [(x, N - x) for x in range(1, n)]
    if len(cuts) == 1:
        return cf, [(h, N - h), (cuts[0], h), (N - h, cuts[0])]
    return cf, [(h, cuts[1]), (cuts[0], N - h)]


def split_weights_by_scan(
    sigma0: Callable[[], Perm], cf: frozenset[int], taus: Sequence[tuple[int, int]]
) -> list[int]:
    """census._split_weights as a scan: every point s of CF but 2n is tried
    for CF + s = CF (mod 2n), not s = n alone, and sigma0 is built to see
    which of those rotations fix it, where census decides that from CF."""
    N = max(cf)
    shifts = [s for s in cf if s != N and {(x + s) % N or N for x in cf} == cf]
    if shifts:
        fixed = sigma0()
        shifts = [s for s in shifts if rotate(fixed, s) == fixed]
    if not shifts:
        return [12 // len(cf)] * len(taus)
    return [
        12 * (1 + sum({(a + s) % N or N, (b + s) % N or N} == {a, b} for s in shifts)) // len(cf)
        for a, b in taus
    ]


def orbit_sums_per_split(route: Iterable[Splits]) -> dict[str, int]:
    """census._orbit_sums with every item weighed split by split: one
    _split_weights call per layout, whether or not its CF holds n."""
    sums = dict.fromkeys((*CASES, PRIMITIVE), 0)
    for cf, taus in route:
        case = CASES[len(cf) - 2]
        weights = _split_weights(cf, taus)
        sums[case] += sum(weights)
        if case == DISJOINT:
            n = cf[-1] // 2
            sums[PRIMITIVE] += sum(
                w for tau, w in zip(taus, weights) if math.gcd(min(tau), n) == 1
            )
    return sums


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


def _shape_tuples(n: int) -> Iterator[HurwitzTuple]:
    """Every special tuple, one at a time: each sigma0 layout with every
    split of its forced product.  The Disjoint layout's splits take
    tau = (h, 2n-h) for h = 1..n-1 in turn."""
    sigma_inf = standard_cycle(2 * n)
    for h, cuts in _layouts(n):
        sigma0 = _sigma0(n, h, cuts)
        for sigma1, tau in _split_product(forced_product(sigma0)):
            yield _make_tuple(sigma_inf, sigma0, sigma1, tau)


def brute_force_enumerate(n: int) -> list[HurwitzTuple]:
    """Ground truth: every tuple of the pruned scan's fixed-point-free
    involutions (census._brute_leaves), each forced product
    pi = sigma1*tau split by the cycle-level oracle; sorted."""
    if n < 2:
        raise ValueError("census needs n >= 2")
    if n > BRUTE_DEFAULT_MAX:
        raise TooLarge(f"n = {n} beyond brute-force bound {BRUTE_DEFAULT_MAX}")
    sigma_inf = standard_cycle(2 * n)
    out = [
        _make_tuple(sigma_inf, sigma0, sigma1, tau)
        for sigma0 in map(pg._unchecked, _brute_leaves(n))
        for sigma1, tau in _split_product(forced_product(sigma0))
    ]
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
            and all(rotate(p, s) == p for p in (t.sigma0, t.sigma1, *t.taus))
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


def enumerate_shapes(n: int) -> list[tuple[ShapeParams, HurwitzTuple]]:
    """Every special tuple: each sigma0 layout with every split of its
    forced product.  The Disjoint layout's splits take tau = (h, 2n-h) for
    h = 1..n-1 in turn."""
    if n < 2:
        raise ValueError("census needs n >= 2")
    sigma_inf = standard_cycle(2 * n)
    out: list[tuple[ShapeParams, HurwitzTuple]] = []
    for h, cuts in _layouts(n):
        sigma0 = _sigma0(n, h, cuts)
        for choice, (sigma1, tau) in enumerate(_split_product(forced_product(sigma0))):
            if not cuts:
                params = ShapeParams(DISJOINT, h=choice + 1)
            elif len(cuts) == 1:
                params = ShapeParams(THREE_CYCLE, h=h, k=cuts[0], tau_choice=choice)
            else:
                params = ShapeParams(FOUR_CYCLE, h=h, k1=cuts[0], k2=cuts[1], tau_choice=choice)
            out.append((params, _make_tuple(sigma_inf, sigma0, sigma1, tau)))
    return out


def canonical_key(t: HurwitzTuple):
    """Least image sequence of (sigma0, sigma1, taus) over the admissible
    rotations: one per index i0 fixed by sigma1 and every tau, the rotation
    that relabels i0 as 2n.  Keys compare sigma0 first, so sigma1 and the
    taus are rotated only for the shifts that tie on the least sigma0."""
    N = t.points
    by_shift = {N - i0: rotate(t.sigma0, N - i0).images for i0 in common_fixed(t)}
    if not by_shift:
        raise ValueError("tuple has no commonly fixed index")
    least = min(by_shift.values())
    return min(
        (least, rotate(t.sigma1, s).images, tuple(rotate(tau, s).images for tau in t.taus))
        for s, zero in by_shift.items()
        if zero == least
    )


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


def case_of(t: HurwitzTuple) -> str:
    """Case key from the longest cycle of sigma1*tau."""
    product = chain([t.sigma1, *t.taus])
    longest = max((len(c) for c in pg.cycles(product)), default=2)
    return {2: DISJOINT, 3: THREE_CYCLE, 4: FOUR_CYCLE}[longest]


def classes_by_case(tuples: Iterable[HurwitzTuple]) -> dict[str, list[list[HurwitzTuple]]]:
    """The conjugacy classes of each case, a tuple's case read from the
    longest cycle of sigma1*tau."""
    by_case: dict[str, list[HurwitzTuple]] = {c: [] for c in CASES}
    for t in tuples:
        by_case[case_of(t)].append(t)
    return {c: conjugacy_classes(by_case[c]) for c in CASES}


def primitive_classes(disjoint: list[list[HurwitzTuple]], n: int) -> list[list[HurwitzTuple]]:
    """The Disjoint-case classes whose tau = (h, 2n-h) has gcd(h, n) = 1."""
    return [cls for cls in disjoint if math.gcd(pg.cycles(cls[0].taus[0])[0][0], n) == 1]


def primitive_disjoint_classes(n: int) -> tuple[int, list[list[HurwitzTuple]]]:
    """Count and list of the primitive Disjoint-case classes (see
    primitive_classes)."""
    disjoint = [t for p, t in enumerate_shapes(n) if p.case == DISJOINT]
    primitive = primitive_classes(conjugacy_classes(disjoint), n)
    return len(primitive), primitive


def replace(record, **changes):
    """A copy of a record with the named fields changed, built by its
    class."""
    copy = type(record)(*map(changes.pop, record._fields, record))
    if changes:
        raise ValueError(f"{type(record).__name__} has no fields {list(changes)!r}")
    return copy


def leading(p: Poly) -> Rat:
    """The leading coefficient of a nonzero p."""
    return Rat(p.nums[-1], p.den)


def coeff(p: Poly, k: int) -> Rat:
    """The coefficient of t^k, 0 past either end."""
    return Rat(p.nums[k] if 0 <= k < len(p.nums) else 0, p.den)


def scale(p: Poly, k) -> Poly:
    """k*p for a rational argument k, read as exactpoly reads one."""
    num, den = _pair(k)
    return _poly([c * num for c in p.nums], p.den * den)


def shift(p: Poly, k: int) -> Poly:
    """t^k * p."""
    return _poly([0] * k + list(p.nums), p.den)


def evaluate(p: Poly, x) -> Rat:
    """p(x) for a rational argument x, as the constant term of p o x."""
    return coeff(compose_poly(p, constant(x)), 0)


class DivByZeroPoly(ZeroDivisionError):
    """Division or reduction by the zero polynomial."""


def pseudo_divrem(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int], int]:
    """Pseudo-division of integer lists, len(b) >= 1: scale*a = q*b + r,
    len(r) = len(b) - 1 (not trimmed), or q = [] and r = a for a shorter a.

    Each step multiplies by lc(b)/g, g = gcd(lc(b), leading remainder term),
    so scale divides lc(b)^(deg a - deg b + 1) and is 1 when lc(b) divides
    every leading term.  A coefficient below the current window is multiplied
    by the scale so far only when the window reaches it."""
    rem = list(a)
    db = len(b) - 1
    lb = b[-1]
    steps = len(a) - db
    quo = [0] * steps
    mults = [1] * steps
    scale = 1
    for i in range(steps - 1, -1, -1):
        rem[i] *= scale
        c = rem[i + db]
        if not c:
            continue
        g = math.gcd(c, lb)
        f, c = lb // g, c // g
        quo[i] = c
        for j in range(i, i + db):
            rem[j] = f * rem[j] - c * b[j - i]
        mults[i] = f
        scale *= f
    later = 1  # product of the multipliers of the steps after step i
    for i in range(steps):
        quo[i] *= later
        later *= mults[i]
    return quo, rem[:db], scale


def divrem(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Euclidean division: a = q*b + r with deg r < deg b.  Pseudo-divides
    the numerators, scale*a.nums = nq*b.nums + nr, then q = nq*b.den /
    (scale*a.den) and r = nr / (scale*a.den)."""
    if b.is_zero:
        raise DivByZeroPoly("division by the zero polynomial")
    if a.degree < b.degree:
        return ZERO, a
    nq, nr, scale = pseudo_divrem(a.nums, b.nums)
    return _poly([c * b.den for c in nq], scale * a.den), _poly(nr, scale * a.den)


def exact_div(a: Poly, b: Poly) -> Poly:
    q, r = divrem(a, b)
    if not r.is_zero:
        raise ValueError("division is not exact")
    return q


def cofactor_by_pseudo_division(a: Sequence[int], b: Sequence[int]) -> Optional[list[int]]:
    """exactpoly._cofactor by pseudo-division: a / b for integer lists, b
    nonempty with lc(b) > 0, when b divides a in Z[t], else None; an exact
    division by such a b takes every step at scale 1."""
    q, r, scale = pseudo_divrem(a, b)
    return q if scale == 1 and not any(r) else None


def seed_by_whole_unit(A: Poly, allow_d1: bool = False) -> Union[PellSolution, RejectionReason]:
    """generate_from_seed's answer from A^2 - 1 as one polynomial: D is the
    product of its odd-multiplicity factors, B the square root of
    (A^2 - 1) / D with positive leading coefficient."""
    U = A * A - ONE
    D = ONE
    for mult, fac in squarefree_decomposition(U):
        if mult % 2:
            D = D * fac
    if (small := _below_degree_floor(D, allow_d1)) is not None:
        return small
    B = poly_sqrt(exact_div(U, D))
    assert B is not None, "odd-multiplicity split must leave a square cofactor"
    return PellSolution(A=A, B=B, D=D, n=A.degree, d=D.degree // 2)


def rat_nth_root(x: Rat, m: int) -> Optional[Rat]:
    """Exact rational m-th root, or None.  Even m needs x >= 0 and returns
    the nonnegative root; odd m keeps the sign."""
    if m < 1:
        raise ValueError("root index must be positive")
    neg = x < 0
    if neg and m % 2 == 0:
        return None
    num = _int_nth_root(abs(x.numerator), m)
    den = _int_nth_root(x.denominator, m)
    if num is None or den is None:
        return None
    r = Rat(num, den)
    return -r if neg else r


def series_root_by_fractions(top: Sequence[Rat], m: int) -> Optional[Poly]:
    """_series_root's answer from the coefficients top themselves, highest
    first, by Miller's recurrence with a Fraction per product and sum:
    p_k = sum_{j=1..k} ((m+1)j - mk) top[j] p_(k-j) / (m k top[0])."""
    a = rat_nth_root(top[0], m)
    if a is None:
        return None
    p = [a]
    for k in range(1, len(top)):
        acc = sum(((m + 1) * j - m * k) * top[j] * p[k - j] for j in range(1, k + 1) if top[j])
        p.append(acc / (m * k * top[0]))
    return Poly(reversed(p))


def compose_by_fractions(p: Poly, q: Poly) -> Poly:
    """p(q(t)) by Horner on Poly values, acc <- acc*q + c over the
    coefficients c of p, highest first, each step a reduced Poly."""
    acc = ZERO
    for c in reversed(p.coeffs):
        acc = acc * q + constant(c)
    return acc


# The coefficient grammar as a regex: sign, numerator, denominator.
RATIONAL_RE = re.compile(r"\s*([+-]?)(\d+)(?:/(\d+))?\s*")


def rational_pair_by_regex(text: str, at: int = 0) -> tuple[int, int]:
    """exactpoly._rational_pair's answer, or its error, from RATIONAL_RE:
    the regex's groups give the digit runs and where they start."""
    m = RATIONAL_RE.fullmatch(text)
    if not m:
        raise ValueError(f"expected [sign]digits[/digits], got {text!r}")
    sign, num, den = m.groups("1")
    num = int(sign + _significant_digits(num, at + m.start(2)))
    den = int(_significant_digits(den, at + m.start(3)))
    if not den:
        raise ZeroDivisionError("zero denominator")
    return num, den


def parse_rational_by_fraction(text: str) -> Rat:
    """parse_rational's answer from fractions.Fraction's own string parser,
    behind the same grammar check, digit limit and messages.  decimal has
    no limit on its conversions: each run of digits is counted by its
    Decimal's exponent and handed to Fraction as the digits of its int."""
    m = RATIONAL_RE.fullmatch(text)
    if not m:
        raise ValueError(f"expected [sign]digits[/digits], got {text!r}")
    limit = sys.get_int_max_str_digits()
    runs = []
    for group in (2, 3):
        if m.group(group) is not None:
            value = Decimal(m.group(group))
            if limit and value.adjusted() >= limit:
                raise PolyParseError(
                    f"coefficient of {value.adjusted() + 1} digits past the {limit}-digit limit",
                    m.start(group),
                )
            runs.append(str(int(value)))
    try:
        return Rat(m.group(1) + "/".join(runs))
    except ZeroDivisionError:
        raise ZeroDivisionError("zero denominator") from None


def format_poly_by_fractions(p: Poly) -> str:
    """format_poly's text from a Fraction per coefficient."""
    if p.is_zero:
        return "0"
    parts: list[str] = []
    for k in range(p.degree, -1, -1):
        c = coeff(p, k)
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if k == 0:
            body = str(mag)
        elif mag == 1:
            body = "t" if k == 1 else f"t^{k}"
        else:
            body = f"{mag}*t" if k == 1 else f"{mag}*t^{k}"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def to_coeff_strings_by_fractions(p: Poly) -> list[str]:
    """coeff_strings_and_text's list from the Fraction coefficients."""
    return [f"{c.numerator}/{c.denominator}" for c in p.coeffs]


def from_coeff_strings_by_fractions(items: list[Union[str, int]]) -> Poly:
    """from_coeff_strings' answer, or its PolyParseError, from a Fraction
    per item and the Poly constructor."""
    if not isinstance(items, list):
        raise PolyParseError(f"coefficients must be a list, not {type(items).__name__}", 0)
    if len(items) > MAX_DEGREE + 1:
        raise PolyParseError(f"more coefficients than the degree bound {MAX_DEGREE} allows", MAX_DEGREE + 1)
    out = []
    for i, item in enumerate(items):
        if type(item) not in (str, int):
            raise PolyParseError(f"bad coefficient {item!r}: not a string or an integer", i)
        try:
            out.append(Rat(item) if type(item) is int else parse_rational_by_fraction(item))
        except PolyParseError as exc:
            raise PolyParseError(exc.message, i) from None
        except (ValueError, ZeroDivisionError) as exc:
            raise PolyParseError(f"bad coefficient {item!r}: {exc}", i) from None
    return Poly(out)


X = Poly([0, 1])


def resultant(a: Poly, b: Poly) -> Rat:
    """Resultant along the primitive remainder sequence of the numerators,
    by the reduction rules res(a, b) = (-1)^(deg a deg b) res(b, a),
    res(c*a, b) = c^(deg b) res(a, b), and, for deg a >= deg b with
    a = q*b + r, res(a, b) = (-1)^(deg a deg b) lc(b)^(deg a - deg r) res(b, r).
    A pseudo-remainder scale*r = content*primitive enters as the factor
    (content/scale)^(deg b), so no coefficient is ever a fraction."""
    if a.is_zero or b.is_zero:
        return Rat(0)
    if a.degree == 0 or b.degree == 0:
        return leading(a) ** b.degree * leading(b) ** a.degree
    cu, u = _primitive(list(a.nums))
    cv, v = _primitive(list(b.nums))
    factor = Rat(cu, a.den) ** b.degree * Rat(cv, b.den) ** a.degree
    if len(u) < len(v):
        u, v = v, u
        if a.degree * b.degree % 2:
            factor = -factor
    while len(v) > 1:
        m, n = len(u) - 1, len(v) - 1
        _, r, scale = pseudo_divrem(u, v)
        c, r = _primitive(r)
        if not r:
            return Rat(0)
        factor *= v[-1] ** (m - len(r) + 1) * Rat(c, scale) ** n
        if m * n % 2:
            factor = -factor
        u, v = v, r
    return factor * v[0] ** (len(u) - 1)


def discriminant(p: Poly) -> Rat:
    """disc(p) = (-1)^(d(d-1)/2) res(p, p') / lc(p); zero iff p has a
    repeated root."""
    d = p.degree
    if d < 1:
        raise DegreeTooSmall("discriminant needs degree >= 1")
    sign = Rat(-1) ** (d * (d - 1) // 2)
    return sign * resultant(p, derivative(p)) / leading(p)


def classify_powers_every_m(sol: PellSolution) -> PowerClassification:
    """classify_powers' answer from an extraction at every admissible m."""
    candidates = admissible_exponents(sol.n, sol.d)
    witnesses: dict[int, Poly] = {}
    for m in candidates:
        root = extract_mth_root(sol.A, m)
        if root is not None:
            witnesses[m] = root
    return PowerClassification(
        n=sol.n, admissible_m=frozenset(candidates), witnesses=witnesses
    )


def power_solution_by_norm_form(sol: PellSolution, m: int) -> PellSolution:
    """power_solution's answer by square-and-multiply in Q[t][sqrt(D)],
    each doubling by (a + b*sqrt(D))^2 = (a^2 + D*b^2) + 2ab*sqrt(D)."""
    if m < 1:
        raise ValueError("power index must be >= 1")
    A, B, D = sol.A, sol.B, sol.D
    Am, Bm = A, B
    for bit in bin(m)[3:]:
        Am, Bm = Am * Am + D * (Bm * Bm), scale(Am * Bm, 2)
        if bit == "1":
            Am, Bm = Am * A + D * (Bm * B), Am * B + Bm * A
    return PellSolution(A=Am, B=Bm, D=D, n=m * sol.n, d=sol.d)


def branch_locus_by_product(f: Poly, values) -> bool:
    """verify_branch_locus_in's answer from the whole product, of degree
    deg f * len(values), divided once by the squarefree part of f'."""
    if f.degree < 2:
        raise DegreeTooSmall("branch locus check needs degree >= 2")
    product = ONE
    for c in values:
        product = product * (f - constant(c))
    radical = squarefree_part(derivative(f))
    if product.is_zero:
        return False
    _, rem = divrem(product, radical)
    return rem.is_zero


def branch_locus_by_fold(f: Poly, values) -> bool:
    """verify_branch_locus_in's answer from prod(f - c) folded modulo
    r = rad f', P <- P*(g - c) mod r with g = f mod r, once per distinct
    value."""
    if f.degree < 2:
        raise DegreeTooSmall("branch locus check needs degree >= 2")
    radical = squarefree_part(derivative(f))
    g = divrem(f, radical)[1]
    product = ONE
    for c in dict.fromkeys(map(constant, values)):
        product = divrem(product * (g - c), radical)[1]
    return product.is_zero


def power_polynomial(m: int) -> Poly:
    """Degree-m polynomial f with f(t^2) = T_m(t)^2, from the closed even/odd
    formulas (not from chebyshev; the composition identity is a test)."""
    if m < 1:
        raise ValueError("power polynomial index must be >= 1")
    k = m // 2
    w = Poly([0, 1])
    w1 = Poly([-1, 1])
    inner = Poly([0])
    for j in range(0, k + 1):
        inner = inner + scale(w1**j * w ** (k - j), math.comb(m, 2 * j))
    if m % 2 == 0:
        return inner * inner
    return w * inner * inner


def power_test(t: HurwitzTuple, m: int) -> bool:
    """Whether the tuple behaves like an m-th power: mod 2m, sigma1 and sigma0
    act as the reflections x -> -x and x -> 1 - x, and every tau fixes each
    residue.  Equivalently, every entry maps the mod-2m residue blocks onto
    blocks with the label images of an m-th power.

    The n = 6 worked example: with tau = (3, 9), the tuple is a cube and no
    square.

    >>> N = 12
    >>> sigma0 = Perm.from_cycles(N, [(i, N + 1 - i) for i in range(1, 7)])
    >>> sigma1 = Perm.from_cycles(N, [(i, N - i) for i in (1, 2, 4, 5)])
    >>> cube = HurwitzTuple(sigma0, standard_cycle(N), sigma1,
    ...                     (Perm.from_cycles(N, "(3,9)"),), n=6, d=2)
    >>> [power_test(cube, m) for m in (1, 2, 3)]
    [True, False, True]
    """
    if not is_special(t):
        raise NotSpecialForm("power_test needs the special form")
    if m < 1:
        raise ValueError("power index must be >= 1")
    if m == 1:
        return True
    if m not in admissible_exponents(t.n, t.d):
        raise ValueError(f"m = {m} not admissible for n = {t.n}, d = {t.d}")
    N, m2 = t.points, 2 * m
    for p in t.gens():
        if p.size != N:
            raise pg.SizeMismatch(f"size {p.size} != {N}")
    # sigmaInf, the standard cycle x -> x - 1, lowers every residue by one
    # because 2m divides 2n.
    return (
        all((y + x) % m2 == 0 for x, y in enumerate(t.sigma1.images, 1))
        and all((y + x) % m2 == 1 for x, y in enumerate(t.sigma0.images, 1))
        and all((y - x) % m2 == 0 for tau in t.taus for x, y in enumerate(tau.images, 1))
    )


def primitivity_profile(t: HurwitzTuple) -> set[int]:
    """The power profile of a special tuple read off its own points: the
    admissible m with 2m dividing the gcd over all x of sigma1(x) + x,
    sigma0(x) + x - 1 and tau(x) - x."""
    if not is_special(t):
        raise NotSpecialForm("primitivity_profile needs the special form")
    N = t.points
    for p in t.gens():
        if p.size != N:
            raise pg.SizeMismatch(f"size {p.size} != {N}")
    # sigmaInf, the standard cycle x -> x - 1, lowers every residue by one
    # because 2m divides 2n.
    points = range(1, N + 1)
    G = math.gcd(
        *map(operator.add, t.sigma1.images, points),
        *map(operator.add, t.sigma0.images, range(N)),
    )
    for tau in t.taus:
        G = math.gcd(G, *map(operator.sub, tau.images, points))
    return {m for m in admissible_exponents(t.n, t.d) if G % (2 * m) == 0}


def normalize_special(t: HurwitzTuple) -> HurwitzTuple:
    """Conjugate into special form.  Special inputs come back unchanged;
    otherwise sigmaInf is rebased to the standard descending cycle and the
    smallest common fixed index is rotated into 2n."""
    if is_special(t):
        return t
    N = t.points
    if not pg.is_full_cycle(t.sigmaInf):
        raise ValueError("sigmaInf must be a full cycle")
    for p in t.gens():
        if p.size != N:
            raise pg.SizeMismatch(f"sizes {p.size} and {N} differ")
    # gamma(N - k) = sigmaInf^k(N) conjugates sigmaInf to the standard cycle.
    gamma, ginv = [0] * N, [0] * (N + 1)
    x = N
    for k in range(N):
        gamma[N - k - 1], ginv[x] = x, N - k
        x = t.sigmaInf.images[x - 1]
    fixed = common_fixed(t)
    if not fixed:
        raise ValueError("no index is fixed by sigma1 and every tau")
    # Conjugating by gamma, then rotating by s, relabels each entry p to
    # y -> ginv(p(gamma(y - s))) + s, mod N in 1..N.
    s = N - min(ginv[f] for f in fixed)
    src = [g - 1 for g in gamma[N - s :] + gamma[: N - s]]
    back = [0] + [(ginv[z] + s - 1) % N + 1 for z in range(1, N + 1)]

    def relabel(p: Perm) -> Perm:
        imgs = p.images
        return pg._unchecked(tuple([back[imgs[z]] for z in src]))

    return HurwitzTuple(
        sigma0=relabel(t.sigma0),
        sigmaInf=relabel(t.sigmaInf),
        sigma1=relabel(t.sigma1),
        taus=tuple(relabel(tau) for tau in t.taus),
        n=t.n,
        d=t.d,
    )


class NotPreserved(ValueError):
    """A generator does not map blocks to blocks."""


class ClosureOverflow(RuntimeError):
    """Generated group exceeded the closure bound."""


def format_cycles_loosely(p: Perm, rng) -> str:
    """Cycle text of p as the grammar allows it, not as format_cycles writes
    it: each cycle from a random point, the cycles in random order with "()"
    pieces among them, and random whitespace after any token."""
    pieces = []
    for c in cycles(p):
        k = rng.randrange(len(c))
        pieces.append(c[k:] + c[:k])
    pieces += [()] * rng.randrange(0 if pieces else 1, 3)
    rng.shuffle(pieces)
    tokens = []
    for c in pieces:
        tokens.append("(")
        for i, x in enumerate(c):
            tokens += [",", str(x)] if i else [str(x)]
        tokens.append(")")
    spaces = ("", "", " ", "\t", "\n", "\xa0", "  ")
    return "".join(tok + rng.choice(spaces) for tok in ["", *tokens])


def chain(perms: Sequence[Perm]) -> Perm:
    """Product of perms read in application order: the first listed acts
    first."""
    if not perms:
        raise ValueError("empty chain has no defined size")
    acc = identity(perms[0].size)
    for p in perms:
        acc = compose(p, acc)
    return acc


def conjugate(a: Perm, g: Perm) -> Perm:
    """g^-1 * a * g."""
    if a.size != g.size:
        raise SizeMismatch(f"sizes {a.size} and {g.size} differ")
    return compose(inverse(g), compose(a, g))


def branching(p: Perm) -> int:
    """Sum of (length - 1) over all cycles."""
    return sum(len(c) - 1 for c in cycles(p))


def congruence_partition(N: int, ell: int) -> BlockPartition:
    """Blocks by residue: label h holds {j : j = h (mod ell)}, h = 1..ell."""
    if ell < 1 or N % ell != 0:
        raise NotADivisor(f"{ell} does not divide {N}")
    blocks = tuple(
        frozenset(range(h, N + 1, ell)) for h in range(1, ell + 1)
    )
    return BlockPartition(N, ell, blocks)


def as_sets(part: BlockPartition) -> list[set[int]]:
    """The blocks in label order."""
    return [set(b) for b in part.blocks]


def induced_block_action(perms: Sequence[Perm], part: BlockPartition) -> list[Perm]:
    """Image of each generator on block labels; NotPreserved if any splits a
    block."""
    out = []
    for i, p in enumerate(perms):
        q = preserves_partition(p, part)
        if q is None:
            raise NotPreserved(f"generator {i} does not preserve the partition")
        out.append(q)
    return out


def closure(perms: Sequence[Perm], max_size: int) -> list[Perm]:
    """All products of the generators, or ClosureOverflow past max_size."""
    if not perms:
        raise ValueError("need at least one generator")
    n = perms[0].size
    for p in perms:
        if p.size != n:
            raise SizeMismatch("mixed generator sizes")
    seen = {identity(n).images}
    frontier = [identity(n)]
    elements = [identity(n)]
    while frontier:
        nxt = []
        for g in frontier:
            for p in perms:
                h = compose(p, g)
                if h.images not in seen:
                    seen.add(h.images)
                    if len(seen) > max_size:
                        raise ClosureOverflow(f"closure exceeded {max_size} elements")
                    elements.append(h)
                    nxt.append(h)
        frontier = nxt
    return elements


def _order_of(p: Perm) -> int:
    k = 1
    q = p
    e = identity(p.size)
    while q != e:
        q = compose(q, p)
        k += 1
    return k


def is_dihedral_of_order(
    perms: Sequence[Perm],
    order: int,
    r: Optional[Perm] = None,
    s: Optional[Perm] = None,
    max_size: Optional[int] = None,
) -> bool:
    """Whether the generated group is dihedral of the given order, with r of
    order order/2, s an involution outside <r>, and (s*r)^2 = id.  When r and
    s are omitted, any such pair inside the group qualifies."""
    if order < 2 or order % 2 != 0:
        return False
    m = order // 2
    if max_size is None:
        max_size = 10 * m
    group = closure(perms, max_size)
    if len(group) != order:
        return False
    e = identity(perms[0].size)

    def fits(rc: Perm, sc: Perm) -> bool:
        if _order_of(rc) != m or sc == e:
            return False
        if compose(sc, sc) != e:
            return False
        sr = compose(sc, rc)
        if compose(sr, sr) != e:
            return False
        powers = {power(rc, k).images for k in range(m)}
        return sc.images not in powers

    if r is not None and s is not None:
        if r.images not in {g.images for g in group}:
            return False
        if s.images not in {g.images for g in group}:
            return False
        return fits(r, s)
    for rc in group:
        if _order_of(rc) != m:
            continue
        for sc in group:
            if fits(rc, sc):
                return True
    return False
