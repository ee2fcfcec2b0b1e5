"""Independent oracles that the tests import: code kept out of src because
no command reaches it.

The census counts conjugacy classes by orbit counting and never builds one.
The key-based grouping below builds every class, so the tests check the
counts against it.

The seed splits A^2 - 1 through its coprime factors A - 1 and A + 1 and
reads D and B from their decompositions.  The whole-unit seed below
decomposes A^2 - 1 itself and takes B as the square root of the cofactor.

The series root and composition run on integer numerators.  Below, the
same recurrence runs on Fractions, and composition is Horner on reduced
Poly values.

classify_powers skips every m that has an admissible divisor without a
root, since T_ab = T_a o T_b.  classify_powers_every_m tries every
admissible m.

The commands answer with permgroup's products, rotation and cycle walk and
with hurwitz's residue-congruence power test.  The permutation layer below
reaches the same facts another way: conjugate as g^-1 * a * g, branching
from the cycles, and the paper's block criterion for the profile, with
congruence block systems (congruence_partition), their induced label
actions (induced_block_action, NotPreserved), the bounded group closure
(closure, ClosureOverflow) and the dihedral recognizer
(is_dihedral_of_order, _order_of).  power_polynomial, the f with
f(t^2) = T_m(t)^2, is built from its closed formulas for the ramification
tests.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence, Union

from pellab import permgroup as pg
from pellab.census import CASES, DISJOINT, _case_of_split, _tuple_sort_key, enumerate_shapes
from pellab.exactpoly import (
    ONE,
    ZERO,
    Poly,
    Rat,
    constant,
    exact_div,
    poly_sqrt,
    rat_nth_root,
    squarefree_decomposition,
)
from pellab.hurwitz import HurwitzTuple, common_fixed
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
    _branching,
    compose,
    cycles,
    identity,
    inverse,
    preserves_partition,
)


def canonical_key(t: HurwitzTuple):
    """Least image sequence of (sigma0, sigma1, taus) over the admissible
    rotations: one per index i0 fixed by sigma1 and every tau, the rotation
    that relabels i0 as 2n.  Keys compare sigma0 first, so sigma1 and the
    taus are rotated only for the shifts that tie on the least sigma0."""
    N = t.points
    by_shift = {N - i0: pg.rotate(t.sigma0, N - i0).images for i0 in common_fixed(t)}
    if not by_shift:
        raise ValueError("tuple has no commonly fixed index")
    least = min(by_shift.values())
    return min(
        (least, pg.rotate(t.sigma1, s).images, tuple(pg.rotate(tau, s).images for tau in t.taus))
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


def classes_by_case(tuples: Iterable[HurwitzTuple]) -> dict[str, list[list[HurwitzTuple]]]:
    """The conjugacy classes of each case, a tuple's case read from its
    split."""
    by_case: dict[str, list[HurwitzTuple]] = {c: [] for c in CASES}
    for t in tuples:
        by_case[_case_of_split(t)].append(t)
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
        inner = inner + (w1**j * w ** (k - j)).scale(math.comb(m, 2 * j))
    if m % 2 == 0:
        return inner * inner
    return w * inner * inner


class NotPreserved(ValueError):
    """A generator does not map blocks to blocks."""


class ClosureOverflow(RuntimeError):
    """Generated group exceeded the closure bound."""


def conjugate(a: Perm, g: Perm) -> Perm:
    """g^-1 * a * g."""
    if a.size != g.size:
        raise SizeMismatch(f"sizes {a.size} and {g.size} differ")
    return compose(inverse(g), compose(a, g))


def branching(p: Perm) -> int:
    """Sum of (length - 1) over all cycles."""
    return _branching(cycles(p))


def congruence_partition(N: int, ell: int) -> BlockPartition:
    """Blocks by residue: label h holds {j : j = h (mod ell)}, h = 1..ell."""
    if ell < 1 or N % ell != 0:
        raise NotADivisor(f"{ell} does not divide {N}")
    blocks = tuple(
        frozenset(range(h, N + 1, ell)) for h in range(1, ell + 1)
    )
    return BlockPartition(N, ell, blocks)


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
        powers = {(rc**k).images for k in range(m)}
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
