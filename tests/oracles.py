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
from pellab.pellcore import PellSolution, RejectionReason, _below_degree_floor


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
