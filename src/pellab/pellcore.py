"""Polynomial Pell equation core: verification, seeding, powers, roots.

A solution is a triple of rational polynomials with A^2 - D*B^2 = 1, B != 0,
D squarefree of even degree 2d.  Powers of a solution are driven by the
degree-m Chebyshev polynomial: the m-th power has first component T_m(A).
The default degree policy asks deg D >= 4; allow_d1 relaxes it to 2.

The m-th power (A + B*sqrt(D))^m is computed by square-and-multiply in
Q[t][sqrt(D)], O(log m) polynomial products.  The Chebyshev root of A is
read off in one pass: the top coefficients of T_m(P) are those of
2^(m-1) P^m, so P is the m-th root, as a power series in 1/t, of
A / 2^(m-1), truncated to the polynomial part (the approximate m-th root
step of Kozen and Landau, "Polynomial decomposition algorithms", J. Symbolic
Comput. 7, 1989).  T_m(P) = A is then checked by full composition, which
is the certificate for the answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from typing import Optional, Union

from .exactpoly import (
    ONE,
    DegreeTooSmall,
    Poly,
    _series_root,
    compose,
    constant,
    derivative,
    divrem,
    gcd,
    squarefree_decomposition,
    squarefree_part,
)

NOT_UNIT = "NotUnit"
ZERO_B = "ZeroB"
ODD_DEGREE_D = "OddDegreeD"
SMALL_DEGREE_D = "SmallDegreeD"
NON_SQUAREFREE_D = "NonSquarefreeD"


@dataclass(frozen=True)
class RejectionReason:
    """Structured negative verdict; kind is one of the module constants."""

    kind: str
    message: str


@dataclass(frozen=True)
class PellSolution:
    """Verified solution of A^2 - D*B^2 = 1 with n = deg A, d = deg D / 2."""

    A: Poly
    B: Poly
    D: Poly
    n: int
    d: int


@dataclass
class PowerClassification:
    """Which admissible exponents m have a rational Chebyshev root of A.

    admissible_m holds every candidate (see admissible_exponents); witnesses
    maps each m that has a rational root to that root.  primitive means no
    witness, i.e. primitive over the rationals; a root might still exist
    with irrational coefficients.
    """

    n: int
    admissible_m: frozenset[int]
    witnesses: dict[int, Poly] = field(default_factory=dict)

    @property
    def primitive(self) -> bool:
        return not self.witnesses


def admissible_exponents(n: int, d: int) -> list[int]:
    """The exponents m >= 2 for which a solution with deg A = n and
    deg D = 2d can be an m-th power: m divides n and the root keeps
    degree n/m >= d."""
    return [m for m in range(2, n + 1) if n % m == 0 and n // m >= d]


def _below_degree_floor(D: Poly, allow_d1: bool) -> Optional[RejectionReason]:
    """The degree policy: deg D >= 4, or >= 2 with allow_d1."""
    least = 2 if allow_d1 else 4
    if D.degree < least:
        return RejectionReason(
            SMALL_DEGREE_D,
            f"deg D = {D.degree} below policy minimum {least} (allow_d1={allow_d1})",
        )
    return None


def verify_pell(
    A: Poly, B: Poly, D: Poly, allow_d1: bool = False
) -> Union[PellSolution, RejectionReason]:
    """Check the unit equation and the degree/squarefreeness policy."""
    if B.is_zero:
        return RejectionReason(ZERO_B, "B = 0 gives only the trivial unit")
    if A * A - D * (B * B) != ONE:
        return RejectionReason(NOT_UNIT, "A^2 - D*B^2 != 1")
    if D.degree % 2 != 0:
        return RejectionReason(
            ODD_DEGREE_D, f"deg D = {D.degree} is odd; no polynomial B*sqrt(D) form"
        )
    if (small := _below_degree_floor(D, allow_d1)) is not None:
        return small
    if gcd(D, derivative(D)).degree > 0:
        return RejectionReason(NON_SQUAREFREE_D, "D has a repeated root")
    return PellSolution(A=A, B=B, D=D, n=A.degree, d=D.degree // 2)


@cache
def chebyshev(m: int) -> Poly:
    """Degree-m Chebyshev polynomial from its explicit coefficients:
    T_m = sum_k (-1)^k m/(m-k) C(m-k, k) 2^(m-2k-1) t^(m-2k), 0 <= 2k <= m.
    Only the requested index is cached."""
    if m < 0:
        raise ValueError("chebyshev index must be >= 0")
    if m == 0:
        return ONE
    coeffs = [0] * (m + 1)
    for k in range(m // 2 + 1):
        c = m * math.comb(m - k, k) * 2 ** (m - 2 * k) // (2 * (m - k))
        coeffs[m - 2 * k] = -c if k % 2 else c
    return Poly(coeffs)


def power_solution(sol: PellSolution, m: int) -> PellSolution:
    """The m-th power (A + B*sqrt(D))^m = Am + Bm*sqrt(D), so Am = T_m(A),
    by square-and-multiply over the bits of m, highest first."""
    if m < 1:
        raise ValueError("power index must be >= 1")
    A, B, D = sol.A, sol.B, sol.D
    Am, Bm = A, B
    for bit in bin(m)[3:]:
        # (a + b*sqrt(D))^2 = (a^2 + D*b^2) + 2ab*sqrt(D)
        Am, Bm = Am * Am + D * (Bm * Bm), (Am * Bm).scale(2)
        if bit == "1":
            Am, Bm = Am * A + D * (Bm * B), Am * B + Bm * A
    return PellSolution(A=Am, B=Bm, D=D, n=m * sol.n, d=sol.d)


def generate_from_seed(
    A: Poly, allow_d1: bool = False
) -> Union[PellSolution, RejectionReason]:
    """Split A^2 - 1 = D * B^2 with D the monic product of odd-multiplicity
    factors; every square factor lands in B.  A^2 - 1 = (A - 1)(A + 1), and
    the two factors differ by 2, so they are coprime and their squarefree
    decompositions, each of degree n, together make that of A^2 - 1: a
    factor fac of multiplicity mult goes into D when mult is odd, and
    B = |lc A| * prod fac^(mult // 2).

    >>> from pellab.exactpoly import parse_poly
    >>> generate_from_seed(parse_poly("2*t^3 - 1"))
    PellSolution(A=Poly('2*t^3 - 1'), B=Poly('2*t'), D=Poly('t^4 - t'), n=3, d=2)
    """
    if A.degree < 1:
        raise DegreeTooSmall("seed must be nonconstant")
    D, B = ONE, constant(abs(A.leading))
    for half in (A - ONE, A + ONE):
        for mult, fac in squarefree_decomposition(half):
            if mult % 2:
                D = D * fac
            B = B * fac ** (mult // 2)
    if (small := _below_degree_floor(D, allow_d1)) is not None:
        return small
    return PellSolution(A=A, B=B, D=D, n=A.degree, d=D.degree // 2)


def extract_mth_root(A: Poly, m: int) -> Optional[Poly]:
    """A' with T_m(A') = A or = -A, or None when no rational A' exists.

    With h = n/m, the top h+1 coefficients of T_m(P) are those of
    2^(m-1) P^m, so P is the truncated m-th root of target / 2^(m-1) read
    from the top coefficient (exactpoly._series_root).  The candidate is
    confirmed by full composition.  One target suffices: for odd m, T_m is
    odd and the root of -A is minus the root of A, so -A has a root exactly
    when A has; for even m, T_m(P) has a positive leading coefficient, so
    the target is whichever of A and -A has one."""
    if m < 1:
        raise ValueError("root index must be >= 1")
    if m == 1:
        return A
    n = A.degree
    if n < 1 or n % m != 0:
        return None
    target = -A if m % 2 == 0 and A.nums[-1] < 0 else A
    candidate = _series_root(target.nums[n - n // m :][::-1], target.leading / 2 ** (m - 1), m)
    if candidate is not None and compose(chebyshev(m), candidate) == target:
        return candidate
    return None


def classify_powers(sol: PellSolution) -> PowerClassification:
    """Try the admissible exponents; primitive when none has a rational
    root.  T_ab = T_a o T_b, so a root for m gives one for every divisor of
    m (each admissible too): m is tried only when every smaller admissible
    divisor has a witness."""
    candidates = admissible_exponents(sol.n, sol.d)
    witnesses: dict[int, Poly] = {}
    for m in candidates:
        if not all(m % k or k in witnesses for k in candidates if k < m):
            continue
        root = extract_mth_root(sol.A, m)
        if root is not None:
            witnesses[m] = root
    return PowerClassification(
        n=sol.n, admissible_m=frozenset(candidates), witnesses=witnesses
    )


def verify_branch_locus_in(f: Poly, values) -> bool:
    """Whether every critical value of f lies in the given set: the
    squarefree part of f' must divide prod(f - c)."""
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


def ramification_type(f: Poly, c) -> tuple[tuple[int, int], ...]:
    """Multiset of (multiplicity, point count) over the fiber f = c, from the
    squarefree decomposition; sum of products equals deg f."""
    if f.degree < 1:
        raise DegreeTooSmall("ramification type needs degree >= 1")
    shifted = f - constant(c)
    return tuple(
        sorted((mult, fac.degree) for mult, fac in squarefree_decomposition(shifted))
    )
