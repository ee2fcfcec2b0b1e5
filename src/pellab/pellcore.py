"""Polynomial Pell equation core: verification, seeding, powers, roots.

A solution is a triple of rational polynomials with A^2 - D*B^2 = 1, B != 0,
D squarefree of even degree 2d.  Powers of a solution are driven by the
degree-m Chebyshev polynomial: the m-th power has first component T_m(A).
The default degree policy asks deg D >= 4; allow_d1 relaxes it to 2.

The unit equation is checked on the integer numerators of A, B and D,
with no Poly built.  The m-th power (A + B*sqrt(D))^m is computed by
square-and-multiply in Q[t][sqrt(D)], O(log m) polynomial products; a
doubling builds each component from the numerators and reduces it once.
The Chebyshev root of A is read off in one pass: the top coefficients of
T_m(P) are those of 2^(m-1) P^m, so P is the m-th root, as a power series
in 1/t, of A / 2^(m-1), truncated to the polynomial part (the approximate
m-th root step of Kozen and Landau, "Polynomial decomposition algorithms",
J. Symbolic Comput. 7, 1989).  T_m(P) = A is then checked by full
composition, which is the certificate for the answer.  Chebyshev roots are
unique up to sign and T_ab = T_a o T_b, so classify_powers takes the root
for a composite m from the witness of its largest admissible divisor a, at
degree n/a; that root has the sign an extraction from A gives (a positive
leading coefficient for even m, that of lc A for odd m).
"""

import math
from functools import cache
from typing import Optional, Union

from . import _Record, admissible_exponents
from .exactpoly import (
    ONE,
    DegreeTooSmall,
    Poly,
    _convolve,
    _poly,
    _series_root,
    _square,
    compose,
    constant,
    derivative,
    gcd,
    gcd_cofactors,
    squarefree_decomposition,
    squarefree_part,
)

NOT_UNIT = "NotUnit"
ZERO_B = "ZeroB"
SMALL_DEGREE_D = "SmallDegreeD"
NON_SQUAREFREE_D = "NonSquarefreeD"


class RejectionReason(_Record):
    """Structured negative verdict; kind is one of the module constants."""

    __slots__ = ()

    def __new__(cls, kind, message):
        return tuple.__new__(cls, (kind, message))


class PellSolution(_Record):
    """Verified solution of A^2 - D*B^2 = 1 with n = deg A, d = deg D / 2."""

    __slots__ = ()

    def __new__(cls, A, B, D, n, d):
        return tuple.__new__(cls, (A, B, D, n, d))


class PowerClassification(_Record):
    """Which admissible exponents m have a rational Chebyshev root of A.

    admissible_m is the frozenset of every candidate (see
    admissible_exponents); witnesses maps each m that has a rational root to
    that root.  primitive means no witness, i.e. primitive over the
    rationals; a root might still exist with irrational coefficients.
    """

    __slots__ = ()

    def __new__(cls, n, admissible_m, witnesses):
        return tuple.__new__(cls, (n, admissible_m, witnesses))

    @property
    def primitive(self) -> bool:
        return not self.witnesses


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
    """Check the unit equation and the degree/squarefreeness policy.  With
    A = a/alpha, B = b/beta, D = d/delta and s/r = delta*beta^2/alpha^2 in
    lowest terms, A^2 - 1 = D*B^2 is a^2*s - alpha^2*s = d*b^2*r on the
    integer numerators, so two integer lists are compared and no Poly or
    coefficient gcd is built."""
    if B.is_zero:
        return RejectionReason(ZERO_B, "B = 0 gives only the trivial unit")
    alpha2, dbeta2 = A.den * A.den, D.den * B.den * B.den
    g = math.gcd(dbeta2, alpha2)
    s, r = dbeta2 // g, alpha2 // g
    lhs = _square(A.nums) or [0]
    rhs = _convolve(D.nums, _square(B.nums))
    if s != 1:
        lhs = [c * s for c in lhs]
    if r != 1:
        rhs = [c * r for c in rhs]
    lhs[0] -= alpha2 * s
    # Both lists are untrimmed, but only a constant A (lhs) or D = 0 (rhs)
    # leaves zeros on top: unequal lists are equal polynomials only as 0.
    if lhs != rhs and (any(lhs) or any(rhs)):
        return RejectionReason(NOT_UNIT, "A^2 - D*B^2 != 1")
    # With B != 0, A^2 - D*B^2 = 1 forces deg D even unless D = 0 (degree -1).
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
    by square-and-multiply over the bits of m, highest first.  Every power
    of a solution is a unit, a^2 - D*b^2 = 1, so a doubling takes one
    square: (a + b*sqrt(D))^2 = (2a^2 - 1) + 2ab*sqrt(D), T_2k = 2T_k^2 - 1.
    Each doubled component is built from the numerators, over alpha^2 and
    alpha*beta for Am = a/alpha and Bm = b/beta, and reduced once."""
    if m < 1:
        raise ValueError("power index must be >= 1")
    A, B, D = sol.A, sol.B, sol.D
    Am, Bm = A, B
    for bit in bin(m)[3:]:
        alpha = Am.den
        a2 = [c + c for c in _square(Am.nums)]
        a2[0] -= alpha * alpha
        ab = [c + c for c in _convolve(Am.nums, Bm.nums)]
        Am, Bm = _poly(a2, alpha * alpha), _poly(ab, alpha * Bm.den)
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
    D, B = ONE, constant((abs(A.nums[-1]), A.den))
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
    candidate = _series_root(target.nums[n - n // m :][::-1], (target.nums[-1], target.den << (m - 1)), m)
    if candidate is not None and compose(chebyshev(m), candidate) == target:
        return candidate
    return None


def classify_powers(sol: PellSolution) -> PowerClassification:
    """Try the admissible exponents; primitive when none has a rational
    root.  T_ab = T_a o T_b, so a root for m gives one for every divisor of
    m (each admissible too): m is tried only when every smaller admissible
    divisor has a witness.  Roots are unique up to sign, so the root for m
    is taken from the witness of the largest such divisor a, as its
    (m/a)-th root at degree n/a.  It has the sign an extraction from A
    gives, a positive leading coefficient for even m and that of lc A for
    odd m, since extract_mth_root's rule composes: an even a or b gives a
    positive root, and odd ones keep the sign of lc A.  Only an m with no
    admissible proper divisor, a prime, is extracted from A itself."""
    candidates = admissible_exponents(sol.n, sol.d)
    witnesses: dict[int, Poly] = {}
    for m in candidates:
        divisors = [k for k in candidates if k < m and m % k == 0]
        if not all(k in witnesses for k in divisors):
            continue
        if divisors:
            root = extract_mth_root(witnesses[divisors[-1]], m // divisors[-1])
        else:
            root = extract_mth_root(sol.A, m)
        if root is not None:
            witnesses[m] = root
    return PowerClassification(
        n=sol.n, admissible_m=frozenset(candidates), witnesses=witnesses
    )


def verify_branch_locus_in(f: Poly, values) -> bool:
    """Whether every critical value of f lies in the given set: r = rad f'
    must divide prod(f - c).  r is squarefree, so that holds exactly when
    r, replaced by its cofactor r / gcd(r, f - c) for each distinct value
    c in turn, ends a constant; the loop stops as soon as it is.  No
    remainder of f is taken: r divides rad f', so gcd(r, f - c) is
    gcd(r, (f mod rad f') - c) and the cofactor is the same.  Everything
    built is f - c, a factor of rad f' or a cofactor of f - c, of degree
    at most deg f and a height that does not grow with the number of
    values.  Every value is read first."""
    if f.degree < 2:
        raise DegreeTooSmall("branch locus check needs degree >= 2")
    radical = squarefree_part(derivative(f))
    for c in dict.fromkeys(map(constant, values)):
        radical = gcd_cofactors(radical, f - c)[1]
        if radical.degree < 1:
            return True
    return False


def ramification_type(f: Poly, c) -> tuple[tuple[int, int], ...]:
    """Multiset of (multiplicity, point count) over the fiber f = c, from the
    squarefree decomposition; sum of products equals deg f."""
    if f.degree < 1:
        raise DegreeTooSmall("ramification type needs degree >= 1")
    shifted = f - constant(c)
    return tuple(
        sorted((mult, fac.degree) for mult, fac in squarefree_decomposition(shifted))
    )
