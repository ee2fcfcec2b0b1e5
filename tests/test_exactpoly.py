from __future__ import annotations

import itertools
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pellab import exactpoly
from pellab.exactpoly import (
    MAX_DEGREE,
    ONE,
    ZERO,
    DegreeTooSmall,
    GcdOfZeros,
    Poly,
    PolyParseError,
    ZeroInput,
    _rational_pair,
    _series_root,
    coeff_strings_and_text,
    compose,
    constant,
    derivative,
    format_poly,
    from_coeff_strings,
    gcd,
    gcd_cofactors,
    parse_poly,
    parse_rational,
    poly_sqrt,
    squarefree_decomposition,
    squarefree_part,
)
from pellab.pellcore import chebyshev

from oracles import (
    DivByZeroPoly,
    X,
    coeff,
    cofactor_by_pseudo_division,
    compose_by_fractions,
    discriminant,
    divrem,
    evaluate,
    exact_div,
    format_poly_by_fractions,
    from_coeff_strings_by_fractions,
    leading,
    parse_rational_by_fraction,
    pseudo_divrem,
    rat_nth_root,
    rational_pair_by_regex,
    resultant,
    scale,
    series_root_by_fractions,
    shift,
    to_coeff_strings_by_fractions,
)

small_ints = st.integers(min_value=-9, max_value=9)
polys = st.lists(small_ints, max_size=6).map(Poly)
nonzero_polys = polys.filter(lambda p: not p.is_zero)
rationals = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, small_ints, st.integers(1, 12)),
    st.builds(Fraction, st.integers(-(2**90), 2**90), st.integers(1, 2**70)),
)
rational_polys = st.lists(rationals, max_size=8).map(Poly)
# Numerators and denominators past 2^64, mixed with small and zero ones.
wide_rationals = st.one_of(
    rationals,
    st.builds(Fraction, st.integers(-(2**100), 2**100), st.integers(2**64, 2**80)),
)
wide_polys = st.lists(wide_rationals, max_size=7).map(Poly)


def fraction_convolution(a: Poly, b: Poly) -> Poly:
    """Schoolbook product with a Fraction per coefficient product."""
    if a.is_zero or b.is_zero:
        return ZERO
    out = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return Poly(out)


def fraction_divrem(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Long division with a Fraction operation per coefficient step."""
    if a.degree < b.degree:
        return ZERO, a
    rem = list(a.coeffs)
    quo = [Fraction(0)] * (a.degree - b.degree + 1)
    for i in range(len(quo) - 1, -1, -1):
        c = rem[i + b.degree] / leading(b)
        quo[i] = c
        for j, bc in enumerate(b.coeffs):
            rem[i + j] -= c * bc
    return Poly(quo), Poly(rem[: b.degree])


def fraction_gcd(a: Poly, b: Poly) -> Poly:
    """Euclid's loop over Q on fraction_divrem remainders, made monic."""
    while not b.is_zero:
        a, b = b, fraction_divrem(a, b)[1]
    return a.monic()


def assert_cofactors(a: Poly, b: Poly):
    """gcd_cofactors(a, b) is (gcd(a, b), a/g, b/g), g monic, with the
    quotients of fraction_divrem, and swapping a and b swaps the cofactors."""
    g, ca, cb = gcd_cofactors(a, b)
    assert g == gcd(a, b) and leading(g) == 1
    assert g * ca == a and g * cb == b
    assert fraction_divrem(a, g) == (ca, ZERO) and fraction_divrem(b, g) == (cb, ZERO)
    assert gcd_cofactors(b, a) == (g, cb, ca)


def sylvester_resultant(a: Poly, b: Poly) -> Fraction:
    """Determinant of the Sylvester matrix, computed independently."""
    m, n = a.degree, b.degree
    if m < 0 or n < 0:
        return Fraction(0)
    if m == 0 and n == 0:
        return Fraction(1)
    if m == 0:
        return leading(a) ** n
    if n == 0:
        return leading(b) ** m
    size = m + n
    arow = [coeff(a, m - i) for i in range(m + 1)]
    brow = [coeff(b, n - i) for i in range(n + 1)]
    rows = []
    for i in range(n):
        rows.append([Fraction(0)] * i + arow + [Fraction(0)] * (size - m - 1 - i))
    for i in range(m):
        rows.append([Fraction(0)] * i + brow + [Fraction(0)] * (size - n - 1 - i))
    det = Fraction(1)
    for col in range(size):
        piv = next((r for r in range(col, size) if rows[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, size):
            if rows[r][col] != 0:
                f = rows[r][col] / rows[col][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return det


def test_trimming_and_degree():
    assert Poly([1, 2, 0, 0]).coeffs == (1, 2)
    assert Poly([]).is_zero
    assert Poly([0]).degree == -1
    assert Poly([0, 0, 3]).degree == 2
    assert Poly([5]).degree == 0


def test_arithmetic_basics():
    p = Poly([1, 2, 3])
    q = Poly([0, 1])
    assert p + q == Poly([1, 3, 3])
    assert p - p == ZERO
    assert (X + ONE) * (X - ONE) == Poly([-1, 0, 1])
    assert X**3 == Poly([0, 0, 0, 1])
    assert evaluate(p, Fraction(2)) == 1 + 4 + 12
    assert scale(p, Fraction(1, 2)) == Poly([Fraction(1, 2), 1, Fraction(3, 2)])
    assert shift(Poly([0, 0, 1]), 2) == Poly([0, 0, 0, 0, 1])


@given(polys, st.integers(0, 9))
def test_power_is_repeated_product(p, e):
    expected = ONE
    for _ in range(e):
        expected = expected * p
    assert p**e == expected


def test_power_multiplies_only_as_needed(monkeypatch):
    p = Poly([Fraction(1, 3), -2, 5])
    mul = Poly.__mul__
    products = []

    def counting(a, b):
        products.append(b)
        return mul(a, b)

    monkeypatch.setattr(Poly, "__mul__", counting)
    counts = []
    for e in range(1, 5):
        products.clear()
        p**e
        counts.append(len(products))
    assert counts == [0, 1, 2, 2]


def test_divrem_and_exact_div():
    a = Poly([-1, 0, 0, 0, 1])
    b = Poly([-1, 0, 1])
    q, r = divrem(a, b)
    assert q * b + r == a
    assert r.degree < b.degree
    assert exact_div(a, b) == Poly([1, 0, 1])
    with pytest.raises(DivByZeroPoly):
        divrem(a, ZERO)


def test_gcd_examples():
    a = Poly([-1, 0, 1])
    b = Poly([-1, 1])
    assert gcd(a, b) == Poly([-1, 1])
    assert gcd(a, ZERO) == a.monic()
    with pytest.raises(GcdOfZeros):
        gcd(ZERO, ZERO)


def test_squarefree_part_example():
    p = Poly([0, 0, 0, -4, 0, 0, 4])
    assert squarefree_part(p) == Poly([0, -1, 0, 0, 1])
    assert squarefree_part(constant(7)) == ONE
    with pytest.raises(ZeroInput):
        squarefree_part(ZERO)


def test_squarefree_decomposition_example():
    p = Poly([0, 0, 0, -4, 0, 0, 4])
    assert squarefree_decomposition(p) == [
        (1, Poly([-1, 0, 0, 1])),
        (3, Poly([0, 1])),
    ]


factor_powers = st.tuples(st.lists(small_ints, min_size=1, max_size=3).map(Poly), st.integers(1, 4))
# A negative or fractional scale, or one of any size.
scales = st.one_of(st.sampled_from([Fraction(-1), Fraction(1, 3), Fraction(-7, 2)]), rationals.filter(bool))


@given(st.lists(factor_powers, max_size=3), scales)
@example([], Fraction(-5, 3))
@example([(Poly([4]), 3)], Fraction(1, 2))
@example([(Poly([-1, 1]), 3), (Poly([2, 2]), 2), (Poly([0, 3]), 1)], Fraction(-2, 9))
@example([(Poly([1, 0, 1]), 2), (Poly([-1, 0, 1]), 2)], Fraction(-1))
def test_squarefree_decomposition_contract(planted, lead):
    # p = lead * prod(f^e) over drawn f (constants among them), whose
    # factors may coincide or share roots.
    p = constant(lead)
    for f, e in planted:
        p = p * f**e
    assume(not p.is_zero)
    out = squarefree_decomposition(p)
    product = radical = ONE
    for k, (mult, fac) in enumerate(out):
        assert fac.degree > 0 and leading(fac) == 1
        assert fraction_gcd(fac, derivative(fac)) == ONE
        assert all(fraction_gcd(fac, other) == ONE for _, other in out[:k])
        product, radical = product * fac**mult, radical * fac
    assert [mult for mult, _ in out] == sorted({mult for mult, _ in out})
    assert scale(product, leading(p)) == p
    assert squarefree_part(p) == radical


def test_discriminant_examples():
    assert discriminant(Poly([-1, 0, 1])) == 4
    assert discriminant(Poly([-1, 0, 0, 0, 1])) == -256
    assert discriminant(Poly([0, 0, 1])) == 0
    with pytest.raises(DegreeTooSmall):
        discriminant(constant(3))


def test_resultant_fixed_values():
    assert resultant(Poly([-1, 0, 1]), Poly([0, 1])) == -1
    assert resultant(Poly([0, 1]), Poly([-1, 0, 1])) == -1
    assert resultant(Poly([-1, 1]), Poly([1, 1])) == 2
    assert resultant(Poly([2]), Poly([0, 0, 1])) == 4


@given(polys, polys)
def test_resultant_matches_sylvester_determinant(a, b):
    assert resultant(a, b) == sylvester_resultant(a, b)


def test_resultant_of_consecutive_chebyshev():
    # Res(T_(k+1), T_k) = (-1)^(k(k+1)/2) 2^(k(k-1)), from the product of
    # T_(k+1) over the roots cos((2j-1)pi/2k) of T_k.
    def closed_form(k):
        return (-1) ** (k * (k + 1) // 2) * 2 ** (k * (k - 1))

    for k in range(1, 9):
        a, b = chebyshev(k + 1), chebyshev(k)
        assert sylvester_resultant(a, b) == closed_form(k)
        assert resultant(a, b) == closed_form(k)


def test_resultant_past_recursion_limit():
    # The remainder sequence of T_(k+1), T_k drops one degree per step, so a
    # recursive resultant would go k levels deep.
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(400)
    try:
        k = sys.getrecursionlimit() + 50
        value = resultant(chebyshev(k + 1), chebyshev(k))
    finally:
        sys.setrecursionlimit(saved)
    assert value == (-1) ** (k * (k + 1) // 2) * 2 ** (k * (k - 1))


@given(rational_polys, rational_polys)
@example(
    Poly([Fraction(1, 3), 0, 0, Fraction(-5, 2**64 + 1)]),
    Poly([Fraction(7, 2**80), 0, Fraction(-1, 6)]),
)
@example(Poly([Fraction(1, 3), Fraction(-2, 5)]), ZERO)
def test_mul_matches_fraction_convolution(a, b):
    product = a * b
    assert product == fraction_convolution(a, b)
    assert product == b * a
    assert all(type(c) is Fraction for c in product.coeffs)
    # a * a is the squaring kernel: each cross product taken once, doubled.
    assert a * a == fraction_convolution(a, a)


neg_lead = Poly([Fraction(3, 2**65 + 1), 0, Fraction(-(2**70), 7)])


@given(wide_polys, wide_polys)
@example(Poly([Fraction(-(2**90), 3), 1, Fraction(5, 2**66)]), neg_lead)
@example(neg_lead, Poly([Fraction(-(2**67), 2**65 + 3)]))
@example(neg_lead, Poly([1, 2, 3, Fraction(-1, 2**64 + 5)]))
@example(ZERO, neg_lead)
@example(neg_lead, ZERO)
def test_divrem_matches_fraction_long_division(a, b):
    if b.is_zero:
        with pytest.raises(DivByZeroPoly):
            divrem(a, b)
        return
    q, r = divrem(a, b)
    assert (q, r) == fraction_divrem(a, b)
    assert all(type(c) is Fraction for c in q.coeffs + r.coeffs)


@given(wide_polys, wide_polys, st.lists(wide_rationals, max_size=4).map(Poly))
@example(neg_lead, Poly([Fraction(-(2**67), 2**65 + 3)]), ONE)
@example(ZERO, neg_lead, Poly([1, Fraction(-1, 2**64 + 1)]))
@example(neg_lead, ZERO, ONE)
@example(ZERO, ZERO, ONE)
def test_gcd_matches_fraction_euclid(a, b, common):
    # A shared factor makes the gcd nontrivial; common = 0 makes both zero.
    a, b = a * common, b * common
    if a.is_zero and b.is_zero:
        with pytest.raises(GcdOfZeros):
            gcd(a, b)
        return
    g = gcd(a, b)
    assert g == fraction_gcd(a, b)
    assert all(type(c) is Fraction for c in g.coeffs)


@given(polys, polys, polys)
def test_ring_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(polys, nonzero_polys)
def test_divrem_invariant(a, b):
    q, r = divrem(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


@given(nonzero_polys, nonzero_polys)
def test_gcd_divides_both(a, b):
    g = gcd(a, b)
    assert leading(g) == 1
    assert divrem(a, g)[1].is_zero
    assert divrem(b, g)[1].is_zero
    assert_cofactors(a, b)


@given(wide_polys, wide_polys, st.lists(wide_rationals, max_size=4).map(Poly))
@example(neg_lead, Poly([Fraction(-(2**67), 2**65 + 3)]), ONE)
@example(Poly([4, 0, 1]), Poly([1, 1]), ONE)
def test_gcd_fallback_matches_fraction_euclid(a, b, common):
    # With the heuristic giving up, gcd is the primitive remainder sequence.
    a, b = a * common, b * common
    if a.is_zero and b.is_zero:
        return
    gave_up = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactpoly, "_heuristic_gcd", lambda u, v: gave_up.append(1))
        g = gcd(a, b)
        assert_cofactors(a, b)
    assert g == fraction_gcd(a, b)
    assert gave_up or a.is_zero or b.is_zero


@given(
    st.one_of(st.just(ZERO), wide_polys),
    st.one_of(st.just(ZERO), wide_polys),
    st.lists(wide_rationals, min_size=1, max_size=4).map(Poly),
    st.booleans(),
)
@example(neg_lead, ZERO, Poly([1, Fraction(-1, 2**64 + 1)]), False)
@example(ZERO, Poly([2, 3]), ONE, True)
@example(Poly([4, 0, 1]), Poly([1, 1]), Poly([-1, 0, 3]), False)
def test_gcd_is_the_gcd_of_gcd_cofactors_and_builds_one_poly(a, b, common, give_up):
    # A planted common factor, a zero operand, and the heuristic or the
    # remainder sequence: gcd answers gcd_cofactors' g and builds no cofactor.
    a, b = a * common, b * common
    assume(not (a.is_zero and b.is_zero))
    built = []
    poly = exactpoly._poly
    with pytest.MonkeyPatch.context() as mp:
        if give_up:
            mp.setattr(exactpoly, "_heuristic_gcd", lambda u, v: None)
        mp.setattr(exactpoly, "_poly", lambda *args: built.append(args) or poly(*args))
        g = gcd(a, b)
        assert len(built) == 1
        assert g == gcd_cofactors(a, b)[0]


@given(
    st.lists(st.integers(-(2**70), 2**70), max_size=6),
    st.lists(st.integers(-(2**40), 2**40), max_size=4),
    st.integers(1, 2**33),
    st.lists(st.integers(-3, 3), max_size=8),
)
@example([3, 0, -5], [7, 1], 1, [])  # exact, lc(b) = 1
@example([3, 0, -5], [7, 1], 6, [])  # exact, lc(b) > 1
@example([3, 0, -5], [7, 1], 6, [0, 0, 0, 1])  # a leading term that 6 does not divide
@example([3, 0, -5], [7, 1], 6, [1])  # every quotient step exact, a remainder left
@example([], [7, 1], 6, [2, 3])  # a shorter than b
@example([], [], 4, [])  # a zero
def test_cofactor_matches_pseudo_division(q, b_low, lead, noise):
    # Exact pairs (no noise), inexact ones and divisors with lc(b) > 1: the
    # stop-early division answers what pseudo-division at scale 1 answers.
    b = [*b_low, lead]
    a = exactpoly._convolve(q, b) if q else []
    a = [x + y for x, y in itertools.zip_longest(a, noise, fillvalue=0)]
    while a and not a[-1]:
        a.pop()
    got = exactpoly._cofactor(a, b)
    assert got == cofactor_by_pseudo_division(a, b)
    if not any(noise):
        assert got is not None and exactpoly._convolve(got, b)[: len(a)] == a


signed_with_zeros = st.one_of(st.just(0), st.integers(-(2**70), 2**70))


@given(
    st.lists(signed_with_zeros, max_size=9),
    st.lists(signed_with_zeros, max_size=5),
    st.one_of(st.sampled_from((-1, 1)), st.integers(-(2**33), 2**33).filter(bool)),
)
@example([3, 0, -5, 0, 2], [0, 1], 6)  # lc(b) not +-1, zeros in a and b
@example([3, 0, -5, 0, 2], [7, 0], -4)  # lc(b) negative
@example([3, -5], [7, 0, 1], 1)  # a shorter than b
@example([], [2], 3)  # a zero
@example([0, 0, 7], [], -6)  # b a constant
def test_pseudo_rem_matches_pseudo_division(a, b_low, lead):
    # The remainder sequence's pseudo-remainder is the r of the full
    # pseudo-division scale*a = q*b + r, with no q built.
    b = [*b_low, lead]
    assert exactpoly._pseudo_rem(a, b) == pseudo_divrem(a, b)[1]


# Coefficients of 1 bit to past 2^200, each sign.
wide_ints = st.integers(0, 210).flatmap(lambda bits: st.integers(-(2**bits), 2**bits))


@given(st.lists(wide_ints, min_size=1, max_size=6).map(Poly).filter(lambda g: not g.is_zero))
@example(Poly([1]))
@example(Poly([-(2**201) - 1, 3, -(2**200)]))
def test_gcd_of_planted_families(g):
    # t(t+1) and (t+2)(t+3) are coprime, but both are even at every integer,
    # so every evaluation gcd carries at least a factor 2 beside g(xi); the
    # second pair, products of three consecutive integers, carries 6.
    t = X
    for cof_a, cof_b in [
        (t * (t + ONE), (t + constant(2)) * (t + constant(3))),
        (t * (t + ONE) * (t + constant(2)), (t + constant(3)) * (t + constant(4)) * (t + constant(5))),
    ]:
        a, b = g * cof_a, g * cof_b
        assert gcd(a, b) == gcd(b, a) == g.monic()
        u, v = (exactpoly._primitive(list(p.nums))[1] for p in (a, b))  # of equal length
        found = exactpoly._heuristic_gcd(u, v)
        assert found is None or Poly(found[0]).monic() == g.monic()


def test_gcd_of_zero_constants_and_negative_leads():
    a = Poly([6, -5, -1])  # -(t - 1)(t + 6)
    assert gcd(a, ZERO) == gcd(ZERO, a) == Poly([-6, 5, 1])
    assert gcd(constant(-7), ZERO) == gcd(ZERO, constant(Fraction(1, 3))) == ONE
    assert gcd(a, constant(-4)) == gcd(constant(4), a) == ONE
    assert gcd(constant(-4), constant(6)) == ONE
    assert gcd(a, scale(a, -5)) == Poly([-6, 5, 1])
    assert gcd(a, scale(Poly([1, -1]), Fraction(-2, 3))) == Poly([-1, 1])
    assert gcd(a * Poly([-2, -3]), scale(Poly([-2, -3]), -9)) == Poly([Fraction(2, 3), 1])
    # The cofactors, in both argument orders; a constant gcd hands both
    # inputs back.
    for x, y in (
        (a, ZERO),
        (constant(-7), ZERO),
        (ZERO, constant(Fraction(1, 3))),
        (a, constant(-4)),
        (constant(-4), constant(6)),
        (a, scale(a, -5)),
        (a, scale(Poly([1, -1]), Fraction(-2, 3))),
        (a * Poly([-2, -3]), scale(Poly([-2, -3]), -9)),
    ):
        assert_cofactors(x, y)
    assert gcd_cofactors(a, ZERO) == (Poly([-6, 5, 1]), constant(-1), ZERO)
    assert gcd_cofactors(a, scale(a, -5)) == (Poly([-6, 5, 1]), constant(-1), constant(5))
    assert gcd_cofactors(constant(-4), a) == (ONE, constant(-4), a)
    assert gcd_cofactors(a, scale(Poly([1, -1]), Fraction(-2, 3))) == (
        Poly([-1, 1]),
        Poly([-6, -1]),
        constant(Fraction(2, 3)),
    )


def test_gcd_heuristic_needs_each_certificate_and_its_bound():
    t = X
    # Below 2*min(|u|, |v|) + 2 the digits of g(xi) = xi - k are a constant
    # for every xi in (k, 2k], and a constant divides both inputs.
    for k in range(1, 60):
        g = t - constant(k)
        assert gcd(g * (t + ONE), g * (t + constant(2))) == g
    # The first candidate, t + 1, divides only the shorter input:
    # t^2 + 4 and t + 1 are 20 and 5 at xi = 4.
    assert gcd(Poly([4, 0, 1]), Poly([1, 1])) == ONE
    assert gcd(Poly([1, 1]), Poly([4, 0, 1])) == ONE
    # ... and, of two inputs of one length, only one: t + 1 and t + 6 are 5
    # and 10 at xi = 4.
    assert gcd(Poly([1, 1]), Poly([6, 1])) == ONE
    assert gcd(Poly([6, 1]), Poly([1, 1])) == ONE
    # The heuristic itself answers once xi has grown.
    assert exactpoly._heuristic_gcd([4, 0, 1], [1, 1])[0] == [1]
    # At norm 1 the six points are 4, 10, 27, 147, 1204 and 16446.  With c
    # their lcm, gcd(xi, xi + c) = xi at each point, so every candidate is
    # t, which does not divide t + c: the heuristic gives up and the
    # remainder sequence answers, for gcd and for gcd_cofactors.
    c = math.lcm(4, 10, 27, 147, 1204, 16446)
    assert c == 3_118_654_980
    assert exactpoly._heuristic_gcd([0, 1], [c, 1]) is None
    assert exactpoly._heuristic_gcd([0, -1, 1], [-c, c - 1, 1]) is None
    assert gcd(t, t + constant(c)) == ONE
    assert gcd_cofactors(t * t - t, (t - ONE) * (t + constant(c))) == (t - ONE, t, t + constant(c))


@given(polys, polys)
def test_derivative_product_rule(a, b):
    assert derivative(a * b) == derivative(a) * b + a * derivative(b)


@given(polys, polys, polys)
def test_compose_associates(a, b, c):
    assert compose(compose(a, b), c) == compose(a, compose(b, c))


@given(st.one_of(wide_polys, rational_polys), st.one_of(wide_polys, rational_polys))
@example(Poly([Fraction(-(2**90), 3), 1, Fraction(5, 2**66)]), ZERO)
@example(Poly([Fraction(7, 2**80)]), neg_lead)
@example(neg_lead, Poly([Fraction(1, 3), Fraction(-5, 2**64 + 1)]))
def test_compose_matches_fraction_horner(p, q):
    assert compose(p, q) == compose_by_fractions(p, q)
    assert compose(p, ZERO) == constant(coeff(p, 0))


@given(nonzero_polys)
def test_poly_sqrt_of_square(p):
    root = poly_sqrt(p * p)
    expected = p if leading(p) > 0 else -p
    assert root == expected


def test_poly_sqrt_rejects_nonsquare():
    assert poly_sqrt(Poly([1, 1])) is None
    assert poly_sqrt(Poly([0, 1, 1])) is None
    assert poly_sqrt(ZERO) == ZERO


def test_poly_sqrt_of_constants():
    assert poly_sqrt(Poly([4])) == constant(2)
    assert poly_sqrt(Poly([Fraction(1, 9)])) == constant(Fraction(1, 3))
    assert poly_sqrt(Poly([-4])) is None
    assert poly_sqrt(Poly([2])) is None


def loop_poly_sqrt(p: Poly):
    """The square root by its own convolution loop: each root coefficient,
    from the top, solves one coefficient of root * root = p."""
    if p.is_zero:
        return ZERO
    if p.degree % 2 != 0 or leading(p) < 0:
        return None
    s = rat_nth_root(leading(p), 2)
    if s is None:
        return None
    k = p.degree // 2
    q = [Fraction(0)] * (k + 1)
    q[k] = s
    for i in range(1, k + 1):
        acc = coeff(p, 2 * k - i)
        for j in range(1, i):
            acc -= q[k - j] * q[k - i + j]
        q[k - i] = acc / (2 * s)
    root = Poly(q)
    return root if root * root == p else None


@given(wide_polys, wide_polys)
@example(Poly([Fraction(-(2**90), 3), 1, Fraction(5, 2**66)]), ONE)
@example(neg_lead, ZERO)
def test_poly_sqrt_matches_convolution_loop(q, r):
    for p in (q * q, q * q + r, q):
        assert poly_sqrt(p) == loop_poly_sqrt(p)


@given(
    st.integers(2, 7),
    wide_rationals.filter(bool),
    st.sampled_from([1, 2, -1]),
    st.lists(st.one_of(st.just(Fraction(0)), wide_rationals), max_size=5),
    st.booleans(),
)
@example(3, Fraction(1), 1, [Fraction(0)], False)
@example(2, Fraction(-(2**70), 3), -1, [Fraction(0), Fraction(5, 2**66)], True)
def test_series_root_matches_fraction_recurrence(m, r, factor, rest, planted):
    # A planted top is the top of root**m.  Otherwise the lead is factor *
    # r**m, with no m-th root for factor 2 or for -1 with m even, and the
    # rest is arbitrary: the candidate's m-th power then begins with top,
    # but below it seldom matches any given polynomial, so the caller's
    # certificate rejects it.
    if planted:
        root = Poly([*reversed(rest), r])
        power = root**m
        top = [coeff(power, power.degree - i) for i in range(len(rest) + 1)]
    else:
        top = [factor * r**m, *rest]
    numerators = Poly(reversed(top)).nums[::-1]
    got = _series_root(numerators, top[0], m)
    assert got == series_root_by_fractions(top, m)
    if planted:
        assert got in (root, -root)
    elif factor == 2 or (factor == -1 and m % 2 == 0):
        assert got is None
    if got is not None:
        power = got**m
        assert [coeff(power, power.degree - i) for i in range(len(top))] == top


def test_rat_nth_root():
    assert rat_nth_root(Fraction(4, 9), 2) == Fraction(2, 3)
    assert rat_nth_root(Fraction(-8, 27), 3) == Fraction(-2, 3)
    assert rat_nth_root(Fraction(-4), 2) is None
    assert rat_nth_root(Fraction(1, 2), 3) is None
    # Exact at any size, beyond the float range too.
    big = 10**40 + 7
    assert rat_nth_root(Fraction(big**5), 5) == big
    assert rat_nth_root(Fraction(big**5 + 1), 5) is None
    assert rat_nth_root(Fraction(-(big**3), 3**60), 3) == Fraction(-big, 3**20)
    huge = Fraction(3**700, 5**490)
    assert huge.numerator > 2**1100 and huge.denominator > 2**1100
    assert rat_nth_root(huge, 7) == Fraction(3**100, 5**70)
    assert rat_nth_root(huge + 1, 7) is None
    assert rat_nth_root(Fraction(2**1200), 2) == 2**600


def test_parse_rational_grammar():
    assert parse_rational("-6/4") == (-3, 2)
    assert parse_rational(" +3 ") == (3, 1)
    for text in ("1e100000", "2.5", ".5", "1_000", "1 / 2", "- 3", "", "/2", "0x10", "inf", "x"):
        with pytest.raises(ValueError):
            parse_rational(text)
    with pytest.raises(ZeroDivisionError):
        parse_rational("1/0")


@given(wide_rationals, st.integers(1, 2**40), st.sampled_from(["", "+", "-", " -"]))
def test_parse_rational_reads_coeff_strings(x, k, sign):
    text = f"{x.numerator}/{x.denominator}"
    assert parse_rational(text) == (x.numerator, x.denominator) and Fraction(text) == x
    # Whatever factor the text carries, the pair is in lowest terms with
    # den > 0, the value Fraction's own parser reads.
    scaled = f"{sign}{abs(x.numerator) * k}/{x.denominator * k}"
    num, den = parse_rational(scaled)
    assert den > 0 and math.gcd(num, den) == 1
    expected = parse_rational_by_fraction(scaled)
    assert (num, den) == (expected.numerator, expected.denominator)


def test_parse_poly_examples():
    assert parse_poly("t^4 - 2*t^2 + 1") == Poly([1, 0, -2, 0, 1])
    assert parse_poly("-t") == Poly([0, -1])
    assert parse_poly("3/2*t + t") == Poly([0, Fraction(5, 2)])
    assert parse_poly("0") == ZERO
    assert parse_poly("2*t^3-1") == Poly([-1, 0, 0, 2])


def test_parse_poly_requires_explicit_star():
    with pytest.raises(PolyParseError) as err:
        parse_poly("2t^3-1")
    assert err.value.pos == 1


def test_parse_poly_errors_name_position():
    with pytest.raises(PolyParseError) as err:
        parse_poly("t^")
    assert "position 1" in str(err.value)
    with pytest.raises(PolyParseError) as err:
        parse_poly("x^2")
    assert "unknown variable 'x'" in str(err.value)
    assert "position 0" in str(err.value)
    assert err.value.pos == 0
    with pytest.raises(PolyParseError) as err:
        parse_poly("t - 3/0*t^2")
    assert err.value.pos == 4
    for blank in ("", "  "):
        with pytest.raises(PolyParseError, match="empty polynomial") as err:
            parse_poly(blank)
        assert err.value.pos == 0


def test_parse_poly_degree_bound():
    assert parse_poly(f"t^{MAX_DEGREE}").degree == MAX_DEGREE
    # Leading zeros do not count toward the exponent's digits.
    assert parse_poly("2*t^" + "0" * 6000 + str(MAX_DEGREE)).degree == MAX_DEGREE
    # A file's coefficient list has the same bound.
    assert from_coeff_strings(["1"] * (MAX_DEGREE + 1)).degree == MAX_DEGREE
    past = MAX_DEGREE + 1
    for text, pos in (
        (f"t^{past}", 2),
        (f"1 + 3*t^{past}", 8),
        (f"t^2 - t ^ 0{past}", 10),
        ("t^" + "9" * 5000, 2),
    ):
        with pytest.raises(PolyParseError) as err:
            parse_poly(text)
        assert str(err.value) == f"exponent past the degree bound {MAX_DEGREE} (at position {pos})"
        assert err.value.pos == pos


def test_coefficient_digits_past_the_int_limit():
    # Leading zeros, of any script, do not count toward CPython's limit on
    # int/str conversion; more significant digits than it is a PolyParseError
    # at the start of those digits that names the limit.
    limit = sys.get_int_max_str_digits()
    seventh = "1/" + "0" * (limit + 100) + "7"
    assert parse_rational(seventh) == (1, 7)
    assert parse_rational(" -" + "\u0660" * limit + "3/" + "9" * limit) == (-1, (10**limit - 1) // 3)
    assert parse_poly(f"{seventh}*t^2 - 3") == Poly([-3, 0, Fraction(1, 7)])
    assert from_coeff_strings([seventh, "-" + "0" * (limit + 1)]) == Poly([Fraction(1, 7)])
    past = "1" * (limit + 1)
    message = f"coefficient of {limit + 1} digits past the {limit}-digit limit"
    for read, text, pos in (
        (parse_rational, f" -{past}", 2),
        (parse_rational, f"3/00{past}", 2),
        (parse_poly, f"t - 2/3*t^2 + {past}*t^3", 14),
        (parse_poly, f"t - 2/0{past}*t^2", 6),
    ):
        with pytest.raises(PolyParseError) as err:
            read(text)
        assert str(err.value) == f"{message} (at position {pos})", text[:12]
        assert err.value.pos == pos
    with pytest.raises(PolyParseError) as err:
        from_coeff_strings(["1", "2/" + past])
    assert str(err.value) == f"{message} (at position 1)"
    assert err.value.pos == 1


LIMIT = sys.get_int_max_str_digits() or 4300
# Runs past the int/str digit limit, and of leading zeros, in three scripts.
LONG_RUNS = ("0" * (LIMIT + 5), "7" * LIMIT, "\u0660" * (LIMIT // 2), "\u0967" * (LIMIT // 2 + 1))
# ASCII, Arabic-Indic and Devanagari digits; superscript two, a digit that
# is not decimal; spaces that str.isspace takes (NBSP, U+2028, \x1c).
READER_CHARS = "0123456789\u0660\u0663\u0669\u0966\u096f\u00b2 \t\xa0\u2028\x1c+-/_x"


def _outcome(read, *args):
    """The value, or the exception's type, message and position."""
    try:
        return read(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc), getattr(exc, "pos", None)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from((*READER_CHARS, *LONG_RUNS)), max_size=8).map("".join), st.integers(0, 40))
@example("", 0)
@example(" -00012/0004 ", 3)
@example("\u0664\u0662/\u0967", 0)
@example("\xa0+7\u2028", 0)
@example("\x1c-3/5\x1c", 1)
@example("1_0", 0)
@example("\u00b2", 0)
@example("+-3", 0)
@example("3/0", 0)
@example("1/", 0)
@example("/2", 0)
@example(" -" + "9" * (LIMIT + 1) + "/" + "9" * (LIMIT + 1), 5)
@example("\u2028" + "0" * (LIMIT + 3) + "5/" + "00" + "1" * (LIMIT + 1), 2)
def test_rational_pair_matches_the_regex_oracle(text, at):
    # The same pair, or the same exception type, message and position.
    assert _outcome(_rational_pair, text, at) == _outcome(rational_pair_by_regex, text, at)


digit_runs = st.lists(st.sampled_from(("0", "1", "9", "\u0660", "\u0967", *LONG_RUNS)), min_size=1, max_size=4).map(
    "".join
)


@settings(max_examples=150, deadline=None)
@given(digit_runs, st.one_of(st.none(), digit_runs), st.sampled_from(("", "t + ", "t - 2/3*t^2 -  ")))
@example("1" * (LIMIT + 1), None, "t - 2/3*t^2 -  ")
@example("3", "00" + "1" * (LIMIT + 1), "t + ")
@example("5", "000", "")
def test_parse_poly_coefficient_faults_keep_their_offsets(num, den, prefix):
    # A coefficient inside a polynomial fails at its offset in the whole
    # text: the digit limit where its run starts, a zero denominator where
    # the coefficient does.
    coeff = num if den is None else f"{num}/{den}"
    text = f"{prefix}{coeff}*t^3"
    try:
        n, d = rational_pair_by_regex(coeff, len(prefix))
    except ZeroDivisionError:
        expected = PolyParseError, f"zero denominator (at position {len(prefix)})", len(prefix)
    except PolyParseError as exc:
        expected = PolyParseError, str(exc), exc.pos
    else:
        sign = -1 if prefix.endswith("-  ") else 1
        expected = parse_poly(prefix + "0") + Poly([0, 0, 0, (sign * n, d)])
    assert _outcome(parse_poly, text) == expected


def test_format_poly_examples():
    assert format_poly(Poly([1, 0, -2, 0, 1])) == "t^4 - 2*t^2 + 1"
    assert format_poly(ZERO) == "0"
    assert format_poly(Poly([Fraction(-1, 2), 1])) == "t - 1/2"


@given(polys)
def test_format_parse_round_trip(p):
    assert parse_poly(format_poly(p)) == p


@given(polys)
def test_coeff_strings_round_trip(p):
    assert from_coeff_strings(coeff_strings_and_text(p)[0]) == p


def test_from_coeff_strings_errors_name_index():
    with pytest.raises(PolyParseError) as err:
        from_coeff_strings(["1", "x"])
    assert err.value.pos == 1
    for items, pos in (
        ("12", 0),
        (None, 0),
        (5, 0),
        (["1", None], 1),
        (["1", "2", float("inf")], 2),
        ([0.5], 0),
        ([True], 0),
        ([[1]], 0),
        (["0"] * (MAX_DEGREE + 1) + ["1"], MAX_DEGREE + 1),
    ):
        with pytest.raises(PolyParseError) as err:
            from_coeff_strings(items)
        assert err.value.pos == pos


def test_from_coeff_strings_counts_before_parsing(monkeypatch):
    calls = []
    monkeypatch.setattr(exactpoly, "_rational_pair", lambda text: calls.append(text))
    with pytest.raises(PolyParseError) as err:
        from_coeff_strings(["1"] * (MAX_DEGREE + 2))
    assert str(err.value) == (
        f"more coefficients than the degree bound {MAX_DEGREE} allows (at position {MAX_DEGREE + 1})"
    )
    assert calls == []


# Items for a solution file's coefficient list: well-formed strings, JSON
# integers, among them strings past int()'s 4300-digit limit only by their
# leading zeros, and items from_coeff_strings refuses, among them strings
# with more significant digits than the limit.
good_items = st.one_of(
    wide_rationals.map(lambda x: f"{x.numerator}/{x.denominator}"),
    st.integers(-(2**100), 2**100),
    st.integers(-(2**100), 2**100).map(str),
    st.sampled_from((" +6/4 ", "-0", "0/7", "007/010", "\t-3\n", "\u0661\u0662/\u0663")),
    st.sampled_from(("-" + "0" * 4400, "1/" + "0" * 4400 + "7", "\u0660" * 4300 + "12/5")),
)
bad_items = st.sampled_from(
    (
        "1/0", "-0/0", "2.5", "1e3", ".5", "1_000", "1 / 2", "- 3", "", "/2", "x", "0x10",
        "1" * 4301, "1/" + "2" * 4301, "1" * 4301 + "/0", " -0" + "9" * 4301, "0" * 4400 + "/0",
        None, 0.5, float("inf"), True, [1], {"num": 1},
    )
)
item_lists = st.lists(st.one_of(good_items, good_items, bad_items), max_size=6)


# Coefficients the text form spells out: zeros, both signs, units (printed
# as a bare t^k at degree >= 1), integers (den 1) and fractions.
text_coeffs = st.one_of(
    st.sampled_from((0, 0, 1, -1, 1, -1)),
    small_ints,
    st.builds(Fraction, small_ints, st.integers(1, 12)),
    wide_rationals,
)


@given(st.one_of(wide_polys, rational_polys, st.lists(text_coeffs, max_size=9).map(Poly)))
@example(Poly([Fraction(-1, 2), 1, 0, -1, Fraction(3, 7)]))
@example(Poly([1]))
@example(Poly([-1]))
@example(ZERO)
@example(Poly([0, 1, -1, 0, 1]))
@example(Poly([-1, 0, -1]))
@example(Poly([0, 0, 0, -1]))
def test_text_matches_fraction_oracle(p):
    assert format_poly(p) == format_poly_by_fractions(p)
    strings, text = coeff_strings_and_text(p)
    assert strings == to_coeff_strings_by_fractions(p)
    assert text == format_poly(p)


def _read(read, items):
    try:
        return read(items)
    except PolyParseError as exc:
        return str(exc), exc.pos


@given(item_lists)
@example(["1", "2/0", 0.5])
@example(["6/4", -3, "0"])
@example([])
def test_from_coeff_strings_matches_fraction_oracle(items):
    # The same Poly, or the same message at the same position.
    assert _read(from_coeff_strings, items) == _read(from_coeff_strings_by_fractions, items)


# -- stored form and the Fraction boundary -----------------------------------


def assert_canonical(p: Poly):
    """nums/den trimmed, in lowest terms with den > 0, and equal (hash too)
    to the Poly rebuilt from its Fraction coefficients."""
    assert type(p.den) is int and p.den > 0
    assert all(type(c) is int for c in p.nums)
    assert math.gcd(p.den, *p.nums) == 1
    assert not p.nums or p.nums[-1] != 0
    again = Poly(p.coeffs)
    assert again == p and hash(again) == hash(p)


@given(st.one_of(wide_polys, rational_polys), st.one_of(wide_polys, rational_polys), wide_rationals)
@example(neg_lead, Poly([Fraction(-(2**67), 2**65 + 3)]), Fraction(-1, 3))
@example(Poly([Fraction(-(2**90), 3), 1, Fraction(5, 2**66)]), neg_lead, Fraction(0))
@example(ZERO, neg_lead, Fraction(2**70, 3))
@example(neg_lead, ZERO, Fraction(1))
def test_results_are_canonical(a, b, k):
    # -b gives each divisor a negative leading coefficient as well, so the
    # pseudo-division scale is negative on one side.
    results = [a + b, a - b, -a, a * b, a * a, scale(a, k), derivative(a), shift(a, 2), compose(a, b)]
    for d in (b, -b):
        if not d.is_zero:
            results.extend(divrem(a, d))
    if not (a.is_zero and b.is_zero):
        results.append(gcd(a, b))
    if not a.is_zero:
        results.extend([a.monic(), poly_sqrt(a * a)])
    if poly_sqrt(a) is not None:
        results.append(poly_sqrt(a))
    for r in results:
        assert_canonical(r)


def test_poly_is_a_value_type():
    p = Poly([Fraction(1, 2), 1])
    assert p == parse_poly("t + 1/2") and hash(p) == hash(parse_poly("t + 1/2"))
    assert p != ((1, 2), 2) and p != Fraction(1, 2) and ONE != 1
    for field in ("nums", "den"):
        with pytest.raises(AttributeError):
            setattr(p, field, getattr(p, field))


def test_stored_form_example():
    p = Poly([Fraction(1, 2), Fraction(2, 4)])
    assert (p.nums, p.den) == ((1, 1), 2)
    assert p.coeffs == (Fraction(1, 2), Fraction(1, 2))
    assert (ZERO.nums, ZERO.den) == ((), 1)
    q = Poly([Fraction(-2, 3), 0, Fraction(4, -9), 0])
    assert (q.nums, q.den) == ((-6, 0, -4), 9)
    assert leading(q) == Fraction(-4, 9) and coeff(q, 1) == 0 and coeff(q, 7) == 0


def test_poly_reads_exact_inputs_only():
    assert Poly(["-3/4", " 2 ", 5]) == Poly([Fraction(-3, 4), 2, 5])
    for bad in (0.1, 2.5, True, False, None, [1]):
        with pytest.raises(TypeError):
            Poly([bad])
    for bad in ("0.1", "1e3", "1_000", "x"):
        with pytest.raises(ValueError):
            Poly([bad])


def test_constant_reads_exact_inputs_only():
    assert constant("-5/10") == Poly([Fraction(-1, 2)])
    with pytest.raises(TypeError):
        constant(0.5)
    with pytest.raises(TypeError):
        constant(True)
    with pytest.raises(ValueError):
        constant("1e3")


def test_scale_reads_exact_inputs_only():
    assert scale(X, "3/2") == Poly([0, Fraction(3, 2)])
    with pytest.raises(TypeError):
        scale(X, 0.1)
    with pytest.raises(TypeError):
        scale(X, True)
    with pytest.raises(ValueError):
        scale(X, "0.1")


def test_evaluation_reads_exact_inputs_only():
    p = Poly([1, 0, -2])
    assert evaluate(p, "-1/2") == Fraction(1, 2)
    assert evaluate(ZERO, 3) == 0 and type(evaluate(ZERO, 3)) is Fraction
    with pytest.raises(TypeError):
        evaluate(p, 0.1)
    with pytest.raises(TypeError):
        evaluate(p, False)
    with pytest.raises(ValueError):
        evaluate(p, "1e3")


def test_rational_arguments_read_integer_pairs():
    # (num, den) is the one rational type in src: either sign, not reduced,
    # den != 0; its halves are ints, not bools.
    p = Poly([1, 0, -2])
    assert Poly([(1, 2), (-4, -6), (3, 1)]) == Poly([Fraction(1, 2), Fraction(2, 3), 3])
    assert constant((6, -4)) == constant("-3/2")
    assert scale(X, (3, 6)) == scale(X, Fraction(1, 2))
    assert evaluate(p, (1, -2)) == evaluate(p, "-1/2") == Fraction(1, 2)
    for read in (lambda c: Poly([1, c]), constant, lambda k: scale(X, k), lambda x: evaluate(p, x)):
        with pytest.raises(ZeroDivisionError):
            read((1, 0))
        for bad in ((1.0, 2), (True, 1), (1, False), (1, 2, 3), (1,), (Fraction(1, 2), 1), [1, 2]):
            with pytest.raises(TypeError):
                read(bad)


def test_series_root_reduces_its_lead():
    # 18*t^2 - 1 = T_2(3*t): the lead 18 over 2^(m-1) = 2 arrives as the
    # pair (18, 2), whose halves are no squares; reduced, 9/1 is.
    assert _series_root([18, 0], (18, 2), 2) == Poly([0, 3])
    assert _series_root([-8, 0], (-24, 3), 3) == Poly([0, -2])
    assert _series_root([-8, 0], (-8, 1), 2) is None


def test_public_guards_refuse_zero_and_negative_inputs():
    with pytest.raises(ZeroInput, match="cannot normalize"):
        ZERO.monic()
    with pytest.raises(ValueError, match="negative power"):
        X ** -1
    with pytest.raises(ZeroInput, match="decomposition of 0"):
        squarefree_decomposition(ZERO)
