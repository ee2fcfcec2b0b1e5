from __future__ import annotations

import sys
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pellab.exactpoly import (
    ONE,
    X,
    ZERO,
    DegreeTooSmall,
    DivByZeroPoly,
    GcdOfZeros,
    Poly,
    PolyParseError,
    ZeroInput,
    compose,
    constant,
    derivative,
    discriminant,
    divrem,
    exact_div,
    format_poly,
    from_coeff_strings,
    gcd,
    parse_poly,
    poly_sqrt,
    rat_nth_root,
    resultant,
    squarefree_decomposition,
    squarefree_part,
    to_coeff_strings,
)
from pellab.pellcore import chebyshev

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
        c = rem[i + b.degree] / b.leading
        quo[i] = c
        for j, bc in enumerate(b.coeffs):
            rem[i + j] -= c * bc
    return Poly(quo), Poly(rem[: b.degree])


def fraction_gcd(a: Poly, b: Poly) -> Poly:
    """Euclid's loop over Q on fraction_divrem remainders, made monic."""
    while not b.is_zero:
        a, b = b, fraction_divrem(a, b)[1]
    return a.monic()


def sylvester_resultant(a: Poly, b: Poly) -> Fraction:
    """Determinant of the Sylvester matrix, computed independently."""
    m, n = a.degree, b.degree
    if m < 0 or n < 0:
        return Fraction(0)
    if m == 0 and n == 0:
        return Fraction(1)
    if m == 0:
        return a.leading ** n
    if n == 0:
        return b.leading ** m
    size = m + n
    arow = [a.coeff(m - i) for i in range(m + 1)]
    brow = [b.coeff(n - i) for i in range(n + 1)]
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
    assert p(Fraction(2)) == 1 + 4 + 12
    assert p.scale(Fraction(1, 2)) == Poly([Fraction(1, 2), 1, Fraction(3, 2)])
    assert Poly([0, 0, 1]).shift(2) == Poly([0, 0, 0, 0, 1])


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
    assert g.leading == 1
    assert divrem(a, g)[1].is_zero
    assert divrem(b, g)[1].is_zero


@given(polys, polys)
def test_derivative_product_rule(a, b):
    assert derivative(a * b) == derivative(a) * b + a * derivative(b)


@given(polys, polys, polys)
def test_compose_associates(a, b, c):
    assert compose(compose(a, b), c) == compose(a, compose(b, c))


@given(nonzero_polys)
def test_poly_sqrt_of_square(p):
    root = poly_sqrt(p * p)
    expected = p if p.leading > 0 else -p
    assert root == expected


def test_poly_sqrt_rejects_nonsquare():
    assert poly_sqrt(Poly([1, 1])) is None
    assert poly_sqrt(Poly([0, 1, 1])) is None
    assert poly_sqrt(ZERO) == ZERO


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
    assert "position 0" in str(err.value)
    assert err.value.pos == 0
    with pytest.raises(PolyParseError) as err:
        parse_poly("t - 3/0*t^2")
    assert err.value.pos == 4


def test_format_poly_examples():
    assert format_poly(Poly([1, 0, -2, 0, 1])) == "t^4 - 2*t^2 + 1"
    assert format_poly(ZERO) == "0"
    assert format_poly(Poly([Fraction(-1, 2), 1])) == "t - 1/2"


@given(polys)
def test_format_parse_round_trip(p):
    assert parse_poly(format_poly(p)) == p


@given(polys)
def test_coeff_strings_round_trip(p):
    assert from_coeff_strings(to_coeff_strings(p)) == p


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
    ):
        with pytest.raises(PolyParseError) as err:
            from_coeff_strings(items)
        assert err.value.pos == pos
