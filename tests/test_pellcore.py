from __future__ import annotations

import sys
from dataclasses import replace
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from pellab import pellcore
from pellab.exactpoly import (
    ONE,
    X,
    ZERO,
    DegreeTooSmall,
    Poly,
    Rat,
    compose,
    constant,
    discriminant,
    parse_poly,
    rat_nth_root,
    squarefree_decomposition,
)
from pellab.pellcore import (
    NON_SQUAREFREE_D,
    NOT_UNIT,
    SMALL_DEGREE_D,
    ZERO_B,
    PellSolution,
    RejectionReason,
    chebyshev,
    classify_powers,
    extract_mth_root,
    generate_from_seed,
    power_solution,
    ramification_type,
    verify_branch_locus_in,
    verify_pell,
)

from oracles import classify_powers_every_m, power_polynomial, seed_by_whole_unit


def chebyshev_closed_form(n: int) -> Poly:
    """Binomial expansion of cos(n arccos t), summed exactly."""
    shifted = Poly([-1, 0, 1])
    acc = ZERO
    for h in range(n // 2 + 1):
        acc = acc + (X ** (n - 2 * h) * shifted**h).scale(comb(n, 2 * h))
    return acc


def dickson(m: int) -> Poly:
    """Trace polynomial with parameter 1, by its own recurrence."""
    prev, cur = constant(2), X
    if m == 0:
        return prev
    for _ in range(m - 1):
        prev, cur = cur, X * cur - prev
    return cur


def pair_power(A: Poly, B: Poly, D: Poly, m: int) -> tuple[Poly, Poly]:
    """m-th power of A + y*B in Q[t][y] / (y^2 - D)."""
    ra, rb = ONE, ZERO
    for _ in range(m):
        ra, rb = ra * A + rb * B * D, ra * B + rb * A
    return ra, rb


def binomial_power(A: Poly, B: Poly, D: Poly, m: int) -> tuple[Poly, Poly]:
    """(A + sqrt(D)*B)^m from T_m(A) and the odd binomial terms."""
    Bm = ZERO
    for j in range(1, m + 1, 2):
        Bm = Bm + (D ** ((j - 1) // 2) * B**j * A ** (m - j)).scale(comb(m, j))
    return compose(chebyshev(m), A), Bm


def extract_by_coefficients(A: Poly, m: int):
    """Chebyshev root solved one coefficient at a time, each from a full
    m-th power of the partial root, confirmed by composition."""
    n = A.degree
    if n < 1 or n % m != 0:
        return None
    half = n // m
    lead_unit = Rat(2) ** (m - 1)
    for eps in (1, -1):
        target = A.scale(eps)
        a = rat_nth_root(target.leading / lead_unit, m)
        if a is None:
            continue
        coeffs = [Rat(0)] * (half + 1)
        coeffs[half] = a
        for i in range(1, half + 1):
            cur = (Poly(coeffs) ** m).coeff(n - i) * lead_unit
            delta = target.coeff(n - i) - cur
            coeffs[half - i] = delta / (lead_unit * m * a ** (m - 1))
        candidate = Poly(coeffs)
        if compose(chebyshev(m), candidate) == target:
            return candidate
    return None


def solve(text_a: str, text_b: str, text_d: str, allow_d1: bool = False) -> PellSolution:
    out = verify_pell(parse_poly(text_a), parse_poly(text_b), parse_poly(text_d), allow_d1=allow_d1)
    assert isinstance(out, PellSolution)
    return out


def test_chebyshev_small_values():
    assert chebyshev(0) == ONE
    assert chebyshev(1) == X
    assert chebyshev(2) == parse_poly("2*t^2 - 1")
    assert chebyshev(3) == parse_poly("4*t^3 - 3*t")


def test_chebyshev_matches_closed_form():
    for m in range(13):
        assert chebyshev(m) == chebyshev_closed_form(m)


def test_chebyshev_matches_dickson():
    for m in range(11):
        assert chebyshev(m) == compose(dickson(m), Poly([0, 2])).scale(Fraction(1, 2))


def test_chebyshev_semigroup():
    for a in range(7):
        for b in range(7):
            assert chebyshev(a * b) == compose(chebyshev(a), chebyshev(b))


def test_chebyshev_degree_and_leading():
    for m in range(1, 13):
        T = chebyshev(m)
        assert T.degree == m
        assert T.leading == 2 ** (m - 1)


def test_chebyshev_past_recursion_limit():
    m = sys.getrecursionlimit() + 50
    T = chebyshev(m)
    assert T.degree == m
    assert T.leading == 2 ** (m - 1)
    assert T(1) == 1 and T(-1) == (-1) ** m


def test_power_polynomial_small_values():
    assert power_polynomial(1) == X
    assert power_polynomial(2) == parse_poly("4*t^2 - 4*t + 1")
    assert power_polynomial(3) == parse_poly("16*t^3 - 24*t^2 + 9*t")


def test_power_polynomial_degree_and_leading():
    for m in range(1, 13):
        f = power_polynomial(m)
        assert f.degree == m
        assert f.leading == 4 ** (m - 1)


def test_power_polynomial_square_identity():
    square = Poly([0, 0, 1])
    for m in range(1, 13):
        assert compose(power_polynomial(m), square) == compose(square, chebyshev(m))


def test_power_polynomial_symmetry():
    flip = Poly([1, -1])
    for m in range(2, 11):
        f = power_polynomial(m)
        if m % 2 == 0:
            assert compose(f, flip) == f
        else:
            assert compose(flip, compose(f, flip)) == f


def test_verify_pell_fixtures():
    sol = solve("t", "1", "t^2 - 1", allow_d1=True)
    assert (sol.n, sol.d) == (1, 1)
    sol = solve("t^2", "1", "t^4 - 1")
    assert (sol.n, sol.d) == (2, 2)
    sol = solve("2*t^3 - 1", "2*t", "t^4 - t")
    assert (sol.n, sol.d) == (3, 2)


def test_verify_pell_rejections():
    out = verify_pell(ONE, ZERO, parse_poly("t^4 - 1"))
    assert isinstance(out, RejectionReason) and out.kind == ZERO_B
    out = verify_pell(parse_poly("t^2"), ONE, parse_poly("t^4"))
    assert isinstance(out, RejectionReason) and out.kind == NOT_UNIT
    out = verify_pell(parse_poly("t"), ONE, parse_poly("t^2 - 1"))
    assert isinstance(out, RejectionReason) and out.kind == SMALL_DEGREE_D
    out = verify_pell(parse_poly("2*t^4 - 1"), ONE, parse_poly("4*t^8 - 4*t^4"))
    assert isinstance(out, RejectionReason) and out.kind == NON_SQUAREFREE_D


seeds = st.lists(st.integers(-6, 6), min_size=2, max_size=5).map(Poly).filter(
    lambda p: p.degree >= 1
)


@given(seeds, st.builds(Fraction, st.integers(1, 2**70), st.integers(1, 2**70)), st.booleans())
def test_squarefree_verdict_matches_discriminant(seed, c, repeated):
    # A unit from the seed, or its square (2A^2 - 1) + 2AB*sqrt(D) with the
    # factor A moved into D, so that D*A^2 has a repeated root; D then
    # scaled by c^2 and B by 1/c.
    sol = generate_from_seed(seed, allow_d1=True)
    assume(isinstance(sol, PellSolution))
    A, B, D = sol.A, sol.B, sol.D
    if repeated:
        A, B, D = (A * A).scale(2) - ONE, B.scale(2), D * A * A
    D, B = D.scale(c * c), B.scale(1 / c)
    out = verify_pell(A, B, D, allow_d1=True)
    assert (discriminant(D) == 0) == repeated
    rejected = isinstance(out, RejectionReason)
    assert rejected == repeated
    assert not rejected or (out.kind, out.message) == (NON_SQUAREFREE_D, "D has a repeated root")


def test_degree_floor_is_one_policy():
    # A = 2t^2 - 1 seeds D = t^2 - 1; verify_pell and generate_from_seed must
    # reject it with the same reason, and accept it with allow_d1.
    seeded = generate_from_seed(parse_poly("2*t^2 - 1"))
    verified = verify_pell(parse_poly("2*t^2 - 1"), parse_poly("2*t"), parse_poly("t^2 - 1"))
    assert seeded == verified
    assert verified.message == "deg D = 2 below policy minimum 4 (allow_d1=False)"
    assert isinstance(solve("2*t^2 - 1", "2*t", "t^2 - 1", allow_d1=True), PellSolution)


def test_power_solution_examples():
    base = solve("t", "1", "t^2 - 1", allow_d1=True)
    p2 = power_solution(base, 2)
    assert (p2.A, p2.B, p2.D) == (
        parse_poly("2*t^2 - 1"),
        parse_poly("2*t"),
        parse_poly("t^2 - 1"),
    )
    base = solve("t^2", "1", "t^4 - 1")
    p2 = power_solution(base, 2)
    assert (p2.A, p2.B) == (parse_poly("2*t^4 - 1"), parse_poly("2*t^2"))
    assert power_solution(base, 1) == base


def test_power_solution_reverifies():
    fixtures = [
        solve("t", "1", "t^2 - 1", allow_d1=True),
        solve("t^2", "1", "t^4 - 1"),
        solve("2*t^3 - 1", "2*t", "t^4 - t"),
    ]
    for base in fixtures:
        for m in range(1, 6):
            powered = power_solution(base, m)
            again = verify_pell(powered.A, powered.B, powered.D, allow_d1=True)
            assert isinstance(again, PellSolution)
            assert again.n == m * base.n
            assert again.D == base.D


def test_power_solution_matches_quotient_ring_power():
    fixtures = [
        solve("t", "1", "t^2 - 1", allow_d1=True),
        solve("t^2", "1", "t^4 - 1"),
        solve("2*t^3 - 1", "2*t", "t^4 - t"),
    ]
    for base in fixtures:
        for m in range(1, 13):
            powered = power_solution(base, m)
            ra, rb = pair_power(base.A, base.B, base.D, m)
            assert (powered.A, powered.B) == (ra, rb)


def test_power_solution_degree_96():
    u = Poly([Fraction(-5, 7), Fraction(3, 2)])
    A = compose(parse_poly("2*t^3 - 1"), u)
    base = verify_pell(A, u.scale(2), compose(parse_poly("t^4 - t"), u))
    assert isinstance(base, PellSolution)
    powered = power_solution(base, 32)
    assert powered.A.degree == 96
    assert powered.A == compose(chebyshev(32), A)
    assert (powered.A, powered.B) == binomial_power(base.A, base.B, base.D, 32)


def test_generate_from_seed_examples():
    out = generate_from_seed(parse_poly("t^2"))
    assert isinstance(out, PellSolution)
    assert (out.B, out.D) == (ONE, parse_poly("t^4 - 1"))
    out = generate_from_seed(parse_poly("2*t^3 - 1"))
    assert isinstance(out, PellSolution)
    assert (out.B, out.D) == (parse_poly("2*t"), parse_poly("t^4 - t"))
    out = generate_from_seed(parse_poly("2*t^2 - 1"))
    assert isinstance(out, RejectionReason) and out.kind == SMALL_DEGREE_D
    out = generate_from_seed(parse_poly("2*t^2 - 1"), allow_d1=True)
    assert isinstance(out, PellSolution)
    assert out.D == parse_poly("t^2 - 1")
    with pytest.raises(DegreeTooSmall):
        generate_from_seed(constant(3))


def test_generate_from_seed_degree_40():
    # A = 1 + S^2 R gives A^2 - 1 = S^2 R (2 + S^2 R): a square factor of
    # degree 20 and an odd-multiplicity part of degree 60.
    S = Poly([Fraction(k * k - 7, k + 2) for k in range(10)] + [-3])
    R = Poly([Fraction((-1) ** k * (k + 1), 2 * k + 3) for k in range(20)] + [Fraction(5, 7)])
    A = ONE + S * S * R
    assert A.degree == 40
    out = generate_from_seed(A)
    assert isinstance(out, PellSolution)
    assert out.D * out.B * out.B == A * A - ONE
    assert out.D.leading == 1 and out.D.degree == 60
    assert discriminant(out.D) != 0
    try:
        import sympy
    except ImportError:  # sympy is an optional oracle
        return
    t = sympy.Symbol("t")
    U = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed((A * A - ONE).coeffs)], t)
    odd = sympy.Poly(1, t, domain=sympy.QQ)
    for factor, mult in U.sqf_list()[1]:
        if mult % 2:
            odd *= factor.monic()
    assert out.D == Poly(Fraction(int(c.p), int(c.q)) for c in reversed(odd.all_coeffs()))


def test_extract_mth_root_examples():
    assert extract_mth_root(parse_poly("2*t^4 - 1"), 2) == parse_poly("t^2")
    assert extract_mth_root(parse_poly("2*t^3 - 1"), 3) is None
    shifted = Poly([1, 1])
    assert extract_mth_root(compose(chebyshev(6), shifted), 2) == compose(
        chebyshev(3), shifted
    )
    assert extract_mth_root(parse_poly("t^5"), 2) is None
    assert extract_mth_root(parse_poly("t^2"), 1) == parse_poly("t^2")
    big = Poly([0, 0, 10**40 + 7])
    assert extract_mth_root(compose(chebyshev(5), big), 5) == big


def test_extract_mth_root_composes_once(monkeypatch):
    # For odd m the root of -A is minus the root of A; for even m only the
    # sign with a positive leading coefficient can be T_m of anything.
    calls = []
    real = pellcore.compose

    def counting(p, q):
        calls.append(q)
        return real(p, q)

    monkeypatch.setattr(pellcore, "compose", counting)
    assert extract_mth_root(parse_poly("4*t^3 + t"), 3) is None
    assert len(calls) == 1
    calls.clear()
    root = Poly([1, 2])
    assert extract_mth_root(-compose(chebyshev(4), root), 4) == root
    assert len(calls) == 1


@given(
    st.integers(min_value=2, max_value=4),
    st.lists(st.integers(-4, 4), min_size=2, max_size=3).filter(lambda c: c[-1] != 0),
)
def test_extract_inverts_chebyshev_composition(m, coeffs):
    p = Poly(coeffs)
    target = compose(chebyshev(m), p)
    got = extract_mth_root(target, m)
    if m % 2 == 0 and p.leading < 0:
        assert got == -p
    else:
        assert got == p


# (a*b + 1)/b in lowest terms: numerator and denominator above 2^64.
wide = st.builds(
    lambda a, b, sign: sign * (a + Fraction(1, b)),
    st.integers(2**64, 2**72),
    st.integers(2**64, 2**70),
    st.sampled_from([1, -1]),
)


@given(
    st.integers(min_value=2, max_value=6),
    st.lists(wide, min_size=2, max_size=4),
    st.sampled_from([1, -1]),
    st.integers(min_value=-1, max_value=8),
)
def test_extract_mth_root_matches_coefficient_loop(m, coeffs, sign, bump):
    target = compose(chebyshev(m), Poly(coeffs)).scale(sign)
    if 0 <= bump <= target.degree:
        # A nudge below the top n/m + 1 coefficients is caught only by the
        # certificate; a nudge among them changes the series root itself.
        target = target + Poly([0] * bump + [1])
    root = extract_mth_root(target, m)
    assert root == extract_by_coefficients(target, m)
    if bump == -1:
        assert root is not None
        assert compose(chebyshev(m), root) in (target, -target)


def test_classify_powers_examples():
    sol = solve("2*t^4 - 1", "2*t^2", "t^4 - 1")
    cls = classify_powers(sol)
    assert cls.admissible_m == frozenset({2})
    assert cls.witnesses == {2: parse_poly("t^2")}
    assert not cls.primitive

    sol = solve("t^2", "1", "t^4 - 1")
    cls = classify_powers(sol)
    assert cls.admissible_m == frozenset()
    assert cls.primitive

    sol = solve("2*t^3 - 1", "2*t", "t^4 - t")
    cls = classify_powers(sol)
    assert cls.admissible_m == frozenset()
    assert cls.primitive


def test_classify_powers_round_trips_witnesses():
    fixtures = [
        solve("t", "1", "t^2 - 1", allow_d1=True),
        solve("t^2", "1", "t^4 - 1"),
        solve("2*t^3 - 1", "2*t", "t^4 - t"),
    ]
    for base in fixtures:
        for m in range(2, 5):
            powered = power_solution(base, m)
            cls = classify_powers(powered)
            assert m in cls.admissible_m
            assert m in cls.witnesses
            assert compose(chebyshev(m), cls.witnesses[m]) == powered.A
            assert not cls.primitive


def test_classify_powers_skips_multiples_of_a_rootless_m(monkeypatch):
    # n = 12, d = 2: the admissible m are 2, 3, 4 and 6.  The 4th power has
    # roots for 2 and 4; 3 has none, so neither has its multiple 6.
    tried = []
    real = pellcore.extract_mth_root

    def recording(A, m):
        tried.append(m)
        return real(A, m)

    monkeypatch.setattr(pellcore, "extract_mth_root", recording)
    powered = power_solution(generate_from_seed(parse_poly("2*t^3 - 1")), 4)
    assert (powered.n, powered.d) == (12, 2)
    cls = classify_powers(powered)
    assert tried == [2, 3, 4]
    assert sorted(cls.admissible_m) == [2, 3, 4, 6]
    assert sorted(cls.witnesses) == [2, 4]


@given(seeds, st.integers(min_value=1, max_value=12), st.booleans())
def test_classify_powers_matches_every_m_oracle(seed, m, nudge):
    # A planted m-th power, or its A plus t, which has no root for most m.
    base = generate_from_seed(seed, allow_d1=True)
    assume(isinstance(base, PellSolution))
    sol = power_solution(base, m)
    if nudge:
        sol = replace(sol, A=sol.A + X)
    assert classify_powers(sol) == classify_powers_every_m(sol)


def test_verify_branch_locus_examples():
    zero_one = [Fraction(0), Fraction(1)]
    assert verify_branch_locus_in(power_polynomial(4), zero_one)
    assert verify_branch_locus_in(power_polynomial(5), zero_one)
    assert not verify_branch_locus_in(parse_poly("t^3 - 3*t"), zero_one)


def test_ramification_type_examples():
    f4 = power_polynomial(4)
    assert ramification_type(f4, Fraction(0)) == ((2, 2),)
    assert ramification_type(f4, Fraction(1)) == ((1, 2), (2, 1))
    f3 = power_polynomial(3)
    assert ramification_type(f3, Fraction(0)) == ((1, 1), (2, 1))
    assert ramification_type(f3, Fraction(1)) == ((1, 1), (2, 1))
    assert ramification_type(parse_poly("t^2"), Fraction(0)) == ((2, 1),)


def test_value_arguments_read_exact_inputs_only():
    # A float is no exact branch value; strings follow parse_rational.
    f4 = power_polynomial(4)
    assert ramification_type(f4, "0") == ramification_type(f4, 0) == ((2, 2),)
    assert verify_branch_locus_in(f4, ["0", 1])
    for value in (0.1, 0.0, True):
        with pytest.raises(TypeError):
            ramification_type(f4, value)
        with pytest.raises(TypeError):
            verify_branch_locus_in(f4, [0, value])
    for text in ("0.1", "1e3"):
        with pytest.raises(ValueError):
            ramification_type(f4, text)
        with pytest.raises(ValueError):
            verify_branch_locus_in(f4, [text])


small_polys = st.lists(st.integers(-5, 5), min_size=1, max_size=4).map(Poly).filter(
    lambda p: not p.is_zero
)
seed_scales = st.one_of(
    st.just(Fraction(1)),
    st.just(Fraction(-1)),
    st.builds(Fraction, st.integers(-40, 40).filter(bool), st.integers(1, 40)),
)


@given(small_polys, small_polys, st.sampled_from((1, -1)), seed_scales)
def test_seed_matches_whole_unit_oracle(S, R, unit, c):
    # A = +-1 + S^2 R has a square factor S^2 in A -+ 1; scaling A by c
    # (negative c flips the leading sign) usually leaves no square factor.
    A = (constant(unit) + S * S * R).scale(c)
    assume(A.degree >= 1)
    for allow_d1 in (False, True):
        assert generate_from_seed(A, allow_d1) == seed_by_whole_unit(A, allow_d1)


def test_seed_decomposes_only_at_degree_n(monkeypatch):
    # The seed decomposes A - 1 and A + 1 (degree n), never A^2 - 1 (2n).
    degrees = []

    def recording(p):
        degrees.append(p.degree)
        return squarefree_decomposition(p)

    monkeypatch.setattr(pellcore, "squarefree_decomposition", recording)
    S = Poly([3, -1, 2])
    A = ONE + S * S * Poly([1, 0, 5])
    out = generate_from_seed(A, allow_d1=True)
    assert isinstance(out, PellSolution)
    assert out.D * out.B * out.B == A * A - ONE
    assert degrees and max(degrees) <= A.degree


def test_seed_odd_multiplicity_locus_has_degree_2d():
    for text in ["t^2", "2*t^3 - 1", "t^3", "4*t^4 - 3*t^2"]:
        out = generate_from_seed(parse_poly(text), allow_d1=True)
        if not isinstance(out, PellSolution):
            continue
        branch = ramification_type(out.A * out.A, Fraction(1))
        odd_locus = sum(deg for mult, deg in branch if mult % 2 == 1)
        assert odd_locus == 2 * out.d
