from __future__ import annotations

import sys
import time
from fractions import Fraction
from fractions import Fraction as Rat
from math import comb
from random import Random

import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from pellab import exactpoly, pellcore
from pellab.exactpoly import (
    ONE,
    ZERO,
    DegreeTooSmall,
    Poly,
    compose,
    constant,
    gcd,
    parse_poly,
    squarefree_decomposition,
    squarefree_part,
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

from oracles import (
    X,
    branch_locus_by_fold,
    branch_locus_by_product,
    classify_powers_every_m,
    coeff,
    discriminant,
    evaluate,
    leading,
    power_polynomial,
    power_solution_by_norm_form,
    rat_nth_root,
    replace,
    scale,
    seed_by_whole_unit,
)


def chebyshev_closed_form(n: int) -> Poly:
    """Binomial expansion of cos(n arccos t), summed exactly."""
    shifted = Poly([-1, 0, 1])
    acc = ZERO
    for h in range(n // 2 + 1):
        acc = acc + scale(X ** (n - 2 * h) * shifted**h, comb(n, 2 * h))
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
        Bm = Bm + scale(D ** ((j - 1) // 2) * B**j * A ** (m - j), comb(m, j))
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
        target = scale(A, eps)
        a = rat_nth_root(leading(target) / lead_unit, m)
        if a is None:
            continue
        coeffs = [Rat(0)] * (half + 1)
        coeffs[half] = a
        for i in range(1, half + 1):
            cur = coeff(Poly(coeffs) ** m, n - i) * lead_unit
            delta = coeff(target, n - i) - cur
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
        assert chebyshev(m) == scale(compose(dickson(m), Poly([0, 2])), Fraction(1, 2))


def test_chebyshev_semigroup():
    for a in range(7):
        for b in range(7):
            assert chebyshev(a * b) == compose(chebyshev(a), chebyshev(b))


def test_chebyshev_degree_and_leading():
    for m in range(1, 13):
        T = chebyshev(m)
        assert T.degree == m
        assert leading(T) == 2 ** (m - 1)


def test_chebyshev_past_recursion_limit():
    m = sys.getrecursionlimit() + 50
    T = chebyshev(m)
    assert T.degree == m
    assert leading(T) == 2 ** (m - 1)
    assert evaluate(T, 1) == 1 and evaluate(T, -1) == (-1) ** m


def test_power_polynomial_small_values():
    assert power_polynomial(1) == X
    assert power_polynomial(2) == parse_poly("4*t^2 - 4*t + 1")
    assert power_polynomial(3) == parse_poly("16*t^3 - 24*t^2 + 9*t")


def test_power_polynomial_degree_and_leading():
    for m in range(1, 13):
        f = power_polynomial(m)
        assert f.degree == m
        assert leading(f) == 4 ** (m - 1)


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
        A, B, D = scale(A * A, 2) - ONE, scale(B, 2), D * A * A
    D, B = scale(D, c * c), scale(B, 1 / c)
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
    base = verify_pell(A, scale(u, 2), compose(parse_poly("t^4 - t"), u))
    assert isinstance(base, PellSolution)
    powered = power_solution(base, 32)
    assert powered.A.degree == 96
    assert powered.A == compose(chebyshev(32), A)
    assert (powered.A, powered.B) == binomial_power(base.A, base.B, base.D, 32)


@st.composite
def verified_solutions(draw):
    """A seeded solution under t -> (p/q)t + r, with D scaled by c^2, B by
    1/c, and A and B of either sign."""
    base = generate_from_seed(draw(seeds), allow_d1=True)
    assume(isinstance(base, PellSolution))
    fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
    u = Poly([draw(fractions), draw(fractions.filter(bool))])
    c = draw(fractions.filter(bool))
    A, B, D = (compose(p, u) for p in base[:3])
    A, B = scale(A, draw(st.sampled_from((1, -1)))), scale(B, draw(st.sampled_from((1, -1))) / c)
    sol = verify_pell(A, B, scale(D, c * c), allow_d1=True)
    assert isinstance(sol, PellSolution)
    return sol


def substituted(base: PellSolution, u: Poly) -> PellSolution:
    """base under t -> u, verified."""
    out = verify_pell(*(compose(p, u) for p in base[:3]))
    assert isinstance(out, PellSolution)
    return out


# A 64-bit substitution u = (p/q)t + r, as the powers workload draws one.
U64 = Poly([-0xB7E1_5162_8AED_2A6B, (0xF3C1_9A5B_2D47_8E61, 0x9E37_79B9_7F4A_7C15)])


@settings(deadline=None)
@given(verified_solutions(), st.integers(1, 40))
@example(solve("2*t^3 - 1", "2*t", "t^4 - t"), 32)
@example(solve("t", "1", "t^2 - 1", allow_d1=True), 40)
@example(substituted(solve("2*t^3 - 1", "2*t", "t^4 - t"), U64), 13)  # 1101: doublings and base steps
def test_power_solution_matches_norm_form_oracle(sol, m):
    # The doubling by 2a^2 - 1 holds for every power of a unit.
    assert power_solution(sol, m) == power_solution_by_norm_form(sol, m)


def test_power_solution_squares_once_per_doubling(monkeypatch):
    # m = 32 is five doublings and no multiply-by-base step: one square each.
    base = solve("2*t^3 - 1", "2*t", "t^4 - t")
    calls = []

    def counting(a, square=pellcore._square):
        calls.append(len(a))
        return square(a)

    monkeypatch.setattr(pellcore, "_square", counting)
    powered = power_solution(base, 32)
    assert calls == [4, 7, 13, 25, 49]
    assert powered.A == compose(chebyshev(32), base.A)


@given(
    verified_solutions(),
    st.integers(0, 2),
    st.integers(0, 3),
    st.sampled_from((-1, 1)),
    st.sampled_from((None, "coefficient", "scale")),
)
@example(solve("2*t^3 - 1", "2*t", "t^4 - t"), 0, 0, 1, None)
@example((ONE, ONE, ZERO), 0, 0, 1, None)  # D = 0: a unit below the degree floor
@example((constant(2), ONE, constant(3)), 0, 0, 1, None)  # a constant A, a unit
@example((constant(2), ONE, constant(3)), 2, 0, 1, "coefficient")  # a constant A, no unit
@example(solve("t^2", "1/2", "4*t^4 - 4"), 0, 0, 1, None)  # delta*beta^2 = 4, alpha^2 = 1
@example(solve("t^2", "1/2", "4*t^4 - 4"), 1, 2, 1, "scale")
def test_verify_pell_verdict_matches_expanded_difference(sol, which, k, step, nudge):
    # A valid triple, or one with coefficient k of A, B or D moved by one,
    # or with A, B or D scaled by (j + 1)/j, j = k + 1, which moves the
    # denominators too.
    triple = list(sol[:3])
    if nudge == "coefficient":
        triple[which] = triple[which] + Poly([0] * k + [step])
    elif nudge == "scale":
        triple[which] = scale(triple[which], (k + 2, k + 1))
    A, B, D = triple
    assume(not B.is_zero)
    out = verify_pell(A, B, D, allow_d1=True)
    unit = A * A - D * (B * B) == ONE
    assert (getattr(out, "kind", None) != NOT_UNIT) == unit
    assert isinstance(out, PellSolution) == (unit and D.degree >= 2)


def test_verify_pell_builds_no_product(monkeypatch):
    # A valid triple's identity is checked on integer lists: no Poly product.
    sol = power_solution(substituted(solve("2*t^3 - 1", "2*t", "t^4 - t"), U64), 13)
    calls = []
    product = Poly.__mul__
    monkeypatch.setattr(Poly, "__mul__", lambda a, b: calls.append(b) or product(a, b))
    assert verify_pell(sol.A, sol.B, sol.D) == sol
    assert calls == []


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
    assert leading(out.D) == 1 and out.D.degree == 60
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


def test_generate_from_seed_degree_240():
    # A = 1 + S^2 R with S and R of degree 80 and coefficients in [-3, 3]:
    # the seed's gcds run at degree 240, which took the primitive remainder
    # sequence about 3 s.
    rng = Random(7)
    S = Poly([rng.randint(-3, 3) for _ in range(81)])
    R = Poly([rng.randint(-3, 3) for _ in range(81)])
    A = ONE + S * S * R
    assert A.degree == 240
    started = time.perf_counter()
    out = generate_from_seed(A)
    elapsed = time.perf_counter() - started
    assert isinstance(out, PellSolution)
    assert isinstance(verify_pell(out.A, out.B, out.D), PellSolution)
    assert out.D * out.B * out.B == A * A - ONE
    assert elapsed < 1.0


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
    if m % 2 == 0 and leading(p) < 0:
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
    target = scale(compose(chebyshev(m), Poly(coeffs)), sign)
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
    # roots for 2 and 4; 3 has none, so neither has its multiple 6.  The
    # root for 4 is the square root of the witness for 2, at degree 6.
    tried = []
    real = pellcore.extract_mth_root

    def recording(A, m):
        tried.append((A.degree, m))
        return real(A, m)

    monkeypatch.setattr(pellcore, "extract_mth_root", recording)
    powered = power_solution(generate_from_seed(parse_poly("2*t^3 - 1")), 4)
    assert (powered.n, powered.d) == (12, 2)
    cls = classify_powers(powered)
    assert tried == [(12, 2), (12, 3), (6, 2)]
    assert sorted(cls.admissible_m) == [2, 3, 4, 6]
    assert sorted(cls.witnesses) == [2, 4]


@given(
    seeds,
    st.one_of(st.integers(min_value=1, max_value=12), st.sampled_from((16, 18, 20, 24))),
    st.booleans(),
    st.booleans(),
)
@example(Poly([0, 2]), 24, False, True)
@example(Poly([-1, 0, 0, 2]), 8, False, True)
def test_classify_powers_matches_every_m_oracle(seed, m, nudge, flip):
    # A planted m-th power, or its A plus t, which has no root for most m;
    # with flip, the solution (-A, B, D), so lc A has either sign.  Composite
    # m take their roots from a divisor's witness.
    base = generate_from_seed(seed, allow_d1=True)
    assume(isinstance(base, PellSolution))
    sol = power_solution(base, m)
    if nudge:
        sol = replace(sol, A=sol.A + X)
    if flip:
        sol = replace(sol, A=-sol.A)
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


def test_value_arguments_read_integer_pairs():
    f4 = power_polynomial(4)
    assert ramification_type(f4, (0, 3)) == ramification_type(f4, 0) == ((2, 2),)
    assert ramification_type(f4, (-2, -2)) == ramification_type(f4, 1)
    assert verify_branch_locus_in(f4, [(0, 5), (3, 3)])
    assert not verify_branch_locus_in(f4, [(0, 5), (1, 2)])
    for bad, error in (((1, 0), ZeroDivisionError), ((1.0, 2), TypeError), ((True, 1), TypeError), ((1, 2, 3), TypeError)):
        with pytest.raises(error):
            ramification_type(f4, bad)
        with pytest.raises(error):
            verify_branch_locus_in(f4, [0, bad])


small_rats = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def locus_cases(draw):
    """f with a list of values: a random f of degree 2-8; T_k(at + b), whose
    critical values are -1 and 1 (only -1 for k = 2); or f with
    f' = prod(t - r) over rational r, whose critical values f(r) are
    rational.  The values repeat, may be empty, and may cover every
    critical value."""
    kind = draw(st.sampled_from(("random", "chebyshev", "rational")))
    if kind == "random":
        f = Poly(draw(st.lists(st.integers(-9, 9), min_size=3, max_size=9)))
        assume(f.degree >= 2)
        critical = []
    elif kind == "chebyshev":
        a = draw(small_rats.filter(bool))
        f = compose(chebyshev(draw(st.integers(2, 8))), Poly([draw(small_rats), a]))
        critical = [Fraction(-1), Fraction(1)]
    else:
        roots = draw(st.lists(small_rats, min_size=1, max_size=7))
        df = ONE
        for r in roots:
            df = df * Poly([-r, 1])
        f = Poly([draw(small_rats), *(c / (i + 1) for i, c in enumerate(df.coeffs))])
        critical = [evaluate(f, r) for r in roots]
    pool = critical + draw(st.lists(small_rats, min_size=1, max_size=4))
    values = draw(st.lists(st.sampled_from(pool), max_size=6))
    if draw(st.booleans()):
        values += critical
    return f, values


@given(locus_cases())
def test_verify_branch_locus_matches_product_oracle(case):
    f, values = case
    assert verify_branch_locus_in(f, values) == branch_locus_by_product(f, values)
    assert verify_branch_locus_in(f, values) == branch_locus_by_fold(f, values)


def test_verify_branch_locus_folds_each_value_once(monkeypatch):
    # rad f' is squarefree, so a repeated value cannot change the verdict.
    calls = []

    def counting(real):
        def wrapper(a, b):
            calls.append(a.degree)
            return real(a, b)

        return wrapper

    monkeypatch.setattr(pellcore, "gcd_cofactors", counting(pellcore.gcd_cofactors))
    f = parse_poly("t^3 - 3*t")
    counts = []
    for values in ([0, 1], [0] * 50 + [1]):
        calls.clear()
        assert not verify_branch_locus_in(f, values)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_quotients_are_gcd_cofactors(monkeypatch):
    # Yun's loop, the squarefree part and the locus loop take each quotient
    # from gcd_cofactors, whose exact divisions certify its gcd, with no
    # pseudo-division; the locus loop takes gcd(r, f - c) on f itself, so
    # it divides no polynomial by another.
    def refuse(a, b):
        raise AssertionError("pseudo-division called")

    monkeypatch.setattr(exactpoly, "_pseudo_rem", refuse)
    p = parse_poly("-2/3*t^2") * parse_poly("t - 1") ** 3 * parse_poly("t^2 + 1")
    assert squarefree_decomposition(p) == [
        (1, parse_poly("t^2 + 1")),
        (2, parse_poly("t")),
        (3, parse_poly("t - 1")),
    ]
    assert exactpoly.squarefree_part(p) == parse_poly("t^4 - t^3 + t^2 - t")
    f = parse_poly("16*t^3 - 24*t^2 + 9*t")  # t(4t - 3)^2, critical values 0 and 1
    assert ramification_type(f, 0) == ((1, 1), (2, 1))
    assert not hasattr(pellcore, "divrem")
    calls = []
    cofactors = pellcore.gcd_cofactors
    monkeypatch.setattr(pellcore, "gcd_cofactors", lambda a, b: calls.append(b) or cofactors(a, b))
    for values, contained in (([0, 1], True), ([5] * 3, False), ([2, 0, 1, 0], True)):
        calls.clear()
        assert verify_branch_locus_in(f, values) is contained
        assert calls and all(b == f - constant(c) for b, c in zip(calls, dict.fromkeys(values)))


def test_verify_branch_locus_builds_below_twice_the_degree(monkeypatch):
    # The product of f - c over 2000 values has degree 6000; replacing
    # rad f' by a cofactor per value, nothing built reaches 2 deg f.
    degrees = []
    build = exactpoly._poly

    def recording(nums, den=1):
        p = build(nums, den)
        degrees.append(p.degree)
        return p

    f = parse_poly("t^3 - 3*t")
    monkeypatch.setattr(exactpoly, "_poly", recording)
    assert not verify_branch_locus_in(f, range(2000))
    assert verify_branch_locus_in(f, [*range(2000), -2])
    assert degrees and max(degrees) < 2 * f.degree


def test_verify_branch_locus_height_stays_flat_in_the_values(monkeypatch):
    # Folding prod(f - c) modulo rad f' would add about log2 |c| bits to
    # every coefficient per value: near 257,000 bits after 20,000 values.
    # Replacing rad f' by a cofactor of gcd(rad f', f - c) per value, every
    # polynomial built stays within a small multiple of the bits of f and
    # of the largest value.
    bits = []
    build = exactpoly._poly

    def recording(nums, den=1):
        p = build(nums, den)
        bits.append(max(abs(c).bit_length() for c in (*p.nums, p.den)))
        return p

    monkeypatch.setattr(exactpoly, "_poly", recording)
    for text in ("t^3 - 3*t", "t^5 - 7*t^3 + 3/2*t"):
        f = parse_poly(text)
        f_bits = max(abs(c).bit_length() for c in (*f.nums, f.den))
        bits.clear()
        assert not verify_branch_locus_in(f, range(20_000))
        assert max(bits) <= 4 * (f_bits + (20_000).bit_length())
    assert verify_branch_locus_in(parse_poly("t^3 - 3*t"), [*range(20_000), -2])


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
    A = scale(constant(unit) + S * S * R, c)
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


def test_public_guards_refuse_indices_below_their_range():
    with pytest.raises(ValueError, match="chebyshev index"):
        chebyshev(-1)
    with pytest.raises(ValueError, match="power index"):
        power_solution(solve("t^2", "1", "t^4 - 1"), 0)
    with pytest.raises(ValueError, match="root index"):
        extract_mth_root(parse_poly("2*t^2 - 1"), 0)


nonzero = st.sampled_from((-3, -2, -1, 1, 2, 3))
small_polys = st.builds(
    lambda low, lead: Poly([*low, lead]), st.lists(st.integers(-3, 3), min_size=1, max_size=3), nonzero
)


@st.composite
def cover_solutions(draw):
    """A verified solution from one of three sources: the family
    (2F^2/e + 1, 2F/e, F^2 + e), the seed 1 + S^2*R, or a square or cube
    of either."""
    if draw(st.booleans()):
        F = draw(small_polys)
        e = draw(st.builds(Fraction, nonzero, st.integers(1, 3)))
        scaled = scale(F, 2 / e)
        sol = verify_pell(F * scaled + ONE, scaled, F * F + constant(e), allow_d1=True)
    else:
        S, R = draw(small_polys), draw(st.one_of(nonzero.map(constant), small_polys))
        sol = generate_from_seed(ONE + S * S * R, allow_d1=True)
    assume(isinstance(sol, PellSolution))
    m = draw(st.sampled_from((1, 1, 2, 3)))
    return power_solution(sol, m) if m > 1 else sol


@settings(deadline=None)
@given(cover_solutions())
@example(solve("2*t^3 - 1", "2*t", "t^4 - t"))
def test_cover_a_squared_branches_as_its_tuple(sol):
    """The cover A^2 of degree 2n that validate's checks describe: an even
    fiber over 0; 2d simple points over 1, where A^2 - 1 = D*B^2, and no
    other odd multiplicity, exactly when gcd(B, D) = 1; and left, what is
    left of the finite branching 2n - 1 over every other value, at most
    d - 1, with d - 1 exactly when A and B are squarefree and
    gcd(B, D) = 1, and 0 exactly when every critical value is 0 or 1.
    The seed 2t^3 - 1 has gcd(B, D) = t: a point of multiplicity 3 over 1."""
    f, n, d = sol.A * sol.A, sol.n, sol.d
    over0, over1 = ramification_type(f, 0), ramification_type(f, 1)
    assert all(mult % 2 == 0 for mult, _ in over0)
    coprime = gcd(sol.B, sol.D).degree == 0
    assert ([(mult, k) for mult, k in over1 if mult % 2] == [(1, 2 * d)]) == coprime
    b0, b1 = (sum((mult - 1) * k for mult, k in fiber) for fiber in (over0, over1))
    left = 2 * n - 1 - b0 - b1
    generic = coprime and all(squarefree_part(p).degree == p.degree for p in (sol.A, sol.B))
    assert 0 <= left <= d - 1
    assert (left == d - 1) == generic
    assert verify_branch_locus_in(f, [0, 1]) == (left == 0)
    event("generic" if generic else "degenerate")
