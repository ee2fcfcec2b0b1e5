"""Acceptance gate: one test per criterion, one printed verdict line each.

Criterion 5 hard-fails only when the shape enumeration and the brute-force
ground truth disagree; closed-formula mismatches are printed as flagged
discrepancies without failing the suite.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from itertools import combinations

from pellab import permgroup as pg
from pellab.census import (
    BRUTE_DEFAULT_MAX,
    DISJOINT,
    FOUR_CYCLE,
    THREE_CYCLE,
    census,
    enumerate_shapes,
)
from pellab.exactpoly import (
    Poly,
    X,
    compose,
    parse_poly,
    squarefree_decomposition,
)
from pellab.hurwitz import (
    admissible_exponents,
    primitivity_profile,
    power_test,
    validate,
    zannier_tuple,
)
from pellab.pellcore import (
    PellSolution,
    chebyshev,
    classify_powers,
    power_solution,
    verify_branch_locus_in,
    verify_pell,
)
from pellab.permgroup import Perm

from oracles import (
    congruence_partition,
    conjugacy_classes,
    induced_block_action,
    is_dihedral_of_order,
    power_polynomial,
    primitive_disjoint_classes,
)

ZERO_ONE = [Fraction(0), Fraction(1)]


def verdict(number: int, label: str, started: float) -> None:
    print(f"ACCEPTANCE {number} PASS {label} ({time.perf_counter() - started:.2f}s)")


def all_label_partitions(N: int, ell: int) -> list[tuple[int, ...]]:
    """Labels of every partition of {1..N} into ell blocks of equal size."""
    size = N // ell
    label = [-1] * N
    out: list[tuple[int, ...]] = []

    def rec(next_label: int) -> None:
        first = next((i for i in range(N) if label[i] < 0), None)
        if first is None:
            out.append(tuple(label))
            return
        label[first] = next_label
        free = [i for i in range(first + 1, N) if label[i] < 0]
        for mates in combinations(free, size - 1):
            for i in mates:
                label[i] = next_label
            rec(next_label + 1)
            for i in mates:
                label[i] = -1
        label[first] = -1

    rec(0)
    return out


def preserved_by_all(label: tuple[int, ...], gens: list[Perm], ell: int) -> bool:
    for g in gens:
        seen = [-1] * ell
        for x in range(len(label)):
            a = label[x]
            b = label[g.images[x] - 1]
            if seen[a] < 0:
                seen[a] = b
            elif seen[a] != b:
                return False
    return True


def test_criterion_1_chebyshev_power_identities():
    started = time.perf_counter()
    square = Poly([0, 0, 1])
    for m in range(1, 13):
        assert compose(power_polynomial(m), square) == compose(square, chebyshev(m))
    for a in range(7):
        for b in range(7):
            assert chebyshev(a * b) == compose(chebyshev(a), chebyshev(b))
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    verdict(1, "chebyshev and power-polynomial identities", started)


def test_criterion_2_power_polynomial_ramification():
    started = time.perf_counter()
    for m in range(2, 11):
        f = power_polynomial(m)
        assert verify_branch_locus_in(f, ZERO_ONE)
        over0 = squarefree_decomposition(f)
        over1 = squarefree_decomposition(f - Poly([1]))
        if m % 2 == 0:
            assert [(mult, p.degree) for mult, p in over0] == [(2, m // 2)]
            expected = [(1, 2)] if m == 2 else [(1, 2), (2, (m - 2) // 2)]
            assert [(mult, p.degree) for mult, p in over1] == expected
            plain = next(p for mult, p in over1 if mult == 1)
            assert plain == Poly([0, -1, 1])
        else:
            assert [(mult, p.degree) for mult, p in over0] == [(1, 1), (2, (m - 1) // 2)]
            assert next(p for mult, p in over0 if mult == 1) == X
            assert [(mult, p.degree) for mult, p in over1] == [(1, 1), (2, (m - 1) // 2)]
            assert next(p for mult, p in over1 if mult == 1) == Poly([-1, 1])
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    verdict(2, "power-polynomial branch loci and types", started)


def test_criterion_3_pell_fixtures_and_powers():
    started = time.perf_counter()
    fixtures = [
        ("t", "1", "t^2 - 1", True, 1, 1),
        ("t^2", "1", "t^4 - 1", False, 2, 2),
        ("2*t^3 - 1", "2*t", "t^4 - t", False, 3, 2),
    ]
    for ta, tb, td, relax, n, d in fixtures:
        sol = verify_pell(parse_poly(ta), parse_poly(tb), parse_poly(td), allow_d1=relax)
        assert isinstance(sol, PellSolution)
        assert (sol.n, sol.d) == (n, d)
        for m in range(1, 6):
            powered = power_solution(sol, m)
            again = verify_pell(powered.A, powered.B, powered.D, allow_d1=True)
            assert isinstance(again, PellSolution)
            assert again.n == m * n
            if m >= 2:
                cls = classify_powers(powered)
                assert m in cls.witnesses
                assert compose(chebyshev(m), cls.witnesses[m]) == powered.A
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    verdict(3, "pell fixtures, powers, and witness round-trips", started)


def test_criterion_4_power_test_vs_block_systems():
    started = time.perf_counter()
    checked = 0
    for n in range(2, 9):
        for _, t in enumerate_shapes(n):
            gens = t.gens()
            for m in admissible_exponents(n, 2):
                claim = power_test(t, m)
                assert claim == (pg.is_ell_imprimitive(gens, 2 * m) is not None)
                if claim:
                    assert pg.is_ell_imprimitive(gens, m) is not None
                checked += 1
    assert checked == 404

    scanned = 0
    for n in range(2, 7):
        N = 2 * n
        partitions = {
            ell: all_label_partitions(N, ell) for ell in range(1, N + 1) if N % ell == 0
        }
        for _, t in enumerate_shapes(n):
            gens = t.gens()
            for ell, plist in partitions.items():
                hits = [lab for lab in plist if preserved_by_all(lab, gens, ell)]
                part = pg.is_ell_imprimitive(gens, ell)
                assert (part is not None) == bool(hits), (n, ell)
                if part is not None:
                    assert len(hits) == 1
                    want = sorted(sorted(b) for b in part.blocks)
                    got_blocks: dict[int, list[int]] = {}
                    for x, lab in enumerate(hits[0], start=1):
                        got_blocks.setdefault(lab, []).append(x)
                    assert sorted(sorted(b) for b in got_blocks.values()) == want
                scanned += 1
    assert scanned == 529
    verdict(4, "power test vs block systems, with exhaustive partition scan", started)


def test_criterion_5_census_three_routes():
    started = time.perf_counter()
    flagged: list[str] = []
    for n in range(2, BRUTE_DEFAULT_MAX + 1):
        report = census(n)
        for case in (DISJOINT, THREE_CYCLE, FOUR_CYCLE):
            counts = report.case_counts(case)
            assert counts.brute is not None
            assert counts.shape == counts.brute, (n, case, counts)
            if counts.formula != counts.brute:
                flagged.append(f"n={n} {case}: brute={counts.brute} formula={counts.formula}")
        assert report.case_counts(DISJOINT).brute == n // 2
        assert report.case_counts(THREE_CYCLE).brute == (n - 1) * (n - 2) // 2
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    for line in flagged:
        print(f"ACCEPTANCE 5 DISCREPANCY {line}")
    verdict(5, f"census three routes, {len(flagged)} formula discrepancies", started)


def test_criterion_6_primitive_counts():
    started = time.perf_counter()
    for n in range(3, 9):
        count, classes = primitive_disjoint_classes(n)
        phi = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        assert count == phi // 2
        disjoint = [t for p, t in enumerate_shapes(n) if p.case == DISJOINT]
        for cls in conjugacy_classes(disjoint):
            h = min(x for x in range(1, 2 * n + 1) if cls[0].taus[0](x) != x)
            profile = primitivity_profile(cls[0])
            assert (math.gcd(h, n) == 1) == (profile == set())

    disjoint6 = [t for p, t in enumerate_shapes(6) if p.case == DISJOINT]
    classes = conjugacy_classes(disjoint6)
    by_taus = {
        tuple(sorted(pg.format_cycles(t.taus[0]) for t in cls)): primitivity_profile(cls[0])
        for cls in classes
    }
    assert by_taus == {
        ("(1,11)", "(5,7)"): set(),
        ("(2,10)", "(4,8)"): {2},
        ("(3,9)",): {3},
    }
    verdict(6, "primitive class counts and the n=6 worked example", started)


def test_criterion_7_zannier_family():
    started = time.perf_counter()
    for d in (2, 3, 4):
        for n in range(d, 11):
            t = zannier_tuple(n, d)
            report = validate(t)
            assert report.ok
            assert (
                report.over_zero,
                report.over_one,
                report.over_infinity,
                report.over_taus,
            ) == (n, n - d, 2 * n - 1, d - 1)
            assert primitivity_profile(t) == set()
    verdict(7, "staircase family validates and is primitive", started)


def test_criterion_8_dihedral_quotients():
    started = time.perf_counter()
    seen = 0
    for n in range(2, 9):
        for _, t in enumerate_shapes(n):
            for m in sorted(primitivity_profile(t)):
                if m < 3:
                    continue
                N = 2 * n
                part = congruence_partition(N, m)
                acts = induced_block_action(t.gens(), part)
                act0, actInf, act1 = acts[0], acts[1], acts[2]
                assert actInf == Perm([m] + list(range(1, m)))
                assert act1 == Perm([m - h for h in range(1, m)] + [m])
                assert act0 == Perm(list(range(m, 0, -1)))
                for extra in acts[3:]:
                    assert extra == pg.identity(m)
                assert is_dihedral_of_order(acts, 2 * m, r=actInf, s=act1)
                seen += 1
    assert seen >= 12
    verdict(8, f"dihedral block quotients on {seen} tuple-exponent pairs", started)
