from __future__ import annotations

import json
import math
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pellab import census as census_module
from pellab import permgroup as pg
from pellab.census import (
    BRUTE_DEFAULT_MAX,
    CASES,
    DISJOINT,
    FOUR_CYCLE,
    THREE_CYCLE,
    ShapeParams,
    TooLarge,
    _case_of_split,
    _layouts,
    _make_tuple,
    _orbit_sums,
    _orbit_weight,
    _pi_from_sigma0,
    _sigma0,
    _split_product,
    brute_force_enumerate,
    census,
    closed_formulas,
    enumerate_shapes,
    report_to_json_dict,
)
from pellab.hurwitz import (
    HurwitzTuple,
    common_fixed,
    is_special,
    primitivity_profile,
    standard_cycle,
    validate,
)
from pellab.permgroup import Perm

from oracles import (
    canonical_key,
    classes_by_case,
    conjugacy_classes,
    conjugate,
    primitive_disjoint_classes,
)

FIXTURES = Path(__file__).parent / "fixtures"

EXPECTED_CLASS_COUNTS = {
    2: (1, 0, 0),
    3: (1, 1, 0),
    4: (2, 3, 1),
    5: (2, 6, 2),
    6: (3, 10, 6),
    7: (3, 15, 10),
    8: (4, 21, 19),
}

EXPECTED_C1 = {2: 0, 3: 0, 4: 1, 5: 4, 6: 10, 7: 20, 8: 35}


def tuple_key(t: HurwitzTuple):
    return (t.sigma0.images, t.sigma1.images, tuple(tau.images for tau in t.taus))


def fixed_point_free_involutions(N):
    """Every pairing of {1..N}, no seed and no filter."""
    out = []
    paired = [0] * (N + 1)

    def rec(unpaired):
        if not unpaired:
            out.append(Perm(paired[1:]))
            return
        a = unpaired[0]
        rest = unpaired[1:]
        for idx, b in enumerate(rest):
            paired[a], paired[b] = b, a
            rec(rest[:idx] + rest[idx + 1 :])

    rec(list(range(1, N + 1)))
    return out


def leaf_filter_scan(n):
    """The brute-force scan without pruning: every fixed-point-free involution
    with sigma0(1) = 2n, each judged at the leaf by the split; sorted."""
    N = 2 * n
    out = []
    paired = [0] * (N + 1)
    paired[1], paired[N] = N, 1

    def descend(unpaired):
        if not unpaired:
            sigma0 = pg._unchecked(tuple(paired[1:]))
            for sigma1, tau in _split_product(_pi_from_sigma0(sigma0)):
                out.append(_make_tuple(standard_cycle(N), sigma0, sigma1, tau))
            return
        a = unpaired[0]
        rest = unpaired[1:]
        for idx, b in enumerate(rest):
            paired[a], paired[b] = b, a
            descend(rest[:idx] + rest[idx + 1 :])

    descend(list(range(2, N)))
    out.sort(key=tuple_key)
    return out


def case_of(t):
    """Case key from the longest cycle of sigma1*tau."""
    product = pg.chain([t.sigma1, *t.taus])
    longest = max((len(c) for c in pg.cycles(product)), default=2)
    return {2: DISJOINT, 3: THREE_CYCLE, 4: FOUR_CYCLE}[longest]


def conjugation_canonical_key(t):
    """The key by explicit conjugation: one standard_cycle(2n) ** k and two
    composes per entry for every commonly fixed index."""
    N = t.points
    best = None
    base = standard_cycle(N)
    for i0 in sorted(common_fixed(t)):
        g = base ** ((N - i0) % N)
        key = (
            conjugate(t.sigma0, g).images,
            conjugate(t.sigma1, g).images,
            tuple(conjugate(tau, g).images for tau in t.taus),
        )
        if best is None or key < best:
            best = key
    return best


def oracle_sigma0_and_split_count(n):
    """Independent scan: admissible sigma0 set and total split count, found
    without the image-of-1 pruning used by the package."""
    N = 2 * n
    found = {}
    for sigma0 in fixed_point_free_involutions(N):
        pi = Perm([sigma0(x % N + 1) for x in range(1, N + 1)])
        if pi(N) != N:
            continue
        lens = sorted((len(c) for c in pg.cycles(pi)), reverse=True)
        if lens == [2] * (n - 1):
            found[sigma0.images] = n - 1
        elif n >= 3 and lens == [3] + [2] * (n - 3):
            found[sigma0.images] = 3
        elif n >= 4 and lens == [4] + [2] * (n - 4):
            found[sigma0.images] = 2
    return found


def sigma0_disjoint(n):
    N = 2 * n
    return Perm.from_cycles(N, [(i, N + 1 - i) for i in range(1, n + 1)])


def sigma0_three(n, h, k):
    N = 2 * n
    pairs = [(i, N + 1 - i) for i in range(1, h + 1)]
    pairs += [(h + j, k + 1 - j) for j in range(1, (k - h) // 2 + 1)]
    pairs += [(k + t, N - h + 1 - t) for t in range(1, (N - h - k) // 2 + 1)]
    return Perm.from_cycles(N, pairs)


def sigma0_four(n, h, k1, k2):
    N = 2 * n
    pairs = [(i, N + 1 - i) for i in range(1, h + 1)]
    pairs += [(h + j, k1 + 1 - j) for j in range(1, (k1 - h) // 2 + 1)]
    pairs += [(k1 + t, k2 + 1 - t) for t in range(1, (k2 - k1) // 2 + 1)]
    pairs += [(k2 + v, N - h + 1 - v) for v in range(1, (N - h - k2) // 2 + 1)]
    return Perm.from_cycles(N, pairs)


def case_by_case_shapes(n):
    """The shape enumeration written case by case: one sigma0 builder per
    case, and the Disjoint splits built by hand."""
    N = 2 * n
    out = []
    sigma0 = sigma0_disjoint(n)
    pairs = [(i, N - i) for i in range(1, n)]
    for h in range(1, n):
        sigma1 = Perm.from_cycles(N, [p for p in pairs if p != (h, N - h)])
        tau = Perm.from_cycles(N, [(h, N - h)])
        out.append((ShapeParams(DISJOINT, h=h), _make_tuple(standard_cycle(N), sigma0, sigma1, tau)))
    for h in range(1, n - 1):
        for k in range(h + 2, N - h - 1, 2):
            sigma0 = sigma0_three(n, h, k)
            for choice, (sigma1, tau) in enumerate(_split_product(_pi_from_sigma0(sigma0))):
                params = ShapeParams(THREE_CYCLE, h=h, k=k, tau_choice=choice)
                out.append((params, _make_tuple(standard_cycle(N), sigma0, sigma1, tau)))
    for h in range(1, n - 2):
        for k1 in range(h + 2, N - h - 3, 2):
            for k2 in range(k1 + 2, N - h - 1, 2):
                sigma0 = sigma0_four(n, h, k1, k2)
                for choice, (sigma1, tau) in enumerate(_split_product(_pi_from_sigma0(sigma0))):
                    params = ShapeParams(FOUR_CYCLE, h=h, k1=k1, k2=k2, tau_choice=choice)
                    out.append((params, _make_tuple(standard_cycle(N), sigma0, sigma1, tau)))
    return out


def test_enumerate_shapes_matches_case_by_case_layouts():
    for n in range(2, 13):
        got = [(params, tuple_key(t)) for params, t in enumerate_shapes(n)]
        want = [(params, tuple_key(t)) for params, t in case_by_case_shapes(n)]
        assert got == want, n


def test_enumerate_shapes_smallest_cases():
    shapes = enumerate_shapes(2)
    assert len(shapes) == 1
    params, t = shapes[0]
    assert params.case == DISJOINT and params.h == 1
    assert t.taus == (Perm.from_cycles(4, "(1,3)"),)

    shapes = enumerate_shapes(3)
    cases = [p.case for p, _ in shapes]
    assert cases.count(DISJOINT) == 2
    assert cases.count(THREE_CYCLE) == 3
    assert cases.count(FOUR_CYCLE) == 0
    disjoint_taus = [t.taus[0] for p, t in shapes if p.case == DISJOINT]
    assert disjoint_taus == [
        Perm.from_cycles(6, "(1,5)"),
        Perm.from_cycles(6, "(2,4)"),
    ]
    with pytest.raises(ValueError):
        enumerate_shapes(1)


def test_four_cycle_tuples_n4():
    entries = [(p, t) for p, t in enumerate_shapes(4) if p.case == FOUR_CYCLE]
    assert len(entries) == 2
    assert all((p.h, p.k1, p.k2) == (1, 3, 5) for p, _ in entries)
    assert [p.tau_choice for p, _ in entries] == [0, 1]
    first, second = entries[0][1], entries[1][1]
    assert first.sigma0 == Perm.from_cycles(8, "(1,8)(2,3)(4,5)(6,7)")
    assert first.sigma1 == Perm.from_cycles(8, "(1,3)(5,7)")
    assert first.taus == (Perm.from_cycles(8, "(1,5)"),)
    assert second.sigma1 == Perm.from_cycles(8, "(3,5)(1,7)")
    assert second.taus == (Perm.from_cycles(8, "(3,7)"),)


def test_shape_tuples_are_valid_special_tuples():
    for n in range(2, 7):
        for params, t in enumerate_shapes(n):
            assert is_special(t)
            report = validate(t)
            assert report.ok, (n, params, report.failed())
            assert case_of(t) == params.case


def test_brute_force_equals_shape_enumeration():
    totals = {2: 1, 3: 5, 4: 14, 5: 30}
    for n in range(2, 13):
        brute = brute_force_enumerate(n, max_n=12)
        shapes = [t for _, t in enumerate_shapes(n)]
        if n in totals:
            assert len(brute) == totals[n]
        assert sorted(map(tuple_key, brute)) == sorted(map(tuple_key, shapes)), n


def test_brute_force_matches_unpruned_scan():
    for n in range(2, 8):
        oracle = oracle_sigma0_and_split_count(n)
        brute = brute_force_enumerate(n)
        assert {t.sigma0.images for t in brute} == set(oracle)
        assert len(brute) == sum(oracle.values())


def test_brute_force_matches_leaf_filter_scan_n8():
    brute = brute_force_enumerate(8)
    assert list(map(tuple_key, brute)) == list(map(tuple_key, leaf_filter_scan(8)))


def test_case_of_split_matches_cycle_oracle():
    for n in range(2, 11):
        for params, t in enumerate_shapes(n):
            assert _case_of_split(t) == case_of(t) == params.case, (n, tuple_key(t))
        for t in brute_force_enumerate(n):
            assert _case_of_split(t) == case_of(t), (n, tuple_key(t))


def test_conjugacy_classes_n6_disjoint():
    disjoint = [t for p, t in enumerate_shapes(6) if p.case == DISJOINT]
    classes = conjugacy_classes(disjoint)
    tau_sets = sorted(
        sorted(pg.format_cycles(t.taus[0]) for t in cls) for cls in classes
    )
    assert tau_sets == [
        ["(1,11)", "(5,7)"],
        ["(2,10)", "(4,8)"],
        ["(3,9)"],
    ]


def test_class_members_share_profile():
    for n in (5, 6):
        tuples = [t for _, t in enumerate_shapes(n)]
        for cls in conjugacy_classes(tuples):
            profiles = {frozenset(primitivity_profile(t)) for t in cls}
            assert len(profiles) == 1


def test_class_size_rules():
    for n in range(4, 8):
        by_case = {DISJOINT: [], THREE_CYCLE: [], FOUR_CYCLE: []}
        for params, t in enumerate_shapes(n):
            by_case[params.case].append(t)
        for cls in conjugacy_classes(by_case[THREE_CYCLE]):
            assert len(cls) == 3
        for cls in conjugacy_classes(by_case[DISJOINT]):
            h = min(x for x in range(1, 2 * n + 1) if cls[0].taus[0](x) != x)
            expected = 1 if 2 * h == n else 2
            assert len(cls) == expected
        sizes = sorted(len(cls) for cls in conjugacy_classes(by_case[FOUR_CYCLE]))
        c2 = n // 2 - 1 if n % 2 == 0 else 0
        assert all(size in (2, 4) for size in sizes)
        assert sizes.count(2) == c2


def test_closed_formulas_values():
    for n, c1 in EXPECTED_C1.items():
        forms = closed_formulas(n)
        assert forms["C1"] == c1
        assert forms[DISJOINT] == n // 2
        assert forms[THREE_CYCLE] == (n - 1) * (n - 2) // 2
    assert closed_formulas(6)["C2"] == 2
    assert closed_formulas(7)["C2"] == 0
    assert closed_formulas(8)[FOUR_CYCLE] == 19


def c1_double_sum(n):
    """C1 as the counting argument's double sum over the Four-cycle
    layouts (h, k)."""
    c1 = 0
    for h in range(1, n - 2):
        for k in range(h + 2, 2 * n - 4 - h + 1, 2):
            c1 += n - 1 - (k + h) // 2
    return c1


def test_closed_formula_c1_matches_double_sum():
    for n in range(2, 201):
        assert closed_formulas(n)["C1"] == c1_double_sum(n), n


def test_census_counts_agree_three_ways():
    for n in range(2, 9):
        report = census(n)
        expected = EXPECTED_CLASS_COUNTS[n]
        for case, want in zip((DISJOINT, THREE_CYCLE, FOUR_CYCLE), expected):
            counts = report.case_counts(case)
            assert counts.shape == want
            assert counts.brute == want
            assert counts.formula == want
        assert report.discrepancies == ()
        assert report.c1 == EXPECTED_C1[n]


def test_census_without_brute():
    report = census(5, use_brute=False)
    assert report.case_counts(DISJOINT).brute is None
    assert report.case_counts(DISJOINT).shape == 2
    assert report.discrepancies == ()


def test_primitive_disjoint_counts():
    for n in range(3, 9):
        count, classes = primitive_disjoint_classes(n)
        phi = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        assert count == phi // 2
        assert len(classes) == count
    count, classes = primitive_disjoint_classes(6)
    assert count == 1
    assert [pg.format_cycles(t.taus[0]) for t in classes[0]] == ["(1,11)", "(5,7)"]


def test_canonical_key_is_conjugation_invariant():
    tuples = [t for _, t in enumerate_shapes(5)]
    for t in tuples:
        assert canonical_key(t) is not None
    classes = conjugacy_classes(tuples)
    assert sum(len(c) for c in classes) == len(tuples)
    for cls in classes:
        keys = {canonical_key(t) for t in cls}
        assert len(keys) == 1


def test_canonical_key_matches_conjugation_oracle():
    for n in range(2, 11):
        for _, t in enumerate_shapes(n):
            assert canonical_key(t) == conjugation_canonical_key(t), (n, tuple_key(t))
    for n in range(2, 7):
        for t in brute_force_enumerate(n):
            assert canonical_key(t) == conjugation_canonical_key(t), (n, tuple_key(t))


def test_census_primitive_count_matches_public_function():
    for n in range(2, 13):
        report = census(n, use_brute=False)
        assert report.primitive_disjoint_count == primitive_disjoint_classes(n)[0]


def disjoint_h(t):
    """h of a Disjoint tuple's tau = (h, 2n-h)."""
    return pg.cycles(t.taus[0])[0][0]


def test_orbit_counts_match_class_oracle():
    """Both routes for every n up to the brute-force bound: the orbit count
    of each case is the number of classes the key-based grouping builds,
    and the primitive orbit sum, taken per tuple, is the primitive class
    count.  The per-tuple filter holds because every member of a Disjoint
    class has the same gcd(h, n)."""
    assert BRUTE_DEFAULT_MAX == 24
    for n in range(2, BRUTE_DEFAULT_MAX + 1):
        report = census(n)
        primitive = primitive_disjoint_classes(n)[0]
        assert report.primitive_disjoint_count == primitive, n
        routes = {"shape": [t for _, t in enumerate_shapes(n)], "brute": brute_force_enumerate(n)}
        for route, tuples in routes.items():
            classes = classes_by_case(tuples)
            for c in CASES:
                assert getattr(report.case_counts(c), route) == len(classes[c]), (n, route, c)
            for cls in classes[DISJOINT]:
                assert len({math.gcd(disjoint_h(t), n) for t in cls}) == 1, (n, route)
            primitive_sum = sum(
                _orbit_weight(t)
                for t in tuples
                if _case_of_split(t) == DISJOINT and math.gcd(disjoint_h(t), n) == 1
            )
            assert primitive_sum == 12 * primitive, (n, route)
        assert report.discrepancies == (), n


def test_orbit_weights_of_a_class_sum_to_twelve():
    for n in range(2, 9):
        tuples = [t for _, t in enumerate_shapes(n)]
        for c, classes in classes_by_case(tuples).items():
            for cls in classes:
                assert sum(map(_orbit_weight, cls)) == 12, (n, c, tuple_key(cls[0]))
            assert _orbit_sums(t for cls in classes for t in cls)[c] == 12 * len(classes)


def test_census_flags_an_orbit_sum_that_is_not_whole(monkeypatch):
    """Half of a known class: at n = 5 the Disjoint tuples with h = 1 and
    h = 4 form one class, each weighing 6 of its 12.  Without the h = 1
    tuple the Disjoint sum is 18, which is no whole number of classes."""
    shapes = enumerate_shapes(5)
    disjoint = [t for p, t in shapes if p.case == DISJOINT]
    assert sorted(sorted(map(disjoint_h, cls)) for cls in conjugacy_classes(disjoint)) == [
        [1, 4],
        [2, 3],
    ]
    keep = [(p, t) for p, t in shapes if (p.case, p.h) != (DISJOINT, 1)]
    brute = [t for t in brute_force_enumerate(5) if t != shapes[0][1]]
    assert shapes[0][0] == ShapeParams(DISJOINT, h=1) and len(brute) == len(keep)
    not_whole = "orbit sum 18/12 is not a whole class count"

    monkeypatch.setattr(census_module, "enumerate_shapes", lambda n: keep)
    report = census(5, use_brute=False)
    assert report.case_counts(DISJOINT) == census_module.CaseCounts(None, None, 2)
    assert report.case_counts(THREE_CYCLE).shape == 6
    assert report.primitive_disjoint_count is None
    assert report.discrepancies == (
        f"Disjoint shape: {not_whole}",
        "Disjoint: shape=None formula=2",
        f"primitive Disjoint: {not_whole}",
    )
    assert report_to_json_dict(report)["cases"][DISJOINT]["shape"] is None

    monkeypatch.undo()
    monkeypatch.setattr(census_module, "brute_force_enumerate", lambda n: brute)
    report = census(5)
    assert report.case_counts(DISJOINT) == census_module.CaseCounts(2, None, 2)
    assert report.primitive_disjoint_count == 2
    assert report.discrepancies == (
        f"Disjoint brute: {not_whole}",
        "Disjoint: shape=2 brute=None",
        "Disjoint: brute=None formula=2",
    )


def test_size_guards():
    with pytest.raises(TooLarge):
        brute_force_enumerate(BRUTE_DEFAULT_MAX + 1)
    with pytest.raises(TooLarge):
        census(BRUTE_DEFAULT_MAX + 1, use_brute=True)
    with pytest.raises(ValueError):
        census(1)
    report = census(9, use_brute=False)
    assert report.case_counts(DISJOINT).brute is None
    assert report.discrepancies == ()


def test_census_json_golden_n8():
    report = census(8)
    got = report_to_json_dict(report)
    with open(FIXTURES / "census_n8.json", "r", encoding="utf-8") as fh:
        want = json.load(fh)
    assert got == want


def split_product_from_cycles(pi):
    """The split of pi built through the checked Perm.from_cycles: sigma1
    from the cycle lists, tau from its one transposition."""
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
    out = []
    if big is None:
        for i, t in enumerate(transpositions):
            rest = [c for j, c in enumerate(transpositions) if j != i]
            out.append((Perm.from_cycles(N, rest), Perm.from_cycles(N, [t])))
    elif len(big) == 3:
        a, b, c = big
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            sigma1 = Perm.from_cycles(N, transpositions + [(x, y)])
            out.append((sigma1, Perm.from_cycles(N, [(x, z)])))
    else:
        a, b, c, d = big
        for extra, tau in ((((a, b), (c, d)), (a, c)), (((b, c), (d, a)), (b, d))):
            sigma1 = Perm.from_cycles(N, transpositions + list(extra))
            out.append((sigma1, Perm.from_cycles(N, [tau])))
    return out


def sigma0_from_pairs(n, h, cuts):
    """The sigma0 layout built from its pair list by Perm.from_cycles."""
    N = 2 * n
    pairs = [(i, N + 1 - i) for i in range(1, h + 1)]
    points = (h, *cuts, N - h)
    for lo, hi in zip(points, points[1:]):
        pairs += [(lo + j, hi + 1 - j) for j in range(1, (hi - lo) // 2 + 1)]
    return Perm.from_cycles(N, pairs)


def assert_split_matches_oracle(pi):
    got = _split_product(pi)
    # The checked constructor first: printing a non-bijection would not end.
    for sigma1, tau in got:
        assert Perm(sigma1.images) == sigma1 and Perm(tau.images) == tau
        assert isinstance(sigma1.images, tuple) and isinstance(tau.images, tuple)
    assert got == split_product_from_cycles(pi), pi
    return got


def test_sigma0_layouts_match_pair_oracle():
    for n in range(2, 13):
        for h, cuts in _layouts(n):
            sigma0 = _sigma0(n, h, cuts)
            assert Perm(sigma0.images) == sigma0
            assert sigma0 == sigma0_from_pairs(n, h, cuts), (n, h, cuts)
            assert not pg.fixed_points(sigma0)
            assert pg.compose(sigma0, sigma0) == pg.identity(2 * n)


def test_split_product_matches_cycle_list_oracle_on_census_products():
    for n in range(2, 11):
        for t in [t for _, t in enumerate_shapes(n)] + brute_force_enumerate(n):
            assert assert_split_matches_oracle(_pi_from_sigma0(t.sigma0)), (n, tuple_key(t))


@st.composite
def census_like_products(draw):
    """A product of transpositions plus at most one 3- or 4-cycle on at most
    20 points, relabelled at random, with the number of splits it must have:
    the fixed-point count is drawn freely, and only a census product (as
    many fixed points as its longest cycle has points, 2 with none longer
    than 2) splits."""
    big = draw(st.sampled_from((0, 3, 4)))
    pairs = draw(st.integers(min_value=0, max_value=(20 - big) // 2))
    fixed = draw(st.integers(min_value=0, max_value=20 - big - 2 * pairs))
    N = big + 2 * pairs + fixed
    label = draw(st.permutations(list(range(1, N + 1))))
    cyc_list = [tuple(label[:big])] if big else []
    cyc_list += [(label[big + 2 * i], label[big + 2 * i + 1]) for i in range(pairs)]
    splits = {0: pairs, 3: 3, 4: 2}[big] if fixed == (big or 2) else 0
    return Perm.from_cycles(N, cyc_list), splits


@given(census_like_products())
def test_split_product_matches_oracle_on_drawn_products(pi_splits):
    pi, splits = pi_splits
    assert len(assert_split_matches_oracle(pi)) == splits


@given(st.integers(min_value=1, max_value=20).flatmap(
    lambda N: st.permutations(list(range(1, N + 1)))))
def test_split_product_matches_oracle_on_any_product(images):
    pi = Perm(images)
    got = assert_split_matches_oracle(pi)
    lengths = sorted(map(len, pg.cycles(pi)))
    if any(k > 4 for k in lengths) or lengths.count(3) + lengths.count(4) > 1:
        assert got == []
