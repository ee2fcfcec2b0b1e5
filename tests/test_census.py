from __future__ import annotations

import ast
import functools
import itertools
import json
import math
import tracemalloc
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
    PRIMITIVE,
    SHAPE_MAX,
    THREE_CYCLE,
    TooLarge,
    census,
    closed_formulas,
)
from pellab.cli import main
from pellab.hurwitz import (
    HurwitzTuple,
    admissible_exponents,
    is_special,
    primitivity_profile,
    standard_cycle,
    validate,
)
from pellab.permgroup import Perm

from oracles import (
    ShapeParams,
    _layout_route,
    _layout_splits,
    _layouts,
    _make_tuple,
    _orbit_sums,
    _orbit_weight,
    _shape_tuples,
    _sigma0,
    _split_product,
    _split_weights,
    brute_force_enumerate,
    canonical_key,
    case_of,
    classes_by_case,
    common_fixed,
    compose,
    conjugacy_classes,
    conjugate,
    enumerate_shapes,
    forced_product,
    orbit_sums_per_split,
    power,
    primitive_disjoint_classes,
    rotate,
    split_weights_by_scan,
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
            for sigma1, tau in _split_product(forced_product(sigma0)):
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


def conjugation_canonical_key(t):
    """The key by explicit conjugation: one power of standard_cycle(2n) and
    two composes per entry for every commonly fixed index."""
    N = t.points
    best = None
    base = standard_cycle(N)
    for i0 in sorted(common_fixed(t)):
        g = power(base, (N - i0) % N)
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
            for choice, (sigma1, tau) in enumerate(_split_product(forced_product(sigma0))):
                params = ShapeParams(THREE_CYCLE, h=h, k=k, tau_choice=choice)
                out.append((params, _make_tuple(standard_cycle(N), sigma0, sigma1, tau)))
    for h in range(1, n - 2):
        for k1 in range(h + 2, N - h - 3, 2):
            for k2 in range(k1 + 2, N - h - 1, 2):
                sigma0 = sigma0_four(n, h, k1, k2)
                for choice, (sigma1, tau) in enumerate(_split_product(forced_product(sigma0))):
                    params = ShapeParams(FOUR_CYCLE, h=h, k1=k1, k2=k2, tau_choice=choice)
                    out.append((params, _make_tuple(standard_cycle(N), sigma0, sigma1, tau)))
    return out


def test_enumerate_shapes_matches_case_by_case_layouts():
    for n in range(2, 13):
        got = [(params, tuple_key(t)) for params, t in enumerate_shapes(n)]
        want = [(params, tuple_key(t)) for params, t in case_by_case_shapes(n)]
        assert got == want, n


def test_shape_tuples_stream_the_enumerate_shapes_order():
    for n in range(2, 13):
        got = [tuple_key(t) for t in _shape_tuples(n)]
        want = [tuple_key(t) for _, t in enumerate_shapes(n)]
        assert got == want, n


def test_primitive_orbit_sum_is_the_same_on_both_routes():
    for n in range(2, 17):
        shape = _orbit_sums(_shape_tuples(n))[PRIMITIVE]
        brute = _orbit_sums(brute_force_enumerate(n))[PRIMITIVE]
        assert shape == brute == 12 * primitive_disjoint_classes(n)[0], n


def test_shape_route_census_holds_no_tuple_list():
    """At n = 24 the shape route stands for 4,324 tuples, about 7 MB held
    as a list; the census sums them by rows and builds none."""
    tracemalloc.start()
    try:
        report = census(24, use_brute=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report["discrepancies"] == []
    assert peak < 1_000_000, peak


def shape_items(n, route=_layout_route):
    """Every layout's items (CF, taus), each paired with a builder of its
    sigma0: the oracle _sigma0 on _layouts, in the same order."""
    for (h, cuts), (cf, taus) in zip(_layouts(n), route(n), strict=True):
        yield functools.partial(_sigma0, n, h, cuts), cf, taus


def brute_items(n, route=census_module._brute_route):
    """The brute route's items (CF, taus), each paired with a builder of its
    sigma0: every leaf of the pruned scan, so that a leaf that does not
    split fails the oracle comparisons."""
    for leaf, (cf, taus) in zip(census_module._brute_leaves(n), route(n), strict=True):
        yield functools.partial(pg._unchecked, leaf), cf, taus


def test_common_fixed_points_ascend_to_2n_on_both_routes():
    """_orbit_sums reads 2n as CF's last entry: on every layout of the
    oracle route up to SHAPE_MAX (677,103 items) and of the brute route up
    to n = 12 (726), CF is a strictly increasing tuple of 2, 3 or 4 points
    that ends in 2n.  Weighing each item in one step changes no sum: on
    each of those items alone, _orbit_sums gives every case and the
    primitive Disjoint sum that weighing each split (the oracle
    _split_weights) does.  Items whose CF holds n and items whose CF lacks
    it occur on both routes."""
    routes = {"shape": (_layout_route, SHAPE_MAX), "brute": (census_module._brute_route, 12)}
    holding = {name: dict.fromkeys((False, True), 0) for name in routes}
    for name, (route, top) in routes.items():
        for n in range(2, top + 1):
            for item in route(n):
                cf = item[0]
                assert type(cf) is tuple and 2 <= len(cf) <= 4 and cf[-1] == 2 * n, (n, cf)
                assert all(x < y for x, y in zip(cf, cf[1:])), (n, cf)
                holding[name][n in cf] += 1
                assert census_module._orbit_sums((item,)) == orbit_sums_per_split((item,)), (name, item)
    assert sum(holding["shape"].values()) == 677_103 and sum(holding["brute"].values()) == 726
    assert all(counts[False] and counts[True] for counts in holding.values()), holding


def oracle_tuples(sigma0):
    """The tuples of sigma0's splits, built by the tuple-level oracle."""
    sigma_inf = standard_cycle(sigma0.size)
    splits = _split_product(forced_product(sigma0))
    return [_make_tuple(sigma_inf, sigma0, sigma1, tau) for sigma1, tau in splits]


def test_split_weights_match_the_tuple_oracle():
    """Every item on both routes, weighed per sigma0 with no tuple built,
    has the orbit sums of its tuples at the tuple level, and each split
    its tuple's tau, CF, case and tuple-level orbit weight."""
    for n in range(2, 15):
        routes = {"shape": shape_items(n), "brute": brute_items(n)}
        splits = dict.fromkeys(routes, 0)
        for name, route in routes.items():
            for sigma0, cf, taus in route:
                splits[name] += len(taus)
                tuples = oracle_tuples(sigma0())
                assert [set(tau) for tau in taus] == [set(pg.cycles(t.taus[0])[0]) for t in tuples]
                assert census_module._orbit_sums(((cf, taus),)) == _orbit_sums(tuples), (n, cf, taus)
                weights = _split_weights(cf, taus)
                for t, weight in zip(tuples, weights):
                    assert tuple(sorted(common_fixed(t))) == cf, (n, tuple_key(t))
                    assert weight == _orbit_weight(t, common_fixed(t)), (n, tuple_key(t))
                    assert CASES[len(cf) - 2] == case_of(t), (n, tuple_key(t))
        assert splits["shape"] == splits["brute"] == len(brute_force_enumerate(n)), n


def test_orbit_sums_per_sigma0_match_the_tuple_oracle():
    for n in range(2, 25):
        got = census_module._shape_sums(n)
        assert got == _orbit_sums(_shape_tuples(n)), n
    for n in range(2, 13):
        got = census_module._orbit_sums(census_module._brute_route(n))
        assert got == _orbit_sums(brute_force_enumerate(n)), n


def recorded_census(monkeypatch, n, use_brute):
    """census(n, use_brute)'s discrepancies, the items it hands
    _orbit_sums, one list per call, and the sigma0 each _splits call
    scans."""
    seen, scanned = [], []
    orbit_sums, splits = census_module._orbit_sums, census_module._splits

    def recording(route):
        items = list(route)
        seen.append(items)
        return orbit_sums(items)

    monkeypatch.setattr(census_module, "_orbit_sums", recording)
    monkeypatch.setattr(
        census_module, "_splits", lambda sigma0: scanned.append(sigma0) or splits(sigma0)
    )
    discrepancies = census(n, use_brute=use_brute)["discrepancies"]
    monkeypatch.undo()
    return discrepancies, seen, scanned


def test_census_hands_orbit_sums_only_the_brute_leaves(monkeypatch):
    """The shape column weighs no item: census(8) hands _orbit_sums one
    route, the 57 brute leaves with their CF and taus, each leaf scanned
    once by _splits."""
    leaves = list(census_module._brute_leaves(8))
    assert len(leaves) == 57
    discrepancies, seen, scanned = recorded_census(monkeypatch, 8, None)
    assert discrepancies == []
    assert seen == [[census_module._splits(leaf) for leaf in leaves]]
    assert scanned == leaves


def test_shape_route_never_scans_a_forced_product(monkeypatch):
    """Without brute force, census neither scans a forced product nor
    hands _orbit_sums anything, up to n = 24."""
    for n in (2, 3, 5, 12, 24):
        assert recorded_census(monkeypatch, n, False) == ([], [], []), n


def test_layout_splits_match_the_scan_of_the_built_layout():
    """The CF and taus read from each layout's cut points are those one scan
    of the built sigma0's forced product finds."""
    for n in range(2, 33):
        for h, cuts in _layouts(n):
            want = census_module._splits(_sigma0(n, h, cuts).images)
            assert _layout_splits(n, h, cuts) == want, (n, h, cuts)


def test_shape_route_matches_the_layout_oracle():
    """The oracle route's one loop per case yields the layouts in the
    generic oracle's order, each with the oracle's CF and taus."""
    for n in range(2, 49):
        route = list(_layout_route(n))
        layouts = list(_layouts(n))
        assert len(route) == len(layouts), n
        for (cf, taus), (h, cuts) in zip(route, layouts):
            assert (cf, taus) == _layout_splits(n, h, cuts), (n, h, cuts)


def test_shape_sums_count_the_rows_of_the_layout_oracle():
    """_shape_sums counts every layout by rows: for every n up to SHAPE_MAX
    its sums are those of _orbit_sums over every layout of the oracle
    route.  The lemma behind the rows holds on the oracle route: no
    ThreeCycle CF holds n, and a FourCycle row (h, k1) has exactly one
    layout whose CF holds n, k2 = 2n - k1, exactly when k1 < n.  Among the
    layouts whose CF holds n, CF is closed under +n exactly for Disjoint
    and for the FourCycles with h + k1 = n, of which there are C2:
    n/2 - 1 for even n, none for odd."""
    rows = {}
    for n in range(2, SHAPE_MAX + 1):
        route = list(_layout_route(n))
        assert census_module._shape_sums(n) == census_module._orbit_sums(route), n
        closed_fours = 0
        for (h, cuts), (cf, _) in zip(_layouts(n), route, strict=True):
            if len(cuts) == 1:
                assert n not in cf, (n, h, cuts)
            elif len(cuts) == 2:
                rows.setdefault((n, h, cuts[0]), []).extend([cuts[1]] * (n in cf))
            if n in cf:
                closed = {(x + n) % (2 * n) or 2 * n for x in cf} == set(cf)
                assert closed == (not cuts or (len(cuts) == 2 and h + cuts[0] == n)), (n, h, cuts)
                closed_fours += closed and len(cuts) == 2
        assert closed_fours == (n // 2 - 1 if n % 2 == 0 else 0) == closed_formulas(n)["C2"], n
    assert all(held == [2 * n - k1] * (k1 < n) for (n, _, k1), held in rows.items())
    assert {k1 < n for n, _, k1 in rows} == {False, True}


def test_shape_sums_are_twelve_times_the_closed_formulas_past_the_bound():
    """The shape column is the row-by-row proof of closed_formulas: on every
    case and the primitive Disjoint count, _shape_sums(n) is 12 times the
    closed form for every n up to 512, past SHAPE_MAX."""
    assert SHAPE_MAX < 512
    for n in range(2, 513):
        formulas = closed_formulas(n)
        want = {c: 12 * formulas[c] for c in (*CASES, PRIMITIVE)}
        assert census_module._shape_sums(n) == want, n


def test_split_weights_match_the_scan_on_both_routes():
    """Reading the weights from CF alone changes none: on every layout of
    the oracle route up to SHAPE_MAX and of the brute route up to n = 12,
    _orbit_sums gives the sums of the weights of the scan that tries every
    point of CF as a shift of the item's built sigma0, and so does the
    oracle _split_weights per split.  Where CF is closed under +n, the half
    turn fixes sigma0 (the lemma of _orbit_sums); Disjoint and FourCycle
    items are among those."""
    routes = [shape_items(n) for n in range(2, SHAPE_MAX + 1)]
    routes += [brute_items(n) for n in range(2, 13)]
    closed = dict.fromkeys(CASES, 0)
    for sigma0, cf, taus in itertools.chain.from_iterable(routes):
        scan = split_weights_by_scan(sigma0, frozenset(cf), taus)
        assert _split_weights(cf, taus) == scan, (cf, taus)
        item = ((cf, taus),)
        assert census_module._orbit_sums(item) == orbit_sums_per_split(item, lambda *_: scan), (cf, taus)
        N = max(cf)
        if {(x + N // 2) % N or N for x in cf} == set(cf):
            built = sigma0()
            assert rotate(built, N // 2) == built, (cf, taus)
            closed[CASES[len(cf) - 2]] += 1
    assert closed[DISJOINT] and closed[FOUR_CYCLE] and not closed[THREE_CYCLE], closed


def test_census_builds_no_perm_per_split(monkeypatch):
    """Neither route builds a Perm: the weights are read from CF, the brute
    route scans its leaves as image tuples, and census imports no module
    that defines a Perm.  At n = 12 the 221 layouts have 506 splits.  The
    imports are read from census.py itself, not from the module's
    namespace, which pytest's assertion rewriting adds to when census.py is
    named on its command line."""
    built = []
    unchecked, new = pg._unchecked, pg.Perm.__new__
    monkeypatch.setattr(pg, "_unchecked", lambda *args: built.append(args) or unchecked(*args))
    monkeypatch.setattr(pg.Perm, "__new__", lambda cls, *args: built.append(args) or new(cls, *args))
    assert census(12)["discrepancies"] == []
    assert built == []
    modules = set()
    for node in ast.walk(ast.parse(Path(census_module.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            dots = "." * node.level
            modules |= {dots + node.module} if node.module else {dots + a.name for a in node.names}
    assert modules == {"math", "typing"}


def test_shape_route_bound():
    for n in (SHAPE_MAX + 1, 10**6):
        for use_brute in (None, False):
            with pytest.raises(TooLarge, match=f"^n = {n} beyond shape-route bound {SHAPE_MAX}$"):
                census(n, use_brute=use_brute)
        with pytest.raises(TooLarge, match=f"brute-force bound {BRUTE_DEFAULT_MAX}$"):
            census(n, use_brute=True)
    assert census(SHAPE_MAX)["discrepancies"] == []


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
            assert report["ok"], (n, params, report["checks"])
            assert case_of(t) == params.case


def test_brute_force_equals_shape_enumeration():
    totals = {2: 1, 3: 5, 4: 14, 5: 30}
    for n in range(2, 13):
        brute = brute_force_enumerate(n)
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


def test_brute_leaves_are_the_layouts():
    """The two cuts of the pruned scan leave exactly the sigma0 layouts, up
    to the brute-force bound: every leaf is a census case, with no third
    cut and no case test (the lemma of _brute_leaves)."""
    for n in range(2, BRUTE_DEFAULT_MAX + 1):
        layouts = sorted(_sigma0(n, h, cuts).images for h, cuts in _layouts(n))
        assert sorted(census_module._brute_leaves(n)) == layouts, n


def test_case_from_common_fixed_matches_cycle_oracle():
    for n in range(2, 11):
        for params, t in enumerate_shapes(n):
            case = CASES[len(common_fixed(t)) - 2]
            assert case == case_of(t) == params.case, (n, tuple_key(t))
        for t in brute_force_enumerate(n):
            assert CASES[len(common_fixed(t)) - 2] == case_of(t), (n, tuple_key(t))


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
            profiles = {frozenset(primitivity_profile(t, admissible_exponents(n, 2))) for t in cls}
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
            counts = report["cases"][case]
            assert counts["shape"] == want
            assert counts["brute"] == want
            assert counts["formula"] == want
        assert report["discrepancies"] == []
        assert report["C1"] == EXPECTED_C1[n]


def test_census_without_brute():
    report = census(5, use_brute=False)
    assert report["cases"][DISJOINT]["brute"] is None
    assert report["cases"][DISJOINT]["shape"] == 2
    assert report["discrepancies"] == []


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
    for n in range(2, 25):
        primitive = primitive_disjoint_classes(n)[0]
        assert closed_formulas(n)[PRIMITIVE] == primitive, n
        assert census(n, use_brute=False)["primitiveDisjoint"] == primitive, n


def disjoint_h(t):
    """h of a Disjoint tuple's tau = (h, 2n-h)."""
    return pg.cycles(t.taus[0])[0][0]


def test_primitive_rule_is_the_profile_verdict():
    """census's primitive Disjoint rule, gcd(h, n) = 1, is an empty
    primitivity_profile: on the shape route's Disjoint tuples (its first
    layout's n - 1 splits) up to n = 24 and the brute oracle's up to
    n = 12.  The rule covers Disjoint only: at n = 12, 13 of the 55
    ThreeCycle classes and 33 of the 85 FourCycle classes are powers."""
    routes = [list(itertools.islice(_shape_tuples(n), n - 1)) for n in range(2, 25)]
    routes += [[t for t in brute_force_enumerate(n) if case_of(t) == DISJOINT] for n in range(2, 13)]
    powers = 0
    for tuples in routes:
        n = tuples[0].n
        assert len(tuples) == n - 1 and {case_of(t) for t in tuples} == {DISJOINT}, n
        for t in tuples:
            profile = primitivity_profile(t, admissible_exponents(n, t.d))
            assert (not profile) == (math.gcd(disjoint_h(t), n) == 1), (n, tuple_key(t))
            powers += bool(profile)
    assert powers
    power_sums = dict.fromkeys(CASES, 0)
    for t in _shape_tuples(12):
        if primitivity_profile(t, admissible_exponents(12, t.d)):
            cf = common_fixed(t)
            power_sums[CASES[len(cf) - 2]] += _orbit_weight(t, cf)
    assert power_sums == {DISJOINT: 12 * 4, THREE_CYCLE: 12 * 13, FOUR_CYCLE: 12 * 33}
    cases = census(12, use_brute=False)["cases"]
    assert (cases[THREE_CYCLE]["shape"], cases[FOUR_CYCLE]["shape"]) == (55, 85)


def classes_by_profile(tuples, n):
    """{(case, profile): classes} for d = 2, profile the frozenset of
    admissible m for which a class is an m-th power, counted by orbit
    weights (12 per class)."""
    admissible = admissible_exponents(n, 2)
    weights = {}
    for t in tuples:
        cf = common_fixed(t)
        key = (CASES[len(cf) - 2], frozenset(primitivity_profile(t, admissible)))
        weights[key] = weights.get(key, 0) + _orbit_weight(t, cf)
    assert all(w % 12 == 0 for w in weights.values()), n
    return {key: w // 12 for key, w in weights.items()}


@functools.cache
def shape_classes_by_profile(n):
    return classes_by_profile(_shape_tuples(n), n)


def power_classes(by_profile, n):
    """{m: (Disjoint, ThreeCycle, FourCycle)}: the m-th power classes of
    each case, for each admissible m."""
    return {
        m: tuple(sum(v for (c, profile), v in by_profile.items() if c == case and m in profile) for case in CASES)
        for m in admissible_exponents(n, 2)
    }


# The m-th power classes of each case, (Disjoint, ThreeCycle, FourCycle),
# for each admissible m; an n with none is left out.
POWER_CLASSES = {
    4: {2: (1, 0, 1)},
    6: {2: (1, 1, 2), 3: (1, 0, 2)},
    8: {2: (2, 3, 7), 4: (1, 0, 3)},
    9: {3: (1, 1, 4)},
    10: {2: (2, 6, 12), 5: (1, 0, 4)},
    12: {2: (3, 10, 25), 3: (2, 3, 13), 4: (1, 1, 6), 6: (1, 0, 5)},
    14: {2: (3, 15, 38), 7: (1, 0, 6)},
    15: {3: (2, 6, 22), 5: (1, 1, 8)},
    16: {2: (4, 21, 63), 4: (2, 3, 19), 8: (1, 0, 7)},
    18: {2: (4, 28, 88), 3: (3, 10, 44), 6: (1, 1, 10), 9: (1, 0, 8)},
    20: {2: (5, 36, 129), 4: (2, 6, 32), 5: (2, 3, 25), 10: (1, 0, 9)},
    21: {3: (3, 15, 66), 7: (1, 1, 12)},
    22: {2: (5, 45, 170), 11: (1, 0, 10)},
    24: {2: (6, 55, 231), 3: (4, 21, 107), 4: (3, 10, 63), 6: (2, 3, 31), 8: (1, 1, 14), 12: (1, 0, 11)},
}


def test_power_classes_per_case_and_exponent():
    """The per-m table, by orbit weights from primitivity_profile: on the
    shape route for n <= 24 and on the brute oracle for n <= 12, which
    agree."""
    for n in range(2, 25):
        assert power_classes(shape_classes_by_profile(n), n) == POWER_CLASSES.get(n, {}), n
        if n <= 12:
            assert classes_by_profile(brute_force_enumerate(n), n) == shape_classes_by_profile(n), n


def mobius(e):
    sign = 1
    for p in range(2, e + 1):
        if e % p == 0:
            e //= p
            if e % p == 0:
                return 0
            sign = -sign
    return sign


def test_power_classes_have_closed_forms():
    """With k = n/m, the m-th power classes are the Disjoint and ThreeCycle
    classes of degree k, in the same case, and m FourCycle(k) + (m - 1)
    (Disjoint(k) + ThreeCycle(k)) FourCycle classes: m times the classes
    of degree k in all.  A class's profile holds the divisors above 1 of
    each of its m and the lcm of any two, so over the divisors e of n
    (e = 1 counting every class, and an e past n/2 none) the primitive
    classes of a case are the sum of mu(e) times its e-th power classes,
    Mobius inversion.  Checked on the table; CHANGES.md records the shape
    route to n = 64."""
    for n in range(2, 25):
        by_profile = shape_classes_by_profile(n)
        for _, profile in by_profile:
            assert all(math.lcm(p, q) in profile for p in profile for q in profile), (n, profile)
            assert all(e in profile for m in profile for e in range(2, m) if m % e == 0), (n, profile)
        powers = {1: tuple(sum(v for (c, _), v in by_profile.items() if c == case) for case in CASES)}
        for m in admissible_exponents(n, 2):
            k = n // m
            below = closed_formulas(k)
            disjoint, three = below[DISJOINT], below[THREE_CYCLE]
            powers[m] = (disjoint, three, m * below[FOUR_CYCLE] + (m - 1) * (disjoint + three))
        assert {m: counts for m, counts in powers.items() if m > 1} == POWER_CLASSES.get(n, {}), n
        primitive = tuple(by_profile.get((case, frozenset()), 0) for case in CASES)
        assert primitive == tuple(sum(mobius(e) * powers[e][i] for e in powers) for i in range(len(CASES))), n


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
        assert report["primitiveDisjoint"] == primitive, n
        routes = {"shape": [t for _, t in enumerate_shapes(n)], "brute": brute_force_enumerate(n)}
        for route, tuples in routes.items():
            classes = classes_by_case(tuples)
            for c in CASES:
                assert report["cases"][c][route] == len(classes[c]), (n, route, c)
            for cls in classes[DISJOINT]:
                assert len({math.gcd(disjoint_h(t), n) for t in cls}) == 1, (n, route)
            primitive_sum = sum(
                _orbit_weight(t, common_fixed(t))
                for t in tuples
                if case_of(t) == DISJOINT and math.gcd(disjoint_h(t), n) == 1
            )
            assert primitive_sum == 12 * primitive, (n, route)
        assert report["discrepancies"] == [], n


def test_orbit_weights_of_a_class_sum_to_twelve():
    for n in range(2, 9):
        tuples = [t for _, t in enumerate_shapes(n)]
        for c, classes in classes_by_case(tuples).items():
            for cls in classes:
                weights = [_orbit_weight(t, common_fixed(t)) for t in cls]
                assert sum(weights) == 12, (n, c, tuple_key(cls[0]))
            assert _orbit_sums(t for cls in classes for t in cls)[c] == 12 * len(classes)


def without_split(route, t):
    """The brute route with the split that makes tuple t left out of its
    sigma0's taus."""
    tau = pg.cycles(t.taus[0])[0]

    def patched(n):
        for sigma0, cf, taus in brute_items(n, route):
            yield cf, [x for x in taus if (sigma0(), x) != (t.sigma0, tau)]

    return patched


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

    shape_sums = census_module._shape_sums
    weight = _orbit_weight(shapes[0][1], common_fixed(shapes[0][1]))

    def without_h1(n):
        sums = shape_sums(n)
        sums[DISJOINT] -= weight
        sums[PRIMITIVE] -= weight
        return sums

    monkeypatch.setattr(census_module, "_shape_sums", without_h1)
    report = census(5, use_brute=False)
    assert report["cases"][DISJOINT] == {"shape": None, "brute": None, "formula": 2}
    assert report["cases"][THREE_CYCLE]["shape"] == 6
    assert report["primitiveDisjoint"] is None
    assert report["discrepancies"] == [
        f"Disjoint shape: {not_whole}",
        "Disjoint: shape=None formula=2",
        f"primitive Disjoint shape: {not_whole}",
        "primitive Disjoint: shape=None formula=2",
    ]
    assert report["cases"][DISJOINT]["shape"] is None

    monkeypatch.undo()
    monkeypatch.setattr(
        census_module, "_brute_route", without_split(census_module._brute_route, shapes[0][1])
    )
    report = census(5)
    assert report["cases"][DISJOINT] == {"shape": 2, "brute": None, "formula": 2}
    assert report["primitiveDisjoint"] == 2
    assert report["discrepancies"] == [
        f"Disjoint brute: {not_whole}",
        "Disjoint: shape=2 brute=None",
        "Disjoint: brute=None formula=2",
        f"primitive Disjoint brute: {not_whole}",
        "primitive Disjoint: shape=2 brute=None",
        "primitive Disjoint: brute=None formula=2",
    ]


def test_census_flags_a_primitive_count_that_disagrees(monkeypatch):
    """One route's primitive orbit sum shifted by 12 is still a whole class
    count, so only the comparison with the other route and the closed form
    can catch it.  At n = 5 there are two primitive classes, h = 1 and 2."""
    cases = {use_brute: census(5, use_brute=use_brute)["cases"] for use_brute in (False, True)}
    want = {
        ("shape", False): ["primitive Disjoint: shape=3 formula=2"],
        ("shape", True): ["primitive Disjoint: shape=3 brute=2"],
        ("brute", True): [
            "primitive Disjoint: shape=2 brute=3",
            "primitive Disjoint: brute=3 formula=2",
        ],
    }
    for (route, use_brute), discrepancies in want.items():

        name = {"shape": "_shape_sums", "brute": "_orbit_sums"}[route]

        def shifted(arg, sums_of=getattr(census_module, name)):
            sums = sums_of(arg)
            sums[PRIMITIVE] += 12
            return sums

        monkeypatch.setattr(census_module, name, shifted)
        report = census(5, use_brute=use_brute)
        assert report["discrepancies"] == discrepancies, (route, use_brute)
        assert report["primitiveDisjoint"] == 2 + (route == "shape")
        assert report["cases"] == cases[use_brute]
        monkeypatch.undo()


def test_bounds_are_checked_before_the_closed_form(monkeypatch, capsys):
    """The closed form takes O(n) gcds and --n takes any integer: an n past
    both bounds is refused before the formula runs."""

    def refuse(n):
        raise AssertionError(f"closed_formulas({n}) ran before the bounds")

    monkeypatch.setattr(census_module, "closed_formulas", refuse)
    for use_brute in (None, False, True):
        with pytest.raises(TooLarge):
            census(10**12, use_brute=use_brute)
    for route in ([], ["--no-brute-force"], ["--brute-force"]):
        assert main(["census", "--n", str(10**12), *route]) == 2
    capsys.readouterr()


def test_size_guards():
    with pytest.raises(TooLarge):
        brute_force_enumerate(BRUTE_DEFAULT_MAX + 1)
    with pytest.raises(TooLarge):
        census(BRUTE_DEFAULT_MAX + 1, use_brute=True)
    with pytest.raises(ValueError):
        census(1)
    report = census(9, use_brute=False)
    assert report["cases"][DISJOINT]["brute"] is None
    assert report["discrepancies"] == []


def test_census_json_golden_n8():
    got = census(8)
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
            assert compose(sigma0, sigma0) == pg.identity(2 * n)


def test_split_product_matches_cycle_list_oracle_on_census_products():
    for n in range(2, 11):
        for t in [t for _, t in enumerate_shapes(n)] + brute_force_enumerate(n):
            assert assert_split_matches_oracle(forced_product(t.sigma0)), (n, tuple_key(t))


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
