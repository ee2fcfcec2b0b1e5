from __future__ import annotations

import random
from collections import Counter
from dataclasses import replace
from functools import lru_cache

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pellab import permgroup as pg
from pellab.census import enumerate_shapes
from pellab.hurwitz import (
    MAX_TUPLE_N,
    CheckResult,
    DegreeOrder,
    HurwitzTuple,
    NotSpecialForm,
    ValidationReport,
    admissible_exponents,
    common_fixed,
    is_special,
    normalize_special,
    power_test,
    primitivity_profile,
    standard_cycle,
    tuple_from_json_dict,
    tuple_to_json_dict,
    validate,
    zannier_tuple,
)
from pellab.permgroup import Perm

from oracles import branching, congruence_partition, conjugate


def disjoint_census_tuple(n: int, h: int) -> HurwitzTuple:
    """n - 1 transpositions (i, 2n - i); tau is the one at h."""
    N = 2 * n
    sigma0 = Perm.from_cycles(N, "".join(f"({i},{N + 1 - i})" for i in range(1, n + 1)))
    pairs = [(i, N - i) for i in range(1, n)]
    tau = Perm.from_cycles(N, f"({h},{N - h})")
    rest = "".join(f"({a},{b})" for a, b in pairs if a != h)
    sigma1 = Perm.from_cycles(N, rest if rest else "()")
    return HurwitzTuple(sigma0, standard_cycle(N), sigma1, (tau,), n, 2)


def test_standard_cycle():
    s = standard_cycle(6)
    assert s(1) == 6
    assert s(4) == 3
    assert pg.cycle_type(s) == (6,)
    for N in range(1, 51):
        checked = Perm([N] + list(range(1, N)))
        assert standard_cycle(N) == checked
        assert standard_cycle(N).images == checked.images
    for N in (0, -3):
        with pytest.raises(ValueError):
            standard_cycle(N)


def test_zannier_tuple_examples():
    z = zannier_tuple(4, 2)
    assert z.sigma0 == Perm.from_cycles(8, "(1,8)(2,7)(3,6)(4,5)")
    assert z.sigma1 == Perm.from_cycles(8, "(1,7)(2,6)")
    assert z.taus == (Perm.from_cycles(8, "(3,5)"),)

    z = zannier_tuple(2, 2)
    assert z.sigma0 == Perm.from_cycles(4, "(1,4)(2,3)")
    assert z.sigma1 == pg.identity(4)
    assert z.taus == (Perm.from_cycles(4, "(1,3)"),)

    z = zannier_tuple(6, 3)
    assert z.sigma1 == Perm.from_cycles(12, "(1,11)(2,10)(3,9)")
    assert z.taus == (
        Perm.from_cycles(12, "(5,7)"),
        Perm.from_cycles(12, "(4,8)"),
    )

    with pytest.raises(DegreeOrder):
        zannier_tuple(3, 5)
    with pytest.raises(DegreeOrder):
        zannier_tuple(4, 1)
    with pytest.raises(ValueError, match=f"n <= {MAX_TUPLE_N}"):
        zannier_tuple(MAX_TUPLE_N + 1, 2)


def test_validate_zannier_budgets():
    report = validate(zannier_tuple(5, 2))
    assert report.ok
    assert report.failed() == []
    budgets = (
        report.over_zero,
        report.over_one,
        report.over_infinity,
        report.over_taus,
    )
    assert budgets == (5, 3, 9, 1)


def test_validate_family_budgets():
    for d in (2, 3, 4):
        for n in range(d, 9):
            report = validate(zannier_tuple(n, d))
            assert report.ok
            assert (
                report.over_zero,
                report.over_one,
                report.over_infinity,
                report.over_taus,
            ) == (n, n - d, 2 * n - 1, d - 1)


def test_validate_names_failures():
    z = zannier_tuple(5, 2)
    broken = HurwitzTuple(
        z.sigma0,
        z.sigmaInf,
        Perm.from_cycles(10, "(1,9)(2,8)"),
        z.taus,
        5,
        2,
    )
    report = validate(broken)
    assert not report.ok
    assert report.failed() == ["ProductIdentity", "FixedPointCount", "TotalBranching"]


def test_validate_size_mismatch_short_circuits():
    z = zannier_tuple(4, 2)
    broken = HurwitzTuple(pg.identity(6), z.sigmaInf, z.sigma1, z.taus, 4, 2)
    report = validate(broken)
    assert not report.ok
    assert report.failed()[0] == "SizeConsistent"


def test_is_special_and_common_fixed():
    z = zannier_tuple(5, 2)
    assert is_special(z)
    assert common_fixed(z) == frozenset({5, 10})
    moved = HurwitzTuple(z.sigma0, z.sigmaInf, z.sigma1, (Perm.from_cycles(10, "(9,10)"),), 5, 2)
    assert not is_special(moved)


def test_admissible_exponents():
    assert admissible_exponents(6, 2) == [2, 3]
    assert admissible_exponents(8, 2) == [2, 4]
    assert admissible_exponents(4, 2) == [2]
    assert admissible_exponents(3, 2) == []
    assert admissible_exponents(6, 3) == [2]


def test_power_test_worked_example_n6():
    cube = disjoint_census_tuple(6, 3)
    assert power_test(cube, 3)
    assert not power_test(cube, 2)
    assert power_test(cube, 1)

    prim = disjoint_census_tuple(6, 1)
    assert not power_test(prim, 2)
    assert not power_test(prim, 3)

    square = disjoint_census_tuple(6, 2)
    assert power_test(square, 2)
    assert not power_test(square, 3)


def test_primitivity_profiles_n6():
    assert primitivity_profile(disjoint_census_tuple(6, 1)) == set()
    assert primitivity_profile(disjoint_census_tuple(6, 2)) == {2}
    assert primitivity_profile(disjoint_census_tuple(6, 3)) == {3}
    assert primitivity_profile(zannier_tuple(6, 2)) == set()
    assert primitivity_profile(zannier_tuple(8, 2)) == set()


def block_image_power_test(t: HurwitzTuple, m: int) -> bool:
    """The power test through block systems: on the mod-2m residue blocks
    every entry must induce the label map of an m-th power."""
    if m == 1:
        return True
    m2 = 2 * m
    part = congruence_partition(t.points, m2)
    down = Perm([m2] + list(range(1, m2)))
    mirror_fix_last = Perm([m2 - h if h < m2 else m2 for h in range(1, m2 + 1)])
    mirror = Perm([m2 - h + 1 for h in range(1, m2 + 1)])
    pairs = [
        (t.sigmaInf, down),
        (t.sigma1, mirror_fix_last),
        (t.sigma0, mirror),
        *((tau, pg.identity(m2)) for tau in t.taus),
    ]
    return all(pg.preserves_partition(p, part) == want for p, want in pairs)


def relabelled(t: HurwitzTuple, g: Perm) -> HurwitzTuple:
    """Conjugate every entry but sigmaInf by g."""
    return HurwitzTuple(
        conjugate(t.sigma0, g),
        t.sigmaInf,
        conjugate(t.sigma1, g),
        tuple(conjugate(tau, g) for tau in t.taus),
        t.n,
        t.d,
    )


def relabellings_fixing_last(N: int, m2: int, rng: random.Random) -> list[Perm]:
    """A random relabelling of 1..N-1, and one that keeps every residue mod
    m2; both fix N."""
    anywhere = list(range(1, N))
    rng.shuffle(anywhere)
    images = [0] * N
    for r in range(1, m2 + 1):
        points = [x for x in range(r, N + 1, m2) if x != N]
        for x, y in zip(points, rng.sample(points, len(points))):
            images[x - 1] = y
    images[N - 1] = N
    return [Perm(anywhere + [N]), Perm(images)]


def test_power_test_matches_block_images():
    rng = random.Random(5)
    tuples = [t for n in range(2, 13) for _, t in enumerate_shapes(n)]
    tuples += [zannier_tuple(n, d) for n in range(2, 17) for d in range(2, n + 1)]
    entries = {}
    for t in tuples:
        for field in ("sigma0", "sigma1", "taus"):
            entries.setdefault((t.points, field), set()).add(getattr(t, field))
    verdicts = Counter()

    def check(kind, u, m):
        got = power_test(u, m)
        assert got == block_image_power_test(u, m), (kind, u, m)
        verdicts[kind, got] += 1

    crossed = set()
    for t in tuples:
        for m in admissible_exponents(t.n, t.d):
            check("as built", t, m)
            for g in relabellings_fixing_last(t.points, 2 * m, rng):
                check("relabelled", relabelled(t, g), m)
            if (t.points, m) in crossed or not power_test(t, m):
                continue
            # One power per size and m, with each entry in turn replaced by
            # that entry of every other tuple on as many points: the product
            # is no longer the identity, so each rule is tested on its own.
            crossed.add((t.points, m))
            for field in ("sigma0", "sigma1", "taus"):
                for entry in entries[t.points, field]:
                    check(f"crossed {field}", replace(t, **{field: entry}), m)
    # Entries that keep every residue rule but one at some points.
    base = disjoint_census_tuple(4, 2)
    check("near miss", base, 2)
    for field, entry in (
        ("sigma0", Perm.from_cycles(8, "(1,7)(2,6)(3,5)(4,8)")),
        ("sigma1", Perm.from_cycles(8, "(1,4)(3,6)(5,7)")),
        ("taus", (Perm.from_cycles(8, "(1,2,3,4)"),)),
    ):
        check("near miss", replace(base, **{field: entry}), 2)
    assert {kind for kind, _ in verdicts} == {
        "as built", "relabelled", "crossed sigma0", "crossed sigma1", "crossed taus",
        "near miss",
    }
    for kind, _ in verdicts:
        assert verdicts[kind, True] > 0 and verdicts[kind, False] > 0, verdicts


def test_malformed_sizes():
    z = zannier_tuple(4, 2)
    short = pg.identity(6)
    assert not is_special(HurwitzTuple(z.sigma0, z.sigmaInf, short, z.taus, 4, 2))
    assert not is_special(HurwitzTuple(z.sigma0, z.sigmaInf, z.sigma1, (short,), 4, 2))
    # Special form reads only sigmaInf and the images of 2n; every other
    # point must still be there for the power test.
    for sigma0, sigma1, tau in (
        (short, z.sigma1, z.taus[0]),
        (pg.identity(10), z.sigma1, z.taus[0]),
        (z.sigma0, Perm.from_cycles(10, "(1,7)(2,6)(9,10)"), z.taus[0]),
        (z.sigma0, z.sigma1, Perm.from_cycles(10, "(3,5)")),
    ):
        t = HurwitzTuple(sigma0, z.sigmaInf, sigma1, (tau,), 4, 2)
        assert is_special(t)
        with pytest.raises(pg.SizeMismatch):
            power_test(t, 2)


def test_power_test_agrees_with_block_search():
    for h in (1, 2, 3, 4, 5):
        t = disjoint_census_tuple(6, h)
        for m in (2, 3):
            assert power_test(t, m) == (
                pg.is_ell_imprimitive(t.gens(), 2 * m) is not None
            )


def test_full_block_preservation_implies_half():
    cube = disjoint_census_tuple(6, 3)
    assert pg.is_ell_imprimitive(cube.gens(), 6) is not None
    assert pg.is_ell_imprimitive(cube.gens(), 3) is not None
    square = disjoint_census_tuple(6, 2)
    assert pg.is_ell_imprimitive(square.gens(), 4) is not None
    assert pg.is_ell_imprimitive(square.gens(), 2) is not None


def test_power_test_rejects_bad_inputs():
    z = zannier_tuple(4, 2)
    with pytest.raises(ValueError):
        power_test(z, 3)
    shifted = HurwitzTuple(z.sigma0, z.sigmaInf, z.sigma1, (Perm.from_cycles(8, "(7,8)"),), 4, 2)
    with pytest.raises(NotSpecialForm):
        power_test(shifted, 2)


def test_normalize_special_keeps_special_input():
    z = zannier_tuple(5, 2)
    assert normalize_special(z) == z


def test_normalize_special_undoes_rotation():
    z = zannier_tuple(5, 2)
    g = standard_cycle(10) ** 3
    rotated = HurwitzTuple(
        conjugate(z.sigma0, g),
        conjugate(z.sigmaInf, g),
        conjugate(z.sigma1, g),
        tuple(conjugate(t, g) for t in z.taus),
        5,
        2,
    )
    assert not is_special(rotated)
    assert normalize_special(rotated) == z


def test_normalize_special_handles_arbitrary_relabeling():
    z = zannier_tuple(6, 2)
    g = Perm.from_cycles(12, "(1,5,9)(2,12)(3,7)(4,10,8,6)")
    scrambled = HurwitzTuple(
        conjugate(z.sigma0, g),
        conjugate(z.sigmaInf, g),
        conjugate(z.sigma1, g),
        tuple(conjugate(t, g) for t in z.taus),
        6,
        2,
    )
    fixed = normalize_special(scrambled)
    assert is_special(fixed)
    assert validate(fixed).ok
    assert primitivity_profile(fixed) == primitivity_profile(z)


def test_normalize_special_needs_common_fixed_point():
    bad = HurwitzTuple(
        Perm.from_cycles(4, "(1,4)(2,3)"),
        standard_cycle(4),
        Perm.from_cycles(4, "(1,3)(2,4)"),
        (),
        2,
        2,
    )
    with pytest.raises(ValueError):
        normalize_special(bad)


def normalize_by_conjugation(t: HurwitzTuple) -> HurwitzTuple:
    """normalize_special as conjugate-then-rotate: conjugate every entry by
    gamma, which takes sigmaInf to the standard cycle, then rotate the least
    common fixed index into 2n."""
    if is_special(t):
        return t
    N = t.points
    if not pg.is_full_cycle(t.sigmaInf):
        raise ValueError("sigmaInf must be a full cycle")
    images = [0] * N
    x = N
    for k in range(N):
        images[(N - k) - 1] = x
        x = t.sigmaInf(x)
    gamma = Perm(images)
    rebased = map_entries(t, lambda p: conjugate(p, gamma))
    fixed = common_fixed(rebased)
    if not fixed:
        raise ValueError("no index is fixed by sigma1 and every tau")
    return map_entries(rebased, lambda p: pg.rotate(p, N - min(fixed)))


def map_entries(t: HurwitzTuple, f) -> HurwitzTuple:
    return replace(
        t,
        sigma0=f(t.sigma0),
        sigmaInf=f(t.sigmaInf),
        sigma1=f(t.sigma1),
        taus=tuple(f(tau) for tau in t.taus),
    )


def normalize_outcome(normalize, t: HurwitzTuple):
    """The normalized tuple, or the error's type and message."""
    try:
        return normalize(t)
    except ValueError as exc:
        return type(exc), str(exc)


@lru_cache(maxsize=None)
def shape_tuples(n: int) -> list[HurwitzTuple]:
    return [t for _, t in enumerate_shapes(n)]


@st.composite
def relabelled_tuples(draw):
    """A staircase or census-shape tuple on at most 40 points, every entry
    conjugated by one drawn relabelling; sometimes broken so that sigmaInf
    is no full cycle, or no index is fixed by sigma1 and every tau."""
    if draw(st.booleans()):
        n = draw(st.integers(min_value=2, max_value=20))
        t = zannier_tuple(n, draw(st.integers(min_value=2, max_value=n)))
    else:
        t = draw(st.sampled_from(shape_tuples(draw(st.integers(min_value=2, max_value=7)))))
    N = t.points
    g = Perm(draw(st.permutations(range(1, N + 1))))
    t = map_entries(t, lambda p: conjugate(p, g))
    broken = draw(st.sampled_from((None, None, "sigmaInf", "sigma1")))
    if broken == "sigmaInf":
        t = replace(t, sigmaInf=t.sigma0)
    elif broken == "sigma1":
        t = replace(t, sigma1=conjugate(standard_cycle(N), g))
    return t


@given(relabelled_tuples())
@example(zannier_tuple(5, 2))
@example(
    HurwitzTuple(
        Perm.from_cycles(4, "(1,4)(2,3)"),
        conjugate(standard_cycle(4), Perm.from_cycles(4, "(1,2)")),
        Perm.from_cycles(4, "(1,3)(2,4)"),
        (),
        2,
        2,
    )
)
def test_normalize_special_matches_conjugation_oracle(t):
    got = normalize_outcome(normalize_special, t)
    assert got == normalize_outcome(normalize_by_conjugation, t)
    if isinstance(got, HurwitzTuple):
        assert is_special(got)
        assert all(Perm(p.images) == p for p in got.gens())


def test_tuple_json_round_trip():
    z = zannier_tuple(6, 3)
    data = tuple_to_json_dict(z)
    assert data["n"] == 6
    assert data["d"] == 3
    assert tuple_from_json_dict(data) == z


def test_tuple_json_rejects_bad_input():
    z = zannier_tuple(4, 2)
    data = tuple_to_json_dict(z)
    for key in ("n", "sigma0", "taus"):
        broken = dict(data)
        del broken[key]
        with pytest.raises(ValueError):
            tuple_from_json_dict(broken)
    broken = dict(data)
    broken["sigma1"] = "(1,99)"
    with pytest.raises(ValueError):
        tuple_from_json_dict(broken)
    broken = dict(data)
    broken["n"] = "four"
    with pytest.raises(ValueError):
        tuple_from_json_dict(broken)
    for key, value in (("n", 0), ("n", -2), ("d", 0), ("d", -1)):
        with pytest.raises(ValueError, match="n >= 1 and d >= 1"):
            tuple_from_json_dict(dict(data, **{key: value}))
    wrongly_typed = (
        ("sigma0", 18),
        ("sigma1", [1, 2]),
        ("taus", "(4,6)"),
        ("taus", 3),
        ("taus", [None]),
        ("d", float("inf")),
        ("n", float("-inf")),
        ("n", 4.9),
        ("n", 4.0),
        ("n", "4"),
        ("d", True),
    )
    for key, value in wrongly_typed:
        with pytest.raises(ValueError):
            tuple_from_json_dict(dict(data, **{key: value}))
    with pytest.raises(ValueError, match=f"n <= {MAX_TUPLE_N}"):
        tuple_from_json_dict(dict(data, n=MAX_TUPLE_N + 1))


def validate_by_entry_queries(t: HurwitzTuple) -> ValidationReport:
    """validate asking permgroup for each fact of each entry on its own:
    cycle type, fixed points and branching each walk the cycles again."""
    checks = []
    N = t.points
    sizes = {p.size for p in t.gens()}
    size_ok = sizes == {N} and t.n >= 1 and t.d >= 1
    checks.append(
        CheckResult("SizeConsistent", size_ok, f"sizes {sorted(sizes)}, expected {{{N}}}")
    )
    if not size_ok:
        return ValidationReport(tuple(checks), 0, 0, 0, 0)
    k = len(t.taus)
    checks.append(CheckResult("TauCount", k <= t.d - 1, f"k = {k}, bound {t.d - 1}"))
    product = pg.chain(t.gens())
    checks.append(
        CheckResult(
            "ProductIdentity", product == pg.identity(N), f"product = {pg.format_cycles(product)}"
        )
    )
    checks.append(
        CheckResult("Transitive", pg.is_transitive(t.gens(), N), "orbit of the generators")
    )
    checks.append(
        CheckResult(
            "InfinityFullCycle",
            pg.is_full_cycle(t.sigmaInf),
            f"cycle type {pg.cycle_type(t.sigmaInf)}",
        )
    )
    zero_even = all(len(c) % 2 == 0 for c in pg.cycles(t.sigma0)) and not pg.fixed_points(
        t.sigma0
    )
    checks.append(
        CheckResult(
            "ZeroEvenCycles",
            zero_even,
            f"cycle type {pg.cycle_type(t.sigma0)}, fixed {sorted(pg.fixed_points(t.sigma0))}",
        )
    )
    one_even = all(len(c) % 2 == 0 for c in pg.cycles(t.sigma1))
    checks.append(
        CheckResult("OneEvenCycles", one_even, f"cycle type {pg.cycle_type(t.sigma1)}")
    )
    fix1 = pg.fixed_points(t.sigma1)
    checks.append(
        CheckResult(
            "FixedPointCount",
            len(fix1) == 2 * t.d,
            f"sigma1 fixes {len(fix1)} points, expected {2 * t.d}",
        )
    )
    over_zero = branching(t.sigma0)
    over_one = branching(t.sigma1)
    over_inf = branching(t.sigmaInf)
    over_taus = sum(branching(tau) for tau in t.taus)
    total = over_zero + over_one + over_inf + over_taus
    checks.append(
        CheckResult(
            "TotalBranching", total == 4 * t.n - 2, f"total {total}, expected {4 * t.n - 2}"
        )
    )
    return ValidationReport(tuple(checks), over_zero, over_one, over_inf, over_taus)


def assert_validate_matches_oracle(t: HurwitzTuple) -> ValidationReport:
    report = validate(t)
    assert report == validate_by_entry_queries(t), t
    assert all(type(c.passed) is bool for c in report.checks)
    return report


def test_validate_matches_entry_query_oracle():
    tuples = [t for n in range(2, 9) for _, t in enumerate_shapes(n)]
    tuples += [zannier_tuple(n, d) for n in range(2, 13) for d in range(2, n + 1)]
    z = zannier_tuple(4, 2)
    tuples += [
        replace(z, sigma1=pg.identity(6)),
        replace(z, taus=(pg.identity(10),)),
        replace(z, n=0),
        replace(z, d=0),
        replace(z, sigma1=Perm.from_cycles(8, "(1,7,2)(3,5)")),
        replace(z, sigma0=Perm.from_cycles(8, "(1,8)(2,7)(3,6)")),
        replace(z, sigma0=Perm.from_cycles(8, "(1,8,2,7)(3,6)(4,5)")),
        replace(z, sigmaInf=Perm.from_cycles(8, "(1,2,3,4)(5,6,7,8)")),
        replace(z, taus=z.taus * 3),
        HurwitzTuple(pg.identity(8), pg.identity(8), pg.identity(8), (), 4, 2),
    ]
    reports = [assert_validate_matches_oracle(t) for t in tuples]
    failed = {name for r in reports for name in r.failed()}
    assert failed == {
        "SizeConsistent", "TauCount", "ProductIdentity", "Transitive", "InfinityFullCycle",
        "ZeroEvenCycles", "OneEvenCycles", "FixedPointCount", "TotalBranching",
    }


@st.composite
def drawn_tuples(draw):
    """Tuples of random entries on 2n points or a few points off, or a
    staircase tuple with one entry replaced by a random one."""
    n = draw(st.integers(min_value=0, max_value=6))
    N = 2 * n

    def entry():
        size = draw(st.sampled_from((N, N, N, max(N - 2, 0), N + 2)))
        return Perm(draw(st.permutations(list(range(1, size + 1)))))

    if n >= 2 and draw(st.booleans()):
        base = zannier_tuple(n, draw(st.integers(min_value=2, max_value=n)))
        field = draw(st.sampled_from(("sigma0", "sigmaInf", "sigma1", "taus")))
        return replace(base, **{field: (entry(),) if field == "taus" else entry()})
    taus = tuple(entry() for _ in range(draw(st.integers(min_value=0, max_value=3))))
    d = draw(st.integers(min_value=0, max_value=4))
    return HurwitzTuple(entry(), standard_cycle(N) if N else entry(), entry(), taus, n, d)


@given(drawn_tuples())
@example(replace(zannier_tuple(3, 2), sigma0=Perm.from_cycles(6, "(1,6)(2,5)")))
def test_validate_matches_entry_query_oracle_on_drawn_tuples(t):
    assert_validate_matches_oracle(t)
