from __future__ import annotations

import json
import random
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pellab import hurwitz
from pellab import permgroup as pg
from pellab.hurwitz import (
    MAX_TUPLE_N,
    MAX_TUPLE_POINTS,
    DegreeOrder,
    HurwitzTuple,
    admissible_exponents,
    is_special,
    primitivity_profile,
    standard_cycle,
    tuple_from_json_dict,
    tuple_to_json_dict,
    validate,
    zannier_tuple,
)
from pellab.permgroup import Perm

import oracles
from oracles import (
    NotSpecialForm,
    branching,
    chain,
    common_fixed,
    compose,
    congruence_partition,
    conjugate,
    enumerate_shapes,
    format_cycles_loosely,
    inverse,
    normalize_special,
    power,
    power_test,
    replace,
    rotate,
)


def full_profile(t: HurwitzTuple) -> set[int]:
    """The profile over every admissible exponent, as the profile command asks it."""
    return primitivity_profile(t, admissible_exponents(t.n, t.d))


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


def failed(report: dict) -> list[str]:
    """The names of a validate payload's failed checks, in order."""
    return [c["name"] for c in report["checks"] if not c["passed"]]


def test_validate_zannier_budgets():
    report = validate(zannier_tuple(5, 2))
    assert report["ok"]
    assert failed(report) == []
    budgets = report["branching"]
    assert budgets == {"overZero": 5, "overOne": 3, "overInfinity": 9, "overTaus": 1}


def test_validate_family_budgets():
    for d in (2, 3, 4):
        for n in range(d, 9):
            report = validate(zannier_tuple(n, d))
            assert report["ok"]
            assert report["branching"] == {
                "overZero": n,
                "overOne": n - d,
                "overInfinity": 2 * n - 1,
                "overTaus": d - 1,
            }


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
    assert not report["ok"]
    assert failed(report) == ["ProductIdentity", "FixedPointCount", "TotalBranching"]


def test_validate_size_mismatch_short_circuits():
    z = zannier_tuple(4, 2)
    broken = HurwitzTuple(pg.identity(6), z.sigmaInf, z.sigma1, z.taus, 4, 2)
    report = validate(broken)
    assert not report["ok"]
    assert failed(report)[0] == "SizeConsistent"


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
    assert full_profile(disjoint_census_tuple(6, 1)) == set()
    assert full_profile(disjoint_census_tuple(6, 2)) == {2}
    assert full_profile(disjoint_census_tuple(6, 3)) == {3}
    assert full_profile(zannier_tuple(6, 2)) == set()
    assert full_profile(zannier_tuple(8, 2)) == set()


def test_primitivity_profile_folds_each_tau():
    # The docstring's cube with tau = (3,8) for (3,9): still special form,
    # its product fails, and tau(3) - 3 = 5 leaves no residue fixed, so no
    # m passes.  Without the tau term the other entries still give {3}.
    N = 12
    sigma0 = Perm.from_cycles(N, [(i, N + 1 - i) for i in range(1, 7)])
    sigma1 = Perm.from_cycles(N, [(i, N - i) for i in (1, 2, 4, 5)])
    t = HurwitzTuple(sigma0, standard_cycle(N), sigma1, (Perm.from_cycles(N, "(3,8)"),), n=6, d=2)
    assert is_special(t)
    assert failed(validate(t)) == ["ProductIdentity"]
    assert full_profile(t) == set()
    assert full_profile(replace(t, taus=())) == {3}


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
    g = power(standard_cycle(10), 3)
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
    assert validate(fixed)["ok"]
    assert full_profile(fixed) == full_profile(z)


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
    return map_entries(rebased, lambda p: rotate(p, N - min(fixed)))


def map_entries(t: HurwitzTuple, f) -> HurwitzTuple:
    return replace(
        t,
        sigma0=f(t.sigma0),
        sigmaInf=f(t.sigmaInf),
        sigma1=f(t.sigma1),
        taus=tuple(f(tau) for tau in t.taus),
    )


def outcome(f, t: HurwitzTuple):
    """f(t), or the error's type and message."""
    try:
        return f(t)
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
    got = outcome(normalize_special, t)
    assert got == outcome(normalize_by_conjugation, t)
    if isinstance(got, HurwitzTuple):
        assert is_special(got)
        assert all(Perm(p.images) == p for p in got.gens())


@st.composite
def profile_tuples(draw):
    """A census-shape tuple for n <= 12, a staircase tuple for n <= 40, or
    either one with every entry conjugated by a drawn relabelling."""
    if draw(st.booleans()):
        t = draw(st.sampled_from(shape_tuples(draw(st.integers(min_value=2, max_value=12)))))
    else:
        n = draw(st.integers(min_value=2, max_value=40))
        t = zannier_tuple(n, draw(st.integers(min_value=2, max_value=n)))
    if draw(st.booleans()):
        g = Perm(draw(st.permutations(range(1, t.points + 1))))
        t = map_entries(t, lambda p: conjugate(p, g))
    return t


@given(profile_tuples())
@example(disjoint_census_tuple(12, 4))
def test_primitivity_profile_matches_power_test(t):
    # power_test needs the special form; the profile reads any tuple.
    special = normalize_special(t)
    want = {m for m in admissible_exponents(t.n, t.d) if power_test(special, m)}
    assert full_profile(t) == want


def test_label_profile_matches_normalization_oracle():
    """On census-shape tuples n <= 12 and staircase tuples n < 60: as made,
    rotated so that each common fixed point in turn sits at 2n (which one
    gets label 2n does not change the answer), and under a relabelling."""
    rng = random.Random(36)
    tuples = [t for n in range(2, 13) for t in shape_tuples(n)]
    tuples += [zannier_tuple(n, d) for n in range(2, 60) for d in range(2, n + 1, 1 + n // 8)]
    rotations = 0
    for t in tuples:
        N = t.points
        want = oracles.primitivity_profile(t)
        assert full_profile(t) == want
        for f in common_fixed(t) - {N}:
            rotated = map_entries(t, lambda p: rotate(p, N - f))
            assert is_special(rotated)
            assert full_profile(rotated) == oracles.primitivity_profile(rotated) == want
            rotations += 1
        g = Perm(rng.sample(range(1, N + 1), N))
        moved = map_entries(t, lambda p: conjugate(p, g))
        assert full_profile(moved) == oracles.primitivity_profile(normalize_special(moved)) == want
    assert rotations >= len(tuples)
    assert any(oracles.primitivity_profile(t) for t in tuples)


@given(relabelled_tuples())
@example(replace(zannier_tuple(6, 2), taus=(Perm.from_cycles(12, "(11,12)"),)))
def test_label_profile_matches_normalization_oracle_on_drawn_relabellings(t):
    want = outcome(lambda u: oracles.primitivity_profile(normalize_special(u)), t)
    assert outcome(full_profile, t) == want


@st.composite
def closed_tuples(draw):
    """Tuples of the shape validate asks for, n <= 6: sigma0 a fixed-point-free
    involution, sigma1 an involution fixing 2d points, taus of total
    branching d - 1 on drawn points, and sigmaInf the entry that closes the
    product, which passes when it is one 2n-cycle."""
    n = draw(st.integers(min_value=2, max_value=6))
    d = draw(st.integers(min_value=2, max_value=n))
    N = 2 * n

    def involution(moved: int) -> Perm:
        points = draw(st.permutations(range(1, N + 1)))[:moved]
        return Perm.from_cycles(N, list(zip(points[::2], points[1::2])))

    spend = d - 1
    taus = []
    while spend:
        length = draw(st.integers(min_value=2, max_value=spend + 1))
        taus.append(Perm.from_cycles(N, [draw(st.permutations(range(1, N + 1)))[:length]]))
        spend -= length - 1
    sigma0, sigma1 = involution(N), involution(N - 2 * d)
    # Application order: sigmaInf = (taus after sigma1)^-1 after sigma0^-1.
    sigma_inf = compose(inverse(chain([sigma1, *taus])), inverse(sigma0))
    return HurwitzTuple(sigma0, sigma_inf, sigma1, tuple(taus), n, d)


@given(closed_tuples())
@example(zannier_tuple(5, 3))
def test_validated_tuples_have_a_common_fixed_point(t):
    if validate(t)["ok"]:
        assert common_fixed(t)
        assert full_profile(t) == oracles.primitivity_profile(normalize_special(t))


def test_primitivity_profile_rejects_bad_inputs():
    z = zannier_tuple(4, 2)
    short = pg.identity(6)
    for n in (4, 5):  # admissible m: [2] at n = 4, none at n = 5
        # A tau that moves 2n leaves the special form; such a tuple gets the
        # profile of its normalization.
        moves_last = Perm.from_cycles(2 * n, [(2 * n - 1, 2 * n)])
        shifted = replace(zannier_tuple(n, 2), taus=(moves_last,))
        assert not is_special(shifted)
        assert full_profile(shifted) == oracles.primitivity_profile(normalize_special(shifted))
    with pytest.raises(ValueError, match="^sigmaInf must be a full cycle$"):
        full_profile(replace(z, sigmaInf=z.sigma0))
    no_common = replace(z, sigma1=Perm.from_cycles(8, "(1,3)(2,4)(5,7)(6,8)"))
    with pytest.raises(ValueError, match="^no index is fixed by sigma1 and every tau$"):
        full_profile(no_common)
    for sigma0, sigma1, tau in (
        (short, z.sigma1, z.taus[0]),
        (pg.identity(10), z.sigma1, z.taus[0]),
        (z.sigma0, Perm.from_cycles(10, "(1,7)(2,6)(9,10)"), z.taus[0]),
        (z.sigma0, z.sigma1, Perm.from_cycles(10, "(3,5)")),
    ):
        with pytest.raises(pg.SizeMismatch):
            full_profile(HurwitzTuple(sigma0, z.sigmaInf, sigma1, (tau,), 4, 2))


def test_primitivity_profile_checks_once(monkeypatch):
    """No admissible list of its own, however many exponents are admissible
    (four at n = 12; the caller passes them), and no special-form check:
    the labels read any tuple."""
    calls = Counter()

    def counted(name):
        original = getattr(hurwitz, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(hurwitz, name, wrapper)

    counted("is_special")
    counted("admissible_exponents")
    t = disjoint_census_tuple(12, 4)
    assert admissible_exponents(12, 2) == [2, 3, 4, 6]
    assert primitivity_profile(t, [2, 3, 4, 6]) == {2, 4}
    assert calls == {}


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
    for key, value in (("n", 0), ("n", -2), ("d", 0), ("d", -1), ("d", 5)):
        with pytest.raises(ValueError, match="n >= d >= 1"):
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


def test_tuple_points_bound():
    # zannier_tuple(n, n) has n + 2 entries on 2n points: 2,004,000 at n = 1000.
    with pytest.raises(ValueError) as err:
        zannier_tuple(1000, 1000)
    assert str(err.value) == f"need 2n * (d + 2) <= {MAX_TUPLE_POINTS}, got 2004000"
    t = zannier_tuple(999, 999)
    assert len(t.gens()) * t.points == 1_999_998
    # 48 taus on 40,000 points: 51 entries, 2,040,000 points, refused before
    # any entry is read, but after the n checks and the check that taus is a list.
    data = {"n": 20_000, "d": 2, "sigma0": "()", "sigmaInf": "()", "sigma1": "()", "taus": ["()"] * 48}
    want = f"tuple JSON needs 2n * entries <= {MAX_TUPLE_POINTS}, got 2040000"
    for broken in (data, dict(data, sigma0="(1,x)")):
        with pytest.raises(ValueError) as err:
            tuple_from_json_dict(broken)
        assert str(err.value) == want
    with pytest.raises(ValueError, match=f"n <= {MAX_TUPLE_N}"):
        tuple_from_json_dict(dict(data, n=MAX_TUPLE_N + 1))
    with pytest.raises(ValueError, match="taus must be a list"):
        tuple_from_json_dict(dict(data, taus="()" * 48))


def test_tuple_json_taus_not_a_list_is_refused_before_any_entry_is_read(monkeypatch):
    data = {"n": MAX_TUPLE_N, "d": 2, "sigma0": "()", "sigmaInf": "()", "sigma1": "()", "taus": "(1,2)"}
    calls = []
    parse_cycles = pg.parse_cycles
    monkeypatch.setattr(pg, "parse_cycles", lambda *args: calls.append(args) or parse_cycles(*args))
    with pytest.raises(ValueError) as err:
        tuple_from_json_dict(data)
    assert str(err.value) == "tuple JSON field taus must be a list"
    assert calls == []


def validate_by_entry_queries(t: HurwitzTuple) -> dict:
    """validate asking permgroup for each fact of each entry on its own:
    cycle type, fixed points and branching each walk the cycles again."""

    def check(name, passed, detail):
        return {"name": name, "passed": passed, "detail": detail}

    def report(checks, over_zero, over_one, over_inf, over_taus):
        return {
            "ok": all(c["passed"] for c in checks),
            "checks": checks,
            "branching": {
                "overZero": over_zero,
                "overOne": over_one,
                "overInfinity": over_inf,
                "overTaus": over_taus,
            },
        }

    checks = []
    N = t.points
    sizes = {p.size for p in t.gens()}
    size_ok = sizes == {N} and t.n >= 1 and t.d >= 1
    checks.append(
        check("SizeConsistent", size_ok, f"sizes {sorted(sizes)}, expected {{{N}}}")
    )
    if not size_ok:
        return report(checks, 0, 0, 0, 0)
    k = len(t.taus)
    checks.append(check("TauCount", k <= t.d - 1, f"k = {k}, bound {t.d - 1}"))
    product = chain(t.gens())
    checks.append(
        check(
            "ProductIdentity", product == pg.identity(N), f"product = {pg.format_cycles(product)}"
        )
    )
    checks.append(
        check("Transitive", pg.is_transitive(t.gens(), N), "orbit of the generators")
    )
    checks.append(
        check(
            "InfinityFullCycle",
            pg.is_full_cycle(t.sigmaInf),
            f"cycle type {pg.cycle_type(t.sigmaInf)}",
        )
    )
    zero_even = all(len(c) % 2 == 0 for c in pg.cycles(t.sigma0)) and not pg.fixed_points(
        t.sigma0
    )
    checks.append(
        check(
            "ZeroEvenCycles",
            zero_even,
            f"cycle type {pg.cycle_type(t.sigma0)}, fixed {sorted(pg.fixed_points(t.sigma0))}",
        )
    )
    one_even = all(len(c) % 2 == 0 for c in pg.cycles(t.sigma1))
    checks.append(
        check("OneEvenCycles", one_even, f"cycle type {pg.cycle_type(t.sigma1)}")
    )
    fix1 = pg.fixed_points(t.sigma1)
    checks.append(
        check(
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
        check(
            "TotalBranching", total == 4 * t.n - 2, f"total {total}, expected {4 * t.n - 2}"
        )
    )
    return report(checks, over_zero, over_one, over_inf, over_taus)


def assert_validate_matches_oracle(t: HurwitzTuple) -> dict:
    report = validate(t)
    assert report == validate_by_entry_queries(t), t
    assert all(type(c["passed"]) is bool for c in report["checks"])
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
    names = {name for r in reports for name in failed(r)}
    assert names == {
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


@st.composite
def json_tuples(draw):
    """Tuples that tuple JSON can carry, n >= d >= 1 with every entry on 2n
    points: random entries, or a staircase tuple with at most one entry
    replaced by a random one."""
    n = draw(st.integers(min_value=1, max_value=6))
    d = draw(st.integers(min_value=1, max_value=n))
    N = 2 * n

    def entry():
        return Perm(draw(st.permutations(list(range(1, N + 1)))))

    if d >= 2 and draw(st.booleans()):
        t = zannier_tuple(n, d)
        field = draw(st.sampled_from(("sigma0", "sigmaInf", "sigma1", "taus", None)))
        if field is None:
            return t
        return replace(t, **{field: (entry(),) if field == "taus" else entry()})
    taus = tuple(entry() for _ in range(draw(st.integers(min_value=0, max_value=3))))
    return HurwitzTuple(entry(), entry(), entry(), taus, n, d)


@given(json_tuples(), st.randoms(use_true_random=False))
def test_validate_after_a_loose_json_round_trip_matches_entry_query_oracle(t, rng):
    # The entries come back from text that is not format_cycles's: cycles
    # rotated and shuffled, "()" pieces and whitespace.  Their cycle types are
    # counted by the parser, the oracle's are walked.
    data = {"n": t.n, "d": t.d, "taus": [format_cycles_loosely(tau, rng) for tau in t.taus]}
    for name in ("sigma0", "sigmaInf", "sigma1"):
        data[name] = format_cycles_loosely(getattr(t, name), rng)
    read = tuple_from_json_dict(json.loads(json.dumps(data)))
    assert read == t
    assert validate(read) == validate_by_entry_queries(t)


def test_validate_and_profile_walk_no_cycles(monkeypatch):
    """Tuple JSON and zannier_tuple build each entry with its cycle type,
    so validate and profile (the full-cycle check, the labels, then the
    residue gcd) walk no entry's cycles, on a special tuple and on a
    relabelled one."""
    z = zannier_tuple(12, 3)
    g = Perm(random.Random(5).sample(range(1, 25), 24))
    moved = HurwitzTuple(
        *(conjugate(p, g) for p in z[:3]), tuple(conjugate(tau, g) for tau in z.taus), 12, 3
    )
    texts = [tuple_to_json_dict(t) for t in (z, moved)]
    want = full_profile(z)
    walks = []
    cycles = pg.cycles
    monkeypatch.setattr(pg, "cycles", lambda p: walks.append(p) or cycles(p))
    read = [tuple_from_json_dict(data) for data in texts]
    assert not is_special(read[1])
    for t in (zannier_tuple(12, 3), *read):
        assert validate(t)["ok"]
        assert full_profile(t) == want
    assert walks == []
