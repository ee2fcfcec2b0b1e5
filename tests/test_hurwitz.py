from __future__ import annotations

import pytest

from pellab import permgroup as pg
from pellab.hurwitz import (
    DegreeOrder,
    HurwitzTuple,
    NotSpecialForm,
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
        pg.conjugate(z.sigma0, g),
        pg.conjugate(z.sigmaInf, g),
        pg.conjugate(z.sigma1, g),
        tuple(pg.conjugate(t, g) for t in z.taus),
        5,
        2,
    )
    assert not is_special(rotated)
    assert normalize_special(rotated) == z


def test_normalize_special_handles_arbitrary_relabeling():
    z = zannier_tuple(6, 2)
    g = Perm.from_cycles(12, "(1,5,9)(2,12)(3,7)(4,10,8,6)")
    scrambled = HurwitzTuple(
        pg.conjugate(z.sigma0, g),
        pg.conjugate(z.sigmaInf, g),
        pg.conjugate(z.sigma1, g),
        tuple(pg.conjugate(t, g) for t in z.taus),
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

