from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pellab import hurwitz
from pellab.permgroup import (
    BlockPartition,
    ClosureOverflow,
    CycleParseError,
    NeedFullCycle,
    NotADivisor,
    NotPreserved,
    Perm,
    SizeMismatch,
    branching,
    chain,
    closure,
    compose,
    congruence_partition,
    conjugate,
    cycle_type,
    cycles,
    fixed_points,
    format_cycles,
    identity,
    induced_block_action,
    inverse,
    is_dihedral_of_order,
    is_ell_imprimitive,
    is_full_cycle,
    is_transitive,
    parse_cycles,
    preserves_partition,
    rotate,
)


@st.composite
def perm_triples(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    pts = list(range(1, n + 1))
    return tuple(Perm(draw(st.permutations(pts))) for _ in range(3))


def census_tuple_n4_tau26():
    """The n = 4 all-transposition tuple with tau = (2,6)."""
    n = 4
    sigma0 = Perm.from_cycles(8, "(1,8)(2,7)(3,6)(4,5)")
    sigma1 = Perm.from_cycles(8, "(1,7)(3,5)")
    tau = Perm.from_cycles(8, "(2,6)")
    sigmaInf = hurwitz.standard_cycle(8)
    return [sigma0, sigmaInf, sigma1, tau]


def all_equal_partitions(N, ell):
    size = N // ell
    out = []

    def rec(unassigned, blocks):
        if not unassigned:
            out.append(tuple(blocks))
            return
        first = unassigned[0]
        rest = unassigned[1:]
        for mates in combinations(rest, size - 1):
            blk = frozenset((first,) + mates)
            blocks.append(blk)
            rec([x for x in rest if x not in blk], blocks)
            blocks.pop()

    rec(list(range(1, N + 1)), [])
    return out


def preserved_by_all(gens, blocks):
    label = {}
    for idx, blk in enumerate(blocks):
        for x in blk:
            label[x] = idx
    for g in gens:
        for blk in blocks:
            it = iter(blk)
            want = label[g(next(it))]
            if any(label[g(x)] != want for x in it):
                return False
    return True


def test_perm_construction_validates():
    with pytest.raises(ValueError):
        Perm([1, 1])
    with pytest.raises(ValueError):
        Perm([0, 1])
    with pytest.raises(ValueError):
        Perm.from_cycles(4, [(1, 2), (2, 3)])
    with pytest.raises(ValueError):
        Perm.from_cycles(4, [(1, 5)])
    assert Perm([2, 1]).size == 2


def test_compose_right_acts_first():
    a = Perm.from_cycles(3, "(1,2)")
    b = Perm.from_cycles(3, "(2,3)")
    assert compose(a, b)(3) == a(b(3))
    assert compose(a, b) == Perm.from_cycles(3, "(1,2,3)")


def test_chain_applies_first_entry_first():
    a = Perm.from_cycles(3, "(1,2)")
    b = Perm.from_cycles(3, "(2,3)")
    assert chain([a, b]) == compose(b, a)
    assert chain([a, b])(1) == b(a(1))
    with pytest.raises(ValueError):
        chain([])


def test_identity_laws():
    a = Perm.from_cycles(5, "(1,4,2)")
    assert compose(identity(5), a) == a
    assert compose(a, identity(5)) == a
    assert conjugate(a, identity(5)) == a


def test_conjugate_along_descending_cycle():
    sInf = hurwitz.standard_cycle(12)
    g = sInf**6
    assert conjugate(Perm.from_cycles(12, "(1,11)"), g) == Perm.from_cycles(12, "(5,7)")
    assert conjugate(Perm.from_cycles(12, "(2,10)"), g) == Perm.from_cycles(12, "(4,8)")


def test_size_mismatch():
    with pytest.raises(SizeMismatch):
        compose(identity(3), identity(4))
    with pytest.raises(SizeMismatch):
        conjugate(identity(3), identity(4))


def test_cycle_type_includes_fixed_points():
    assert cycle_type(Perm.from_cycles(5, "(1,2)(3,4,5)")) == (2, 3)
    assert cycle_type(Perm.from_cycles(8, "(1,7)(2,6)")) == (1, 1, 1, 1, 2, 2)
    assert cycle_type(hurwitz.standard_cycle(12)) == (12,)
    assert fixed_points(Perm.from_cycles(8, "(1,7)(2,6)")) == frozenset({3, 4, 5, 8})


def test_fixed_points_of_zannier_sigma1():
    z = hurwitz.zannier_tuple(4, 2)
    assert fixed_points(z.sigma1) == frozenset({3, 4, 5, 8})


def test_branching_counts():
    assert branching(hurwitz.standard_cycle(8)) == 7
    assert branching(Perm.from_cycles(8, "(1,7)(2,6)")) == 2
    assert branching(identity(4)) == 0


def test_is_full_cycle():
    assert is_full_cycle(hurwitz.standard_cycle(6))
    assert not is_full_cycle(Perm.from_cycles(6, "(1,2,3)(4,5,6)"))


def test_is_transitive():
    assert is_transitive([hurwitz.standard_cycle(6)], 6)
    assert not is_transitive([Perm.from_cycles(4, "(1,2)")], 4)
    z = hurwitz.zannier_tuple(5, 2)
    assert is_transitive(z.gens(), 10)


def union_find_transitive(perms, n):
    """Transitivity by union-find over the generator edges."""
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in perms:
        for i in range(1, n + 1):
            a, b = find(i), find(p(i))
            if a != b:
                parent[a] = b
    return len({find(i) for i in range(1, n + 1)}) == 1


@st.composite
def sparse_generators(draw):
    """Up to three permutations of n points, each moving a random subset,
    so that both transitive and intransitive sets come up."""
    n = draw(st.integers(min_value=1, max_value=9))
    gens = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        moved = draw(st.lists(st.integers(min_value=1, max_value=n), unique=True))
        images = list(range(1, n + 1))
        for x, y in zip(moved, draw(st.permutations(moved))):
            images[x - 1] = y
        gens.append(Perm(images))
    return gens, n


@given(sparse_generators())
@example(([Perm.from_cycles(6, "(1,2,3)(4,5)"), Perm.from_cycles(6, "(3,4)")], 6))
@example(([Perm.from_cycles(6, "(1,2,3)(4,5)"), Perm.from_cycles(6, "(3,4)(5,6)")], 6))
@example(([], 1))
def test_is_transitive_matches_union_find(gens_n):
    gens, n = gens_n
    assert is_transitive(gens, n) == union_find_transitive(gens, n)


def test_congruence_partition_examples():
    part = congruence_partition(8, 4)
    assert part.as_sets() == [{1, 5}, {2, 6}, {3, 7}, {4, 8}]
    assert congruence_partition(6, 6).as_sets() == [{1}, {2}, {3}, {4}, {5}, {6}]
    assert congruence_partition(6, 1).as_sets() == [{1, 2, 3, 4, 5, 6}]
    with pytest.raises(NotADivisor):
        congruence_partition(8, 3)


def test_block_partition_validates():
    with pytest.raises(ValueError):
        BlockPartition(4, 2, (frozenset({1, 2}), frozenset({2, 3})))
    with pytest.raises(NotADivisor):
        BlockPartition(4, 3, (frozenset({1}), frozenset({2}), frozenset({3, 4})))


def test_preserves_partition():
    part = congruence_partition(8, 4)
    sInf = hurwitz.standard_cycle(8)
    ind = preserves_partition(sInf, part)
    assert ind == Perm([4, 1, 2, 3])
    assert preserves_partition(Perm.from_cycles(8, "(3,5)"), part) is None
    assert preserves_partition(identity(8), part) == identity(4)


def test_is_ell_imprimitive_on_census_tuple():
    gens = census_tuple_n4_tau26()
    part = is_ell_imprimitive(gens, 4)
    assert part == congruence_partition(8, 4)
    acts = induced_block_action(gens, part)
    assert acts[0] == Perm.from_cycles(4, "(1,4)(2,3)")
    assert acts[1] == Perm.from_cycles(4, "(1,4,3,2)")
    assert acts[2] == Perm.from_cycles(4, "(1,3)")
    assert acts[3] == identity(4)
    assert is_dihedral_of_order(acts, 8, r=acts[1], s=acts[2])


def test_is_ell_imprimitive_edges():
    gens = census_tuple_n4_tau26()
    assert is_ell_imprimitive(gens, 1) is not None
    assert is_ell_imprimitive(gens, 8) is not None
    z = hurwitz.zannier_tuple(6, 2)
    assert is_ell_imprimitive(z.gens(), 4) is None
    with pytest.raises(NeedFullCycle):
        is_ell_imprimitive([Perm.from_cycles(4, "(1,2)")], 2)
    with pytest.raises(NotADivisor):
        is_ell_imprimitive(gens, 3)


def test_induced_block_action_rejects_nonpreserving():
    part = congruence_partition(8, 4)
    with pytest.raises(NotPreserved):
        induced_block_action([Perm.from_cycles(8, "(3,5)")], part)


def test_brute_partition_scan_agrees():
    cases = [
        census_tuple_n4_tau26(),
        hurwitz.zannier_tuple(4, 2).gens(),
        hurwitz.zannier_tuple(5, 2).gens(),
    ]
    for gens in cases:
        N = gens[0].size
        for ell in range(1, N + 1):
            if N % ell != 0:
                continue
            found = [
                blocks
                for blocks in all_equal_partitions(N, ell)
                if preserved_by_all(gens, blocks)
            ]
            part = is_ell_imprimitive(gens, ell)
            assert (part is not None) == bool(found)
            if part is not None:
                assert len(found) == 1
                assert set(frozenset(b) for b in part.blocks) == set(found[0])


def test_closure_and_dihedral():
    r = Perm.from_cycles(4, "(1,4,3,2)")
    s = Perm.from_cycles(4, "(1,3)")
    group = closure([r, s], max_size=100)
    assert len(group) == 8
    assert is_dihedral_of_order([r, s], 8)
    assert not is_dihedral_of_order([r], 8)
    assert not is_dihedral_of_order([identity(4)], 8)
    with pytest.raises(ClosureOverflow):
        closure([Perm.from_cycles(6, "(1,2)"), Perm.from_cycles(6, "(1,2,3,4,5,6)")], max_size=10)


def test_cycle_text_round_trip():
    p = Perm.from_cycles(8, "(1,8)(2,7)(3,6)(4,5)")
    assert format_cycles(p) == "(1,8)(2,7)(3,6)(4,5)"
    assert parse_cycles("(1,8)(2,7)(3,6)(4,5)", 8) == p
    assert format_cycles(identity(5)) == "()"
    assert parse_cycles("()", 5) == identity(5)


def test_parse_cycles_errors_name_position():
    with pytest.raises(CycleParseError) as err:
        parse_cycles("(1,2", 4)
    assert err.value.pos is not None
    with pytest.raises(CycleParseError):
        parse_cycles("(1)", 4)
    with pytest.raises(CycleParseError):
        parse_cycles("(1,9)", 4)
    with pytest.raises(CycleParseError):
        parse_cycles("(1,2)(2,3)", 4)
    with pytest.raises(CycleParseError):
        parse_cycles(12, 4)


def test_rotate_examples():
    a = Perm.from_cycles(12, "(1,11)")
    assert rotate(a, 6) == Perm.from_cycles(12, "(5,7)")
    assert rotate(a, 1) == Perm.from_cycles(12, "(2,12)")
    assert rotate(a, 0) == a
    assert rotate(a, 12) == a
    assert rotate(a, -1) == rotate(a, 11)


@st.composite
def perm_and_shift(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    a = Perm(draw(st.permutations(list(range(1, n + 1)))))
    return a, draw(st.integers(min_value=0, max_value=n - 1))


@given(perm_and_shift())
def test_rotate_is_conjugation_by_descending_cycle_power(a_s):
    a, s = a_s
    assert rotate(a, s) == conjugate(a, hurwitz.standard_cycle(a.size) ** s)


@given(perm_triples(), st.integers(min_value=-20, max_value=20))
def test_unchecked_results_are_bijections(abc, s):
    a, b, g = abc
    for p in (compose(a, b), inverse(a), conjugate(a, g), rotate(a, s), identity(a.size)):
        assert Perm(p.images) == p
        assert isinstance(p.images, tuple)


@given(perm_triples())
def test_compose_associates(abc):
    a, b, c = abc
    assert compose(compose(a, b), c) == compose(a, compose(b, c))


@given(perm_triples())
def test_inverse_laws(abc):
    a, b, _ = abc
    assert compose(a, inverse(a)) == identity(a.size)
    assert inverse(compose(a, b)) == compose(inverse(b), inverse(a))


@given(perm_triples())
def test_conjugate_preserves_cycle_type(abc):
    a, g, _ = abc
    assert cycle_type(conjugate(a, g)) == cycle_type(a)


@given(perm_triples())
def test_format_parse_round_trip(abc):
    a, _, _ = abc
    assert parse_cycles(format_cycles(a), a.size) == a


@given(perm_triples())
def test_cycles_partition_the_moved_points(abc):
    a, _, _ = abc
    moved = set()
    for c in cycles(a):
        assert len(c) >= 2
        assert not moved & set(c)
        moved |= set(c)
    assert moved == {i for i in range(1, a.size + 1) if a(i) != i}
