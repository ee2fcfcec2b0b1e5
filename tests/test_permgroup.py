from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pellab import hurwitz, permgroup
from pellab.permgroup import (
    BlockPartition,
    CycleParseError,
    NeedFullCycle,
    NotADivisor,
    Perm,
    SizeMismatch,
    _cycle_type,
    cycle_type,
    cycles,
    fixed_points,
    format_cycles,
    identity,
    is_ell_imprimitive,
    is_full_cycle,
    is_transitive,
    parse_cycles,
    preserves_partition,
)

from oracles import (
    ClosureOverflow,
    NotPreserved,
    as_sets,
    branching,
    chain,
    closure,
    compose,
    congruence_partition,
    conjugate,
    enumerate_shapes,
    format_cycles_loosely,
    induced_block_action,
    inverse,
    is_dihedral_of_order,
    power,
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
    g = power(sInf, 6)
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
    assert as_sets(part) == [{1, 5}, {2, 6}, {3, 7}, {4, 8}]
    assert as_sets(congruence_partition(6, 6)) == [{1}, {2}, {3}, {4}, {5}, {6}]
    assert as_sets(congruence_partition(6, 1)) == [{1, 2, 3, 4, 5, 6}]
    with pytest.raises(NotADivisor):
        congruence_partition(8, 3)


def test_block_partition_validates():
    with pytest.raises(ValueError):
        BlockPartition(4, 2, (frozenset({1, 2}), frozenset({2, 3})))
    with pytest.raises(NotADivisor):
        BlockPartition(4, 3, (frozenset({1}), frozenset({2}), frozenset({3, 4})))


def test_perm_and_block_partition_are_value_types():
    p = Perm((2, 3, 1, 4))
    assert p == parse_cycles("(1,2,3)", 4) and hash(p) == hash(parse_cycles("(1,2,3)", 4))
    assert p != (2, 3, 1, 4) and p != "(1,2,3)"
    part = congruence_partition(4, 2)
    same = BlockPartition(4, 2, tuple(frozenset(b) for b in as_sets(part)))
    assert part == same and hash(part) == hash(same)
    assert part == (4, 2, part.blocks) and p == ((2, 3, 1, 4), (1, 3))
    for value, field in ((p, "images"), (part, "blocks"), (part, "N")):
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))


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
    assert rotate(a, s) == conjugate(a, power(hurwitz.standard_cycle(a.size), s))


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


def rotate_by_arithmetic(a, s):
    """The rotation point by point: x maps to a(x - s) + s, mod N in 1..N."""
    N = a.size
    imgs = a.images
    return Perm([(imgs[(x - s) % N] + s - 1) % N + 1 for x in range(N)])


def cycles_by_calls(p):
    """The nontrivial cycles walked through Perm.__call__."""
    out = []
    seen = [False] * (p.size + 1)
    for start in range(1, p.size + 1):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        x = p(start)
        while x != start:
            cyc.append(x)
            seen[x] = True
            x = p(x)
        if len(cyc) > 1:
            out.append(tuple(cyc))
    return out


@st.composite
def perm_and_any_shift(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    a = Perm(draw(st.permutations(list(range(1, n + 1)))))
    return a, draw(st.integers(min_value=-3 * n, max_value=3 * n))


@given(perm_and_any_shift())
def test_rotate_matches_pointwise_oracle(a_s):
    a, s = a_s
    got = rotate(a, s)
    assert got == rotate_by_arithmetic(a, s)
    assert Perm(got.images) == got


@given(perm_and_any_shift())
def test_cycles_and_fixed_points_match_call_oracle(a_s):
    a, _ = a_s
    assert cycles(a) == cycles_by_calls(a)
    assert fixed_points(a) == frozenset(i for i in range(1, a.size + 1) if a(i) == i)


def test_empty_perm_kernels():
    empty = Perm(())
    assert rotate(empty, 5) == rotate_by_arithmetic(empty, 5) == empty
    assert cycles(empty) == cycles_by_calls(empty) == []
    assert fixed_points(empty) == frozenset()


def parse_cycles_by_scanning(text, n):
    """Cycle text read one character at a time, with str.isspace and
    str.isdigit: the parser before the grammar checks, kept as the oracle for
    its results, messages and positions."""
    if not isinstance(text, str):
        raise CycleParseError(f"cycle text must be a string, not {type(text).__name__}", 0)
    s = text
    pos = 0
    end = len(s)
    cycles_out = []
    saw_any = False
    while pos < end:
        if s[pos].isspace():
            pos += 1
            continue
        if s[pos] != "(":
            raise CycleParseError("expected '('", pos)
        pos += 1
        cyc = []
        while True:
            while pos < end and s[pos].isspace():
                pos += 1
            if pos < end and s[pos] == ")" and not cyc:
                break
            start = pos
            while pos < end and s[pos].isdigit():
                pos += 1
            if pos == start:
                raise CycleParseError("expected a point number", pos)
            # Significant digits only: leading zeros of any script drop out,
            # and a point with more digits than n is out of range unread.
            size = pos - start
            for c in s[start:pos]:
                if int(c):
                    break
                size -= 1
            if size > len(str(n)):
                raise CycleParseError(f"point of {size} digits out of range 1..{n}", start)
            x = int(s[pos - size : pos]) if size else 0
            if not 1 <= x <= n:
                raise CycleParseError(f"point {x} out of range 1..{n}", start)
            cyc.append(x)
            while pos < end and s[pos].isspace():
                pos += 1
            if pos < end and s[pos] == ",":
                pos += 1
                continue
            break
        if pos >= end or s[pos] != ")":
            raise CycleParseError("expected ')'", pos if pos < end else end)
        pos += 1
        if len(cyc) == 1:
            raise CycleParseError("cycles need at least two points", pos - 1)
        if cyc:
            cycles_out.append(cyc)
        saw_any = True
    if not saw_any:
        raise CycleParseError("empty permutation text", 0)
    try:
        return Perm.from_cycles(n, cycles_out)
    except ValueError as exc:
        raise CycleParseError(str(exc), 0) from None


def parse_outcome(parse, text, n):
    """The images read, or the error's type, message and position."""
    try:
        return parse(text, n).images
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "pos", None)


# Cycle-text characters, whitespace beyond ASCII, an Arabic-Indic digit
# (decimal, so int() reads it) and two characters that are neither.
PARSE_ALPHABET = "(),0123456789 \t\n\xa0٣x_"
FAULTY_TAIL = "".join(f"({2 * i + 1},{2 * i + 2})" for i in range(2000))


@st.composite
def cycle_texts(draw):
    """A random string over PARSE_ALPHABET, or the text of a permutation on
    at most 40 points with one character inserted or deleted."""
    if draw(st.booleans()):
        return draw(st.text(PARSE_ALPHABET, max_size=40)), draw(st.integers(0, 12))
    N = draw(st.integers(1, 40))
    text = format_cycles(Perm(draw(st.permutations(range(1, N + 1)))))
    i = draw(st.integers(0, len(text)))
    if draw(st.booleans()):
        return text[:i] + draw(st.sampled_from(PARSE_ALPHABET)) + text[i:], N
    return text[:i] + text[i + 1 :], N


@given(cycle_texts())
@example(("(1,2)" + " " * 10**5 + "x", 4))
@example(("(" + "\xa0" * 10**5 + "1,\n2)", 4))
@example((" " * 10**5, 4))
@example(("(1," + "\t" * 10**5, 4))
@example((FAULTY_TAIL + "(4001)", 4001))
@example((FAULTY_TAIL + "(4001", 4000))
@example((FAULTY_TAIL + "(1 2)", 4000))
@example((FAULTY_TAIL + "(3999,4000)", 4000))
@example((FAULTY_TAIL + "()(4001,", 4001))
@example(("(9," + "1" * 5000 + ")", 4))
@example(("(1," + "1" * 5000 + ")", 4))
@example(("(1," + "0" * 5000 + "2)x", 4))
@example(("(1,\u0660\u06602)x", 4))
@example(("(1 2)", 4))
@example(("(+1,2)", 4))
@example(("(1_0,2)", 12))
@example(("((1,2)", 4))
@example(("(1,2))", 4))
@example(("(1,2)(", 4))
@example(("(1,,2)", 4))
@example(("(,1,2)", 4))
@example(("(1,2,)", 4))
@example(("(1.0,2)", 4))
@example(("(true,2)", 4))
@example(("(1)", 4))
@example(("()(1,2)()", 4))
@example(("(\uff11,\uff12)(3,4)", 4))
@example(("(1,\xa02)\t(3 ,\t4)", 4))
@example(("(0,1)", 4))
@example(("(1,0)", 4))
@example(("(2,5)", 4))  # the point past n last
@example(("(5,2)", 4))  # the point past n first
@example(("(1,2,1)", 4))
@example(("(1,2)(3,1)", 4))
@example(("(1,2)(1,2)", 4))
@example(("(" + ",".join(map(str, [*range(1, 20), 0, *range(20, 40)])) + ")", 40))
def test_parse_cycles_matches_scanning_oracle(case):
    text, n = case
    assert parse_outcome(parse_cycles, text, n) == parse_outcome(parse_cycles_by_scanning, text, n)


def test_canonical_entries_never_reach_the_walker(monkeypatch):
    """Each entry as format_cycles prints it, of zannier tuples, census shape
    tuples and relabelled copies of both, and the identity "()", is read by
    the string reader alone: the walker only words rejected text."""

    def walker(text, n):
        raise AssertionError(f"walked {text!r} on {n} points")

    monkeypatch.setattr(permgroup, "_walk_cycles", walker)
    tuples = [hurwitz.zannier_tuple(n, d) for n in (2, 7, 40) for d in range(2, n + 1, 3)]
    tuples += [t for n in (2, 5, 8) for _, t in enumerate_shapes(n)]
    entries = [p for t in tuples for p in t.gens()]
    for k, t in enumerate(tuples):
        images = list(range(1, t.points + 1))
        random.Random(k).shuffle(images)
        entries += [conjugate(p, Perm(images)) for p in t.gens()]
    for p in entries:
        read = parse_cycles(format_cycles(p), p.size)
        assert read == p
        assert read.ctype == _cycle_type(map(len, cycles(p)), p.size)
    for n in (1, 4, 40):
        assert parse_cycles("()", n) == identity(n) and cycle_type(parse_cycles("()", n)) == (1,) * n


@st.composite
def loose_cycle_texts(draw):
    """The text of a permutation on at most 40 points as the grammar allows
    it (format_cycles_loosely)."""
    N = draw(st.integers(1, 40))
    p = Perm(draw(st.permutations(range(1, N + 1))))
    return format_cycles_loosely(p, draw(st.randoms(use_true_random=False))), N


@given(st.one_of(cycle_texts(), loose_cycle_texts()))
@example(("()(1,2)()", 4))
@example(("(\uff11,\uff12)", 4))
@example(("(1,0002)", 4))
def test_parsed_text_records_the_walked_cycle_type(case):
    text, n = case
    try:
        p = parse_cycles(text, n)
    except CycleParseError:
        return
    assert p.ctype == _cycle_type(map(len, cycles(p)), n)


@st.composite
def cycle_lists(draw):
    """The cycles of a permutation on at most 12 points, each from a random
    point, with one-point cycles for some fixed points and empty cycles."""
    n = draw(st.integers(0, 12))
    p = Perm(draw(st.permutations(range(1, n + 1))))
    lists = []
    for c in cycles(p):
        k = draw(st.integers(0, len(c) - 1))
        lists.append(list(c[k:] + c[:k]))
    lists += [[x] for x in sorted(fixed_points(p)) if draw(st.booleans())]
    lists += [[]] * draw(st.integers(0, 2))
    return n, draw(st.permutations(lists))


@given(cycle_lists())
def test_cycle_lists_record_the_walked_cycle_type(case):
    n, lists = case
    p = Perm.from_cycles(n, lists)
    assert p.ctype == _cycle_type(map(len, cycles(p)), n)


def test_cycle_type_walks_a_perm_from_images_once(monkeypatch):
    # A Perm built from images is walked once, at construction; the
    # cycle-list and cycle-text readers and identity count the cycle type
    # without a walk.
    walks = []
    walk = permgroup._cycles
    monkeypatch.setattr(permgroup, "_cycles", lambda imgs: walks.append(imgs) or walk(imgs))
    p = Perm([2, 3, 1, 5, 4])
    assert walks == [(2, 3, 1, 5, 4)]
    assert cycle_type(p) == cycle_type(p) == p.ctype == (2, 3)
    assert cycle_type(Perm.from_cycles(5, "(1,2,3)(4,5)")) == (2, 3)
    assert cycle_type(Perm.from_cycles(5, [(1, 2, 3), (4, 5)])) == (2, 3)
    assert cycle_type(identity(3)) == (1, 1, 1)
    assert walks == [(2, 3, 1, 5, 4)]


@given(st.integers(0, 12).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_perm_from_images_carries_the_walked_cycle_type(images):
    # The oracle: the sizes of the orbits, each orbit walked from each of
    # its points.
    orbits = set()
    for x in range(1, len(images) + 1):
        orbit, y = {x}, images[x - 1]
        while y != x:
            orbit.add(y)
            y = images[y - 1]
        orbits.add(frozenset(orbit))
    p = Perm(images)
    assert p.ctype == tuple(sorted(map(len, orbits)))
    assert Perm(images, p.ctype) == p


def test_perm_refuses_a_cycle_type_its_images_do_not_have():
    for images, ctype in (((2, 1), (1, 1)), ((2, 1), (2, 0)), ((2, 1), (1, 1, 1)), ((1, 2, 3), (3,)), ((2, 1), [2])):
        with pytest.raises(ValueError, match="is not"):
            Perm(images, ctype)
    for images in ((1, 1), (0, 1), (2, 3), (1, 2, 4)):
        with pytest.raises(ValueError, match="not a bijection"):
            Perm(images)
        with pytest.raises(ValueError, match="not a bijection"):
            Perm(images, (1,) * len(images))


def test_parse_cycles_rejects_non_decimal_digits():
    # str.isdigit accepts superscript and circled digits, int() does not: each
    # is a fault at its position, not a conversion error without one.
    for text, message in (
        ("(1,²)", "expected a point number (at position 3)"),
        ("(¹,2)", "expected a point number (at position 1)"),
        ("(1,2①)", "expected ')' (at position 4)"),
    ):
        with pytest.raises(CycleParseError) as err:
            parse_cycles(text, 12)
        assert str(err.value) == message


def test_parse_cycles_long_point_is_a_positioned_range_fault():
    # More significant digits than n is out of range, found before int(),
    # which refuses more than 4300 digits, would see the point.
    with pytest.raises(CycleParseError) as err:
        parse_cycles("(1," + "1" * 5000 + ")", 4)
    assert str(err.value) == "point of 5000 digits out of range 1..4 (at position 3)"
    with pytest.raises(CycleParseError) as err:
        parse_cycles("(2,3)(1," + "7" * 5000 + ")(", 120)
    assert str(err.value) == "point of 5000 digits out of range 1..120 (at position 8)"
    # Leading zeros, ASCII or not, still read as before.
    assert parse_cycles("(1,0002)", 4) == Perm.from_cycles(4, "(1,2)")
    assert parse_cycles("(1," + "0" * 5000 + "2)", 4) == Perm.from_cycles(4, "(1,2)")
    with pytest.raises(CycleParseError) as err:
        parse_cycles("(1,\u0660\u06602)x", 4)
    assert str(err.value) == "expected '(' (at position 7)"


def test_public_guards_refuse_sizes_that_do_not_fit():
    p = Perm.from_cycles(4, "(1,2,3,4)")
    assert format_cycles(p) == "(1,2,3,4)"
    with pytest.raises(ValueError, match="at least one point"):
        is_transitive([], 0)
    with pytest.raises(SizeMismatch, match="generator size 4 != 5"):
        is_transitive([p], 5)
    with pytest.raises(ValueError, match="equal size"):
        BlockPartition(4, 2, (frozenset({1}), frozenset({2, 3, 4})))
    halves = BlockPartition(6, 2, (frozenset({1, 3, 5}), frozenset({2, 4, 6})))
    with pytest.raises(SizeMismatch, match="size 4 != 6"):
        preserves_partition(p, halves)
    with pytest.raises(NeedFullCycle, match="no generators"):
        is_ell_imprimitive([], 2)
