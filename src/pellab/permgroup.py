"""Permutations on {1..N}, block systems, and a small dihedral recognizer.

A Perm stores the image tuple one-based: p(i) == images[i-1].  Composition
follows (a * b)(x) = a(b(x)), so the right factor acts first; chain() is the
opposite reading (first listed acts first) for products given in application
order.  Conjugation is conjugate(a, g) = g^-1 * a * g.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence


class SizeMismatch(ValueError):
    """Operands act on different point counts."""


class NotADivisor(ValueError):
    """Block count must divide the point count."""


class NeedFullCycle(ValueError):
    """No generator is a single N-cycle."""


class NotPreserved(ValueError):
    """A generator does not map blocks to blocks."""


class ClosureOverflow(RuntimeError):
    """Generated group exceeded the closure bound."""


class CycleParseError(ValueError):
    """Bad cycle text; .pos is the 0-based offset of the problem."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


@dataclass(frozen=True)
class Perm:
    """Permutation of {1..N} as a one-based image tuple."""

    images: tuple[int, ...]

    def __init__(self, images: Iterable[int]):
        imgs = tuple(images)
        if sorted(imgs) != list(range(1, len(imgs) + 1)):
            raise ValueError("images are not a bijection of 1..N")
        object.__setattr__(self, "images", imgs)

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Perm") -> "Perm":
        return compose(self, other)

    def __pow__(self, k: int) -> "Perm":
        n = self.size
        if k < 0:
            return inverse(self) ** (-k)
        acc = identity(n)
        base = self
        while k:
            if k & 1:
                acc = compose(acc, base)
            base = compose(base, base)
            k >>= 1
        return acc

    def __str__(self) -> str:
        return format_cycles(self)

    def __repr__(self) -> str:
        return f"Perm.from_cycles({self.size}, {format_cycles(self)!r})"

    @staticmethod
    def from_cycles(n: int, text_or_cycles) -> "Perm":
        if isinstance(text_or_cycles, str):
            return parse_cycles(text_or_cycles, n)
        return _from_cycle_lists(n, text_or_cycles)


def _unchecked(images: tuple[int, ...]) -> Perm:
    """Perm from images known to be a bijection; the checks stay at the
    boundaries: Perm(images), cycle lists and cycle text."""
    p = object.__new__(Perm)
    object.__setattr__(p, "images", images)
    return p


def identity(n: int) -> Perm:
    return _unchecked(tuple(range(1, n + 1)))


def _from_cycle_lists(n: int, cycles: Sequence[Sequence[int]]) -> Perm:
    imgs = list(range(1, n + 1))
    seen: set[int] = set()
    for cyc in cycles:
        for x in cyc:
            if not 1 <= x <= n:
                raise ValueError(f"point {x} out of range 1..{n}")
            if x in seen:
                raise ValueError(f"point {x} repeated across cycles")
            seen.add(x)
        for i, x in enumerate(cyc):
            imgs[x - 1] = cyc[(i + 1) % len(cyc)]
    return _unchecked(tuple(imgs))


def compose(a: Perm, b: Perm) -> Perm:
    """(a * b)(x) = a(b(x)): b acts first."""
    if a.size != b.size:
        raise SizeMismatch(f"sizes {a.size} and {b.size} differ")
    return _unchecked(tuple([a.images[bi - 1] for bi in b.images]))


def chain(perms: Sequence[Perm]) -> Perm:
    """Product of perms read in application order: the first listed acts
    first."""
    if not perms:
        raise ValueError("empty chain has no defined size")
    acc = identity(perms[0].size)
    for p in perms:
        acc = compose(p, acc)
    return acc


def inverse(a: Perm) -> Perm:
    imgs = [0] * a.size
    for i, ai in enumerate(a.images, start=1):
        imgs[ai - 1] = i
    return _unchecked(tuple(imgs))


def conjugate(a: Perm, g: Perm) -> Perm:
    """g^-1 * a * g."""
    if a.size != g.size:
        raise SizeMismatch(f"sizes {a.size} and {g.size} differ")
    return compose(inverse(g), compose(a, g))


def rotate(a: Perm, s: int) -> Perm:
    """conjugate(a, c**s) for the descending N-cycle c (i to i-1, 1 to N) in
    closed form, the relabel x -> x + s: x maps to a(x - s) + s, mod N in 1..N."""
    N = a.size
    imgs = a.images
    return _unchecked(tuple([(imgs[(x - s) % N] + s - 1) % N + 1 for x in range(N)]))


def cycles(p: Perm) -> list[tuple[int, ...]]:
    """Nontrivial cycles, each starting at its least point, sorted by that
    point."""
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


def cycle_type(p: Perm) -> tuple[int, ...]:
    """Multiset of cycle lengths, 1-cycles included, ascending."""
    nontrivial = sorted(len(c) for c in cycles(p))
    ones = p.size - sum(nontrivial)
    return (1,) * ones + tuple(nontrivial)


def fixed_points(p: Perm) -> frozenset[int]:
    return frozenset(i for i in range(1, p.size + 1) if p(i) == i)


def branching(p: Perm) -> int:
    """Sum of (length - 1) over all cycles."""
    return sum(len(c) - 1 for c in cycles(p))


def is_full_cycle(p: Perm) -> bool:
    return p.size >= 1 and cycle_type(p) == (p.size,)


def is_transitive(perms: Sequence[Perm], n: int) -> bool:
    """Whether the orbit of point 1 under the generators is all of 1..n."""
    if n < 1:
        raise ValueError("need at least one point")
    for p in perms:
        if p.size != n:
            raise SizeMismatch(f"generator size {p.size} != {n}")
    seen = [False, True] + [False] * (n - 1)
    stack = [1]
    while stack:
        x = stack.pop()
        for p in perms:
            y = p.images[x - 1]
            if not seen[y]:
                seen[y] = True
                stack.append(y)
    return all(seen[1:])


@dataclass(frozen=True)
class BlockPartition:
    """Partition of {1..N} into ell labeled blocks of size N/ell;
    blocks[h-1] carries label h."""

    N: int
    ell: int
    blocks: tuple[frozenset[int], ...]

    def __post_init__(self):
        if self.ell < 1 or self.N % self.ell != 0:
            raise NotADivisor(f"{self.ell} does not divide {self.N}")
        size = self.N // self.ell
        seen: set[int] = set()
        for b in self.blocks:
            if len(b) != size:
                raise ValueError("blocks must have equal size N/ell")
            seen |= b
        if len(self.blocks) != self.ell or seen != set(range(1, self.N + 1)):
            raise ValueError("blocks must partition 1..N")

    def as_sets(self) -> list[set[int]]:
        """Blocks in label order."""
        return [set(b) for b in self.blocks]


def congruence_partition(N: int, ell: int) -> BlockPartition:
    """Blocks by residue: label h holds {j : j = h (mod ell)}, h = 1..ell."""
    if ell < 1 or N % ell != 0:
        raise NotADivisor(f"{ell} does not divide {N}")
    blocks = tuple(
        frozenset(range(h, N + 1, ell)) for h in range(1, ell + 1)
    )
    return BlockPartition(N, ell, blocks)


def preserves_partition(p: Perm, part: BlockPartition) -> Optional[Perm]:
    """Induced permutation of block labels, or None when some block is
    split."""
    if p.size != part.N:
        raise SizeMismatch(f"size {p.size} != {part.N}")
    label = {}
    for h, b in enumerate(part.blocks, start=1):
        for x in b:
            label[x] = h
    imgs = [0] * part.ell
    for h, b in enumerate(part.blocks, start=1):
        targets = {label[p(x)] for x in b}
        if len(targets) != 1:
            return None
        imgs[h - 1] = targets.pop()
    return Perm(imgs)


def is_ell_imprimitive(perms: Sequence[Perm], ell: int) -> Optional[BlockPartition]:
    """The block system with ell blocks spun from a full-cycle generator,
    when every generator preserves it; otherwise None.

    The first full cycle among the generators is the designated one; its
    block through any point is the orbit of that point under the cycle's
    ell-th power.  Labels follow congruence_partition when the designated
    cycle already sends each point to its predecessor.
    """
    if not perms:
        raise NeedFullCycle("no generators")
    N = perms[0].size
    full = next((p for p in perms if is_full_cycle(p)), None)
    if full is None:
        raise NeedFullCycle("no generator is a single N-cycle")
    if ell < 1 or N % ell != 0:
        raise NotADivisor(f"{ell} does not divide {N}")
    # x_k = full^k(N); block label h collects the k = -h (mod ell) track.
    orbit = [N]
    for _ in range(N - 1):
        orbit.append(full(orbit[-1]))
    blocks = []
    for h in range(1, ell + 1):
        blocks.append(frozenset(orbit[k] for k in range(N) if (k + h) % ell == 0))
    part = BlockPartition(N, ell, tuple(blocks))
    for p in perms:
        if preserves_partition(p, part) is None:
            return None
    return part


def induced_block_action(perms: Sequence[Perm], part: BlockPartition) -> list[Perm]:
    """Image of each generator on block labels; NotPreserved if any splits a
    block."""
    out = []
    for i, p in enumerate(perms):
        q = preserves_partition(p, part)
        if q is None:
            raise NotPreserved(f"generator {i} does not preserve the partition")
        out.append(q)
    return out


def closure(perms: Sequence[Perm], max_size: int) -> list[Perm]:
    """All products of the generators, or ClosureOverflow past max_size."""
    if not perms:
        raise ValueError("need at least one generator")
    n = perms[0].size
    for p in perms:
        if p.size != n:
            raise SizeMismatch("mixed generator sizes")
    seen = {identity(n).images}
    frontier = [identity(n)]
    elements = [identity(n)]
    while frontier:
        nxt = []
        for g in frontier:
            for p in perms:
                h = compose(p, g)
                if h.images not in seen:
                    seen.add(h.images)
                    if len(seen) > max_size:
                        raise ClosureOverflow(f"closure exceeded {max_size} elements")
                    elements.append(h)
                    nxt.append(h)
        frontier = nxt
    return elements


def _order_of(p: Perm) -> int:
    k = 1
    q = p
    e = identity(p.size)
    while q != e:
        q = compose(q, p)
        k += 1
    return k


def is_dihedral_of_order(
    perms: Sequence[Perm],
    order: int,
    r: Optional[Perm] = None,
    s: Optional[Perm] = None,
    max_size: Optional[int] = None,
) -> bool:
    """Whether the generated group is dihedral of the given order, with r of
    order order/2, s an involution outside <r>, and (s*r)^2 = id.  When r and
    s are omitted, any such pair inside the group qualifies."""
    if order < 2 or order % 2 != 0:
        return False
    m = order // 2
    if max_size is None:
        max_size = 10 * m
    group = closure(perms, max_size)
    if len(group) != order:
        return False
    e = identity(perms[0].size)

    def fits(rc: Perm, sc: Perm) -> bool:
        if _order_of(rc) != m or sc == e:
            return False
        if compose(sc, sc) != e:
            return False
        sr = compose(sc, rc)
        if compose(sr, sr) != e:
            return False
        powers = {(rc**k).images for k in range(m)}
        return sc.images not in powers

    if r is not None and s is not None:
        if r.images not in {g.images for g in group}:
            return False
        if s.images not in {g.images for g in group}:
            return False
        return fits(r, s)
    for rc in group:
        if _order_of(rc) != m:
            continue
        for sc in group:
            if fits(rc, sc):
                return True
    return False


# -- text form ---------------------------------------------------------------
#
# Cycle notation: "(1,8)(2,7)", identity "()".  Output cycles start at their
# least point and are sorted by it; fixed points are omitted.


def format_cycles(p: Perm) -> str:
    cs = cycles(p)
    if not cs:
        return "()"
    return "".join("(" + ",".join(str(x) for x in c) + ")" for c in cs)


def parse_cycles(text: str, n: int) -> Perm:
    """Parse cycle notation on {1..n}.  Raises CycleParseError with the
    offending position."""
    if not isinstance(text, str):
        raise CycleParseError(f"cycle text must be a string, not {type(text).__name__}", 0)
    s = text
    pos = 0
    end = len(s)
    cycles_out: list[list[int]] = []
    saw_any = False
    while pos < end:
        if s[pos].isspace():
            pos += 1
            continue
        if s[pos] != "(":
            raise CycleParseError("expected '('", pos)
        pos += 1
        cyc: list[int] = []
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
            x = int(s[start:pos])
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
        return _from_cycle_lists(n, cycles_out)
    except ValueError as exc:
        raise CycleParseError(str(exc), 0) from None
