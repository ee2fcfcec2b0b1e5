"""Permutations on {1..N}: products, cycles, the rotation relabel, cycle
text, and the ell-block imprimitivity test.

A Perm stores the image tuple one-based: p(i) == images[i-1].  Composition
follows (a * b)(x) = a(b(x)), so the right factor acts first; chain() is the
opposite reading (first listed acts first) for products given in application
order.  rotate(a, s) is the conjugation g^-1 * a * g by g = c**s, c the
descending N-cycle.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import dropwhile
from typing import Iterable, Optional, Sequence


class SizeMismatch(ValueError):
    """Operands act on different point counts."""


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


def rotate(a: Perm, s: int) -> Perm:
    """c^-s * a * c^s for the descending N-cycle c (i to i-1, 1 to N) in
    closed form, the relabel x -> x + s: x maps to a(x - s) + s, mod N in 1..N.
    The images of a, cyclically shifted by s places, go through the table
    (0, s+1, ..., N, 1, ..., s).

    >>> a = Perm.from_cycles(12, "(1,11)")
    >>> rotate(a, 6)
    Perm.from_cycles(12, '(5,7)')
    >>> rotate(a, -1) == rotate(a, 11)
    True
    >>> rotate(a, 12) == a
    True
    """
    N = a.size
    if not N:
        return a
    s %= N
    imgs = a.images
    shift = (0, *range(s + 1, N + 1), *range(1, s + 1))
    return _unchecked(tuple([shift[x] for x in imgs[N - s :] + imgs[: N - s]]))


def cycles(p: Perm) -> list[tuple[int, ...]]:
    """Nontrivial cycles, each starting at its least point, sorted by that
    point."""
    imgs = p.images
    out = []
    seen = [False] * (len(imgs) + 1)
    for start, x in enumerate(imgs, start=1):
        if seen[start] or x == start:
            continue
        cyc = [start]
        while x != start:
            cyc.append(x)
            seen[x] = True
            x = imgs[x - 1]
        out.append(tuple(cyc))
    return out


def cycle_type(p: Perm) -> tuple[int, ...]:
    """Multiset of cycle lengths, 1-cycles included, ascending."""
    return _cycle_type(cycles(p), p.size)


def _cycle_type(nontrivial_cycles: list[tuple[int, ...]], N: int) -> tuple[int, ...]:
    """cycle_type from the nontrivial cycles of a permutation of N points."""
    lengths = sorted(map(len, nontrivial_cycles))
    return (1,) * (N - sum(lengths)) + tuple(lengths)


def fixed_points(p: Perm) -> frozenset[int]:
    return frozenset(i for i, x in enumerate(p.images, start=1) if x == i)


def _branching(nontrivial_cycles: list[tuple[int, ...]]) -> int:
    return sum(len(c) - 1 for c in nontrivial_cycles)


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


# The block layer stays in src only as perfbench's profile oracle; ROADMAP item 7 moves it.
class NotADivisor(ValueError):
    """Block count must divide the point count."""


class NeedFullCycle(ValueError):
    """No generator is a single N-cycle."""


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
    ell-th power.  When the designated cycle sends each point to its
    predecessor, label h holds the residue class {j : j = h (mod ell)}.
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


# -- text form ---------------------------------------------------------------
#
# Cycle notation: "(1,8)(2,7)", identity "()".  Output cycles start at their
# least point and are sorted by it; fixed points are omitted.


def format_cycles(p: Perm) -> str:
    cs = cycles(p)
    if not cs:
        return "()"
    return "".join("(" + ",".join(str(x) for x in c) + ")" for c in cs)


# Cycle text is one or more cycles; a cycle is "()" or at least two
# comma-separated points in parentheses.  Whitespace may stand anywhere but
# inside a point.  _HEAD, the longest start of a cycle the grammar allows,
# locates the fault in rejected text.
_OPEN, _POINT, _NEXT = r"\(\s*", r"\d+\s*", r",\s*"
_CYCLE = rf"{_OPEN}(?:{_POINT}(?:{_NEXT}{_POINT})+)?\)"
_TEXT = re.compile(rf"\s*(?:{_CYCLE}\s*)+")
_HEAD = re.compile(rf"{_OPEN}(?:{_POINT}(?:{_NEXT}{_POINT})*(?:{_NEXT})?)?")
_SPACE = re.compile(r"\s*")
_DIGITS = re.compile(r"\d+")


def parse_cycles(text: str, n: int) -> Perm:
    """Parse cycle notation on {1..n}.  Raises CycleParseError with the
    offending position: the first fault in reading order, so a point out of
    range comes before a later syntax error; repeated points are reported
    last, at position 0.

    >>> parse_cycles(" (1,3)( 2 , 4 ) ", 5)
    Perm.from_cycles(5, '(1,3)(2,4)')
    >>> parse_cycles("(1,2", 4)
    Traceback (most recent call last):
        ...
    pellab.permgroup.CycleParseError: expected ')' (at position 4)
    """
    if not isinstance(text, str):
        raise CycleParseError(f"cycle text must be a string, not {type(text).__name__}", 0)
    if _TEXT.fullmatch(text):
        p = _read_accepted(text, n)
        if p is not None:
            return p
    return _walk_cycles(text, n)


def _read_accepted(text: str, n: int) -> Optional[Perm]:
    """The permutation of text the grammar accepts, read by string splits;
    None when a point is out of range, repeated or past int()'s digit limit."""
    cycs = [c for c in "".join(text.split())[1:-1].split(")(") if c]
    if not cycs:
        return identity(n)
    try:
        flat = list(map(int, ",".join(cycs).split(",")))
    except ValueError:
        return None
    if min(flat) < 1 or max(flat) > n or len(set(flat)) < len(flat):
        return None
    # Each point goes to the next in its cycle, the last back to the first.
    succ = flat[1:] + flat[:1]
    start = 0
    for c in cycs:
        end = start + c.count(",") + 1
        succ[end - 1] = flat[start]
        start = end
    imgs = list(range(n + 1))
    for x, y in zip(flat, succ):
        imgs[x] = y
    return _unchecked(tuple(imgs[1:]))


def _walk_cycles(text: str, n: int) -> Perm:
    """Read text cycle by cycle, raising CycleParseError at the first fault."""
    end = len(text)
    pos = _SPACE.match(text).end()
    if pos == end:
        raise CycleParseError("empty permutation text", 0)
    cycles_out: list[list[int]] = []
    while pos < end:
        head = _HEAD.match(text, pos)
        if head is None:
            raise CycleParseError("expected '('", pos)
        cyc = []
        for m in _DIGITS.finditer(text, pos, head.end()):
            # Leading zeros, of any script, do not count.  A point with more
            # digits than n is out of range and never reaches int(), which
            # refuses more than 4300 digits.
            digits = "".join(dropwhile(lambda c: not int(c), m.group())) or "0"
            if len(digits) > len(str(n)):
                raise CycleParseError(f"point of {len(digits)} digits out of range 1..{n}", m.start())
            x = int(digits)
            if not 1 <= x <= n:
                raise CycleParseError(f"point {x} out of range 1..{n}", m.start())
            cyc.append(x)
        # The head stops after "(", "," or a point; that and the next
        # character name the fault.
        pos = head.end()
        last = head.group().rstrip()[-1]
        closed = text.startswith(")", pos)
        if last == "," or (last == "(" and not closed):
            raise CycleParseError("expected a point number", pos)
        if not closed:
            raise CycleParseError("expected ')'", pos)
        if len(cyc) == 1:
            raise CycleParseError("cycles need at least two points", pos)
        if cyc:
            cycles_out.append(cyc)
        pos = _SPACE.match(text, pos + 1).end()
    try:
        return _from_cycle_lists(n, cycles_out)
    except ValueError as exc:
        raise CycleParseError(str(exc), 0) from None
