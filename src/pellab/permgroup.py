"""Permutations on {1..N}: cycles, fixed points, transitivity, cycle text,
and the ell-block imprimitivity test.

A Perm is a record of its one-based image tuple, p(i) == images[i-1], and
its cycle type; BlockPartition is a record too.  No command multiplies,
inverts or rotates Perms (hurwitz folds a tuple's product over image
tuples), so those operations are test oracles.
"""

import functools
import operator
import re
from bisect import bisect
from itertools import compress
from typing import Iterable, Optional, Sequence

from . import _Record, _significant


class SizeMismatch(ValueError):
    """Operands act on different point counts."""


class CycleParseError(ValueError):
    """Bad cycle text; .pos is the 0-based offset of the problem."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class Perm(_Record):
    """Permutation of {1..N} as a record of its one-based image tuple and
    its cycle type, which every Perm carries from construction: the
    cycle-list and cycle-text readers count it as they read, and a Perm
    built from images is walked once.  A Perm is a tuple of those two
    fields, so len(perm) is 2: src reads a Perm only through images,
    ctype, size and a call."""

    __slots__ = ()

    def __new__(cls, images: Iterable[int], ctype: Optional[tuple[int, ...]] = None) -> "Perm":
        """The checked constructor: images must be a bijection of 1..N, and
        a ctype, when given, must be the one the walk finds."""
        imgs = tuple(images)
        if sorted(imgs) != list(range(1, len(imgs) + 1)):
            raise ValueError("images are not a bijection of 1..N")
        p = _unchecked(imgs)
        if ctype is not None and ctype != p.ctype:
            raise ValueError(f"cycle type {ctype!r} is not {p.ctype!r}, the cycle type of the images")
        return p

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __repr__(self) -> str:
        return f"Perm.from_cycles({self.size}, {format_cycles(self)!r})"

    @staticmethod
    def from_cycles(n: int, text_or_cycles) -> "Perm":
        if isinstance(text_or_cycles, str):
            return parse_cycles(text_or_cycles, n)
        return _from_cycle_lists(n, text_or_cycles)


def _unchecked(images: tuple[int, ...], ctype: Optional[tuple[int, ...]] = None) -> Perm:
    """Perm from images known to be a bijection, with its cycle type when
    the caller knows it, walked from the images when not; the checks stay
    at the boundaries: Perm(images), cycle lists and cycle text."""
    if ctype is None:
        ctype = _cycle_type(map(len, _cycles(images)), len(images))
    return tuple.__new__(Perm, (images, ctype))


def identity(n: int) -> Perm:
    return _unchecked(tuple(range(1, n + 1)), (1,) * n)


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
    return _unchecked(tuple(imgs), _cycle_type(map(len, cycles), n))


def cycles(p: Perm) -> list[tuple[int, ...]]:
    """Nontrivial cycles, each starting at its least point, sorted by that
    point."""
    return _cycles(p.images)


def _cycles(imgs: tuple[int, ...]) -> list[tuple[int, ...]]:
    """cycles of the permutation with one-based images imgs."""
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
    return p.ctype


def _cycle_type(lengths: Iterable[int], N: int) -> tuple[int, ...]:
    """cycle_type from the cycle lengths of a permutation of N points; a
    length below 2, a one-point or empty cycle, leaves its point fixed."""
    moved = sorted(lengths)
    del moved[: bisect(moved, 1)]
    return (1,) * (N - sum(moved)) + tuple(moved)


def fixed_points(p: Perm) -> frozenset[int]:
    points = range(1, p.size + 1)
    return frozenset(compress(points, map(operator.eq, p.images, points)))


def is_full_cycle(p: Perm) -> bool:
    return p.size >= 1 and cycle_type(p) == (p.size,)


def is_transitive(perms: Sequence[Perm], n: int) -> bool:
    """Whether the orbit of point 1 under the generators is all of 1..n."""
    if n < 1:
        raise ValueError("need at least one point")
    for p in perms:
        if p.size != n:
            raise SizeMismatch(f"generator size {p.size} != {n}")
    images = [p.images for p in perms]
    seen = [False, True] + [False] * (n - 1)
    stack = [1]
    while stack:
        x = stack.pop()
        for imgs in images:
            y = imgs[x - 1]
            if not seen[y]:
                seen[y] = True
                stack.append(y)
    return all(seen[1:])


# The block layer stays in src only as perfbench's profile oracle: once ROADMAP
# item 1 gives perfbench its own copy, item 6 moves it to the test oracles.
class NotADivisor(ValueError):
    """Block count must divide the point count."""


class NeedFullCycle(ValueError):
    """No generator is a single N-cycle."""


class BlockPartition(_Record):
    """Partition of {1..N} into ell labeled blocks of size N/ell;
    blocks[h-1] carries label h."""

    __slots__ = ()

    def __new__(cls, N: int, ell: int, blocks: tuple[frozenset[int], ...]) -> "BlockPartition":
        if ell < 1 or N % ell != 0:
            raise NotADivisor(f"{ell} does not divide {N}")
        size = N // ell
        seen: set[int] = set()
        for b in blocks:
            if len(b) != size:
                raise ValueError("blocks must have equal size N/ell")
            seen |= b
        if len(blocks) != ell or seen != set(range(1, N + 1)):
            raise ValueError("blocks must partition 1..N")
        return tuple.__new__(cls, (N, ell, blocks))


def preserves_partition(p: Perm, part: BlockPartition) -> Optional[Perm]:
    """Induced permutation of block labels, or None when some block is
    split."""
    if p.size != part.N:
        raise SizeMismatch(f"size {p.size} != {part.N}")
    label = {}
    for h, b in enumerate(part.blocks, start=1):
        for x in b:
            label[x] = h
    imgs, step = [0] * part.ell, p.images
    for h, b in enumerate(part.blocks, start=1):
        targets = {label[step[x - 1]] for x in b}
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
    orbit, step = [N], full.images
    for _ in range(N - 1):
        orbit.append(step[orbit[-1] - 1])
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
# inside a point.  _read_accepted reads accepted text in a few passes over
# strings: the cycles are the pieces between ")(" pairs, all their points
# are one JSON list for one shared scanner, and the range checks come from
# scattering the points into the image slots.  _walk_cycles reads every
# text it refuses and words the first fault.


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
    p = _read_accepted(text, n)
    if p is not None:
        return p
    return _walk_cycles(text, n)


def _read_accepted(text: str, n: int) -> Optional[Perm]:
    """The permutation of text the grammar accepts, with the cycle type
    from the lengths of its cycles.  None when the grammar rejects the
    text, when a point is out of range or repeated, and when a point is not
    plain JSON (leading zeros, digits beyond ASCII, more than int()'s digit
    limit): _walk_cycles reads those.  Text without whitespace is read as
    it stands; other text once no whitespace splits a point."""
    words = text.split()  # text itself when it holds no whitespace
    if len(words) == 1:
        body = words[0]
    elif any(a[-1].isdecimal() and b[0].isdecimal() for a, b in zip(words, words[1:])):
        return None  # whitespace may not split a point
    else:
        body = "".join(words)
    if body[:1] != "(" or body[-1:] != ")":
        return None
    # Between the outer parentheses, the cycles are the pieces between ")("
    # pairs; "()" leaves an empty one.  Only decimal points and commas may
    # remain, and an empty point is not JSON.
    cycs = list(filter(None, body[1:-1].split(")(")))
    if not cycs:
        return identity(n)
    points = ",".join(cycs)
    if not points.replace(",", "").isdecimal():
        return None
    try:
        flat = _point_scanner()(f"[{points}]", 0)[0]
    except (ValueError, StopIteration):  # StopIteration: a missing value
        return None
    lengths = [c.count(",") + 1 for c in cycs]
    if min(lengths) < 2:
        return None
    # Each point goes to the next in its cycle, the last back to the first.
    succ = flat[1:] + flat[:1]
    end = 0
    for k in lengths:
        end += k
        succ[end - 1] = flat[end - k]
    # A point past n falls off the n + 1 slots; a point 0 fills slot 0.
    imgs = list(range(n + 1))
    try:
        for x, y in zip(flat, succ):
            imgs[x] = y
    except IndexError:
        return None
    if imgs[0] or len(set(flat)) < len(flat):
        return None
    return _unchecked(tuple(imgs[1:]), _cycle_type(lengths, n))


@functools.cache
def _point_scanner():
    """The scan_once of one JSON decoder, built on the first read.  It
    reads a list of points in about half the time of int() per point, and
    skips the per-call work of json.loads: its BOM test, two whitespace
    matches and the decode and raw_decode calls."""
    import json

    return json.JSONDecoder().scan_once


def _walk_cycles(text: str, n: int) -> Perm:
    """Read text cycle by cycle, raising CycleParseError at the first fault.
    head_re matches the longest start of a cycle the grammar allows.  Only
    rejected text comes here, so the patterns are compiled here, not on
    import; re caches them."""
    head_re = re.compile(r"\(\s*(?:\d+\s*(?:,\s*\d+\s*)*(?:,\s*)?)?")
    space_re = re.compile(r"\s*")
    digits_re = re.compile(r"\d+")
    end = len(text)
    pos = space_re.match(text).end()
    if pos == end:
        raise CycleParseError("empty permutation text", 0)
    cycles_out: list[list[int]] = []
    while pos < end:
        head = head_re.match(text, pos)
        if head is None:
            raise CycleParseError("expected '('", pos)
        cyc = []
        for m in digits_re.finditer(text, pos, head.end()):
            # Leading zeros do not count.  A point with more digits than n is
            # out of range and never reaches int(), which caps its digits.
            digits = _significant(m.group(), len(str(n)))
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
        pos = space_re.match(text, pos + 1).end()
    try:
        return _from_cycle_lists(n, cycles_out)
    except ValueError as exc:
        raise CycleParseError(str(exc), 0) from None
