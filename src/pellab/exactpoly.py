"""Exact univariate polynomial arithmetic over the rationals.

A Poly is stored as integer numerators over one denominator: nums, constant
term first with trailing zeros trimmed, and den > 0, in lowest terms
(gcd(den, *nums) == 1).  The zero polynomial has nums == () and degree -1.
Nothing here ever touches floats, so equality of computed values is
meaningful, and equal polynomials have equal stored pairs.

The one rational type is the integer pair (numerator, denominator): the
kernels read and write the stored integers directly, a rational argument
(to Poly and constant) is read as a pair by _pair, and parse_rational
returns one.  Solution text, printed by format_poly and
coeff_strings_and_text (both forms from one str() per integer) and read by
from_coeff_strings, and polynomial text read by parse_poly go through one
pair per coefficient, whose text is read with str methods (strip,
partition, isdecimal).  Only Poly.coeffs hands a caller fractions.Fraction
values, whose class _fraction_class imports on its first call.  A product
convolves the numerators, and a square takes each cross product once and
doubles it.
Composition runs Horner on the numerators of the inner polynomial, with
the powers of its denominator folded into the outer coefficients.  There
is no Euclidean division.  gcd_cofactors is the heuristic gcd (GCDHEU):
both primitive parts are evaluated at an integer xi, the integer gcd of
the two values is read back as balanced base-xi digits, and the candidate
g counts only if it divides both parts exactly, by a long division that
stops at the first leading term lc(g) does not divide; those two
quotients are the cofactors it returns with the gcd, on which Yun's
squarefree decomposition runs.  When six points give none, it falls back
to the primitive remainder sequence, each pseudo-remainder (the r of
scale*a = q*b + r; no q is built) divided by its content, whose last
member is the gcd, and divides both parts by it; gcd
shares both routes and builds no cofactor.  Each result is reduced once,
by one gcd of its denominator and numerators.  The series m-th root keeps
its coefficients as integer numerators over one common denominator.
Exact integer m-th roots use an integer Newton iteration, and every
sequence runs in a loop, so nothing depends on float range or on the
recursion limit.
"""

import math
import re
import sys
from typing import Iterable, Optional, Sequence, Union

from . import _significant


class GcdOfZeros(ValueError):
    """gcd(0, 0) is undefined."""


class ZeroInput(ValueError):
    """Operation not defined for the zero polynomial."""

    prefix = "polynomial error: "


class DegreeTooSmall(ValueError):
    """Operation needs a polynomial of positive degree."""

    prefix = "polynomial error: "


class PolyParseError(ValueError):
    """Bad polynomial text; .pos is the 0-based offset of the problem, and
    .message the message without it."""

    prefix = "polynomial error: "

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.message = message
        self.pos = pos


def _pair(value) -> tuple[int, int]:
    """A rational argument as (numerator, denominator), den != 0, not
    reduced: a string in parse_rational's form, an int, an int pair, or a
    Fraction, known without importing fractions.  A float, a bool or
    another shape is a TypeError: a binary float is no exact input."""
    if isinstance(value, str):
        return parse_rational(value)
    fractions = sys.modules.get("fractions")
    if fractions is not None and isinstance(value, fractions.Fraction):
        return value.numerator, value.denominator
    num, den = value if isinstance(value, tuple) and len(value) == 2 else (value, 1)
    if not all(isinstance(x, int) and not isinstance(x, bool) for x in (num, den)):
        raise TypeError(f"expected a Fraction, int, int pair or rational string, not {type(value).__name__}")
    if not den:
        raise ZeroDivisionError("zero denominator")
    return num, den


def _fraction_class() -> type:
    """fractions.Fraction, for Poly.coeffs, which hands a caller the
    coefficients as fractions; the first call imports fractions (with
    decimal and numbers)."""
    import fractions

    return fractions.Fraction


class Poly:
    """Immutable, hashable rational polynomial, nums/den in lowest terms.

    >>> p = Poly([1, 0, -2])
    >>> p.degree, p.coeffs[-1]
    (2, Fraction(-2, 1))
    >>> h = Poly([(1, 2), (2, 4)])
    >>> h.nums, h.den
    ((1, 1), 2)
    """

    __slots__ = ("nums", "den")
    nums: tuple[int, ...]
    den: int

    def __new__(cls, coeffs: Iterable = ()) -> "Poly":
        return _from_pairs([_pair(c) for c in coeffs])

    @property
    def coeffs(self) -> tuple:
        """The coefficients as fractions, constant term first."""
        fraction = _fraction_class()
        return tuple(fraction(c, self.den) for c in self.nums)

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def monic(self) -> "Poly":
        if self.is_zero:
            raise ZeroInput("cannot normalize the zero polynomial")
        return _poly(list(self.nums), self.nums[-1])

    def __add__(self, other: "Poly") -> "Poly":
        g = math.gcd(self.den, other.den)
        fa, fb = other.den // g, self.den // g
        a, b = [c * fa for c in self.nums], [c * fb for c in other.nums]
        if len(a) < len(b):
            a, b = b, a
        for i, c in enumerate(b):
            a[i] += c
        return _poly(a, self.den * fa)

    def __neg__(self) -> "Poly":
        return _poly([-c for c in self.nums], self.den)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if other is self:
            return _poly(_square(self.nums), self.den * self.den)
        return _poly(_convolve(self.nums, other.nums), self.den * other.den)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if n == 0:
            return ONE
        acc = self
        for bit in bin(n)[3:]:
            acc = acc * acc
            if bit == "1":
                acc = acc * self
        return acc

    def __repr__(self) -> str:
        return f"Poly({format_poly(self)!r})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.nums == other.nums and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable Poly")


def _convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The product of two integer coefficient lists, untrimmed."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for k, y in enumerate(b, i):
                out[k] += x * y
    return out


def _square(a: Sequence[int]) -> list[int]:
    """The square of an integer coefficient list, untrimmed: each product
    a_i*a_j with i < j is taken once and doubled."""
    out = [0] * (2 * len(a) - 1)
    for i, x in enumerate(a):
        if x:
            out[2 * i] += x * x
            x += x
            for k in range(i + 1, len(a)):
                out[i + k] += x * a[k]
    return out


def _poly(nums: list[int], den: int = 1) -> Poly:
    """The Poly nums/den, for den != 0: trailing zeros trimmed, reduced by
    one gcd to lowest terms with den > 0.  nums may be changed in place."""
    while nums and not nums[-1]:
        nums.pop()
    g = math.gcd(den, *nums)
    if den < 0:
        g = -g
    p = object.__new__(Poly)
    object.__setattr__(p, "nums", tuple(c // g for c in nums) if g != 1 else tuple(nums))
    object.__setattr__(p, "den", den // g)
    return p


def _from_pairs(pairs: Sequence[tuple[int, int]]) -> Poly:
    """The Poly with coefficients num/den, den != 0, constant term first,
    built over the lcm of the denominators."""
    den = math.lcm(*(d for _, d in pairs))
    return _poly([num * (den // d) for num, d in pairs], den)


ZERO = Poly()
ONE = Poly([1])


def constant(c) -> Poly:
    return Poly([c])


def _pseudo_rem(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The pseudo-remainder of integer lists, len(b) >= 1: r with
    scale*a = q*b + r for some q and scale, len(r) = len(b) - 1 (not
    trimmed), or a itself when it is shorter.  Each step multiplies by
    lc(b)/g, g = gcd(lc(b), leading remainder term); a coefficient below
    the current window is multiplied by the scale so far only when the
    window reaches it."""
    rem = list(a)
    db = len(b) - 1
    lb = b[-1]
    scale = 1
    for i in range(len(a) - db - 1, -1, -1):
        rem[i] *= scale
        c = rem[i + db]
        if not c:
            continue
        g = math.gcd(c, lb)
        f, c = lb // g, c // g
        for j in range(i, i + db):
            rem[j] = f * rem[j] - c * b[j - i]
        scale *= f
    return rem[:db]


def _primitive(cs: list[int]) -> tuple[int, list[int]]:
    """The content (gcd of the entries, 0 for none) and the primitive part
    of cs, with trailing zeros dropped."""
    while cs and not cs[-1]:
        cs.pop()
    g = math.gcd(*cs)
    return g, [c // g for c in cs] if g > 1 else cs


def _cofactor(a: Sequence[int], b: Sequence[int]) -> Optional[list[int]]:
    """a / b for integer lists, b nonempty with lc(b) > 0, when b divides a
    in Z[t], else None: long division that stops at the first leading term
    lc(b) does not divide, and at a nonzero remainder."""
    rem = list(a)
    db = len(b) - 1
    lb = b[-1]
    quo = [0] * (len(a) - db)
    for i in range(len(quo) - 1, -1, -1):
        c, r = divmod(rem[i + db], lb)
        if r:
            return None
        if c:
            quo[i] = c
            for j in range(i, i + db):
                rem[j] -= c * b[j - i]
    return None if any(rem[:db]) else quo


def _heuristic_gcd(u: list[int], v: list[int]) -> Optional[tuple[list[int], list[int], list[int]]]:
    """(g, u/g, v/g) for nonempty primitive lists u and v, g their gcd as a
    primitive list with lc(g) > 0, or None when six evaluation points give
    none.  GCDHEU (Char, Geddes and Gonnet, J. Symbolic Comput. 7, 1989):
    at an integer xi >= 2*min(|u|, |v|) + 2 (maximum norms), read
    gcd(u(xi), v(xi)) as base-xi digits, each in (-xi/2, xi/2]; the
    primitive part g of the polynomial they make is the gcd exactly when
    u and v divide by it exactly, and those quotients are the cofactors (u
    and v for a constant g).  Each miss grows xi to about 2.73 * xi^(5/4)."""
    xi = 2 * min(max(map(abs, u)), max(map(abs, v))) + 2
    bound = min(len(u), len(v))
    for _ in range(6):
        uval = vval = 0
        for c in reversed(u):
            uval = uval * xi + c
        for c in reversed(v):
            vval = vval * xi + c
        h = math.gcd(uval, vval)
        half = xi // 2
        digits = []
        while h:
            h, d = divmod(h, xi)
            if d > half:
                d -= xi
                h += 1
            digits.append(d)
        if len(digits) <= bound:
            g = _primitive(digits)[1]
            if len(g) == 1:
                return g, u, v
            if (cv := _cofactor(v, g)) is not None and (cu := _cofactor(u, g)) is not None:
                return g, cu, cv
        xi = 73794 * xi * math.isqrt(math.isqrt(xi)) // 27011
    return None


def _primitive_gcd(u: list[int], v: list[int]) -> tuple[list[int], Optional[list[int]], Optional[list[int]]]:
    """(g, u/g, v/g) for primitive lists u and v, not both empty, g their
    gcd as a primitive list with lc(g) > 0: by the heuristic gcd, which
    returns the quotients that certify it, and when that gives up, by the
    primitive remainder sequence, each pseudo-remainder divided by its
    content, whose last member, made positive, is g; nothing has divided by
    that g, so both quotients are then None."""
    if not (u or v):
        raise GcdOfZeros("gcd(0, 0) is undefined")
    found = _heuristic_gcd(u, v) if u and v else None
    if found is not None:
        return found
    x, y = u, v  # a shorter x leaves itself as the remainder: one swap
    while y:
        x, y = y, _primitive(_pseudo_rem(x, y))[1]
    return (x if x[-1] > 0 else [-c for c in x]), None, None


def gcd_cofactors(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """(g, a/g, b/g), g the monic gcd, from _primitive_gcd of the primitive
    parts u and v of the numerators; a g from the remainder sequence divides
    u and v exactly.  A constant g gives (ONE, a, b)."""
    ka, u = _primitive(list(a.nums))
    kb, v = _primitive(list(b.nums))
    g, cu, cv = _primitive_gcd(u, v)
    if len(g) == 1:
        return ONE, a, b
    if cu is None:
        cu, cv = _cofactor(u, g), _cofactor(v, g)
    ka, kb = ka * g[-1], kb * g[-1]
    return _poly(g, g[-1]), _poly([c * ka for c in cu], a.den), _poly([c * kb for c in cv], b.den)


def gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor: gcd_cofactors' g, with no cofactor
    Poly built."""
    g = _primitive_gcd(_primitive(list(a.nums))[1], _primitive(list(b.nums))[1])[0]
    return _poly(g, g[-1])


def derivative(p: Poly) -> Poly:
    return _poly([i * c for i, c in enumerate(p.nums) if i], p.den)


def compose(p: Poly, q: Poly) -> Poly:
    """p(q(t)) by Horner on the numerators.  With d = deg p and q = Q/e,
    e^d * p.den * p(q) = sum_i p.nums[i] * e^(d-i) * Q^i, so each step is
    acc <- acc*Q + p.nums[i]*e^(d-i) on integers, and the result is
    reduced once, over p.den * e^d."""
    if p.is_zero:
        return ZERO
    qs = q.nums or (0,)  # a zero q as the constant 0, so acc keeps its constant term
    acc = [p.nums[-1]]
    power = 1  # e^(d-i) at step i
    for c in reversed(p.nums[:-1]):
        acc = _convolve(acc, qs)
        power *= q.den
        acc[0] += c * power
    return _poly(acc, p.den * power)


def squarefree_part(p: Poly) -> Poly:
    """Monic product of the distinct irreducible factors of p, p/gcd(p, p')."""
    if p.is_zero:
        raise ZeroInput("squarefree part of 0 is undefined")
    return gcd_cofactors(p, derivative(p))[1].monic()


def squarefree_decomposition(p: Poly) -> list[tuple[int, Poly]]:
    """Yun decomposition: [(multiplicity, monic factor)], factors coprime,
    squarefree, nonconstant, with p = content * prod(factor^multiplicity).
    Yun's loop (SYMSAC 1976) runs on gcd cofactors: from c, d = p/g, p'/g
    for g = gcd(p, p'), y, c, d = gcd(c, d - c'), c/y, (d - c')/y."""
    if p.is_zero:
        raise ZeroInput("decomposition of 0 is undefined")
    out: list[tuple[int, Poly]] = []
    _, c, d = gcd_cofactors(p, derivative(p))
    i = 1
    while c.degree > 0:
        y, c, d = gcd_cofactors(c, d - derivative(c))
        if y.degree > 0:
            out.append((i, y))
        i += 1
    return out


def _int_nth_root(v: int, m: int) -> Optional[int]:
    """Exact integer m-th root of v >= 0, or None."""
    if v in (0, 1):
        return v
    if m == 2:
        r = math.isqrt(v)
        return r if r * r == v else None
    # Newton's iteration for floor(v^(1/m)), from the power of two above it;
    # it decreases strictly until it reaches the floor.
    r = 1 << -(-v.bit_length() // m)
    while True:
        nxt = ((m - 1) * r + v // r ** (m - 1)) // m
        if nxt >= r:
            break
        r = nxt
    return r if r**m == v else None


def _series_root(top: Sequence[int], lead: tuple[int, int], m: int) -> Optional[Poly]:
    """The polynomial P of degree h = len(top) - 1 whose m-th power begins
    with the coefficients alpha_0..alpha_h, highest first.  top holds
    integers proportional to them, and lead is alpha_0 itself, read by
    _pair with den > 0 and reduced by one gcd before the integer m-th root
    of each half is taken.  None when lead has no rational m-th root (even
    m takes the positive one).

    Read as series in s = 1/t, alpha is alpha(s) and t^(-h) * P is p(s), so
    p = alpha^(1/m) mod s^(h+1), by Miller's recurrence for powers of a
    series: p_k = sum_{j=1..k} ((m+1)j - mk) alpha_j p_(k-j) / (m k alpha_0).
    Only the ratios alpha_j / alpha_0 = top[j] / top[0] enter, and p_0..p_k
    are kept as integer numerators over their least common denominator: if
    that is den before step k, the sum S over the numerators gives
    p_k = S / (den * c) with c = m k top[0], and den grows by the factor
    c / gcd(S, c).  The caller certifies the candidate."""
    num, den = _pair(lead)
    g = math.gcd(num, den)
    root, den = _int_nth_root(abs(num) // g, m), _int_nth_root(den // g, m)
    if root is None or den is None or num < 0 and m % 2 == 0:
        return None
    if top[0] < 0:  # only the ratios enter; a positive top[0] keeps den positive
        top = [-x for x in top]
    nums = [-root if num < 0 else root]
    for k in range(1, len(top)):
        acc = 0
        for j in range(1, k + 1):
            if top[j]:
                acc += ((m + 1) * j - m * k) * top[j] * nums[k - j]
        c = m * k * top[0]
        g = math.gcd(acc, c)
        grow = c // g
        if grow != 1:
            nums = [x * grow for x in nums]
            den *= grow
        nums.append(acc // g)
    return _poly(nums[::-1], den)


def poly_sqrt(p: Poly) -> Optional[Poly]:
    """The square root with positive leading coefficient, or None when p is
    not the square of a rational polynomial."""
    if p.is_zero:
        return ZERO
    if p.degree % 2 != 0:
        return None
    root = _series_root(p.nums[p.degree // 2 :][::-1], (p.nums[-1], p.den), 2)
    if root is not None and root * root == p:
        return root
    return None


# -- text form ---------------------------------------------------------------
#
# Human syntax: terms joined by + or -, highest degree first on output, e.g.
# "t^4 - 2*t^2 + 1", "3/2*t", "-t", "0".  The parser also accepts terms in
# any order and repeated terms (they sum).  A coefficient is digits with an
# optional "/digits", the one rational form pellab reads from text; an
# integer option of the command line (cli.integer) is its numerator alone.
# Terms are matched by _TERM_RE; each coefficient's text is read by
# _rational_pair with str methods, digits of any script among them.

_UNSIGNED_RATIONAL = r"(\d+)(?:/(\d+))?"  # numerator, denominator
_TERM_RE = re.compile(
    rf"""\s*(?P<sign>[+-])?\s*
        (?:(?P<coeff>{_UNSIGNED_RATIONAL})\s*)?
        (?:(?(coeff)\*\s*)(?P<var>[a-zA-Z]\w*)\s*(?:\^\s*(?P<exp>\d+))?)?""",
    re.VERBOSE,
)

# Largest degree read from text or from a file: "t^k" builds a list of k + 1
# coefficients, and a file's list is parsed, before any other check.
MAX_DEGREE = 10_000


def _significant_digits(digits: str, pos: int) -> str:
    """A coefficient's run of digits, ready for int().  CPython refuses an
    int/str conversion past sys.get_int_max_str_digits() digits (4300 by
    default, 0 for none); the limit is process-wide, so it is read at each
    use and never raised here.  Leading zeros do not count (_significant);
    more significant digits than the limit is a PolyParseError at pos,
    where the run starts, that names it."""
    limit = sys.get_int_max_str_digits()
    digits = _significant(digits, limit)
    if 0 < limit < len(digits):
        raise PolyParseError(f"coefficient of {len(digits)} digits past the {limit}-digit limit", pos)
    return digits


def _rational_pair(text: str, at: int = 0) -> tuple[int, int]:
    """parse_rational's value as (numerator, denominator), not reduced; at
    is the offset of text in what it was read from, for error positions.
    strip and isdecimal take the characters a regex's \\s and \\d take."""
    body = text.strip()
    sign = body[:1] if body[:1] in ("+", "-") else ""
    num, slash, den = body[len(sign) :].partition("/")
    if not num.isdecimal() or slash and not den.isdecimal():
        raise ValueError(f"expected [sign]digits[/digits], got {text!r}")
    start = at + text.find(body) + len(sign)  # where the numerator's digits start
    n = int(sign + _significant_digits(num, start))
    d = int(_significant_digits(den, start + len(num) + 1)) if slash else 1
    if not d:
        raise ZeroDivisionError("zero denominator")
    return n, d


def parse_rational(text: str) -> tuple[int, int]:
    """A rational in the coefficient form of parse_poly, with an optional
    sign and surrounding space: "3", "-3/4", " +6/4 ", as the pair
    (numerator, denominator) in lowest terms with den > 0.  Decimals,
    exponents and every other form raise ValueError, in time linear in the
    text; a zero denominator raises ZeroDivisionError.  Leading zeros do
    not count toward CPython's limit on int/str conversion (4300 digits by
    default); more significant digits than that in the numerator or the
    denominator is a PolyParseError, a ValueError, at the start of those
    digits.

    >>> parse_rational("-6/4")
    (-3, 2)
    """
    num, den = _rational_pair(text)
    g = math.gcd(num, den)
    return num // g, den // g


def _exponent(m: re.Match) -> int:
    """The term's exponent, 1 when it has none, refused past MAX_DEGREE.
    Leading zeros, of any script, do not count, and no exponent longer than
    the bound reaches int(), which refuses more than 4300 digits."""
    digits = _significant(m.group("exp") or "1", len(str(MAX_DEGREE)))
    if len(digits) > len(str(MAX_DEGREE)) or int(digits) > MAX_DEGREE:
        raise PolyParseError(f"exponent past the degree bound {MAX_DEGREE}", m.start("exp"))
    return int(digits)


def parse_poly(text: str) -> Poly:
    """Parse human polynomial syntax, exponents up to MAX_DEGREE.  Raises
    PolyParseError with the offending position.  Each exponent's terms sum
    as integer (numerator, denominator) pairs, and the Poly is built once
    over the lcm of their denominators."""
    s = text
    pos = 0
    end = len(s)
    terms: dict[int, tuple[int, int]] = {}  # exponent: (numerator, denominator)
    first = True
    while True:
        while pos < end and s[pos].isspace():
            pos += 1
        if pos == end:
            break
        m = _TERM_RE.match(s, pos)  # every part is optional, so it always matches
        name = m.group("var")
        if m.group("coeff") is None and name is None:
            raise PolyParseError("expected a term", pos)
        if not first and m.group("sign") is None:
            raise PolyParseError("expected '+' or '-' between terms", pos)
        if name is not None and name != "t":
            raise PolyParseError(f"unknown variable {name!r}", m.start("var"))
        num, den = 1, 1
        if m.group("coeff") is not None:
            try:
                num, den = _rational_pair(m.group("coeff"), m.start("coeff"))
            except ZeroDivisionError:
                raise PolyParseError("zero denominator", m.start("coeff")) from None
        if m.group("sign") == "-":
            num = -num
        exp = 0 if name is None else _exponent(m)
        if exp in terms:  # a repeated term sums over the lcm of the two denominators
            n0, d0 = terms[exp]
            lcm = math.lcm(d0, den)
            num, den = n0 * (lcm // d0) + num * (lcm // den), lcm
        terms[exp] = num, den
        pos = m.end()
        first = False
    if first:
        raise PolyParseError("empty polynomial", 0)
    pairs = [(0, 1)] * (max(terms) + 1)
    for exp, pair in terms.items():
        pairs[exp] = pair
    return _from_pairs(pairs)


def _pair_strings(p: Poly) -> list[tuple[str, str]]:
    """Each coefficient of p as its numerator and denominator in lowest
    terms, in decimal, constant term first; 0 is ("0", "1")."""
    den = p.den
    out = []
    for c in p.nums:
        g = math.gcd(c, den)
        out.append((str(c // g), str(den // g)))
    return out


def _human_text(strings: list[tuple[str, str]]) -> str:
    """The canonical human form, highest degree first, from _pair_strings."""
    parts: list[str] = []
    for k in range(len(strings) - 1, -1, -1):
        num, den = strings[k]
        if num == "0":
            continue
        mag = num.lstrip("-")
        if k and mag == "1" and den == "1":
            body = "t" if k == 1 else f"t^{k}"
        else:
            body = mag if den == "1" else f"{mag}/{den}"
            if k:
                body += "*t" if k == 1 else f"*t^{k}"
        parts.append(" - " if num[0] == "-" else " + ")
        parts.append(body)
    if not parts:
        return "0"
    parts[0] = "-" if parts[0] == " - " else ""  # the leading term's sign
    return "".join(parts)


def format_poly(p: Poly) -> str:
    """Canonical human form, highest degree first."""
    return _human_text(_pair_strings(p))


def coeff_strings_and_text(p: Poly) -> tuple[list[str], str]:
    """The JSON form ["num/den", ...], from the constant term up, and
    format_poly's text, from one str() per numerator and denominator."""
    strings = _pair_strings(p)
    return [f"{num}/{den}" for num, den in strings], _human_text(strings)


def from_coeff_strings(items: list[Union[str, int]]) -> Poly:
    """Inverse of coeff_strings_and_text's list: a list of at most
    MAX_DEGREE + 1 strings in parse_rational's form ("num/den" or "num") or
    bare integers, counted before any is parsed.  Anything else, a float, a
    bool, a decimal or exponent string, a bare string for the list, is a
    PolyParseError."""
    if not isinstance(items, list):
        raise PolyParseError(f"coefficients must be a list, not {type(items).__name__}", 0)
    if len(items) > MAX_DEGREE + 1:
        raise PolyParseError(f"more coefficients than the degree bound {MAX_DEGREE} allows", MAX_DEGREE + 1)
    pairs = []
    for i, item in enumerate(items):
        # A JSON float is inexact; null, true and objects are no coefficients.
        if type(item) not in (str, int):
            raise PolyParseError(f"bad coefficient {item!r}: not a string or an integer", i)
        try:
            pairs.append((item, 1) if type(item) is int else _rational_pair(item))
        except PolyParseError as exc:  # the digit limit: the item is too long to echo
            raise PolyParseError(exc.message, i) from None
        except (ValueError, ZeroDivisionError) as exc:
            raise PolyParseError(f"bad coefficient {item!r}: {exc}", i) from None
    return _from_pairs(pairs)
