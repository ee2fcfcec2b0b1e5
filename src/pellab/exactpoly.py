"""Exact univariate polynomial arithmetic over the rationals.

A Poly is stored as integer numerators over one denominator: nums, constant
term first with trailing zeros trimmed, and den > 0, in lowest terms
(gcd(den, *nums) == 1).  The zero polynomial has nums == () and degree -1.
Nothing here ever touches floats, so equality of computed values is
meaningful, and equal polynomials have equal stored pairs.

The kernels read and write the stored integers directly; fractions.Fraction
appears only at the API edge (coeffs, coeff, leading, evaluation, parsing
and printing).  A product convolves the numerators.  Composition runs
Horner on the numerators of the inner polynomial, with the powers of its
denominator folded into the outer coefficients.  Division is
pseudo-division, scale*a = q*b + r with scale a divisor of lc(b)^(deg a -
deg b + 1).  The gcd and the resultant follow the primitive remainder
sequence: each pseudo-remainder is divided by its content, the gcd of its
coefficients, so the coefficients stay small.  Each result is reduced once,
by one gcd of its denominator and numerators.  The series m-th root keeps
its coefficients as integer numerators over one common denominator.  Exact
integer m-th roots use an integer Newton iteration, and every sequence runs
in a loop, so nothing depends on float range or on the recursion limit.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

Rat = Fraction

RatLike = Union[Rat, int, str]


class DivByZeroPoly(ZeroDivisionError):
    """Division or reduction by the zero polynomial."""


class GcdOfZeros(ValueError):
    """gcd(0, 0) is undefined."""


class ZeroInput(ValueError):
    """Operation not defined for the zero polynomial."""


class DegreeTooSmall(ValueError):
    """Operation needs a polynomial of positive degree."""


class PolyParseError(ValueError):
    """Bad polynomial text; .pos is the 0-based offset of the problem."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


def _rat(value: RatLike) -> Rat:
    """A Fraction, an int, or a string in parse_rational's form.  A float
    or a bool is a TypeError: a binary float is no exact input."""
    if isinstance(value, Rat):
        return value
    if isinstance(value, str):
        return parse_rational(value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"expected a Fraction, int or rational string, not {type(value).__name__}")
    return Rat(value)


@dataclass(frozen=True, init=False)
class Poly:
    """Immutable rational polynomial, nums/den in lowest terms.

    >>> p = Poly([1, 0, -2])
    >>> p.degree
    2
    >>> p(Rat(3))
    Fraction(-17, 1)
    >>> h = Poly([Rat(1, 2), Rat(2, 4)])
    >>> h.nums, h.den
    ((1, 1), 2)
    """

    nums: tuple[int, ...]
    den: int

    def __new__(cls, coeffs: Iterable[RatLike] = ()) -> "Poly":
        cs = [_rat(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
        return _poly([c.numerator * (den // c.denominator) for c in cs], den)

    @property
    def coeffs(self) -> tuple[Rat, ...]:
        """The coefficients as fractions, constant term first."""
        return tuple(Rat(c, self.den) for c in self.nums)

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    @property
    def is_zero(self) -> bool:
        return not self.nums

    @property
    def leading(self) -> Rat:
        if self.is_zero:
            raise ZeroInput("zero polynomial has no leading coefficient")
        return Rat(self.nums[-1], self.den)

    def coeff(self, k: int) -> Rat:
        if 0 <= k < len(self.nums):
            return Rat(self.nums[k], self.den)
        return Rat(0)

    def monic(self) -> "Poly":
        if self.is_zero:
            raise ZeroInput("cannot normalize the zero polynomial")
        return _poly(list(self.nums), self.nums[-1])

    def __call__(self, x: RatLike) -> Rat:
        x = _rat(x)
        acc = Rat(0)
        for c in reversed(self.nums):
            acc = acc * x + c
        return acc / self.den

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
        return _poly(_convolve(self.nums, other.nums), self.den * other.den)

    def scale(self, k: RatLike) -> "Poly":
        k = _rat(k)
        return _poly([c * k.numerator for c in self.nums], self.den * k.denominator)

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

    def shift(self, k: int) -> "Poly":
        """Multiply by t^k."""
        return _poly([0] * k + list(self.nums), self.den)

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Poly({format_poly(self)!r})"


def _convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The product of two integer coefficient lists, untrimmed."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for k, y in enumerate(b, i):
                out[k] += x * y
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


ZERO = Poly()
ONE = Poly([1])
X = Poly([0, 1])


def constant(c: RatLike) -> Poly:
    return Poly([c])


def _pseudo_divrem(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int], int]:
    """Pseudo-division of integer coefficient lists, len(a) >= len(b) >= 1:
    scale*a = q*b + r with len(r) = len(b) - 1 (not trimmed).

    Each step multiplies by lc(b)/g, g = gcd(lc(b), leading remainder term),
    so scale divides lc(b)^(deg a - deg b + 1) and is 1 when lc(b) divides
    every leading term.  A coefficient below the current window is multiplied
    by the scale so far only when the window reaches it."""
    rem = list(a)
    db = len(b) - 1
    lb = b[-1]
    steps = len(a) - db
    quo = [0] * steps
    mults = [1] * steps
    scale = 1
    for i in range(steps - 1, -1, -1):
        rem[i] *= scale
        c = rem[i + db]
        if not c:
            continue
        g = math.gcd(c, lb)
        f, c = lb // g, c // g
        quo[i] = c
        for j in range(i, i + db):
            rem[j] = f * rem[j] - c * b[j - i]
        mults[i] = f
        scale *= f
    later = 1  # product of the multipliers of the steps after step i
    for i in range(steps):
        quo[i] *= later
        later *= mults[i]
    return quo, rem[:db], scale


def _primitive(cs: list[int]) -> tuple[int, list[int]]:
    """The content (gcd of the entries, 0 for none) and the primitive part
    of cs, with trailing zeros dropped."""
    while cs and not cs[-1]:
        cs.pop()
    g = math.gcd(*cs)
    return g, [c // g for c in cs] if g > 1 else cs


def divrem(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Euclidean division: a = q*b + r with deg r < deg b.  Pseudo-divides
    the numerators, scale*a.nums = nq*b.nums + nr, then q = nq*b.den /
    (scale*a.den) and r = nr / (scale*a.den)."""
    if b.is_zero:
        raise DivByZeroPoly("division by the zero polynomial")
    if a.degree < b.degree:
        return ZERO, a
    nq, nr, scale = _pseudo_divrem(a.nums, b.nums)
    return _poly([c * b.den for c in nq], scale * a.den), _poly(nr, scale * a.den)


def exact_div(a: Poly, b: Poly) -> Poly:
    q, r = divrem(a, b)
    if not r.is_zero:
        raise ValueError("division is not exact")
    return q


def gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor, by the primitive remainder sequence
    on the numerators: each pseudo-remainder is divided by its content,
    and the last nonzero one is made monic."""
    if a.is_zero and b.is_zero:
        raise GcdOfZeros("gcd(0, 0) is undefined")
    _, u = _primitive(list(a.nums))
    _, v = _primitive(list(b.nums))
    if len(u) < len(v):
        u, v = v, u
    while v:
        _, r, _ = _pseudo_divrem(u, v)
        u, v = v, _primitive(r)[1]
    return _poly(u, u[-1])


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
    """Monic product of the distinct irreducible factors of p."""
    if p.is_zero:
        raise ZeroInput("squarefree part of 0 is undefined")
    if p.degree == 0:
        return ONE
    return exact_div(p, gcd(p, derivative(p))).monic()


def squarefree_decomposition(p: Poly) -> list[tuple[int, Poly]]:
    """Yun decomposition: [(multiplicity, monic factor)], factors coprime,
    squarefree, nonconstant, with p = content * prod(factor^multiplicity)."""
    if p.is_zero:
        raise ZeroInput("decomposition of 0 is undefined")
    if p.degree == 0:
        return []
    out: list[tuple[int, Poly]] = []
    q = p.monic()
    dq = derivative(q)
    g = gcd(q, dq)
    c = exact_div(q, g)
    d = exact_div(dq, g) - derivative(c)
    i = 1
    while c.degree > 0:
        y = gcd(c, d)
        if y.degree > 0:
            out.append((i, y))
        c = exact_div(c, y)
        d = exact_div(d, y) - derivative(c)
        i += 1
    return out


def resultant(a: Poly, b: Poly) -> Rat:
    """Resultant along the primitive remainder sequence of the numerators,
    by the reduction rules res(a, b) = (-1)^(deg a deg b) res(b, a),
    res(c*a, b) = c^(deg b) res(a, b), and, for deg a >= deg b with
    a = q*b + r, res(a, b) = (-1)^(deg a deg b) lc(b)^(deg a - deg r) res(b, r).
    A pseudo-remainder scale*r = content*primitive enters as the factor
    (content/scale)^(deg b), so no coefficient is ever a fraction."""
    if a.is_zero or b.is_zero:
        return Rat(0)
    if a.degree == 0 or b.degree == 0:
        return a.leading ** b.degree * b.leading ** a.degree
    cu, u = _primitive(list(a.nums))
    cv, v = _primitive(list(b.nums))
    factor = Rat(cu, a.den) ** b.degree * Rat(cv, b.den) ** a.degree
    if len(u) < len(v):
        u, v = v, u
        if a.degree * b.degree % 2:
            factor = -factor
    while len(v) > 1:
        m, n = len(u) - 1, len(v) - 1
        _, r, scale = _pseudo_divrem(u, v)
        c, r = _primitive(r)
        if not r:
            return Rat(0)
        factor *= v[-1] ** (m - len(r) + 1) * Rat(c, scale) ** n
        if m * n % 2:
            factor = -factor
        u, v = v, r
    return factor * v[0] ** (len(u) - 1)


def discriminant(p: Poly) -> Rat:
    """disc(p) = (-1)^(d(d-1)/2) res(p, p') / lc(p); zero iff p has a
    repeated root."""
    d = p.degree
    if d < 1:
        raise DegreeTooSmall("discriminant needs degree >= 1")
    sign = Rat(-1) ** (d * (d - 1) // 2)
    return sign * resultant(p, derivative(p)) / p.leading


def _int_nth_root(v: int, m: int) -> Optional[int]:
    """Exact integer m-th root of v >= 0, or None."""
    if v < 0:
        return None
    if v in (0, 1):
        return v
    if m == 1:
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


def rat_nth_root(x: Rat, m: int) -> Optional[Rat]:
    """Exact rational m-th root, or None.  Even m needs x >= 0 and returns
    the nonnegative root; odd m keeps the sign."""
    if m < 1:
        raise ValueError("root index must be positive")
    neg = x < 0
    if neg and m % 2 == 0:
        return None
    num = _int_nth_root(abs(x.numerator), m)
    den = _int_nth_root(x.denominator, m)
    if num is None or den is None:
        return None
    r = Rat(num, den)
    return -r if neg else r


def _series_root(top: Sequence[int], lead: Rat, m: int) -> Optional[Poly]:
    """The polynomial P of degree h = len(top) - 1 whose m-th power begins
    with the coefficients alpha_0..alpha_h, highest first.  top holds
    integers proportional to them, and lead is alpha_0 itself.  None when
    lead has no rational m-th root (even m takes the positive one).

    Read as series in s = 1/t, alpha is alpha(s) and t^(-h) * P is p(s), so
    p = alpha^(1/m) mod s^(h+1), by Miller's recurrence for powers of a
    series: p_k = sum_{j=1..k} ((m+1)j - mk) alpha_j p_(k-j) / (m k alpha_0).
    Only the ratios alpha_j / alpha_0 = top[j] / top[0] enter, and p_0..p_k
    are kept as integer numerators over their least common denominator: if
    that is den before step k, the sum S over the numerators gives
    p_k = S / (den * c) with c = m k top[0], and den grows by the factor
    c / gcd(S, c).  The caller certifies the candidate."""
    a = rat_nth_root(lead, m)
    if a is None:
        return None
    if top[0] < 0:  # only the ratios enter; a positive top[0] keeps den positive
        top = [-x for x in top]
    nums = [a.numerator]
    den = a.denominator
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
    root = _series_root(p.nums[p.degree // 2 :][::-1], p.leading, 2)
    if root is not None and root * root == p:
        return root
    return None


# -- text form ---------------------------------------------------------------
#
# Human syntax: terms joined by + or -, highest degree first on output, e.g.
# "t^4 - 2*t^2 + 1", "3/2*t", "-t", "0".  The parser also accepts terms in
# any order and repeated terms (they sum).  A coefficient is digits with an
# optional "/digits", the one rational form pellab reads from text; an
# integer option of the command line is its numerator alone.

_UNSIGNED_RATIONAL = r"\d+(?:/\d+)?"
_INTEGER_RE = re.compile(r"\s*[+-]?\d+\s*")
_RATIONAL_RE = re.compile(rf"\s*[+-]?{_UNSIGNED_RATIONAL}\s*")
_TERM_RE = re.compile(
    rf"""\s*(?P<sign>[+-])?\s*
        (?:
            (?P<coeff>{_UNSIGNED_RATIONAL})\s*(?:\*\s*(?P<varc>[a-zA-Z]\w*)\s*(?:\^\s*(?P<expc>\d+))?)?
          | (?P<varb>[a-zA-Z]\w*)\s*(?:\^\s*(?P<expb>\d+))?
        )""",
    re.VERBOSE,
)


def parse_rational(text: str) -> Rat:
    """A rational in the coefficient form of parse_poly, with an optional
    sign and surrounding space: "3", "-3/4", " +6/4 ".  Decimals, exponents
    and every other form raise ValueError, in time linear in the text; a
    zero denominator raises ZeroDivisionError.

    >>> parse_rational("-6/4")
    Fraction(-3, 2)
    """
    if not _RATIONAL_RE.fullmatch(text):
        raise ValueError(f"expected [sign]digits[/digits], got {text!r}")
    try:
        return Rat(text)
    except ZeroDivisionError:
        raise ZeroDivisionError("zero denominator") from None


def parse_integer(text: str) -> int:
    """An integer in parse_rational's form without the "/digits": "12",
    " -3 ".  Underscores, other bases and every other form raise ValueError.

    >>> parse_integer("+12")
    12
    """
    if not _INTEGER_RE.fullmatch(text):
        raise ValueError(f"expected [sign]digits, got {text!r}")
    return int(text)


def parse_poly(text: str, var: str = "t") -> Poly:
    """Parse human polynomial syntax.  Raises PolyParseError with the
    offending position."""
    s = text
    pos = 0
    end = len(s)
    terms: dict[int, Rat] = {}
    first = True
    while True:
        while pos < end and s[pos].isspace():
            pos += 1
        if pos == end:
            break
        m = _TERM_RE.match(s, pos)
        if not m or m.start() != pos:
            raise PolyParseError("expected a term", pos)
        if not first and m.group("sign") is None:
            raise PolyParseError("expected '+' or '-' between terms", pos)
        sign = -1 if m.group("sign") == "-" else 1
        name = m.group("varc") or m.group("varb")
        if name is not None and name != var:
            offset = m.start("varc") if m.group("varc") else m.start("varb")
            raise PolyParseError(f"unknown variable {name!r}", offset)
        if m.group("coeff") is not None:
            try:
                coeff = Rat(m.group("coeff"))
            except ZeroDivisionError:
                raise PolyParseError("zero denominator", m.start("coeff")) from None
            if m.group("varc") is not None:
                exp = int(m.group("expc")) if m.group("expc") else 1
            else:
                exp = 0
        else:
            coeff = Rat(1)
            exp = int(m.group("expb")) if m.group("expb") else 1
        terms[exp] = terms.get(exp, Rat(0)) + sign * coeff
        pos = m.end()
        first = False
    if first:
        raise PolyParseError("empty polynomial", 0)
    out = [Rat(0)] * (max(terms) + 1)
    for exp, c in terms.items():
        out[exp] = c
    return Poly(out)


def format_poly(p: Poly, var: str = "t") -> str:
    """Canonical human form, highest degree first."""
    if p.is_zero:
        return "0"
    parts: list[str] = []
    for k in range(p.degree, -1, -1):
        c = p.coeff(k)
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if k == 0:
            body = str(mag)
        elif mag == 1:
            body = var if k == 1 else f"{var}^{k}"
        else:
            body = f"{mag}*{var}" if k == 1 else f"{mag}*{var}^{k}"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def to_coeff_strings(p: Poly) -> list[str]:
    """JSON form: ["num/den", ...] from the constant term up."""
    return [f"{c.numerator}/{c.denominator}" for c in p.coeffs]


def from_coeff_strings(items: list[Union[str, int]]) -> Poly:
    """Inverse of to_coeff_strings: a list of strings in parse_rational's
    form ("num/den" or "num") or bare integers.  Anything else, a float, a
    bool, a decimal or exponent string, or a bare string for the list, is a
    PolyParseError."""
    if not isinstance(items, list):
        raise PolyParseError(f"coefficients must be a list, not {type(items).__name__}", 0)
    out = []
    for i, item in enumerate(items):
        # A JSON float is inexact; null, true and objects are no coefficients.
        if type(item) not in (str, int):
            raise PolyParseError(f"bad coefficient {item!r}: not a string or an integer", i)
        try:
            out.append(Rat(item) if type(item) is int else parse_rational(item))
        except (ValueError, ZeroDivisionError) as exc:
            raise PolyParseError(f"bad coefficient {item!r}: {exc}", i) from None
    return Poly(out)
