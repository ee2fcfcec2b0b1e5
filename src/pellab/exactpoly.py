"""Exact univariate polynomial arithmetic over the rationals.

Polynomials are dense coefficient tuples, constant term first, trailing
zeros trimmed.  The zero polynomial has an empty tuple and degree -1.
Coefficients are fractions.Fraction at the API; nothing here ever touches
floats, so equality of computed values is meaningful.

The kernels work on integers: each operand is brought to integer numerators
over the lcm of its denominators, and fractions are built once, from the
integer result.  A product convolves the numerators.  Division is
pseudo-division, scale*a = q*b + r with scale a divisor of lc(b)^(deg a -
deg b + 1).  The gcd and the resultant follow the primitive remainder
sequence: each pseudo-remainder is divided by its content, the gcd of its
coefficients, so the coefficients stay small and no step reduces a fraction
per coefficient.  Exact integer m-th roots use an integer Newton iteration,
and every sequence runs in a loop, so nothing depends on float range or on
the recursion limit.
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
    if isinstance(value, Rat):
        return value
    return Rat(value)


def _integer_numerators(coeffs: Sequence[Rat]) -> tuple[list[int], int]:
    """Numerators over the lcm of the denominators, and that lcm."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


@dataclass(frozen=True)
class Poly:
    """Immutable rational polynomial.

    >>> p = Poly([1, 0, -2])
    >>> p.degree
    2
    >>> p(Rat(3))
    Fraction(-17, 1)
    """

    coeffs: tuple[Rat, ...]

    def __init__(self, coeffs: Iterable[RatLike] = ()):
        cs = [_rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Rat:
        if self.is_zero:
            raise ZeroInput("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int) -> Rat:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Rat(0)

    def monic(self) -> "Poly":
        if self.is_zero:
            raise ZeroInput("cannot normalize the zero polynomial")
        lc = self.leading
        if lc == 1:
            return self
        return Poly(c / lc for c in self.coeffs)

    def __call__(self, x: RatLike) -> Rat:
        x = _rat(x)
        acc = Rat(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly(-c for c in self.coeffs)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero or other.is_zero:
            return ZERO
        a, den_a = _integer_numerators(self.coeffs)
        b, den_b = _integer_numerators(other.coeffs)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for k, y in enumerate(b, i):
                    out[k] += x * y
        den = den_a * den_b
        return Poly(Rat(c, den) for c in out)

    def scale(self, k: RatLike) -> "Poly":
        k = _rat(k)
        return Poly(k * c for c in self.coeffs)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        acc = ONE
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def shift(self, k: int) -> "Poly":
        """Multiply by t^k."""
        if self.is_zero:
            return self
        return Poly((Rat(0),) * k + self.coeffs)

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Poly({format_poly(self)!r})"


ZERO = Poly()
ONE = Poly([1])
X = Poly([0, 1])


def constant(c: RatLike) -> Poly:
    return Poly([_rat(c)])


def _pseudo_divrem(a: list[int], b: list[int]) -> tuple[list[int], list[int], int]:
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
    the integer numerators, scale*na = nq*nb + nr, then q = nq*den_b /
    (scale*den_a) and r = nr / (scale*den_a)."""
    if b.is_zero:
        raise DivByZeroPoly("division by the zero polynomial")
    if a.degree < b.degree:
        return ZERO, a
    na, den_a = _integer_numerators(a.coeffs)
    nb, den_b = _integer_numerators(b.coeffs)
    nq, nr, scale = _pseudo_divrem(na, nb)
    den = scale * den_a
    return Poly(Rat(c * den_b, den) for c in nq), Poly(Rat(c, den) for c in nr)


def exact_div(a: Poly, b: Poly) -> Poly:
    q, r = divrem(a, b)
    if not r.is_zero:
        raise ValueError("division is not exact")
    return q


def gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor, by the primitive remainder sequence
    on integer numerators: each pseudo-remainder is divided by its content,
    and the last nonzero one is made monic."""
    if a.is_zero and b.is_zero:
        raise GcdOfZeros("gcd(0, 0) is undefined")
    _, u = _primitive(_integer_numerators(a.coeffs)[0])
    _, v = _primitive(_integer_numerators(b.coeffs)[0])
    if len(u) < len(v):
        u, v = v, u
    while v:
        _, r, _ = _pseudo_divrem(u, v)
        u, v = v, _primitive(r)[1]
    return Poly(Rat(c, u[-1]) for c in u)


def derivative(p: Poly) -> Poly:
    return Poly(i * c for i, c in enumerate(p.coeffs) if i > 0)


def compose(p: Poly, q: Poly) -> Poly:
    """p(q(t)) by Horner in q."""
    acc = ZERO
    for c in reversed(p.coeffs):
        acc = acc * q + constant(c)
    return acc


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
    g = gcd(p, derivative(p))
    c = exact_div(p.monic(), g)
    d = exact_div(derivative(p.monic()), g) - derivative(c)
    i = 1
    while c.degree > 0:
        y = gcd(c, d) if not d.is_zero else c.monic()
        if y.degree > 0:
            out.append((i, y))
        c = exact_div(c, y)
        d = exact_div(d, y) - derivative(c)
        i += 1
    return out


def resultant(a: Poly, b: Poly) -> Rat:
    """Resultant along the primitive remainder sequence of the integer
    numerators, by the reduction rules res(a, b) = (-1)^(deg a deg b) res(b, a),
    res(c*a, b) = c^(deg b) res(a, b), and, for deg a >= deg b with
    a = q*b + r, res(a, b) = (-1)^(deg a deg b) lc(b)^(deg a - deg r) res(b, r).
    A pseudo-remainder scale*r = content*primitive enters as the factor
    (content/scale)^(deg b), so no coefficient is ever a fraction."""
    if a.is_zero or b.is_zero:
        return Rat(0)
    if a.degree == 0 or b.degree == 0:
        return a.leading ** b.degree * b.leading ** a.degree
    na, den_a = _integer_numerators(a.coeffs)
    nb, den_b = _integer_numerators(b.coeffs)
    cu, u = _primitive(na)
    cv, v = _primitive(nb)
    factor = Rat(cu, den_a) ** b.degree * Rat(cv, den_b) ** a.degree
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


def poly_sqrt(p: Poly) -> Optional[Poly]:
    """The square root with positive leading coefficient, or None when p is
    not the square of a rational polynomial."""
    if p.is_zero:
        return ZERO
    if p.degree % 2 != 0:
        return None
    if p.leading < 0:
        return None
    s = rat_nth_root(p.leading, 2)
    if s is None:
        return None
    k = p.degree // 2
    q = [Rat(0)] * (k + 1)
    q[k] = s
    for i in range(1, k + 1):
        acc = p.coeff(2 * k - i)
        for j in range(1, i):
            acc -= q[k - j] * q[k - i + j]
        q[k - i] = acc / (2 * s)
    root = Poly(q)
    if root * root == p:
        return root
    return None


# -- text form ---------------------------------------------------------------
#
# Human syntax: terms joined by + or -, highest degree first on output, e.g.
# "t^4 - 2*t^2 + 1", "3/2*t", "-t", "0".  The parser also accepts terms in
# any order and repeated terms (they sum).

_TERM_RE = re.compile(
    r"""\s*(?P<sign>[+-])?\s*
        (?:
            (?P<coeff>\d+(?:/\d+)?)\s*(?:\*\s*(?P<varc>[a-zA-Z]\w*)\s*(?:\^\s*(?P<expc>\d+))?)?
          | (?P<varb>[a-zA-Z]\w*)\s*(?:\^\s*(?P<expb>\d+))?
        )""",
    re.VERBOSE,
)


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
    """Inverse of to_coeff_strings; also accepts bare integers and
    "num" strings.  Anything else, a float, a bool or a bare string among
    them, is a PolyParseError."""
    if not isinstance(items, list):
        raise PolyParseError(f"coefficients must be a list, not {type(items).__name__}", 0)
    out = []
    for i, item in enumerate(items):
        # A JSON float is inexact; null, true and objects are no coefficients.
        if type(item) not in (str, int):
            raise PolyParseError(f"bad coefficient {item!r}: not a string or an integer", i)
        try:
            out.append(Rat(item))
        except (ValueError, ZeroDivisionError) as exc:
            raise PolyParseError(f"bad coefficient {item!r}: {exc}", i) from None
    return Poly(out)
