"""Small exact polynomial and permutation helpers for making inputs and
checking outputs.

The benchmark keeps its own arithmetic on purpose: it must not use the code
it measures to build its inputs or to judge its answers.  Polynomials are
lists of coefficients (int or Fraction), constant term first, with no
trailing zeros.  Checks evaluate at integer points in plain-int arithmetic.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

# Points at which every polynomial identity is checked.
POINTS = (-3, -1, 0, 1, 2, 5)


def trim(a: list) -> list:
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def add(a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return trim(out)


def scale(a: list, k) -> list:
    return trim([k * c for c in a])


def mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return trim(out)


def power(a: list, k: int) -> list:
    out = [1]
    for _ in range(k):
        out = mul(out, a)
    return out


def derivative(a: list) -> list:
    return trim([i * c for i, c in enumerate(a)][1:])


def is_squarefree(a: list) -> bool:
    """gcd(a, a') is constant, by the Euclidean algorithm over Fractions."""
    x = [Fraction(c) for c in a]
    y = [Fraction(c) for c in derivative(a)]
    while y:
        while len(x) >= len(y) and x:
            q = x[-1] / y[-1]
            shift = len(x) - len(y)
            x = trim([c - (q * y[i - shift] if i >= shift else 0) for i, c in enumerate(x)])
        x, y = y, x
    return len(x) == 1


def chebyshev_of(x: list, m: int) -> list:
    """T_m(x(t)) by the three-term recurrence."""
    prev, cur = [1], x
    if m == 0:
        return prev
    for _ in range(m - 1):
        prev, cur = cur, add(scale(mul(x, cur), 2), scale(prev, -1))
    return cur


# -- text forms ---------------------------------------------------------------


def coeff_strings(nums: list, den: int = 1) -> list[str]:
    """JSON coefficient form "num/den" of nums/den, lowest terms."""
    out = []
    for c in nums:
        f = Fraction(c, den) if isinstance(c, int) else Fraction(c) / den
        out.append(f"{f.numerator}/{f.denominator}")
    return out


def human(coeffs: list, var: str = "t") -> str:
    """Command-line syntax, e.g. "3/2*t^4 - t + 7"."""
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = Fraction(coeffs[k])
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            mono = var if k == 1 else f"{var}^{k}"
            body = mono if mag == 1 else f"{mag}*{mono}"
        parts.append(("-" if c < 0 else "+", body))
    if not parts:
        return "0"
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    return text + "".join(f" {s} {b}" for s, b in parts[1:])


_TERM = re.compile(r"\s*([+-])?\s*(?:(\d+(?:/\d+)?)(?:\*t(?:\^(\d+))?)?|t(?:\^(\d+))?)")


def parse_human(text: str) -> list[Fraction]:
    """Inverse of human() for the canonical output form."""
    terms: dict[int, Fraction] = {}
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot parse polynomial {text!r} at {pos}")
        sign = -1 if m.group(1) == "-" else 1
        if m.group(2) is not None:
            coeff = Fraction(m.group(2))
            exp = 0 if m.group(0).find("t") < 0 else int(m.group(3) or 1)
        else:
            coeff = Fraction(1)
            exp = int(m.group(4) or 1)
        terms[exp] = terms.get(exp, Fraction(0)) + sign * coeff
        pos = m.end()
    out = [Fraction(0)] * (max(terms) + 1 if terms else 0)
    for e, c in terms.items():
        out[e] = c
    return trim(out)


def int_form(coeffs) -> tuple[list[int], int]:
    """(integer numerators, common denominator) of rational coefficients,
    given as Fractions or as "num/den" strings."""
    fr = [Fraction(c) for c in coeffs]
    den = lcm(*(f.denominator for f in fr)) if fr else 1
    return [f.numerator * (den // f.denominator) for f in fr], den


def horner(nums: list[int], x: int) -> int:
    acc = 0
    for c in reversed(nums):
        acc = acc * x + c
    return acc


def chebyshev_at(num: int, den: int, m: int) -> int:
    """T_m(num/den) * den^m, exactly."""
    prev, cur = 1, num
    if m == 0:
        return prev
    for _ in range(m - 1):
        prev, cur = cur, 2 * num * cur - den * den * prev
    return cur


def pell_holds(A, B, D) -> bool:
    """A^2 - D*B^2 = 1 at every check point."""
    (an, ad), (bn, bd), (dn, dd) = int_form(A), int_form(B), int_form(D)
    for x in POINTS:
        a, b, d = horner(an, x), horner(bn, x), horner(dn, x)
        if a * a * dd * bd * bd - d * b * b * ad * ad != ad * ad * dd * bd * bd:
            return False
    return True


# -- permutations in cycle notation ---------------------------------------------


def cycles_text(cycles) -> str:
    """Canonical cycle notation: each cycle from its least point, sorted."""
    out = []
    for c in cycles:
        c = list(c)
        if len(c) < 2:
            continue
        k = c.index(min(c))
        out.append(c[k:] + c[:k])
    out.sort()
    return "".join("(" + ",".join(map(str, c)) + ")" for c in out) or "()"


def cycles_of(img: list[int]) -> list[list[int]]:
    """Nontrivial cycles of a one-based image list (img[0] unused)."""
    seen = [False] * len(img)
    out = []
    for s in range(1, len(img)):
        if seen[s]:
            continue
        c, x = [], s
        while not seen[x]:
            seen[x] = True
            c.append(x)
            x = img[x]
        if len(c) > 1:
            out.append(c)
    return out
