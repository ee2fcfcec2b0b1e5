"""gcd, resultant and squarefree_decomposition against sympy.

sympy is a test-only oracle: the whole module is skipped when it is not
installed, and pellab never imports it.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pellab.exactpoly import Poly, gcd, squarefree_decomposition

from oracles import resultant

sympy = pytest.importorskip("sympy")
from sympy.polys.subresultants_qq_zz import res_q

T = sympy.Symbol("t")

rationals = st.one_of(
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)),
    st.builds(Fraction, st.integers(-(2**80), 2**80), st.integers(1, 2**70)),
)
rational_polys = st.lists(rationals, max_size=6).map(Poly)
nonzero_polys = rational_polys.filter(lambda p: not p.is_zero)
factors = st.lists(rationals, min_size=2, max_size=4).map(Poly).filter(lambda p: p.degree > 0)


def to_sympy(p: Poly):
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    return sympy.Poly(coeffs or [0], T, domain=sympy.QQ)


def from_sympy(p) -> Poly:
    return Poly(Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs()))


@settings(deadline=None)
@given(rational_polys, rational_polys, rational_polys)
def test_gcd_matches_sympy(a, b, common):
    a, b = a * common, b * common
    if a.is_zero and b.is_zero:
        return
    assert gcd(a, b) == from_sympy(sympy.gcd(to_sympy(a), to_sympy(b))).monic()


@settings(deadline=None)
@given(nonzero_polys, nonzero_polys)
@example(Poly([1, 1]), Poly([0, 0, 0, 1]))
def test_resultant_matches_sympy(a, b):
    # sympy's Euclidean resultant over Q (it refuses the zero polynomial).
    # Not Poly.resultant: in sympy 1.14 that has the wrong sign when
    # deg a < deg b and both are odd, e.g. 1 for res(t + 1, t^3) = -1.
    expected = sympy.Rational(res_q(to_sympy(a).as_expr(), to_sympy(b).as_expr(), T))
    assert resultant(a, b) == Fraction(int(expected.p), int(expected.q))


@settings(deadline=None, max_examples=50)
@given(factors, factors, factors, st.integers(1, 3))
def test_squarefree_decomposition_matches_sympy_sqf_list(f, g, h, k):
    # Repeated factors with multiplicities k, k + 1 and k + 3, which merge
    # or split when f, g, h share roots.
    p = f**k * g ** (k + 1) * h ** (k + 3)
    _, expected = to_sympy(p).sqf_list()
    assert squarefree_decomposition(p) == sorted(
        (mult, from_sympy(fac).monic()) for fac, mult in expected
    )
