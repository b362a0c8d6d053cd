"""Kernel multiply, division and folded remainders checked against sympy's Poly over ZZ.

sympy is an independent implementation of the same ring arithmetic, so a
shared bug in ``_mul_lists`` and its schoolbook reference would show here.
It is in the ``test`` extra; the module is skipped without it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcong.congruence import rem_mod
from qcong.poly import IntPoly
from qcong.qcomb import q_int

sympy = pytest.importorskip("sympy")

Q = sympy.Symbol("q")
BIG = 2 ** 256

coeff_st = st.integers(min_value=-BIG, max_value=BIG)
poly_st = st.lists(coeff_st, max_size=60).map(IntPoly)


def to_sympy(p):
    return sympy.Poly(list(reversed(p.coeffs)) or [0], Q, domain="ZZ")


def from_sympy(poly):
    return IntPoly([int(c) for c in reversed(poly.all_coeffs())])


@given(poly_st, poly_st)
@settings(max_examples=200, deadline=None)
def test_mul_matches_sympy(a, b):
    assert a * b == from_sympy(to_sympy(a) * to_sympy(b))


@given(poly_st, st.lists(coeff_st, max_size=20), st.sampled_from([1, -1]))
@settings(max_examples=200, deadline=None)
def test_divrem_matches_sympy(a, body, lead):
    b = IntPoly(body + [lead])
    quot, rem = to_sympy(a).div(to_sympy(b))
    assert a.divrem(b) == (from_sympy(quot), from_sympy(rem))


MODULI = [(n, e) for n in range(1, 26) for e in (1, 2)]  # [n]^e as (n, e)


@given(st.lists(st.integers(min_value=-2 ** 200, max_value=2 ** 200), max_size=400),
       st.sampled_from(MODULI))
@settings(max_examples=200, deadline=None)
def test_rem_mod_matches_sympy(coeffs, modulus):
    a = IntPoly(coeffs)
    n, e = modulus
    assert rem_mod(a, n, e) == from_sympy(to_sympy(a).rem(to_sympy(q_int(n) ** e)))
