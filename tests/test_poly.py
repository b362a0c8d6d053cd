"""Kernel tests: canonical form, ring laws, Kronecker multiply vs schoolbook, division."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import _mul_schoolbook

from qcong.errors import LeadingCoeffNotUnitError, NotDivisibleError
from qcong.poly import (
    ONE,
    ZERO,
    IntPoly,
    _mul_lists,
    _pack_nonneg,
    _slot_bytes,
    _unpack_nonneg,
)

BIG = 2 ** 256

coeff_st = st.integers(min_value=-BIG, max_value=BIG)
poly_st = st.lists(coeff_st, max_size=60).map(IntPoly)


def rand_coeffs(rng, max_deg, bits=64):
    n = rng.randint(0, max_deg + 1)
    return [rng.getrandbits(bits) - (1 << (bits - 1)) for _ in range(n)]


# --- canonical form and basics -------------------------------------------------

def test_zero_is_empty_tuple():
    assert ZERO.coeffs == ()
    assert IntPoly([0, 0, 0]).coeffs == ()
    assert not ZERO
    assert ZERO.degree == -1
    assert type(ZERO.degree) is int


def test_trailing_zeros_stripped():
    p = IntPoly([1, 2, 0, 0])
    assert p.coeffs == (1, 2)
    assert p.degree == 1


def test_non_int_coefficients_rejected():
    with pytest.raises(TypeError):
        IntPoly([1, Fraction(1, 2)])
    with pytest.raises(TypeError):
        IntPoly([1.0])


def test_equality_coerces_ints():
    assert IntPoly([7]) == 7
    assert IntPoly([]) == 0
    assert IntPoly([1, 1]) != 1


# --- frozen arithmetic examples (hand-expanded) ---------------------------------

def test_mul_example():
    # (1+q)(1+q+q^2) = 1 + 2q + 2q^2 + q^3
    assert IntPoly([1, 1]) * IntPoly([1, 1, 1]) == IntPoly([1, 2, 2, 1])


def test_mul_with_negative_coeffs():
    # (1-q)(1+q) = 1 - q^2
    assert IntPoly([1, -1]) * IntPoly([1, 1]) == IntPoly([1, 0, -1])


def test_exact_div_example():
    # [4][3][2] / [2] = [4][3] = 1 + 2q + 3q^2 + 3q^3 + 2q^4 + q^5
    prod = IntPoly([1, 1, 1, 1]) * IntPoly([1, 1, 1]) * IntPoly([1, 1])
    assert prod.exact_div(IntPoly([1, 1])) == IntPoly([1, 2, 3, 3, 2, 1])


def test_exact_div_failure_carries_remainder():
    # (1+q+q^2) / (1+q) leaves remainder 1
    with pytest.raises(NotDivisibleError) as info:
        IntPoly([1, 1, 1]).exact_div(IntPoly([1, 1]))
    assert info.value.remainder == ONE


def test_divrem_example():
    # q^2 = (q-1)(1+q) + 1
    quot, rem = IntPoly([0, 0, 1]).divrem(IntPoly([1, 1]))
    assert quot == IntPoly([-1, 1])
    assert rem == ONE


def test_divrem_requires_unit_leading():
    with pytest.raises(LeadingCoeffNotUnitError):
        IntPoly([1, 1, 1]).divrem(IntPoly([1, 2]))


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        IntPoly([1, 1]).exact_div(ZERO)
    with pytest.raises(ZeroDivisionError):
        IntPoly([1, 1]).divrem(ZERO)


def test_exact_div_zero_dividend():
    assert ZERO.exact_div(IntPoly([1, 2, 3])) == ZERO


def test_divrem_small_degree_dividend():
    quot, rem = IntPoly([5]).divrem(IntPoly([0, 0, 1]))
    assert quot == ZERO and rem == IntPoly([5])


def test_shift():
    assert IntPoly([1, 2]).shift(2) == IntPoly([0, 0, 1, 2])
    assert ZERO.shift(5) == ZERO
    with pytest.raises(ValueError):
        IntPoly([1]).shift(-1)


def test_pow():
    p = IntPoly([1, 1])
    assert p ** 0 == ONE
    assert p ** 2 == IntPoly([1, 2, 1])
    with pytest.raises(ValueError):
        p ** -1
    with pytest.raises(ValueError):
        p ** True


def test_evaluate_exact_rational():
    p = IntPoly([1, 0, 3])  # 1 + 3q^2
    assert p.evaluate(Fraction(1, 2)) == Fraction(7, 4)
    assert p.evaluate(2) == 13
    assert ZERO.evaluate(Fraction(5, 7)) == 0


# --- canonical rendering --------------------------------------------------------

def test_render_matches_reference_format():
    assert str(IntPoly([1, 1, 2, 1, 1])) == "1 + q + 2*q^2 + q^3 + q^4"
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(IntPoly([0, 1])) == "q"
    assert str(IntPoly([0, -1])) == "-q"
    assert str(IntPoly([2, 0, -3])) == "2 - 3*q^2"
    assert str(IntPoly([-1, -1])) == "-1 - q"
    assert str(IntPoly([0, 0, 7])) == "7*q^2"


def test_repr_roundtrip_style():
    assert repr(IntPoly([1, 0, 2])) == "IntPoly([1, 0, 2])"


# --- ring laws ------------------------------------------------------------------

@given(poly_st, poly_st, poly_st)
@settings(max_examples=200, deadline=None)
def test_ring_laws_hypothesis(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


def test_ring_laws_bulk_seeded():
    # 1000 deterministic cases spanning degrees up to 200 and 256-bit coefficients.
    rng = random.Random(0xC0FFEE)
    for trial in range(1000):
        max_deg = rng.choice([4, 8, 16, 40, 200])
        bits = rng.choice([16, 64, 256])
        a = IntPoly(rand_coeffs(rng, max_deg, bits))
        b = IntPoly(rand_coeffs(rng, max_deg, bits))
        c = IntPoly(rand_coeffs(rng, max_deg, bits))
        ab = a * b
        assert ab == b * a
        assert (ab) * c == a * (b * c)
        assert (a + b) * c == a * c + b * c
        assert a - a == ZERO


# --- Kronecker multiply against the schoolbook reference ------------------------

def _signed(rng, length, bits):
    return [rng.randint(-(1 << bits), 1 << bits) for _ in range(length)]


def _kronecker_cases():
    rng = random.Random(20261018)
    cases = []
    # Shapes from 1x1 to 400x400, the very unbalanced ones included.
    shapes = [(1, 1), (1, 2), (2, 2), (3, 5), (8, 9), (33, 31), (64, 65),
              (200, 150), (400, 400), (400, 1), (1, 400), (400, 3), (3, 400)]
    shapes += [(rng.randint(1, 400), rng.randint(1, 400)) for _ in range(40)]
    for la, lb in shapes:
        bits = rng.choice([1, 8, 16, 64, 256])
        cases.append((_signed(rng, la, bits), _signed(rng, lb, bits)))
    # The sparse factor 1 - q^j that q_binomial multiplies by.
    for j in (1, 2, 5, 17, 40):
        factor = [1] + [0] * (j - 1) + [-1]
        cases.append(([rng.randint(1, 1 << 40) for _ in range(60)], factor))
        cases.append((factor, factor))
    # Interior zeros, all-negative operands, mixed signs.
    cases.append(([5, 0, 0, 0, -3, 0, 7], [0, 0, 2, 0, -1]))
    cases.append(([-rng.randint(1, 1 << 64) for _ in range(50)],
                  [-rng.randint(1, 1 << 64) for _ in range(30)]))
    cases.append(([-(1 << 256)] * 7, [1 << 256, -(1 << 256)] * 4))
    # Coefficients of exactly +-2^256.
    cases.append(([1 << 256, -(1 << 256), 1 << 256], [-(1 << 256), 1 << 256]))
    # bound.bit_length() on a byte boundary.
    for x in (127, 128, 255, 256, -127, -128, -255, -256, (1 << 15) - 1, 1 << 15):
        cases.append(([x], [1]))
        cases.append(([1], [x]))
    # Slot edges: [M]*L times [+-M]*L has middle coefficient exactly +-bound.
    for m in (1, 127, 128, 255, 256, (1 << 64) - 1, 1 << 256):
        for length in (1, 2, 3, 4, 400):
            for sign_a, sign_b in ((1, 1), (1, -1), (-1, -1)):
                cases.append(([sign_a * m] * length, [sign_b * m] * length))
    # Slot-width edges: bound = max|a| * max|b| * min(len) one below and at
    # 2^7, 2^15, 2^31, 2^63, where the slot grows 1 -> 2, 2 -> 3, 4 -> 5 and
    # 8 -> 9 bytes; the extreme product coefficient is +-bound.
    for t in (7, 15, 31, 63):
        for length in (1, 2, 400):
            signs = [(-1) ** i for i in range(length)]
            for m in ((1 << t) - 1) // length, -(-(1 << t) // length):
                if m >= 1:
                    cases.append(([m] * length, [1] * length))
                    cases.append(([-m * s for s in signs], signs))
    return cases


def test_kronecker_equals_schoolbook_seeded():
    for a, b in _kronecker_cases():
        assert _mul_lists(a, b) == _mul_schoolbook(a, b)


def test_nonneg_slots_hold_their_bound():
    # on either side of each word boundary the slot chosen for a bound holds
    # the bound itself, and packing reads back every coefficient up to it
    widths = [_slot_bytes(0), _slot_bytes(1)]
    for bits in (8, 16, 32, 64, 128, 192):
        for bound in ((1 << bits) - 1, 1 << bits):
            k = _slot_bytes(bound)
            widths.append(k)
            coeffs = [bound, 0, 1, bound, bound >> 1]
            packed = _pack_nonneg(coeffs, k)
            assert packed == sum(c << (8 * k * i) for i, c in enumerate(coeffs))
            assert _unpack_nonneg(packed, k, len(coeffs)) == coeffs
    assert widths == [1, 1, 1, 2, 2, 4, 4, 8, 8, 16, 16, 24, 24, 32]


@given(poly_st, poly_st)
@settings(max_examples=300, deadline=None)
def test_kronecker_equals_schoolbook_hypothesis(a, b):
    assert _mul_lists(a.coeffs, b.coeffs) == _mul_schoolbook(a.coeffs, b.coeffs)


# --- division contracts ----------------------------------------------------------

@given(poly_st, poly_st)
@settings(max_examples=200, deadline=None)
def test_exact_div_roundtrip(a, b):
    if b.is_zero:
        return
    assert (a * b).exact_div(b) == a


def test_exact_div_roundtrip_seeded_nonunit_divisors():
    rng = random.Random(99)
    for _ in range(300):
        a = IntPoly(rand_coeffs(rng, 50, 64))
        b = IntPoly(rand_coeffs(rng, 20, 64))
        if b.is_zero:
            continue
        assert (a * b).exact_div(b) == a


@given(poly_st, st.lists(coeff_st, min_size=1, max_size=20), st.sampled_from([1, -1]))
@settings(max_examples=200, deadline=None)
def test_divrem_contract(a, body, lead):
    b = IntPoly(body[:-1] + [lead])
    quot, rem = a.divrem(b)
    assert quot * b + rem == a
    assert rem.degree < b.degree


@given(poly_st, poly_st, st.fractions())
@settings(max_examples=200, deadline=None)
def test_evaluation_is_ring_homomorphism(a, b, x):
    assert (a + b).evaluate(x) == a.evaluate(x) + b.evaluate(x)
    assert (a * b).evaluate(x) == a.evaluate(x) * b.evaluate(x)


@given(poly_st, poly_st)
@settings(max_examples=300, deadline=None)
def test_operations_preserve_canonical_form(a, b):
    for result in (a + b, a - b, a * b, -a):
        assert result.coeffs == () or result.coeffs[-1] != 0


def test_cancellation_strips_to_zero():
    a = IntPoly([1, 5, 7])
    assert (a - a).coeffs == ()
    assert (a * ZERO).coeffs == ()
