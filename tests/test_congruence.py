"""Congruence engine tests, including the exponent-period identity for [p]."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcong.congruence import (
    CongruenceReport,
    Witness,
    divides,
    fold,
    is_prime,
    make_report,
    rem_mod,
    residue_equal_mod,
)
from qcong.errors import LeadingCoeffNotUnitError
from qcong.poly import ONE, ZERO, IntPoly
from qcong.qcomb import q_int

PRIMES_TO_13 = (2, 3, 5, 7, 11, 13)


def q_power(e):
    return ONE.shift(e)


def test_divides_basic():
    assert divides(q_int(2), q_int(4))
    assert not divides(q_int(3), q_int(4))
    assert divides(ONE, q_int(7))
    assert divides(q_int(5), ZERO)
    with pytest.raises(ZeroDivisionError):
        divides(ZERO, q_int(2))


def test_q_integer_divisibility_family():
    # [n] divides [kn] whenever n, k >= 1
    for n in range(1, 61):
        for k in range(1, 61):
            if n * k > 60:
                break
            assert divides(q_int(n), q_int(n * k)), (n, k)


def test_rem_mod_examples():
    # q^3 mod [3]: q^3 - 1 = (q-1)(1+q+q^2), so q^3 == 1
    assert rem_mod(q_power(3), q_int(3)) == ONE
    assert rem_mod(q_int(3), q_int(3)) == ZERO


def test_rem_mod_matches_divrem_contract():
    a = IntPoly([3, 1, 4, 1, 5, 9, 2, 6])
    m = q_int(4)
    r = rem_mod(a, m)
    assert r.degree < m.degree
    assert divides(m, a - r)


def test_residue_equal_mod():
    m = q_int(5)
    assert residue_equal_mod(q_power(5), ONE, m)
    assert not residue_equal_mod(q_power(5), q_power(1), m)
    assert residue_equal_mod(q_power(7), q_power(2), m)
    with pytest.raises(LeadingCoeffNotUnitError):
        residue_equal_mod(ONE, ONE, IntPoly([1, 2]))
    with pytest.raises(ZeroDivisionError):
        residue_equal_mod(ONE, ONE, ZERO)


def test_qp_minus_one_times_qint_identity():
    # (q^p - 1)*[p] = (q-1)*[p]^2, the fact justifying exponent reduction mod p
    for p in PRIMES_TO_13:
        lhs = (q_power(p) - ONE) * q_int(p)
        rhs = (q_power(1) - ONE) * q_int(p) * q_int(p)
        assert lhs == rhs


def test_exponent_normalization_respects_period():
    # q^(e mod p) * [p] == q^(e + p*t) * [p]  (mod [p]^2) for t lifting e >= 0
    for p in PRIMES_TO_13:
        msq = q_int(p) * q_int(p)
        for e in range(-20, 21):
            norm = e % p
            t0 = 0 if e >= 0 else -(e // p)  # smallest t with e + p*t >= 0
            for t in (t0, t0 + 1):
                lifted = q_power(e + p * t) * q_int(p)
                assert residue_equal_mod(q_power(norm) * q_int(p), lifted, msq), (p, e, t)


# --- fold: reduction modulo (q^n - 1)^e before the division --------------------------

BIG = 2 ** 200
FOLDED = [q_int(n) ** e for n in range(1, 26) for e in (1, 2)]
UNRECOGNISED = [IntPoly([1, 2, 0, 1]), IntPoly([-1, 0, 1])]  # 1 + 2q + q^3, -1 + q^2


def _random_poly(rng, max_len=401):
    coeffs = [rng.choice((rng.randint(-9, 9), rng.randint(-BIG, BIG), BIG, -BIG, 0))
              for _ in range(rng.randrange(max_len))]
    return IntPoly(coeffs)


def test_fold_remainder_equals_divrem_seeded():
    rng = random.Random(20150611)
    for m in FOLDED + UNRECOGNISED:
        for _ in range(12):
            a = _random_poly(rng)
            assert rem_mod(a, m) == a.divrem(m)[1], (m, a)
            assert residue_equal_mod(a, ZERO, m) == a.divrem(m)[1].is_zero


def test_fold_degree_and_congruence():
    rng = random.Random(7)
    for n in range(1, 26):
        for e in (1, 2):
            m = q_int(n) ** e
            power = 1 if n == 1 else e  # [1]^2 = [1] reads as e = 1
            period = (ONE.shift(n) - ONE) ** power
            for _ in range(4):
                a = _random_poly(rng)
                folded = fold(a, m)
                assert folded.degree < power * n
                assert divides(period, a - folded), (n, e)


def test_fold_leaves_unrecognised_moduli_alone():
    a = IntPoly(list(range(-30, 31)))
    for m in UNRECOGNISED + [IntPoly([1, 1, 2]), IntPoly([1, 2, 3, 2, 2]), -q_int(4)]:
        assert fold(a, m) is a
    assert fold(IntPoly([5, 6]), q_int(3)) == IntPoly([5, 6])  # already reduced


def test_fold_known_values():
    # q^5 == q^2 mod q^3 - 1; mod (q^2 - 1)^2, q^(2j) == (1 - j) + j q^2
    assert fold(ONE.shift(5), q_int(3)) == ONE.shift(2)
    assert fold(ONE.shift(6), q_int(2) * q_int(2)) == IntPoly([-2, 0, 3])


@given(st.lists(st.integers(min_value=-BIG, max_value=BIG), max_size=400),
       st.sampled_from(FOLDED + UNRECOGNISED))
@settings(max_examples=300, deadline=None)
def test_fold_remainder_equals_divrem_hypothesis(coeffs, m):
    a = IntPoly(coeffs)
    assert rem_mod(a, m) == a.divrem(m)[1]


def test_is_prime_small():
    known = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(-3, 50):
        assert is_prime(n) == (n in known)
    assert is_prime(7919)
    assert not is_prime(7917)


# --- report record ---------------------------------------------------------------

def test_report_json_schema():
    r = make_report("thm1", {"n": 4, "a1": 1, "a2": 1}, "pass", elapsed_ms=12)
    obj = r.to_json_obj()
    assert list(obj.keys()) == ["claim_id", "params", "status", "witness", "elapsed_ms"]
    assert obj["params"] == {"n": 4, "a1": 1, "a2": 1}
    assert obj["witness"] is None
    assert obj["elapsed_ms"] == 12
    json.dumps(obj)  # serializable


def test_report_stable_zeroes_elapsed():
    r = make_report("thm2", {"p": 3, "a": 1, "b": 0}, "pass", elapsed_ms=99)
    assert r.to_json_obj(stable=True)["elapsed_ms"] == 0


def test_fail_report_requires_nonzero_witness():
    with pytest.raises(ValueError):
        make_report("thm1", {"n": 2}, "fail")
    with pytest.raises(ValueError):
        make_report("thm1", {"n": 2}, "fail", witness=Witness("1", "1", "0"))
    ok = make_report("thm1", {"n": 2}, "fail", witness=Witness("q", "0", "q"))
    assert ok.status == "fail"


def test_report_rejects_unknown_status():
    with pytest.raises(ValueError):
        make_report("thm1", {"n": 2}, "maybe")


def test_report_params_must_be_ints():
    with pytest.raises(TypeError):
        make_report("thm1", {"n": 2.5}, "pass")


def test_report_sort_key_orders_params():
    a = make_report("thm1", {"n": 2, "a1": 0}, "pass")
    b = make_report("thm1", {"n": 2, "a1": 1}, "pass")
    c = make_report("thm2", {"p": 2, "a": 0, "b": 0}, "pass")
    assert sorted([c, b, a], key=lambda r: r.sort_key) == [a, b, c]


def test_note_kept_out_of_json():
    r = make_report("thm1", {"n": 1, "a1": 3}, "pass", note="vanishing-sum")
    assert r.note == "vanishing-sum"
    assert "note" not in r.to_json_obj()
