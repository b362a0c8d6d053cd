"""Congruence engine tests, including the exponent-period identity for [p]."""

import itertools
import json
import random
from fractions import Fraction
from functools import reduce
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import make_report, packed

from qcong.congruence import (
    FAIL,
    PASS,
    CongruenceReport,
    Witness,
    congruence_report,
    fold,
    identity_report,
    integer_report,
    is_prime,
    packed_divides,
    packed_square_congruent,
    pair_folds,
    rem_mod,
)
from qcong.errors import InternalError, NotDivisibleError
from qcong.poly import ONE, ZERO, IntPoly, _slot_bytes
from qcong.qcomb import BINOMIAL_MEMO, LaurentPoly, q_int
from qcong.theorems import a_key

PRIMES_TO_13 = (2, 3, 5, 7, 11, 13)


def q_power(e):
    return ONE.shift(e)


def _exact_divides(d, a):
    """Divisibility decided by exact division alone, with no fold."""
    try:
        a.exact_div(d)
    except NotDivisibleError:
        return False
    return True


def test_rem_mod_and_exact_div_decide_divisibility():
    assert rem_mod(q_int(4), 2) == ZERO and _exact_divides(q_int(2), q_int(4))
    assert rem_mod(q_int(4), 3) == ONE and not _exact_divides(q_int(3), q_int(4))
    assert rem_mod(q_int(7), 1) == ZERO and _exact_divides(ONE, q_int(7))
    assert rem_mod(ZERO, 5) == ZERO and _exact_divides(q_int(5), ZERO)
    with pytest.raises(ZeroDivisionError):
        q_int(2).exact_div(ZERO)


def test_q_integer_divisibility_family():
    # [n] divides [kn] whenever n, k >= 1, with quotient sum_{j<k} q^(nj)
    for n in range(1, 61):
        for k in range(1, 61):
            if n * k > 60:
                break
            assert rem_mod(q_int(n * k), n) == ZERO, (n, k)
            quotient = IntPoly([1 if i % n == 0 else 0 for i in range(n * (k - 1) + 1)])
            assert q_int(n * k).exact_div(q_int(n)) == quotient, (n, k)


def test_rem_mod_examples():
    # q^3 mod [3]: q^3 - 1 = (q-1)(1+q+q^2), so q^3 == 1
    assert rem_mod(q_power(3), 3) == ONE
    assert rem_mod(q_int(3), 3) == ZERO


def test_rem_mod_divides_by_the_closed_form_square():
    # [n]^2 is monic of degree 2n - 2, so q^(2n-2) leaves exactly q^(2n-2) - [n]^2
    for n in range(1, 61):
        top = q_power(2 * n - 2)
        assert rem_mod(top, n, 2) == top - q_int(n) * q_int(n), n


def test_rem_mod_matches_divrem_contract():
    a = IntPoly([3, 1, 4, 1, 5, 9, 2, 6])
    r = rem_mod(a, 4)
    assert r.degree < 3
    assert _exact_divides(q_int(4), a - r)


def test_rem_mod_of_a_difference():
    assert rem_mod(q_power(5) - ONE, 5) == ZERO
    assert rem_mod(q_power(5) - q_power(1), 5) == IntPoly([1, -1])
    assert rem_mod(q_power(7) - q_power(2), 5) == ZERO


@pytest.mark.parametrize("n, e", [(0, 1), (-1, 1), (0, 2), (3, 0), (3, 3), (3, -1),
                                  (True, 1), (2.0, 1), (3, True)])
def test_modulus_must_be_a_q_integer_or_its_square(n, e):
    # the modulus is [n]^e with n >= 1 and e in (1, 2); fold, rem_mod and the
    # decider all refuse anything else, a bool or a float too
    a = q_int(7)
    with pytest.raises(ValueError):
        fold(a, n, e)
    with pytest.raises(ValueError):
        rem_mod(a, n, e)
    with pytest.raises(ValueError):
        congruence_report("t", (), (a,), ONE, n, e)


def test_qp_minus_one_times_qint_identity():
    # (q^p - 1)*[p] = (q-1)*[p]^2, the fact justifying exponent reduction mod p
    for p in PRIMES_TO_13:
        lhs = (q_power(p) - ONE) * q_int(p)
        rhs = (q_power(1) - ONE) * q_int(p) * q_int(p)
        assert lhs == rhs


def test_exponent_normalization_respects_period():
    # q^(e mod p) * [p] == q^(e + p*t) * [p]  (mod [p]^2) for t lifting e >= 0
    for p in PRIMES_TO_13:
        for e in range(-20, 21):
            norm = e % p
            t0 = 0 if e >= 0 else -(e // p)  # smallest t with e + p*t >= 0
            for t in (t0, t0 + 1):
                lifted = q_power(e + p * t) * q_int(p)
                assert rem_mod(q_power(norm) * q_int(p) - lifted, p, 2) == ZERO, (p, e, t)


# --- fold: reduction modulo (q^n - 1)^e before the division --------------------------

BIG = 2 ** 200
MODULI = [(n, e) for n in range(1, 26) for e in (1, 2)]  # [n]^e as (n, e)


def _random_poly(rng, max_len=401):
    coeffs = [rng.choice((rng.randint(-9, 9), rng.randint(-BIG, BIG), BIG, -BIG, 0))
              for _ in range(rng.randrange(max_len))]
    return IntPoly(coeffs)


def test_fold_remainder_equals_divrem_seeded():
    rng = random.Random(20150611)
    for n, e in MODULI:
        m = q_int(n) ** e
        for _ in range(12):
            a = _random_poly(rng)
            assert rem_mod(a, n, e) == a.divrem(m)[1], (n, e, a)
            assert (rem_mod(a, n, e) == ZERO) == _exact_divides(m, a), (n, e, a)


def test_fold_degree_and_congruence():
    rng = random.Random(7)
    for n, e in MODULI:
        period = (ONE.shift(n) - ONE) ** e
        for _ in range(4):
            a = _random_poly(rng)
            folded = fold(a, n, e)
            assert folded.degree < e * n
            assert _exact_divides(period, a - folded), (n, e)


def test_fold_known_values():
    # q^5 == q^2 mod q^3 - 1; mod (q^2 - 1)^2, q^(2j) == (1 - j) + j q^2
    assert fold(ONE.shift(5), 3, 1) == ONE.shift(2)
    assert fold(ONE.shift(6), 2, 2) == IntPoly([-2, 0, 3])
    assert fold(IntPoly([5, 6]), 3, 1) == IntPoly([5, 6])  # already reduced


@given(st.lists(st.integers(min_value=-BIG, max_value=BIG), max_size=400),
       st.sampled_from(MODULI))
@settings(max_examples=300, deadline=None)
def test_fold_remainder_equals_divrem_hypothesis(coeffs, modulus):
    a = IntPoly(coeffs)
    n, e = modulus
    assert rem_mod(a, n, e) == a.divrem(q_int(n) ** e)[1]


# --- congruence_report on a tuple of factors ---------------------------------------------

def _assert_factor_form_agrees(factors, rhs, n, e):
    """Several factors give the same verdict and witness as their product alone."""
    whole = reduce(mul, factors)
    by_factors = congruence_report("t", (), factors, rhs, n, e)
    by_product = congruence_report("t", (), (whole,), rhs, n, e)
    assert by_factors == by_product, (factors, rhs, n, e)
    return by_factors.status


def test_factor_form_matches_product_form_seeded():
    rng = random.Random(1509)
    statuses = set()
    for n, e in [(n, e) for n in (1, 2, 3, 5, 8, 13) for e in (1, 2)]:
        m = q_int(n) ** e
        for _ in range(20):
            factors = tuple(_random_poly(rng, max_len=rng.choice((4, 40)))
                            for _ in range(rng.choice((2, 3))))
            rhs = rng.choice((ZERO, _random_poly(rng, max_len=30)))
            statuses.add(_assert_factor_form_agrees(factors, rhs, n, e))
            # a multiple of m as one factor: the product is congruent to 0
            multiple = (factors[0] * m,) + factors[1:]
            statuses.add(_assert_factor_form_agrees(multiple, ZERO, n, e))
            # a zero factor, and factors shorter than the modulus
            statuses.add(_assert_factor_form_agrees((factors[0], ZERO), rhs, n, e))
            short = tuple(IntPoly([rng.randint(-3, 3) for _ in range(len(m.coeffs) // 2)])
                          for _ in range(2))
            statuses.add(_assert_factor_form_agrees(short, rhs, n, e))
    assert statuses == {PASS, FAIL}


@given(st.lists(st.lists(st.integers(min_value=-50, max_value=50), max_size=60),
                min_size=2, max_size=3),
       st.lists(st.integers(min_value=-50, max_value=50), max_size=20),
       st.sampled_from([(n, e) for n in (1, 2, 4, 7, 11) for e in (1, 2)]))
@settings(max_examples=300, deadline=None)
def test_factor_form_matches_product_form_hypothesis(factors, rhs, modulus):
    _assert_factor_form_agrees(tuple(IntPoly(f) for f in factors), IntPoly(rhs), *modulus)


def test_factor_form_fail_renders_the_full_product():
    factors = (q_int(4), q_int(3).shift(2))  # [4] q^2 [3], not divisible by [5]
    r = congruence_report("t", (), factors, ZERO, 5)
    assert r.status == FAIL
    assert r.witness.lhs == str(q_int(4) * q_int(3).shift(2))
    assert congruence_report("t", (), (q_int(5), q_int(3)), ZERO, 5).status == PASS


# --- thm1 decided on packed integers ------------------------------------------------

def _list_divides(factors, n):
    """The list route: ``congruence_report`` on the unpacked factors."""
    return congruence_report("thm1", (), tuple(f.poly() for f in factors), ZERO, n).status \
        == PASS


def _assert_packed_matches_list_route(n, a_list, verdicts):
    """Both routes at [n], where thm1 passes, and at [n + 1], where it mostly
    fails; the memo's factors depend on the a-list only through its key."""
    key = a_key(a_list)
    factors = (BINOMIAL_MEMO.prefactor(key), BINOMIAL_MEMO.weighted_sum(n, key))
    for m in (n, n + 1):
        got = packed_divides(factors, m)
        assert got == _list_divides(factors, m), (n, a_list, m)
        verdicts.add((m == n, got))


def test_packed_decision_matches_the_list_route_on_a_grid():
    # every (n, a-list) with n <= 30, m <= 3 and a_i <= 6, one a-list per key:
    # n = 1, n <= max a_i (W(n) = 0) and the all-zero a-list (key ()) included
    a_lists = {a_key(a): a for m in range(1, 4)
               for a in itertools.product(range(7), repeat=m)}
    assert () in a_lists and len(a_lists) == 84
    verdicts = set()
    for n in range(1, 31):
        for a_list in a_lists.values():
            _assert_packed_matches_list_route(n, a_list, verdicts)
    assert verdicts == {(True, True), (False, True), (False, False)}


def test_packed_decision_matches_the_list_route_on_wide_samples():
    rng = random.Random(20240519)
    verdicts = set()
    for _ in range(300):
        n = rng.randint(1, 40)
        a_list = [rng.randint(0, 8) for _ in range(rng.randint(1, 5))]
        _assert_packed_matches_list_route(n, a_list, verdicts)
    assert (True, False) not in verdicts and (False, False) in verdicts


def _boundary_cases():
    """Packed factors P, W whose P(1) W(1) is 2^(8k) - 1 or 2^(8k), for slot
    widths k = 1, 2, 4, 8 and 16 bytes, with the moduli [n] to try.

    2^(8k) - 1 = (2^(4k) + 1)(2^(4k) - 1) and 15 divides 2^(4k) - 1, so W can
    be a multiple of [3] or [5]; 2^(8k) = 2^(4k) 2^(4k) allows [2] and [4].
    """
    for k in (1, 2, 4, 8, 16):
        half = 1 << 4 * k
        for at_one, (s1, s2), moduli in (((1 << 8 * k) - 1, (half + 1, half - 1), (3, 5)),
                                         (1 << 8 * k, (half, half), (2, 4))):
            for n in moduli:
                c = s2 // n
                for p in (IntPoly([0, 0, s1]),  # one slot holds all of P(1)
                          IntPoly([0] * (n + 1) + [s1 - 1] + [0] * (2 * n) + [1])):
                    for w, divides in ((q_int(n).shift(2) * c, True),  # [n] | W
                                       (IntPoly([0] * n + [s2]), False),
                                       ((q_int(n - 1) + ONE.shift(n)) * c, False)):
                        yield k, at_one, n, (packed(p), packed(w)), divides


@pytest.mark.parametrize("k, at_one, n, factors, divides", list(_boundary_cases()))
def test_packed_decision_at_a_slot_boundary(k, at_one, n, factors, divides):
    p, w = factors
    assert p.at_one * w.at_one == at_one
    assert _slot_bytes(at_one) == (k if at_one < 1 << 8 * k else 2 * k if k < 8 else k + 8)
    assert packed_divides(factors, n) is divides
    assert _list_divides(factors, n) is divides
    # [1] divides anything; one more slot than the product's degree never does
    assert packed_divides(factors, 1) is True
    assert packed_divides(factors, len(p.poly().coeffs) + len(w.poly().coeffs)) is False


@pytest.mark.parametrize("p, w", [(641, 6700417), (274177, 67280421310721)])
def test_packed_decision_needs_slots_for_the_product(p, w):
    # P W = 2^32 + 1 or 2^64 + 1, a constant [2] does not divide; each factor
    # fits 4 or 8 bytes, where the product would read as the digits (1, 1),
    # all equal, so slots sized for the factors alone would pass it
    factors = (packed(IntPoly([p])), packed(IntPoly([w])))
    assert p * w - 1 in (1 << 32, 1 << 64) and max(f.k for f in factors) in (4, 8)
    assert packed_divides(factors, 2) is False
    assert _list_divides(factors, 2) is False


# --- thm2 decided on pair folds ------------------------------------------------------

def _list_pair_fold(poly, n):
    """(A, B) of a polynomial's length-n blocks P_j: A = sum_j P_j and
    B = sum_j j*P_j, read off ``fold``, which writes P modulo (q^n - 1)^2
    as (A - B) + q^n B."""
    c = list(fold(poly, n, 2).coeffs) + [0] * 2 * n
    return [c[r] + c[n + r] for r in range(n)], c[n:2 * n]


def test_pair_folds_match_the_list_fold():
    # F*G == S + (q^n - 1) T modulo (q^n - 1)^2, S and T the pair fold of the
    # full product; coefficients below 2, 2^8, ..., 2^140 give slots of 1 to
    # 40 bytes, and factors shorter than n or zero are included
    rng = random.Random(2015)
    for _ in range(400):
        n = rng.randint(1, 12)
        top = 1 << rng.choice((1, 8, 16, 40, 70, 140))
        f, g = (IntPoly([rng.randrange(top) for _ in range(rng.randint(0, 5 * n))])
                for _ in range(2))
        assert pair_folds((packed(f), packed(g)), n) == _list_pair_fold(f * g, n), (n, f, g)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_pair_folds_widen_slots_for_b(n):
    # F = 255 q^(8n) fills its one-byte slot, and sits in block 8, so
    # B = 8 * 255 needs two bytes: summing B in F's own slots would carry
    f = IntPoly([0] * 8 * n + [255])
    assert packed(f).k == 1
    want_a, want_b = [255] + [0] * (n - 1), [8 * 255] + [0] * (n - 1)
    assert pair_folds((packed(f), packed(ONE)), n) == (want_a, want_b)
    assert _list_pair_fold(f, n) == (want_a, want_b)


def test_pair_folds_are_checked_against_the_values_at_one():
    # S sums to A_F(1) A_G(1), which must be the F(1) G(1) the factors carry
    f = packed(IntPoly([3, 1, 4, 1, 5]))
    assert sum(pair_folds((f, f), 2)[0]) == 14 * 14
    with pytest.raises(InternalError, match=r"S sums to 196, not to F\(1\) G\(1\) = 210"):
        pair_folds((f._replace(at_one=15), f), 2)


def test_packed_square_decision_matches_the_list_route():
    # every sign s and shift t at (p, 2) for every (a, b) < p: 7,992 right
    # sides s q^t [p], of which only the one thm2 names passes
    verdicts = {True: 0, False: 0}
    for p in (5, 7, 11, 13):
        for a in range(p):
            for b in range(p):
                ab = a_key((a, b))
                factors = (BINOMIAL_MEMO.prefactor(ab), BINOMIAL_MEMO.weighted_sum(p, ab))
                unpacked = tuple(f.poly() for f in factors)
                for sign in (1, -1):
                    for t in range(p):
                        got = packed_square_congruent(factors, sign, t, p)
                        want = congruence_report("thm2", (), unpacked,
                                                 sign * q_int(p).shift(t), p, 2)
                        assert got == (want.status == PASS), (p, a, b, sign, t)
                        verdicts[got] += 1
    assert sum(verdicts.values()) == 7992 and verdicts[True] == 25 + 49 + 121 + 169


def test_packed_square_decision_at_small_moduli():
    # [1]^2 = 1 divides anything; a zero product is never +-q^t [n] modulo
    # [n]^2 for n >= 2
    one, zero = packed(ONE), packed(ZERO)
    assert packed_square_congruent((one, one), 1, 0, 1) is True
    assert packed_square_congruent((zero, one), -1, 0, 1) is True
    for n in (2, 3, 7):
        for sign in (1, -1):
            assert packed_square_congruent((zero, one), sign, n - 1, n) is False
    # [2] == q^0 [2] == -q [2] modulo [2]^2, since [2] + q [2] = [2]^2; but
    # [2]^2 == 0 is neither
    pair = packed(IntPoly([1, 1]))
    for g, rhs, want in ((one, (1, 0), True), (one, (-1, 1), True), (one, (1, 1), False),
                         (one, (-1, 0), False), (pair, (1, 0), False), (pair, (-1, 1), False)):
        assert packed_square_congruent((pair, g), *rhs, 2) is want, (g, rhs)


def test_is_prime_small():
    known = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(-3, 50):
        assert is_prime(n) == (n in known)
    assert is_prime(7919)
    assert not is_prime(7917)
    assert not is_prime(3.0) and not is_prime(3.5) and not is_prime("7")


# --- report record ---------------------------------------------------------------

@pytest.mark.parametrize("decide, witness, note", [
    (lambda: identity_report("t", (), q_int(3), q_int(3)), None, None),
    (lambda: identity_report("t", (), q_int(3), q_int(2)), ("1 + q + q^2", "1 + q", "q^2"),
     None),
    (lambda: identity_report("t", (), LaurentPoly(q_int(2), -2), LaurentPoly(q_int(2), -2)),
     None, None),
    (lambda: identity_report("t", (), LaurentPoly(q_int(2), -2), LaurentPoly(ONE, 0)),
     ("q^-2 + q^-1", "1", "q^-2 + q^-1 - 1"), None),
    (lambda: identity_report("t", (), Fraction(1, 2), Fraction(2, 4)), None, None),
    (lambda: identity_report("t", (), Fraction(-1, 2), Fraction(-3, 2)), ("-1/2", "-3/2", "1"),
     None),
    # a pass keeps integer_report's note, a fail drops it
    (lambda: integer_report("t", (), 12, 4, note="marker"), None, "marker"),
    (lambda: integer_report("t", (), 14, 4, note="marker"), ("14", "0", "2"), None),
    (lambda: congruence_report("t", (), (q_power(7),), q_power(2), 5), None, None),
    (lambda: congruence_report("t", (), (q_power(5),), q_power(1), 5), ("q^5", "q", "1 - q"),
     None),
    (lambda: congruence_report("t", (), (q_power(6),), ZERO, 5), ("q^6", "0", "q"), None),
])
def test_deciders_share_one_verdict_core(decide, witness, note):
    r = decide()
    if witness is None:
        assert (r.status, r.witness) == (PASS, None)
    else:
        assert r.status == FAIL
        assert (r.witness.lhs, r.witness.rhs, r.witness.difference) == witness
    assert r.note == note


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


# --- the report type ---------------------------------------------------------------

_FAILED = CongruenceReport("thm1", (("n", 4), ("a1", 1)), FAIL, Witness("q", "0", "q"), 7,
                           "a note")


def test_report_equality_hash_and_immutability():
    same = CongruenceReport("thm1", (("n", 4), ("a1", 1)), FAIL,
                            witness=Witness("q", "0", "q"), elapsed_ms=7, note="a note")
    assert same == _FAILED and hash(same) == hash(_FAILED) and same is not _FAILED
    assert same != same._replace(elapsed_ms=8)
    assert len({same, _FAILED, same._replace(note=None)}) == 2
    for field in CongruenceReport._fields:
        with pytest.raises(AttributeError):
            setattr(same, field, None)
    with pytest.raises(AttributeError):
        same.extra = 1
    with pytest.raises(AttributeError):
        same.witness.lhs = "1"
    assert same == _FAILED


def test_report_checks_status_and_witness_when_built():
    with pytest.raises(ValueError, match="fail report needs a witness"):
        CongruenceReport("thm1", (("n", 2),), FAIL)
    with pytest.raises(ValueError, match="nonzero difference"):
        CongruenceReport("thm1", (("n", 2),), FAIL, Witness("1", "1", "0"))
    with pytest.raises(ValueError, match="bad status"):
        CongruenceReport("thm1", (("n", 2),), "maybe")


def test_report_sort_key_and_json_obj_are_unchanged():
    assert _FAILED.sort_key == ("thm1", (("n", 4), ("a1", 1)))
    assert _FAILED.to_json_obj() == {
        "claim_id": "thm1", "params": {"n": 4, "a1": 1}, "status": "fail",
        "witness": {"lhs": "q", "rhs": "0", "difference": "q"}, "elapsed_ms": 7}
    assert _FAILED.to_json_obj(stable=True)["elapsed_ms"] == 0
