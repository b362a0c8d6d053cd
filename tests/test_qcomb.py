"""q-object tests: defining values, oracle agreement, structural properties."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from oracles import (
    folded,
    multinom_factor_oracle,
    q_binomial_oracle,
    q_pochhammer_oracle,
    weighted_sum_oracle,
)

from qcong import poly, qcomb
from qcong.congruence import packed_divides
from qcong.errors import InternalError
from qcong.poly import ONE, ZERO, IntPoly, _slot_bytes
from qcong.qcomb import (
    LaurentPoly,
    QBinomialCache,
    _div_pow2_minus_one,
    q_binomial,
    q_factorial,
    q_int,
    q_pochhammer_eval,
    rows_at_one,
)
from qcong.theorems import a_key


# --- q-integers and q-factorials -------------------------------------------------

def test_q_int_values():
    assert q_int(0) == ZERO
    assert q_int(1) == ONE
    assert q_int(3) == IntPoly([1, 1, 1])


@pytest.mark.parametrize("n", [-1, True, False, 2.0, "3"])
def test_q_int_rejects_all_but_integers_from_zero(n):
    with pytest.raises(ValueError):
        q_int(n)


def test_q_factorial_values():
    assert q_factorial(0) == ONE
    assert q_factorial(1) == ONE
    # [3]! = (1+q)(1+q+q^2) = 1 + 2q + 2q^2 + q^3
    assert q_factorial(3) == IntPoly([1, 2, 2, 1])


def test_q_factorial_degree_and_q1_value():
    for n in range(12):
        f = q_factorial(n)
        assert f.degree == n * (n - 1) // 2 if n else f == ONE
        assert f.evaluate(1) == math.factorial(n)


# --- Gaussian binomials -----------------------------------------------------------

def test_q_binomial_frozen_example():
    # gauss(4,2) = 1 + q + 2q^2 + q^3 + q^4 (from the Pascal recurrence by hand)
    assert q_binomial(4, 2) == IntPoly([1, 1, 2, 1, 1])


@pytest.mark.parametrize("n, k", [(True, 1), (3, False), (3, 1.0), ("3", 1)])
def test_q_binomial_rejects_a_bool_or_non_integer(n, k):
    # a bool is refused as q_int refuses it, not read as 0 or 1
    with pytest.raises(ValueError):
        q_binomial(n, k)


def test_q_binomial_out_of_range_is_zero():
    assert q_binomial(3, 5) == ZERO
    assert q_binomial(3, -1) == ZERO
    assert q_binomial(-2, 0) == ZERO
    assert q_binomial_oracle(3, 5) == ZERO
    assert q_binomial_oracle(-2, 0) == ZERO


def test_q_binomial_edges():
    for n in range(8):
        assert q_binomial(n, 0) == ONE
        assert q_binomial(n, n) == ONE
        if n >= 1:
            assert q_binomial(n, 1) == q_int(n)


def test_q_binomial_matches_oracle():
    cases = [(n, k) for n in range(26) for k in range(n + 1)]
    for n, k in cases + [(80, 1), (80, 7), (80, 40), (80, 79), (120, 1), (120, 60)]:
        assert q_binomial(n, k) == q_binomial_oracle(n, k), (n, k)


def test_div_pow2_minus_one_inverts_the_shift_subtract():
    rng = random.Random(4)
    for width, s in ((8, 8), (64, 8), (200, 64), (1000, 192), (1000, 999), (5000, 24)):
        for quot in (0, 1, (1 << width) - 1, rng.getrandbits(width)):
            assert _div_pow2_minus_one((quot << s) - quot, s, width) == quot


def test_div_pow2_minus_one_rejects_a_non_multiple():
    for value, s, width in ((1, 8, 64), (256, 8, 64), (((1 << 64) - 1) * 5 + 3, 64, 192),
                            (((1 << 16) - 1) << 50, 16, 40)):  # the quotient is too wide
        with pytest.raises(InternalError, match=r"not a multiple of 2\^"):
            _div_pow2_minus_one(value, s, width)


def test_q_binomial_structure():
    for n in range(16):
        for k in range(n + 1):
            g = q_binomial(n, k)
            coeffs = g.coeffs
            assert all(c > 0 for c in coeffs)
            assert coeffs == tuple(reversed(coeffs))  # palindromic
            assert g.degree == k * (n - k)
            assert g.evaluate(1) == math.comb(n, k)
            assert g == q_binomial(n, n - k)  # symmetry


def test_q_binomial_factorial_ratio():
    # gauss(n,k) * [k]! * [n-k]! = [n]!
    for n in range(10):
        for k in range(n + 1):
            assert q_binomial(n, k) * q_factorial(k) * q_factorial(n - k) == q_factorial(n)


# --- Pochhammer -------------------------------------------------------------------

def test_pochhammer_frozen_example():
    # (2;3)_2 = (1-2)(1-6) = 5
    assert q_pochhammer_eval(2, 3, 2) == 5


def test_pochhammer_empty_product():
    assert q_pochhammer_eval(Fraction(7, 3), Fraction(1, 2), 0) == 1


def test_pochhammer_vanishes_at_one():
    assert q_pochhammer_eval(1, Fraction(2, 3), 4) == 0


def test_pochhammer_rational():
    x, q = Fraction(1, 2), Fraction(-2, 3)
    expect = (1 - x) * (1 - x * q) * (1 - x * q * q)
    assert q_pochhammer_eval(x, q, 3) == expect


def test_pochhammer_carried_power_matches_oracle():
    # every fourth x is q^-j, so the factor i = j vanishes partway through
    rng = random.Random(15)
    kinds = set()
    for case in range(2000):
        k = case % 10
        q = Fraction(rng.choice([-1, 1]) * rng.randint(1, 7), rng.randint(1, 5))
        if case % 4 == 0 and k:
            j = rng.randrange(k)
            x = q ** -j
            kinds.add("vanishing")
            assert q_pochhammer_eval(x, q, k) == 0
        else:
            x = Fraction(rng.randint(-7, 7), rng.randint(1, 5))
        kinds.add("|q| < 1" if abs(q) < 1 else "|q| >= 1")
        if q < 0:
            kinds.add("q < 0")
        assert q_pochhammer_eval(x, q, k) == q_pochhammer_oracle(x, q, k), (x, q, k)
    assert kinds == {"vanishing", "|q| < 1", "|q| >= 1", "q < 0"}


def test_pochhammer_negative_k_rejected():
    for k in (-1, True, 2.0):  # a bool is refused, not read as 0 or 1
        with pytest.raises(ValueError):
            q_pochhammer_eval(1, 2, k)


# --- cache ------------------------------------------------------------------------

def _unpacked(p):
    """The IntPoly a memo's ``Packed`` holds, once its length, value at q = 1
    and slot width are checked against it."""
    coeffs = p.poly().coeffs
    assert (p.size, p.at_one, p.k) == (len(coeffs), sum(coeffs), _slot_bytes(sum(coeffs)))
    return p.poly()


def test_cache_transparency():
    cache = QBinomialCache(max_entries=64)
    for n in range(12):
        for k in range(n + 1):
            assert cache.binomial(n, k) == q_binomial(n, k)
    # repeat: hits must return the same values
    for n in range(12):
        for k in range(n + 1):
            assert cache.binomial(n, k) == q_binomial(n, k)
    # prefactors, each one entry, and a second call is a hit; an a-list is
    # keyed on its sorted nonzero entries, since [0]! = 1
    for a_list in ((0,), (3,), (1, 1), (0, 2, 5), (2, 2, 2, 3), (5, 0, 2, 0)):
        fresh = QBinomialCache()
        value = fresh.prefactor(a_key(a_list))
        assert _unpacked(value) == multinom_factor_oracle(a_list)
        assert fresh.prefactor(a_key(a_list)) is value and len(fresh) == 1


def test_prefactor_multiplies_no_polynomials(monkeypatch):
    calls = []
    mul_lists = poly._mul_lists
    monkeypatch.setattr(poly, "_mul_lists", lambda a, b: calls.append(1) or mul_lists(a, b))
    assert _unpacked(QBinomialCache().prefactor((1, 3, 4))) == multinom_factor_oracle((1, 3, 4))
    assert calls == []


def test_prefactor_rejects_an_a_list_not_sorted():
    # the empty key is the all-zero a-list's; a zero entry is not a key
    assert _unpacked(QBinomialCache().prefactor(())) == ONE
    for a_sorted in ((3, 1), (0, 2), (-1, 2), [1, 3], (0,)):
        with pytest.raises(ValueError, match="sorted tuple"):
            QBinomialCache().prefactor(a_sorted)


def test_cache_eviction_bounded():
    cache = QBinomialCache(max_entries=4)
    for n in range(10):
        cache.binomial(n, 1)
        assert len(cache) <= 4
    # evicted entries recompute correctly
    assert cache.binomial(0, 1) == q_binomial(0, 1)
    # binomials and prefactors share the one bound
    for n in range(2, 10):
        assert _unpacked(cache.prefactor((1, n))) == multinom_factor_oracle((1, n))
        assert cache.binomial(n, 2) == q_binomial(n, 2)
        assert len(cache) <= 4


def _rows_summed(monkeypatch):
    """The rows each W(n) build adds, in ascending order, and the packed
    divisions it makes; the bound B of a build takes C(h, a_i) once per added
    row h and a_i, and each row after the first costs one division per a_i > 0."""
    seen = []
    comb, divide = qcomb.comb, qcomb._div_pow2_minus_one
    monkeypatch.setattr(qcomb, "comb", lambda h, a: seen.append(h) or comb(h, a))
    monkeypatch.setattr(qcomb, "_div_pow2_minus_one",
                        lambda *args: seen.append(None) or divide(*args))

    def rows():
        out = (sorted({h for h in seen if h is not None}), seen.count(None))
        del seen[:]
        return out

    return rows


def test_weighted_sum_extends_the_largest_cached_n(monkeypatch):
    # the oracle's binomials are packed builds too, so take them before the spy
    want = {n: weighted_sum_oracle(n, (1, 2)) for n in (5, 6, 7, 8)}
    rows = _rows_summed(monkeypatch)
    cache = QBinomialCache()
    assert _unpacked(cache.weighted_sum(5, (1, 2))) == want[5]
    # rows below max(a_i) vanish; row 2 is gauss(2, 1) gauss(2, 2), one
    # division, and rows 3 and 4 follow it
    assert rows() == ([2, 3, 4], 1 + 4)
    assert _unpacked(cache.weighted_sum(8, (1, 2))) == want[8]
    assert rows() == ([5, 6, 7], 6)  # built off W(5) and its last row, row 4
    assert _unpacked(cache.weighted_sum(6, (1, 2))) == want[6]
    assert rows() == ([5], 2)  # W(8) is not below 6, so W(5) is the base
    assert _unpacked(cache.weighted_sum(8, (1, 2))) == want[8]
    assert rows() == ([], 0)  # a hit
    # clear() drops the sums with the binomials and prefactors
    cache.clear()
    assert len(cache) == 0
    assert _unpacked(cache.weighted_sum(7, (1, 2))) == want[7]
    assert rows() == ([2, 3, 4, 5, 6], 1 + 8)


def test_weighted_sum_stores_only_its_own_n():
    cache = QBinomialCache()
    cache.weighted_sum(6, (1, 3))
    # W(6) with its last row as one entry; the first row reads no binomial
    # from the memo, and later rows and the partial sums are not stored
    assert len(cache) == 1
    # n <= max(a_i): every row vanishes, and nothing is stored
    fresh = QBinomialCache()
    assert _unpacked(fresh.weighted_sum(3, (1, 3))) == ZERO
    assert _unpacked(fresh.weighted_sum(3, (3,))) == ZERO
    assert len(fresh) == 0
    # the all-zero a-list's key: every row is 1, so W(n) = [n]
    assert _unpacked(fresh.weighted_sum(4, ())) == q_int(4)


@pytest.mark.parametrize("a_sorted", [(3, 1), (0, 2), (-1, 2), [1, 3], (1, 3, 2)])
def test_weighted_sum_rejects_an_a_list_not_sorted(a_sorted):
    # the memo keys W(n) on the tuple as given and builds from its last entry,
    # so it takes only what ``theorems.a_key`` hands it: a sorted tuple of
    # nonzero entries
    with pytest.raises(ValueError, match="sorted tuple"):
        QBinomialCache().weighted_sum(6, a_sorted)
    with pytest.raises(ValueError, match="sorted tuple"):
        QBinomialCache().folded_weighted_sum(6, a_sorted)


def test_weighted_sum_evicting_mid_build():
    # a table of four entries evicts earlier sums, with their last rows,
    # between builds; every value must still match the oracle
    small = QBinomialCache(max_entries=4)
    for n in list(range(1, 12)) + list(range(11, 0, -1)):
        for a_list in ((0, 2), (1, 1, 3), (2, 2, 2)):
            assert _unpacked(small.weighted_sum(n, a_key(a_list))) \
                == weighted_sum_oracle(n, a_list)
            assert len(small) <= 4


# (n, a-list) whose bound B = W(1) needs slots of 1, 2, 4, 8, 16 and 24 bytes
_WIDTH_CASES = ((5, (1,)), (10, (2, 2)), (12, (3, 3, 3)), (16, (4, 4, 4, 4)),
                (20, (1, 5, 5, 5, 5, 5)), (28, (4, 8, 8, 8, 8, 8, 8, 8)))


class TestPackedWeightedSum:
    """W(n) built as one packed integer, against the term-by-term oracle."""

    def test_cases_cover_every_slot_width(self):
        bounds = [sum(math.prod(math.comb(h, a) for a in a_sorted) for h in range(n))
                  for n, a_sorted in _WIDTH_CASES]
        assert [_slot_bytes(b) for b in bounds] == [1, 2, 4, 8, 16, 24]

    @pytest.mark.parametrize("n, a_sorted", _WIDTH_CASES)
    def test_cold_and_extended_from_every_smaller_n(self, n, a_sorted):
        want = weighted_sum_oracle(n, a_sorted)
        assert _unpacked(QBinomialCache().weighted_sum(n, a_sorted)) == want
        for held in range(a_sorted[-1] + 1, n):
            cache = QBinomialCache()
            assert _unpacked(cache.weighted_sum(held, a_sorted)) \
                == weighted_sum_oracle(held, a_sorted)
            assert _unpacked(cache.weighted_sum(n, a_sorted)) == want, held

    def test_memo_of_four_entries(self):
        # the last four n of each case, every a-list in turn, up and then
        # down: a build extends the W just stored or evicts its base when it
        # stores, and a cold first row evicts other a-lists' sums
        want = {(m, a_sorted): weighted_sum_oracle(m, a_sorted)
                for n, a_sorted in _WIDTH_CASES for m in range(n - 3, n + 1)}
        small = QBinomialCache(max_entries=4)
        for key in sorted(want) + sorted(want, reverse=True):
            assert _unpacked(small.weighted_sum(*key)) == want[key], key
            assert len(small) <= 4


# --- W(n) modulo q^n - 1 ------------------------------------------------------------

# (n, key) pairs on either side of each slot-width boundary of W(1): the width
# grows between n and n + 1
_WIDTH_STEPS = ((23, (1,)), (36, (3,)), (37, (1, 8)), (39, (3, 7, 8)),
                (9, (2, 7, 8, 8)), (38, (8, 8, 8, 8, 8)))


def _assert_folded_matches_full(memo, n, key):
    """The folded route equals the full W(n) folded by block sums, in value,
    k, size and at_one, and [n] divides the same products with either."""
    got = memo.folded_weighted_sum(n, key)
    full = memo.weighted_sum(n, key)
    assert got == folded(full, n), (n, key)
    prefactor = memo.prefactor(key)
    assert packed_divides((prefactor, got), n) == packed_divides((prefactor, full), n)


def _tables_built(monkeypatch):
    """The (n, bits, top) of every q-Pascal table built, each checked to
    hold columns 0..top of n rows."""
    seen = []
    build = qcomb._pascal_columns

    def spy(n, bits, top):
        columns = build(n, bits, top)
        assert [len(column) for column in columns] == [n] * (top + 1)
        seen.append((n, bits, top))
        return columns

    monkeypatch.setattr(qcomb, "_pascal_columns", spy)
    return seen


def _fold_bits(n, key):
    """The slot width, in bits, of the rows of W(n) modulo q^n - 1."""
    top = key[-1] if key else 0
    return max(rows_at_one(key, top, n), math.comb(n - 1, min(top, (n - 1) // 2))).bit_length()


# (n, key) with the slot width one bit wider at n + 1 than at n
_BIT_STEPS = [(n, key) for key in ((), (1,), (2,), (1, 3), (1, 8), (2, 2, 2), (1, 2, 4, 4),
                                   (3, 3, 3, 3, 3))
              for n in range(key[-1] + 1 if key else 1, 40)
              if _fold_bits(n + 1, key) == _fold_bits(n, key) + 1]


class TestFoldedWeightedSum:
    """W(n) modulo q^n - 1 read off the q-Pascal table, against the full W(n)."""

    def test_every_key_of_three_entries_in_1_to_6(self):
        memo = QBinomialCache()
        for m in range(4):
            for key in itertools.combinations_with_replacement(range(1, 7), m):
                for n in range(1, 31):
                    _assert_folded_matches_full(memo, n, key)

    def test_seeded_wide_keys(self):
        rng = random.Random(22)
        memo = QBinomialCache()
        for _ in range(300):
            key = a_key([rng.randint(1, 8) for _ in range(rng.randint(1, 5))])
            _assert_folded_matches_full(memo, rng.randint(1, 40), key)

    def test_cases_straddle_every_slot_width_boundary(self):
        steps = [(_slot_bytes(rows_at_one(key, 0, n)), _slot_bytes(rows_at_one(key, 0, n + 1)))
                 for n, key in _WIDTH_STEPS]
        assert sorted(steps) == [(1, 2), (1, 4), (2, 4), (4, 8), (8, 16), (16, 24)]

    @pytest.mark.parametrize("n, key", _WIDTH_STEPS)
    def test_either_side_of_a_slot_width_boundary(self, n, key):
        memo = QBinomialCache()
        _assert_folded_matches_full(memo, n, key)
        _assert_folded_matches_full(memo, n + 1, key)

    def test_table_wider_than_w(self, monkeypatch):
        # W(12) for (8,) sums to C(12, 9) = 220, eight bits, but the table's
        # column 5 holds C(11, 5) = 462: the rows are taken in 9-bit slots
        # and the result is packed into one byte
        assert (rows_at_one((8,), 0, 12), math.comb(11, 5)) == (220, 462)
        tables = _tables_built(monkeypatch)
        memo = QBinomialCache()
        got = memo.folded_weighted_sum(12, (8,))
        assert got.k == 1 and tables == [(12, 9, 8)]
        _assert_folded_matches_full(memo, 12, (8,))

    def test_table_holds_only_the_columns_asked_for(self, monkeypatch):
        # each build makes its own table, columns 0..max(a_i) in its own
        # slot width; the memo holds neither the table nor W(n) modulo q^n - 1
        tables = _tables_built(monkeypatch)
        memo = QBinomialCache()
        for key in ((1, 3), (2, 2), (1, 7), (1, 3)):
            memo.folded_weighted_sum(12, key)
        assert tables == [(12, 13, 3), (12, 13, 2), (12, 13, 7), (12, 13, 3)]
        assert len(memo) == 0

    @pytest.mark.parametrize("n, key", [(3, (3,)), (5, (2, 5)), (1, (1,)), (4, (4, 4))])
    def test_no_rows_below_max_a(self, n, key):
        memo = QBinomialCache()
        assert memo.folded_weighted_sum(n, key) == (0, 1, 0, 0)
        _assert_folded_matches_full(memo, n, key)
        assert len(memo) == 1  # the prefactor alone: no table, no W

    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_empty_key_is_q_int(self, n):
        memo = QBinomialCache()
        got = memo.folded_weighted_sum(n, ())
        assert (got.poly(), got.at_one) == (q_int(n), n)
        _assert_folded_matches_full(memo, n, ())

    @pytest.mark.parametrize("key", [(2, 2), (3, 3, 3), (1, 1, 1, 1), (2, 2, 2, 2, 2),
                                     (1, 4, 4, 4, 4, 4), (1, 1, 2, 2, 2, 3, 3, 3, 3),
                                     (5, 5, 5, 5, 5), (8, 8, 8, 8, 8)])
    def test_repeated_entries(self, key):
        # an entry repeated e times, e = 2..5
        memo = QBinomialCache()
        for n in range(key[-1] + 1, 41):
            _assert_folded_matches_full(memo, n, key)

    def test_cases_straddle_every_bit_width_boundary(self):
        # the slots are b bits wide, b that of max(W(1), the table's largest
        # C(h, a)); b steps by one from each n to the next at least once for
        # every b in 1..67, byte boundaries included
        steps = {(_fold_bits(n, key), _fold_bits(n + 1, key)) for n, key in _BIT_STEPS}
        assert {b for b, c in steps if c == b + 1} >= set(range(1, 68))

    def test_either_side_of_a_bit_width_boundary(self):
        memo = QBinomialCache()
        for n, key in _BIT_STEPS:
            _assert_folded_matches_full(memo, n, key)
            _assert_folded_matches_full(memo, n + 1, key)


def test_rows_at_one_matches_a_loop_per_row():
    for key in ((), (1,), (2, 3), (1, 1, 4)):
        for lo, hi in ((0, 0), (0, 9), (3, 9), (5, 4)):
            want = sum(math.prod(math.comb(h, a) for a in key) for h in range(lo, hi))
            assert rows_at_one(key, lo, hi) == want


def test_cache_rejects_nonpositive_bound():
    with pytest.raises(ValueError):
        QBinomialCache(max_entries=0)


# --- Laurent polynomials ----------------------------------------------------------

def test_laurent_canonical_form():
    assert LaurentPoly(ZERO, 5) == LaurentPoly(ZERO, -3)
    assert LaurentPoly(ZERO, 5).offset == 0
    p = LaurentPoly(IntPoly([0, 0, 1, 2]), -5)  # q^-5 * (q^2 + 2q^3)
    assert p.offset == -3
    assert p.body == IntPoly([1, 2])


def test_laurent_add_mul():
    a = LaurentPoly.q_power(-2)
    b = LaurentPoly.q_power(3)
    assert a * b == LaurentPoly.q_power(1)
    s = a + b
    assert s.offset == -2
    assert s.body == IntPoly([1, 0, 0, 0, 0, 1])


def test_laurent_cancellation():
    a = LaurentPoly(IntPoly([1, 1]), -1)
    assert (a - a).is_zero
    assert a + (-a) == LaurentPoly()


def test_laurent_int_and_poly_coercion():
    assert LaurentPoly.q_power(0) == 1
    assert LaurentPoly.from_poly(IntPoly([1, 1])) == IntPoly([1, 1])
    assert 1 + LaurentPoly.q_power(1) == LaurentPoly.from_poly(IntPoly([1, 1]))


def test_laurent_as_poly():
    assert LaurentPoly(IntPoly([3, 1]), 2).as_poly() == IntPoly([0, 0, 3, 1])
    assert LaurentPoly().as_poly() == ZERO
    with pytest.raises(ValueError):
        LaurentPoly(ONE, -1).as_poly()


def test_laurent_str():
    assert str(LaurentPoly(IntPoly([1, 2, 1]), -2)) == "q^-2 + 2*q^-1 + 1"
    assert str(LaurentPoly()) == "0"


def test_laurent_mul_respects_poly_mul():
    a, b = IntPoly([1, 2, 3]), IntPoly([4, 0, 5])
    assert LaurentPoly.from_poly(a) * LaurentPoly.from_poly(b) == \
        LaurentPoly.from_poly(a * b)
