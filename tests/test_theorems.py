"""Checker tests: frozen small cases first, then grids and cross-route agreement."""

import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from oracles import (
    binomials_plus_one,
    chu_sides_oracle,
    comb_row_zero_is_one,
    modulus_shifted,
    multinom_factor_oracle,
    pfaff_fraction_report,
    pfaff_lhs_oracle,
    residue_sides_oracle,
    steps_plus_one,
    symmetric_sides_oracle,
    terms_sum_oracle,
    thm2_full_product,
    weighted_sum_oracle,
    weighted_sum_plus_modulus,
    weighted_sums_plus_one,
)

from qcong import congruence, poly, qcomb, sweep, theorems
from qcong.errors import InternalError, InvalidParamsError, SingularSpecialization
from qcong.poly import ONE, ZERO, IntPoly
from qcong.qcomb import LaurentPoly, q_binomial, q_factorial, q_int
from qcong.theorems import (
    check_chu_vandermonde,
    check_p_minus_one_lemma,
    check_pfaff_saalschutz,
    check_residue_identity,
    check_sum_lemma,
    check_symmetric_identity,
    check_thm1,
    check_thm2,
    multinom_factor,
    q1_check,
    sum_quotient_direct,
    sum_quotient_recurrence,
    weighted_sum,
)


# --- prefactor and weighted sum ---------------------------------------------------

def test_multinom_factor_frozen():
    assert multinom_factor([1, 1]) == IntPoly([1, 2, 2, 1])  # equals [3]!
    assert multinom_factor([0]) == ONE
    assert multinom_factor([2]) == q_int(3)  # [3]!/[2]! = [3]


def test_multinom_factor_symmetric():
    assert multinom_factor([3, 1, 2]) == multinom_factor([1, 2, 3])


def test_multinom_factor_matches_factorial_quotient():
    for m in range(1, 4):
        for a_list in itertools.product(range(7), repeat=m):
            assert multinom_factor(a_list) == multinom_factor_oracle(a_list), a_list


def test_weighted_sum_frozen():
    # sum for n=3, a=(1,1): q + q^2 (1+q)^2 = q + q^2 + 2q^3 + q^4
    assert weighted_sum(3, [1, 1]) == IntPoly([0, 1, 1, 2, 1])


def test_weighted_sum_all_zero_exponents_gives_q_int():
    for n in range(1, 8):
        assert weighted_sum(n, [0]) == q_int(n)


def test_weighted_sum_vanishes_when_exponents_exceed_range():
    assert weighted_sum(3, [5]) == ZERO
    assert weighted_sum(1, [1, 2]) == ZERO


def test_params_validation():
    with pytest.raises(InvalidParamsError):
        weighted_sum(0, [1])
    with pytest.raises(InvalidParamsError):
        weighted_sum(3, [])
    with pytest.raises(InvalidParamsError):
        weighted_sum(3, [-1])
    with pytest.raises(InvalidParamsError):
        check_thm2(4, 1, 0)  # p not prime
    with pytest.raises(InvalidParamsError):
        check_thm2(3, 3, 1)  # p <= max(a, b)
    with pytest.raises(InvalidParamsError):
        multinom_factor([])
    with pytest.raises(InvalidParamsError):
        q1_check(0, [1])
    # every checker rejects a non-integer or negative argument as the a-list
    # checkers do
    for check, args in [
            (check_sum_lemma, (3, 1.5)), (check_sum_lemma, ("3", 1)),
            (check_sum_lemma, (0, 1)),
            (check_chu_vandermonde, (2, 1.5, 1)), (check_chu_vandermonde, (2, 1, "1")),
            (check_residue_identity, (1.5, 1)), (check_residue_identity, (1, "2")),
            (check_symmetric_identity, (2, 0.5)), (check_symmetric_identity, ("1", 1)),
            (check_p_minus_one_lemma, (5.0, 1)), (check_p_minus_one_lemma, (5, 1.5)),
            (check_thm2, (5.0, 1, 1)), (check_thm2, (5, "1", 1)), (check_thm2, (5, 1, -1))]:
        with pytest.raises(InvalidParamsError):
            check(*args)


def test_weighted_sum_cache_transparent():
    # the memoized sum must equal one built from uncached product-formula binomials
    for n in (1, 3, 6):
        for a_list in ([0], [1, 1], [2, 0, 1]):
            assert weighted_sum(n, a_list) == weighted_sum_oracle(n, a_list)


def test_weighted_sum_independent_of_visit_order():
    # each W(n) is built off whichever smaller n of the same a-list is cached,
    # so visit n ascending, descending and shuffled, each from a cleared memo
    a_lists = ([3], [2, 1], [1, 2], [0, 2, 1], [2, 2, 0], [1, 0, 2])
    expected = {(n, tuple(a)): weighted_sum_oracle(n, a)
                for n in range(1, 11) for a in a_lists}
    shuffled = list(expected)
    random.Random(9).shuffle(shuffled)
    for order in (sorted(expected), sorted(expected, reverse=True), shuffled):
        qcomb.BINOMIAL_MEMO.clear()
        for n, a_list in order:
            assert weighted_sum(n, a_list) == expected[n, a_list], (n, a_list)


@pytest.mark.parametrize("check, args", [
    (check_sum_lemma, (5, 2)),
    (check_chu_vandermonde, (3, 2, 4)),
    # an identity's witness route, on the left side of the check above it
    (theorems._laurent_sum, ([(1, 0, ((3, 2), (2, 2))), (1, 3, ((3, 3), (2, 1)))],)),
    (check_p_minus_one_lemma, (5, 2)),
    (check_residue_identity, (2, 3)),
    (theorems._laurent_sum, ([(-1, -3, ((6, 2), (3, 2), (3, 3))),
                              (1, -4, ((6, 1), (4, 2), (4, 3))),
                              (-1, -4, ((6, 0), (5, 2), (5, 3)))],)),
    (check_symmetric_identity, (3, 2)),
    (theorems._laurent_sum, ([(-1, -5, ((3, 3), (3, 2), (6, 4))),
                              (1, -6, ((4, 3), (4, 2), (6, 5))),
                              (-1, -6, ((5, 3), (5, 2), (6, 6)))],)),
    (sum_quotient_recurrence, (6, [2, 1])),
    (check_thm1, (7, [3, 2])),
    (check_thm2, (7, 3, 2)),
    (weighted_sum, (6, [2, 1])),
    (multinom_factor, ([3, 1],)),
])
def test_checker_draws_binomials_from_the_shared_memo(monkeypatch, check, args):
    # the prefactor and W(n) are packed products that the memo builds whole,
    # so thm1 and thm2 build no binomial at all; an identity adds packed
    # products on a pass and reads the memo's binomials only on its fail
    # route, the Laurent sums of its terms
    builds = check not in (check_thm1, check_thm2, weighted_sum, multinom_factor,
                           check_chu_vandermonde, check_residue_identity,
                           check_symmetric_identity)
    calls = []

    def counting(n, k):
        calls.append((n, k))
        return q_binomial(n, k)

    monkeypatch.setattr(qcomb, "q_binomial", counting)
    qcomb.BINOMIAL_MEMO.clear()
    check(*args)
    assert bool(calls) == builds
    assert len(calls) == len(set(calls))  # built once, via the memo
    built = len(calls)
    check(*args)
    assert len(calls) == built  # a second run is all memo hits


# --- main divisibility claim --------------------------------------------------------

def test_thm1_frozen_instances():
    assert check_thm1(4, [1, 1]).status == "pass"
    assert check_thm1(3, [1, 1, 1]).status == "pass"
    assert check_thm1(2, [3]).status == "pass"


def test_thm1_vanishing_sum_annotated():
    r = check_thm1(1, [5])
    assert r.status == "pass"
    assert r.note == "vanishing-sum"
    assert check_thm1(4, [1, 1]).note is None


def test_thm1_report_params_order():
    r = check_thm1(4, [1, 2])
    assert r.params == (("n", 4), ("a1", 1), ("a2", 2))


def test_thm1_small_grid():
    for n in range(1, 9):
        for m in range(1, 3):
            for a1 in range(4):
                for a2 in range(4 if m == 2 else 1):
                    a_list = [a1] + ([a2] if m == 2 else [])
                    assert check_thm1(n, a_list).status == "pass", (n, a_list)


def test_q1_frozen():
    # 3! * (C(0,1)^2 + C(1,1)^2 + C(2,1)^2) = 6 * 5 = 30 == 0 mod 3
    r = q1_check(3, [1, 1])
    assert r.status == "pass"
    assert q1_check(1, [2]).note == "vanishing-sum"


def test_q1_matches_polynomial_at_one():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 12)
        m = rng.randint(1, 3)
        a_list = [rng.randint(0, 4) for _ in range(m)]
        poly_value = (multinom_factor(a_list) * weighted_sum(n, a_list)).evaluate(1)
        s = sum(a_list) + 1
        factor = math.factorial(s)
        for a in a_list:
            factor //= math.factorial(a)
        total = sum(math.prod(math.comb(h, a) for a in a_list) for h in range(n))
        assert poly_value == factor * total
        assert q1_check(n, a_list).status == "pass"


# --- quotient polynomial: direct vs recurrence ---------------------------------------

def test_sum_quotient_single_exponent_base_case():
    # quotient for one exponent a is gauss(n-1, a) * q^a
    assert sum_quotient_direct(4, [2]) == IntPoly([0, 0, 1, 1, 1])
    for n in range(1, 10):
        for a in range(5):
            expect = q_binomial(n - 1, a).shift(a)
            assert sum_quotient_direct(n, [a]) == expect
            assert sum_quotient_recurrence(n, [a]) == expect


def test_sum_quotient_frozen_pair():
    # worked by hand twice (direct expansion and the recurrence)
    expect = IntPoly([0, 1, 2, 4, 5, 5, 3, 1])
    assert sum_quotient_direct(4, [1, 1]) == expect
    assert sum_quotient_recurrence(4, [1, 1]) == expect


def test_sum_quotient_routes_agree_small_grid():
    for n in range(1, 7):
        for a_list in ([0, 0], [1, 2], [2, 1], [0, 1, 2], [2, 2, 1]):
            assert sum_quotient_direct(n, a_list) == sum_quotient_recurrence(n, a_list), \
                (n, a_list)


def test_sum_quotient_routes_agree_sampled():
    rng = random.Random(40)
    for _ in range(30):
        n = rng.randint(1, 10)
        m = rng.randint(1, 3)
        a_list = [rng.randint(0, 4) for _ in range(m)]
        assert sum_quotient_direct(n, a_list) == \
            sum_quotient_recurrence(n, a_list), (n, a_list)


# --- support identities ----------------------------------------------------------------

def test_sum_lemma_frozen():
    # n=4, a=1: q + q^2(1+q) + q^3(1+q+q^2) = q + q^2 + 2q^3 + q^4 + q^5
    lhs = ZERO
    for h in range(4):
        lhs = lhs + q_binomial(h, 1).shift(h)
    assert lhs == IntPoly([0, 1, 1, 2, 1, 1])
    assert check_sum_lemma(4, 1).status == "pass"


def test_sum_lemma_out_of_range_trivial():
    r = check_sum_lemma(3, 7)
    assert r.status == "pass"  # 0 = 0


def test_sum_lemma_grid():
    for n in range(1, 11):
        for a in range(11):
            assert check_sum_lemma(n, a).status == "pass", (n, a)


def test_chu_vandermonde_frozen():
    assert check_chu_vandermonde(3, 4, 2).status == "pass"
    # independent expansion for (3,4,2):
    total = LaurentPoly()
    for k in range(3):
        total = total + LaurentPoly(q_binomial(3, k) * q_binomial(4, 2 - k),
                                    k * (4 - 2 + k))
    assert total == LaurentPoly.from_poly(q_binomial(7, 2))


def test_chu_vandermonde_grid():
    for a in range(6):
        for b in range(6):
            for n in range(6):
                assert check_chu_vandermonde(a, b, n).status == "pass", (a, b, n)


def test_p_minus_one_lemma_all_small_primes():
    for p in (2, 3, 5, 7, 11, 13):
        for j in range(p):
            assert check_p_minus_one_lemma(p, j).status == "pass", (p, j)


def test_p_minus_one_lemma_validation():
    with pytest.raises(InvalidParamsError):
        check_p_minus_one_lemma(4, 1)
    with pytest.raises(InvalidParamsError):
        check_p_minus_one_lemma(5, 5)


def test_residue_identity_frozen_1_1():
    # by hand: [3 gauss 1] - (1+q)^2 = -q, matching (-1)^1 q^(1-0-0)
    assert q_int(3) - IntPoly([1, 1]) ** 2 == IntPoly([0, -1])
    assert check_residue_identity(1, 1).status == "pass"


def test_residue_identity_grid():
    for a in range(7):
        for b in range(7):
            assert check_residue_identity(a, b).status == "pass", (a, b)


def test_symmetric_identity_frozen_1_0():
    assert check_symmetric_identity(1, 0).status == "pass"
    assert check_symmetric_identity(0, 0).status == "pass"


def test_symmetric_identity_grid():
    for a in range(7):
        for b in range(7):
            assert check_symmetric_identity(a, b).status == "pass", (a, b)


# --- the identities on packed integers --------------------------------------------------

def _identity_spy(monkeypatch):
    """A list that gets the term lists (lhs, rhs) of every ``_identity`` call."""
    seen = []
    decide = theorems._identity
    monkeypatch.setattr(theorems, "_identity", lambda claim_id, params, lhs, rhs:
                        seen.append((lhs, rhs)) or decide(claim_id, params, lhs, rhs))
    return seen


_IDENTITY_GRID = (
    [(check_chu_vandermonde, chu_sides_oracle, (a, b, n))
     for a in range(9) for b in range(9) for n in range(19)]
    + [(check, sides, (a, b))
       for check, sides in ((check_residue_identity, residue_sides_oracle),
                            (check_symmetric_identity, symmetric_sides_oracle))
       for a in range(9) for b in range(9)])


def test_packed_identities_match_the_laurent_route(monkeypatch):
    # every chu_vandermonde check with a, b <= 8 and n <= 18, every residue
    # and symmetric check with a, b <= 8: the oracle's sides agree, the
    # witness route sums the checker's own terms to those very sides, and
    # the packed route passes
    seen = _identity_spy(monkeypatch)
    for check, sides, args in _IDENTITY_GRID:
        lhs, rhs = sides(*args)
        assert lhs == rhs, (check.__name__, args)
        assert check(*args).status == "pass", (check.__name__, args)
        terms_lhs, terms_rhs = seen.pop()
        assert theorems._laurent_sum(terms_lhs) == lhs, (check.__name__, args)
        assert theorems._laurent_sum(terms_rhs) == rhs, (check.__name__, args)
    assert seen == []


def test_packed_sum_matches_the_laurent_sum_on_broken_terms(monkeypatch):
    # each identity's terms with one exponent moved by one or one sign
    # flipped no longer sum to zero; the packed route must say so exactly
    # when the Laurent sum of the same terms is nonzero
    checked = vanishing = 0
    seen = _identity_spy(monkeypatch)
    for check, _, args in _IDENTITY_GRID[::7]:
        check(*args)
        lhs, rhs = seen.pop()
        terms = lhs + [(-sign, e, pairs) for sign, e, pairs in rhs]
        for i, (sign, e, pairs) in enumerate(terms):
            for broken in ((sign, e + 1, pairs), (sign, e - 1, pairs), (-sign, e, pairs)):
                moved = terms[:i] + [broken] + terms[i + 1:]
                zero = terms_sum_oracle(moved).is_zero
                assert theorems._sum_vanishes(moved) == zero, (check.__name__, args, i)
                checked += 1
                vanishing += zero
    assert checked > 1000 and vanishing < checked


def test_packed_sum_needs_equal_sides_at_one():
    # q against 256: at X = 2^8, the slots S = 1 asks for, both are 256
    assert not theorems._sum_vanishes([(1, 1, ())] + [(-1, 0, ())] * 256)
    # q^2 + 256 against 257q: equal at q = 1 and at X = 2^8, but S = 257 needs
    # two-byte slots, where they differ
    assert not theorems._sum_vanishes([(1, 2, ())] + [(1, 0, ())] * 256
                                      + [(-1, 1, ())] * 257)
    assert theorems._sum_vanishes([(1, 0, ((4, 2),)), (-1, 0, ((4, 2),))])
    assert theorems._sum_vanishes([])


def test_identity_pass_builds_no_laurent_poly_and_multiplies_nothing(monkeypatch):
    calls = []
    for cls, name in ((LaurentPoly, "__init__"), (IntPoly, "__mul__")):
        method = getattr(cls, name)
        monkeypatch.setattr(cls, name, lambda *args, method=method, name=name:
                            calls.append(name) or method(*args))
    qcomb.BINOMIAL_MEMO.clear()
    for check, _, args in _IDENTITY_GRID[::5]:
        assert check(*args).status == "pass"
    assert calls == []
    # the spies are live: a fail is decided again on the Laurent sides
    binomials_plus_one(monkeypatch)
    assert check_chu_vandermonde(2, 1, 1).status == "fail"
    assert "__init__" in calls and "__mul__" in calls


# --- the mod [p]^2 refinement ------------------------------------------------------------

def test_thm2_frozen_2_1_1():
    # LHS = [3]! * q = q(1+q)(1+q+q^2); RHS = q*[2]; difference q^2 (1+q)^2
    lhs = multinom_factor([1, 1]) * weighted_sum(2, [1, 1])
    assert lhs == IntPoly([0, 1, 2, 2, 1])
    diff = lhs - ONE.shift(1) * q_int(2)
    assert diff == (q_int(2) * q_int(2)).shift(2)
    assert check_thm2(2, 1, 1).status == "pass"


def test_thm2_negative_exponent_instance():
    # a=0, b=2 gives raw exponent -1, exercising both normalization and clearing
    assert check_thm2(3, 0, 2).status == "pass"


def test_thm2_full_grids_small_primes():
    for p in (2, 3, 5):
        for a in range(p):
            for b in range(p):
                assert check_thm2(p, a, b).status == "pass", (p, a, b)


def test_thm2_lhs_symmetric_in_a_b():
    for (a, b) in ((0, 1), (1, 2), (0, 3), (2, 3)):
        lhs_ab = multinom_factor([a, b]) * weighted_sum(5, [a, b])
        lhs_ba = multinom_factor([b, a]) * weighted_sum(5, [b, a])
        assert lhs_ab == lhs_ba


def test_thm2_cross_check_catches_a_fold_without_its_b_term(monkeypatch):
    # a mutant pair fold that drops B = sum_j j*F_j, reducing modulo
    # (q^p - 1)^2 as if y^j == 1, moves T.  Both packed routes read the same
    # S and T, so they agree and mostly fail; each fail is decided again on
    # the unpacked factors, which pass, and that raises: the mutant never
    # reaches a verdict fail
    block_sums = congruence._block_sums

    def without_b(value, block_bits, blocks, weighted=False):
        return block_sums(value, block_bits, blocks)[0], 0

    monkeypatch.setattr(congruence, "_block_sums", without_b)
    raised = 0
    for a in range(7):
        for b in range(7):
            try:
                assert check_thm2(7, a, b).status == "pass"
            except InternalError as exc:
                assert "packed residue modulo [7]^2 finds no pass" in str(exc)
                raised += 1
    assert raised > 0


def test_thm2_matches_the_full_product_route():
    # every (p, a, b) with p <= 23: 1,556 instances, decided on pair folds and
    # by the full product's long division and derivative route
    checked = 0
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
        for a in range(p):
            for b in range(p):
                assert check_thm2(p, a, b) == thm2_full_product(p, a, b), (p, a, b)
                checked += 1
    assert checked == 1556


def test_thm2_pass_multiplies_and_divides_no_polynomial(monkeypatch):
    # a pass is decided on the packed prefactor and W(p), built cold here:
    # no IntPoly multiply and no long division
    p, a, b = 11, 4, 3
    assert len(multinom_factor([a, b]).coeffs) > p  # both factors are long
    assert len(weighted_sum(p, [a, b]).coeffs) > 2 * p
    qcomb.BINOMIAL_MEMO.clear()
    calls = []
    mul, divrem_lists = poly.IntPoly.__mul__, poly._divrem_lists
    monkeypatch.setattr(poly.IntPoly, "__mul__",
                        lambda self, other: calls.append("mul") or mul(self, other))
    monkeypatch.setattr(poly, "_divrem_lists",
                        lambda a, b: calls.append("divrem") or divrem_lists(a, b))
    assert check_thm2(p, a, b).status == "pass"
    assert calls == []
    # the checks still count: a fail multiplies and divides, for its witness
    modulus_shifted(monkeypatch)
    assert check_thm2(p, a, b).status == "fail"
    assert "mul" in calls and "divrem" in calls


def test_thm2_validation():
    with pytest.raises(InvalidParamsError):
        check_thm2(4, 1, 1)  # not prime
    with pytest.raises(InvalidParamsError):
        check_thm2(3, 3, 1)  # p <= max(a,b)
    with pytest.raises(InvalidParamsError):
        check_thm2(3, -1, 1)


# --- terminating balanced summation --------------------------------------------------------

def test_pfaff_frozen_point():
    # hand-computed: both sides equal -3/2 at (x,y,z,q,n) = (2,3,5,2,1)
    assert pfaff_lhs_oracle(Fraction(2), Fraction(3), Fraction(5), Fraction(2), 1) == Fraction(-3, 2)
    assert theorems._pfaff_sides(Fraction(2), Fraction(3), Fraction(5), Fraction(2), 1) == (
        Fraction(-3, 2), Fraction(-3, 2))
    assert check_pfaff_saalschutz(2, 3, 5, 2, 1).status == "pass"


def test_pfaff_rational_points():
    pts = [
        (Fraction(1, 2), Fraction(3), Fraction(7, 2), Fraction(2), 3),
        (Fraction(-2), Fraction(5, 3), Fraction(4), Fraction(3, 2), 4),
        (Fraction(3), Fraction(-1, 2), Fraction(9, 4), Fraction(-2), 5),
    ]
    for x, y, z, q, n in pts:
        lhs, rhs = theorems._pfaff_sides(x, y, z, q, n)
        assert lhs == rhs == pfaff_lhs_oracle(x, y, z, q, n), (x, y, z, q, n)
        assert check_pfaff_saalschutz(x, y, z, q, n).status == "pass"


def _random_rational(rng, bound=9):
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, bound), rng.randint(1, bound))


def test_pfaff_one_pass_lhs_matches_oracle():
    rng = random.Random(14)
    checked = 0
    while checked < 500:
        x, y, z, q = (_random_rational(rng) for _ in range(4))
        n = rng.randint(0, 8)
        try:
            lhs, _ = theorems._pfaff_sides(x, y, z, q, n)
        except SingularSpecialization:
            continue
        assert lhs == pfaff_lhs_oracle(x, y, z, q, n), (x, y, z, q, n)
        checked += 1


@pytest.mark.parametrize("q", [Fraction(2), Fraction(-3, 2), Fraction(1, 3)])
@pytest.mark.parametrize("n", [3, 6])
def test_pfaff_lhs_where_terms_vanish_partway(q, n):
    # x = q^-j zeroes (x;q)_k for every k > j, so the sum stops after term j;
    # y = q^-j does the same on the other numerator factor
    for j in range(n):
        for x, y in ((q ** -j, Fraction(5, 3)), (Fraction(-7, 2), q ** -j)):
            lhs, rhs = theorems._pfaff_sides(x, y, Fraction(9, 7), q, n)
            assert lhs == rhs == pfaff_lhs_oracle(x, y, Fraction(9, 7), q, n), (x, y, q, n)


def test_pfaff_singular_specialization_skipped():
    r = check_pfaff_saalschutz(2, 3, 1, 2, 2)  # z = 1 makes (z;q)_n vanish
    assert r.status == "skipped"
    assert r.witness is None
    assert "vanishes" in r.note
    r2 = check_pfaff_saalschutz(2, 3, 5, 1, 2)  # q = 1 disallowed
    assert r2.status == "skipped"


def _pfaff_points(rng, count, n_max):
    """Random points with x, y, z in +-1..7 over 1..4 and q in +-2..7 over 1..3,
    about a third of them made singular in one of the ways the Fraction route
    names, and some with x = q^-j, whose terms vanish partway."""
    def rational(top, den):
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, top), rng.randint(1, den))

    points = []
    while len(points) < count:
        x, y, z = rational(7, 4), rational(7, 4), rational(7, 4)
        q = Fraction(rng.choice([-1, 1]) * rng.randint(2, 7), rng.randint(1, 3))
        n = rng.randint(0, n_max)
        if q in (1, -1):
            continue
        i = rng.randint(0, max(n - 1, 0))
        kind = rng.randrange(6)
        if kind == 0:
            z = q ** -i  # (z;q)_n vanishes
        elif kind == 1:
            z = x * y * q ** (1 - n + i)  # (xy q^(1-n)/z;q)_n vanishes
        elif kind == 2:
            z = x * y * q ** -i  # (z/(xy);q)_n and (xy q^(1-n)/z;q)_n vanish
        elif kind == 3:
            x = q ** -i
        points.append((x, y, z, q, n))
    return points


@pytest.mark.parametrize("count, n_max", [(2000, 8), (300, 40)])
def test_pfaff_integer_route_matches_the_fraction_route(count, n_max):
    rng = random.Random(count)
    points = _pfaff_points(rng, count, n_max)
    points += [(2, 3, 5, q, 3) for q in (0, 1, -1)] + [(0, 3, 5, 2, 2), (2, 3, 5, 2, 0)]
    notes = set()
    for point in points:
        want = pfaff_fraction_report(*point)
        assert check_pfaff_saalschutz(*point) == want, point
        sides = theorems._pfaff_integers(*map(Fraction, point[:4]), point[4])
        if want.status == "skipped":
            assert sides is None, point
            notes.add(want.note)
        else:
            (lhs_num, lhs_den), (rhs_num, rhs_den) = sides
            lhs, rhs = theorems._pfaff_sides(*map(Fraction, point[:4]), point[4])
            assert (Fraction(lhs_num, lhs_den), Fraction(rhs_num, rhs_den)) == (lhs, rhs), point
    # the bases xy q^(1-n)/z and z/(xy) multiply to q^(1-n), so their
    # Pochhammers vanish together, and the first is named
    assert notes == {"(z;q)_n vanishes", "(xy q^(1-n)/z;q)_n vanishes",
                     "q in {0, 1, -1}", "x, y, z must be nonzero"}


def test_pfaff_sample_instances_match_the_fraction_route():
    # the points the sweep draws, with n up to 8
    items = sweep.pfaff_sample_instances(400, 11, 8)
    statuses = set()
    for _, params in items:
        p = dict(params)
        point = [Fraction(p[v + "_num"], p[v + "_den"]) for v in "xyzq"] + [p["n"]]
        want = pfaff_fraction_report(*point)
        assert check_pfaff_saalschutz(*point) == want, point
        statuses.add(want.status)
    assert statuses == {"pass", "skipped"}


def test_pfaff_pass_calls_no_fraction_route(monkeypatch):
    calls = []
    for name in ("_pfaff_sides", "q_pochhammer_eval"):
        fn = getattr(theorems, name)
        monkeypatch.setattr(theorems, name, lambda *args, fn=fn, name=name:
                            calls.append(name) or fn(*args))
    for point in _pfaff_points(random.Random(3), 300, 8):
        if check_pfaff_saalschutz(*point).status == "pass":
            continue
        assert calls, point  # the spies are live: a skip asks the Fraction route
        del calls[:]
    assert calls == []


def test_pfaff_params_encode_rationals():
    r = check_pfaff_saalschutz(Fraction(1, 2), 3, 5, 2, 1)
    d = dict(r.params)
    assert d["x_num"] == 1 and d["x_den"] == 2
    assert d["q_num"] == 2 and d["q_den"] == 1
    assert d["n"] == 1


def test_pfaff_validation():
    with pytest.raises(InvalidParamsError):
        check_pfaff_saalschutz(2, 3, 5, 2, -1)


# --- every checker's fail branch, reached by corrupting one input ---------------------------

def _pfaff_lhs_plus_one(monkeypatch):
    """The left side plus one on both routes: the integer one, L/td, and the
    Fraction one, which gives the witness."""
    sides, integers = theorems._pfaff_sides, theorems._pfaff_integers

    def shifted(*args):
        lhs, rhs = sides(*args)
        return lhs + 1, rhs

    def shifted_integers(*args):
        (lhs_num, lhs_den), rhs = integers(*args)
        return (lhs_num + lhs_den, lhs_den), rhs

    monkeypatch.setattr(theorems, "_pfaff_sides", shifted)
    monkeypatch.setattr(theorems, "_pfaff_integers", shifted_integers)


# thm1 (7, [3, 2]) and thm2 (7, 3, 2) share this product; it is long enough
# that the corrupted moduli [8] and [8]^2 fold it before dividing.  thm1 folds
# each of its two factors (lengths 12 and 24) before multiplying them, and
# renders this full product only for the witness.
_LHS_7_3_2 = (
    "q^3 + 4*q^4 + 12*q^5 + 29*q^6 + 62*q^7 + 119*q^8 + 210*q^9"
    " + 343*q^10 + 525*q^11 + 755*q^12 + 1027*q^13 + 1324*q^14"
    " + 1623*q^15 + 1894*q^16 + 2108*q^17 + 2238*q^18 + 2268*q^19"
    " + 2193*q^20 + 2022*q^21 + 1776*q^22 + 1483*q^23 + 1175*q^24"
    " + 880*q^25 + 621*q^26 + 410*q^27 + 252*q^28 + 142*q^29 + 73*q^30"
    " + 33*q^31 + 13*q^32 + 4*q^33 + q^34"
)

# thm1 (5, [2, 2]) under the corrupted modulus [6]: both factors, the prefactor
# (length 9) and W(5) (length 13), are longer than the modulus.
_LHS_5_2_2 = (
    "q^2 + 3*q^3 + 9*q^4 + 20*q^5 + 40*q^6 + 67*q^7 + 102*q^8 + 136*q^9"
    " + 166*q^10 + 180*q^11 + 179*q^12 + 158*q^13 + 127*q^14 + 89*q^15"
    " + 56*q^16 + 29*q^17 + 13*q^18 + 4*q^19 + q^20"
)


@pytest.mark.parametrize("corrupt, check, witness", [
    pytest.param(modulus_shifted, lambda: check_thm1(3, [1]),
                 ("q + 2*q^2 + 2*q^3 + q^4", "0", "-1 - q"), id="thm1"),
    pytest.param(comb_row_zero_is_one, lambda: q1_check(3, [1]),
                 ("8", "0", "2"), id="q1"),
    pytest.param(modulus_shifted, lambda: check_thm2(3, 1, 0),
                 ("q + 2*q^2 + 2*q^3 + q^4", "-1 - q - q^2 - q^3",
                  "1 + 2*q + 3*q^2 + 3*q^3 + q^4"), id="thm2"),
    pytest.param(weighted_sum_plus_modulus, lambda: check_thm2(3, 1, 0),
                 ("1 + 3*q + 4*q^2 + 3*q^3 + q^4", "-1 - q - q^2",
                  "1 + 2*q + 2*q^2 + q^3"), id="thm2-off-by-[p]"),
    pytest.param(weighted_sums_plus_one, lambda: check_sum_lemma(3, 1),
                 ("1 + q + q^2 + q^3", "q + q^2 + q^3", "1"), id="sum_lemma"),
    pytest.param(binomials_plus_one, lambda: check_chu_vandermonde(2, 1, 1),
                 ("4 + 4*q + 2*q^2", "2 + q + q^2", "2 + 3*q + q^2"), id="chu_vandermonde"),
    pytest.param(modulus_shifted, lambda: check_p_minus_one_lemma(3, 1),
                 ("q + q^2", "-1", "1 + q + q^2"), id="p_minus_one"),
    pytest.param(binomials_plus_one, lambda: check_residue_identity(1, 1),
                 ("-4*q + 2*q^2", "-q", "-3*q + 2*q^2"), id="residue_identity"),
    pytest.param(binomials_plus_one, lambda: check_symmetric_identity(1, 1),
                 ("4 - 2*q", "1", "3 - 2*q"), id="symmetric_identity"),
    pytest.param(_pfaff_lhs_plus_one, lambda: check_pfaff_saalschutz(2, 3, 5, 2, 1),
                 ("-1/2", "-3/2", "1"), id="qpfaff"),
    pytest.param(modulus_shifted, lambda: check_thm1(7, [3, 2]),
                 (_LHS_7_3_2, "0", "q + 2*q^2 + 3*q^3 + 3*q^4 + 2*q^5 + q^6"),
                 id="thm1-folded"),
    pytest.param(modulus_shifted, lambda: check_thm1(5, [2, 2]),
                 (_LHS_5_2_2, "0", "3 + 2*q^2 - q^3 + 2*q^4"), id="thm1-both-factors-folded"),
    pytest.param(modulus_shifted, lambda: check_thm2(7, 3, 2),
                 (_LHS_7_3_2, "-q^2 - q^3 - q^4 - q^5 - q^6 - q^7 - q^8 - q^9",
                  "-2 - 6*q - 15*q^2 - 26*q^3 - 39*q^4 - 47*q^5 - 53*q^6 - 54*q^7"
                  " - 52*q^8 - 47*q^9 - 37*q^10 - 25*q^11 - 12*q^12 - 5*q^13"),
                 id="thm2-folded"),
    pytest.param(modulus_shifted, lambda: check_p_minus_one_lemma(7, 3),
                 ("q^6 + q^7 + 2*q^8 + 3*q^9 + 3*q^10 + 3*q^11 + 3*q^12 + 2*q^13"
                  " + q^14 + q^15", "-1", "1 + q + q^2 + q^3 + q^4"),
                 id="p_minus_one-folded"),
])
def test_fail_branch_witness(monkeypatch, corrupt, check, witness):
    corrupt(monkeypatch)
    r = check()
    assert r.status == "fail"
    assert (r.witness.lhs, r.witness.rhs, r.witness.difference) == witness
    assert r.note is None


@pytest.mark.parametrize("p, a, b, digest", [
    (7, 3, 2, "e3ec49b48f84627f1abd7e2bdf902d94b337873944f5e257e342c9ec668839ed"),
    (19, 9, 8, "b1b52d185b21187e273c08f2140dbaa27e157034ac8317a95f45e255f196650a"),
    (37, 17, 18, "75433f60b6e50571f9a56940d5149f2877072c13e9df8c5afd39f414c837b0fe"),
    (53, 26, 25, "891bed7ba0457be806c071a8bebe2361b519aa3a28ca15324dea4f836e50f778"),
])
def test_thm2_witness_bytes_are_pinned(monkeypatch, p, a, b, digest):
    # A fail's witness multiplies the unpacked prefactor and W(p), here in
    # slots of up to 2, 7, 14 and 20 bytes, either side of an 8-byte word.
    weighted_sums_plus_one(monkeypatch)
    r = check_thm2(p, a, b)
    assert r.status == "fail"
    assert hashlib.sha256(repr(tuple(r.witness)).encode()).hexdigest() == digest


@pytest.mark.parametrize("check, match", [
    pytest.param(lambda: check_thm1(5, [2, 4]), r"not a multiple of 2\^", id="thm1-division"),
    pytest.param(lambda: check_thm2(7, 3, 3), r"not a multiple of 2\^", id="thm2-division"),
    pytest.param(lambda: q_binomial(6, 3), r"not a multiple of 2\^", id="q_binomial-division"),
    pytest.param(lambda: check_thm1(4, [1, 3]), r"W\(4\) for \(1, 3\): .* do not sum to 3",
                 id="thm1-sum"),
    pytest.param(lambda: check_sum_lemma(4, 2), r"W\(4\) for \(2,\): .* do not sum to 4",
                 id="sum_lemma-sum"),
    pytest.param(lambda: check_thm1(4, [3]), r"over \(\(3, 3\), \(4, 1\)\): .* sum to 4",
                 id="thm1-prefactor-sum"),
    pytest.param(lambda: q_binomial(5, 2), r"over \(\(5, 2\),\): .* sum to 10",
                 id="q_binomial-sum"),
])
def test_corrupted_row_raises_internal_error(monkeypatch, check, match):
    # Every packed step's quotient comes out one too large, so its constant
    # slot is off.  A later division then meets no multiple of its divisor,
    # or, where no later division could see it, only the sum of the unpacked
    # coefficients does.  Either way q_binomial, the prefactor (thm2 builds
    # it first) and W(n) (thm1 builds it first) raise, and no checker
    # reports a verdict.  thm1 builds the full W(n) here since n = max(a_i)
    # + 1 adds one row; W(n) modulo q^n - 1 takes no division (see
    # test_folded_row_corrupted_raises_on_the_sum).
    qcomb.BINOMIAL_MEMO.clear()
    steps_plus_one(monkeypatch)
    with pytest.raises(InternalError, match=match):
        check()


def test_failing_congruence_divides_once(monkeypatch):
    # the verdict and its witness come from one remainder: one long division
    divisions = []
    divrem_lists = poly._divrem_lists

    def counted(*args, **kwargs):
        divisions.append(args)
        return divrem_lists(*args, **kwargs)

    modulus_shifted(monkeypatch)
    monkeypatch.setattr(poly, "_divrem_lists", counted)
    assert check_thm1(7, [3, 2]).status == "fail"
    assert len(divisions) == 1


def test_thm1_pass_multiplies_and_divides_no_polynomial(monkeypatch):
    # a pass is decided on the packed prefactor and W(n), built cold here:
    # no IntPoly multiply and no long division, not even of folded factors
    n, a_list = 9, [3, 2, 2]
    assert len(multinom_factor(a_list).coeffs) > n  # both factors are long
    assert len(weighted_sum(n, a_list).coeffs) > n
    qcomb.BINOMIAL_MEMO.clear()
    calls = []
    mul, divrem_lists = poly.IntPoly.__mul__, poly._divrem_lists
    monkeypatch.setattr(poly.IntPoly, "__mul__",
                        lambda self, other: calls.append("mul") or mul(self, other))
    monkeypatch.setattr(poly, "_divrem_lists",
                        lambda a, b: calls.append("divrem") or divrem_lists(a, b))
    assert check_thm1(n, a_list).status == "pass"
    assert calls == []
    # the checks still count: a fail multiplies and divides, for its witness
    modulus_shifted(monkeypatch)
    assert check_thm1(n, a_list).status == "fail"
    assert "mul" in calls and "divrem" in calls


# --- W(n) modulo q^n - 1: when thm1 builds it, and how a fail is decided ------------

def _folded_builds(monkeypatch):
    """The (n, key) of every W(n) modulo q^n - 1 built with rows (n > max(a_i))."""
    seen = []
    build = qcomb.QBinomialCache.folded_weighted_sum

    def spy(memo, n, key):
        if n > (key[-1] if key else 0):
            seen.append((n, key))
        return build(memo, n, key)

    monkeypatch.setattr(qcomb.QBinomialCache, "folded_weighted_sum", spy)
    return seen


def _table_entry_changed(monkeypatch, h, change):
    """Every table entry gauss(h, a) for the largest a_i of a key, as
    ``change(entry, bits, n)`` hands it back."""
    columns = qcomb._pascal_columns

    def changed(n, bits, top):
        out = columns(n, bits, top)
        out[top] = out[top][:h] + [change(out[top][h], bits, n)] + out[top][h + 1:]
        return out

    monkeypatch.setattr(qcomb, "_pascal_columns", changed)


def _turned(entry, bits, n):
    """The n-slot entry times q modulo X^n - 1: rotated one slot further.  Its
    row then comes out rotated by h + 1 slots, and the slots keep their sum."""
    turned = entry << bits
    return (turned & ((1 << bits * n) - 1)) + (turned >> bits * n)


def test_within_one_row():
    memo = qcomb.QBinomialCache()
    memo.weighted_sum(6, (2, 3))
    assert memo.within_one_row(6, (2, 3))  # W(6) is held
    assert memo.within_one_row(7, (2, 3))  # one row past W(6)
    assert not memo.within_one_row(8, (2, 3))  # W(6) is two rows short
    assert memo.within_one_row(4, (2, 3))  # W(3) is zero
    assert not memo.within_one_row(5, (2, 3))  # W(4) is neither zero nor held
    assert memo.within_one_row(1, ())  # W(0) is zero
    assert not memo.within_one_row(3, ())


def test_thm1_folds_w_unless_one_row_is_left(monkeypatch):
    qcomb.BINOMIAL_MEMO.clear()
    folds = _folded_builds(monkeypatch)
    for n in (9, 8, 4, 5, 6, 7, 8, 9):
        assert check_thm1(n, [3, 2]).status == "pass"
    # cold, W(9) and W(8) are folded and not stored; W(4) is its first row,
    # and each later n adds one row to the last
    assert folds == [(9, (2, 3)), (8, (2, 3))]


def test_thm1_grid_folds_no_w_with_rows(monkeypatch):
    # the thm1-grid benchmark's sweep: every key meets each n after n - 1
    qcomb.BINOMIAL_MEMO.clear()
    folds = _folded_builds(monkeypatch)
    instances = sweep.enumerate_instances(
        sweep.SweepConfig(suite="thm1", n_max=22, m_max=3, a_max=5))
    assert all(r.status == "pass" for r in sweep.execute(instances))
    assert folds == []


def test_wide_samples_fold_most_w(monkeypatch):
    # the thm1-wide-jobs2 benchmark's samples, checked serially from a cold
    # memo: a sampled n seldom follows its key's n - 1
    qcomb.BINOMIAL_MEMO.clear()
    folds = _folded_builds(monkeypatch)
    reports = sweep.execute(sweep.thm1_sample_instances(1000, 1, 40, 5, 8))
    assert all(r.status == "pass" for r in reports)
    assert sum(r.claim_id == "thm1" for r in reports) == 1000
    assert len(folds) >= 700


def test_folded_fail_takes_the_witness_of_the_full_w(monkeypatch):
    # row 5 of W(7) modulo q^7 - 1 is rotated one slot too far, and [7]
    # becomes [8] for the decision alone: the folded W fails, and the fail
    # is decided again on the full W(7), whose witness is test_fail_branch_witness's
    qcomb.BINOMIAL_MEMO.clear()
    fold = qcomb.QBinomialCache.folded_weighted_sum
    modulus_shifted(monkeypatch)
    monkeypatch.setattr(qcomb.QBinomialCache, "folded_weighted_sum", fold)
    folds = _folded_builds(monkeypatch)
    _table_entry_changed(monkeypatch, 5, _turned)
    r = check_thm1(7, [3, 2])
    assert folds == [(7, (2, 3))]
    assert (r.status, r.witness) == ("fail", congruence.Witness(
        _LHS_7_3_2, "0", "q + 2*q^2 + 3*q^3 + 3*q^4 + 2*q^5 + q^6"))


def _folded_row_turned(monkeypatch):
    # from a cold memo W(7) is folded, and its row 5 rotated one slot too far
    qcomb.BINOMIAL_MEMO.clear()
    _table_entry_changed(monkeypatch, 5, _turned)


def _no_pass(name, value):
    """Set ``theorems``' fast route ``name`` to return ``value``, no pass."""
    return lambda monkeypatch: monkeypatch.setattr(theorems, name, lambda *args: value)


@pytest.mark.parametrize("check, args, force", [
    (check_thm1, (3, [1, 2]), _no_pass("packed_divides", False)),  # W(3) in full
    (check_thm1, (7, [3, 2]), _folded_row_turned),  # W(7) modulo q^7 - 1
    (check_thm2, (5, 1, 2), _no_pass("packed_square_congruent", False)),
    (check_chu_vandermonde, (3, 2, 4), _no_pass("_sum_vanishes", False)),
    (check_residue_identity, (2, 3), _no_pass("_sum_vanishes", False)),
    (check_symmetric_identity, (3, 2), _no_pass("_sum_vanishes", False)),
    (check_pfaff_saalschutz, (2, 3, 5, 2, 1), _no_pass("_pfaff_integers", ((1, 1), (2, 1)))),
], ids=["thm1", "thm1-folded", "thm2", "chu_vandermonde", "residue_identity",
        "symmetric_identity", "qpfaff"])
def test_fast_fail_that_the_slow_route_passes_raises(monkeypatch, check, args, force):
    # a passing instance whose fast route alone is made to find no pass: the
    # slow route then passes, and the two disagreeing is a bug, not a verdict
    want = check(*args)
    assert want.status == "pass"
    force(monkeypatch)
    with pytest.raises(InternalError) as exc:
        check(*args)
    assert str(exc.value).startswith("%s %r: " % (want.claim_id, want.params))


def test_folded_row_corrupted_raises_on_the_sum(monkeypatch):
    # one table entry one too large: W(7)'s slots then sum to W(1) + 1 = 428
    qcomb.BINOMIAL_MEMO.clear()
    _table_entry_changed(monkeypatch, 5, lambda entry, bits, n: entry + 1)
    with pytest.raises(InternalError,
                       match=r"W\(7\) for \(2, 3\) modulo q\^7 - 1: slots do not sum to 427$"):
        check_thm1(7, [3, 2])


@pytest.mark.parametrize("n, a_list, note", [
    (1, [0], None),           # [1] = 1 divides anything
    (1, [3, 1], "vanishing-sum"),
    (4, [4, 2], "vanishing-sum"),  # n <= max a_i: every row vanishes
    (5, [5], "vanishing-sum"),
    (6, [5], None),
    (5, [0, 0, 0], None),     # W(5) = [5], the prefactor 1
    (6, [0], None),
])
def test_thm1_edge_a_lists(n, a_list, note):
    r = check_thm1(n, a_list)
    assert (r.status, r.note) == ("pass", note)
    w = weighted_sum(n, a_list)
    assert w == weighted_sum_oracle(n, a_list)
    assert multinom_factor(a_list) == multinom_factor_oracle(a_list)
    assert not congruence.rem_mod(multinom_factor(a_list) * w, n)


# --- checkers do not time themselves; the sweep does ----------------------------------------

def test_elapsed_nonnegative():
    assert check_thm1(5, [2, 1]).elapsed_ms == 0
    assert q_factorial(0) == ONE  # keep import exercised
