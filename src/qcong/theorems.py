"""Checkers for the Gaussian-binomial congruence family and its support identities.

All claims below use the notation of :mod:`qcong.qcomb` ([n], [n]!,
gauss(n,k), (x;q)_k) plus C(n,k) for ordinary binomials.  Everything is
exact: a check passes only when the stated divisibility or identity holds
on the nose in the ring of integer (or Laurent) polynomials.

The claims, by claim id:

thm1
    [a1+...+am+1]! / ([a1]!...[am]!) * sum_{h=0}^{n-1} q^h * prod_i gauss(h, a_i)
    is divisible by [n], for every n >= 1 and nonempty list of a_i >= 0.

q1
    The q = 1 shadow of thm1, checked purely with integers:
    (a1+...+am+1)!/(a1)!...(am)! * sum_{h<n} prod_i C(h, a_i) == 0 (mod n).

thm2
    For p prime, p > max(a,b):
    [a+b+1]!/([a]![b]!) * sum_{h<p} q^h gauss(h,a) gauss(h,b)
        == (-1)^(a-b) * q^(ab - C(a,2) - C(b,2)) * [p]   (mod [p]^2),
    the right side's exponent reduced into [0, p-1]; the reduction is
    legitimate because (q^p - 1)[p] = (q - 1)[p]^2.  The checker also runs
    a second route: with denominators cleared (both sides times q^|e|
    when the raw exponent e is negative), the difference D of the sides is
    divisible by [p]^2 exactly when [p] divides both D and its derivative
    D', since [p] = Phi_p is irreducible and separable.  The two verdicts
    must agree.

sum_lemma
    sum_{h=0}^{n-1} q^h gauss(h,a) = gauss(n, a+1) * q^a.

chu_vandermonde
    sum_{k=0}^{n} gauss(a,k) gauss(b,n-k) q^(k(b-n+k)) = gauss(a+b, n),
    an identity of Laurent polynomials, since the exponent may drop below
    zero.

p_minus_one
    For p prime and 0 <= j <= p-1:
    q^C(j+1,2) * gauss(p-1, j) == (-1)^j  (mod [p]).

residue_identity
    sum_{k=0}^{b} gauss(a+b+1, b-k) gauss(a+k, a) gauss(a+k, b)
        * (-1)^k q^(k(a-b+k) + a + k - C(a+k+1,2))
    = (-1)^b q^(ab - C(a,2) - C(b,2)),    a Laurent identity.

symmetric_identity
    sum_{k=a}^{a+b} gauss(k,a) gauss(k,b) gauss(a+b+1, k+1)
        * (-1)^k q^(C(k+1,2) + C(a+1,2) + C(b+1,2) - (k+1)(a+b))
    = (-1)^(a-b),    a Laurent identity, symmetric under a <-> b.

qpfaff
    The terminating balanced 3phi2 summation at exact rational points:
    sum_{k=0}^{n} (x;q)_k (y;q)_k (q^-n;q)_k q^k
                  / ((q;q)_k (z;q)_k (xy q^(1-n)/z;q)_k)
    = (z/x;q)_n (z/y;q)_n / ((z;q)_n (z/(xy);q)_n).
    Specializations that zero a denominator are reported skipped.  The
    left side is summed in one pass: term k+1 is term k times
    (1-xq^k)(1-yq^k)(1-q^(k-n)) q / ((1-q^(k+1))(1-zq^k)(1-xy q^(1-n+k)/z));
    the right side is a product of Pochhammers.  Both are summed on
    integer numerators and denominators (``_pfaff_integers``); only a
    singular point or a fail is summed again on Fractions, with q^k carried
    along (``_pfaff_sides``), which gives the skip note or the witness.
    ``fractions`` is imported by the qpfaff functions alone, when called.

The quotient polynomial sum_quotient(n, a_list), the thm1 product divided
by [n], has a closed base case and a contiguous recurrence:

    sum_quotient(n, (a,))  = gauss(n-1, a) * q^a
    sum_quotient(n, (a_1..a_m)) =
        sum_{k=0}^{a_m} gauss(a_1+...+a_m+1, a_m-k)
                        * gauss(a_{m-1}+k, a_m) * gauss(a_{m-1}+k, a_{m-1})
                        * q^(k(a_{m-1}-a_m+k))
                        * sum_quotient(n, (a_1..a_{m-2}, a_{m-1}+k))

computed here by ``sum_quotient_recurrence`` with memoization keyed on the
exact ordered tuple (the recurrence is only stated for ordered lists, so no
sorting is ever applied to memo keys).

Every Gaussian binomial used here, the thm1 prefactor and the weighted
sum W(n) come from the one shared bounded memo ``qcomb.BINOMIAL_MEMO``; no
checker takes a cache argument.  The memo takes the prefactor's and W's
a-list as its key ``a_key``, the sorted nonzero entries, so every
permutation of one a-list, with or without zeros, shares its entries
(gauss(h, 0) = [0]! = 1).  thm1, q1 and thm2 read their a-list through
that key once and hand it to both memo calls.  ``check_thm1`` and
``q1_check`` validate (n, a_list) and hand n, its key and its params to
the cores ``thm1_report`` and ``q1_report``; the sweep's claim table calls
the same cores on its own params tuple, validated and read by
``a_list_key``, so a sweep's thm1 or q1 report holds that very tuple.
q1 sums its rows at q = 1 with the memo's own ``qcomb.rows_at_one``.  The
memo builds the prefactor and W as packed integers, one checked step at
a time, so a corrupted step raises InternalError instead of reaching a
verdict.  The recurrence's own memo is local to one call.

Each congruence names its modulus [n]^e by the pair (n, e): thm1 and the
p - 1 lemma take (n, 1), thm2 takes (p, 2).  thm1 and thm2 decide on
their packed prefactor and weighted sum: thm1 by ``packed_divides``,
which folds each modulo X^n - 1, multiplies the folds, folds again and
finds [n] dividing iff all n slots are equal; unless the memo's W(n) is
at most one row away, thm1 asks it for W(n) modulo q^n - 1 alone.  thm2
by ``packed_square_congruent``, which folds each into its pair of block
sums modulo (X^p - 1)^2, multiplies once and reads both routes above off
the product's pair.  Only a fail unpacks them, to decide again by
``congruence_report``'s long division and render the witness; thm1 then
builds W(n) in full.

The Laurent identities, chu_vandermonde, residue_identity and
symmetric_identity, state each side once, as a list of terms (sign, e,
pairs) for sign * q^e * prod gauss(n, a), and ``_identity`` decides them.
``_sum_vanishes`` decides whether the left terms and the negated right
ones sum to zero: the two signs must agree at q = 1, on a sum S, and the
terms of each sign, packed by ``BINOMIAL_MEMO.packed_product`` in slots
that hold S and shifted by e - min e slots, must add up to one integer.
A fail is decided again on the ``LaurentPoly`` sums of the same terms,
the memo's binomials multiplied as IntPolys (``_laurent_sum``), which
gives the witness.  thm1, thm2, these identities and qpfaff hand the slow
route's report to ``congruence.confirmed``, which raises InternalError if
it passes where the fast route found no pass.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import starmap

from .congruence import (
    PASS,
    SKIPPED,
    VANISHING_SUM,
    CongruenceReport,
    confirmed,
    congruence_report,
    identity_report,
    integer_report,
    is_prime,
    packed_divides,
    packed_square_congruent,
)
from .errors import (
    InternalError,
    InvalidParamsError,
    SingularSpecialization,
)
from .poly import ONE, ZERO, IntPoly, _ints, _slot_bytes
from .qcomb import BINOMIAL_MEMO, LaurentPoly, q_int, q_pochhammer_eval, rows_at_one


def _a_tuple(n, a_list):
    """``a_list`` as a tuple, once n >= 1 (unless n is None) and every a_i >= 0 hold."""
    if n is not None and (not _ints(n) or n < 1):
        raise InvalidParamsError("n must be an integer >= 1, got %r" % (n,))
    a_tuple = tuple(a_list)
    if not a_tuple:
        raise InvalidParamsError("a_list must be nonempty")
    if not _ints(*a_tuple) or min(a_tuple) < 0:
        raise InvalidParamsError("a_list entries must be integers >= 0")
    return a_tuple


def a_key(a_list):
    """An a-list's sorted nonzero entries: the memo's key for its prefactor
    and weighted sums, and what thm1 and q1 read it through, since
    gauss(h, 0) = C(h, 0) = [0]! = 0! = 1.  The sweep checks one thm1 or q1
    instance per n and key."""
    return tuple(sorted([a for a in a_list if a]))


def _sign(e):
    return 1 if e % 2 == 0 else -1


def a_names(m):
    """The names of an m-entry a-list's params: a1, ..., am."""
    return tuple(["a%d" % i for i in range(1, m + 1)])


def a_list_params(n, a_list):
    """The params of a thm1/q1 instance: ("n", n), then ("a1", a1), ...,
    ("am", am) in list order."""
    return (("n", n),) + tuple(zip(a_names(len(a_list)), a_list))


# --- the weighted sum and its prefactor ------------------------------------------

def multinom_factor(a_list):
    """[a1+...+am+1]! / ([a1]! ... [am]!), a product of Gaussian binomials,
    from ``BINOMIAL_MEMO``."""
    return BINOMIAL_MEMO.prefactor(a_key(_a_tuple(None, a_list))).poly()


def weighted_sum(n, a_list):
    """sum_{h=0}^{n-1} q^h * prod_i gauss(h, a_i), from ``BINOMIAL_MEMO``."""
    return BINOMIAL_MEMO.weighted_sum(n, a_key(_a_tuple(n, a_list))).poly()


@lru_cache(maxsize=64)
def _a_list_names(m):
    """The names of thm1/q1 params with m entries: n, a1, ..., am."""
    return ("n",) + a_names(m)


def a_list_key(params):
    """n and the a-list key of thm1 or q1 params, (("n", n), ("a1", a1), ...,
    ("am", am)), refused as ``check_thm1`` refuses (n, a_list) and unless
    they name n, a1, ..., am in order."""
    names, values = zip(*params) if params else ((), ())
    if names != _a_list_names(len(names) - 1):
        raise InvalidParamsError("thm1 and q1 take the params n, a1, ..., am, got %r"
                                 % (names,))
    n = values[0]
    return n, a_key(_a_tuple(n, values[1:]))


def check_thm1(n, a_list):
    """Divisibility of the prefactored weighted sum by [n] (claim id thm1).

    W(n) comes from the memo's extension when that adds at most one row
    (``within_one_row``: W(n) or W(n - 1) is held, or W(n - 1) is zero);
    otherwise only W(n) modulo q^n - 1 is built (``folded_weighted_sum``),
    all [n] needs.  A fail is decided again on the full W(n), which gives
    the witness.
    """
    a_tuple = _a_tuple(n, a_list)
    return thm1_report(n, a_key(a_tuple), a_list_params(n, a_tuple))


def thm1_report(n, key, params):
    """thm1 at n >= 1 for the a-list ``key`` (``a_key``), reported under
    ``params``; the caller has validated all three."""
    if BINOMIAL_MEMO.within_one_row(n, key):
        w = BINOMIAL_MEMO.weighted_sum(n, key)
    else:
        w = BINOMIAL_MEMO.folded_weighted_sum(n, key)
    prefactor = BINOMIAL_MEMO.prefactor(key)
    if packed_divides((prefactor, w), n):
        return CongruenceReport("thm1", params, PASS, note=None if w.value else VANISHING_SUM)
    full = (prefactor.poly(), BINOMIAL_MEMO.weighted_sum(n, key).poly())
    return confirmed(congruence_report("thm1", params, full, ZERO, n),
                     "packed residue modulo [%d]" % n)


def q1_check(n, a_list):
    """The q = 1 congruence of thm1, in pure integer arithmetic (claim id q1)."""
    a_tuple = _a_tuple(n, a_list)
    return q1_report(n, a_key(a_tuple), a_list_params(n, a_tuple))


def q1_report(n, key, params):
    """q1 at n >= 1 for the a-list ``key``, reported under ``params``; the
    caller has validated all three."""
    numer = math.factorial(sum(key) + 1)
    denom = 1
    for a in key:
        denom *= math.factorial(a)
    factor, rem = divmod(numer, denom)
    if rem:
        raise InternalError("integer multinomial quotient not exact")
    total = rows_at_one(key, 0, n)
    return integer_report("q1", params, factor * total, n,
                          note=VANISHING_SUM if total == 0 else None)


# --- the quotient polynomial: two independent routes -------------------------------

def sum_quotient_direct(n, a_list):
    """multinom_factor * weighted_sum divided exactly by [n].

    A NotDivisibleError here is a genuine counterexample to thm1 and is
    allowed to propagate.
    """
    product = multinom_factor(a_list) * weighted_sum(n, a_list)
    return product.exact_div(q_int(n))


def sum_quotient_recurrence(n, a_list):
    """The same quotient by the closed base case plus contiguous recurrence.

    Memoized on the exact ordered tuple of remaining exponents; the
    recurrence consumes the list from the right.
    """
    memo = {}

    def rec(a_tuple):
        hit = memo.get(a_tuple)
        if hit is not None:
            return hit
        if len(a_tuple) == 1:
            a = a_tuple[0]
            out = BINOMIAL_MEMO.binomial(n - 1, a).shift(a)
        else:
            head = a_tuple[:-2]
            prev, last = a_tuple[-2], a_tuple[-1]
            total = sum(a_tuple) + 1
            out = ZERO
            for k in range(last + 1):
                c1 = BINOMIAL_MEMO.binomial(total, last - k)
                c2 = BINOMIAL_MEMO.binomial(prev + k, last)
                c3 = BINOMIAL_MEMO.binomial(prev + k, prev)
                if c1.is_zero or c2.is_zero or c3.is_zero:
                    continue
                e = k * (prev - last + k)
                if e < 0:  # impossible when c2 is nonzero
                    raise InternalError("negative shift in nonvanishing branch")
                out = out + (c1 * c2 * c3).shift(e) * rec(head + (prev + k,))
        memo[a_tuple] = out
        return out

    return rec(_a_tuple(n, a_list))


# --- support identities -------------------------------------------------------------

def check_sum_lemma(n, a):
    """sum_{h<n} q^h gauss(h,a) = gauss(n, a+1) q^a (claim id sum_lemma).

    The lhs is the memo's W(n) for the a-list (a,), the entry thm1 reads, so
    the identity also checks the memo's W-extension against a closed form.
    """
    if not _ints(n, a) or n < 1 or a < 0:
        raise InvalidParamsError("need integers n >= 1 and a >= 0")
    lhs = BINOMIAL_MEMO.weighted_sum(n, a_key((a,))).poly()
    rhs = BINOMIAL_MEMO.binomial(n, a + 1).shift(a)
    return identity_report("sum_lemma", (("n", n), ("a", a)), lhs, rhs)


def _sum_vanishes(terms):
    """True when sum sign * q^e * prod gauss(n, a) over ``terms``, triples
    (sign, e, pairs) with 0 <= a <= n in every pair, is zero.

    The terms of each sign are added into one integer at X = 2^(8k), the
    product from ``BINOMIAL_MEMO.packed_product`` shifted by e - min e
    slots.  The two sides must have one value S at q = 1, summed from the
    prod C(n, a) of the factors multiplied; then no coefficient of either
    side exceeds S, so in slots of k = ``_slot_bytes(S)`` bytes the two
    integers are equal iff the two sides are.
    """
    at_one = [0, 0]
    for sign, _, pairs in terms:
        at_one[sign < 0] += math.prod(starmap(math.comb, pairs))
    if at_one[0] != at_one[1]:
        return False
    bits = 8 * _slot_bytes(at_one[0])
    low = min([e for _, e, _ in terms], default=0)
    sides = [0, 0]
    for sign, e, pairs in terms:
        sides[sign < 0] += BINOMIAL_MEMO.packed_product(pairs, bits) << bits * (e - low)
    return sides[0] == sides[1]


def _identity(claim_id, params, lhs, rhs):
    """The report on sum lhs = sum rhs, each a list of terms (sign, e, pairs)
    for sign * q^e * prod gauss(n, a): decided by ``_sum_vanishes`` on lhs
    and rhs negated, a fail again on their ``_laurent_sum`` sides."""
    if _sum_vanishes(lhs + [(-sign, e, pairs) for sign, e, pairs in rhs]):
        return CongruenceReport(claim_id, params, PASS)
    return confirmed(identity_report(claim_id, params, _laurent_sum(lhs), _laurent_sum(rhs)),
                     "packed sum")


def _laurent_sum(terms):
    """sum sign * q^e * prod gauss(n, a) over ``terms`` as a LaurentPoly, the
    memo's binomials multiplied as IntPolys, nothing packed: the witness
    route of ``_identity``."""
    return sum([LaurentPoly(math.prod(starmap(BINOMIAL_MEMO.binomial, pairs), start=sign), e)
                for sign, e, pairs in terms], LaurentPoly())


def check_chu_vandermonde(a, b, n):
    """The q-Chu-Vandermonde convolution (claim id chu_vandermonde)."""
    if not _ints(a, b, n) or min(a, b, n) < 0:
        raise InvalidParamsError("need integers a, b, n >= 0")
    lhs = [(1, k * (b - n + k), ((a, k), (b, n - k)))
           for k in range(max(0, n - b), min(a, n) + 1)]
    rhs = [(1, 0, ((a + b, n),))] if n <= a + b else []
    return _identity("chu_vandermonde", (("a", a), ("b", b), ("n", n)), lhs, rhs)


def check_p_minus_one_lemma(p, j):
    """q^C(j+1,2) gauss(p-1, j) == (-1)^j (mod [p]) (claim id p_minus_one)."""
    if not is_prime(p):
        raise InvalidParamsError("p must be prime, got %r" % (p,))
    if not _ints(j) or not 0 <= j < p:
        raise InvalidParamsError("need an integer 0 <= j <= p-1")
    lhs = BINOMIAL_MEMO.binomial(p - 1, j).shift(math.comb(j + 1, 2))
    return congruence_report("p_minus_one", (("p", p), ("j", j)), (lhs,), _sign(j) * ONE, p)


def _ab_exponent(a, b):
    """ab - C(a,2) - C(b,2): the exponent of q on the right of the residue
    identity and, reduced modulo p, of thm2."""
    return a * b - math.comb(a, 2) - math.comb(b, 2)


def check_residue_identity(a, b):
    """The alternating triple-product sum equal to (-1)^b q^(ab - C(a,2) - C(b,2))
    (claim id residue_identity)."""
    if not _ints(a, b) or min(a, b) < 0:
        raise InvalidParamsError("need integers a, b >= 0")
    lhs = [(_sign(k), k * (a - b + k) + a + k - math.comb(a + k + 1, 2),
            ((a + b + 1, b - k), (a + k, a), (a + k, b)))
           for k in range(max(0, b - a), b + 1)]
    rhs = [(_sign(b), _ab_exponent(a, b), ())]
    return _identity("residue_identity", (("a", a), ("b", b)), lhs, rhs)


def check_symmetric_identity(a, b):
    """The a<->b symmetric alternating sum equal to (-1)^(a-b) (claim id
    symmetric_identity)."""
    if not _ints(a, b) or min(a, b) < 0:
        raise InvalidParamsError("need integers a, b >= 0")
    lhs = [(_sign(k),
            math.comb(k + 1, 2) + math.comb(a + 1, 2) + math.comb(b + 1, 2) - (k + 1) * (a + b),
            ((k, a), (k, b), (a + b + 1, k + 1)))
           for k in range(max(a, b), a + b + 1)]
    rhs = [(_sign(a - b), 0, ())]
    return _identity("symmetric_identity", (("a", a), ("b", b)), lhs, rhs)


# --- the prime-squared refinement ----------------------------------------------------

def check_thm2(p, a, b):
    """The mod [p]^2 refinement for pairs (claim id thm2).

    Decided by ``packed_square_congruent`` on the packed prefactor and W(p),
    with the right-hand exponent normalized into [0, p-1]: it folds each
    into block sums, multiplies once and checks the result two ways, by
    dividing out [p] and, on the denominator-cleared difference D of the
    sides, by [p] | D and [p] | D'.  That is exact because [p] = Phi_p is
    irreducible and separable.  The two routes must agree (anything else is
    an InternalError).  A fail is decided again by ``congruence_report`` on
    the unpacked factors against sign * q^shift * [p], which gives its
    witness; ``confirmed`` raises InternalError if that route passes.
    """
    if not is_prime(p):
        raise InvalidParamsError("p must be prime, got %r" % (p,))
    if not _ints(a, b) or min(a, b) < 0 or p <= max(a, b):
        raise InvalidParamsError("need integers 0 <= a, b < p")
    ab = a_key((a, b))
    factors = (BINOMIAL_MEMO.prefactor(ab), BINOMIAL_MEMO.weighted_sum(p, ab))
    params = (("p", p), ("a", a), ("b", b))
    sign, shift = _sign(a - b), _ab_exponent(a, b) % p
    if packed_square_congruent(factors, sign, shift, p):
        return CongruenceReport("thm2", params, PASS)
    rhs = IntPoly._make([0] * shift + [sign] * p)
    return confirmed(congruence_report("thm2", params, tuple(f.poly() for f in factors),
                                       rhs, p, 2), "packed residue modulo [%d]^2" % p)


# --- the balanced 3phi2 summation at rational points ---------------------------------

def check_pfaff_saalschutz(x, y, z, q, n):
    """Terminating balanced summation at exact rationals (claim id qpfaff).

    Decided on integers by ``_pfaff_integers``.  A singular point, where it
    decides nothing, and a fail are decided again on Fractions by
    ``_pfaff_sides``, which gives the skip note or the witness; if that
    route passes, ``confirmed`` raises InternalError.
    """
    from fractions import Fraction  # only qpfaff pays for the module

    if not _ints(n) or n < 0:
        raise InvalidParamsError("n must be an integer >= 0")
    x, y, z, q = Fraction(x), Fraction(y), Fraction(z), Fraction(q)
    params = (("x_num", x.numerator), ("x_den", x.denominator),
              ("y_num", y.numerator), ("y_den", y.denominator),
              ("z_num", z.numerator), ("z_den", z.denominator),
              ("q_num", q.numerator), ("q_den", q.denominator),
              ("n", n))
    sides = _pfaff_integers(x, y, z, q, n)
    if sides is not None:
        (lhs_num, lhs_den), (rhs_num, rhs_den) = sides
        if lhs_num * rhs_den == rhs_num * lhs_den:
            return CongruenceReport("qpfaff", params, PASS)
    try:
        lhs, rhs = _pfaff_sides(x, y, z, q, n)
    except SingularSpecialization as exc:
        return CongruenceReport("qpfaff", params, SKIPPED, note=str(exc))
    return confirmed(identity_report("qpfaff", params, lhs, rhs), "integer route")


def _pfaff_integers(x, y, z, q, n):
    """Both sides of the balanced sum as unreduced integer fractions,
    ((L, td), (rhs_num, rhs_den)), or None when a denominator vanishes or
    q, x, y or z is singular as in ``_pfaff_sides``.

    With x = xn/xd, y, z and q = qn/qd written the same way, every factor
    1 - t*q^i of a Pochhammer, t = u/v, is (v*qd^i - u*qn^i) / (v*qd^i).
    In the term ratio of the module docstring the monomials cancel down to
    zn*zd, so term k+1 is term k times num/den with
        num = zn zd (xd qd^k - xn qn^k)(yd qd^k - yn qn^k)(qn^(n-k) - qd^(n-k)),
        den = (qd^(k+1) - qn^(k+1))(zd qd^k - zn qn^k)(wd qn^j - wn qd^j),
    for w q^k = wn qd^j / (wd qn^j), wn = xn yn zd, wd = xd yd zn and
    j = n-1-k.  The left side is L/td over the current term tn/td, each
    step L, tn, td = L*den + tn*num, tn*num, td*den, with no gcd.  On the
    right the monomials cancel altogether:
        rhs_num = prod_{i<n} (zd xn qd^i - zn xd qn^i)(zd yn qd^i - zn yd qn^i),
        rhs_den = prod_{i<n} (zd qd^i - zn qn^i)(zd xn yn qd^i - zn xd yd qn^i).
    """
    qn, qd = q.numerator, q.denominator
    xn, xd, yn, yd, zn, zd = (x.numerator, x.denominator, y.numerator, y.denominator,
                              z.numerator, z.denominator)
    if qn == 0 or abs(qn) == qd or not (xn and yn and zn):
        return None
    up, down = [1], [1]  # qn^i and qd^i, i <= n
    for _ in range(n):
        up.append(up[-1] * qn)
        down.append(down[-1] * qd)
    wn, wd = xn * yn * zd, xd * yd * zn
    lhs_num = tn = td = 1
    for k in range(n):
        j = n - 1 - k
        den = ((down[k + 1] - up[k + 1]) * (zd * down[k] - zn * up[k])
               * (wd * up[j] - wn * down[j]))
        if not den:
            return None
        num = (zn * zd * (xd * down[k] - xn * up[k]) * (yd * down[k] - yn * up[k])
               * (up[n - k] - down[n - k]))
        lhs_num, tn, td = lhs_num * den + tn * num, tn * num, td * den
    rhs_num = rhs_den = 1
    for i in range(n):
        rhs_num *= (zd * xn * down[i] - zn * xd * up[i]) * (zd * yn * down[i] - zn * yd * up[i])
        rhs_den *= (zd * down[i] - zn * up[i]) * (zd * xn * yn * down[i] - zn * xd * yd * up[i])
    if not rhs_den:
        return None
    return (lhs_num, td), (rhs_num, rhs_den)


def _pfaff_sides(x, y, z, q, n):
    from fractions import Fraction

    if q in (0, 1, -1):
        raise SingularSpecialization("q in {0, 1, -1}")
    if x == 0 or y == 0 or z == 0:
        raise SingularSpecialization("x, y, z must be nonzero")
    w = x * y * q ** (1 - n) / z
    # A zero factor persists in every later Pochhammer, so vanishing of any
    # (t;q)_k with k <= n is equivalent to vanishing of (t;q)_n.
    z_n = q_pochhammer_eval(z, q, n)
    if z_n == 0:
        raise SingularSpecialization("(z;q)_n vanishes")
    if q_pochhammer_eval(w, q, n) == 0:
        raise SingularSpecialization("(xy q^(1-n)/z;q)_n vanishes")
    zxy_n = q_pochhammer_eval(z / (x * y), q, n)
    if zxy_n == 0:
        raise SingularSpecialization("(z/(xy);q)_n vanishes")
    if q_pochhammer_eval(q, q, n) == 0:  # unreachable for rational q outside {0,+-1}
        raise SingularSpecialization("(q;q)_n vanishes")
    # Term k+1 is term k times the ratio below; the checks above keep each
    # divisor nonzero for k < n.
    lhs = term = Fraction(1)
    qk, qkn = Fraction(1), q ** -n  # q^k and q^(k-n)
    for _ in range(n):
        qk1 = qk * q
        term = (term * ((1 - x * qk) * (1 - y * qk) * (1 - qkn) * q)
                / ((1 - qk1) * (1 - z * qk) * (1 - w * qk)))
        lhs += term
        qk, qkn = qk1, qkn * q
    rhs = q_pochhammer_eval(z / x, q, n) * q_pochhammer_eval(z / y, q, n) / (z_n * zxy_n)
    return lhs, rhs
