"""Slow reference routes that the tests compare the package against, and the
corruptions that both the checker and the sweep tests use to reach every
fail branch."""

import csv
import io
import itertools
import json
import math
from fractions import Fraction

from qcong import qcomb, theorems
from qcong.congruence import (
    SKIPPED,
    CongruenceReport,
    _block_sums,
    congruence_report,
    fold,
    identity_report,
    rem_mod,
)
from qcong.errors import SingularSpecialization
from qcong.poly import ONE, ZERO, IntPoly, Packed, _pack_nonneg, _slot_bytes
from qcong.qcomb import LaurentPoly, q_binomial, q_factorial, q_int, q_pochhammer_eval
from qcong.sweep import CLAIMS, SplitMix64, run_instance


def _mul_schoolbook(a, b):
    """Plain convolution of coefficient lists, the reference for
    ``poly._mul_lists``; the inner loop runs as one slice comprehension."""
    if not a or not b:
        return []
    if len(b) > len(a):
        a, b = b, a
    out = [0] * (len(a) + len(b) - 1)
    la = len(a)
    for i, bi in enumerate(b):
        if bi:
            out[i:i + la] = [x + bi * aj for x, aj in zip(out[i:i + la], a)]
    return out


def q_binomial_oracle(n, k):
    """Gaussian binomial via the Pascal-style recurrence; cross-check only.

    Shares no code with ``qcomb.q_binomial`` (the product formula): the value
    is assembled bottom-up from gauss(i,j) = gauss(i-1,j-1) + q^j * gauss(i-1,j)
    with gauss(0,0) = 1.
    """
    if k < 0 or n < 0 or k > n:
        return ZERO
    row = [ONE] + [ZERO] * k  # row[j] = gauss(i, j) as i advances
    for i in range(1, n + 1):
        for j in range(min(i, k), 0, -1):
            row[j] = row[j - 1] + row[j].shift(j)
    return row[k]


def multinom_factor_oracle(a_list):
    """[a1+...+am+1]! / ([a1]! ... [am]!) by exact division of q-factorials.

    Shares no code with ``theorems.multinom_factor`` (a product of Gaussian
    binomials): the quotient is divided out of [s]! one factorial at a time.
    """
    out = q_factorial(sum(a_list) + 1)
    for a in a_list:
        out = out.exact_div(q_factorial(a))
    return out


def weighted_sum_oracle(n, a_list):
    """sum_{h<n} q^h prod_i gauss(h, a_i), term by term from ``q_binomial``.

    Touches no memo: every binomial is rebuilt, and every row is summed
    from h = 0, so no smaller n's sum is reused.
    """
    total = ZERO
    for h in range(n):
        term = ONE.shift(h)
        for a in a_list:
            term = term * q_binomial(h, a)
        total = total + term
    return total


def q_pochhammer_oracle(x, q, k):
    """(x;q)_k with every factor's q^i raised afresh; ``q_pochhammer_eval``
    carries x*q^i from one factor to the next."""
    x = Fraction(x)
    q = Fraction(q)
    out = Fraction(1)
    for i in range(k):
        out *= 1 - x * q ** i
    return out


def pfaff_lhs_oracle(x, y, z, q, n):
    """The left side of the balanced 3phi2 sum, every term from its Pochhammers.

    Shares no code with the left side of ``theorems._pfaff_sides`` (one
    pass, each term the previous one times a ratio): term k is rebuilt from
    six ``q_pochhammer_eval`` calls, O(n^2) products in all.
    """
    w = x * y * q ** (1 - n) / z
    lhs = Fraction(0)
    for k in range(n + 1):
        numer = (q_pochhammer_eval(x, q, k) * q_pochhammer_eval(y, q, k)
                 * q_pochhammer_eval(q ** -n, q, k) * q ** k)
        denom = (q_pochhammer_eval(q, q, k) * q_pochhammer_eval(z, q, k)
                 * q_pochhammer_eval(w, q, k))
        lhs += numer / denom
    return lhs


def make_report(claim_id, params, status, witness=None, elapsed_ms=0, note=None):
    """Build a report from a plain mapping of parameter names to integers.

    A ``bool`` is refused like any other non-integer: the JSON report writes
    params with ``%d``, which prints ``1`` where ``json`` prints ``true``.
    The package's checkers build ``CongruenceReport`` from params tuples
    they have checked; the tests build theirs here.
    """
    items = []
    for name, value in params.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise TypeError("param %r must be int, got %r" % (name, value))
        items.append((name, value))
    return CongruenceReport(claim_id, tuple(items), status,
                            witness=witness, elapsed_ms=elapsed_ms, note=note)


def pfaff_fraction_report(x, y, z, q, n):
    """The qpfaff report on Fractions alone, by ``theorems._pfaff_sides``:
    skipped with its note at a singular point, else whether the sides are
    equal.  ``theorems.check_pfaff_saalschutz`` decides on integers first.
    """
    x, y, z, q = Fraction(x), Fraction(y), Fraction(z), Fraction(q)
    params = {"x_num": x.numerator, "x_den": x.denominator,
              "y_num": y.numerator, "y_den": y.denominator,
              "z_num": z.numerator, "z_den": z.denominator,
              "q_num": q.numerator, "q_den": q.denominator, "n": n}
    try:
        lhs, rhs = theorems._pfaff_sides(x, y, z, q, n)
    except SingularSpecialization as exc:
        return make_report("qpfaff", params, SKIPPED, note=str(exc))
    return identity_report("qpfaff", tuple(params.items()), lhs, rhs)


def terms_sum_oracle(terms):
    """sum sign * q^e * prod gauss(n, a) over ``terms`` (sign, e, pairs) as a
    LaurentPoly, every binomial from ``q_binomial`` and multiplied as
    IntPolys; ``theorems._sum_vanishes`` adds packed integers instead."""
    total = LaurentPoly()
    for sign, e, pairs in terms:
        product = IntPoly([sign])
        for n, a in pairs:
            product = product * q_binomial(n, a)
        total = total + LaurentPoly(product, e)
    return total


def chu_sides_oracle(a, b, n):
    """Both sides of q-Chu-Vandermonde as LaurentPolys, k over 0..n with the
    vanishing terms skipped, every binomial from ``q_binomial``;
    ``theorems.check_chu_vandermonde`` lists the terms of its tight range."""
    lhs = LaurentPoly()
    for k in range(n + 1):
        coeff = q_binomial(a, k) * q_binomial(b, n - k)
        if coeff.is_zero:
            continue
        lhs = lhs + LaurentPoly(coeff, k * (b - n + k))
    return lhs, LaurentPoly.from_poly(q_binomial(a + b, n))


def residue_sides_oracle(a, b):
    """Both sides of the residue identity as LaurentPolys, k over 0..b."""
    lhs = LaurentPoly()
    for k in range(b + 1):
        coeff = q_binomial(a + b + 1, b - k) * q_binomial(a + k, a) * q_binomial(a + k, b)
        if coeff.is_zero:
            continue
        e = k * (a - b + k) + a + k - math.comb(a + k + 1, 2)
        lhs = lhs + LaurentPoly((-1) ** k * coeff, e)
    return lhs, LaurentPoly((-1) ** b, a * b - math.comb(a, 2) - math.comb(b, 2))


def symmetric_sides_oracle(a, b):
    """Both sides of the symmetric identity as LaurentPolys, k over a..a+b."""
    lhs = LaurentPoly()
    for k in range(a, a + b + 1):
        coeff = q_binomial(k, a) * q_binomial(k, b) * q_binomial(a + b + 1, k + 1)
        if coeff.is_zero:
            continue
        e = math.comb(k + 1, 2) + math.comb(a + 1, 2) + math.comb(b + 1, 2) - (k + 1) * (a + b)
        lhs = lhs + LaurentPoly((-1) ** k * coeff, e)
    return lhs, LaurentPoly((-1) ** (a + b), 0)


def json_report_oracle(reports, stable=False):
    """The JSON report through the standard encoder; ``sweep.render_report``
    writes the same bytes from a fixed template."""
    return json.dumps([r.to_json_obj(stable) for r in reports], indent=2) + "\n"


def _params_text(r):
    return ";".join("%s=%d" % kv for kv in r.params)


def csv_report_oracle(reports, stable=False):
    """The csv report, one ``csv.writer`` row per report, every cell
    rendered afresh; ``sweep.render_report`` renders each params tuple
    once."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["claim_id", "params", "status", "elapsed_ms"])
    for r in reports:
        writer.writerow([r.claim_id, _params_text(r), r.status, 0 if stable else r.elapsed_ms])
    return buf.getvalue()


def text_report_oracle(reports, stable=False):
    """The text report, every row padded cell by cell; ``sweep.render_report``
    pads each status, ms and note tail once."""
    rows = [("claim", "params", "status", "ms", "note")]
    rows += [(r.claim_id, _params_text(r), r.status, str(0 if stable else r.elapsed_ms),
              r.note or "") for r in reports]
    widths = [max(len(row[i]) for row in rows) for i in range(5)]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
             for row in rows]
    counts = {s: sum(r.status == s for r in reports) for s in ("pass", "fail", "skipped")}
    lines.append("summary: %d pass, %d fail, %d skipped"
                 % (counts["pass"], counts["fail"], counts["skipped"]))
    if any(CLAIMS[r.claim_id].conjecture for r in reports) and not counts["fail"]:
        lines.append("conjecture sweep: no counterexample in the swept range "
                     "(evidence only, not proof)")
    return "\n".join(lines) + "\n"


def execute_each(instances):
    """Every instance checked on its own, in order; ``sweep.execute`` checks
    one ordering of each order-free class and shares its report."""
    return [run_instance(item) for item in instances]


def a_params(n, a_list):
    """The params of a thm1/q1 instance as a mapping: n, then a1, ..., am in
    list order, every name and pair built afresh."""
    params = {"n": n}
    for i, a in enumerate(a_list):
        params["a%d" % (i + 1)] = a
    return params


def thm1_grid_oracle(n_max, m_max, a_max):
    """The thm1/q1 grid, each params tuple built through ``a_params``;
    ``sweep.thm1_grid_instances`` shares one tail per a-list across n."""
    out = []
    for n in range(1, n_max + 1):
        for m in range(1, m_max + 1):
            for a_list in itertools.product(range(a_max + 1), repeat=m):
                params = tuple(a_params(n, a_list).items())
                out += ("thm1", params), ("q1", params)
    return out


def thm1_sample_oracle(count, seed, n_max, m_max, a_max):
    """The seeded thm1/q1 samples, each params tuple built through
    ``a_params``; ``sweep.thm1_sample_instances`` builds them from shared
    pairs."""
    rng = SplitMix64(seed)
    out = []
    for _ in range(count):
        n = 1 + rng.below(n_max)
        m = 1 + rng.below(m_max)
        a_list = tuple(rng.below(a_max + 1) for _ in range(m))
        params = tuple(a_params(n, a_list).items())
        out += ("thm1", params), ("q1", params)
    return out


def thm2_full_product(p, a, b):
    """thm2 on the full product of the unpacked prefactor and W(p), by two
    routes: long division modulo [p]^2, and [p] dividing both the
    denominator-cleared difference D of the sides and D'.  Raises
    AssertionError if they disagree; ``theorems.check_thm2`` decides on
    pair folds of the packed factors and never builds the product on a
    pass.
    """
    ab = theorems.a_key((a, b))
    lhs = (qcomb.BINOMIAL_MEMO.prefactor(ab).poly()
           * qcomb.BINOMIAL_MEMO.weighted_sum(p, ab).poly())
    e = a * b - math.comb(a, 2) - math.comb(b, 2)
    signed = q_int(p) if (a - b) % 2 == 0 else -q_int(p)
    report = congruence_report("thm2", (("p", p), ("a", a), ("b", b)), (lhs,),
                               signed.shift(e % p), p, 2)
    cleared = lhs.shift(max(-e, 0)) - signed.shift(max(e, 0))
    derivative = IntPoly([i * c for i, c in enumerate(cleared.coeffs)][1:])
    cleared_pass = not rem_mod(cleared, p) and not rem_mod(derivative, p)
    assert (report.status == "pass") == cleared_pass, (p, a, b)
    return report


def packed(p):
    """The ``Packed`` form of an IntPoly with nonnegative coefficients."""
    at_one = sum(p.coeffs)
    k = _slot_bytes(at_one)
    return Packed(_pack_nonneg(p.coeffs, k), k, len(p.coeffs), at_one)


def folded(w, n):
    """The ``Packed`` w folded modulo X^n - 1 by ``congruence._block_sums``,
    in w's own slots: what ``QBinomialCache.folded_weighted_sum(n, key)``
    must equal for w = ``weighted_sum(n, key)``."""
    value, _ = _block_sums(w.value, 8 * w.k * n, -(-w.size // n))
    return Packed(value, w.k, min(w.size, n), w.at_one)


def modulus_shifted(monkeypatch):
    """Corrupt every modulus the checkers name: [n]^e becomes [n+1]^e.

    Shifts the n that ``theorems`` hands to its deciders: ``packed_divides``
    (thm1), ``packed_square_congruent`` (thm2, against the right side
    sign * q^shift * [n+1]) and ``congruence_report`` (the p - 1 lemma, and
    the fails of thm1 and thm2, whose thm2 right side sign * q^shift * [n]
    becomes sign * q^shift * [n+1] too).  thm1's W(n) modulo q^n - 1
    becomes W(n) modulo q^(n+1) - 1, folded from the full W(n), so thm1
    decides on what it would decide on unfolded.
    """
    divides = theorems.packed_divides
    square_congruent = theorems.packed_square_congruent
    report = theorems.congruence_report

    def shifted_divides(factors, n):
        return divides(factors, n + 1)

    def shifted_square_congruent(factors, sign, shift, n):
        return square_congruent(factors, sign, shift, n + 1)

    def shifted_report(claim_id, params, factors, rhs, n, e=1):
        if e == 2:  # sign * q^shift * [n], its top coefficient sign
            rhs = IntPoly._make(rhs.coeffs + rhs.coeffs[-1:])
        return report(claim_id, params, factors, rhs, n + 1, e)

    def shifted_fold(memo, n, a_key):
        return folded(memo.weighted_sum(n, a_key), n + 1)

    monkeypatch.setattr(theorems, "packed_divides", shifted_divides)
    monkeypatch.setattr(theorems, "packed_square_congruent", shifted_square_congruent)
    monkeypatch.setattr(theorems, "congruence_report", shifted_report)
    monkeypatch.setattr(qcomb.QBinomialCache, "folded_weighted_sum", shifted_fold)


class _BinomialsPlusOne(qcomb.QBinomialCache):
    """Stand-in for ``BINOMIAL_MEMO`` whose every Gaussian binomial is off by one,
    in each product of binomials the identities add packed too.

    Nothing corrupted reaches the shared memo.  The prefactor and W(n) read
    no binomial from the memo, so only the identities see the corruption.
    A corrupted product may have a coefficient too wide for its slot; it is
    packed at X = 2^bits with the carry.
    """

    def binomial(self, n, k):
        return qcomb.BINOMIAL_MEMO.binomial(n, k) + 1

    def packed_product(self, pairs, bits):
        product = ONE
        for n, a in pairs:
            product = product * self.binomial(n, a)
        return sum(c << bits * i for i, c in enumerate(product.coeffs))


def binomials_plus_one(monkeypatch):
    monkeypatch.setattr(theorems, "BINOMIAL_MEMO", _BinomialsPlusOne())


class _WeightedSumsPlus(qcomb.QBinomialCache):
    """Stand-in for ``BINOMIAL_MEMO`` whose every W(n) is off by ``offset(n)``,
    as a whole, and every W(n) modulo q^n - 1 by ``offset(n)`` folded.

    Each W(n) is built and stored correctly in its own table, and only the
    value handed out is corrupted, packed as the memo hands out W, so no
    corrupted value seeds a later W and thm1 decides on the corrupted
    integer by either route.
    """

    def __init__(self, offset):
        super().__init__()
        self.offset = offset

    def weighted_sum(self, n, a_key):
        return packed(super().weighted_sum(n, a_key).poly() + self.offset(n))

    def folded_weighted_sum(self, n, a_key):
        w = super().folded_weighted_sum(n, a_key).poly() + self.offset(n)
        return packed(fold(w, n, 1))


def weighted_sums_plus_one(monkeypatch):
    monkeypatch.setattr(theorems, "BINOMIAL_MEMO", _WeightedSumsPlus(lambda n: 1))


def weighted_sum_plus_modulus(monkeypatch):
    """Add prefactor * [n]: off by a multiple of [p] but not of [p]^2, which
    only the derivative half of thm2's second route can see."""
    monkeypatch.setattr(theorems, "BINOMIAL_MEMO", _WeightedSumsPlus(q_int))


def steps_plus_one(monkeypatch):
    """Every packed exact division of ``qcomb`` returns its quotient plus one.

    It reaches every packed build: ``q_binomial``, the prefactor and W(n),
    which thm1 decides on without unpacking.
    """
    divide = qcomb._div_pow2_minus_one
    monkeypatch.setattr(qcomb, "_div_pow2_minus_one", lambda *args: divide(*args) + 1)


def comb_row_zero_is_one(monkeypatch):
    """q1's sum of rows at q = 1 with its row h = 0 taken as 1, which it is
    only for an a-list of zeros: ``qcomb.rows_at_one`` as ``theorems`` sees
    it, one too large from lo = 0 on a nonempty key.  W's bounds, which
    ``qcomb`` takes itself, stay true."""
    rows = qcomb.rows_at_one
    monkeypatch.setattr(theorems, "rows_at_one",
                        lambda key, lo, hi: rows(key, lo, hi) + (bool(key) and lo == 0 < hi))
