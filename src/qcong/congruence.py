"""Exact congruence residues over the polynomial ring, plus check reports.

A congruence a == b (mod m) here always means that m divides a - b exactly
in the ring of integer polynomials; nothing is ever tested numerically.

``CongruenceReport`` is the single result record every checker produces,
a named tuple that checks its status and witness when built.  Its JSON form
has exactly the fields claim_id, params, status, witness, elapsed_ms; the
optional ``note`` (e.g. the vanishing-sum marker on trivially-true
instances) only appears in the human-readable text rendering.  Every
decider below takes params as the tuple of (name, int) pairs the report
keeps, which the checker has validated, and builds its report directly.

Every verdict is built by one core, ``_verdict``, from one residue computed
by one of three deciders: ``congruence_report`` (a product of factors ==
rhs modulo [n]^e; ``rem_mod(lhs - rhs, n, e)``), ``identity_report`` (lhs ==
rhs exactly for polynomials, Laurent polynomials or rationals; lhs - rhs)
and ``integer_report`` (an integer divisible by a modulus; value % modulus).
A zero residue gives ``pass`` with the optional note; any other gives
``fail`` with that residue as the witness's difference, so a verdict divides
once.

Every polynomial modulus in the paper is a power of a q-integer: [n] for
thm1 and the p - 1 lemma, [p]^2 for thm2.  So a caller names it by the pair
(n, e), e in (1, 2), and ``fold`` reduces a residue modulo (q^n - 1)^e, a
multiple of [n]^e, before ``rem_mod`` divides.  ``congruence_report`` folds
each factor before multiplying them, and builds their full product only
for a fail witness.

The factors of thm1 and thm2, a prefactor and a weighted sum, come packed
(``poly.Packed``) and ``packed_report`` decides on those integers.  For
thm1, ``packed_divides`` folds each modulo X^n - 1, multiplies the n-slot
folds and folds again, in slots that hold the product of the factors'
values at q = 1, and [n] divides iff all n slots are equal.  For thm2,
``packed_square_congruent`` folds each factor F into A = sum_j F_j and
B = sum_j j*F_j over its length-p blocks, so F == A + (q^p - 1)B modulo
(q^p - 1)^2; one multiply of the pairs gives the product's pair (S, T)
(``pair_folds``), and the congruence modulo [p]^2 is read off S and T by
two routes that must agree.  Both fold by the same halving adds
(``_block_sums``).  A fail is decided again, with its witness, by
``congruence_report`` on the unpacked factors, and the two must agree.

Checkers read no clock: ``sweep.run_instance`` stamps each report's
``elapsed_ms``."""

from __future__ import annotations

from functools import reduce
from math import prod
from operator import mul
from typing import NamedTuple

from .errors import InternalError
from .poly import ZERO, IntPoly, _repack, _slot_bytes, _unpack_nonneg

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"
VANISHING_SUM = "vanishing-sum"
_STATUSES = (PASS, FAIL, SKIPPED)


def fold(a, n, e):
    """a reduced modulo (q^n - 1)^e, for n >= 1 and e in (1, 2).

    (q^n - 1)^e = (q - 1)^e [n]^e is a multiple of [n]^e, so the result is
    congruent to a modulo [n]^e and has degree below e*n.  With y = q^n and
    a = sum_j a_j y^j (deg a_j < n): for e = 1, y == 1 and the fold is the
    sum A of the length-n blocks a_j; for e = 2, y^j == (1 - j) + j*y, so
    a == (A - B) + q^n * B with B = sum_j j*a_j.
    """
    if n < 1 or e not in (1, 2):
        raise ValueError("the modulus [n]^e needs n >= 1 and e in (1, 2), got n=%r e=%r"
                         % (n, e))
    c = a.coeffs
    if len(c) <= e * n:
        return a
    if e == 1:
        return IntPoly._make([sum(c[i::n]) for i in range(n)])
    low, high = [], []
    for i in range(n):
        blocks = c[i::n]
        b = sum(map(mul, range(len(blocks)), blocks))
        low.append(sum(blocks) - b)
        high.append(b)
    return IntPoly._make(low + high)


def rem_mod(a, n, e=1):
    """Euclidean remainder of a modulo [n]^e, for n >= 1 and e in (1, 2).

    The remainder is unique, so dividing ``fold(a, n, e)`` gives the same one.
    """
    folded = fold(a, n, e)  # validates (n, e) before [n]^e is built
    if e == 1:
        modulus = [1] * n
    else:  # [n]^2 = 1 + 2q + ... + n*q^(n-1) + ... + 2q^(2n-3) + q^(2n-2)
        modulus = list(range(1, n + 1)) + list(range(n - 1, 0, -1))
    _, rem = folded.divrem(IntPoly._make(modulus))
    return rem


def is_prime(n):
    """Deterministic trial-division primality check; False for a non-integer."""
    if not isinstance(n, int) or n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class Witness(NamedTuple):
    """Renderings of the two sides of a failed claim and their difference."""

    lhs: str
    rhs: str
    difference: str


class _ReportFields(NamedTuple):
    claim_id: str
    params: tuple
    status: str
    witness: Witness | None = None
    elapsed_ms: int = 0
    note: str | None = None


class CongruenceReport(_ReportFields):
    """Outcome of one checked claim instance.

    ``params`` is an ordered tuple of (name, integer value) pairs so reports
    stay immutable, hashable, and totally ordered by (claim_id, params).
    Status ``fail`` always comes with a witness whose difference is nonzero.
    ``elapsed_ms`` is the sweep's wall time for the instance in whole
    milliseconds; it is 0 for a checker called directly and is rendered as
    0 under ``--stable-output``.

    A named tuple, so a report pickles to a pool worker and back, and
    ``_replace`` stamps a copy with a new ``elapsed_ms`` without checking
    the fields again; building one checks status and witness.
    """

    __slots__ = ()

    def __new__(cls, claim_id, params, status, witness=None, elapsed_ms=0, note=None):
        if status not in _STATUSES:
            raise ValueError("bad status %r" % (status,))
        if status == FAIL:
            if witness is None:
                raise ValueError("fail report needs a witness")
            if witness.difference == "0":
                raise ValueError("fail witness must have a nonzero difference")
        return tuple.__new__(cls, (claim_id, params, status, witness, elapsed_ms, note))

    @property
    def sort_key(self):
        return (self.claim_id, self.params)

    def to_json_obj(self, stable=False):
        """Plain dict in the exact report schema (note intentionally absent)."""
        return {
            "claim_id": self.claim_id,
            "params": dict(self.params),
            "status": self.status,
            "witness": None if self.witness is None else {
                "lhs": self.witness.lhs,
                "rhs": self.witness.rhs,
                "difference": self.witness.difference,
            },
            "elapsed_ms": 0 if stable else self.elapsed_ms,
        }


def _verdict(claim_id, params, lhs, rhs, residue, note):
    """``pass`` with the note when residue is zero, else ``fail`` showing it."""
    if not residue:
        return CongruenceReport(claim_id, params, PASS, note=note)
    return CongruenceReport(claim_id, params, FAIL,
                            witness=Witness(str(lhs), str(rhs), str(residue)))


def congruence_report(claim_id, params, factors, rhs, n, e=1, note=None):
    """Report whether prod(factors) == rhs (mod [n]^e) in Z[q].

    Each factor is folded before they are multiplied, so a pass never builds
    their full product; a fail builds it for the witness.
    """
    lhs = reduce(mul, [fold(f, n, e) for f in factors])
    residue = rem_mod(lhs - rhs if rhs else lhs, n, e)  # rhs == 0: no copy of lhs
    if residue:
        lhs = reduce(mul, factors)
    return _verdict(claim_id, params, lhs, rhs, residue, note)


def _block_sums(value, block_bits, blocks, weighted=False):
    """(A, B) for the ``blocks`` blocks V_j of ``block_bits`` bits each that
    make up ``value``: A = sum_j V_j and, when ``weighted``, B = sum_j j*V_j
    (else 0).

    Blocks are added in halves: the blocks from h = ceil(blocks/2) on are
    added onto the blocks below them until one block is left.  Moving block
    j + h down to j takes h from its weight, so h times the moved blocks is
    added to a running value U, folded in halves alongside; sum_j j*V_j +
    sum_j U_j stays B throughout.  Every intermediate slot is a partial sum
    of the final slot's nonnegative terms, so nothing carries while the
    slots hold A's and B's.
    """
    weights = 0
    while blocks > 1:
        blocks = (blocks + 1) // 2
        cut = block_bits * blocks
        low = (1 << cut) - 1
        high = value >> cut
        value = (value & low) + high
        if weighted:
            weights = (weights & low) + (weights >> cut) + blocks * high
    return value, weights


def packed_divides(factors, n):
    """True when [n] divides the product of ``factors``, each a ``Packed``.

    Each factor is folded modulo X^n - 1 in its own slots, by
    ``_block_sums`` over its length-n blocks, which is exact since no
    folded coefficient exceeds the factor's value at q = 1.  The folds are
    moved into slots of k bytes holding B, the product of those values,
    multiplied one by one and folded again after each multiply; no
    coefficient on the way exceeds B, so no slot carries.  The residue r
    has degree < n, and r - r_(n-1) [n] is its remainder modulo [n], so [n]
    divides iff all n slots of r are equal: iff r is unchanged when rotated
    by one slot.  A zero factor makes the product zero, which [n] divides.
    """
    bound = prod([f.at_one for f in factors])
    if not bound:
        return True
    k = _slot_bytes(bound)
    bits = 8 * k
    width = bits * n
    low = (1 << width) - 1
    r = 1
    for f in factors:
        folded, _ = _block_sums(f.value, 8 * f.k * n, -(-f.size // n))
        r *= _repack(folded, f.k, n, k)
        r = (r & low) + (r >> width)
    return r == (r >> bits) | ((r & ((1 << bits) - 1)) << width - bits)


def _pair_fold(f, n, k):
    """A + X^(2n) B at X = 2^(8k), for A = sum_j F_j and B = sum_j j*F_j
    over the length-n blocks F_j of the ``Packed`` f.

    The blocks are summed in slots widened to hold B <= (blocks - 1)*F(1),
    and A and B moved to k-byte slots together.
    """
    blocks = -(-f.size // n)
    wide = max(f.k, _slot_bytes(max(blocks - 1, 1) * f.at_one))
    block_bits = 8 * wide * n
    sums, weights = _block_sums(_repack(f.value, f.k, f.size, wide), block_bits, blocks,
                                weighted=True)
    return _repack(sums + (weights << 2 * block_bits), wide, 3 * n, k)


def pair_folds(factors, n):
    """(S, T), each n coefficients, with F*G == S + (q^n - 1)*T modulo
    (q^n - 1)^2, for the two ``Packed`` factors F and G.

    With y = q^n, a factor is A + (y - 1)*B modulo (y - 1)^2, A and B from
    ``_pair_fold``.  One multiply, (A_F + X^(2n) B_F)(A_G + X^(2n) B_G),
    gives A_F*A_G = L + y*H in its low 2n slots and A_F*B_G + B_F*A_G in
    the next 2n; since y*H == H + (y - 1)*H, S = L + H and T is H plus that
    cross term folded modulo y - 1.  The slots hold F(1)*G(1)*(blocks of F
    + blocks of G - 1), which bounds every slot of S and T; B_F*B_G lies
    above them and may carry only upwards.  S's slots must sum to
    A_F(1)*A_G(1) = F(1)*G(1), the values the factors carry, or
    InternalError is raised.
    """
    f, g = factors
    blocks_f, blocks_g = -(-f.size // n), -(-g.size // n)
    bound = f.at_one * g.at_one * (blocks_f + blocks_g - 1)
    if not bound:
        return [0] * n, [0] * n
    k = _slot_bytes(bound)
    width = 8 * k * n
    low = (1 << width) - 1
    product = _pair_fold(f, n, k) * _pair_fold(g, n, k)
    high = (product >> width) & low
    cross = (product >> 2 * width) & ((1 << 2 * width) - 1)
    s = (product & low) + high
    t = high + (cross & low) + (cross >> width)
    slots = _unpack_nonneg(s + (t << width), k, 2 * n)
    if sum(slots[:n]) != f.at_one * g.at_one:
        raise InternalError("pair folds modulo (q^%d - 1)^2: S sums to %d, not to "
                            "F(1) G(1) = %d" % (n, sum(slots[:n]), f.at_one * g.at_one))
    return slots[:n], slots[n:]


def packed_square_congruent(factors, sign, shift, n):
    """True when F*G == sign * q^shift * [n] modulo [n]^2, for the two
    ``Packed`` factors F and G, sign +-1 and 0 <= shift < n.

    Decided on ``pair_folds``' S and T, since q^n - 1 = (q - 1)[n]: the
    product is S + (q - 1)[n]T modulo [n]^2.  First route: [n] divides S,
    of degree < n, iff all its slots equal one value alpha; then S =
    alpha*[n], and it remains that [n] divides alpha + (q - 1)T - sign *
    q^shift, which modulo q^n - 1 has the coefficients c_r = T_(r-1) - T_r
    + alpha*[r = 0] - sign*[r = shift]: iff all c_r are equal.  Second
    route: with D the difference of the sides, denominators cleared by a
    power of q, [n]^2 divides D iff [n] divides D and D', since [n] is
    squarefree.  Given [n] | S, that is P' == sign * q^shift * [n]'
    modulo [n] for the product P, and modulo q^n - 1 slot r - 1 of P' is
    n*T_r + r*S_r, of the right side sign*((r - shift) mod n): iff their
    n differences are equal.  The routes must agree, or InternalError is
    raised.
    """
    s, t = pair_folds(factors, n)
    flat = s.count(s[0]) == n
    c = [t[r - 1] - t[r] for r in range(n)]
    c[0] += s[0]
    c[shift] -= sign
    divided = flat and c.count(c[0]) == n
    d = [n * t[r] + r * s[r] - sign * ((r - shift) % n) for r in range(n)]
    derived = flat and d.count(d[0]) == n
    if divided != derived:
        raise InternalError("pair folds modulo [%d]^2: the divided route says %s, "
                            "the derivative route %s" % (n, divided, derived))
    return divided


def packed_report(claim_id, params, factors, n, note=None, rhs=None, unpacked=None):
    """Report whether [n] divides the product of packed ``factors`` or, for
    rhs = (sign, shift) and two factors, whether their product is
    sign * q^shift * [n] modulo [n]^2.

    ``packed_divides`` or ``packed_square_congruent`` decides a pass alone.
    A fail is decided again by ``congruence_report`` on the unpacked
    factors, which gives the witness; if that route passes, the packed
    route is broken and InternalError is raised.  A caller that hands in a
    factor already folded passes ``unpacked``, which returns the factors in
    full, so the witness shows the full product.
    """
    if rhs is None:
        e, target = 1, ZERO
        passed = packed_divides(factors, n)
    else:
        sign, shift = rhs
        e, target = 2, IntPoly._make([0] * shift + [sign] * n)
        passed = packed_square_congruent(factors, sign, shift, n)
    if passed:
        return CongruenceReport(claim_id, params, PASS, note=note)
    full = unpacked() if unpacked else tuple(f.poly() for f in factors)
    report = congruence_report(claim_id, params, full, target, n, e, note=note)
    if report.status == PASS:
        raise InternalError("%s %r: the packed residue modulo [%d]%s is nonzero, the "
                            "unpacked one zero" % (claim_id, params, n, "^2" * (e - 1)))
    return report


def identity_report(claim_id, params, lhs, rhs, note=None):
    """Report whether lhs == rhs exactly."""
    return _verdict(claim_id, params, lhs, rhs, lhs - rhs, note)


def integer_report(claim_id, params, value, modulus, note=None):
    """Report whether the integer value is divisible by modulus."""
    return _verdict(claim_id, params, value, 0, value % modulus, note)
