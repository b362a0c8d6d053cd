"""Exact congruence residues over the polynomial ring, plus check reports.

A congruence a == b (mod m) here always means that m divides a - b exactly
in the ring of integer polynomials; nothing is ever tested numerically.

``CongruenceReport`` is the single result record every checker produces.
Its JSON form has exactly the fields claim_id, params, status, witness,
elapsed_ms; the optional ``note`` (e.g. the vanishing-sum marker on
trivially-true instances) only appears in the human-readable text rendering.

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

thm1's factors, its prefactor and weighted sum, come packed (``poly.Packed``)
and ``packed_report`` decides on those integers: ``packed_divides`` folds
each modulo X^n - 1, multiplies the n-slot folds and folds again, in slots
that hold the product of the factors' values at q = 1, and [n] divides iff
all n slots are equal.  A fail is decided again, with its witness, by
``congruence_report`` on the unpacked factors, and the two must agree.

Checkers read no clock: ``sweep.run_instance`` stamps each report's
``elapsed_ms``."""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import prod
from operator import mul

from .errors import InternalError
from .poly import ZERO, IntPoly, _repack, _slot_bytes

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


@dataclass(frozen=True)
class Witness:
    """Renderings of the two sides of a failed claim and their difference."""

    lhs: str
    rhs: str
    difference: str


@dataclass(frozen=True)
class CongruenceReport:
    """Outcome of one checked claim instance.

    ``params`` is an ordered tuple of (name, integer value) pairs so reports
    stay immutable, hashable, and totally ordered by (claim_id, params).
    Status ``fail`` always comes with a witness whose difference is nonzero.
    ``elapsed_ms`` is the sweep's wall time for the instance in whole
    milliseconds; it is 0 for a checker called directly and is rendered as
    0 under ``--stable-output``.
    """

    claim_id: str
    params: tuple
    status: str
    witness: Witness | None = None
    elapsed_ms: int = 0
    note: str | None = None

    def __post_init__(self):
        if self.status not in _STATUSES:
            raise ValueError("bad status %r" % (self.status,))
        if self.status == FAIL:
            if self.witness is None:
                raise ValueError("fail report needs a witness")
            if self.witness.difference == "0":
                raise ValueError("fail witness must have a nonzero difference")

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


def make_report(claim_id, params, status, witness=None, elapsed_ms=0, note=None):
    """Build a report from a plain mapping of parameter names to integers.

    A ``bool`` is refused like any other non-integer: the JSON report writes
    params with ``%d``, which prints ``1`` where ``json`` prints ``true``.
    """
    items = []
    for name, value in params.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise TypeError("param %r must be int, got %r" % (name, value))
        items.append((name, value))
    return CongruenceReport(claim_id, tuple(items), status,
                            witness=witness, elapsed_ms=elapsed_ms, note=note)


def _verdict(claim_id, params, lhs, rhs, residue, note):
    """``pass`` with the note when residue is zero, else ``fail`` showing it."""
    if not residue:
        return make_report(claim_id, params, PASS, note=note)
    return make_report(claim_id, params, FAIL,
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


def packed_divides(factors, n):
    """True when [n] divides the product of ``factors``, each a ``Packed``.

    Each factor is folded modulo X^n - 1 in its own slots: blocks of n
    slots are added, halving the number of blocks each time, which is exact
    since no folded coefficient exceeds the factor's value at q = 1.  The
    folds are moved into slots of k bytes holding B, the product of those
    values, multiplied one by one and folded again after each multiply; no
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
        fold_bits, value, blocks = 8 * f.k * n, f.value, -(-f.size // n)
        while blocks > 1:
            blocks = (blocks + 1) // 2
            cut = fold_bits * blocks
            value = (value & ((1 << cut) - 1)) + (value >> cut)
        r *= _repack(value, f.k, n, k)
        r = (r & low) + (r >> width)
    return r == (r >> bits) | ((r & ((1 << bits) - 1)) << width - bits)


def packed_report(claim_id, params, factors, n, note=None):
    """Report whether [n] divides the product of packed ``factors``.

    ``packed_divides`` decides a pass alone.  A fail is decided again by
    ``congruence_report`` on the unpacked factors, which gives the witness;
    if that route passes, the packed route is broken and InternalError is
    raised.
    """
    if packed_divides(factors, n):
        return make_report(claim_id, params, PASS, note=note)
    report = congruence_report(claim_id, params, tuple(f.poly() for f in factors),
                               ZERO, n, note=note)
    if report.status == PASS:
        raise InternalError("%s %r: the packed residue modulo [%d] is nonzero, the "
                            "unpacked one zero" % (claim_id, params, n))
    return report


def identity_report(claim_id, params, lhs, rhs, note=None):
    """Report whether lhs == rhs exactly."""
    return _verdict(claim_id, params, lhs, rhs, lhs - rhs, note)


def integer_report(claim_id, params, value, modulus, note=None):
    """Report whether the integer value is divisible by modulus."""
    return _verdict(claim_id, params, value, 0, value % modulus, note)
