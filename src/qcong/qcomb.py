"""q-combinatorial objects built on the integer polynomial kernel.

Notation used throughout the package:

    [n]        = 1 + q + ... + q^(n-1)          (q-integer; [0] = 0)
    [n]!       = [n][n-1]...[1]                 ([0]! = 1)
    gauss(n,k) = Gaussian binomial coefficient, the q-analogue of C(n,k),
                 zero whenever k < 0, k > n, or n < 0
    (x;q)_k    = (1-x)(1-xq)...(1-xq^(k-1))     (q-Pochhammer; empty = 1)

``q_binomial`` computes gauss(n,k) by the product formula

    prod_{i=0}^{k-1} (1 - q^(n-i))  /  prod_{i=1}^{k} (1 - q^i)

one factor pair at a time: a shifted subtraction multiplies by 1 - q^m, and
a running sum over the residues mod m divides exactly by 1 - q^m, so no
long division is involved.

``BINOMIAL_MEMO`` is the package's one memo for Gaussian binomials, their
products and the weighted sums W(n) = sum_{h<n} q^h prod_i gauss(h, a_i):
every checker in :mod:`qcong.theorems` asks it, never ``q_binomial``
directly.  It keys a binomial on ``(n, k)``, a product on the exact ordered
tuple of its ``(n, k)`` pairs and W(n) on ``(n, a_sorted)``, in one table
with one bound, so a long sweep cannot grow it without limit; each worker
process of a sweep holds its own copy.

W(n) is built as one integer at q = X = 2^(8k), with no polynomial
multiply per row: row h follows from row h - 1 by a shift-subtract and an
exact division by X^d - 1 per a_i, and the rows are summed as integers
and unpacked once (see ``QBinomialCache.weighted_sum``).  Its entry holds
W(n) and the last row, so a larger n of the same a-list is extended from
the largest smaller n held, one row per missing h.  The memo holds no row
product; only the prefactor is a product of binomials.

``LaurentPoly`` extends the kernel with negative powers of q for identities
whose natural exponents dip below zero.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, prod
from operator import add, gt, sub

from .errors import InternalError
from .poly import (
    ONE,
    ZERO,
    IntPoly,
    _format_terms,
    _pack_nonneg,
    _slot_bytes,
    _unpack_nonneg,
)


def q_int(n):
    """[n] = 1 + q + ... + q^(n-1); requires n >= 0."""
    if n < 0:
        raise ValueError("q_int needs n >= 0, got %d" % n)
    return IntPoly._make([1] * n)


@lru_cache(maxsize=None)
def q_factorial(n):
    """[n]! = [n][n-1]...[1], with [0]! = 1."""
    if n < 0:
        raise ValueError("q_factorial needs n >= 0, got %d" % n)
    if n == 0:
        return ONE
    return q_factorial(n - 1) * q_int(n)


def q_binomial(n, k):
    """Gaussian binomial via the product formula; zero out of range.

    Built one row step at a time: gauss(n, i+1) = gauss(n, i) *
    (1 - q^(n-i)) / (1 - q^(i+1)) for i below min(k, n-k).
    """
    if k < 0 or n < 0 or k > n:
        return ZERO
    row = [1]
    for i in range(min(k, n - k)):
        m = n - i
        stepped = row + [0] * m
        stepped[m:] = map(sub, stepped[m:], row)  # times 1 - q^m
        row = _div_one_minus_q_pow(stepped, i + 1)
    return IntPoly._make(row)


def _div_one_minus_q_pow(c, m):
    """The coefficient list of c / (1 - q^m), raising InternalError unless exact.

    The quotient satisfies out_i = c_i + out_(i-m), a running sum over each
    residue class mod m.  Carried over the m top terms of c, which the
    quotient drops, the sum must vanish: c_top == -out_(top-m).
    """
    out = list(c)
    for r in range(m):
        out[r::m] = accumulate(out[r::m])
    size = max(len(c) - m, 0)
    if any(out[size:]):
        raise InternalError("not a multiple of 1 - q^%d" % m)
    return out[:size]


def _div_pow2_minus_one(value, s, width):
    """value / (2^s - 1) for a quotient below 2^width, raising InternalError
    unless exact.

    The packed twin of ``_div_one_minus_q_pow``: 2-adically 1/(1 - 2^s) is
    1 + 2^s + 2^(2s) + ..., so the quotient is -value times that series mod
    2^width, a prefix sum that doubles its reach with each shift-add.  The
    quotient times 2^s - 1 must give value back.
    """
    mask = (1 << width) - 1
    acc, reach = value & mask, s
    while reach < width:
        acc = (acc + (acc << reach)) & mask
        reach <<= 1
    quot = -acc & mask
    if (quot << s) - quot != value:
        raise InternalError("not a multiple of 2^%d - 1" % s)
    return quot


def q_pochhammer_eval(x, q, k):
    """(x;q)_k evaluated at exact rationals: prod_{i<k} (1 - x*q^i), x*q^i carried."""
    if k < 0:
        raise ValueError("q_pochhammer_eval needs k >= 0, got %d" % k)
    x = Fraction(x)
    q = Fraction(q)
    out = Fraction(1)
    for _ in range(k):
        out *= 1 - x
        x *= q
    return out


class QBinomialCache:
    """Bounded memo for Gaussian binomials, products of them and weighted sums.

    A binomial gauss(n, k) is keyed on ``(n, k)``; a product of two or more
    is keyed on the exact ordered tuple of its ``(n, k)`` pairs; a weighted
    sum on ``(n, a_sorted)``, its entry holding W(n) and its last row.  All
    share one table and one bound, with insertion-ordered eviction (oldest
    entry first).  Cached values are immutable, so a hit is
    indistinguishable from a fresh computation.
    """

    __slots__ = ("max_entries", "_table")

    def __init__(self, max_entries=4096):
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._table = {}

    def binomial(self, n, k):
        key = (n, k)
        hit = self._table.get(key)
        if hit is not None:
            return hit
        return self._store(key, q_binomial(n, k))

    def product(self, pairs):
        """prod gauss(n, k) over a nonempty tuple of (n, k) pairs.

        Built off the entry for ``pairs[:-1]``, so products sharing a prefix
        pay for each extension once; a zero factor ends the product without
        a multiply.
        """
        if len(pairs) == 1:
            return self.binomial(*pairs[0])
        hit = self._table.get(pairs)
        if hit is not None:
            return hit
        factor = self.binomial(*pairs[-1])
        if factor.is_zero:
            return self._store(pairs, ZERO)
        prefix = self.product(pairs[:-1])
        return self._store(pairs, ZERO if prefix.is_zero else prefix * factor)

    def weighted_sum(self, n, a_sorted):
        """W(n) = sum_{h<n} q^h prod_i gauss(h, a_i) over a sorted tuple of a_i.

        Computed as one integer at X = 2^(8k), k from ``poly._slot_bytes``
        of the exact bound B = sum_h prod_i C(h, a_i) over the rows added,
        their value at q = 1: every coefficient of every row, and of every
        step between rows, is nonnegative and at most B, so none overflows
        its slot.  The first
        row, h = max(a_i), is the product of the packed gauss(h, a_i).  Row
        h follows from row h - 1 since gauss(h, a) = gauss(h-1, a) [h] /
        [h-a]: for each a_i > 0, one shift-subtract (times X^h - 1) and one
        exact division by X^(h-a_i) - 1.  The rows are summed, row h shifted
        by h slots, and the sum is unpacked once.  A division that is not
        exact, or unpacked coefficients that do not sum to B, raise
        InternalError.

        Keyed on ``(n, a_sorted)``, the entry holds W(n), its last row (row
        n - 1, packed) and that row's slot width.  W(n) is built off the
        entry for the largest n' < n with the same a-list, repacking its
        last row if the width changed and adding only the rows n' <= h < n.
        Rows with h below max(a_i) vanish, so n <= max(a_i) gives ZERO and
        stores nothing.  The a-list must be a sorted tuple; anything else
        raises ValueError.
        """
        if (not isinstance(a_sorted, tuple) or not a_sorted or a_sorted[0] < 0
                or any(map(gt, a_sorted, a_sorted[1:]))):
            raise ValueError("weighted_sum needs a nonempty sorted tuple of "
                             "a_i >= 0, got %r" % (a_sorted,))
        top = a_sorted[-1]
        if n <= top:
            return ZERO
        key = (n, a_sorted)
        hit = self._table.get(key)
        if hit is not None:
            return hit[0]
        h, total, last = top, [], None  # the first row to add, W(h), row h - 1
        for below in range(n - 1, top, -1):
            base = self._table.get((below, a_sorted))
            if base is not None:
                h, total, last = below, list(base[0].coeffs), base[1:]
                break
        bound = sum(prod([comb(j, a) for a in a_sorted]) for j in range(h, n))
        k = _slot_bytes(bound)
        bits = 8 * k
        steps = [a for a in a_sorted if a]
        if last is None:
            row = prod(_pack_nonneg(self.binomial(h, a).coeffs, k) for a in steps)
            degree = sum(a * (h - a) for a in steps)
            part, first = row, h + 1
        else:
            row, width = last
            degree = sum(a * (h - 1 - a) for a in steps)
            if width != k:
                row = _pack_nonneg(_unpack_nonneg(row, width, degree + 1), k)
            part, first = 0, h
        for j in range(first, n):
            for a in steps:
                degree += a
                row = _div_pow2_minus_one((row << bits * j) - row, bits * (j - a),
                                          bits * (degree + 1))
            part += row << bits * (j - h)
        size = n - h + degree
        coeffs = _unpack_nonneg(part, k, size)
        if sum(coeffs) != bound:
            raise InternalError("W(%d) for %r: rows %d..%d do not sum to %d"
                                % (n, a_sorted, h, n - 1, bound))
        total += [0] * (h + size - len(total))
        total[h:] = map(add, total[h:], coeffs)
        return self._store(key, (IntPoly._make(total), row, k))[0]

    def _store(self, key, value):
        if len(self._table) >= self.max_entries:
            self._table.pop(next(iter(self._table)))
        self._table[key] = value
        return value

    def __len__(self):
        return len(self._table)

    def clear(self):
        self._table.clear()


BINOMIAL_MEMO = QBinomialCache(max_entries=1 << 15)


class LaurentPoly:
    """Polynomial in q and q^-1: q^offset times an IntPoly body.

    Canonical form: the zero value has offset 0 and zero body; otherwise the
    body has a nonzero constant term (the offset is as large as possible).
    """

    __slots__ = ("_offset", "_body")

    def __init__(self, body=ZERO, offset=0):
        if isinstance(body, int):
            body = IntPoly._make([body])
        if not isinstance(body, IntPoly):
            raise TypeError("body must be IntPoly or int")
        if body.is_zero:
            offset = 0
        else:
            coeffs = body.coeffs
            lead_zeros = 0
            while coeffs[lead_zeros] == 0:
                lead_zeros += 1
            if lead_zeros:
                body = IntPoly._make(list(coeffs[lead_zeros:]))
                offset += lead_zeros
        self._offset = offset
        self._body = body

    @classmethod
    def from_poly(cls, p):
        return cls(p, 0)

    @classmethod
    def q_power(cls, e):
        """q^e for any integer e."""
        return cls(ONE, e)

    @property
    def offset(self):
        return self._offset

    @property
    def body(self):
        return self._body

    @property
    def is_zero(self):
        return self._body.is_zero

    def as_poly(self):
        """Convert back to IntPoly; fails if a negative power survives."""
        if self._body.is_zero:
            return ZERO
        if self._offset < 0:
            raise ValueError("value has negative powers of q")
        return self._body.shift(self._offset)

    @staticmethod
    def _coerce(other):
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, (IntPoly, int)):
            return LaurentPoly(other if isinstance(other, IntPoly)
                               else IntPoly._make([other]))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        base = min(self._offset, other._offset)
        a = self._body.shift(self._offset - base)
        b = other._body.shift(other._offset - base)
        return LaurentPoly(a + b, base)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(-self._body, self._offset)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return LaurentPoly(self._body * other._body, self._offset + other._offset)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._offset == other._offset and self._body == other._body

    def __hash__(self):
        return hash((self._offset, self._body))

    def __bool__(self):
        return not self.is_zero

    def __str__(self):
        return _format_terms([(i + self._offset, c)
                              for i, c in enumerate(self._body.coeffs) if c])

    def __repr__(self):
        return "LaurentPoly(%r, offset=%d)" % (list(self._body.coeffs), self._offset)
