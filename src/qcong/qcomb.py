"""q-combinatorial objects built on the integer polynomial kernel.

Notation used throughout the package:

    [n]        = 1 + q + ... + q^(n-1)          (q-integer; [0] = 0)
    [n]!       = [n][n-1]...[1]                 ([0]! = 1)
    gauss(n,k) = Gaussian binomial coefficient, the q-analogue of C(n,k),
                 zero whenever k < 0, k > n, or n < 0
    (x;q)_k    = (1-x)(1-xq)...(1-xq^(k-1))     (q-Pochhammer; empty = 1)

Every product of Gaussian binomials is built one way, as one integer at
q = X = 2^(8k), the k-byte slots holding its value at q = 1: from 1, by
gauss(n, i+1) = gauss(n, i) (X^(n-i) - 1) / (X^(i+1) - 1), a shift-subtract
and a checked exact division (``_times_gauss``).  That builds
``q_binomial``, the thm1 prefactor [A+1]!/prod_i [a_i]! and the first row
of the weighted sum W(n) = sum_{h<n} q^h prod_i gauss(h, a_i); each later
row of W follows from the last by the same two operations.  A division that
is not exact, or unpacked coefficients that do not sum to the value at
q = 1, raise InternalError, so a corrupted step never reaches a verdict.

``BINOMIAL_MEMO``, the package's one memo, holds them under flat keys:
``(n, k)``, ``(a_key,)`` and ``(n, a_key)``, in one table with one bound;
each worker process of a sweep holds its own copy.  A binomial is held as
an IntPoly; the prefactor and W(n) stay packed (``poly.Packed``), and a
caller that wants an IntPoly unpacks one.  An a-list is keyed on its
sorted nonzero entries, since gauss(h, 0) = [0]! = 1.  Every checker in
:mod:`qcong.theorems` asks the memo, never ``q_binomial`` directly.

``LaurentPoly`` extends the kernel with negative powers of q for identities
whose natural exponents dip below zero.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, prod
from operator import gt

from .errors import InternalError
from .poly import (
    ONE,
    ZERO,
    IntPoly,
    Packed,
    _format_terms,
    _repack,
    _slot_bytes,
    _unpack_nonneg,
)

_NO_ROWS = Packed(0, 1, 0, 0)  # W(n) for n <= max(a_i): every row vanishes


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
    """Gaussian binomial via the product formula; zero out of range."""
    if k < 0 or n < 0 or k > n:
        return ZERO
    return IntPoly._make(_gauss_product(((n, k),))[1])


def _times_gauss(pairs, bits):
    """prod gauss(n, a) over ``pairs`` of 0 <= a <= n packed at X = 2^bits,
    and its degree; one step per i < min(a, n-a).

    The slots must hold every coefficient of the product; no step between
    has a larger one.
    """
    row, degree = 1, 0
    for n, a in pairs:
        for i in range(min(a, n - a)):
            degree += n - 2 * i - 1
            row = _div_pow2_minus_one((row << bits * (n - i)) - row, bits * (i + 1),
                                      bits * (degree + 1))
    return row, degree


def _gauss_product(pairs):
    """prod gauss(n, a) over ``pairs`` of 0 <= a <= n, from ``_times_gauss``
    in slots holding B = prod C(n, a), as a Packed and its coefficients;
    InternalError unless they sum to B."""
    bound = prod([comb(n, a) for n, a in pairs])
    k = _slot_bytes(bound)
    row, degree = _times_gauss(pairs, 8 * k)
    coeffs = _unpack_nonneg(row, k, degree + 1)
    if sum(coeffs) != bound:
        raise InternalError("prod gauss over %r: coefficients do not sum to %d"
                            % (pairs, bound))
    return Packed(row, k, degree + 1, bound), coeffs


def _div_pow2_minus_one(value, s, width):
    """value / (2^s - 1) for a quotient below 2^width, raising InternalError
    unless exact.

    2-adically 1/(1 - 2^s) is 1 + 2^s + 2^(2s) + ..., so the quotient is
    -value times that series mod 2^width, a prefix sum that doubles its
    reach with each shift-add.  The quotient times 2^s - 1 must give value
    back.
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


def _require_key(a_key):
    """Raise ValueError unless ``a_key`` is a sorted tuple of a_i >= 1, the
    key ``theorems.a_key`` gives an a-list (empty for one of zeros alone)."""
    if (not isinstance(a_key, tuple) or (a_key and a_key[0] < 1)
            or any(map(gt, a_key, a_key[1:]))):
        raise ValueError("need a sorted tuple of a_i >= 1, got %r" % (a_key,))


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
    """Bounded memo for Gaussian binomials, thm1 prefactors and weighted sums.

    A binomial gauss(n, k) is keyed on ``(n, k)`` and held as an IntPoly.
    A prefactor is keyed on ``(a_key,)`` and a weighted sum on
    ``(n, a_key)``, ``a_key`` an a-list's sorted nonzero entries; both are
    held packed, as a ``poly.Packed`` whose slots hold its value at q = 1,
    and the weighted sum's entry also holds its last row.  All share one
    table and one bound, with insertion-ordered eviction (oldest entry
    first).  Cached values are immutable, so a hit is indistinguishable
    from a fresh computation.
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

    def prefactor(self, a_key):
        """[A+1]! / prod_i [a_i]!, packed, over an a-list's key, A the sum.

        It telescopes into prod_i gauss(s_i, a_i) gauss(A+1, 1), s_i the
        partial sums taken biggest a_i first, so the first factor is 1; the
        coefficients are checked to sum to the multinomial (A+1)!/prod a_i!
        when it is built.  A key that is not a sorted tuple of a_i >= 1
        raises ValueError.
        """
        _require_key(a_key)
        key = (a_key,)
        hit = self._table.get(key)
        if hit is not None:
            return hit
        a_desc = a_key[::-1] + (1,)
        return self._store(key, _gauss_product(tuple(zip(accumulate(a_desc), a_desc)))[0])

    def weighted_sum(self, n, a_key):
        """W(n) = sum_{h<n} q^h prod_i gauss(h, a_i), packed, over an a-list's key.

        Computed as one integer at X = 2^(8k), the slots holding W(1) =
        sum_{h<n} prod_i C(h, a_i), which no coefficient of W(n), of a row
        or of a step between rows exceeds.  The first row, h = max(a_i),
        comes from ``_times_gauss``.  Row h follows from row h - 1 since
        gauss(h, a) = gauss(h-1, a) [h] / [h-a]: for each a_i, one
        shift-subtract (times X^h - 1) and one exact division by
        X^(h-a_i) - 1.  The rows are summed, row h shifted by h slots, and
        their sum is checked, unpacked, to add up to B = sum_h prod_i
        C(h, a_i) over the rows added.

        Keyed on ``(n, a_key)``, the entry holds W(n) and its last row (row
        n - 1, in W's slots).  W(n) is built off the entry for the largest
        n' < n with the same key, both repacked if the width grew, adding
        only the rows n' <= h < n.  Rows with h below max(a_i) vanish, so
        n <= max(a_i) gives zero and stores nothing.  A key that is not a
        sorted tuple of a_i >= 1 raises ValueError.
        """
        _require_key(a_key)
        top = a_key[-1] if a_key else 0
        if n <= top:
            return _NO_ROWS
        key = (n, a_key)
        hit = self._table.get(key)
        if hit is not None:
            return hit[0]
        h, held, row = top, _NO_ROWS, None  # the first row to add, W(h), row h - 1
        for below in range(n - 1, top, -1):
            base = self._table.get((below, a_key))
            if base is not None:
                h, (held, row) = below, base
                break
        bound = sum(prod([comb(j, a) for a in a_key]) for j in range(h, n))
        k = _slot_bytes(held.at_one + bound)
        bits = 8 * k
        if row is None:
            row, degree = _times_gauss([(h, a) for a in a_key], bits)
            part, first = row, h + 1
        else:
            degree = sum(a * (h - 1 - a) for a in a_key)
            row = _repack(row, held.k, degree + 1, k)
            part, first = 0, h
        for j in range(first, n):
            for a in a_key:
                degree += a
                row = _div_pow2_minus_one((row << bits * j) - row, bits * (j - a),
                                          bits * (degree + 1))
            part += row << bits * (j - h)
        if sum(_unpack_nonneg(part, k, n - h + degree)) != bound:
            raise InternalError("W(%d) for %r: rows %d..%d do not sum to %d"
                                % (n, a_key, h, n - 1, bound))
        total = Packed(_repack(held.value, held.k, held.size, k) + (part << bits * h),
                       k, n + degree, held.at_one + bound)
        return self._store(key, (total, row))[0]

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
