"""q-combinatorial objects built on the integer polynomial kernel.

Notation used throughout the package:

    [n]        = 1 + q + ... + q^(n-1)          (q-integer; [0] = 0)
    [n]!       = [n][n-1]...[1]                 ([0]! = 1)
    gauss(n,k) = Gaussian binomial coefficient, the q-analogue of C(n,k),
                 zero whenever k < 0, k > n, or n < 0
    (x;q)_k    = (1-x)(1-xq)...(1-xq^(k-1))     (q-Pochhammer; empty = 1)

Every product of Gaussian binomials in full is built one way, as one
integer at q = X = 2^(8k), the k-byte slots holding its value at q = 1:
from 1, by gauss(n, i+1) = gauss(n, i) (X^(n-i) - 1) / (X^(i+1) - 1), a
shift-subtract and a checked exact division (``_times_gauss``).  That
builds ``q_binomial``, the thm1 prefactor [A+1]!/prod_i [a_i]!, the first
row of the weighted sum W(n) = sum_{h<n} q^h prod_i gauss(h, a_i) and each
term of the Laurent identities (``QBinomialCache.packed_product``); each
later row of W follows from the last by the same two operations.
W(n) modulo q^n - 1, all thm1 needs, is built another way, in n slots
of as many bits as its bound needs (``QBinomialCache.folded_weighted_sum``):
each row is a product of gauss(h, a_i) modulo X^n - 1, read off a table
built by q-Pascal with adds and rotations (``_pascal_columns``), neither
of them stored.  A division that is not exact, or unpacked coefficients
that do not sum to the value at q = 1, raise InternalError, so a
corrupted step never reaches a verdict.

``BINOMIAL_MEMO``, the package's one memo, holds them under flat keys:
``(n, k)``, ``(a_key,)`` and ``(n, a_key)``, in one table with one bound;
each forked process of a sweep holds its own copy.  A binomial is held as
an IntPoly; the prefactor and W(n) stay packed (``poly.Packed``), and a
caller that wants an IntPoly unpacks one.  An a-list is keyed on its
sorted nonzero entries, since gauss(h, 0) = [0]! = 1.  Every checker in
:mod:`qcong.theorems` asks the memo, never ``q_binomial`` directly.

``LaurentPoly`` extends the kernel with negative powers of q for identities
whose natural exponents dip below zero; the identities decide a pass on
packed integers and build LaurentPolys only for a fail's witness.
"""

from __future__ import annotations

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
    _ints,
    _pack_nonneg,
    _repack,
    _slot_bytes,
    _unpack_nonneg,
)

_NO_ROWS = Packed(0, 1, 0, 0)  # W(n) for n <= max(a_i): every row vanishes


def q_int(n):
    """[n] = 1 + q + ... + q^(n-1); requires an integer n >= 0."""
    if not _ints(n) or n < 0:
        raise ValueError("q_int needs an integer n >= 0, got %r" % (n,))
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
    if not _ints(n, k):
        raise ValueError("q_binomial needs integers n and k, got %r and %r" % (n, k))
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


def rows_at_one(a_key, lo, hi):
    """sum_{lo <= h < hi} prod_i C(h, a_i): rows lo..hi-1 of W at q = 1.
    The rows below max(a_i) vanish and are skipped."""
    total = 0
    for h in range(max(lo, a_key[-1] if a_key else 0), hi):
        row = 1
        for a in a_key:
            row *= comb(h, a)
        total += row
    return total


def _require_key(a_key):
    """Raise ValueError unless ``a_key`` is a sorted tuple of a_i >= 1, the
    key ``theorems.a_key`` gives an a-list (empty for one of zeros alone)."""
    if (not isinstance(a_key, tuple) or (a_key and a_key[0] < 1)
            or any(map(gt, a_key, a_key[1:]))):
        raise ValueError("need a sorted tuple of a_i >= 1, got %r" % (a_key,))


def _pascal_columns(n, bits, top):
    """Columns 0..top of gauss(h, a) modulo X^n - 1 at X = 2^bits: column a
    holds rows h = 0..n-1, each an n-slot integer.  Needs top < n, and
    slots of ``bits`` bits that hold C(h, a) for every h < n and a <= top.

    Built by q-Pascal, gauss(h, a) = gauss(h-1, a-1) + q^a gauss(h-1, a),
    where q^a times an n-slot value rotates it by a slots; gauss(h, a) is 0
    for h < a and 1 for h = a.
    """
    width = bits * n
    mask = (1 << width) - 1
    columns = [(1,) * n]
    for a in range(1, top + 1):
        left = columns[a - 1]
        column = [0] * a + [1]
        for h in range(a + 1, n):
            turned = column[h - 1] << bits * a
            column.append(left[h - 1] + (turned & mask) + (turned >> width))
        columns.append(column)
    return columns


def q_pochhammer_eval(x, q, k):
    """(x;q)_k evaluated at exact rationals: prod_{i<k} (1 - x*q^i), x*q^i carried."""
    from fractions import Fraction  # only qpfaff pays for the module

    if not _ints(k) or k < 0:
        raise ValueError("q_pochhammer_eval needs an integer k >= 0, got %r" % (k,))
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
    and the weighted sum's entry also holds its last row.  W(n) modulo
    q^n - 1, and the q-Pascal table it is read from, are not stored.  All
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
        sum_{h<n} prod_i C(h, a_i) (``rows_at_one``), which no coefficient
        of W(n), of a row or of a step between rows exceeds.  The first row,
        h = max(a_i), comes from ``_times_gauss``.  Row h follows from row
        h - 1 since gauss(h, a) = gauss(h-1, a) [h] / [h-a]: for each a_i,
        one shift-subtract (times X^h - 1) and one exact division by
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
        bound = rows_at_one(a_key, h, n)
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

    def packed_product(self, pairs, bits):
        """prod gauss(n, a) over ``pairs`` of 0 <= a <= n at X = 2^bits, from
        ``_times_gauss``; the slots must hold its value at q = 1.

        Nothing is stored: the support identities build each product once.
        It is read through the memo so that a stand-in memo reaches them too.
        """
        return _times_gauss(pairs, bits)[0]

    def within_one_row(self, n, a_key):
        """True when ``weighted_sum(n, a_key)`` adds at most one row: W(n) or
        W(n - 1) is held, or W(n - 1) is zero since n - 1 <= max(a_i)."""
        return (n - 1 <= (a_key[-1] if a_key else 0) or (n - 1, a_key) in self._table
                or (n, a_key) in self._table)

    def folded_weighted_sum(self, n, a_key):
        """W(n) modulo q^n - 1, packed in n slots of k = _slot_bytes(W(1))
        bytes, W(1) being its value at q = 1 (``rows_at_one``).

        The rows are taken in slots of b bits, the fewest that hold W(1)
        and every table entry's C(h, a), h < n and a <= max(a_i).  Each row
        prod_i gauss(h, a_i) is the product of its entries in
        ``_pascal_columns``, one multiply per a_i after the first, each
        followed by one fold that adds the high n slots onto the low n.  The
        rows are added, row h shifted by h slots, and folded once more.  A
        row's coefficients sum to prod_i C(h, a_i), and a partial product's
        to a part of it, so nothing on the way exceeds W(1).  The n slots,
        unpacked, must sum to W(1), or InternalError is raised, and are
        packed into k bytes once, at the end.  n <= max(a_i) gives zero.

        Nothing is stored.  The table is built for each call: at b bits it
        is seldom asked for again (the thm1-wide-jobs2 samples fold 755 W
        in 636 distinct (n, b)), and held, such tables would only grow the
        memo.
        """
        _require_key(a_key)
        top = a_key[-1] if a_key else 0
        if n <= top:
            return _NO_ROWS
        at_one = rows_at_one(a_key, top, n)
        k = _slot_bytes(at_one)
        bits = max(at_one, comb(n - 1, min(top, (n - 1) // 2))).bit_length()
        width = bits * n
        mask = (1 << width) - 1
        columns = _pascal_columns(n, bits, top)
        first, *rest = [columns[a] for a in a_key] or [columns[0]]
        total = 0
        for h in range(top, n):
            row = first[h]
            for column in rest:
                row *= column[h]
                row = (row & mask) + (row >> width)
            total += row << bits * h
        total = (total & mask) + (total >> width)
        low = (1 << bits) - 1
        slots = [(total >> bits * i) & low for i in range(n)]
        if sum(slots) != at_one:
            raise InternalError("W(%d) for %r modulo q^%d - 1: slots do not sum to %d"
                                % (n, a_key, n, at_one))
        return Packed(_pack_nonneg(slots, k), k, n, at_one)

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
