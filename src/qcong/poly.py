"""Dense univariate polynomials over Python's arbitrary-precision integers.

A polynomial in q is stored as a tuple of coefficients, entry i holding the
coefficient of q^i.  The representation is canonical: the zero polynomial is
the empty tuple, and otherwise the last entry is nonzero.  Values are
immutable after construction and therefore safe to share across threads and
with forked processes.

Multiplication is Kronecker substitution: each operand is packed into one
integer, slot by slot through bytes, and the two are multiplied once by the
interpreter's big-integer multiply.  The kernel tests compare it against a
schoolbook convolution kept in their oracles.

``_pack_nonneg`` and ``_unpack_nonneg`` carry nonnegative coefficients to
and from one integer at X = 2^(8k) with no bias, by one ``array`` call over
machine words, for a caller that does more than multiply there:
:mod:`qcong.qcomb` builds a whole weighted sum of Gaussian binomials as one
integer, and :mod:`qcong.congruence` decides thm1 on such integers.
``_slot_bytes`` picks k from a bound on every coefficient, ``_repack``
moves slots to another width, and ``Packed`` holds one such integer with
its width, length and value at q = 1.
"""

from __future__ import annotations

import sys
from array import array
from typing import NamedTuple

from .errors import LeadingCoeffNotUnitError, NotDivisibleError

# Unsigned array typecode of each machine-word slot width, in bytes.
_UWORDS = {array(t).itemsize: t for t in "BHILQ"}
_WORD64 = (1 << 64) - 1


def _ints(*values):
    """True when every value is an integer, and none a bool: the package's
    one test of an integer argument, for the checkers, ``IntPoly.__pow__``,
    ``congruence.fold``, ``q_int``, ``q_binomial``, ``q_pochhammer_eval``,
    ``faulhaber.power_sum`` and ``SweepConfig``."""
    for v in values:
        if not isinstance(v, int) or isinstance(v, bool):
            return False
    return True


def _strip(coeffs):
    """Drop trailing zeros in place; return the same list."""
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _add_lists(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, v in enumerate(b):
        out[i] += v
    return _strip(out)


def _sub_lists(a, b):
    out = list(a)
    if len(out) < len(b):
        out.extend([0] * (len(b) - len(out)))
    for i, v in enumerate(b):
        out[i] -= v
    return _strip(out)


def _pack(coeffs, k, bias):
    """The integer sum of c_i * 2^(8ki), packed via k-byte slots holding c_i + bias."""
    slots = b"".join([(c + bias).to_bytes(k, "little") for c in coeffs])
    return (int.from_bytes(slots, "little")
            - int.from_bytes(bias.to_bytes(k, "little") * len(coeffs), "little"))


def _mul_lists(a, b):
    """Multiply coefficient lists by Kronecker substitution.

    Every input and product coefficient c has |c| <= bound = max|a| * max|b| *
    min(len a, len b) < 2^(8k-1) = bias, so c + bias fills a k-byte slot
    without sign or overflow.  Each operand is packed into one integer, the
    two are multiplied once, and the product plus bias in every slot is read
    back.  The result has len(a) + len(b) - 1 entries, the schoolbook
    convolution's, trailing zeros included.
    """
    if not a or not b:
        return []
    bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    k = bound.bit_length() // 8 + 1
    n = len(a) + len(b) - 1
    bias = 1 << (8 * k - 1)
    biased = _pack(a, k, bias) * _pack(b, k, bias) + int.from_bytes(
        bias.to_bytes(k, "little") * n, "little")
    buf = biased.to_bytes(n * k, "little")
    return [int.from_bytes(buf[i:i + k], "little") - bias
            for i in range(0, n * k, k)]


def _slot_bytes(bound):
    """Bytes per slot for coefficients in [0, bound]: the fewest that hold
    bound, rounded up to 1, 2, 4 or 8, or past 8 to a multiple of 8."""
    k = max((bound.bit_length() + 7) // 8, 1)
    return 1 << (k - 1).bit_length() if k <= 8 else -(-k // 8) * 8


def _slot_words(k):
    """The array typecode that reads k-byte slots, and the words per slot."""
    return (_UWORDS[k], 1) if k <= 8 else ("Q", k // 8)


def _pack_nonneg(coeffs, k):
    """The integer sum of c_i * 2^(8ki), for 0 <= c_i < 2^(8k) and k from
    ``_slot_bytes``.

    Slot i holds c_i in t = k/8 little-endian 64-bit words when k > 8, one
    word when k <= 8; one ``array`` call packs all of them.
    """
    code, t = _slot_words(k)
    if t == 1:
        words = array(code, coeffs)
    else:
        words = array(code, bytes(8 * t * len(coeffs)))
        for j in range(t):
            words[j::t] = array(code, [(c >> (64 * j)) & _WORD64 for c in coeffs])
    if sys.byteorder == "big":
        words.byteswap()
    return int.from_bytes(words, "little")


def _unpack_nonneg(value, k, n):
    """The n slots of ``value`` at X = 2^(8k), constant slot first; the
    inverse of ``_pack_nonneg``.  OverflowError if value >= X^n."""
    code, t = _slot_words(k)
    words = array(code, value.to_bytes(n * k, "little"))
    if sys.byteorder == "big":
        words.byteswap()
    out = words[t - 1::t].tolist()
    for j in range(t - 2, -1, -1):
        out = [(hi << 64) | lo for hi, lo in zip(out, words[j::t])]
    return out


def _repack(value, k, n, to):
    """The n slots of ``value`` at X = 2^(8k) moved into slots of ``to`` bytes.

    Word slots, k and ``to`` at most 8, are read by one ``array`` and
    written by another, in native byte order; on a big-endian host both
    take the slots in reverse.  OverflowError if a slot does not fit.
    """
    if k == to:
        return value
    if k > 8 or to > 8:
        return _pack_nonneg(_unpack_nonneg(value, k, n), to)
    order = sys.byteorder
    slots = array(_UWORDS[k], value.to_bytes(n * k, order)).tolist()
    return int.from_bytes(array(_UWORDS[to], slots), order)


def _divrem_lists(a, b):
    """Long division of coefficient lists over the integers.

    Returns (quotient, remainder) with deg(remainder) < deg(divisor).  A
    leading coefficient that the divisor's leading coefficient does not
    divide raises NotDivisibleError carrying the remainder reached so far;
    that cannot happen when the divisor's leading coefficient is a unit.
    """
    if not a:
        return [], []
    la, lb = len(a), len(b)
    blead = b[-1]
    if la < lb:
        return [], list(a)
    rem = list(a)
    quot = [0] * (la - lb + 1)
    body = b[:-1]
    lbody = lb - 1
    for i in range(la - lb, -1, -1):
        lead = rem[i + lbody]
        if lead:
            c, r = divmod(lead, blead)
            if r:
                raise NotDivisibleError(
                    "leading coefficient %d not divisible by %d" % (lead, blead),
                    IntPoly._make(_strip(rem)))
            quot[i] = c
            rem[i + lbody] = 0
            if c:
                rem[i:i + lbody] = [x - c * bj for x, bj in zip(rem[i:i + lbody], body)]
    return _strip(quot), _strip(rem)


def _format_terms(terms):
    """Render (exponent, coefficient) pairs, ascending, as '1 + q + 2*q^2'."""
    if not terms:
        return "0"
    parts = []
    for idx, (e, c) in enumerate(terms):
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            power = "q" if e == 1 else "q^%d" % e
            body = power if mag == 1 else "%d*%s" % (mag, power)
        if idx == 0:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


class IntPoly:
    """Immutable dense polynomial in q with integer coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=()):
        coeffs = list(coeffs)
        for c in coeffs:
            if not isinstance(c, int):
                raise TypeError("coefficients must be int, got %r" % type(c).__name__)
        self._coeffs = tuple(_strip(coeffs))

    @classmethod
    def _make(cls, coeffs):
        """Trusted constructor: takes a list of ints, canonicalizes, skips checks."""
        p = object.__new__(cls)
        p._coeffs = tuple(_strip(coeffs))
        return p

    @property
    def coeffs(self):
        """Coefficient tuple, constant term first; empty for zero."""
        return self._coeffs

    @property
    def degree(self):
        """Degree; -1 for the zero polynomial, so deg(rem) < deg(divisor) holds."""
        return len(self._coeffs) - 1

    @property
    def is_zero(self):
        return not self._coeffs

    @staticmethod
    def _coerce(other):
        if isinstance(other, IntPoly):
            return other
        if isinstance(other, int):
            return IntPoly._make([other])
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return IntPoly._make(_add_lists(self._coeffs, other._coeffs))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return IntPoly._make(_sub_lists(self._coeffs, other._coeffs))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return IntPoly._make([-c for c in self._coeffs])

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return IntPoly._make(_mul_lists(self._coeffs, other._coeffs))

    __rmul__ = __mul__

    def __pow__(self, n):
        if not _ints(n) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = ONE
        for _ in range(n):
            out = out * self
        return out

    def shift(self, k):
        """Multiply by q^k, k >= 0."""
        if k < 0:
            raise ValueError("negative shift; use LaurentPoly for negative powers")
        if not self._coeffs or k == 0:
            return self
        return IntPoly._make([0] * k + list(self._coeffs))

    def evaluate(self, x):
        """Horner evaluation at an exact scalar (int or fractions.Fraction)."""
        acc = 0
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc

    def divrem(self, other):
        """Quotient and remainder for a divisor with unit leading coefficient.

        Raises LeadingCoeffNotUnitError otherwise, ZeroDivisionError for a
        zero divisor.  Satisfies self == quot*other + rem with
        deg(rem) < deg(other).
        """
        other = self._coerce(other)
        if other is None:
            raise TypeError("divisor must be IntPoly or int")
        if not other._coeffs:
            raise ZeroDivisionError("polynomial division by zero")
        if other._coeffs[-1] not in (1, -1):
            raise LeadingCoeffNotUnitError(
                "leading coefficient %d is not a unit" % other._coeffs[-1])
        quot, rem = _divrem_lists(self._coeffs, other._coeffs)
        return IntPoly._make(quot), IntPoly._make(rem)

    def exact_div(self, other):
        """Exact quotient self/other over the integers.

        Raises NotDivisibleError (with the failing remainder attached) when
        other does not divide self, ZeroDivisionError for a zero divisor.
        """
        other = self._coerce(other)
        if other is None:
            raise TypeError("divisor must be IntPoly or int")
        if not other._coeffs:
            raise ZeroDivisionError("polynomial division by zero")
        quot, rem = _divrem_lists(self._coeffs, other._coeffs)
        if rem:
            raise NotDivisibleError("nonzero remainder", IntPoly._make(rem))
        return IntPoly._make(quot)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(self._coeffs)

    def __bool__(self):
        return bool(self._coeffs)

    def __str__(self):
        return _format_terms([(i, c) for i, c in enumerate(self._coeffs) if c])

    def __repr__(self):
        return "IntPoly(%r)" % (list(self._coeffs),)


ZERO = IntPoly()
ONE = IntPoly((1,))


class Packed(NamedTuple):
    """A polynomial with nonnegative coefficients as one integer at X = 2^(8k).

    ``value`` is the polynomial at q = X, ``k`` the slot width in bytes,
    ``size`` the number of slots up to the leading coefficient (0 for zero)
    and ``at_one`` the value at q = 1, the sum of the coefficients.  k comes
    from ``_slot_bytes(at_one)``, so a slot holds any coefficient, and any
    sum of coefficients, of the polynomial.
    """

    value: int
    k: int
    size: int
    at_one: int

    def poly(self):
        """The IntPoly this packs."""
        return IntPoly._make(_unpack_nonneg(self.value, self.k, self.size))
