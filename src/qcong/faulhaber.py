"""Integer power-sum congruences and the open binomial-power conjecture.

Everything here is plain (arbitrary-precision) integer arithmetic:

faulhaber (claim id)
    (2m+2)! * sum_{h=0}^{n-1} h^(2m+1)  ==  0   (mod n^2)
    for all n >= 1, m >= 1; a classical consequence of the polynomial
    structure of odd power sums.

conjecture (claim id)
    ((2k+1)(2m+1)+1)! / ((2k+1)!)^(2m+1)
        * sum_{h=0}^{n-1} C(h, 2k+1)^(2m+1)  ==  0   (mod n^2)
    for m >= k >= 1, n >= 1.  This is open: a failing instance is a
    counterexample discovery, not a bug, and is reported with a full
    integer witness.  A passing sweep is evidence only, never proof.
"""

from __future__ import annotations

import math

from .congruence import VANISHING_SUM, integer_report
from .errors import InternalError, InvalidParamsError


def _ints(*values):
    """True when every value is an integer, and none a bool."""
    return all(isinstance(v, int) and not isinstance(v, bool) for v in values)


def power_sum(n, e):
    """sum_{h=0}^{n-1} h^e with the 0^0 = 1 convention."""
    if n < 0 or e < 0:
        raise ValueError("need n >= 0 and e >= 0")
    return sum(h ** e for h in range(n))


def check_faulhaber_cong(n, m):
    """(2m+2)! * power_sum(n, 2m+1) == 0 (mod n^2) (claim id faulhaber)."""
    if not _ints(n, m) or n < 1 or m < 1:
        raise InvalidParamsError("need integers n >= 1 and m >= 1")
    value = math.factorial(2 * m + 2) * power_sum(n, 2 * m + 1)
    return integer_report("faulhaber", (("n", n), ("m", m)), value, n * n)


def conjecture_coefficient(m, k):
    """((2k+1)(2m+1)+1)! / ((2k+1)!)^(2m+1), an exact positive integer."""
    if not _ints(m, k) or k < 1 or m < k:
        raise InvalidParamsError("need integers m >= k >= 1")
    numer = math.factorial((2 * k + 1) * (2 * m + 1) + 1)
    denom = math.factorial(2 * k + 1) ** (2 * m + 1)
    coeff, rem = divmod(numer, denom)
    if rem:  # the quotient is (N+1) * a multinomial, so this cannot happen
        raise InternalError("conjecture coefficient not an integer for m=%d k=%d" % (m, k))
    return coeff


def check_conjecture(n, m, k):
    """Divisibility by n^2 of the prefactored binomial power sum (claim id conjecture).

    The sum is sum_{h<n} C(h, 2k+1)^(2m+1).  When 2k+1 > n-1 every term
    vanishes and the instance passes trivially; such reports carry the
    vanishing-sum note so sweep output stays interpretable.
    """
    if not _ints(n) or n < 1:
        raise InvalidParamsError("need an integer n >= 1")
    coeff = conjecture_coefficient(m, k)
    total = sum(math.comb(h, 2 * k + 1) ** (2 * m + 1) for h in range(n))
    return integer_report("conjecture", (("n", n), ("m", m), ("k", k)), coeff * total, n * n,
                          note=VANISHING_SUM if total == 0 else None)
