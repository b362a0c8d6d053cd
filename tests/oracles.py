"""Slow reference routes that the tests compare the package against."""

from qcong.poly import ONE, ZERO


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
