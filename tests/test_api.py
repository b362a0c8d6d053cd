"""The package's public names: what ``qcong`` exports, and names it must not hold."""

import pytest

import qcong
from qcong import theorems
from qcong.poly import IntPoly


def test_every_exported_name_resolves_once_in_sorted_order():
    assert all(hasattr(qcong, name) for name in qcong.__all__)
    assert len(set(qcong.__all__)) == len(qcong.__all__)
    assert qcong.__all__ == sorted(qcong.__all__)


# No claim runs these, so the package holds none of them: the quotient routes
# and the prefactor and W(n) unpackers are test oracles (tests/oracles.py).
@pytest.mark.parametrize("name", ["sum_quotient_direct", "sum_quotient_recurrence",
                                  "multinom_factor", "weighted_sum", "coefficient"])
def test_a_removed_name_is_not_reachable(name):
    assert name not in qcong.__all__
    for owner in (qcong, theorems, IntPoly):
        assert not hasattr(owner, name), owner
