"""Power-sum congruence tests; Pascal-triangle oracle for the binomial route."""

import math

import pytest

from qcong import faulhaber
from qcong.errors import InvalidParamsError
from qcong.faulhaber import (
    check_conjecture,
    check_faulhaber_cong,
    conjecture_coefficient,
    power_sum,
)


def pascal_rows(limit):
    """Binomial oracle: additive Pascal-triangle accumulation, no factorials."""
    rows = [[1]]
    for h in range(1, limit + 1):
        prev = rows[-1]
        row = [1] + [prev[j - 1] + prev[j] for j in range(1, h)] + [1]
        rows.append(row)
    return rows


def test_binomials_match_pascal_oracle():
    rows = pascal_rows(64)
    for h in range(65):
        for j in range(h + 1):
            assert math.comb(h, j) == rows[h][j], (h, j)
        assert math.comb(h, h + 3) == 0


def test_power_sum_frozen():
    assert power_sum(5, 3) == 100
    assert power_sum(1, 0) == 1  # 0^0 = 1
    assert power_sum(1, 7) == 0
    assert power_sum(0, 2) == 0
    assert power_sum(4, 1) == 6


@pytest.mark.parametrize("n, e", [(-1, 2), (3, -2), (True, 3), (3, True), (3.0, 2), (3, "2")])
def test_power_sum_validation(n, e):
    with pytest.raises(ValueError):
        power_sum(n, e)


def test_faulhaber_frozen():
    # 4! * (0^3+...+4^3) = 24 * 100 = 2400 == 0 mod 25
    assert check_faulhaber_cong(5, 1).status == "pass"


def test_faulhaber_grid():
    for n in range(1, 60):
        for m in range(1, 5):
            assert check_faulhaber_cong(n, m).status == "pass", (n, m)


def test_faulhaber_validation():
    with pytest.raises(InvalidParamsError):
        check_faulhaber_cong(0, 1)
    with pytest.raises(InvalidParamsError):
        check_faulhaber_cong(5, 0)
    with pytest.raises(InvalidParamsError):
        check_faulhaber_cong(3, 1.5)
    with pytest.raises(InvalidParamsError):
        check_faulhaber_cong("3", 1)
    with pytest.raises(InvalidParamsError):
        check_conjecture(3.5, 1, 1)
    with pytest.raises(InvalidParamsError):
        check_conjecture(4, 1.5, 1)
    with pytest.raises(InvalidParamsError):
        check_conjecture(4, 2, 1.5)


def test_conjecture_coefficient_frozen():
    assert conjecture_coefficient(1, 1) == 16800          # 10! / 6^3
    assert conjecture_coefficient(2, 1) == 2690688000     # 16! / 6^5
    # exact-arithmetic cross-check of the second value:
    assert conjecture_coefficient(2, 1) == math.factorial(16) // 6 ** 5
    assert math.factorial(16) % 6 ** 5 == 0


def test_conjecture_coefficient_properties():
    for m in range(1, 7):
        for k in range(1, m + 1):
            c = conjecture_coefficient(m, k)
            assert c > 0
            # integrality the long way: factorial ratio has zero remainder
            numer = math.factorial((2 * k + 1) * (2 * m + 1) + 1)
            assert numer % math.factorial(2 * k + 1) ** (2 * m + 1) == 0


def test_conjecture_coefficient_validation():
    with pytest.raises(InvalidParamsError):
        conjecture_coefficient(0, 1)
    with pytest.raises(InvalidParamsError):
        conjecture_coefficient(1, 2)


def test_conjecture_instance_validation():
    with pytest.raises(InvalidParamsError):
        check_conjecture(0, 1, 1)
    with pytest.raises(InvalidParamsError):
        check_conjecture(5, 1, 2)


def test_conjecture_trivial_zero_sum_annotated():
    r = check_conjecture(2, 1, 1)  # 2k+1 = 3 > n-1 = 1
    assert r.status == "pass"
    assert r.note == "vanishing-sum"


def test_conjecture_small_sweep_passes():
    for m in range(1, 4):
        for k in range(1, m + 1):
            for n in range(1, 30):
                r = check_conjecture(n, m, k)
                assert r.status == "pass", (n, m, k)


def _power_sum_plus_one(monkeypatch):
    power_sum_orig = faulhaber.power_sum
    monkeypatch.setattr(faulhaber, "power_sum", lambda n, e: power_sum_orig(n, e) + 1)


def _coefficient_plus_one(monkeypatch):
    coeff_orig = faulhaber.conjecture_coefficient
    monkeypatch.setattr(faulhaber, "conjecture_coefficient",
                        lambda m, k: coeff_orig(m, k) + 1)


@pytest.mark.parametrize("corrupt, check, witness", [
    pytest.param(_power_sum_plus_one, lambda: check_faulhaber_cong(5, 1),
                 ("2424", "0", "24"), id="faulhaber"),
    pytest.param(_coefficient_plus_one, lambda: check_conjecture(5, 1, 1),
                 ("1092065", "0", "15"), id="conjecture"),
])
def test_fail_branch_witness(monkeypatch, corrupt, check, witness):
    corrupt(monkeypatch)
    r = check()
    assert r.status == "fail"
    assert (r.witness.lhs, r.witness.rhs, r.witness.difference) == witness
    assert r.note is None
