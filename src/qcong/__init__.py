"""Exact-arithmetic verification of q-binomial congruences.

Everything is computed over Z[q] (or its Laurent extension) with exact
integer coefficients; no floating point is used anywhere in a check.
"""

from .congruence import (
    FAIL,
    PASS,
    SKIPPED,
    CongruenceReport,
    Witness,
    is_prime,
    rem_mod,
)
from .errors import (
    InternalError,
    InvalidParamsError,
    LeadingCoeffNotUnitError,
    NotDivisibleError,
    SingularSpecialization,
)
from .faulhaber import (
    check_conjecture,
    check_faulhaber_cong,
    conjecture_coefficient,
    power_sum,
)
from .poly import ONE, ZERO, IntPoly
from .qcomb import (
    LaurentPoly,
    QBinomialCache,
    q_binomial,
    q_factorial,
    q_int,
    q_pochhammer_eval,
)
from .sweep import SplitMix64, SweepConfig, UsageError, enumerate_instances, run_suite
from .theorems import (
    check_chu_vandermonde,
    check_p_minus_one_lemma,
    check_pfaff_saalschutz,
    check_residue_identity,
    check_sum_lemma,
    check_symmetric_identity,
    check_thm1,
    check_thm2,
    q1_check,
)

__version__ = "0.1.0"

__all__ = [
    "CongruenceReport",
    "FAIL",
    "IntPoly",
    "InternalError",
    "InvalidParamsError",
    "LaurentPoly",
    "LeadingCoeffNotUnitError",
    "NotDivisibleError",
    "ONE",
    "PASS",
    "QBinomialCache",
    "SKIPPED",
    "SingularSpecialization",
    "SplitMix64",
    "SweepConfig",
    "UsageError",
    "Witness",
    "ZERO",
    "check_chu_vandermonde",
    "check_conjecture",
    "check_faulhaber_cong",
    "check_p_minus_one_lemma",
    "check_pfaff_saalschutz",
    "check_residue_identity",
    "check_sum_lemma",
    "check_symmetric_identity",
    "check_thm1",
    "check_thm2",
    "conjecture_coefficient",
    "enumerate_instances",
    "is_prime",
    "power_sum",
    "q1_check",
    "q_binomial",
    "q_factorial",
    "q_int",
    "q_pochhammer_eval",
    "rem_mod",
    "run_suite",
]
