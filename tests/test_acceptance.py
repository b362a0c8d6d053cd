"""End-to-end acceptance checks, one test and one printed verdict per criterion.

Run with:

    pytest -s tests/test_acceptance.py -v

Each test prints exactly one line of the form

    [criterion NN] <what was checked>: PASS|FAIL

before asserting, so a plain-text transcript of the run doubles as the
acceptance record.  Time budgets are asserted with hard bounds; sampled
workloads use fixed seeds so reruns check the identical instance sets.
"""

import io
import itertools
import json
import math
import random
import time

import pytest
from oracles import q_binomial_oracle

from qcong.faulhaber import check_conjecture, check_faulhaber_cong
from qcong.poly import IntPoly
from qcong.qcomb import q_binomial, q_int
from qcong.sweep import (
    SplitMix64,
    SweepConfig,
    pfaff_sample_instances,
    run_instance,
    run_suite,
    thm1_sample_instances,
)
from qcong.theorems import (
    check_chu_vandermonde,
    check_p_minus_one_lemma,
    check_residue_identity,
    check_sum_lemma,
    check_symmetric_identity,
    check_thm1,
    check_thm2,
    multinom_factor,
    q1_check,
    sum_quotient_direct,
    sum_quotient_recurrence,
    weighted_sum,
)

GRID_BUDGET_S = 60.0
THM2_BUDGET_S = 30.0
FAULHABER_BUDGET_S = 10.0
CONJECTURE_BUDGET_S = 120.0
PFAFF_MAX_SKIP_RATE = 0.10

SAMPLE_SEED = 20260818


def verdict(num, desc, ok):
    print("[criterion %02d] %s: %s" % (num, desc, "PASS" if ok else "FAIL"))
    return ok


@pytest.fixture(scope="session")
def thm1_workload():
    """Criterion-1 workload, shared with the q = 1 consistency criterion.

    Grid: every (n, a-tuple) with n <= 25, 1 <= m <= 3, entries <= 5.
    Samples: 500 seeded draws with n <= 40, m <= 5, entries <= 8.
    """
    grid = []
    for n in range(1, 26):
        for m in range(1, 4):
            for a in itertools.product(range(6), repeat=m):
                grid.append((n, a))
    samples = []
    for claim, params in thm1_sample_instances(500, SAMPLE_SEED, 40, 5, 8):
        if claim != "thm1":
            continue
        d = dict(params)
        n = d.pop("n")
        samples.append((n, tuple(d["a%d" % i] for i in range(1, len(d) + 1))))

    t0 = time.perf_counter()
    reports = [check_thm1(n, list(a)) for n, a in grid + samples]
    elapsed = time.perf_counter() - t0
    return {"grid": grid, "samples": samples, "reports": reports,
            "elapsed": elapsed}


def test_criterion_01_main_congruence_grid_and_samples(thm1_workload):
    w = thm1_workload
    bad = [r for r in w["reports"] if r.status != "pass"]
    ok = (not bad
          and len(w["grid"]) == 25 * (6 + 36 + 216)
          and len(w["samples"]) >= 500
          and w["elapsed"] < GRID_BUDGET_S)
    assert verdict(
        1, "thm1 exhaustive n<=25 m<=3 a<=5 plus 500 samples n<=40 m<=5 a<=8 "
           "in %.1fs (budget %.0fs)" % (w["elapsed"], GRID_BUDGET_S), ok)


def test_criterion_02_prime_square_refinement():
    t0 = time.perf_counter()
    reports = []
    for p in (2, 3, 5, 7, 11, 13):
        for a in range(p):
            for b in range(p):
                reports.append(check_thm2(p, a, b))
    elapsed = time.perf_counter() - t0
    ok = (len(reports) == sum(p * p for p in (2, 3, 5, 7, 11, 13))
          and all(r.status == "pass" for r in reports)
          and elapsed < THM2_BUDGET_S)
    assert verdict(
        2, "thm2 exhaustive over primes <= 13 (%d instances) in %.1fs "
           "(budget %.0fs)" % (len(reports), elapsed, THM2_BUDGET_S), ok)


def test_criterion_03_quotient_recurrence_fidelity():
    rng = SplitMix64(SAMPLE_SEED)
    cases = []
    for _ in range(200):
        n = 1 + rng.below(20)
        m = 1 + rng.below(4)
        cases.append((n, tuple(rng.below(7) for _ in range(m))))
    mismatches = 0
    nonneg = 0
    mixed = 0
    for n, a in cases:
        direct = sum_quotient_direct(n, list(a))
        recurred = sum_quotient_recurrence(n, list(a))
        if direct != recurred:
            mismatches += 1
            continue
        if all(c >= 0 for c in direct.coeffs):
            nonneg += 1
        else:
            mixed += 1
    # exploratory observation, not an assertion: coefficient sign behavior
    print("[criterion 03 note] quotient coefficient signs over %d samples: "
          "%d all-nonnegative, %d mixed-sign" % (len(cases), nonneg, mixed))
    ok = mismatches == 0 and len(cases) >= 200
    assert verdict(
        3, "closed-form and recurrence quotient routes agree on %d seeded "
           "samples n<=20 m<=4 a<=6" % len(cases), ok)


def test_criterion_04_identity_suite_exhaustive():
    t0 = time.perf_counter()
    reports = []
    for n in range(1, 11):
        for a in range(11):
            reports.append(check_sum_lemma(n, a))
    for a in range(11):
        for b in range(11):
            for n in range(11):
                reports.append(check_chu_vandermonde(a, b, n))
    for p in (2, 3, 5, 7, 11, 13):
        for j in range(p):
            reports.append(check_p_minus_one_lemma(p, j))
    for a in range(11):
        for b in range(11):
            reports.append(check_residue_identity(a, b))
            reports.append(check_symmetric_identity(a, b))
    identities_ok = all(r.status == "pass" for r in reports)
    oracle_ok = all(q_binomial(n, k) == q_binomial_oracle(n, k)
                    for n in range(41) for k in range(n + 1))
    elapsed = time.perf_counter() - t0
    ok = identities_ok and oracle_ok
    assert verdict(
        4, "identity checks exhaustive to 10 (%d instances) and product "
           "formula vs recurrence oracle exhaustive n<=40, %.1fs"
           % (len(reports), elapsed), ok)


def test_criterion_05_balanced_summation_samples():
    instances = pfaff_sample_instances(100, 0, 8)
    reports = [run_instance(item) for item in instances]
    statuses = {r.status for r in reports}
    skipped = sum(1 for r in reports if r.status == "skipped")
    rate = skipped / len(reports)
    ok = (len(reports) == 100
          and statuses <= {"pass", "skipped"}
          and rate < PFAFF_MAX_SKIP_RATE)
    assert verdict(
        5, "balanced summation on 100 seeded rational points, %d skipped "
           "singular (%.0f%% < %.0f%% cap), rest pass"
           % (skipped, 100 * rate, 100 * PFAFF_MAX_SKIP_RATE), ok)


def test_criterion_06_q_equals_one_consistency(thm1_workload):
    w = thm1_workload
    all_params = w["grid"] + w["samples"]
    shadow_ok = all(q1_check(n, list(a)).status == "pass" for n, a in all_params)

    # deep route agreement on a seeded subsample: specializing the exact
    # polynomial at q = 1 must reproduce the pure-integer computation
    rng = SplitMix64(0xACCE55)
    deep_ok = True
    for _ in range(250):
        n, a = all_params[rng.below(len(all_params))]
        poly_value = (multinom_factor(list(a))
                      * weighted_sum(n, list(a))).evaluate(1)
        factor = math.factorial(sum(a) + 1)
        for ai in a:
            factor //= math.factorial(ai)
        int_value = factor * sum(
            math.prod(math.comb(h, ai) for ai in a) for h in range(n))
        if poly_value != int_value or poly_value % n != 0:
            deep_ok = False
            break
    ok = shadow_ok and deep_ok
    assert verdict(
        6, "q=1 integer shadow passes on all %d criterion-1 instances and "
           "matches polynomial specialization on 250 subsamples"
           % len(all_params), ok)


def test_criterion_07_power_sum_divisibility():
    t0 = time.perf_counter()
    reports = [check_faulhaber_cong(n, m)
               for n in range(1, 201) for m in range(1, 7)]
    elapsed = time.perf_counter() - t0
    ok = (all(r.status == "pass" for r in reports)
          and len(reports) == 200 * 6
          and elapsed < FAULHABER_BUDGET_S)
    assert verdict(
        7, "odd-power-sum divisibility by n^2 for n<=200 m<=6 in %.1fs "
           "(budget %.0fs)" % (elapsed, FAULHABER_BUDGET_S), ok)


def test_criterion_08_conjecture_sweep_with_evidence(tmp_path):
    config = SweepConfig(suite="conjecture", n_max=100, m_max=4,
                         format="json", stable_output=True)
    evidence_path = tmp_path / "conjecture_evidence.json"
    t0 = time.perf_counter()
    with open(evidence_path, "w") as handle:
        code = run_suite(config, out=handle, err=io.StringIO())
    elapsed = time.perf_counter() - t0
    objs = json.loads(evidence_path.read_text())
    schema_ok = all(
        list(o.keys()) == ["claim_id", "params", "status", "witness",
                           "elapsed_ms"]
        and o["claim_id"] == "conjecture"
        and set(o["params"]) == {"n", "m", "k"}
        for o in objs)
    print("[criterion 08 note] evidence report: %s (%d instances)"
          % (evidence_path, len(objs)))
    ok = (code == 0
          and len(objs) == 100 * (1 + 2 + 3 + 4)
          and all(o["status"] == "pass" for o in objs)
          and schema_ok
          and elapsed < CONJECTURE_BUDGET_S)
    assert verdict(
        8, "conjecture sweep k<=m<=4 n<=100 clean, machine-readable evidence "
           "written, %.1fs (budget %.0fs)" % (elapsed, CONJECTURE_BUDGET_S), ok)


def test_criterion_09_parallel_determinism():
    outputs = []
    for jobs in (1, 4, 8):
        config = SweepConfig(suite="all", n_max=6, m_max=2, a_max=3,
                             prime_set=(2, 3, 5), sample_count=25,
                             rng_seed=2026, jobs=jobs, format="json",
                             stable_output=True)
        buf = io.StringIO()
        code = run_suite(config, out=buf, err=io.StringIO())
        assert code == 0
        outputs.append(buf.getvalue())
    ok = (outputs[0] == outputs[1] == outputs[2]
          and len(json.loads(outputs[0])) > 400)
    assert verdict(
        9, "stable JSON output byte-identical across jobs 1, 4, 8 "
           "(%d instances)" % len(json.loads(outputs[0])), ok)


def test_criterion_10_kernel_ring_laws_bulk():
    rng = random.Random(0xACC3)
    degrees = (0, 1, 3, 8, 20, 60, 200)
    bits = (8, 64, 256)

    def draw():
        deg = rng.choice(degrees)
        bound = 1 << rng.choice(bits)
        return IntPoly([rng.randrange(-bound, bound + 1)
                        for _ in range(deg + 1)])

    checked = 0
    ok = True
    for _ in range(1000):
        a, b, c = draw(), draw(), draw()
        if (a + b) + c != a + (b + c):
            ok = False
            break
        if a * (b + c) != a * b + a * c:
            ok = False
            break
        if a * b != b * a:
            ok = False
            break
        if max(a.degree if not a.is_zero else 0,
               b.degree if not b.is_zero else 0) <= 60:
            if (a * b) * c != a * (b * c):
                ok = False
                break
        if not b.is_zero and (a * b).exact_div(b) != a:
            ok = False
            break
        checked += 1
    ok = ok and checked == 1000
    assert verdict(
        10, "kernel ring laws on %d seeded cases, degrees to 200, "
            "coefficients to 2^256" % checked, ok)
