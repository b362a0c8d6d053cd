"""Deterministic claim sweeps: enumeration, execution, rendering, exit codes.

One table, ``CLAIMS``, drives the sweep: each row names a claim's checker,
the suite that runs it, whether it is the open conjecture, and whether it
is order-free.  ``SUITES``, instance enumeration, execution, exit codes and
rendering all read it.

A sweep instance is a pair (claim_id, params) with params an ordered tuple
of (name, int) pairs; the full instance list for a given SweepConfig is a
pure function of the config.  Random samples come from SplitMix64 (the
64-bit mixer with golden-gamma increment 0x9E3779B97F4A7C15), seeded from
``rng_seed``; bounded draws use plain ``next_u64() % bound``.  The exact
sampling procedures are documented in the README so an independent
implementation can reproduce instance sets from the seed alone.

``run_instance`` is the one place that reads a clock: it times each
check call and stamps the report's elapsed_ms.  ``execute`` checks each
class once: instances of an order-free claim whose first param and class
key agree share one check (for thm1 and q1 the key is the a-list's sorted
nonzero entries), and every later one gets a copy of the first one's
report with its own params and elapsed_ms 0, since nothing was checked for
it.  A pool starts at most as many workers as there are checks to run and
CPUs this process may use.  Reports are aggregated in (claim_id, params)
order no matter how many worker processes ran the checks, so identical
configs yield identical output; ``stable_output`` additionally zeroes
elapsed_ms for byte-exact diffs.

The json format is the list of ``CongruenceReport.to_json_obj`` objects in
the layout of ``json.dumps(objs, indent=2)`` plus a newline, written by a
fixed template per report; strings are escaped by the encoder's own
``encode_basestring_ascii``.  The tests pin the bytes to ``json.dumps``.

Exit codes: 0 all pass/skip, 1 a theorem or identity check failed (an
implementation bug or a falsified theorem), 2 usage error (including a
config that selects no instances), 3 the open conjecture produced a
counterexample.  An exception escaping a checker propagates out of
``run_suite``; the CLI maps it to exit code 4.
"""

from __future__ import annotations

import csv
import io
import itertools
import os
import sys
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, NamedTuple

from .congruence import FAIL, PASS, SKIPPED, is_prime
from .faulhaber import check_conjecture, check_faulhaber_cong
from .theorems import (
    a_key,
    a_params,
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


class Claim(NamedTuple):
    """One row of the claim table.

    ``check`` takes an instance's params as keyword arguments and returns its
    report.  ``suite`` is the ``--suite`` that runs the claim.  A failing
    ``conjecture`` claim is a counterexample to an open problem (exit code
    3), not a falsified theorem (exit code 1).

    ``class_key``, when set, makes the claim order-free: it maps the values
    of the params after the first to a tuple, and ``execute`` checks one
    instance per claim, first param and key.  A checker earns one only if
    it reads those params through that key, or through sums symmetric in
    them, alone, so that instances with one key get one report, params
    aside.  thm1 and q1 read their a-list through ``theorems.a_key``, its
    sorted nonzero entries, so padding it with zeros or permuting it shares
    a check; thm2's key is its sorted (a, b).  A claim that merely agrees
    across orderings, summing different terms, earns none, since a
    corrupted input could give the orderings different witnesses.
    """

    check: Callable
    suite: str
    conjecture: bool = False
    class_key: Callable | None = None


def _a_list_check(check):
    """Adapt a checker of (n, a_list) to the params n, a1, ..., am."""
    return lambda n, **a: check(n, list(a.values()))


def _pfaff_check(n, **f):
    x, y, z, q = (Fraction(f[v + "_num"], f[v + "_den"]) for v in "xyzq")
    return check_pfaff_saalschutz(x, y, z, q, n)


def _sorted_tuple(values):
    return tuple(sorted(values))


CLAIMS = {
    "thm1": Claim(_a_list_check(check_thm1), "thm1", class_key=a_key),
    "q1": Claim(_a_list_check(q1_check), "thm1", class_key=a_key),
    "thm2": Claim(check_thm2, "thm2", class_key=_sorted_tuple),
    "sum_lemma": Claim(check_sum_lemma, "identities"),
    "chu_vandermonde": Claim(check_chu_vandermonde, "identities"),
    "p_minus_one": Claim(check_p_minus_one_lemma, "identities"),
    "residue_identity": Claim(check_residue_identity, "identities"),
    "symmetric_identity": Claim(check_symmetric_identity, "identities"),
    "qpfaff": Claim(_pfaff_check, "identities"),
    "conjecture": Claim(check_conjecture, "conjecture", conjecture=True),
    "faulhaber": Claim(check_faulhaber_cong, "faulhaber"),
}

SUITES = tuple(dict.fromkeys(c.suite for c in CLAIMS.values())) + ("all",)
FORMATS = ("text", "json", "csv")

_MASK64 = (1 << 64) - 1
PFAFF_MAX_N = 8


class UsageError(Exception):
    """Bad sweep configuration; maps to exit code 2."""


class SplitMix64:
    """SplitMix64: state += 0x9E3779B97F4A7C15; output is the mixed state."""

    __slots__ = ("_state",)

    def __init__(self, seed):
        self._state = seed & _MASK64

    def next_u64(self):
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound):
        """Uniform-ish draw in [0, bound) by reduction modulo bound."""
        if bound < 1:
            raise ValueError("bound must be positive")
        return self.next_u64() % bound


@dataclass(frozen=True)
class SweepConfig:
    """Everything a sweep needs; validation happens in ``validate``."""

    suite: str
    n_max: int = 10
    m_max: int = 2
    a_max: int = 4
    prime_set: tuple = (2, 3, 5, 7, 11, 13)
    sample_count: int = 0
    rng_seed: int = 0
    jobs: int = 1
    format: str = "text"
    fail_fast: bool = False
    stable_output: bool = False

    def validate(self):
        if self.suite not in SUITES:
            raise UsageError("unknown suite %r (choose from %s)"
                             % (self.suite, ", ".join(SUITES)))
        for name in ("n_max", "m_max", "a_max"):
            if not _is_int(getattr(self, name)) or getattr(self, name) < 1:
                raise UsageError("%s must be a positive integer" % name)
        if not isinstance(self.prime_set, tuple):
            raise UsageError("prime_set must be a tuple of primes, got %r" % (self.prime_set,))
        for p in self.prime_set:
            if not is_prime(p):
                raise UsageError("prime_set entry %r is not prime" % (p,))
        if not _is_int(self.sample_count) or self.sample_count < 0:
            raise UsageError("sample_count must be >= 0")
        if not _is_int(self.jobs) or self.jobs < 1:
            raise UsageError("jobs must be >= 1")
        if self.format not in FORMATS:
            raise UsageError("unknown format %r" % (self.format,))
        if not _is_int(self.rng_seed):
            raise UsageError("rng_seed must be an integer")
        for name in ("fail_fast", "stable_output"):
            if not isinstance(getattr(self, name), bool):
                raise UsageError("%s must be True or False" % name)


def _is_int(value):
    """An int that is not a bool, which the checkers refuse too."""
    return isinstance(value, int) and not isinstance(value, bool)


# --- instance enumeration ---------------------------------------------------------

def _params(**kw):
    return tuple(kw.items())


def thm1_grid_instances(n_max, m_max, a_max):
    """Exhaustive (n, a-list) grid, each emitted as a thm1 and a q1 instance."""
    out = []
    for n in range(1, n_max + 1):
        for m in range(1, m_max + 1):
            for a_list in itertools.product(range(a_max + 1), repeat=m):
                params = tuple(a_params(n, a_list).items())
                out.append(("thm1", params))
                out.append(("q1", params))
    return out


def thm1_sample_instances(count, seed, n_max, m_max, a_max):
    """Seeded random (n, a-list) draws: n, m uniform from 1, each a_i from 0."""
    rng = SplitMix64(seed)
    out = []
    for _ in range(count):
        n = 1 + rng.below(n_max)
        m = 1 + rng.below(m_max)
        a_list = tuple(rng.below(a_max + 1) for _ in range(m))
        params = tuple(a_params(n, a_list).items())
        out.append(("thm1", params))
        out.append(("q1", params))
    return out


def _nonzero_rational(rng, max_num=7, max_den=4):
    v = rng.below(2 * max_num)
    num = v - max_num if v < max_num else v - max_num + 1
    den = 1 + rng.below(max_den)
    return num, den


def pfaff_sample_instances(count, seed, n_max):
    """Seeded rational specializations for the balanced summation.

    x, y: numerator in +-1..7, denominator 1..4.  z: same, redrawn while
    z == 1.  q: numerator +-2..7 (magnitude then sign), denominator 1..3,
    redrawn while |q| == 1.  n in 0..min(n_max, 8).
    """
    rng = SplitMix64(seed)
    out = []
    for _ in range(count):
        xn, xd = _nonzero_rational(rng)
        yn, yd = _nonzero_rational(rng)
        while True:
            zn, zd = _nonzero_rational(rng)
            if Fraction(zn, zd) != 1:
                break
        while True:
            v = rng.below(12)
            qn = (2 + v // 2) * (1 if v % 2 == 0 else -1)
            qd = 1 + rng.below(3)
            if abs(qn) != qd:
                break
        n = rng.below(min(n_max, PFAFF_MAX_N) + 1)
        x, y, z, q = Fraction(xn, xd), Fraction(yn, yd), Fraction(zn, zd), Fraction(qn, qd)
        out.append(("qpfaff", _params(
            x_num=x.numerator, x_den=x.denominator,
            y_num=y.numerator, y_den=y.denominator,
            z_num=z.numerator, z_den=z.denominator,
            q_num=q.numerator, q_den=q.denominator,
            n=n)))
    return out


def _thm1_suite(c):
    return (thm1_grid_instances(c.n_max, c.m_max, c.a_max)
            + thm1_sample_instances(c.sample_count, c.rng_seed,
                                    c.n_max, c.m_max, c.a_max))


def _thm2_suite(c):
    return [("thm2", _params(p=p, a=a, b=b))
            for p in sorted(set(c.prime_set)) for a in range(p) for b in range(p)]


def _identities_suite(c):
    out = [("sum_lemma", _params(n=n, a=a))
           for n in range(1, c.n_max + 1) for a in range(c.a_max + 1)]
    out.extend(("chu_vandermonde", _params(a=a, b=b, n=n))
               for a in range(c.a_max + 1) for b in range(c.a_max + 1)
               for n in range(c.n_max + 1))
    out.extend(("p_minus_one", _params(p=p, j=j))
               for p in sorted(set(c.prime_set)) for j in range(p))
    for a in range(c.a_max + 1):
        for b in range(c.a_max + 1):
            out.append(("residue_identity", _params(a=a, b=b)))
            out.append(("symmetric_identity", _params(a=a, b=b)))
    out.extend(pfaff_sample_instances(c.sample_count, c.rng_seed, c.n_max))
    return out


def _conjecture_suite(c):
    return [("conjecture", _params(n=n, m=m, k=k))
            for m in range(1, c.m_max + 1) for k in range(1, m + 1)
            for n in range(1, c.n_max + 1)]


def _faulhaber_suite(c):
    return [("faulhaber", _params(n=n, m=m))
            for n in range(1, c.n_max + 1) for m in range(1, c.m_max + 1)]


_SUITE_INSTANCES = {
    "thm1": _thm1_suite,
    "thm2": _thm2_suite,
    "identities": _identities_suite,
    "conjecture": _conjecture_suite,
    "faulhaber": _faulhaber_suite,
}


def enumerate_instances(config):
    """The full, deterministic instance list for a config (duplicates removed).

    Suites are concatenated in ``SUITES`` order, so ``all`` lists the thm1
    instances first and the faulhaber instances last.
    """
    suites = SUITES[:-1] if config.suite == "all" else (config.suite,)
    out = []
    for suite in suites:
        out.extend(_SUITE_INSTANCES[suite](config))
    return list(dict.fromkeys(out))


# --- execution ---------------------------------------------------------------------

def run_instance(item):
    """Check and time one (claim_id, params) instance; used directly and by workers."""
    claim_id, params = item
    t0 = time.perf_counter()
    report = CLAIMS[claim_id].check(**dict(params))
    elapsed_ms = round((time.perf_counter() - t0) * 1000)
    if elapsed_ms == report.elapsed_ms:  # checkers report 0; most checks take < 0.5 ms
        return report
    return replace(report, elapsed_ms=elapsed_ms)


def _order_class(item):
    """An order-free instance's claim, first param and class key of the
    other params; any other instance is its own class."""
    claim_id, params = item
    class_key = CLAIMS[claim_id].class_key
    if class_key is not None:
        return claim_id, params[0], class_key([v for _, v in params[1:]])
    return item


def _cpu_count():
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def execute(instances, jobs=1, fail_fast=False):
    """Run instances, optionally across processes; results in submission order.

    Only the first instance of each class is checked; every later one gets
    a copy of its report with its own params and elapsed_ms 0.  The pool
    has min(jobs, checks to run, usable CPUs) workers, and none if that is 1.
    """
    keys = [_order_class(item) for item in instances]
    firsts = {}
    for key, item in zip(keys, instances):
        firsts.setdefault(key, item)
    todo = list(firsts.values())
    reports = []
    done = {}
    pool = None
    workers = min(jobs, len(todo), _cpu_count())
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(max_workers=workers)
    try:
        if pool is None:
            results = map(run_instance, todo)
        else:
            chunk = max(1, len(todo) // (workers * 8))
            results = pool.map(run_instance, todo, chunksize=chunk)
        for key, (_, params) in zip(keys, instances):
            report = done.get(key)
            if report is None:
                report = done[key] = next(results)
            else:
                report = replace(report, params=params, elapsed_ms=0)
            reports.append(report)
            if fail_fast and report.status == FAIL:
                break
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)  # waits: no worker outlives the call
    return reports


def _is_conjecture(report):
    return CLAIMS[report.claim_id].conjecture


def exit_code_for(reports):
    """0 clean, 1 any theorem/identity failure, 3 conjecture counterexample only."""
    conjecture_fail = False
    for r in reports:
        if r.status == FAIL:
            if _is_conjecture(r):
                conjecture_fail = True
            else:
                return 1
    return 3 if conjecture_fail else 0


# --- rendering ----------------------------------------------------------------------

def _params_str(report):
    return ";".join("%s=%d" % (k, v) for k, v in report.params)


_JSON_REPORT = ('  {\n    "claim_id": %s,\n    "params": %s,\n    "status": %s,\n'
                '    "witness": %s,\n    "elapsed_ms": %d\n  }')
_JSON_WITNESS = '{\n      "lhs": %s,\n      "rhs": %s,\n      "difference": %s\n    }'


def _json_report(r, stable):
    """One report in the layout ``json.dumps(r.to_json_obj(stable), indent=2)``
    takes as an element of the top-level list."""
    params = ("{\n%s\n    }" % ",\n".join("      %s: %d" % (_quote(k), v) for k, v in r.params)
              if r.params else "{}")
    w = r.witness
    witness = ("null" if w is None else
               _JSON_WITNESS % (_quote(w.lhs), _quote(w.rhs), _quote(w.difference)))
    return _JSON_REPORT % (_quote(r.claim_id), params, _quote(r.status), witness,
                           0 if stable else r.elapsed_ms)


def render_report(reports, fmt, stable=False):
    """Render sorted reports as text, json, or csv; returns a string."""
    if fmt == "json":
        if not reports:
            return "[]\n"
        return "[\n%s\n]\n" % ",\n".join([_json_report(r, stable) for r in reports])
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["claim_id", "params", "status", "elapsed_ms"])
        for r in reports:
            writer.writerow([r.claim_id, _params_str(r), r.status,
                             0 if stable else r.elapsed_ms])
        return buf.getvalue()
    if fmt != "text":
        raise UsageError("unknown format %r" % (fmt,))
    rows = [("claim", "params", "status", "ms", "note")]
    for r in reports:
        rows.append((r.claim_id, _params_str(r), r.status,
                     str(0 if stable else r.elapsed_ms), r.note or ""))
    widths = [max(len(row[i]) for row in rows) for i in range(5)]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
             for row in rows]
    counts = {PASS: 0, FAIL: 0, SKIPPED: 0}
    for r in reports:
        counts[r.status] += 1
    lines.append("summary: %d pass, %d fail, %d skipped"
                 % (counts[PASS], counts[FAIL], counts[SKIPPED]))
    if any(_is_conjecture(r) for r in reports) and counts[FAIL] == 0:
        lines.append("conjecture sweep: no counterexample in the swept range "
                     "(evidence only, not proof)")
    return "\n".join(lines) + "\n"


def run_suite(config, out=None, err=None):
    """Validate, enumerate, execute, render, print every failure; returns the exit code."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    config.validate()
    instances = enumerate_instances(config)
    if not instances:
        raise UsageError("suite %r selects no instances with these bounds and primes"
                         % (config.suite,))
    reports = execute(instances, jobs=config.jobs, fail_fast=config.fail_fast)
    reports = sorted(reports, key=lambda r: r.sort_key)
    out.write(render_report(reports, config.format, stable=config.stable_output))
    for r in reports:
        if r.status != FAIL:
            continue
        if _is_conjecture(r):
            err.write("CONJECTURE COUNTEREXAMPLE: %s\n  value: %s\n  residue: %s\n"
                      % (_params_str(r), r.witness.lhs, r.witness.difference))
        else:
            err.write("CHECK FAILED: %s %s\n  lhs: %s\n  rhs: %s\n  difference: %s\n"
                      % (r.claim_id, _params_str(r), r.witness.lhs,
                         r.witness.rhs, r.witness.difference))
    return exit_code_for(reports)
