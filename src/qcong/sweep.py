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
implementation can reproduce instance sets from the seed alone.  A thm1
or q1 params tuple is (("n", n),) + tail, its pairs built once per sweep:
the grid builds each a-list's tail once and shares it across every n, and
thm1 and q1 share the whole tuple.

``run_instance`` is the one place that reads a clock: it times each
check call and stamps the report's elapsed_ms.  ``execute`` checks each
class once: instances of an order-free claim whose first param and class
key agree share one check (for thm1 and q1 the key is the a-list's sorted
nonzero entries, computed once per claim and distinct a-list), and every later
member gets a ``MemberReport``: its own claim_id and params, the status,
witness and note of the class's report, and elapsed_ms 0, since nothing
was checked for it.  No report is copied.  Classes are numbered in one
pass with one tail lookup and one first-param lookup per instance
(``_classes``).  A pool starts at most as many workers as there are checks
to run and CPUs this process may use.  Reports are sorted on (claim_id,
params) no matter how many worker processes ran the checks, so identical
configs yield identical output; ``run_suite`` sorts stably on params and
then on claim_id, which is that order and compares no (claim_id, params)
pair.  ``stable_output`` additionally zeroes elapsed_ms for byte-exact
diffs.

``render_report`` renders each params tuple once (thm1 and q1 share every
one) and each status, witness and elapsed_ms tail once (every member of a
class shares one), in all three formats.  The json format is the list of
``CongruenceReport.to_json_obj`` objects in the layout of
``json.dumps(objs, indent=2)`` plus a newline, written from fixed
templates; strings are escaped by the encoder's own
``encode_basestring_ascii``.  The tests pin the bytes to ``json.dumps``.

``execute`` returns one report per instance, each with the fields
``render_report`` reads and a ``sort_key``, since the benchmark in
``perfbench/`` sorts and renders that list itself, and ``run_suite`` calls
``enumerate_instances``, ``execute`` and ``render_report`` by their module
names, which the benchmark times.

Exit codes: 0 all pass/skip, 1 a theorem or identity check failed (an
implementation bug or a falsified theorem), 2 usage error (including a
config that selects no instances), 3 the open conjecture produced a
counterexample.  An exception escaping a checker propagates out of
``run_suite``; the CLI maps it to exit code 4.
"""

from __future__ import annotations

import io
import itertools
import os
import sys
import time
from collections import Counter
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter
from typing import Callable, NamedTuple

from .congruence import FAIL, PASS, SKIPPED, CongruenceReport, is_prime
from .faulhaber import check_conjecture, check_faulhaber_cong
from .theorems import (
    a_key,
    a_names,
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


class SweepConfig(NamedTuple):
    """Everything a sweep needs; validation happens in ``validate``.

    A named tuple: immutable, and its fields and their defaults are
    ``_fields`` and ``_field_defaults``, which the CLI builds its flags from.
    """

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


def _a_pairs(m_max, a_max):
    """Row i - 1 holds the pairs ("ai", a) for a = 0..a_max, each built once,
    so every a-list's params share them."""
    return [[(name, a) for a in range(a_max + 1)] for name in a_names(m_max)]


def thm1_grid_instances(n_max, m_max, a_max):
    """Exhaustive (n, a-list) grid, each emitted as a thm1 and a q1 instance.

    n runs slowest, then the length m, then the a-list in lexicographic
    order.  Each params tuple is (("n", n),) + tail, the tail of an a-list
    built once and shared by every n, and thm1 and q1 share the tuple.
    """
    rows = _a_pairs(m_max, a_max)
    tails = [tail for m in range(1, m_max + 1) for tail in itertools.product(*rows[:m])]
    out = []
    for n in range(1, n_max + 1):
        head = (("n", n),)
        for tail in tails:
            params = head + tail
            out += ("thm1", params), ("q1", params)
    return out


def thm1_sample_instances(count, seed, n_max, m_max, a_max):
    """Seeded random (n, a-list) draws: n, m uniform from 1, each a_i from 0.

    The ("ai", a) pairs are built once and shared, as in the grid.
    """
    below = SplitMix64(seed).below
    rows = _a_pairs(m_max, a_max)
    out = []
    for _ in range(count):
        head = (("n", 1 + below(n_max)),)
        m = 1 + below(m_max)
        params = head + tuple([row[below(a_max + 1)] for row in rows[:m]])
        out += ("thm1", params), ("q1", params)
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
    return report._replace(elapsed_ms=elapsed_ms)


def _classes(instances):
    """The class number of each instance, and the first instance of each
    class, in order of first appearance.

    An instance of an order-free claim is in the class of its claim, first
    param and class key of the other params, its tail.  Each claim maps a
    tail, looked up once per instance, to a table shared by all its tails
    with one class key (computed once per distinct tail), and the table
    maps the first param to the class number.  Any other instance is its
    own class.
    """
    rows = {}
    numbers, firsts = [], []
    for item in instances:
        claim_id, params = item
        row = rows.get(claim_id)
        if row is None:
            row = rows[claim_id] = CLAIMS[claim_id].class_key, {}, {}
        class_key, tables, by_key = row
        if class_key is None:
            numbers.append(len(firsts))
            firsts.append(item)
            continue
        tail = params[1:]
        table = tables.get(tail)
        if table is None:
            table = tables[tail] = by_key.setdefault(class_key([v for _, v in tail]), {})
        number = table.get(params[0])
        if number is None:
            number = table[params[0]] = len(firsts)
            firsts.append(item)
        numbers.append(number)
    return numbers, firsts


class MemberReport:
    """The report of a class member that was not checked itself: its own
    claim_id and params, the status, witness and note of ``report``, the
    one checked for its class, and elapsed_ms 0.  It reads like a
    ``CongruenceReport`` and is no copy of one."""

    __slots__ = ("claim_id", "params", "report")

    elapsed_ms = 0
    status = property(lambda self: self.report.status)
    witness = property(lambda self: self.report.witness)
    note = property(lambda self: self.report.note)
    sort_key = CongruenceReport.sort_key
    to_json_obj = CongruenceReport.to_json_obj

    def __init__(self, claim_id, params, report):
        self.claim_id = claim_id
        self.params = params
        self.report = report


def _cpu_count():
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def execute(instances, jobs=1, fail_fast=False):
    """Run instances, optionally across processes; results in submission order.

    Only the first instance of each class is checked and gets its report;
    every later one gets a ``MemberReport`` of it.  The pool has min(jobs,
    checks to run, usable CPUs) workers, and none if that is 1.
    """
    numbers, todo = _classes(instances)
    reports = []
    done = [None] * len(todo)
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
        for number, (claim_id, params) in zip(numbers, instances):
            report = done[number]
            if report is None:
                report = done[number] = next(results)
            else:
                report = MemberReport(claim_id, params, report)
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

def _text_pair(kv):
    return "%s=%d" % kv


def _params_text(params):
    return ";".join(map(_text_pair, params))


def _params_renderer(render_pair, render_pairs):
    """``render_pairs`` of the rendered (name, value) pairs, once per params
    tuple; a pair, shared by many tuples, is rendered once too."""
    pair = _Rendered(render_pair).__getitem__
    return _Rendered(lambda params: render_pairs(list(map(pair, params))))


class _Rendered(dict):
    """``render(key)`` per key, each rendered once, on first lookup."""

    __slots__ = ("render",)

    def __init__(self, render):
        super().__init__()
        self.render = render

    def __missing__(self, key):
        value = self[key] = self.render(key)
        return value


_JSON_HEAD = '  {\n    "claim_id": %s,\n    "params": '
_JSON_TAIL = ',\n    "status": %s,\n    "witness": %s,\n    "elapsed_ms": %d\n  },\n'
_JSON_WITNESS = '{\n      "lhs": %s,\n      "rhs": %s,\n      "difference": %s\n    }'


def _json_pair(kv):
    return "      %s: %d" % (_quote(kv[0]), kv[1])


def _json_pairs(pairs):
    return "{\n%s\n    }" % ",\n".join(pairs) if pairs else "{}"


def _json_tail(tail):
    """A report's (status, witness, elapsed_ms); (status, witness) alone
    under ``--stable-output``, where elapsed_ms renders as 0."""
    status, w, elapsed_ms = tail if len(tail) == 3 else tail + (0,)
    witness = ("null" if w is None else
               _JSON_WITNESS % (_quote(w.lhs), _quote(w.rhs), _quote(w.difference)))
    return _JSON_TAIL % (_quote(status), witness, elapsed_ms)


def render_report(reports, fmt, stable=False):
    """Render sorted reports as text, json, or csv; returns a string.

    A params tuple is rendered once, though thm1 and q1 share each, and so
    is a status, witness and elapsed_ms tail, which every member of a class
    shares; json and text then join the rendered pieces of all reports at
    once.  json is the layout ``json.dumps([r.to_json_obj(stable) for r in
    reports], indent=2)`` plus a newline.
    """
    ms = (lambda r: 0) if stable else (lambda r: r.elapsed_ms)
    if fmt == "json":
        if not reports:
            return "[]\n"
        heads = _Rendered(lambda claim_id: _JSON_HEAD % _quote(claim_id))
        params, tails = _params_renderer(_json_pair, _json_pairs), _Rendered(_json_tail)
        tail = attrgetter("status", "witness", *(() if stable else ("elapsed_ms",)))
        parts = ["[\n"]
        for r in reports:
            parts += heads[r.claim_id], params[r.params], tails[tail(r)]
        parts[-1] = parts[-1][:-2] + "\n]\n"  # no comma after the last report
        return "".join(parts)
    params = _params_renderer(_text_pair, ";".join)
    if fmt == "csv":
        import csv  # only a csv sweep pays for the module
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["claim_id", "params", "status", "elapsed_ms"])
        writer.writerows([(r.claim_id, params[r.params], r.status, ms(r)) for r in reports])
        return buf.getvalue()
    if fmt != "text":
        raise UsageError("unknown format %r" % (fmt,))
    rows = [("claim", "params", ("status", "ms", "note"))]
    rows += [(r.claim_id, params[r.params], (r.status, str(ms(r)), r.note or ""))
             for r in reports]
    claims, texts, tails = ({row[i] for row in rows} for i in range(3))
    claim_width = max([len(c) for c in claims])
    params_width = max([len(p) for p in texts])
    widths = [max([len(t[i]) for t in tails]) for i in range(3)]
    claim_cells = {c: c.ljust(claim_width) + "  " for c in claims}
    params_cells = {p: p.ljust(params_width) + "  " for p in texts}
    tail_cells = {t: "  ".join(map(str.ljust, t, widths)).rstrip() + "\n" for t in tails}
    parts = []
    for c, p, t in rows:
        parts += claim_cells[c], params_cells[p], tail_cells[t]
    counts = Counter([t[0] for _, _, t in rows[1:]])
    parts.append("summary: %d pass, %d fail, %d skipped\n"
                 % (counts[PASS], counts[FAIL], counts[SKIPPED]))
    if any(CLAIMS[c].conjecture for c in claims - {"claim"}) and counts[FAIL] == 0:
        parts.append("conjecture sweep: no counterexample in the swept range "
                     "(evidence only, not proof)\n")
    return "".join(parts)


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
    reports.sort(key=attrgetter("params"))  # stable: sorted on (claim_id, params)
    reports.sort(key=attrgetter("claim_id"))
    out.write(render_report(reports, config.format, stable=config.stable_output))
    for r in reports:
        if r.status != FAIL:
            continue
        if _is_conjecture(r):
            err.write("CONJECTURE COUNTEREXAMPLE: %s\n  value: %s\n  residue: %s\n"
                      % (_params_text(r.params), r.witness.lhs, r.witness.difference))
        else:
            err.write("CHECK FAILED: %s %s\n  lhs: %s\n  rhs: %s\n  difference: %s\n"
                      % (r.claim_id, _params_text(r.params), r.witness.lhs,
                         r.witness.rhs, r.witness.difference))
    return exit_code_for(reports)
