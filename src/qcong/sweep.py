"""Deterministic claim sweeps: enumeration, execution, rendering, exit codes.

One table, ``CLAIMS``, drives the sweep: each row names a claim's checker,
the suite that runs it, whether it is the open conjecture, and whether it
is order-free.  ``SUITES``, instance enumeration, execution, exit codes and
rendering all read it.  A row's checker takes an instance's params tuple
as it is, and validates it, names and order included: the thm1 and q1
rows through ``theorems.a_list_key`` and the cores ``thm1_report`` and
``q1_report``, so their reports hold that very tuple, and every other
row by calling its public checker on the values.

A sweep instance is a pair (claim_id, params) with params an ordered tuple
of (name, int) pairs; the full instance list for a given SweepConfig is a
pure function of the config.  Random samples come from SplitMix64 (the
64-bit mixer with golden-gamma increment 0x9E3779B97F4A7C15), seeded from
``rng_seed``; bounded draws use plain ``next_u64() % bound``.  The exact
sampling procedures are documented in the README so an independent
implementation can reproduce instance sets from the seed alone.  A thm1
or q1 params tuple is (("n", n),) + tail, its pairs built once per sweep:
the grid builds each a-list's tail once and shares it across every n, and
thm1 and q1 share the whole tuple.  The thm1 suite is the grid alone,
since thm1 samples drawn within its bounds would be grid instances; only
the qpfaff samples can repeat an instance, and they keep its first draw.

``run_instance`` is the one place that reads a clock: it times each
check call and stamps the report's elapsed_ms.  ``execute`` checks each
class once: instances of an order-free claim whose first param and class
key agree share one check (for thm1 and q1 the key is the a-list's sorted
nonzero entries, computed once per claim and distinct a-list), and every later
member gets a ``CongruenceReport`` of its own claim_id and params, the
status, witness and note objects of the class's report, and elapsed_ms 0,
since nothing was checked for it.  It is built by ``_make``, which checks
no field again: the class's report checked them.  Classes are numbered in one
pass with one tail lookup and one first-param lookup per instance
(``_classes``).  Under ``--jobs`` the classes are checked in at most as
many processes, this one included, as there are checks to run and CPUs
this process may use, and in this one alone where ``os.fork`` is
missing: ``_fan_out`` forks the others, each sends back its reports'
fields by ``marshal``, and a check that no child brought back is run
here.  Reports are sorted on (claim_id, params) no matter how many
processes ran the checks, so identical configs yield identical output;
``run_suite`` sorts stably on params and then on claim_id, which is that
order and compares no (claim_id, params) pair.  ``stable_output``
additionally zeroes elapsed_ms for byte-exact diffs.

``render_report`` renders each params tuple once (thm1 and q1 share every
one), as the renderings of its first pair and its tail, each of which is
rendered once too, and each status, witness and elapsed_ms tail once
(every member of a class shares one), in all three formats.  The json
format is the list of ``CongruenceReport.to_json_obj`` objects in the
layout of ``json.dumps(objs, indent=2)`` plus a newline, written from
fixed templates; strings are escaped by ``_json.encode_basestring_ascii``,
the C function that ``json.encoder`` wraps, so a sweep imports no
``json``.  The tests pin the bytes to ``json.dumps``.

``execute`` returns one ``CongruenceReport`` per instance, with the fields
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

import itertools
import marshal
import math
import os
import sys
import time
from collections import Counter
from operator import attrgetter
from typing import Callable, NamedTuple

from .congruence import FAIL, PASS, SKIPPED, CongruenceReport, Witness, is_prime
from .errors import InvalidParamsError
from .faulhaber import check_conjecture, check_faulhaber_cong
from .poly import _ints
from .theorems import (
    a_key,
    a_list_key,
    a_names,
    check_chu_vandermonde,
    check_p_minus_one_lemma,
    check_pfaff_saalschutz,
    check_residue_identity,
    check_sum_lemma,
    check_symmetric_identity,
    check_thm2,
    q1_report,
    thm1_report,
)

try:  # the C escaper that json.encoder wraps, without importing json
    from _json import encode_basestring_ascii as _quote
except ImportError:  # an interpreter without it
    from json.encoder import encode_basestring_ascii as _quote


class Claim(NamedTuple):
    """One row of the claim table.

    ``check`` takes an instance's params tuple, validates it, and returns
    the instance's report; the thm1 and q1 reports hold that very tuple, the
    others an equal one.  ``suite`` is the ``--suite`` that runs the claim.
    A failing ``conjecture`` claim is a counterexample to an open problem
    (exit code 3), not a falsified theorem (exit code 1).

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


def _on_a_list(report):
    """The checker of thm1 or q1 params: ``report(n, key, params)`` once
    ``a_list_key`` has validated them and read n and the a-list's key."""
    return lambda params: report(*a_list_key(params), params)


def _by_position(check):
    """The checker of params named as ``check``'s arguments, in their order:
    ``check`` on their values."""
    code = check.__code__
    names = code.co_varnames[:code.co_argcount]

    def run(params):
        if tuple([name for name, _ in params]) != names:
            raise InvalidParamsError("%s takes the params %s, got %r"
                                     % (check.__name__, ", ".join(names), params))
        return check(*[value for _, value in params])

    return run


def _pfaff_check(x_num, x_den, y_num, y_den, z_num, z_den, q_num, q_den, n):
    from fractions import Fraction  # only qpfaff pays for the module

    return check_pfaff_saalschutz(Fraction(x_num, x_den), Fraction(y_num, y_den),
                                  Fraction(z_num, z_den), Fraction(q_num, q_den), n)


def _sorted_tuple(values):
    return tuple(sorted(values))


CLAIMS = {
    "thm1": Claim(_on_a_list(thm1_report), "thm1", class_key=a_key),
    "q1": Claim(_on_a_list(q1_report), "thm1", class_key=a_key),
    "thm2": Claim(_by_position(check_thm2), "thm2", class_key=_sorted_tuple),
    "sum_lemma": Claim(_by_position(check_sum_lemma), "identities"),
    "chu_vandermonde": Claim(_by_position(check_chu_vandermonde), "identities"),
    "p_minus_one": Claim(_by_position(check_p_minus_one_lemma), "identities"),
    "residue_identity": Claim(_by_position(check_residue_identity), "identities"),
    "symmetric_identity": Claim(_by_position(check_symmetric_identity), "identities"),
    "qpfaff": Claim(_by_position(_pfaff_check), "identities"),
    "conjecture": Claim(_by_position(check_conjecture), "conjecture", conjecture=True),
    "faulhaber": Claim(_by_position(check_faulhaber_cong), "faulhaber"),
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
            if not _ints(getattr(self, name)) or getattr(self, name) < 1:
                raise UsageError("%s must be a positive integer" % name)
        if not isinstance(self.prime_set, tuple):
            raise UsageError("prime_set must be a tuple of primes, got %r" % (self.prime_set,))
        for p in self.prime_set:
            if not is_prime(p):
                raise UsageError("prime_set entry %r is not prime" % (p,))
        if not _ints(self.sample_count) or self.sample_count < 0:
            raise UsageError("sample_count must be >= 0")
        if not _ints(self.jobs) or self.jobs < 1:
            raise UsageError("jobs must be >= 1")
        if self.format not in FORMATS:
            raise UsageError("unknown format %r" % (self.format,))
        if not _ints(self.rng_seed):
            raise UsageError("rng_seed must be an integer")
        for name in ("fail_fast", "stable_output"):
            if not isinstance(getattr(self, name), bool):
                raise UsageError("%s must be True or False" % name)


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


def _lowest_terms(num, den):
    """num/den in lowest terms, for den > 0."""
    g = math.gcd(num, den)
    return num // g, den // g


def _nonzero_rational(rng, max_num=7, max_den=4):
    v = rng.below(2 * max_num)
    num = v - max_num if v < max_num else v - max_num + 1
    return _lowest_terms(num, 1 + rng.below(max_den))


def pfaff_sample_instances(count, seed, n_max):
    """Seeded rational specializations for the balanced summation, each
    point once, in order of its first draw.

    x, y: numerator in +-1..7, denominator 1..4.  z: same, redrawn while
    z == 1.  q: numerator +-2..7 (magnitude then sign), denominator 1..3,
    redrawn while |q| == 1.  n in 0..min(n_max, 8).  Every fraction is
    drawn with a positive denominator and kept in lowest terms, as a
    Fraction would be, so z == 1 exactly when zn == zd.
    """
    rng = SplitMix64(seed)
    out = []
    for _ in range(count):
        xn, xd = _nonzero_rational(rng)
        yn, yd = _nonzero_rational(rng)
        while True:
            zn, zd = _nonzero_rational(rng)
            if zn != zd:
                break
        while True:
            v = rng.below(12)
            qn = (2 + v // 2) * (1 if v % 2 == 0 else -1)
            qd = 1 + rng.below(3)
            if abs(qn) != qd:
                break
        qn, qd = _lowest_terms(qn, qd)
        n = rng.below(min(n_max, PFAFF_MAX_N) + 1)
        out.append(("qpfaff", _params(x_num=xn, x_den=xd, y_num=yn, y_den=yd,
                                      z_num=zn, z_den=zd, q_num=qn, q_den=qd, n=n)))
    return list(dict.fromkeys(out))


def _thm1_suite(c):
    """The thm1/q1 grid.  ``--samples`` adds no thm1 instance: a sample
    drawn within the grid's own bounds is a grid instance."""
    return thm1_grid_instances(c.n_max, c.m_max, c.a_max)


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
    """The full, deterministic instance list for a config, each instance once.

    Suites are concatenated in ``SUITES`` order, so ``all`` lists the thm1
    instances first and the faulhaber instances last.  Only the qpfaff
    samples can draw one instance twice, and ``pfaff_sample_instances``
    keeps its first draw alone.
    """
    suites = SUITES[:-1] if config.suite == "all" else (config.suite,)
    out = []
    for suite in suites:
        out.extend(_SUITE_INSTANCES[suite](config))
    return out


# --- execution ---------------------------------------------------------------------

def run_instance(item):
    """Check and time one (claim_id, params) instance, in any process of a sweep."""
    claim_id, params = item
    t0 = time.perf_counter()
    report = CLAIMS[claim_id].check(params)
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


def _cpu_count():
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _check_share(todo, share, fail_fast):
    """The reports of ``todo[i]`` for i in ``share``, in order, up to the
    first check that raises, left out, or under ``fail_fast`` up to and
    including the first fail.  ``run_instance`` is looked up at call time,
    so a wrapper installed on it is called in every process."""
    out = []
    try:
        for i in share:
            report = run_instance(todo[i])
            out.append(report)
            if fail_fast and report.status == FAIL:
                break
    except Exception:  # execute checks it again in order, where it raises
        pass
    return out


def _fan_out(todo, workers, fail_fast):
    """The report of each of ``todo``, or None where none came back, from
    ``workers`` processes: this one and ``workers - 1`` forked children.

    ``todo`` is cut into chunks of max(1, len(todo) // (workers * 8)), and
    chunk c goes to process c % workers; this process checks share 0.  A
    child sends one ``marshal`` list of (status, witness tuple or None,
    elapsed_ms, note), one per report of its share, and leaves by
    ``os._exit``; each report is rebuilt here from its own (claim_id,
    params), so nothing is pickled.  A child that cannot be started, or
    dies or fails before it has sent a whole list, leaves None in its
    slots; ``marshal`` refuses a list cut short.  Every child is reaped
    before this returns or raises, and on the error path killed first.
    """
    n = len(todo)
    chunk = max(1, n // (workers * 8))
    starts = range(0, n, chunk)
    shares = [[i for s in starts[w::workers] for i in range(s, min(s + chunk, n))]
              for w in range(workers)]
    checked = [None] * n
    children = {}  # pid -> (the read end of its pipe, its share)
    try:
        for share in shares[1:]:
            rfd, wfd = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no child: execute checks the share in order
                os.close(rfd)
                os.close(wfd)
                continue
            if pid == 0:
                code = 1
                try:
                    os.close(rfd)
                    fields = [(rep.status, rep.witness and tuple(rep.witness),
                               rep.elapsed_ms, rep.note)
                              for rep in _check_share(todo, share, fail_fast)]
                    with open(wfd, "wb") as pipe:
                        pipe.write(marshal.dumps(fields))
                    code = 0
                finally:
                    os._exit(code)
            children[pid] = open(rfd, "rb"), share
            os.close(wfd)
        for i, report in zip(shares[0], _check_share(todo, shares[0], fail_fast)):
            checked[i] = report
        for pid, (pipe, share) in list(children.items()):
            with pipe:
                data = pipe.read()
            os.waitpid(pid, 0)
            del children[pid]
            try:  # empty or cut short if the child died before its one write ended
                fields = marshal.loads(data)
                reports = [CongruenceReport(*todo[i], status, witness and Witness(*witness),
                                            ms, note)
                           for i, (status, witness, ms, note) in zip(share, fields)]
            except (EOFError, ValueError, TypeError):
                continue
            for i, report in zip(share, reports):
                checked[i] = report
    finally:
        if children:  # the error path
            from signal import SIGKILL

            for pid, (pipe, _) in children.items():
                pipe.close()
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)
    return checked


def execute(instances, jobs=1, fail_fast=False):
    """Run instances, optionally across processes; results in submission order.

    Only the first instance of each class is checked and gets its report;
    every later one gets a ``CongruenceReport`` of its own claim_id and
    params with that report's status, witness and note, and elapsed_ms 0.
    ``_classes`` numbers the classes in order of first appearance, so an
    instance is its class's first exactly when its number is the count of
    classes met before it.  With min(jobs, checks to run, usable CPUs)
    above 1 and ``os.fork`` at hand, ``_fan_out`` checks the classes first
    in that many processes; each check it did not bring
    back is run here when the loop reaches it, so an exception surfaces
    with its own traceback, as when serial, and a lost child costs time
    only.  Under ``fail_fast`` each process stops its share at its own
    first fail, and the loop stops at the first fail of all, before any
    check that a process skipped.
    """
    numbers, todo = _classes(instances)
    workers = min(jobs, len(todo), _cpu_count()) if hasattr(os, "fork") else 1
    checked = _fan_out(todo, workers, fail_fast) if workers > 1 else [None] * len(todo)
    make = CongruenceReport._make
    reports = []
    seen = 0
    for number, (claim_id, params) in zip(numbers, instances):
        if number == seen:
            report = checked[number] = checked[number] or run_instance(todo[number])
            seen += 1
        else:
            first = checked[number]
            report = make((claim_id, params, first.status, first.witness, 0, first.note))
        reports.append(report)
        if fail_fast and report.status == FAIL:
            break
    return reports


def _is_conjecture(report):
    return CLAIMS[report.claim_id].conjecture


def exit_code_for(reports):
    """0 clean, 1 any theorem/identity failure, 3 conjecture counterexample only."""
    failed = {r.claim_id for r in reports if r.status == FAIL}
    if not failed:
        return 0
    return 3 if all(CLAIMS[claim_id].conjecture for claim_id in failed) else 1


# --- rendering ----------------------------------------------------------------------

def _text_pair(kv):
    return "%s=%d" % kv


def _params_text(params):
    return ";".join(map(_text_pair, params))


def _text_rest(tail):
    return "".join([";%s=%d" % kv for kv in tail])


def _params_renderer(render_first, render_rest, empty):
    """The rendering of each params tuple, once per tuple: its first pair's
    and its tail's, each of them rendered once too; ``empty`` for ()."""
    firsts, rests = _Rendered(render_first), _Rendered(render_rest)
    return _Rendered(lambda params: firsts[params[0]] + rests[params[1:]] if params else empty)


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


def _json_first(kv):
    return '{\n      %s: %d' % (_quote(kv[0]), kv[1])


def _json_rest(tail):
    return "".join([',\n      %s: %d' % (_quote(k), v) for k, v in tail]) + "\n    }"


def _json_tail(tail):
    """A report's (status, witness, elapsed_ms); (status, witness) alone
    under ``--stable-output``, where elapsed_ms renders as 0."""
    status, w, elapsed_ms = tail if len(tail) == 3 else tail + (0,)
    witness = ("null" if w is None else
               _JSON_WITNESS % (_quote(w.lhs), _quote(w.rhs), _quote(w.difference)))
    return _JSON_TAIL % (_quote(status), witness, elapsed_ms)


def _csv_cell(text):
    """``text`` as a ``csv.writer`` cell: quoted, its quotes doubled, if it
    holds a comma, a quote or a newline, as no claim id or params text of
    the package's own does."""
    if "," in text or '"' in text or "\n" in text:
        return '"%s"' % text.replace('"', '""')
    return text


def render_report(reports, fmt, stable=False):
    """Render sorted reports as text, json, or csv; returns a string.

    A params tuple is rendered once, though thm1 and q1 share each, from
    its first pair and its tail, each rendered once, and so is a status,
    witness and elapsed_ms tail, which every member of a class shares;
    each format then joins the rendered pieces of all reports at once.
    json is the layout ``json.dumps([r.to_json_obj(stable) for r in
    reports], indent=2)`` plus a newline, and csv that of ``csv.writer``
    ending each row in a newline.
    """
    ms = (lambda r: 0) if stable else (lambda r: r.elapsed_ms)
    if fmt == "json":
        if not reports:
            return "[]\n"
        heads = _Rendered(lambda claim_id: _JSON_HEAD % _quote(claim_id))
        params, tails = _params_renderer(_json_first, _json_rest, "{}"), _Rendered(_json_tail)
        tail = attrgetter("status", "witness", *(() if stable else ("elapsed_ms",)))
        parts = ["[\n"]
        for r in reports:
            parts += heads[r.claim_id], params[r.params], tails[tail(r)]
        parts[-1] = parts[-1][:-2] + "\n]\n"  # no comma after the last report
        return "".join(parts)
    params = _params_renderer(_text_pair, _text_rest, "")
    if fmt == "csv":
        cells = _Rendered(_csv_cell)
        return "claim_id,params,status,elapsed_ms\n" + "".join(
            ["%s,%s,%s,%d\n" % (cells[r.claim_id], cells[params[r.params]], r.status, ms(r))
             for r in reports])
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
