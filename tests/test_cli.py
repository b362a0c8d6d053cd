"""Sweep orchestration and CLI tests.

PRNG vectors are frozen against the published SplitMix64 reference outputs,
so any independent implementation seeded identically enumerates the same
sampled instances.
"""

import gc
import hashlib
import io
import itertools
import json
import marshal
import os
import re
import signal
import subprocess
import sys
import time

import pytest
from oracles import (
    comb_row_zero_is_one,
    csv_report_oracle,
    execute_each,
    json_report_oracle,
    make_report,
    modulus_shifted,
    text_report_oracle,
    thm1_grid_oracle,
    thm1_sample_oracle,
    weighted_sum_plus_modulus,
    weighted_sums_plus_one,
)

from qcong.congruence import FAIL, PASS, CongruenceReport, Witness
from qcong.errors import InternalError, InvalidParamsError
from qcong.cli import build_parser, main
from qcong.sweep import (
    CLAIMS,
    FORMATS,
    SUITES,
    SplitMix64,
    SweepConfig,
    UsageError,
    enumerate_instances,
    execute,
    exit_code_for,
    pfaff_sample_instances,
    render_report,
    run_instance,
    run_suite,
)
from qcong.theorems import a_key
import qcong.sweep as sweep_mod
from qcong import cli, qcomb

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
README = os.path.join(ROOT, "README.md")


# reference vectors for the standard SplitMix64 mixer
SPLITMIX_SEED0 = [16294208416658607535, 7960286522194355700, 487617019471545679]
SPLITMIX_SEED_1234567 = [
    6457827717110365317,
    3203168211198807973,
    9817491932198370423,
    4593380528125082431,
    16408922859458223821,
]


def test_splitmix64_reference_vectors():
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == SPLITMIX_SEED0
    rng = SplitMix64(1234567)
    assert [rng.next_u64() for _ in range(5)] == SPLITMIX_SEED_1234567


def test_splitmix64_below_bounds():
    rng = SplitMix64(99)
    draws = [rng.below(7) for _ in range(200)]
    assert all(0 <= d < 7 for d in draws)
    assert len(set(draws)) == 7
    with pytest.raises(ValueError):
        rng.below(0)


def _patch_check(monkeypatch, claim_id, check):
    """Swap the checker of one CLAIMS row for the duration of a test; the
    row hands ``check`` the params as keyword arguments."""
    monkeypatch.setitem(CLAIMS, claim_id,
                        CLAIMS[claim_id]._replace(check=lambda params: check(**dict(params))))


def _cpus(monkeypatch, count):
    """Let ``execute`` see ``count`` usable CPUs."""
    if hasattr(os, "sched_getaffinity"):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
    else:
        monkeypatch.setattr(os, "cpu_count", lambda: count)


def _count_forks(monkeypatch, fork=None):
    """The list that each call of ``os.fork`` appends to; ``fork``, if given,
    is called instead of the real one."""
    forks, fork = [], fork or os.fork

    def counted():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):  # no child, running or unreaped
        os.waitpid(-1, os.WNOHANG)


def _cfg(**kw):
    base = dict(suite="thm1", n_max=4, m_max=2, a_max=2, prime_set=(2, 3),
                sample_count=0, rng_seed=0, jobs=1, format="text")
    base.update(kw)
    return SweepConfig(**base)


class TestConfigValidation:
    def test_good_config_passes(self):
        _cfg().validate()

    @pytest.mark.parametrize("kw", [
        dict(suite="nope"),
        dict(n_max=0),
        dict(m_max=-1),
        dict(a_max=0),
        dict(prime_set=(2, 4)),
        dict(prime_set=(1,)),
        dict(sample_count=-1),
        dict(jobs=0),
        dict(format="xml"),
    ])
    def test_bad_config_rejected(self, kw):
        with pytest.raises(UsageError):
            _cfg(**kw).validate()

    @pytest.mark.parametrize("field, flag, message", [
        ("n_max", True, "n_max must be a positive integer"),
        ("m_max", True, "m_max must be a positive integer"),
        ("a_max", True, "a_max must be a positive integer"),
        ("sample_count", True, "sample_count must be >= 0"),
        ("jobs", True, "jobs must be >= 1"),
        ("rng_seed", False, "rng_seed must be an integer"),
    ])
    def test_bool_field_rejected(self, field, flag, message):
        # a bool is an int to Python; every checker refuses one, and so does
        # the config, with the message an out-of-range value gets
        with pytest.raises(UsageError, match="^%s$" % message):
            _cfg(**{field: flag}).validate()

    @pytest.mark.parametrize("field, value, message", [
        ("prime_set", 5, "prime_set must be a tuple of primes, got 5"),
        ("prime_set", {5, 7}, r"prime_set must be a tuple of primes, got \{5, 7\}"),
        ("prime_set", "57", "prime_set must be a tuple of primes, got '57'"),
        ("prime_set", [5, 7], r"prime_set must be a tuple of primes, got \[5, 7\]"),
        ("fail_fast", "no", "fail_fast must be True or False"),
        ("fail_fast", 0, "fail_fast must be True or False"),
        ("stable_output", "no", "stable_output must be True or False"),
        ("stable_output", None, "stable_output must be True or False"),
    ])
    def test_mistyped_field_rejected(self, field, value, message):
        # from Python, not the CLI: a bare prime is not iterable, a list leaves
        # the frozen config unhashable, and "no" is truthy, so each would fail
        # with a TypeError or act as true
        with pytest.raises(UsageError, match="^%s$" % message):
            _cfg(**{field: value}).validate()


class TestEnumeration:
    def test_deterministic_and_deduplicated(self):
        cfg = _cfg(sample_count=25, rng_seed=123)
        first = enumerate_instances(cfg)
        second = enumerate_instances(cfg)
        assert first == second
        assert len(first) == len(set(first))

    def test_seed_changes_samples(self):
        # wide n range so the draws cannot all collapse into the grid
        a = sweep_mod.thm1_sample_instances(40, 1, 30, 4, 6)
        b = sweep_mod.thm1_sample_instances(40, 2, 30, 4, 6)
        assert a != b
        assert a == sweep_mod.thm1_sample_instances(40, 1, 30, 4, 6)

    def test_thm1_grid_emits_paired_integer_shadow(self):
        instances = enumerate_instances(_cfg())
        claims = {c for c, _ in instances}
        assert claims == {"thm1", "q1"}
        thm1 = [p for c, p in instances if c == "thm1"]
        q1 = [p for c, p in instances if c == "q1"]
        assert thm1 == q1

    # bounds with m_max >= 10 name a10, a11, ..., which sort before a2
    BOUNDS = [(1, 1, 1), (4, 2, 2), (6, 3, 5), (3, 5, 3), (2, 10, 1), (2, 12, 1), (5, 1, 0)]

    @pytest.mark.parametrize("n_max, m_max, a_max", BOUNDS)
    def test_grid_equals_the_instances_built_name_by_name(self, n_max, m_max, a_max):
        got = sweep_mod.thm1_grid_instances(n_max, m_max, a_max)
        want = thm1_grid_oracle(n_max, m_max, a_max)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g == w and [type(v) for _, v in g[1]] == [int] * len(w[1])

    @pytest.mark.parametrize("n_max, m_max, a_max", BOUNDS[:-1] + [(40, 5, 8), (9, 14, 2)])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_samples_equal_the_instances_built_name_by_name(self, n_max, m_max, a_max, seed):
        got = sweep_mod.thm1_sample_instances(60, seed, n_max, m_max, a_max)
        assert got == thm1_sample_oracle(60, seed, n_max, m_max, a_max)

    @pytest.mark.parametrize("n_max, m_max, a_max", [(22, 3, 5), (4, 11, 1)])
    def test_samples_inside_the_grid_are_deduplicated(self, n_max, m_max, a_max):
        # samples drawn within the grid's own bounds are grid instances, so
        # the suite enumerates the grid alone, in grid order
        config = SweepConfig(suite="thm1", n_max=n_max, m_max=m_max, a_max=a_max,
                             sample_count=60, rng_seed=4)
        grid = thm1_grid_oracle(n_max, m_max, a_max)
        samples = sweep_mod.thm1_sample_instances(60, 4, n_max, m_max, a_max)
        assert set(samples) <= set(grid)
        assert enumerate_instances(config) == grid

    def test_pfaff_samples_keep_a_repeated_point_at_its_first_draw(self):
        # at seed 2, n_max 1, one of the first 300 draws repeats an earlier one
        draws = [pfaff_sample_instances(k, 2, 1) for k in range(301)]
        k = next(k for k in range(1, 301) if len(draws[k]) < k)
        assert draws[k] == draws[k - 1]
        assert len(draws[300]) == len(set(draws[300])) == 299
        assert draws[300][:k - 1] == draws[k - 1]
        config = _cfg(suite="identities", n_max=1, sample_count=300, rng_seed=2)
        instances = enumerate_instances(config)
        assert len(instances) == len(set(instances))
        assert [i for i in instances if i[0] == "qpfaff"] == draws[300]

    def test_thm1_grid_size(self):
        # n in 1..4, m=1: 3 tuples, m=2: 9 tuples, twice for the q1 shadow
        instances = enumerate_instances(_cfg())
        assert len(instances) == 4 * (3 + 9) * 2

    def test_all_suite_is_union_of_parts(self):
        whole = set(enumerate_instances(_cfg(suite="all", sample_count=5)))
        parts = set()
        for s in ("thm1", "thm2", "identities", "conjecture", "faulhaber"):
            parts |= set(enumerate_instances(_cfg(suite=s, sample_count=5)))
        assert whole == parts

    def test_pfaff_samples_reproducible_and_in_range(self):
        inst = pfaff_sample_instances(50, 7, 8)
        assert inst == pfaff_sample_instances(50, 7, 8)
        for _, params in inst:
            d = dict(params)
            assert 0 <= d["n"] <= 8
            assert d["z_num"] != d["z_den"]  # z = 1 is redrawn
            assert abs(d["q_num"]) != d["q_den"]  # |q| = 1 is redrawn
            for key in ("x_den", "y_den", "z_den", "q_den"):
                assert d[key] >= 1

    # sha256 of repr(instance list) per suite, recorded before the claim table
    # replaced the per-suite if-chain; --fail-fast output and the --jobs
    # chunking depend on this order, not just on the set
    ORDER_CONFIGS = (
        dict(n_max=4, m_max=2, a_max=2, prime_set=(2, 3), sample_count=5,
             rng_seed=7),
        dict(n_max=6, m_max=3, a_max=3, prime_set=(3, 5), sample_count=12,
             rng_seed=2026),
    )
    ORDER_DIGESTS = {
        "thm1": ((96, "af74194959ba4527721b15f1a132a2eb5d9e6de75899f202f90e252cb5265840"),
                 (1008, "c79cfb18c4786729606452cfec0e2e45f7340ce09012d3741c0cfc09e3f98016")),
        "thm2": ((13, "132eaaedd0883ee65afb4e7d7068c90ff43f67c8cc7ff2b9e7ac8b3c3bfb6a87"),
                 (34, "d187f2c2b015efddac736df31ab843c1bb6110db3164df572868e01f5eeb268b")),
        "identities": (
            (85, "44f077a49b34a96093acd2a4f3cf9ec4527970ee31bb03edc3871b0e5df459e3"),
            (188, "e938f471965cd029c2ee9c70b470aabbbe705a3a2d72fe01e2490bc92e8a4c66")),
        "conjecture": (
            (12, "ba81edad53c281e11c114e7a5db06455c9e98e5c1c514ff9284c2e393393de4d"),
            (36, "ab41bac564e95c46a5d2a5cc1f7c757cfc7808972db4249951b77caaaf60966c")),
        "faulhaber": (
            (8, "8a039f2ea83dc9942b988d6b4b5a1df88a8d5f109cd154c321af3dbd15dc8b82"),
            (18, "98adcf9f9eefa9cd82dce09990faf15bc687bb4483c97d64bd90cb109aab336a")),
        "all": ((214, "8d6271aba47629ab7b45ca23afe90a4c8c0bfab8307805b211554a4d8c0c4c9e"),
                (1284, "56c33090068a78bb8b11189fb7b37cbaf5d429b6cfadf2b6524c5193c2db08cd")),
    }

    @pytest.mark.parametrize("suite", SUITES)
    def test_order_is_pinned(self, suite):
        for kw, (count, digest) in zip(self.ORDER_CONFIGS, self.ORDER_DIGESTS[suite]):
            instances = enumerate_instances(SweepConfig(suite=suite, **kw))
            assert len(instances) == count
            assert hashlib.sha256(repr(instances).encode()).hexdigest() == digest
            if suite != "all":
                assert {CLAIMS[c].suite for c, _ in instances} == {suite}

    def test_conjecture_triangle(self):
        inst = enumerate_instances(_cfg(suite="conjecture", n_max=3, m_max=3))
        pairs = {(dict(p)["m"], dict(p)["k"]) for _, p in inst}
        assert pairs == {(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)}


class TestExitCodes:
    def test_all_pass_is_zero(self):
        reports = [make_report("thm1", {"n": 2, "a1": 1}, PASS)]
        assert exit_code_for(reports) == 0

    def test_skips_do_not_fail(self):
        reports = [make_report("qpfaff", {"n": 1}, "skipped")]
        assert exit_code_for(reports) == 0

    def test_theorem_failure_is_one(self):
        reports = [
            make_report("conjecture", {"n": 2, "m": 1, "k": 1}, FAIL,
                        witness=Witness("1", "0", "1")),
            make_report("thm1", {"n": 2, "a1": 1}, FAIL,
                        witness=Witness("x", "0", "q")),
        ]
        assert exit_code_for(reports) == 1

    def test_conjecture_counterexample_is_three(self):
        reports = [
            make_report("thm1", {"n": 2, "a1": 1}, PASS),
            make_report("conjecture", {"n": 2, "m": 1, "k": 1}, FAIL,
                        witness=Witness("1", "0", "1")),
        ]
        assert exit_code_for(reports) == 3


class TestRendering:
    def _reports(self):
        return [
            make_report("sum_lemma", {"n": 3, "a": 1}, PASS, elapsed_ms=5),
            make_report("qpfaff", {"n": 1}, "skipped", elapsed_ms=2,
                        note="(q;q)_n vanishes"),
        ]

    def test_json_schema(self):
        text = render_report(self._reports(), "json")
        objs = json.loads(text)
        assert [list(o.keys()) for o in objs] == [
            ["claim_id", "params", "status", "witness", "elapsed_ms"]] * 2
        assert objs[0]["params"] == {"n": 3, "a": 1}
        assert objs[0]["elapsed_ms"] == 5
        assert text.endswith("\n")

    def test_json_stable_zeroes_elapsed(self):
        objs = json.loads(render_report(self._reports(), "json", stable=True))
        assert [o["elapsed_ms"] for o in objs] == [0, 0]

    @pytest.mark.parametrize("suite", SUITES)
    def test_json_matches_encoder_on_every_suite(self, suite):
        # seed 2 draws one qpfaff point that skips at these bounds
        config = _cfg(suite=suite, n_max=3, sample_count=12, rng_seed=2)
        reports = sorted(execute(enumerate_instances(config)), key=lambda r: r.sort_key)
        if suite in ("identities", "all"):
            assert any(r.status == "skipped" for r in reports)
        for stable in (False, True):
            assert render_report(reports, "json", stable) == json_report_oracle(reports, stable)

    @pytest.mark.parametrize("corrupt", [None, modulus_shifted], ids=["true", "shifted-modulus"])
    def test_every_format_matches_rendering_cell_by_cell(self, monkeypatch, corrupt):
        # render_report renders each params tuple and each tail once; the
        # oracles render every cell of every row
        if corrupt is not None:
            corrupt(monkeypatch)
        config = _cfg(suite="all", n_max=4, m_max=3, a_max=2, sample_count=12, rng_seed=2)
        instances = enumerate_instances(config)
        swept = sorted(execute(instances), key=lambda r: r.sort_key)
        assert len(sweep_mod._classes(instances)[1]) < len(instances)  # members were made
        assert any(r.status == FAIL for r in swept) == (corrupt is not None)
        odd = make_report('say "q,\\', {"n": 2, "a1": -3}, FAIL, elapsed_ms=7,
                          witness=Witness("q^-2 + 1", '"\\"', "2"), note="a, b")
        bare = make_report("qpfaff", {}, "skipped", elapsed_ms=12345)
        members = [CongruenceReport._make(("thm1", (("n", 9),), odd.status, odd.witness, 0,
                                           odd.note)),
                   CongruenceReport._make(("q1", (), bare.status, bare.witness, 0, bare.note))]
        for reports in ([], [bare], swept, self._reports() + [odd, bare] + members):
            known = [r for r in reports if r.claim_id in CLAIMS]  # text asks CLAIMS
            for stable in (False, True):
                assert render_report(known, "text", stable) \
                    == text_report_oracle(known, stable), (known, stable)
                assert render_report(reports, "csv", stable) \
                    == csv_report_oracle(reports, stable), (reports, stable)
                assert render_report(reports, "json", stable) \
                    == json_report_oracle(reports, stable), (reports, stable)

    def test_json_matches_encoder_on_edge_reports(self):
        odd = make_report('say "q\\', {"n": 2, "a1": -3}, FAIL, elapsed_ms=7,
                          witness=Witness("q^-2 + 1", '"\\"', "q^-2 \u00e9 \u2603"))
        bare = make_report("qpfaff", {}, "skipped", elapsed_ms=12345)
        for reports in ([], [odd], [bare], self._reports() + [odd, bare]):
            for stable in (False, True):
                assert (render_report(reports, "json", stable)
                        == json_report_oracle(reports, stable)), (reports, stable)
        assert render_report([], "json") == "[]\n"

    def test_member_renders_like_a_report(self, monkeypatch):
        checked = make_report("thm1", {"n": 4, "a1": 1, "a2": 2}, FAIL, elapsed_ms=7,
                              witness=Witness("q", "0", "q"), note="a note")
        monkeypatch.setattr(sweep_mod, "run_instance", lambda item: checked)
        first, member = execute([("thm1", checked.params),
                                 ("thm1", (("n", 4), ("a1", 2), ("a2", 1)))])
        assert first is checked
        alike = checked._replace(params=member.params, elapsed_ms=0)
        assert member == alike
        for fmt in sweep_mod.FORMATS:
            for stable in (False, True):
                assert (render_report([member], fmt, stable)
                        == render_report([alike], fmt, stable)), (fmt, stable)
        assert member.sort_key == alike.sort_key
        assert member.to_json_obj() == alike.to_json_obj()

    def test_bool_param_rejected(self):
        with pytest.raises(TypeError):
            make_report("thm1", {"n": True}, PASS)

    def test_csv_layout(self):
        lines = render_report(self._reports(), "csv").splitlines()
        assert lines[0] == "claim_id,params,status,elapsed_ms"
        assert lines[1] == "sum_lemma,n=3;a=1,pass,5"
        assert lines[2] == "qpfaff,n=1,skipped,2"

    def test_text_has_summary_and_note(self):
        text = render_report(self._reports(), "text")
        assert "summary: 1 pass, 0 fail, 1 skipped" in text
        assert "(q;q)_n vanishes" in text


class TestExecution:
    def test_fail_fast_stops_after_first_failure(self, monkeypatch):
        calls = []

        def fake_runner(item):
            calls.append(item)
            claim_id, params = item
            return make_report(claim_id, dict(params), FAIL,
                               witness=Witness("1", "0", "1"))

        _patch_check(monkeypatch, "sum_lemma",
                     lambda **d: fake_runner(("sum_lemma", tuple(d.items()))))
        instances = [("sum_lemma", (("n", i), ("a", 0))) for i in range(1, 6)]
        reports = execute(instances, jobs=1, fail_fast=True)
        assert len(reports) == 1
        assert len(calls) == 1

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork: jobs 2 runs serially")
    def test_fail_fast_stops_the_forked_children(self, monkeypatch):
        _patch_check(monkeypatch, "sum_lemma",
                     lambda n, a: make_report("sum_lemma", {"n": n, "a": a}, FAIL,
                                              witness=Witness("1", "0", "1")))
        instances = [("sum_lemma", (("n", i), ("a", 0))) for i in range(1, 41)]
        assert len(execute(instances, jobs=2, fail_fast=True)) == 1
        _assert_no_child_left()
        assert len(execute(instances, jobs=2)) == 40

    @pytest.mark.parametrize("fail_fast", [False, True])
    def test_forked_children_are_gone_when_execute_returns(self, fail_fast):
        instances = enumerate_instances(_cfg(n_max=6))
        assert len(execute(instances, jobs=2, fail_fast=fail_fast)) == len(instances)
        _assert_no_child_left()

    def test_forked_children_are_capped(self, monkeypatch):
        # each worker but this process is one fork
        forks = _count_forks(monkeypatch)
        lemma = [("sum_lemma", (("n", n), ("a", 1))) for n in range(1, 11)]
        # thm1 at n = 3 for [1, 2], [2, 1] and [0, 2, 1]: one check
        one_class = [("thm1", (("n", 3), ("a1", 1), ("a2", 2))),
                     ("thm1", (("n", 3), ("a1", 2), ("a2", 1))),
                     ("thm1", (("n", 3), ("a1", 0), ("a2", 2), ("a3", 1)))]
        for jobs, items, cpu_count, size in [
                (5000, lemma, 4, 4),     # capped by the CPUs
                (5000, lemma[:3], 4, 3),  # by the checks to run
                (3, lemma, 4, 3),        # by jobs
                (5000, lemma, 1, None),  # one CPU: serial, no fork
                (8, one_class, 4, None),  # one check: serial, no fork
                (1, lemma, 4, None)]:
            _cpus(monkeypatch, cpu_count)
            del forks[:]
            got = execute(items, jobs=jobs)
            assert len(forks) == (0 if size is None else size - 1)
            assert [(r.claim_id, r.params, r.status) for r in got] \
                == [(r.claim_id, r.params, PASS) for r in execute_each(items)]
            _assert_no_child_left()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork: jobs 2 runs serially")
    @pytest.mark.parametrize("loss", ["killed", "short", "unreadable", "unforked"])
    def test_lost_child_costs_time_not_the_sweep(self, monkeypatch, loss):
        # this process checks again every instance whose report no child
        # brought back, and no child is left behind
        parent = os.getpid()
        checks_here = []
        check = CLAIMS["sum_lemma"].check

        def checked_here_or_killed(params):
            if os.getpid() != parent:
                if loss == "killed":
                    os.kill(os.getpid(), signal.SIGKILL)
            else:
                checks_here.append(params)
            return check(params)

        instances = [("sum_lemma", (("n", n), ("a", a))) for n in range(1, 9) for a in range(3)]
        want = execute(instances, jobs=1)
        monkeypatch.setitem(CLAIMS, "sum_lemma",
                            CLAIMS["sum_lemma"]._replace(check=checked_here_or_killed))
        _cpus(monkeypatch, 2)
        dumps = marshal.dumps
        if loss == "short":
            monkeypatch.setattr(marshal, "dumps", lambda fields: dumps(fields[:1]))
        elif loss == "unreadable":
            monkeypatch.setattr(marshal, "dumps", lambda fields: dumps(fields)[:-1])

        def no_fork():
            raise BlockingIOError("fork: resource temporarily unavailable")

        forks = _count_forks(monkeypatch, no_fork if loss == "unforked" else None)
        _assert_same_reports(execute(instances, jobs=2), want)
        assert len(forks) == 1
        assert len(checks_here) == len(instances) - (loss == "short")
        _assert_no_child_left()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork: jobs 2 runs serially")
    def test_child_fails_come_back_as_reports_with_witnesses(self, monkeypatch):
        # a child sends marshalled fields, and this process rebuilds each
        # report from them; rendered bytes alone would not tell a rebuilt
        # CongruenceReport or Witness from a tuple that renders the same
        weighted_sums_plus_one(monkeypatch)
        instances = enumerate_instances(_cfg(n_max=6))
        want = execute(instances, jobs=1)
        parent = os.getpid()
        checks_here = set()

        def checked_where(item):
            if os.getpid() == parent:
                checks_here.add(item)
            return run_instance(item)

        monkeypatch.setattr(sweep_mod, "run_instance", checked_where)
        _cpus(monkeypatch, 2)
        got = execute(instances, jobs=2)
        _assert_same_reports(got, want)
        fails = [r for r in _firsts(instances, got).values() if r.status == FAIL]
        from_child = [r for r in fails if (r.claim_id, r.params) not in checks_here]
        assert from_child and len(from_child) < len(fails)
        for r in fails:
            assert type(r) is CongruenceReport
            assert type(r.witness) is Witness
        _assert_no_child_left()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork: jobs 2 runs serially")
    def test_interrupted_parent_kills_and_reaps_its_children(self, monkeypatch):
        class Interrupt(BaseException):
            pass

        parent = os.getpid()

        def check(n, a):
            if os.getpid() == parent:
                raise Interrupt
            time.sleep(60)

        _patch_check(monkeypatch, "sum_lemma", check)
        _cpus(monkeypatch, 2)
        instances = [("sum_lemma", (("n", n), ("a", 0))) for n in range(1, 9)]
        t0 = time.monotonic()
        with pytest.raises(Interrupt):
            execute(instances, jobs=2)
        assert time.monotonic() - t0 < 30
        _assert_no_child_left()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fail_fast_hides_a_crash_after_the_first_fail(self, monkeypatch, jobs):
        # n = 1 fails, first in this process's share; n = 4 raises, in the
        # child's share at jobs 2 (chunks of two); as when serial, only a
        # sweep without fail-fast reaches the crash, and this process checks
        # nothing after its first fail
        checks_here = []

        def check(n, a):
            checks_here.append(n)
            if n == 4:
                raise InternalError("routes disagree")
            status = FAIL if n == 1 else PASS
            return make_report("sum_lemma", {"n": n, "a": a}, status,
                               witness=Witness("1", "0", "1") if status == FAIL else None)

        _patch_check(monkeypatch, "sum_lemma", check)
        _cpus(monkeypatch, 2)
        instances = [("sum_lemma", (("n", i), ("a", 0))) for i in range(1, 41)]
        reports = execute(instances, jobs=jobs, fail_fast=True)
        assert [(r.params, r.status) for r in reports] == [(instances[0][1], FAIL)]
        assert checks_here == [1]
        with pytest.raises(InternalError, match="routes disagree"):
            execute(instances, jobs=jobs)
        _assert_no_child_left()

    def test_parallel_matches_serial(self):
        cfg = _cfg(suite="identities", n_max=4, a_max=2, prime_set=(2,),
                   sample_count=0)
        instances = enumerate_instances(cfg)
        serial = execute(instances, jobs=1)
        parallel = execute(instances, jobs=2)
        key = lambda r: r.sort_key
        assert [(r.claim_id, r.params, r.status) for r in sorted(serial, key=key)] \
            == [(r.claim_id, r.params, r.status) for r in sorted(parallel, key=key)]

    @pytest.mark.parametrize("corrupt", [False, True], ids=["true", "shifted-modulus"])
    def test_memo_state_cannot_change_a_verdict(self, monkeypatch, corrupt):
        # each W(n) is built off whatever smaller n the memo holds, so running the
        # instances backwards leaves different entries behind; the sorted stable
        # output must not change.  With the modulus shifted to [n+1] every thm1
        # and thm2 instance that fails prints its full left side.
        if corrupt:
            modulus_shifted(monkeypatch)
        instances = (enumerate_instances(_cfg(suite="thm1", n_max=9, m_max=3, a_max=3))
                     + enumerate_instances(_cfg(suite="thm2", prime_set=(5, 7))))
        outs = []
        for order in (instances, instances[::-1]):
            qcomb.BINOMIAL_MEMO.clear()
            reports = sorted(execute(order, jobs=1), key=lambda r: r.sort_key)
            outs.append(render_report(reports, "json", stable=True))
        assert outs[0] == outs[1]
        assert ('"status": "fail"' in outs[0]) == corrupt


FORKED = hasattr(os, "fork")
CORRUPTIONS = [
    pytest.param(None, id="true"),
    pytest.param(modulus_shifted, id="shifted-modulus"),
    pytest.param(weighted_sums_plus_one, id="weighted-sums-plus-one"),
    pytest.param(comb_row_zero_is_one, id="comb-row-zero-is-one"),
    pytest.param(weighted_sum_plus_modulus, id="weighted-sum-plus-modulus"),
]
JOBS = [1, pytest.param(2, marks=pytest.mark.skipif(
    not FORKED, reason="no os.fork: jobs 2 runs serially"))]


def _outcome(r):
    return r.status, r.witness, r.note


def _assert_same_reports(got, want):
    """Equal stable JSON and notes, report by report; names the first difference
    (a diff of two whole reports would take pytest minutes)."""
    def rows(reports):
        return [(render_report([r], "json", True), r.note) for r in reports]

    got, want = rows(got), rows(want)
    first = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), None)
    assert first is None, (first, got[first], want[first])
    assert len(got) == len(want)


def _class_of(item):
    """An order-free instance's class: its claim, first param and sorted tail,
    zeros dropped from a thm1 or q1 a-list."""
    claim_id, params = item
    tail = [v for _, v in params[1:] if v or claim_id == "thm2"]
    return claim_id, params[0], tuple(sorted(tail))


def _firsts(instances, reports):
    """The checked report of each order-free class: its first appearance."""
    firsts = {}
    for item, r in zip(instances, reports):
        firsts.setdefault(_class_of(item), r)
    return firsts


def _class_instances():
    """A thm1 grid, thm1 samples with exact duplicates, and thm2 at 5 and 7."""
    samples = sweep_mod.thm1_sample_instances(60, 4, 7, 3, 3)
    assert len(set(samples)) < len(samples)
    return (enumerate_instances(_cfg(n_max=7, m_max=3, a_max=3)) + samples
            + enumerate_instances(_cfg(suite="thm2", prime_set=(5, 7))))


# valid params of every claim, as the sweep hands them to the table's checkers
_VALID_PARAMS = {
    "thm1": (("n", 3), ("a1", 1), ("a2", 2)),
    "q1": (("n", 3), ("a1", 1), ("a2", 2)),
    "thm2": (("p", 5), ("a", 1), ("b", 2)),
    "sum_lemma": (("n", 3), ("a", 1)),
    "chu_vandermonde": (("a", 2), ("b", 1), ("n", 1)),
    "p_minus_one": (("p", 5), ("j", 1)),
    "residue_identity": (("a", 1), ("b", 1)),
    "symmetric_identity": (("a", 1), ("b", 1)),
    "qpfaff": (("x_num", 2), ("x_den", 1), ("y_num", 3), ("y_den", 1), ("z_num", 5),
               ("z_den", 1), ("q_num", 2), ("q_den", 1), ("n", 2)),
    "conjecture": (("n", 3), ("m", 1), ("k", 1)),
    "faulhaber": (("n", 3), ("m", 1)),
}
# qpfaff's x, y, z and q are rationals, whose parts Fraction takes as numbers;
# every other param is an integer the checker must see as one.  Each bad
# value replaces one param: a bool, and -1 for every integer param but
# qpfaff's rationals, and 0 for every param that must be at least 1 (a
# prime p is at least 2)
_AT_LEAST_ONE = {("thm1", "n"), ("q1", "n"), ("sum_lemma", "n"), ("conjecture", "n"),
                 ("conjecture", "m"), ("conjecture", "k"), ("faulhaber", "n"),
                 ("faulhaber", "m"), ("thm2", "p"), ("p_minus_one", "p")}
_BOOL_CASES = [(claim, name, flag) for claim, params in _VALID_PARAMS.items()
               for name, _ in params if claim != "qpfaff" or name == "n"
               for flag in (True, False)]
_BAD_CASES = _BOOL_CASES + [
    (claim, name, bad) for claim, params in _VALID_PARAMS.items()
    for name, _ in params if claim != "qpfaff" or name == "n"
    for bad in ((-1, 0) if (claim, name) in _AT_LEAST_ONE else (-1,))]


def _with(params, name, value):
    return tuple((k, value if k == name else v) for k, v in params)


def _no_work(*args):
    raise AssertionError("a checker did work before refusing its params")


class _NoWork:
    """A stand-in for ``BINOMIAL_MEMO`` whose every method is ``_no_work``."""

    def __getattr__(self, name):
        return _no_work


def test_bool_cases_cover_every_claim():
    assert set(_VALID_PARAMS) == set(CLAIMS)
    for claim, params in _VALID_PARAMS.items():
        report = CLAIMS[claim].check(params)
        assert report.status == PASS and report.params == params, claim
    assert {claim for claim, _, _ in _BAD_CASES} == set(CLAIMS)


@pytest.mark.parametrize("claim, name, bad", _BAD_CASES)
def test_bool_param_fails_before_any_work(monkeypatch, claim, name, bad):
    # a bool is an int to Python, and a report would print it with %d as 1;
    # every checker refuses one, and an entry out of range, before any work
    from qcong import theorems

    monkeypatch.setattr(theorems, "BINOMIAL_MEMO", _NoWork())
    monkeypatch.setattr(theorems, "rows_at_one", _no_work)
    with pytest.raises(InvalidParamsError):
        CLAIMS[claim].check(_with(_VALID_PARAMS[claim], name, bad))


@pytest.mark.parametrize("claim, params", [
    ("thm1", (("n", 3), ("a2", 1), ("a1", 2))),
    ("thm1", (("a1", 1), ("n", 3))),
    ("q1", (("n", 3),)),
    ("q1", ()),
    ("thm2", (("a", 1), ("p", 5), ("b", 2))),
    ("thm2", (("p", 5), ("a", 1))),
    ("sum_lemma", (("n", 3), ("a", 1), ("b", 1))),
    ("qpfaff", _VALID_PARAMS["qpfaff"][:-1]),
])
def test_misnamed_params_are_refused(claim, params):
    # the names are checked too, in order, as a keyword call bound them
    with pytest.raises(InvalidParamsError):
        CLAIMS[claim].check(params)


@pytest.mark.parametrize("jobs", [1, 2])
def test_thm1_and_q1_reports_hold_the_enumerated_params(jobs):
    # every report holds the very params tuple enumerate_instances made, the
    # checked ones too, at jobs 2 as well: a forked child sends back no params
    instances = enumerate_instances(_cfg(n_max=6, m_max=3, a_max=3, jobs=jobs))
    reports = execute(instances, jobs=jobs)
    checked = _firsts(instances, reports)
    assert {r.claim_id for r in checked.values()} == {"thm1", "q1"}
    assert len(checked) < len(instances)
    assert all(r.params is p for r, (_, p) in zip(reports, instances))


class TestOrderClasses:
    """``execute`` checks one ordering per class of an order-free claim."""

    def test_order_free_claims(self):
        assert {c: row.class_key for c, row in CLAIMS.items() if row.class_key} \
            == {"thm1": a_key, "q1": a_key, "thm2": sweep_mod._sorted_tuple}

    @pytest.mark.parametrize("jobs", JOBS)
    @pytest.mark.parametrize("corrupt", CORRUPTIONS)
    def test_matches_checking_each_instance(self, monkeypatch, corrupt, jobs):
        if corrupt is not None:
            corrupt(monkeypatch)
        instances = _class_instances()
        want = execute_each(instances)
        _assert_same_reports(execute(instances, jobs=jobs), want)
        assert any(r.status == FAIL for r in want) == (corrupt is not None)

    @pytest.mark.parametrize("corrupt", CORRUPTIONS)
    def test_permuting_the_tail_keeps_the_outcome(self, monkeypatch, corrupt):
        # the premise of a class key, asked of the checkers directly
        if corrupt is not None:
            corrupt(monkeypatch)
        instances = _class_instances()
        claims = {c for c, _ in instances}
        assert claims == {c for c, row in CLAIMS.items() if row.class_key}
        for claim_id, params in dict.fromkeys(instances):
            names, values = zip(*params[1:])
            if list(values) != sorted(values):
                continue
            check = CLAIMS[claim_id].check
            want = _outcome(check(params))
            tails = set(itertools.permutations(values))
            if claim_id != "thm2":
                # and a thm1 or q1 a-list padded with a zero at every position
                tails |= {values[:i] + (0,) + values[i:] for i in range(len(values) + 1)}
            for tail in tails:
                named = {"a%d" % (i + 1): a for i, a in enumerate(tail)} \
                    if claim_id != "thm2" else dict(zip(names, tail))
                got = _outcome(check(params[:1] + tuple(named.items())))
                assert got == want, (claim_id, params, tail)

    def test_checks_once_per_class(self, monkeypatch):
        calls = {"thm1": [], "sum_lemma": []}
        for claim_id, seen in calls.items():
            check = CLAIMS[claim_id].check
            _patch_check(monkeypatch, claim_id,
                         lambda check=check, seen=seen, **kw:
                         seen.append(kw) or check(tuple(kw.items())))
        grid = enumerate_instances(_cfg(n_max=5, m_max=3, a_max=2))
        lemma = enumerate_instances(_cfg(suite="identities", n_max=4, a_max=4))
        lemma = [i for i in lemma if i[0] == "sum_lemma"]
        assert ("sum_lemma", (("n", 2), ("a", 3))) in lemma
        assert ("sum_lemma", (("n", 3), ("a", 2))) in lemma
        assert len(execute(grid + lemma)) == len(grid) + len(lemma)
        classes = {_class_of(item) for item in grid if item[0] == "thm1"}
        orderings = {(c, p[0], tuple(sorted(v for _, v in p[1:]))) for c, p in grid
                     if c == "thm1"}
        # [0, 2] and [2] share a class, since zeros drop out of the a-list
        assert len(calls["thm1"]) == len(classes) < len(orderings) < len(grid) // 2
        assert {tuple(kw.values())[1:] for kw in calls["thm1"]
                if kw["n"] == 5} == {(0,), (1,), (2,), (1, 1), (1, 2), (2, 2),
                                     (1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2)}
        assert len(calls["sum_lemma"]) == len(lemma)

    def test_a_copy_shows_its_own_params_and_no_time(self, monkeypatch):
        def slow(p, a, b):
            time.sleep(0.02)
            return make_report("thm2", {"p": p, "a": a, "b": b}, PASS)

        _patch_check(monkeypatch, "thm2", slow)
        first, copy = execute([("thm2", (("p", 5), ("a", 1), ("b", 2))),
                               ("thm2", (("p", 5), ("a", 2), ("b", 1)))])
        assert first.elapsed_ms >= 15 and first.params == (("p", 5), ("a", 1), ("b", 2))
        assert copy.elapsed_ms == 0 and copy.params == (("p", 5), ("a", 2), ("b", 1))

    def test_one_report_per_class_and_no_copy(self, monkeypatch):
        # a check builds its report by __new__, which checks the fields, once
        # per class; _make, which skips __new__, builds every other report:
        # each member's, and the copy run_instance stamps (by _replace) with a
        # check's time
        checks, makes = [], []
        new, make = CongruenceReport.__new__, CongruenceReport._make
        monkeypatch.setattr(CongruenceReport, "__new__",
                            lambda cls, *args, **kw: checks.append(args) or new(cls, *args, **kw))
        monkeypatch.setattr(CongruenceReport, "_make",
                            classmethod(lambda cls, fields: makes.append(fields)
                                        or make(fields)))
        instances = _class_instances()
        reports = execute(instances)
        classes = {_class_of(item) for item in instances}
        assert len(checks) == len(classes)
        members = len(instances) - len(classes)
        assert members <= len(makes) <= members + len(classes)
        assert [(r.claim_id, r.params) for r in reports] == instances
        firsts = _firsts(instances, reports)
        assert {r.elapsed_ms for item, r in zip(instances, reports)
                if firsts[_class_of(item)] is not r} == {0}
        assert all(type(r) is CongruenceReport for r in reports)

    @pytest.mark.parametrize("jobs", JOBS)
    @pytest.mark.parametrize("corrupt", [None, weighted_sums_plus_one],
                             ids=["true", "weighted-sums-plus-one"])
    def test_every_member_is_a_report_sharing_its_class_verdict(self, monkeypatch,
                                                                corrupt, jobs):
        # each member is a CongruenceReport with no time of its own, and holds
        # the very witness and note objects of its class's checked report, at
        # jobs 2 the one this process rebuilt from a child's fields
        if corrupt is not None:
            corrupt(monkeypatch)
        _cpus(monkeypatch, 2)
        instances = _class_instances()
        reports = execute(instances, jobs=jobs)
        assert len(reports) == len(instances)
        assert any(r.status == FAIL for r in reports) == (corrupt is not None)
        firsts = _firsts(instances, reports)
        members = 0
        for item, r in zip(instances, reports):
            assert type(r) is CongruenceReport
            first = firsts[_class_of(item)]
            if first is r:
                continue
            members += 1
            assert r.elapsed_ms == 0
            assert r.witness is first.witness and r.note is first.note
            assert r.status == first.status
        assert members == len(instances) - len(firsts) > 0
        _assert_no_child_left()

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("fmt", ["json", "text", "csv"])
    def test_the_benchmark_child_path_matches_run_suite(self, fmt, jobs):
        # perfbench/child.py sorts execute's reports by sort_key and renders
        # them itself; run_suite sorts on (claim_id, params)
        config = SweepConfig(suite="all", n_max=5, m_max=3, a_max=3, prime_set=(5, 7),
                             sample_count=30, rng_seed=3, jobs=jobs, format=fmt,
                             stable_output=True)
        out = io.StringIO()
        assert run_suite(config, out=out, err=io.StringIO()) == 0
        reports = sorted(execute(enumerate_instances(config), jobs=jobs),
                         key=lambda r: r.sort_key)
        assert render_report(reports, fmt, stable=True) == out.getvalue()

    @pytest.mark.parametrize("jobs", JOBS)
    def test_fail_fast_matches_checking_each_instance(self, monkeypatch, jobs):
        # vanishing sums pass under the shifted modulus, and their orderings
        # come first, so copies are made before the first failure
        modulus_shifted(monkeypatch)
        grid = enumerate_instances(_cfg(n_max=7, m_max=3, a_max=3))
        instances = [(c, p) for c, p in grid
                     if dict(p)["n"] <= max(v for _, v in p[1:])] + grid
        want = execute_each(instances)
        first = next(i for i, r in enumerate(want) if r.status == FAIL)
        got = execute(instances, jobs=jobs, fail_fast=True)
        _assert_same_reports(got, want[:first + 1])
        seen = [_class_of(item) for item in instances[:first]]
        assert len(set(seen)) < len(seen)

    def test_serial_sweep_loads_no_process_pool(self):
        code = ("import io, sys\n"
                "import qcong.cli\n"
                "from qcong.sweep import SweepConfig, run_suite\n"
                "assert run_suite(SweepConfig(suite='all', n_max=3), out=io.StringIO()) == 0\n"
                "print(sorted({'multiprocessing', 'concurrent.futures.process'}"
                " & set(sys.modules)))\n"
                "import os\n"
                "forks, fork = [], os.fork\n"
                "os.fork = lambda: forks.append(1) or fork()\n"
                "os.sched_getaffinity = lambda pid: {0, 1}\n"
                "assert run_suite(SweepConfig(suite='all', n_max=3, jobs=2),"
                " out=io.StringIO()) == 0\n"
                "assert forks == [1]\n"
                "print(sorted({'multiprocessing', 'concurrent.futures', 'pickle'}"
                " & set(sys.modules)))\n")
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n[]\n"


class TestTiming:
    def test_run_instance_times_the_check(self, monkeypatch):
        def slow(n, m):
            time.sleep(0.02)
            return make_report("faulhaber", {"n": n, "m": m}, PASS)

        _patch_check(monkeypatch, "faulhaber", slow)
        r = run_instance(("faulhaber", (("n", 3), ("m", 1))))
        assert r.elapsed_ms >= 15
        assert (r.claim_id, r.params, r.status) == ("faulhaber", (("n", 3), ("m", 1)), PASS)

    def test_direct_check_reports_zero(self):
        # thm2 at p = 17 takes milliseconds, yet a direct call is not timed
        assert CLAIMS["thm2"].check((("p", 17), ("a", 16), ("b", 15))).elapsed_ms == 0
        cfg = _cfg(suite="all", n_max=3, m_max=1, a_max=1, prime_set=(3,), sample_count=2)
        first = dict(reversed(enumerate_instances(cfg)))  # each claim's first instance
        assert set(first) == set(CLAIMS)
        for claim_id, params in first.items():
            assert CLAIMS[claim_id].check(params).elapsed_ms == 0, claim_id


class TestRunSuite:
    def test_pass_run_exit_zero(self, capsys):
        cfg = _cfg(suite="identities", n_max=3, a_max=2, prime_set=(2, 3),
                   format="json", stable_output=True)
        code = run_suite(cfg)
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        objs = json.loads(captured.out)
        assert all(o["status"] in ("pass", "skipped") for o in objs)

    def test_forced_failure_exit_one_and_loud_stderr(self, capsys, monkeypatch):
        def broken(**d):
            return make_report("sum_lemma", d, FAIL,
                               witness=Witness("q + 1", "0", "q"))

        _patch_check(monkeypatch, "sum_lemma", broken)
        cfg = _cfg(suite="identities", n_max=2, a_max=1, prime_set=(2,),
                   format="text")
        code = run_suite(cfg)
        captured = capsys.readouterr()
        assert code == 1
        assert "CHECK FAILED" in captured.err
        assert "difference: q" in captured.err

    def test_forced_counterexample_exit_three(self, capsys, monkeypatch):
        def broken(**d):
            return make_report("conjecture", d, FAIL,
                               witness=Witness("17", "0", "17"))

        _patch_check(monkeypatch, "conjecture", broken)
        cfg = _cfg(suite="conjecture", n_max=2, m_max=1)
        code = run_suite(cfg)
        captured = capsys.readouterr()
        assert code == 3
        assert "COUNTEREXAMPLE" in captured.err

    def test_stable_output_identical_across_jobs(self):
        import io
        outs = []
        for jobs in (1, 2):
            cfg = _cfg(suite="faulhaber", n_max=12, m_max=2, jobs=jobs,
                       format="json", stable_output=True)
            buf = io.StringIO()
            assert run_suite(cfg, out=buf) == 0
            outs.append(buf.getvalue())
        assert outs[0] == outs[1]


class TestMain:
    def test_unknown_suite_exits_two(self, capsys):
        assert main(["--suite", "bogus"]) == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_missing_suite_exits_two(self, capsys):
        assert main([]) == 2

    def test_bad_primes_exit_two(self, capsys):
        assert main(["--suite", "thm2", "--primes", "2,x"]) == 2
        assert main(["--suite", "thm2", "--primes", "2,9"]) == 2
        assert "not prime" in capsys.readouterr().err

    def test_empty_selection_exits_two(self, capsys):
        assert main(["--suite", "thm2", "--primes", ","]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "selects no instances" in captured.err

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_crashing_check_exits_four(self, capsys, monkeypatch, jobs):
        def crash(**d):
            raise InternalError("routes disagree")

        _patch_check(monkeypatch, "faulhaber", crash)
        _cpus(monkeypatch, 2)
        assert main(["--suite", "faulhaber", "--n-max", "2", "--m-max", "1",
                     "--jobs", str(jobs)]) == 4
        captured = capsys.readouterr()
        assert "Traceback" in captured.err
        assert "InternalError: routes disagree" in captured.err
        _assert_no_child_left()

    def test_cli_import_loads_no_dataclasses_inspect_or_traceback(self):
        # a fresh interpreter without site packages: importing the CLI loads
        # none of these, and a crash still exits 4 with its traceback
        code = ("import sys\n"
                "sys.path.insert(0, sys.argv[1])\n"
                "import qcong.cli\n"
                "print(sorted({'dataclasses', 'inspect', 'traceback', 'fractions', 'decimal',"
                " 'json'} & set(sys.modules)))\n"
                "from qcong.sweep import CLAIMS\n"
                "def crash(params):\n"
                "    raise RuntimeError('checker crashed')\n"
                "CLAIMS['faulhaber'] = CLAIMS['faulhaber']._replace(check=crash)\n"
                "sys.exit(qcong.cli.main(['--suite', 'faulhaber', '--n-max', '2']))\n")
        proc = subprocess.run([sys.executable, "-S", "-c", code, os.path.join(ROOT, "src")],
                              capture_output=True, text=True, timeout=120)
        assert proc.stdout == "[]\n", proc.stderr
        assert proc.returncode == 4
        assert "Traceback" in proc.stderr
        assert "RuntimeError: checker crashed" in proc.stderr

    # sha256 of the stable output of --suite identities --samples 20 --seed 3,
    # recorded while the package imported fractions with the CLI
    QPFAFF_DIGESTS = {
        "json": "3dbcf60b0845b37acce04015789a43eb75a92050b8392ae1c0aacac6b0b19e0b",
        "text": "13f519a93415f9a95c7d59393a3710f4389fbc790b3ba6faefeee16a211e978b",
    }

    @pytest.mark.parametrize("fmt", sorted(QPFAFF_DIGESTS))
    def test_qpfaff_sweep_imports_fractions_when_it_needs_them(self, fmt):
        # the 20 qpfaff samples are drawn and checked on Fractions, imported
        # only then; the output keeps its bytes
        code = ("import sys\n"
                "sys.path.insert(0, sys.argv[1])\n"
                "import qcong.cli\n"
                "code = qcong.cli.main(['--suite', 'identities', '--samples', '20', '--seed',"
                " '3', '--stable-output', '--format', sys.argv[2]])\n"
                "sys.stderr.write(repr('fractions' in sys.modules))\n"
                "sys.exit(code)\n")
        proc = subprocess.run([sys.executable, "-S", "-c", code, os.path.join(ROOT, "src"),
                               fmt], capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == b"True"
        assert hashlib.sha256(proc.stdout).hexdigest() == self.QPFAFF_DIGESTS[fmt]

    def test_failure_and_counterexample_both_reach_stderr(self, capsys, monkeypatch):
        def broken_faulhaber(**d):
            return make_report("faulhaber", d, FAIL, witness=Witness("9", "0", "1"))

        def broken_conjecture(**d):
            return make_report("conjecture", d, FAIL, witness=Witness("17", "0", "17"))

        _patch_check(monkeypatch, "faulhaber", broken_faulhaber)
        _patch_check(monkeypatch, "conjecture", broken_conjecture)
        assert main(["--suite", "all", "--n-max", "2", "--m-max", "1", "--a-max", "1",
                     "--primes", "2"]) == 1
        err = capsys.readouterr().err
        assert "CHECK FAILED: faulhaber n=1;m=1\n  lhs: 9\n  rhs: 0\n  difference: 1\n" in err
        assert "CONJECTURE COUNTEREXAMPLE: n=1;m=1;k=1\n  value: 17\n  residue: 17\n" in err

    @pytest.mark.parametrize("flag, value", [
        ("--n-max", "0"), ("--m-max", "0"), ("--a-max", "0"),
        ("--samples", "-1"), ("--jobs", "0"), ("--primes", "9"),
    ])
    def test_bad_n_max_exits_two(self, capsys, flag, value):
        assert main(["--suite", "thm1", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_parser_dests_are_config_fields(self):
        dests = {a.dest for a in build_parser()._actions} - {"help"}
        assert dests == set(SweepConfig._fields)

    @pytest.mark.parametrize("suite", SUITES)
    def test_parser_defaults_are_config_defaults(self, suite):
        args = build_parser().parse_args(["--suite", suite])
        assert SweepConfig(**vars(args)) == SweepConfig(suite=suite)

    def test_help_prints_config_defaults(self):
        parser = build_parser()
        defaults = SweepConfig._field_defaults
        # one chunk per option: a line opening with "  -" starts the next one
        chunks = re.split(r"\n(?=  -)", parser.format_help())
        printed = {}
        for chunk in chunks:
            flag = chunk.split()[0]
            match = re.search(r"\(default ([^)]*)\)", " ".join(chunk.split()))
            if match:
                action = parser._option_string_actions[flag]
                parse = action.type or str
                printed[action.dest] = parse(match.group(1))
        assert printed == {name: defaults[name] for name in printed}
        assert set(printed) == {"n_max", "m_max", "a_max", "prime_set", "sample_count",
                                "rng_seed", "jobs", "format"}

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "--suite" in capsys.readouterr().out

    def test_small_run_json(self, capsys):
        code = main(["--suite", "faulhaber", "--n-max", "8", "--m-max", "2",
                     "--format", "json", "--stable-output"])
        captured = capsys.readouterr()
        assert code == 0
        objs = json.loads(captured.out)
        assert len(objs) == 16
        assert {o["claim_id"] for o in objs} == {"faulhaber"}

    def test_jobs_env_default(self, monkeypatch):
        monkeypatch.setenv("QCONG_JOBS", "2")
        seen = []
        monkeypatch.setattr(cli, "run_suite", lambda config: seen.append(config) or 0)
        assert main(["--suite", "faulhaber"]) == 0
        assert seen[0].jobs == 1


# code run before ``cli.run()`` in a fresh interpreter (see ``_run_process``)
CRASH = ("from qcong.sweep import CLAIMS\n"
         "def crash(params):\n"
         "    raise RuntimeError('checker crashed')\n"
         "CLAIMS['faulhaber'] = CLAIMS['faulhaber']._replace(check=crash)\n")
COUNTEREXAMPLE = ("from qcong.sweep import CLAIMS\n"
                  "from qcong.congruence import FAIL, Witness\n"
                  "from oracles import make_report\n"
                  "def broken(params):\n"
                  "    return make_report('conjecture', dict(params), FAIL,"
                  " witness=Witness('17', '0', '17'))\n"
                  "CLAIMS['conjecture'] = CLAIMS['conjecture']._replace(check=broken)\n")
WEIGHTED_SUMS_PLUS_ONE = ("import types, oracles\n"
                          "oracles.weighted_sums_plus_one(types.SimpleNamespace(setattr=setattr))\n")
UNFLUSHABLE = ("import io\n"
               "class Unflushable(io.StringIO):\n"
               "    def flush(self):\n"
               "        raise OSError(28, 'No space left on device')\n"
               "sys.%s = Unflushable()\n")
# 571 instances fail under weighted_sums_plus_one
ALL_SMALL = ["--suite", "all", "--n-max", "6", "--m-max", "2", "--a-max", "6",
             "--samples", "100", "--seed", "3", "--stable-output"]


def _run_process(argv, setup="", **kw):
    """``cli.run()`` with ``argv`` in a fresh interpreter, ``src`` and
    ``tests`` on its path, after ``setup``; help is laid out 80 columns wide."""
    path = os.pathsep.join([os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")])
    code = "import sys\n" + setup + "from qcong import cli\ncli.run()\n"
    return subprocess.run([sys.executable, "-c", code] + argv,
                          env=dict(os.environ, PYTHONPATH=path, COLUMNS="80"),
                          capture_output=True, text=True, timeout=120, **kw)


class TestProcessEntry:
    @pytest.mark.parametrize("argv, setup, code, err", [
        (["--suite", "faulhaber", "--n-max", "4"], "", 0, ""),
        (["--suite", "thm1", "--n-max", "0"], "", 2,
         "error: n_max must be a positive integer\n"),
        (["--suite", "faulhaber", "--n-max", "2"], CRASH, 4,
         "RuntimeError: checker crashed\n"),
        (["--suite", "conjecture", "--n-max", "2", "--m-max", "1"], COUNTEREXAMPLE, 3,
         "CONJECTURE COUNTEREXAMPLE: n=2;m=1;k=1\n  value: 17\n  residue: 17\n"),
    ], ids=["pass", "usage", "crash", "counterexample"])
    def test_exit_code(self, argv, setup, code, err):
        proc = _run_process(argv, setup)
        assert proc.returncode == code, proc.stderr
        assert proc.stderr.endswith(err)
        assert bool(proc.stderr) == bool(code)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("setup", ["", WEIGHTED_SUMS_PLUS_ONE],
                             ids=["pass", "weighted-sums-plus-one"])
    def test_writes_what_main_writes(self, capsys, monkeypatch, setup, jobs):
        # the report reaches stdout, and every CHECK FAILED block stderr, whole
        argv = ALL_SMALL + ["--format", "json", "--jobs", str(jobs)]
        if setup:
            weighted_sums_plus_one(monkeypatch)
        code = main(argv)
        captured = capsys.readouterr()
        proc = _run_process(argv, setup)
        assert (proc.returncode, code) == ((1, 1) if setup else (0, 0)), proc.stderr
        assert proc.stdout == captured.out
        assert proc.stderr == captured.err
        assert proc.stderr.count("CHECK FAILED: ") == (571 if setup else 0)

    def test_help_is_complete(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        proc = _run_process(["--help"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == build_parser().format_help()

    @pytest.mark.parametrize("argv", [["--suite", "faulhaber", "--n-max", "4"], ["--help"]])
    def test_closed_stdout_exits_four(self, argv):
        # as `qcong ... >&-` starts it: sys.stdout is None
        proc = _run_process(argv, preexec_fn=lambda: os.close(1))
        assert proc.returncode == 4
        assert proc.stderr.endswith("error: the report could not be written: "
                                    "stdout is closed\n")

    def test_closed_stderr_on_a_pass_exits_zero(self, capsys):
        # nothing was lost: the report is whole and no failure block was due
        argv = ["--suite", "thm1", "--n-max", "6", "--stable-output"]
        proc = _run_process(argv, preexec_fn=lambda: os.close(2))
        assert proc.returncode == 0
        assert main(argv) == 0
        assert proc.stdout == capsys.readouterr().out

    def test_both_launch_paths_end_through_run(self):
        with open(os.path.join(ROOT, "pyproject.toml")) as fh:
            assert '\nqcong = "qcong.cli:run"\n' in fh.read()
        # main() alone returns 0 here: argparse writes the help to stderr
        proc = subprocess.run([sys.executable, "-m", "qcong.cli", "--help"],
                              env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
                              capture_output=True, text=True, timeout=120,
                              preexec_fn=lambda: os.close(1))
        assert proc.returncode == 4, proc.stderr

    @pytest.mark.parametrize("setup, fails", [("", 0), (WEIGHTED_SUMS_PLUS_ONE, 86)],
                             ids=["pass", "weighted-sums-plus-one"])
    def test_failed_flush_exits_four(self, setup, fails):
        # a report that main() wrote but that could not be flushed, never exit 0 or 1
        proc = _run_process(["--suite", "thm1", "--n-max", "6"], setup + UNFLUSHABLE % "stdout")
        assert proc.returncode == 4
        assert proc.stderr.endswith("error: the report could not be written: "
                                    "[Errno 28] No space left on device\n")
        assert proc.stderr.count("CHECK FAILED: ") == fails

    @pytest.mark.parametrize("setup, fails", [("", 0), (WEIGHTED_SUMS_PLUS_ONE, 86)],
                             ids=["pass", "weighted-sums-plus-one"])
    def test_failed_stderr_flush_exits_four(self, setup, fails):
        # the failure blocks may be lost: exit 4, never 0 or 1
        proc = _run_process(["--suite", "thm1", "--n-max", "6"], setup + UNFLUSHABLE % "stderr")
        assert proc.returncode == 4
        assert proc.stdout.endswith("summary: %d pass, %d fail, 0 skipped\n"
                                    % (360 - fails, fails))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_the_sweep_runs_with_the_collector_off(self, jobs):
        setup = ("import gc\n"
                 "from qcong.sweep import CLAIMS\n"
                 "row = CLAIMS['faulhaber']\n"
                 "def check(params):\n"
                 "    sys.stderr.write('sweep %s\\n' % gc.isenabled())\n"
                 "    return row.check(params)\n"
                 "CLAIMS['faulhaber'] = row._replace(check=check)\n"
                 "sys.stderr.write('import %s\\n' % gc.isenabled())\n")
        proc = _run_process(["--suite", "faulhaber", "--n-max", "12", "--jobs", str(jobs)],
                            setup)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stderr.splitlines()
        assert lines[0] == "import True"
        assert sorted(lines[1:]) == ["sweep False"] * 24

    @pytest.mark.parametrize("enabled", [True, False])
    def test_main_leaves_the_collector_as_it_found_it(self, capsys, enabled):
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            assert main(["--suite", "faulhaber", "--n-max", "4"]) == 0
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("corrupt", [None, weighted_sums_plus_one],
                             ids=["pass", "weighted-sums-plus-one"])
    @pytest.mark.parametrize("suite", SUITES)
    def test_a_sweep_makes_no_cyclic_garbage(self, monkeypatch, suite, corrupt, jobs):
        # run() turns the collector off on this premise: a sweep that made
        # cycles would keep them until exit and grow its peak RSS
        if corrupt:
            corrupt(monkeypatch)
        _cpus(monkeypatch, 2)
        config = SweepConfig(suite=suite, n_max=6, m_max=2, a_max=6, sample_count=100,
                             rng_seed=3, jobs=jobs)
        was = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            for fmt in FORMATS:
                run_suite(config._replace(format=fmt), out=io.StringIO(), err=io.StringIO())
            assert gc.collect() == 0
        finally:
            if was:
                gc.enable()
        _assert_no_child_left()


class TestClaimTable:
    def _readme_table(self):
        with open(README) as fh:
            text = fh.read()
        section = text.split("## What is verified", 1)[1].split("\n## ", 1)[0]
        return re.findall(r"^\| `(\w+)`\s+\|", section, flags=re.M)

    def test_readme_claims_match_table(self):
        ids = self._readme_table()
        assert len(ids) == len(set(ids))
        assert set(ids) == set(CLAIMS)

    def test_cli_suites_are_table_suites_plus_all(self):
        choices = next(a.choices for a in build_parser()._actions
                       if a.dest == "suite")
        assert sorted(choices) == sorted({c.suite for c in CLAIMS.values()} | {"all"})
