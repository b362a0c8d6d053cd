"""The benchmark's workloads: fixed sweeps of the qcong package.

Each workload is a set of ``SweepConfig`` fields at two sizes: ``full`` is
what the benchmark measures, ``tiny`` is what the benchmark's own tests run.
The workload seed only reaches the sampled instances (``sample_count > 0``);
the exhaustive workloads enumerate the same instances for every seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

DEFAULT_SEED = 1

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Sweeps at every size render JSON with zeroed elapsed_ms, so the output of a
# given instance set is byte-exact and its sha256 can be recorded.
_OUTPUT = {"format": "json", "stable_output": True}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``kind`` is ``cli`` for a sweep run as ``python3 -m qcong.cli``, or
    ``samples`` for seeded thm1/q1 samples alone, which the CLI cannot run
    because ``--suite thm1`` always adds the exhaustive grid.
    """

    name: str
    why: str
    kind: str
    jobs: int
    sizes: dict

    def config(self, size, seed, jobs=None):
        """``SweepConfig`` keyword arguments for one sweep of this workload."""
        return dict(self.sizes[size], rng_seed=seed,
                    jobs=self.jobs if jobs is None else jobs, **_OUTPUT)

    def seeded(self, size):
        return self.sizes[size].get("sample_count", 0) > 0


WORKLOADS = {w.name: w for w in (
    Workload(
        name="thm1-grid",
        why="exhaustive thm1/q1 grid (n<=22, m<=3, a<=5), serial, with heavy reuse "
            "of binomials and products; traced at this size, poly.mul takes 39% of "
            "the time and exact division 28%",
        kind="cli", jobs=1,
        sizes={
            "full": {"suite": "thm1", "n_max": 22, "m_max": 3, "a_max": 5},
            "tiny": {"suite": "thm1", "n_max": 5, "m_max": 2, "a_max": 2},
        }),
    Workload(
        name="thm2-primes",
        why="thm2 over the primes 17 and 19, serial: few large instances; traced at "
            "this size, exact division by [p]^2 takes 59% of the time and poly.mul "
            "30%",
        kind="cli", jobs=1,
        sizes={
            "full": {"suite": "thm2", "prime_set": (17, 19)},
            "tiny": {"suite": "thm2", "prime_set": (3, 5)},
        }),
    Workload(
        name="mixed-small",
        why="every claim at small bounds with 200 seeded samples, serial: 11,121 "
            "cheap instances; traced, poly.mul and exact division take 50% of the "
            "time and rendering 6%",
        kind="cli", jobs=1,
        sizes={
            "full": {"suite": "all", "n_max": 12, "m_max": 3, "a_max": 6,
                     "sample_count": 200},
            "tiny": {"suite": "all", "n_max": 4, "m_max": 2, "a_max": 2,
                     "prime_set": (2, 3), "sample_count": 5},
        }),
    Workload(
        name="thm1-wide-jobs2",
        why="2,000 seeded wide-range thm1/q1 samples at --jobs 2, the only workload "
            "on the process-pool path of sweep.execute; traced at jobs 1, poly.mul "
            "takes 85% of the time",
        kind="samples", jobs=2,
        sizes={
            "full": {"suite": "thm1", "n_max": 40, "m_max": 5, "a_max": 8,
                     "sample_count": 1000},
            "tiny": {"suite": "thm1", "n_max": 8, "m_max": 3, "a_max": 3,
                     "sample_count": 10},
        }),
)}


def instance_key(claim_id, params):
    """One string per instance, shared by enumerated and reported instances.

    ``params`` is a sequence of (name, integer) pairs.
    """
    return claim_id + "|" + ";".join("%s=%d" % kv for kv in params)


def cli_argv(kw):
    """The ``qcong`` command line for a config built by ``Workload.config``."""
    argv = ["--suite", kw["suite"], "--seed", str(kw["rng_seed"]),
            "--jobs", str(kw["jobs"]), "--format", kw["format"]]
    for key, flag in (("n_max", "--n-max"), ("m_max", "--m-max"),
                      ("a_max", "--a-max"), ("sample_count", "--samples")):
        if key in kw:
            argv += [flag, str(kw[key])]
    if "prime_set" in kw:
        argv += ["--primes", ",".join(str(p) for p in kw["prime_set"])]
    if kw["stable_output"]:
        argv.append("--stable-output")
    return argv
