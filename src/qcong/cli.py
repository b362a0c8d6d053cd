"""Command line front end.

Usage:
    qcong --suite thm1 --n-max 20 --samples 100 --seed 7 --format json

Exit codes: 0 all checks passed (skips allowed), 1 a theorem or identity
check failed, 2 usage error (including a selection with no instances), 3
conjecture counterexample found, 4 a check crashed (the traceback goes to
stderr).  --jobs defaults to the QCONG_JOBS environment variable when set,
else 1.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback

from .sweep import DEFAULT_PRIMES, FORMATS, SUITES, SweepConfig, UsageError, run_suite


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("%r is not an integer" % (text,))
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1, got %d" % value)
    return value


def _nonnegative_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("%r is not an integer" % (text,))
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0, got %d" % value)
    return value


def _prime_list(text):
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected comma-separated integers, got %r" % (text,))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qcong",
        description="Exact-arithmetic verification sweeps for q-binomial "
                    "congruences and power-sum divisibilities.")
    parser.add_argument("--suite", required=True, choices=SUITES,
                        help="which family of checks to run")
    parser.add_argument("--n-max", type=_positive_int, default=10,
                        help="largest modulus index n (default 10)")
    parser.add_argument("--m-max", type=_positive_int, default=2,
                        help="largest tuple length / exponent index (default 2)")
    parser.add_argument("--a-max", type=_positive_int, default=4,
                        help="largest entry in the a-tuples (default 4)")
    parser.add_argument("--primes", type=_prime_list, default=DEFAULT_PRIMES,
                        metavar="P1,P2,...",
                        help="primes for the prime-indexed suites "
                             "(default 2,3,5,7,11,13)")
    parser.add_argument("--samples", type=_nonnegative_int, default=0,
                        help="number of extra seeded random instances (default 0)")
    parser.add_argument("--seed", type=int, default=0,
                        help="SplitMix64 seed for sampled instances (default 0)")
    parser.add_argument("--jobs", type=_positive_int, default=None,
                        help="worker processes (default: QCONG_JOBS or 1)")
    parser.add_argument("--format", choices=FORMATS, default="text",
                        help="report format (default text)")
    parser.add_argument("--fail-fast", action="store_true",
                        help="stop at the first failing check")
    parser.add_argument("--stable-output", action="store_true",
                        help="zero elapsed_ms so identical runs render identically")
    return parser


def _jobs_from_env():
    raw = os.environ.get("QCONG_JOBS")
    if raw is None:
        return 1
    try:
        jobs = int(raw)
    except ValueError:
        raise UsageError("QCONG_JOBS=%r is not an integer" % (raw,))
    if jobs < 1:
        raise UsageError("QCONG_JOBS must be >= 1, got %d" % jobs)
    return jobs


def config_from_args(args):
    jobs = args.jobs if args.jobs is not None else _jobs_from_env()
    return SweepConfig(
        suite=args.suite,
        n_max=args.n_max,
        m_max=args.m_max,
        a_max=args.a_max,
        prime_set=args.primes,
        sample_count=args.samples,
        rng_seed=args.seed,
        jobs=jobs,
        format=args.format,
        fail_fast=args.fail_fast,
        stable_output=args.stable_output,
    )


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through
        return int(exc.code or 0)
    try:
        config = config_from_args(args)
        return run_suite(config)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception:
        # a crash must not read as exit 1, "a theorem was falsified"
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(main())
