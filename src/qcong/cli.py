"""Command line front end.

Usage:
    qcong --suite thm1 --n-max 20 --samples 100 --seed 7 --format json

The parser only parses: each flag's dest is a ``SweepConfig`` field whose
default it takes from the named tuple's ``_field_defaults`` (the help text
prints those values), and ``SweepConfig.validate`` judges every value, so an
out-of-range flag is a usage error that names the field.

Exit codes: 0 all checks passed (skips allowed), 1 a theorem or identity
check failed, 2 usage error (including a selection with no instances), 3
conjecture counterexample found, 4 a check crashed (the traceback goes to
stderr; ``traceback`` is imported only then, so a sweep that does not crash
does not pay for it).
"""

from __future__ import annotations

import argparse
import sys

from .sweep import FORMATS, SUITES, SweepConfig, UsageError, run_suite


def _prime_list(text):
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected comma-separated integers, got %r" % (text,))


def build_parser():
    defaults = SweepConfig._field_defaults
    parser = argparse.ArgumentParser(
        prog="qcong",
        description="Exact-arithmetic verification sweeps for q-binomial "
                    "congruences and power-sum divisibilities.")
    parser.set_defaults(**defaults)
    parser.add_argument("--suite", required=True, choices=SUITES,
                        help="which family of checks to run")
    parser.add_argument("--n-max", type=int,
                        help="largest modulus index n (default %(default)s)")
    parser.add_argument("--m-max", type=int,
                        help="largest tuple length / exponent index (default %(default)s)")
    parser.add_argument("--a-max", type=int,
                        help="largest entry in the a-tuples (default %(default)s)")
    parser.add_argument("--primes", dest="prime_set", type=_prime_list,
                        metavar="P1,P2,...",
                        help="primes for the prime-indexed suites (default %s)"
                             % ",".join(map(str, defaults["prime_set"])))
    parser.add_argument("--samples", dest="sample_count", type=int, metavar="SAMPLES",
                        help="number of extra seeded random instances "
                             "(default %(default)s)")
    parser.add_argument("--seed", dest="rng_seed", type=int, metavar="SEED",
                        help="SplitMix64 seed for sampled instances (default %(default)s)")
    parser.add_argument("--jobs", type=int,
                        help="worker processes (default %(default)s)")
    parser.add_argument("--format", choices=FORMATS,
                        help="report format (default %(default)s)")
    parser.add_argument("--fail-fast", action="store_true",
                        help="stop at the first failing check")
    parser.add_argument("--stable-output", action="store_true",
                        help="zero elapsed_ms so identical runs render identically")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through
        return int(exc.code or 0)
    try:
        return run_suite(SweepConfig(**vars(args)))
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception:
        # a crash must not read as exit 1, "a theorem was falsified"
        import traceback  # only a crash pays for the module

        traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(main())
