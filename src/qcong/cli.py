"""Command line front end.

Usage:
    qcong --suite thm1 --n-max 20 --format json
    qcong --suite identities --samples 100 --seed 7

The parser only parses: each flag's dest is a ``SweepConfig`` field whose
default it takes from the named tuple's ``_field_defaults`` (the help text
prints those values), and ``SweepConfig.validate`` judges every value, so an
out-of-range flag is a usage error that names the field.

Exit codes: 0 all checks passed (skips allowed), 1 a theorem or identity
check failed, 2 usage error (including a selection with no instances), 3
conjecture counterexample found, 4 a check crashed (the traceback goes to
stderr; ``traceback`` is imported only then, so a sweep that does not crash
does not pay for it) or the report could not be written.

``main(argv)`` is the in-process entry: it returns the exit code and leaves
the process and the cyclic collector as it found them.  ``run()`` is the
process entry of the ``qcong`` console script and of ``python -m
qcong.cli``: it runs ``main()`` with the cyclic collector off, flushes
stdout and stderr, and ends the process by ``os._exit``, without
finalizing the interpreter.
"""

from __future__ import annotations

import argparse
import gc
import os
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
                        help="number of seeded random qpfaff points for the "
                             "identities suite (default %(default)s)")
    parser.add_argument("--seed", dest="rng_seed", type=int, metavar="SEED",
                        help="SplitMix64 seed for sampled instances (default %(default)s)")
    parser.add_argument("--jobs", type=int,
                        help="processes that check instances (default %(default)s)")
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


def run():
    """Run ``main()`` and end the process with its exit code.

    A sweep makes no reference cycles (``tests/test_cli.py`` pins that), so
    the cyclic collector's passes over its memo entries and reports find
    nothing, and freeing them one at a time at interpreter exit is work that
    no one reads: the collector is off, and the process leaves by
    ``os._exit``.  Forked ``--jobs`` children inherit the collector off.
    Only a return from ``main()`` takes this exit; an exception such as
    ``KeyboardInterrupt`` propagates as usual.  A report that cannot be
    flushed, or a stdout that is None because fd 1 was closed at start-up,
    exits 4, never 1.
    """
    gc.disable()
    code = main()
    note = ""
    try:
        sys.stdout.flush()
    except Exception as exc:  # EPIPE, ENOSPC; AttributeError: fd 1 was closed at start-up
        code = 4
        note = "error: the report could not be written: %s\n" % (
            "stdout is closed" if sys.stdout is None else exc)
    if sys.stderr is not None:
        try:
            sys.stderr.write(note)
            sys.stderr.flush()
        except Exception:  # stderr is broken too: the failure blocks may be lost
            code = 4
    os._exit(code)


if __name__ == "__main__":
    run()
