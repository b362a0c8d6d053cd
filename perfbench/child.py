"""Programs the benchmark runs in fresh interpreters.

    python3 perfbench/child.py probe WORKLOAD SIZE SEED [KEYS_OUT]
    python3 perfbench/child.py sweep WORKLOAD SIZE SEED JOBS [--execute-time FILE]
                                     [--trace DIR]

``probe`` is set-up alone: import qcong, validate the ``SweepConfig`` and
enumerate the instances; it prints the instance count and, given KEYS_OUT,
writes every instance key there for the correctness gate.

``sweep`` runs one whole sweep and writes its stable JSON report to stdout.
A ``cli`` workload goes through ``qcong.cli.main``, a ``samples`` workload
through ``thm1_sample_instances``, ``execute`` and ``render_report``.  With
``--execute-time`` only ``sweep.execute`` is timed; with ``--trace`` every
public function of the package is wrapped (see ``tracer.py``).
"""

from __future__ import annotations

import json
import sys
import time

from workloads import SRC, WORKLOADS, cli_argv, instance_key


def import_qcong():
    """Make the checkout's ``src`` importable and return ``qcong.sweep``."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from qcong import sweep
    return sweep


def _config(sweep, workload, size, seed, jobs=None):
    config = sweep.SweepConfig(**workload.config(size, seed, jobs))
    config.validate()
    return config


def _enumerate(sweep, workload, config):
    if workload.kind == "samples":
        return sweep.thm1_sample_instances(config.sample_count, config.rng_seed,
                                           config.n_max, config.m_max, config.a_max)
    return sweep.enumerate_instances(config)


def probe(workload, size, seed, keys_out=None):
    sweep = import_qcong()
    instances = _enumerate(sweep, workload, _config(sweep, workload, size, seed))
    print(len(instances))
    if keys_out:
        with open(keys_out, "w") as fh:
            json.dump([instance_key(c, p) for c, p in instances], fh)
    return 0


def _samples_sweep(sweep, workload, size, seed, jobs):
    config = _config(sweep, workload, size, seed, jobs)
    instances = _enumerate(sweep, workload, config)
    reports = sorted(sweep.execute(instances, jobs=config.jobs),
                     key=lambda r: r.sort_key)
    sys.stdout.write(sweep.render_report(reports, config.format,
                                         stable=config.stable_output))
    return sweep.exit_code_for(reports)


def run_sweep(workload, size, seed, jobs, execute_time=None, trace_dir=None):
    sweep = import_qcong()
    from qcong import cli

    tracer = None
    if trace_dir:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    elif execute_time:
        inner = sweep.execute
        elapsed = []

        def timed_execute(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                elapsed.append(time.perf_counter() - t0)

        sweep.execute = timed_execute

    if workload.kind == "cli":
        code = cli.main(cli_argv(workload.config(size, seed, jobs)))
    else:
        code = _samples_sweep(sweep, workload, size, seed, jobs)
    sys.stdout.flush()

    if tracer is not None:
        tracer.write(trace_dir, workload.kind)
    elif execute_time:
        with open(execute_time, "w") as fh:
            json.dump(sum(elapsed), fh)
    return code


def main(argv):
    mode, name, size, seed = argv[0], argv[1], argv[2], int(argv[3])
    workload = WORKLOADS[name]
    if mode == "probe":
        return probe(workload, size, seed, argv[4] if len(argv) > 4 else None)
    jobs = int(argv[4])
    opts = dict(zip(argv[5::2], argv[6::2]))
    return run_sweep(workload, size, seed, jobs,
                     execute_time=opts.get("--execute-time"),
                     trace_dir=opts.get("--trace"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
