"""The qcong benchmark: fixed verification sweeps timed from outside the package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--size full|tiny]

Run from the root of a checkout.  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` measures the end-to-end metrics: ``setup_s`` is the median of
several fresh processes that import qcong, validate the ``SweepConfig`` and
enumerate the instances; then whole sweeps are repeated, at least twice and
then while a typical repetition still ends within ``--seconds``, and
``instances_per_s``, ``wall_s`` and ``peak_rss_mb`` are medians over those
repetitions.  ``error_share`` is ``failed / attempted``.

``--trace 1`` gives the per-layer metrics from one traced sweep at jobs 1
(see ``tracer.py``), plus two untraced sweeps that time ``sweep.execute`` at
jobs 1 and jobs 2 for ``sweep.pool_efficiency`` and
``trace.overhead_share``.

Every repetition runs in a fresh interpreter.  The package keeps module-level
caches that survive between calls in one process (``_PRODUCT_CACHE``, the
``lru_cache`` on ``q_factorial`` and ``_multinom_factor_cached``, the sweep's
``_worker_cache``), and forked pool workers inherit a warm parent cache.
Rerunning 600 wide thm1/q1 instances in the same process took 0.77 s against
6.45 s cold (2-vCPU Xeon, Python 3.11), so back-to-back jobs-1 then jobs-2
runs in one process would read as a 5x pool speed-up that is really cache
hits.

Every sweep, timed or not, passes the correctness gate: exit code 0, one
report per enumerated instance, every status ``pass`` (``skipped`` only for
``qpfaff``), and, where a digest is recorded for the instance set, the
sha256 of the stable JSON output equals it.  An instance that fails any of
these counts as failed; a sweep that crashes or whose output differs from
the digest counts all of its instances as failed.  The reports'
``elapsed_ms`` is never read: it is whole milliseconds and mostly 0.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter

from workloads import DEFAULT_SEED, HERE, ROOT, SRC, WORKLOADS, cli_argv, instance_key

CHILD = os.path.join(HERE, "child.py")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
DIGESTS = os.path.join(HERE, "digests.json")

SETUP_REPS = 15
MIN_REPS = 2
CHILD_LIMIT_S = 170.0
KB_PER_MB = 1024.0


# --- child processes ----------------------------------------------------------------

def _child_env():
    """The caller's environment minus settings that change what a sweep costs.

    Bytecode is written (by the untimed warm-up probe) and read back, as after
    an install; ``QCONG_JOBS`` would override a workload's ``--jobs``.
    """
    env = dict(os.environ)
    for name in ("QCONG_JOBS", "PYTHONDONTWRITEBYTECODE", "PYTHONUNBUFFERED"):
        env.pop(name, None)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def _kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(argv, run_dir, label):
    """Run one child to completion; return (exit code, wall s, peak RSS MB, stdout path).

    The child leads its own process group, so pool workers that outlive it
    are killed with it.  Peak RSS is the kernel's ``ru_maxrss`` from
    ``wait4``: the largest resident set of the child and of the pool workers
    it waited for.
    """
    out_path = os.path.join(run_dir, label + ".out")
    err_path = os.path.join(run_dir, label + ".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdout=out,
                                stderr=err, start_new_session=True)
        timer = threading.Timer(CHILD_LIMIT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)
    return proc.returncode, wall, usage.ru_maxrss / KB_PER_MB, out_path


def _probe_argv(name, size, seed, keys_out=None):
    return [sys.executable, CHILD, "probe", name, size, str(seed)] + (
        [keys_out] if keys_out else [])


def _sweep_argv(workload, size, seed, jobs=None, extra=()):
    """The timed sweep: the real CLI for ``cli`` workloads."""
    if workload.kind == "cli" and not extra:
        return [sys.executable, "-m", "qcong.cli"] + cli_argv(
            workload.config(size, seed, jobs))
    return [sys.executable, CHILD, "sweep", workload.name, size, str(seed),
            str(workload.jobs if jobs is None else jobs)] + list(extra)


def _stderr_tail(out_path):
    err_path = out_path[:-len(".out")] + ".err"
    with open(err_path, errors="replace") as fh:
        return fh.read()[-2000:]


# --- correctness gate -----------------------------------------------------------------

class Gate:
    """Counts attempted and failed instances over every sweep of a run.

    Sampled instance lists may repeat an instance, so enumerated and reported
    instances are compared as multisets.
    """

    def __init__(self, expected_keys, digest):
        self.expected = Counter(expected_keys)
        self.count = len(expected_keys)
        self.digest = digest
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check_sweep(self, label, code, out_path):
        self.attempted += self.count
        failed, reason = self._failures(code, out_path)
        if failed:
            self.failed += failed
            self.problems.append("%s: %d of %d instances failed (%s)"
                                 % (label, failed, self.count, reason))
            if code != 0:
                self.problems.append(_stderr_tail(out_path))

    def check_probe(self, label, code, out_path):
        with open(out_path) as fh:
            text = fh.read().strip()
        if code != 0 or text != str(self.count):
            self.attempted += self.count
            self.failed += self.count
            self.problems.append("%s: exit code %d, instance count %r, expected %d"
                                 % (label, code, text, self.count))

    def _failures(self, code, out_path):
        everything = self.count
        if code != 0:
            return everything, "exit code %d" % code
        with open(out_path, "rb") as fh:
            data = fh.read()
        if self.digest is not None and hashlib.sha256(data).hexdigest() != self.digest:
            return everything, "stable output differs from the recorded digest"
        try:
            reports = json.loads(data)
        except ValueError:
            return everything, "output is not JSON"
        reported, passing = Counter(), Counter()
        for r in reports:
            key = instance_key(r["claim_id"], r["params"].items())
            reported[key] += 1
            if r["status"] == "pass" or (r["status"] == "skipped"
                                         and r["claim_id"] == "qpfaff"):
                passing[key] += 1
        failed = sum((self.expected - passing).values())
        failed += sum((reported - self.expected).values())
        return failed, "missing, unexpected or not passing"


def _digest_for(workload, size, seed):
    """The recorded digest, when it applies to this instance set, else None."""
    if seed != DEFAULT_SEED and workload.seeded(size):
        return None
    with open(DIGESTS) as fh:
        digests = json.load(fh)
    key = "%s/%s" % (workload.name, size)
    if key not in digests:
        raise SystemExit("no digest recorded for %s in %s" % (key, DIGESTS))
    return digests[key]


def _prepare(workload, size, seed, run_dir):
    """Untimed warm-up probe: compiles bytecode and lists the expected instances."""
    keys_path = os.path.join(run_dir, "expected.json")
    code, _, _, out_path = spawn(_probe_argv(workload.name, size, seed, keys_path),
                                 run_dir, "warmup")
    if code != 0:
        raise SystemExit("set-up probe failed:\n" + _stderr_tail(out_path))
    with open(keys_path) as fh:
        expected = json.load(fh)
    return Gate(expected, _digest_for(workload, size, seed))


# --- the two kinds of run -------------------------------------------------------------

def end_to_end(workload, size, seed, seconds, gate, run_dir):
    setup = []
    for i in range(SETUP_REPS):
        code, wall, _, out_path = spawn(_probe_argv(workload.name, size, seed),
                                     run_dir, "setup")
        gate.check_probe("setup %d" % i, code, out_path)
        setup.append(wall)
    walls, rss = [], []
    deadline = time.perf_counter() + seconds
    # start another repetition only if a typical one still ends in time
    while (len(walls) < MIN_REPS
           or time.perf_counter() + statistics.median(walls) <= deadline):
        code, wall, peak, out_path = spawn(_sweep_argv(workload, size, seed),
                                       run_dir, "sweep")
        gate.check_sweep("sweep %d" % len(walls), code, out_path)
        walls.append(wall)
        rss.append(peak)
    count = gate.count
    metrics = {
        "instances_per_s": (statistics.median(count / w for w in walls), "1/s"),
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    samples = {"wall_s": walls, "setup_s": setup, "peak_rss_mb": rss}
    return metrics, samples


def _load_json(path):
    """A child's side file, or None when the child died before writing it."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return None


def per_layer(workload, size, seed, gate, run_dir):
    execute_s, walls = {}, {}
    for jobs in (1, 2):
        time_path = os.path.join(run_dir, "execute-jobs%d.json" % jobs)
        code, walls[jobs], _, out_path = spawn(
            _sweep_argv(workload, size, seed, jobs, ("--execute-time", time_path)),
            run_dir, "execute-jobs%d" % jobs)
        gate.check_sweep("untraced jobs %d" % jobs, code, out_path)
        execute_s[jobs] = _load_json(time_path)
    trace_dir = os.path.join(run_dir, "trace")
    code, traced_wall, _, out_path = spawn(
        _sweep_argv(workload, size, seed, 1, ("--trace", trace_dir)), run_dir, "traced")
    gate.check_sweep("traced", code, out_path)
    layers = _load_json(os.path.join(trace_dir, "layers.json")) or {}
    metrics = {name: tuple(v) for name, v in layers.items()}
    if execute_s[1] and execute_s[2]:
        metrics["sweep.pool_efficiency"] = (execute_s[1] / (2 * execute_s[2]), "ratio")
    metrics["trace.overhead_share"] = ((traced_wall - walls[1]) / walls[1], "ratio")
    samples = {"untraced_wall_s": [walls[1]], "traced_wall_s": [traced_wall],
               "execute_jobs1_s": [execute_s[1]], "execute_jobs2_s": [execute_s[2]]}
    return metrics, samples


# --- results -----------------------------------------------------------------------------

def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True)
    except OSError:
        return None
    return result.stdout.strip() or None


def _source_sha256():
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "qcong", "*.py"))):
        digest.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def _environment(args):
    return {
        "workload": args.workload, "size": args.size, "seed": args.seed,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "cpu": _cpu_model(),
        "commit": _commit(), "source_sha256": _source_sha256(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qcong", "__init__.py")):
        print("error: no qcong package under %s" % SRC, file=sys.stderr)
        return 2
    # one directory per kind of run, emptied by the next run of that kind
    run_dir = os.path.join(OUT_DIR, "%s-%s-seed%d-trace%d"
                           % (args.workload, args.size, args.seed, args.trace))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    workload = WORKLOADS[args.workload]
    gate = _prepare(workload, args.size, args.seed, run_dir)
    if args.trace:
        metrics, samples = per_layer(workload, args.size, args.seed, gate, run_dir)
    else:
        metrics, samples = end_to_end(workload, args.size, args.seed, args.seconds,
                                      gate, run_dir)

    for problem in gate.problems:
        print("GATE: " + problem, file=sys.stderr)
    print("environment: " + json.dumps(_environment(args)))
    print("samples: " + json.dumps(samples))
    print("error_share: %r (%d failed of %d attempted)"
          % (gate.failed / gate.attempted, gate.failed, gate.attempted))
    for name, (value, unit) in metrics.items():
        print("%-40s %r %s" % (name, value, unit))
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if gate.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
