"""Tests of the benchmark itself, at the tiny size of every workload.

    python3 -m pytest perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)

sys.path.insert(0, BENCH)
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--size", "tiny",
         "--seconds", "1", "--seed", "1"] + list(args),
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in WORKLOADS.values()]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_emitted(workload, trace, section):
    proc = run_bench("--workload", workload, "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert "error_share: 0.0 " in proc.stdout


def copy_checkout(tmp_path, with_package=True):
    """The benchmark (and, by default, the package) copied under ``tmp_path``."""
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=skip)
    if with_package:
        shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src", ignore=skip)
    return str(tmp_path)


def test_corrupted_digest_is_reported_through_error_share(tmp_path):
    checkout = copy_checkout(tmp_path)
    digests_path = tmp_path / "perfbench" / "digests.json"
    digests = json.loads(digests_path.read_text())
    digests["thm1-grid/tiny"] = "0" * 64
    digests_path.write_text(json.dumps(digests))
    proc = run_bench("--workload", "thm1-grid", "--trace", "0", cwd=checkout)
    assert proc.returncode == 1
    result = result_of(proc)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert "error_share: 1.0 " in proc.stdout
    assert "differs from the recorded digest" in proc.stderr


def test_traced_counts_repeat_exactly():
    runs = [result_of(run_bench("--workload", "mixed-small", "--trace", "1"))
            for _ in range(2)]
    counts = [{name: m["value"] for name, m in r["metrics"].items()
               if m["unit"] == "count"} for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["poly.mul.calls"] > 0


def test_fails_without_the_package(tmp_path):
    checkout = copy_checkout(tmp_path, with_package=False)
    proc = run_bench("--workload", "thm1-grid", "--trace", "0", cwd=checkout)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
