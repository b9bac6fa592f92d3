"""Smoke tests for the benchmark itself (not for pabraid).

    python3 -m pytest perfbench -q

Each test runs a workload at a tiny size; together they take under half a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import workloads
from workloads import Call

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TINY_ROUNDS = {"small-members": 30, "large-members": 1, "verify-quick": 1, "verify-mix": 1}


def _argv_lists(workload: str, seed: int, count: int = 3):
    return [[call.argv for call in rnd] for rnd in workloads.first_rounds(workload, seed, count)]


def _worker(config: dict) -> dict:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(config)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr + proc.stdout
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_calls(workload):
    assert _argv_lists(workload, 7) == _argv_lists(workload, 7)


@pytest.mark.parametrize("workload", ["small-members", "large-members", "verify-mix"])
def test_other_seed_other_calls(workload):
    assert _argv_lists(workload, 7) != _argv_lists(workload, 8)


def test_verify_quick_ignores_the_seed():
    assert _argv_lists("verify-quick", 7) == _argv_lists("verify-quick", 8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_matches_recorded_digests(workload):
    rounds = TINY_ROUNDS[workload]
    calls = [call for rnd in workloads.first_rounds(workload, 1, rounds) for call in rnd]
    table = json.loads((HERE / "digests.json").read_text())[workload]
    result = _worker({"workload": workload, "seed": 1, "rounds": rounds})
    assert result["problems"] == []
    assert result["digests"] == [table[call.key()] for call in calls]
    assert result["rows"] >= len(calls)


def test_traced_replay_prints_what_the_plain_one_prints():
    config = {"workload": "small-members", "seed": 3, "rounds": 40}
    plain = _worker(config)
    traced = _worker({**config, "trace": True})
    assert traced["digests"] == plain["digests"]
    layers = dict(traced["layers"])
    assert layers["cli.main.calls"][0] == 40
    assert layers["families.dilatation.calls"][0] == 40
    assert layers["poly.sign_at.calls"][0] > 0


def test_coverage_check_reports_a_stray_binding():
    snippet = (
        "import layers, pabraid.spectral\n"
        "stray = [pabraid.spectral.largest_real_root]\n"
        "tracer = layers.Tracer(); tracer.install()\n"
        "assert pabraid.families.largest_real_root is not stray[0]\n"
        "print(tracer.missed_bindings())\n"
    )
    env = {**os.environ, "PYTHONPATH": f"{ROOT / 'src'}{os.pathsep}{HERE}"}
    proc = subprocess.run([sys.executable, "-c", snippet], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['spectral.largest_real_root still bound at list']"


def test_checker_rejects_a_witness_outside_its_enclosure():
    call = Call(("dilatation", "sigma", "1", "3"))
    good = (
        '{"family":"sigma","m":1,"n":3,"tn_class":"pseudo_anosov","poly":[-1,1,2,0,-2,-1,1],'
        '"root":{"lower":"924536703/536870912","upper":"1849073407/1073741824","witness":1.722083806},'
        '"provenance":"both_agree"}'
    )
    assert checks.check(call, 0, good) == (1, None)
    assert checks.check(call, 0, good.replace("1.722083806", "1.722083816"))[1] is not None
    assert checks.check(call, 0, good.replace("[-1,1,2,0,-2,-1,1]", "[-1,1,2,0,-2,-2,1]"))[1] is not None
    assert checks.check(call, 1, good)[1] == "exit code 1"


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-members", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
