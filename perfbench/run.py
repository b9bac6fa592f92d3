"""pabraid benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload large-members --seed 1 --seconds 50 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics: a closed loop with one client calling ``pabraid.cli.main(argv)`` in
a fresh interpreter for ``--seconds`` of program time, with the set-up time
of a fresh interpreter sampled before and after it.  ``--trace 1`` replays a
fixed number of rounds of the same seeded calls untraced and then traced,
and reports the per-layer counts and self times, the start-up split and the
tracing overhead.  Every call's output is checked (see ``checks.py``); a traced
call must print exactly what the untraced call printed.

Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
DEADLINE_S = 170
# Half of the set-up samples are taken before the workload process and half
# after it, a minute apart, so that one slow or fast spell of the shared
# machine does not decide a run's set-up time.
SETUP_SAMPLES = 16
STARTUP_SAMPLES = 5
_IMPORT = "import pabraid.cli"
_IMPORTTIME = re.compile(r"^import time:\s*(\d+) \|\s*(\d+) \|( *)(\S+)$")


class BenchError(Exception):
    pass


def _env() -> dict:
    return {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0"}


def _python(args: list[str], deadline: float, check: bool = True) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=_env(), capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if check and proc.returncode != 0:
        raise BenchError(f"{' '.join(args)[:120]} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return proc


def _wall_times(args: list[str], samples: int, deadline: float) -> list[float]:
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        _python(args, deadline)
        times.append(time.perf_counter() - start)
    return times


def _worker(config: dict, deadline: float) -> dict:
    proc = _python([str(Path(__file__).with_name("worker.py")), json.dumps(config)], deadline, check=False)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    if proc.returncode != 0 or "error" in result:
        raise BenchError(result.get("error") or f"worker exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return result


def _startup_split(deadline: float) -> dict[str, float]:
    """Medians of bare-interpreter time and of the mpmath and pabraid shares of
    ``import pabraid.cli`` as ``-X importtime`` reports them."""
    mpmath_s, pabraid_s = [], []
    for _ in range(STARTUP_SAMPLES):
        cumulative = {}
        for line in _python(["-X", "importtime", "-c", _IMPORT], deadline).stderr.splitlines():
            match = _IMPORTTIME.match(line)
            if match:
                cumulative.setdefault((len(match[3]), match[4]), int(match[2]) / 1e6)
        mpmath = next((v for (_, name), v in cumulative.items() if name == "mpmath"), 0.0)
        mpmath_s.append(mpmath)
        pabraid_s.append(cumulative[(1, "pabraid.cli")] - mpmath)
    return {
        "startup.python_s": statistics.median(_wall_times(["-c", "pass"], STARTUP_SAMPLES, deadline)),
        "startup.mpmath_import_s": statistics.median(mpmath_s),
        "startup.pabraid_import_s": statistics.median(pabraid_s),
    }


def _tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it, as
    (latency, percentile, samples beyond).  With twenty calls or fewer that
    percentile would not lie above the median, so the slowest call is taken,
    with none beyond."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 20:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def _failed_calls(*results: dict) -> set[int]:
    return {p["call"] for r in results for p in r["problems"]}


def _measure(workload: str, seed: int, seconds: int, deadline: float):
    _python(["-c", _IMPORT], deadline)  # compile bytecode once, outside the samples
    setup = _wall_times(["-c", _IMPORT], SETUP_SAMPLES // 2, deadline)
    res = _worker({"workload": workload, "seed": seed, "seconds": seconds}, deadline)
    setup += _wall_times(["-c", _IMPORT], SETUP_SAMPLES - SETUP_SAMPLES // 2, deadline)
    lat = res["latencies"]
    tail, pct, beyond = _tail(lat)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "results_per_s": (res["rows"] / res["busy_s"], "1/s"),
        "call_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "call_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    failed = _failed_calls(res)
    notes = [
        f"{len(lat)} calls, {res['rows']} rows in {res['busy_s']:.2f} s of program time",
        f"call_tail_ms is p{pct:.2f} of {len(lat)} calls ({beyond} beyond it)",
        f"fail_ratio {len(failed) / len(lat):.4g} ratio ({len(failed)} of {len(lat)} calls failed)",
    ]
    return metrics, len(lat), failed, res["problems"], notes


def _trace(workload: str, seed: int, deadline: float):
    config = {"workload": workload, "seed": seed, "rounds": workloads.TRACE_ROUNDS[workload]}
    plain = _worker(config, deadline)
    traced = _worker({**config, "trace": True}, deadline)
    if len(plain["digests"]) != len(traced["digests"]):
        raise BenchError("traced run made a different number of calls")
    mismatched = {i for i, (a, b) in enumerate(zip(plain["digests"], traced["digests"])) if a != b}
    metrics = {name: tuple(value) for name, value in traced["layers"].items()}
    metrics.update({name: (value, "s") for name, value in _startup_split(deadline).items()})
    metrics["trace.overhead_ratio"] = (traced["busy_s"] / plain["busy_s"], "ratio")
    problems = plain["problems"] + traced["problems"] + [
        {"call": i, "argv": "", "problem": "traced stdout differs from untraced stdout"} for i in sorted(mismatched)
    ]
    notes = [f"replayed {len(plain['digests'])} calls untraced and traced; {len(mismatched)} digests differ"]
    return metrics, len(plain["digests"]), _failed_calls(plain, traced) | mismatched, problems, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.RECORDED_SEEDS[0])
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "pabraid" / "cli.py").is_file():
        print(f"error: no pabraid sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            metrics, attempted, failed, problems, notes = _trace(args.workload, args.seed, deadline)
        else:
            metrics, attempted, failed, problems, notes = _measure(args.workload, args.seed, args.seconds, deadline)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for line in notes:
        print(f"  {line}")
    for problem in problems[:20]:
        print(f"  FAILED call {problem['call']}: {problem['argv'][:80]}: {problem['problem']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
