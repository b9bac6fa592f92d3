"""One workload process: a closed loop with one client calling
``pabraid.cli.main(argv)`` in this fresh interpreter.

Run by ``run.py`` as ``python3 perfbench/worker.py '<json config>'`` from the
checkout root with ``src`` on ``PYTHONPATH``.  The config holds ``workload``
and ``seed`` and one of ``seconds`` (run whole rounds until that much time
has been spent inside ``cli.main``), ``rounds`` (run exactly that many
rounds) or ``record`` (run the calls whose digests are recorded).  With
``trace`` the per-layer wrappers are installed first.

Prints one JSON object on stdout: latencies, stdout digests, rows, the
problems found by the output checks and peak resident memory.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import checks
import workloads

DIGESTS = Path(__file__).with_name("digests.json")
_WARM_UP = ("dilatation", "sigma", "1", "3")


def _import_program(root: Path):
    from pabraid import cli

    source = Path(cli.__file__).resolve()
    if root / "src" not in source.parents:
        raise SystemExit(f"pabraid was imported from {source}, not from {root / 'src'}")
    return cli


def _rounds(config: dict):
    if config.get("record"):
        yield workloads.recorded_calls(config["workload"])
        return
    stream = workloads.rounds(config["workload"], config["seed"])
    if "rounds" in config:
        for _ in range(config["rounds"]):
            yield next(stream)
    else:
        yield from stream


def _invoke(cli, argv) -> tuple[int | str, str, str, float]:
    """Exit code (or the uncaught exception), stdout, stderr and latency of one call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback is a failed call, not a crashed benchmark
            code = f"uncaught {exc!r}"
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


def main() -> int:
    config = json.loads(sys.argv[1])
    root = Path.cwd()
    cli = _import_program(root)
    recorded = {}
    if DIGESTS.exists() and not config.get("record"):
        recorded = json.loads(DIGESTS.read_text()).get(config["workload"], {})
    _invoke(cli, _WARM_UP)  # lazy first-use costs inside mpmath, outside the measurement

    tracer = None
    if config.get("trace"):
        import layers

        tracer = layers.Tracer()
        tracer.install()
        missed = tracer.missed_bindings()
        if missed:
            print(json.dumps({"error": "wrapper coverage: " + "; ".join(missed)}))
            return 1

    busy, rows = 0.0, 0
    latencies, digests, keys, problems = [], [], [], []
    for rnd in _rounds(config):
        if busy >= config.get("seconds", float("inf")):
            break
        for call in rnd:
            code, stdout, stderr, elapsed = _invoke(cli, call.argv)
            busy += elapsed
            digest = hashlib.sha256(f"{code}\n{stdout}".encode()).hexdigest()[:16]
            key = call.key()
            if isinstance(code, int):
                n_rows, problem = checks.check(call, code, stdout)
            else:
                n_rows, problem = 0, code
            if problem is None and recorded.get(key, digest) != digest:
                problem = "stdout differs from the recorded digest"
            if problem is not None:
                problems.append({"call": len(latencies), "argv": " ".join(call.argv)[:200], "problem": problem, "stderr": stderr[-300:]})
            latencies.append(elapsed)
            digests.append(digest)
            keys.append(key)
            rows += n_rows

    result = {
        "latencies": latencies,
        "digests": digests,
        "rows": rows,
        "busy_s": busy,
        "problems": problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if config.get("record"):
        result["recorded"] = dict(zip(keys, digests))
    if tracer is not None:
        result["layers"] = tracer.report()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
