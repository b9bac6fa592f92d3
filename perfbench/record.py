"""Record the stdout digest of every call that ``workloads.recorded_calls`` lists.

    python3 perfbench/record.py [workload ...]

Writes ``perfbench/digests.json``, which maps each workload to
``{call key: sha256 prefix of exit code and stdout}``.  The benchmark then
fails any call whose key is recorded and whose output differs.  Record only
at a commit whose output is meant to be the reference; every call is still
checked independently while recording, and problems are printed, not
filtered out.
"""

from __future__ import annotations

import json
import sys
import time

import run
import workloads


def main(names: list[str]) -> int:
    path = run.ROOT / "perfbench" / "digests.json"
    table = json.loads(path.read_text()) if path.exists() else {}
    for workload in names or workloads.WORKLOADS:
        result = run._worker({"workload": workload, "record": True}, time.monotonic() + 1800)
        table[workload] = result["recorded"]
        print(f"{workload}: {len(result['recorded'])} digests, {len(result['problems'])} problems")
        for problem in result["problems"]:
            print(f"  {problem['argv'][:80]}: {problem['problem']}")
    path.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
