#!/usr/bin/env python3
"""Record the golden output digests of every workload at the default seed.

    python3 bench/record_golden.py [workload ...]

Run this only when a change to the program's printed output is intended;
the gate then requires byte identity with the recorded outputs.
"""
from __future__ import annotations

import json
import sys

import gate
import run
import workloads


def record(workload: str) -> dict:
    work = workloads.generate(workload, workloads.DEFAULT_SEED)
    if workload == "cli-cold":
        def run_one(call):
            code, stdout, stderr, _ = run.run_cli_process(call.args)
            if code != 0:
                raise RuntimeError(f"{call.key} exited {code}: {stderr}")
            return code, stdout
    else:
        from swapsim import protocols

        def run_one(call):
            return workloads.execute(protocols, call)
    return {call.key: gate.digest(gate.canonical_text(run_one(call)))
            for call in work.calls}


def main(argv) -> int:
    sys.path.insert(0, str(run.SRC))
    for workload in argv or workloads.WORKLOADS:
        digests = record(workload)
        path = gate.GOLDEN_DIR / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps({"seed": workloads.DEFAULT_SEED, "digests": digests},
                                   indent=1, sort_keys=True) + "\n")
        print(f"{path.name}: {len(digests)} outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
