#!/usr/bin/env python3
"""Record reference.json: the output of each workload's warm-up op.

    python3 perfbench/record_reference.py

Run only at a commit whose outputs are known good, and commit the file in
a change of its own: every benchmark run compares its warm-up op (op seed
workloads.REFERENCE_SEED) against these outputs, and population and
cli_csv also compare their seed-independent parts of every op.
"""

import json
import shutil
import sys

import run  # pins the thread pools and puts the package on sys.path

import workloads


def main() -> int:
    workdir = run.ROOT / ".bench_build" / "perfbench" / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    reference = {}
    try:
        for name, cls in workloads.WORKLOADS.items():
            wl = cls()
            wl.prepare(workdir, {name: None})
            inp = wl.make_input(workloads.REFERENCE_SEED)
            reference[name] = wl.plain(wl.run(inp))
            wl.release(inp)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (run.HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
