"""Record reference.json: the optimal effort cost of every solve.

    python3 perfbench/reference.py

Solves each workload's base problems (seed 0; every seed gives a symmetry
image with the same cost) at both sizes and writes the costs; a solve that
fails is written as null.  Run it only when a workload's problem list changes,
on a commit whose solver is trusted.
"""

import json
import os
import sys
import tempfile

import run  # pins BLAS threads and imports discvar from the checkout
import workloads


def record():
    refs = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as workdir:
        for name in workloads.WORKLOADS:
            for size in workloads.SIZES:
                workload = workloads.build(name, 0, size, workdir, references={})
                entry = refs.setdefault(name, {}).setdefault(size, {})
                for op in workload.ops:
                    if op.cost is None:
                        continue
                    try:
                        outcome = op.run()
                    except run.TYPED_FAILURES as exc:
                        print(f"{name}/{size}/{op.name}: {exc}", file=sys.stderr)
                        entry[op.name] = None
                        continue
                    entry[op.name] = op.cost(outcome)
                    print(f"{name}/{size}/{op.name}: {entry[op.name]!r}", file=sys.stderr)
    return refs


if __name__ == "__main__":
    refs = record()
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "reference.json"), "w") as fh:
        json.dump(refs, fh, indent=2, sort_keys=True)
        fh.write("\n")
