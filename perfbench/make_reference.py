"""Regenerate the committed references in perfbench/reference/.

    python3 perfbench/make_reference.py [workload ...]

Runs one pass of each workload, takes its target-independent results as
the new reference, and writes it only if the same pass also agrees with
the independent oracles.  Run it only when a change is meant to alter
results, and say so in the change.
"""

import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench.stats import Tally  # noqa: E402
from perfbench.workloads import (REFERENCE_DIR, WORKLOADS, read_bytes,  # noqa: E402
                                 report_path, survey_reference)


def make(name, workdir):
    wl = WORKLOADS[name](0, workdir)
    outputs = wl.run_pass()
    if name == "survey":
        ref = survey_reference(read_bytes(report_path(wl.argv)))
        ref["floats"] = [[float(f"{v:.12g}") for v in row] for row in ref["floats"]]
    else:
        ref = {op: wl.summary(op, outputs[op]) for op, *_ in wl.ops}
    wl.reference = ref
    tally = Tally()
    wl.check_pass(outputs, tally, 0)
    wl.finish(tally)
    if tally.failed:
        for key, reasons in tally.failures.items():
            print(f"{name} {key}: {'; '.join(reasons)}", file=sys.stderr)
        raise SystemExit(f"{name}: not written, {tally.failed} checks failed")
    with open(os.path.join(REFERENCE_DIR, f"{name}.json"), "w") as fh:
        json.dump(ref, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{name}: reference written")


def main(names):
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory() as workdir:
        for name in names or ("survey", "large_prime", "orders"):
            make(name, workdir)


if __name__ == "__main__":
    main(sys.argv[1:])
