"""Record expected.json: every point's outcome at seed 0, confirmed first.

    python3 perfbench/record_expected.py [workload ...]

Runs one pass of each named workload (all by default) at seed 0 and checks
it the way a benchmark run does, HiGHS included, but against no table.
Writes the table only if every check passes; otherwise prints the failures
and exits 1. Re-record only when a change is meant to alter the answers.
"""

from __future__ import annotations

import json
import sys

import bootstrap


def main(argv) -> int:
    bootstrap.pin()
    import importlib.metadata

    import check
    import spans
    from workloads import WORKLOADS

    names = argv or list(WORKLOADS)
    doc = (
        json.loads(check.EXPECTED.read_text())
        if check.EXPECTED.exists()
        else {"seed": check.DEFAULT_SEED, "workloads": {}}
    )
    bootstrap.WORK.mkdir(exist_ok=True)
    for name in names:
        wl = WORKLOADS[name]
        state = wl.setup(check.DEFAULT_SEED, bootstrap.WORK)
        with spans.Recorder(spans.POINTS + spans.LP_CAPTURE) as rec:
            res = wl.run_pass(state, rec)
        tally = check.Tally(wl, None)
        tally.add(res, rec)
        tally.add_highs(rec)
        if tally.failed:
            print(f"{name}: {tally.failed} of {tally.attempted} points failed:",
                  *tally.notes, sep="\n")
            return 1
        doc["workloads"][name] = {
            k: check.table_entry(name, o) for k, o in sorted(res.outcomes.items())
        }
        print(f"{name}: {tally.attempted} points recorded, HiGHS agrees on every LP")
    doc["recorded_with"] = {
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
    }
    check.EXPECTED.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
